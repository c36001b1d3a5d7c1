"""Reference largest-remainder rounding for the budget tests.

`oracle_largest_remainder` sorts the streams by their raw shares' fractional
parts as the raws' own type computes them: exact `Fraction` arithmetic for
the traffic-volume and avg-degree formulas, floats for page-rank. It is
slow for Fractions but obviously right, which makes it the oracle
`tsnplan.expansion._largest_remainder` is checked against.

`oracle_uniform_split` is the closed form of an even split: the first
`total % n` streams get one more than `total // n`. The budgets pass equal
`Fraction` shares to `_largest_remainder` instead, which must agree.

`oracle_extras` writes the budget formula the plain way: each stream's
distance below the ceiling, times r_i, over the distances' own sum, or an
even split of r_i when that sum is zero (within 1e-12 for floats). It is
what `tsnplan.expansion._extras` is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction


def oracle_largest_remainder(raws, total: int, order: list[str]) -> dict[str, int]:
    floors = {sid: int(math.floor(raws[sid])) for sid in order}
    remaining = total - sum(floors.values())
    by_frac = sorted(
        range(len(order)), key=lambda i: (-(raws[order[i]] - floors[order[i]]), i)
    )
    for i in by_frac[:remaining]:
        floors[order[i]] += 1
    return floors


def oracle_uniform_split(total: int, order: list[str]) -> dict[str, int]:
    n = len(order)
    return {sid: total // n + (1 if i < total % n else 0) for i, sid in enumerate(order)}


def oracle_extras(metrics: dict, top, r_i: int, order: list[str]) -> dict:
    dist = {sid: top - metrics[sid] for sid in order}
    total = sum(dist.values())
    if total == 0 or isinstance(total, float) and abs(total) < 1e-12:
        return {sid: Fraction(r_i, len(order)) for sid in order}
    return {sid: r_i * d / total for sid, d in dist.items()}

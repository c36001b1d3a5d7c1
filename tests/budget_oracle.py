"""Reference largest-remainder rounding for the budget tests.

`oracle_largest_remainder` sorts the streams by their raw shares' fractional
parts as the raws' own type computes them: exact `Fraction` arithmetic for
the traffic-volume and avg-degree formulas, floats for page-rank. It is
slow for Fractions but obviously right, which makes it the oracle
`tsnplan.expansion._largest_remainder` is checked against.

`oracle_uniform_split` is the closed form of an even split: the first
`total % n` streams get one more than `total // n`. The budgets pass equal
`Fraction` shares to `_largest_remainder` instead, which must agree.
"""

from __future__ import annotations

import math


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

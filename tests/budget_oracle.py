"""Reference largest-remainder rounding for the budget tests.

`oracle_largest_remainder` sorts the streams by their raw shares' fractional
parts as the raws' own type computes them: exact `Fraction` arithmetic for
the traffic-volume and avg-degree formulas, floats for page-rank. It is
slow for Fractions but obviously right, which makes it the oracle
`tsnplan.expansion._largest_remainder` is checked against.
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

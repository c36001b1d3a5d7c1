"""Reference phase enumeration for the expansion tests.

`oracle_randomized_enumeration` builds every route's phase pool as an
explicit list and samples from it. It costs O(max phase) per route, but it
is obviously right, which makes it the oracle
`tsnplan.expansion.randomized_enumeration` is checked against.
"""

from __future__ import annotations

from random import Random


def oracle_randomized_enumeration(
    max_phases: list[int],
    budget: int,
    rng: Random,
    exclude: set[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    exclude = exclude or set()
    m = len(max_phases)
    pools: list[list[int]] = []
    for ri, mp in enumerate(max_phases):
        if mp < 0:
            pools.append([])
        else:
            used = {phi for (i, phi) in exclude if i == ri}
            pools.append([phi for phi in range(mp + 1) if phi not in used])
    shares = [budget // m + (1 if i < budget % m else 0) for i in range(m)]
    alloc = [min(sh, len(pool)) for sh, pool in zip(shares, pools)]
    leftover = budget - sum(alloc)
    for i in range(m):
        if leftover == 0:
            break
        extra = min(leftover, len(pools[i]) - alloc[i])
        alloc[i] += extra
        leftover -= extra
    out: list[tuple[int, int]] = []
    for ri in range(m):
        if alloc[ri]:
            for phi in rng.sample(pools[ri], alloc[ri]):
                out.append((ri, phi))
    return out

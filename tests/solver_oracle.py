"""Reference greedy colorful-set solve for the solver tests.

`oracle_gfh_solve` is the greedy solve as `tsnplan.solver.gfh_solve` ran it
before the candidate scan became array work: pinned vertices are selected
one at a time, and each color step loops over the color's free vertices in
vid order, counting each one's free neighbours with its own numpy call and
keeping the first of the smallest (feasible degree, phase, route index).
It is slow but obviously right, which makes it the oracle `gfh_solve` is
checked against, return value and raised color included. It reads the
graph only through `csr` and `columns`.
"""

from __future__ import annotations

import numpy as np

from tsnplan.solver import RequiredColorUnsatisfiable

_FREE, _EXCLUDED, _SELECTED = 0, 1, 2


def oracle_gfh_solve(
    g,
    required: list[str],
    optional: list[str],
    pinned: list[tuple[str, int]] | None = None,
) -> tuple[dict[str, int], set[str]]:
    pinned = pinned or []
    colors = list(dict.fromkeys(required + optional))
    n_colors = len(colors)
    cindex = {c: i for i, c in enumerate(colors)}
    indptr, indices = g.csr()
    col_of, route, phase = g.columns(colors)
    route, phase = route.tolist(), phase.tolist()  # plain ints for the vertex keys
    state = np.zeros(len(col_of), dtype=np.int8)
    # each color's vids, ascending: a stable sort by color
    order = np.argsort(col_of, kind="stable")
    bounds = np.searchsorted(col_of[order], np.arange(n_colors + 1))
    color_vids = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    feas = np.diff(bounds)
    total = feas.copy()
    rank = np.empty(n_colors, dtype=np.int64)  # tie-break by stream id
    for r, c in enumerate(sorted(colors)):
        rank[cindex[c]] = r
    required_mask = np.isin(colors, required)
    resolved = np.zeros(n_colors, dtype=bool)
    # lexicographic (feas, total, rank) packed into one sortable integer
    m2 = n_colors + 1
    m1 = m2 * (int(total.max(initial=0)) + 1)
    selected: dict[str, int] = {}
    rejected: set[str] = set()

    def exclude_free(vids: np.ndarray) -> None:
        free = vids[state[vids] == _FREE]
        state[free] = _EXCLUDED
        ci = col_of[free]
        ci = ci[ci >= 0]
        if len(ci):
            np.subtract.at(feas, ci, 1)

    def select(ci: int, vid: int) -> None:
        state[vid] = _SELECTED
        selected[colors[ci]] = vid
        resolved[ci] = True
        siblings = color_vids[ci]
        exclude_free(siblings[siblings != vid])
        exclude_free(indices[indptr[vid] : indptr[vid + 1]])

    for color, vid in pinned:
        if state[vid] != _FREE:
            raise RequiredColorUnsatisfiable(color)
        select(cindex[color], vid)

    n_resolved = int(resolved.sum())
    while n_resolved < n_colors:
        key = feas * m1 + total * m2 + rank
        key[resolved] = np.iinfo(np.int64).max
        ci = int(np.argmin(key))
        if feas[ci] == 0:
            if required_mask[ci]:
                raise RequiredColorUnsatisfiable(colors[ci])
            rejected.add(colors[ci])
            resolved[ci] = True
            n_resolved += 1
            continue
        cands = color_vids[ci]
        cands = cands[state[cands] == _FREE]
        best_vid = None
        best_key = None
        for v in cands.tolist():
            nb = indices[indptr[v] : indptr[v + 1]]
            feasdeg = int(np.count_nonzero(state[nb] == _FREE))
            vkey = (feasdeg, phase[v], route[v])
            if best_key is None or vkey < best_key:
                best_key, best_vid = vkey, v
        select(ci, best_vid)
        n_resolved += 1

    return selected, rejected

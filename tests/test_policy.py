"""Differential-backlog weights, rate assignments and the three schemes."""

from dataclasses import replace

import numpy as np

from bpsim import phy
from bpsim.model import Commodity, NetworkModel, Scenario, TrafficSpec, generate_scenario
from bpsim.policy import (compute_weights, make_scheme, rates_from_power)
from bpsim.sim import default_sim_config
from bpsim.solver import SolveDiagnostics, SolverConfig, solve_max_weight

from conftest import positions_model, tandem_scenario


def _line_model():
    pos = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
    return positions_model(pos, links=((0, 1), (1, 0), (1, 2), (2, 1)))


def _traffic_to(dest, n=3, k=1):
    return TrafficSpec(
        commodities=tuple(Commodity(id=i, destinations=frozenset({dest}))
                          for i in range(k)),
        arrival_mean=np.zeros((n, k)),
    )


def test_weights_single_commodity_difference():
    m = _line_model()
    traffic = _traffic_to(dest=2)
    u = np.array([[5.0], [2.0], [0.0]])
    w = compute_weights(u, traffic, m)
    idx = m.link_index()
    assert w.weight[idx[(0, 1)]] == 3.0
    assert w.commodity[idx[(0, 1)]] == 0


def test_weights_negative_difference_clipped():
    m = _line_model()
    traffic = _traffic_to(dest=2)
    u = np.array([[2.0], [5.0], [0.0]])
    w = compute_weights(u, traffic, m)
    idx = m.link_index()
    assert w.weight[idx[(0, 1)]] == 0.0
    assert w.weight[idx[(1, 0)]] == 3.0


def test_weights_destination_counts_as_zero():
    m = _line_model()
    traffic = _traffic_to(dest=2)
    u = np.array([[0.0], [4.0], [0.0]])
    # node 2 is the destination: no queue there, so the full backlog drives
    # the link into it
    w = compute_weights(u, traffic, m)
    idx = m.link_index()
    assert w.weight[idx[(1, 2)]] == 4.0


def test_weights_tie_breaks_to_lowest_commodity():
    m = _line_model()
    traffic = TrafficSpec(
        commodities=(Commodity(id=0, destinations=frozenset({2})),
                     Commodity(id=1, destinations=frozenset({2}))),
        arrival_mean=np.zeros((3, 2)),
    )
    u = np.array([[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]])
    w = compute_weights(u, traffic, m)
    idx = m.link_index()
    assert w.commodity[idx[(0, 1)]] == 0


def test_weights_scale_consistency():
    rng = np.random.default_rng(21)
    sc = generate_scenario(6, 3.0, seed=4)
    u = rng.random((6, 6)) * 20
    a = compute_weights(u, sc.traffic, sc.model)
    b = compute_weights(3.5 * u, sc.traffic, sc.model)
    assert np.array_equal(a.commodity, b.commodity)
    assert np.allclose(b.weight, 3.5 * a.weight)


def _commodity_rates(rates, n_commodities: int) -> np.ndarray:
    """(E, K) expansion of ``rates``; zero except at each link's chosen commodity."""
    out = np.zeros((rates.rate.size, n_commodities))
    out[np.arange(rates.rate.size), rates.commodity] = rates.rate
    return out


def test_rates_from_power_structure():
    sc = tandem_scenario()
    m = sc.model
    u = np.array([[7.0], [3.0], [0.0]])
    w = compute_weights(u, sc.traffic, m)
    st, _ = solve_max_weight(m, w.weight, phy.uniform_power_state(m))
    met = phy.link_metrics(m, st)
    rates = rates_from_power(met.capacity, w)
    idx = m.link_index()
    assert rates.rate[idx[(0, 1)]] > 0
    assert rates.rate[idx[(1, 2)]] > 0
    # zero-weight links excluded
    assert np.all(rates.rate[w.weight == 0] == 0.0)
    # the full aggregate goes to the chosen commodity
    per_k = _commodity_rates(rates, sc.traffic.n_commodities)
    assert np.allclose(per_k.sum(axis=1), rates.rate)
    # single link with weight: rate equals clipped capacity times the slot
    assert np.isclose(rates.rate[idx[(0, 1)]], max(met.capacity[idx[(0, 1)]], 0.0))


def test_instant_scheme_solves_to_convergence():
    sc = tandem_scenario()
    scheme = make_scheme("instant", sc.model, sc.traffic,
                         SolverConfig(kkt_tolerance=1e-6, max_iterations=500))
    u = np.array([[9.0], [4.0], [0.0]])
    rates, info = scheme.step(u)
    assert info.converged
    objs = info.objectives
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
    assert np.all(rates.rate >= 0)


def test_iterative_schemes_track_and_fix_point():
    sc = tandem_scenario()
    cfg = SolverConfig(kkt_tolerance=1e-8, max_iterations=200)
    scheme = make_scheme("iter-conv", sc.model, sc.traffic, cfg,
                         iterations_per_slot=50)
    u = np.array([[9.0], [4.0], [0.0]])
    r1, i1 = scheme.step(u)
    # stationary weights: the second slot starts at the converged point and
    # delivers the converged optimal rates
    r2, i2 = scheme.step(u)
    assert i2.iterations <= 1
    assert np.allclose(r2.rate, r1.rate, rtol=1e-2)
    r3, i3 = scheme.step(u)
    assert np.allclose(r3.rate, r2.rate, rtol=1e-9)
    # per-slot objective trace is non-decreasing
    for info in (i1, i2, i3):
        objs = info.objectives
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))


def test_iter_conv_mean_below_final_capacity():
    sc = tandem_scenario()
    cfg = SolverConfig(kkt_tolerance=1e-8, max_iterations=200)
    scheme = make_scheme("iter-conv", sc.model, sc.traffic, cfg,
                         iterations_per_slot=50)
    u = np.array([[9.0], [4.0], [0.0]])
    scheme.step(u)
    warm = scheme.power.copy()
    u2 = np.array([[14.0], [6.0], [0.0]])
    r, info = scheme.step(u2)
    # independent recomputation of the within-slot capacity trajectory
    from bpsim.policy import compute_weights as cw
    w = cw(u2, sc.traffic, sc.model)
    _, diag = solve_max_weight(sc.model, w.weight, warm, replace(cfg, max_iterations=50),
                               collect_rates=True)
    trace = diag.capacity_trace
    samples = trace[:50]
    mean = np.sum(samples, axis=0) + (50 - len(samples)) * trace[-1]
    mean /= 50.0
    assert np.allclose(r.rate, mean, rtol=1e-12, atol=1e-12)
    peak = np.max(trace, axis=0)
    assert np.all(r.rate <= peak + 1e-12)


def test_iter_once_is_single_update():
    sc = tandem_scenario()
    scheme = make_scheme("iter-once", sc.model, sc.traffic,
                         SolverConfig(kkt_tolerance=1e-10, max_iterations=500))
    # only the relay link carries weight, so the idle source node is a pure
    # interferer whose full-power start is not optimal: one update must run
    u = np.array([[1.0], [30.0], [0.0]])
    _, info = scheme.step(u)
    assert info.iterations == 1
    # at a point that is already optimal the single update is a no-op
    u2 = np.array([[9.0], [4.0], [0.0]])
    scheme2 = make_scheme("iter-once", sc.model, sc.traffic,
                          SolverConfig(kkt_tolerance=1e-10, max_iterations=500))
    _, info2 = scheme2.step(u2)
    assert info2.iterations <= 1


def test_one_iteration_delivers_what_integrate_mean_decides():
    """At one iteration per slot, ``iter-conv`` delivers its warm-start
    capacities (the first row of its capacity trace, clipped), while
    ``iter-once`` delivers the capacities after its one update: on the same
    backlog from the same start, the two differ."""
    sc = tandem_scenario()
    cfg = SolverConfig(kkt_tolerance=1e-10, max_iterations=500)
    u = np.array([[1.0], [30.0], [0.0]])
    conv = make_scheme("iter-conv", sc.model, sc.traffic, cfg, iterations_per_slot=1)
    once = make_scheme("iter-once", sc.model, sc.traffic, cfg)
    r_conv, d_conv = conv.step(u)
    r_once, d_once = once.step(u)
    assert d_conv.iterations == d_once.iterations == 1
    w = compute_weights(u, sc.traffic, sc.model).weight
    assert np.array_equal(r_conv.rate, np.where(w > 0, d_conv.capacity_trace[0], 0.0))
    assert np.array_equal(r_once.rate,
                          np.where(w > 0, np.maximum(d_once.metrics.capacity, 0.0), 0.0))
    assert not np.allclose(r_conv.rate, r_once.rate)


def test_instant_dominates_random_power_samples():
    sc = tandem_scenario()
    m = sc.model
    u = np.array([[11.0], [4.0], [0.0]])
    w = compute_weights(u, sc.traffic, m)
    scheme = make_scheme("instant", m, sc.traffic,
                         SolverConfig(kkt_tolerance=1e-7, max_iterations=1000))
    rates, _ = scheme.step(u)
    achieved = float(np.dot(w.weight, rates.rate))
    rng = np.random.default_rng(77)
    best = -np.inf
    for _ in range(10_000):
        st = phy.random_power_state(m, rng)
        met = phy.link_metrics(m, st)
        cand = float(np.dot(w.weight, np.maximum(met.capacity, 0.0)))
        best = max(best, cand)
    assert achieved >= best - 1e-6 * max(1.0, abs(best))


def test_schemes_zero_backlog_zero_rates():
    sc = tandem_scenario()
    for name in ("instant", "iter-conv", "iter-once"):
        scheme = make_scheme(name, sc.model, sc.traffic, SolverConfig())
        start = getattr(scheme, "power", None)
        rates, info = scheme.step(np.zeros((3, 1)))
        assert np.all(rates.rate == 0.0)
        # An idle slot runs no iteration and leaves the warm start in place.
        assert isinstance(info, SolveDiagnostics)
        assert (info.iterations, info.converged, info.objectives) == (0, True, [0.0])
        assert info.broadcasts == info.feedbacks == 0 and info.metrics is None
        if start is not None:
            assert np.array_equal(scheme.power.alloc, start.alloc)
            assert np.array_equal(scheme.power.exponent, start.exponent)


def test_instant_rates_are_clipped_capacities_of_returned_metrics():
    sc = tandem_scenario()
    scheme = make_scheme("instant", sc.model, sc.traffic, SolverConfig())
    u = np.array([[9.0], [4.0], [0.0]])
    rates, diag = scheme.step(u)
    w = compute_weights(u, sc.traffic, sc.model).weight
    clipped = np.where(w > 0, np.maximum(diag.metrics.capacity, 0.0), 0.0)
    assert np.array_equal(rates.rate, clipped)


def test_only_instant_and_the_oracle_solve_centrally():
    """``instant`` and the rate-region oracle stand in for the idealized
    optimum and take the centralized (projected-Newton) solve, whatever
    config they are handed; the iterative schemes keep the paper's
    node-local steps, and the caller's config is left as it was."""
    from bpsim.stability import RateRegionOracle

    sc = tandem_scenario()
    config = SolverConfig(kkt_tolerance=1e-6, max_iterations=300)
    assert make_scheme("instant", sc.model, sc.traffic, config).config == replace(
        config, centralized=True)
    for name in ("iter-conv", "iter-once"):
        assert not make_scheme(name, sc.model, sc.traffic, config).config.centralized
    assert RateRegionOracle(sc.model, sc.traffic).config.centralized
    assert RateRegionOracle(sc.model, sc.traffic, config).config == replace(
        config, centralized=True)
    assert not config.centralized

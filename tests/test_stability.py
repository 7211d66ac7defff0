"""Support function, halfspace gap, directional excess, cone and drift audits."""

import numpy as np
import pytest

from bpsim import phy
from bpsim.errors import ConfigError
from bpsim.solver import SolverConfig
from bpsim.stability import (RateRegionOracle, check_drift_condition,
                             estimate_epsilon, halfspace_margin,
                             omega_threshold, queue_norm)

from conftest import tandem_scenario


@pytest.fixture(scope="module")
def tandem_oracle():
    sc = tandem_scenario()
    return sc, RateRegionOracle(sc.model, sc.traffic)


def _grid_tandem(sc, coeff, res=240):
    """Exhaustive maximization of coeff . rtilde over the power grid.

    Straight from the capacity formulas: node 0 feeds the relay, node 1
    feeds the destination, node 0 interferes at the destination.
    coeff has one entry per queue (source, relay).
    """
    m = sc.model
    k = m.processing_gain
    h01, h12, h02 = m.gain[0, 1], m.gain[1, 2], m.gain[0, 2]
    gf = float(m.gamma_floor[0])
    g0 = np.linspace(gf, 1.0, res)[:, None]
    g1 = np.linspace(gf, 1.0, res)[None, :]
    p0 = m.power_cap[0] ** g0
    p1 = m.power_cap[1] ** g1
    c01 = np.maximum(np.log(k * h01 * p0 / m.noise[1]), 0.0) + 0.0 * p1
    c12 = np.maximum(np.log(k * h12 * p1 / (h02 * p0 + m.noise[2])), 0.0)
    # routing freedom: the first link's rate can idle anywhere in [0, c01]
    r01 = np.where(coeff[0] - coeff[1] >= 0, c01, 0.0)
    val = (coeff[0] - coeff[1]) * r01 + coeff[1] * c12
    best = np.unravel_index(np.argmax(val), val.shape)
    rt = np.array([r01[best[0], 0], c12[best] - r01[best[0], 0]])
    return float(val[best]), rt


def _u(full_source, relay):
    return np.array([[full_source], [relay], [0.0]])


def test_support_zero_vector(tandem_oracle):
    _, oracle = tandem_oracle
    val, rt = oracle.support(np.zeros((3, 1)))
    assert val == 0.0
    assert np.all(rt == 0.0)


def test_support_homogeneous(tandem_oracle):
    _, oracle = tandem_oracle
    u = _u(5.0, 2.0)
    v1, r1 = oracle.support(u)
    v2, r2 = oracle.support(2.0 * u)
    assert abs(v2 - 2.0 * v1) <= 1e-5 * max(1.0, abs(v2))
    assert np.allclose(r1, r2, rtol=1e-4, atol=1e-6)


def test_support_matches_grid(tandem_oracle):
    sc, oracle = tandem_oracle
    for (a, b) in ((5.0, 2.0), (1.0, 3.0), (4.0, 4.0)):
        val, rt = oracle.support(_u(a, b))
        grid_val, _ = _grid_tandem(sc, np.array([a, b]))
        assert abs(val - grid_val) / max(1.0, abs(grid_val)) < 1e-3


def test_support_dominates_samples(tandem_oracle):
    sc, oracle = tandem_oracle
    rng = np.random.default_rng(31)
    u = _u(3.0, 1.0)
    val, _ = oracle.support(u)
    samples = oracle.sample_rates(200, rng)
    vals = (u[None] * samples).sum(axis=(1, 2))
    assert vals.max() <= val + 1e-6 * max(1.0, abs(val))


def test_support_midpoint_convexity(tandem_oracle):
    _, oracle = tandem_oracle
    rng = np.random.default_rng(32)
    for _ in range(6):
        u = np.zeros((3, 1)); v = np.zeros((3, 1))
        u[:2, 0] = rng.random(2) * 5
        v[:2, 0] = rng.random(2) * 5
        su, _ = oracle.support(u)
        sv, _ = oracle.support(v)
        sm, _ = oracle.support((u + v) / 2.0)
        scale = max(1.0, abs(su), abs(sv))
        assert sm <= 0.5 * (su + sv) + 1e-5 * scale


def _interior_point(sc, oracle):
    """A dominant feasible point and an arrival vector strictly inside."""
    # modest fixed powers give positive drain on both queues
    m = sc.model
    st = phy.PowerState(np.array([1.0, 1.0]), np.array([-0.5, 1.0, 1.0]))
    met = phy.link_metrics(m, st)
    r01 = max(met.capacity[0], 0.0)
    r12 = max(met.capacity[1], 0.0)
    abar = np.array([[r01], [r12 - r01], [0.0]])
    assert abar[0, 0] > 0 and abar[1, 0] > 0
    a = abar / 2.0
    eps = float(np.min(abar[:2] - a[:2]))
    return abar, a, eps


def test_halfspace_gap_equality_case(tandem_oracle):
    sc, oracle = tandem_oracle
    _, a, eps = _interior_point(sc, oracle)
    e = a + (eps / 2.0) * oracle.mask()
    # single nonzero coordinate: the L1 and L2 norms coincide, equality
    u = _u(3.0, 0.0)
    margin = halfspace_margin(oracle, a, eps, u, e)
    assert abs(margin) < 1e-9


def test_halfspace_gap_maximizer_and_samples(tandem_oracle):
    sc, oracle = tandem_oracle
    rng = np.random.default_rng(33)
    abar, a, eps = _interior_point(sc, oracle)
    e = a + (eps / 2.0) * oracle.mask()
    checked = 0
    for _ in range(30):
        u = np.zeros((3, 1))
        u[:2, 0] = rng.random(2) * 4
        _, rstar = oracle.support(u)
        cands = [rstar]
        for rt in oracle.sample_rates(10, rng):
            cands.append(rt)
        for y in cands:
            if float((u * y).sum()) >= float((u * e).sum()):
                checked += 1
                assert halfspace_margin(oracle, a, eps, u, y) >= -1e-9
    assert checked >= 30


def test_directional_excess_nonnegative_and_grid(tandem_oracle):
    sc, oracle = tandem_oracle
    rng = np.random.default_rng(34)
    abar, a, eps = _interior_point(sc, oracle)
    for _ in range(5):
        delta = np.zeros((3, 1))
        delta[:2, 0] = rng.random(2)
        delta /= queue_norm(delta)
        d = oracle.directional_excess(delta, abar, rng, samples=16)
        assert d >= 0.0
        grid_val, _ = _grid_tandem(sc, delta[:2, 0])
        d_grid = grid_val - float((delta * abar).sum())
        assert d >= d_grid - 1e-3 * max(1.0, abs(d_grid))
        assert d <= d_grid + 1e-3 * max(1.0, abs(d_grid)) + 1e-6


def test_cone_trivial_and_far(tandem_oracle):
    sc, oracle = tandem_oracle
    rng = np.random.default_rng(35)
    abar, a, eps = _interior_point(sc, oracle)
    u = _u(6.0, 3.0)
    assert oracle.cone_contains(abar, eps, u, u.copy())
    far = u + 1e6
    far[2, 0] = 0.0
    assert not oracle.cone_contains(abar, eps, u, far, rng=rng, samples=8)


def test_cone_members_satisfy_halfspace(tandem_oracle):
    sc, oracle = tandem_oracle
    rng = np.random.default_rng(36)
    abar, a, eps = _interior_point(sc, oracle)
    e = a + (eps / 2.0) * oracle.mask()
    hits = 0
    for _ in range(25):
        u = np.zeros((3, 1))
        u[:2, 0] = 1.0 + rng.random(2) * 6
        diff = np.zeros((3, 1))
        diff[:2, 0] = rng.normal(size=2)
        diff[u + diff < 0] = 0.0
        d = oracle.directional_excess(diff, abar, rng, samples=16)
        if d <= 0:
            continue
        radius = eps * queue_norm(u) / (2.0 * d)
        u_prev = u + diff / queue_norm(diff) * min(radius * 0.8, radius)
        u_prev = np.maximum(u_prev, 0.0)
        if not oracle.cone_contains(abar, eps, u, u_prev, rng=rng, samples=16):
            continue
        hits += 1
        _, rstar = oracle.support(u_prev)
        assert float((u * rstar).sum()) >= float((u * e).sum()) - 1e-6
    assert hits >= 10


def test_omega_threshold_monotone():
    base = omega_threshold(eps=0.5, eps0=1.0, lam=100.0, alpha=0.2)
    assert base > 0
    assert omega_threshold(0.5, 1.0, 200.0, 0.2) > base
    with pytest.raises(ConfigError):
        omega_threshold(0.0, 1.0, 100.0, 0.2)


def _lyapunov(flat):
    """V column of a trace with per-queue backlogs ``flat``, as sim records it."""
    prev = np.vstack([flat[:1], flat[:-1]])
    return (flat ** 2).sum(axis=1) + ((flat - prev) ** 2).sum(axis=1)


def test_drift_condition_checks_large_states(tandem_oracle):
    sc, oracle = tandem_oracle
    rng = np.random.default_rng(37)
    abar, a, eps = _interior_point(sc, oracle)
    lam = 2.0 * (10.0 + 40.0 ** 2)
    # huge queue states exceed the compact region and must show negative drift
    big = np.array([[4e4, 3e4, 0.0], [4.2e4, 2.9e4, 0.0], [4.1e4, 3.1e4, 0.0]])
    report = check_drift_condition(oracle, a, eps, lam, 1.0, _lyapunov(big), big, rng)
    assert len(report.checked) == 2
    assert report.violations == 0
    assert report.omega > 0


def test_drift_condition_excludes_small_states(tandem_oracle):
    sc, oracle = tandem_oracle
    rng = np.random.default_rng(38)
    abar, a, eps = _interior_point(sc, oracle)
    lam = 2.0 * (10.0 + 40.0 ** 2)
    small = np.array([[5.0, 2.0, 0.0], [6.0, 1.0, 0.0], [4.0, 2.0, 0.0]])
    report = check_drift_condition(oracle, a, eps, lam, 1.0, _lyapunov(small), small,
                                   rng)
    assert report.checked == []
    # csv still renders with only the header
    assert report.to_csv().startswith("slot,V,omega,lhs,violation")


def test_drift_condition_rejects_exterior_arrivals(tandem_oracle):
    sc, oracle = tandem_oracle
    rng = np.random.default_rng(39)
    a_bad = np.full((3, 1), 1e9)
    with pytest.raises(ConfigError):
        check_drift_condition(oracle, a_bad, 0.1, 100.0, 1.0,
                              np.zeros(3), np.zeros((3, 3)), rng)


def test_estimate_epsilon_positive_interior(tandem_oracle):
    sc, oracle = tandem_oracle
    rng = np.random.default_rng(40)
    abar, a, eps_true = _interior_point(sc, oracle)
    est = estimate_epsilon(oracle, a, rng, samples=24)
    assert est > 0
    # the estimated margin is honored on fresh directions
    for _ in range(5):
        u = np.zeros((3, 1))
        u[:2, 0] = rng.random(2) * 3
        val, _ = oracle.support(u)
        assert val >= float((u * (a + 0.95 * est * oracle.mask())).sum()) - 1e-6

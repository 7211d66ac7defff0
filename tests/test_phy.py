"""SINR, capacities, objective and marginal gains against hand oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from bpsim import phy
from bpsim.errors import NumericDomainError
from bpsim.model import NetworkModel, generate_scenario

from conftest import random_model, random_weights


def isolated_link(cap=10.0, theta=0.0, h=1.0, noise=0.1):
    g = np.array([[0.0, h], [h, 0.0]])
    return NetworkModel(gain=g, noise=np.array([noise, noise]),
                        theta=np.array([theta, theta]),
                        power_cap=np.array([cap, cap]),
                        processing_gain=1e5, links=((0, 1),))


def test_isolated_link_capacity():
    m = isolated_link()
    met = phy.link_metrics(m, phy.uniform_power_state(m))
    assert np.isclose(met.sinr[0], 1e7)
    assert np.isclose(met.capacity[0], math.log(1e7))


def test_two_transmitters_one_receiver():
    # transmitters 0 and 1 both reach receiver 2 with unit gain
    g = np.zeros((3, 3))
    g[0, 2] = g[1, 2] = 1.0
    g[0, 1] = g[1, 0] = g[2, 0] = g[2, 1] = 0.3
    m = NetworkModel(gain=g, noise=np.array([0.1, 0.1, 0.1]),
                     theta=np.zeros(3), power_cap=np.full(3, 10.0),
                     processing_gain=1e5, links=((0, 2), (1, 2)))
    met = phy.link_metrics(m, phy.uniform_power_state(m))
    assert np.isclose(met.inoise[0], 10.1)
    assert np.isclose(met.capacity[0], math.log(1e5 * 10.0 / 10.1))


def test_five_node_scenario_metrics_finite():
    sc = generate_scenario(5, 7.0, seed=2)
    met = phy.link_metrics(sc.model, phy.uniform_power_state(sc.model))
    assert np.all(np.isfinite(met.capacity))
    assert np.all(met.capacity > 0)
    assert np.all(met.inoise > 0)
    # sinr * IN == K h P on every link
    h = sc.model.gain[sc.model.src, sc.model.dst]
    assert np.allclose(met.sinr * met.inoise, 1e5 * h * met.power)


def test_objective_zero_weights_and_single_link():
    m = isolated_link()
    st = phy.uniform_power_state(m)
    assert phy.objective_value(m, np.array([0.0]), st) == 0.0
    got = phy.objective_value(m, np.array([2.0]), st)
    assert np.isclose(got, 2.0 * math.log(1e7))


def test_objective_matches_term_sum():
    rng = np.random.default_rng(5)
    m = random_model(rng, n=4)
    st = phy.random_power_state(m, rng)
    w = np.zeros(m.n_links)
    w[[0, 3, 7]] = rng.random(3) * 4
    met = phy.link_metrics(m, st)
    by_hand = sum(w[l] * met.capacity[l] for l in (0, 3, 7))
    assert np.isclose(phy.objective_value(m, w, st), by_hand, rtol=1e-12)


def test_objective_rejects_zero_power_weighted_link():
    m = isolated_link()
    st = phy.uniform_power_state(m)
    st.alloc[0] = 0.0
    with pytest.raises(NumericDomainError):
        phy.objective_value(m, np.array([1.0]), st)


def test_alloc_gain_theta_zero_is_weight_over_power():
    rng = np.random.default_rng(6)
    m = random_model(rng, n=5, theta=0.0)
    st = phy.random_power_state(m, rng)
    w = random_weights(rng, m)
    met = phy.link_metrics(m, st)
    d = phy.alloc_marginal_gain(m, w, met)
    active = w > 0
    assert np.allclose(d[active], w[active] / met.power[active], rtol=1e-12)
    assert np.all(d[~active] == 0.0)


def test_alloc_gain_two_forms_agree():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_model(rng)
        st = phy.random_power_state(m, rng)
        w = random_weights(rng, m)
        met = phy.link_metrics(m, st)
        d = phy.alloc_marginal_gain(m, w, met)
        # local-measurement form: (w/P)(1 + theta*SINR/K)
        active = w > 0
        alt = (w / met.power) * (1.0 + m.theta[m.src] * met.sinr / m.processing_gain)
        scale = max(1.0, float(np.abs(d[active]).max()))
        assert np.abs(d[active] - alt[active]).max() <= 1e-12 * scale


def _fd_alloc_pair(model, w, state, a, b, h=1e-6):
    """Central difference along the tangent direction e_a - e_b."""
    i = model.src[a]
    v = np.zeros(model.n_links)
    v[a], v[b] = 1.0, -1.0
    p0 = phy.link_powers(model, state)
    pn = phy.node_powers(model, state)[i]

    def f(t):
        return phy.objective_from_metrics(
            w, phy.link_metrics_from_powers(model, p0 + t * pn * v))

    return (f(h) - f(-h)) / (2 * h), v


def test_alloc_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    worst = 0.0
    checked = 0
    for _ in range(15):
        m = random_model(rng)
        st = phy.random_power_state(m, rng)
        w = random_weights(rng, m)
        met = phy.link_metrics(m, st)
        full = phy.alloc_grad_full(m, w, st, met)
        for i in range(m.n):
            out = list(np.flatnonzero(m.src == i))
            # stay away from near-zero allocations where the differencing
            # step itself leaves the quadratic regime
            out = [l for l in out if st.alloc[l] > 1e-2]
            if len(out) < 2:
                continue
            fd, v = _fd_alloc_pair(m, w, st, out[0], out[1])
            analytic = float(np.dot(full, v))
            worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
            checked += 1
            break
    assert checked >= 8
    assert worst < 1e-5


def test_power_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(15):
        m = random_model(rng)
        st = phy.random_power_state(m, rng)
        w = random_weights(rng, m)
        met = phy.link_metrics(m, st)
        grad = m.log_power_cap * phy.power_marginal_gain(m, w, st, met)
        node = int(rng.integers(0, m.n))
        h = 1e-6

        def f(gi):
            e = st.exponent.copy()
            e[node] = gi
            return phy.objective_value(m, w, phy.PowerState(st.alloc, e))

        fd = (f(st.exponent[node] + h) - f(st.exponent[node] - h)) / (2 * h)
        worst = max(worst, abs(fd - grad[node]) / max(1.0, abs(grad[node])))
    assert worst < 1e-5


def test_isolated_link_power_gain_reduces_to_weight():
    # theta = 0, no interference: objective is linear in the exponent with
    # slope weight * log(cap), so the marginal gain equals the weight.
    m = isolated_link(cap=10.0, theta=0.0)
    st = phy.uniform_power_state(m, exponent=0.7)
    met = phy.link_metrics(m, st)
    w = np.array([3.5])
    dg = phy.power_marginal_gain(m, w, st, met)
    assert np.isclose(dg[0], 3.5, rtol=1e-12)
    assert np.isclose(m.log_power_cap[0] * dg[0], 3.5 * math.log(10.0), rtol=1e-12)
    assert dg[1] == 0.0


def test_capacity_concave_in_log_powers():
    rng = np.random.default_rng(10)
    for _ in range(40):
        m = random_model(rng, n=4)
        w = random_weights(rng, m, zero_frac=0.0)
        pa = phy.link_powers(m, phy.random_power_state(m, rng))
        pb = phy.link_powers(m, phy.random_power_state(m, rng))
        mid = np.sqrt(pa * pb)     # midpoint in log powers
        fa = phy.objective_from_metrics(w, phy.link_metrics_from_powers(m, pa))
        fb = phy.objective_from_metrics(w, phy.link_metrics_from_powers(m, pb))
        fm = phy.objective_from_metrics(w, phy.link_metrics_from_powers(m, mid))
        assert fm >= 0.5 * (fa + fb) - 1e-9


def test_high_sinr_gap_bound():
    rng = np.random.default_rng(11)
    m = random_model(rng, n=6)
    met = phy.link_metrics(m, phy.random_power_state(m, rng))
    exact = phy.shannon_capacity(met)
    ok = met.sinr > 0
    gap = np.abs(exact[ok] - met.capacity[ok])
    assert np.all(gap <= 1.0 / met.sinr[ok] + 1e-15)
    assert np.all(exact[ok] >= met.capacity[ok])


def _shuffled_links(rng, n):
    """A random link subset of n nodes in random order, every node sending."""
    links = [(i, int(rng.choice([j for j in range(n) if j != i]))) for i in range(n)]
    links += [(i, j) for i in range(n) for j in range(n)
              if i != j and (i, j) not in links and rng.random() < 0.5]
    return tuple(links[k] for k in rng.permutation(len(links)))


@settings(max_examples=40, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(2, 12))
def test_random_power_state_matches_per_node_dirichlet(seed, n):
    """Same draws, bit for bit, as one rng.dirichlet per node in node order."""
    rng = np.random.default_rng(seed)
    gain = rng.random((n, n)) + 0.1
    np.fill_diagonal(gain, 0.0)
    m = NetworkModel(gain=gain, noise=np.full(n, 0.1), theta=np.full(n, 0.25),
                     power_cap=np.full(n, 100.0), processing_gain=1e5,
                     links=_shuffled_links(rng, n))
    ref_rng = np.random.default_rng(seed + 1)
    alloc = np.zeros(m.n_links)
    for i in range(n):
        out = np.flatnonzero(m.src == i)
        alloc[out] = ref_rng.dirichlet(np.ones(out.size))
    exponent = m.gamma_floor + ref_rng.random(n) * (1.0 - m.gamma_floor)
    got = phy.random_power_state(m, np.random.default_rng(seed + 1))
    assert np.array_equal(got.alloc, alloc)
    assert np.array_equal(got.exponent, exponent)
    assert phy.validate_power_state(m, got, m.gamma_floor) == []
    # Per-node loop reference for the sum check, on splits pushed well off 1.
    got.alloc[ref_rng.random(m.n_links) < 0.3] += 1e-3
    ref = [f"allocations of node {i} must sum to 1" for i in range(n)
           if abs(got.alloc[m.src == i].sum() - 1.0) > 1e-9]
    assert phy.validate_power_state(m, got) == ref


def test_validate_power_state_messages_in_order():
    rng = np.random.default_rng(4)
    m = random_model(rng, n=4)
    st = phy.random_power_state(m, rng)
    st.alloc[np.flatnonzero(m.src == 3)[0]] += 0.5
    st.alloc[np.flatnonzero(m.src == 1)[0]] = -0.25
    st.exponent[0] = 1.5
    st.exponent[2] = -10.0
    assert phy.validate_power_state(m, st, m.gamma_floor) == [
        "allocations must be nonnegative",
        "allocations of node 1 must sum to 1",
        "allocations of node 3 must sum to 1",
        "exponents must not exceed 1",
        "exponent below the configured floor",
    ]

"""SINR, capacities, objective and marginal gains against hand oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from bpsim import phy
from bpsim.errors import NumericDomainError
from bpsim.model import NetworkModel, generate_scenario

from conftest import (alloc_grad_full, objective_from_metrics, objective_value,
                      power_marginal_gain, random_model, random_weights, shannon_capacity,
                      validate_power_state)


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
    assert objective_value(m, np.array([0.0]), st) == 0.0
    got = objective_value(m, np.array([2.0]), st)
    assert np.isclose(got, 2.0 * math.log(1e7))


def test_objective_matches_term_sum():
    rng = np.random.default_rng(5)
    m = random_model(rng, n=4)
    st = phy.random_power_state(m, rng)
    w = np.zeros(m.n_links)
    w[[0, 3, 7]] = rng.random(3) * 4
    met = phy.link_metrics(m, st)
    by_hand = sum(w[l] * met.capacity[l] for l in (0, 3, 7))
    assert np.isclose(objective_value(m, w, st), by_hand, rtol=1e-12)


def test_objective_rejects_zero_power_weighted_link():
    m = isolated_link()
    st = phy.uniform_power_state(m)
    st.alloc[0] = 0.0
    with pytest.raises(NumericDomainError):
        objective_value(m, np.array([1.0]), st)


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
        return objective_from_metrics(
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
        full = alloc_grad_full(m, w, st, met)
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
        grad = m.log_power_cap * power_marginal_gain(m, w, st, met)
        node = int(rng.integers(0, m.n))
        h = 1e-6

        def f(gi):
            e = st.exponent.copy()
            e[node] = gi
            return objective_value(m, w, phy.PowerState(st.alloc, e))

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
    dg = power_marginal_gain(m, w, st, met)
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
        fa = objective_from_metrics(w, phy.link_metrics_from_powers(m, pa))
        fb = objective_from_metrics(w, phy.link_metrics_from_powers(m, pb))
        fm = objective_from_metrics(w, phy.link_metrics_from_powers(m, mid))
        assert fm >= 0.5 * (fa + fb) - 1e-9


def test_high_sinr_gap_bound():
    rng = np.random.default_rng(11)
    m = random_model(rng, n=6)
    met = phy.link_metrics(m, phy.random_power_state(m, rng))
    exact = shannon_capacity(met)
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
    assert validate_power_state(m, got, m.gamma_floor) == []
    # Per-node loop reference for the sum check, on splits pushed well off 1.
    got.alloc[ref_rng.random(m.n_links) < 0.3] += 1e-3
    ref = [f"allocations of node {i} must sum to 1" for i in range(n)
           if abs(got.alloc[m.src == i].sum() - 1.0) > 1e-9]
    assert validate_power_state(m, got) == ref


def test_validate_power_state_messages_in_order():
    rng = np.random.default_rng(4)
    m = random_model(rng, n=4)
    st = phy.random_power_state(m, rng)
    st.alloc[np.flatnonzero(m.src == 3)[0]] += 0.5
    st.alloc[np.flatnonzero(m.src == 1)[0]] = -0.25
    st.exponent[0] = 1.5
    st.exponent[2] = -10.0
    assert validate_power_state(m, st, m.gamma_floor) == [
        "allocations must be nonnegative",
        "allocations of node 1 must sum to 1",
        "allocations of node 3 must sum to 1",
        "exponents must not exceed 1",
        "exponent below the configured floor",
    ]


def _alloc_marginal_gain_full(model, weights, metrics):
    """Reference: the full-length allocation gain the one-pass gradient replaced."""
    out = np.zeros(model.n_links)
    active = weights > 0
    if np.any(metrics.power[active] <= 0):
        bad = int(np.argmax(active & (metrics.power <= 0)))
        raise NumericDomainError(f"zero power on weighted link index {bad}")
    np.divide(weights, metrics.power, out=out, where=active)
    out[active] += (weights * model.link_theta * model.link_gain / metrics.inoise)[active]
    return out


def _power_marginal_parts_full(model, weights, state, metrics):
    """Reference: the full-length raise/drop parts the one-pass gradient replaced."""
    delta_alloc = _alloc_marginal_gain_full(model, weights, metrics)
    src = model.src
    f = weights / metrics.inoise
    own = np.bincount(src, weights=model.link_gain * f, minlength=model.n)
    alloc_term = np.bincount(src, weights=delta_alloc * state.alloc, minlength=model.n)
    up = (1.0 - model.theta) * own + alloc_term
    down = model.gain @ np.bincount(model.dst, weights=f, minlength=model.n)
    return up, down


@settings(max_examples=60, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 8),
       zero_frac=strategies.sampled_from([0.0, 0.3, 0.7]))
def test_one_pass_gradient_matches_full_length_reference(seed, n, zero_frac):
    """Restricting the gradient formulas to the weighted links is bit-exact."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    w = random_weights(rng, m, zero_frac=zero_frac)
    st = phy.random_power_state(m, rng)
    met = phy.link_metrics(m, st)
    want_d = _alloc_marginal_gain_full(m, w, met)
    want_up, want_down = _power_marginal_parts_full(m, w, st, met)
    links = phy.weighted_links(m, w)
    d, up, down = phy.weighted_gains(m, links, phy.weighted_view(links, st.alloc, met))
    assert d.tobytes() == want_d[links.act].tobytes()
    assert up.tobytes() == want_up.tobytes()
    assert down.tobytes() == want_down.tobytes()
    assert phy.alloc_marginal_gain(m, w, met).tobytes() == want_d.tobytes()
    up, down = phy.power_marginal_parts(m, w, st, met)
    assert up.tobytes() == want_up.tobytes() and down.tobytes() == want_down.tobytes()

    # A weighted link without power: the same error, naming the same link.
    dead = rng.choice(np.flatnonzero(w > 0))
    st.alloc[dead] = 0.0
    met = phy.link_metrics(m, st)
    with pytest.raises(NumericDomainError) as want:
        _power_marginal_parts_full(m, w, st, met)
    for call in (lambda: phy.alloc_marginal_gain(m, w, met),
                 lambda: phy.power_marginal_parts(m, w, st, met)):
        with pytest.raises(NumericDomainError) as got:
            call()
        assert str(got.value) == str(want.value)


def _with_noise(m, receiver, value):
    noise = m.noise.copy()
    noise[receiver] = value
    return NetworkModel(gain=m.gain, noise=noise, theta=m.theta, power_cap=m.power_cap,
                        processing_gain=m.processing_gain, links=m.links)


def test_moved_domain_checks_raise_as_before():
    """The link metrics and the objective check their results and look for a
    fault only when the check fails; each fault still raises
    NumericDomainError with the message of the check made up front."""
    rng = np.random.default_rng(4)
    m = random_model(rng, n=6)
    w = random_weights(rng, m, zero_frac=0.5)
    p = phy.link_powers(m, phy.random_power_state(m, rng))
    act = np.flatnonzero(w > 0)
    idle = np.flatnonzero(w == 0)
    # Zero power on weighted links (the first is named) and a negative one.
    for bad in (0.0, -1e-9 * p[act[-1]]):
        q = p.copy()
        q[act[-2:]] = bad
        met = phy.link_metrics_from_powers(m, q)
        for call in (lambda: phy.row_objectives(w[act], act, met),
                     lambda: objective_from_metrics(w, met)):
            with pytest.raises(NumericDomainError) as got:
                call()
            assert str(got.value) == f"zero power on weighted link index {act[-2]} (log 0)"
    # Interference-plus-noise that is negative, NaN or infinite at one
    # receiver: the first non-finite link is named, else the smallest.
    for value in (-1e3 * m.noise.max(), np.nan, np.inf):
        bad_model = _with_noise(m, int(m.dst[idle[0]]), value)
        inoise = _link_metrics_reference(bad_model, p).inoise
        bad = int(np.argmin(np.where(np.isfinite(inoise), inoise, -np.inf)))
        with pytest.raises(NumericDomainError) as got:
            phy.link_metrics_from_powers(bad_model, p)
        assert str(got.value) == ("interference-plus-noise is not positive and finite on link "
                                  f"{m.links[bad]}")
    # A NaN SINR (infinite processing gain on a link without power).
    inf_gain = NetworkModel(gain=m.gain, noise=m.noise, theta=m.theta, power_cap=m.power_cap,
                            processing_gain=np.inf, links=m.links)
    q = p.copy()
    q[idle] = 0.0
    with np.errstate(invalid="ignore"), pytest.raises(NumericDomainError) as got:
        phy.link_metrics_from_powers(inf_gain, q)
    assert str(got.value) == f"non-finite capacity on link {m.links[idle[0]]}"
    # A negative SINR is no fault: its capacity is -inf, as up front.
    q = p.copy()
    q[idle[0]] = -1e-9 * p[idle[0]]
    got, want = phy.link_metrics_from_powers(m, q), _link_metrics_reference(m, q)
    assert got.capacity[idle[0]] == -np.inf
    for name in ("power", "inoise", "sinr", "capacity", "node_power"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# One-problem references for the formula layer that runs B problems laid end
# to end: these are the bodies the layout replaced.

def _link_metrics_reference(model, p):
    """Reference: interference-plus-noise, SINR, capacity and node powers."""
    src, dst = model.src, model.dst
    g = model.link_gain
    tx_total = np.bincount(src, weights=p, minlength=model.n)
    tx_src = tx_total[src]
    rx_total = model.gain.T @ tx_total
    other = rx_total[dst] - g * tx_src
    inoise = model.link_theta * g * (tx_src - p) + other + model.link_noise
    sinr = model.processing_gain * g * p / inoise
    capacity = np.log(sinr, out=np.full_like(sinr, -np.inf), where=sinr > 0)
    return phy.LinkMetrics(power=p, inoise=inoise, sinr=sinr, capacity=capacity,
                           node_power=tx_total)


def _objective_reference(weights, metrics):
    """Reference: the weighted sum rate over the weighted links."""
    act = np.flatnonzero(weights > 0)
    return float(np.dot(weights[act], metrics.capacity[act]))


def _curvature_reference(model, weights, metrics):
    """Reference: the power step's diagonal curvature, over F-ordered gain columns."""
    act = np.flatnonzero(weights > 0)
    src = model.src[act]
    p_node = metrics.node_power
    contrib = model.gain[:, model.dst[act]] * p_node[:, None]
    contrib[src, np.arange(act.size)] = (model.link_theta[act] * model.link_gain[act]
                                         * (p_node[src] - metrics.power[act]))
    s = contrib / metrics.inoise[act][None, :]
    return ((s * (1.0 - s)) * weights[act][None, :]).sum(axis=1)


def _kkt_reference(model, weights, state, metrics, gradient):
    """Reference: the certificate's per-node power residual and normalized residual."""
    delta_alloc, up, down = gradient
    p_node = metrics.node_power
    delta_gamma = p_node * (up - down)
    n = model.n
    weighted = weights > 0
    floored = weighted & (state.alloc <= phy.ETA_FLOOR * (1.0 + 1e-6))
    free = weighted & ~floored
    src_f = model.src[free]
    hi = np.full(n, -np.inf)
    lo = np.full(n, np.inf)
    np.maximum.at(hi, src_f, delta_alloc[free])
    np.minimum.at(lo, src_f, delta_alloc[free])
    cnt = np.bincount(src_f, minlength=n)
    spread = np.where(cnt >= 2, hi - lo, 0.0)
    alloc_scale = np.where(cnt >= 1, np.maximum(1.0, hi), 1.0)
    at_top = state.exponent >= 1.0 - 1e-9
    at_floor_g = state.exponent <= model.gamma_floor + 1e-9
    gamma_residual = np.where(at_top, np.maximum(0.0, -delta_gamma),
                              np.where(at_floor_g, np.maximum(0.0, delta_gamma),
                                       np.abs(delta_gamma)))
    gamma_scale = np.maximum(1.0, p_node * (up + down))
    normalized = float(max((spread / alloc_scale).max(initial=0.0),
                           (gamma_residual / gamma_scale).max(initial=0.0)))
    return gamma_residual, normalized


@settings(max_examples=60, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 8),
       rows=strategies.sampled_from([1, 3]),
       zero_frac=strategies.sampled_from([0.0, 0.3, 0.7]))
def test_end_to_end_rows_equal_one_problem_references(seed, n, rows, zero_frac):
    """Every row of the shared formulas, at B = 1 and laid end to end, is bit
    for bit its one-problem reference."""
    from bpsim import solver
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    n_links = m.n_links
    weights = [random_weights(rng, m, zero_frac=zero_frac)]
    count = int((weights[0] > 0).sum())
    for _ in range(rows - 1):
        w = np.zeros(n_links)
        w[rng.choice(n_links, count, replace=False)] = 0.1 + rng.random(count) * 10.0
        weights.append(w)
    weights = np.array(weights)
    states = [phy.random_power_state(m, rng) for _ in range(rows)]
    state = phy.PowerState(np.concatenate([s.alloc for s in states]),
                           np.concatenate([s.exponent for s in states]))
    p = np.concatenate([phy.link_powers(m, s) for s in states])

    met = phy.link_metrics_from_powers(m, p)
    links = phy.weighted_links(m, weights if rows > 1 else weights[0])
    objectives = phy.row_objectives(links.w, links.act, met, rows)
    view = phy.weighted_view(links, state.alloc, met)
    gradient = phy.weighted_gains(m, links, view)
    curvature = solver._curvature(links, view)
    kkt = solver._kkt_residuals(links, state.exponent, view, gradient)
    for b, (w, st) in enumerate(zip(weights, states)):
        on_links, on_nodes = slice(b * n_links, (b + 1) * n_links), slice(b * n, (b + 1) * n)
        on_act = slice(b * count, (b + 1) * count)      # the row's weighted links
        ref = _link_metrics_reference(m, p[on_links])
        for name in ("inoise", "sinr", "capacity"):
            assert getattr(met, name)[on_links].tobytes() == getattr(ref, name).tobytes(), name
        assert met.node_power[on_nodes].tobytes() == ref.node_power.tobytes()
        assert objectives[b] == _objective_reference(w, ref)
        want = (_alloc_marginal_gain_full(m, w, ref), *_power_marginal_parts_full(m, w, st, ref))
        for got, exp, part in zip(gradient, (want[0][w > 0], *want[1:]),
                                  (on_act, on_nodes, on_nodes)):
            assert got[part].tobytes() == exp.tobytes()
        assert curvature[b].tobytes() == _curvature_reference(m, w, ref).tobytes()
        want = _kkt_reference(m, w, st, ref, want)
        for got, exp, part in zip(kkt, want, (on_nodes, b)):
            assert np.asarray(got[part]).tobytes() == np.asarray(exp).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=strategies.integers(0, 2**32 - 1), n=strategies.integers(3, 8))
def test_end_to_end_rows_of_mixed_counts_equal_single_rows(seed, n):
    """Rows that weigh different numbers of links lie end to end without
    padding; each row's objective and diagonal and full curvature, summed
    per block of rows with equal counts, are bit for bit its own at B = 1.
    Rows 0 and 2 share a count, so their block gathers rows that are not
    adjacent."""
    from bpsim import solver
    rng = np.random.default_rng(seed)
    m = random_model(rng, n=n)
    weights = np.zeros((4, m.n_links))
    for w, count in zip(weights, (m.n_links, max(1, m.n_links // 2), m.n_links, 1)):
        w[rng.choice(m.n_links, count, replace=False)] = 0.1 + rng.random(count) * 10.0
    states = [phy.random_power_state(m, rng) for _ in range(4)]
    alloc = np.concatenate([s.alloc for s in states])
    met = phy.link_metrics_from_powers(m, np.concatenate([phy.link_powers(m, s) for s in states]))
    links = phy.weighted_links(m, weights)
    assert links.blocks is not None and links.gain_rows.shape == (links.act.size, m.n)
    view = phy.weighted_view(links, alloc, met)
    objectives = phy.row_objectives(links.w, links.act, met, 4, links.blocks)
    diagonal, full = solver._curvature(links, view), solver._curvature(links, view, True)
    for b, (w, st) in enumerate(zip(weights, states)):
        one = phy.weighted_links(m, w)
        ref = phy.link_metrics(m, st)
        at = phy.weighted_view(one, st.alloc, ref)
        assert objectives[b] == phy.row_objectives(one.w, one.act, ref)[0]
        assert diagonal[b].tobytes() == solver._curvature(one, at)[0].tobytes()
        assert full[b].tobytes() == solver._curvature(one, at, True)[0].tobytes()


def _solve_bits(solved):
    """A (state, diagnostics) pair as bytes and numbers, for bit equality."""
    state, diag = solved
    return (state.alloc.tobytes(), state.exponent.tobytes(), diag.objectives,
            diag.kkt_residuals, diag.iterations, diag.converged, diag.line_search_evals,
            None if diag.metrics is None else diag.metrics.capacity.tobytes())


def test_layout_is_built_once_per_model_and_row_count():
    """One read-only layout per (model, rows), kept on the model; solves on a
    model whose cache holds several row counts equal those on a fresh model."""
    import dataclasses
    import pickle

    from bpsim import solver

    rng = np.random.default_rng(11)
    m = random_model(rng, n=6)
    one, three = phy.layout(m, 1), phy.layout(m, 3)
    assert phy.layout(m, 1) is one and phy.layout(m, 3) is three
    assert one is not three and three.size == 3 * m.n
    w = random_weights(rng, m)
    assert phy.weighted_links(m, w).lay is one
    assert phy.weighted_links(m, np.stack([w] * 3)).lay is three
    fresh = dataclasses.replace(m)
    assert fresh.layouts == {} and phy.layout(fresh, 1) is not one
    assert pickle.loads(pickle.dumps(m)).layouts == {}
    for lay in (one, three):
        for a in lay[2:]:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0
    # The model's own arrays, which the one-row layout views, stay writable.
    assert m.src.flags.writeable and m.power_cap.flags.writeable
    weights = np.stack([random_weights(rng, m, zero_frac=0.0) for _ in range(5)])
    start = phy.random_power_state(m, rng)
    for rows in (2, 4, 5):
        phy.layout(m, rows)
    config = solver.SolverConfig(kkt_tolerance=1e-6, max_iterations=60)
    batch = solver.solve_max_weight_batch(m, weights, start, config)
    assert len(m.layouts) >= 4
    for got, ref in zip(batch, solver.solve_max_weight_batch(dataclasses.replace(m), weights,
                                                             start, config)):
        assert _solve_bits(got) == _solve_bits(ref)
    for w in weights:
        assert (_solve_bits(solver.solve_max_weight(m, w, start, config))
                == _solve_bits(solver.solve_max_weight(dataclasses.replace(m), w, start,
                                                       config)))


def test_smaller_layout_slices_the_larger():
    """A layout for fewer rows than one already built views the larger one's
    arrays and equals, field by field, the layout a fresh model builds."""
    import dataclasses

    rng = np.random.default_rng(12)
    m = random_model(rng, n=5)
    big = phy.layout(m, 6)
    for rows in (4, 1):
        lay = phy.layout(m, rows)
        ref = phy.layout(dataclasses.replace(m), rows)
        assert lay.rows == ref.rows == rows and lay.size == ref.size
        for a, b, whole in zip(lay[2:], ref[2:], big[2:]):
            assert np.shares_memory(a, whole) and not a.flags.writeable
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    # A larger layout built later is its own; the smaller ones stay cached.
    assert not np.shares_memory(phy.layout(m, 8).src, big.src)
    assert phy.layout(m, 6) is big

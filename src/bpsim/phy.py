"""Link SINR, high-SINR capacities and marginal-gain formulas.

Transmit powers are parameterized per node: an allocation fraction per
outgoing link (nonnegative, summing to one) and a power exponent g so that
the node's total power is power_cap ** g.  Capacities use the high-SINR
approximation log(SINR) in natural log with unit symbol rate, which is
concave in the log powers.  All interference sums run over every other
transmitter through the full gain matrix.

The formulas also serve B problems over one model, laid end to end as one
network of B*n nodes and B*E links (node b*n + i and link b*E + l belong to
problem b; at B = 1 these are the model's own ids).  Per-node sums are then
one ``bincount`` that adds each problem's links in link order, and
cross-node products are stacked ``matmul``s that numpy hands problem by
problem to the BLAS call of the one-problem product, so each problem's
values are bit for bit its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError
from .model import POWER_FLOOR_RATIO, NetworkModel  # noqa: F401  (re-exported)

# Allocation fractions are floored here inside projections; low enough that
# the floor is inactive at any optimum with positive link weights.
ETA_FLOOR = 1e-12


@dataclass
class PowerState:
    """Per-link allocation fractions and per-node power exponents."""

    alloc: np.ndarray       # (E,) fraction of the node's power on each link
    exponent: np.ndarray    # (n,) node power = power_cap ** exponent, <= 1

    def copy(self) -> "PowerState":
        return PowerState(self.alloc.copy(), self.exponent.copy())


def end_to_end(x: np.ndarray, rows: int, stride: int | None = None) -> np.ndarray:
    """``rows`` copies of ``x`` laid end to end, ``x`` itself for one row.

    With ``stride``, ``x`` holds ids and copy b's are shifted by b * stride.
    """
    if rows == 1:
        return x
    if stride is None:
        return x[None].repeat(rows, 0).reshape(-1)
    return (x + stride * np.arange(rows)[:, None]).reshape(-1)


def node_powers(model: NetworkModel, state: PowerState) -> np.ndarray:
    """(n,) total transmit power per node implied by the exponents."""
    return model.power_cap ** state.exponent


def link_powers(model: NetworkModel, state: PowerState) -> np.ndarray:
    """(E,) per-link transmit powers."""
    return node_powers(model, state)[model.src] * state.alloc


def uniform_power_state(model: NetworkModel, exponent: float = 1.0) -> PowerState:
    """Equal split across each node's outgoing links, exponents all equal."""
    alloc = 1.0 / model.out_degree[model.src]
    return PowerState(alloc, np.full(model.n, float(exponent)))


def random_power_state(model: NetworkModel, rng: np.random.Generator) -> PowerState:
    """Random feasible power state: Dirichlet allocations, exponents uniform
    between the model's floor and 1.

    Draws what ``rng.dirichlet(np.ones(k))`` per node in node order would:
    one unit-shape gamma variate per link, node by node, each node's split
    scaled by the reciprocal of its sequential sum (``bincount`` adds in link
    order, as the Dirichlet sampler does).
    """
    alloc = np.empty(model.n_links)
    alloc[np.argsort(model.src, kind="stable")] = rng.standard_gamma(1.0, model.n_links)
    alloc *= 1.0 / np.bincount(model.src, weights=alloc, minlength=model.n)[model.src]
    floor = model.gamma_floor
    exponent = floor + rng.random(model.n) * (1.0 - floor)
    return PowerState(alloc, exponent)


def validate_power_state(model: NetworkModel, state: PowerState,
                         gamma_floor: np.ndarray | None = None,
                         tol: float = 1e-9) -> list[str]:
    out: list[str] = []
    if state.alloc.shape != (model.n_links,):
        out.append("alloc has wrong shape")
        return out
    if state.exponent.shape != (model.n,):
        out.append("exponent has wrong shape")
        return out
    if np.any(state.alloc < -tol):
        out.append("allocations must be nonnegative")
    total = np.bincount(model.src, weights=state.alloc, minlength=model.n)
    for i in np.flatnonzero((model.out_degree > 0) & (np.abs(total - 1.0) > tol)):
        out.append(f"allocations of node {i} must sum to 1")
    if np.any(state.exponent > 1.0 + tol):
        out.append("exponents must not exceed 1")
    if gamma_floor is not None and np.any(state.exponent < gamma_floor - tol):
        out.append("exponent below the configured floor")
    return out


@dataclass
class LinkMetrics:
    """Per-link power, interference-plus-noise, SINR and capacity.

    ``capacity`` is log(SINR) in nats per symbol; links carrying zero power
    have SINR 0 and capacity -inf.  ``node_power`` is each node's total
    transmit power, the sum of its links' powers.
    """

    power: np.ndarray       # (E,)
    inoise: np.ndarray      # (E,) interference-plus-noise at the receiver
    sinr: np.ndarray        # (E,)
    capacity: np.ndarray    # (E,)
    node_power: np.ndarray  # (n,)


def link_metrics_from_powers(model: NetworkModel, p: np.ndarray) -> LinkMetrics:
    """Metrics from raw per-link powers, of one problem or of several laid
    end to end (``p`` of length B*E).

    Does not assume the allocations sum to one, so callers may evaluate
    perturbed configurations (finite differences, midpoints in log powers).
    """
    n, n_links = model.n, model.n_links
    rows = p.size // n_links
    src = end_to_end(model.src, rows, n)
    g = end_to_end(model.link_gain, rows)
    tx_total = np.bincount(src, weights=p, minlength=rows * n)
    tx_src = tx_total[src]
    # Received power at each node from every transmitter (diagonal gain is 0).
    rx_total = np.matmul(model.gain.T, tx_total.reshape(rows, n, 1)).reshape(-1)
    other = rx_total[end_to_end(model.dst, rows, n)] - g * tx_src
    inoise = (end_to_end(model.link_theta_gain, rows) * (tx_src - p) + other
              + end_to_end(model.link_noise, rows))
    # NaN fails both comparisons, so these two reductions reject exactly the
    # non-finite and non-positive values.
    if not (inoise.min(initial=np.inf) > 0 and inoise.max(initial=0.0) < np.inf):
        bad = int(np.argmin(np.where(np.isfinite(inoise), inoise, -np.inf))) % n_links
        raise NumericDomainError(
            f"interference-plus-noise is not positive and finite on link {model.links[bad]}"
        )
    sinr = end_to_end(model.link_kg, rows) * p / inoise
    # log runs only where sinr > 0, so capacity is never NaN; sinr may be.
    capacity = np.log(sinr, out=np.full_like(sinr, -np.inf), where=sinr > 0)
    if np.isnan(sinr.max(initial=-np.inf)):
        bad = int(np.argmax(np.isnan(sinr))) % n_links
        raise NumericDomainError(f"non-finite capacity on link {model.links[bad]}")
    return LinkMetrics(power=p, inoise=inoise, sinr=sinr, capacity=capacity,
                       node_power=tx_total)


def link_metrics(model: NetworkModel, state: PowerState) -> LinkMetrics:
    return link_metrics_from_powers(model, link_powers(model, state))


def row_objectives(w: np.ndarray, act: np.ndarray, metrics: LinkMetrics,
                   rows: int = 1) -> np.ndarray:
    """(rows,) weighted sum rate of each of ``rows`` problems laid end to end.

    ``w`` and ``act`` are the weights of the problems' weighted links and
    their ids in the end-to-end link arrays; every problem has as many.
    """
    p = metrics.power[act]
    if p.min(initial=np.inf) <= 0:
        bad = int(act[np.argmax(p <= 0)])
        raise NumericDomainError(f"zero power on weighted link index {bad} (log 0)")
    return np.matmul(w.reshape(rows, 1, -1),
                     metrics.capacity[act].reshape(rows, -1, 1)).reshape(rows)


def objective_from_metrics(weights: "np.ndarray", metrics: LinkMetrics) -> float:
    """Weighted sum rate over links with positive weight.

    ``weights`` is the (E,) vector of differential-backlog weights; links
    with zero weight are excluded from the sum.
    """
    act = np.flatnonzero(weights > 0)
    return float(row_objectives(weights[act], act, metrics)[0])


@dataclass
class WeightedLinks:
    """The links with positive weight of B problems over one model, laid end
    to end (see the module docstring), and their per-link constants.

    Links without weight contribute exact zeros to every marginal-gain sum,
    so the gradient formulas run over these links only.
    """

    rows: int               # B
    act: np.ndarray         # b*E + link: ids into the end-to-end link arrays
    src: np.ndarray         # b*n + transmitter
    dst: np.ndarray         # b*n + receiver
    w: np.ndarray
    gain: np.ndarray        # gain[src, dst]
    w_theta_g: np.ndarray   # (w * theta[src]) * gain[src, dst]
    theta_g: np.ndarray     # theta[src] * gain[src, dst], the self-interference gain
    ln_kg: np.ndarray       # log(processing_gain * gain[src, dst]), model.link_log_kg
    m_node: np.ndarray      # (B*n,) weighted out-degree
    has_active: np.ndarray  # (B*n,) bool
    gain_rows: np.ndarray   # (B*E_a, n) gain from every node to each link's receiver
    own_slot: np.ndarray    # flat index in gain_rows of each link's own transmitter


def weighted_links(model: NetworkModel, weights: np.ndarray) -> WeightedLinks:
    """The links with ``weights > 0`` of one problem, or of each row of (B, E)
    ``weights`` laid end to end, and their per-link constants."""
    n, n_links = model.n, model.n_links
    rows = weights.size // n_links
    act = np.flatnonzero(weights > 0)
    link = act if rows == 1 else act % n_links
    src, dst = model.src[link], model.dst[link]
    gain_rows = model.gain.T[dst]
    own_slot = np.arange(act.size) * n + src
    if rows > 1:
        shift = n * (act // n_links)
        src, dst = src + shift, dst + shift
    w = weights.reshape(-1)[act]
    g = model.link_gain[link]
    m_node = np.bincount(src, minlength=rows * n).astype(float)
    return WeightedLinks(rows=rows, act=act, src=src, dst=dst, w=w, gain=g, gain_rows=gain_rows,
                         w_theta_g=w * model.link_theta[link] * g, own_slot=own_slot,
                         theta_g=model.link_theta_gain[link], ln_kg=model.link_log_kg[link],
                         m_node=m_node, has_active=m_node > 0)


def _pressures(model: NetworkModel, links: WeightedLinks,
               metrics: LinkMetrics) -> tuple[np.ndarray, np.ndarray]:
    """(B*n,) own pressure sum(g * w / IN) over each node's outgoing links, and
    receiver pressure: the gain-weighted sum of w / IN over every receiver's
    incoming links."""
    size = links.rows * model.n
    f = links.w / metrics.inoise[links.act]
    own = np.bincount(links.src, weights=links.gain * f, minlength=size)
    at_rx = np.bincount(links.dst, weights=f, minlength=size)
    down = np.matmul(model.gain, at_rx.reshape(links.rows, model.n, 1)).reshape(size)
    return own, down


def _alloc_gains(model: NetworkModel, links: WeightedLinks,
                 metrics: LinkMetrics) -> np.ndarray:
    """(B*E,) b * (1/P + theta*h/IN) on the weighted links, zero elsewhere."""
    p = metrics.power[links.act]
    if p.min(initial=np.inf) <= 0:
        bad = int(links.act[np.argmax(p <= 0)])
        raise NumericDomainError(f"zero power on weighted link index {bad}")
    out = np.zeros(links.rows * model.n_links)
    out[links.act] = links.w / p + links.w_theta_g / metrics.inoise[links.act]
    return out


def marginal_gains(model: NetworkModel, links: WeightedLinks, alloc: np.ndarray,
                   metrics: LinkMetrics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Allocation marginal gains and the power gain's raise/drop parts, one pass.

    Returns the (E,) allocation gains, zero on links without weight, and the
    (n,) parts ``up`` and ``down`` of the power marginal gain
    p_node * (up - down), each laid end to end over the B problems of
    ``links``.  ``up`` collects the node's own weighted-rate terms, ``down``
    the interference it imposes on every other receiver.  Both are
    nonnegative; their near-cancellation is what the optimality certificate
    measures, so they also set its natural scale.
    """
    n, rows = model.n, links.rows
    delta_alloc = _alloc_gains(model, links, metrics)
    own, down = _pressures(model, links, metrics)
    alloc_term = np.bincount(links.src, weights=(delta_alloc * alloc)[links.act],
                             minlength=rows * n)
    up = end_to_end(1.0 - model.theta, rows) * own + alloc_term
    return delta_alloc, up, down


def alloc_marginal_gain(model: NetworkModel, weights: np.ndarray,
                        metrics: LinkMetrics) -> np.ndarray:
    """Allocation marginal gain per link, b * (1/P + theta*h/IN).

    Zero on links with zero weight.  Equals (b/P) * (1 + theta*SINR/K),
    which a node can assemble from local measurements alone.
    """
    return _alloc_gains(model, weighted_links(model, weights), metrics)


def power_marginal_parts(model: NetworkModel, weights: np.ndarray, state: PowerState,
                         metrics: LinkMetrics) -> tuple[np.ndarray, np.ndarray]:
    """Raise and drop components of the power-control marginal gain; see
    ``marginal_gains``.  Links without positive weight contribute nothing."""
    _, up, down = marginal_gains(model, weighted_links(model, weights), state.alloc, metrics)
    return up, down

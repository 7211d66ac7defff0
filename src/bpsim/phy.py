"""Link SINR, high-SINR capacities and marginal-gain formulas.

Transmit powers are parameterized per node: an allocation fraction per
outgoing link (nonnegative, summing to one) and a power exponent g so that
the node's total power is power_cap ** g.  Capacities use the high-SINR
approximation log(SINR) in natural log with unit symbol rate, which is
concave in the log powers.  All interference sums run over every other
transmitter through the full gain matrix.
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


def default_gamma_floor(model: NetworkModel) -> np.ndarray:
    """Per-node exponent floor keeping node power >= POWER_FLOOR_RATIO * power_cap.

    The model's read-only copy, computed once at construction.
    """
    return model.gamma_floor


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


def random_power_state(model: NetworkModel, rng: np.random.Generator,
                       gamma_floor: np.ndarray | None = None) -> PowerState:
    """Random feasible power state: Dirichlet allocations, uniform exponents."""
    if gamma_floor is None:
        gamma_floor = default_gamma_floor(model)
    alloc = np.zeros(model.n_links)
    for i in range(model.n):
        out = list(model.out_links[i])
        if out:
            alloc[out] = rng.dirichlet(np.ones(len(out)))
    exponent = gamma_floor + rng.random(model.n) * (1.0 - gamma_floor)
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
    for i in range(model.n):
        links = list(model.out_links[i])
        if links and abs(state.alloc[links].sum() - 1.0) > tol:
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
    """Metrics from raw per-link powers.

    Does not assume the allocations sum to one, so callers may evaluate
    perturbed configurations (finite differences, midpoints in log powers).
    """
    src, dst = model.src, model.dst
    g = model.link_gain
    tx_total = np.bincount(src, weights=p, minlength=model.n)
    tx_src = tx_total[src]
    # Received power at each node from every transmitter (diagonal gain is 0).
    rx_total = model.gain.T @ tx_total
    other = rx_total[dst] - g * tx_src
    inoise = model.link_theta * g * (tx_src - p) + other + model.link_noise
    # NaN fails both comparisons, so these two reductions reject exactly the
    # non-finite and non-positive values.
    if not (inoise.min(initial=np.inf) > 0 and inoise.max(initial=0.0) < np.inf):
        bad = int(np.argmin(np.where(np.isfinite(inoise), inoise, -np.inf)))
        raise NumericDomainError(
            f"interference-plus-noise is not positive and finite on link {model.links[bad]}"
        )
    sinr = model.processing_gain * g * p / inoise
    # log runs only where sinr > 0, so capacity is never NaN; sinr may be.
    capacity = np.log(sinr, out=np.full_like(sinr, -np.inf), where=sinr > 0)
    if np.isnan(sinr.max(initial=-np.inf)):
        bad = int(np.argmax(np.isnan(sinr)))
        raise NumericDomainError(f"non-finite capacity on link {model.links[bad]}")
    return LinkMetrics(power=p, inoise=inoise, sinr=sinr, capacity=capacity,
                       node_power=tx_total)


def link_metrics(model: NetworkModel, state: PowerState) -> LinkMetrics:
    return link_metrics_from_powers(model, link_powers(model, state))


def shannon_capacity(metrics: LinkMetrics) -> np.ndarray:
    """Exact log(1 + SINR) capacities, kept as a diagnostic."""
    return np.log1p(metrics.sinr)


def objective_from_metrics(weights: "np.ndarray", metrics: LinkMetrics) -> float:
    """Weighted sum rate over links with positive weight.

    ``weights`` is the (E,) vector of differential-backlog weights; links
    with zero weight are excluded from the sum.
    """
    active = weights > 0
    if np.any(metrics.power[active] <= 0):
        bad = int(np.argmax(active & (metrics.power <= 0)))
        raise NumericDomainError(f"zero power on weighted link index {bad} (log 0)")
    return float(np.dot(weights[active], metrics.capacity[active]))


def objective_value(model: NetworkModel, weights: np.ndarray, state: PowerState) -> float:
    return objective_from_metrics(weights, link_metrics(model, state))


def alloc_marginal_gain(model: NetworkModel, weights: np.ndarray,
                        metrics: LinkMetrics) -> np.ndarray:
    """Allocation marginal gain per link, b * (1/P + theta*h/IN).

    Zero on links with zero weight.  Equals (b/P) * (1 + theta*SINR/K),
    which a node can assemble from local measurements alone.
    """
    out = np.zeros(model.n_links)
    active = weights > 0
    if np.any(metrics.power[active] <= 0):
        bad = int(np.argmax(active & (metrics.power <= 0)))
        raise NumericDomainError(f"zero power on weighted link index {bad}")
    np.divide(weights, metrics.power, out=out, where=active)
    out[active] += (weights * model.link_theta * model.link_gain / metrics.inoise)[active]
    return out


def _receiver_pressure(model: NetworkModel, f: np.ndarray) -> np.ndarray:
    """(n,) sum over incoming links of f = weight / interference-plus-noise."""
    return np.bincount(model.dst, weights=f, minlength=model.n)


def power_marginal_parts(model: NetworkModel, weights: np.ndarray, state: PowerState,
                         metrics: LinkMetrics,
                         delta_alloc: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Raise and drop components of the power-control marginal gain.

    The gain is p_node * (raise - drop): ``raise`` collects the node's own
    weighted-rate terms, ``drop`` the interference it imposes on every other
    receiver.  Both are nonnegative; their near-cancellation is what the
    optimality certificate measures, so they also set its natural scale.
    """
    if delta_alloc is None:
        delta_alloc = alloc_marginal_gain(model, weights, metrics)
    src = model.src
    f = weights / metrics.inoise
    # Interference cost of this node's power at every other receiver,
    # net of the pressure generated by its own outgoing links.
    own = np.bincount(src, weights=model.link_gain * f, minlength=model.n)
    alloc_term = np.bincount(src, weights=delta_alloc * state.alloc, minlength=model.n)
    up = (1.0 - model.theta) * own + alloc_term
    down = model.gain @ _receiver_pressure(model, f)
    return up, down


def power_marginal_gain(model: NetworkModel, weights: np.ndarray, state: PowerState,
                        metrics: LinkMetrics,
                        delta_alloc: np.ndarray | None = None) -> np.ndarray:
    """Power-control marginal gain per node.

    The objective gradient with respect to the power exponent of node i is
    log(power_cap_i) times this quantity.
    """
    up, down = power_marginal_parts(model, weights, state, metrics, delta_alloc)
    return metrics.node_power * (up - down)


def power_gradient(model: NetworkModel, delta_gamma: np.ndarray) -> np.ndarray:
    """dF/d(exponent) from the power marginal gains."""
    return model.log_power_cap * delta_gamma


def alloc_grad_full(model: NetworkModel, weights: np.ndarray, state: PowerState,
                    metrics: LinkMetrics,
                    delta_alloc: np.ndarray | None = None) -> np.ndarray:
    """Full (E,) dF/d(alloc), treating allocations as free coordinates.

    Per link: P_i * (delta_alloc - c_i) with a per-node constant c_i, so on
    the allocation simplex only the marginal-gain differences matter.
    """
    if delta_alloc is None:
        delta_alloc = alloc_marginal_gain(model, weights, metrics)
    src = model.src
    f = weights / metrics.inoise
    own = np.bincount(src, weights=model.link_gain * f, minlength=model.n)
    common = model.gain @ _receiver_pressure(model, f) + (model.theta - 1.0) * own
    return metrics.node_power[src] * (delta_alloc - common[src])

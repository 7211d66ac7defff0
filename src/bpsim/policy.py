"""Differential-backlog scheduling and the three max-weight control schemes.

Per slot, every link picks the commodity with the largest backlog difference
between its endpoints (destination backlogs count as zero), weighs the link
by that difference clipped at zero, and the power controller maximizes the
weighted sum rate.  The schemes differ in how much of that maximization
happens within a slot:

* ``instant``   solves to convergence from a cold start and applies the
                optimal rates for the whole slot;
* ``iter-conv`` runs a fixed iteration budget warm-started from the previous
                slot and delivers the time average of the evolving rates;
* ``iter-once`` runs a single update per slot and applies its rates for the
                whole slot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .model import NetworkModel, TrafficSpec
# link_metrics is not called here; it is imported so that the benchmark
# tracer (bench/tracer.py) finds bpsim.policy.link_metrics to wrap.
from .phy import PowerState, link_metrics, uniform_power_state  # noqa: F401
from .solver import SolveDiagnostics, SolverConfig, solve_max_weight

SCHEME_NAMES = ("instant", "iter-conv", "iter-once")


@dataclass
class BacklogWeights:
    """Per-link maximizing commodity and clipped differential backlog."""

    commodity: np.ndarray   # (E,) int
    weight: np.ndarray      # (E,) float, >= 0


def compute_weights(backlog: np.ndarray, traffic: TrafficSpec,
                    model: NetworkModel) -> BacklogWeights:
    """Maximum differential backlog per link.

    Ties between commodities break toward the smallest commodity index.
    """
    u = np.where(traffic.queue_mask, backlog, 0.0)
    diff = u[model.src] - u[model.dst]          # (E, K)
    k = np.argmax(diff, axis=1)
    w = np.maximum(0.0, diff[np.arange(diff.shape[0]), k])
    return BacklogWeights(commodity=k.astype(np.intp), weight=w)


@dataclass
class RateAssignment:
    """Aggregate service rate per link, routed entirely to one commodity."""

    rate: np.ndarray        # (E,) bits per slot, >= 0
    commodity: np.ndarray   # (E,) int


def rates_from_power(capacity: np.ndarray, weights: BacklogWeights) -> RateAssignment:
    """Service rates from the link capacities a power state achieves: weighted
    links carry their capacity (clipped at zero) for the unit-length slot,
    zero-weight links are excluded."""
    rate = np.where(weights.weight > 0, np.maximum(capacity, 0.0), 0.0)
    return RateAssignment(rate=rate, commodity=weights.commodity.copy())


class MdbScheme:
    """Base class; subclasses produce a RateAssignment per slot, together with
    the diagnostics of the slot's solve."""

    name: str

    def __init__(self, model: NetworkModel, traffic: TrafficSpec, config: SolverConfig):
        self.model = model
        self.traffic = traffic
        self.config = config

    def step(self, backlog: np.ndarray) -> tuple[RateAssignment, SolveDiagnostics]:
        raise NotImplementedError


class InstantScheme(MdbScheme):
    """Idealized control: the optimum for the slot-start backlog applied
    instantly for the whole slot.  Cold-started every slot, and a
    centralized solve (``SolverConfig.centralized``): the optimum is what
    matters here, not a distributed path to it."""

    name = "instant"

    def __init__(self, model, traffic, config):
        super().__init__(model, traffic, replace(config, centralized=True))

    def step(self, backlog):
        weights = compute_weights(backlog, self.traffic, self.model)
        start = uniform_power_state(self.model)
        _, diag = solve_max_weight(self.model, weights.weight, start, self.config)
        # No weighted link: the solver evaluates nothing and nothing is served.
        cap = np.zeros(self.model.n_links) if diag.metrics is None else diag.metrics.capacity
        return rates_from_power(cap, weights), diag


class IterativeScheme(MdbScheme):
    """Iterative control warm-started across slots.

    With ``integrate_mean`` (``iter-conv``) the delivered bits are the time
    integral of the evolving capacities, discretized as the mean of the
    capacity held while each of the ``iterations`` runs (the warm-start
    rates count for the first interval; once converged the final rates fill
    the remaining intervals), so one iteration delivers the warm-start
    rates.  Without it (``iter-once``) the capacities after the slot's
    updates apply to the whole slot.
    """

    def __init__(self, model, traffic, config, iterations: int = 50,
                 integrate_mean: bool = True):
        if iterations < 1:
            raise ConfigError("per-slot iteration budget must be >= 1")
        # The per-slot budget is the solve's iteration budget.
        super().__init__(model, traffic, replace(config, max_iterations=iterations))
        self.iterations = iterations
        self.integrate_mean = integrate_mean
        self.power: PowerState = uniform_power_state(model)
        self.name = "iter-conv" if integrate_mean else "iter-once"

    def step(self, backlog):
        weights = compute_weights(backlog, self.traffic, self.model)
        state, diag = solve_max_weight(self.model, weights.weight, self.power,
                                       self.config, collect_rates=self.integrate_mean)
        self.power = state
        if self.integrate_mean:
            # Iterate k's capacities hold for one of `iterations` equal
            # intervals; after early convergence the last iterate persists.
            trace = diag.capacity_trace
            samples = trace[: self.iterations]
            cap = np.sum(samples, axis=0)
            cap += (self.iterations - len(samples)) * trace[-1]
            cap /= self.iterations
        else:
            # The returned state's, clipped as the trace's were; no weighted link, no service.
            cap = np.zeros(self.model.n_links) if diag.metrics is None else diag.metrics.capacity
        return rates_from_power(cap, weights), diag


def make_scheme(name: str, model: NetworkModel, traffic: TrafficSpec,
                config: SolverConfig, iterations_per_slot: int = 50) -> MdbScheme:
    if name == "instant":
        return InstantScheme(model, traffic, config)
    if name == "iter-conv":
        return IterativeScheme(model, traffic, config,
                               iterations=iterations_per_slot, integrate_mean=True)
    if name == "iter-once":
        return IterativeScheme(model, traffic, config, iterations=1, integrate_mean=False)
    raise ConfigError(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}")

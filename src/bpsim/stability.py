"""Numerical probes of the queue-stability geometry.

The virtual-rate region (net drain vectors achievable by feasible powers and
routing) is explored through its support function: for a nonnegative queue
vector the maximizing rate allocation is exactly what the max-weight
controller computes.  On top of that sit diagnostic checks: the halfspace
gap behind an interior arrival point, directional excess over a dominant
feasible point, the lagged-optimizer cone, and the negative-drift condition
outside a compact region.  These are numerical audits of the machinery, not
proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .model import NetworkModel, TrafficSpec
from .phy import link_metrics, random_power_state, uniform_power_state
from .policy import compute_weights, rates_from_power
from .sim import virtual_rates
from .solver import SolverConfig, solve_max_weight, solve_max_weight_batch

# The smallest sampled support margin per unit of queue weight that makes an
# arrival point verifiably interior (check_drift_condition).
INTERIOR_MARGIN = 1e-9


def queue_norm(u: np.ndarray) -> float:
    return float(np.sqrt((u * u).sum()))


@dataclass
class RateRegionOracle:
    """Support-function access to the virtual service rate region.

    Each query maximizes u . rtilde over feasible rate allocations by
    pushing u through the per-link differential weights and solving the
    max-weight power control from a cold start (so equal queries give
    identical answers), a centralized solve (``SolverConfig.centralized``)
    whatever ``config`` says.  ``solve_ahead`` solves the queries a caller is
    about to make in lockstep; each answer is held until its query asks for
    it, so the queries return exactly what they return without it.
    """

    # Tolerances much below 1e-7 can sit under the floating-point floor of
    # line-searched ascent on some instances; the solver then stalls honestly
    # rather than reaching them.
    model: NetworkModel
    traffic: TrafficSpec
    config: SolverConfig = field(default_factory=lambda: SolverConfig(
        kkt_tolerance=1e-7, max_iterations=2000))
    # Capacities solved ahead, keyed by the bytes of their link weights and
    # dropped once used.
    _ahead: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.config = replace(self.config, centralized=True)

    def mask(self) -> np.ndarray:
        return self.traffic.queue_mask

    def _solved_capacities(self, link_weights: np.ndarray) -> np.ndarray:
        """Clipped capacities of every link at the cold-started max-weight optimum.

        ``link_weights`` must weigh at least one link.
        """
        held = self._ahead.pop(link_weights.tobytes(), None)
        if held is not None:
            return held
        _, diag = solve_max_weight(
            self.model, link_weights, uniform_power_state(self.model), self.config)
        return np.maximum(diag.metrics.capacity, 0.0)

    def solve_ahead(self, supports=(), excesses=()) -> None:
        """Solve in lockstep the max-weight problems that ``support(u)`` for
        every u in ``supports`` and ``directional_excess(delta, ...)`` for
        every delta in ``excesses`` pose.

        Lockstep solves return exactly what single solves do, so the later
        queries return the same values, only sooner.
        """
        rows = [compute_weights(u, self.traffic, self.model).weight for u in supports]
        rows += [self._excess_direction(d)[1] for d in excesses]
        rows = [w for w in rows if w is not None and np.any(w > 0)]
        if not rows:
            return
        solved = solve_max_weight_batch(self.model, np.array(rows),
                                        uniform_power_state(self.model), self.config)
        for w, (_, diag) in zip(rows, solved):
            self._ahead[w.tobytes()] = np.maximum(diag.metrics.capacity, 0.0)

    def support(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """Support value and a maximizing virtual-rate vector for u >= 0."""
        u = np.where(self.mask(), u, 0.0)
        if np.any(u < 0):
            raise ConfigError("support queries require a nonnegative queue vector")
        w = compute_weights(u, self.traffic, self.model)
        if not np.any(w.weight > 0):
            return 0.0, np.zeros_like(u)
        rates = rates_from_power(self._solved_capacities(w.weight), w)
        rt = virtual_rates(rates.rate, rates.commodity, self.traffic, self.model)
        return float((u * rt).sum()), rt

    def sample_rates(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, n, K) random feasible virtual-rate vectors.

        Random feasible powers, each link routed to a random commodity at a
        random fraction of its capacity.  The load fractions mix near-idle,
        uniform and near-full so corners of the region get covered.
        """
        e, nk = self.model.n_links, self.traffic.n_commodities
        amount = np.zeros((count, e))
        com = np.zeros((count, e), dtype=np.intp)
        for s in range(count):
            st = random_power_state(self.model, rng)
            metrics = link_metrics(self.model, st)
            cap = np.maximum(metrics.capacity, 0.0)
            shape = rng.choice([4.0, 1.0, 0.25], size=e)
            amount[s] = cap * rng.random(e) ** shape
            com[s] = rng.integers(0, nk, size=e)
        return virtual_rates(amount, com, self.traffic, self.model)

    def _best_routing_value(self, delta: np.ndarray, cap: np.ndarray) -> float:
        """max of delta . rtilde over routings given fixed link capacities.

        Each link independently picks the commodity with the largest
        differential of delta across it and idles when all are negative, so
        the maximum is exact and linear in the capacities.
        """
        d = np.where(self.mask(), delta, 0.0)
        diff = d[self.model.src] - d[self.model.dst]
        w = np.maximum(diff.max(axis=1), 0.0)
        return float((w * cap).sum())

    def _excess_direction(self, delta: np.ndarray):
        """The masked unit direction of ``delta`` (None for the zero
        direction) and the link weights of its positive part (None when no
        link carries weight)."""
        delta = np.where(self.mask(), delta, 0.0)
        nrm = queue_norm(delta)
        if nrm == 0:
            return None, None
        delta = delta / nrm
        plus = np.maximum(delta, 0.0)
        if not np.any(plus > 0):
            return delta, None
        w = compute_weights(plus, self.traffic, self.model).weight
        return delta, (w if np.any(w > 0) else None)

    def directional_excess(self, delta: np.ndarray, abar: np.ndarray,
                           rng: np.random.Generator | None = None,
                           samples: int = 64) -> float:
        """Largest advance of the region over ``abar`` along unit ``delta``.

        Certified lower bound: for each candidate power configuration (the
        max-weight solve for the positive part of delta, plus random ones)
        the best routing for the direction is evaluated in closed form.
        Exact routing-wise; the power search is sampled, so for sign-mixed
        directions the true value may still be larger.  The zero direction
        returns 0 by convention.
        """
        delta, w = self._excess_direction(delta)
        if delta is None:
            return 0.0
        offset = float((delta * abar).sum())
        best = 0.0      # abar is feasible: excess at least zero
        if w is not None:
            cap = self._solved_capacities(w)
            best = max(best, self._best_routing_value(delta, cap) - offset)
        # directions with negative parts profit from asking dominated links
        # to idle entirely; a full-power configuration covers that corner
        cap_full = np.maximum(
            link_metrics(self.model, uniform_power_state(self.model)).capacity, 0.0)
        best = max(best, self._best_routing_value(delta, cap_full) - offset)
        if rng is not None and samples > 0:
            for _ in range(samples):
                st = random_power_state(self.model, rng)
                cap = np.maximum(link_metrics(self.model, st).capacity, 0.0)
                best = max(best, self._best_routing_value(delta, cap) - offset)
        return best

    def cone_contains(self, abar: np.ndarray, eps: float, u_now: np.ndarray,
                      u_prev: np.ndarray,
                      rng: np.random.Generator | None = None,
                      samples: int = 64) -> bool:
        """Whether u_prev lies in the lagged-optimizer cone around u_now.

        Membership radius along a direction is eps*||u_now|| over twice the
        directional excess; a zero-excess direction admits any distance.
        """
        diff = np.where(self.mask(), u_prev - u_now, 0.0)
        dist = queue_norm(diff)
        if dist == 0:
            return True
        d = self.directional_excess(diff, abar, rng=rng, samples=samples)
        if d <= 0:
            return True
        return dist <= eps * queue_norm(u_now) / (2.0 * d)


def halfspace_margin(oracle: RateRegionOracle, a: np.ndarray, eps: float,
                     u: np.ndarray, y: np.ndarray) -> float:
    """Slack in u.(a - y) <= -(eps/2)||u|| for y beyond the halfspace at a + eps/2.

    Nonnegative margin means the inequality holds.  Caller guarantees y is
    feasible and satisfies u.y >= u.(a + eps/2).
    """
    mask = oracle.mask()
    u = np.where(mask, u, 0.0)
    lhs = float((u * (np.where(mask, a, 0.0) - y)).sum())
    return -(eps / 2.0) * queue_norm(u) - lhs


def estimate_epsilon(oracle: RateRegionOracle, a: np.ndarray,
                     rng: np.random.Generator, samples: int = 1000) -> float:
    """Largest eps with support(u) >= u.(a + eps) on sampled directions.

    The support is positively homogeneous, so each sampled nonnegative
    direction yields the exact cutoff (support(u) - u.a) / |u|_1, and the
    minimum over the sample is returned.  That minimum is an upper bound on
    the interior margin (the minimum over every direction), not an estimate
    of it: on a 10-node paper network, 1,000 directions gave 2.80 where
    mirror descent certifies [0.095, 0.281].
    """
    mask = oracle.mask()
    a = np.where(mask, a, 0.0)
    # Support queries draw nothing from rng, so drawing every direction
    # first leaves the stream as it was.
    directions = [np.where(mask, rng.random(a.shape), 0.0) for _ in range(samples)]
    oracle.solve_ahead(supports=directions)
    best = np.inf
    for u in directions:
        l1 = u.sum()
        if l1 <= 0:
            continue
        val, _ = oracle.support(u)
        best = min(best, (val - float((u * a).sum())) / l1)
    if not np.isfinite(best):
        raise ConfigError("no usable directions sampled")
    return max(0.0, best)


def omega_threshold(eps: float, eps0: float, lam: float, alpha: float) -> float:
    """Lyapunov level above which the negative-drift condition is asserted."""
    # NaN fails the comparison, so it is rejected with the infinities.
    if not all(0 < v < np.inf for v in (eps, eps0, lam, alpha)):
        raise ConfigError("eps, eps0, lambda and alpha must be finite and positive")
    omega1 = (1.0 + alpha * alpha) * (eps0 + lam) ** 2 / (eps * eps)
    c = np.sqrt(2.0 * lam) / alpha
    s = (c + np.sqrt(c * c + 4.0 * (lam + eps0))) / 2.0
    omega2 = (1.0 + 1.0 / (alpha * alpha)) * s * s
    return float(max(omega1, omega2))


# The drift report CSV's header; alone, the report of a trace without slots.
REPORT_HEADER = "slot,V,omega,lhs,violation\n"


@dataclass
class DriftCheckRow:
    slot: int
    lyapunov: float
    lhs: float
    violation: bool


@dataclass
class DriftCheckReport:
    omega: float
    alpha: float
    eps: float
    eps0: float
    lam: float
    checked: list[DriftCheckRow]

    @property
    def violations(self) -> int:
        return sum(r.violation for r in self.checked)

    def to_csv(self) -> str:
        lines = [REPORT_HEADER.rstrip("\n")]
        for r in self.checked:
            lines.append(
                f"{r.slot},{r.lyapunov!r},{self.omega!r},{r.lhs!r},{int(r.violation)}")
        return "\n".join(lines) + "\n"


def check_drift_condition(oracle: RateRegionOracle, a: np.ndarray, eps: float,
                          lam: float, eps0: float, lyapunov: np.ndarray,
                          queues: np.ndarray, rng: np.random.Generator,
                          direction_samples: int = 32) -> DriftCheckReport:
    """Audit the negative-drift condition over a recorded trajectory.

    ``lyapunov`` is the (slots+1,) V column of a trace and ``queues`` the
    (slots+1, n*K) per-queue backlogs: ``SimTrace.lyapunov`` and
    ``SimTrace.queue_vectors()``, or what ``sim.read_trace_csv`` reads of the
    run's trace CSV, which are the same arrays bit for bit.  For every
    slot whose Lyapunov value exceeds the compact-region level,
    evaluates 2 u_t.(a - R*(u_{t-1})) - ||u_t - u_{t-1}||^2 + lam and flags
    values above -eps0.  The arrival point must be verifiably interior:
    sampled support values must exceed u.a with positive margin.
    """
    mask = oracle.mask()
    a = np.where(mask, a, 0.0)
    # The queries below draw nothing from rng (directional_excess with no
    # samples), so drawing every direction first leaves the stream as it was.
    supports = [np.where(mask, rng.random(a.shape), 0.0)
                for _ in range(max(8, direction_samples // 4))]
    excesses = [np.where(mask, rng.random(a.shape), 0.0) for _ in range(direction_samples)]
    oracle.solve_ahead(supports=supports, excesses=excesses)
    dominant = None
    worst = np.inf
    for u in supports:
        val, rt = oracle.support(u)
        margin = val - float((u * a).sum())
        worst = min(worst, margin / max(u.sum(), 1e-300))
        if dominant is None:
            dominant = rt
    if not (worst > INTERIOR_MARGIN):
        raise ConfigError(
            f"arrival point not verifiably interior (margin {worst:.3e})")

    max_d = 0.0
    for delta in excesses:
        max_d = max(max_d, oracle.directional_excess(delta, dominant, rng, samples=0))
    if max_d <= 0:
        raise ConfigError("sampled directional excess vanished; cannot size the cone")
    alpha = min(1.0, eps / (2.0 * max_d))
    omega = omega_threshold(eps, eps0, lam, alpha)

    above = [t for t in range(1, len(lyapunov)) if not float(lyapunov[t]) <= omega]
    oracle.solve_ahead(supports=[queues[t - 1].reshape(a.shape) for t in above])
    rows: list[DriftCheckRow] = []
    for t in above:
        v = float(lyapunov[t])
        u_t = queues[t].reshape(a.shape)
        u_prev = queues[t - 1].reshape(a.shape)
        _, rstar = oracle.support(u_prev)
        lhs = (2.0 * float((u_t * (a - rstar)).sum())
               - float(((queues[t] - queues[t - 1]) ** 2).sum()) + lam)
        rows.append(DriftCheckRow(slot=t, lyapunov=v, lhs=lhs,
                                  violation=bool(lhs > -eps0)))
    return DriftCheckReport(omega=omega, alpha=alpha, eps=eps, eps0=eps0,
                            lam=lam, checked=rows)

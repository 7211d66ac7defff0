"""Distributed max-weight power control by scaled gradient projection.

Each node repeatedly improves its own variables: the allocation fractions
over its outgoing links (projected onto the simplex under a diagonal norm)
and its power exponent (clamped to a box).  A backtracking (Armijo) rule
makes every accepted step non-decreasing in the weighted sum rate; a fixed
stepsize mode emulates a fully distributed deployment.  Optimality is
certified by the marginal-gain conditions: per node, the allocation gains
are equalized across its weighted links and the power gain vanishes unless
the exponent sits at its cap.

Allocation updates of different nodes are independent at fixed exponents
(a node's split does not change its total radiated power), so one sweep
updates all nodes from a common snapshot; no processing order can change
the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, NumericDomainError
from .model import NetworkModel
from .phy import (
    ETA_FLOOR,
    LinkMetrics,
    PowerState,
    WeightedLinks,
    alloc_marginal_gain,
    link_metrics,
    link_metrics_from_powers,
    marginal_gains,
    weighted_links,
)

# Safeguards under the diagonal scaling matrices.
SCALE_EPS = 1e-8
_MIN_STEP = 1e-14
_MAX_BACKTRACKS = 80
_BOUND_TOL = 1e-9
# Iterates in a row that leave the objective bit for bit unchanged before a
# solve gives up (see solve_max_weight).
_STALL_ITERATES = 12
# Armijo rule: sufficient-increase fraction, backtracking factor, first trial.
ARMIJO_SIGMA = 1e-4
ARMIJO_SHRINK = 0.5
ARMIJO_INITIAL = 1.0
# Dormant weighted links re-enter at this fraction of an even split so a
# Newton-scaled ascent does not crawl out of the log barrier.
RESEED_FRACTION = 0.05


@dataclass
class SolverConfig:
    """Iteration budget, certificate tolerance and stepsize/scaling variant.

    The default variant is the Armijo line search under diagonal-Hessian
    scaling.  ``stepsize_rule="fixed"`` takes ``fixed_step`` without any
    objective evaluation, as a fully distributed deployment would.
    """

    max_iterations: int = 400
    kkt_tolerance: float = 1e-6
    stepsize_rule: str = "armijo"           # "armijo" | "fixed"
    fixed_step: float = 0.5
    scaling: str = "diagonal_hessian"       # "diagonal_hessian" | "identity"

    def __post_init__(self):
        # NaN fails the comparison, so it is rejected with the infinities.
        if not 0 < self.kkt_tolerance < np.inf:
            raise ConfigError(f"kkt_tolerance must be finite and positive, "
                              f"got {self.kkt_tolerance!r}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations!r}")
        if self.stepsize_rule not in ("armijo", "fixed"):
            raise ConfigError(f"unknown stepsize rule {self.stepsize_rule!r}")
        if self.scaling not in ("diagonal_hessian", "identity"):
            raise ConfigError(f"unknown scaling {self.scaling!r}")


def project_simplex(target: np.ndarray, scale: np.ndarray | None = None,
                    floor: float = 0.0) -> np.ndarray:
    """Projection of one vector onto {x >= floor, sum x = 1} in a diagonal norm.

    Minimizes sum(scale * (x - target)**2); the one-segment case of
    ``_project_alloc_nodes``.
    """
    target = np.asarray(target, dtype=float)
    m = target.size
    if m * floor > 1.0 + 1e-15:
        raise ConfigError(f"infeasible projection: {m} * floor {floor} > 1")
    invq = np.ones(m) if scale is None else 1.0 / np.asarray(scale, dtype=float)
    return _project_alloc_nodes(np.zeros(m, dtype=np.intp), np.array([float(m)]),
                                target, invq, floor)


def _project_alloc_nodes(src: np.ndarray, m_node: np.ndarray, target: np.ndarray,
                         invq: np.ndarray, floor: float) -> np.ndarray:
    """Weighted-simplex projection of each segment ``src == i`` (length ``m_node[i]``).

    Minimizes sum((x - target)**2 / invq) per segment by the exact finite
    active-set method: solve for the multiplier on the free set, clamp
    violators, repeat.  A segment without violations keeps its free set, so
    the loop ends within the longest segment's length plus one passes.  The
    first pass has every coordinate free, so its sums need no mask and its
    goal is exactly 1.
    """
    n = m_node.size
    free = np.ones(target.size, dtype=bool)
    s_t = np.bincount(src, weights=target, minlength=n)
    s_iq = np.bincount(src, weights=invq, minlength=n)
    goal = 1.0
    for _ in range(target.size + 1):
        mu = np.divide(s_t - goal, s_iq, out=np.zeros(n), where=s_iq > 0)
        x = target - mu[src] * invq
        viol = free & (x < floor)
        if not viol.any():
            break
        free &= ~viol
        s_t = np.bincount(src, weights=target * free, minlength=n)
        s_iq = np.bincount(src, weights=invq * free, minlength=n)
        n_free = np.bincount(src, weights=free.astype(float), minlength=n)
        goal = 1.0 - floor * (m_node - n_free)
    return np.where(free, np.maximum(x, floor), floor)


@dataclass
class _Workspace(WeightedLinks):
    """Per-solve constants over the weighted (active) links, built once per solve."""

    theta_g: np.ndarray         # theta[src] * gain[src, dst], the self-interference gain
    ln_kg: np.ndarray           # log(processing_gain * gain[src, dst]), model.link_log_kg
    m_node: np.ndarray          # (n,) weighted out-degree
    has_active: np.ndarray      # (n,) bool
    gain_cols: np.ndarray       # (n, E_a) gain from every node to each active receiver
    cols: np.ndarray            # (E_a,) arange, column index of each active link


def _make_workspace(model: NetworkModel, weights: np.ndarray) -> _Workspace:
    links = weighted_links(model, weights)
    g = links.gain
    m_node = np.bincount(links.src, minlength=model.n).astype(float)
    return _Workspace(
        **vars(links),
        theta_g=model.link_theta[links.act] * g,
        ln_kg=model.link_log_kg[links.act],
        m_node=m_node,
        has_active=m_node > 0,
        gain_cols=model.gain[:, links.dst],
        cols=np.arange(links.act.size),
    )


def _objective(ws: _Workspace, metrics: LinkMetrics) -> float:
    """Weighted sum rate over the weighted links (``phy.objective_from_metrics``)."""
    p = metrics.power[ws.act]
    if p.min(initial=np.inf) <= 0:
        bad = int(ws.act[np.argmax(p <= 0)])
        raise NumericDomainError(f"zero power on weighted link index {bad} (log 0)")
    return float(np.dot(ws.w, metrics.capacity[ws.act]))


def _seed_state(model: NetworkModel, ws: _Workspace, initial: PowerState) -> PowerState:
    """Restrict the warm start to the weighted links and keep it off the log barrier.

    Nodes owning at least one weighted link concentrate their split on those
    links; nodes with none keep a valid split (their power step alone drives
    them to the exponent floor).
    """
    n = model.n
    src = model.src
    # A node without weighted links keeps its split unless it is not a valid
    # one (sum off 1, or not finite: NaN fails the comparison).
    total = np.bincount(src, weights=initial.alloc, minlength=n)
    reset = ~ws.has_active & ~(np.abs(total - 1.0) <= 1e-9)
    alloc = np.where(reset[src], 1.0 / model.out_degree[src], initial.alloc)
    alloc[ws.has_active[src]] = 0.0
    a = initial.alloc[ws.act]
    # Links that were essentially unused get a small positive seed; established
    # allocations above the floor are kept so a converged point stays fixed.
    seed_min = RESEED_FRACTION / np.maximum(ws.m_node[ws.src], 1.0)
    a = np.where(a < 10.0 * ETA_FLOOR, np.maximum(a, seed_min), a)
    total = np.bincount(ws.src, weights=a, minlength=n)
    bad = (total <= 0) & ws.has_active
    if bad.any():
        a = np.where(bad[ws.src], 1.0, a)
        total = np.bincount(ws.src, weights=a, minlength=n)
    a = a / total[ws.src]
    a = _project_alloc_nodes(ws.src, ws.m_node, a, np.ones_like(a), ETA_FLOOR)
    alloc[ws.act] = a
    exponent = np.clip(initial.exponent, model.gamma_floor, 1.0)
    return PowerState(alloc, exponent)


def _local_objective(ws: _Workspace, p_i: np.ndarray, self_gain: np.ndarray,
                     other: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """(n,) per-node weighted rate over its own links, as a function of its split.

    ``p_i`` is the transmitter's total power per link and ``self_gain`` is
    ``theta_g * p_i``.
    """
    cap = ws.ln_kg + np.log(p_i * x) - np.log(self_gain * (1.0 - x) + other)
    return np.bincount(ws.src, weights=ws.w * cap, minlength=n)


def alloc_sweep(model: NetworkModel, ws: _Workspace, state: PowerState,
                metrics: LinkMetrics, delta_alloc: np.ndarray,
                config: SolverConfig,
                beta0: np.ndarray | None = None
                ) -> tuple[np.ndarray, int, np.ndarray | None]:
    """One allocation update for every node with weighted links.

    Returns the new full allocation vector, the number of local objective
    evaluations spent in line searches, and the per-node accepted stepsizes
    (callers may feed them back as the next sweep's ``beta0``).
    """
    n = model.n
    a = state.alloc[ws.act]
    d = delta_alloc[ws.act]
    # Inverse of the diagonal scaling: w / a**2 approximates the curvature.
    invq = (np.ones_like(a) if config.scaling == "identity"
            else 1.0 / (ws.w / (a * a) + SCALE_EPS))
    p_node = metrics.node_power
    p_i = p_node[ws.src]
    # Interference at each link's receiver that does not depend on this
    # node's own split (totals of other transmitters plus noise).
    other = metrics.inoise[ws.act] - ws.theta_g * (p_i - metrics.power[ws.act])
    evals = 0

    if config.stepsize_rule == "fixed":
        target = a + config.fixed_step * d * invq
        x = _project_alloc_nodes(ws.src, ws.m_node, target, invq, ETA_FLOOR)
        out = state.alloc.copy()
        out[ws.act] = x
        return out, evals, None

    self_gain = ws.theta_g * p_i
    f0 = _local_objective(ws, p_i, self_gain, other, a, n)
    evals += 1
    grad = p_i * d
    cap = ARMIJO_INITIAL * np.maximum(p_node, 1.0)
    beta = cap if beta0 is None else np.minimum(beta0, cap)
    accepted = ~ws.has_active
    x_out = a.copy()
    for _ in range(_MAX_BACKTRACKS):
        target = a + beta[ws.src] * d * invq
        x = _project_alloc_nodes(ws.src, ws.m_node, target, invq, ETA_FLOOR)
        f1 = _local_objective(ws, p_i, self_gain, other, x, n)
        evals += 1
        gain = np.bincount(ws.src, weights=grad * (x - a), minlength=n)
        ok = (f1 - f0 >= ARMIJO_SIGMA * gain) & ws.has_active
        newly = ok & ~accepted
        if newly.any():
            take = newly[ws.src]
            x_out[take] = x[take]
            accepted |= newly
        if accepted.all():
            break
        beta = np.where(accepted, beta, beta * ARMIJO_SHRINK)
        if beta[~accepted].max(initial=0.0) < _MIN_STEP:
            break
    out = state.alloc.copy()
    out[ws.act] = x_out
    # An accepted step earns a doubled first trial next sweep; nodes that
    # backtracked to nothing restart from the full trial step.
    return out, evals, np.where(accepted, np.minimum(2.0 * beta, cap), cap)


def _curvature(ws: _Workspace, metrics: LinkMetrics) -> np.ndarray:
    """(n,) diagonal curvature of the objective in each node's log power.

    Each weighted link contributes w * s * (1 - s) where s is the share of
    its interference-plus-noise sourced from the node in question.
    """
    p_node = metrics.node_power
    contrib = ws.gain_cols * p_node[:, None]                            # (n, E_a)
    contrib[ws.src, ws.cols] = ws.theta_g * (p_node[ws.src] - metrics.power[ws.act])
    s = contrib / metrics.inoise[ws.act][None, :]
    return ((s * (1.0 - s)) * ws.w[None, :]).sum(axis=1)


def power_step(model: NetworkModel, ws: _Workspace, state: PowerState,
               config: SolverConfig,
               metrics: LinkMetrics | None = None,
               delta_gamma: np.ndarray | None = None,
               xi0: float | None = None
               ) -> tuple[np.ndarray, LinkMetrics, float, int, float]:
    """One joint power-exponent update (diagonal scaling, box clamp).

    Returns (new exponents, link metrics and objective at the accepted point,
    objective evaluations, accepted stepsize to seed the next call).  The
    accepted point is the accepted line-search trial, or the start when the
    step does not move.
    """
    if metrics is None:
        metrics = link_metrics(model, state)
    if delta_gamma is None:
        _, up, down = marginal_gains(model, ws, state.alloc, metrics)
        delta_gamma = metrics.node_power * (up - down)
    if not np.isfinite(delta_gamma).all():
        raise NumericDomainError("non-finite power marginal gain")
    shat = model.log_power_cap
    if config.scaling == "identity":
        v = np.ones(model.n)
    else:
        v = np.maximum(shat * _curvature(ws, metrics), SCALE_EPS)
    gamma = state.exponent
    gfloor = model.gamma_floor

    def evaluate(expo: np.ndarray) -> tuple[LinkMetrics, float]:
        p = (model.power_cap ** expo)[model.src] * state.alloc
        met = link_metrics_from_powers(model, p)
        return met, _objective(ws, met)

    if config.stepsize_rule == "fixed":
        new = np.clip(gamma + config.fixed_step * delta_gamma / v, gfloor, 1.0)
        return (new, *evaluate(new), 1, config.fixed_step)

    f0 = _objective(ws, metrics)
    grad = shat * delta_gamma
    xi = ARMIJO_INITIAL if xi0 is None else min(xi0, ARMIJO_INITIAL)
    evals = 0
    for _ in range(_MAX_BACKTRACKS):
        new = np.clip(gamma + xi * delta_gamma / v, gfloor, 1.0)
        move = new - gamma
        if not np.any(move):
            return gamma.copy(), metrics, f0, evals, ARMIJO_INITIAL
        met, f1 = evaluate(new)
        evals += 1
        if f1 - f0 >= ARMIJO_SIGMA * float(np.dot(grad, move)):
            return new, met, f1, evals, min(2.0 * xi, ARMIJO_INITIAL)
        xi *= ARMIJO_SHRINK
        if xi < _MIN_STEP:
            break
    return gamma.copy(), metrics, f0, evals, ARMIJO_INITIAL


def alloc_step(model: NetworkModel, weights: np.ndarray, state: PowerState,
               node: int, config: SolverConfig) -> PowerState:
    """Allocation update for a single node; other nodes' variables untouched."""
    own = np.where(model.src == node, weights, 0.0)
    ws = _make_workspace(model, own)
    if not ws.has_active[node]:
        return state.copy()
    metrics = link_metrics(model, state)
    delta = alloc_marginal_gain(model, weights, metrics)
    alloc, _, _ = alloc_sweep(model, ws, state, metrics, delta, config)
    return PowerState(alloc, state.exponent.copy())


@dataclass
class ProtocolResult:
    """Outcome of one control-message exchange round."""

    delta_gamma: np.ndarray     # (n,) power marginal gains assembled from messages
    messages: np.ndarray        # (n,) broadcast value per node
    broadcasts: int             # one network-wide broadcast per node
    feedbacks: int              # one upstream feedback value per link


def exchange_messages(model: NetworkModel, weights: np.ndarray, state: PowerState,
                      metrics: LinkMetrics) -> ProtocolResult:
    """Power-control message exchange, computed strictly via the protocol dataflow.

    Every receiver assembles weight/interference ratios for its incoming
    links from the upstream feedback value weight/power and its own SINR and
    gain measurements, sums them into one value, and broadcasts it.  Each
    node then combines all broadcasts: a next-hop neighbor's message is
    offset by a locally measurable term; every message is weighted by the
    (negated) gain toward its origin.  The local term is evaluated in a form
    valid for any self-interference factor, including zero.
    """
    src, dst = model.src, model.dst
    g = model.link_gain
    active = weights > 0
    if np.any(metrics.power[active] <= 0):
        raise NumericDomainError("zero power on a weighted link")
    # Upstream feedback: one value per link (zero where the link carries no weight).
    feedback = np.zeros(model.n_links)
    np.divide(weights, metrics.power, out=feedback, where=active)
    # Receiver-side reconstruction of weight / interference-plus-noise.
    ratio = feedback * metrics.sinr / (g * model.processing_gain)
    msgs = np.bincount(dst, weights=ratio, minlength=model.n)
    p_node = metrics.node_power
    theta_l = model.link_theta
    p_src = p_node[src]
    inv_p = np.divide(1.0, p_src, out=np.zeros(model.n_links), where=p_src > 0)
    local = weights * (inv_p + (theta_l * state.alloc - theta_l + 1.0) * g / metrics.inoise)
    delta_gamma = p_node * (np.bincount(src, weights=local, minlength=model.n)
                            - model.gain @ msgs)
    return ProtocolResult(
        delta_gamma=delta_gamma,
        messages=msgs,
        broadcasts=model.n,
        feedbacks=model.n_links,
    )


@dataclass
class KKTReport:
    """Residuals of the max-weight optimality conditions at a power state."""

    alloc_spread: np.ndarray        # (n,) spread of allocation gains, weighted links
    gamma_residual: np.ndarray      # (n,) projected power-gain residual
    alloc_scale: np.ndarray         # (n,) per-node allocation-gain scale
    gamma_scale: np.ndarray         # (n,) per-node power-gain scale
    max_residual: float             # raw
    normalized: float
    passed: bool
    tolerance: float
    gamma_floor_active: np.ndarray  # (n,) exponent pinned at the artificial floor
    alloc_floor_active: np.ndarray  # (E,) allocation pinned at the floor


def kkt_check(model: NetworkModel, weights: np.ndarray, state: PowerState,
              tolerance: float,
              metrics: LinkMetrics | None = None,
              gradient: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
              ) -> KKTReport:
    """Certify optimality: equalized allocation gains, vanishing power gains.

    Power gains may be nonnegative at the exponent cap.  Floors active at
    the tested point are flagged; the exponent-floor residual uses the
    projected condition (the gain must not push further down).  Residuals
    are normalized per node: the allocation spread by the node's largest
    allocation gain, the power residual by the total magnitude of the
    raise/drop components whose cancellation it certifies.  ``gradient`` is
    what ``phy.marginal_gains`` returns at the tested point, when the caller
    already has it.
    """
    if metrics is None:
        metrics = link_metrics(model, state)
    if gradient is None:
        gradient = marginal_gains(model, weighted_links(model, weights), state.alloc,
                                  metrics)
    delta_alloc, up, down = gradient
    p_node = metrics.node_power
    delta_gamma = p_node * (up - down)

    n = model.n
    weighted = weights > 0
    floored = weighted & (state.alloc <= ETA_FLOOR * (1.0 + 1e-6))
    alloc_floor_active = floored
    free = weighted & ~floored
    src_f = model.src[free]
    hi = np.full(n, -np.inf)
    lo = np.full(n, np.inf)
    np.maximum.at(hi, src_f, delta_alloc[free])
    np.minimum.at(lo, src_f, delta_alloc[free])
    cnt = np.bincount(src_f, minlength=n)
    spread = np.where(cnt >= 2, hi - lo, 0.0)
    alloc_scale = np.where(cnt >= 1, np.maximum(1.0, hi), 1.0)

    at_top = state.exponent >= 1.0 - _BOUND_TOL
    at_floor_g = state.exponent <= model.gamma_floor + _BOUND_TOL
    gamma_residual = np.where(at_top, np.maximum(0.0, -delta_gamma),
                              np.where(at_floor_g, np.maximum(0.0, delta_gamma),
                                       np.abs(delta_gamma)))
    gamma_scale = np.maximum(1.0, p_node * (up + down))

    normalized = float(max((spread / alloc_scale).max(initial=0.0),
                           (gamma_residual / gamma_scale).max(initial=0.0)))
    max_residual = float(max(spread.max(initial=0.0), gamma_residual.max(initial=0.0)))
    return KKTReport(
        alloc_spread=spread,
        gamma_residual=gamma_residual,
        alloc_scale=alloc_scale,
        gamma_scale=gamma_scale,
        max_residual=max_residual,
        normalized=normalized,
        passed=bool(normalized < tolerance),
        tolerance=tolerance,
        gamma_floor_active=at_floor_g,
        alloc_floor_active=alloc_floor_active,
    )


@dataclass
class SolveDiagnostics:
    """Per-solve trace: objectives, residuals and control-message counts."""

    objectives: list[float] = field(default_factory=list)
    kkt_residuals: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = True
    broadcasts: int = 0
    feedbacks: int = 0
    line_search_evals: int = 0
    # Clipped per-link capacities at the start point and after each
    # iteration; filled only when requested.
    capacity_trace: list[np.ndarray] | None = None
    # Link metrics of the returned state; None when no link carries weight.
    metrics: LinkMetrics | None = None

    def csv_rows(self) -> list[str]:
        rows = ["iteration,objective,kkt_residual,messages"]
        msgs = 0
        per_iter = (self.broadcasts + self.feedbacks) // max(self.iterations, 1)
        for k in range(self.iterations):
            msgs += per_iter
            res = self.kkt_residuals[k] if k < len(self.kkt_residuals) else float("nan")
            obj = self.objectives[k + 1] if k + 1 < len(self.objectives) else float("nan")
            rows.append(f"{k + 1},{obj!r},{res!r},{msgs}")
        return rows


def _exact_repeat(start: tuple, end: tuple) -> bool:
    """True when every solver variable (arrays, floats or None) ends bit for
    bit as it started."""
    return all(a is b or (a is not None and b is not None
                          and np.asarray(a).tobytes() == np.asarray(b).tobytes())
               for a, b in zip(start, end))


def solve_max_weight(model: NetworkModel, weights: np.ndarray, initial: PowerState,
                     config: SolverConfig | None = None,
                     max_iterations: int | None = None,
                     collect_rates: bool = False) -> tuple[PowerState, SolveDiagnostics]:
    """Iterate allocation sweeps and power steps until the KKT check passes.

    With all weights zero the initial state is returned untouched with a
    zero objective, a zero capacity trace (when requested) and no link
    metrics.  Non-convergence within the iteration budget is flagged in the
    diagnostics, not raised.
    """
    if config is None:
        config = SolverConfig()
    iters = config.max_iterations if max_iterations is None else max_iterations
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (model.n_links,):
        raise ConfigError("weights must be one value per link")
    if np.any(weights < 0):
        raise ConfigError("link weights must be nonnegative")
    diag = SolveDiagnostics()
    if not np.any(weights > 0):
        diag.objectives.append(0.0)
        if collect_rates:
            diag.capacity_trace = [np.zeros(model.n_links)]
        return initial.copy(), diag

    ws = _make_workspace(model, weights)
    state = _seed_state(model, ws, initial)

    def clipped(met: LinkMetrics) -> np.ndarray:
        return np.where(weights > 0, np.maximum(met.capacity, 0.0), 0.0)

    metrics = link_metrics(model, state)
    diag.objectives.append(_objective(ws, metrics))
    if collect_rates:
        diag.capacity_trace = [clipped(metrics)]
    converged = False
    beta0: np.ndarray | None = None
    xi0: float | None = None
    stalled = 0
    while diag.iterations < iters:
        start = (state.alloc, state.exponent, beta0, xi0)
        gradient = marginal_gains(model, ws, state.alloc, metrics)
        report = kkt_check(model, weights, state, config.kkt_tolerance, metrics, gradient)
        diag.kkt_residuals.append(report.normalized)
        if report.passed:
            converged = True
            break
        new_alloc, evals, beta0 = alloc_sweep(model, ws, state, metrics,
                                              gradient[0], config, beta0)
        state = PowerState(new_alloc, state.exponent)
        new_gamma, metrics, f_after, pc_evals, xi0 = power_step(model, ws, state, config,
                                                                xi0=xi0)
        state = PowerState(state.alloc, new_gamma)
        # Floating point can pin the residual just above a very tight
        # tolerance while the objective no longer moves at all; stop rather
        # than spin, leaving the convergence flag honest.  An iterate that
        # ends bit for bit where it started (state and stepsizes) repeats
        # itself exactly up to that stop, so its repeats are recorded
        # without being computed.
        reps = 1
        if f_after != diag.objectives[-1]:
            stalled = 0
        else:
            if _exact_repeat(start, (state.alloc, state.exponent, beta0, xi0)):
                reps = min(_STALL_ITERATES - stalled, iters - diag.iterations)
            stalled += reps
        diag.objectives += [f_after] * reps
        diag.kkt_residuals += [report.normalized] * (reps - 1)
        if collect_rates:
            diag.capacity_trace += [clipped(metrics) for _ in range(reps)]
        diag.iterations += reps
        diag.line_search_evals += reps * (evals + pc_evals)
        # One protocol round per iteration in a distributed deployment.
        diag.broadcasts += reps * model.n
        diag.feedbacks += reps * model.n_links
        if stalled >= _STALL_ITERATES:
            break
    else:
        report = kkt_check(model, weights, state, config.kkt_tolerance, metrics,
                           marginal_gains(model, ws, state.alloc, metrics))
        diag.kkt_residuals.append(report.normalized)
        converged = report.passed
    diag.converged = converged
    diag.metrics = metrics
    return state, diag


# ------------------------------------------------------------ lockstep solves
#
# solve_max_weight_batch advances independent solves over one model as
# stacked arrays.  On small networks a solver iterate costs numpy call
# overhead rather than arithmetic, so B rows in one call cost little more
# than one.  Every row gets exactly what solve_max_weight returns for it,
# because every floating-point operation keeps the single path's order:
#   * rows are grouped by weighted-link count, so the stacked link arrays are
#     rectangular (zero padding would change the np.dot sums);
#   * per-node sums are bincounts over segment ids b*n + i, which add each
#     row's links in link order;
#   * matrix-vector and dot products are stacked matmuls with a trailing unit
#     axis, which numpy hands row by row to the same BLAS gemv and dot calls;
#   * the curvature's gain columns keep the F layout of model.gain[:, dst],
#     whose row sums add links one after another.
# The single solve stays the path for one problem: at B=1 the lockstep
# iterate costs 76-83% more (5- and 10-node networks).

# Per-row arrays of a _Lockstep, stacked from the rows' _Workspace fields.
_STACKED = ("act", "src", "dst", "w", "gain", "w_theta_g", "theta_g", "ln_kg", "m_node",
            "has_active")
_METRIC_FIELDS = tuple(f.name for f in fields(LinkMetrics))


@dataclass
class _Lockstep:
    """The workspaces of B solves with equal weighted-link counts, row by row:
    (B, E_a) link arrays and (B, n) node arrays."""

    act: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    gain: np.ndarray
    w_theta_g: np.ndarray
    theta_g: np.ndarray
    ln_kg: np.ndarray
    m_node: np.ndarray
    has_active: np.ndarray
    seg_src: np.ndarray         # b*n + src: flat (B, n) index of each link's transmitter
    seg_dst: np.ndarray         # b*n + dst
    flat_act: np.ndarray        # b*E + act: flat (B, E) index of each weighted link
    gain_cols: np.ndarray       # (B, n, E_a); row b is laid out as model.gain[:, dst[b]]

    def take(self, model: NetworkModel, keep: np.ndarray) -> "_Lockstep":
        return _lockstep(model, {f: getattr(self, f)[keep] for f in _STACKED})


def _lockstep(model: NetworkModel, arrays: dict[str, np.ndarray]) -> _Lockstep:
    row = np.arange(len(arrays["src"]))[:, None]
    return _Lockstep(**arrays, seg_src=arrays["src"] + model.n * row,
                     seg_dst=arrays["dst"] + model.n * row,
                     flat_act=arrays["act"] + model.n_links * row,
                     gain_cols=model.gain[:, arrays["dst"]].transpose(1, 0, 2))


def _segment_sums(seg: np.ndarray, values: np.ndarray, rows: int, n: int) -> np.ndarray:
    """(rows, n) sums of ``values`` over the segments ``seg``, in link order."""
    return np.bincount(seg.ravel(), weights=values.ravel(),
                       minlength=rows * n).reshape(rows, n)


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.dot of each row pair."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _lockstep_metrics(model: NetworkModel, expo: np.ndarray, alloc: np.ndarray) -> LinkMetrics:
    """``link_metrics`` of each row of the (B, n) exponents and (B, E)
    allocations, stacked."""
    rows, n = expo.shape[0], model.n
    g = model.link_gain
    p = (model.power_cap ** expo)[:, model.src] * alloc
    tx_total = _segment_sums(model.src + n * np.arange(rows)[:, None], p, rows, n)
    tx_src = tx_total[:, model.src]
    rx_total = np.matmul(model.gain.T, tx_total[:, :, None])[:, :, 0]
    other = rx_total[:, model.dst] - g * tx_src
    inoise = model.link_theta * g * (tx_src - p) + other + model.link_noise
    if not (inoise.min(initial=np.inf) > 0 and inoise.max(initial=0.0) < np.inf):
        bad = int(np.argmin(np.where(np.isfinite(inoise), inoise, -np.inf))) % model.n_links
        raise NumericDomainError(
            f"interference-plus-noise is not positive and finite on link {model.links[bad]}")
    sinr = model.processing_gain * g * p / inoise
    capacity = np.log(sinr, out=np.full_like(sinr, -np.inf), where=sinr > 0)
    if np.isnan(sinr.max(initial=-np.inf)):
        bad = int(np.argmax(np.isnan(sinr))) % model.n_links
        raise NumericDomainError(f"non-finite capacity on link {model.links[bad]}")
    return LinkMetrics(power=p, inoise=inoise, sinr=sinr, capacity=capacity,
                       node_power=tx_total)


def _lockstep_objective(flat_act: np.ndarray, w: np.ndarray,
                        metrics: LinkMetrics) -> np.ndarray:
    if metrics.power.take(flat_act).min(initial=np.inf) <= 0:
        raise NumericDomainError("zero power on a weighted link (log 0)")
    return _row_dot(w, metrics.capacity.take(flat_act))


def _lockstep_gains(model: NetworkModel, ls: _Lockstep, alloc: np.ndarray,
                    metrics: LinkMetrics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``phy.marginal_gains`` per row: the (B, E_a) allocation gains on the
    weighted links and the (B, n) parts ``up`` and ``down``."""
    rows, n = alloc.shape[0], model.n
    p = metrics.power.take(ls.flat_act)
    if p.min(initial=np.inf) <= 0:
        raise NumericDomainError("zero power on a weighted link")
    inoise = metrics.inoise.take(ls.flat_act)
    delta_alloc = ls.w / p + ls.w_theta_g / inoise
    f = ls.w / inoise
    own = _segment_sums(ls.seg_src, ls.gain * f, rows, n)
    down = np.matmul(model.gain, _segment_sums(ls.seg_dst, f, rows, n)[:, :, None])[:, :, 0]
    alloc_term = _segment_sums(ls.seg_src, delta_alloc * alloc.take(ls.flat_act), rows, n)
    return delta_alloc, (1.0 - model.theta) * own + alloc_term, down


def _lockstep_kkt(model: NetworkModel, ls: _Lockstep, alloc: np.ndarray, expo: np.ndarray,
                  metrics: LinkMetrics, gradient: tuple) -> np.ndarray:
    """``kkt_check(...).normalized`` per row."""
    delta_alloc, up, down = gradient
    rows, n = expo.shape[0], model.n
    p_node = metrics.node_power
    delta_gamma = p_node * (up - down)
    free = ~(alloc.take(ls.flat_act) <= ETA_FLOOR * (1.0 + 1e-6))
    seg = ls.seg_src[free]
    hi = np.full(rows * n, -np.inf)
    lo = np.full(rows * n, np.inf)
    np.maximum.at(hi, seg, delta_alloc[free])
    np.minimum.at(lo, seg, delta_alloc[free])
    cnt = np.bincount(seg, minlength=rows * n).reshape(rows, n)
    hi, lo = hi.reshape(rows, n), lo.reshape(rows, n)
    spread = np.where(cnt >= 2, hi - lo, 0.0)
    alloc_scale = np.where(cnt >= 1, np.maximum(1.0, hi), 1.0)
    at_top = expo >= 1.0 - _BOUND_TOL
    at_floor_g = expo <= model.gamma_floor + _BOUND_TOL
    gamma_residual = np.where(at_top, np.maximum(0.0, -delta_gamma),
                              np.where(at_floor_g, np.maximum(0.0, delta_gamma),
                                       np.abs(delta_gamma)))
    gamma_scale = np.maximum(1.0, p_node * (up + down))
    a = (spread / alloc_scale).max(axis=1, initial=0.0)
    g = (gamma_residual / gamma_scale).max(axis=1, initial=0.0)
    return np.where(g > a, g, a)        # Python's max(a, g), NaN included


def _lockstep_project(ls: _Lockstep, target: np.ndarray, invq: np.ndarray) -> np.ndarray:
    # Each segment's projection does not depend on the others.
    return _project_alloc_nodes(ls.seg_src.ravel(), ls.m_node.ravel(), target.ravel(),
                                invq.ravel(), ETA_FLOOR).reshape(target.shape)


def _lockstep_sweep(model: NetworkModel, ls: _Lockstep, alloc: np.ndarray,
                    metrics: LinkMetrics, delta_alloc: np.ndarray, config: SolverConfig,
                    beta0: np.ndarray | None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``alloc_sweep`` per row; returns the (B, E_a) weighted-link allocations.

    Every row runs its own Armijo ladder: it stops once all its nodes have
    accepted (without shrinking that round) or once its largest unaccepted
    stepsize falls below the floor.  Stopped rows are still computed but
    change nothing.
    """
    rows, n = alloc.shape[0], model.n
    a = alloc.take(ls.flat_act)
    d = delta_alloc
    invq = (np.ones_like(a) if config.scaling == "identity"
            else 1.0 / (ls.w / (a * a) + SCALE_EPS))
    p_node = metrics.node_power
    p_i = p_node.take(ls.seg_src)
    other = (metrics.inoise.take(ls.flat_act)
             - ls.theta_g * (p_i - metrics.power.take(ls.flat_act)))

    if config.stepsize_rule == "fixed":
        target = a + config.fixed_step * d * invq
        return _lockstep_project(ls, target, invq), np.zeros(rows, dtype=int), None

    self_gain = ls.theta_g * p_i

    def local_objective(x):
        cap = ls.ln_kg + np.log(p_i * x) - np.log(self_gain * (1.0 - x) + other)
        return _segment_sums(ls.seg_src, ls.w * cap, rows, n)

    f0 = local_objective(a)
    grad = p_i * d
    cap = ARMIJO_INITIAL * np.maximum(p_node, 1.0)
    beta = cap if beta0 is None else np.minimum(beta0, cap)
    accepted = ~ls.has_active
    x_out = a
    evals = np.ones(rows, dtype=int)
    searching = np.ones(rows, dtype=bool)
    for _ in range(_MAX_BACKTRACKS):
        target = a + beta.take(ls.seg_src) * d * invq
        x = _lockstep_project(ls, target, invq)
        f1 = local_objective(x)
        evals += searching
        gain = _segment_sums(ls.seg_src, grad * (x - a), rows, n)
        newly = ((f1 - f0 >= ARMIJO_SIGMA * gain) & ls.has_active & ~accepted
                 & searching[:, None])
        x_out = np.where(newly.take(ls.seg_src), x, x_out)
        accepted |= newly
        searching &= ~accepted.all(axis=1)
        # Shrinking a stopped row changes nothing it returns: its unaccepted
        # nodes restart from the cap.
        beta = np.where(accepted, beta, beta * ARMIJO_SHRINK)
        searching &= ~(np.where(accepted, 0.0, beta).max(axis=1) < _MIN_STEP)
        if not searching.any():
            break
    return x_out, evals, np.where(accepted, np.minimum(2.0 * beta, cap), cap)


def _lockstep_curvature(ls: _Lockstep, metrics: LinkMetrics) -> np.ndarray:
    """``_curvature`` per row."""
    p_node = metrics.node_power
    contrib = ls.gain_cols * p_node[:, :, None]                         # (B, n, E_a)
    rows = np.arange(p_node.shape[0])[:, None]
    contrib[rows, ls.src, np.arange(ls.src.shape[1])] = ls.theta_g * (
        p_node.take(ls.seg_src) - metrics.power.take(ls.flat_act))
    s = contrib / metrics.inoise.take(ls.flat_act)[:, None, :]
    return ((s * (1.0 - s)) * ls.w[:, None, :]).sum(axis=2)


def _lockstep_power_step(model: NetworkModel, ls: _Lockstep, alloc: np.ndarray,
                         expo: np.ndarray, config: SolverConfig, xi0: np.ndarray | None
                         ) -> tuple[np.ndarray, LinkMetrics, np.ndarray, np.ndarray, np.ndarray]:
    """``power_step`` per row: (exponents, metrics and objectives at the
    accepted points, evaluations, next first trials).

    Every row keeps its own stepsize, acceptance and stop; link metrics are
    evaluated only for the rows still searching.
    """
    rows = expo.shape[0]
    metrics = _lockstep_metrics(model, expo, alloc)
    _, up, down = _lockstep_gains(model, ls, alloc, metrics)
    delta_gamma = metrics.node_power * (up - down)
    if not np.isfinite(delta_gamma).all():
        raise NumericDomainError("non-finite power marginal gain")
    shat = model.log_power_cap
    if config.scaling == "identity":
        v = np.ones((rows, model.n))
    else:
        v = np.maximum(shat * _lockstep_curvature(ls, metrics), SCALE_EPS)
    gfloor = model.gamma_floor

    if config.stepsize_rule == "fixed":
        new = np.clip(expo + config.fixed_step * delta_gamma / v, gfloor, 1.0)
        met = _lockstep_metrics(model, new, alloc)
        return (new, met, _lockstep_objective(ls.flat_act, ls.w, met), np.ones(rows, dtype=int),
                np.full(rows, config.fixed_step))

    f0 = _lockstep_objective(ls.flat_act, ls.w, metrics)
    grad = shat * delta_gamma
    xi = np.full(rows, ARMIJO_INITIAL) if xi0 is None else np.minimum(xi0, ARMIJO_INITIAL)
    evals = np.zeros(rows, dtype=int)
    # A row that does not accept a trial keeps its start point.
    out_expo, out_f, xi_next = expo.copy(), f0.copy(), np.full(rows, ARMIJO_INITIAL)
    out_metrics = LinkMetrics(**{f: getattr(metrics, f).copy() for f in _METRIC_FIELDS})
    live = np.arange(rows)
    for _ in range(_MAX_BACKTRACKS):
        gamma = expo[live]
        new = np.clip(gamma + xi[live, None] * delta_gamma[live] / v[live], gfloor, 1.0)
        move = new - gamma
        moves = move.any(axis=1)
        live, new, move = live[moves], new[moves], move[moves]
        if not live.size:
            break
        met = _lockstep_metrics(model, new, alloc[live])
        flat_act = ls.act[live] + model.n_links * np.arange(live.size)[:, None]
        f1 = _lockstep_objective(flat_act, ls.w[live], met)
        evals[live] += 1
        ok = f1 - f0[live] >= ARMIJO_SIGMA * _row_dot(grad[live], move)
        took = live[ok]
        out_expo[took] = new[ok]
        out_f[took] = f1[ok]
        xi_next[took] = np.minimum(2.0 * xi[took], ARMIJO_INITIAL)
        for f in _METRIC_FIELDS:
            getattr(out_metrics, f)[took] = getattr(met, f)[ok]
        live = live[~ok]
        xi[live] *= ARMIJO_SHRINK
        live = live[~(xi[live] < _MIN_STEP)]
        if not live.size:
            break
    return out_expo, out_metrics, out_f, evals, xi_next


def _row_metrics(metrics: LinkMetrics, index) -> LinkMetrics:
    """Copies of the rows ``index`` of stacked metrics."""
    return LinkMetrics(**{f: getattr(metrics, f)[index].copy() for f in _METRIC_FIELDS})


def _stack_rows(model: NetworkModel, weights: np.ndarray, initial: PowerState
                ) -> tuple[_Lockstep, np.ndarray, np.ndarray]:
    """The stacked workspaces of the rows of ``weights`` and their seeded
    allocations and exponents."""
    workspaces = [_make_workspace(model, w) for w in weights]
    seeded = [_seed_state(model, ws, initial) for ws in workspaces]
    ls = _lockstep(model, {f: np.stack([getattr(ws, f) for ws in workspaces])
                           for f in _STACKED})
    return ls, np.stack([s.alloc for s in seeded]), np.stack([s.exponent for s in seeded])


def _solve_lockstep(model: NetworkModel, weights: np.ndarray, initial: PowerState,
                    config: SolverConfig) -> list[tuple[PowerState, SolveDiagnostics]]:
    """``solve_max_weight`` of every row of ``weights``, all with the same
    positive number of weighted links, advanced together.

    Each row keeps its own KKT stop, stall counter, exact-repeat replay and
    budget-end certificate; a finished row leaves the batch.
    """
    iters = config.max_iterations
    ls, alloc, expo = _stack_rows(model, weights, initial)
    metrics = _lockstep_metrics(model, expo, alloc)
    diags = [SolveDiagnostics(objectives=[float(f)])
             for f in _lockstep_objective(ls.flat_act, ls.w, metrics)]
    results: list = [None] * len(weights)
    rows = np.arange(len(weights))         # each batch row's index in ``weights``
    stalled = np.zeros(len(weights), dtype=int)
    beta0 = xi0 = None

    def finish(done: np.ndarray, passed: np.ndarray):
        nonlocal ls, alloc, expo, metrics, rows, stalled, beta0, xi0
        for k in np.flatnonzero(done):
            diag = diags[rows[k]]
            diag.converged = bool(passed[k])
            diag.metrics = _row_metrics(metrics, k)
            results[rows[k]] = (PowerState(alloc[k].copy(), expo[k].copy()), diag)
        keep = ~done
        ls = ls.take(model, keep)
        alloc, expo, rows, stalled = alloc[keep], expo[keep], rows[keep], stalled[keep]
        metrics = _row_metrics(metrics, keep)
        beta0 = None if beta0 is None else beta0[keep]
        xi0 = None if xi0 is None else xi0[keep]

    while rows.size:
        # The loop's certificate doubles as the budget-end one.
        gradient = _lockstep_gains(model, ls, alloc, metrics)
        residual = _lockstep_kkt(model, ls, alloc, expo, metrics, gradient)
        passed = residual < config.kkt_tolerance
        spent = np.empty(rows.size, dtype=bool)
        for k, r in enumerate(rows):
            diags[r].kkt_residuals.append(float(residual[k]))
            spent[k] = diags[r].iterations >= iters
        if (passed | spent).any():
            keep = ~(passed | spent)
            finish(~keep, passed)
            if not rows.size:
                break
            gradient = tuple(g[keep] for g in gradient)
        start = (alloc, expo, beta0, xi0)
        x, evals, beta0 = _lockstep_sweep(model, ls, alloc, metrics, gradient[0], config,
                                          beta0)
        alloc = alloc.copy()
        np.put(alloc, ls.flat_act, x)
        expo, metrics, f_after, pc_evals, xi0 = _lockstep_power_step(
            model, ls, alloc, expo, config, xi0)
        end = (alloc, expo, beta0, xi0)
        for k, r in enumerate(rows):
            diag = diags[r]
            reps = 1
            if f_after[k] != diag.objectives[-1]:
                stalled[k] = 0
            else:
                if _exact_repeat(*(tuple(None if v is None else v[k] for v in state)
                                   for state in (start, end))):
                    reps = min(_STALL_ITERATES - int(stalled[k]), iters - diag.iterations)
                stalled[k] += reps
            diag.objectives += [float(f_after[k])] * reps
            diag.kkt_residuals += diag.kkt_residuals[-1:] * (reps - 1)
            diag.iterations += reps
            diag.line_search_evals += reps * int(evals[k] + pc_evals[k])
            diag.broadcasts += reps * model.n
            diag.feedbacks += reps * model.n_links
        stop = stalled >= _STALL_ITERATES
        if stop.any():
            finish(stop, np.zeros(rows.size, dtype=bool))
    return results


def solve_max_weight_batch(model: NetworkModel, weights: np.ndarray, initial: PowerState,
                           config: SolverConfig | None = None
                           ) -> list[tuple[PowerState, SolveDiagnostics]]:
    """``solve_max_weight(model, weights[b], initial, config)`` for every row b.

    Returns the (state, diagnostics) pairs in row order, bit for bit what
    the single solves return.  Rows with equal weighted-link counts advance
    in lockstep as stacked arrays.
    """
    if config is None:
        config = SolverConfig()
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != model.n_links:
        raise ConfigError("weights must be one row of one value per link per problem")
    if np.any(weights < 0):
        raise ConfigError("link weights must be nonnegative")
    counts = (weights > 0).sum(axis=1)
    results: list = [None] * len(weights)
    # Not np.unique: it imports numpy.ma, half a megabyte this path otherwise never loads.
    for count in sorted(set(counts.tolist())):
        group = np.flatnonzero(counts == count)
        if count == 0:
            solved = [solve_max_weight(model, w, initial, config) for w in weights[group]]
        else:
            solved = _solve_lockstep(model, weights[group], initial, config)
        for r, res in zip(group, solved):
            results[r] = res
    return results

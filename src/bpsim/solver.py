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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericDomainError
from .model import NetworkModel
from . import phy
from .phy import (
    ETA_FLOOR,
    LinkMetrics,
    PowerState,
    alloc_marginal_gain,
    link_metrics,
    link_metrics_from_powers,
    objective_from_metrics,
)

# Safeguards under the diagonal scaling matrices.
SCALE_EPS = 1e-8
_MIN_STEP = 1e-14
_MAX_BACKTRACKS = 80
_BOUND_TOL = 1e-9
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
        if self.kkt_tolerance <= 0:
            raise ConfigError("kkt_tolerance must be positive")
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
class _Workspace:
    """Per-solve constants over the weighted (active) links, built once per solve."""

    act: np.ndarray             # indices into the full link arrays
    src: np.ndarray
    w: np.ndarray
    w_full: np.ndarray          # (E,) weights, zero off the active links
    theta_g: np.ndarray         # theta[src] * gain[src, dst], the self-interference gain
    ln_kg: np.ndarray           # log(processing_gain * gain[src, dst])
    m_node: np.ndarray          # (n,) weighted out-degree
    has_active: np.ndarray      # (n,) bool
    gain_cols: np.ndarray       # (n, E_a) gain from every node to each active receiver
    cols: np.ndarray            # (E_a,) arange, column index of each active link


def _make_workspace(model: NetworkModel, weights: np.ndarray) -> _Workspace:
    act = np.flatnonzero(weights > 0)
    src = model.src[act]
    g = model.link_gain[act]
    m_node = np.bincount(src, minlength=model.n).astype(float)
    w = weights[act]
    w_full = np.zeros(model.n_links)
    w_full[act] = w
    return _Workspace(
        act=act,
        src=src,
        w=w,
        w_full=w_full,
        theta_g=model.link_theta[act] * g,
        ln_kg=np.log(model.processing_gain * g),
        m_node=m_node,
        has_active=m_node > 0,
        gain_cols=model.gain[:, model.dst[act]],
        cols=np.arange(act.size),
    )


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
        up, down = phy.power_marginal_parts(model, ws.w_full, state, metrics)
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
        return met, objective_from_metrics(ws.w_full, met)

    if config.stepsize_rule == "fixed":
        new = np.clip(gamma + config.fixed_step * delta_gamma / v, gfloor, 1.0)
        return (new, *evaluate(new), 1, config.fixed_step)

    f0 = objective_from_metrics(ws.w_full, metrics)
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
              delta_alloc: np.ndarray | None = None) -> KKTReport:
    """Certify optimality: equalized allocation gains, vanishing power gains.

    Power gains may be nonnegative at the exponent cap.  Floors active at
    the tested point are flagged; the exponent-floor residual uses the
    projected condition (the gain must not push further down).  Residuals
    are normalized per node: the allocation spread by the node's largest
    allocation gain, the power residual by the total magnitude of the
    raise/drop components whose cancellation it certifies.
    """
    if metrics is None:
        metrics = link_metrics(model, state)
    if delta_alloc is None:
        delta_alloc = alloc_marginal_gain(model, weights, metrics)
    up, down = phy.power_marginal_parts(model, weights, state, metrics, delta_alloc)
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
    diag.objectives.append(objective_from_metrics(weights, metrics))
    if collect_rates:
        diag.capacity_trace = [clipped(metrics)]
    converged = False
    beta0: np.ndarray | None = None
    xi0: float | None = None
    stalled = 0
    for _ in range(iters):
        delta_alloc = alloc_marginal_gain(model, weights, metrics)
        report = kkt_check(model, weights, state, config.kkt_tolerance, metrics,
                           delta_alloc)
        diag.kkt_residuals.append(report.normalized)
        if report.passed:
            converged = True
            break
        new_alloc, evals, beta0 = alloc_sweep(model, ws, state, metrics,
                                              delta_alloc, config, beta0)
        state = PowerState(new_alloc, state.exponent)
        new_gamma, metrics, f_after, pc_evals, xi0 = power_step(model, ws, state, config,
                                                                xi0=xi0)
        state = PowerState(state.alloc, new_gamma)
        diag.objectives.append(f_after)
        if collect_rates:
            diag.capacity_trace.append(clipped(metrics))
        diag.iterations += 1
        diag.line_search_evals += evals + pc_evals
        # One protocol round per iteration in a distributed deployment.
        diag.broadcasts += model.n
        diag.feedbacks += model.n_links
        # Floating point can pin the residual just above a very tight
        # tolerance while the objective no longer moves at all; stop rather
        # than spin, leaving the convergence flag honest.
        if diag.objectives[-1] == diag.objectives[-2]:
            stalled += 1
            if stalled >= 12:
                break
        else:
            stalled = 0
    else:
        report = kkt_check(model, weights, state, config.kkt_tolerance, metrics)
        diag.kkt_residuals.append(report.normalized)
        converged = report.passed
    diag.converged = converged
    diag.metrics = metrics
    return state, diag

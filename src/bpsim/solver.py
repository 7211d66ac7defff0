"""Distributed max-weight power control by scaled gradient projection.

Each node repeatedly improves its own variables: the allocation fractions
over its outgoing links (projected onto the simplex under a diagonal norm)
and its power exponent (clamped to a box).  A backtracking (Armijo) rule
makes every accepted step non-decreasing in the weighted sum rate.
Optimality is certified by the marginal-gain conditions: per node, the allocation gains
are equalized across its weighted links and the power gain vanishes unless
the exponent sits at its cap.

Allocation updates of different nodes are independent at fixed exponents
(a node's split does not change its total radiated power), so one sweep
updates all nodes from a common snapshot; no processing order can change
the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericDomainError
from .model import NetworkModel
from .phy import (BOUND_TOL, ETA_FLOOR, LinkMetrics, PowerState, WeightedLinks, WeightedView,
                  end_to_end, link_metrics, link_metrics_from_powers, marginal_gains,
                  row_objectives, weighted_gains, weighted_links, weighted_view)
from .phy import alloc_marginal_gain  # noqa: F401  (not called here; bench/tracer.py wraps it)

# Safeguards under the diagonal scaling matrices.
SCALE_EPS = 1e-8
_MIN_STEP = 1e-14
# An Armijo trial that fails while predicting a gain of at most this fraction
# of its start objective ends its ladder: the objective's difference is
# rounding noise there, and halving further only compares noise.
_ROUNDING_FLOOR = 1e-15
_MAX_BACKTRACKS = 80
# Rounds of an allocation sweep's Armijo ladders evaluated one by one; the
# rest are evaluated as one block (_sweep_block).  Most ladders end within
# them, and a block costs about five rounds.
_SEQUENTIAL_ROUNDS = 3
# The certificate's bounds: allocations pinned at the floor, exponents at the cap.
_ALLOC_AT_FLOOR = ETA_FLOOR * (1.0 + 1e-6)
_EXPONENT_AT_CAP = 1.0 - BOUND_TOL
# Iterates in a row that leave the objective bit for bit unchanged before a
# solve gives up (see _solve_rows).
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
    """Iteration budget and certificate tolerance of one solve."""

    max_iterations: int = 400
    kkt_tolerance: float = 1e-6

    def __post_init__(self):
        # NaN fails the comparison, so it is rejected with the infinities.
        if not 0 < self.kkt_tolerance < np.inf:
            raise ConfigError(f"kkt_tolerance must be finite and positive, "
                              f"got {self.kkt_tolerance!r}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations!r}")


def _project_alloc_nodes(src: np.ndarray, m_node: np.ndarray, target: np.ndarray,
                         invq: np.ndarray, floor: float) -> np.ndarray:
    """Weighted-simplex projection of each segment ``src == i`` (length ``m_node[i]``).

    Minimizes sum((x - target)**2 / invq) per segment, ``invq`` positive, by
    the exact finite active-set method: solve for the multiplier on the free
    set, clamp violators, repeat.  A segment without violations keeps its
    free set, so the loop ends within the longest segment's length plus one
    passes.  The first pass has every coordinate free, so its sums need no
    mask and its goal is exactly 1.  When it clamps nothing, every x is at
    or above the floor (or NaN) and is returned as it is.
    """
    n = m_node.size
    free = True         # every coordinate, until the first clamp
    s_t = np.bincount(src, weights=target, minlength=n)
    s_iq = np.bincount(src, weights=invq, minlength=n)
    goal = 1.0
    for _ in range(target.size + 1):
        # A zero sum divides by 1: no free coordinate (or invq 0) reads it.
        mu = (s_t - goal) / (s_iq + (s_iq == 0))
        x = target - mu[src] * invq
        viol = x < floor
        if free is not True:
            viol &= free
        if not np.count_nonzero(viol):
            break
        free = free & ~viol
        s_t = np.bincount(src, weights=target * free, minlength=n)
        s_iq = np.bincount(src, weights=invq * free, minlength=n)
        n_free = np.bincount(src, weights=free.astype(float), minlength=n)
        goal = 1.0 - floor * (m_node - n_free)
    return x if free is True else np.where(free, np.maximum(x, floor), floor)


# ------------------------------------------------------------ formula layer
#
# Written once for B problems over one model laid end to end (see phy), for
# the one solve loop, _solve_rows, at any B.  Each iterate point gathers its
# weighted-link view once (phy.weighted_view), for the gains, the
# certificate, the sweep and the curvature.

def _seed_state(model: NetworkModel, links: WeightedLinks, initial: PowerState) -> PowerState:
    """Restrict the warm start to the weighted links and keep it off the log barrier.

    Every problem of ``links`` starts from ``initial``.  Nodes owning at
    least one weighted link concentrate their split on those links; nodes
    with none keep a valid split (their power step alone drives them to the
    exponent floor).
    """
    n, rows, src = model.n, links.rows, model.src
    # A node without weighted links keeps its split unless it is not a valid
    # one (sum off 1, or not finite: NaN fails the comparison).
    total = np.bincount(src, weights=initial.alloc, minlength=n)
    alloc = np.where(~(np.abs(total - 1.0) <= 1e-9)[src], 1.0 / model.out_degree[src],
                     initial.alloc)
    alloc = end_to_end(alloc, rows)
    alloc[links.has_active[links.lay.src]] = 0.0
    a = end_to_end(initial.alloc, rows)[links.act]
    # Links that were essentially unused get a small positive seed; established
    # allocations above the floor are kept so a converged point stays fixed.
    seed_min = RESEED_FRACTION / np.maximum(links.m_node[links.src], 1.0)
    a = np.where(a < 10.0 * ETA_FLOOR, np.maximum(a, seed_min), a)
    total = np.bincount(links.src, weights=a, minlength=rows * n)
    bad = (total <= 0) & links.has_active
    if bad.any():
        a = np.where(bad[links.src], 1.0, a)
        total = np.bincount(links.src, weights=a, minlength=rows * n)
    a = a / total[links.src]
    alloc[links.act] = _project_alloc_nodes(links.src, links.m_node, a, np.ones_like(a),
                                            ETA_FLOOR)
    exponent = end_to_end(np.clip(initial.exponent, model.gamma_floor, 1.0), rows)
    return PowerState(alloc, exponent)


def _armijo_terms(links: WeightedLinks, at: WeightedView, d: np.ndarray,
                  beta0: np.ndarray | None) -> tuple:
    """The allocation line search's start: the inverse diagonal scaling
    (w / a**2 approximates the curvature), the local objective (each node's
    weighted rate over its own links as a function of their split; it also
    takes a (J, k) ``x`` on the weighted links ``pick``, summed by segment),
    its value at the view's split, the gradient along the split, and the
    per-node stepsize caps and first trials."""
    p_i = at.src_power
    # Interference at each link's receiver that does not depend on this
    # node's own split (totals of other transmitters plus noise).
    other = at.inoise - links.theta_g * (p_i - at.power)
    terms = (links.ln_kg, p_i, links.theta_g * p_i, other, links.w)

    def local(x: np.ndarray, pick: np.ndarray | None = None, seg: np.ndarray = links.src,
              size: int = links.lay.size) -> np.ndarray:
        ln_kg, p, s, o, w = terms if pick is None else (t[pick] for t in terms)
        rate = ln_kg + np.log(p * x) - np.log(s * (1.0 - x) + o)
        return np.bincount(seg, weights=(w * rate).reshape(-1), minlength=size)

    cap = ARMIJO_INITIAL * np.maximum(at.metrics.node_power, 1.0)
    invq = 1.0 / (links.w / (at.alloc * at.alloc) + SCALE_EPS)
    return (invq, local, local(at.alloc), p_i * d, cap,
            cap if beta0 is None else np.minimum(beta0, cap))


def _halvings(first: np.ndarray, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Stepsizes of k Armijo ladders with at most ``rounds`` trials left:
    (depth + 1, k) of them, ``first`` and then each row the previous one
    times ``ARMIJO_SHRINK``, as the ladders take them; and (k,) trials per
    ladder, up to the one after which its stepsize is below ``_MIN_STEP``,
    or all ``rounds`` (NaN, or the cap).  ``depth`` is at least the largest.
    """
    top = float(first.max())
    if top < np.inf:
        rounds = min(rounds, int(math.log2(max(top / _MIN_STEP, 1.0))) + 2)
    steps = np.full((rounds + 1, first.size), ARMIJO_SHRINK)
    steps[0] = first
    steps = np.multiply.accumulate(steps, axis=0)
    # Halving never raises a stepsize: a ladder that gets below the floor
    # ends below it.
    below = steps[1:] < _MIN_STEP
    return steps, np.where(below[-1], below.argmax(axis=0) + 1, rounds)


def _armijo_test(f1: np.ndarray, f0: np.ndarray, gain: np.ndarray, flat_gain: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Whether each trial passes the Armijo test, and whether it ends its
    ladder: it passes, or it fails at the rounding floor, predicting a gain
    of at most ``flat_gain`` (``_ROUNDING_FLOOR * |f0|``)."""
    ok = f1 - f0 >= ARMIJO_SIGMA * gain
    return ok, ok | (gain <= flat_gain)


def _ladder_outcome(ok: np.ndarray, end: np.ndarray, trials: np.ndarray, groups: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the sweep's sequential Armijo ladders make of trials evaluated
    as one block (``_sweep_block``).

    The k nodes form ``groups`` equal runs, one per problem, which stops
    after the first round at which each of its waiting nodes has accepted,
    failed at the rounding floor or made its ``trials`` (0 for nodes not
    waiting).  ``ok`` (J, k) holds whether trial j of node k passes the
    Armijo test and ``end`` whether it ends its ladder (``_armijo_test``),
    both False where it was not evaluated.  Returns each node's first
    passing or flat trial (J if none), each problem's last round (``stop +
    1`` trials were evaluated) and which nodes accepted before it.
    """
    first = np.where(end.any(axis=0), end.argmax(axis=0), ok.shape[0])
    stop = np.minimum(first, trials - 1).reshape(groups, -1).max(axis=1)
    passed = ok[np.minimum(first, ok.shape[0] - 1), np.arange(first.size)]
    return first, stop, passed & (first <= np.repeat(stop, first.size // groups))


def _sweep_block(links: WeightedLinks, a: np.ndarray, d: np.ndarray, invq: np.ndarray,
                 local: Callable, f0: np.ndarray, flat_gain: np.ndarray, grad: np.ndarray,
                 beta: np.ndarray, waiting: np.ndarray, rounds: int) -> tuple:
    """The remaining ``rounds`` of the allocation ladders of the ``waiting``
    nodes, every trial projected and evaluated at once: trial j of node i is
    segment j * B*n + i of one projection, local objective and gain
    ``bincount``, each adding its links in link order, so every trial is bit
    for bit a sequential round's.  Returns the nodes that accept, the
    stepsizes with theirs set, their weighted links and accepted
    allocations, and (B,) evaluations per row (0 without waiting nodes).
    """
    size = waiting.size
    nodes = np.flatnonzero(waiting)
    steps, trials = _halvings(beta[nodes], rounds)
    depth = int(trials.max())
    # The waiting nodes' weighted links, once per trial.
    on = waiting[links.src]
    lw = np.flatnonzero(on)
    src = links.src[lw]
    seg = (np.arange(depth)[:, None] * size + src).reshape(-1)
    col = np.cumsum(waiting) - 1            # each waiting node's column in ``steps``
    a_w = a[lw]
    target = a_w + steps[:depth, col[src]] * d[lw] * invq[lw]
    x = _project_alloc_nodes(seg, end_to_end(links.m_node, depth), target.reshape(-1),
                             end_to_end(invq[lw], depth), ETA_FLOOR).reshape(depth, -1)
    f1 = local(x, lw, seg, depth * size).reshape(depth, size)
    gain = np.bincount(seg, weights=(grad[lw] * (x - a_w)).reshape(-1),
                       minlength=depth * size).reshape(depth, size)
    node_trials = np.zeros(size, dtype=np.intp)
    node_trials[nodes] = trials
    ok, end = _armijo_test(f1, f0, gain, flat_gain)
    first, stop, took = _ladder_outcome(ok & waiting, end & waiting, node_trials, links.rows)
    beta = beta.copy()
    beta[took] = steps[first[took], col[took]]
    lk = np.flatnonzero(took[links.src])
    return took, beta, lk, x[first[links.src[lk]], (np.cumsum(on) - 1)[lk]], stop + 1


def alloc_sweep(model: NetworkModel, links: WeightedLinks, state: PowerState,
                at: WeightedView, delta: np.ndarray, beta0: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One allocation update for every node with weighted links, in each of
    the B problems of ``links``, from the view ``at`` of ``state`` with the
    allocation gains ``delta`` on the weighted links.

    Returns the new allocations, (B,) local objective evaluations spent in
    line searches, and the per-node accepted stepsizes (the next sweep's
    ``beta0``).  Each node's Armijo ladder ends when a trial passes or fails
    at the rounding floor (``_armijo_test``); a problem stops once it has no
    waiting node or their largest stepsize is below the floor, and is still
    computed but changes nothing.  Rounds after the first
    ``_SEQUENTIAL_ROUNDS`` are one block (``_sweep_block``), bit for bit.
    """
    rows, n, a = links.rows, model.n, at.alloc
    invq, local, f0, grad, cap, beta = _armijo_terms(links, at, delta, beta0)
    flat_gain = _ROUNDING_FLOOR * np.abs(f0)
    evals = np.ones(rows, dtype=int)
    # The unaccepted nodes of the problems still searching (all of them in
    # the first round), and the nodes whose stepsize is an accepted one or
    # was never tried.
    waiting = links.has_active.copy()
    kept = ~links.has_active
    live = True
    x_out = a
    for r in range(_MAX_BACKTRACKS):
        if r == _SEQUENTIAL_ROUNDS:
            took, beta, lk, x_new, tried = _sweep_block(
                links, a, delta, invq, local, f0, flat_gain, grad, beta, waiting,
                _MAX_BACKTRACKS - r)
            x_out = x_out.copy()        # it may still be the view's own ``a``
            x_out[lk] = x_new
            kept |= took
            evals += tried
            break
        target = a + beta[links.src] * delta * invq
        x = _project_alloc_nodes(links.src, links.m_node, target, invq, ETA_FLOOR)
        f1 = local(x)
        evals += live
        gain = np.bincount(links.src, weights=grad * (x - a), minlength=rows * n)
        ok, end = _armijo_test(f1, f0, gain, flat_gain)
        took = ok & waiting
        x_out = np.where(took[links.src], x, x_out)
        kept |= took
        waiting &= ~end
        if not np.count_nonzero(waiting):
            break
        beta = np.where(waiting, beta * ARMIJO_SHRINK, beta)
        live = ~(np.maximum.reduce(np.where(waiting, beta, 0.0).reshape(rows, n), axis=1)
                 < _MIN_STEP)
        if np.count_nonzero(live) < rows:
            if not np.count_nonzero(live):
                break
            # A stopped problem's unaccepted nodes leave their ladders.
            waiting &= np.repeat(live, n)
    out = state.alloc.copy()
    out[links.act] = x_out
    # An accepted step earns a doubled first trial next sweep; nodes that
    # backtracked to nothing restart from the full trial step.
    return out, evals, np.minimum(2.0 * np.where(kept, beta, cap), cap)


def _curvature(links: WeightedLinks, at: WeightedView) -> np.ndarray:
    """(B, n) diagonal curvature of the objective in each node's log power.

    Each weighted link contributes w * s * (1 - s) where s is the share of
    its interference-plus-noise sourced from the node in question.  The
    (B, E_a, n) terms are C-ordered, so the sum over the middle axis adds
    each node's links one after another.
    """
    rows = links.rows
    contrib = links.gain_rows * at.metrics.node_power.reshape(rows, 1, -1)
    np.put(contrib, links.own_slot, links.theta_g * (at.src_power - at.power))
    s = contrib / at.inoise.reshape(rows, -1, 1)
    return np.add.reduce((s * (1.0 - s)) * links.w.reshape(rows, -1, 1), axis=1)


def _power_direction(model: NetworkModel, links: WeightedLinks, at: WeightedView
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(B, n) power marginal gains and the power step's diagonal scaling."""
    _, up, down = weighted_gains(model, links, at)
    delta_gamma = at.metrics.node_power * (up - down)
    if np.count_nonzero(np.isfinite(delta_gamma)) < delta_gamma.size:
        raise NumericDomainError("non-finite power marginal gain")
    return (delta_gamma.reshape(links.rows, -1),
            np.maximum(links.lay.log_power_cap * _curvature(links, at), SCALE_EPS))


def _trial(model: NetworkModel, links: WeightedLinks, alloc: np.ndarray, expo: np.ndarray
           ) -> tuple[LinkMetrics, np.ndarray]:
    """Link metrics and per-problem objectives at trial exponents."""
    lay = links.lay
    met = link_metrics_from_powers(model, (lay.power_cap ** expo)[lay.src] * alloc, lay)
    return met, row_objectives(links.w, links.act, met, links.rows)


def power_step(model: NetworkModel, links: WeightedLinks, state: PowerState,
               xi0: np.ndarray | None = None
               ) -> tuple[np.ndarray, LinkMetrics, np.ndarray, np.ndarray, np.ndarray]:
    """One joint power-exponent update (diagonal scaling, box clamp) for
    each of the B problems of ``links``.

    Returns (exponents, link metrics and (B,) objectives at the accepted
    points, (B,) objective evaluations, (B,) accepted stepsizes to seed the
    next call's ``xi0``).  A problem's accepted point is its accepted trial,
    or its start when its step does not move, a trial fails at the rounding
    floor (``_armijo_test``) or the stepsize falls below the floor.  Each
    round evaluates all B trials at once; a stopped problem keeps the
    stepsize of its last trial (a halving below the floor is not taken), so
    no problem evaluates, or raises at, a trial its own ladder does not
    reach.  The per-problem bookkeeping runs on Python numbers.
    """
    rows = links.rows
    metrics, f0 = _trial(model, links, state.alloc, state.exponent)
    delta_gamma, v = _power_direction(model, links, weighted_view(links, state.alloc, metrics))
    gamma = state.exponent.reshape(rows, -1)
    grad = (links.lay.log_power_cap * delta_gamma)[:, None, :]
    xi = [ARMIJO_INITIAL] * rows if xi0 is None else [min(x, ARMIJO_INITIAL) for x in xi0.tolist()]
    start = f0.tolist()
    live, took, evals, xi_next = [True] * rows, [False] * rows, [0] * rows, [ARMIJO_INITIAL] * rows
    for _ in range(_MAX_BACKTRACKS):
        new = (gamma + np.array(xi)[:, None] * delta_gamma / v).clip(links.lay.gamma_floor, 1.0)
        move = new - gamma
        moves = np.logical_or.reduce(move, axis=1).tolist()
        if not all(moves):
            live = [on and m for on, m in zip(live, moves)]
            if not any(live):
                break
        met, f1 = _trial(model, links, state.alloc, new.reshape(-1))
        slope = np.matmul(grad, move[..., None]).ravel().tolist()
        for k, (on, a, b, s) in enumerate(zip(live, start, f1.tolist(), slope)):
            if not on:
                continue
            evals[k] += 1
            if b - a >= ARMIJO_SIGMA * s:
                took[k] = True
                xi_next[k] = min(2.0 * xi[k], ARMIJO_INITIAL)
            elif not s <= _ROUNDING_FLOOR * abs(a) and not xi[k] * ARMIJO_SHRINK < _MIN_STEP:
                # Failed above the rounding floor (a NaN slope too), and the
                # halved stepsize is not below the floor.
                xi[k] *= ARMIJO_SHRINK
                continue
            live[k] = False
        if not any(live):
            break
    evals, xi_next = np.array(evals), np.array(xi_next)
    if all(took):
        return new.reshape(-1), met, f1, evals, xi_next
    if not any(took):
        return state.exponent.copy(), metrics, f0, evals, xi_next
    # An accepted row kept its stepsize, so its last trial is the accepted one.
    pick = np.array(took)[:, None]
    met = LinkMetrics(**{f: np.where(pick, a.reshape(rows, -1),
                                     getattr(metrics, f).reshape(rows, -1)).reshape(-1)
                         for f, a in vars(met).items()})
    return np.where(pick, new, gamma).reshape(-1), met, np.where(took, f1, f0), evals, xi_next


def _kkt_residuals(links: WeightedLinks, expo: np.ndarray, at: WeightedView,
                   gradient: tuple) -> tuple:
    """The certificate's terms at the view ``at`` with exponents ``expo`` and
    the ``weighted_gains`` there: per-node allocation spread, projected power
    residual and their scales, the floor flags and each problem's normalized
    residual (see ``kkt_check``)."""
    rows = links.rows
    delta_alloc, up, down = gradient
    p_node = at.metrics.node_power
    delta_gamma = p_node * (up - down)
    floored = at.alloc <= _ALLOC_AT_FLOOR
    free = ~floored
    src_f = links.src[free]
    gain_f = delta_alloc[free]
    hi = links.lay.no_high.copy()
    lo = links.lay.no_low.copy()
    np.maximum.at(hi, src_f, gain_f)
    np.minimum.at(lo, src_f, gain_f)
    cnt = np.bincount(src_f, minlength=links.lay.size)
    spread = np.where(cnt >= 2, hi - lo, 0.0)
    alloc_scale = np.maximum(1.0, hi)       # 1.0 where hi is still -inf: no free link

    at_top = expo >= _EXPONENT_AT_CAP
    at_floor_g = expo <= links.lay.floor_bound
    gamma_residual = np.maximum(0.0, np.where(at_top, -delta_gamma, np.where(
        at_floor_g, delta_gamma, np.abs(delta_gamma))))
    gamma_scale = np.maximum(1.0, p_node * (up + down))
    a = np.maximum.reduce((spread / alloc_scale).reshape(rows, -1), axis=1, initial=0.0)
    g = np.maximum.reduce((gamma_residual / gamma_scale).reshape(rows, -1), axis=1, initial=0.0)
    normalized = [max(x, y) for x, y in zip(a.tolist(), g.tolist())]   # NaN in a is kept
    return spread, gamma_residual, alloc_scale, gamma_scale, at_floor_g, floored, normalized


# ------------------------------------------------------------ one problem

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
              tolerance: float) -> KKTReport:
    """Certify optimality: equalized allocation gains, vanishing power gains.

    Power gains may be nonnegative at the exponent cap.  Floors active at
    the tested point are flagged; the exponent-floor residual uses the
    projected condition (the gain must not push further down).  Residuals
    are normalized per node: the allocation spread by the node's largest
    allocation gain, the power residual by the total magnitude of the
    raise/drop components whose cancellation it certifies.
    """
    metrics = link_metrics(model, state)
    links = weighted_links(model, weights)
    delta_alloc, up, down = marginal_gains(model, links, state.alloc, metrics)
    spread, gamma_residual, alloc_scale, gamma_scale, at_floor_g, pinned, normalized = (
        _kkt_residuals(links, state.exponent, weighted_view(links, state.alloc, metrics),
                       (delta_alloc[links.act], up, down)))
    floored = np.zeros(model.n_links, dtype=bool)
    floored[links.act] = pinned
    max_residual = float(max(spread.max(initial=0.0), gamma_residual.max(initial=0.0)))
    return KKTReport(alloc_spread=spread, gamma_residual=gamma_residual,
                     alloc_scale=alloc_scale, gamma_scale=gamma_scale, max_residual=max_residual,
                     normalized=float(normalized[0]), passed=bool(normalized[0] < tolerance),
                     tolerance=tolerance, gamma_floor_active=at_floor_g,
                     alloc_floor_active=floored)


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


def _check_weights(weights: np.ndarray) -> None:
    """Reject negative and non-finite link weights (NaN fails the
    comparison, so it is rejected with the infinities)."""
    if not ((weights >= 0) & (weights < np.inf)).all():
        raise ConfigError("link weights must be finite and nonnegative")


def solve_max_weight(model: NetworkModel, weights: np.ndarray, initial: PowerState,
                     config: SolverConfig | None = None,
                     collect_rates: bool = False) -> tuple[PowerState, SolveDiagnostics]:
    """Iterate allocation sweeps and power steps until the KKT check passes.

    With all weights zero the initial state is returned untouched with a
    zero objective, a zero capacity trace (when requested) and no link
    metrics.  Non-convergence within the iteration budget is flagged in the
    diagnostics, not raised.
    """
    if config is None:
        config = SolverConfig()
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (model.n_links,):
        raise ConfigError("weights must be one value per link")
    _check_weights(weights)
    if not np.any(weights > 0):
        diag = SolveDiagnostics(objectives=[0.0])
        if collect_rates:
            diag.capacity_trace = [np.zeros(model.n_links)]
        return initial.copy(), diag
    return _solve_rows(model, weights[None], initial, config, collect_rates)[0]


# ------------------------------------------------------------ the solve loop
#
# _solve_rows advances independent solves over one model together on the
# formula layer above: solve_max_weight's one row, or a group of
# solve_max_weight_batch's rows with equal weighted-link counts, whose
# weighted links then form rectangular (B, E_a) blocks.  An iterate costs
# numpy call overhead more than arithmetic, so B rows cost little more than
# one, and no step depends on the number of rows.


def _take_rows(x, rows: int, index):
    """Rows ``index`` of ``x`` laid end to end over ``rows`` rows: an array,
    None, or a PowerState or LinkMetrics of such arrays (copied)."""
    if x is None:
        return None
    if isinstance(x, np.ndarray):
        return x.reshape(rows, -1)[index].reshape(-1)
    return type(x)(**{f: _take_rows(a, rows, index).copy() for f, a in vars(x).items()})


def _solve_rows(model: NetworkModel, weights: np.ndarray, initial: PowerState,
                config: SolverConfig, collect_rates: bool = False
                ) -> list[tuple[PowerState, SolveDiagnostics]]:
    """``solve_max_weight`` of every row of (B, E) ``weights``, all with the
    same positive number of weighted links, advanced together one iterate at
    a time (every row still in the batch has made ``it`` iterates).

    Each row keeps its own KKT stop, stall counter and budget-end
    certificate, and leaves the batch when it finishes.  Floating point can
    pin the residual just above a very tight tolerance while the objective no
    longer moves; a row then stops, unconverged, after ``_STALL_ITERATES``
    iterates that leave its objective unchanged.  Per-row bookkeeping runs on
    Python numbers, one ``tolist()`` per quantity and iterate.
    """
    tol = config.kkt_tolerance
    links = weighted_links(model, weights)
    state = _seed_state(model, links, initial)
    metrics, f = _trial(model, links, state.alloc, state.exponent)
    diags = [SolveDiagnostics(objectives=[x]) for x in f.tolist()]
    results: list = [None] * len(weights)
    ids = np.arange(len(weights))           # each batch row's index in ``weights``
    weighted = weights > 0
    stalled = [0] * len(weights)
    beta0 = xi0 = None
    it = 0

    def book_rates():
        cap = np.where(weighted, np.maximum(metrics.capacity.reshape(len(diags), -1), 0.0), 0.0)
        for d, c in zip(diags, cap):
            d.capacity_trace.append(c)

    if collect_rates:
        for d in diags:
            d.capacity_trace = []
        book_rates()

    def finish(done: list[bool]):
        nonlocal links, state, metrics, diags, ids, weighted, stalled, beta0, xi0, at
        rows = len(diags)
        for k in [k for k, x in enumerate(done) if x]:
            d = diags[k]
            # A row that passes a certificate leaves the batch at once.
            d.converged = d.kkt_residuals[-1] < tol
            d.iterations = it
            # One protocol round per iteration in a distributed deployment.
            d.broadcasts, d.feedbacks = model.n * it, model.n_links * it
            # The last row keeps the batch's arrays.
            d.metrics = metrics if rows == 1 else _take_rows(metrics, rows, k)
            results[ids[k]] = (state if rows == 1 else _take_rows(state, rows, k), d)
        keep = [not x for x in done]
        diags = [d for d, k in zip(diags, keep) if k]
        if not diags:
            return
        stalled = [s for s, k in zip(stalled, keep) if k]
        keep = np.array(keep)
        state, metrics, beta0, xi0 = (_take_rows(x, rows, keep)
                                      for x in (state, metrics, beta0, xi0))
        ids, weighted = ids[keep], weighted[keep]
        links = weighted_links(model, weights[ids])
        at = weighted_view(links, state.alloc, metrics)

    while diags:
        # The metrics come from _trial at this point, whose objective check
        # found power on every weighted link, so the gains need no check.
        at = weighted_view(links, state.alloc, metrics)
        gradient = weighted_gains(model, links, at)
        # The loop's certificate doubles as the budget-end one.
        residual = _kkt_residuals(links, state.exponent, at, gradient)[-1]
        done = []
        for d, r in zip(diags, residual):
            d.kkt_residuals.append(r)
            done.append(r < tol or it >= config.max_iterations)
        if any(done):
            rows = len(diags)
            finish(done)
            if not diags:
                break
            gradient = tuple(_take_rows(g, rows, ~np.array(done)) for g in gradient)
        alloc, sweep_evals, beta0 = alloc_sweep(model, links, state, at, gradient[0], beta0)
        state = PowerState(alloc, state.exponent)
        expo, metrics, f_after, pc_evals, xi0 = power_step(model, links, state, xi0)
        state = PowerState(state.alloc, expo)
        it += 1
        for k, (d, x, e) in enumerate(zip(diags, f_after.tolist(),
                                          (sweep_evals + pc_evals).tolist())):
            stalled[k] = stalled[k] + 1 if x == d.objectives[-1] else 0
            d.objectives.append(x)
            d.line_search_evals += e
        if collect_rates:
            book_rates()
        if max(stalled) >= _STALL_ITERATES:
            finish([s >= _STALL_ITERATES for s in stalled])
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
    _check_weights(weights)
    counts = (weights > 0).sum(axis=1)
    results: list = [None] * len(weights)
    # Not np.unique: it imports numpy.ma, half a megabyte this path otherwise never loads.
    for count in sorted(set(counts.tolist())):
        group = np.flatnonzero(counts == count)
        if count == 0:
            solved = [solve_max_weight(model, w, initial, config) for w in weights[group]]
        else:
            solved = _solve_rows(model, weights[group], initial, config)
        for r, res in zip(group, solved):
            results[r] = res
    return results

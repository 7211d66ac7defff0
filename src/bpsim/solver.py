"""Distributed max-weight power control by scaled gradient projection.

Each node repeatedly improves its own variables: the allocation fractions
over its outgoing links (projected onto the simplex under a diagonal norm)
and its power exponent (clamped to a box).  A backtracking (Armijo) rule
makes every accepted step non-decreasing in the weighted sum rate; a
node's allocation ladder tests the exact change of its own rates, and no
sweep shrinks an allocation below a fixed fraction of itself.
Optimality is certified by the marginal-gain conditions: per node, the allocation gains
are equalized across its weighted links and the power gain vanishes unless
the exponent sits at its cap.

Allocation updates of different nodes are independent at fixed exponents
(a node's split does not change its total radiated power), so one sweep
updates all nodes from a common snapshot; no processing order can change
the result.

A centralized solve (``SolverConfig.centralized``), for callers that need
the optimum rather than the distributed path to it, steps the exponents
along a projected-Newton direction of the full curvature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConfigError, NumericDomainError
from .model import NetworkModel
from .phy import (BOUND_TOL, ETA_FLOOR, LinkMetrics, PowerState, WeightedLinks, WeightedView,
                  _check_powers, by_row, end_to_end, link_metrics, link_metrics_from_powers,
                  row_objectives, weighted_gains, weighted_links, weighted_view)
from .phy import alloc_marginal_gain  # noqa: F401  (not called here; bench/tracer.py wraps it)

# Safeguards under the diagonal scaling matrices.
SCALE_EPS = 1e-8
_MIN_STEP = 1e-14
# A power step's Armijo trial that fails while predicting a gain of at most
# this fraction of its start objective ends its ladder: the objective's
# difference is rounding noise there, and halving further only compares noise.
_ROUNDING_FLOOR = 1e-15
# The largest eps of the Newton power step's two-metric projection: an
# exponent this close to the bound its gain points at moves on the diagonal
# scaling (see _newton_direction).
_NEWTON_EPS = 1e-2
# A sweep keeps each weighted link's allocation at or above
# this fraction of its value at the start of the sweep (see alloc_sweep).
_ALLOC_SHRINK = 0.25
# Trials of an allocation sweep's Armijo ladder.  Most ladders accept at
# their first trial; a node that has not accepted by the last keeps its split
# and resumes its ladder next sweep (see alloc_sweep).
_SEQUENTIAL_ROUNDS = 3
# The certificate's bounds: allocations pinned at the floor, exponents at the cap.
_ALLOC_AT_FLOOR = ETA_FLOOR * (1.0 + 1e-6)
_EXPONENT_AT_CAP = 1.0 - BOUND_TOL
_SIGNS = np.array([[1.0], [-1.0]])     # a gain and its negation (see _kkt_residuals)
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
# Constant operands as 0-d arrays: a Python float costs each ufunc call a conversion.
_ZERO, _ONE, _TWO, _SIGMA, _EPS = map(np.array, (0.0, 1.0, 2.0, ARMIJO_SIGMA, SCALE_EPS))


@dataclass
class SolverConfig:
    """Iteration budget and certificate tolerance of one solve, and whether
    it is a centralized solve (``centralized``): the projected-Newton power
    step (``power_step``), for callers that need the optimum and not the
    paper's distributed path to it."""

    max_iterations: int = 400
    kkt_tolerance: float = 1e-6
    centralized: bool = False

    def __post_init__(self):
        # NaN fails the comparison, so it is rejected with the infinities.
        if not 0 < self.kkt_tolerance < np.inf:
            raise ConfigError(f"kkt_tolerance must be finite and positive, "
                              f"got {self.kkt_tolerance!r}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations!r}")


def _invq_sums(src: np.ndarray, invq: np.ndarray, n: int) -> np.ndarray:
    """Per-segment sums of ``invq``, a zero sum read as 1 (no free
    coordinate, or ``invq`` 0, reads it): the projection's divisors."""
    s_iq = np.bincount(src, weights=invq, minlength=n)
    np.copyto(s_iq, _ONE, where=s_iq == _ZERO, casting="unsafe")    # int when src is empty
    return s_iq


def _project_alloc_nodes(src: np.ndarray, n: int, target: np.ndarray, invq: np.ndarray,
                         floor: float | np.ndarray, iq_sums: np.ndarray | None = None
                         ) -> np.ndarray:
    """Weighted-simplex projection of each of the ``n`` segments ``src == i``.

    Minimizes sum((x - target)**2 / invq) per segment, ``invq`` positive,
    subject to x >= ``floor`` (one value, or one per coordinate whose sum
    over each segment is at most 1), by the exact finite active-set method:
    solve for the multiplier on the free set, clamp violators, repeat.  A
    segment without violations keeps its free set, so the loop ends within
    the longest segment's length plus one passes.  The first pass has every
    coordinate free, so its sums need no mask and its goal is exactly 1; a
    caller projecting with one ``invq`` many times passes its
    ``_invq_sums`` as ``iq_sums``.  When the first pass clamps nothing,
    every x is at or above its floor (or NaN) and is returned as it is.
    """
    free = True         # every coordinate, until the first clamp
    s_t = np.bincount(src, weights=target, minlength=n)
    div = _invq_sums(src, invq, n) if iq_sums is None else iq_sums
    goal = _ONE
    for _ in range(target.size + 1):
        mu = (s_t - goal) / div
        x = target - mu[src] * invq
        viol = x < floor
        if free is not True:
            viol &= free
        if not np.count_nonzero(viol):
            break
        free = free & ~viol
        s_t = np.bincount(src, weights=target * free, minlength=n)
        div = _invq_sums(src, invq * free, n)
        # The clamped coordinates' floors come off each segment's sum.
        goal = 1.0 - np.bincount(src, weights=np.where(free, 0.0, floor), minlength=n)
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
    a = a / np.bincount(links.src, weights=a, minlength=rows * n)[links.src]
    alloc[links.act] = _project_alloc_nodes(links.src, links.lay.size, a, np.ones_like(a),
                                            ETA_FLOOR)
    exponent = end_to_end(np.minimum(np.maximum(initial.exponent, model.gamma_floor), _ONE), rows)
    return PowerState(alloc, exponent)


def _armijo_terms(links: WeightedLinks, at: WeightedView, d: np.ndarray,
                  beta0: np.ndarray | None) -> tuple:
    """The allocation line search's start: the inverse diagonal scaling
    (w / a**2 approximates the curvature), the local objective's change
    (each node's weighted rate over its own links as a function of their
    split, less its value at the view's split), the gradient along the
    split, and the per-node stepsize caps and first trials.

    The change is summed from log1p terms, so it is exact to its own
    rounding, not to the rounding of the objective, and the Armijo test
    resolves the small gains of a nearly equalized split.
    """
    p_i = at.src_power
    s = -(links.theta_g * p_i)      # negated: the split's self-interference falls by s * dx

    def local(x: np.ndarray) -> np.ndarray:
        # The split's self-interference s * (1 - x) plus the rest is the
        # view's interference-plus-noise less s * (x - a).
        dx = x - at.alloc
        rate = np.log1p(dx / at.alloc) - np.log1p(s * dx / at.inoise)
        return np.bincount(links.src, weights=links.w * rate, minlength=links.lay.size)

    # The gradient along a node's split is its power times ``d``, so a
    # stepsize of the node's power is the scaled (Newton) step: the cap.  A
    # larger cap lets a node below unit power overshoot by its inverse, and
    # with doubled stepsizes it can alternate between two overshoots that
    # both pass the Armijo test.
    cap = ARMIJO_INITIAL * at.metrics.node_power
    invq = _ONE / (links.w / (at.alloc * at.alloc) + _EPS)
    return invq, local, p_i * d, cap, cap if beta0 is None else np.minimum(beta0, cap)


def _armijo_test(change: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each trial, with local objective ``change`` and predicted
    ``gain``, passes the Armijo test and raises its local objective, and
    whether it ends its ladder: it passes, or it predicts no gain."""
    ok = (change >= _SIGMA * gain) & (change > _ZERO)
    return ok, ok | (gain <= _ZERO)


def alloc_sweep(links: WeightedLinks, state: PowerState, at: WeightedView, delta: np.ndarray,
                beta0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One allocation update for every node with weighted links, in each of
    the B problems of ``links``, from the view ``at`` of ``state`` with the
    allocation gains ``delta`` on the weighted links.

    Returns the new allocations, (B,) local objective evaluations spent in
    line searches (one per trial round of a problem still searching), and
    the per-node stepsizes for the next sweep's ``beta0``.  Each node's
    Armijo ladder tests exact local changes (``_armijo_terms``) and ends
    when a trial passes or predicts no gain (``_armijo_test``), or after
    ``_SEQUENTIAL_ROUNDS`` trials; a problem stops once it has no waiting
    node or their largest stepsize is below the floor, and is still
    computed but changes nothing.  A node that does not accept keeps its
    split bit for bit.  The gains are centred per node before the
    projection, and no allocation falls below ``_ALLOC_SHRINK`` of its
    value at the view (nor below ``ETA_FLOOR``).  A Newton-scaled first
    trial can otherwise clamp a weighted link to ``ETA_FLOOR``, a floor no
    optimum has active, and the link then climbs back a few doublings per
    sweep, since its scaling ``w / a**2`` shrinks with it.
    """
    rows, size, a = links.rows, links.lay.size, at.alloc
    invq, local, grad, cap, beta = _armijo_terms(links, at, delta, beta0)
    iq_sums = _invq_sums(links.src, invq, size)
    # The projection is the same for gains shifted by a constant per node.
    # Centred on their invq-weighted mean, they leave the trial targets near
    # the split, so the trial points carry the rounding of the split rather
    # than of a target far outside the simplex.
    delta = delta - (np.bincount(links.src, weights=invq * delta, minlength=size)
                     / iq_sums)[links.src]
    floor = np.maximum(_ALLOC_SHRINK * a, ETA_FLOOR)
    evals = np.ones(rows, dtype=int)        # every problem evaluates the first round
    # The unaccepted nodes of the problems still searching (all of them in
    # the first round), and the nodes whose stepsize is an accepted one or
    # was never tried.
    waiting = links.has_active.copy()
    kept = ~links.has_active
    live = True
    x_out = a.copy()
    for r in range(_SEQUENTIAL_ROUNDS):
        target = a + beta[links.src] * delta * invq
        x = _project_alloc_nodes(links.src, size, target, invq, floor, iq_sums)
        change = local(x)
        if r:
            evals += live
        gain = np.bincount(links.src, weights=grad * (x - a), minlength=size)
        ok, end = _armijo_test(change, gain)
        took = ok & waiting
        np.copyto(x_out, x, where=took[links.src])
        kept |= took
        waiting &= ~end
        if not waiting[waiting.argmax()]:       # argmax points at the first True, if any
            break
        beta = np.where(waiting, beta * ARMIJO_SHRINK, beta)
        live = ~(np.maximum.reduce(np.where(waiting, beta, 0.0).reshape(rows, -1), axis=1)
                 < _MIN_STEP)
        if np.count_nonzero(live) < rows:
            # A stopped problem's unaccepted nodes leave their ladders.
            waiting &= np.repeat(live, size // rows)
            if not np.count_nonzero(live):
                break
    out = state.alloc.copy()
    out[links.act] = x_out
    # An accepted step earns a doubled first trial next sweep, and a ladder
    # still waiting after its last round resumes at its halved stepsize;
    # ladders stopped without a predicted gain or at the stepsize floor
    # restart from the full trial step.
    nxt = np.minimum(_TWO * np.where(kept, beta, cap), cap)
    return out, evals, np.where(waiting, beta, nxt) if waiting[waiting.argmax()] else nxt


def _link_sums(rows: int, t: np.ndarray) -> np.ndarray:
    """(rows, n) sums over each problem's part of the (E_a, n) terms ``t``."""
    return np.add.reduce(t.reshape(rows, -1, t.shape[1]), axis=1)


def _link_products(rows: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(rows, n, n) products a' b of each problem's part of (E_a, n) ``a`` and ``b``."""
    n = a.shape[1]
    return np.matmul(a.reshape(rows, -1, n).transpose(0, 2, 1), b.reshape(rows, -1, n))


def _curvature(links: WeightedLinks, at: WeightedView, full: bool = False) -> np.ndarray:
    """(B, n) diagonal curvature of the objective in each node's log power,
    or with ``full`` the (B, n, n) curvature M whose diagonal that is.

    Each weighted link contributes w * s * (1 - s) where s is the share of
    its interference-plus-noise sourced from the node in question.  The
    (E_a, n) terms are C-ordered, so the sum over a problem's links adds
    them one after another.  Off the diagonal, M holds -sum(w * s_i * s_j),
    so M = sum_l w_l (diag(s_l) - s_l s_l'), the negated Hessian of the
    objective in the log powers: positive semidefinite, and definite on the
    nodes with a positive share anywhere, because every link's shares sum
    to below 1 (noise takes the rest).  Both sums over a problem's links
    run per block of problems with equal weighted-link counts (``by_row``).
    """
    rows, n = links.rows, links.gain_rows.shape[1]
    p = at.metrics.node_power
    contrib = links.gain_rows * (p if rows == 1 else p.reshape(rows, n)[links.src // n])
    contrib.put(links.own_slot, links.theta_g * (at.src_power - at.power))
    s = contrib / at.inoise[:, None]
    w = links.w[:, None]
    diagonal = by_row(rows, links.blocks, _link_sums, (s * (_ONE - s)) * w)
    if not full:
        return diagonal
    m = by_row(rows, links.blocks, _link_products, -w * s, s)
    m.reshape(rows, -1)[:, ::n + 1] = diagonal
    return m


def _power_direction(model: NetworkModel, links: WeightedLinks, at: WeightedView,
                     full: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(B, n) power marginal gains and the power step's diagonal scaling, and
    with ``full`` the (B, n, n) curvature (see ``_curvature``)."""
    _, up, down = weighted_gains(model, links, at)
    delta_gamma = at.metrics.node_power * (up - down)
    if not (mag := np.abs(delta_gamma))[mag.argmax()] < np.inf:     # NaN fails it too
        raise NumericDomainError("non-finite power marginal gain")
    m = _curvature(links, at, full)
    diagonal = np.diagonal(m, axis1=1, axis2=2) if full else m
    return (delta_gamma.reshape(links.rows, -1),
            np.maximum(links.lay.log_power_cap * diagonal, _EPS), m if full else None)


def _newton_direction(links: WeightedLinks, gamma: np.ndarray, delta_gamma: np.ndarray,
                      v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(B, n) projected-Newton exponent directions, NaN in each row that has
    none (a singular or non-finite system).

    Two-metric projection (Bertsekas, SIAM J. Control Optim. 1982): an
    exponent within eps of the bound its gain points at moves on the
    diagonal scaling ``v`` alone, decoupled from the others; the rest take
    the Newton direction of the curvature ``m`` restricted to them.  Per
    row, eps is the largest move of the diagonal step's unit trial, at most
    ``_NEWTON_EPS``, so it vanishes at a stationary point.  With x = log
    power = log_power_cap * gamma, the system M dx = delta_gamma reads
    A dgamma = delta_gamma with A = M scaled by log_power_cap per column;
    its diagonal is ``v``, whose floor keeps a node with no share anywhere
    (a zero row of M) solvable.  All B systems are one stacked solve by the gufunc
    ``np.linalg.solve`` wraps: LAPACK, matrix by matrix, NaN where singular.
    """
    floor = links.lay.gamma_floor
    unit = np.minimum(np.maximum(gamma + delta_gamma / v, floor), _ONE) - gamma
    eps = np.minimum(np.maximum.reduce(np.abs(unit), axis=1), _NEWTON_EPS)[:, None]
    room = np.where(delta_gamma > _ZERO, _ONE - gamma, gamma - floor)
    free = (room > eps) | (delta_gamma == _ZERO)
    a = m * np.where(free, links.lay.log_power_cap, _ZERO)[:, None, :]
    a *= free[:, :, None]
    a.reshape(links.rows, -1)[:, ::a.shape[1] + 1] = v
    with np.errstate(all="ignore"):
        return _umath_linalg.solve(a, delta_gamma[..., None], signature="dd->d")[..., 0]


def _trial(model: NetworkModel, links: WeightedLinks, alloc: np.ndarray, expo: np.ndarray
           ) -> tuple[LinkMetrics, np.ndarray]:
    """Link metrics and per-problem objectives at trial exponents."""
    lay = links.lay
    met = link_metrics_from_powers(model, (lay.power_cap ** expo)[lay.src] * alloc, lay)
    return met, row_objectives(links.w, links.act, met, links.rows, links.blocks)


def power_step(model: NetworkModel, links: WeightedLinks, state: PowerState,
               xi0: np.ndarray | None = None, newton: bool = False
               ) -> tuple[np.ndarray, LinkMetrics, np.ndarray, np.ndarray, np.ndarray,
                          np.ndarray]:
    """One joint power-exponent update (box clamp) for each of the B
    problems of ``links``: along the diagonal scaling, the paper's
    node-local step, or with ``newton`` along the centralized
    projected-Newton direction (``_newton_direction``).

    Returns (exponents, link metrics and (B,) objectives at the accepted
    points, (B,) objective evaluations, (B,) accepted stepsizes to seed the
    next call's ``xi0``, (B,) whether the row fell back to the diagonal
    direction).  Each row runs one Armijo ladder.  Its ladder ends at an
    accepted trial, or without a step when the step does not move, a trial
    fails at the rounding floor (``_ROUNDING_FLOOR``) or the stepsize falls
    below the floor, so a ladder that starts at ``ARMIJO_INITIAL`` ends
    within 47 trials; a problem that takes no step returns its start.  Each
    round evaluates all B trials at once; a stopped problem keeps the
    stepsize of its last trial (a halving below the floor is not taken), so
    no problem evaluates, or raises at, a trial its own ladder does not
    reach.  A Newton ladder starts from the full step, and its trials pass
    only if they also raise the objective: the clipped Newton direction
    need not be an ascent direction.  A Newton row whose ladder ends
    without a step, so also one without a Newton direction (its step is
    zero), hands over: from the next round on it runs the diagonal ladder
    from the carried stepsize, flagged as a fallback, and ends where the
    diagonal step would.  The per-problem bookkeeping runs on Python
    numbers.
    """
    rows = links.rows
    metrics, f0 = _trial(model, links, state.alloc, state.exponent)
    delta_gamma, v, m = _power_direction(model, links,
                                         weighted_view(links, state.alloc, metrics), newton)
    gamma = state.exponent.reshape(rows, -1)
    grad = (links.lay.log_power_cap * delta_gamma)[:, None, :]
    carried = [ARMIJO_INITIAL] * rows if xi0 is None else np.minimum(xi0, ARMIJO_INITIAL).tolist()
    start = f0.tolist()
    took, evals, xi_next = [False] * rows, [0] * rows, [ARMIJO_INITIAL] * rows
    # Each row's trial step is xi * num / den: delta_gamma / v on the
    # diagonal, the Newton direction over 1.  ``strict`` marks the rows on
    # their Newton ladder, which starts from the full step.
    num, den, xi = delta_gamma, v, list(carried)
    strict, fallback = [newton] * rows, [False] * rows
    if newton:
        d = _newton_direction(links, gamma, delta_gamma, v, m)
        # A row without a finite Newton direction steps by zero: it does not move.
        finite = np.logical_and.reduce(np.isfinite(d), axis=1)[:, None]
        num, den, xi = np.where(finite, d, _ZERO), _ONE, [ARMIJO_INITIAL] * rows
    live = [True] * rows
    while True in live:
        new = np.minimum(np.maximum(gamma + np.array(xi)[:, None] * num / den,
                                    links.lay.gamma_floor), _ONE)
        move = new - gamma
        tried = [on and mv for on, mv in zip(live, np.logical_or.reduce(move, axis=1).tolist())]
        if True in tried:       # a row that does not move ends its ladder untried
            met, f1 = _trial(model, links, state.alloc, flat := new.reshape(-1))
            after, slope = f1.tolist(), np.matmul(grad, move[..., None])[:, 0, 0].tolist()
        handover = False
        for k, (on, t, a) in enumerate(zip(live, tried, start)):
            if not on:
                continue
            if t:
                evals[k] += 1
                b, s = after[k], slope[k]
                if b - a >= ARMIJO_SIGMA * s and (b > a or not strict[k]):
                    took[k], live[k] = True, False
                    xi_next[k] = min(2.0 * xi[k], ARMIJO_INITIAL)
                    continue
                if not s <= _ROUNDING_FLOOR * abs(a) and not xi[k] * ARMIJO_SHRINK < _MIN_STEP:
                    # Failed above the rounding floor (a NaN slope too), and the
                    # halved stepsize is not below the floor.
                    xi[k] *= ARMIJO_SHRINK
                    continue
            # The ladder ends without a step; a Newton row hands over.
            if strict[k]:
                strict[k], fallback[k], xi[k], handover = False, True, carried[k], True
            else:
                live[k] = False
        if handover:
            pick = np.array(fallback)[:, None]
            num, den = np.where(pick, delta_gamma, num), np.where(pick, v, den)
    evals, xi_next, fallback = np.array(evals), np.array(xi_next), np.array(fallback)
    if all(took):
        return flat, met, f1, evals, xi_next, fallback
    if not any(took):
        return state.exponent.copy(), metrics, f0, evals, xi_next, fallback
    # An accepted row kept its stepsize, so its last trial is the accepted one.
    pick = np.array(took)[:, None]
    met = LinkMetrics(**{f: np.where(pick, a.reshape(rows, -1),
                                     getattr(metrics, f).reshape(rows, -1)).reshape(-1)
                         for f, a in vars(met).items()})
    return (np.where(pick, new, gamma).reshape(-1), met, np.where(took, f1, f0), evals, xi_next,
            fallback)


def _kkt_residuals(links: WeightedLinks, expo: np.ndarray, at: WeightedView,
                   gradient: tuple) -> tuple[np.ndarray, list[float]]:
    """The certificate at the view ``at`` with exponents ``expo`` and the
    ``weighted_gains`` there: the per-node projected power residual and each
    problem's normalized residual (see ``kkt_check``)."""
    rows, size = links.rows, links.lay.size
    delta_alloc, up, down = gradient
    p_node = at.metrics.node_power
    delta_gamma = p_node * (up - down)
    ends, gains, multi = links.lay.no_ends.copy(), delta_alloc * _SIGNS, links.m_node >= _TWO
    pinned = at.alloc <= _ALLOC_AT_FLOOR
    if pinned.size and pinned[pinned.argmax()]:     # pinned ones leave the equalization
        gains = np.where(pinned, -np.inf, gains)
        multi = np.bincount(links.src[~pinned], minlength=size) >= 2
    np.maximum.at(ends, links.node_ends, gains.reshape(-1))
    spread = np.where(multi, ends[:size] + ends[size:], _ZERO)
    alloc_scale = np.maximum(_ONE, ends[:size])      # 1.0 where still -inf: no free link
    # The projected gain: -dgamma at the cap, dgamma at the floor, |dgamma| between.
    gamma_residual = np.abs(delta_gamma)
    np.copyto(gamma_residual, delta_gamma, where=expo <= links.lay.floor_bound)
    np.copyto(gamma_residual, -delta_gamma, where=expo >= _EXPONENT_AT_CAP)
    gamma_residual = np.maximum(_ZERO, gamma_residual)
    gamma_scale = np.maximum(_ONE, p_node * (up + down))
    a = np.maximum.reduce((spread / alloc_scale).reshape(rows, -1), axis=1, initial=0.0)
    g = np.maximum.reduce((gamma_residual / gamma_scale).reshape(rows, -1), axis=1, initial=0.0)
    return gamma_residual, [y if y > x else x for x, y in zip(a.tolist(), g.tolist())]


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

    gamma_residual: np.ndarray      # (n,) projected power-gain residual
    normalized: float
    passed: bool


def kkt_check(model: NetworkModel, weights: np.ndarray, state: PowerState,
              tolerance: float) -> KKTReport:
    """Certify optimality: equalized allocation gains, vanishing power gains.

    Power gains may be nonnegative at the exponent cap.  Allocations pinned
    at their floor leave the equalization, and the exponent-floor residual
    uses the projected condition (the gain must not push further down).
    Residuals are normalized per node: the allocation spread by the node's
    largest allocation gain, the power residual by the total magnitude of
    the raise/drop components whose cancellation it certifies.  This is the
    solve loop's certificate, bit for bit: at the state a solve returns, it
    gives the solve's last residual unless the solve stopped by the stall rule.
    """
    metrics = link_metrics(model, state)
    links = weighted_links(model, weights)
    at = weighted_view(links, state.alloc, metrics)
    _check_powers(links.act, at.power)
    gamma_residual, normalized = _kkt_residuals(links, state.exponent, at,
                                                weighted_gains(model, links, at))
    return KKTReport(gamma_residual, normalized[0], bool(normalized[0] < tolerance))


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
    # Newton power steps that handed over to the diagonal ladder (always 0
    # on the diagonal step).
    diagonal_fallbacks: int = 0
    # Clipped per-link capacities at the start point and after each
    # iteration, one row each; filled only when requested.
    capacity_trace: np.ndarray | None = None
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
            diag.capacity_trace = np.zeros((1, model.n_links))
        return initial.copy(), diag
    return _solve_rows(model, weights[None], initial, config, collect_rates)[0]


# ------------------------------------------------------------ the solve loop
#
# _solve_rows advances independent solves over one model together on the
# formula layer above: solve_max_weight's one row, or every row of
# solve_max_weight_batch that weighs some link, whatever its weighted-link
# count (the three sums over a row's own weighted links run per block of
# rows with equal counts, see phy.by_row).  An iterate costs numpy call
# overhead more than arithmetic, so B rows cost little more than one, and no
# step depends on the number of rows.


def _take_rows(x, rows: int, index):
    """Rows ``index`` of ``x`` laid end to end over ``rows`` rows: an array,
    None, or a tuple, PowerState or LinkMetrics of such arrays (copied).
    Every row's part of an array is equally long, so per-weighted-link
    arrays are not taken here (see _solve_rows)."""
    if x is None:
        return None
    if isinstance(x, np.ndarray):
        return x.reshape(rows, -1)[index].reshape(-1)
    if isinstance(x, tuple):
        return tuple(_take_rows(a, rows, index) for a in x)
    return type(x)(**{f: _take_rows(a, rows, index).copy() for f, a in vars(x).items()})


def _solve_rows(model: NetworkModel, weights: np.ndarray, initial: PowerState,
                config: SolverConfig, collect_rates: bool = False
                ) -> list[tuple[PowerState, SolveDiagnostics]]:
    """``solve_max_weight`` of every row of (B, E) ``weights``, each with a
    positive number of weighted links, advanced together one iterate at a
    time (every row still in the batch has made ``it`` iterates), so the
    loop runs as many iterates as its slowest row.

    Each row keeps its own KKT stop, stall counter and budget-end
    certificate.  Floating point can pin the residual just above a very
    tight tolerance while the objective no longer moves; a row then stops,
    unconverged, after ``_STALL_ITERATES`` iterates that leave its objective
    unchanged, keeping the certificate of the iterate before.  Rows leave
    the batch in one place, at the top of an iterate.  Per-row bookkeeping
    runs on Python numbers, one ``tolist()`` per quantity and iterate.  One row collects rates.
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
    caps, beta0, xi0, it = [], None, None, 0        # caps: that one row's raw capacities
    while True:
        rows = links.rows
        if collect_rates:
            caps.append(metrics.capacity)
        # The metrics come from _trial at this point, whose objective check
        # found power on every weighted link, so the gains need no check.
        at = weighted_view(links, state.alloc, metrics)
        gradient = weighted_gains(model, links, at)
        # The loop's certificate doubles as the budget-end one.
        residual = _kkt_residuals(links, state.exponent, at, gradient)[1]
        done = []
        for d, r, s in zip(diags, residual, stalled):
            # A stalled row keeps the certificate of the iterate before.
            if s < _STALL_ITERATES:
                d.kkt_residuals.append(r)
            done.append(s >= _STALL_ITERATES or r < tol or it >= config.max_iterations)
        if any(done):
            for k in [k for k, x in enumerate(done) if x]:
                d = diags[k]
                d.converged = d.kkt_residuals[-1] < tol
                d.iterations = it
                # One protocol round per iteration in a distributed deployment.
                d.broadcasts, d.feedbacks = model.n * it, model.n_links * it
                # The last row keeps the batch's arrays.
                d.metrics = metrics if rows == 1 else _take_rows(metrics, rows, k)
                if collect_rates:
                    d.capacity_trace = np.where(weighted[k], np.maximum(caps, 0.0), 0.0)
                results[ids[k]] = (state if rows == 1 else _take_rows(state, rows, k), d)
            keep = [not x for x in done]
            if not any(keep):
                return results
            diags = [d for d, k in zip(diags, keep) if k]
            stalled = [s for s, k in zip(stalled, keep) if k]
            keep = np.array(keep)
            # The allocation gains, one per weighted link, go by their links' rows.
            state, metrics, beta0, xi0, gains = _take_rows(
                (state, metrics, beta0, xi0, gradient[1:]), rows, keep)
            gradient = (gradient[0][keep[links.src // model.n]], *gains)
            ids, weighted = ids[keep], weighted[keep]
            links = weighted_links(model, weights[ids])
            at = weighted_view(links, state.alloc, metrics)
        alloc, sweep_evals, beta0 = alloc_sweep(links, state, at, gradient[0], beta0)
        state = PowerState(alloc, state.exponent)
        expo, metrics, f_after, pc_evals, xi0, fell = power_step(model, links, state, xi0,
                                                                 config.centralized)
        state = PowerState(state.alloc, expo)
        it += 1
        for k, (d, x, e, b) in enumerate(zip(diags, f_after.tolist(),
                                             (sweep_evals + pc_evals).tolist(), fell.tolist())):
            stalled[k] = stalled[k] + 1 if x == d.objectives[-1] else 0
            d.objectives.append(x)
            d.line_search_evals += e
            d.diagonal_fallbacks += b


def solve_max_weight_batch(model: NetworkModel, weights: np.ndarray, initial: PowerState,
                           config: SolverConfig | None = None
                           ) -> list[tuple[PowerState, SolveDiagnostics]]:
    """``solve_max_weight(model, weights[b], initial, config)`` for every row b.

    Returns the (state, diagnostics) pairs in row order, bit for bit what
    the single solves return.  Every row that weighs some link advances in
    one lockstep loop, whatever its weighted-link count; a row without
    weights returns ``initial`` as the single solve does.
    """
    if config is None:
        config = SolverConfig()
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != model.n_links:
        raise ConfigError("weights must be one row of one value per link per problem")
    _check_weights(weights)
    weighted = np.logical_or.reduce(weights > 0, axis=1)
    results = [None if w else solve_max_weight(model, row, initial, config)
               for w, row in zip(weighted.tolist(), weights)]
    rows = np.flatnonzero(weighted)
    if rows.size:
        for r, res in zip(rows.tolist(), _solve_rows(model, weights[rows], initial, config)):
            results[r] = res
    return results

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
values are bit for bit its own.  The weighted links of the problems lie end
to end without padding, so problems may weigh different numbers of links;
a product over a problem's own weighted links runs per block of problems
with equal counts (``by_row``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError
from .model import POWER_FLOOR_RATIO, NetworkModel  # noqa: F401  (re-exported)

# Allocation fractions are floored here inside projections; low enough that
# the floor is inactive at any optimum with positive link weights.
ETA_FLOOR = 1e-12
# Exponents within this of their floor or cap count as at that bound.
BOUND_TOL = 1e-9


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


# The model's constants laid end to end over B problems (views of its own
# arrays at B = 1): rows; size B*n; (B*E,) src, dst (b*n + node), link_gain,
# link_theta_gain, link_noise, link_kg; (B*n,) power_cap, keep_theta
# (1 - theta), floor_bound (floor + BOUND_TOL); (B*E,) no_rate and (2*B*n,)
# no_ends (-inf: to copy); (B, n) log_power_cap and gamma_floor.
Layout = namedtuple("Layout", "rows size src dst link_gain link_theta_gain link_noise link_kg"
                    " power_cap keep_theta floor_bound no_rate no_ends log_power_cap gamma_floor")


def layout(model: NetworkModel, rows: int) -> Layout:
    """The model's layout over ``rows`` problems, built on first use and kept
    on the model, so its arrays are read-only.  With a layout over more rows
    at hand, its arrays' leading ``rows`` copies are sliced, not copied."""
    lay = model.layouts.get(rows)
    if lay is not None:
        return lay
    n = model.n
    big = max(model.layouts, default=0)
    if big > rows:
        arrays = [a[:len(a) // big * rows] for a in model.layouts[big][2:]]
    else:
        floor = end_to_end(model.gamma_floor, rows)
        arrays = [a.view() for a in (
            end_to_end(model.src, rows, n), end_to_end(model.dst, rows, n),
            *(end_to_end(x, rows) for x in (
                model.link_gain, model.link_theta_gain, model.link_noise, model.link_kg,
                model.power_cap, 1.0 - model.theta)),
            floor + BOUND_TOL, np.full(rows * model.n_links, -np.inf),
            np.full(2 * rows * n, -np.inf),
            end_to_end(model.log_power_cap, rows).reshape(rows, n), floor.reshape(rows, n))]
        for a in arrays:
            a.setflags(write=False)
    lay = model.layouts[rows] = Layout(rows, rows * n, *arrays)
    return lay


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


def link_metrics_from_powers(model: NetworkModel, p: np.ndarray,
                             lay: Layout | None = None) -> LinkMetrics:
    """Metrics from raw per-link powers, of one problem or of several laid
    end to end (``p`` of length B*E; ``lay`` their layout, if at hand).

    Does not assume the allocations sum to one, so callers may evaluate
    perturbed configurations (finite differences, midpoints in log powers).
    """
    if lay is None:
        lay = layout(model, p.size // model.n_links)
    tx_total = np.bincount(lay.src, weights=p, minlength=lay.size)
    tx_src = tx_total[lay.src]
    # Received power at each node from every transmitter (diagonal gain is 0).
    rx_total = np.matmul(model.gain.T, tx_total.reshape(lay.rows, -1, 1)).reshape(-1)
    other = rx_total[lay.dst] - lay.link_gain * tx_src
    inoise = lay.link_theta_gain * (tx_src - p) + other + lay.link_noise
    # argmin and argmax point at the first NaN, which fails both comparisons:
    # these two look-ups reject exactly the non-finite and non-positive values.
    if not (inoise[inoise.argmin()] > 0 and inoise[inoise.argmax()] < np.inf):
        bad = int(np.argmin(np.where(np.isfinite(inoise), inoise, -np.inf))) % model.n_links
        raise NumericDomainError(f"interference-plus-noise is not positive and finite"
                                 f" on link {model.links[bad]}")
    sinr = lay.link_kg * p / inoise
    low = sinr[sinr.argmin()]       # the first NaN if there is one
    if low != low:
        bad = int(np.argmax(np.isnan(sinr))) % model.n_links
        raise NumericDomainError(f"non-finite capacity on link {model.links[bad]}")
    # A zero or negative SINR has capacity -inf.
    capacity = np.log(sinr) if low > 0 else np.log(sinr, out=lay.no_rate.copy(), where=sinr > 0)
    return LinkMetrics(p, inoise, sinr, capacity, tx_total)


def link_metrics(model: NetworkModel, state: PowerState) -> LinkMetrics:
    return link_metrics_from_powers(model, link_powers(model, state))


def by_row(rows: int, blocks: list | None, fn, *xs: np.ndarray) -> np.ndarray:
    """``fn`` over the weighted links of ``rows`` problems, one block of
    problems with equal weighted-link counts at a time, with its results
    back in problem order.

    Each of ``xs`` holds one value, or one row of values, per weighted link,
    laid end to end.  ``fn(k, *block)`` gets a block's ``k`` problems' parts
    of them, laid end to end, and returns one result per problem.
    ``blocks`` are the problems' ``WeightedLinks.blocks``: None when every
    problem weighs as many links, and one block holds them all.  ``fn``
    makes the stacked call the block's problems would make alone, so each
    problem's result is bit for bit its own.
    """
    if blocks is None:
        return fn(rows, *xs)
    out = None
    for ids, at in blocks:
        got = fn(ids.size, *(x[at] for x in xs))
        if out is None:
            out = np.empty((rows, *got.shape[1:]), dtype=got.dtype)
        out[ids] = got
    return out


def _row_dots(rows: int, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(rows,) dot products of ``w`` and ``c``, each ``rows`` equal parts laid end to end."""
    return np.matmul(w.reshape(rows, 1, -1), c.reshape(rows, -1, 1))[:, 0, 0]


def row_objectives(w: np.ndarray, act: np.ndarray, metrics: LinkMetrics,
                   rows: int = 1, blocks: list | None = None) -> np.ndarray:
    """(rows,) weighted sum rate of each of ``rows`` problems laid end to end.

    ``w`` and ``act`` are the weights of the problems' weighted links and
    their ids in the end-to-end link arrays, and ``blocks`` group the
    problems by weighted-link count (see ``by_row``).
    """
    f = by_row(rows, blocks, _row_dots, w, metrics.capacity[act])
    # A weighted link without power has capacity -inf, which takes its row
    # to -inf or NaN: only then are the powers looked at.
    if not f[f.argmin()] > -np.inf:
        _check_powers(act, metrics.power[act], " (log 0)")
    return f


def _check_powers(act: np.ndarray, p: np.ndarray, why: str = "") -> None:
    if (p <= 0).any():
        bad = int(act[np.argmax(p <= 0)])
        raise NumericDomainError(f"zero power on weighted link index {bad}{why}")


@dataclass
class WeightedLinks:
    """The links with positive weight of B problems over one model, laid end
    to end (see the module docstring), their constants and the model's.

    Links without weight contribute exact zeros to every marginal-gain sum,
    so the gradient formulas run over these links only.
    """

    rows: int               # B
    lay: Layout
    act: np.ndarray         # b*E + link: ids into the end-to-end link arrays
    src: np.ndarray         # b*n + transmitter
    dst: np.ndarray         # b*n + receiver
    w: np.ndarray
    gain: np.ndarray        # gain[src, dst]
    w_theta_g: np.ndarray   # (w * theta[src]) * gain[src, dst]
    theta_g: np.ndarray     # theta[src] * gain[src, dst], the self-interference gain
    m_node: np.ndarray      # (B*n,) weighted out-degree
    has_active: np.ndarray  # (B*n,) bool
    gain_rows: np.ndarray   # (E_a, n) gain from every node to each link's receiver
    own_slot: np.ndarray    # flat index in gain_rows of each link's own transmitter
    node_ends: np.ndarray   # (2*E_a,) src, then B*n + src
    # Per weighted-link count, the problems with that count and the positions
    # of their weighted links; None when every problem weighs as many links.
    blocks: list | None = None


def weighted_links(model: NetworkModel, weights: np.ndarray) -> WeightedLinks:
    """The links with ``weights > 0`` of one problem, or of each row of (B, E)
    ``weights`` laid end to end, and their per-link constants.  Rows may
    weigh different numbers of links."""
    n, n_links = model.n, model.n_links
    rows = weights.size // n_links
    lay = layout(model, rows)
    act = (weights.reshape(-1) > 0).nonzero()[0]
    link = act if rows == 1 else act % n_links
    w = weights.reshape(-1)[act]
    g = model.link_gain[link]
    m_node = np.bincount(lay.src[act], minlength=rows * n).astype(float)
    blocks = None
    if rows > 1:
        counts = np.bincount(act // n_links, minlength=rows)
        # Not np.unique: it imports numpy.ma, half a megabyte a solve otherwise never loads.
        sizes = sorted(set(counts.tolist()))
        if len(sizes) > 1:
            starts = np.cumsum(counts) - counts
            blocks = []
            for c in sizes:
                ids = np.flatnonzero(counts == c)
                blocks.append((ids, (starts[ids, None] + np.arange(c)).reshape(-1)))
    return WeightedLinks(rows=rows, lay=lay, act=act, src=lay.src[act], dst=lay.dst[act], w=w,
                         gain=g, gain_rows=model.gain.T[model.dst[link]],
                         own_slot=np.arange(act.size) * n + model.src[link],
                         node_ends=(lay.src[act] + np.array([[0], [rows * n]])).reshape(-1),
                         w_theta_g=w * model.link_theta[link] * g,
                         theta_g=model.link_theta_gain[link], m_node=m_node,
                         has_active=m_node > 0, blocks=blocks)


# One point's allocations and link metrics gathered at the weighted links
# once, for every formula that reads them there: metrics; alloc, power and
# inoise at act; src_power, metrics.node_power[src].
WeightedView = namedtuple("WeightedView", "metrics alloc power inoise src_power")


def weighted_view(links: WeightedLinks, alloc: np.ndarray, metrics: LinkMetrics) -> WeightedView:
    return WeightedView(metrics, alloc[links.act], metrics.power[links.act],
                        metrics.inoise[links.act], metrics.node_power[links.src])


def weighted_gains(model: NetworkModel, links: WeightedLinks,
                   at: WeightedView) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Allocation marginal gains and the power gain's raise/drop parts, one
    pass, at a point whose weighted links all carry power.

    Returns the allocation gains b * (1/P + theta*h/IN) on the weighted
    links, and the (n,) parts ``up`` and ``down`` of the power marginal gain
    p_node * (up - down), each laid end to end over the B problems of
    ``links``.  ``up`` collects the node's own weighted-rate terms, ``down``
    the interference it imposes on every other receiver.  Both are
    nonnegative; their near-cancellation is what the optimality certificate
    measures, so they also set its natural scale.
    """
    size, f = links.lay.size, links.w / at.inoise
    delta_alloc = links.w / at.power + links.w_theta_g / at.inoise
    # Own pressure sum(g * w / IN) over each node's outgoing links, and the
    # gain-weighted sum of w / IN over every receiver's incoming links.
    own = np.bincount(links.src, weights=links.gain * f, minlength=size)
    at_rx = np.bincount(links.dst, weights=f, minlength=size)
    down = np.matmul(model.gain, at_rx.reshape(links.rows, -1, 1)).reshape(size)
    alloc_term = np.bincount(links.src, weights=delta_alloc * at.alloc, minlength=size)
    return delta_alloc, links.lay.keep_theta * own + alloc_term, down


def alloc_marginal_gain(model: NetworkModel, weights: np.ndarray,
                        metrics: LinkMetrics) -> np.ndarray:
    """Allocation marginal gain per link, b * (1/P + theta*h/IN).

    Zero on links with zero weight.  Equals (b/P) * (1 + theta*SINR/K),
    which a node can assemble from local measurements alone."""
    links = weighted_links(model, weights)
    out = np.zeros(links.rows * model.n_links)  # the allocations do not enter it
    at = weighted_view(links, out, metrics)
    _check_powers(links.act, at.power)
    out[links.act] = weighted_gains(model, links, at)[0]
    return out


def power_marginal_parts(model: NetworkModel, weights: np.ndarray, state: PowerState,
                         metrics: LinkMetrics) -> tuple[np.ndarray, np.ndarray]:
    """Raise and drop components of the power-control marginal gain; see
    ``weighted_gains``.  Links without positive weight contribute nothing."""
    links = weighted_links(model, weights)
    at = weighted_view(links, state.alloc, metrics)
    _check_powers(links.act, at.power)
    return weighted_gains(model, links, at)[1:]

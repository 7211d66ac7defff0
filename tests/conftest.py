"""Shared builders and independent oracles used across the test modules."""

from __future__ import annotations

import numpy as np
import pytest

from bpsim import phy, solver
from bpsim.errors import ConfigError
from bpsim.model import Commodity, NetworkModel, Scenario, TrafficSpec
from bpsim.sim import SimConfig, SimTrace, run_simulation


def positions_model(positions: np.ndarray, links, *, theta=0.25, cap=100.0,
                    noise=0.1, k=1e5) -> NetworkModel:
    """Model with fourth-power path-loss gains from explicit coordinates."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    with np.errstate(divide="ignore"):
        gain = dist ** -4.0
    np.fill_diagonal(gain, 0.0)
    return NetworkModel(gain=gain, noise=np.full(n, noise),
                        theta=np.full(n, theta), power_cap=np.full(n, cap),
                        processing_gain=k, links=tuple(links))


def random_model(rng: np.random.Generator, n: int | None = None,
                 theta: float | None = None) -> NetworkModel:
    """Random fully-linked interference instance with 3 to 10 nodes.

    Nodes keep a minimum separation so the path-loss spread stays within a
    physically sensible range.
    """
    if n is None:
        n = int(rng.integers(3, 11))
    while True:
        pos = rng.random((n, 2)) * 2.0
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= 0.2:
            break
    links = tuple((i, j) for i in range(n) for j in range(n) if i != j)
    np.fill_diagonal(dist, 1.0)
    gain = dist ** -4.0
    np.fill_diagonal(gain, 0.0)
    if theta is None:
        thetas = rng.random(n)
    else:
        thetas = np.full(n, theta)
    return NetworkModel(gain=gain, noise=0.05 + rng.random(n) * 0.3,
                        theta=thetas, power_cap=5.0 + rng.random(n) * 195.0,
                        processing_gain=1e5, links=links)


def random_weights(rng: np.random.Generator, model: NetworkModel,
                   zero_frac: float = 0.3) -> np.ndarray:
    w = rng.random(model.n_links) * 10.0
    w[rng.random(model.n_links) < zero_frac] = 0.0
    if not np.any(w > 0):
        w[0] = 1.0
    return w


def two_tx_instance(seed: int) -> tuple[NetworkModel, np.ndarray]:
    """Two transmitters interfering at two receivers, one link each.

    Allocation is trivial (one outgoing link per transmitter), so the
    problem reduces to the two power exponents: a 2-D landscape that an
    exhaustive grid can certify.
    """
    rng = np.random.default_rng(seed)
    n = 4
    g = np.zeros((n, n))
    g[0, 2] = 1.0 + rng.random() * 4.0
    g[1, 3] = 1.0 + rng.random() * 4.0
    g[0, 3] = 0.05 + rng.random() * 2.0
    g[1, 2] = 0.05 + rng.random() * 2.0
    for i in range(n):
        for j in range(n):
            if i != j and g[i, j] == 0.0:
                g[i, j] = 0.01 + rng.random() * 0.05
    model = NetworkModel(gain=g, noise=np.full(n, 0.1), theta=np.full(n, 0.25),
                         power_cap=np.full(n, 100.0), processing_gain=1e5,
                         links=((0, 2), (1, 3)))
    weights = 0.2 + rng.random(2) * 5.0
    return model, weights


def grid_search_two_tx(model: NetworkModel, w: np.ndarray, res: int = 200,
                       refine_stages: int = 0):
    """Exhaustive grid over the two power exponents, straight from the formulas.

    Self-interference is absent with a single link per transmitter, so each
    link's interference is the cross gain times the other's power plus noise.
    Returns (best objective, gamma_0, gamma_1).
    """
    k = model.processing_gain
    h02, h13 = model.gain[0, 2], model.gain[1, 3]
    h12, h03 = model.gain[1, 2], model.gain[0, 3]
    n2, n3 = model.noise[2], model.noise[3]
    c0, c1 = model.power_cap[0], model.power_cap[1]
    gf = float(model.gamma_floor[0])
    lo0 = lo1 = gf
    hi0 = hi1 = 1.0
    best = (-np.inf, gf, gf)
    for _ in range(refine_stages + 1):
        g0 = np.linspace(lo0, hi0, res)
        g1 = np.linspace(lo1, hi1, res)
        p0 = c0 ** g0[:, None]
        p1 = c1 ** g1[None, :]
        f = (w[0] * np.log(k * h02 * p0 / (h12 * p1 + n2))
             + w[1] * np.log(k * h13 * p1 / (h03 * p0 + n3)))
        idx = np.unravel_index(np.argmax(f), f.shape)
        best = (float(f[idx]), float(g0[idx[0]]), float(g1[idx[1]]))
        d0 = (hi0 - lo0) / (res - 1)
        d1 = (hi1 - lo1) / (res - 1)
        lo0, hi0 = max(gf, best[1] - d0), min(1.0, best[1] + d0)
        lo1, hi1 = max(gf, best[2] - d1), min(1.0, best[2] + d1)
    return best


def projection_oracle(target: np.ndarray, q: np.ndarray,
                      floor: float | np.ndarray) -> np.ndarray:
    """Brute-force weighted simplex projection by active-set enumeration.

    Every optimum fixes some subset of coordinates at their floors (one
    value, or one per coordinate); enumerate all subsets, solve the
    equality-constrained remainder in closed form, keep the feasible
    candidate with the smallest objective.
    """
    m = target.size
    floor = np.broadcast_to(np.asarray(floor, dtype=float), (m,))
    best = None
    best_val = np.inf
    for mask in range(1 << m):
        fixed = np.array([(mask >> i) & 1 for i in range(m)], dtype=bool)
        free = ~fixed
        if not free.any():
            continue
        budget = 1.0 - floor[fixed].sum()
        mu = (target[free].sum() - budget) / (1.0 / q[free]).sum()
        x = floor.copy()
        x[free] = target[free] - mu / q[free]
        if np.any(x[free] < floor[free] - 1e-12):
            continue
        val = float((q * (x - target) ** 2).sum())
        if val < best_val:
            best_val = val
            best = x
    return best


# ------------------------------------------------------------ references
#
# One-problem forms of the library's formulas that only tests call.

def project_simplex(target: np.ndarray, scale: np.ndarray | None = None,
                    floor: float = 0.0) -> np.ndarray:
    """Projection of one vector onto {x >= floor, sum x = 1} in a diagonal norm.

    Minimizes sum(scale * (x - target)**2); the one-segment case of
    ``solver._project_alloc_nodes``.
    """
    target = np.asarray(target, dtype=float)
    m = target.size
    if m * floor > 1.0 + 1e-15:
        raise ConfigError(f"infeasible projection: {m} * floor {floor} > 1")
    invq = np.ones(m) if scale is None else 1.0 / np.asarray(scale, dtype=float)
    return solver._project_alloc_nodes(np.zeros(m, dtype=np.intp), 1, target, invq, floor)


def alloc_step(model: NetworkModel, weights: np.ndarray, state: phy.PowerState,
               node: int) -> phy.PowerState:
    """Allocation update for a single node; other nodes' variables untouched."""
    own = np.where(model.src == node, weights, 0.0)
    ws = phy.weighted_links(model, own)
    if not ws.has_active[node]:
        return state.copy()
    metrics = phy.link_metrics(model, state)
    delta = phy.alloc_marginal_gain(model, weights, metrics)[ws.act]
    alloc, _, _ = solver.alloc_sweep(ws, state, phy.weighted_view(ws, state.alloc, metrics), delta)
    return phy.PowerState(alloc, state.exponent.copy())


def objective_from_metrics(weights: np.ndarray, metrics: phy.LinkMetrics) -> float:
    """Weighted sum rate over links with positive weight.

    ``weights`` is the (E,) vector of differential-backlog weights; links
    with zero weight are excluded from the sum.
    """
    act = np.flatnonzero(weights > 0)
    return float(phy.row_objectives(weights[act], act, metrics)[0])


def objective_value(model: NetworkModel, weights: np.ndarray, state: phy.PowerState) -> float:
    return objective_from_metrics(weights, phy.link_metrics(model, state))


def validate_power_state(model: NetworkModel, state: phy.PowerState,
                         gamma_floor: np.ndarray | None = None,
                         tol: float = 1e-9) -> list[str]:
    """What is wrong with ``state`` as a feasible power state, in order."""
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


def average_runs(scenario: Scenario, scheme: str, runs: int, slots: int,
                 config: SimConfig | None = None) -> tuple[np.ndarray, list[SimTrace]]:
    """Pointwise mean of total-backlog curves across runs with seeds 0 .. runs-1."""
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    traces = [run_simulation(scenario, scheme, slots, config, seed=s) for s in range(runs)]
    mean = np.mean([tr.total_backlog for tr in traces], axis=0)
    return mean, traces


def shannon_capacity(metrics: phy.LinkMetrics) -> np.ndarray:
    """Exact log(1 + SINR) capacities."""
    return np.log1p(metrics.sinr)


def power_marginal_gain(model: NetworkModel, weights: np.ndarray, state: phy.PowerState,
                        metrics: phy.LinkMetrics) -> np.ndarray:
    """Power-control marginal gain per node.

    The objective gradient with respect to the power exponent of node i is
    ``model.log_power_cap[i]`` times this quantity.
    """
    up, down = phy.power_marginal_parts(model, weights, state, metrics)
    return metrics.node_power * (up - down)


def alloc_grad_full(model: NetworkModel, weights: np.ndarray, state: phy.PowerState,
                    metrics: phy.LinkMetrics) -> np.ndarray:
    """Full (E,) dF/d(alloc), treating allocations as free coordinates.

    Per link: P_i * (delta_alloc - c_i) with a per-node constant c_i, so on
    the allocation simplex only the marginal-gain differences matter.
    """
    delta_alloc = phy.alloc_marginal_gain(model, weights, metrics)
    f = np.where(weights > 0, weights / metrics.inoise, 0.0)
    own = np.bincount(model.src, weights=model.link_gain * f, minlength=model.n)
    down = model.gain @ np.bincount(model.dst, weights=f, minlength=model.n)
    common = down + (model.theta - 1.0) * own
    return metrics.node_power[model.src] * (delta_alloc - common[model.src])


def tandem_scenario(theta: float = 0.25) -> Scenario:
    """Three nodes in a line, one commodity from node 0 to node 2.

    Two queues: the source queue at node 0 and the relay queue at node 1.
    """
    pos = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
    model = positions_model(pos, links=((0, 1), (1, 2)), theta=theta)
    traffic = TrafficSpec(
        commodities=(Commodity(id=0, destinations=frozenset({2})),),
        arrival_mean=np.array([[1.0], [0.0], [0.0]]),
    )
    return Scenario(model=model, traffic=traffic, positions=pos, seed=0)


def diamond_scenario() -> Scenario:
    """Four nodes on a square with two opposing sessions.

    Commodity 0 travels 0 -> 3, commodity 1 travels 3 -> 0, both with two
    relay choices; six queues in total.
    """
    pos = np.array([[0.0, 0.0], [0.7, 0.35], [0.7, -0.35], [1.4, 0.0]])
    links = ((0, 1), (0, 2), (1, 3), (2, 3), (1, 0), (2, 0), (3, 1), (3, 2))
    model = positions_model(pos, links=links)
    traffic = TrafficSpec(
        commodities=(Commodity(id=0, destinations=frozenset({3})),
                     Commodity(id=1, destinations=frozenset({0}))),
        arrival_mean=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
    )
    return Scenario(model=model, traffic=traffic, positions=pos, seed=0)


@pytest.fixture(scope="session")
def rng_session():
    return np.random.default_rng(20240211)

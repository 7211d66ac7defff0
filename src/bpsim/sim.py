"""Slotted stochastic simulation: arrivals, queue updates, trace recording.

Each slot draws Poisson bit arrivals, asks the chosen control scheme for a
rate assignment, then advances the queues.  A link serves at most what its
source queue held at the slot boundary (freed capacity is not reallocated
within the slot), bits relayed during a slot become servable only in the
next one, and arrivals are added after service.  The trace records the
queue trajectory, the arrivals, each slot's assigned rates, commodities and
realized service, and the quadratic Lyapunov statistics used to audit the
stability machinery.  The virtual rates (net drain per queue) are not
stored: ``SimTrace.vr_actual`` and ``vr_nominal`` derive them from the
served amounts and the assigned rates, and the post-pass derives each once,
for its drift bound, and lets it go.

Lyapunov function on the two-slot state: V[t] = ||U[t]||^2 + ||U[t]-U[t-1]||^2.
The per-slot drift bound recorded is

    2 U[t].(B[t] - RT[t]) + 2 (||B[t]||^2 + ||RT[t]||^2) - ||U[t]-U[t-1]||^2

with RT the realized virtual service rates (so bit conservation is exact:
U[t+1] = U[t] - RT[t] + B[t]).  The bound with nominal assigned rates is
recorded alongside for diagnostics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import ConfigError, NumericDomainError
from .model import NetworkModel, Scenario, TrafficSpec
from .policy import MdbScheme, RateAssignment, make_scheme
from .solver import SolverConfig


@dataclass
class SimConfig:
    """Simulation knobs; the solver config is shared by all schemes."""

    solver: SolverConfig = field(default_factory=SolverConfig)
    iterations_per_slot: int = 50


def default_sim_config() -> SimConfig:
    # The per-slot schemes do not need certificate-grade convergence.
    return SimConfig(solver=SolverConfig(kkt_tolerance=1e-4, max_iterations=150))


@dataclass
class StepResult:
    """Queue update for one slot."""

    backlog: np.ndarray     # (n, K) next slot-boundary backlog
    served: np.ndarray      # (E,) bits actually served per link
    absorbed: float         # bits that reached a destination and left


def step_queues(backlog: np.ndarray, rates: RateAssignment, arrivals: np.ndarray,
                traffic: TrafficSpec, model: NetworkModel) -> StepResult:
    """Advance the queues by one slot.

    Service is limited by the slot-start backlog, drawn in link-index order
    when several links serve the same queue.  Bits forwarded to a node that
    is not a destination join its queue for the next slot; bits reaching a
    destination are absorbed.  Exogenous arrivals are added last.
    """
    mask = traffic.queue_mask
    remaining = np.where(mask, backlog, 0.0)
    served = np.zeros(model.n_links)
    # Sequential on purpose: when several links draw on one queue, link order
    # decides which of them the slot-start backlog serves first.  Only links
    # with a positive rate serve; ``left`` holds what their queues keep.
    live = np.flatnonzero(rates.rate > 0)
    queue = model.src[live] * mask.shape[1] + rates.commodity[live]
    flat = remaining.reshape(-1)
    left: dict[int, float] = {}
    for l, r, q, have in zip(live.tolist(), rates.rate[live].tolist(), queue.tolist(),
                             flat[queue].tolist()):
        have = left.get(q, have)
        take = min(r, have)
        if take > 0:
            served[l] = take
            left[q] = have - take
    flat[list(left)] = list(left.values())

    # What the slot-start backlog keeps after service, in link order.
    new = remaining
    # Relayed bits join the receiver's queue; bits reaching a destination of
    # their commodity leave.  np.add.at and cumsum add in link order, so the
    # sums round exactly as a per-link loop's would.
    into = (model.dst, rates.commodity)
    relayed = mask[into]
    np.add.at(new, into, np.where(relayed, served, 0.0))
    left = np.cumsum(np.where(relayed, 0.0, served))
    absorbed = float(left[-1]) if left.size else 0.0
    new += np.where(mask, arrivals, 0.0)
    # Service never exceeds the slot-start backlog, so no clipping occurs;
    # guard against rounding dust all the same.
    np.maximum(new, 0.0, out=new)
    return StepResult(backlog=new, served=served, absorbed=absorbed)


def virtual_rates(amount: np.ndarray, commodity: np.ndarray,
                  traffic: TrafficSpec, model: NetworkModel) -> np.ndarray:
    """(..., n, K) net drain per queue: outgoing minus incoming amounts.

    ``amount`` and ``commodity`` hold one entry per link on their last axis;
    leading axes, such as a run's slots, carry over to the result.  May be
    negative for queues receiving more than they send.  Coordinates without
    a queue (destinations) are zero.  Each queue adds its outgoing amounts
    and then subtracts its incoming ones in link order, so each row of a
    batched call is bit for bit the call on that row alone.
    """
    lead = tuple(i[..., None] for i in np.indices(amount.shape[:-1], sparse=True))
    out = np.zeros(amount.shape[:-1] + (model.n, traffic.n_commodities))
    np.add.at(out, (*lead, model.src, commodity), amount)
    np.subtract.at(out, (*lead, model.dst, commodity), amount)
    return np.where(traffic.queue_mask, out, 0.0)


def arrival_tensor(scenario: Scenario, slots: int, seed: int) -> np.ndarray:
    """All Poisson arrivals for a run, drawn up front.

    Drawing everything first means two schemes run with the same seed see
    identical arrival realizations (common random numbers).  Only the
    nonzero-mean cells are drawn, into the float tensor: a zero-mean cell
    draws no random number, so the tensor is bit for bit the dense draw, and
    the integer draws take only those cells' room.  A negative or NaN mean
    is drawn too, and raises as the dense draw does.
    """
    rng = np.random.default_rng(seed)
    mean = scenario.traffic.arrival_mean
    cells = np.flatnonzero(mean != 0)
    out = np.zeros((slots,) + mean.shape)
    out.reshape(slots, -1)[:, cells] = rng.poisson(mean.reshape(-1)[cells],
                                                   size=(slots, cells.size))
    return out


def _checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


@dataclass
class SimTrace:
    """Per-slot record of one simulation run.

    The trace stores what the run decided and drew; the virtual rates are
    derived from them on each read (``vr_actual``, ``vr_nominal``).
    """

    scheme: str
    seed: int
    slots: int
    scenario: Scenario          # the simulated network and traffic
    backlog: np.ndarray         # (slots+1, n, K)
    arrivals: np.ndarray        # (slots, n, K)
    rate: np.ndarray            # (slots, E) assigned rates
    commodity: np.ndarray       # (slots, E)
    served: np.ndarray          # (slots, E) realized service
    total_backlog: np.ndarray   # (slots+1,)
    lyapunov: np.ndarray        # (slots+1,)
    drift: np.ndarray           # (slots,)
    drift_bound: np.ndarray     # (slots,) with realized virtual rates
    drift_bound_nominal: np.ndarray  # (slots,)
    lambda_term: np.ndarray     # (slots,) 2 (|b| + ||RT||^2)
    solver_iterations: np.ndarray    # (slots,)
    solver_converged: np.ndarray     # (slots,) bool
    objective_first: np.ndarray      # (slots,) weighted rate at slot start
    objective_last: np.ndarray       # (slots,)
    arrival_checksum: str = ""

    @property
    def vr_actual(self) -> np.ndarray:
        """(slots, n, K) realized virtual rates, from the served amounts."""
        return virtual_rates(self.served, self.commodity, self.scenario.traffic,
                             self.scenario.model)

    @property
    def vr_nominal(self) -> np.ndarray:
        """(slots, n, K) assigned virtual rates, from the assigned rates."""
        return virtual_rates(self.rate, self.commodity, self.scenario.traffic,
                             self.scenario.model)

    def queue_vectors(self) -> np.ndarray:
        """(slots+1, n*K) flattened backlog trajectory."""
        return self.backlog.reshape(self.backlog.shape[0], -1)


def run_simulation(scenario: Scenario, scheme: str | MdbScheme, slots: int,
                   config: SimConfig | None = None, seed: int = 0) -> SimTrace:
    """Simulate one run; deterministic in (scenario, scheme, config, seed)."""
    if slots < 1:
        raise ConfigError("slots must be >= 1")
    if config is None:
        config = default_sim_config()
    model = scenario.model
    traffic = scenario.traffic
    if isinstance(scheme, str):
        scheme = make_scheme(scheme, model, traffic, config.solver,
                             config.iterations_per_slot)
    arrivals = arrival_tensor(scenario, slots, seed)

    n, nk = model.n, traffic.n_commodities
    backlog = np.zeros((slots + 1, n, nk))
    rate = np.zeros((slots, model.n_links))
    commodity = np.zeros((slots, model.n_links), dtype=np.intp)
    served = np.zeros((slots, model.n_links))
    iters = np.zeros(slots, dtype=int)
    conv = np.zeros(slots, dtype=bool)
    obj_first = np.zeros(slots)
    obj_last = np.zeros(slots)

    u = np.zeros((n, nk))
    for t in range(slots):
        try:
            assignment, diag = scheme.step(u)
        except (ConfigError, NumericDomainError) as exc:
            raise type(exc)(f"slot {t}: {exc}") from exc
        res = step_queues(u, assignment, arrivals[t], traffic, model)
        rate[t] = assignment.rate
        commodity[t] = assignment.commodity
        served[t] = res.served
        iters[t] = diag.iterations
        conv[t] = diag.converged
        obj_first[t] = diag.objectives[0]
        obj_last[t] = diag.objectives[-1]
        u = res.backlog
        backlog[t + 1] = u

    # Each squared norm once: ||U[t]-U[t-1]||^2, ||B[t]||^2 and ||RT[t]||^2
    # each feed more than one column.
    flat = backlog.reshape(slots + 1, -1)
    total = flat.sum(axis=1)
    mem = ((flat - np.vstack([flat[:1], flat[:-1]])) ** 2).sum(axis=1)   # U[-1] := U[0]
    lyap = (flat * flat).sum(axis=1) + mem
    drift = lyap[1:] - lyap[:-1]

    b_flat = arrivals.reshape(slots, -1)
    b_sq = (b_flat ** 2).sum(axis=1)

    def bound(amount: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The drift bound with the virtual rates of ``amount``, and their ||RT||^2.

        The (slots, n, K) rates live only for this call."""
        vr = virtual_rates(amount, commodity, traffic, model).reshape(slots, -1)
        v_sq = (vr ** 2).sum(axis=1)
        cross = 2.0 * np.einsum("ij,ij->i", flat[:-1], b_flat - vr)
        return cross + 2.0 * (b_sq + v_sq) - mem[:-1], v_sq

    drift_bound, act_sq = bound(served)
    drift_bound_nominal, _ = bound(rate)
    second_moment_l1 = float(traffic.second_moments().sum())
    lam = 2.0 * (second_moment_l1 + act_sq)

    return SimTrace(
        scheme=scheme.name,
        seed=seed,
        slots=slots,
        scenario=scenario,
        backlog=backlog,
        arrivals=arrivals,
        rate=rate,
        commodity=commodity,
        served=served,
        total_backlog=total,
        lyapunov=lyap,
        drift=drift,
        drift_bound=drift_bound,
        drift_bound_nominal=drift_bound_nominal,
        lambda_term=lam,
        solver_iterations=iters,
        solver_converged=conv,
        objective_first=obj_first,
        objective_last=obj_last,
        arrival_checksum=_checksum(arrivals),
    )


def trace_to_csv(trace: SimTrace, out: TextIO, per_queue: bool = False) -> None:
    """Write a trace to ``out`` in the documented column layout, row by row.

    Drift columns describe the transition out of each slot; the final
    boundary row carries empty drift cells.
    """
    header = ["slot", "total_backlog", "V", "realized_drift", "drift_bound",
              "drift_bound_nominal", "lambda_term"]
    if per_queue:
        n, nk = trace.backlog.shape[1], trace.backlog.shape[2]
        header += [f"u_{i}_{k}" for i in range(n) for k in range(nk)]
    out.write(",".join(header) + "\n")
    flat = trace.queue_vectors()
    # Cells come from tolist(), a row at a time so that only one row's
    # Python floats are alive: repr of a Python float is repr(float(x)).
    head = np.column_stack([trace.total_backlog, trace.lyapunov]).tolist()
    drift = np.column_stack([trace.drift, trace.drift_bound, trace.drift_bound_nominal,
                             trace.lambda_term]).tolist()
    for t in range(trace.slots + 1):
        row = [str(t), *map(repr, head[t])]
        row += map(repr, drift[t]) if t < trace.slots else ["", "", "", ""]
        out.write(",".join(row) + (_queue_cells(flat[t]) if per_queue else "") + "\n")


def _queue_cells(row: np.ndarray) -> str:
    """``row`` as one ``,cell`` per cell.  Most queues are empty, so each run
    of +0.0 cells is one string and only the others (-0.0, NaN and the
    infinities among them) go through repr."""
    cells = np.flatnonzero((row != 0) | np.signbit(row))
    zeros = (np.diff(cells, prepend=-1) - 1).tolist()
    tail = row.size - 1 - (int(cells[-1]) if cells.size else -1)
    return "".join([",0.0" * z + "," + v
                    for z, v in zip(zeros, map(repr, row[cells].tolist()))]) + ",0.0" * tail


def curve_to_csv(curve: np.ndarray) -> str:
    lines = ["slot,mean_total_backlog"]
    for t, v in enumerate(curve):
        lines.append(f"{t},{float(v)!r}")
    return "\n".join(lines) + "\n"

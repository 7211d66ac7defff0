"""Slotted stochastic simulation: arrivals, queue updates, trace recording.

Each slot draws Poisson bit arrivals, asks the chosen control scheme for a
rate assignment, then advances the queues.  A link serves at most what its
source queue held at the slot boundary (freed capacity is not reallocated
within the slot), bits relayed during a slot become servable only in the
next one, and arrivals are added after service.  The trace records the
queue trajectory plus the quadratic Lyapunov statistics used to audit the
stability machinery.

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
    # decides which of them the slot-start backlog serves first.
    for l in range(model.n_links):
        r = rates.rate[l]
        if r <= 0:
            continue
        i = model.src[l]
        k = rates.commodity[l]
        take = min(r, remaining[i, k])
        if take > 0:
            served[l] = take
            remaining[i, k] -= take

    new = np.where(mask, backlog, 0.0)
    np.subtract.at(new, (model.src, rates.commodity), served)
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
    """(n, K) net drain per queue: outgoing minus incoming amounts.

    May be negative for queues receiving more than they send.  Coordinates
    without a queue (destinations) are zero.
    """
    n = model.n
    nk = traffic.n_commodities
    out = np.zeros((n, nk))
    np.add.at(out, (model.src, commodity), amount)
    np.subtract.at(out, (model.dst, commodity), amount)
    return np.where(traffic.queue_mask, out, 0.0)


def arrival_tensor(scenario: Scenario, slots: int, seed: int) -> np.ndarray:
    """All Poisson arrivals for a run, drawn up front.

    Drawing everything first means two schemes run with the same seed see
    identical arrival realizations (common random numbers).
    """
    rng = np.random.default_rng(seed)
    return rng.poisson(scenario.traffic.arrival_mean,
                       size=(slots,) + scenario.traffic.arrival_mean.shape).astype(float)


def _checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


@dataclass
class SimTrace:
    """Per-slot record of one simulation run."""

    scheme: str
    seed: int
    slots: int
    backlog: np.ndarray         # (slots+1, n, K)
    arrivals: np.ndarray        # (slots, n, K)
    rate: np.ndarray            # (slots, E) assigned rates
    commodity: np.ndarray       # (slots, E)
    served: np.ndarray          # (slots, E) realized service
    vr_actual: np.ndarray       # (slots, n, K) realized virtual rates
    vr_nominal: np.ndarray      # (slots, n, K) assigned virtual rates
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
    vr_act = np.zeros((slots, n, nk))
    vr_nom = np.zeros((slots, n, nk))
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
        vr_act[t] = virtual_rates(res.served, assignment.commodity, traffic, model)
        vr_nom[t] = virtual_rates(assignment.rate, assignment.commodity, traffic, model)
        iters[t] = diag.iterations
        conv[t] = diag.converged
        obj_first[t] = diag.objectives[0]
        obj_last[t] = diag.objectives[-1]
        u = res.backlog
        backlog[t + 1] = u

    flat = backlog.reshape(slots + 1, -1)
    total = flat.sum(axis=1)
    prev = np.vstack([flat[:1], flat[:-1]])     # U[t-1] with U[-1] := U[0]
    lyap = (flat * flat).sum(axis=1) + ((flat - prev) ** 2).sum(axis=1)
    drift = lyap[1:] - lyap[:-1]

    b_flat = arrivals.reshape(slots, -1)
    mem = ((flat[:-1] - prev[:-1]) ** 2).sum(axis=1)

    def bound(vr: np.ndarray) -> np.ndarray:
        v_flat = vr.reshape(slots, -1)
        cross = 2.0 * np.einsum("ij,ij->i", flat[:-1], b_flat - v_flat)
        quad = 2.0 * ((b_flat ** 2).sum(axis=1) + (v_flat ** 2).sum(axis=1))
        return cross + quad - mem

    second_moment_l1 = float(traffic.second_moments().sum())
    lam = 2.0 * (second_moment_l1 + (vr_act.reshape(slots, -1) ** 2).sum(axis=1))

    return SimTrace(
        scheme=scheme.name,
        seed=seed,
        slots=slots,
        backlog=backlog,
        arrivals=arrivals,
        rate=rate,
        commodity=commodity,
        served=served,
        vr_actual=vr_act,
        vr_nominal=vr_nom,
        total_backlog=total,
        lyapunov=lyap,
        drift=drift,
        drift_bound=bound(vr_act),
        drift_bound_nominal=bound(vr_nom),
        lambda_term=lam,
        solver_iterations=iters,
        solver_converged=conv,
        objective_first=obj_first,
        objective_last=obj_last,
        arrival_checksum=_checksum(arrivals),
    )


def average_runs(scenario: Scenario, scheme: str, runs: int, slots: int,
                 config: SimConfig | None = None) -> tuple[np.ndarray, list[SimTrace]]:
    """Pointwise mean of total-backlog curves across runs with seeds 0 .. runs-1."""
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    traces = [run_simulation(scenario, scheme, slots, config, seed=s) for s in range(runs)]
    mean = np.mean([tr.total_backlog for tr in traces], axis=0)
    return mean, traces


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
        if per_queue:
            row += map(repr, flat[t].tolist())
        out.write(",".join(row) + "\n")


def curve_to_csv(curve: np.ndarray) -> str:
    lines = ["slot,mean_total_backlog"]
    for t, v in enumerate(curve):
        lines.append(f"{t},{float(v)!r}")
    return "\n".join(lines) + "\n"

"""Slotted stochastic simulation: arrivals, queue updates, trace recording.

Each slot draws Poisson bit arrivals, asks the chosen control scheme for a
rate assignment, then advances the queues.  A link serves at most what its
source queue held at the slot boundary (freed capacity is not reallocated
within the slot), bits relayed during a slot become servable only in the
next one, and arrivals are added after service.  The trace records the
queue trajectory, each slot's assigned rates, commodities and realized
service, and the quadratic Lyapunov statistics used to audit the stability
machinery.  What a trace can derive again is not stored.  The arrivals are
a function of the scenario, the slot count and the seed, so
``SimTrace.arrivals`` re-draws them, checked against the run's arrival
checksum.  The virtual rates (net drain per queue) are derived by
``SimTrace.vr_actual`` and ``vr_nominal`` from the served amounts and the
assigned rates; the post-pass derives each once, for its drift bound, and
lets it go.

Lyapunov function on the two-slot state: V[t] = ||U[t]||^2 + ||U[t]-U[t-1]||^2.
The per-slot drift bound recorded is

    2 U[t].(B[t] - RT[t]) + 2 (||B[t]||^2 + ||RT[t]||^2) - ||U[t]-U[t-1]||^2

with RT the realized virtual service rates (so bit conservation is exact:
U[t+1] = U[t] - RT[t] + B[t]).  The bound with nominal assigned rates is
recorded alongside for diagnostics.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from itertools import islice, zip_longest
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
    # The contiguous array's own buffer: the digest of its bytes, no copy.
    return hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()[:16]


@dataclass
class SimTrace:
    """Per-slot record of one simulation run.

    The trace stores what the run decided: the queues, the rates and the
    service.  The arrivals are re-drawn from the scenario and seed
    (``arrivals``), and the virtual rates derived from the stored amounts
    (``vr_actual``, ``vr_nominal``), on each read.  A 400-slot trace on
    ``relay``'s 40-node network holds 7.4 MB, of which the backlog is 5.1.
    """

    scheme: str
    seed: int
    slots: int
    scenario: Scenario          # the simulated network and traffic
    backlog: np.ndarray         # (slots+1, n, K)
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
    arrival_checksum: str       # of the arrivals the run drew

    @property
    def arrivals(self) -> np.ndarray:
        """(slots, n, K) the run's arrivals, re-drawn from its seed.

        Raises ConfigError when the draw's checksum is not the run's, as
        when the scenario's arrival means were changed after the run."""
        arrivals = arrival_tensor(self.scenario, self.slots, self.seed)
        drawn = _checksum(arrivals)
        if drawn != self.arrival_checksum:
            raise ConfigError(f"seed {self.seed} no longer draws the run's arrivals: checksum "
                              f"{drawn}, recorded {self.arrival_checksum}")
        return arrivals

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


# The trace CSV layout: these seven columns, then with ``per_queue`` one
# ``u_<node>_<commodity>`` column per queue, node-major.  The four drift
# columns describe the transition out of a slot, so the last row leaves them empty.
_COLUMNS = ("slot", "total_backlog", "V", "realized_drift", "drift_bound",
            "drift_bound_nominal", "lambda_term")
_V, _LAMBDA = _COLUMNS.index("V"), _COLUMNS.index("lambda_term")
_DRIFT = slice(_COLUMNS.index("realized_drift"), _LAMBDA + 1)


def _header(n: int, nk: int, per_queue: bool) -> list[str]:
    return [*_COLUMNS, *(f"u_{i}_{k}" for i in range(n) for k in range(nk) if per_queue)]


def trace_to_csv(trace: SimTrace, out: TextIO, per_queue: bool = False) -> None:
    """Write a trace to ``out`` in the trace CSV layout, row by row.

    Row t holds slot t's boundary values and the drift columns of the
    transition out of it; the final boundary row carries empty drift cells.
    ``read_trace_csv`` reads what this writes.
    """
    out.write(",".join(_header(*trace.backlog.shape[1:], per_queue)) + "\n")
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


def read_trace_csv(path, scenario: Scenario) -> tuple[np.ndarray, np.ndarray,
                                                       np.ndarray | None]:
    """The (rows,) V column, the lambda_term of every row but the last and the
    (rows, n*K) per-queue backlogs (None without them) of a trace CSV that
    ``trace_to_csv`` wrote for ``scenario``.

    Raises ConfigError, naming the line (the header is line 1) and column,
    for what the writer could not have written: another header, a row of
    another length, a slot cell that is not its row's index, one row alone,
    drift cells on the last row, a cell that is not a finite number, or a
    negative backlog (-0.0 is zero), which would make a drift audit meaningless.
    """
    rows = _csv_rows(path)
    count = next(rows) - 1      # the rows, unless a quoted cell spans lines
    header = next(rows, [])
    n, nk = scenario.model.n, scenario.traffic.n_commodities
    fixed, width = len(_COLUMNS), len(header)
    expected = _header(n, nk, width > fixed)
    if header != expected:
        col = next(c for c, (f, e) in enumerate(zip_longest(header, expected)) if f != e)
        found, want = (repr(h[col]) if col < len(h) else "end of line" for h in (header, expected))
        raise ConfigError(f"trace line 1, column {col + 1}: expected {want}, found {found}; "
                          f"the scenario has {n} nodes and {nk} commodities")
    if count == 1:
        raise ConfigError(f"trace line 2 is the only row, so no row has {header[_LAMBDA]!r}")
    values, t = np.empty((count, width)), -1
    for t, row in enumerate(rows):
        if len(row) < width:
            raise ConfigError(f"trace line {t + 2}, column {header[len(row)]!r} is missing")
        if len(row) > width:
            raise ConfigError(f"trace line {t + 2} has {len(row)} cells, the header {width}")
        if row[0] != str(t):
            raise ConfigError(f"trace line {t + 2}, column {header[0]!r}: expected {str(t)!r}, "
                              f"found {row[0]!r}")
        try:
            values[t] = row
        except ValueError:          # a cell that is not a number reads as NaN
            values[t] = [_number(cell) for cell in row]
        drift = row[_DRIFT]
    if t >= 0 and any(drift):
        raise ConfigError(f"trace line {t + 2} is the last row, whose drift cells are "
                          f"empty, not {drift}")
    values = values[:t + 1]
    values[-1:, _DRIFT] = 0.0       # the last row's empty drift cells
    for t, c in np.argwhere(~np.isfinite(values))[:1]:
        raise ConfigError(f"trace line {t + 2}, column {header[c]!r} is not a finite number: "
                          f"{next(islice(_csv_rows(path), t + 2, None))[c]!r}")
    for t, c in np.argwhere(values[:, fixed:] < 0)[:1]:
        raise ConfigError(f"trace line {t + 2}, column {header[fixed + c]!r} is a negative "
                          f"backlog: {next(islice(_csv_rows(path), t + 2, None))[fixed + c]!r}")
    return values[:, _V], values[:-1, _LAMBDA], values[:, fixed:] if width > fixed else None


def _csv_rows(path):
    """Line count, then rows (line k is item k); every line decoded before any check."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield sum(1 for _ in fh)
            fh.seek(0)
            yield from csv.reader(fh)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


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

"""The benchmark's three workloads and the correctness gate they share.

Each workload builds its inputs in ``setup`` and then repeats one fixed unit of
work, a *pass*, as often as the run's time allows.  Every pass is identical,
so the pass times are samples of one quantity and the results of later
passes must reproduce the first bit for bit.  Only the calls into bpsim are
timed, on a hostspeed.Stopwatch ticked at operation boundaries; the checks
run after them.

The networks are fixed (the acceptance experiment's networks for ``paper``):
topology sets both the solver effort per slot and the backlog level, so
drawing it from the seed would swamp the run-to-run comparison.  The seed
draws everything else: the arrival realizations and the audit's sample
directions.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bpsim.cli as cli
import bpsim.model as model
import bpsim.sim as sim
from bpsim.policy import SCHEME_NAMES
from bpsim.stability import RateRegionOracle

from hostspeed import Stopwatch
from tracer import patched

# Relative slack for checks that compare two float sums.  The invariants
# themselves hold for any summation order; this only absorbs rounding.
TOL = 1e-8


@dataclass
class PassResult:
    """What one pass did and how long its calls into bpsim took."""

    wall_s: float = 0.0         # at the nominal host speed (hostspeed.Stopwatch)
    raw_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    scheme_s: dict = field(default_factory=dict)        # scheme -> raw seconds in its calls
    scheme_slots: dict = field(default_factory=dict)    # scheme -> run-slots simulated
    backlog: dict = field(default_factory=dict)         # scheme -> [last-half mean per run]
    queries: int = 0
    bytes_written: int = 0
    problems: list = field(default_factory=list)

    def add_run(self, scheme: str, seconds: float, trace) -> None:
        self.scheme_s[scheme] = self.scheme_s.get(scheme, 0.0) + seconds
        self.scheme_slots[scheme] = self.scheme_slots.get(scheme, 0) + trace.slots
        self.backlog.setdefault(scheme, []).append(last_half_backlog(trace))

    def timed(self, watch) -> None:
        self.wall_s, self.raw_s = watch.stop(), watch.raw_s

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(what)


def last_half_backlog(trace) -> float:
    return float(trace.total_backlog[trace.slots // 2:].mean())


def trace_problems(tr, model_) -> list[str]:
    """Invariants of one simulated run that survive reordered float sums."""
    out = []
    flat = tr.queue_vectors()
    b = tr.arrivals.reshape(tr.slots, -1)
    vr = tr.vr_actual.reshape(tr.slots, -1)
    scale = max(1.0, float(np.abs(flat).max()))
    # Bit conservation: U[t+1] = U[t] - R~[t] + B[t].
    err = float(np.abs(flat[1:] - (flat[:-1] - vr + b)).max())
    if err > TOL * scale:
        out.append(f"bit conservation off by {err:.3e}")
    # Eq. (7): a queue serves at most its slot-start backlog.
    outflow = np.zeros_like(tr.backlog[:-1])
    t_idx = np.repeat(np.arange(tr.slots), model_.n_links)
    np.add.at(outflow, (t_idx, np.tile(model_.src, tr.slots), tr.commodity.ravel()),
              tr.served.ravel())
    excess = float((outflow - tr.backlog[:-1]).max())
    if excess > TOL * scale:
        out.append(f"service exceeds slot-start backlog by {excess:.3e}")
    if np.any(tr.served > tr.rate + TOL * scale):
        out.append("service exceeds the assigned rate")
    # The ascent never lowers the weighted sum rate within a slot.
    drop = tr.objective_first - tr.objective_last
    if np.any(drop > 0):
        out.append(f"objective fell within {int((drop > 0).sum())} slots")
    return out


class _Captured:
    """Collects what a wrapped bpsim function returned during a pass.

    Each capture also ticks the pass's stopwatch: these calls are the
    operation boundaries inside one long command.
    """

    def __init__(self, watch):
        self.items: list = []
        self.watch = watch

    def wrapper(self, fn, keep):
        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.items.append(keep(args, kwargs, result))
            self.watch.tick()
            return result
        return capture


def _call_cli(argv: list[str]):
    """``bpsim <argv>`` in-process; its exit code, or the exception it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception as exc:        # counted as failed operations by the caller
        return repr(exc)


class Workload:
    name = ""
    SIZE: dict = {}
    # Layers whose spans a traced run of this workload must contain.
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, size: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.size = dict(self.SIZE, **(size or {}))
        self.first: PassResult | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, watch) -> PassResult:
        res = self._run_pass(watch)
        if self.first is None:
            self.first = res
        elif res.backlog != self.first.backlog:
            # Same inputs, same code: a repeated pass must agree exactly.
            res.fail("pass did not reproduce the first pass's backlogs")
        return res

    def _run_pass(self, watch) -> PassResult:
        raise NotImplementedError


class Paper(Workload):
    """Scaled-down replay of the acceptance experiment through run_simulation.

    Both parameter sets, all three schemes on common arrivals, a fresh network
    per run.  Solver and phy do almost all the work here.
    """

    name = "paper"
    layers = ("model", "phy", "solver", "policy", "sim")
    # Four networks per parameter set: per-run cost depends on the arrivals,
    # and averaging four keeps runs with different seeds comparable.
    SIZE = {"params": ((10, 4.0), (5, 7.0)), "runs": 4, "slots": 30}

    def setup(self):
        sz = self.size
        self.scenarios = [(n, mean, r, model.generate_scenario(n, mean, 1000 + r))
                          for n, mean in sz["params"] for r in range(sz["runs"])]
        self.config = sim.default_sim_config()

    def _run_pass(self, watch):
        res = PassResult()
        done = []
        watch.start()
        for n, mean, r, sc in self.scenarios:
            for scheme in SCHEME_NAMES:
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    tr = sim.run_simulation(sc, scheme, self.size["slots"], self.config,
                                            seed=self.seed * 100 + r)
                except Exception as exc:        # counted, reported, run goes on
                    res.fail(f"{scheme} n={n} run {r}: {exc!r}")
                    tr = None
                done.append((n, r, sc, scheme, time.perf_counter() - t0, tr))
                watch.tick()
        res.timed(watch)
        checksums = {}
        for n, r, sc, scheme, seconds, tr in done:
            if tr is None:
                continue
            res.add_run(scheme, seconds, tr)
            checksums.setdefault((n, r), set()).add(tr.arrival_checksum)
            for p in trace_problems(tr, sc.model):
                res.fail(f"{scheme} n={n} run {r}: {p}")
        for (n, r), sums in checksums.items():
            if len(sums) > 1:
                res.fail(f"n={n} run {r}: arrival checksums differ across schemes")
        return res


class Relay(Workload):
    """``bpsim run --scheme iter-once --per-queue`` on one 40-node scenario.

    One solver iteration per slot, so per-solve set-up, the per-link loops
    of the queue update and the per-queue CSV rendering carry the cost.
    """

    name = "relay"
    layers = ("model", "phy", "solver", "policy", "sim", "cli")
    SIZE = {"n": 40, "mean": 0.05, "net_seed": 2000, "runs": 3, "slots": 400}

    def setup(self):
        sz = self.size
        self.scenario = model.generate_scenario(sz["n"], sz["mean"], sz["net_seed"])
        self.scenario_path = self.workdir / "relay_scenario.json"
        model.save_scenario(self.scenario, self.scenario_path)
        self.passes = 0

    def _run_pass(self, watch):
        sz = self.size
        res = PassResult(attempted=sz["runs"])
        out = self.workdir / f"relay_pass{self.passes}"
        self.passes += 1
        traces = _Captured(watch)
        argv = ["run", "--scenario", str(self.scenario_path), "--scheme", "iter-once",
                "--slots", str(sz["slots"]), "--runs", str(sz["runs"]),
                "--seed", str(self.seed * 100), "--per-queue", "--out", str(out)]
        with patched("bpsim.cli", "run_simulation",
                     lambda fn: traces.wrapper(fn, lambda a, k, r: r)):
            watch.start()
            code = _call_cli(argv)
            res.timed(watch)
        if code != 0:
            res.fail(f"bpsim run returned {code}", sz["runs"])
            return res
        # summary.csv: scheme,runs,slots,mean_total_backlog_last_half, then
        # one arrival checksum per run.
        checksums = (out / "summary.csv").read_text().splitlines()[1].split(",")[4:]
        for r, tr in enumerate(traces.items):
            res.add_run("iter-once", res.raw_s / sz["runs"], tr)
            problems = trace_problems(tr, self.scenario.model)
            if checksums[r:r + 1] != [tr.arrival_checksum]:
                problems.append("summary checksum differs from the run's arrivals")
            written = (out / f"trace_iter-once_run{r}.csv").read_text().splitlines()
            if (len(written) != tr.slots + 2
                    or float(written[-1].split(",")[1]) != float(tr.total_backlog[-1])):
                problems.append("trace CSV does not match the simulated run")
            for p in problems:
                res.fail(f"run {r}: {p}")
        if len(traces.items) != sz["runs"]:
            res.fail("bpsim run simulated the wrong number of runs", sz["runs"])
        res.bytes_written = sum(f.stat().st_size for f in out.iterdir())
        shutil.rmtree(out)
        return res


class Audit(Workload):
    """``bpsim verify`` with its default sample counts on a per-queue trace.

    The trace is recorded in set-up by the cheap ``iter-once`` scheme.  The
    audit's solves are cold starts at the certificate tolerance, so it sees
    cold convergence, which the per-slot warm solves of the other two
    workloads hide.
    """

    name = "audit"
    layers = ("model", "phy", "solver", "policy", "sim", "stability", "cli")
    # Three verify calls with different sample seeds per pass: one call's
    # cost depends on its sample directions, and averaging three keeps runs
    # with different seeds comparable.
    SIZE = {"n": 5, "mean": 7.0, "net_seed": 1000, "slots": 200, "verify_calls": 3,
            "verify_args": (), "feasible_samples": 64}

    def setup(self):
        sz = self.size
        out = self.workdir / "audit_record"
        if out.exists():
            shutil.rmtree(out)
        scenario = model.generate_scenario(sz["n"], sz["mean"], sz["net_seed"])
        self.scenario_path = self.workdir / "audit_scenario.json"
        model.save_scenario(scenario, self.scenario_path)
        traces = _Captured(Stopwatch(sample=False))
        with patched("bpsim.cli", "run_simulation",
                     lambda fn: traces.wrapper(fn, lambda a, k, r: r)):
            code = _call_cli(["run", "--scenario", str(self.scenario_path),
                              "--scheme", "iter-once", "--slots", str(sz["slots"]),
                              "--runs", "1", "--seed", str(self.seed * 100),
                              "--per-queue", "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"recording the audit trace returned {code}")
        self.trace = traces.items[0]
        self.trace_path = out / "trace_iter-once_run0.csv"
        self.recorded_problems = trace_problems(self.trace, scenario.model)
        oracle = RateRegionOracle(scenario.model, scenario.traffic)
        rng = np.random.default_rng(self.seed)
        self.feasible = oracle.sample_rates(sz["feasible_samples"], rng).reshape(
            sz["feasible_samples"], -1)

    def _run_pass(self, watch):
        res = PassResult(backlog={"iter-once": [last_half_backlog(self.trace)]})
        supports, excesses = _Captured(watch), _Captured(watch)
        owner = "bpsim.stability.RateRegionOracle"
        codes = []
        with patched(owner, "support", lambda fn: supports.wrapper(
                fn, lambda a, k, r: (np.where(a[0].mask(), a[1], 0.0).ravel(), r[0]))), \
             patched(owner, "directional_excess",
                     lambda fn: excesses.wrapper(fn, lambda a, k, r: r)):
            watch.start()
            for call in range(self.size["verify_calls"]):
                codes.append(_call_cli(
                    ["verify", "--scenario", str(self.scenario_path),
                     "--trace", str(self.trace_path),
                     "--out", str(self.workdir / f"audit_report{call}.csv"),
                     "--sample-seed", str(self.seed * 10 + call),
                     *self.size["verify_args"]]))
            res.timed(watch)
        res.queries = len(supports.items) + len(excesses.items)
        res.attempted = max(res.queries, 1)
        if any(code != 0 for code in codes):
            res.fail(f"bpsim verify returned {codes}", res.attempted)
            return res
        for call in range(self.size["verify_calls"]):
            report = self.workdir / f"audit_report{call}.csv"
            res.bytes_written += report.stat().st_size
            if not report.read_text().startswith("slot,V,omega,lhs,violation\n"):
                res.fail("verify report has the wrong header")
        for p in self.recorded_problems:
            res.fail(f"recorded trace: {p}")
        # support(u) >= u.y for every feasible y.
        for u, value in supports.items:
            best = float((self.feasible @ u).max())
            if not np.isfinite(value) or value < best - TOL * max(1.0, abs(best)):
                res.fail(f"support {value!r} below a feasible point's {best!r}")
        for value in excesses.items:
            if not (np.isfinite(value) and value >= 0.0):
                res.fail(f"directional excess {value!r} is not a nonnegative number")
        return res


WORKLOADS = {w.name: w for w in (Paper, Relay, Audit)}

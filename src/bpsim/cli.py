"""Command line entry point: scenario generation, experiments, verification.

Subcommands
    generate  write a random scenario file
    run       simulate one or more schemes on common arrival realizations
    verify    audit a recorded trace against the stability geometry

Exit codes: 0 success, 2 configuration error, 3 numeric failure.  The
environment variable BPSIM_THREADS caps the number of parallel runs.
``run`` writes each run's trace as the run ends, into a staging directory
beside ``--out``, and moves the files into ``--out`` once every run is done:
a run that fails leaves no ``--out`` and no staging directory.  ``verify``
reads its trace with ``sim.read_trace_csv``: a file ``run`` could not have
written ends with exit code 2, naming its line and column, before any solve.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import secrets
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericDomainError
from .model import Scenario, generate_scenario, load_scenario, reserve, save_scenario
from .policy import SCHEME_NAMES
from .sim import (SimConfig, curve_to_csv, default_sim_config, read_trace_csv, run_simulation,
                  trace_to_csv)
from .solver import SolverConfig
from .stability import (REPORT_HEADER, RateRegionOracle, check_drift_condition,
                        estimate_epsilon)

_PLOT_STUB = """\
#!/usr/bin/env python3
# Plot the averaged backlog curves written next to this script.
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).parent
for f in sorted(here.glob("avg_*.csv")):
    slots, vals = [], []
    with open(f) as fh:
        for row in csv.DictReader(fh):
            slots.append(int(row["slot"]))
            vals.append(float(row["mean_total_backlog"]))
    plt.plot(slots, vals, label=f.stem.replace("avg_", ""))
plt.xlabel("slot")
plt.ylabel("average total backlog (bits)")
plt.legend()
plt.savefig(here / "backlogs.png", dpi=150)
print("wrote", here / "backlogs.png")
"""


def _parse_generate_tokens(tokens: list[str]) -> tuple[int, float, int]:
    vals: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"--generate expects key=value tokens, got {tok!r}")
        key, _, val = tok.partition("=")
        vals[key] = val
    missing = {"n", "B", "seed"} - vals.keys()
    if missing:
        raise ConfigError(f"--generate missing {sorted(missing)}")
    try:
        return int(vals["n"]), float(vals["B"]), int(vals["seed"])
    except ValueError as exc:
        raise ConfigError(f"bad --generate value: {exc}") from exc


def _scenario_from_args(args) -> Scenario:
    if getattr(args, "scenario", None):
        return load_scenario(args.scenario)
    if getattr(args, "generate", None):
        n, mean, seed = _parse_generate_tokens(args.generate)
        return generate_scenario(n, mean, seed)
    raise ConfigError("provide --scenario <file> or --generate n=<N> B=<mean> seed=<s>")


def cmd_generate(args) -> int:
    n, mean, seed = _parse_generate_tokens(args.params)
    scenario = generate_scenario(n, mean, seed)
    save_scenario(scenario, args.out)
    print(f"wrote {args.out} ({n} nodes, arrival mean {mean}, seed {seed})")
    return 0


def _sim_config(args) -> SimConfig:
    solver = SolverConfig(kkt_tolerance=args.kkt_tol, max_iterations=args.max_iter)
    return SimConfig(solver=solver, iterations_per_slot=args.iterations)


def _run_one(payload) -> tuple[str, int, np.ndarray, str]:
    """Simulate one run and write its trace CSV; only the run's total-backlog
    curve and arrival checksum outlive the call."""
    scenario, scheme, slots, config, seed, path, per_queue = payload
    trace = run_simulation(scenario, scheme, slots, config, seed=seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        trace_to_csv(trace, fh, per_queue=per_queue)
    return scheme, seed, trace.total_backlog, trace.arrival_checksum


@contextlib.contextmanager
def _staged(outdir: Path):
    """A new directory beside ``outdir`` whose files move into ``outdir``
    when the block succeeds.

    When the block or the move fails, the staging directory and the
    ancestors of ``outdir`` made for it are removed, so no ``outdir`` is
    made and an existing one keeps its contents.  An ``outdir`` that exists
    and is not a directory is refused before the block runs.
    """
    if outdir.exists() and not outdir.is_dir():
        raise ConfigError(f"--out {outdir} exists and is not a directory")
    made = [p for p in outdir.parents if not p.exists()]     # deepest first
    staging = None
    try:
        outdir.parent.mkdir(parents=True, exist_ok=True)
        staging = outdir.parent / f".{outdir.name}.{secrets.token_hex(4)}.partial"
        staging.mkdir()
        yield staging
        if outdir.exists():
            for f in staging.iterdir():
                f.replace(outdir / f.name)
            staging.rmdir()
        else:
            staging.rename(outdir)
    except BaseException:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        for p in made:
            with contextlib.suppress(OSError):
                p.rmdir()
        raise


def _max_workers(jobs: int) -> int:
    env = os.environ.get("BPSIM_THREADS", "").strip()
    if not env:
        return max(1, min(os.cpu_count() or 1, jobs))
    bad = ConfigError(f"BPSIM_THREADS must be a positive integer, got {env!r}")
    try:
        cap = int(env)
    except ValueError:
        raise bad from None
    if cap < 1:
        raise bad
    return min(cap, jobs)


def _require_nonnegative_seed(flag: str, value: int) -> None:
    if value < 0:
        raise ConfigError(f"{flag} must be a nonnegative integer, got {value}")


def cmd_run(args) -> int:
    _require_nonnegative_seed("--seed", args.seed)
    scenario = _scenario_from_args(args)
    schemes = [s.strip() for s in args.scheme.split(",") if s.strip()]
    if not schemes:
        raise ConfigError("at least one scheme is required")
    for s in schemes:
        if s not in SCHEME_NAMES:
            raise ConfigError(f"unknown scheme {s!r}; choose from {SCHEME_NAMES}")
    if args.runs < 1 or args.slots < 1:
        raise ConfigError("runs and slots must be >= 1")
    if args.iterations < 1:
        raise ConfigError(f"--iterations must be >= 1, got {args.iterations}")
    # A run's largest arrays hold a value per slot and link, or per slot and queue.
    m, queues = scenario.model, scenario.traffic.arrival_mean.size
    reserve((args.slots + 1, max(m.n_links, queues)),
            f"--slots {args.slots} is too many slots to simulate")
    config = _sim_config(args)
    workers = _max_workers(len(schemes) * args.runs)
    outdir = Path(args.out)
    with _staged(outdir) as staging:
        save_scenario(scenario, staging / "scenario.json")
        echo = {
            "schemes": schemes, "slots": args.slots, "runs": args.runs,
            "seed": args.seed, "iterations_per_slot": args.iterations,
            "kkt_tolerance": args.kkt_tol, "max_iterations": args.max_iter,
            "per_queue": bool(args.per_queue),
        }
        (staging / "config_echo.json").write_text(
            json.dumps(echo, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        # Same per-run seed for every scheme: identical arrival realizations.
        # Each run writes its trace CSV as it finishes and keeps only its
        # total-backlog curve and checksum, so one trace is alive per worker.
        jobs = [(scenario, scheme, args.slots, config, args.seed + r,
                 staging / f"trace_{scheme}_run{r}.csv", args.per_queue)
                for scheme in schemes for r in range(args.runs)]
        results: dict[tuple[str, int], tuple[np.ndarray, str]] = {}
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for scheme, seed, curve, checksum in pool.map(_run_one, jobs):
                    results[(scheme, seed)] = curve, checksum
        else:
            for payload in jobs:
                scheme, seed, curve, checksum = _run_one(payload)
                results[(scheme, seed)] = curve, checksum

        summary = ["scheme,runs,slots,mean_total_backlog_last_half,arrival_checksum"]
        for scheme in schemes:
            curves, checksums = zip(*(results[(scheme, args.seed + r)]
                                      for r in range(args.runs)))
            mean = np.mean(curves, axis=0)
            (staging / f"avg_{scheme}.csv").write_text(
                curve_to_csv(mean), encoding="utf-8", newline="\n")
            last_half = float(mean[args.slots // 2:].mean())
            summary.append(f"{scheme},{args.runs},{args.slots},{last_half!r},"
                           f"{','.join(checksums)}")
        (staging / "summary.csv").write_text("\n".join(summary) + "\n",
                                             encoding="utf-8", newline="\n")
        (staging / "plot_backlogs.py").write_text(_PLOT_STUB, encoding="utf-8")
    print(f"wrote {outdir} ({len(jobs)} runs, {workers} workers)")
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("--epsilon", args.epsilon), ("--eps0", args.eps0)):
        # NaN fails the comparison, so it is rejected with the infinities.
        if value is not None and not 0 < value < math.inf:
            raise ConfigError(f"{flag} must be finite and positive, got {value!r}")
    for flag, value in (("--eps-samples", args.eps_samples),
                        ("--direction-samples", args.direction_samples)):
        if value < 1:
            raise ConfigError(f"{flag} must be a positive integer, got {value}")
    _require_nonnegative_seed("--sample-seed", args.sample_seed)
    scenario = load_scenario(args.scenario)
    lyap, lam, flat = read_trace_csv(args.trace, scenario)
    out = Path(args.out)
    if not lyap.size:
        out.write_text(REPORT_HEADER, encoding="utf-8", newline="\n")
        print("empty trace; wrote empty report")
        return 0
    if flat is None:
        raise ConfigError(
            "trace has no per-queue columns; rerun the experiment with --per-queue")

    rng = np.random.default_rng(args.sample_seed)
    oracle = RateRegionOracle(scenario.model, scenario.traffic)
    a = scenario.traffic.arrival_mean
    eps = args.epsilon
    if eps is None:
        eps = estimate_epsilon(oracle, a, rng, samples=args.eps_samples)
        print(f"sampled upper bound on the interior margin eps = {float(eps)!r}")
    if eps <= 0:
        raise ConfigError("arrival point has no positive interior margin")
    report = check_drift_condition(oracle, a, eps, float(lam.max()), args.eps0, lyap, flat, rng,
                                   direction_samples=args.direction_samples)
    out.write_text(report.to_csv(), encoding="utf-8", newline="\n")
    print(f"checked {len(report.checked)} slots above omega={report.omega!r}; "
          f"{report.violations} violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bpsim", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random scenario file")
    g.add_argument("params", nargs="+", metavar="k=v",
                   help="n=<nodes> B=<arrival mean> seed=<seed>")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="simulate schemes on common arrivals")
    r.add_argument("--scenario", help="scenario file to load")
    r.add_argument("--generate", nargs="+", metavar="k=v",
                   help="generate a scenario instead: n=<N> B=<mean> seed=<s>")
    r.add_argument("--scheme", default=",".join(SCHEME_NAMES),
                   help="comma separated subset of " + ",".join(SCHEME_NAMES))
    r.add_argument("--slots", type=int, default=1000)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed", type=int, default=0)
    defaults = default_sim_config()
    r.add_argument("--iterations", type=int, default=defaults.iterations_per_slot,
                   help="per-slot iteration budget of iter-conv")
    r.add_argument("--kkt-tol", type=float, default=defaults.solver.kkt_tolerance)
    r.add_argument("--max-iter", type=int, default=defaults.solver.max_iterations)
    r.add_argument("--per-queue", action="store_true",
                   help="record per-queue backlogs in trace CSVs")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="stability geometry audit of a trace")
    v.add_argument("--scenario", required=True)
    v.add_argument("--trace", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--epsilon", type=float, default=None,
                   help="interior margin; defaults to a sampled upper bound from the region")
    v.add_argument("--eps0", type=float, default=1.0)
    v.add_argument("--eps-samples", type=int, default=48)
    v.add_argument("--direction-samples", type=int, default=16)
    v.add_argument("--sample-seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericDomainError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

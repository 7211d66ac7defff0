"""Command line entry point: scenario generation, experiments, verification.

Subcommands
    generate  write a random scenario file
    run       simulate one or more schemes on common arrival realizations
    verify    audit a recorded trace against the stability geometry

Exit codes: 0 success, 2 configuration error, 3 numeric failure.  The
environment variable BPSIM_THREADS caps the number of parallel runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericDomainError
from .model import Scenario, generate_scenario, load_scenario, save_scenario
from .policy import SCHEME_NAMES
from .sim import SimConfig, SimTrace, curve_to_csv, run_simulation, trace_to_csv
from .solver import SolverConfig
from .stability import RateRegionOracle, check_drift_condition, estimate_epsilon

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


def _run_one(payload) -> tuple[str, int, SimTrace]:
    scenario, scheme, slots, config, seed = payload
    return scheme, seed, run_simulation(scenario, scheme, slots, config, seed=seed)


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


def cmd_run(args) -> int:
    scenario = _scenario_from_args(args)
    schemes = [s.strip() for s in args.scheme.split(",") if s.strip()]
    if not schemes:
        raise ConfigError("at least one scheme is required")
    for s in schemes:
        if s not in SCHEME_NAMES:
            raise ConfigError(f"unknown scheme {s!r}; choose from {SCHEME_NAMES}")
    if args.runs < 1 or args.slots < 1:
        raise ConfigError("runs and slots must be >= 1")
    config = _sim_config(args)
    # Same per-run seed for every scheme: identical arrival realizations.
    jobs = [(scenario, scheme, args.slots, config, args.seed + r)
            for scheme in schemes for r in range(args.runs)]
    workers = _max_workers(len(jobs))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    save_scenario(scenario, outdir / "scenario.json")
    echo = {
        "schemes": schemes, "slots": args.slots, "runs": args.runs,
        "seed": args.seed, "iterations_per_slot": args.iterations,
        "kkt_tolerance": args.kkt_tol, "max_iterations": args.max_iter,
        "per_queue": bool(args.per_queue),
    }
    (outdir / "config_echo.json").write_text(
        json.dumps(echo, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    results: dict[tuple[str, int], SimTrace] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for scheme, seed, trace in pool.map(_run_one, jobs):
                results[(scheme, seed)] = trace
    else:
        for payload in jobs:
            scheme, seed, trace = _run_one(payload)
            results[(scheme, seed)] = trace

    summary = ["scheme,runs,slots,mean_total_backlog_last_half,arrival_checksum"]
    for scheme in schemes:
        traces = [results[(scheme, args.seed + r)] for r in range(args.runs)]
        for r, tr in enumerate(traces):
            path = outdir / f"trace_{scheme}_run{r}.csv"
            path.write_text(trace_to_csv(tr, per_queue=args.per_queue),
                            encoding="utf-8", newline="\n")
        mean = np.mean([tr.total_backlog for tr in traces], axis=0)
        (outdir / f"avg_{scheme}.csv").write_text(
            curve_to_csv(mean), encoding="utf-8", newline="\n")
        last_half = float(mean[args.slots // 2:].mean())
        combined = ",".join(tr.arrival_checksum for tr in traces)
        summary.append(f"{scheme},{args.runs},{args.slots},{last_half!r},{combined}")
    (outdir / "summary.csv").write_text("\n".join(summary) + "\n",
                                        encoding="utf-8", newline="\n")
    (outdir / "plot_backlogs.py").write_text(_PLOT_STUB, encoding="utf-8")
    print(f"wrote {outdir} ({len(jobs)} runs, {workers} workers)")
    return 0


def _read_trace_csv(path: Path) -> tuple[list[dict], list[str]]:
    import csv as _csv
    with open(path, newline="") as fh:
        reader = _csv.DictReader(fh)
        return list(reader), list(reader.fieldnames or [])


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    rows, fields = _read_trace_csv(Path(args.trace))
    out = Path(args.out)
    if not rows:
        out.write_text("slot,V,omega,lhs,violation\n", encoding="utf-8", newline="\n")
        print("empty trace; wrote empty report")
        return 0
    qcols = [c for c in fields if c.startswith("u_")]
    if not qcols:
        raise ConfigError(
            "trace has no per-queue columns; rerun the experiment with --per-queue")
    n = scenario.model.n
    nk = scenario.traffic.n_commodities
    flat = np.array([[float(r[c]) for c in qcols] for r in rows])
    if flat.shape[1] != n * nk:
        raise ConfigError("per-queue columns do not match the scenario size")
    lyap = np.array([float(r["V"]) for r in rows])
    lam_col = [float(r["lambda_term"]) for r in rows[:-1] if r.get("lambda_term")]
    lam = max(lam_col) if lam_col else None

    rng = np.random.default_rng(args.sample_seed)
    oracle = RateRegionOracle(scenario.model, scenario.traffic)
    a = scenario.traffic.arrival_mean
    eps = args.epsilon
    if eps is None:
        eps = estimate_epsilon(oracle, a, rng, samples=args.eps_samples)
        print(f"estimated interior margin eps = {eps:.6g}")
    if eps <= 0:
        raise ConfigError("arrival point has no positive interior margin")
    if lam is None:
        raise ConfigError("trace lacks lambda_term values")
    report = check_drift_condition(oracle, a, eps, lam, args.eps0, lyap, flat, rng,
                                   direction_samples=args.direction_samples)
    out.write_text(report.to_csv(), encoding="utf-8", newline="\n")
    print(f"checked {len(report.checked)} slots above omega={report.omega:.6g}; "
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
    r.add_argument("--iterations", type=int, default=50,
                   help="per-slot iteration budget of iter-conv")
    r.add_argument("--kkt-tol", type=float, default=1e-4)
    r.add_argument("--max-iter", type=int, default=150)
    r.add_argument("--per-queue", action="store_true",
                   help="record per-queue backlogs in trace CSVs")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="stability geometry audit of a trace")
    v.add_argument("--scenario", required=True)
    v.add_argument("--trace", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--epsilon", type=float, default=None,
                   help="interior margin; estimated from the region if omitted")
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericDomainError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

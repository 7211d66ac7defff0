"""End-to-end command line behavior: generate, run, verify, exit codes."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from bpsim.cli import main
from bpsim.model import load_scenario


def _read(path: Path) -> bytes:
    return Path(path).read_bytes()


def test_generate_writes_deterministic_file(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "n=6", "B=4", "seed=3", "--out", str(a)]) == 0
    assert main(["generate", "n=6", "B=4", "seed=3", "--out", str(b)]) == 0
    assert _read(a) == _read(b)
    sc = load_scenario(a)
    assert sc.model.n == 6
    assert sc.traffic.arrival_mean.max() == 4.0


def test_generate_rejects_one_node(tmp_path):
    out = tmp_path / "x.json"
    assert main(["generate", "n=1", "B=4", "seed=3", "--out", str(out)]) == 2
    assert not out.exists()


def test_generate_rejects_malformed_params(tmp_path):
    out = tmp_path / "x.json"
    assert main(["generate", "n=6", "B=four", "seed=3", "--out", str(out)]) == 2
    assert main(["generate", "n=6", "--out", str(out)]) == 2


# Sizes whose (n, n, 2) distance arrays numpy refuses at once: 1e8 nodes need
# 142 PiB, beyond any address space, and 1e14 nodes overflow the array size.
# A size that numpy would really allocate is never tried.
@pytest.mark.parametrize("n", [10**8, 10**14])
@pytest.mark.parametrize("command", ["generate", "run"])
def test_generation_rejects_unallocatable_sizes(tmp_path, capsys, n, command):
    params = [f"n={n}", "B=4", "seed=1"]
    argv = (["generate", *params] if command == "generate"
            else ["run", "--generate", *params, "--slots", "5", "--runs", "1"])
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert f"n={n}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# Run lengths whose per-slot arrays numpy refuses at once: 1e13 slots of a
# 5-node scenario need 1.78 PiB, and 1e20 slots overflow the array size.
@pytest.mark.parametrize("slots", [10**13, 10**20])
def test_run_rejects_unallocatable_slot_counts(tmp_path, capsys, slots):
    out = tmp_path / "x"
    assert main(["run", "--generate", "n=5", "B=7", "seed=1", "--slots", str(slots),
                 "--runs", "1", "--scheme", "iter-once", "--out", str(out)]) == 2
    assert f"--slots {slots}" in capsys.readouterr().err
    assert not out.exists()


def _fail_second_run(real):
    """``run_simulation`` whose second run (seed 1) fails in slot 3."""
    from bpsim.errors import NumericDomainError

    def run(scenario, scheme, slots, config, seed):
        if seed == 1:
            raise NumericDomainError("slot 3: non-finite power marginal gain")
        return real(scenario, scheme, slots, config, seed=seed)
    return run


def _block_second_trace(real):
    """``save_scenario`` that also puts a directory where run 1's trace CSV
    goes, so the worker process writing that file fails."""
    def save(scenario, path):
        real(scenario, path)
        (Path(path).parent / "trace_iter-once_run1.csv").mkdir()
    return save


def _fail_writing(real):
    """``trace_to_csv`` that writes part of a row and then finds the disk full."""
    def write(trace, fh, per_queue=False):
        fh.write("slot,total_backlog\n0,")
        raise OSError(28, "No space left on device")
    return write


def test_run_failing_mid_simulation_leaves_no_output(tmp_path, capsys, monkeypatch):
    """A run that fails after run 0's files are staged, a run whose worker
    process fails, and a trace CSV that fails while it is written: each
    exits with its code and leaves no staging directory, and either no
    ``--out`` (nor the parent made for it) or the existing ``--out`` as it was."""
    import bpsim.cli

    cases = [("second_run", "1", "run_simulation", _fail_second_run, 3, "slot 3"),
             ("worker", "2", "save_scenario", _block_second_trace, 2, "Is a directory"),
             ("trace_to_csv", "1", "trace_to_csv", _fail_writing, 2, "No space left")]
    for point, threads, name, make, code, message in cases:
        for existing in (False, True):
            base = tmp_path / f"{point}_{existing}"
            base.mkdir()
            out = base / "x" if existing else base / "made" / "x"
            if existing:
                out.mkdir()
                (out / "summary.csv").write_text("kept\n")
            with monkeypatch.context() as mp:
                mp.setenv("BPSIM_THREADS", threads)
                mp.setattr(bpsim.cli, name, make(getattr(bpsim.cli, name)))
                got = main(["run", "--generate", "n=4", "B=2", "seed=1", "--scheme",
                            "iter-once", "--slots", "5", "--runs", "2", "--seed", "0",
                            "--out", str(out)])
            assert got == code, point
            assert message in capsys.readouterr().err, point
            if existing:
                assert os.listdir(base) == ["x"], point
                assert os.listdir(out) == ["summary.csv"], point
                assert (out / "summary.csv").read_text() == "kept\n", point
            else:
                assert os.listdir(base) == [], point


def test_run_refuses_an_existing_file_as_out_before_any_run(tmp_path, capsys, monkeypatch):
    """``--out`` naming an existing file exits 2 before a single run is
    simulated, and leaves the file and its directory as they were."""
    import bpsim.cli

    def never(*args, **kwargs):
        raise AssertionError("run_simulation was called")

    monkeypatch.setenv("BPSIM_THREADS", "1")
    monkeypatch.setattr(bpsim.cli, "run_simulation", never)
    out = tmp_path / "x"
    out.write_text("kept\n")
    assert main(["run", "--generate", "n=4", "B=2", "seed=1", "--scheme", "iter-once",
                 "--slots", "5", "--runs", "2", "--out", str(out)]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["x"]
    assert out.read_text() == "kept\n"


def test_run_stages_each_trace_as_its_run_ends(tmp_path, monkeypatch):
    """In this process, a run's trace CSV is in the staging directory before
    the next run starts, no finished run's SimTrace is still alive then, and
    the files move into ``--out`` only when every run is done."""
    import gc
    import weakref

    import bpsim.cli

    real = bpsim.cli.run_simulation
    traces, seen = [], []

    def tracking(scenario, scheme, slots, config, seed):
        gc.collect()
        staged = [p for p in tmp_path.iterdir() if p.name.endswith(".partial")]
        seen.append((sum(t() is not None for t in traces), out.exists(),
                     sorted(f.name for f in staged[0].glob("trace_*"))))
        trace = real(scenario, scheme, slots, config, seed=seed)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setenv("BPSIM_THREADS", "1")
    monkeypatch.setattr(bpsim.cli, "run_simulation", tracking)
    out = tmp_path / "x"
    assert main(["run", "--generate", "n=4", "B=2", "seed=1", "--scheme", "iter-once",
                 "--slots", "5", "--runs", "3", "--per-queue", "--out", str(out)]) == 0
    gc.collect()
    assert seen == [(0, False, []),
                    (0, False, ["trace_iter-once_run0.csv"]),
                    (0, False, ["trace_iter-once_run0.csv", "trace_iter-once_run1.csv"])]
    assert all(t() is None for t in traces)
    assert os.listdir(tmp_path) == ["x"]
    assert (out / "trace_iter-once_run2.csv").exists()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_runs")
    scen = base / "scen.json"
    assert main(["generate", "n=5", "B=3", "seed=2", "--out", str(scen)]) == 0
    out = base / "exp"
    code = main(["run", "--scenario", str(scen), "--slots", "40", "--runs", "2",
                 "--seed", "7", "--iterations", "10", "--kkt-tol", "1e-3",
                 "--max-iter", "40", "--per-queue", "--out", str(out)])
    assert code == 0
    return base, scen, out


def test_run_outputs_exist(run_dir):
    _, _, out = run_dir
    names = {p.name for p in out.iterdir()}
    for scheme in ("instant", "iter-conv", "iter-once"):
        assert f"avg_{scheme}.csv" in names
        assert f"trace_{scheme}_run0.csv" in names
        assert f"trace_{scheme}_run1.csv" in names
    assert "summary.csv" in names
    assert "config_echo.json" in names
    assert "scenario.json" in names
    assert "plot_backlogs.py" in names


def test_run_common_arrivals_across_schemes(run_dir):
    _, _, out = run_dir
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    checksums = {r.split(",")[0]: r.split(",")[-1] for r in rows}
    assert len(set(checksums.values())) == 1


def test_run_average_recomputable_from_runs(run_dir):
    import csv
    _, _, out = run_dir
    for scheme in ("instant", "iter-once"):
        runs = []
        for r in range(2):
            with open(out / f"trace_{scheme}_run{r}.csv") as fh:
                rows = list(csv.DictReader(fh))
            runs.append([float(x["total_backlog"]) for x in rows])
        mean = np.mean(runs, axis=0)
        with open(out / f"avg_{scheme}.csv") as fh:
            avg = [float(x["mean_total_backlog"]) for x in csv.DictReader(fh)]
        assert np.allclose(mean, avg, atol=1e-12)


def test_run_reproducible_byte_identical(run_dir, tmp_path):
    base, scen, out = run_dir
    out2 = tmp_path / "exp2"
    code = main(["run", "--scenario", str(scen), "--slots", "40", "--runs", "2",
                 "--seed", "7", "--iterations", "10", "--kkt-tol", "1e-3",
                 "--max-iter", "40", "--per-queue", "--out", str(out2)])
    assert code == 0
    for p in sorted(out.iterdir()):
        assert _read(p) == _read(out2 / p.name), p.name


def test_run_with_inline_generation(tmp_path):
    out = tmp_path / "gen_exp"
    code = main(["run", "--generate", "n=4", "B=2", "seed=9",
                 "--scheme", "iter-once", "--slots", "10", "--runs", "1",
                 "--out", str(out)])
    assert code == 0
    assert (out / "avg_iter-once.csv").exists()


def test_run_rejects_unknown_scheme(tmp_path):
    code = main(["run", "--generate", "n=4", "B=2", "seed=9",
                 "--scheme", "warp-drive", "--slots", "5", "--runs", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_run_rejects_a_repeated_scheme(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["run", "--generate", "n=4", "B=2", "seed=9",
                 "--scheme", "iter-once,instant,iter-once", "--slots", "5", "--runs", "1",
                 "--out", str(out)])
    assert code == 2
    assert "'iter-once'" in capsys.readouterr().err
    assert not out.exists()


def test_run_requires_scenario_source(tmp_path):
    code = main(["run", "--slots", "5", "--runs", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_verify_missing_scenario_errors(tmp_path):
    code = main(["verify", "--scenario", str(tmp_path / "nope.json"),
                 "--trace", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2


def test_verify_empty_trace_empty_report(run_dir, tmp_path):
    _, scen, out = run_dir
    empty = tmp_path / "empty.csv"
    header = (out / "trace_instant_run0.csv").read_text().split("\n")[0]
    empty.write_text(header + "\n")
    report = tmp_path / "report.csv"
    code = main(["verify", "--scenario", str(scen), "--trace", str(empty),
                 "--out", str(report)])
    assert code == 0
    assert report.read_text().strip() == "slot,V,omega,lhs,violation"


def test_verify_stable_trace_no_violations(run_dir, tmp_path, capsys, monkeypatch):
    """No violations; the printed margin and omega read back to their exact values."""
    import bpsim.cli
    from bpsim import stability

    _, scen, out = run_dir
    report = tmp_path / "report.csv"
    seen = {}

    def estimate(*args, **kwargs):
        seen["eps"] = stability.estimate_epsilon(*args, **kwargs)
        return seen["eps"]

    def check(*args, **kwargs):
        seen["report"] = stability.check_drift_condition(*args, **kwargs)
        return seen["report"]

    monkeypatch.setattr(bpsim.cli, "estimate_epsilon", estimate)
    monkeypatch.setattr(bpsim.cli, "check_drift_condition", check)
    code = main(["verify", "--scenario", str(scen),
                 "--trace", str(out / "trace_iter-conv_run0.csv"),
                 "--out", str(report), "--eps-samples", "12",
                 "--direction-samples", "6"])
    assert code == 0
    lines = report.read_text().strip().split("\n")
    violations = sum(int(l.split(",")[-1]) for l in lines[1:])
    assert violations == 0
    printed = capsys.readouterr().out
    assert f"eps = {float(seen['eps'])!r}\n" in printed
    assert f"omega={seen['report'].omega!r};" in printed


@pytest.mark.bit_equality
@pytest.mark.parametrize("extra", [(), ("--epsilon", "0.5")])
def test_verify_solves_its_queries_in_one_lockstep_batch(run_dir, tmp_path, capsys,
                                                         monkeypatch, extra):
    """A ``verify`` that checks no slot above omega solves every oracle query
    in one ``_solve_rows`` call, none row by row, and uses every answer it
    solved; its report and printed lines are those of a verify whose batch
    solves row by row."""
    from bpsim import cli, solver, stability

    _, scen, out = run_dir

    def verify(name):
        code = main(["verify", "--scenario", str(scen),
                     "--trace", str(out / "trace_iter-conv_run0.csv"),
                     "--out", str(tmp_path / name), "--eps-samples", "12",
                     "--direction-samples", "6", *extra])
        assert code == 0
        return (tmp_path / name).read_text(), capsys.readouterr().out

    capsys.readouterr()
    calls, misses, oracles = [], [], []
    solve_rows, single = solver._solve_rows, solver.solve_max_weight
    check = cli.check_drift_condition
    monkeypatch.setattr(solver, "_solve_rows",
                        lambda *args: calls.append(len(args[1])) or solve_rows(*args))
    monkeypatch.setattr(stability, "solve_max_weight",
                        lambda *args: misses.append(args) or single(*args))
    monkeypatch.setattr(cli, "check_drift_condition",
                        lambda oracle, *args: oracles.append(oracle) or check(oracle, *args))
    batch = verify("batch.csv")
    assert batch[0] == stability.REPORT_HEADER       # no slot above omega
    assert len(calls) == 1 and calls[0] > 8
    assert misses == []
    assert oracles[0]._ahead == {}
    monkeypatch.setattr(stability, "solve_max_weight_batch",
                        lambda model, weights, initial, config=None:
                        [single(model, w, initial, config) for w in weights])
    assert verify("rows.csv") == batch


def test_verify_requires_per_queue_columns(run_dir, tmp_path):
    base, scen, _ = run_dir
    out = base / "noq"
    code = main(["run", "--scenario", str(scen), "--scheme", "iter-once",
                 "--slots", "10", "--runs", "1", "--out", str(out)])
    assert code == 0
    report = tmp_path / "r.csv"
    code = main(["verify", "--scenario", str(scen),
                 "--trace", str(out / "trace_iter-once_run0.csv"),
                 "--out", str(report)])
    assert code == 2


def test_threads_env_respected(run_dir, tmp_path, monkeypatch):
    base, scen, _ = run_dir
    monkeypatch.setenv("BPSIM_THREADS", "1")
    out = tmp_path / "serial"
    code = main(["run", "--scenario", str(scen), "--scheme", "iter-once",
                 "--slots", "10", "--runs", "2", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    assert (out / "avg_iter-once.csv").exists()


def test_run_in_worker_processes_writes_the_same_bytes(run_dir, tmp_path, monkeypatch):
    """Two workers get pickled scenarios, whose models start with an empty
    layout cache; the per-queue files equal those of runs in this process."""
    _, scen, _ = run_dir
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BPSIM_THREADS", threads)
        outs.append(tmp_path / f"threads{threads}")
        assert main(["run", "--scenario", str(scen), "--scheme", "instant,iter-once",
                     "--slots", "30", "--runs", "2", "--seed", "3", "--per-queue",
                     "--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert _read(outs[0] / name) == _read(outs[1] / name), name


def _scenario_doc(tmp_path) -> dict:
    path = tmp_path / "good.json"
    assert main(["generate", "n=4", "B=2", "seed=9", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("field,value", [
    ("links", [[0, 1], [1, 0], [0, 9]]),    # endpoint outside the 4 nodes
    ("noise", [0.1, 0.1]),                  # one value per node expected
])
def test_run_rejects_malformed_scenario_file(tmp_path, field, value):
    doc = _scenario_doc(tmp_path)
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--scheme", "iter-once",
                 "--slots", "2", "--runs", "1", "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("field,at,value", [
    ("noise", (0,), True),                  # a boolean, not a number
    ("links", (0, 0), 0.5),                 # an endpoint that is not an integer
    ("gain", (0, 1), "1e-3"),               # a number written as a JSON string
], ids=["boolean-noise", "fractional-endpoint", "string-gain"])
def test_run_rejects_wrongly_typed_scenario_entries(tmp_path, capsys, field, at, value):
    doc = _scenario_doc(tmp_path)
    entry = doc[field]
    for i in at[:-1]:
        entry = entry[i]
    entry[at[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--scheme", "iter-once",
                 "--slots", "2", "--runs", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: malformed scenario file")


@pytest.mark.parametrize("content", [b"[1, 2]", b'{"format": "bpsim-scenario", "x": "\xff"}'],
                         ids=["not-an-object", "not-utf-8"])
def test_run_rejects_unreadable_scenario_file(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = main(["run", "--scenario", str(bad), "--scheme", "iter-once",
                 "--slots", "2", "--runs", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: scenario file")


@pytest.mark.parametrize("destination", [9, -1])
def test_run_rejects_destination_outside_network(tmp_path, destination):
    doc = _scenario_doc(tmp_path)
    doc["commodities"][0]["destinations"] = [destination]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--scheme", "iter-once",
                 "--slots", "2", "--runs", "1", "--out", str(tmp_path / "x")])
    assert code == 2


def test_run_rejects_a_scenario_without_commodities(tmp_path, capsys):
    """A file with no commodities, and no arrival columns to match, passes
    no validation: the run stops at load, before it writes anything."""
    doc = _scenario_doc(tmp_path)
    doc["commodities"], doc["arrival_mean"] = [], [[] for _ in range(doc["n"])]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--scheme", "iter-once",
                 "--slots", "2", "--runs", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == ("error: malformed scenario file: "
                                       "traffic needs at least one commodity\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field", ["noise", "power_cap", "processing_gain"])
def test_run_rejects_infinite_model_values(tmp_path, capsys, field):
    """JSON's Infinity passes a bare lower bound; the run must stop at load
    with exit 2, not simulate and fail mid-run."""
    doc = _scenario_doc(tmp_path)
    if field == "processing_gain":
        doc[field] = math.inf
    else:
        doc[field][0] = math.inf
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--scheme", "iter-once",
                 "--slots", "5", "--runs", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario") and "finite" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_run_rejects_non_finite_positions(tmp_path, capsys, value):
    """Positions go back out into the run's scenario.json, and JSON has no
    Infinity or NaN: the run stops at load with exit 2 and no --out."""
    doc = _scenario_doc(tmp_path)
    doc["positions"][1][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--scheme", "iter-once",
                 "--slots", "5", "--runs", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == "error: invalid scenario: positions must be finite\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["two", "0", "-1"])
def test_threads_env_rejects_non_positive_integers(tmp_path, monkeypatch, value):
    monkeypatch.setenv("BPSIM_THREADS", value)
    code = main(["run", "--generate", "n=4", "B=2", "seed=9", "--scheme", "iter-once",
                 "--slots", "2", "--runs", "1", "--out", str(tmp_path / "x")])
    assert code == 2


def _verify(scen, trace, tmp_path, *extra):
    return main(["verify", "--scenario", str(scen), "--trace", str(trace),
                 "--out", str(tmp_path / "r.csv"), *extra])


def test_verify_rejects_non_numeric_queue_cell(run_dir, tmp_path, capsys):
    _, scen, out = run_dir
    lines = (out / "trace_iter-conv_run0.csv").read_text().split("\n")
    col = lines[0].split(",").index("u_0_0")
    cells = lines[3].split(",")
    cells[col] = "oops"
    lines[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    assert _verify(scen, bad, tmp_path) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "'u_0_0'" in err and "'oops'" in err


def _with_queue_cells(lines, value):
    """Trace lines with the first per-queue cell holding 0.0 of every data
    row set to ``value``."""
    header = lines[0].split(",")
    first = header.index("u_0_0")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) == len(header):
            col = cells.index("0.0", first)
            cells[col] = value
        out.append(",".join(cells))
    return out


def test_verify_rejects_negative_queue_cell_before_solving(run_dir, tmp_path, capsys,
                                                           monkeypatch):
    """A negative backlog ends ``verify`` with exit code 2, naming its line
    and column, before the margin estimate or any oracle solve; -0.0 is a
    zero backlog and passes."""
    from bpsim import cli, solver

    class Reached(Exception):
        pass

    def solve(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(solver, "_solve_rows", solve)
    monkeypatch.setattr(cli, "estimate_epsilon", solve)
    _, scen, out = run_dir
    lines = (out / "trace_iter-conv_run0.csv").read_text().split("\n")
    bad = tmp_path / "negative.csv"
    bad.write_text("\n".join(_with_queue_cells(lines, "-5.0")))
    assert _verify(scen, bad, tmp_path) == 2
    captured = capsys.readouterr()
    assert "line 2" in captured.err and "'u_0_0'" in captured.err and "'-5.0'" in captured.err
    assert "interior margin" not in captured.out
    signed_zero = tmp_path / "signed_zero.csv"
    signed_zero.write_text("\n".join(_with_queue_cells(lines, "-0.0")))
    with pytest.raises(Reached):
        _verify(scen, signed_zero, tmp_path)


def test_verify_rejects_truncated_row(run_dir, tmp_path, capsys):
    _, scen, out = run_dir
    lines = (out / "trace_iter-conv_run0.csv").read_text().split("\n")
    header = lines[0].split(",")
    lines[5] = ",".join(lines[5].split(",")[:len(header) - 3])
    bad = tmp_path / "short.csv"
    bad.write_text("\n".join(lines))
    assert _verify(scen, bad, tmp_path) == 2
    err = capsys.readouterr().err
    assert "line 6" in err and repr(header[-3]) in err and "missing" in err


def test_verify_rejects_directory_as_trace(run_dir, tmp_path):
    _, scen, _ = run_dir
    assert _verify(scen, tmp_path, tmp_path) == 2


@pytest.mark.parametrize("flag,value", [("--epsilon", "nan"), ("--eps0", "nan"),
                                        ("--eps0", "inf"), ("--eps0", "0"), ("--eps0", "-1"),
                                        ("--epsilon", "-1")])
def test_verify_rejects_non_finite_margins(run_dir, tmp_path, capsys, flag, value):
    _, scen, out = run_dir
    report = tmp_path / "r.csv"
    assert _verify(scen, out / "trace_iter-conv_run0.csv", tmp_path, flag, value) == 2
    assert not report.exists()
    # Rejected before the margin is estimated.
    assert "interior margin" not in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--kkt-tol", "nan"), ("--kkt-tol", "inf"),
                                        ("--kkt-tol", "0"), ("--max-iter", "-3"),
                                        ("--iterations", "0"), ("--iterations", "-4")])
def test_run_rejects_bad_solver_settings(run_dir, tmp_path, flag, value):
    _, scen, _ = run_dir
    code = main(["run", "--scenario", str(scen), "--scheme", "iter-once",
                 "--slots", "2", "--runs", "1", flag, value,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("params", [["n=5", "B=4", "seed=-1"], ["n=5", "B=nan", "seed=1"],
                                    ["n=5", "B=inf", "seed=1"]])
def test_generate_rejects_negative_seed_and_non_finite_mean(tmp_path, capsys, params):
    out = tmp_path / "x.json"
    assert main(["generate", *params, "--out", str(out)]) == 2
    assert not out.exists()
    code = main(["run", "--generate", *params, "--scheme", "iter-once", "--slots", "2",
                 "--runs", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_arrival_means_too_large_to_sample_exit_2(tmp_path, capsys):
    """numpy's Poisson sampler refuses means above about 9.22e18: generate,
    run --generate and a scenario file each stop with exit 2, naming the
    arrival mean, before they write anything."""
    from bpsim.model import validate_scenario

    params = ["n=3", "B=1e19", "seed=1"]
    out = tmp_path / "x.json"
    run = ["--scheme", "iter-once", "--slots", "3", "--runs", "1", "--out", str(tmp_path / "x")]
    ok = tmp_path / "ok.json"
    assert main(["generate", "n=3", "B=9.2e18", "seed=1", "--out", str(ok)]) == 0
    assert validate_scenario(load_scenario(ok)) == []
    doc = json.loads(ok.read_text())
    doc["arrival_mean"] = [[1e19 if x else 0.0 for x in row] for row in doc["arrival_mean"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["generate", *params, "--out", str(out)], ["run", "--generate", *params, *run],
                 ["run", "--scenario", str(bad), *run]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "arrival mean 1e+19" in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "x").exists()


def test_run_rejects_negative_seed(run_dir, tmp_path, capsys):
    _, scen, _ = run_dir
    code = main(["run", "--scenario", str(scen), "--scheme", "iter-once", "--slots", "2",
                 "--runs", "1", "--seed", "-1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag,value", [("--sample-seed", "-1"), ("--eps-samples", "0"),
                                        ("--eps-samples", "-2"),
                                        ("--direction-samples", "0"),
                                        ("--direction-samples", "-2")])
def test_verify_rejects_bad_sampling_before_loading(tmp_path, capsys, flag, value):
    # The scenario and trace do not exist: the flag must be rejected first.
    assert _verify(tmp_path / "nope.json", tmp_path / "nope.csv", tmp_path, flag, value) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_verify_rejects_trace_without_lambda_before_estimating(run_dir, tmp_path, capsys):
    _, scen, out = run_dir
    lines = (out / "trace_iter-conv_run0.csv").read_text().split("\n")
    one = tmp_path / "one.csv"
    one.write_text("\n".join(lines[:2]) + "\n")
    assert _verify(scen, one, tmp_path) == 2
    captured = capsys.readouterr()
    assert "interior margin" not in captured.out
    assert "lambda_term" in captured.err


def _swap_header_names(lines):
    lines[0] = lines[0].replace("total_backlog,V,", "V,total_backlog,", 1)


def _swap_rows(lines):
    lines[3], lines[4] = lines[4], lines[3]


def _extra_cell(lines):
    lines[5] += ",0.0"


def _transpose_queue_names(lines):
    # Commodity-major names on a node-major layout: the same set of names.
    lines[0] = ",".join(f"u_{c.split('_')[2]}_{c.split('_')[1]}" if c.startswith("u_") else c
                        for c in lines[0].split(","))


def _empty_file(lines):
    # Zero bytes: not even the header that a run without slots writes.
    lines[:] = [""]


@pytest.mark.parametrize("corrupt,told", [
    (_swap_header_names, ["line 1", "expected 'total_backlog', found 'V'"]),
    (_swap_rows, ["line 4", "expected '2', found '3'"]),
    (_extra_cell, ["line 6", "cells"]),
    (_transpose_queue_names, ["line 1", "expected 'u_0_1', found 'u_1_0'"]),
    (_empty_file, ["line 1", "expected 'slot', found end of line"]),
])
def test_verify_rejects_what_run_cannot_write_before_solving(run_dir, tmp_path, capsys,
                                                            monkeypatch, corrupt, told):
    """A trace that ``run`` could not have written ends ``verify`` with exit
    code 2, naming the line or the expected and the found column, before the
    margin estimate or any oracle solve."""
    from bpsim import cli, solver

    def solve(*args, **kwargs):
        raise AssertionError("reached a solve")

    monkeypatch.setattr(solver, "_solve_rows", solve)
    monkeypatch.setattr(cli, "estimate_epsilon", solve)
    _, scen, out = run_dir
    lines = (out / "trace_iter-conv_run0.csv").read_text().split("\n")
    corrupt(lines)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    assert _verify(scen, bad, tmp_path) == 2
    captured = capsys.readouterr()
    assert all(t in captured.err for t in told), captured.err
    assert "interior margin" not in captured.out
    assert not (tmp_path / "r.csv").exists()

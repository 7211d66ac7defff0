"""End-to-end command line behavior: generate, run, verify, exit codes."""

import json
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

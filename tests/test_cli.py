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


def test_verify_stable_trace_no_violations(run_dir, tmp_path):
    _, scen, out = run_dir
    report = tmp_path / "report.csv"
    code = main(["verify", "--scenario", str(scen),
                 "--trace", str(out / "trace_iter-conv_run0.csv"),
                 "--out", str(report), "--eps-samples", "12",
                 "--direction-samples", "6"])
    assert code == 0
    lines = report.read_text().strip().split("\n")
    violations = sum(int(l.split(",")[-1]) for l in lines[1:])
    assert violations == 0


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

"""Every file of a small fixed set of runs equals its golden digest.

The set, the manifest's layout and how to re-baseline it are described in
``tests/golden/update.py``.  On the build that made the manifest every file
must match byte for byte; on another numpy or BLAS the test compares the
averaged curves and the summaries within the manifest's relative tolerance
instead, and says so.
"""

from __future__ import annotations

import importlib.util
import json
import math
import warnings
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_update", Path(__file__).resolve().parent / "golden" / "update.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def first_difference(name: str, data: bytes, want: dict) -> str | None:
    """Where ``data`` first differs from the manifest entry ``want``: the file,
    and for a CSV or the printed lines the first line (1-based) and, in a
    CSV, the first cell whose byte differs; None when the file matches."""
    got = golden.entry(name, data)
    if got["sha256"] == want["sha256"]:
        return None
    if "lines" not in want:
        return f"{name} differs"
    lines = data.split(b"\n")
    i = next((i for i, (a, b) in enumerate(zip(got["lines"], want["lines"])) if a != b), None)
    if i is None:
        return f"{name}: {len(lines)} lines, expected {len(want['lines'])}"
    text = lines[i].decode("utf-8", "replace")
    if "cells" not in want:
        return f"{name}: line {i + 1} differs: {text[:200]!r}"
    found, expected = golden.cells(data)[i], golden.unpack(want["cells"])[i]
    col = next((c for c in range(0, min(len(found), len(expected)), 2)
                if found[c:c + 2] != expected[c:c + 2]), min(len(found), len(expected))) // 2
    row, header = text.split(","), lines[0].decode("utf-8", "replace").split(",")
    cell = repr(row[col]) if col < len(row) else "end of line"
    label = f" ({header[col]!r})" if col < len(header) else ""
    return (f"{name}: line {i + 1}, column {col + 1}{label} differs: found {cell}"
            f" ({len(row)} cells, expected {len(expected) // 2})")


def near(got: list, want: list, rel: float) -> bool:
    """Two CSVs' cells equal, their numbers within ``rel`` of each other."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=rel, abs_tol=rel):
                    return False
            elif x != y:
                return False
    return True


def compare(files: dict[str, Path], manifest: dict) -> list[str]:
    """The problems of ``files`` against ``manifest``, first difference first."""
    want = manifest["files"]
    problems = []
    missing, extra = sorted(want.keys() - files.keys()), sorted(files.keys() - want.keys())
    if missing or extra:
        problems.append(f"files missing: {missing}; files not in the manifest: {extra}")
    exact = manifest["build"] == golden.build()
    for name in sorted(want.keys() & files.keys()):
        data = files[name].read_bytes()
        if exact:
            diff = first_difference(name, data, want[name])
            if diff:
                problems.append(diff)
        elif "numbers" in want[name] and not near(golden.numbers(data), want[name]["numbers"],
                                                  manifest["rel_tol"]):
            problems.append(f"{name}: numbers differ by more than {manifest['rel_tol']} relative")
    return problems


def test_golden_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    files = golden.generate(tmp_path)
    if manifest["build"] != golden.build():
        warnings.warn(f"golden digests were made with {manifest['build']}, this is "
                      f"{golden.build()}: comparing averaged curves and summaries within "
                      f"{manifest['rel_tol']} relative instead of every byte")
    problems = compare(files, manifest)
    assert not problems, "golden outputs differ (first: {}); {} files in all".format(
        problems[0], len(problems))


def test_golden_compare_names_the_first_line_and_column(tmp_path):
    """A one-digit change in a CSV cell is named by file, line and column; on
    another build only a number beyond the tolerance fails."""
    f = tmp_path / "a" / "trace.csv"
    f.parent.mkdir()
    f.write_bytes(b"slot,x,y\n0,1.5,2.0\n1,2.5,3.0\n")
    manifest = {"build": golden.build(), "rel_tol": 1e-3,
                "files": {"a/trace.csv": golden.entry("a/trace.csv", f.read_bytes()),
                          "a/summary.csv": golden.entry("a/summary.csv", b"s,1.0\n")}}
    summary = tmp_path / "a" / "summary.csv"
    summary.write_bytes(b"s,1.0\n")
    files = {"a/trace.csv": f, "a/summary.csv": summary}
    assert compare(files, manifest) == []
    f.write_bytes(b"slot,x,y\n0,1.5,2.0\n1,2.5,3.5\n")
    assert compare(files, manifest) == [
        "a/trace.csv: line 3, column 3 ('y') differs: found '3.5' (3 cells, expected 3)"]
    assert "files missing: ['a/summary.csv']" in compare({"a/trace.csv": f}, manifest)[0]
    manifest["build"] = dict(manifest["build"], blas="another")
    summary.write_bytes(b"s,1.0005\n")
    assert compare(files, manifest) == []
    summary.write_bytes(b"s,1.01\n")
    assert compare(files, manifest) == ["a/summary.csv: numbers differ by more than 0.001 relative"]


@pytest.mark.parametrize("name", ["avg_instant.csv", "summary.csv", "trace_instant_run0.csv"])
def test_golden_entries_keep_numbers_only_for_curves_and_summaries(name):
    assert ("numbers" in golden.entry(name, b"a,1\n")) == (not name.startswith("trace"))

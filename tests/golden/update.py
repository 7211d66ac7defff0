"""Golden outputs: the digests of what ``bpsim run`` and ``bpsim verify`` write.

Run from the repository root to rewrite ``tests/golden/manifest.json`` from
the current tree's outputs::

    PYTHONPATH=src python tests/golden/update.py

A change that runs this script re-baselines the outputs; its CHANGES.md entry
lists the files that moved.  ``tests/test_golden.py`` regenerates the same
set and compares it with the manifest.

The set is small and fixed: every file that ``bpsim run --per-queue`` writes
for the paper networks ``(10, 4.0, 1000)`` and ``(5, 7.0, 1000)`` (all three
schemes, 100 slots, 2 runs) and for the 40-node network of the benchmark's
``relay`` workload (``iter-once``, 100 slots), plus the report and the
printed lines of one ``bpsim verify`` of the five-node ``iter-once`` trace.

Bit equality rests on numpy's random streams and on how its BLAS and LAPACK
round, so the manifest records the build that made it.  Each file's entry
holds its SHA-256; a CSV's and the printed lines' also hold four bytes of
digest per line and, for a CSV, one byte per cell (compressed), so a
mismatch names its first line and column.  ``avg_*.csv`` and
``summary.csv`` also keep their numbers, for the comparison within
``REL_TOL`` that replaces bit equality on another build.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import zlib
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"

# (directory, ``bpsim run`` arguments)
RUNS = (
    ("net_10_4", ["--generate", "n=10", "B=4.0", "seed=1000", "--slots", "100", "--runs", "2"]),
    ("net_5_7", ["--generate", "n=5", "B=7.0", "seed=1000", "--slots", "100", "--runs", "2"]),
    ("relay", ["--generate", "n=40", "B=0.05", "seed=2000", "--scheme", "iter-once",
               "--slots", "100", "--runs", "1"]),
)
# ``bpsim verify`` of this run directory's trace, with its default samples.
VERIFY_OF = ("net_5_7", "trace_iter-once_run0.csv")
VERIFY_STDOUT = "verify/stdout.txt"
VERIFY_REPORT = "verify/report.csv"
# Files whose numbers the comparison on another build checks.
NUMERIC = ("avg_", "summary.csv")
# Relative tolerance of that comparison: a BLAS that rounds differently moves
# each solve by a few ulps, and the queues carry the differences on.
REL_TOL = 1e-3


def build() -> dict:
    """The numpy build whose rounding the digests rest on."""
    blas = "unknown"
    with contextlib.suppress(Exception):     # show_config(mode=) is numpy >= 1.25
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def generate(out: Path) -> dict[str, Path]:
    """Write the set under ``out``; every output file by its relative name."""
    from bpsim import cli

    old = os.environ.get("BPSIM_THREADS")
    os.environ["BPSIM_THREADS"] = "1"       # in this process, in a fixed order
    try:
        for name, argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", *argv, "--seed", "0", "--per-queue",
                                 "--out", str(out / name)])
            assert code == 0, f"bpsim run for {name} exited {code}"
        run_dir, trace = VERIFY_OF
        (out / "verify").mkdir()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["verify", "--scenario", str(out / run_dir / "scenario.json"),
                             "--trace", str(out / run_dir / trace),
                             "--out", str(out / VERIFY_REPORT)])
        assert code == 0, f"bpsim verify exited {code}"
        (out / VERIFY_STDOUT).write_text(printed.getvalue(), encoding="utf-8", newline="\n")
    finally:
        if old is None:
            del os.environ["BPSIM_THREADS"]
        else:
            os.environ["BPSIM_THREADS"] = old
    return {p.relative_to(out).as_posix(): p for p in sorted(out.rglob("*")) if p.is_file()}


def cells(data: bytes) -> list[str]:
    """Per line, one hex byte of SHA-256 per comma-separated cell."""
    return ["".join(hashlib.sha256(c).hexdigest()[:2] for c in line.split(b","))
            for line in data.split(b"\n")]


def pack(lines: list[str]) -> str:
    return base64.b64encode(zlib.compress("\n".join(lines).encode(), 9)).decode()


def unpack(text: str) -> list[str]:
    return zlib.decompress(base64.b64decode(text)).decode().split("\n")


def numbers(data: bytes) -> list[list]:
    """The cells of a CSV, as floats where they parse."""
    rows = []
    for line in data.decode("utf-8").splitlines():
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


def entry(name: str, data: bytes) -> dict:
    """A file's manifest entry: its digest, per-line digests and (packed)
    per-cell bytes for a CSV or the printed lines, and the numbers of the
    files checked on another build."""
    out = {"sha256": hashlib.sha256(data).hexdigest()}
    if name.endswith((".csv", ".txt")):
        out["lines"] = [hashlib.sha256(x).hexdigest()[:8] for x in data.split(b"\n")]
    if name.endswith(".csv"):
        out["cells"] = pack(cells(data))
    if Path(name).name.startswith(NUMERIC):
        out["numbers"] = numbers(data)
    return out


def manifest(files: dict[str, Path]) -> dict:
    return {"build": build(),
            "rel_tol": REL_TOL,
            "files": {name: entry(name, path.read_bytes()) for name, path in files.items()}}


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = manifest(generate(Path(tmp)))
    MANIFEST.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(data['files'])} files, {data['build']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that two source trees of l1subgrad give the same bytes on a fixed set of flag vectors.

    python3 tools/same_bytes.py PARENT_SRC

PARENT_SRC is the ``src`` directory of another checkout (for example the
parent commit, extracted with ``git archive``); the other tree is this
checkout's ``src``. Each flag vector in ``VECTORS`` runs as ``python -m
l1subgrad ...`` once against each tree, both at the same time, each in an
empty directory of its own with one BLAS/OpenMP thread. Any difference in
exit code, stdout, stderr or the bytes of a written file is reported; a
differing CSV file is reported with the largest absolute difference between
its numeric fields, so that a move at the rounding level reads as one. Exit
status is 0 when every vector matches, 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the size flags of a small instance of each family (toy2d reads none)
_SMALL = {
    "quadratic": ("--n", "30"),
    "lasso": ("--m", "20", "--n", "40"),
    "logistic": ("--m", "30", "--n", "20"),
    "logsumexp": ("--k", "30", "--n", "20"),
    "toy2d": (),
    "toy2d-perturbed": (),
}
_METHODS = ("alg1", "alg2", "ista", "fista", "classic")

VECTORS = [
    *(("bench", "--experiment", "toy2d-perturbed", "--trials", "20", "--iters", "500",
       "--seed", str(s), "--out", "out.csv") for s in range(4)),
    *(("solve", "--problem", "quadratic", "--solver", "alg2", "--n", "1000", "--iters", "3000",
       "--seed", str(s), "--out", "out.csv") for s in range(4)),
    *(("verify", "--suite", "all", "--seed", str(s)) for s in range(8)),
    # rate instances Rng(321) ... Rng(400), which seeds 0-7 never build
    *(("verify", "--suite", "rate", "--seed", str(s)) for s in (20, 40, 60, 80)),
    *(("bench", "--experiment", family, "--trials", "3", "--iters", "300", *sizes,
       "--out", "out.csv") for family, sizes in _SMALL.items()),
    *(("solve", "--problem", family, "--solver", method, "--iters", "300", *sizes,
       "--out", "out.csv") for family, sizes in _SMALL.items() for method in _METHODS),
    # default sizes: draws of 500**2 and 1000**2 values, and several traces in one raw CSV
    ("solve", "--problem", "lasso", "--solver", "ista", "--iters", "50", "--out", "out.csv"),
    ("bench", "--experiment", "logistic", "--trials", "2", "--out", "out.csv"),
    # a size where the reference optimum does real work
    ("bench", "--experiment", "lasso", "--trials", "2", "--m", "100", "--n", "200", "--iters", "50",
     "--out", "out.csv"),
    # mid-size alg2 runs that pass through momentum flips and crossings
    *(("solve", "--problem", "quadratic", "--solver", "alg2", "--n", "200", "--iters", "2000",
       "--seed", str(s), "--out", "out.csv") for s in range(4)),
    ("solve", "--problem", "lasso", "--solver", "alg2", "--m", "80", "--n", "100", "--iters", "300",
     "--out", "out.csv"),
    # alg1 runs that stop on cycles of period above 2 (period 8 at seed 0)
    *(("solve", "--problem", "quadratic", "--solver", "alg1", "--n", "200", "--iters", "2000",
       "--seed", str(s), "--out", "out.csv") for s in range(4)),
    # step flags and classic schedules through the shared flag mapping; the sidecar
    # of a run without classic still records the family's classic fields
    ("bench", "--experiment", "toy2d", "--solvers", "alg1,classic", "--step", "0.3",
     "--classic-scale", "2", "--classic-exponent", "0.5", "--out", "out.csv"),
    ("bench", "--experiment", "quadratic", "--n", "30", "--solvers", "alg1,alg2",
     "--out", "out.csv"),
    ("solve", "--problem", "toy2d", "--solver", "classic", "--classic-scale", "2",
     "--classic-exponent", "0.5", "--out", "out.csv"),
    # gap arithmetic on non-finite values: inf rows and an inf mean gap, and a
    # solve that diverges and writes nothing
    ("bench", "--experiment", "toy2d", "--solvers", "alg1,classic", "--classic-scale", "1e300",
     "--trials", "2", "--iters", "5", "--out", "out.csv"),
    ("solve", "--problem", "toy2d", "--solver", "classic", "--classic-scale", "1e300",
     "--iters", "5", "--out", "out.csv"),
    # one trial runs in this process: on a host with 2 or more CPUs the default-size
    # quadratic's reference walk and alg2 run hand the tail of its row split at q to the
    # helper process; lasso's lend no helper, and compute every row in this process
    ("bench", "--experiment", "quadratic", "--trials", "1", "--iters", "300", "--out", "out.csv"),
    ("bench", "--experiment", "lasso", "--solvers", "alg2", "--trials", "1", "--iters", "300",
     "--out", "out.csv"),
    # two trials run in forked workers, which lend no helper: default-size lasso's row
    # split in a worker process
    ("bench", "--experiment", "lasso", "--solvers", "alg2", "--trials", "2", "--iters", "100",
     "--out", "out.csv"),
    # alg2 on matrices of 400 000 elements, above the block products' size constant
    ("solve", "--problem", "logistic", "--solver", "alg2", "--m", "1000", "--n", "400",
     "--iters", "300", "--out", "out.csv"),
    ("solve", "--problem", "logsumexp", "--solver", "alg2", "--k", "1000", "--n", "400",
     "--iters", "300", "--out", "out.csv"),
    # default-size lasso past its support's last change (about step 194 at seed 0)
    ("solve", "--problem", "lasso", "--solver", "alg2", "--iters", "1000", "--out", "out.csv"),
    # help texts, which solve and bench build without the verify suites loaded,
    # and an unknown suite (exit 2, usage on stderr)
    ("--help",), ("solve", "--help"), ("bench", "--help"), ("verify", "--help"),
    ("verify", "--suite", "nonsense"),
    # usage errors
    ("solve", "--problem", "toy2d", "--solver", "alg1", "--classic-scale", "3"),
    ("bench", "--experiment", "toy2d", "--solvers", "classic", "--step", "0.1"),
    ("solve", "--problem", "quadratic", "--solver", "alg1", "--m", "9"),
]


def _start(src: Path, argv: tuple[str, ...], cwd: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cwd.mkdir()
    return subprocess.Popen(
        [sys.executable, "-m", "l1subgrad", *argv],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _outcome(proc: subprocess.Popen, cwd: Path) -> dict:
    stdout, stderr = proc.communicate()
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": stdout, "stderr": stderr, "files": files}


def _largest_change(a: bytes, b: bytes) -> str:
    """How far apart the numeric fields of two CSV files lie: the largest
    absolute difference of fields at the same row and column, or why no such
    number exists (other rows or columns, a differing text or non-finite
    field)."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(data.decode()))) for data in (a, b))
    if list(map(len, rows_a)) != list(map(len, rows_b)):
        return "other rows or columns"
    largest = 0.0
    pairs = zip((f for row in rows_a for f in row), (f for row in rows_b for f in row))
    for field_a, field_b in pairs:
        if field_a == field_b:
            continue
        try:
            change = abs(float(field_a) - float(field_b))
        except ValueError:
            return "a text field differs"
        if not math.isfinite(change):
            return "a non-finite field differs"
        largest = max(largest, change)
    return f"largest |diff| {largest:.2g}"


def _differences(a: dict, b: dict) -> list[str]:
    out = [what for what in ("exit code", "stdout", "stderr") if a[what] != b[what]]
    for name in sorted(set(a["files"]) | set(b["files"])):
        data_a, data_b = a["files"].get(name), b["files"].get(name)
        if data_a == data_b:
            continue
        if name.endswith(".csv") and data_a is not None and data_b is not None:
            out.append(f"file {name} ({_largest_change(data_a, data_b)})")
        else:
            out.append(f"file {name}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "l1subgrad").is_dir():
        print("usage: python3 tools/same_bytes.py PARENT_SRC (a src directory holding "
              "the l1subgrad package)", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        for i, vector in enumerate(VECTORS):
            dirs = [Path(tmp) / f"{i}-parent", Path(tmp) / f"{i}-this"]
            procs = [_start(parent, vector, dirs[0]), _start(SRC, vector, dirs[1])]
            diff = _differences(*(_outcome(p, d) for p, d in zip(procs, dirs)))
            failed += bool(diff)
            print(f"{'DIFF ' + ', '.join(diff) if diff else 'same'}: {' '.join(vector)}", flush=True)
    print(f"{len(VECTORS) - failed}/{len(VECTORS)} flag vectors give the same bytes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

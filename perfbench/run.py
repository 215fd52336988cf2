#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the l1subgrad command line.

Run from the root of a source checkout (the package is taken from ``src/``):

    python3 perfbench/run.py --workload toy2d-bench --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` runs the workload as fresh ``python -m l1subgrad ...``
processes for ``--seconds`` seconds (closed loop, one client, one process at
a time) and reports ``wall_s``, ``setup_s`` and ``peak_rss_mb`` as medians,
with quartiles, sample counts and ``error_rate`` on the lines before the
result. ``wall_s`` and ``setup_s`` are scaled to a fixed host speed by a
calibration process run next to every timed process (see ``CALIBRATION``);
the unscaled medians are printed too. ``--trace 1`` runs pairs of the
untraced command and ``perfbench/traced.py`` for ``--seconds`` seconds; the
latter runs the same flags through ``l1subgrad.cli.main`` with timing and
oracle-counting wrappers installed from outside, must print and write the
same bytes, and the per-layer medians are reported.
Metric names and units come from ``BENCHMARK.json``; the last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

A run fails on a nonzero exit, any stderr output or a failed output check
(``check_output``): ``bench`` prints the requested ``trials=`` and final mean
gaps that are finite and within ``VALUE_ATOL`` of ``expected.json`` (where
the seed is recorded); ``solve`` certifies its end point
(``final_subgrad_norm <= CERT_TOL``) and matches the recorded ``final_f``;
``verify`` prints ``13/13 properties passed``; and every repeat prints and
writes the same bytes as the first run. ``error_rate`` (failed over attempted
runs) is printed on its own line: it is 0 on correct code, so it is not a
metric of ``BENCHMARK.json``.

Child processes run with one BLAS/OpenMP thread each, so the load is one
single-threaded process at a time. Scratch files go to ``.perfbench-work/``
in the checkout and are removed at exit. The machine record on the first line
reads ``/proc/cpuinfo`` and ``/sys/devices/system/cpu/cpu0/cache``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_RUNS = 5  # fresh imports of l1subgrad.cli per run; setup_s is their median
MIN_SAMPLES = 2  # two samples at least, so that repeat determinism is checked
CHILD_TIMEOUT_S = 150

# |gap - recorded gap| and |final_f - recorded final_f| tolerance. It is the
# slack the program itself allows a certified reference (gaps >= -1e-9), far
# above rounding-level reference or oracle changes (~1e-13 here).
VALUE_ATOL = 1e-9
# Minimal-norm subgradient norm that certifies an end point (the reference
# optimum's certificate tolerance).
CERT_TOL = 1e-10
EXPECTED = json.loads((HERE / "expected.json").read_text())

# A fixed program, independent of l1subgrad, run as a fresh process next to
# every timed process: interpreter start and numpy import, stdlib-heavy Python,
# a Python loop of small numpy operations and products with an 8 MB matrix, the
# kinds of work the workloads do. The speed of a shared host drifts by up to
# 1.6x over tens of seconds to minutes; the calibration's wall time follows
# that drift, so timings are reported as ``wall * CAL_REF_S / calibration
# wall``: seconds at the host speed at which the calibration takes CAL_REF_S.
CALIBRATION = """
import difflib, fractions, json, statistics
import numpy as np
d = [{"k%d" % i: [fractions.Fraction(i, 7), str(i) * 3, {"x": i / 3}]} for i in range(3000)]
s = json.dumps(d, default=str)
for _ in range(3):
    json.loads(s)
statistics.median(float(i % 97) for i in range(100000))
list(difflib.unified_diff(s[:20000].split(","), s[5:20005].split(",")))
x = np.array([0.3, -0.2])
h = np.array([[2.0, 0.1], [0.1, 1.0]])
for k in range(20000):
    g = h @ x + 0.1 * np.sign(x)
    x = x - (1.0 / (k + 1) / (1.0 + float(np.linalg.norm(g)))) * g
a = np.ones((1000, 1000))
y = np.ones(1000)
for _ in range(150):
    y = a @ y * 1e-3
"""
CAL_REF_S = 0.5


@dataclass(frozen=True)
class Workload:
    """One CLI flag vector (without --out; --seed is the benchmark's unless given).

    Why each workload is measured is recorded in BENCHMARK.json.
    """

    args: tuple[str, ...]
    writes_csv: bool
    # bytes of the matrix the oracle reads on every call, and of the largest
    # array the workload allocates; both computed from the sizes, not measured
    oracle_matrix_bytes: int
    largest_array: str
    smoke_args: tuple[str, ...]


WORKLOADS = {
    "toy2d-bench": Workload(
        ("bench", "--experiment", "toy2d-perturbed", "--trials", "20", "--iters", "500"),
        True, 2 * 2 * 8, f"2x2 hessian, {2 * 2 * 8} B",
        ("bench", "--experiment", "toy2d-perturbed", "--trials", "3", "--iters", "50"),
    ),
    "quadratic-solve": Workload(
        ("solve", "--problem", "quadratic", "--solver", "alg2", "--n", "1000",
         "--iters", "3000"),
        True, 1000 * 1000 * 8, f"1000x1000 matrix, {1000 * 1000 * 8} B",
        ("solve", "--problem", "quadratic", "--solver", "alg2", "--n", "30",
         "--iters", "2000"),
    ),
    # The suites' cost depends on their seed offset: pl's references stop at an
    # exact fixed point after 0.07 s on some offsets and run 1-7 s on others.
    # A fixed offset (the CLI default, with the costly pl) keeps the work equal
    # across benchmark seeds.
    "verify-all": Workload(
        ("verify", "--suite", "all", "--seed", "0"),
        False, 80 * 100 * 8, f"100x100 orthogonal factor, {100 * 100 * 8} B",
        ("verify", "--suite", "all", "--seed", "0"),
    ),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    files: dict  # file name -> (size, sha256) of the bytes the run wrote


def run_child(argv: list[str], cwd: Path) -> Sample:
    """Run one fresh process to completion and take its wall time and rusage."""
    if cwd.exists():
        shutil.rmtree(cwd)
    cwd.mkdir(parents=True)
    out_path, err_path = cwd.parent / (cwd.name + ".stdout"), cwd.parent / (cwd.name + ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    files = {p.name: (p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest())
             for p in sorted(cwd.iterdir()) if p.is_file()}
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out_path.read_text(), err_path.read_text(), files)


def cli_argv(args: tuple[str, ...], seed: int, writes_csv: bool) -> list[str]:
    argv = [sys.executable, "-m", "l1subgrad", *args]
    argv += [] if "--seed" in args else ["--seed", str(seed)]
    return argv + (["--out", "out.csv"] if writes_csv else [])


# ---------------------------------------------------------------------------
# output checks


def _float(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def printed_values(args: tuple[str, ...], lines: list[str]) -> dict:
    """Final mean gap per solver (bench) or the key=value lines (solve)."""
    if args[0] == "bench":
        return {k: _float(v) for k, v in (ln.split() for ln in lines[2:])}
    return {k: _float(v) for k, v in (ln.split("=", 1) for ln in lines[1:] if "=" in ln)}


def check_output(name: str, args: tuple[str, ...], seed: int, s: Sample) -> list[str]:
    """Return the reasons a run's output is wrong (empty when it is right)."""
    problems = []
    if s.returncode != 0:
        problems.append(f"exit code {s.returncode}")
    if s.stderr:
        problems.append(f"stderr: {s.stderr.strip()[:200]}")
    lines = s.stdout.splitlines()
    # recorded seed-commit values exist only for the full-size workloads
    expected = EXPECTED.get(name, {}).get(str(seed)) if args == WORKLOADS[name].args else None
    if args[0] == "bench":
        want_trials = args[args.index("--trials") + 1]
        head = dict(kv.split("=", 1) for kv in lines[0].split()) if lines else {}
        if head.get("trials") != want_trials:
            problems.append(f"trials={head.get('trials')} but {want_trials} requested")
        gaps = printed_values(args, lines)
        for solver, gap in gaps.items():
            if not math.isfinite(gap) or gap < -VALUE_ATOL:
                problems.append(f"{solver} final gap {gap}")
            elif expected is not None and abs(gap - expected[solver]) > VALUE_ATOL:
                problems.append(f"{solver} final gap {gap}, recorded {expected[solver]}")
        if not gaps:
            problems.append("no final gaps printed")
    elif args[0] == "solve":
        values = printed_values(args, lines)
        sub = values.get("final_subgrad_norm", math.inf)
        final_f = values.get("final_f", math.inf)
        if not sub <= CERT_TOL:
            problems.append(f"final_subgrad_norm {sub} above {CERT_TOL}")
        if not math.isfinite(final_f):
            problems.append(f"final_f {final_f}")
        elif expected is not None and abs(final_f - expected["final_f"]) > VALUE_ATOL:
            problems.append(f"final_f {final_f}, recorded {expected['final_f']}")
    else:
        if not lines or lines[-1] != "13/13 properties passed":
            problems.append(f"verify summary {lines[-1] if lines else ''!r}")
    return problems


# ---------------------------------------------------------------------------
# measurement


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def calibrate() -> float:
    """Wall seconds of one run of the calibration program."""
    s = run_child([sys.executable, "-c", CALIBRATION], WORK / "calibration")
    if s.returncode != 0 or s.stderr:
        raise RuntimeError(f"calibration failed: {s.stderr.strip()[:200]}")
    return s.wall_s


def scaled(walls: list[float], cals: list[float]) -> list[float]:
    """Each wall time at reference host speed, by the calibrations on either side."""
    return [w * CAL_REF_S / ((a + b) / 2) for w, a, b in zip(walls, cals, cals[1:])]


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters that import l1subgrad.cli, raw and scaled."""
    argv = [sys.executable, "-c", "import l1subgrad.cli"]
    run_child(argv, WORK / "setup")  # compiles the bytecode cache once
    times, cals = [], [calibrate()]
    for _ in range(runs):
        s = run_child(argv, WORK / "setup")
        if s.returncode != 0 or s.stderr:
            raise RuntimeError(f"importing l1subgrad.cli failed: {s.stderr.strip()[:200]}")
        times.append(s.wall_s)
        cals.append(calibrate())
    return times, scaled(times, cals)


def untraced(name: str, args: tuple[str, ...], seed: int, seconds: float, setup_runs: int):
    """Closed loop of fresh CLI processes for ``seconds``; returns the result dict.

    Each CLI process runs between two calibration processes, one at a time.
    """
    start = time.perf_counter()
    setup_raw, setup = measure_setup(setup_runs)
    samples, cals, failures = [], [calibrate()], 0
    while len(samples) < MIN_SAMPLES or (
        time.perf_counter() - start
        + statistics.median(s.wall_s for s in samples) + statistics.median(cals) <= seconds
    ):
        s = run_child(cli_argv(args, seed, WORKLOADS[name].writes_csv), WORK / "run")
        cals.append(calibrate())
        problems = check_output(name, args, seed, s)
        if samples and (s.files, s.stdout) != (samples[0].files, samples[0].stdout):
            problems.append("output differs from the first run with the same flags")
        if problems:
            failures += 1
            print(f"# {name} run {len(samples)} failed: {'; '.join(problems)}", file=sys.stderr)
        samples.append(s)
    raw = [s.wall_s for s in samples]
    values = {
        "wall_s": scaled(raw, cals),
        "setup_s": setup,
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
    }
    for metric, vals in values.items():
        q1, med, q3 = quartiles(vals)
        print(f"{name} {metric}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(vals)}"
              f" unit={METRIC_UNITS[metric]}")
    print(f"{name} unscaled: wall_s median={statistics.median(raw):.6g}"
          f" setup_s median={statistics.median(setup_raw):.6g}"
          f" calibration median={statistics.median(cals):.6g} n={len(cals)} unit=s")
    print(f"{name} error_rate: {failures}/{len(samples)} = {failures / len(samples):.6g} unit=1")
    return {
        "correct": failures == 0,
        "attempted": len(samples),
        "failed": failures,
        "metrics": {m: statistics.median(v) for m, v in values.items()},
    }


def traced(name: str, args: tuple[str, ...], seed: int, seconds: float):
    """Pairs of (untraced CLI, traced CLI) for ``seconds``; per-layer medians."""
    start = time.perf_counter()
    writes_csv = WORKLOADS[name].writes_csv
    per_pair, attempted, failures = [], 0, 0
    while not per_pair or (time.perf_counter() - start) * (1 + 1 / len(per_pair)) <= seconds:
        plain = run_child(cli_argv(args, seed, writes_csv), WORK / "run")
        argv = [sys.executable, str(HERE / "traced.py"), "--layers", "layers.json", "--",
                *cli_argv(args, seed, writes_csv)[3:]]
        replay = run_child(argv, WORK / "traced")
        attempted += 2
        problems = check_output(name, args, seed, plain)
        failures += bool(problems)
        layers = replay.files.pop("layers.json", None)
        if replay.returncode != 0 or replay.stderr or layers is None:
            problems.append(f"traced run failed: {replay.stderr.strip()[-400:]}")
            failures += 1
            print(f"# {name} failed: {'; '.join(problems)}", file=sys.stderr)
            break
        if (replay.stdout, replay.files) != (plain.stdout, plain.files):
            problems.append("traced run's stdout or files differ from the CLI's")
            failures += 1
        if problems:
            print(f"# {name} failed: {'; '.join(problems)}", file=sys.stderr)
        report = json.loads((WORK / "traced" / "layers.json").read_text())
        metrics = report["metrics"]
        metrics["bench.csv_bytes"] = sum(size for size, _ in plain.files.values())
        metrics["cli.unattributed_s"] = replay.wall_s - report["top_level_s"]
        metrics["process.cpu_s"] = replay.cpu_s
        metrics["trace.overhead_s"] = replay.wall_s - plain.wall_s
        per_pair.append(metrics)
    metrics = {m: statistics.median(p[m] for p in per_pair) for m in per_pair[0]} if per_pair else {}
    print(f"{name} traced pairs: n={len(per_pair)}")
    return {"correct": failures == 0, "attempted": attempted, "failed": failures,
            "metrics": metrics}


def env_record(names: list[str]) -> dict:
    """Machine and build facts that the timings depend on."""
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = read(index / "size")
    probe = run_child([sys.executable, "-c", (
        "import json, platform, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'blas': blas.get('name', '') + ' ' + blas.get('version', '')}))")], WORK / "probe")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_per_core": caches,
        **(json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.stderr}),
        "blas_threads": 1,
        "workloads_computed": {
            n: {"oracle_matrix_bytes": WORKLOADS[n].oracle_matrix_bytes,
                "largest_array": WORKLOADS[n].largest_array} for n in names
        },
    }


def load_metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}, spec


METRIC_UNITS, SPEC = load_metric_units()


def as_result(result: dict, prefix: str = "") -> dict:
    return {**result, "metrics": {prefix + m: {"value": v, "unit": METRIC_UNITS[m]}
                                  for m, v in result["metrics"].items()}}


def run_workload(name, seed, seconds, trace, smoke=False) -> dict:
    args = WORKLOADS[name].smoke_args if smoke else WORKLOADS[name].args
    if trace:
        return traced(name, args, seed, seconds)
    return untraced(name, args, seed, seconds, 2 if smoke else SETUP_RUNS)


def smoke() -> int:
    """Tiny sizes, both modes: every metric in BENCHMARK.json must be emitted."""
    want = {0: [m["name"] for m in SPEC["end_to_end"]], 1: [m["name"] for m in SPEC["per_layer"]]}
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, 0, 1, trace, smoke=True)
            got = sorted(result["metrics"])
            if got != sorted(want[trace]) or not result["correct"]:
                bad += 1
                print(f"SMOKE FAIL {name} trace={trace}: correct={result['correct']} "
                      f"missing={sorted(set(want[trace]) - set(got))} "
                      f"extra={sorted(set(got) - set(want[trace]))}")
            else:
                print(f"SMOKE OK {name} trace={trace}: {len(got)} metrics")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; check that every metric name is emitted")
    opts = parser.parse_args()
    if not (SRC / "l1subgrad" / "__init__.py").is_file():
        print(f"error: no l1subgrad package under {SRC}", file=sys.stderr)
        return 2
    if not opts.smoke and opts.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        if opts.smoke:
            return smoke()
        names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
        print("# env " + json.dumps(env_record(names), sort_keys=True))
        results = [as_result(run_workload(n, opts.seed, opts.seconds, opts.trace),
                             f"{n}." if len(names) > 1 else "") for n in names]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {m: v for r in results for m, v in r["metrics"].items()},
        }))
        return 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

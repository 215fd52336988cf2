"""Acceptance suite: each test enforces one numbered criterion at its stated
tolerance and prints a one-line PASS/FAIL verdict with the measured margin.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import time

import numpy as np

from l1subgrad.bench import ExperimentConfig, run_experiment
from l1subgrad.verify import (
    suite_anti_oscillation,
    suite_dominance,
    suite_gradcheck,
    suite_pl,
    suite_rate,
    suite_subgrad_oracle,
)


def _report(number: int, name: str, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"CRITERION {number} ({name}): {verdict} — {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_linear_rate():
    start = time.monotonic()
    results = suite_rate(instances=20, n=50, iters=500)
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in results) and elapsed < 10.0
    margin = min(r.margin for r in results)
    _report(1, "linear rate", ok, f"min margin {margin:.3e}, runtime {elapsed:.1f}s < 10s")


def test_criterion_2_per_iteration_dominance():
    start = time.monotonic()
    results = suite_dominance(instances=100, iters=300)
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in results) and elapsed < 60.0
    margin = min(r.margin for r in results)
    _report(
        2, "accelerated dominance", ok,
        f"min margin {margin:.3e} over 30000 iterations, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_3_min_norm_subgradient_oracle():
    start = time.monotonic()
    results = suite_subgrad_oracle(points=200)
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in results) and elapsed < 30.0
    detail = ", ".join(f"{r.name.split('/')[1]} margin {r.margin:.3e}" for r in results)
    _report(3, "subgradient oracle", ok, f"{detail}, runtime {elapsed:.1f}s < 30s")


def test_criterion_4_pl_inequality():
    results = suite_pl(instances=5, samples_per=200)
    ok = all(r.passed for r in results)
    _report(
        4, "PL inequality", ok,
        f"min margin {min(r.margin for r in results):.3e} over 1000 samples, slack 1e-9",
    )


def test_criterion_5_anti_oscillation():
    results = suite_anti_oscillation()
    ok = all(r.passed for r in results)
    _report(5, "anti-oscillation", ok, "; ".join(r.detail for r in results))


def test_criterion_6_toy2d_reproduction():
    start = time.monotonic()
    horizon = 25  # both gap curves reach exact float64 zero near k=30,
    # after which a strict ordering is unmeasurable, so the window ends here
    cfg = ExperimentConfig(
        experiment="toy2d", trials=1, max_iter=horizon,
        solvers=("alg1", "ista", "classic"), classic_scale=1.0, classic_exponent=1.0,
    )
    curve = run_experiment(cfg)
    alg1 = curve.mean_gaps["alg1"]
    ista = curve.mean_gaps["ista"]
    classic = curve.mean_gaps["classic"]
    k0 = None
    for k in range(horizon + 1):
        if np.all(alg1[k:] < ista[k:]):
            k0 = k
            break
    strict_ok = k0 is not None and k0 <= 50
    beat_classic = bool(
        np.all(alg1[k0:] < classic[k0:]) and np.all(ista[k0:] < classic[k0:])
    )

    perturbed = ExperimentConfig(
        experiment="toy2d-perturbed", trials=100, base_seed=7, max_iter=horizon,
        solvers=("alg1", "ista", "classic"), classic_scale=1.0, classic_exponent=1.0,
    )
    pcurve = run_experiment(perturbed)
    mean_ok = pcurve.final_mean_gap("alg1") < pcurve.final_mean_gap("ista")
    elapsed = time.monotonic() - start
    ok = strict_ok and beat_classic and mean_ok and elapsed < 30.0
    _report(
        6, "2D example ordering", ok,
        f"strict from k0={k0} (<=50), classic beaten: {beat_classic}, "
        f"perturbed means alg1 {pcurve.final_mean_gap('alg1'):.3e} < "
        f"ista {pcurve.final_mean_gap('ista'):.3e}, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_7_l1_family_ordering():
    start = time.monotonic()
    horizon = 50  # final gaps must be compared while curves are still
    # resolving; by a few hundred iterations every solver except classic sits
    # at the float64 noise floor and orderings become meaningless
    scales = {
        "quadratic": dict(n=200),
        "lasso": dict(m=100, n=200),
        "logistic": dict(m=250, n=50),
        "logsumexp": dict(k=250, n=100),
    }
    finals = {}
    for name, dims in scales.items():
        cfg = ExperimentConfig(
            experiment=name, trials=20, base_seed=0, max_iter=horizon,
            solvers=("alg1", "alg2", "ista", "fista", "classic"), **dims,
        )
        curve = run_experiment(cfg)
        finals[name] = {s: curve.final_mean_gap(s) for s in curve.mean_gaps}

    def within_factor_two(a, b):
        return max(a, b) <= 2.0 * min(a, b) or (a == 0.0 and b == 0.0)

    a_ok = all(within_factor_two(f["alg1"], f["ista"]) for f in finals.values())
    b_ok = finals["quadratic"]["fista"] <= finals["quadratic"]["alg2"]
    c_count = sum(
        finals[p]["alg2"] <= finals[p]["fista"] for p in ("lasso", "logistic", "logsumexp")
    )
    d_ok = all(
        f["classic"] >= max(f["alg1"], f["alg2"], f["ista"], f["fista"])
        for f in finals.values()
    )
    elapsed = time.monotonic() - start
    ok = a_ok and b_ok and c_count >= 2 and d_ok and elapsed < 300.0
    _report(
        7, "l1-family ordering", ok,
        f"(a) alg1~ista: {a_ok}, (b) fista<=alg2 on quadratic: {b_ok}, "
        f"(c) alg2<=fista on {c_count}/3 non-strongly-convex, (d) classic worst: {d_ok}, "
        f"runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_8_determinism(tmp_path, cli):
    checks = []

    solve_args = ("solve", "--problem", "toy2d", "--solver", "alg2", "--iters", "50", "--seed", "4")
    a = cli(*solve_args, "--out", str(tmp_path / "s1.csv"))
    b = cli(*solve_args, "--out", str(tmp_path / "s2.csv"))
    checks.append(a.returncode == 0 and a.stdout == b.stdout)
    checks.append((tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes())

    bench_args = (
        "bench", "--experiment", "toy2d-perturbed", "--trials", "3", "--iters", "20",
        "--seed", "11",
    )
    a = cli(*bench_args, "--out", str(tmp_path / "b1.csv"))
    b = cli(*bench_args, "--out", str(tmp_path / "b2.csv"))
    checks.append(a.returncode == 0 and a.stdout == b.stdout)
    for suffix in (".csv", ".raw.csv"):
        checks.append(
            (tmp_path / "b1.csv").with_suffix(suffix).read_bytes()
            == (tmp_path / "b2.csv").with_suffix(suffix).read_bytes()
        )

    a = cli("verify", "--suite", "anti-oscillation")
    b = cli("verify", "--suite", "anti-oscillation")
    checks.append(a.returncode == 0 and a.stdout == b.stdout)

    _report(8, "byte determinism", all(checks), f"{sum(checks)}/{len(checks)} comparisons identical")


def test_criterion_9_gradient_checks():
    results = suite_gradcheck(points=10)
    ok = all(r.passed for r in results)
    worst = min(r.margin for r in results)
    _report(
        9, "finite-difference gradients", ok,
        f"6 families x 10 points, worst margin {worst:.3e} at tolerance 1e-5",
    )

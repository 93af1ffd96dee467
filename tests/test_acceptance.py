"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints "ACCEPTANCE nn <name>: PASS/FAIL — <measurements>" and then
asserts, so `pytest -v` gives the per-criterion record and failures carry
the measured numbers.  Runtime limits are asserted alongside the statistics.
"""
import json
import math
import time

import numpy as np

from sphwhittle import (
    Band,
    EmpiricalSpectrum,
    ExactPowerLaw,
    SearchBox,
    SeedSpec,
    estimate,
    experiment_from_dict,
    full_band,
    k_factor,
    run_experiment,
    sample_empirical,
    objective,
    spectrum_values,
    u_limit,
    z_fullband,
    z_narrowband,
)
from sphwhittle.cli import main
from sphwhittle.whittle import _BandData


def _full_band_pass(spectrum: EmpiricalSpectrum, alpha: float) -> tuple[float, ...]:
    # the estimator's one band pass on the full band, in a work block of its own
    work = np.empty((2, spectrum.l_max))
    return _BandData(spectrum.values, full_band(spectrum.l_max), work).centered_moments(alpha)


def score(spectrum: EmpiricalSpectrum, alpha: float) -> float:
    """R'(alpha) on the full band, from the estimator's one band pass."""
    return _full_band_pass(spectrum, alpha)[1]


def curvature(spectrum: EmpiricalSpectrum, alpha: float) -> float:
    """R''(alpha) on the full band, from the estimator's one band pass."""
    return _full_band_pass(spectrum, alpha)[2]


def _line(num: int, name: str, ok: bool, detail: str) -> str:
    message = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(message)
    return message


def _run(cfg_dict: dict):
    cfg, _ = experiment_from_dict(cfg_dict)
    return run_experiment(cfg, threads=4)


def test_01_moment_laws():
    start = time.time()
    n = 100_000
    model = ExactPowerLaw(2.0, 3.0)
    targets = spectrum_values(model, 500)
    ls = (5, 50, 500)
    cols = np.empty((n, 3))
    for i in range(n):
        values = sample_empirical(model, 500, SeedSpec(101, i)).values
        cols[i] = [values[l - 1] / targets[l - 1] for l in ls]
    elapsed = time.time() - start

    checks = []
    details = []
    for j, l in enumerate(ls):
        nu = 2 * l + 1
        var_target = 2 / nu
        mean_se = math.sqrt(var_target / n)
        mu4 = 12 / nu**2 + 48 / nu**3
        var_se = math.sqrt((mu4 - var_target**2 * (n - 3) / (n - 1)) / n)
        mean = cols[:, j].mean()
        var = cols[:, j].var(ddof=1)
        mean_ok = abs(mean - 1.0) <= 3 * mean_se
        var_ok = abs(var - var_target) <= 3 * var_se
        checks += [mean_ok, var_ok]
        details.append(
            f"l={l} mean {mean:.5f} (se {mean_se:.1e}) var {var:.5e} vs {var_target:.5e}"
        )
    time_ok = elapsed < 10.0
    checks.append(time_ok)
    message = _line(1, "moment laws", all(checks), "; ".join(details) + f"; {elapsed:.1f}s")
    assert all(checks), message


def test_02_deterministic_recovery():
    start = time.time()
    bands = (full_band(2000), Band(1737, 2000))
    worst = 0.0
    for g0, alpha0 in ((2.0, 3.0), (1.0, 2.5), (5.0, 4.0)):
        spec = EmpiricalSpectrum(spectrum_values(ExactPowerLaw(g0, alpha0), 2000))
        for band in bands:
            result = estimate(spec, band, SearchBox())
            worst = max(worst, abs(result.alpha_hat - alpha0), abs(result.g_hat - g0))
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    message = _line(2, "deterministic recovery", ok, f"worst error {worst:.2e}; {elapsed:.2f}s")
    assert ok, message


def test_03_clt_under_condition_four():
    start = time.time()
    failures = []
    details = []
    for i, alpha0 in enumerate((2.0, 3.0, 4.0)):
        box = {"alpha_min": 1.0, "alpha_max": 8.0, "tol": 1e-6} if alpha0 == 2.0 else {
            "alpha_min": 2.01,
            "alpha_max": 10.0,
            "tol": 1e-6,
        }
        report = _run(
            {
                "model": {"type": "power_law", "g0": 2.0, "alpha0": alpha0},
                "L": 2000,
                "band": {"type": "full"},
                "box": box,
                "scheme": {"type": "fullband", "corrected": True},
                "replications": 1000,
                "seed": 301 + i,
            }
        )
        tail = next(r for r in report.quantile_freqs if r.cutpoint == -1.96).percent_below
        sub = {
            "mean": abs(report.mean) <= 0.1,
            "var": 0.85 <= report.variance <= 1.15,
            "sw": report.sw_p > 0.01,
            "tail": 1.5 <= tail <= 5.5,
        }
        failures += [f"alpha0={alpha0} {k}" for k, ok in sub.items() if not ok]
        details.append(
            f"alpha0={alpha0}: mean {report.mean:.3f}, var {report.variance:.3f}, "
            f"sw_p {report.sw_p:.3f}, tail {tail:.1f}%"
        )
    elapsed = time.time() - start
    if elapsed >= 60.0:
        failures.append("runtime")
    ok = not failures
    message = _line(
        3,
        "clt under condition 4",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s" + (f"; failed: {failures}" if failures else ""),
    )
    assert ok, message


def test_04_bias_under_condition_three():
    start = time.time()
    means = []
    for seed in (401, 402, 403, 404, 405):
        report = _run(
            {
                "model": {"type": "kappa", "g0": 2.0, "alpha0": 3.0, "kappa": 1.0},
                "L": 2000,
                "band": {"type": "full"},
                "scheme": {"type": "rate"},
                "replications": 2000,
                "seed": seed,
            }
        )
        means.append(report.mean)
    elapsed = time.time() - start
    magnitude_ok = all(0.7 <= abs(m) <= 1.3 for m in means)
    signs = {math.copysign(1.0, m) for m in means}
    sign_stable = len(signs) == 1
    ok = magnitude_ok and sign_stable and elapsed < 120.0
    sign_label = "positive" if means[0] > 0 else "negative"
    message = _line(
        4,
        "kappa bias rate",
        ok,
        f"normalized means {[round(m, 3) for m in means]}; sign {sign_label}; {elapsed:.1f}s",
    )
    assert ok, message


def test_05_variance_bias_mse_table():
    start = time.time()
    reports = {}
    for kappa in (1.0, 2.0):
        reports[kappa] = _run(
            {
                "model": {"type": "kappa", "g0": 2.0, "alpha0": 3.0, "kappa": kappa},
                "L": 1000,
                "band": {"type": "full"},
                "scheme": {"type": "fullband", "corrected": True},
                "replications": 5000,
                "seed": 501,
            }
        )
    elapsed = time.time() - start
    r1 = reports[1.0]
    ratio = abs(reports[2.0].bias) / abs(r1.bias)
    checks = {
        "var": abs(r1.variance_raw - 7.9e-6) <= 0.3 * 7.9e-6,
        "bias": abs(abs(r1.bias) - 0.004) <= 0.2 * 0.004,
        "mse": abs(r1.mse - 2.4e-5) <= 0.3 * 2.4e-5,
        "double": abs(ratio - 2.0) <= 0.2 * 2.0,
        "time": elapsed < 180.0,
    }
    ok = all(checks.values())
    message = _line(
        5,
        "variance/bias/mse table",
        ok,
        f"var {r1.variance_raw:.2e}, bias {r1.bias:.2e}, mse {r1.mse:.2e}, "
        f"kappa-2 ratio {ratio:.2f}; {elapsed:.1f}s",
    )
    assert ok, message


def test_06_narrow_band_clt():
    start = time.time()
    common = {
        "model": {"type": "kappa", "g0": 2.0, "alpha0": 4.0, "kappa": 1.0},
        "L": 2000,
        "replications": 1000,
        "seed": 601,
    }
    narrow = _run(
        {
            **common,
            "band": {"type": "narrow", "L1": 1850},
            "scheme": {"type": "narrowband"},
        }
    )
    full = _run(
        {
            **common,
            "band": {"type": "full"},
            "scheme": {"type": "fullband", "corrected": True},
        }
    )
    elapsed = time.time() - start
    checks = {
        "mean": abs(narrow.mean) <= 0.12,
        "var": 0.85 <= narrow.variance <= 1.15,
        "bias-order": abs(narrow.mean) < abs(full.mean),
        "time": elapsed < 120.0,
    }
    ok = all(checks.values())
    message = _line(
        6,
        "narrow-band clt",
        ok,
        f"narrow mean {narrow.mean:.4f}, var {narrow.variance:.3f}; "
        f"full |mean| {abs(full.mean):.3f}; {elapsed:.1f}s",
    )
    assert ok, message


def test_07_noise_regimes():
    start = time.time()
    base = {
        "model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0},
        "L": 1000,
        "band": {"type": "full"},
        "replications": 2000,
        "seed": 701,
    }
    quiet = _run({**base, "noise": {"g_n": 1.0, "gamma": 5.0}, "scheme": {"type": "noise"}})
    clean = _run({**base, "scheme": {"type": "fullband"}})
    mid = _run({**base, "noise": {"g_n": 1.0, "gamma": 2.5}, "scheme": {"type": "noise"}})
    # u = alpha0 - gamma = 0: the noise scales the variance by (1 + g_n/g0)^2
    equal = _run({**base, "noise": {"g_n": 1.0, "gamma": 3.0}, "scheme": {"type": "noise"}})
    loud = _run(
        {
            **base,
            "noise": {"g_n": 1.0, "gamma": 1.0},
            "scheme": {"type": "fullband"},
        }
    )
    elapsed = time.time() - start
    divergence = loud.boundary_hits / 2000
    checks = {
        "quiet": abs(quiet.mean - clean.mean) < 0.05,
        "mid-mean": abs(mid.mean) <= 0.15,
        "mid-var": 0.8 <= mid.variance <= 1.4,
        "equal-var": 0.85 <= equal.variance <= 1.15,
        "loud": divergence > 0.5,
        "time": elapsed < 180.0,
    }
    ok = all(checks.values())
    message = _line(
        7,
        "noise regimes",
        ok,
        f"gamma=5 mean gap {abs(quiet.mean - clean.mean):.4f}; "
        f"gamma=2.5 mean {mid.mean:.3f} var {mid.variance:.3f}; "
        f"gamma=3 var {equal.variance:.3f}; "
        f"gamma=1 divergence {divergence:.3f}; {elapsed:.1f}s",
    )
    assert ok, message


def test_08_appendix_oracles():
    start = time.time()
    l_max = 10**5
    failures = []
    details = []
    for s in (-1.0, 0.0, 1.0, 2.0):
        ratio = z_fullband(l_max, s) / float(l_max) ** (4 + 2 * s)
        target = 1 / (4 * (1 + s / 2) ** 4)
        if abs(ratio / target - 1.0) > 0.01:
            failures.append(f"full s={s}")
        details.append(f"full s={s}: {ratio / target:.4f}")
    g = 1 / math.log(l_max)
    for s in (0.0, 0.5, 1.0):
        ratio = z_narrowband(l_max, g, s) / (float(l_max) ** (4 + 2 * s) * g**4)
        target = k_factor(s)
        if abs(ratio / target - 1.0) > 0.03:
            failures.append(f"narrow s={s}")
        details.append(f"narrow s={s}: {ratio / target:.4f} of K={target:.5f}")
    if k_factor(0.0) != 1 / 3:
        failures.append("k_factor(0)")
    grid = [k / 1000 for k in range(-1899, 5001)]
    zeros = [x for x in grid if u_limit(x) == 0.0]
    negatives = [x for x in grid if u_limit(x) < 0.0]
    if zeros != [0.0] or negatives:
        failures.append("u_limit grid")
    elapsed = time.time() - start
    if elapsed >= 5.0:
        failures.append("runtime")
    ok = not failures
    message = _line(
        8,
        "appendix oracles",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s" + (f"; failed: {failures}" if failures else ""),
    )
    assert ok, message


def test_09_derivative_consistency():
    start = time.time()
    model = ExactPowerLaw(2.0, 3.0)
    rng = np.random.default_rng(926)
    h = 1e-5
    worst_score = 0.0
    worst_curv = 0.0
    for _ in range(20):
        spec = sample_empirical(model, 500, SeedSpec(901, int(rng.integers(0, 10**6))))
        alpha = float(rng.uniform(2.2, 8.0))
        fd_score = (objective(spec, alpha + h) - objective(spec, alpha - h)) / (2 * h)
        s = score(spec, alpha)
        worst_score = max(worst_score, abs(s - fd_score) / (1 + abs(s)))
        fd_curv = (score(spec, alpha + h) - score(spec, alpha - h)) / (2 * h)
        q = curvature(spec, alpha)
        worst_curv = max(worst_curv, abs(q - fd_curv) / (1 + abs(q)))
    elapsed = time.time() - start
    ok = worst_score <= 1e-6 and worst_curv <= 1e-6
    message = _line(
        9,
        "derivative consistency",
        ok,
        f"worst score dev {worst_score:.1e}, worst curvature dev {worst_curv:.1e}; {elapsed:.1f}s",
    )
    assert ok, message


def test_10_artifact_determinism(tmp_path):
    start = time.time()
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(
        json.dumps(
            {
                "model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0},
                "L": 200,
                "band": {"type": "full"},
                "scheme": {"type": "fullband", "corrected": True},
                "replications": 50,
                "seed": 1001,
            }
        )
    )
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        rc = main(
            [
                "mc",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / name),
                "--threads",
                threads,
            ]
        )
        assert rc == 0
        outputs.append(
            (
                (tmp_path / name / "report.json").read_bytes(),
                (tmp_path / name / "samples.csv").read_bytes(),
            )
        )
    elapsed = time.time() - start
    ok = outputs[0] == outputs[1] == outputs[2]
    message = _line(
        10,
        "artifact determinism",
        ok,
        f"three runs (threads 1,1,4) byte-identical: {ok}; {elapsed:.1f}s",
    )
    assert ok, message

"""Workloads, command runners, correctness gates and statistics shared by the
timed run, the traced run, the fresh-interpreter child and the tests.

This module imports only the standard library at load time, so the child
process can time the import of sphwhittle itself.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINNED_PATH = BENCH_DIR / "pinned_seed42.json"

# seed whose alpha_hats are pinned from the seed commit; other seeds get the
# statistical gate instead
DEFAULT_SEED = 42
# replications per mc workload in the pinned reference and in the traced
# replay: 1000 calls leave 10 samples beyond p99
PIN_REPS = 1000
ALPHA_TOL = 1e-12

POWER_LAW = {"type": "power_law", "g0": 2.0, "alpha0": 3.0}


class GateError(Exception):
    """A correctness gate failed: the program's output is wrong."""


@dataclass(frozen=True)
class Workload:
    """One set of inputs (BENCHMARK.json says why each exists): an `mc`
    config, and the replications `reps` of one `mc` command in the timed
    run."""

    name: str
    reps: int
    mc: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-large",
            50,
            {
                "model": POWER_LAW,
                "L": 20000,
                "band": {"type": "full"},
                "scheme": {"type": "fullband", "corrected": True},
            },
        ),
        Workload(
            "mc-noise",
            500,
            {
                "model": {"type": "power_law", "g0": 1.0, "alpha0": 3.0},
                "noise": {"g_n": 1.0, "gamma": 2.2},
                "L": 2000,
                "band": {"type": "full"},
                "scheme": {"type": "noise"},
            },
        ),
    )
}
ARTIFACTS = ("report.json", "samples.csv")


def import_package():
    """Import sphwhittle from this checkout's src/, never from elsewhere."""
    if not (SRC / "sphwhittle" / "__init__.py").is_file():
        raise SystemExit(f"error: no sphwhittle sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sphwhittle
    import sphwhittle.cli

    if Path(sphwhittle.__file__).resolve().parent != (SRC / "sphwhittle").resolve():
        raise SystemExit(f"error: sphwhittle imported from {sphwhittle.__file__}")
    return sphwhittle


def mc_config(wl: Workload, seed: int, reps: int) -> dict:
    return dict(wl.mc, replications=reps, seed=seed)


def write_config(wl: Workload, seed: int, reps: int, work: Path) -> Path:
    """Write the workload's mc config into `work`; returns its path."""
    work.mkdir(parents=True, exist_ok=True)
    path = work / "mc.json"
    path.write_text(json.dumps(mc_config(wl, seed, reps)))
    return path


def mc_argv(config: Path, out: Path, threads: int | None) -> list[str]:
    """`sphwhittle mc` as a user runs it; threads None is the default."""
    flag = [] if threads is None else ["--threads", str(threads)]
    return ["mc", "--config", str(config), "--out", str(out), *flag]


def artifact_digest(out: Path) -> str:
    """Hash of the deterministic artifacts one `mc` command writes."""
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def read_outcomes(out: Path) -> tuple[list[float], list[str]]:
    """alpha_hats and statuses from samples.csv."""
    alphas, statuses = [], []
    with open(out / "samples.csv") as fh:
        next(fh)
        for line in fh:
            _, alpha, _, status = line.rstrip("\n").split(",")
            alphas.append(float(alpha))
            statuses.append(status)
    return alphas, statuses


def check_values(wl: Workload, seed: int, alphas, statuses) -> None:
    """At the default seed, alpha_hats and statuses must match the pinned
    reference (alpha_hat to ALPHA_TOL). At other seeds, the interior mean of
    alpha_hat must lie within 5 standard errors of alpha0 (mc-large)."""
    if seed == DEFAULT_SEED:
        ref = json.loads(PINNED_PATH.read_text())[wl.name]
        n = len(alphas)
        if n > len(ref["alpha_hat"]):
            raise GateError(f"{wl.name}: {n} replications, only {len(ref['alpha_hat'])} pinned")
        if list(statuses) != ref["status"][:n]:
            raise GateError(f"{wl.name}: statuses differ from the pinned reference")
        for i, (a, p) in enumerate(zip(alphas, ref["alpha_hat"])):
            same_nan = p is None and math.isnan(a)
            if not same_nan and (p is None or not abs(a - p) <= ALPHA_TOL):
                raise GateError(f"{wl.name}: alpha_hat[{i}] = {a!r}, pinned {p!r}")
        return
    if wl.name == "mc-large":
        alpha0 = POWER_LAW["alpha0"]
        ok = [a for a, s in zip(alphas, statuses) if s == "ok"]
        if len(ok) < 2:
            raise GateError(f"{wl.name}: fewer than 2 interior estimates")
        se = statistics.stdev(ok) / math.sqrt(len(ok))
        if not abs(statistics.fmean(ok) - alpha0) <= 5 * se:
            raise GateError(f"{wl.name}: mean alpha_hat {statistics.fmean(ok)!r} is > 5 SE from {alpha0}")


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spawn_child(wl: Workload, seed: int, reps: int, work: Path, run: bool) -> dict:
    """Time import + config parse (and optionally one default-thread `mc`
    command) in a fresh interpreter; returns the child's JSON report."""
    argv = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", wl.name, "--seed", str(seed), "--reps", str(reps),
        "--work", str(work), "--run", "1" if run else "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise GateError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sphwhittle").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    """Where and on what a result was measured; kept apart from the metrics."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }

"""The sphwhittle benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload mc-large --seed 42 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 55 --trace 0

--trace 0 runs the workload's `mc` command through `sphwhittle.cli.main`
for --seconds and reports the end-to-end metrics; --trace 1 runs the traced
replay and the per-layer probes (tracing.py) and reports the per-layer
metrics. Every run checks its outputs (common.check_values, artifact
identity across thread counts and repeats) and prints, as its last stdout
line, {"correct", "attempted", "failed", "metrics"}. The same object plus an
environment block goes to .bench_out/results/ for bench/compare.py.
Exit code 0 when every gate passed; 1 when a gate failed (the result line
says correct: false) or when the checkout has no sources (no result line).
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import common
from common import GateError, Workload

# Fresh-interpreter probes for setup_s start every CHILD_EVERY seconds of the
# window, so they sample the machine at different moments; a run has at
# least MIN_CHILDREN. The first also runs one mc command for peak_rss_mb.
CHILD_EVERY = 10.0
MIN_CHILDREN = 3

END_TO_END_UNITS = {
    "reps_per_s": "1/s",
    "reps_per_s_serial": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def timed_run(wl: Workload, seed: int, seconds: float, work: Path, reps: int | None = None,
              min_children: int = MIN_CHILDREN) -> dict:
    """End-to-end metrics: for `seconds`, alternate `mc --threads 1` and
    default-thread `mc` commands in this warmed process, and time set-up in
    fresh interpreters between them."""
    from sphwhittle.cli import main

    reps = reps or wl.reps
    config = common.write_config(wl, seed, reps, work)
    outs = {"serial": work / "serial", "default": work / "default"}
    threads = {"serial": 1, "default": None}
    times = {"serial": [], "default": []}
    digests = set()
    attempted = failed = 0

    def unit(mode: str, record: bool) -> None:
        nonlocal attempted, failed
        t0 = time.perf_counter()
        code = main(common.mc_argv(config, outs[mode], threads[mode]))
        dt = time.perf_counter() - t0
        attempted += 1
        failed += code != 0
        if code:
            raise GateError(f"{wl.name}: {mode} mc exited {code}")
        digests.add(common.artifact_digest(outs[mode]))
        if record:
            times[mode].append(dt)

    probes = []

    def probe() -> None:
        probes.append(common.spawn_child(wl, seed, reps, work / f"child{len(probes)}", run=not probes))
        if any(probes[-1]["exit_codes"]):
            raise GateError(f"{wl.name}: fresh-process mc exited {probes[-1]['exit_codes']}")

    # warm-up command per mode: caches, lazy imports, first-touch allocations
    unit("serial", False)
    unit("default", False)
    deadline = time.perf_counter() + seconds
    next_probe = time.perf_counter()
    pair = 0
    while time.perf_counter() < deadline or pair < 2:
        if time.perf_counter() >= next_probe:
            probe()
            next_probe = time.perf_counter() + CHILD_EVERY
        order = ("serial", "default") if pair % 2 == 0 else ("default", "serial")
        for mode in order:
            unit(mode, True)
        pair += 1
    while len(probes) < min_children:
        probe()
    if len(digests) != 1:
        raise GateError(f"{wl.name}: artifacts differ between --threads 1, default threads or repeats")

    alphas, statuses = common.read_outcomes(outs["default"])
    common.check_values(wl, seed, alphas, statuses)

    # Replications over the time the commands took, for the whole window. On
    # a shared host the speed switches between a fast and a slow phase for
    # seconds at a time: the best command is one that caught a fast phase,
    # and the median jumps between the phases' speeds as their shares
    # change, while this rate moves in proportion to those shares.
    metrics = {
        "reps_per_s": reps * len(times["default"]) / sum(times["default"]),
        "reps_per_s_serial": reps * len(times["serial"]) / sum(times["serial"]),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": probes[0]["peak_rss_mb"],
        "ok_share": statuses.count("ok") / len(statuses),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "samples": {"mc_s_default": times["default"], "mc_s_serial": times["serial"],
                    "setup_s": [p["setup_s"] for p in probes]},
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, reps: int | None = None,
                 children: int = MIN_CHILDREN) -> dict:
    """Run one workload; returns the result object (with `correct`).
    `reps` and `children` shrink the run for the benchmark's own tests."""
    work = common.OUT / f"work-{wl.name}-{time.time_ns()}"
    try:
        if trace:
            import tracing

            result = tracing.traced_run(wl, seed, work, reps=reps, children=children)
        else:
            result = timed_run(wl, seed, seconds, work, reps=reps, min_children=children)
        result["correct"] = True
    except GateError as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def save_result(name: str, seed: int, trace: bool, result: dict) -> Path:
    results = common.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-s{seed}-t{int(trace)}-{time.time_ns()}.json"
    path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": common.environment(seed),
        "result": {k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
        "samples": result.get("samples", {}),
    }, indent=1))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*common.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    common.import_package()

    names = list(common.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(common.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        save_result(name, args.seed, bool(args.trace), result)
        for metric, m in result["metrics"].items():
            print(f"{name:12s} {metric:28s} {m['value']:.6g} {m['unit']}")
        prefix = f"{name}." if len(names) > 1 else ""
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Traced run: per-layer metrics from spans recorded around public calls.

The replay repeats run_experiment's serial loop and report assembly from
public calls (SeedSpec, sample_*, estimate, normalization_factor,
summarize, shapiro_wilk, quantile_frequencies, write_report_files), one span
per call, and must reproduce run_experiment's alpha_hats, statuses and
artifacts bit for bit. Probes time the calls the replay does not make on
its own (spectrum values, generator, objective, asymptotics, the CLI).
Spans live in memory and are written to .bench_out/trace/ at the end.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import common
from common import GateError, Workload

# shapiro_wilk's sample cap in run_experiment
SW_MAX_N = 5000
# probe repetitions: many for the µs-scale calls, few for the slow ones
MANY, FEW, PIPELINES = 200, 20, 3

PER_LAYER_UNITS = {
    "spectrum.values_us": "us",
    "spectrum.noise_values_us": "us",
    "sampling.generator_us": "us",
    "sampling.sample_us_p50": "us",
    "sampling.sample_us_p99": "us",
    "sampling.draw_us": "us",
    "whittle.estimate_us_p50": "us",
    "whittle.estimate_us_p99": "us",
    "whittle.evaluations_mean": "evals/rep",
    "whittle.evaluations_max": "count",
    "whittle.eval_us": "us",
    "whittle.objective_us": "us",
    "whittle.nonconverged_share": "ratio",
    "montecarlo.run_s_serial": "s",
    "montecarlo.run_s_threads": "s",
    "montecarlo.thread_speedup": "ratio",
    "montecarlo.summarize_us": "us",
    "montecarlo.shapiro_wilk_us": "us",
    "montecarlo.quantiles_us": "us",
    "montecarlo.from_dict_us": "us",
    "montecarlo.write_ms": "ms",
    "montecarlo.artifact_bytes": "bytes",
    "montecarlo.fail_share": "ratio",
    "montecarlo.boundary_share": "ratio",
    "asymptotics.z_fullband_ms": "ms",
    "asymptotics.z_narrowband_ms": "ms",
    "cli.simulate_s": "s",
    "cli.estimate_s": "s",
    "cli.oracle_s": "s",
    "cli.mc_overhead_s": "s",
    "cli.import_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Tracer:
    """Spans as [name, start, end, parent index, replication index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rep: int | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, rep])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, rep: int | None = None):
        with self.span(name, rep):
            return fn(*args)

    def durations(self, name: str, parent: int | None = None) -> list[float]:
        return [
            end - start
            for n, start, end, p, _ in self.spans
            if n == name and (parent is None or p == parent)
        ]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "rep")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def replay(sph, tr: Tracer, cfg, resolved: dict, out: Path):
    """run_experiment(cfg, threads=1) followed by write_report_files, from
    public calls; returns the report and the EstimateResults."""
    import numpy as np

    outcomes, results = [], []
    for i in range(cfg.replications):
        seed = tr.call("sampling.SeedSpec", sph.SeedSpec, cfg.master_seed, i, rep=i)
        if cfg.noise is not None:
            spectrum = tr.call("sampling.sample", sph.sample_observed_debiased,
                               cfg.model, cfg.noise, cfg.l_max, seed, rep=i)
        else:
            spectrum = tr.call("sampling.sample", sph.sample_empirical, cfg.model, cfg.l_max, seed, rep=i)
        try:
            result = tr.call("whittle.estimate", sph.estimate, spectrum, cfg.band, cfg.box, rep=i)
        except sph.NonPositiveAmplitude:
            outcomes.append((float("nan"), "error"))
            continue
        results.append(result)
        outcomes.append((result.alpha_hat, "boundary" if result.boundary_hit else "ok"))

    alpha0 = tr.call("spectrum.asymptotic_params", sph.asymptotic_params, cfg.model).alpha0
    factor = tr.call("whittle.normalization_factor", sph.normalization_factor, cfg.scheme)
    all_alpha = np.array([a for a, _ in outcomes])
    statuses = tuple(s for _, s in outcomes)
    ok = np.array([s == "ok" for s in statuses])
    raw = all_alpha[ok]
    summary = tr.call("montecarlo.summarize", sph.summarize, raw, alpha0, cfg.scheme)
    normalized = summary.normalized
    sw_sample = normalized[:SW_MAX_N]
    if sw_sample.size >= 3 and np.ptp(sw_sample) > 0:
        sw_w, sw_p = tr.call("montecarlo.shapiro_wilk", sph.shapiro_wilk, sw_sample)
    else:
        sw_w, sw_p = float("nan"), float("nan")
    report = sph.MonteCarloReport(
        replications=cfg.replications,
        boundary_hits=int(cfg.replications - ok.sum()),
        mean=float(normalized.mean()),
        variance=float(normalized.var(ddof=1)) if normalized.size > 1 else 0.0,
        bias=summary.bias,
        variance_raw=summary.variance,
        mse=summary.mse,
        sw_w=sw_w,
        sw_p=sw_p,
        quantile_freqs=tr.call("montecarlo.quantile_frequencies", sph.quantile_frequencies, normalized),
        normalized_errors=normalized,
        raw_alpha_hats=raw,
        statuses=statuses,
        all_alpha_hats=all_alpha,
        all_normalized=factor * (all_alpha - alpha0),
    )
    tr.call("montecarlo.write_report_files", sph.write_report_files, report, resolved, out)
    return report, results


def check_replay(replayed, report) -> None:
    """The replay must equal run_experiment bit for bit."""
    if replayed.statuses != report.statuses:
        raise GateError("replay statuses differ from run_experiment")
    if replayed.all_alpha_hats.tobytes() != report.all_alpha_hats.tobytes():
        raise GateError("replay alpha_hats differ from run_experiment")


def _same_artifacts(a: Path, b: Path) -> bool:
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in common.ARTIFACTS)


def _pipeline(work: Path, l_max: int, seed: int) -> list[list[str]]:
    """The one-map commands: simulate at this L -> estimate -> oracle {}."""
    work.mkdir(parents=True, exist_ok=True)
    configs = {
        "simulate": {"model": common.POWER_LAW, "L": l_max, "seed": seed},
        "estimate": {"input": str(work / "spectrum.csv")},
        "oracle": {},
    }
    argvs = []
    for name, payload in configs.items():
        path = work / f"{name}-config.json"
        path.write_text(json.dumps(payload))
        argvs.append([name, "--config", str(path), "--out", str(work)])
    return argvs


def _us(xs) -> float:
    return statistics.median(xs) * 1e6


def traced_run(wl: Workload, seed: int, work: Path, reps: int | None = None, children: int = 3) -> dict:
    sph = common.import_package()
    from sphwhittle.cli import main as cli_main

    reps = reps or common.PIN_REPS
    cfg_dict = common.mc_config(wl, seed, reps)
    cfg, resolved = sph.experiment_from_dict(cfg_dict)
    model, l_max = cfg.model, cfg.l_max
    noise = cfg.noise or sph.noise_from_dict(common.WORKLOADS["mc-noise"].mc["noise"])
    mc_json = common.write_config(wl, seed, reps, work)
    pipeline = _pipeline(work / "oneshot", l_max, seed)
    sample = sph.sample_empirical(model, l_max, sph.SeedSpec(seed, 0))
    sph.estimate(sample, cfg.band, cfg.box)  # warm-up
    codes = []

    tr = Tracer()
    with tr.span("bench.probes"):
        threaded = tr.call("montecarlo.run_experiment.threads", sph.run_experiment, cfg, common.nproc())
        for i in range(MANY):
            tr.call("spectrum.spectrum_values", sph.spectrum_values, model, l_max)
            tr.call("spectrum.noise_values", sph.noise_values, noise, l_max)
            tr.call("sampling.generator", sph.generator, sph.SeedSpec(seed, i))
        normalized = threaded.normalized_errors
        for _ in range(FEW):
            tr.call("whittle.objective", sph.objective, sample, 3.0, cfg.band)
            tr.call("montecarlo.experiment_from_dict", sph.experiment_from_dict, cfg_dict)
            tr.call("montecarlo.summarize", sph.summarize, threaded.raw_alpha_hats, 3.0, cfg.scheme)
            tr.call("montecarlo.shapiro_wilk", sph.shapiro_wilk, normalized[:SW_MAX_N])
            tr.call("montecarlo.quantile_frequencies", sph.quantile_frequencies, normalized)
        g = 1.0 / math.log(1e5)
        for _ in range(PIPELINES):
            tr.call("montecarlo.write_report_files", sph.write_report_files, threaded, resolved, work / "probe")
            tr.call("asymptotics.z_fullband", sph.z_fullband, 100_000, 1.0)
            tr.call("asymptotics.z_narrowband", sph.z_narrowband, 100_000, g, 1.0)
            for argv in pipeline:
                codes.append(tr.call(f"cli.{argv[0]}", cli_main, argv))
        # cli.mc_overhead_s and trace.overhead are ratios or differences of
        # timings: alternate them and run the replay right after
        for _ in range(2):
            report = tr.call("montecarlo.run_experiment.serial", sph.run_experiment, cfg, 1)
            codes.append(tr.call("cli.mc", cli_main, common.mc_argv(mc_json, work / "cli", 1)))
    if any(codes):
        raise GateError(f"{wl.name}: CLI probe commands exited {codes}")
    with tr.span("bench.replay") as root:
        replayed, results = replay(sph, tr, cfg, resolved, work / "replay")

    check_replay(replayed, report)
    if threaded.all_alpha_hats.tobytes() != report.all_alpha_hats.tobytes():
        raise GateError("run_experiment differs between threads=1 and threads=nproc")
    if not _same_artifacts(work / "replay", work / "cli"):
        raise GateError("replay artifacts differ from `sphwhittle mc` artifacts")
    common.check_values(wl, seed, list(report.all_alpha_hats), list(report.statuses))
    imports = [common.spawn_child(wl, seed, reps, work / f"child{i}", run=False)["import_s"]
               for i in range(children)]

    tr.write(common.OUT / "trace" / f"{wl.name}-s{seed}-{time.time_ns()}.json")

    sample_s = tr.durations("sampling.sample", root)
    estimate_s = tr.durations("whittle.estimate", root)
    evaluations = [r.evaluations for r in results]
    values_us = _us(tr.durations("spectrum.spectrum_values"))
    noise_us = _us(tr.durations("spectrum.noise_values"))
    generator_us = _us(tr.durations("sampling.generator"))
    run_serial = statistics.median(tr.durations("montecarlo.run_experiment.serial"))
    run_threads = tr.durations("montecarlo.run_experiment.threads")[0]
    replay_s = tr.spans[root][2] - tr.spans[root][1]
    covered = sum(t for t, s in zip(tr.self_times(), tr.spans) if s[3] == root)
    sizes = sum((work / "replay" / n).stat().st_size for n in common.ARTIFACTS)
    metrics = {
        "spectrum.values_us": values_us,
        "spectrum.noise_values_us": noise_us,
        "sampling.generator_us": generator_us,
        "sampling.sample_us_p50": _us(sample_s),
        "sampling.sample_us_p99": common.percentile(sample_s, 99) * 1e6,
        # the chi-square draw: what sample_* spends beyond its spectrum
        # evaluations and its generator
        "sampling.draw_us": _us(sample_s) - values_us - generator_us - (noise_us if cfg.noise else 0.0),
        "whittle.estimate_us_p50": _us(estimate_s),
        "whittle.estimate_us_p99": common.percentile(estimate_s, 99) * 1e6,
        "whittle.evaluations_mean": statistics.fmean(evaluations),
        "whittle.evaluations_max": max(evaluations),
        "whittle.eval_us": sum(estimate_s) / sum(evaluations) * 1e6,
        "whittle.objective_us": _us(tr.durations("whittle.objective")),
        "whittle.nonconverged_share": sum(not r.converged for r in results) / reps,
        "montecarlo.run_s_serial": run_serial,
        "montecarlo.run_s_threads": run_threads,
        "montecarlo.thread_speedup": run_serial / run_threads,
        "montecarlo.summarize_us": _us(tr.durations("montecarlo.summarize")),
        "montecarlo.shapiro_wilk_us": _us(tr.durations("montecarlo.shapiro_wilk")),
        "montecarlo.quantiles_us": _us(tr.durations("montecarlo.quantile_frequencies")),
        "montecarlo.from_dict_us": _us(tr.durations("montecarlo.experiment_from_dict")),
        "montecarlo.write_ms": statistics.median(tr.durations("montecarlo.write_report_files")) * 1e3,
        "montecarlo.artifact_bytes": sizes,
        "montecarlo.fail_share": report.statuses.count("error") / reps,
        "montecarlo.boundary_share": report.statuses.count("boundary") / reps,
        "asymptotics.z_fullband_ms": statistics.median(tr.durations("asymptotics.z_fullband")) * 1e3,
        "asymptotics.z_narrowband_ms": statistics.median(tr.durations("asymptotics.z_narrowband")) * 1e3,
        "cli.simulate_s": statistics.median(tr.durations("cli.simulate")),
        "cli.estimate_s": statistics.median(tr.durations("cli.estimate")),
        "cli.oracle_s": statistics.median(tr.durations("cli.oracle")),
        "cli.mc_overhead_s": statistics.median(tr.durations("cli.mc")) - run_serial,
        "cli.import_s": statistics.median(imports),
        "trace.coverage": covered / replay_s,
        "trace.overhead": replay_s / run_serial,
    }
    return {
        "attempted": len(codes),
        "failed": sum(code != 0 for code in codes),
        "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()},
    }

"""Seeded replication engine for the estimator's sampling laws.

run_experiment executes the replications: replication i draws a spectrum
from the stream SeedSpec(master_seed, i) and estimates the index over the
configured band.  The model spectrum (and noise spectrum) is computed once
per run; only the chi-square draw is per replication.  The streams are
seeded in blocks, bit-identical to sampling.generator for each SeedSpec.

assemble turns the estimates and their statuses into the report, and is
the one place a MonteCarloReport is built: it normalizes the errors with
the configured scheme's factor, computed once.  Replications whose draw or
estimate raises a NumericalError (status "error") or that stop on the
search boundary are counted in boundary_hits and excluded from moment
statistics (a diverging design would otherwise destroy every statistic);
all replications appear in the per-replication table with a status column.

Replications run on up to one worker per usable CPU, one contiguous range
of indices per worker.  On Linux the first range runs in this process and
each other range in a child made by os.fork(); a worker costs a few
milliseconds, so each gets at least _FORK_MIN_WORK (2e5) band terms,
counted as its replications times l_max, and smaller runs, like every run
on other platforms, are serial.  The band reductions do not call BLAS, and
each replication has its own stream, so reports are pure functions of the
config for any worker count and BLAS build.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import NormalDist

import numpy as np

from ._files import (
    check_keys, config_float, config_int, from_json, reading_config, to_json, write_csv,
    write_json,
)
from .errors import (
    AllReplicationsFailed,
    ConfigError,
    DegenerateSample,
    EmptySample,
    NumericalError,
    SampleSizeOutOfRange,
)
from .sampling import SeedSpec, _design, _draw, _stream_generators
from .spectrum import (
    NoiseModel,
    SpectrumModel,
    asymptotic_params,
    check_l_max,
    model_from_dict,
    model_to_dict,
    noise_from_dict,
    noise_to_dict,
)
from .whittle import (
    Band,
    NormalizationScheme,
    SearchBox,
    _estimate,
    _on_edge,
    _quiet,
    full_band,
    narrow_band,
    normalization_factor,
)

__all__ = [
    "ExperimentConfig",
    "MonteCarloReport",
    "QuantileRow",
    "Summary",
    "assemble",
    "run_experiment",
    "quantile_frequencies",
    "shapiro_wilk",
    "summarize",
    "experiment_from_dict",
    "experiment_to_dict",
    "band_from_dict",
    "box_from_dict",
    "report_to_dict",
    "write_report_files",
    "DEFAULT_CUTPOINTS",
]

# the reference tables report frequencies at these standard-normal cutpoints
DEFAULT_CUTPOINTS = (-1.96, -1.0, -0.68, 0.0, 0.68, 1.0, 1.96)

_SW_MAX_N = 5000

_EXPERIMENT_KEYS = {"model", "noise", "L", "band", "box", "scheme", "replications", "seed"}

# Forked workers run when each gets at least this many band terms
# (replications x l_max).  A run_experiment sweep in a numpy-only process, on
# a 2-vCPU VM (serial -> 2 forked workers, medians of 7-25 alternated runs
# per cell, positive and debiased designs at L = 200, 2000 and 20000) found
# two workers losing in every cell at 5e4 terms each (0.61-0.98x), winning
# 5 of 16 cells at 1e5 (0.48-1.55x), 10 of 16 at 2e5 (0.68-1.44x) and
# 6 of 6 at 4e5 (1.09-1.45x).  A fork, pipe and reap costs 5-10 ms there.
_FORK_MIN_WORK = 200_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment: the scheme (which holds the model, noise
    and band), box, and seeding."""

    scheme: NormalizationScheme
    l_max: int
    box: SearchBox
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        check_l_max(self.l_max)
        if self.replications < 2:
            raise ValueError("replications must be >= 2")
        if self.band.l_hi > self.l_max:
            raise ValueError("band exceeds l_max")
        SeedSpec(self.master_seed)

    @property
    def model(self) -> SpectrumModel:
        return self.scheme.model

    @property
    def noise(self) -> NoiseModel | None:
        return self.scheme.noise

    @property
    def band(self) -> Band:
        return self.scheme.band


@dataclass(frozen=True)
class QuantileRow:
    """The percent of samples strictly below and strictly above a cutpoint."""

    cutpoint: float
    percent_below: float
    percent_above: float


@dataclass(frozen=True)
class Summary:
    """Raw-error moments (Table-5 semantics) plus the normalized errors."""

    bias: float
    variance: float
    mse: float
    normalized: np.ndarray


@dataclass(frozen=True)
class MonteCarloReport:
    """Experiment outcome.

    mean/variance describe the normalized interior errors; bias,
    variance_raw and mse describe the raw interior errors alpha_hat - alpha0
    and satisfy mse = variance_raw (n-1)/n + bias^2 exactly.  Failed or
    boundary replications are excluded from all moments and counted in
    boundary_hits; per-replication rows keep every replication with its
    status ("ok", "boundary", or "error").
    """

    replications: int
    boundary_hits: int
    mean: float
    variance: float
    bias: float
    variance_raw: float
    mse: float
    sw_w: float
    sw_p: float
    quantile_freqs: tuple[QuantileRow, ...]
    normalized_errors: np.ndarray
    raw_alpha_hats: np.ndarray
    statuses: tuple[str, ...]
    all_alpha_hats: np.ndarray
    all_normalized: np.ndarray


def quantile_frequencies(samples) -> tuple[QuantileRow, ...]:
    """Sample frequencies at DEFAULT_CUTPOINTS, in percent."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise EmptySample("no samples for quantile frequencies")
    return tuple(
        QuantileRow(c, float((samples < c).mean() * 100.0), float((samples > c).mean() * 100.0))
        for c in DEFAULT_CUTPOINTS
    )


def shapiro_wilk(samples) -> tuple[float, float]:
    """Shapiro-Wilk W and p-value (Royston 1995, algorithm AS R94).

    Valid for 3 <= n <= 5000 non-degenerate samples.  W is the squared
    correlation of the sorted samples with weights built from the normal
    scores Phi^-1((i - 3/8) / (n + 1/4)); p comes from the exact law at
    n = 3 and from Royston's normal approximation of log(1 - W) above it.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if not 3 <= n <= _SW_MAX_N:
        raise SampleSizeOutOfRange(f"need 3 <= n <= {_SW_MAX_N}, got {n}")
    if x[-1] == x[0]:
        raise DegenerateSample("all sample values are equal")
    if n == 3:
        half = np.array([math.sqrt(0.5)])
    else:
        # upper-half scores, largest first, from their lower-tail mirrors;
        # the polynomials (highest power first) correct the one (n <= 5) or
        # two most extreme weights
        inv = NormalDist().inv_cdf
        m = np.array([-inv((i - 0.375) / (n + 0.25)) for i in range(1, n // 2 + 1)])
        u = 1.0 / math.sqrt(n)
        half = m / math.sqrt(2.0 * float(np.einsum("i,i->", m, m)))
        half[0] += np.polyval((-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0), u)
        k = 1
        if n > 5:
            half[1] += np.polyval((-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0), u)
            k = 2
        # the other weights are the scores, scaled to what is left of the
        # unit norm
        left = 1.0 - 2.0 * float(np.einsum("i,i->", half[:k], half[:k]))
        half[k:] = m[k:] * math.sqrt(left / (2.0 * float(np.einsum("i,i->", m[k:], m[k:]))))
    a = np.concatenate((-half, np.zeros(n % 2), half[::-1]))
    a -= a.mean()
    # shifted by a middle value first, so a large common offset costs no digits
    xs = (x - x[n // 2]) / (x[-1] - x[0])
    xs -= xs.mean()
    ssa = float(np.einsum("i,i->", a, a))
    ssx = float(np.einsum("i,i->", xs, xs))
    sax = float(np.einsum("i,i->", a, xs))
    # 1 - W in a form that keeps its digits when W is near 1
    r = math.sqrt(ssa * ssx)
    w1 = max((r - sax) * (r + sax) / (ssa * ssx), 0.0)
    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(1.0 - w1)) - math.pi / 3.0)
        return 1.0 - w1, min(max(p, 0.0), 1.0)
    # w1 = 0 is a perfect fit (p = 1); a NaN sample keeps w1 NaN
    y = math.log(w1) if w1 else -math.inf
    if n <= 11:
        # Royston sets p = 1e-99 when y >= gamma; W >= 0.63 at n = 4 and
        # gamma > 0 from n = 5 keep y below it
        y = -math.log(-2.273 + 0.459 * n - y)
        mu = np.polyval((-6.714e-4, 0.025054, -0.39978, 0.5440), n)
        sigma = math.exp(np.polyval((-0.0020322, 0.062767, -0.77857, 1.3822), n))
    else:
        mu = np.polyval((0.0038915, -0.083751, -0.31082, -1.5861), math.log(n))
        sigma = math.exp(np.polyval((0.0030302, -0.082676, -0.4803), math.log(n)))
    # the upper tail through erfc, which 1 - Phi would round to 0 past 1e-16
    return 1.0 - w1, 0.5 * math.erfc((y - mu) / (sigma * math.sqrt(2.0)))


def _moments(x: np.ndarray) -> tuple[float, float, float]:
    # mean, unbiased (n-1) variance (0 for one value) and mean square; of
    # raw errors these are bias, variance and MSE, so mse = variance
    # (n-1)/n + bias^2 exactly
    return float(x.mean()), float(x.var(ddof=1)) if x.size > 1 else 0.0, float((x**2).mean())


def summarize(alpha_hats, alpha0: float, scheme: NormalizationScheme) -> Summary:
    """Raw bias/variance/MSE of alpha_hat - alpha0 plus the normalized
    list, as assemble computes them for the ok replications."""
    errors = np.asarray(alpha_hats, dtype=float) - alpha0
    if errors.size == 0:
        raise EmptySample("no estimates to summarize")
    return Summary(*_moments(errors), normalized=normalization_factor(scheme) * errors)


def run_experiment(cfg: ExperimentConfig, threads: int | None = None) -> MonteCarloReport:
    """Run all replications and return assemble's report on their outcomes.

    threads caps the workers, which never outnumber the CPUs this process
    may use (the default) or the replications; the module docstring says
    when they are forked processes.  An exception raised in a child is
    re-raised here, with the child's traceback as its cause; a child that
    ends without reporting raises ChildProcessError; and every child is
    reaped before this returns.  Replication i draws from its own stream
    SeedSpec(master_seed, i), so the report does not depend on threads;
    each range seeds its streams in blocks, bit-identical to
    default_rng(SeedSequence((master_seed, i))).
    """
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    c, c_n = _design(cfg.model, cfg.noise, cfg.l_max)

    def replicate(indices: range) -> list[tuple[float, str]]:
        # each replication is sample_* and estimate on the raw draw; an
        # overflow in the draw or in Ghat ends as a typed error, so numpy's
        # warnings are silenced once for the range
        outcomes = []
        with _quiet():
            for rng in _stream_generators(cfg.master_seed, indices):
                try:
                    alpha = _estimate(_draw(c, c_n, rng), cfg.band, cfg.box)[0]
                except NumericalError:
                    outcomes.append((math.nan, "error"))
                    continue
                outcomes.append((alpha, "boundary" if _on_edge(alpha, cfg.box) else "ok"))
        return outcomes

    # the CPUs this process may use, where the platform says; more workers
    # than that would only add hand-offs
    has_mask = hasattr(os, "sched_getaffinity")
    cpus = len(os.sched_getaffinity(0)) if has_mask else os.cpu_count() or 1
    work = cfg.replications * cfg.l_max
    n = min(threads or cpus, cpus, cfg.replications, work // _FORK_MIN_WORK)
    if n < 2 or sys.platform != "linux":
        outcomes = replicate(range(cfg.replications))
    else:
        cuts = [cfg.replications * k // n for k in range(n + 1)]
        outcomes = _forked(replicate, list(map(range, cuts[:-1], cuts[1:])))

    return assemble(cfg, *zip(*outcomes))


def assemble(cfg: ExperimentConfig, alpha_hats, statuses) -> MonteCarloReport:
    """The report on cfg's replications from each one's alpha_hat (nan for
    an "error") and status ("ok", "boundary" or "error"), in order.

    alpha0 and the scheme's factor are computed once; every moment and the
    Shapiro-Wilk test (on the first 5000) cover the "ok" replications.
    Raises ValueError unless there are cfg.replications of each, and
    AllReplicationsFailed when none is "ok".
    """
    all_alpha = np.array(alpha_hats, dtype=float)
    statuses = tuple(statuses)
    if all_alpha.shape != (cfg.replications,) or len(statuses) != cfg.replications:
        raise ValueError(f"need {cfg.replications} alpha_hats and statuses, one per replication")
    alpha0 = asymptotic_params(cfg.model).alpha0
    factor = normalization_factor(cfg.scheme)
    ok = np.array([s == "ok" for s in statuses])
    if not ok.any():
        raise AllReplicationsFailed(
            f"0 of {cfg.replications} replications produced an interior estimate"
        )

    errors = all_alpha - alpha0
    all_normalized = factor * errors
    normalized = all_normalized[ok]
    bias, variance_raw, mse = _moments(errors[ok])
    mean, variance, _ = _moments(normalized)
    sw_sample = normalized[:_SW_MAX_N]
    sw_w, sw_p = math.nan, math.nan
    if sw_sample.size >= 3 and np.ptp(sw_sample) > 0:
        sw_w, sw_p = shapiro_wilk(sw_sample)

    return MonteCarloReport(
        replications=cfg.replications,
        boundary_hits=int(cfg.replications - ok.sum()),
        mean=mean,
        variance=variance,
        bias=bias,
        variance_raw=variance_raw,
        mse=mse,
        sw_w=sw_w,
        sw_p=sw_p,
        quantile_freqs=quantile_frequencies(normalized),
        normalized_errors=normalized,
        raw_alpha_hats=all_alpha[ok],
        statuses=statuses,
        all_alpha_hats=all_alpha,
        all_normalized=all_normalized,
    )


def _forked(run, ranges: list[range]) -> list:
    """run(ranges[0]) in this process and run(r) for each later range in a
    child made by os.fork(); the outcomes, joined in range order.

    A child sends its outcomes, or the exception it raised and its
    formatted traceback, pickled through a pipe and ends with os._exit.  An
    exception from a child is re-raised here with that text as its cause
    (a _RemoteTraceback), since pickling drops the frames; a child that
    ends without a complete report raises ChildProcessError.  Every child
    is reaped before this returns or raises, and one still running is
    killed first.
    """
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for indices in ranges[1:]:
            read_end, write_end = os.pipe()
            try:
                # Python >= 3.12 warns (DeprecationWarning) on a fork in a
                # process with more than one thread, which numpy's OpenBLAS
                # pool makes true.  The child takes no lock those threads
                # may hold: it makes no BLAS call (the band reductions use
                # einsum) and ends with os._exit.
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _report(run, indices, write_end)
            os.close(write_end)
            children[pid] = read_end
        outcomes = run(ranges[0])
        for pid, read_end in list(children.items()):
            data = b"".join(iter(partial(os.read, read_end, 1 << 16), b""))
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            try:
                ok, part, text = pickle.loads(data)
            except Exception:
                raise ChildProcessError(
                    f"replication worker {pid} ended without a complete report "
                    f"(wait status {status})"
                ) from None
            if not ok:
                raise part from _RemoteTraceback(text)
            outcomes += part
        return outcomes
    finally:
        for pid, read_end in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class _RemoteTraceback(Exception):
    """The traceback of an exception raised in a forked worker, as text."""


def _report(run, indices: range, fd: int):
    """In a forked child: write (True, run(indices), None) or (False, the
    exception it raised, its formatted traceback) to fd, pickled, and end
    the process without running exit handlers or flushing stdio buffers
    inherited from the parent."""
    status = 1
    try:
        # any exception, KeyboardInterrupt included, goes to the parent,
        # which re-raises it
        try:
            report = (True, run(indices), None)
        except BaseException as exc:
            report = (False, exc, traceback.format_exc())
        with open(fd, "wb") as pipe:
            pickle.dump(report, pipe)
        status = 0
    finally:
        os._exit(status)


def band_from_dict(d: dict, l_max: int) -> tuple[Band, dict]:
    """Band rule -> (band, resolved form)."""
    match d:
        case {"type": "full", **other} if not other:
            return full_band(l_max), {"type": "full"}
        case {"type": "narrow", "L1": l1, **other} if not other:
            l1 = config_int(l1, "narrow band L1")
            if not 1 <= l1 <= l_max:
                raise ConfigError(f"narrow band L1={l1} outside [1, {l_max}]")
            return Band(l1, l_max), {"type": "narrow", "L1": l1}
        case {"type": "narrow", "c_g": c_g, **other} if not other:
            c_g = config_float(c_g, "narrow band c_g")
            return narrow_band(l_max, c_g), {"type": "narrow", "c_g": c_g}
        case {"type": "narrow"}:
            raise ConfigError(f"narrow band needs one of 'L1' and 'c_g', and no other key: {d!r}")
    raise ConfigError(f"unknown band rule {d!r}")


def box_from_dict(d: dict) -> SearchBox:
    """Search-box rule with defaults expanded."""
    with reading_config("search box"):
        return from_json(SearchBox, d)


def experiment_from_dict(d: dict) -> tuple[ExperimentConfig, dict]:
    """Build an ExperimentConfig from its JSON form.

    Returns the config plus the fully resolved dict (defaults expanded) that
    reports embed so runs are self-describing.
    """
    with reading_config("experiment config"):
        check_keys(d, _EXPERIMENT_KEYS, "experiment config")
        model = model_from_dict(d["model"])
        noise = noise_from_dict(d["noise"]) if d.get("noise") is not None else None
        l_max = config_int(d["L"], "L")
        band, band_resolved = band_from_dict(d.get("band", {"type": "full"}), l_max)
        box = box_from_dict(d.get("box", {}))
        # a "corrected" key, which older configs carry, has no effect
        scheme = d.get("scheme", {"type": "fullband"})
        check_keys(scheme, {"type", "corrected"}, "scheme")
        cfg = ExperimentConfig(
            scheme=NormalizationScheme(scheme.get("type"), band, model, noise),
            l_max=l_max,
            box=box,
            replications=config_int(d["replications"], "replications"),
            master_seed=config_int(d["seed"], "seed"),
        )
    return cfg, experiment_to_dict(cfg, band_resolved)


def experiment_to_dict(cfg: ExperimentConfig, band_resolved: dict) -> dict:
    """JSON form of a config with all defaults expanded; band_resolved is
    band_from_dict's resolved band rule."""
    return {
        "model": model_to_dict(cfg.model),
        "noise": noise_to_dict(cfg.noise) if cfg.noise else None,
        "L": cfg.l_max,
        "band": band_resolved,
        "box": to_json(cfg.box),
        "scheme": {"type": cfg.scheme.tag},
        "replications": cfg.replications,
        "seed": cfg.master_seed,
    }


def report_to_dict(report: MonteCarloReport, resolved_config: dict) -> dict:
    """JSON form of a report with the resolved config embedded: the
    statistics only, as samples.csv holds every replication."""
    return {
        "config": resolved_config,
        "replications": report.replications,
        "boundary_hits": report.boundary_hits,
        "mean": report.mean,
        "variance": report.variance,
        "bias": report.bias,
        "variance_raw": report.variance_raw,
        "mse": report.mse,
        "sw_w": report.sw_w,
        "sw_p": report.sw_p,
        "quantile_freqs": [to_json(row) for row in report.quantile_freqs],
    }


def write_report_files(
    report: MonteCarloReport, resolved_config: dict, out_dir: str | Path
) -> tuple[Path, Path]:
    """Write report.json and samples.csv; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    write_json(report_path, report_to_dict(report, resolved_config))
    samples_path = out / "samples.csv"
    rows = zip(report.all_alpha_hats, report.all_normalized, report.statuses)
    header = ["rep", "alpha_hat", "normalized", "status"]
    write_csv(samples_path, header, ((i, *row) for i, row in enumerate(rows)))
    return report_path, samples_path

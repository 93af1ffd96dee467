"""Seeded replication engine for the estimator's sampling laws.

run_experiment executes the replications: replication i draws a spectrum
from the stream SeedSpec(master_seed, i) and estimates the index over the
configured band.  The model spectrum (and noise spectrum) and the
chi-square half degrees are computed once per run, before any worker
starts; only the chi-square draw is per replication.  The streams are
seeded in blocks, bit-identical to sampling.generator for each SeedSpec.

assemble turns the estimates and their statuses into the report, and is
the one place a MonteCarloReport is built: it normalizes the errors with
the factor the config computed.  Replications whose draw or estimate
raises a NumericalError (status "error") or that stop on the
search boundary are counted in boundary_hits and excluded from moment
statistics (a diverging design would otherwise destroy every statistic);
all replications appear in the per-replication table with a status column.

On Linux replications run on up to one worker per usable CPU, each with at
least _WORKER_MIN_WORK (2e5) band terms, counted as its replications times
l_max; a smaller run, like every run on other platforms, is one worker,
this process.  The workers share one queue of chunks of ~1 ms of work and
each takes the next chunk when it finishes one, so a worker on a slow CPU
takes fewer.  From l_max = _THREAD_MIN_L_MAX (1.5e4) the other workers are
threads, as numpy releases the GIL in the draw and the band passes; below
it, where GIL hand-offs around short numpy calls cost more than a fork,
they are children made by os.fork().  Workers write outcomes in place, by
replication index in shared arrays; the band reductions do not call BLAS
and each replication has its own stream, so reports are pure functions of
the config for any worker count, hand-out order and BLAS build.

A worker fails in one way: an exception ends that worker alone, and the
outcomes it left unwritten keep status code 0.  The caller runs those
replications itself once every worker has ended, so a failure that recurs
is raised there with its own frames, and one that does not, or a killed
child, costs time but not the run.
"""
from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import sys
import threading
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist

import numpy as np

from .errors import (
    AllReplicationsFailed,
    DegenerateSample,
    EmptySample,
    NumericalError,
    SampleSizeOutOfRange,
)
from .sampling import SeedSpec, _checked, _design, _draw, _stream_generator, _stream_seeds
from .spectrum import NoiseModel, SpectrumModel, check_l_max
from .whittle import (
    Band,
    NormalizationScheme,
    SearchBox,
    _estimate,
    _on_edge,
    _quiet,
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
    "DEFAULT_CUTPOINTS",
]

# the reference tables report frequencies at these standard-normal cutpoints
DEFAULT_CUTPOINTS = (-1.96, -1.0, -0.68, 0.0, 0.68, 1.0, 1.96)

_SW_MAX_N = 5000

# Workers run when each gets at least this many band terms (replications x
# l_max).  A run_experiment sweep of forked workers in a numpy-only process,
# on a 2-vCPU VM (serial -> 2 forked workers, medians of 7-25 alternated runs
# per cell, positive and debiased designs at L = 200, 2000 and 20000) found
# two workers losing in every cell at 5e4 terms each (0.61-0.98x), winning
# 5 of 16 cells at 1e5 (0.48-1.55x), 10 of 16 at 2e5 (0.68-1.44x) and
# 6 of 6 at 4e5 (1.09-1.45x).
_WORKER_MIN_WORK = 200_000

# Workers are threads from this l_max up and forked processes below it: the
# draw over l = 1..l_max, the longest call, sets how much of a replication
# runs without the GIL.  A sweep on a 2-vCPU VM (serial -> 2 workers, 1e6
# band terms per run, positive, narrow and debiased designs) read forks
# 1.56-2.03x against threads 0.83-1.38x at L <= 5000, forks ahead at 1e4,
# the two even at 1.5e4, and threads ahead from 2e4 (1.38-1.70x against
# 1.31-1.63x), narrow bands included.
_THREAD_MIN_L_MAX = 15_000

# band terms per chunk, ~1 ms of work; a chunk number is a _TOKEN-byte token
_CHUNK_WORK = 20_000
_TOKEN = 4
_MAX_CHUNKS = 4096 // _TOKEN

# A run peaks at 90 bytes per replication in tracemalloc (its seeds and the
# report and files built from its outcomes; a run plus write_report_files at
# L = 60 and 1e5 replications, serial or two forked workers) plus the 9 of
# its shared outcomes, which tracemalloc does not see, so this bound caps a
# run near 1 GB; a larger one would end in a memory error from numpy or a
# run that takes the machine's memory.
MAX_REPLICATIONS = 10**7

# status codes of run_experiment's outcomes; 0, as its mapping starts, is "not run"
_OK, _BOUNDARY, _ERROR = 1, 2, 3
_STATUSES = (None, "ok", "boundary", "error")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment: the scheme (which holds the model, noise
    and band), box, seeding, and the report's alpha0 and factor, computed
    last, so a config the report cannot use fails before replicating."""

    scheme: NormalizationScheme
    box: SearchBox
    replications: int
    master_seed: int
    alpha0: float = field(init=False)
    factor: float = field(init=False)

    def __post_init__(self) -> None:
        check_l_max(self.l_max)
        if not 2 <= self.replications <= MAX_REPLICATIONS:
            raise ValueError(
                f"replications must be >= 2 and <= {MAX_REPLICATIONS}, got {self.replications}"
            )
        SeedSpec(self.master_seed)
        object.__setattr__(self, "alpha0", self.scheme.alpha0())
        object.__setattr__(self, "factor", normalization_factor(self.scheme))

    @property
    def l_max(self) -> int:
        """The top multipole, the band's: replications draw l = 1..l_max."""
        return self.band.l_hi

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
    when they are threads and when forked processes.  Replication i draws
    from its own stream SeedSpec(master_seed, i), whose seed words are
    hashed in blocks before any worker starts, bit-identical to
    default_rng(SeedSequence((master_seed, i))), and its worker writes its
    outcome in place, at i in arrays every worker shares, so the report
    depends neither on threads nor on which worker ran which chunk.

    An exception in another worker ends that worker alone.  Once every
    thread is joined and every child reaped, the replications no worker
    wrote are run in the calling thread, after one RuntimeWarning that
    counts them, so an exception that recurs is raised here with its own
    frames.  An exception in the calling thread stops the other workers
    taking chunks, and kills the children, before it propagates.
    """
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    r = cfg.replications
    c, c_n, half_df = _design(cfg.model, cfg.noise, cfg.l_max)
    seeds = _stream_seeds(cfg.master_seed, r)
    # alpha_hats and status codes in one anonymous mapping, shared by forks
    shared = mmap.mmap(-1, 9 * r)
    alphas = np.frombuffer(shared, dtype=float, count=r)
    codes = np.frombuffer(shared, dtype=np.int8, count=r, offset=8 * r)

    def replicate(chunks) -> None:
        # each replication is sample_* and estimate on the raw draw, in the
        # worker's own buffers; an overflow in the draw or in Ghat ends as a
        # typed error, so numpy's warnings are silenced once per worker
        x, work = np.empty(cfg.l_max), np.empty((2, cfg.band.width))
        with _quiet():
            for indices in chunks:
                for i in indices:
                    try:
                        draw = _draw(c, c_n, half_df, _stream_generator(seeds[i]), x)
                        values = _checked(draw, c_n is not None)
                        alpha = _estimate(values, cfg.band, cfg.box, work)[0]
                    except NumericalError:
                        alpha, code = math.nan, _ERROR
                    else:
                        code = _BOUNDARY if _on_edge(alpha, cfg.box) else _OK
                    # the code last: once it is not 0, alphas[i] is written
                    alphas[i], codes[i] = alpha, code

    # workers run on Linux alone, up to the CPUs this process may use; more
    # workers than that would only add hand-offs
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    n = max(1, min(threads or cpus, cpus, r, r * cfg.l_max // _WORKER_MIN_WORK))
    start = _threaded if cfg.l_max >= _THREAD_MIN_L_MAX else _forked
    chunks = _Chunks(r, cfg.l_max)
    try:
        with start(partial(replicate, chunks), n - 1):
            try:
                replicate(chunks)
            except BaseException:
                chunks.stop()
                raise
    finally:
        chunks.close()
    if missing := np.flatnonzero(codes == 0).tolist():
        warnings.warn(
            f"{len(missing)} of {r} replications were left unwritten by a worker; "
            "running them in the calling thread",
            RuntimeWarning,
            stacklevel=2,
        )
        replicate([missing])
    return assemble(cfg, alphas, [_STATUSES[k] for k in codes.tolist()])


def assemble(cfg: ExperimentConfig, alpha_hats, statuses) -> MonteCarloReport:
    """The report on cfg's replications from each one's alpha_hat (nan for
    an "error") and status ("ok", "boundary" or "error"), in order.

    alpha0 and the scheme's factor are cfg's; every moment and the
    Shapiro-Wilk test (on the first 5000) cover the "ok" replications.
    Raises ValueError unless there are cfg.replications of each, and
    AllReplicationsFailed when none is "ok".
    """
    all_alpha = np.array(alpha_hats, dtype=float)
    statuses = tuple(statuses)
    if all_alpha.shape != (cfg.replications,) or len(statuses) != cfg.replications:
        raise ValueError(f"need {cfg.replications} alpha_hats and statuses, one per replication")
    ok = np.array([s == "ok" for s in statuses])
    if not ok.any():
        raise AllReplicationsFailed(
            f"0 of {cfg.replications} replications produced an interior estimate"
        )

    errors = all_alpha - cfg.alpha0
    all_normalized = cfg.factor * errors
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


class _Chunks:
    """Replications 0..replications-1 in chunks of about _CHUNK_WORK band
    terms: iterating yields the indices of the next chunk not yet taken,
    until none is left.

    The chunk numbers go as tokens into one pipe, whose write end is closed
    before any worker starts, so threads and forked children share them and
    each token goes to one reader.  The tokens fill at most 4096 bytes
    (PIPE_BUF on Linux), so the write cannot block, even on a one-page pipe.
    """

    def __init__(self, replications: int, l_max: int) -> None:
        self._size = max(1, _CHUNK_WORK // l_max, -(-replications // _MAX_CHUNKS))
        self._replications = replications
        count = -(-replications // self._size)
        self._fd, write_end = os.pipe()
        try:
            os.write(write_end, np.arange(count, dtype="<u4").tobytes())
        finally:
            os.close(write_end)

    def __iter__(self) -> Iterator[range]:
        for token in iter(partial(os.read, self._fd, _TOKEN), b""):
            start = int.from_bytes(token, "little") * self._size
            yield range(start, min(start + self._size, self._replications))

    def stop(self) -> None:
        """Take every chunk left, so no worker takes another."""
        while os.read(self._fd, 4096):
            pass

    def close(self) -> None:
        os.close(self._fd)


@contextlib.contextmanager
def _threaded(run, n: int) -> Iterator[None]:
    """n threads that run() while the block runs, each joined when it ends.
    An exception ends the thread that raised it and nothing else."""

    def work() -> None:
        with contextlib.suppress(BaseException):  # run_experiment reruns what it left
            run()

    started = []
    try:
        for k in range(1, n + 1):
            thread = threading.Thread(target=work, name=f"sphwhittle-worker-{k}")
            thread.start()
            started.append(thread)
        yield
    finally:
        for thread in started:
            thread.join()


@contextlib.contextmanager
def _forked(run, n: int) -> Iterator[None]:
    """n children made by os.fork() that run() while the block runs.  A
    child writes nothing else and ends with os._exit: status 0 if run()
    returned, 1 if it raised.  Every child is reaped when the block ends,
    and killed first if the block raises."""
    children = []
    try:
        for _ in range(n):
            # Python >= 3.12 warns (DeprecationWarning) on a fork in a
            # process with more than one thread.  numpy's OpenBLAS pool does
            # not make it so: OpenBLAS shuts the pool down in its pre-fork
            # handler, before Python counts the threads, and only the next
            # BLAS call, which this package never makes, restarts it.
            pid = os.fork()
            if pid == 0:
                with contextlib.suppress(BaseException):  # run_experiment reruns what it left
                    run()
                    os._exit(0)
                os._exit(1)
            children.append(pid)
        yield
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in children:
            os.waitpid(pid, 0)

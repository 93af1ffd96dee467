import contextlib
import dataclasses
import json
import math
import mmap
import os
import runpy
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from sphwhittle import (
    AllReplicationsFailed,
    Band,
    ConfigError,
    DegenerateSample,
    EmptySample,
    ExactPowerLaw,
    ExperimentConfig,
    KappaPerturbed,
    NoiseModel,
    NonFiniteValue,
    NonPositiveAmplitude,
    NonPositiveValue,
    NormalizationScheme,
    SampleSizeOutOfRange,
    SearchBox,
    SeedSpec,
    Tabulated,
    Unsupported,
    UnsupportedRegime,
    assemble,
    estimate,
    experiment_from_dict,
    experiment_to_dict,
    full_band,
    narrow_band,
    normalization_factor,
    quantile_frequencies,
    report_to_dict,
    run_experiment,
    sample_empirical,
    sample_observed_debiased,
    shapiro_wilk,
    summarize,
    write_report_files,
)
from sphwhittle import montecarlo
from sphwhittle.montecarlo import _WORKER_MIN_WORK
from sphwhittle.sampling import _SEED_BLOCK
from sphwhittle.whittle import _estimate

needs_fork = pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="forked workers need Linux and two usable CPUs",
)


def pid_estimate(*args) -> tuple[float, float, int, bool]:
    """A stub of the replication core (whittle._estimate) whose alpha_hat is
    the pid of the process that ran it; run with PID_BOX, inside which every
    pid lies, so its replications are "ok"."""
    return float(os.getpid()), 1.0, 1, True


PID_BOX = {"alpha_min": 1.0, "alpha_max": 1e9, "tol": 1e-6}


def assert_same_outcomes(report, serial) -> None:
    """report's alpha_hats, bit for bit, and statuses are serial's."""
    assert report.all_alpha_hats.tobytes() == serial.all_alpha_hats.tobytes()
    assert report.statuses == serial.statuses


def count_workers(monkeypatch) -> dict[str, int]:
    """Counts, in this process, the forks and the thread starts that follow."""
    started = {"fork": 0, "thread": 0}
    fork, start = os.fork, threading.Thread.start

    def counting_fork():
        started["fork"] += 1
        return fork()

    def counting_start(thread):
        started["thread"] += 1
        start(thread)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the main thread if the block outlasts seconds."""

    def hung(signum, frame):
        raise TimeoutError("run_experiment did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

# r_l = C_N / C_T = 1e200: (1 + r_l)^2 overflows, so V_band is inf and the
# noise scheme's factor is 0
NON_FINITE_FACTOR = {
    "model": {"type": "power_law", "g0": 1e-200, "alpha0": 1.0},
    "noise": {"g_n": 1.0, "gamma": 1.0},
    "scheme": {"type": "noise"},
}


def base_config(**overrides) -> dict:
    d = {
        "model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0},
        "noise": None,
        "L": 300,
        "band": {"type": "full"},
        "box": {"alpha_min": 2.01, "alpha_max": 10.0, "tol": 1e-6},
        "scheme": {"type": "fullband"},
        "replications": 100,
        "seed": 99,
    }
    d.update(overrides)
    return d


class TestExperimentConfig:
    def test_validation(self):
        cfg, _ = experiment_from_dict(base_config())
        with pytest.raises(ValueError):
            ExperimentConfig(scheme=cfg.scheme, box=cfg.box, replications=1, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(scheme=cfg.scheme, box=cfg.box, replications=10, master_seed=2**64)

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"model": {"type": "table", "values": [1.0] * 300}}, Unsupported),
            ({"noise": {"g_n": 1.0, "gamma": 2.0}, "scheme": {"type": "noise"}}, UnsupportedRegime),
            (NON_FINITE_FACTOR, NonFiniteValue),
        ],
        ids=["table", "divergent_noise", "non_finite_factor"],
    )
    def test_scheme_faults_raise_before_replicating(self, monkeypatch, overrides, error):
        # a scheme with no alpha0, in the regime where the estimator
        # diverges, or with no finite factor raises when the config is
        # built, before the first draw
        def no_draw(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "_draw", no_draw)
        with pytest.raises(error):
            run_experiment(experiment_from_dict(base_config(**overrides))[0])

    def test_table_scheme_has_a_factor(self):
        # a model with no alpha0 fails only where alpha0 is read: its
        # scheme builds and has a factor, as summarize takes alpha0 itself
        table = NormalizationScheme("fullband", full_band(300), Tabulated((1.0,) * 300))
        assert normalization_factor(table) > 0
        with pytest.raises(Unsupported):
            table.alpha0()

    def test_noise_scheme_requires_noise_model(self):
        with pytest.raises(ConfigError):
            experiment_from_dict(base_config(scheme={"type": "noise"}))

    def test_narrowband_scheme_requires_narrow_band(self):
        with pytest.raises(ConfigError):
            experiment_from_dict(base_config(scheme={"type": "narrowband"}))

    def test_round_trip_defaults_expanded(self):
        raw = {
            "model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0},
            "L": 300,
            "replications": 50,
            "seed": 7,
        }
        cfg, resolved = experiment_from_dict(raw)
        assert resolved["band"] == {"type": "full"}
        assert resolved["box"]["alpha_min"] == 2.01
        cfg2, resolved2 = experiment_from_dict(resolved)
        assert cfg2 == cfg
        assert resolved2 == resolved

    def test_narrow_band_forms(self):
        cfg, resolved = experiment_from_dict(
            base_config(band={"type": "narrow", "L1": 250}, scheme={"type": "narrowband"})
        )
        assert cfg.band == Band(250, 300)
        assert cfg.scheme == NormalizationScheme("narrowband", Band(250, 300), cfg.model)

        cfg2, _ = experiment_from_dict(
            base_config(band={"type": "narrow", "c_g": 1.0}, scheme={"type": "narrowband"})
        )
        assert cfg2.band == narrow_band(300, 1.0)
        assert cfg2.scheme.band == cfg2.band

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            experiment_from_dict(base_config(band={"type": "sideways"}))
        with pytest.raises(ConfigError):
            experiment_from_dict(base_config(scheme={"type": "sideways"}))
        with pytest.raises(ConfigError):
            experiment_from_dict(base_config(band={"type": "narrow"}))
        with pytest.raises(ConfigError):
            experiment_from_dict({"L": 10})
        with pytest.raises(ConfigError):
            experiment_from_dict(base_config(band={"type": "narrow", "L1": 0}))
        # counts and seeds are not truncated
        for overrides in (
            {"L": 200.9},
            {"L": True},
            {"L": "300"},
            {"replications": 2.7},
            {"seed": 1.9},
            {"band": {"type": "narrow", "L1": 250.5}},
        ):
            with pytest.raises(ConfigError, match="must be an integer"):
                experiment_from_dict(base_config(**overrides))
        cfg, _ = experiment_from_dict(base_config(L=3e2, replications=1e2, seed=9.0))
        assert (cfg.l_max, cfg.replications, cfg.master_seed) == (300, 100, 9)

    @pytest.mark.parametrize(
        "overrides, scheme",
        [
            ({}, {"type": "fullband"}),
            ({"scheme": {"type": "fullband", "corrected": True}}, {"type": "fullband"}),
            (
                {"band": {"type": "narrow", "L1": 250}, "scheme": {"type": "narrowband"}},
                {"type": "narrowband"},
            ),
            (
                {"noise": {"g_n": 1.0, "gamma": 2.5}, "scheme": {"type": "noise"}},
                {"type": "noise"},
            ),
            ({"scheme": {"type": "rate"}}, {"type": "rate"}),
        ],
    )
    def test_experiment_to_dict_key_order(self, overrides, scheme):
        # string comparisons fix the key order report.json carries
        cfg, resolved = experiment_from_dict(base_config(**overrides))
        assert resolved == experiment_to_dict(cfg, resolved["band"])
        expected = dict(base_config(**overrides), scheme=scheme)
        assert json.dumps(resolved) == json.dumps(expected)
        assert json.dumps(experiment_to_dict(cfg, resolved["band"])["scheme"]) == json.dumps(scheme)


class TestQuantileFrequencies:
    def test_counting_example(self):
        rows = quantile_frequencies([-3, -1, 0, 1, 3])
        assert [r.cutpoint for r in rows] == [-1.96, -1.0, -0.68, 0.0, 0.68, 1.0, 1.96]
        below, at_zero, above = rows[0], rows[3], rows[6]
        assert [below.percent_below, at_zero.percent_below, above.percent_above] == [20.0, 40.0, 20.0]

    def test_normal_tail(self):
        draws = np.random.default_rng(5).standard_normal(10**6)
        rows = quantile_frequencies(draws)
        assert rows[0].percent_below == pytest.approx(2.5, abs=0.1)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            quantile_frequencies([])

    @settings(max_examples=50)
    @given(samples=st.lists(st.floats(-50, 50), min_size=1, max_size=200))
    def test_monotone_below_column(self, samples):
        rows = quantile_frequencies(samples)
        belows = [r.percent_below for r in rows]
        assert all(b <= a2 for b, a2 in zip(belows, belows[1:]))
        for r in rows:
            # The two percentages round independently, so their float sum can
            # land one ulp above 100.
            assert 0.0 <= r.percent_below + r.percent_above <= 100.0 + 1e-9


class TestShapiroWilk:
    def test_three_point_exact(self):
        w, p = shapiro_wilk([1.0, 2.0, 3.0])
        assert w == 1.0
        assert p == 1.0

    def test_size_bounds(self):
        with pytest.raises(SampleSizeOutOfRange):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(SampleSizeOutOfRange):
            shapiro_wilk(np.arange(5001, dtype=float))

    def test_degenerate(self):
        with pytest.raises(DegenerateSample):
            shapiro_wilk([2.0, 2.0, 2.0])

    def test_normal_draws_usually_pass(self):
        passes = 0
        for seed in range(100):
            draws = np.random.default_rng(seed).standard_normal(500)
            if shapiro_wilk(draws)[1] > 0.05:
                passes += 1
        assert passes >= 90

    @pytest.mark.parametrize("kind", ["normal", "exponential", "uniform"])
    def test_matches_scipy(self, kind):
        # every branch of AS R94: n = 3 (exact law), 4-5 (one corrected
        # weight), 6-11 (transformed 1 - W) and 12 up to the cap.  The
        # normal scores (statistics.NormalDist against scipy's compiled
        # routine) set the gap; over these draws the largest measured were
        # |dW| 1.3e-9 and a relative |dp| of 1.7e-6.  The exponential draws
        # at n = 500 and 5000 reach p < 1e-21 and p < 1e-58, where 1 - Phi
        # would round to 0
        for n in [*range(3, 40), 50, 100, 257, 500, 1000, 2000, 4999, 5000]:
            for seed in range(4):
                draws = getattr(np.random.default_rng(1000 * n + seed), kind)(size=n)
                w, p = shapiro_wilk(draws)
                ref = stats.shapiro(draws)
                assert abs(w - ref.statistic) <= 2e-9
                assert abs(p - ref.pvalue) <= 5e-6 * ref.pvalue

    def test_nan_propagates(self):
        assert all(map(math.isnan, shapiro_wilk([1.0, 2.0, math.nan, 4.0])))

    def test_chi_squared_draws_fail(self):
        rejections = 0
        for seed in range(100):
            draws = np.random.default_rng(seed).chisquare(1, size=500)
            if shapiro_wilk(draws)[1] < 0.01:
                rejections += 1
        assert rejections >= 99


class TestSummarize:
    SCHEME = NormalizationScheme("fullband", full_band(100), ExactPowerLaw(2.0, 3.0))

    def test_all_exact(self):
        s = summarize([3.0, 3.0, 3.0], 3.0, self.SCHEME)
        assert (s.bias, s.variance, s.mse) == (0.0, 0.0, 0.0)
        assert (s.normalized == 0.0).all()

    def test_two_point(self):
        a = 0.25
        s = summarize([3.0 + a, 3.0 - a], 3.0, self.SCHEME)
        assert s.bias == pytest.approx(0.0, abs=1e-15)
        assert s.variance == pytest.approx(2 * a**2, rel=1e-13)
        assert s.mse == pytest.approx(a**2, rel=1e-13)

    def test_normalized_scaling(self):
        s = summarize([3.5], 3.0, self.SCHEME)
        assert s.normalized[0] == pytest.approx(
            normalization_factor(self.SCHEME) * 0.5, rel=1e-14
        )

    def test_empty(self):
        with pytest.raises(EmptySample):
            summarize([], 3.0, self.SCHEME)


class TestRunExperiment:
    def test_deterministic_and_thread_invariant(self):
        # serial at L = 300; forked workers at L = 500 and threads at L = 20000
        for l_max, reps in ((300, 100), (500, 2 * _WORKER_MIN_WORK // 500), (20000, 20)):
            cfg, resolved = experiment_from_dict(base_config(L=l_max, replications=reps))
            r1 = run_experiment(cfg, threads=1)
            r2 = run_experiment(cfg, threads=1)
            r4 = run_experiment(cfg, threads=4)
            d1 = json.dumps(report_to_dict(r1, resolved), sort_keys=True)
            d2 = json.dumps(report_to_dict(r2, resolved), sort_keys=True)
            d4 = json.dumps(report_to_dict(r4, resolved), sort_keys=True)
            assert d1 == d2 == d4

    def test_threads_must_be_positive(self):
        cfg, _ = experiment_from_dict(base_config(L=20000, replications=2))
        with pytest.raises(ValueError):
            run_experiment(cfg, threads=0)

    @pytest.mark.parametrize(
        "noise, overrides",
        [
            (None, {}),
            ({"g_n": 1.0, "gamma": 2.2}, {}),
            # one stream more than a seeding block
            (None, {"L": 20, "replications": _SEED_BLOCK + 1}),
            # two worker threads at L = 20000, each taking chunks
            ({"g_n": 1.0, "gamma": 2.2}, {"L": 20000, "replications": 2 * _WORKER_MIN_WORK // 20000}),
            # two forked workers at L = 500, each taking chunks
            ({"g_n": 1.0, "gamma": 2.2}, {"L": 500, "replications": 2 * _WORKER_MIN_WORK // 500}),
        ],
        ids=["None", "noise1", "block_plus_one", "threads_l20000", "fork"],
    )
    def test_replications_match_public_samplers(self, noise, overrides):
        # run_experiment computes the model spectra once per run and seeds
        # its streams in blocks; each replication must still be the public
        # sampler's draw, bit for bit
        config = {"replications": 20, **overrides}
        cfg, _ = experiment_from_dict(base_config(noise=noise, **config))
        report = run_experiment(cfg, threads=2)
        for i, alpha_hat in enumerate(report.all_alpha_hats):
            seed = SeedSpec(cfg.master_seed, i)
            if cfg.noise is None:
                spectrum = sample_empirical(cfg.model, cfg.l_max, seed)
            else:
                spectrum = sample_observed_debiased(cfg.model, cfg.noise, cfg.l_max, seed)
            try:
                expected = estimate(spectrum, cfg.band, cfg.box).alpha_hat
            except NonPositiveAmplitude:
                expected = float("nan")
            assert np.array_equal(alpha_hat, expected, equal_nan=True)

    @needs_fork
    @pytest.mark.parametrize("failure", ["child_raises", "child_killed", "parent_raises"])
    def test_forked_worker_failures(self, monkeypatch, failure):
        # two forked workers; the parent's first replication waits until the
        # child has taken a chunk.  A child that raises or is killed loses
        # that chunk, 40 replications, which the parent reruns after one
        # warning, and the report is the serial run's; the parent's own
        # exception ends the run.  No child outlives it
        cfg, _ = experiment_from_dict(base_config(L=500, replications=2 * _WORKER_MIN_WORK // 500))
        serial = run_experiment(cfg, threads=1)
        parent = os.getpid()
        taken_r, taken_w = os.pipe()
        waited = []

        def fake_estimate(*args):
            # stands in for the replication core, whittle._estimate
            if os.getpid() != parent:
                os.write(taken_w, b"x")
                if failure == "child_raises":
                    raise LookupError("raised in the child")
                if failure == "child_killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(60)  # parent_raises: the parent must kill it, not wait
            if not waited:
                waited.append(os.read(taken_r, 1))
                if failure == "parent_raises":
                    raise LookupError("raised in the parent")
            return _estimate(*args)

        monkeypatch.setattr(montecarlo, "_estimate", fake_estimate)
        try:
            with deadline(30):
                if failure == "parent_raises":
                    with pytest.raises(LookupError, match="raised in the parent"):
                        run_experiment(cfg, threads=2)
                else:
                    with pytest.warns(RuntimeWarning, match=f"^40 of {cfg.replications} replications "):
                        assert_same_outcomes(run_experiment(cfg, threads=2), serial)
        finally:
            os.close(taken_r)
            os.close(taken_w)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_fork
    @pytest.mark.parametrize("failure", ["worker_raises", "caller_raises"])
    def test_threaded_worker_failures(self, monkeypatch, failure):
        # two worker threads; the caller's first replication waits until the
        # other thread has taken a chunk.  The other thread's exception ends
        # it and loses its chunk, one replication, which the caller reruns
        # after one warning; the caller's exception stops the other thread
        # taking chunks.  Every thread is joined
        l_max = montecarlo._THREAD_MIN_L_MAX
        replications = -(-2 * _WORKER_MIN_WORK // l_max)
        cfg, _ = experiment_from_dict(base_config(L=l_max, replications=replications))
        serial = run_experiment(cfg, threads=1)
        caller = threading.get_ident()
        taken = threading.Event()
        worker_calls, waited = [], []

        def fake_estimate(*args):
            if threading.get_ident() != caller:
                worker_calls.append(None)
                taken.set()
                if failure == "worker_raises":
                    raise LookupError("raised in a worker thread")
                time.sleep(0.05)
            elif not waited:
                waited.append(taken.wait(30))
                if failure == "caller_raises":
                    raise LookupError("raised in the caller")
            return _estimate(*args)

        monkeypatch.setattr(montecarlo, "_estimate", fake_estimate)
        threads_before = threading.active_count()
        with deadline(30):
            if failure == "caller_raises":
                with pytest.raises(LookupError, match="raised in the caller"):
                    run_experiment(cfg, threads=2)
            else:
                with pytest.warns(RuntimeWarning, match=f"^1 of {replications} replications "):
                    assert_same_outcomes(run_experiment(cfg, threads=2), serial)
        assert waited == [True]
        assert threading.active_count() == threads_before
        if failure == "caller_raises":
            # without the stop it would run every replication but one
            assert len(worker_calls) < 5 < replications

    @needs_fork
    @pytest.mark.parametrize("kind, lost", [("fork", 40), ("threads", 1)], ids=["fork", "threads"])
    def test_a_recurring_failure_is_raised(self, monkeypatch, kind, lost):
        # replication 0 raises wherever it runs, keyed on its draw, and the
        # caller drops the chunk holding it if it takes it: the other worker
        # fails on that chunk or never sees it, and the caller's rerun raises
        # the exception with the raising frame in its traceback and no
        # cause.  No worker outlives the run
        l_max = 500 if kind == "fork" else montecarlo._THREAD_MIN_L_MAX
        replications = -(-2 * _WORKER_MIN_WORK // l_max)
        cfg, _ = experiment_from_dict(base_config(L=l_max, replications=replications))
        key = sample_empirical(cfg.model, l_max, SeedSpec(cfg.master_seed, 0)).values[0]
        caller = (os.getpid(), threading.get_ident())

        class CallerDropsFirstChunk(montecarlo._Chunks):
            def __iter__(self):
                for indices in super().__iter__():
                    if indices.start or (os.getpid(), threading.get_ident()) != caller:
                        yield indices

        def raising_estimate(values, *args):
            if values[0] == key:
                raise LookupError("raised by replication 0")
            return _estimate(values, *args)

        monkeypatch.setattr(montecarlo, "_Chunks", CallerDropsFirstChunk)
        monkeypatch.setattr(montecarlo, "_estimate", raising_estimate)
        threads_before = threading.active_count()
        with deadline(60), pytest.warns(RuntimeWarning, match=f"^{lost} of {replications} "):
            with pytest.raises(LookupError, match="^raised by replication 0$") as raised:
                run_experiment(cfg, threads=2)
        assert "raising_estimate" in [entry.name for entry in raised.traceback]
        assert raised.value.__cause__ is None
        assert threading.active_count() == threads_before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_fork
    def test_fork_cut_is_work_per_worker(self, monkeypatch):
        # two workers start once each gets _WORKER_MIN_WORK band terms
        # (replications x l_max), and one replication less runs in this
        # process alone; below _THREAD_MIN_L_MAX the second is a child
        started = count_workers(monkeypatch)
        monkeypatch.setattr(montecarlo, "_estimate", pid_estimate)
        reps = 2 * _WORKER_MIN_WORK // 500
        for replications, forks in ((reps - 1, 0), (reps, 1)):
            config = base_config(L=500, replications=replications, box=PID_BOX)
            cfg, _ = experiment_from_dict(config)
            started.update(fork=0, thread=0)
            run_experiment(cfg, threads=2)
            assert started == {"fork": forks, "thread": 0}

    @needs_fork
    def test_workers_are_threads_from_the_cut(self, monkeypatch):
        # the second worker is a thread from l_max = _THREAD_MIN_L_MAX up and
        # a forked child below it
        started = count_workers(monkeypatch)
        monkeypatch.setattr(montecarlo, "_estimate", pid_estimate)
        cut = montecarlo._THREAD_MIN_L_MAX
        for l_max, kind in ((cut - 1, "fork"), (cut, "thread")):
            replications = -(-2 * _WORKER_MIN_WORK // l_max)
            cfg, _ = experiment_from_dict(
                base_config(L=l_max, replications=replications, box=PID_BOX)
            )
            started.update(fork=0, thread=0)
            run_experiment(cfg, threads=2)
            assert started == {"fork": 0, "thread": 0, kind: 1}

    @needs_fork
    @pytest.mark.parametrize("kind", ["fork", "thread"])
    def test_slow_worker_takes_fewer_chunks(self, monkeypatch, kind):
        # the worker that is not the caller sleeps before each replication:
        # it takes fewer chunks than the caller, and the report is the
        # serial run's, byte for byte
        l_max = 500 if kind == "fork" else montecarlo._THREAD_MIN_L_MAX
        replications = -(-2 * _WORKER_MIN_WORK // l_max)
        cfg, resolved = experiment_from_dict(base_config(L=l_max, replications=replications))
        serial = json.dumps(report_to_dict(run_experiment(cfg, threads=1), resolved))
        caller, caller_calls = (os.getpid(), threading.get_ident()), []

        def slowed_estimate(*args):
            if (os.getpid(), threading.get_ident()) == caller:
                caller_calls.append(None)
            else:
                time.sleep(0.005)
            return _estimate(*args)

        started = count_workers(monkeypatch)
        monkeypatch.setattr(montecarlo, "_estimate", slowed_estimate)
        with deadline(60):
            report = run_experiment(cfg, threads=2)
        assert started[kind] == 1
        assert len(caller_calls) > replications - len(caller_calls)
        assert json.dumps(report_to_dict(report, resolved)) == serial

    @pytest.mark.parametrize("start", ["_threaded", "_forked"])
    @pytest.mark.parametrize("replications", [1000, 5000])
    def test_chunks_go_to_one_worker_each(self, start, replications):
        # more workers than CPUs, and threads switching every microsecond,
        # take every chunk once; 5000 replications need chunks of 5, as
        # 1024 tokens fill the pipe.  Each worker counts the indices it
        # takes in one shared array, as run_experiment's workers write
        # their outcomes
        chunks = montecarlo._Chunks(replications, 20000)
        counts = np.frombuffer(mmap.mmap(-1, replications), dtype=np.uint8)

        def take():
            for indices in chunks:
                for i in indices:
                    counts[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with deadline(60), getattr(montecarlo, start)(take, 3):
                take()
        finally:
            sys.setswitchinterval(interval)
            chunks.close()
        assert counts.tolist() == [1] * replications

    @pytest.mark.parametrize(
        "l_max, replications, lost",
        [
            (300, 100, 66),
            (500, 2 * _WORKER_MIN_WORK // 500, 40),
            # two worker threads: 27 replications of l_max = 15000 give each 2e5 band terms
            (montecarlo._THREAD_MIN_L_MAX, 27, 1),
        ],
        ids=["serial", "fork", "threads"],
    )
    def test_a_chunk_not_run_is_rerun(self, monkeypatch, l_max, replications, lost):
        # the chunk holding replication 0 (20000 // l_max replications) is
        # taken but never run: the caller names how many were left, runs
        # them itself, and reports what a serial run does
        config = base_config(L=l_max, replications=replications)
        serial = run_experiment(experiment_from_dict(config)[0], threads=1)

        class LosesFirstChunk(montecarlo._Chunks):
            def __iter__(self):
                for indices in super().__iter__():
                    if indices.start:
                        yield indices

        monkeypatch.setattr(montecarlo, "_Chunks", LosesFirstChunk)
        cfg, _ = experiment_from_dict(config)
        message = f"^{lost} of {replications} replications were left unwritten by a worker; "
        with deadline(60), pytest.warns(RuntimeWarning, match=message):
            assert_same_outcomes(run_experiment(cfg, threads=2), serial)
        # the rerun is the caller's: a pid stub writes this process's pid there
        monkeypatch.setattr(montecarlo, "_estimate", pid_estimate)
        cfg, _ = experiment_from_dict(dict(config, box=PID_BOX))
        with pytest.warns(RuntimeWarning, match=message):
            assert set(run_experiment(cfg, threads=2).all_alpha_hats[:lost]) == {os.getpid()}

    def test_serial_off_linux(self, monkeypatch, tmp_path):
        # elsewhere than Linux a run that would fork is serial, with the
        # same bytes
        cfg, resolved = experiment_from_dict(
            base_config(L=500, replications=2 * _WORKER_MIN_WORK // 500)
        )
        linux = write_report_files(run_experiment(cfg, threads=2), resolved, tmp_path / "linux")
        monkeypatch.setattr(sys, "platform", "darwin")
        other = write_report_files(run_experiment(cfg, threads=2), resolved, tmp_path / "other")
        assert [p.read_bytes() for p in other] == [p.read_bytes() for p in linux]
        monkeypatch.setattr(montecarlo, "_estimate", pid_estimate)
        cfg, _ = experiment_from_dict(
            base_config(L=500, replications=2 * _WORKER_MIN_WORK // 500, box=PID_BOX)
        )
        assert set(run_experiment(cfg, threads=2).all_alpha_hats) == {os.getpid()}

    def test_mse_identity(self):
        cfg, _ = experiment_from_dict(base_config(replications=64))
        report = run_experiment(cfg)
        n = len(report.raw_alpha_hats)
        expected = report.variance_raw * (n - 1) / n + report.bias**2
        assert report.mse == pytest.approx(expected, rel=1e-12)
        factor = normalization_factor(cfg.scheme)
        assert report.variance == pytest.approx(report.variance_raw * factor**2, rel=1e-10)

    def test_noise_dominated_design_hits_boundary(self):
        cfg, _ = experiment_from_dict(
            base_config(
                noise={"g_n": 1.0, "gamma": 1.0},
                scheme={"type": "fullband"},
            )
        )
        report = run_experiment(cfg)
        assert report.boundary_hits / cfg.replications > 0.5
        assert set(report.statuses) <= {"ok", "boundary", "error"}
        assert len(report.statuses) == cfg.replications

    def test_numerical_errors_are_replication_errors(self):
        # a draw or Ghat(alpha_hat) beyond the float range on some
        # replications: NonFiniteValue ends those replications, not the run
        cfg, _ = experiment_from_dict(
            base_config(
                model={"type": "power_law", "g0": 1e308, "alpha0": 3.0},
                L=50,
                replications=50,
                seed=0,
            )
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_experiment(cfg)
        assert 0 < report.statuses.count("error") < cfg.replications
        assert np.isnan(report.all_alpha_hats[[s == "error" for s in report.statuses]]).all()

    @pytest.mark.parametrize(
        "overrides, error",
        [
            # C_1 = 1e308: l = 1 overflows on some draws, the band [2, 50] never
            (
                {"model": {"type": "power_law", "g0": 1e308, "alpha0": 3.0}, "L": 50,
                 "band": {"type": "narrow", "L1": 2}},
                NonFiniteValue,
            ),
            # C_3 is the least subnormal: a draw below half of it rounds to 0
            ({"model": {"type": "power_law", "g0": 1e-322, "alpha0": 3.0}, "L": 3}, NonPositiveValue),
        ],
        ids=["overflow_outside_band", "underflow_to_zero"],
    )
    def test_whole_draw_is_checked(self, overrides, error):
        # the replication loop checks every l of a draw, as the public
        # sampler's EmpiricalSpectrum does, band or no band
        cfg, _ = experiment_from_dict(base_config(replications=50, seed=0, **overrides))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_experiment(cfg)
        raised = []
        for i in range(cfg.replications):
            try:
                sample_empirical(cfg.model, cfg.l_max, SeedSpec(cfg.master_seed, i))
            except error:
                raised.append(i)
        assert raised
        assert [i for i, s in enumerate(report.statuses) if s == "error"] == raised

    def test_huge_amplitude_loses_no_replication(self):
        # the unscaled terms (2l+1) Chat_l l^alpha overflow on the box, but
        # every draw and every Ghat(alpha_hat) is a float
        cfg, _ = experiment_from_dict(
            base_config(
                model={"type": "power_law", "g0": 6e304, "alpha0": 3.0},
                L=50,
                replications=50,
                seed=0,
            )
        )
        assert run_experiment(cfg).statuses.count("error") == 0

    def test_all_replications_failed(self):
        # the objective strictly increases on [8, 10] for these draws, so
        # every replication stops on the lower box edge
        cfg, _ = experiment_from_dict(
            base_config(box={"alpha_min": 8.0, "alpha_max": 10.0, "tol": 1e-6})
        )
        with pytest.raises(AllReplicationsFailed):
            run_experiment(cfg)

    def test_subsampled_shapiro_for_large_n(self):
        cfg, _ = experiment_from_dict(base_config(L=30, replications=5200))
        report = run_experiment(cfg, threads=4)
        assert math.isfinite(report.sw_w)
        assert len(report.normalized_errors) == 5200 - report.boundary_hits

    def test_normality_across_master_seeds(self):
        passes = 0
        for seed in range(10):
            cfg, _ = experiment_from_dict(
                base_config(L=500, replications=300, seed=seed)
            )
            report = run_experiment(cfg, threads=4)
            if report.sw_p > 0.01:
                passes += 1
        assert passes >= 8

    def test_narrow_vs_full_band_tradeoff(self):
        # same seeds: the narrow band pays variance, wins on normalized bias
        model = {"type": "kappa", "g0": 2.0, "alpha0": 3.0, "kappa": 1.0}
        full_cfg, _ = experiment_from_dict(
            base_config(model=model, L=1000, replications=400, seed=31)
        )
        narrow_cfg, _ = experiment_from_dict(
            base_config(
                model=model,
                L=1000,
                replications=400,
                seed=31,
                band={"type": "narrow", "c_g": 1.0},
                scheme={"type": "narrowband"},
            )
        )
        full_report = run_experiment(full_cfg, threads=4)
        narrow_report = run_experiment(narrow_cfg, threads=4)
        assert narrow_report.variance_raw > full_report.variance_raw
        assert abs(narrow_report.mean) < abs(full_report.mean)


class TestAssemble:
    @pytest.mark.parametrize("design", ["mc-noise", "positive"])
    def test_rebuilds_run_experiment_report(self, design):
        # the mc-noise benchmark design at seed 42 has "error" and
        # "boundary" rows; base_config is positive
        if design == "mc-noise":
            common = _bench_common()
            config = common["mc_config"](common["WORKLOADS"]["mc-noise"], 42, 500)
        else:
            config = base_config()
        cfg, _ = experiment_from_dict(config)
        r = run_experiment(cfg)
        assert ("error" in r.statuses) == (design == "mc-noise")
        rebuilt = assemble(cfg, r.all_alpha_hats, r.statuses)
        for field in dataclasses.fields(r):
            mine, theirs = getattr(rebuilt, field.name), getattr(r, field.name)
            if isinstance(theirs, np.ndarray):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
            else:
                assert repr(mine) == repr(theirs), field.name
        # summarize is the same moment code on the ok estimates
        s = summarize(r.raw_alpha_hats, cfg.model.alpha0, cfg.scheme)
        assert (s.bias, s.variance, s.mse) == (r.bias, r.variance_raw, r.mse)
        assert s.normalized.tobytes() == r.normalized_errors.tobytes()

    def test_all_errors_raise(self):
        cfg, _ = experiment_from_dict(base_config(replications=3))
        with pytest.raises(AllReplicationsFailed):
            assemble(cfg, [math.nan] * 3, ["error"] * 3)

    @pytest.mark.parametrize("n_alpha, n_status", [(2, 3), (3, 2), (4, 4)])
    def test_length_mismatch_raises(self, n_alpha, n_status):
        cfg, _ = experiment_from_dict(base_config(replications=3))
        with pytest.raises(ValueError, match="3 alpha_hats"):
            assemble(cfg, [3.0] * n_alpha, ["ok"] * n_status)

    def test_factor_computed_once(self, monkeypatch):
        calls = []

        def counting(scheme):
            calls.append(scheme)
            return normalization_factor(scheme)

        monkeypatch.setattr(montecarlo, "normalization_factor", counting)
        cfg, _ = experiment_from_dict(base_config(replications=20))
        run_experiment(cfg)
        assert calls == [cfg.scheme]


def _bench_common() -> dict:
    # the benchmark's workload table and pinned-file path; bench/common.py
    # imports only the standard library
    return runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "common.py"))


@pytest.mark.parametrize("name", ["mc-large", "mc-noise"])
def test_pinned_bench_values(name):
    # the first 200 replications of each benchmark design at seed 42 against
    # the file pinned from the seed commit, which this test only reads
    common = _bench_common()
    pinned = json.loads(common["PINNED_PATH"].read_text())[name]
    cfg, _ = experiment_from_dict(common["mc_config"](common["WORKLOADS"][name], 42, 200))
    report = run_experiment(cfg, threads=1)
    assert list(report.statuses) == pinned["status"][:200]
    for alpha, ref in zip(report.all_alpha_hats, pinned["alpha_hat"]):
        if ref is None:
            assert math.isnan(alpha)
        else:
            assert abs(alpha - ref) <= 1e-12


# Runs in a fresh interpreter: the mc-large design (L = 20000, 50
# replications) serially, once to warm up and once measured, and prints the
# minor page faults per replication of the measured run.  With argv[2] =
# "band_arrays_first", the band arrays are built before anything else.
_FAULT_PROBE = """
import json, resource, sys
from sphwhittle import experiment_from_dict, run_experiment, whittle
if sys.argv[2] == "band_arrays_first":
    whittle._band_arrays(1, 20000)
cfg, _ = experiment_from_dict(json.loads(sys.argv[1]))
run_experiment(cfg, threads=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(cfg, threads=1)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cfg.replications)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
@pytest.mark.parametrize("order", ["as_is", "band_arrays_first"])
def test_replications_take_no_page_faults(order):
    # each worker draws and estimates in buffers it allocates once: a
    # replication that allocated its own 160 kB arrays took 85-86 faults
    # whenever the band arrays were built before the model spectrum, as the
    # heap top was trimmed and regrown around them
    config = base_config(L=20000, replications=50, seed=42)
    src = str(Path(montecarlo.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, json.dumps(config), order],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    assert float(probe.stdout) < 10


@pytest.mark.parametrize("threads", [1, 2])
def test_run_memory_per_replication(monkeypatch, tmp_path, threads):
    # a run and its files peak at ~90 bytes per replication (tracemalloc):
    # the stream seeds, the outcomes the workers write in place, and the
    # report and files built from them; MAX_REPLICATIONS is sized from it.
    # The replication core, whose arrays do not outlive a replication, is a
    # stub that halves the traced run's time; its alpha_hat is a
    # full-length float
    def estimate_stub(values, *args):
        return 2.5 + values[0] % 1.0, 1.0, 1, True

    monkeypatch.setattr(montecarlo, "_estimate", estimate_stub)
    cfg, resolved = experiment_from_dict(base_config(L=60, replications=10**5))
    tracemalloc.start()
    try:
        write_report_files(run_experiment(cfg, threads=threads), resolved, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cfg.replications <= 110


class TestReportFiles:
    def test_write_report_files(self, tmp_path):
        cfg, resolved = experiment_from_dict(base_config(replications=20))
        report = run_experiment(cfg)
        report_path, samples_path = write_report_files(report, resolved, tmp_path)
        payload = json.loads(report_path.read_text())
        assert payload["config"] == resolved
        assert payload["replications"] == 20
        lines = samples_path.read_text().splitlines()
        assert lines[0] == "rep,alpha_hat,normalized,status"
        assert len(lines) == 21
        assert lines[1].split(",")[3] in {"ok", "boundary", "error"}

    def test_report_json_is_standard_json(self, tmp_path):
        # two replications leave Shapiro-Wilk undefined; RFC 8259 JSON has no
        # NaN, so its statistics are null
        cfg, resolved = experiment_from_dict(base_config(replications=2))
        report_path, _ = write_report_files(run_experiment(cfg), resolved, tmp_path)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(report_path.read_text(), parse_constant=reject)
        assert payload["sw_w"] is None and payload["sw_p"] is None

import json
import math
import os
import signal
import sys
import time
from types import SimpleNamespace

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
    NonPositiveAmplitude,
    NormalizationScheme,
    SampleSizeOutOfRange,
    SearchBox,
    SeedSpec,
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
from sphwhittle.montecarlo import _FORK_MIN_WORK
from sphwhittle.sampling import _SEED_BLOCK

needs_fork = pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="forked workers need Linux and two usable CPUs",
)


def pid_estimate(*args) -> SimpleNamespace:
    """An estimate stub whose alpha_hat is the pid of the process that ran it."""
    return SimpleNamespace(alpha_hat=float(os.getpid()), boundary_hit=False)


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
            ExperimentConfig(
                model=cfg.model,
                noise=None,
                l_max=300,
                band=full_band(300),
                scheme=cfg.scheme,
                box=cfg.box,
                replications=1,
                master_seed=0,
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                model=cfg.model,
                noise=None,
                l_max=300,
                band=Band(1, 400),
                scheme=cfg.scheme,
                box=cfg.box,
                replications=10,
                master_seed=0,
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                model=cfg.model,
                noise=None,
                l_max=300,
                band=full_band(300),
                scheme=cfg.scheme,
                box=cfg.box,
                replications=10,
                master_seed=2**64,
            )
        with pytest.raises(ValueError, match="scheme must describe"):
            ExperimentConfig(
                model=cfg.model,
                noise=None,
                l_max=300,
                band=Band(2, 300),
                scheme=cfg.scheme,
                box=cfg.box,
                replications=10,
                master_seed=0,
            )

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

    def test_experiment_to_dict_infers_band(self):
        cfg, _ = experiment_from_dict(base_config())
        assert experiment_to_dict(cfg)["band"] == {"type": "full"}

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
        assert json.dumps(experiment_to_dict(cfg)["scheme"]) == json.dumps(scheme)


class TestQuantileFrequencies:
    def test_counting_example(self):
        rows = quantile_frequencies([-3, -1, 0, 1, 3], cutpoints=(-1.96, 0.0, 1.96))
        assert [r.percent for r in rows] == [20.0, 40.0, 20.0]
        assert rows[0].percent_below == 20.0
        assert rows[2].percent_above == 20.0

    def test_normal_tail(self):
        draws = np.random.default_rng(5).standard_normal(10**6)
        rows = quantile_frequencies(draws, cutpoints=(-1.96,))
        assert rows[0].percent == pytest.approx(2.5, abs=0.1)

    def test_empty_cutpoints(self):
        assert quantile_frequencies([1.0, 2.0], cutpoints=()) == ()

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            quantile_frequencies([], cutpoints=(0.0,))

    def test_unsorted_cutpoints_rejected(self):
        with pytest.raises(ValueError):
            quantile_frequencies([1.0], cutpoints=(1.0, -1.0))

    @settings(max_examples=50)
    @given(
        samples=st.lists(st.floats(-50, 50), min_size=1, max_size=200),
        cuts=st.lists(st.floats(-3, 3), min_size=1, max_size=7).map(sorted),
    )
    def test_monotone_below_column(self, samples, cuts):
        rows = quantile_frequencies(samples, cutpoints=cuts)
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
        # serial at L = 300; forked workers at L = 500 and at L = 20000
        for l_max, reps in ((300, 100), (500, 2 * _FORK_MIN_WORK // 500), (20000, 20)):
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
            # in a forked child at L = 20000, the second half of the indices
            ({"g_n": 1.0, "gamma": 2.2}, {"L": 20000, "replications": 2 * _FORK_MIN_WORK // 20000}),
            # in a forked child at L = 500, the second half of the indices
            ({"g_n": 1.0, "gamma": 2.2}, {"L": 500, "replications": 2 * _FORK_MIN_WORK // 500}),
        ],
        ids=["None", "noise1", "block_plus_one", "fork_l20000", "fork"],
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
        # two forked workers; the child runs the second range.  A child's
        # exception keeps its type and its traceback, a killed child is an
        # error, not a hang, and no child outlives the run
        parent = os.getpid()

        def fake_estimate(*args):
            in_child = os.getpid() != parent
            if failure == "child_raises" and in_child:
                raise LookupError("raised in the child")
            if failure == "child_killed" and in_child:
                os.kill(os.getpid(), signal.SIGKILL)
            if failure == "parent_raises":
                if in_child:
                    time.sleep(60)  # the parent must kill it, not wait
                raise LookupError("raised in the parent")
            return estimate(*args)

        def hung(signum, frame):
            raise TimeoutError("run_experiment did not return")

        monkeypatch.setattr(montecarlo, "estimate", fake_estimate)
        cfg, _ = experiment_from_dict(base_config(L=500, replications=2 * _FORK_MIN_WORK // 500))
        expected, message = {
            "child_raises": (LookupError, "raised in the child"),
            "child_killed": (ChildProcessError, f"wait status {int(signal.SIGKILL)}"),
            "parent_raises": (LookupError, "raised in the parent"),
        }[failure]
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(expected, match=message) as raised:
                run_experiment(cfg, threads=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        if failure == "child_raises":
            # the child's frames arrive as the cause's text
            assert "fake_estimate" in str(raised.value.__cause__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_fork
    def test_fork_cut_is_work_per_worker(self, monkeypatch):
        # two workers fork once each gets _FORK_MIN_WORK band terms
        # (replications x l_max), and one replication less runs serially
        monkeypatch.setattr(montecarlo, "estimate", pid_estimate)
        reps = 2 * _FORK_MIN_WORK // 500
        for replications, workers in ((reps - 1, 1), (reps, 2)):
            cfg, _ = experiment_from_dict(base_config(L=500, replications=replications))
            pids = set(run_experiment(cfg, threads=2).all_alpha_hats)
            assert os.getpid() in pids
            assert len(pids) == workers

    def test_serial_off_linux(self, monkeypatch, tmp_path):
        # elsewhere than Linux a run that would fork is serial, with the
        # same bytes
        cfg, resolved = experiment_from_dict(
            base_config(L=500, replications=2 * _FORK_MIN_WORK // 500)
        )
        linux = write_report_files(run_experiment(cfg, threads=2), resolved, tmp_path / "linux")
        monkeypatch.setattr(sys, "platform", "darwin")
        other = write_report_files(run_experiment(cfg, threads=2), resolved, tmp_path / "other")
        assert [p.read_bytes() for p in other] == [p.read_bytes() for p in linux]
        monkeypatch.setattr(montecarlo, "estimate", pid_estimate)
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

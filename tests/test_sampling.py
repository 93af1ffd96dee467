import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from sphwhittle import (
    EmpiricalSpectrum,
    ExactPowerLaw,
    NoiseModel,
    NonFiniteValue,
    SeedSpec,
    read_spectrum_csv,
    sample_empirical,
    sample_observed_debiased,
    spectrum_values,
    write_spectrum_csv,
)
from sphwhittle.sampling import (
    _SEED_BLOCK,
    _stream_generator,
    _stream_seeds,
    _stream_words,
    generator,
)

MODEL = ExactPowerLaw(2.0, 3.0)


# The reference for the chi-square shortcut: the 2l+1 real harmonic
# coefficients of level l, flat over l = 1..l_max, level l at
# [l*l - 1, l*l + 2l) as [a_l0, Re a_l1, Im a_l1, ..., Re a_ll, Im a_ll],
# with Var(a_l0) = C_l and Var(Re a_lm) = Var(Im a_lm) = C_l / 2.
def sample_alm(model, l_max: int, seed: SeedSpec) -> np.ndarray:
    c = spectrum_values(model, l_max)
    l = np.arange(1, l_max + 1)
    sd = np.repeat(np.sqrt(c / 2.0), 2 * l + 1)
    sd[l * l - 1] = np.sqrt(c)
    return sd * generator(seed).standard_normal(sd.size)


def alm_level(alm: np.ndarray, l: int) -> np.ndarray:
    return alm[l * l - 1 : l * l + 2 * l]


def c_hat_from_alm(alm: np.ndarray, l_max: int) -> np.ndarray:
    # C_hat_l = (a_l0^2 + 2 sum_m (Re^2 + Im^2)) / (2l+1)
    l = np.arange(1, l_max + 1)
    weights = np.full(alm.size, 2.0)
    weights[l * l - 1] = 1.0
    return np.add.reduceat(weights * alm**2, l * l - 1) / (2 * l + 1)


def debiased_variance_ratio(l: int, c_t: float, c_n: float = 0.0) -> float:
    # Var(debiased C_hat_l / C_T,l) = (2/(2l+1)) (1 + c_n/c_t)^2
    return 2.0 / (2.0 * l + 1.0) * (1.0 + c_n / c_t) ** 2


class TestEmpiricalSpectrum:
    def test_non_debiased_requires_positive(self):
        with pytest.raises(ValueError):
            EmpiricalSpectrum(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            EmpiricalSpectrum(np.array([1.0, -0.5]))

    def test_debiased_accepts_negative(self):
        spec = EmpiricalSpectrum(np.array([1.0, -0.5]), debiased=True)
        assert spec.l_max == 2

    def test_values_read_only(self):
        spec = EmpiricalSpectrum(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            spec.values[0] = 3.0

    def test_caller_array_is_copied(self):
        values = np.array([1.0, 2.0])
        spec = EmpiricalSpectrum(values)
        values[0] = 3.0
        assert spec.values.tolist() == [1.0, 2.0]
        assert values.flags.writeable

    def test_draws_are_checked_and_read_only(self):
        # C_1 X_1 / 3 overflows on some draws at g0 = 1e308
        model = ExactPowerLaw(1e308, 3.0)
        outcomes = set()
        for i in range(20):
            try:
                spec = sample_empirical(model, 5, SeedSpec(0, i))
            except NonFiniteValue:
                outcomes.add("error")
                continue
            outcomes.add("ok")
            assert not spec.values.flags.writeable
            assert np.isfinite(spec.values).all()
        assert outcomes == {"ok", "error"}


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            SeedSpec(2**64, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, -1)

    def test_reproducible_and_streams_differ(self):
        a = sample_empirical(MODEL, 40, SeedSpec(9, 3))
        b = sample_empirical(MODEL, 40, SeedSpec(9, 3))
        c = sample_empirical(MODEL, 40, SeedSpec(9, 4))
        assert (a.values == b.values).all()
        assert (a.values != c.values).any()


class TestBlockSeeding:
    # _stream_words copies numpy's SeedSequence hash; SeedSequence is the
    # reference.  A master seed or stream index of 2**32 or more takes a
    # second 32-bit entropy word.
    MASTERS = (0, 42, 2**32 - 1, 2**32, 2**64 - 1)
    STREAMS = (0, 1, _SEED_BLOCK - 1, _SEED_BLOCK, 2**32 - 1, 2**32)

    @staticmethod
    def reference(master: int, stream: int) -> np.ndarray:
        return np.random.SeedSequence((master, stream)).generate_state(4, np.uint64)

    def test_words_match_seed_sequence(self):
        for master in self.MASTERS:
            for stream in self.STREAMS:
                words = _stream_words(master, stream, stream + 1)
                assert words.shape == (1, 4) and words.dtype == np.uint64
                assert np.array_equal(words[0], self.reference(master, stream))

    def test_block_straddling_word_count(self):
        # one block holding one- and two-word stream indices
        for master in (42, 2**64 - 1):
            words = _stream_words(master, 2**32 - 2, 2**32 + 2)
            for row, stream in zip(words, range(2**32 - 2, 2**32 + 2)):
                assert np.array_equal(row, self.reference(master, stream))

    def test_generators_match_generator(self):
        # two blocks, the second partial
        seeds = _stream_seeds(7, _SEED_BLOCK + 5)
        assert seeds.shape == (_SEED_BLOCK + 5, 4)
        for i in (0, 1, _SEED_BLOCK - 1, _SEED_BLOCK, _SEED_BLOCK + 4):
            expected = generator(SeedSpec(7, i)).chisquare(np.arange(3.0, 40.0))
            assert np.array_equal(_stream_generator(seeds[i]).chisquare(np.arange(3.0, 40.0)), expected)


class TestSampleEmpirical:
    def test_all_entries_positive(self):
        for i in range(5):
            spec = sample_empirical(MODEL, 300, SeedSpec(123, i))
            assert (spec.values > 0).all()
            assert not spec.debiased

    def test_moments_at_l50(self):
        # mean of C_hat/C within 1 +/- 0.01 and variance within 2/101 +/- 10%
        # over 1e5 replications
        n = 100_000
        c50 = spectrum_values(MODEL, 50)[49]
        ratios = np.empty(n)
        for i in range(n):
            ratios[i] = sample_empirical(MODEL, 50, SeedSpec(501, i)).values[49] / c50
        assert abs(ratios.mean() - 1.0) < 0.01
        assert abs(ratios.var(ddof=1) - 2 / 101) < 0.1 * 2 / 101

    def test_chi_squared_law_at_l10(self):
        n = 10_000
        c10 = spectrum_values(MODEL, 10)[9]
        draws = np.empty(n)
        for i in range(n):
            draws[i] = sample_empirical(MODEL, 10, SeedSpec(77, i)).values[9] / c10 * 21
        stat = stats.kstest(draws, stats.chi2(21).cdf).statistic
        assert stat < 1.628 / math.sqrt(n)


class TestSampleAlm:
    def test_coefficient_variances_at_l5(self):
        n = 100_000
        c5 = spectrum_values(MODEL, 5)[4]
        a0 = np.empty(n)
        re3 = np.empty(n)
        for i in range(n):
            level = alm_level(sample_alm(MODEL, 5, SeedSpec(55, i)), 5)
            a0[i] = level[0]
            re3[i] = level[5]
        assert abs(a0.var(ddof=1) - c5) < 0.02 * c5
        assert abs(re3.var(ddof=1) - c5 / 2) < 0.02 * c5 / 2

    def test_distributional_equivalence_with_direct_path(self):
        # two-sample KS on C_hat_l/C_l at l=20 between the coefficient route
        # and the direct chi-squared route
        n = 10_000
        c20 = spectrum_values(MODEL, 20)[19]
        via_alm = np.empty(n)
        direct = np.empty(n)
        for i in range(n):
            via_alm[i] = c_hat_from_alm(sample_alm(MODEL, 20, SeedSpec(81, i)), 20)[19]
            direct[i] = sample_empirical(MODEL, 20, SeedSpec(82, i)).values[19]
        stat = stats.ks_2samp(via_alm / c20, direct / c20).statistic
        assert stat < 1.628 * math.sqrt(2 / n)


class TestEmpiricalFromAlm:
    def test_single_multipole_m0_only(self):
        assert c_hat_from_alm(np.array([1.0, 0.0, 0.0]), 1)[0] == pytest.approx(1 / 3, rel=1e-15)

    def test_single_multipole_full(self):
        assert c_hat_from_alm(np.array([1.0, 1.0, 1.0]), 1)[0] == pytest.approx(5 / 3, rel=1e-15)

    def test_matches_brute_force(self):
        alm = sample_alm(MODEL, 8, SeedSpec(3, 0))
        c_hat = c_hat_from_alm(alm, 8)
        for l in range(1, 9):
            level = alm_level(alm, l)
            brute = (level[0] ** 2 + 2 * (level[1:] ** 2).sum()) / (2 * l + 1)
            assert c_hat[l - 1] == pytest.approx(brute, rel=1e-13)


class TestSampleObservedDebiased:
    def test_flagged_and_negative_values_possible(self):
        noise = NoiseModel(5.0, 2.5)
        seen_negative = False
        for i in range(50):
            spec = sample_observed_debiased(MODEL, noise, 30, SeedSpec(4, i))
            assert spec.debiased
            seen_negative = seen_negative or (spec.values < 0).any()
        assert seen_negative

    def test_debiased_moments_at_l30(self):
        n = 100_000
        noise = NoiseModel(1.0, 2.5)
        c_t = spectrum_values(MODEL, 30)[29]
        c_n = 30.0**-2.5
        vals = np.empty(n)
        for i in range(n):
            vals[i] = sample_observed_debiased(MODEL, noise, 30, SeedSpec(30, i)).values[29]
        assert abs(vals.mean() - c_t) < 0.01 * c_t
        ratio_var = (vals / c_t).var(ddof=1)
        target = debiased_variance_ratio(30, c_t, c_n)
        assert target == pytest.approx((2 / 61) * (1 + c_n / c_t) ** 2, rel=1e-14)
        assert abs(ratio_var - target) < 0.1 * target
        # and within 3 exact Monte Carlo standard errors of the target
        nu = 61
        mu4 = (12 / nu**2 + 48 / nu**3) * (1 + c_n / c_t) ** 4
        se = math.sqrt((mu4 - target**2 * (n - 3) / (n - 1)) / n)
        assert abs(ratio_var - target) < 3 * se

    def test_debiased_variance_ratio(self):
        assert debiased_variance_ratio(50, 1.0) == pytest.approx(2 / 101, rel=1e-15)
        assert debiased_variance_ratio(1, 2.0, 2.0) == pytest.approx(8 / 3, rel=1e-15)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        spec = sample_empirical(MODEL, 64, SeedSpec(11, 0))
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        back = read_spectrum_csv(path)
        assert back.l_max == 64
        assert (back.values == spec.values).all()
        assert not back.debiased

    def test_debiased_round_trip_inferred(self, tmp_path):
        spec = EmpiricalSpectrum(np.array([2.0, -0.25, 1e-300]), debiased=True)
        path = tmp_path / "deb.csv"
        write_spectrum_csv(spec, path)
        back = read_spectrum_csv(path)
        assert back.debiased
        assert (back.values == spec.values).all()

    def test_header_and_order_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("l,c_hat\n2,1.0\n1,2.0\n")
        with pytest.raises(ValueError):
            read_spectrum_csv(path)
        path.write_text("ell,value\n1,2.0\n")
        with pytest.raises(ValueError):
            read_spectrum_csv(path)

    @settings(max_examples=30)
    @given(
        values=st.lists(
            st.floats(1e-12, 1e12, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        spec = EmpiricalSpectrum(np.array(values))
        write_spectrum_csv(spec, path)
        assert (read_spectrum_csv(path).values == spec.values).all()

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from sphwhittle import (
    Band,
    DegenerateBand,
    EmpiricalSpectrum,
    ExactPowerLaw,
    KappaPerturbed,
    NoiseModel,
    NonFiniteValue,
    NonPositiveAmplitude,
    NonPositiveValue,
    NormalizationScheme,
    SearchBox,
    SeedSpec,
    UnsupportedRegime,
    estimate,
    experiment_from_dict,
    full_band,
    narrow_band,
    normalization_factor,
    objective,
    sample_empirical,
    sample_observed_debiased,
    spectrum_values,
)
from sphwhittle import whittle
from sphwhittle.errors import BandTooNarrow
from sphwhittle.whittle import _BandData

MODEL = ExactPowerLaw(2.0, 3.0)


def band_arrays(spectrum: EmpiricalSpectrum, band: Band | None):
    band = band or full_band(spectrum.l_max)
    l = np.arange(band.l_lo, band.l_hi + 1, dtype=float)
    return 2.0 * l + 1.0, l, spectrum.values[band.l_lo - 1 : band.l_hi]


def g_hat_k(
    spectrum: EmpiricalSpectrum, alpha: float, k: int = 0, band: Band | None = None
) -> float:
    """Reference Ghat_k(alpha) = sum (2l+1) (log l)^k Chat_l l^alpha / W."""
    w, l, values = band_arrays(spectrum, band)
    tilt = w * values * np.exp(alpha * np.log(l))
    moment = tilt.sum() if k == 0 else np.dot(tilt, np.log(l) ** k)
    return float(moment) / float(w.sum())


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


def joint_objective(
    spectrum: EmpiricalSpectrum, alpha: float, g: float, band: Band | None = None
) -> float:
    """Un-concentrated Whittle sum over (alpha, g); verifies the concentration."""
    w, l, values = band_arrays(spectrum, band)
    if not (values > 0).all():
        raise NonPositiveValue("joint objective needs positive spectrum values in band")
    ratio = values * np.exp(alpha * np.log(l)) / g
    return float(np.dot(w, ratio - np.log(ratio)))


def joint_difference(
    spectrum: EmpiricalSpectrum, alpha: float, g: float, h: float, band: Band | None = None
) -> float:
    """joint_objective(g + h) - joint_objective(g - h), term by term in closed
    form: a/(g+h) - a/(g-h) = -2h a/(g^2 - h^2) and the logs' difference is
    log1p(2h/(g-h)).  Differencing the two sums instead leaves their rounding
    (~1e-12 on a sum of ~2e4) in a difference of ~1e-4."""
    w, l, values = band_arrays(spectrum, band)
    a = values * np.exp(alpha * np.log(l))
    return float(np.dot(w, np.log1p(2 * h / (g - h)) - 2 * h * a / (g * g - h * h)))


def reference_root(
    spectrum: EmpiricalSpectrum, band: Band | None = None, box: SearchBox = SearchBox()
) -> tuple[float, float, int, bool]:
    """Reference score-root search, as first written: unscaled band sums,
    Ghat checked at both box edges by passes of their own on a band holding
    a value <= 0, a pass at every iterate, and a stop one pass after a step
    of at most 1e-7.  Returns (alpha, Ghat, passes, converged)."""
    w, l, values = band_arrays(spectrum, band)
    log_l = np.log(l)
    w_sum = float(w.sum())
    wbar = float((w * log_l).sum() / w_sum)
    log_c = log_l - wbar
    basis = np.stack([np.ones_like(l), log_c, log_c**2])
    wc = w * values

    def check(g: float, alpha: float) -> float:
        if not g > 0:
            raise NonPositiveAmplitude(f"Ghat({alpha}) = {g} <= 0")
        if not math.isfinite(g):
            raise NonFiniteValue(f"Ghat({alpha}) = {g} is not finite")
        return g

    def moments(alpha: float) -> tuple[float, float, float]:
        g0, m1, m2 = np.einsum("ji,i->j", basis, wc * np.exp(alpha * log_l)).tolist()
        g = check(g0 / w_sum, alpha)
        s = m1 / g0
        return g, s, m2 / g0 - s * s

    a1, a2 = box.alpha_min, box.alpha_max
    positive = bool(values.min() > 0)
    with np.errstate(over="ignore", invalid="ignore"):
        if positive:
            slope = np.einsum("i,i", w * log_c, np.log(values)) / np.einsum("i,i", w, basis[2])
            x = min(max(-float(slope), a1), a2)
            evals = 0
        else:
            x = 0.5 * (a1 + a2)
            for alpha in (a1, a2):
                check(float(np.einsum("i,i", wc, np.exp(alpha * log_l))) / w_sum, alpha)
            evals = 2
        lo, hi = a1, a2
        lo_known = hi_known = False
        dx = dx_old = a2 - a1
        while evals < 200:
            evals += 1
            g0, s, q = moments(x)
            if s > 0:
                if x == a1:
                    return x, g0, evals, True
                hi, hi_known = x, True
            elif s < 0:
                if x == a2:
                    return x, g0, evals, True
                lo, lo_known = x, True
            if q > 0:
                newton = x - s / q
            elif positive:
                newton = math.nan
            else:
                newton = math.inf if s < 0 else -math.inf
            if s == 0 or newton == x or abs(dx) <= 1e-7:
                return x, g0, evals, True
            if not lo < newton < hi:
                if newton <= lo and not lo_known:
                    target = a1
                elif newton >= hi and not hi_known:
                    target = a2
                else:
                    target = 0.5 * (lo + hi)
            elif abs(2.0 * s) > abs(dx_old * q):
                target = 0.5 * (lo + hi)
            else:
                target = newton
            dx_old, dx = dx, target - x
            x = target
    return x, g0, evals, False


def mc_noise_spectrum(rep: int) -> EmpiricalSpectrum:
    # one debiased draw of the mc-noise benchmark design (u = 0.8)
    model, noise = ExactPowerLaw(1.0, 3.0), NoiseModel(1.0, 2.2)
    return sample_observed_debiased(model, noise, 2000, SeedSpec(42, rep))


def exact_spectrum(g0: float, alpha0: float, l_max: int) -> EmpiricalSpectrum:
    return EmpiricalSpectrum(spectrum_values(ExactPowerLaw(g0, alpha0), l_max))


class TestBand:
    def test_width_and_validation(self):
        assert Band(1, 100).width == 100
        assert Band(98, 100).width == 3
        with pytest.raises(ValueError):
            Band(0, 10)
        with pytest.raises(ValueError):
            Band(11, 10)

    def test_full_band(self):
        assert full_band(2000) == Band(1, 2000)

    def test_narrow_band_rule(self):
        band = narrow_band(2000, 1.0)
        assert band == Band(1737, 2000)
        g = 1.0 / math.log(2000)
        assert g == pytest.approx(0.13157, abs=1e-5)
        assert band.l_lo == math.ceil(2000 * (1 - g))

    def test_explicit_l1_fraction(self):
        band = Band(1850, 2000)
        assert 1 - band.l_lo / band.l_hi == pytest.approx(0.075, rel=1e-12)

    def test_narrow_band_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            narrow_band(2000, 1.5)
        with pytest.raises(ValueError):
            narrow_band(2000, 0.0)

    def test_narrow_band_too_narrow(self):
        with pytest.raises(BandTooNarrow):
            narrow_band(5, 0.01)


class TestBandArrays:
    @pytest.mark.parametrize("band", [full_band(2000), narrow_band(2000)], ids=["full", "narrow"])
    def test_weighted_basis_rows(self, band):
        # the rows are w c^k with w = 2l+1 and c = log l - wbar, each built
        # from the one before it by one product
        arrays = whittle._band_arrays(band.l_lo, band.l_hi)
        l = np.arange(band.l_lo, band.l_hi + 1, dtype=float)
        assert arrays.basis.shape == (5, band.width)
        assert np.array_equal(arrays.basis[0], 2.0 * l + 1.0)
        for k in range(1, 5):
            assert np.array_equal(arrays.basis[k], arrays.basis[k - 1] * (np.log(l) - arrays.wbar))
        assert arrays.ols_den == arrays.basis[2].sum()
        assert not (arrays.basis.flags.writeable or arrays.log_s.flags.writeable)

    def test_caches_hold_the_band_in_use(self):
        # one band's arrays (48 bytes per multipole of the full band) and one
        # probe matrix (56) stay held after estimates on three bands in turn
        l_max = 10**5
        model = ExactPowerLaw(1.0, 3.0)
        positive = sample_empirical(model, l_max, SeedSpec(3, 0))
        debiased = sample_observed_debiased(model, NoiseModel(1.0, 2.2), l_max, SeedSpec(3, 0))
        tracemalloc.start()
        try:
            for band in (narrow_band(l_max), Band(l_max // 2, l_max), full_band(l_max)):
                for spectrum in (positive, debiased):
                    estimate(spectrum, band)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 110 * l_max


class TestSearchBox:
    def test_defaults(self):
        box = SearchBox()
        assert box.alpha_min == 2.01
        assert box.alpha_max == 10.0
        assert box.tol == 1e-6

    def test_validation(self):
        SearchBox(1.0, 8.0)
        with pytest.raises(ValueError):
            SearchBox(-0.5, 3.0)
        with pytest.raises(ValueError):
            SearchBox(3.0, 3.0)
        with pytest.raises(ValueError):
            SearchBox(2.01, 10.0, tol=0.0)
        for bad in ({"alpha_max": math.inf}, {"tol": math.inf}, {"alpha_min": math.inf}):
            with pytest.raises(ValueError):
                SearchBox(**bad)


class TestGHatK:
    def test_unit_spectrum_weights_sum_to_one(self):
        spec = exact_spectrum(1.0, 3.5, 200)
        assert g_hat_k(spec, 3.5, k=0) == pytest.approx(1.0, rel=1e-13)

    def test_single_multipole_band(self):
        spec = sample_empirical(MODEL, 50, SeedSpec(5, 0))
        l, alpha = 17, 2.7
        for k in (0, 1, 2):
            expected = math.log(l) ** k * spec.values[l - 1] * l**alpha
            got = g_hat_k(spec, alpha, k=k, band=Band(l, l))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_double_loop(self):
        spec = sample_empirical(MODEL, 100, SeedSpec(6, 0))
        alpha, band = 3.0, Band(1, 100)
        num = 0.0
        den = 0.0
        for l in range(1, 101):
            w = 2 * l + 1
            num += w * math.log(l) * spec.values[l - 1] * float(l) ** alpha
            den += w
        assert g_hat_k(spec, alpha, k=1, band=band) == pytest.approx(num / den, rel=1e-12)


class TestObjective:
    def test_jensen_equality_minimum(self):
        spec = exact_spectrum(2.0, 3.0, 500)
        r0 = objective(spec, 3.0)
        for delta in (-0.5, -0.01, 0.01, 0.5):
            assert objective(spec, 3.0 + delta) > r0

    def test_shift_matches_analytic_limit(self):
        # R(alpha0+1) - R(alpha0) approaches (1.5 - log 1.5 - 1) for large bands
        spec = exact_spectrum(1.0, 3.0, 10_000)
        diff = objective(spec, 4.0) - objective(spec, 3.0)
        limit = 1.5 - math.log(1.5) - 1.0
        assert diff == pytest.approx(limit, rel=0.02)

    def test_single_multipole_constant_in_alpha(self):
        spec = sample_empirical(MODEL, 30, SeedSpec(7, 0))
        band = Band(12, 12)
        base = math.log(spec.values[11])
        for alpha in (2.1, 3.0, 5.5, 9.9):
            assert objective(spec, alpha, band) == pytest.approx(base, rel=1e-12)

    def test_nonpositive_amplitude_raised(self):
        values = np.ones(50)
        values[-1] = -30.0
        spec = EmpiricalSpectrum(values, debiased=True)
        # large alpha weights the negative top multipole most
        with pytest.raises(NonPositiveAmplitude):
            objective(spec, 9.0)


class TestJointObjective:
    def test_concentration_first_order_condition(self):
        # locate the g-profile minimum as the zero of its central-difference
        # slope; a value-comparison search stalls at the g*sqrt(eps) floor
        spec = sample_empirical(MODEL, 150, SeedSpec(8, 0))
        for alpha in (2.5, 3.0, 4.0):
            ghat = g_hat_k(spec, alpha, k=0)
            g, h = 1.1 * ghat, 1e-4 * ghat
            expected = joint_objective(spec, alpha, g + h) - joint_objective(spec, alpha, g - h)
            assert joint_difference(spec, alpha, g, h) == pytest.approx(expected, abs=1e-9)

            def central(g: float, h: float, alpha=alpha) -> float:
                return joint_difference(spec, alpha, g, h) / (2 * h)

            def slope(g: float) -> float:
                # Richardson-extrapolated central difference: kills the h^2
                # truncation term that otherwise floors the root near 1e-10
                h = g * 1e-4
                return (4 * central(g, h / 2) - central(g, h)) / 3

            g_star = optimize.brentq(slope, ghat * 0.5, ghat * 2.0, xtol=1e-14)
            assert abs(g_star - ghat) < 1e-10

    def test_joint_argmin_matches_concentrated(self):
        spec = sample_empirical(MODEL, 300, SeedSpec(9, 0))
        result = estimate(spec, full_band(300), SearchBox())
        alphas = np.arange(result.alpha_hat - 0.05, result.alpha_hat + 0.05, 1e-3)
        joint_profile = []
        for alpha in alphas:
            ghat = g_hat_k(spec, float(alpha), k=0)
            joint_profile.append(joint_objective(spec, float(alpha), ghat))
        best = alphas[int(np.argmin(joint_profile))]
        assert abs(best - result.alpha_hat) <= 1e-3

    def test_perfect_fit_value(self):
        l_max = 120
        spec = exact_spectrum(2.0, 3.0, l_max)
        total = sum(2 * l + 1 for l in range(1, l_max + 1))
        assert joint_objective(spec, 3.0, 2.0) == pytest.approx(total, rel=1e-12)
        assert total == l_max * (l_max + 2)

    def test_positive_values_required(self):
        spec = EmpiricalSpectrum(np.array([1.0, -1.0, 1.0]), debiased=True)
        with pytest.raises(NonPositiveValue):
            joint_objective(spec, 3.0, 1.0)


class TestScoreCurvature:
    def test_stationarity_at_interior_minimum(self):
        box = SearchBox()
        for i in range(5):
            spec = sample_empirical(MODEL, 400, SeedSpec(10, i))
            result = estimate(spec, full_band(400), box)
            assert not result.boundary_hit
            s = score(spec, result.alpha_hat)
            q = curvature(spec, result.alpha_hat)
            assert abs(s) < 10 * box.tol * abs(q)

    def test_score_is_derivative_of_objective(self):
        spec = sample_empirical(MODEL, 250, SeedSpec(11, 0))
        h = 1e-5
        for alpha in (2.4, 3.0, 3.7, 5.0):
            fd = (objective(spec, alpha + h) - objective(spec, alpha - h)) / (2 * h)
            assert abs(score(spec, alpha) - fd) <= 1e-6 * (1 + abs(score(spec, alpha)))

    def test_curvature_is_derivative_of_score(self):
        spec = sample_empirical(MODEL, 250, SeedSpec(11, 1))
        h = 1e-5
        for alpha in (2.4, 3.0, 4.2):
            fd = (score(spec, alpha + h) - score(spec, alpha - h)) / (2 * h)
            assert abs(curvature(spec, alpha) - fd) <= 1e-6 * (1 + abs(curvature(spec, alpha)))

    def test_curvature_limit_quarter(self):
        spec = exact_spectrum(1.0, 3.0, 10_000)
        assert curvature(spec, 3.0) == pytest.approx(0.25, rel=0.02)


class TestEstimate:
    def test_deterministic_recovery(self):
        spec = exact_spectrum(2.0, 3.0, 1000)
        result = estimate(spec, full_band(1000), SearchBox(2.01, 8.0))
        assert abs(result.alpha_hat - 3.0) <= 1e-6
        assert abs(result.g_hat - 2.0) <= 1e-6
        assert result.converged
        assert not result.boundary_hit
        assert result.band == Band(1, 1000)
        assert result.evaluations <= 200

    def test_matches_grid_search(self):
        spec = sample_empirical(MODEL, 2000, SeedSpec(12, 0))
        result = estimate(spec, full_band(2000), SearchBox())
        coarse = np.arange(2.01, 10.0, 1e-2)
        vals = [objective(spec, float(a)) for a in coarse]
        a0 = float(coarse[int(np.argmin(vals))])
        fine = np.arange(a0 - 2e-2, a0 + 2e-2, 1e-4)
        vals = [objective(spec, float(a)) for a in fine]
        best = float(fine[int(np.argmin(vals))])
        assert abs(result.alpha_hat - best) <= 2e-4

    def test_degenerate_band_rejected(self):
        spec = sample_empirical(MODEL, 50, SeedSpec(13, 0))
        with pytest.raises(DegenerateBand):
            estimate(spec, Band(20, 20), SearchBox())

    def test_band_beyond_spectrum_rejected(self):
        spec = sample_empirical(MODEL, 50, SeedSpec(13, 0))
        message = r"band \[1, 51\] exceeds l_max=50"
        with pytest.raises(ValueError, match=message):
            estimate(spec, Band(1, 51))
        with pytest.raises(ValueError, match=message):
            objective(spec, 3.0, Band(1, 51))

    def test_search_stops_at_evaluation_cap(self, monkeypatch):
        # a debiased band's probe pass is its first; with a cap of 1 the
        # search returns the point that pass evaluated, the box midpoint,
        # unconverged, and alpha_hat, g_hat and objective describe it
        monkeypatch.setattr(whittle, "_MAX_EVALS", 1)
        box = SearchBox()
        spectrum = mc_noise_spectrum(0)
        result = estimate(spectrum, box=box)
        assert (result.converged, result.evaluations) == (False, 1)
        assert result.alpha_hat == 0.5 * (box.alpha_min + box.alpha_max)
        assert objective(spectrum, result.alpha_hat) == pytest.approx(result.objective, abs=1e-12)

    def test_boundary_snap_at_lower_edge(self):
        spec = exact_spectrum(2.0, 3.0, 500)
        result = estimate(spec, full_band(500), SearchBox(4.0, 10.0))
        assert result.boundary_hit
        assert result.alpha_hat == pytest.approx(4.0, abs=1e-6)

    def test_boundary_at_upper_edge(self):
        spec = exact_spectrum(2.0, 3.0, 500)
        result = estimate(spec, full_band(500), SearchBox(2.01, 2.5))
        assert result.boundary_hit
        assert result.converged
        assert result.alpha_hat == 2.5

    @pytest.mark.parametrize(
        "l_max, seed, band, alpha_ref",
        [
            # alpha_hat of the Brent search plus score polish, which ran on
            # every spectrum before positive bands got the score-root path
            (50, 3, "full", 2.983898358199021),
            (50, 3, "c_g", 3.520889060270583),
            (50, 3, "L1", 3.4467703946250445),
            (50, 4, "full", 2.993409261658981),
            (50, 4, "c_g", 2.4626826593684363),
            (50, 4, "L1", 2.3013119547424594),
            (2000, 3, "full", 3.0036170317098945),
            (2000, 3, "c_g", 3.014959933593477),
            (2000, 3, "L1", 2.9984422123212706),
            (2000, 4, "full", 2.9981454880696026),
            (2000, 4, "c_g", 2.9588353804322476),
            (2000, 4, "L1", 2.989188930521671),
        ],
    )
    def test_positive_bands_match_search_reference(self, l_max, seed, band, alpha_ref):
        spec = sample_empirical(MODEL, l_max, SeedSpec(seed, 0))
        bands = {
            "full": full_band(l_max),
            "c_g": narrow_band(l_max, 1.0),
            "L1": Band(int(0.8 * l_max), l_max),
        }
        result = estimate(spec, bands[band], SearchBox())
        assert not result.boundary_hit
        assert abs(result.alpha_hat - alpha_ref) <= 1e-12

    def test_positive_band_evaluations(self):
        for i in range(10):
            spec = sample_empirical(MODEL, 2000, SeedSpec(21, i))
            for band in (full_band(2000), narrow_band(2000, 1.0)):
                result = estimate(spec, band, SearchBox())
                assert result.converged
                assert 1 <= result.evaluations <= 8

    @pytest.mark.parametrize(
        "rep, alpha_ref",
        [
            # alpha_hat of the Brent search plus score polish, which ran on
            # every band holding a value <= 0 before the score root did
            (0, 2.5135060563919756),
            # an interior local minimum although R(alpha_max) is lower
            (17, 5.094229125017777),
        ],
    )
    def test_debiased_bands_match_search_reference(self, rep, alpha_ref):
        result = estimate(mc_noise_spectrum(rep), full_band(2000), SearchBox())
        assert result.converged
        assert not result.boundary_hit
        assert abs(result.alpha_hat - alpha_ref) <= 1e-12

    def test_debiased_band_upper_edge(self):
        result = estimate(mc_noise_spectrum(111), full_band(2000), SearchBox())
        assert result.boundary_hit
        assert result.converged
        assert result.alpha_hat == 10.0

    def test_debiased_band_nonpositive_amplitude(self):
        with pytest.raises(NonPositiveAmplitude):
            estimate(mc_noise_spectrum(40), full_band(2000), SearchBox())

    def test_debiased_band_evaluations(self):
        # one probe pass, then the search's own passes
        for rep in [*range(20), 111]:
            result = estimate(mc_noise_spectrum(rep), full_band(2000), SearchBox())
            assert 1 <= result.evaluations <= 13

    @pytest.mark.parametrize("negative", [False, True])
    def test_nonfinite_amplitude_raised(self, negative):
        # l^alpha C_l overflows; the negative entry sends the search through
        # the amplitude checks at the box edges and midpoint
        values = np.full(50, 1e307)
        if negative:
            values[0] = -1.0
        spec = EmpiricalSpectrum(values, debiased=negative)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
            estimate(spec)

    def test_noise_dominated_hits_upper_boundary(self):
        # gamma < alpha0 - 1: the debiased objective favors the box edge
        noise = NoiseModel(1.0, 1.0)
        box = SearchBox()
        divergent = 0
        for i in range(30):
            spec = sample_observed_debiased(MODEL, noise, 500, SeedSpec(14, i))
            try:
                result = estimate(spec, full_band(500), box)
            except NonPositiveAmplitude:
                divergent += 1
                continue
            if result.boundary_hit and result.alpha_hat > box.alpha_max - 0.1:
                divergent += 1
        assert divergent > 15

    def test_result_objective_consistent(self):
        spec = sample_empirical(MODEL, 300, SeedSpec(15, 0))
        result = estimate(spec, full_band(300), SearchBox())
        assert result.objective == pytest.approx(
            objective(spec, result.alpha_hat), rel=1e-12
        )
        assert result.g_hat == pytest.approx(
            g_hat_k(spec, result.alpha_hat, k=0), rel=1e-12
        )


def fsum_score(spectrum: EmpiricalSpectrum, band: Band | None, alpha: float) -> float:
    """The score at alpha, sum t_l c_l / sum t_l with t_l = (2l+1) Chat_l
    (l / l_hi)^alpha and c_l = log l - wbar, every band sum by math.fsum."""
    w, l, values = band_arrays(spectrum, band)
    log_l = np.log(l)
    c = log_l - math.fsum(w * log_l) / math.fsum(w)
    t = w * values * np.exp(alpha * (log_l - log_l[-1]))
    return math.fsum(t * c) / math.fsum(t)


def bisected_root(spectrum: EmpiricalSpectrum, band: Band | None, lo: float, hi: float) -> float:
    """The root of fsum_score in [lo, hi], bisected down to adjacent floats;
    the score must be negative at lo and positive at hi."""
    assert fsum_score(spectrum, band, lo) < 0 < fsum_score(spectrum, band, hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if fsum_score(spectrum, band, mid) < 0:
            lo = mid
        else:
            hi = mid


class TestOracle:
    """estimate against an independent root: bisection of the score, with
    every band sum exact (math.fsum), no einsum and no series step."""

    @pytest.mark.parametrize(
        "model, l_max, band, draws",
        [
            (MODEL, 20, None, 10),
            (MODEL, 200, None, 10),
            (MODEL, 2000, None, 5),
            (MODEL, 20000, None, 2),
            (MODEL, 2000, "c_g", 5),
            (KappaPerturbed(2.0, 3.0, 1.0), 1000, None, 5),
        ],
        ids=["L20", "L200", "L2000", "L20000", "narrow", "kappa"],
    )
    def test_positive_bands(self, model, l_max, band, draws):
        # R is convex, so the root in the box is the only one
        band = narrow_band(l_max, 1.0) if band == "c_g" else full_band(l_max)
        box = SearchBox()
        for i in range(draws):
            spec = sample_empirical(model, l_max, SeedSpec(24, i))
            result = estimate(spec, band, box)
            assert not result.boundary_hit
            reference = bisected_root(spec, band, box.alpha_min, box.alpha_max)
            assert abs(result.alpha_hat - reference) <= 1e-12

    def test_debiased_bands(self):
        # the root the search reaches from the midpoint, bracketed around it
        checked = 0
        for rep in range(50):
            try:
                result = estimate(mc_noise_spectrum(rep))
            except NonPositiveAmplitude:
                continue
            if result.boundary_hit:
                continue
            a = result.alpha_hat
            reference = bisected_root(mc_noise_spectrum(rep), None, a - 1e-3, a + 1e-3)
            assert abs(a - reference) <= 1e-12
            checked += 1
        assert checked >= 45

    def test_debiased_pass_count(self):
        # the probe pass, then Halley steps and one final series step
        passes = []
        for rep in range(200):
            try:
                passes.append(estimate(mc_noise_spectrum(rep)).evaluations)
            except NonPositiveAmplitude:
                continue
        assert len(passes) >= 190
        assert sum(passes) / len(passes) <= 4.0

    def test_large_positive_band_takes_one_pass(self):
        # the weighted-OLS start lies within _SERIES_STOP of the root
        for i in range(10):
            spec = sample_empirical(MODEL, 20000, SeedSpec(42, i))
            assert estimate(spec).evaluations == 1


def outcome(search, *args):
    """(alpha_hat, boundary) of a search, or the class of the error it raises."""
    box = SearchBox()
    try:
        alpha = search(*args)
    except (NonPositiveAmplitude, NonFiniteValue) as exc:
        return type(exc), None
    return alpha, bool(alpha - box.alpha_min < box.tol or box.alpha_max - alpha < box.tol)


class TestReferenceParity:
    """estimate against reference_root, the search before the probe pass,
    the scaled sums and the early stop."""

    @pytest.mark.parametrize("rep", [*range(40), 111])
    def test_debiased_bands(self, rep):
        spec = mc_noise_spectrum(rep)
        new = outcome(lambda: estimate(spec).alpha_hat)
        ref = outcome(lambda: reference_root(spec)[0])
        assert new[1] == ref[1]
        if isinstance(ref[0], type):
            assert new[0] is ref[0]
            return
        assert abs(new[0] - ref[0]) <= 1e-12
        result = estimate(spec)
        assert result.g_hat == pytest.approx(g_hat_k(spec, result.alpha_hat), rel=1e-12)
        assert result.evaluations < reference_root(spec)[2]

    @pytest.mark.parametrize("l_max", [2000, 20000])
    def test_positive_bands(self, l_max):
        for i in range(10):
            spec = sample_empirical(MODEL, l_max, SeedSpec(22, i))
            result = estimate(spec)
            alpha, g, evals, converged = reference_root(spec)
            assert abs(result.alpha_hat - alpha) <= 1e-12
            assert result.g_hat == pytest.approx(g, rel=1e-12)
            assert result.converged and converged
            assert result.evaluations <= evals - 1

    def test_nonpositive_at_both_edges_names_alpha_min(self):
        # Ghat < 0 at alpha_min and alpha_max, > 0 at the midpoint
        values = np.ones(50)
        values[0], values[-1] = -1e7, -5.0
        spec = EmpiricalSpectrum(values, debiased=True)
        assert g_hat_k(spec, 2.01) < 0 < g_hat_k(spec, 6.005)
        assert g_hat_k(spec, 10.0) < 0
        with pytest.raises(NonPositiveAmplitude, match=r"^Ghat\(2\.01\) = "):
            estimate(spec)
        with pytest.raises(NonPositiveAmplitude, match=r"^Ghat\(2\.01\) = "):
            reference_root(spec)


@pytest.mark.parametrize(
    "spec",
    [sample_empirical(MODEL, 20000, SeedSpec(23, 0)), mc_noise_spectrum(0)],
    ids=["positive", "debiased"],
)
def test_huge_values_keep_alpha_hat(spec):
    # unscaled, W Ghat overflows near alpha0 at L = 20000, and the terms
    # (2l+1) Chat_l l^alpha overflow at alpha_max
    scaled = EmpiricalSpectrum(spec.values * 1e300, debiased=spec.debiased)
    r1, r2 = estimate(spec), estimate(scaled)
    assert abs(r1.alpha_hat - r2.alpha_hat) <= 1e-12
    assert r2.g_hat == pytest.approx(r1.g_hat * 1e300, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    scale=st.floats(1e-4, 1e4),
    stream=st.integers(0, 50),
)
def test_scale_equivariance(scale, stream):
    spec = sample_empirical(MODEL, 200, SeedSpec(16, stream))
    scaled = EmpiricalSpectrum(spec.values * scale)
    r1 = estimate(spec, full_band(200), SearchBox())
    r2 = estimate(scaled, full_band(200), SearchBox())
    assert abs(r1.alpha_hat - r2.alpha_hat) < 1e-8
    assert r2.g_hat == pytest.approx(r1.g_hat * scale, rel=1e-8)
    assert r2.objective - r1.objective == pytest.approx(math.log(scale), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    l_lo=st.integers(1, 350),
    width=st.integers(3, 60),
    alpha0=st.floats(2.2, 6.0),
)
def test_jensen_equality_any_band(l_lo, width, alpha0):
    l_hi = l_lo + width - 1
    spec = exact_spectrum(1.5, alpha0, l_hi)
    result = estimate(spec, Band(l_lo, l_hi), SearchBox(2.01, 8.0))
    assert abs(result.alpha_hat - alpha0) < 1e-7


# Closed-form limits of the linearized factor, kept as oracles: each test
# below checks that normalization_factor approaches one as L grows.


def correction_factor(l_max: int) -> float:
    """c_L = (1/L) sum_{l<=L} log l / log L, in (0, 1)."""
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    logs = np.log(np.arange(1, l_max + 1, dtype=float))
    return float(logs.sum() / (l_max * math.log(l_max)))


def noise_variance_constant(u: float) -> float:
    """V(u) = (1 + u^2) / (1 + u)^3: for 0 < u < 1,
    Var(alpha_hat - alpha0) ~ 8 V(u) (g_n/g0)^2 L^(2(u-1))."""
    if not u > -1:
        raise ValueError("u must exceed -1")
    return (1.0 + u * u) / (1.0 + u) ** 3


def linearized_variance(band: Band, ratio=lambda l: 0.0) -> float:
    """V_band = 2 sum w_l (1 + r_l)^2 c_l^2 / S^2, summed term by term."""
    ls = range(band.l_lo, band.l_hi + 1)
    w_sum = math.fsum(2 * l + 1 for l in ls)
    wbar = math.fsum((2 * l + 1) * math.log(l) for l in ls) / w_sum
    s = math.fsum((2 * l + 1) * (math.log(l) - wbar) ** 2 for l in ls)
    terms = ((2 * l + 1) * (1 + ratio(l)) ** 2 * (math.log(l) - wbar) ** 2 for l in ls)
    return 2 * math.fsum(terms) / s**2


def factor(tag: str, l_max: int, model=MODEL, noise=None, band=None) -> float:
    scheme = NormalizationScheme(tag, band or full_band(l_max), model, noise)
    return normalization_factor(scheme)


def noise_factor(l_max: int, gamma: float, g0: float = 2.0, g_n: float = 1.0) -> float:
    return factor("noise", l_max, ExactPowerLaw(g0, 3.0), NoiseModel(g_n, gamma))


class TestCorrectionFactor:
    def test_two_term_value(self):
        assert correction_factor(2) == 0.5

    def test_reference_values(self):
        assert correction_factor(1000) == pytest.approx(0.86, abs=0.005)
        assert correction_factor(2000) == pytest.approx(0.87, abs=0.005)
        assert correction_factor(4000) == pytest.approx(0.88, abs=0.005)

    def test_increasing_and_bounded(self):
        values = [correction_factor(l) for l in range(3, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1 for v in values)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            correction_factor(1)


class TestNormalizationFactor:
    def test_one_multipole_band_rejected(self):
        # S = 0 on one multipole: no scheme has a factor there
        with pytest.raises(DegenerateBand, match=r"band \[5, 5\] cannot identify alpha"):
            NormalizationScheme("fullband", Band(5, 5), MODEL)

    def test_fullband_uncorrected(self):
        # V_band = 2 / S without noise; its limit is sqrt(2) L / 4
        assert factor("fullband", 2000) == pytest.approx(
            linearized_variance(full_band(2000)) ** -0.5, rel=1e-12
        )
        assert factor("fullband", 2000) == pytest.approx(708.148, abs=1e-3)
        for l_max in (1000, 10_000, 100_000):
            ratio = factor("fullband", l_max) / (math.sqrt(2) * l_max / 4)
            assert 0 < ratio - 1 <= 3.5 / l_max

    def test_fullband_corrected(self):
        # "corrected" is accepted and has no effect
        configs = [
            {
                "model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0},
                "L": 2000,
                "scheme": {"type": "fullband", **corrected},
                "replications": 2,
                "seed": 0,
            }
            for corrected in ({}, {"corrected": False}, {"corrected": True})
        ]
        built = [experiment_from_dict(config) for config in configs]
        assert built[0] == built[1] == built[2]
        assert built[0][1]["scheme"] == {"type": "fullband"}
        assert normalization_factor(built[0][0].scheme) == factor("fullband", 2000)

    def test_narrowband(self):
        model = KappaPerturbed(2.0, 4.0, 1.0)
        value = factor("narrowband", 2000, model, band=Band(1850, 2000))
        assert value == pytest.approx(
            linearized_variance(Band(1850, 2000)) ** -0.5, rel=1e-12
        )
        assert value == pytest.approx(12.208, abs=1e-3)
        # L sqrt(g^3 / 12) is a small-g limit: g shrinks as L grows
        for l_max, g in ((1000, 0.2), (10_000, 0.05), (100_000, 0.01)):
            band = Band(l_max - round(g * l_max), l_max)
            g = 1 - band.l_lo / l_max
            ratio = factor("narrowband", l_max, band=band) / (l_max * math.sqrt(g**3 / 12))
            assert 0 < ratio - 1 <= 0.3 * g + 2 / (g * l_max)

    def test_rate(self):
        # 1 / b_band per unit kappa tends to L / (4 c_L), 1/log L apart
        for l_max in (1000, 2000, 10_000, 100_000):
            ratio = factor("rate", l_max) / (l_max / (4 * correction_factor(l_max)))
            assert 0.95 <= (1 - ratio) * math.log(l_max) <= 1.1

    def test_noise_regime_below(self):
        # u = -2: the noise barely moves the factor below the noiseless one
        ratio = noise_factor(1000, gamma=5.0) / factor("fullband", 1000)
        assert 0.999 < ratio < 1

    def test_noise_regime_equal(self):
        # u = 0: r_l = g_n/g0 at every l, so V_band scales by (1 + g_n/g0)^2
        assert noise_factor(1000, gamma=3.0) * 1.5 == pytest.approx(
            factor("fullband", 1000), rel=1e-13
        )

    def test_noise_regime_continuous(self):
        values = [noise_factor(1000, gamma=3.0 - u) for u in (-1e-9, 0.0, 1e-9)]
        assert values == pytest.approx([values[1]] * 3, rel=1e-6)

    def test_noise_regime_intermediate(self):
        assert noise_factor(1000, gamma=2.5) == pytest.approx(
            linearized_variance(full_band(1000), lambda l: 0.5 * l**0.5) ** -0.5,
            rel=1e-12,
        )
        # the old closed form is the limit, approached like L^-u
        for u in (0.3, 0.5, 0.8):
            for l_max in (1000, 10_000, 100_000):
                limit = (
                    l_max ** (1 - u)
                    * math.sqrt(2)
                    / (4 * math.sqrt(noise_variance_constant(u)))
                    * 2.0
                )
                ratio = noise_factor(l_max, gamma=3.0 - u) / limit
                assert 0 < 1 - ratio <= 3.5 * l_max**-u

    def test_noise_regime_unsupported(self):
        # u >= 1, where the estimator diverges
        for gamma in (2.0, 1.0):
            with pytest.raises(UnsupportedRegime):
                noise_factor(1000, gamma=gamma)

    @pytest.mark.parametrize(
        "gamma, g0, g_n",
        [
            (3.0, 1e-200, 1.0),  # (1 + r_l)^2 overflows
            (2.5, 1e-300, 1e10),  # r_l overflows
        ],
    )
    def test_noise_factor_out_of_range(self, gamma, g0, g_n):
        with pytest.raises(NonFiniteValue):
            noise_factor(1000, gamma, g0, g_n)

    def test_all_factors_positive(self):
        noise = NoiseModel(0.5, 2.6)
        for tag, band in (
            ("fullband", full_band(100)),
            ("narrowband", Band(70, 100)),
            ("rate", full_band(100)),
            ("noise", full_band(100)),
        ):
            assert factor(tag, 100, ExactPowerLaw(1.0, 3.0), noise, band) > 0


class TestNoiseConstants:
    def test_variance_constant(self):
        assert noise_variance_constant(0.0) == pytest.approx(1.0, rel=1e-15)
        assert noise_variance_constant(0.5) == pytest.approx(1.25 / 3.375, rel=1e-14)

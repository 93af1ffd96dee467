"""Concentrated Whittle objective, spectral-index estimator, normalizations.

The concentrated objective over a band [l_lo, l_hi] is

    R(alpha) = log Ghat(alpha) - alpha * wbar,

where Ghat_k(alpha) = sum_w (log l)^k * Chat_l * l^alpha / W, W = sum (2l+1)
and wbar = sum (2l+1) log l / W (natural logs, l = 1 included, weights over
the band only).  Its minimizer alpha_hat estimates the spectral index and
g_hat = Ghat(alpha_hat) the amplitude.

The score and curvature are the tilted mean and variance of log l - wbar,
computed from centered logs rather than as Ghat_1/Ghat - wbar.  Every
band is minimized by one safeguarded Newton-bisection root of the score:
the minimizer over the box where R is convex (positive values), else the
local minimizer reached from the box midpoint (a debiased spectrum).
Each iterate costs one pass over the band, except that a debiased band's
box edges and midpoint share one pass and the final point, reached by a
step of at most 1e-7, costs none; a positive band usually takes 2-3
passes, a debiased one about 6.  The band sums run on values divided by
a power of two near max |Chat_l| and on l^alpha / l_hi^alpha, so no term
overflows and alpha_hat does not depend on the spectrum's scale; only a
g_hat that is itself out of range raises.

One normalization scales (alpha_hat - alpha0), from the estimator's own
linearization over the band.  With w_l = 2l+1, c_l = log l - wbar,
S = sum w_l c_l^2 and r_l = C_N,l / C_l (0 without noise), linearizing the
score at alpha0 gives alpha_hat - alpha0 ~ -sum w_l c_l eps_l / S, where
eps_l = Chat_l / C_l - 1 has variance 2 (1 + r_l)^2 / w_l.  The CLT tags
(fullband, narrowband, noise) multiply by V_band^(-1/2), the inverse root
of the finite-L sandwich variance V_band = 2 sum w_l (1 + r_l)^2 c_l^2 / S^2;
the rate tag multiplies by 1 / b_band per unit kappa, S / (-sum w_l c_l / l),
so a KappaPerturbed model's normalized bias tends to kappa.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandTooNarrow,
    DegenerateBand,
    NonFiniteValue,
    NonPositiveAmplitude,
    UnsupportedRegime,
)
from .sampling import EmpiricalSpectrum
from .spectrum import (
    NoiseModel,
    SpectrumModel,
    asymptotic_params,
    noise_values,
    spectrum_values,
)

__all__ = [
    "Band",
    "SearchBox",
    "EstimateResult",
    "NormalizationScheme",
    "full_band",
    "narrow_band",
    "objective",
    "score",
    "curvature",
    "estimate",
    "normalization_factor",
    "debiased_variance_ratio",
]

_MAX_EVALS = 200
# a Newton step this small leaves the next iterate within roundoff of the root
_NEWTON_STOP = 1e-7


@dataclass(frozen=True)
class Band:
    """Inclusive multipole range [l_lo, l_hi]; l_lo = 1 is the full band."""

    l_lo: int
    l_hi: int

    def __post_init__(self) -> None:
        if not 1 <= int(self.l_lo) <= int(self.l_hi):
            raise ValueError("band must satisfy 1 <= l_lo <= l_hi")

    @property
    def width(self) -> int:
        return self.l_hi - self.l_lo + 1


@dataclass(frozen=True)
class SearchBox:
    """Compact search interval [alpha_min, alpha_max] with tolerance on alpha.

    alpha_min > 2 matches the theory's parameter space; values in (0, 2] are
    accepted so designs at the regularity threshold alpha0 = 2 stay
    searchable.
    """

    alpha_min: float = 2.01
    alpha_max: float = 10.0
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (self.alpha_min > 0):
            raise ValueError("alpha_min must be positive")
        if not (self.alpha_max > self.alpha_min):
            raise ValueError("alpha_max must exceed alpha_min")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class EstimateResult:
    """Minimizer output; g_hat is Ghat evaluated from the data at alpha_hat.

    evaluations counts the passes over the band that located alpha_hat
    (each gives Ghat and its moments at one alpha), always >= 1; on a band
    holding a value <= 0 the first pass covers the box edges and midpoint
    at once, and the final point, reached by a step of at most 1e-7, takes
    no pass.  converged means the stopping rule was met before the
    iteration cap; an estimate on a box edge can be converged, and
    boundary_hit flags it.
    """

    alpha_hat: float
    g_hat: float
    objective: float
    band: Band
    evaluations: int
    converged: bool
    boundary_hit: bool


def full_band(l_max: int) -> Band:
    """The band [1, l_max]."""
    return Band(1, l_max)


def narrow_band(l_max: int, c_g: float = 1.0) -> Band:
    """High-multipole band with shrinking fraction g = c_g / ln(l_max).

    Returns [max(1, ceil(l_max (1-g))), l_max]; raises BandTooNarrow below
    3 multipoles.
    """
    if l_max < 3:
        raise ValueError("l_max must be >= 3")
    if not 0 < c_g <= 1:
        raise ValueError("c_g must lie in (0, 1]")
    g = c_g / math.log(l_max)
    if g >= 1:
        raise ValueError("band fraction g must be < 1")
    l_lo = max(1, math.ceil(l_max * (1.0 - g)))
    if l_max - l_lo + 1 < 3:
        raise BandTooNarrow(f"band [{l_lo}, {l_max}] has fewer than 3 multipoles")
    return Band(l_lo, l_max)


@dataclass(frozen=True)
class _BandArrays:
    """Spectrum-free band quantities; the arrays are read-only and shared."""

    w: np.ndarray
    # log l - log l_hi <= 0: each tilt exp(alpha (log l - log l_hi)) lies in
    # (0, 1] for alpha >= 0, so the scaled band sums cannot overflow
    log_s: np.ndarray
    log_hi: float
    w_sum: float
    wbar: float
    # rows 1, log l - wbar, (log l - wbar)^2: one einsum with the tilt gives
    # W Ghat and the centered moments of the score and curvature, free of
    # the cancellation in Ghat_1/Ghat - wbar
    basis: np.ndarray
    # the weighted-OLS slope of y on log l is sum(ols_weights * y) / ols_den
    ols_weights: np.ndarray
    ols_den: float


# The band reductions use np.einsum without optimize, which runs numpy's own
# single-threaded loops.  A BLAS dot product splits long vectors across BLAS
# threads, so its rounding, and alpha_hat with it, would depend on their count.
@functools.lru_cache(maxsize=32)
def _band_arrays(l_lo: int, l_hi: int) -> _BandArrays:
    l = np.arange(l_lo, l_hi + 1, dtype=float)
    w = 2.0 * l + 1.0
    log_l = np.log(l)
    w_sum = float(w.sum())
    wbar = float((w * log_l).sum() / w_sum)
    log_c = log_l - wbar
    basis = np.stack([np.ones_like(l), log_c, log_c**2])
    log_s = log_l - log_l[-1]
    ols_weights = w * log_c
    for a in (w, log_s, basis, ols_weights):
        a.setflags(write=False)
    return _BandArrays(
        w=w,
        log_s=log_s,
        log_hi=float(log_l[-1]),
        w_sum=w_sum,
        wbar=wbar,
        basis=basis,
        ols_weights=ols_weights,
        ols_den=float(np.einsum("i,i", w, basis[2])),
    )


# Rows 3k..3k+2 are exp(a_k (log l - log l_hi)) * basis for the probes a_k,
# so one einsum with the weighted values gives W Ghat and both centered
# moments at every probe.  Three probes take 9 band lengths (0.14 MB at
# L = 2000).
@functools.lru_cache(maxsize=8)
def _probe_rows(l_lo: int, l_hi: int, probes: tuple[float, ...]) -> np.ndarray:
    arrays = _band_arrays(l_lo, l_hi)
    rows = np.concatenate([np.exp(a * arrays.log_s) * arrays.basis for a in probes])
    rows.setflags(write=False)
    return rows


def _check_amplitude(g: float, alpha: float) -> float:
    if not g > 0:
        raise NonPositiveAmplitude(f"Ghat({alpha}) = {g} <= 0")
    if not math.isfinite(g):
        raise NonFiniteValue(f"Ghat({alpha}) = {g} is not finite")
    return g


class _BandData:
    """Per-(spectrum, band) data; the band arrays are cached per band.

    The band sums run on the values divided by 2^e, the power of two just
    above max |Chat_l| (an exact division), and on the tilt shifted by
    l_hi^-alpha, so every term is below w_l in size.  A scaled amplitude
    g_s = Ghat(alpha) / (2^e l_hi^alpha) is scaled back only where Ghat
    itself is wanted, so only a Ghat that is out of range overflows.
    """

    def __init__(self, spectrum: EmpiricalSpectrum, band: Band) -> None:
        if band.l_hi > spectrum.l_max:
            raise ValueError(
                f"band [{band.l_lo}, {band.l_hi}] exceeds spectrum l_max={spectrum.l_max}"
            )
        self.band = band
        self.arrays = _band_arrays(band.l_lo, band.l_hi)
        self.log_s = self.arrays.log_s
        self.w_sum = self.arrays.w_sum
        self.wbar = self.arrays.wbar
        self.values = spectrum.values[band.l_lo - 1 : band.l_hi]
        v_min, v_max = float(self.values.min()), float(self.values.max())
        self.positive = v_min > 0
        # frexp(0) = (0, 0): an all-zero band keeps its zeros
        exponent = math.frexp(max(v_max, -v_min))[1]
        self.log_m = exponent * math.log(2.0)
        self.wc = np.ldexp(self.values, -exponent)
        self.wc *= self.arrays.w

    def ghat(self, alpha: float) -> float:
        """The scaled amplitude g_s at alpha."""
        return float(np.einsum("i,i", self.wc, np.exp(alpha * self.log_s))) / self.w_sum

    def amplitude(self, alpha: float, g_s: float, log_step: float = 0.0) -> float:
        """Ghat(alpha) exp(log_step) from g_s, checked finite and > 0."""
        # formed in logs: the product g_s 2^e l_hi^alpha overflows only when
        # it is itself out of range
        log_scale = self.log_m + alpha * self.arrays.log_hi + log_step
        try:
            g = math.exp(math.log(abs(g_s)) + log_scale) if g_s else 0.0
        except OverflowError:
            g = math.inf
        return _check_amplitude(math.copysign(g, g_s), alpha)

    def moments(self, alpha: float, g0: float, m1: float, m2: float) -> tuple[float, float, float]:
        """(g_s, score, curvature) from W g_s and the two centered moments."""
        if not g0 > 0:
            self.amplitude(alpha, g0 / self.w_sum)  # raises NonPositiveAmplitude
        s = m1 / g0
        return g0 / self.w_sum, s, m2 / g0 - s * s

    def centered_moments(self, alpha: float) -> tuple[float, float, float]:
        """(g_s, score, curvature) at alpha; raises if Ghat(alpha) <= 0."""
        # wc * exp(alpha (log l - log l_hi)), formed in one buffer
        tilt = np.multiply(self.log_s, alpha)
        np.exp(tilt, out=tilt)
        tilt *= self.wc
        return self.moments(alpha, *np.einsum("ji,i->j", self.arrays.basis, tilt).tolist())

    def probe_moments(self, box: SearchBox) -> dict[float, tuple[float, float, float]]:
        """centered_moments at alpha_min, alpha_max and the midpoint, in one
        pass; the amplitudes are checked in that order."""
        probes = (box.alpha_min, box.alpha_max, 0.5 * (box.alpha_min + box.alpha_max))
        rows = _probe_rows(self.band.l_lo, self.band.l_hi, probes)
        sums = np.einsum("ji,i->j", rows, self.wc).tolist()
        return {a: self.moments(a, *sums[3 * k : 3 * k + 3]) for k, a in enumerate(probes)}


def _band_or_full(spectrum: EmpiricalSpectrum, band: Band | None) -> Band:
    return band if band is not None else full_band(spectrum.l_max)


# A Ghat that overflows or sums inf - inf is inf or nan, which
# _check_amplitude reports as a typed error, so numpy's warnings are silenced
# where Ghat is computed.  numpy keeps this state per thread (a context
# variable), so it is entered here, in the thread that does the work.
def _quiet():
    return np.errstate(over="ignore", invalid="ignore")


def objective(
    spectrum: EmpiricalSpectrum, alpha: float, band: Band | None = None
) -> float:
    """Concentrated objective R(alpha) = log Ghat(alpha) - alpha * wbar."""
    with _quiet():
        data = _BandData(spectrum, _band_or_full(spectrum, band))
        return math.log(data.amplitude(alpha, data.ghat(alpha))) - alpha * data.wbar


def score(spectrum: EmpiricalSpectrum, alpha: float, band: Band | None = None) -> float:
    """Exact derivative of the objective, Ghat_1/Ghat - wbar."""
    with _quiet():
        return _BandData(spectrum, _band_or_full(spectrum, band)).centered_moments(alpha)[1]


def curvature(
    spectrum: EmpiricalSpectrum, alpha: float, band: Band | None = None
) -> float:
    """Second derivative of the objective, (Ghat_2 Ghat - Ghat_1^2) / Ghat^2."""
    with _quiet():
        return _BandData(spectrum, _band_or_full(spectrum, band)).centered_moments(alpha)[2]


def _score_root(data: _BandData, box: SearchBox) -> tuple[float, float, int, bool]:
    """Root of the score by safeguarded Newton-bisection.

    With positive values R is a log-sum-exp of affine functions of alpha,
    so it is convex and its score increases: the minimizer over the box is
    the score's root, or the edge at which the score keeps its sign.  The
    start is then the weighted-OLS slope of log Chat_l on log l, clipped
    into the box.  A band holding a value <= 0 starts at the midpoint.  One
    pass over the band (probe_moments) gives Ghat, score and curvature at
    alpha_min, alpha_max and the midpoint, checks Ghat > 0 at the three, and
    serves any iterate that lands on one of them; where the curvature is
    <= 0 the Newton step points at the box edge on the descent side.  As in
    rtsafe (Numerical Recipes 9.4), a Newton step is taken only when it
    stays inside the bracket and at most halves the step before the last;
    otherwise the bracket is bisected.  A box edge is evaluated only when a
    Newton step tries to leave the box through it.  A step of at most
    _NEWTON_STOP, which quadratic convergence puts within roundoff of the
    root, ends the search at its target with no pass there: Ghat(target)
    is the second-order expansion of log Ghat from the last pass, exact to
    roundoff over such a step.  Returns (alpha, Ghat(alpha), passes over
    the band, converged).
    """
    a1, a2 = box.alpha_min, box.alpha_max
    if data.positive:
        arrays = data.arrays
        log_values = np.log(data.values)
        slope = float(np.einsum("i,i", arrays.ols_weights, log_values)) / arrays.ols_den
        x = min(max(-slope, a1), a2)
        probes = {}
        evals = 0
    else:
        x = 0.5 * (a1 + a2)
        probes = data.probe_moments(box)
        evals = 1
    # the score is negative at lo and positive at hi once they are known;
    # until then they are the box edges
    lo, hi = a1, a2
    lo_known = hi_known = False
    dx = dx_old = a2 - a1
    while True:
        if x in probes:
            g0, s, q = probes[x]
        else:
            evals += 1
            g0, s, q = data.centered_moments(x)
        if s > 0:
            if x == a1:
                return x, data.amplitude(x, g0), evals, True
            hi, hi_known = x, True
        elif s < 0:
            if x == a2:
                return x, data.amplitude(x, g0), evals, True
            lo, lo_known = x, True
        if q > 0:
            newton = x - s / q
        elif data.positive:
            # q <= 0 only by roundoff where R is convex: bisect
            newton = math.nan
        else:
            newton = math.inf if s < 0 else -math.inf
        # newton == x: the step is below the resolution of x
        if s == 0 or newton == x:
            return x, data.amplitude(x, g0), evals, True
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
        if abs(dx) <= _NEWTON_STOP:
            # d log g_s / d alpha is the tilted mean of log l - log l_hi,
            # s + wbar - log l_hi, and the curvature is q
            log_step = dx * (s + data.wbar - data.arrays.log_hi) + 0.5 * dx * dx * q
            return target, data.amplitude(target, g0, log_step), evals, True
        if evals >= _MAX_EVALS:
            # target unevaluated; Ghat is the last pass's
            return target, data.amplitude(x, g0), evals, False
        x = target


def estimate(
    spectrum: EmpiricalSpectrum, band: Band | None = None, box: SearchBox | None = None
) -> EstimateResult:
    """Minimize the concentrated objective over the box.

    The minimizer is the root of the score, found by safeguarded
    Newton-bisection.  When every spectrum value in the band is positive
    the objective is convex, the search starts from a weighted-OLS fit, and
    the result is the minimizer over the box.  A band holding a value <= 0
    (a debiased spectrum) first has Ghat checked at alpha_min, alpha_max
    and the box midpoint, in that order and in one pass; the search starts
    at the midpoint and returns the local minimizer reached from there,
    which need not be the global one.  An estimate within tol of a box edge
    is flagged as a boundary hit.

    Raises NonPositiveAmplitude the first time any probed alpha gives
    Ghat(alpha) <= 0, NonFiniteValue when g_hat = Ghat(alpha_hat) is not a
    finite float (Ghat elsewhere may exceed the float range), and
    DegenerateBand for bands of fewer than 2 multipoles.
    """
    band = _band_or_full(spectrum, band)
    if box is None:
        box = SearchBox()
    if band.width < 2:
        raise DegenerateBand(f"band [{band.l_lo}, {band.l_hi}] cannot identify alpha")
    with _quiet():
        data = _BandData(spectrum, band)
        x, g_hat, evals, converged = _score_root(data, box)
    return EstimateResult(
        alpha_hat=float(x),
        g_hat=float(g_hat),
        objective=float(math.log(g_hat) - x * data.wbar),
        band=band,
        evaluations=evals,
        converged=converged,
        boundary_hit=bool((x - box.alpha_min) < box.tol or (box.alpha_max - x) < box.tol),
    )


_SCHEME_TAGS = ("fullband", "narrowband", "noise", "rate")


@dataclass(frozen=True)
class NormalizationScheme:
    """The factor that scales alpha_hat - alpha0, from the estimator's
    linearization over the band (see the module docstring).

    fullband, narrowband and noise give V_band^(-1/2), so the normalized
    errors tend to N(0, 1); rate gives 1 / b_band per unit kappa, so their
    mean tends to kappa.  narrowband requires a band above l = 1 and noise a
    noise model; noise also raises UnsupportedRegime from factor() when
    alpha0 - gamma >= 1, where the estimator diverges.
    """

    tag: str
    band: Band
    model: SpectrumModel
    noise: NoiseModel | None = None

    def __post_init__(self) -> None:
        if self.tag not in _SCHEME_TAGS:
            raise ValueError(f"unknown scheme type {self.tag!r}")
        if self.tag == "narrowband" and self.band.l_lo == 1:
            raise ValueError("narrowband scheme requires a narrow band")
        if self.tag == "noise" and self.noise is None:
            raise ValueError("noise scheme requires a noise model")

    def factor(self) -> float:
        l_lo, l_hi = self.band.l_lo, self.band.l_hi
        arrays = _band_arrays(l_lo, l_hi)
        # S = sum w_l c_l^2; ols_weights are w_l c_l
        s = arrays.ols_den
        if self.tag == "rate":
            inverse_l = np.reciprocal(np.arange(l_lo, l_hi + 1, dtype=float))
            return s / -np.einsum("i,i", arrays.ols_weights, inverse_l)
        if self.tag == "noise":
            u = asymptotic_params(self.model).alpha0 - self.noise.gamma
            if u >= 1:
                raise UnsupportedRegime(
                    f"alpha0 - gamma = {u} >= 1: estimator diverges, no normalization"
                )
        weights = arrays.w
        if self.noise is not None:
            c = spectrum_values(self.model, l_hi)[l_lo - 1 :]
            r = noise_values(self.noise, l_hi)[l_lo - 1 :] / c
            weights = weights * (1.0 + r) ** 2
        v_band = 2.0 * np.einsum("i,i", weights, arrays.basis[2]) / s / s
        return v_band**-0.5


def normalization_factor(scheme: NormalizationScheme) -> float:
    """The scalar multiplying (alpha_hat - alpha0) for a N(0,1) limit, or
    for a mean of kappa under the rate scheme.

    Raises NonFiniteValue when the factor is not a finite number > 0.
    """
    # an overflowing (1 + r_l)^2 or a zero S gives inf or nan, reported below
    with np.errstate(all="ignore"):
        factor = float(scheme.factor())
    if not (math.isfinite(factor) and factor > 0):
        raise NonFiniteValue(f"{scheme.tag} normalization factor is {factor}")
    return factor


def debiased_variance_ratio(l: int, c_t: float, c_n: float = 0.0) -> float:
    """Var(debiased C-tilde_l / C_T,l) = (2/(2l+1)) (1 + c_n/c_t)^2."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if not c_t > 0:
        raise ValueError("c_t must be positive")
    if c_n < 0:
        raise ValueError("c_n must be nonnegative")
    return 2.0 / (2.0 * l + 1.0) * (1.0 + c_n / c_t) ** 2

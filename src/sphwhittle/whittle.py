"""Concentrated Whittle objective, spectral-index estimator, normalizations.

The concentrated objective over a band [l_lo, l_hi] is

    R(alpha) = log Ghat(alpha) - alpha * wbar,

where Ghat_k(alpha) = sum_w (log l)^k * Chat_l * l^alpha / W, W = sum (2l+1)
and wbar = sum (2l+1) log l / W (natural logs, l = 1 included, weights over
the band only).  Its minimizer alpha_hat estimates the spectral index and
g_hat = Ghat(alpha_hat) the amplitude.

The score, the curvature and the next two derivatives of R are the tilted
cumulants of log l - wbar, computed from centered logs rather than as
Ghat_1/Ghat - wbar; one pass over the band gives all four at one alpha.
Every band is minimized by one safeguarded Halley-bisection root of the
score: the minimizer over the box where R is convex (positive values), else
the local minimizer reached from the box midpoint (a debiased spectrum).
Each iterate costs one pass, and a debiased band's first pass also checks
Ghat at the box edges.  Once the Newton step is at most _SERIES_STOP
(3e-4) the score's series, reverted, takes one last step with no pass at
its end.  A positive band takes 1-2 passes (1 at L = 20000), a debiased
one about 3.4 at L = 2000.  The band sums run on values divided by
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
    "estimate",
    "normalization_factor",
]

_MAX_EVALS = 200
# A pass whose Newton step d1 = -s/q is at most this long is the last: the
# score's Taylor series to third order, reverted, gives the root to O(d1^4).
# The cumulants scale like powers of |log l - wbar| <= log L, so the first
# neglected term is about d1 (d1 log L)^4, below 1e-13 for L <= 1e5.
_SERIES_STOP = 3e-4


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
    """Compact search interval [alpha_min, alpha_max].

    alpha_min > 2 matches the theory's parameter space; values in (0, 2] are
    accepted so designs at the regularity threshold alpha0 = 2 stay
    searchable.  tol sets only the width of the boundary-hit flag: an
    estimate within tol of an edge is a boundary hit (_on_edge); the
    minimizer's stopping rule does not read it.
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
        if not all(map(math.isfinite, (self.alpha_min, self.alpha_max, self.tol))):
            raise ValueError("alpha_min, alpha_max and tol must be finite")


@dataclass(frozen=True)
class EstimateResult:
    """Minimizer output; g_hat is Ghat evaluated from the data at alpha_hat.

    evaluations counts the passes over the band that located alpha_hat
    (each gives Ghat and its moments at one alpha), always >= 1; on a band
    holding a value <= 0 the first pass also checks Ghat at the box edges,
    and the final point, reached by a series step from a pass whose Newton
    step is at most 3e-4, takes no pass.  converged means the stopping rule
    was met before the iteration cap; an estimate on a box edge can be
    converged, and boundary_hit flags it.
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
    # g <= 1 / ln 3 < 1 for these l_max and c_g
    g = c_g / math.log(l_max)
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
    # rows c^k, k = 0..4, with c = log l - wbar: one einsum with the tilt
    # gives W Ghat and the moments behind the score, the curvature and the
    # next two cumulants, free of the cancellation in Ghat_1/Ghat - wbar
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
    basis = np.stack([log_c**k for k in range(5)])
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


# Rows 0 and 1 are exp(a (log l - log l_hi)) at alpha_min and alpha_max and
# rows 2..6 that tilt at the midpoint times basis, so one einsum with the
# weighted values gives W Ghat at the edges and every moment at the
# midpoint.  The 7 rows take 0.11 MB at L = 2000.
@functools.lru_cache(maxsize=8)
def _probe_rows(l_lo: int, l_hi: int, a_min: float, a_max: float) -> np.ndarray:
    arrays = _band_arrays(l_lo, l_hi)
    mid = 0.5 * (a_min + a_max)
    edges = np.exp(np.multiply.outer((a_min, a_max), arrays.log_s))
    rows = np.concatenate([edges, np.exp(mid * arrays.log_s) * arrays.basis])
    rows.setflags(write=False)
    return rows


def _check_width(band: Band) -> None:
    if band.width < 2:
        raise DegenerateBand(f"band [{band.l_lo}, {band.l_hi}] cannot identify alpha")


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
    itself is wanted, so only a Ghat that is out of range overflows.  The
    band fits the values, and the caller's (2, band width) work block takes wc and a scratch row.
    """

    def __init__(self, values: np.ndarray, band: Band, work: np.ndarray) -> None:
        self.band = band
        self.arrays = _band_arrays(band.l_lo, band.l_hi)
        self.log_s = self.arrays.log_s
        self.w_sum = self.arrays.w_sum
        self.wbar = self.arrays.wbar
        self.values = values[band.l_lo - 1 : band.l_hi]
        v_min, v_max = float(self.values.min()), float(self.values.max())
        self.positive = v_min > 0
        # frexp(0) = (0, 0): an all-zero band keeps its zeros
        exponent = math.frexp(max(v_max, -v_min))[1]
        self.log_m = exponent * math.log(2.0)
        self.wc, self.scratch = work
        np.ldexp(self.values, -exponent, out=self.wc)
        self.wc *= self.arrays.w

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

    def moments(self, alpha: float, g0: float, *m: float) -> tuple[float, ...]:
        """(g_s, score, curvature, kappa3, kappa4) from W g_s and the four
        centered moments: g_s and the tilted cumulants of log l - wbar."""
        if not g0 > 0:
            self.amplitude(alpha, g0 / self.w_sum)  # raises NonPositiveAmplitude
        s, e2, e3, e4 = (v / g0 for v in m)
        q = e2 - s * s
        k3 = e3 - 3.0 * s * e2 + 2.0 * s**3
        k4 = e4 - 4.0 * s * e3 + 6.0 * s * s * e2 - 3.0 * s**4 - 3.0 * q * q
        return g0 / self.w_sum, s, q, k3, k4

    def centered_moments(self, alpha: float) -> tuple[float, ...]:
        """moments at alpha, from one pass over the band: the only way the
        package computes Ghat and its derivatives; raises if Ghat(alpha) <= 0."""
        # wc * exp(alpha (log l - log l_hi)), formed in the scratch row
        tilt = np.multiply(self.log_s, alpha, out=self.scratch)
        np.exp(tilt, out=tilt)
        tilt *= self.wc
        return self.moments(alpha, *np.einsum("ji,i->j", self.arrays.basis, tilt).tolist())

    def probe_moments(self, box: SearchBox) -> tuple[float, ...]:
        """centered_moments at the box midpoint, in one pass that also checks
        Ghat > 0 at alpha_min and alpha_max; the amplitudes are checked in
        the order alpha_min, alpha_max, midpoint."""
        a1, a2 = box.alpha_min, box.alpha_max
        rows = _probe_rows(self.band.l_lo, self.band.l_hi, a1, a2)
        g1, g2, *sums = np.einsum("ji,i->j", rows, self.wc).tolist()
        for alpha, g0 in ((a1, g1), (a2, g2)):
            if not g0 > 0:
                self.amplitude(alpha, g0 / self.w_sum)  # raises NonPositiveAmplitude
        return self.moments(0.5 * (a1 + a2), *sums)


def _band_or_full(spectrum: EmpiricalSpectrum, band: Band | None) -> Band:
    band = band if band is not None else full_band(spectrum.l_max)
    if band.l_hi > spectrum.l_max:
        raise ValueError(f"band [{band.l_lo}, {band.l_hi}] exceeds l_max={spectrum.l_max}")
    return band


# A Ghat that overflows or sums inf - inf is inf or nan, which
# _check_amplitude reports as a typed error, so numpy's warnings are silenced
# where Ghat is computed.  The callers enter it once around their work:
# estimate and objective per call, the replication loop once per worker.
def _quiet():
    return np.errstate(over="ignore", invalid="ignore")


def objective(
    spectrum: EmpiricalSpectrum, alpha: float, band: Band | None = None
) -> float:
    """Concentrated objective R(alpha) = log Ghat(alpha) - alpha * wbar."""
    band = _band_or_full(spectrum, band)
    with _quiet():
        data = _BandData(spectrum.values, band, np.empty((2, band.width)))
        g_s = data.centered_moments(alpha)[0]
        return math.log(data.amplitude(alpha, g_s)) - alpha * data.wbar


def _estimate(values: np.ndarray, band: Band, box: SearchBox, work: np.ndarray) -> tuple:
    """estimate on the whole spectrum's values, in the caller's work block
    (see _BandData): the root of the score by safeguarded Halley-bisection.
    Call it under _quiet(), on a band of at least 2 multipoles.

    With positive values R is a log-sum-exp of affine functions of alpha,
    so it is convex and its score increases: the minimizer over the box is
    the score's root, or the edge at which the score keeps its sign.  The
    start is then the weighted-OLS slope of log Chat_l on log l, clipped
    into the box.  A band holding a value <= 0 starts at the midpoint, and
    one pass over the band (probe_moments) checks Ghat > 0 at alpha_min,
    alpha_max and the midpoint and gives the midpoint's moments; where the
    curvature is <= 0 the step points at the box edge on the descent side.
    Each pass gives the score s, the curvature q and the next two
    cumulants k3, k4.  The step is Halley's, -s / (q - s k3 / (2q)), or
    Newton's, d1 = -s/q, where that denominator is below q/2.  As in rtsafe
    (Numerical Recipes 9.4), a step is taken only when it stays inside the
    bracket and at most halves the step before the last; otherwise the
    bracket is bisected.  A box edge is evaluated only when a step tries to
    leave the box through it.  Once |d1| <= _SERIES_STOP the step is the
    score's third-order series reverted, which ends the search at its
    target with no pass there: Ghat(target) is the fourth-order expansion
    of log Ghat from the last pass.  Returns (alpha, Ghat(alpha), passes
    over the band, converged).
    """
    data = _BandData(values, band, work)
    a1, a2 = box.alpha_min, box.alpha_max
    if data.positive:
        arrays = data.arrays
        log_values = np.log(data.values, out=data.scratch)
        slope = float(np.einsum("i,i", arrays.ols_weights, log_values)) / arrays.ols_den
        x = min(max(-slope, a1), a2)
        probe = None
        evals = 0
    else:
        x = 0.5 * (a1 + a2)
        probe = data.probe_moments(box)
        evals = 1
    # the score is negative at lo and positive at hi once they are known;
    # until then they are the box edges
    lo, hi = a1, a2
    lo_known = hi_known = False
    dx = dx_old = a2 - a1
    while True:
        if probe is None:
            evals += 1
            g0, s, q, k3, k4 = data.centered_moments(x)
        else:
            (g0, s, q, k3, k4), probe = probe, None
        if s > 0:
            if x == a1:
                return x, data.amplitude(x, g0), evals, True
            hi, hi_known = x, True
        elif s < 0:
            if x == a2:
                return x, data.amplitude(x, g0), evals, True
            lo, lo_known = x, True
        final = False
        if q > 0:
            d = -s / q
            halley = q - s * k3 / (2.0 * q)
            if abs(d) <= _SERIES_STOP:
                d += (k3 * k3 / (2.0 * q * q) - k4 / (6.0 * q)) * d**3 - k3 * d * d / (2.0 * q)
                final = True
            elif halley >= 0.5 * q:
                d = -s / halley
            proposed = x + d
        elif data.positive:
            # q <= 0 only by roundoff where R is convex: bisect
            proposed = math.nan
        else:
            proposed = math.inf if s < 0 else -math.inf
        # proposed == x: the step is below the resolution of x
        if s == 0 or proposed == x:
            return x, data.amplitude(x, g0), evals, True
        if not lo < proposed < hi:
            if proposed <= lo and not lo_known:
                target = a1
            elif proposed >= hi and not hi_known:
                target = a2
            else:
                target = 0.5 * (lo + hi)
        elif abs(2.0 * (proposed - x)) > abs(dx_old):
            target = 0.5 * (lo + hi)
        elif final:
            # d log g_s / d alpha is the tilted mean of log l - log l_hi,
            # s + wbar - log l_hi; the higher derivatives are q, k3, k4
            d = proposed - x
            log_step = d * (s + data.wbar - data.arrays.log_hi) + d * d * (
                q / 2.0 + d * (k3 / 6.0 + d * k4 / 24.0)
            )
            return proposed, data.amplitude(proposed, g0, log_step), evals, True
        else:
            target = proposed
        dx_old, dx = dx, target - x
        if evals >= _MAX_EVALS:
            # the last evaluated iterate, so alpha and Ghat are one point
            return x, data.amplitude(x, g0), evals, False
        x = target


def _on_edge(alpha: float, box: SearchBox) -> bool:
    """An estimate within tol of a box edge is a boundary hit."""
    return (alpha - box.alpha_min) < box.tol or (box.alpha_max - alpha) < box.tol


def estimate(
    spectrum: EmpiricalSpectrum, band: Band | None = None, box: SearchBox | None = None
) -> EstimateResult:
    """Minimize the concentrated objective over the box.

    The minimizer is the root of the score, found by safeguarded
    Halley-bisection.  When every spectrum value in the band is positive
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
    _check_width(band)
    if box is None:
        box = SearchBox()
    work = np.empty((2, band.width))
    with _quiet():
        x, g_hat, evals, converged = _estimate(spectrum.values, band, box, work)
    return EstimateResult(
        alpha_hat=float(x),
        g_hat=float(g_hat),
        objective=float(math.log(g_hat) - x * _band_arrays(band.l_lo, band.l_hi).wbar),
        band=band,
        evaluations=evals,
        converged=converged,
        boundary_hit=_on_edge(x, box),
    )


_SCHEME_TAGS = ("fullband", "narrowband", "noise", "rate")


@dataclass(frozen=True)
class NormalizationScheme:
    """The factor that scales alpha_hat - alpha0, from the estimator's
    linearization over the band (see the module docstring).

    fullband, narrowband and noise give V_band^(-1/2), so the normalized
    errors tend to N(0, 1); rate gives 1 / b_band per unit kappa, so their
    mean tends to kappa.  A band of fewer than 2 multipoles, which cannot
    identify alpha, raises DegenerateBand.  narrowband requires a band above
    l = 1 and noise a noise model; normalization_factor computes the factor,
    and alpha0() the value the errors are taken from.
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
        _check_width(self.band)

    def alpha0(self) -> float:
        """The model's alpha0.  Raises Unsupported for a model with none (a
        table), and UnsupportedRegime for noise when alpha0 - gamma >= 1,
        where the estimator diverges."""
        alpha0 = asymptotic_params(self.model).alpha0
        if self.tag == "noise" and (u := alpha0 - self.noise.gamma) >= 1:
            raise UnsupportedRegime(
                f"alpha0 - gamma = {u} >= 1: estimator diverges, no normalization"
            )
        return alpha0


def normalization_factor(scheme: NormalizationScheme) -> float:
    """The scalar multiplying (alpha_hat - alpha0) for a N(0,1) limit, or
    for a mean of kappa under the rate scheme.

    Raises UnsupportedRegime for the noise scheme when alpha0 - gamma >= 1,
    and NonFiniteValue when the factor is not a finite number > 0.
    """
    l_lo, l_hi = scheme.band.l_lo, scheme.band.l_hi
    arrays = _band_arrays(l_lo, l_hi)
    # S = sum w_l c_l^2; ols_weights are w_l c_l
    s = arrays.ols_den
    if scheme.tag == "noise":
        scheme.alpha0()  # UnsupportedRegime when alpha0 - gamma >= 1
    # an overflowing (1 + r_l)^2 or a zero S gives inf or nan, reported below
    with np.errstate(all="ignore"):
        if scheme.tag == "rate":
            inverse_l = np.reciprocal(np.arange(l_lo, l_hi + 1, dtype=float))
            factor = float(s / -np.einsum("i,i", arrays.ols_weights, inverse_l))
        else:
            weights = arrays.w
            if scheme.noise is not None:
                c = spectrum_values(scheme.model, l_hi)[l_lo - 1 :]
                r = noise_values(scheme.noise, l_hi)[l_lo - 1 :] / c
                weights = weights * (1.0 + r) ** 2
            v_band = 2.0 * np.einsum("i,i", weights, arrays.basis[2]) / s / s
            factor = float(v_band**-0.5)
    if not (math.isfinite(factor) and factor > 0):
        raise NonFiniteValue(f"{scheme.tag} normalization factor is {factor}")
    return factor

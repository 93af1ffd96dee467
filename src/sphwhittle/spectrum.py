"""Angular power spectrum models and their large-l parameters.

A model assigns a positive value C_l to every multipole l >= 1.  The
semiparametric family behaves like g0 * l**(-alpha0) at high l, with the
first-order perturbation measured by kappa: C_l ~ g0 * (1 + kappa/l + o(1/l))
* l**(-alpha0).  An index alpha0 > 2 additionally makes sum (2l+1) C_l finite
(a well-defined mean-square continuous field); values in (0, 2] are accepted
because sampling and estimation stay valid there and simulation designs use
alpha0 = 2.

Each model class carries its formula, values_at(l) on an array of float
multipoles, and its large-l parameters; the module functions call them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import OutOfRange, Unsupported

__all__ = [
    "ExactPowerLaw",
    "KappaPerturbed",
    "Rational",
    "Tabulated",
    "SpectrumModel",
    "NoiseModel",
    "AsymptoticParams",
    "spectrum_values",
    "noise_values",
    "asymptotic_params",
]

# A serial mc run peaks at 93 bytes per multipole (tracemalloc, R = 2, L = 1e5
# and 4e5), plus 24 per further worker: ~9 GB serial at this bound
MAX_L = 10**8

# construction-time positivity horizon for Rational; evaluators re-check
# every requested range, so this only needs to catch obvious sign changes
_RATIONAL_CHECK_LMAX = 4096


def _powers(l: np.ndarray, s: float) -> np.ndarray:
    # l**s defined as exp(s ln l) throughout
    return np.exp(s * np.log(l))


@dataclass(frozen=True)
class AsymptoticParams:
    """Large-l description (g0, alpha0, kappa) of a spectrum model."""

    g0: float
    alpha0: float
    kappa: float


@dataclass(frozen=True)
class ExactPowerLaw:
    """C_l = g0 * l**(-alpha0)."""

    g0: float
    alpha0: float

    def __post_init__(self) -> None:
        if not (self.g0 > 0):
            raise ValueError("g0 must be positive")
        if not (self.alpha0 > 0):
            raise ValueError("alpha0 must be positive")

    def values_at(self, l: np.ndarray) -> np.ndarray:
        return self.g0 * _powers(l, -self.alpha0)

    def asymptotic_params(self) -> AsymptoticParams:
        return AsymptoticParams(self.g0, self.alpha0, 0.0)


@dataclass(frozen=True)
class KappaPerturbed:
    """C_l = g0 * (1 + kappa/l) * l**(-alpha0); kappa > -1 keeps C_l > 0."""

    g0: float
    alpha0: float
    kappa: float

    def __post_init__(self) -> None:
        if not (self.g0 > 0):
            raise ValueError("g0 must be positive")
        if not (self.alpha0 > 0):
            raise ValueError("alpha0 must be positive")
        if not (self.kappa > -1):
            raise ValueError("kappa must exceed -1")

    def values_at(self, l: np.ndarray) -> np.ndarray:
        return self.g0 * (1.0 + self.kappa / l) * _powers(l, -self.alpha0)

    def asymptotic_params(self) -> AsymptoticParams:
        return AsymptoticParams(self.g0, self.alpha0, self.kappa)


@dataclass(frozen=True)
class Rational:
    """C_l = (P(l) / Q(l)) * l**(-alpha0) with P, Q polynomials of equal degree.

    Coefficients are highest-order first, as accepted by numpy.polyval.
    Positive leading coefficients give the large-l amplitude g0 = p[0]/q[0]
    and kappa = p[1]/p[0] - q[1]/q[0].
    """

    p: tuple[float, ...]
    q: tuple[float, ...]
    alpha0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(c) for c in self.p))
        object.__setattr__(self, "q", tuple(float(c) for c in self.q))
        if len(self.p) == 0 or len(self.p) != len(self.q):
            raise ValueError("p and q need equal, nonzero length")
        if not (self.p[0] > 0 and self.q[0] > 0):
            raise ValueError("leading coefficients must be positive")
        if not (self.alpha0 > 0):
            raise ValueError("alpha0 must be positive")
        l = np.arange(1, _RATIONAL_CHECK_LMAX + 1, dtype=float)
        # a polynomial that overflows here is checked again, by value, when
        # the model is evaluated; numpy need not warn
        with np.errstate(all="ignore"):
            num, den = np.polyval(self.p, l), np.polyval(self.q, l)
        if not (num > 0).all() or not (den > 0).all():
            raise ValueError("P and Q must be positive for all l >= 1")

    def values_at(self, l: np.ndarray) -> np.ndarray:
        # construction checks a fixed horizon; re-check the requested range
        num = np.polyval(self.p, l)
        den = np.polyval(self.q, l)
        if not (num > 0).all() or not (den > 0).all():
            raise OutOfRange(f"P or Q is not positive for some l <= {int(l.max())}")
        return (num / den) * _powers(l, -self.alpha0)

    def asymptotic_params(self) -> AsymptoticParams:
        kappa = 0.0 if len(self.p) == 1 else self.p[1] / self.p[0] - self.q[1] / self.q[0]
        return AsymptoticParams(self.p[0] / self.q[0], self.alpha0, kappa)


@dataclass(frozen=True)
class Tabulated:
    """Explicit positive values for l = 1..len(values); no tail model."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) == 0:
            raise ValueError("values must be nonempty")
        if not all(v > 0 for v in self.values):
            raise ValueError("tabulated spectrum values must be positive")

    @property
    def l_max(self) -> int:
        return len(self.values)

    def values_at(self, l: np.ndarray) -> np.ndarray:
        if l.max() > self.l_max:
            raise OutOfRange(f"tabulated model has l_max={self.l_max} < {int(l.max())}")
        return np.array(self.values)[l.astype(int) - 1]

    def asymptotic_params(self) -> AsymptoticParams:
        raise Unsupported("tabulated models have no asymptotic parameters")


SpectrumModel = Union[ExactPowerLaw, KappaPerturbed, Rational, Tabulated]


@dataclass(frozen=True)
class NoiseModel:
    """Noise spectrum C_N,l = g_n * l**(-gamma).

    gamma > 2 would make the noise field mean-square continuous; smaller
    exponents are accepted because the divergence regime gamma <= alpha0 - 1
    is itself a simulation target.
    """

    g_n: float
    gamma: float

    def __post_init__(self) -> None:
        if not (self.g_n > 0):
            raise ValueError("g_n must be positive")
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")

    def values_at(self, l: np.ndarray) -> np.ndarray:
        return self.g_n * _powers(l, -self.gamma)


def check_l_max(l_max: int) -> None:
    """Raise ValueError unless 1 <= l_max <= MAX_L; allocates nothing."""
    if not 1 <= l_max <= MAX_L:
        raise ValueError(f"L must be >= 1 and <= {MAX_L}, got {l_max}")


def spectrum_values(model: SpectrumModel, l_max: int) -> np.ndarray:
    """Return C_l for l = 1..l_max as a read-only float array.

    Raises OutOfRange if a Tabulated model is shorter than l_max, or if some
    C_l is not a positive finite float, and ValueError unless 1 <= l_max <=
    MAX_L.
    """
    check_l_max(l_max)
    # a value that under- or overflows a float (or is nan) is outside the
    # model's range: the check below reports it, so numpy need not warn
    with np.errstate(all="ignore"):
        c = model.values_at(np.arange(1, l_max + 1, dtype=float))
    # min and max propagate nan, which fails both comparisons
    if not (c.min() > 0 and c.max() < np.inf):
        raise OutOfRange(f"C_l is not a positive finite float for some l <= {l_max}")
    c.setflags(write=False)
    return c


def noise_values(noise: NoiseModel, l_max: int) -> np.ndarray:
    """Return C_N,l for l = 1..l_max, read-only, as spectrum_values does."""
    return spectrum_values(noise, l_max)


def asymptotic_params(model: SpectrumModel) -> AsymptoticParams:
    """Return (g0, alpha0, kappa) describing the large-l behaviour.

    Tabulated models carry no tail model and raise Unsupported.
    """
    return model.asymptotic_params()

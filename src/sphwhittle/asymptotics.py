"""Closed-form identities behind the estimator's limit theory.

These are the analytic oracles the test suite and the CLI `oracle`
subcommand compare against: the weighted log-variance sums Z (full band
and narrow band) with the full-band limit, the narrow-band constant
k_factor, and the consistency lower-bound function u_limit.

The Z sums are differences of O(L^{4+2s} log^2 L) quantities whose leading
terms cancel, so all accumulation uses math.fsum (exact compensated
summation); naive summation loses the answer entirely by L = 1e5.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BandTooNarrow, SingularExponent

__all__ = [
    "z_fullband",
    "z_narrowband",
    "k_factor",
    "u_limit",
    "z_limit_fullband",
]


def _z_sum(l_lo: int, l_hi: int, s: float) -> float:
    # Z = A0 A2 - A1^2 with A_k = sum (2l+1) l^s log^k l, computed in the
    # algebraically identical centered form A0 * sum w (log l - wbar)^2
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    l = np.arange(l_lo, l_hi + 1, dtype=float)
    w = (2.0 * l + 1.0) * np.exp(s * np.log(l))
    lg = np.log(l)
    a0 = math.fsum(w)
    wbar = math.fsum(w * lg) / a0
    return a0 * math.fsum(w * (lg - wbar) ** 2)


def z_fullband(l_max: int, s: float) -> float:
    """Weighted log-variance sum Z_L(s) over l = 1..L.

    Z = A0 A2 - A1^2 with A_k = sum_{l=1..L} (2l+1) l^s log^k l; the weights
    carry the spectrum tilt l^s so that Z / L^(4+2s) tends to
    1 / (4 (1+s/2)^4).
    """
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    return _z_sum(1, l_max, s)


def z_limit_fullband(s: float) -> float:
    """Limit of z_fullband(L, s) / L^(4+2s): 1 / (4 (1+s/2)^4)."""
    if s == -2:
        raise SingularExponent("s = -2 makes the limit singular")
    return 1.0 / (4.0 * (1.0 + s / 2.0) ** 4)


def z_narrowband(l_max: int, g: float, s: float) -> float:
    """Z over the band l = ceil(1 + L(1-g)) .. L for fraction g in (0, 1).

    With t = 1 - l/L in [0, g], A0 ~ 2 L^(2+s) g (1 - (1+s) g/2), and log l
    = log L - t - t^2/2 - ... has weighted variance (g^2/12)(1 + g) + O(g^4),
    as Cov(t, t^2) = g^3/12 and the tilt l^s adds no g^3 to Var(t).  So
    Z = A0^2 Var(log l) = (L^(4+2s) g^4 / 3)(1 - s g + O(g^2)), for any s."""
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    if not 0 < g < 1:
        raise ValueError("g must lie in (0, 1)")
    if l_max * g < 3:
        raise BandTooNarrow(f"L*g = {l_max * g} < 3")
    l_lo = math.ceil(1.0 + l_max * (1.0 - g))
    if l_max - l_lo + 1 < 3:
        raise BandTooNarrow(f"band [{l_lo}, {l_max}] has fewer than 3 multipoles")
    return _z_sum(l_lo, l_max, s)


def k_factor(s: float) -> float:
    """Narrow-band constant K(s) = (s^2/12 - s/8 + 1/3) / (1 + s/2)^2."""
    if not s > -2:
        raise SingularExponent("k_factor needs s > -2")
    return (s * s / 12.0 - s / 8.0 + 1.0 / 3.0) / (1.0 + s / 2.0) ** 2


def u_limit(x: float) -> float:
    """Consistency lower bound (1 + x/2) - log(1 + x/2) - 1 for x > -2.

    Strictly convex, nonnegative, zero only at x = 0.
    """
    if not x > -2:
        raise SingularExponent("u_limit needs x > -2")
    t = 1.0 + x / 2.0
    return t - math.log(t) - 1.0

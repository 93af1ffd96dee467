"""Exception hierarchy.

Validation-type errors derive from SphwhittleError directly; failures that
arise from the data (rather than from how a call was made) derive from
NumericalError so batch front-ends can map them to a distinct exit status.
The spectrum-value errors are also ValueErrors (bad EmpiricalSpectrum input).
"""
from __future__ import annotations

__all__ = [
    "SphwhittleError",
    "ConfigError",
    "OutOfRange",
    "Unsupported",
    "DegenerateBand",
    "BandTooNarrow",
    "SampleSizeOutOfRange",
    "EmptySample",
    "SingularExponent",
    "NumericalError",
    "NonFiniteValue",
    "NonPositiveAmplitude",
    "NonPositiveValue",
    "UnsupportedRegime",
    "DegenerateSample",
    "AllReplicationsFailed",
]


class SphwhittleError(Exception):
    """Base class for all package errors."""


class ConfigError(SphwhittleError):
    """Malformed or inconsistent configuration."""


class OutOfRange(SphwhittleError):
    """Requested multipole outside a model's tabulated range."""


class Unsupported(SphwhittleError):
    """Operation undefined for this model variant."""


class DegenerateBand(SphwhittleError):
    """Band too short to identify the spectral index (width < 2)."""


class BandTooNarrow(SphwhittleError):
    """Narrow-band rule produced a band below 3 multipoles."""


class SampleSizeOutOfRange(SphwhittleError):
    """Sample size outside the normality test's validity range."""


class EmptySample(SphwhittleError):
    """Statistic requested on an empty sample."""


class SingularExponent(SphwhittleError):
    """Exponent at which a closed form divides by zero (s = -2 family)."""


class NumericalError(SphwhittleError):
    """Base class for data-driven failures (exit status 2 in the CLI)."""


class NonPositiveAmplitude(NumericalError):
    """Weighted amplitude G-hat(alpha) <= 0: noise overwhelms the signal."""


class NonPositiveValue(NumericalError, ValueError):
    """Spectrum value <= 0 where a positive one is required."""


class NonFiniteValue(NumericalError, ValueError):
    """Non-finite spectrum value or amplitude Ghat; non-finite or zero factor."""


class UnsupportedRegime(NumericalError):
    """Noise exponent regime outside the theory (alpha0 >= gamma + 1)."""


class DegenerateSample(NumericalError):
    """Zero-variance sample where spread is required."""


class AllReplicationsFailed(NumericalError):
    """No Monte Carlo replication produced an interior estimate."""

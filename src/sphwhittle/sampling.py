"""Sampling of empirical angular power spectra.

For a Gaussian isotropic field the empirical spectrum at multipole l is
C_hat_l = C_l * X_l / (2l+1) with X_l ~ chi-square(2l+1), independent over l:
the (2l+1) real harmonic coefficients at level l are independent normals with
Var(a_l0) = C_l and Var(Re a_lm) = Var(Im a_lm) = C_l / 2 for m >= 1, and
C_hat_l is drawn from that law directly, without the coefficients.

Every draw is keyed by a SeedSpec (master seed, stream index), one
independent stream per replication, so parallel experiments are bit-for-bit
reproducible regardless of scheduling.  generator() seeds one stream through
numpy's SeedSequence; a Monte Carlo run hashes its streams' seed words in
blocks (_stream_seeds), many stream indices at once, and builds from them
generators bit-identical to generator()'s (_stream_generator).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import NonFiniteValue, NonPositiveValue
from .spectrum import NoiseModel, SpectrumModel, noise_values, spectrum_values

__all__ = [
    "EmpiricalSpectrum",
    "SeedSpec",
    "generator",
    "sample_empirical",
    "sample_observed_debiased",
]


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Observed spectrum values for l = 1..l_max.

    Non-debiased spectra are quadratic forms and must be strictly positive.
    Debiased spectra (noise subtracted) may carry negative values; those are
    kept as-is so downstream amplitude checks can detect the failure regime.
    The values are a read-only copy of the array given.
    """

    values: np.ndarray
    debiased: bool = False

    def __post_init__(self) -> None:
        values = _checked(np.array(self.values, dtype=float), self.debiased)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def l_max(self) -> int:
        return int(self.values.size)


def _checked(values: np.ndarray, debiased: bool) -> np.ndarray:
    # EmpiricalSpectrum's checks; returns values
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    if not np.isfinite(values).all():
        raise NonFiniteValue("values must be finite")
    # min builds no temporary array (values are finite here)
    if not debiased and not values.min() > 0:
        raise NonPositiveValue("non-debiased spectrum values must be positive")
    return values


@dataclass(frozen=True)
class SeedSpec:
    """Replication seed: a 64-bit master seed plus a stream index."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if int(self.stream_index) < 0:
            raise ValueError("stream_index must be nonnegative")


def generator(seed: SeedSpec) -> np.random.Generator:
    """Return the generator for one replication stream.

    Streams for distinct (master_seed, stream_index) pairs are independent;
    the mapping is stable across processes and worker counts.
    """
    return np.random.default_rng(
        np.random.SeedSequence((int(seed.master_seed), int(seed.stream_index)))
    )


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a 4-word
# uint32 pool is filled from the entropy words, mixed, and read out.  Its
# hash constants follow from these seeds alone, never from the data, so
# _stream_words runs the hash on a whole block of streams at once.
_MASK32 = 0xFFFFFFFF
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    # init * mult**k mod 2**32 for k = 0..n, as a column
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# the pool mix's 16 hashmix calls, and the read-out of 8 uint32 words
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)

# Streams hashed per call of _stream_words.  A call costs ~65 us whatever
# its size plus ~0.06 us per stream (2-vCPU VM, medians of 7: 66 / 118 /
# 133 / 298 us for 1 / 256 / 1024 / 4096 streams); building a stream's
# PCG64 and Generator then takes ~2 us, against 18-20 us for generator().
# At 1024 the hash costs 0.13 us per stream and its arrays stay under 100 kB.
_SEED_BLOCK = 1024


def _hashmix(x: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix, one constant pair per row
    x = x ^ xor
    x *= mult
    x ^= x >> 16
    return x


def _stream_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """SeedSequence((master_seed, i)).generate_state(4, np.uint64) for i in
    [start, stop), one row per stream; stop <= 2**64."""
    index = np.arange(start, stop, dtype=np.uint64)
    # the entropy words: master_seed's one or two 32-bit words, then the
    # index's two (a high word of 0 hashes as the padding it replaces)
    m = int(master_seed)
    master = [m & _MASK32] + ([m >> 32] if m >> 32 else [])
    pool = np.zeros((4, index.size), dtype=np.uint32)
    pool[: len(master)] = np.array(master, dtype=np.uint32)[:, None]
    pool[len(master)] = index & np.uint64(_MASK32)
    pool[len(master) + 1] = index >> np.uint64(32)
    k = _MIX_CONSTANTS
    pool = _hashmix(pool, k[0:4], k[1:5])
    for src in range(4):
        # the three updates from one source word read it unchanged, so
        # they run as one 3-row step
        dst = [d for d in range(4) if d != src]
        c = 4 + 3 * src
        hashed = _hashmix(pool[src], k[c : c + 3], k[c + 1 : c + 4])
        mixed = _MIX_L * pool[dst]
        hashed *= _MIX_R
        mixed -= hashed
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_CONSTANTS[0:8], _OUT_CONSTANTS[1:9])
    # pairs of little-endian uint32 words form each uint64, as numpy reads them
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _StreamSeed(ISeedSequence):
    # one stream's PCG64 seed words, hashed ahead; PCG64 asks for exactly
    # generate_state(4, np.uint64)
    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _stream_seeds(master_seed: int, count: int) -> np.ndarray:
    """The PCG64 seed words of streams 0..count-1 (count <= 2**64), one row
    per stream, hashing _SEED_BLOCK streams at a time."""
    seeds = np.empty((count, 4), dtype=np.uint64)
    for start in range(0, count, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, count)
        seeds[start:stop] = _stream_words(master_seed, start, stop)
    return seeds


def _stream_generator(words: np.ndarray) -> np.random.Generator:
    """generator(SeedSpec(master_seed, i)), bit for bit, from row i of
    _stream_seeds(master_seed, ...)."""
    return np.random.Generator(np.random.PCG64(_StreamSeed(words)))


@functools.lru_cache(maxsize=8)
def _chisq_df(l_max: int) -> np.ndarray:
    # half the degrees of freedom, l + 1/2 for l = 1..l_max, shared read-only
    half_df = np.arange(1, l_max + 1, dtype=float) + 0.5
    half_df.setflags(write=False)
    return half_df


def _design(model: SpectrumModel, noise: NoiseModel | None, l_max: int) -> tuple:
    """_draw's (c, c_n): C_l and None, or, with noise, C_T + C_N and C_N.  A
    sum that overflows is inf, and so is every value drawn from it."""
    c = spectrum_values(model, l_max)
    if noise is None:
        return c, None
    c_n = noise_values(noise, l_max)
    with np.errstate(over="ignore"):
        return c + c_n, c_n


def _draw(
    c: np.ndarray, c_n: np.ndarray | None, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """c_l X_l / (2l+1) with X_l ~ chi2(2l+1) (numpy's 2 Gamma(l + 1/2), so
    Gamma(l + 1/2) / (l + 1/2) bit for bit), minus c_n when it is given (a
    debiased draw, with c = C_T + C_N), formed in out.  An overflow is inf,
    which _checked reports as NonFiniteValue; the caller silences numpy's
    warning."""
    half_df = _chisq_df(c.size)
    rng.standard_gamma(half_df, out=out)
    out /= half_df
    out *= c
    if c_n is not None:
        out -= c_n
    return out


def sample_empirical(model: SpectrumModel, l_max: int, seed: SeedSpec) -> EmpiricalSpectrum:
    """Draw C_hat_l = C_l * chi2(2l+1)/(2l+1) for l = 1..l_max."""
    c, _ = _design(model, None, l_max)
    with np.errstate(over="ignore"):
        return EmpiricalSpectrum(_draw(c, None, generator(seed), np.empty(l_max)))


def sample_observed_debiased(
    model: SpectrumModel, noise: NoiseModel, l_max: int, seed: SeedSpec
) -> EmpiricalSpectrum:
    """Draw the noise-debiased spectrum (C_T + C_N) chi2/(2l+1) - C_N.

    Negative values are retained: they signal multipoles where the noise
    dominates and are meaningful to the estimator's failure diagnostics.
    """
    c, c_n = _design(model, noise, l_max)
    with np.errstate(over="ignore"):
        return EmpiricalSpectrum(_draw(c, c_n, generator(seed), np.empty(l_max)), debiased=True)

"""Sampling of empirical angular power spectra and harmonic coefficients.

For a Gaussian isotropic field the empirical spectrum at multipole l is
C_hat_l = C_l * X_l / (2l+1) with X_l ~ chi-square(2l+1), independent over l:
the (2l+1) real harmonic coefficients at level l are independent normals with
Var(a_l0) = C_l and Var(Re a_lm) = Var(Im a_lm) = C_l / 2 for m >= 1.

Every draw is keyed by a SeedSpec (master seed, stream index), one
independent stream per replication, so parallel experiments are bit-for-bit
reproducible regardless of scheduling.  generator() seeds one stream through
numpy's SeedSequence; a Monte Carlo run seeds its streams in blocks
(_stream_generators), which hashes many stream indices at once and yields
generators bit-identical to generator()'s.
"""
from __future__ import annotations

import csv
import functools
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import NonFiniteValue, NonPositiveValue, OutOfRange
from .spectrum import NoiseModel, SpectrumModel, noise_values, spectrum_values

__all__ = [
    "EmpiricalSpectrum",
    "HarmonicCoefficients",
    "SeedSpec",
    "generator",
    "sample_empirical",
    "sample_alm",
    "empirical_from_alm",
    "sample_observed_debiased",
    "write_spectrum_csv",
    "read_spectrum_csv",
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
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", _checked(values, self.debiased))

    @property
    def l_max(self) -> int:
        return int(self.values.size)


def _checked(values: np.ndarray, debiased: bool) -> np.ndarray:
    # EmpiricalSpectrum's checks; freezes and returns values
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    if not np.isfinite(values).all():
        raise NonFiniteValue("values must be finite")
    # min builds no temporary array (values are finite here)
    if not debiased and not values.min() > 0:
        raise NonPositiveValue("non-debiased spectrum values must be positive")
    values.setflags(write=False)
    return values


def _own(values: np.ndarray, debiased: bool) -> EmpiricalSpectrum:
    # an EmpiricalSpectrum holding a fresh float buffer that no caller sees,
    # checked and frozen in place instead of copied
    spectrum = object.__new__(EmpiricalSpectrum)
    object.__setattr__(spectrum, "values", _checked(values, debiased))
    object.__setattr__(spectrum, "debiased", debiased)
    return spectrum


@dataclass(frozen=True)
class HarmonicCoefficients:
    """Flat real coefficient layout for l = 1..l_max.

    Level l occupies data[l*l - 1 : l*l + 2*l] as
    [a_l0, Re a_l1, Im a_l1, ..., Re a_ll, Im a_ll] (2l+1 reals), so the
    total length is l_max * (l_max + 2).
    """

    data: np.ndarray
    l_max: int

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if self.l_max < 1:
            raise ValueError("l_max must be >= 1")
        expected = self.l_max * (self.l_max + 2)
        if data.ndim != 1 or data.size != expected:
            raise ValueError(f"data must have length {expected}, got {data.size}")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def level(self, l: int) -> np.ndarray:
        """Return the 2l+1 coefficients of level l."""
        if not 1 <= l <= self.l_max:
            raise OutOfRange(f"level must be in [1, {self.l_max}], got {l}")
        return self.data[l * l - 1 : l * l + 2 * l]


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


def _stream_generators(master_seed: int, indices: range) -> Iterator[np.random.Generator]:
    """Yield generator(SeedSpec(master_seed, i)) for i in indices (step 1,
    below 2**64), bit for bit, hashing _SEED_BLOCK streams at a time."""
    for start in range(indices.start, indices.stop, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, indices.stop)
        for words in _stream_words(master_seed, start, stop):
            yield np.random.Generator(np.random.PCG64(_StreamSeed(words)))


@functools.lru_cache(maxsize=8)
def _chisq_df(l_max: int) -> np.ndarray:
    # degrees of freedom 2l+1 for l = 1..l_max, shared read-only
    df = 2.0 * np.arange(1, l_max + 1, dtype=float) + 1.0
    df.setflags(write=False)
    return df


def _scaled_chisq(c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # c_l X_l / (2l+1) with X_l ~ chi2(2l+1), formed in the draw's own
    # buffer; a value that overflows is inf, which the spectrum's check
    # reports as NonFiniteValue
    df = _chisq_df(c.size)
    x = rng.chisquare(df)
    x /= df
    with np.errstate(over="ignore"):
        x *= c
    return x


def _draw_empirical(c: np.ndarray, rng: np.random.Generator) -> EmpiricalSpectrum:
    # sample_empirical for precomputed model values c = C_1..C_L
    return _own(_scaled_chisq(c, rng), debiased=False)


def sample_empirical(model: SpectrumModel, l_max: int, seed: SeedSpec) -> EmpiricalSpectrum:
    """Draw C_hat_l = C_l * chi2(2l+1)/(2l+1) for l = 1..l_max."""
    return _draw_empirical(spectrum_values(model, l_max), generator(seed))


def sample_alm(model: SpectrumModel, l_max: int, seed: SeedSpec) -> HarmonicCoefficients:
    """Draw the flat harmonic coefficient vector for l = 1..l_max."""
    c = spectrum_values(model, l_max)
    l = np.arange(1, l_max + 1)
    counts = 2 * l + 1
    # per-entry standard deviations: sqrt(C_l) at m=0, sqrt(C_l/2) otherwise
    sd = np.repeat(np.sqrt(c / 2.0), counts)
    sd[l * l - 1] = np.sqrt(c)
    z = generator(seed).standard_normal(sd.size)
    return HarmonicCoefficients(data=sd * z, l_max=l_max)


def empirical_from_alm(coeffs: HarmonicCoefficients) -> EmpiricalSpectrum:
    """Compute C_hat_l = (a_l0^2 + 2 sum_m (Re^2 + Im^2)) / (2l+1)."""
    l = np.arange(1, coeffs.l_max + 1)
    weights = np.full(coeffs.data.size, 2.0)
    weights[l * l - 1] = 1.0
    sums = np.add.reduceat(weights * coeffs.data**2, l * l - 1)
    return EmpiricalSpectrum(values=sums / (2 * l + 1))


def _observed(c_t: np.ndarray, c_n: np.ndarray) -> np.ndarray:
    # C_T + C_N; a sum that overflows is inf, and so is every value drawn
    with np.errstate(over="ignore"):
        return c_t + c_n


def _draw_debiased(
    c_obs: np.ndarray, c_n: np.ndarray, rng: np.random.Generator
) -> EmpiricalSpectrum:
    # sample_observed_debiased for precomputed C_T + C_N and C_N
    x = _scaled_chisq(c_obs, rng)
    x -= c_n
    return _own(x, debiased=True)


def sample_observed_debiased(
    model: SpectrumModel, noise: NoiseModel, l_max: int, seed: SeedSpec
) -> EmpiricalSpectrum:
    """Draw the noise-debiased spectrum (C_T + C_N) chi2/(2l+1) - C_N.

    Negative values are retained: they signal multipoles where the noise
    dominates and are meaningful to the estimator's failure diagnostics.
    """
    c_n = noise_values(noise, l_max)
    c_obs = _observed(spectrum_values(model, l_max), c_n)
    return _draw_debiased(c_obs, c_n, generator(seed))


def write_spectrum_csv(spectrum: EmpiricalSpectrum, path: str | Path) -> None:
    """Write `l,c_hat` rows with shortest round-trip float formatting."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["l", "c_hat"])
        for l, v in enumerate(spectrum.values, start=1):
            writer.writerow([l, repr(float(v))])


def read_spectrum_csv(path: str | Path, debiased: bool | None = None) -> EmpiricalSpectrum:
    """Read a `l,c_hat` file; rows must cover l = 1..L in order.

    When debiased is None the flag is inferred: any value <= 0 marks the
    spectrum as debiased (a non-debiased spectrum is positive by construction).
    """
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["l", "c_hat"]:
            raise ValueError(f"expected header 'l,c_hat' in {path}")
        for i, row in enumerate(reader, start=1):
            if len(row) != 2:
                raise ValueError(f"row {i}: expected 2 fields, got {len(row)}")
            if int(row[0]) != i:
                raise ValueError(f"row {i}: multipoles must run 1..L in order")
            values.append(float(row[1]))
    arr = np.array(values, dtype=float)
    if debiased is None:
        debiased = bool((arr <= 0).any())
    return EmpiricalSpectrum(values=arr, debiased=debiased)

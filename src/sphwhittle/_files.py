"""The package's boundary with its files: every object's JSON and CSV form.

Configs come in and artifacts go out here alone, so the numerics modules
read and write no file.  A config that is malformed while it is read is a
ConfigError (reading_config), and so is a key that it does not read
(check_keys) and a bool or a string in a number's place (config_int,
config_float); frozen-dataclass configs go to and from JSON through one
pair (from_json, to_json); and every artifact is written by write_json or
write_csv, with "\\n" line endings and floats as shortest round-trip
decimals.  JSON written here is standard JSON: a statistic that is not
finite is null, and write_json refuses NaN and infinities.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .montecarlo import ExperimentConfig, MonteCarloReport
from .sampling import EmpiricalSpectrum
from .spectrum import ExactPowerLaw, KappaPerturbed, NoiseModel, Rational, SpectrumModel, Tabulated
from .whittle import Band, NormalizationScheme, SearchBox, full_band, narrow_band

__all__ = [
    "model_from_dict",
    "model_to_dict",
    "noise_from_dict",
    "read_spectrum_csv",
    "write_spectrum_csv",
    "search_from_dict",
    "experiment_from_dict",
    "experiment_to_dict",
    "report_to_dict",
    "write_report_files",
]

# each spectrum model's "type" in its JSON form
_MODELS = {
    "power_law": ExactPowerLaw,
    "kappa": KappaPerturbed,
    "rational": Rational,
    "table": Tabulated,
}

_EXPERIMENT_KEYS = {"model", "noise", "L", "band", "box", "scheme", "replications", "seed"}

# the report's statistics, in report.json's order
_REPORT_STATISTICS = ("mean", "variance", "bias", "variance_raw", "mse", "sw_w", "sw_p")


@contextlib.contextmanager
def reading_config(what: str):
    """Map a malformed config's errors to ConfigError; a package error passes as it is."""
    try:
        yield
    except NumericalError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} missing key {exc}") from exc
    except (TypeError, ValueError, ArithmeticError, AttributeError, csv.Error) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def load_config(path: str) -> dict:
    """The JSON object in the file at path; ConfigError if the file cannot
    be read, is not JSON or holds no object."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def check_keys(d: dict, allowed, what: str) -> None:
    """Raise ConfigError if d has a key outside allowed: a key that is not
    read must not leave its default in force unnoticed."""
    if unknown := d.keys() - allowed:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}")


def config_int(value, name: str) -> int:
    """A config field that counts or seeds: a JSON integer, or an integral
    float such as 1e4.  A bool, a non-integral number or a string raises
    ConfigError rather than being truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def config_float(value, name: str) -> float:
    """A config field that measures: a JSON number.  A bool or a string
    raises ConfigError rather than being read as a number."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


def from_json(cls, d: dict):
    """The frozen dataclass cls from its JSON object d: a list becomes a
    tuple of floats, anything else a float (config_float, entry by entry),
    and a field whose key is absent takes its default (KeyError if it has
    none).  A key that is not a field raises TypeError."""
    # a non-object d (a list, a string) must not yield the defaults
    if not isinstance(d, dict):
        raise TypeError(f"expected a JSON object, got {d!r}")
    if unknown := d.keys() - {f.name for f in fields(cls)}:
        raise TypeError(f"unknown keys {sorted(unknown)}")
    given = {f.name: d[f.name] for f in fields(cls) if f.name in d or f.default is MISSING}
    return cls(**{
        name: tuple(config_float(v, f"{name} entry") for v in value)
        if isinstance(value, list)
        else config_float(value, name)
        for name, value in given.items()
    })


def to_json(obj) -> dict:
    """A dataclass's fields in declaration order, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(obj).items()}


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """Write header and rows; a float (numpy's included) as repr(float(v)),
    anything else as csv writes it."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def model_from_dict(d: dict) -> SpectrumModel:
    """Build a spectrum model from its JSON form (see README for the schema)."""
    with reading_config("model config"):
        cls = _MODELS.get(d["type"])
        if cls is None:
            raise ConfigError(f"unknown model type {d['type']!r}")
        return from_json(cls, {k: v for k, v in d.items() if k != "type"})


def model_to_dict(model: SpectrumModel) -> dict:
    """Inverse of model_from_dict."""
    tag = next(tag for tag, cls in _MODELS.items() if type(model) is cls)
    return {"type": tag, **to_json(model)}


def noise_from_dict(d: dict | None) -> NoiseModel | None:
    """Build a noise model from its JSON form; None (a null or absent
    "noise") is no noise.  to_json is the inverse."""
    if d is None:
        return None
    with reading_config("noise config"):
        return from_json(NoiseModel, d)


def write_spectrum_csv(spectrum: EmpiricalSpectrum, path: str | Path) -> None:
    """Write `l,c_hat` rows with shortest round-trip float formatting."""
    write_csv(path, ["l", "c_hat"], enumerate(spectrum.values, start=1))


def read_spectrum_csv(path: str | Path) -> EmpiricalSpectrum:
    """Read a `l,c_hat` file; rows must cover l = 1..L in order.

    Any value <= 0 marks the spectrum as debiased (a non-debiased spectrum
    is positive by construction).
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
            if not math.isfinite(values[-1]):
                raise ValueError(f"row {i}: c_hat must be finite, got {row[1]!r}")
    arr = np.array(values, dtype=float)
    return EmpiricalSpectrum(values=arr, debiased=bool((arr <= 0).any()))


def search_from_dict(d: dict, l_max: int) -> tuple[Band, dict, SearchBox]:
    """The band and search box that config d sets: (band, its resolved
    rule, box).  An absent "band" is the full band, an absent "box" the
    default SearchBox()."""
    match rule := d.get("band", {"type": "full"}):
        case {"type": "full", **other} if not other:
            band, resolved = full_band(l_max), {"type": "full"}
        case {"type": "narrow", "L1": l1, **other} if not other:
            l1 = config_int(l1, "narrow band L1")
            if not 1 <= l1 <= l_max:
                raise ConfigError(f"narrow band L1={l1} outside [1, {l_max}]")
            band, resolved = Band(l1, l_max), {"type": "narrow", "L1": l1}
        case {"type": "narrow", "c_g": c_g, **other} if not other:
            c_g = config_float(c_g, "narrow band c_g")
            band, resolved = narrow_band(l_max, c_g), {"type": "narrow", "c_g": c_g}
        case {"type": "narrow"}:
            raise ConfigError(f"narrow band needs one of 'L1' and 'c_g', and no other key: {rule!r}")
        case _:
            raise ConfigError(f"unknown band rule {rule!r}")
    with reading_config("search box"):
        return band, resolved, from_json(SearchBox, d.get("box", {}))


def experiment_from_dict(d: dict) -> tuple[ExperimentConfig, dict]:
    """Build an ExperimentConfig from its JSON form.

    Returns the config plus the fully resolved dict (defaults expanded) that
    reports embed so runs are self-describing.
    """
    with reading_config("experiment config"):
        check_keys(d, _EXPERIMENT_KEYS, "experiment config")
        model = model_from_dict(d["model"])
        noise = noise_from_dict(d.get("noise"))
        band, band_resolved, box = search_from_dict(d, config_int(d["L"], "L"))
        # a "corrected" key, which older configs carry, has no effect
        scheme = d.get("scheme", {"type": "fullband"})
        check_keys(scheme, {"type", "corrected"}, "scheme")
        cfg = ExperimentConfig(
            scheme=NormalizationScheme(scheme.get("type"), band, model, noise),
            box=box,
            replications=config_int(d["replications"], "replications"),
            master_seed=config_int(d["seed"], "seed"),
        )
    return cfg, experiment_to_dict(cfg, band_resolved)


def experiment_to_dict(cfg: ExperimentConfig, band_resolved: dict) -> dict:
    """JSON form of a config with all defaults expanded; band_resolved is
    search_from_dict's resolved band rule."""
    return {
        "model": model_to_dict(cfg.model),
        "noise": to_json(cfg.noise) if cfg.noise else None,
        "L": cfg.l_max,
        "band": band_resolved,
        "box": to_json(cfg.box),
        "scheme": {"type": cfg.scheme.tag},
        "replications": cfg.replications,
        "seed": cfg.master_seed,
    }


def report_to_dict(report: MonteCarloReport, resolved_config: dict) -> dict:
    """JSON form of a report with the resolved config embedded: the
    statistics only, as samples.csv holds every replication.  A statistic
    that is not finite, such as sw_w and sw_p when fewer than 3 values are
    "ok" or all are equal, is null."""
    statistics = {name: getattr(report, name) for name in _REPORT_STATISTICS}
    return {
        "config": resolved_config,
        "replications": report.replications,
        "boundary_hits": report.boundary_hits,
        **{name: x if math.isfinite(x) else None for name, x in statistics.items()},
        "quantile_freqs": [to_json(row) for row in report.quantile_freqs],
    }


def write_report_files(
    report: MonteCarloReport, resolved_config: dict, out_dir: str | Path
) -> tuple[Path, Path]:
    """Write report.json and samples.csv; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    write_json(report_path, report_to_dict(report, resolved_config))
    samples_path = out / "samples.csv"
    rows = zip(report.all_alpha_hats, report.all_normalized, report.statuses)
    header = ["rep", "alpha_hat", "normalized", "status"]
    write_csv(samples_path, header, ((i, *row) for i, row in enumerate(rows)))
    return report_path, samples_path

"""The package's boundary with its files: configs in, artifacts out.

A config that is malformed while it is read is a ConfigError
(reading_config), and so is a key that it does not read (check_keys);
frozen-dataclass configs go to and from JSON through one pair (from_json,
to_json); and every artifact is written by write_json or write_csv, with
"\\n" line endings and floats as shortest round-trip decimals.
"""
from __future__ import annotations

import contextlib
import csv
import json
import numbers
from dataclasses import MISSING, asdict, fields

import numpy as np

from .errors import ConfigError


@contextlib.contextmanager
def reading_config(what: str):
    """Map the errors a malformed config raises while it is read to ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what} missing key {exc}") from exc
    except (TypeError, ValueError, ArithmeticError, AttributeError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


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


def from_json(cls, d: dict):
    """The frozen dataclass cls from its JSON object d: sequences become
    tuples, everything else floats, and a field whose key is absent takes
    its default (KeyError if it has none).  A key that is not a field
    raises TypeError."""
    # a non-object d (a list, a string) must not yield the defaults
    if not isinstance(d, dict):
        raise TypeError(f"expected a JSON object, got {d!r}")
    if unknown := d.keys() - {f.name for f in fields(cls)}:
        raise TypeError(f"unknown keys {sorted(unknown)}")
    return cls(**{
        f.name: tuple(d[f.name]) if np.ndim(d[f.name]) else float(d[f.name])
        for f in fields(cls)
        if f.name in d or f.default is MISSING
    })


def to_json(obj) -> dict:
    """A dataclass's fields in declaration order, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(obj).items()}


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """Write header and rows; a float (numpy's included) as repr(float(v)),
    anything else as csv writes it."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])

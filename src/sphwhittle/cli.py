"""Batch front-end: simulate / estimate / mc / oracle.

Artifacts are deterministic: JSON and CSV floats use shortest round-trip
decimals and line endings are "\\n", and they do not depend on --threads.
mc runs its replications on up to --threads workers (default and most: one
per usable CPU); sphwhittle.montecarlo says when they are forked processes.
Exit codes: 0 success, 1 config error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path

from .asymptotics import k_factor, u_limit, z_fullband, z_limit_fullband, z_narrowband
from .errors import NumericalError, ConfigError, SphwhittleError
from .montecarlo import (
    _config_int,
    band_from_dict,
    box_from_dict,
    experiment_from_dict,
    run_experiment,
    write_report_files,
)
from .sampling import (
    EmpiricalSpectrum,
    SeedSpec,
    read_spectrum_csv,
    sample_empirical,
    sample_observed_debiased,
    write_spectrum_csv,
)
from .spectrum import check_l_max, model_from_dict, noise_from_dict, spectrum_values
from .whittle import estimate

__all__ = ["main"]

_ORACLE_L_VALUES = (1000, 10_000, 100_000)
_ORACLE_S_FULL = (-1.0, 0.0, 1.0, 2.0)
_ORACLE_S_NARROW = (0.0, 0.5, 1.0)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this front-end reserves 2 for
    # numerical failures, so usage errors map to 1
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sphwhittle", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("simulate", "draw one spectrum and write spectrum.csv"),
        ("estimate", "fit the spectral index of a spectrum CSV"),
        ("mc", "run a replicated experiment, write report.json + samples.csv"),
        ("oracle", "write convergence tables for the closed-form limits"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--threads",
            type=_positive_int,
            default=None,
            help="most workers for mc (default and most: one per usable CPU); "
            "artifacts do not depend on it",
        )
    return parser


def _load_config(path: str) -> dict:
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


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return out


@contextlib.contextmanager
def _reading(what: str):
    """Map the errors a malformed config raises while it is read to ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what} missing key {exc}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _require_seed(config: dict, override: int | None) -> int:
    if override is not None:
        return override
    if "seed" not in config:
        raise ConfigError("config needs 'seed' (or pass --seed)")
    return _config_int(config["seed"], "seed")


def _float_str(x: float) -> str:
    return repr(float(x))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_simulate(config: dict, out: Path, seed_override: int | None) -> None:
    with _reading("simulate config"):
        model = model_from_dict(config["model"])
        noise = noise_from_dict(config["noise"]) if config.get("noise") else None
        l_max = _config_int(config["L"], "L")
        check_l_max(l_max)
        exact = bool(config.get("exact", False))
        if not exact:
            seed = SeedSpec(_require_seed(config, seed_override), 0)
    if exact:
        spectrum = EmpiricalSpectrum(spectrum_values(model, l_max))
    else:
        if noise is not None:
            spectrum = sample_observed_debiased(model, noise, l_max, seed)
        else:
            spectrum = sample_empirical(model, l_max, seed)
    write_spectrum_csv(spectrum, out / "spectrum.csv")


def _cmd_estimate(config: dict, out: Path) -> None:
    path = config.get("input")
    if not isinstance(path, str):
        raise ConfigError("estimate config needs 'input' (spectrum CSV path)")
    with _reading(f"spectrum CSV {path}"):
        spectrum = read_spectrum_csv(path)
    l_max = spectrum.l_max
    with _reading("estimate config"):
        if "L" in config and _config_int(config["L"], "L") != l_max:
            raise ConfigError(f"config L={config['L']} but {path} has L={l_max}")
        band, band_resolved = band_from_dict(config.get("band", {"type": "full"}), l_max)
        box = box_from_dict(config.get("box", {}))
    result = estimate(spectrum, band, box)
    _write_json(
        out / "estimate.json",
        {
            "config": {
                "input": path,
                "L": l_max,
                "band": band_resolved,
                "box": {
                    "alpha_min": box.alpha_min,
                    "alpha_max": box.alpha_max,
                    "tol": box.tol,
                },
            },
            "alpha_hat": result.alpha_hat,
            "g_hat": result.g_hat,
            "objective": result.objective,
            "band": [result.band.l_lo, result.band.l_hi],
            "converged": result.converged,
            "boundary_hit": result.boundary_hit,
            "evaluations": result.evaluations,
        },
    )


def _cmd_mc(config: dict, out: Path, seed_override: int | None, threads: int | None) -> None:
    if seed_override is not None:
        config = dict(config, seed=seed_override)
    cfg, resolved = experiment_from_dict(config)
    write_report_files(run_experiment(cfg, threads), resolved, out)


def _cmd_oracle(config: dict, out: Path) -> None:
    rows = []
    # the table is a function of the config alone: a value it cannot take
    # is a config error
    with _reading("oracle config"):
        if "L" in config:
            l_values = [_config_int(config["L"], "L")]
        else:
            l_values = config.get("L_values", _ORACLE_L_VALUES)
            l_values = [_config_int(v, "L_values entry") for v in l_values]
        for l_max in l_values:
            check_l_max(l_max)
        s_full = [float(v) for v in config.get("s_values", _ORACLE_S_FULL)]
        s_narrow = [float(v) for v in config.get("narrow_s_values", _ORACLE_S_NARROW)]
        c_g = float(config.get("c_g", 1.0))
        for l_max in l_values:
            # full-band rows carry g=1.0: the band is the whole range
            for s in s_full:
                target = z_limit_fullband(s)
                ratio = z_fullband(l_max, s) / l_max ** (4 + 2 * s) / target
                rows.append([l_max, s, 1.0, ratio, target])
            g = c_g / math.log(l_max)
            for s in s_narrow:
                target = k_factor(s)
                ratio = z_narrowband(l_max, g, s) / (l_max ** (4 + 2 * s) * g**4) / target
                rows.append([l_max, s, g, ratio, target])

    with open(out / "oracle.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["L", "s", "g", "z_over_limit", "target"])
        for l_max, *floats in rows:
            writer.writerow([l_max, *map(_float_str, floats)])

    # u_limit has its lone zero at 0; the table covers (-1.9, 5] in 1e-3 steps
    with open(out / "ulimit.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "u_limit"])
        for k in range(-1899, 5001):
            x = k / 1000
            writer.writerow([_float_str(x), _float_str(u_limit(x))])


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        config = _load_config(args.config)
        out = _out_dir(args.out)
        if args.subcommand == "simulate":
            _cmd_simulate(config, out, args.seed)
        elif args.subcommand == "estimate":
            _cmd_estimate(config, out)
        elif args.subcommand == "mc":
            _cmd_mc(config, out, args.seed, args.threads)
        else:
            _cmd_oracle(config, out)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SphwhittleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

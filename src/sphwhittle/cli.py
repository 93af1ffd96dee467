"""Batch front-end: simulate / estimate / mc / oracle.

Artifacts are deterministic: JSON and CSV floats use shortest round-trip
decimals and line endings are "\\n", and they do not depend on --threads.
mc runs its replications on up to --threads workers (default and most: one
per usable CPU); sphwhittle.montecarlo says when they are forked processes.
Exit codes: 0 success, 1 config error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from ._files import (
    check_keys, config_float, config_int, experiment_from_dict, load_config, model_from_dict,
    noise_from_dict, read_spectrum_csv, reading_config, search_from_dict, to_json, write_csv,
    write_json, write_report_files, write_spectrum_csv,
)
from .asymptotics import k_factor, u_limit, z_fullband, z_limit_fullband, z_narrowband
from .errors import NumericalError, ConfigError, SphwhittleError
from .montecarlo import run_experiment
from .sampling import EmpiricalSpectrum, SeedSpec, sample_empirical, sample_observed_debiased
from .spectrum import check_l_max, spectrum_values
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
        if name in ("simulate", "mc"):
            p.add_argument("--seed", type=int, help="override config seed")
        if name == "mc":
            p.add_argument(
                "--threads",
                type=_positive_int,
                help="most workers (default and most: one per usable CPU); "
                "artifacts do not depend on it",
            )
    return parser


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return out


def _cmd_simulate(config: dict, out: Path) -> None:
    # "seed" is allowed under "exact": true, as --seed writes it there too
    check_keys(config, {"model", "noise", "L", "exact", "seed"}, "simulate config")
    with reading_config("simulate config"):
        model = model_from_dict(config["model"])
        noise = noise_from_dict(config.get("noise"))
        l_max = config_int(config["L"], "L")
        check_l_max(l_max)
        exact = config.get("exact", False)
        if not isinstance(exact, bool):
            raise ConfigError(f"exact must be true or false, got {exact!r}")
        if not exact:
            seed = SeedSpec(config_int(config["seed"], "seed"), 0)
    if exact:
        spectrum = EmpiricalSpectrum(spectrum_values(model, l_max))
    else:
        if noise is not None:
            spectrum = sample_observed_debiased(model, noise, l_max, seed)
        else:
            spectrum = sample_empirical(model, l_max, seed)
    write_spectrum_csv(spectrum, out / "spectrum.csv")


def _cmd_estimate(config: dict, out: Path) -> None:
    check_keys(config, {"input", "L", "band", "box"}, "estimate config")
    path = config.get("input")
    if not isinstance(path, str):
        raise ConfigError("estimate config needs 'input' (spectrum CSV path)")
    with reading_config(f"spectrum CSV {path}"):
        spectrum = read_spectrum_csv(path)
    l_max = spectrum.l_max
    with reading_config("estimate config"):
        if "L" in config and config_int(config["L"], "L") != l_max:
            raise ConfigError(f"config L={config['L']} but {path} has L={l_max}")
        band, band_resolved, box = search_from_dict(config, l_max)
    result = estimate(spectrum, band, box)
    write_json(
        out / "estimate.json",
        {
            "config": {"input": path, "L": l_max, "band": band_resolved, "box": to_json(box)},
            "alpha_hat": result.alpha_hat,
            "g_hat": result.g_hat,
            "objective": result.objective,
            "band": [result.band.l_lo, result.band.l_hi],
            "converged": result.converged,
            "boundary_hit": result.boundary_hit,
            "evaluations": result.evaluations,
        },
    )


def _cmd_mc(config: dict, out: Path, threads: int | None) -> None:
    cfg, resolved = experiment_from_dict(config)
    write_report_files(run_experiment(cfg, threads), resolved, out)


def _cmd_oracle(config: dict, out: Path) -> None:
    check_keys(config, {"L", "L_values", "s_values", "narrow_s_values", "c_g"}, "oracle config")
    if {"L", "L_values"} <= config.keys():
        raise ConfigError("oracle config takes one of 'L' and 'L_values', not both")
    rows = []
    # the table is a function of the config alone: a value it cannot take
    # is a config error
    with reading_config("oracle config"):
        if "L" in config:
            l_values = [config_int(config["L"], "L")]
        else:
            l_values = config.get("L_values", _ORACLE_L_VALUES)
            l_values = [config_int(v, "L_values entry") for v in l_values]
        for l_max in l_values:
            check_l_max(l_max)
        s_full = config.get("s_values", _ORACLE_S_FULL)
        s_full = [config_float(v, "s_values entry") for v in s_full]
        s_narrow = config.get("narrow_s_values", _ORACLE_S_NARROW)
        s_narrow = [config_float(v, "narrow_s_values entry") for v in s_narrow]
        c_g = config_float(config.get("c_g", 1.0), "c_g")
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

    write_csv(out / "oracle.csv", ["L", "s", "g", "z_over_limit", "target"], rows)
    # u_limit has its lone zero at 0; the table covers (-1.9, 5] in 1e-3 steps
    xs = [k / 1000 for k in range(-1899, 5001)]
    write_csv(out / "ulimit.csv", ["x", "u_limit"], ((x, u_limit(x)) for x in xs))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        config = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config["seed"] = args.seed
        out = _out_dir(args.out)
        if args.subcommand == "simulate":
            _cmd_simulate(config, out)
        elif args.subcommand == "estimate":
            _cmd_estimate(config, out)
        elif args.subcommand == "mc":
            _cmd_mc(config, out, args.threads)
        else:
            _cmd_oracle(config, out)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SphwhittleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

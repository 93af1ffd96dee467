"""Noise study: estimator behaviour as the noise decay rate gamma varies.

Sweeps gamma across the three regimes relative to the signal slope alpha0:
noise decaying faster than the signal (no effect), moderately slower
(inflated variance, still normal), and much slower (mass estimation
failure with boundary hits).  Observed spectra are debiased by the known
noise mean before estimation.
"""
import argparse
import json
from dataclasses import dataclass
from pathlib import Path

from sphwhittle import experiment_from_dict, run_experiment


@dataclass(frozen=True)
class NoiseStudyConfig:
    gammas: tuple[float, ...]
    g_n: float
    l_max: int
    g0: float
    alpha0: float
    replications: int
    seed: int


def run_study(cfg: NoiseStudyConfig) -> list[dict]:
    rows = []
    for gamma in cfg.gammas:
        u = cfg.alpha0 - gamma
        # the noise scheme raises UnsupportedRegime once u >= 1, where the
        # estimator diverges; the fullband scheme computes the same V_band
        # without that check, so the run completes and the divergence shows
        # in the boundary fraction.
        scheme = {"type": "noise"} if u < 1 else {"type": "fullband"}
        experiment, _ = experiment_from_dict(
            {
                "model": {"type": "power_law", "g0": cfg.g0, "alpha0": cfg.alpha0},
                "noise": {"g_n": cfg.g_n, "gamma": gamma},
                "L": cfg.l_max,
                "band": {"type": "full"},
                "scheme": scheme,
                "replications": cfg.replications,
                "seed": cfg.seed,
            }
        )
        report = run_experiment(experiment)
        rows.append(
            {
                "gamma": gamma,
                "u": u,
                "scheme": scheme["type"],
                "mean": report.mean,
                "variance": report.variance,
                "boundary_fraction": report.boundary_hits / experiment.replications,
                "sw_p": report.sw_p,
            }
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--gammas", type=float, nargs="+", default=[5.0, 3.5, 3.0, 2.5, 2.2, 1.0]
    )
    parser.add_argument("--g-n", type=float, default=1.0)
    parser.add_argument("--L", type=int, default=1000, dest="l_max")
    parser.add_argument("--g0", type=float, default=2.0)
    parser.add_argument("--alpha0", type=float, default=3.0)
    parser.add_argument("--replications", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    cfg = NoiseStudyConfig(
        gammas=tuple(args.gammas),
        g_n=args.g_n,
        l_max=args.l_max,
        g0=args.g0,
        alpha0=args.alpha0,
        replications=args.replications,
        seed=args.seed,
    )
    rows = run_study(cfg)

    header = (
        f"{'gamma':>6} {'u':>5} {'scheme':>9} {'mean':>9} {'variance':>9} "
        f"{'bnd_frac':>8} {'sw_p':>7}"
    )
    print(header)
    for row in rows:
        print(
            f"{row['gamma']:>6.2f} {row['u']:>5.2f} {row['scheme']:>9} "
            f"{row['mean']:>9.4f} {row['variance']:>9.4f} "
            f"{row['boundary_fraction']:>8.3f} {row['sw_p']:>7.3f}"
        )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

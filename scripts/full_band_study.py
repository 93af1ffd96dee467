"""Full-band study: normalized error distribution across bandwidths.

For each L, runs a Monte Carlo experiment under an exact power law and under
a first-order perturbed spectrum, then prints the normalized mean, variance,
and Shapiro-Wilk p-value.  The perturbed rows use the rate normalization
1 / b_band, so their mean is near kappa.
"""
import argparse
import json
from dataclasses import dataclass
from pathlib import Path

from sphwhittle import experiment_from_dict, run_experiment


@dataclass(frozen=True)
class StudyConfig:
    l_values: tuple[int, ...]
    g0: float
    alpha0: float
    kappa: float
    replications: int
    seed: int


def run_study(cfg: StudyConfig) -> list[dict]:
    rows = []
    for l_max in cfg.l_values:
        for kappa in (0.0, cfg.kappa):
            if kappa == 0.0:
                model = {"type": "power_law", "g0": cfg.g0, "alpha0": cfg.alpha0}
                scheme = {"type": "fullband"}
            else:
                model = {
                    "type": "kappa",
                    "g0": cfg.g0,
                    "alpha0": cfg.alpha0,
                    "kappa": kappa,
                }
                scheme = {"type": "rate"}
            experiment, _ = experiment_from_dict(
                {
                    "model": model,
                    "L": l_max,
                    "band": {"type": "full"},
                    "scheme": scheme,
                    "replications": cfg.replications,
                    "seed": cfg.seed,
                }
            )
            report = run_experiment(experiment)
            rows.append(
                {
                    "L": l_max,
                    "kappa": kappa,
                    "scheme": scheme["type"],
                    "mean": report.mean,
                    "variance": report.variance,
                    "sw_p": report.sw_p,
                    "boundary_hits": report.boundary_hits,
                }
            )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--l-values", type=int, nargs="+", default=[500, 1000, 2000])
    parser.add_argument("--g0", type=float, default=2.0)
    parser.add_argument("--alpha0", type=float, default=3.0)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--replications", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    cfg = StudyConfig(
        l_values=tuple(args.l_values),
        g0=args.g0,
        alpha0=args.alpha0,
        kappa=args.kappa,
        replications=args.replications,
        seed=args.seed,
    )
    rows = run_study(cfg)

    header = f"{'L':>6} {'kappa':>6} {'scheme':>9} {'mean':>9} {'variance':>9} {'sw_p':>7} {'bnd':>4}"
    print(header)
    for row in rows:
        print(
            f"{row['L']:>6} {row['kappa']:>6.2f} {row['scheme']:>9} "
            f"{row['mean']:>9.4f} {row['variance']:>9.4f} {row['sw_p']:>7.3f} "
            f"{row['boundary_hits']:>4}"
        )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

"""Write bench/pinned_seed42.json: the alpha_hats and statuses of every
workload at the default seed, as the timed and traced runs produce them.

Run once on the commit whose outputs are the reference:

    python3 bench/pin.py

Later changes must reproduce these values to common.ALPHA_TOL; they do not
regenerate the file.
"""
from __future__ import annotations

import json
import math

import common


def main() -> int:
    sph = common.import_package()
    seed = common.DEFAULT_SEED
    pinned = {}
    for wl in common.WORKLOADS.values():
        cfg, _ = sph.experiment_from_dict(common.mc_config(wl, seed, common.PIN_REPS))
        report = sph.run_experiment(cfg, threads=1)
        alphas, statuses = list(report.all_alpha_hats), list(report.statuses)
        pinned[wl.name] = {
            "alpha_hat": [None if math.isnan(a) else float(a) for a in alphas],
            "status": statuses,
        }
    common.PINNED_PATH.write_text(json.dumps(pinned) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

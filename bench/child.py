"""Fresh-interpreter probe: time `import sphwhittle, sphwhittle.cli` plus the
parse of the workload's mc config, optionally run one default-thread `mc`
command, and print one JSON line with the times and the peak resident
memory.

    python3 bench/child.py --workload mc-large --seed 42 --reps 1000 --work DIR --run 1
"""
from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import common


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--run", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = common.WORKLOADS[args.workload]
    work = Path(args.work)
    config = common.write_config(wl, args.seed, args.reps, work)

    t0 = time.perf_counter()
    common.import_package()
    t1 = time.perf_counter()
    from sphwhittle import experiment_from_dict

    experiment_from_dict(json.loads(config.read_text()))
    t2 = time.perf_counter()

    codes = []
    if args.run:
        from sphwhittle.cli import main as cli_main

        codes.append(cli_main(common.mc_argv(config, work / "out", None)))
    print(
        json.dumps(
            {
                "import_s": t1 - t0,
                "setup_s": t2 - t0,
                "exit_codes": codes,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two sets of benchmark results, or show the spread of one.

    python3 bench/compare.py .bench_out/parent .bench_out/change
    python3 bench/compare.py .bench_out/results

A set is a directory of result files written by bench/run.py (one per run,
each holding the workload, seed, environment and metrics). For every
workload and metric the table gives each side's median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median. For the
end-to-end metrics of BENCHMARK.json it also checks the bound: each side's
spread must stay within it (setup_s excepted), and the second side's median
must not be worse than the first's by more than it. The exit code is 1 when
any check fails or any run reported correct: false.
"""
from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path

import common


def load_set(directory: Path) -> tuple[dict, int]:
    """{(workload, metric): (unit, [values])} and the number of incorrect runs."""
    values: dict = defaultdict(lambda: ["", []])
    incorrect = 0
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        result = data["result"]
        incorrect += not result["correct"]
        for name, m in result["metrics"].items():
            entry = values[(data["workload"], name)]
            entry[0] = m["unit"]
            entry[1].append(m["value"])
    return dict(values), incorrect


def spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path, help="one or two result directories")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result directories")
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load_set(d) for d in args.sets]

    ok = all(incorrect == 0 for _, incorrect in sets)
    for d, (_, incorrect) in zip(args.sets, sets):
        if incorrect:
            print(f"{d}: {incorrect} run(s) reported correct: false")
    keys = sorted(set().union(*(values for values, _ in sets)))
    header = f"{'workload':12s} {'metric':28s} {'unit':9s}"
    for d in args.sets:
        header += f" | {d.name[:16]:16s} {'n':>3s} {'q1':>10s} {'median':>10s} {'q3':>10s} {'spread':>7s}"
    print(header + (" | worse_by" if len(sets) == 2 else "") + " | verdict")
    for key in keys:
        workload, metric = key
        unit = next(values[key][0] for values, _ in sets if key in values)
        row = f"{workload:12s} {metric:28s} {unit:9s}"
        quarts = []
        for values, _ in sets:
            xs = values.get(key, ("", []))[1]
            q = common.quartiles(xs) if xs else None
            quarts.append(q)
            row += f" | {'':16s} {len(xs):3d} " + (
                f"{q[0]:10.4g} {q[1]:10.4g} {q[2]:10.4g} {spread(q):7.4f}" if q else f"{'missing':>40s}"
            )
        m = bounds.get(metric)
        if m is None:
            print(row)
            continue
        bound = m["bound"]
        checks = []
        if None in quarts:
            checks.append("missing")
        else:
            if metric != "setup_s":
                checks += [f"spread>{bound}" for q in quarts if spread(q) > bound]
            if len(quarts) == 2:
                w = worse_by(quarts[0][1], quarts[1][1], m["better"])
                row += f" | {w:+8.4f}"
                if w > bound:
                    checks.append(f"worse>{bound}")
        ok &= not checks
        print(row + " | " + ("FAIL " + ",".join(checks) if checks else "within bound"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's own tests: smoke runs, metric naming, gates.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

common.import_package()

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
INTEGER_UNITS = ("count", "bytes")
SMOKE_REPS = 20


def smoke(name: str, trace: bool) -> dict:
    return run.run_workload(common.WORKLOADS[name], common.DEFAULT_SEED, 0.0, trace,
                            reps=SMOKE_REPS, children=1)


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", list(common.WORKLOADS))
def test_smoke_every_workload(name, trace):
    result = smoke(name, trace)
    assert result["correct"] is True
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and result["failed"] == 0
    for metric in result["metrics"].values():
        value = metric["value"]
        assert isinstance(value, (int, float)) and value == value
        if metric["unit"] in INTEGER_UNITS:
            assert type(value) is int


def test_declared_metrics_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(common.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _small_experiment(sph):
    wl = common.WORKLOADS["mc-noise"]
    cfg, resolved = sph.experiment_from_dict(common.mc_config(wl, common.DEFAULT_SEED, 100))
    return cfg, resolved


def test_replay_matches_and_gate_trips_on_one_doctored_alpha(tmp_path):
    import numpy as np

    sph = common.import_package()
    cfg, resolved = _small_experiment(sph)
    report = sph.run_experiment(cfg, threads=1)
    replayed, _ = tracing.replay(sph, tracing.Tracer(), cfg, resolved, tmp_path)
    tracing.check_replay(replayed, report)

    i = report.statuses.index("ok")
    doctored = report.all_alpha_hats.copy()
    doctored[i] = np.nextafter(doctored[i], np.inf)
    with pytest.raises(common.GateError):
        tracing.check_replay(dataclasses.replace(replayed, all_alpha_hats=doctored), report)


def test_pinned_gate_trips_beyond_tolerance():
    sph = common.import_package()
    cfg, _ = _small_experiment(sph)
    report = sph.run_experiment(cfg, threads=1)
    wl = common.WORKLOADS["mc-noise"]
    alphas, statuses = list(report.all_alpha_hats), list(report.statuses)
    common.check_values(wl, common.DEFAULT_SEED, alphas, statuses)
    i = statuses.index("ok")
    alphas[i] += 10 * common.ALPHA_TOL
    with pytest.raises(common.GateError):
        common.check_values(wl, common.DEFAULT_SEED, alphas, statuses)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mc-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

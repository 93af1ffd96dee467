import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sphwhittle
from sphwhittle import read_spectrum_csv
from sphwhittle.cli import main
from sphwhittle.montecarlo import MAX_REPLICATIONS, _WORKER_MIN_WORK


def write_config(path, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def mc_config(**overrides) -> dict:
    d = {
        "model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0},
        "noise": None,
        "L": 150,
        "band": {"type": "full"},
        "scheme": {"type": "fullband", "corrected": False},
        "replications": 40,
        "seed": 17,
    }
    d.update(overrides)
    return d


class TestSimulateEstimate:
    def test_exact_table_recovers_index(self, tmp_path):
        values = [2.0 * l**-3.0 for l in range(1, 401)]
        sim = write_config(
            tmp_path / "sim.json",
            {"model": {"type": "table", "values": values}, "L": 400, "exact": True},
        )
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "s")]) == 0
        spectrum_path = tmp_path / "s" / "spectrum.csv"
        assert read_spectrum_csv(spectrum_path).l_max == 400

        est = write_config(tmp_path / "est.json", {"input": str(spectrum_path)})
        assert main(["estimate", "--config", est, "--out", str(tmp_path / "e")]) == 0
        result = json.loads((tmp_path / "e" / "estimate.json").read_text())
        assert abs(result["alpha_hat"] - 3.0) <= 1e-6
        assert abs(result["g_hat"] - 2.0) <= 1e-6
        assert result["band"] == [1, 400]
        assert result["converged"] is True
        assert result["boundary_hit"] is False
        assert result["config"]["band"] == {"type": "full"}
        assert result["config"]["box"]["tol"] == 1e-6
        # a string comparison fixes the key order estimate.json carries
        expected = {
            "config": {
                "input": str(spectrum_path),
                "L": 400,
                "band": {"type": "full"},
                "box": {"alpha_min": 2.01, "alpha_max": 10.0, "tol": 1e-6},
            },
            **{k: result[k] for k in ("alpha_hat", "g_hat", "objective")},
            "band": [1, 400],
            "converged": True,
            "boundary_hit": False,
            "evaluations": result["evaluations"],
        }
        assert json.dumps(result) == json.dumps(expected)

    def test_seeded_simulate_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path / "sim.json",
            {"model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0}, "L": 60, "seed": 4},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "spectrum.csv").read_bytes()
        b = (tmp_path / "b" / "spectrum.csv").read_bytes()
        assert a == b
        assert main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "5"]
        ) == 0
        assert (tmp_path / "c" / "spectrum.csv").read_bytes() != a

    def test_simulate_null_noise_and_boolean_exact(self, tmp_path):
        # "noise": null and "exact": false are the defaults, spelt out
        written = []
        for name, extra in (("a", {}), ("b", {"noise": None, "exact": False})):
            cfg = write_config(tmp_path / f"{name}.json", {**_SIMULATE, **extra})
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            written.append((tmp_path / name / "spectrum.csv").read_bytes())
        assert written[0] == written[1]
        cfg = write_config(tmp_path / "exact.json", dict(_SIMULATE, exact=True))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "e")]) == 0
        assert (tmp_path / "e" / "spectrum.csv").read_bytes() != written[0]

    def test_simulate_with_noise_flags_debiased(self, tmp_path):
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0},
                "noise": {"g_n": 5.0, "gamma": 2.5},
                "L": 40,
                "seed": 1,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "n")]) == 0
        spec = read_spectrum_csv(tmp_path / "n" / "spectrum.csv")
        assert (spec.values < 0).any()
        assert spec.debiased

    def test_estimate_narrow_band(self, tmp_path):
        values = [1.5 * l**-2.5 for l in range(1, 301)]
        sim = write_config(
            tmp_path / "sim.json",
            {"model": {"type": "table", "values": values}, "L": 300, "exact": True},
        )
        main(["simulate", "--config", sim, "--out", str(tmp_path / "s")])
        est = write_config(
            tmp_path / "est.json",
            {
                "input": str(tmp_path / "s" / "spectrum.csv"),
                "band": {"type": "narrow", "L1": 280},
            },
        )
        assert main(["estimate", "--config", est, "--out", str(tmp_path / "e")]) == 0
        result = json.loads((tmp_path / "e" / "estimate.json").read_text())
        assert result["band"] == [280, 300]
        assert abs(result["alpha_hat"] - 2.5) <= 1e-6

    def test_estimate_requires_input(self, tmp_path):
        est = write_config(tmp_path / "est.json", {"band": {"type": "full"}})
        assert main(["estimate", "--config", est, "--out", str(tmp_path / "e")]) == 1

    def test_estimate_l_mismatch(self, tmp_path):
        values = [2.0 * l**-3.0 for l in range(1, 21)]
        sim = write_config(
            tmp_path / "sim.json",
            {"model": {"type": "table", "values": values}, "L": 20, "exact": True},
        )
        main(["simulate", "--config", sim, "--out", str(tmp_path / "s")])
        est = write_config(
            tmp_path / "est.json",
            {"input": str(tmp_path / "s" / "spectrum.csv"), "L": 21},
        )
        assert main(["estimate", "--config", est, "--out", str(tmp_path / "e")]) == 1


def same_artifacts(dirs) -> bool:
    return all(
        (d / name).read_bytes() == (dirs[0] / name).read_bytes()
        for d in dirs[1:]
        for name in ("report.json", "samples.csv")
    )


def assert_artifacts_ignore_threads(tmp_path, config: dict) -> None:
    """`mc` artifacts are byte-identical under OPENBLAS_NUM_THREADS 1, 2
    and 4 (subprocesses) and with --threads 1, 2 and 4 (in-process)."""
    cfg = write_config(tmp_path / "mc.json", config)
    src = str(Path(sphwhittle.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for blas in ("1", "2", "4"):
        outs.append(tmp_path / f"blas{blas}")
        argv = ["mc", "--config", cfg, "--out", str(outs[-1])]
        subprocess.run(
            [sys.executable, "-m", "sphwhittle.cli", *argv],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=path),
            check=True,
            timeout=600,
        )
    for threads in ("1", "2", "4"):
        outs.append(tmp_path / f"threads{threads}")
        assert main(["mc", "--config", cfg, "--out", str(outs[-1]), "--threads", threads]) == 0
    assert same_artifacts(outs)


class TestMc:
    def test_byte_identical_runs_and_threads(self, tmp_path):
        # serial at L = 150; forked workers at L = 500 and threads at L = 20000
        for l_max, reps in ((150, 40), (500, 2 * _WORKER_MIN_WORK // 500), (20000, 40)):
            cfg = write_config(tmp_path / "mc.json", mc_config(L=l_max, replications=reps))
            outs = [tmp_path / f"{l_max}-{reps}-{name}" for name in "abc"]
            for out, threads in zip(outs, ("1", "1", "4")):
                rc = main(["mc", "--config", cfg, "--out", str(out), "--threads", threads])
                assert rc == 0
            assert same_artifacts(outs)

    def test_artifacts_ignore_blas_and_worker_threads(self, tmp_path):
        # a BLAS reduction's rounding depends on its thread count past ~1e4
        # entries; the band reductions must not call BLAS, and the worker
        # threads must not change any replication
        assert_artifacts_ignore_threads(tmp_path, mc_config(L=20000, replications=50, seed=42))

    def test_debiased_artifacts_ignore_blas_and_worker_threads(self, tmp_path):
        # the same on debiased spectra, whose searches start with the
        # one-pass probe of the box edges and midpoint: on worker threads at
        # L = 20000 and on forked workers at L = 2000
        config = mc_config(
            model={"type": "power_law", "g0": 1.0, "alpha0": 3.0},
            noise={"g_n": 1.0, "gamma": 2.2},
            scheme={"type": "noise"},
            L=20000,
            replications=50,
            seed=42,
        )
        for name, overrides in (
            ("threads_l20000", {}),
            ("fork", {"L": 2000, "replications": 2 * _WORKER_MIN_WORK // 2000}),
        ):
            (tmp_path / name).mkdir()
            assert_artifacts_ignore_threads(tmp_path / name, dict(config, **overrides))

    def test_threads_must_be_positive(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "mc.json", mc_config())
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "0"]) == 1
        assert "error: argument --threads" in capsys.readouterr().err

    def test_report_embeds_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path / "mc.json", mc_config())
        main(["mc", "--config", cfg, "--out", str(tmp_path / "r"), "--threads", "1"])
        payload = json.loads((tmp_path / "r" / "report.json").read_text())
        assert payload["config"]["box"] == {
            "alpha_min": 2.01,
            "alpha_max": 10.0,
            "tol": 1e-6,
        }
        assert payload["config"]["seed"] == 17
        # the statistics cover the ok rows of samples.csv
        lines = (tmp_path / "r" / "samples.csv").read_text().splitlines()[1:]
        ok = [line for line in lines if line.endswith(",ok")]
        assert len(lines) == 40
        assert len(ok) == 40 - payload["boundary_hits"]
        assert set(payload) >= {"mean", "variance", "quantile_freqs"}
        assert not set(payload) & {"normalized_errors", "raw_alpha_hats"}

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path / "mc.json", mc_config())
        main(["mc", "--config", cfg, "--out", str(tmp_path / "x"), "--seed", "99"])
        payload = json.loads((tmp_path / "x" / "report.json").read_text())
        assert payload["config"]["seed"] == 99

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "mc.json",
            mc_config(box={"alpha_min": 8.0, "alpha_max": 10.0, "tol": 1e-6}),
        )
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "f")]) == 2

    def test_divergent_noise_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "mc.json", _DIVERGENT)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "f")]) == 2

    def test_non_finite_factor_exits_two_before_replicating(self, tmp_path, capsys, monkeypatch):
        # the factor is computed when the config is built: a NonFiniteValue
        # there is a numerical failure, not a malformed config
        def no_draw(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sphwhittle.montecarlo, "_draw", no_draw)
        config = mc_config(
            model={"type": "power_law", "g0": 1e-200, "alpha0": 1.0},
            noise={"g_n": 1.0, "gamma": 1.0},
            scheme={"type": "noise"},
        )
        cfg = write_config(tmp_path / "mc.json", config)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "f")]) == 2
        assert capsys.readouterr().err == "error: noise normalization factor is 0.0\n"

    @pytest.mark.parametrize(
        "overrides, band",
        [
            ({"band": {"type": "narrow", "L1": 150}}, "[150, 150]"),
            ({"band": {"type": "narrow", "L1": 150}, "scheme": {"type": "rate"}}, "[150, 150]"),
            ({"L": 1}, "[1, 1]"),
        ],
        ids=["fullband", "rate", "l_max_1"],
    )
    def test_one_multipole_band_exits_one_before_replicating(
        self, tmp_path, capsys, monkeypatch, overrides, band
    ):
        # a band of one multipole cannot identify alpha: a config error, as
        # in estimate, and not a factor that is not finite
        def no_draw(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sphwhittle.montecarlo, "_draw", no_draw)
        cfg = write_config(tmp_path / "mc.json", mc_config(**overrides))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "f")]) == 1
        assert capsys.readouterr().err == f"error: band {band} cannot identify alpha\n"

    @pytest.mark.parametrize("replications", [1e15, MAX_REPLICATIONS + 1], ids=["1e15", "bound"])
    def test_too_many_replications_exit_one_before_allocating(
        self, tmp_path, capsys, monkeypatch, replications
    ):
        # a run too large to hold is a config error, refused before the
        # stream seeds of every replication are allocated
        def no_seeds(*args):
            raise AssertionError("stream seeds were allocated")

        monkeypatch.setattr(sphwhittle.montecarlo, "_stream_seeds", no_seeds)
        cfg = write_config(tmp_path / "mc.json", mc_config(replications=replications))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "f")]) == 1
        assert f"replications must be >= 2 and <= {MAX_REPLICATIONS}" in capsys.readouterr().err


# the first allocation of length L or R in each command, patched to fail as
# numpy's _ArrayMemoryError does, so the tests allocate nothing
_OUT_OF_MEMORY = "Unable to allocate 763. MiB for an array with shape (100000000,)"


def _no_memory(*args):
    raise MemoryError(_OUT_OF_MEMORY)


_SIMULATE = {"model": mc_config()["model"], "L": 150}


@pytest.mark.parametrize(
    "subcommand, config, module, name",
    [
        ("mc", mc_config(), sphwhittle.whittle, "_band_arrays"),
        ("mc", mc_config(), sphwhittle.montecarlo, "_stream_seeds"),
        ("simulate", dict(_SIMULATE, seed=1), sphwhittle.sampling, "_design"),
        ("simulate", dict(_SIMULATE, exact=True), sphwhittle.cli, "spectrum_values"),
    ],
    ids=["mc_band", "mc_seeds", "simulate_draw", "simulate_exact"],
)
def test_run_that_cannot_allocate_exits_one(
    tmp_path, capsys, monkeypatch, subcommand, config, module, name
):
    monkeypatch.setattr(module, name, _no_memory)
    cfg = write_config(tmp_path / "config.json", config)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {_OUT_OF_MEMORY}\n"


# Runs in a fresh interpreter: each argv of the JSON list in sys.argv[1]
# through cli.main, with every import of scipy refused.
_WITHOUT_SCIPY = """
import importlib.abc, json, sys

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, Refuse())
from sphwhittle.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        raise SystemExit(f"{argv[0]} failed")
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was imported")
"""


class TestNumpyOnlyRuntime:
    def test_commands_run_without_scipy(self, tmp_path):
        # the runtime needs numpy only: every subcommand, mc on two workers
        # at L = 2000 and at L = 20000 among them, runs where scipy cannot
        # be imported and writes the bytes it writes in this process
        model = {"type": "power_law", "g0": 2.0, "alpha0": 3.0}
        sim = write_config(tmp_path / "sim.json", {"model": model, "L": 2000, "seed": 3})
        spectrum = tmp_path / "here" / "simulate" / "spectrum.csv"
        est = write_config(tmp_path / "est.json", {"input": str(spectrum)})
        oracle = write_config(tmp_path / "oracle.json", {"L": 1000, "narrow_s_values": []})
        commands = {
            "simulate": ["simulate", "--config", sim],
            "estimate": ["estimate", "--config", est],
            "oracle": ["oracle", "--config", oracle],
        }
        for l_max in (2000, 20000):
            # replications enough for two workers: forked at L = 2000,
            # threads at L = 20000
            config = mc_config(L=l_max, replications=2 * _WORKER_MIN_WORK // l_max)
            mc = write_config(tmp_path / f"mc{l_max}.json", config)
            commands[f"mc{l_max}"] = ["mc", "--config", mc, "--threads", "2"]

        def argvs(side: str) -> list[list[str]]:
            return [[*argv, "--out", str(tmp_path / side / name)] for name, argv in commands.items()]

        for argv in argvs("here"):
            assert main(argv) == 0
        src = str(Path(sphwhittle.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs("there"))],
            env=dict(os.environ, PYTHONPATH=path),
            check=True,
            timeout=600,
        )
        for name in commands:
            here = sorted((tmp_path / "here" / name).iterdir())
            there = sorted((tmp_path / "there" / name).iterdir())
            assert [p.name for p in there] == [p.name for p in here]
            assert [p.read_bytes() for p in there] == [p.read_bytes() for p in here]


class TestOracle:
    def test_fullband_row_near_limit(self, tmp_path):
        cfg = write_config(
            tmp_path / "oracle.json",
            {"L": 100000, "s_values": [0.0], "narrow_s_values": []},
        )
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "oracle.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["L"] == "100000"
        assert row["g"] == "1.0"
        assert float(row["target"]) == 0.25
        assert abs(float(row["z_over_limit"]) - 1.0) < 0.01

    def test_ulimit_grid(self, tmp_path):
        cfg = write_config(tmp_path / "oracle.json", {"L": 100, "narrow_s_values": []})
        main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")])
        with open(tmp_path / "o" / "ulimit.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["x"] == "-1.899"
        assert rows[-1]["x"] == "5.0"
        zero_rows = [r for r in rows if float(r["u_limit"]) == 0.0]
        assert len(zero_rows) == 1
        assert float(zero_rows[0]["x"]) == 0.0


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["mc", "--config", str(tmp_path / "no.json"), "--out", "x"]) == 1

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mc", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_bad_flags_exit_one(self):
        assert main(["mc"]) == 1
        assert main(["unknown", "--config", "x", "--out", "y"]) == 1
        assert main([]) == 1

    @pytest.mark.parametrize(
        "subcommand, flag",
        [
            ("estimate", "--seed"),
            ("oracle", "--seed"),
            ("simulate", "--threads"),
            ("estimate", "--threads"),
            ("oracle", "--threads"),
        ],
    )
    def test_flag_only_where_read(self, tmp_path, capsys, subcommand, flag):
        # --seed is read by simulate and mc only, --threads by mc only
        cfg = write_config(tmp_path / "cfg.json", {"L": 10})
        argv = [subcommand, "--config", cfg, "--out", str(tmp_path / "o"), flag, "2"]
        assert main(argv) == 1
        assert "error: unrecognized arguments" in capsys.readouterr().err

    def test_simulate_needs_seed(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "sim.json",
            {"model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0}, "L": 20},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "'seed'" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_config_error_in_model(self, tmp_path):
        cfg = write_config(tmp_path / "mc.json", mc_config(model={"type": "mystery"}))
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_simulate_zero_l_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "sim.json",
            {"model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0}, "L": 0, "seed": 1},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "L must be >= 1" in capsys.readouterr().err

    def test_simulate_negative_seed_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "sim.json",
            {"model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0}, "L": 20},
        )
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]
        assert main(argv) == 1
        assert "master_seed" in capsys.readouterr().err


# negative between l = 5000 and 6000, past the 4096-multipole construction check
_LATE_NEGATIVE = {"type": "rational", "p": [1, -11000, 3e7], "q": [1, 1, 1], "alpha0": 3.0}


_VALID_CSV = "l,c_hat\n1,2.0\n2,0.25\n3,0.08\n"

_SIMULATE = {"model": {"type": "power_law", "g0": 2.0, "alpha0": 3.0}, "L": 20, "seed": 1}

# only null (or no key) means "no noise"; any other value is a noise config
_DIVERGENT = mc_config(noise={"g_n": 1.0, "gamma": 2.0}, scheme={"type": "noise"})
_NOT_NOISE = {"object": {}, "list": [], "zero": 0, "string": "", "false": False}


@pytest.mark.parametrize(
    "subcommand, config, csv_text",
    [
        pytest.param("oracle", {"L": "abc"}, None, id="oracle-L-string"),
        pytest.param("oracle", {"L_values": [10, "x"]}, None, id="oracle-L_values-string"),
        pytest.param("oracle", {"c_g": "x"}, None, id="oracle-c_g-string"),
        pytest.param("oracle", {"L": 1}, None, id="oracle-L-1"),
        # a float field, or an entry of a list of floats, is a JSON number:
        # a bool or a string is not read as one
        pytest.param(
            "mc",
            mc_config(model={"type": "power_law", "g0": True, "alpha0": 3.0}),
            None,
            id="mc-g0-true",
        ),
        pytest.param(
            "mc",
            mc_config(model={"type": "power_law", "g0": 2.0, "alpha0": "3"}),
            None,
            id="mc-alpha0-string",
        ),
        pytest.param(
            "mc", mc_config(band={"type": "narrow", "c_g": True}), None, id="mc-c_g-true"
        ),
        pytest.param(
            "mc",
            mc_config(model={"type": "rational", "p": [1, 1], "q": [1, "0"], "alpha0": 3.0}),
            None,
            id="mc-rational-q-string",
        ),
        pytest.param(
            "oracle", {"L": 10, "s_values": ["1", True]}, None, id="oracle-s_values-types"
        ),
        pytest.param("oracle", {"L": 10, "c_g": True}, None, id="oracle-c_g-true"),
        pytest.param(
            "estimate", {"box": {"tol": "1e-6"}}, _VALID_CSV, id="estimate-box-tol-string"
        ),
        pytest.param("estimate", {}, "l,c_hat\n1,abc\n", id="estimate-csv-string"),
        pytest.param("estimate", {}, "l,c_hat\n1,2.0\n2,nan\n", id="estimate-csv-nan"),
        pytest.param("estimate", {"L": "x"}, _VALID_CSV, id="estimate-L-string"),
        pytest.param("estimate", {"band": "full"}, _VALID_CSV, id="estimate-band-string"),
        pytest.param("mc", mc_config(band="full"), None, id="mc-band-string"),
        pytest.param("mc", mc_config(box=[]), None, id="mc-box-list"),
        pytest.param("mc", mc_config(box="abc"), None, id="mc-box-string"),
        pytest.param("estimate", {"box": [1, 2]}, _VALID_CSV, id="estimate-box-list"),
        pytest.param(
            "mc", mc_config(box={"alpha_max": math.inf}), None, id="mc-box-infinite"
        ),
        pytest.param(
            "estimate", {"box": {"alpha_max": math.inf}}, _VALID_CSV, id="estimate-box-infinite"
        ),
        *(
            pytest.param(command, dict(base, noise=value), None, id=f"{command}-noise-{name}")
            for command, base in (("mc", mc_config()), ("simulate", _SIMULATE))
            for name, value in _NOT_NOISE.items()
        ),
        # a key the program does not read is an error, not a default
        pytest.param(
            "mc",
            mc_config(model={"type": "power_law", "g0": 2.0, "alpha0": 3.0, "kapa": 5}),
            None,
            id="mc-model-kapa",
        ),
        pytest.param("mc", mc_config(box={"alpha_mn": 4.0}), None, id="mc-box-alpha_mn"),
        pytest.param("mc", mc_config(noize={"g_n": 1.0, "gamma": 2.2}), None, id="mc-noize"),
        pytest.param("mc", mc_config(band={"type": "full", "L1": 150}), None, id="mc-full-L1"),
        pytest.param(
            "mc", mc_config(band={"type": "narrow", "L1": 100, "c_g": 1.0}), None, id="mc-narrow-both"
        ),
        pytest.param(
            "mc", mc_config(scheme={"type": "fullband", "corected": True}), None, id="mc-scheme-corected"
        ),
        pytest.param(
            "mc", mc_config(noise={"g_n": 1.0, "gamma": 2.2, "gama": 2.2}), None, id="mc-noise-gama"
        ),
        pytest.param(
            "simulate", dict(_SIMULATE, model={**_SIMULATE["model"], "kapa": 5}), None, id="simulate-kapa"
        ),
        pytest.param(
            "estimate", {"band": {"type": "full", "L1": 2}}, _VALID_CSV, id="estimate-full-L1"
        ),
        # so is a top-level key that the subcommand does not read
        pytest.param("simulate", dict(_SIMULATE, exakt=True), None, id="simulate-exakt"),
        pytest.param(
            "estimate", {"bnad": {"type": "narrow", "L1": 2}}, _VALID_CSV, id="estimate-bnad"
        ),
        pytest.param("oracle", {"L_valus": [10]}, None, id="oracle-L_valus"),
        pytest.param("oracle", {"L": 10, "L_values": [20]}, None, id="oracle-L-and-L_values"),
        pytest.param("simulate", dict(_SIMULATE, exact="false"), None, id="simulate-exact-string"),
        pytest.param("simulate", dict(_SIMULATE, exact=1), None, id="simulate-exact-one"),
        pytest.param(
            "simulate",
            {"model": _LATE_NEGATIVE, "L": 5500, "seed": 1},
            None,
            id="simulate-rational-past-horizon",
        ),
        pytest.param(
            "mc",
            mc_config(model=_LATE_NEGATIVE, L=5500, replications=2),
            None,
            id="mc-rational-past-horizon",
        ),
        # a noise scheme where the estimator diverges (exit 2 when valid) is
        # a config error while another field is bad
        *(
            pytest.param("mc", dict(_DIVERGENT, **bad), None, id=f"mc-divergent-{name}")
            for name, bad in (
                ("replications-ten", {"replications": "ten"}),
                ("replications-one", {"replications": 1}),
                ("seed-negative", {"seed": -1}),
            )
        ),
        pytest.param(
            "mc",
            {k: v for k, v in _DIVERGENT.items() if k != "seed"},
            None,
            id="mc-divergent-no-seed",
        ),
    ],
)
def test_bad_config_exits_one(tmp_path, capsys, subcommand, config, csv_text):
    if csv_text is not None:
        (tmp_path / "in.csv").write_text(csv_text)
        config = dict(config, input=str(tmp_path / "in.csv"))
    cfg = write_config(tmp_path / "cfg.json", config)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# Property test: every config a user can write ends in exit 0, 1 or 2 with
# no traceback and no numpy warning; stderr holds only "error: ..." lines,
# and a nonzero exit says why there.  Each example is a valid config with up
# to two entries deleted or replaced by a wrong type, an out-of-range number
# or a string.  Sizes (L, L_values, replications) stay <= 50 so an example
# is cheap; a larger size is a valid request for more work, not a fault.
# The @example L of 1e18 and 1e19 are too large to allocate: they must fail
# as config errors before any array is built.
_SIZES = {"L", "L_values", "replications"}
_ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.fixed_dictionaries({"x": st.integers()}),
)
_BAD_SIZE = st.one_of(st.sampled_from([-1, 0, 1, 2.5, math.nan, math.inf, -math.inf]), _ODD)
_BAD = st.one_of(st.sampled_from([-1.0, 1e-300, 5e-324, 1e300, 1e308, -1e308]), _BAD_SIZE)
_POS = st.one_of(st.floats(0.1, 10), st.floats(0, 1.7e308, exclude_min=True))
_ALPHA = st.one_of(st.floats(2.01, 6), st.floats(0, 1e3, exclude_min=True))
_COEFFS = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[st.lists(st.floats(0.1, 5), min_size=n, max_size=n)] * 2)
)
_MODEL = st.one_of(
    st.fixed_dictionaries({"type": st.just("power_law"), "g0": _POS, "alpha0": _ALPHA}),
    st.fixed_dictionaries(
        {"type": st.just("kappa"), "g0": _POS, "alpha0": _ALPHA, "kappa": st.floats(-0.99, 5)}
    ),
    st.builds(
        lambda pq, alpha0: {"type": "rational", "p": pq[0], "q": pq[1], "alpha0": alpha0},
        _COEFFS,
        _ALPHA,
    ),
    st.fixed_dictionaries(
        {"type": st.just("table"), "values": st.lists(st.floats(0.01, 10), min_size=1, max_size=60)}
    ),
)
_NOISE = st.one_of(
    st.none(), st.fixed_dictionaries({"g_n": _POS, "gamma": st.floats(0.5, 6)})
)
_L = st.integers(2, 50)
_BAND = st.one_of(
    st.just({"type": "full"}),
    st.fixed_dictionaries({"type": st.just("narrow"), "L1": st.integers(1, 50)}),
    st.fixed_dictionaries({"type": st.just("narrow"), "c_g": st.floats(0.05, 1)}),
)
_BOX = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {
            "alpha_min": st.floats(0.5, 3),
            "alpha_max": st.floats(3.5, 12),
            "tol": st.floats(1e-10, 1e-3),
        }
    ),
)
_SCHEME = st.fixed_dictionaries(
    {
        "type": st.sampled_from(["fullband", "narrowband", "noise", "rate"]),
        "corrected": st.booleans(),
    }
)
_SEED = st.integers(0, 2**64 - 1)


def _slots(node, name):
    # (container, key, name of the nearest dict key) for every entry
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        field = key if isinstance(node, dict) else name
        yield node, key, field
        if isinstance(value, (dict, list)):
            yield from _slots(value, field)


@st.composite
def _corrupted(draw, valid, keep=frozenset()):
    config = copy.deepcopy(draw(valid))
    for _ in range(draw(st.integers(0, 2))):
        slots = list(_slots(config, None))
        if not slots:
            break
        parent, key, name = draw(st.sampled_from(slots))
        if isinstance(parent, dict) and name not in keep and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_BAD_SIZE if name in _SIZES else _BAD)
    return config


# Configs whose one fault is a count or seed (L, L_values, replications,
# seed, L1) that is a bool or not integral: each must exit 1 rather than
# run on a truncated value
_NOT_INTEGRAL = []


def _not_integral(config: dict, csv_text: str | None = None):
    _NOT_INTEGRAL.append(config)
    return example(config) if csv_text is None else example(csv_text, config)


@st.composite
def _misspelt(draw, valid):
    # one key of the config or of an object in it, with an "x" appended
    config = copy.deepcopy(draw(valid))
    slots = [(parent, key) for parent, key, _ in _slots(config, None) if isinstance(parent, dict)]
    parent, key = draw(st.sampled_from(slots))
    parent[key + "x"] = parent.pop(key)
    return config


@st.composite
def _mistyped(draw, valid):
    # one number of the config, at any depth, turned into true or its string
    # form; every number in a valid config is read
    config = copy.deepcopy(draw(valid))
    slots = [
        (parent, key)
        for parent, key, _ in _slots(config, None)
        if isinstance(parent[key], (int, float)) and not isinstance(parent[key], bool)
    ]
    assume(slots)
    parent, key = draw(st.sampled_from(slots))
    parent[key] = draw(st.sampled_from([True, str(parent[key])]))
    return config


def _run(
    subcommand: str, config: dict, csv_text: str | None = None, rejected: bool = False
) -> None:
    rejected = rejected or config in _NOT_INTEGRAL
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if config.get("input") == "<csv>":
            (work / "in.csv").write_text(csv_text)
            config = dict(config, input=str(work / "in.csv"))
        cfg = write_config(work / "cfg.json", config)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main([subcommand, "--config", cfg, "--out", str(work / "o")])
    assert rc in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    assert all(line.startswith("error: ") for line in lines)
    assert bool(lines) == (rc != 0)
    assert rc == 1 or not rejected


_FUZZ = settings(max_examples=60, deadline=None)


_SIM = st.fixed_dictionaries(
    {"model": _MODEL, "noise": _NOISE, "L": _L, "seed": _SEED, "exact": st.booleans()}
)


@_FUZZ
@given(_corrupted(_SIM))
@example({"model": {"type": "power_law", "g0": 1.0, "alpha0": 3.0}, "L": 1e18, "seed": 0})
@example({"model": {"type": "power_law", "g0": 1.0, "alpha0": 3.0}, "L": 1e19, "seed": 0})
@_not_integral({"model": {"type": "power_law", "g0": 1.0, "alpha0": 3.0}, "L": 50.9, "seed": 1})
@_not_integral({"model": {"type": "power_law", "g0": 1.0, "alpha0": 3.0}, "L": 50, "seed": 1.9})
@_not_integral({"model": {"type": "power_law", "g0": 1.0, "alpha0": 3.0}, "L": True, "seed": 1})
def test_simulate_any_config(config):
    _run("simulate", config)


@_FUZZ
@given(_misspelt(_SIM))
def test_simulate_misspelt_key_exits_one(config):
    _run("simulate", config, rejected=True)


# an exact spectrum ignores its seed, so it is drawn without one
_SIM_READ = _SIM.map(lambda c: {k: v for k, v in c.items() if k != "seed" or not c["exact"]})


@_FUZZ
@given(_mistyped(_SIM_READ))
def test_simulate_mistyped_number_exits_one(config):
    _run("simulate", config, rejected=True)


_MC = st.fixed_dictionaries(
    {
        "model": _MODEL,
        "noise": _NOISE,
        "L": _L,
        "band": _BAND,
        "box": _BOX,
        "scheme": _SCHEME,
        "replications": st.integers(2, 6),
        "seed": _SEED,
    }
)


@_FUZZ
@given(_corrupted(_MC))
@example(
    # (1 + r_l)^2 overflows in the noise scheme's V_band
    {
        "model": {"type": "power_law", "g0": 2.2692664517883865e-226, "alpha0": 1.0},
        "noise": {"g_n": 1.0, "gamma": 1.0},
        "L": 2,
        "scheme": {"type": "noise"},
        "replications": 2,
        "seed": 0,
    }
)
@example(
    # P(l) overflows in Rational's construction-time positivity check
    {
        "model": {"type": "rational", "p": [1e308, 1.0], "q": [1.0, 1.0], "alpha0": 3.0},
        "noise": None,
        "L": 2,
        "band": {"type": "full"},
        "box": {},
        "scheme": {"type": "fullband", "corrected": False},
        "replications": 2,
        "seed": 0,
    }
)
@example(mc_config(L=1e18))
@example(mc_config(L=1e19))
@_not_integral(mc_config(L=200.9))
@_not_integral(mc_config(L=True))
@_not_integral(mc_config(replications=2.7))
@_not_integral(mc_config(seed=1.9))
@_not_integral(mc_config(band={"type": "narrow", "L1": 100.5}))
def test_mc_any_config(config):
    _run("mc", config)


@_FUZZ
@given(_misspelt(_MC))
def test_mc_misspelt_key_exits_one(config):
    # every key of an mc config is read: a misspelt one is a config error,
    # never a run with the default
    _run("mc", config, rejected=True)


@_FUZZ
@given(_mistyped(_MC))
def test_mc_mistyped_number_exits_one(config):
    _run("mc", config, rejected=True)


def _csv(rows) -> str:
    return "l,c_hat\n" + "".join(f"{a},{b}\n" for a, b in rows)


# a valid 50-row spectrum
_SPECTRUM_50 = _csv((l, 2.0 * l**-3.0) for l in range(1, 51))


_CSV = st.one_of(
    # positive or mixed-sign values on rows 1..n
    st.sampled_from([0.01, -10.0])
    .flatmap(lambda lo: st.lists(st.floats(lo, 10), min_size=1, max_size=50))
    .map(lambda v: _csv(enumerate(v, 1))),
    st.lists(
        st.tuples(*[st.sampled_from(["1", "2", "abc", "", "nan", "inf", "-1", "0", "1e400"])] * 2),
        max_size=4,
    ).map(_csv),
    st.text(alphabet="lc_hat,0123456789.-\n", max_size=30),
)


_ESTIMATE = st.fixed_dictionaries(
    {"input": st.just("<csv>"), "band": _BAND, "box": _BOX}, optional={"L": _L}
)


@_FUZZ
@given(_CSV, _corrupted(_ESTIMATE))
@_not_integral({"input": "<csv>", "L": 3.5}, _VALID_CSV)
@_not_integral({"input": "<csv>", "band": {"type": "narrow", "L1": 1.5}}, _VALID_CSV)
def test_estimate_any_config(csv_text, config):
    _run("estimate", config, csv_text)


@_FUZZ
@given(_misspelt(_ESTIMATE))
def test_estimate_misspelt_key_exits_one(config):
    _run("estimate", config, _SPECTRUM_50, rejected=True)


@_FUZZ
@given(_mistyped(_ESTIMATE))
def test_estimate_mistyped_number_exits_one(config):
    _run("estimate", config, _SPECTRUM_50, rejected=True)


_ORACLE = st.tuples(
    # L or L_values is always there: the default grid reaches L = 1e5
    st.one_of(
        st.fixed_dictionaries({"L": _L}),
        st.fixed_dictionaries({"L_values": st.lists(_L, max_size=3)}),
    ),
    st.fixed_dictionaries(
        {
            "s_values": st.lists(st.floats(-1.9, 4), max_size=3),
            "narrow_s_values": st.lists(st.floats(-1.9, 4), max_size=3),
            "c_g": st.floats(0.05, 1),
        }
    ),
).map(lambda parts: {**parts[0], **parts[1]})


@_FUZZ
@given(_corrupted(_ORACLE, keep=frozenset({"L", "L_values"})))
@example({"L": 2, "s_values": [math.inf]})
@example({"L": 1e18})
@example({"L_values": [10, 1e19]})
@_not_integral({"L": 10.5})
@_not_integral({"L_values": [10, 20.5]})
def test_oracle_any_config(config):
    _run("oracle", config)


@_FUZZ
@given(_misspelt(_ORACLE))
def test_oracle_misspelt_key_exits_one(config):
    _run("oracle", config, rejected=True)


@_FUZZ
@given(_mistyped(_ORACLE))
def test_oracle_mistyped_number_exits_one(config):
    _run("oracle", config, rejected=True)

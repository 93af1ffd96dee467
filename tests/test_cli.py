import csv
import json

import pytest

from sphwhittle import read_spectrum_csv
from sphwhittle.cli import main


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


class TestMc:
    def test_byte_identical_runs_and_threads(self, tmp_path):
        cfg = write_config(tmp_path / "mc.json", mc_config())
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            rc = main(
                [
                    "mc",
                    "--config",
                    cfg,
                    "--out",
                    str(tmp_path / name),
                    "--threads",
                    threads,
                ]
            )
            assert rc == 0
        ref_report = (tmp_path / "a" / "report.json").read_bytes()
        ref_samples = (tmp_path / "a" / "samples.csv").read_bytes()
        for name in ("b", "c"):
            assert (tmp_path / name / "report.json").read_bytes() == ref_report
            assert (tmp_path / name / "samples.csv").read_bytes() == ref_samples

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
        assert len(payload["normalized_errors"]) == 40 - payload["boundary_hits"]

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

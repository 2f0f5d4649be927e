import json
import os

import pytest

from malthus.cli import main


@pytest.fixture
def config(tmp_path):
    cfg = {
        "model": {
            "model_type": "adder",
            "lambda_growth": 1.0,
            "d0": 0.0,
            "hazard": {"type": "constant", "b": 1.0},
            "fragmentation": {"type": "beta", "alpha": 5, "beta": 5},
        },
        "sim": {"seed": 7, "t_end": 1.0, "record_times": [0.0, 0.5, 1.0],
                "replicates": 2},
        "doeblin": {"compact": [0.0, 1.0, 1.0, 2.0], "grid_n": 16},
        "stationary": {"n": 256, "y_max": 8.0},
        "drift": {"grid_n": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def run(args):
    return main([str(a) for a in args])


class TestValidate:
    def test_ok(self, config, tmp_path):
        out = tmp_path / "v"
        assert run(["validate", "--config", config, "--out", out]) == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert report["all_passed"]
        assert (out / "manifest.json").exists()

    def test_invalid_model_exit_2(self, config, tmp_path, capsys):
        cfg = json.loads(config.read_text())
        cfg["model"]["d0"] = 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run(["validate", "--config", bad, "--out", tmp_path / "v2"]) == 2
        assert "(A3)" in capsys.readouterr().err

    def test_malformed_json_exit_1(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert run(["validate", "--config", bad, "--out", tmp_path / "v3"]) == 1


class TestSimulate:
    def test_trajectory_csv(self, config, tmp_path):
        out = tmp_path / "s"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "replicate,t,count,sum_h,mean_a,mean_y"
        assert len(lines) == 1 + 2 * 3  # replicates x record times

    def test_trivial_one_row(self, config, tmp_path):
        cfg = json.loads(config.read_text())
        cfg["sim"].update({"t_end": 0.0, "record_times": [0.0], "replicates": 1})
        path = tmp_path / "cfg0.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s0"
        assert run(["simulate", "--config", path, "--out", out]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_byte_identical_reruns(self, config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["simulate", "--config", config, "--out", out1]) == 0
        assert run(["simulate", "--config", config, "--out", out2]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_cap_hit_exits_4(self, config, tmp_path, capsys):
        cfg = json.loads(config.read_text())
        cfg["sim"].update({"t_end": 6.0, "record_times": [6.0], "cap": 8})
        path = tmp_path / "cfg_cap.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "cap"
        assert run(["simulate", "--config", path, "--out", out]) == 4
        assert "population cap of 8" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_seed_flag_overrides(self, config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", config, "--out", out1, "--seed", 99]) == 0
        assert run(["simulate", "--config", config, "--out", out2]) == 0
        assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()


class TestEigen:
    def test_summary(self, config, tmp_path):
        out = tmp_path / "e"
        assert run(["eigen", "--config", config, "--out", out,
                    "--R", 4, "--grid-n", 64]) == 0
        lines = (out / "eigen_summary.csv").read_text().splitlines()
        assert lines[0] == "R,lambda_R,mu_residual"
        R, lam, res = lines[1].split(",")
        assert float(R) == 4.0 and 0.9 < float(lam) < 1.05
        payload = json.loads((out / "eigen_R4.json").read_text())
        grid = payload["grid"]
        eta = payload["eta"]
        assert eta[grid.index(1.0)] == pytest.approx(1.0)

    def test_root_find_diagnostics_written(self, config, tmp_path):
        out = tmp_path / "e"
        assert run(["eigen", "--config", config, "--out", out,
                    "--R", 4, "--grid-n", 64]) == 0
        payload = json.loads((out / "eigen_R4.json").read_text())
        diag = payload["diagnostics"]
        assert diag["mu_evals"] == len(diag["trace"]) <= 8
        assert diag["trace"][-1]["lam"] == payload["lambda_R"]
        lo, hi = diag["bracket"]
        assert lo <= payload["lambda_R"] <= hi


class TestDriftCommand:
    def test_report(self, config, tmp_path):
        out = tmp_path / "d"
        assert run(["drift", "--config", config, "--out", out]) == 0
        rep = json.loads((out / "drift_report.json").read_text())
        assert rep["pass"] and rep["c"] == 1.0
        assert rep["d"] == pytest.approx(3.2)


class TestStationaryCommand:
    def test_outputs(self, config, tmp_path):
        out = tmp_path / "st"
        assert run(["stationary", "--config", config, "--out", out]) == 0
        assert (out / "eta_star.csv").exists()
        assert (out / "pi_star.csv").exists()


class TestDoeblinCommand:
    def test_outputs(self, config, tmp_path):
        out = tmp_path / "db"
        assert run(["doeblin", "--config", config, "--out", out]) == 0
        consts = json.loads((out / "minorant_constants.json").read_text())
        assert consts["mass"] > 0.0
        lines = (out / "minorant.csv").read_text().splitlines()
        assert lines[0] == "a,y,nu" and len(lines) == 1 + 16 * 16


class TestThreads:
    def test_env_fallback(self, config, tmp_path, monkeypatch):
        monkeypatch.setenv("MALTHUS_THREADS", "3")
        assert run(["validate", "--config", config, "--out", tmp_path / "t"]) == 0
        assert os.environ["MALTHUS_THREADS"] == "3"

    def test_flag_leaves_environ_unchanged(self, config, tmp_path):
        before = dict(os.environ)
        out = tmp_path / "t5"
        assert run(["validate", "--config", config, "--out", out, "--threads", 5]) == 0
        assert dict(os.environ) == before
        assert json.loads((out / "manifest.json").read_text())["threads"] == 5

    def test_no_partial_files_left(self, config, tmp_path):
        out = tmp_path / "p"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        assert not [p for p in out.iterdir() if p.suffix == ".partial"]

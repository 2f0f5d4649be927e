import functools
import hashlib
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import malthus
import malthus.renewal
from malthus.cli import _write_csv, main


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
        # the manifest says which stream a run's draws come from
        assert json.loads((out / "manifest.json").read_text())["stream"] == 3

    @pytest.mark.parametrize("model, expected", [
        # the bounds derive from the hazard and F; a `bounds` block used to
        # move the drift offset silently
        ({"bounds": {"beta_plus": 3}}, "model: unknown key 'bounds'"),
        ({"lamda_growth": 1.0}, "unknown key 'lamda_growth' (did you mean 'lambda_growth'?)"),
        # without "type" the split is uniform, and alpha/beta used to be ignored
        ({"fragmentation": {"alpha": 2, "beta": 2}},
         "model.fragmentation (type 'uniform'): unknown key 'alpha'"),
        ({"hazard": {"b": 1.0, "a_str": 0.5}}, "(did you mean 'a_star'?)"),
        ({"hazard": {"type": "constant"}}, "missing required key 'b'"),
        ({"hazard": {"type": "table", "a": [0.0, 1.0]}}, "missing required key 'B'"),
        ({"hazard": {"b": -1}}, "model.hazard: hazard level b must be positive"),
        ({"fragmentation": {"type": "beta", "alpha": 5, "beta": None}},
         "model.fragmentation.beta:"),
        ({"lambda_growth": "fast"}, "model.lambda_growth:"),
        ({"hazard": [1.0]}, "model.hazard (type 'constant') must be a JSON object"),
        # Beta(-1, -1) has the closed-form moments 1, 1/2, -0 and used to validate
        ({"fragmentation": {"type": "beta", "alpha": -1, "beta": -1}},
         "model.fragmentation: Beta parameters must be positive"),
        # booleans used to run as 1.0 or 0.0, and a NaN knot to validate
        ({"lambda_growth": True}, "model.lambda_growth: True is not a number"),
        ({"hazard": {"b": True}}, "model.hazard.b: True is not a finite number"),
        ({"d0": False}, "model.d0: False is not a number"),
        ({"hazard": {"b": 1.0, "a_star": True}}, "model.hazard.a_star: True is not"),
        ({"hazard": {"type": "table", "a": [0.0, 1.0], "B": [True, True]}},
         "model.hazard.B: True is not a finite number"),
        ({"hazard": {"type": "table", "a": [0.0, math.nan], "B": [1.0, 1.0]}},
         "model.hazard.a: nan is not a finite number"),
        # a misspelled type used to exit 2 as an invalid model, with no suggestion
        ({"hazard": {"type": "constnat", "b": 1}},
         "model.hazard.type: unknown hazard type 'constnat' (did you mean 'constant'?)"),
        ({"fragmentation": {"type": "betta"}},
         "model.fragmentation.type: unknown fragmentation type 'betta' (did you mean 'beta'?)"),
    ], ids=["bounds", "misspelled", "beta_without_type", "hazard_typo", "missing_b",
            "missing_B", "negative_b", "null_beta", "string_lambda", "hazard_not_object",
            "negative_beta", "bool_lambda", "bool_b", "bool_d0", "bool_a_star",
            "bool_table_B", "nan_knot", "hazard_type_typo", "fragmentation_type_typo"])
    def test_bad_model_key_exits_1(self, tmp_path, capsys, model, expected):
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps({"model": model}))
        assert run(["validate", "--config", path, "--out", tmp_path / "b"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and expected in err
        assert not (tmp_path / "b" / "validate_report.json").exists()

    def test_invalid_model_exit_2(self, config, tmp_path, capsys):
        cfg = json.loads(config.read_text())
        cfg["model"]["d0"] = 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run(["validate", "--config", bad, "--out", tmp_path / "v2"]) == 2
        assert "(A3)" in capsys.readouterr().err

    @pytest.mark.parametrize("d0", [-1.0, math.inf])
    def test_bad_death_rate_exit_2(self, config, tmp_path, capsys, d0):
        # the simulator draws no death clock for d0 <= 0, so a negative d0
        # would give a Malthus exponent no simulation reproduces
        cfg = json.loads(config.read_text())
        cfg["model"]["d0"] = d0
        bad = tmp_path / "d0.json"
        bad.write_text(json.dumps(cfg))
        assert run(["validate", "--config", bad, "--out", tmp_path / "vd"]) == 2
        assert "death rate" in capsys.readouterr().err

    def test_split_density_not_finite_exit_2(self, config, tmp_path, capsys):
        # the moments are exact, but the log density cancels terms of size 1e300
        # into F = [0, inf, 0] at 1/4, 1/2, 3/4; this used to validate
        cfg = json.loads(config.read_text())
        cfg["model"]["fragmentation"] = {"type": "beta", "alpha": 1e300, "beta": 1e300}
        bad = tmp_path / "huge_beta.json"
        bad.write_text(json.dumps(cfg))
        assert run(["validate", "--config", bad, "--out", tmp_path / "vb"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "is not finite" in err
        assert not (tmp_path / "vb" / "validate_report.json").exists()

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

    @pytest.mark.parametrize("sim, key", [
        ({"t_end": 1.0}, "record_times"),  # the default record times run to 4
        ({"x0": [1.0, 1.0]}, "x0"),
        ({"x0": [-0.5, 1.0]}, "x0"),
        ({"replicates": 0}, "replicates"),
        ({"cap": 0}, "cap"),
        ({"seed": True}, "seed"),
        ({"seed": 7.5}, "seed"),
        ({"cap": None}, "cap"),
        ({"record_times": 3}, "record_times"),
        # an infinite horizon used to hang the engine, a NaN time to run
        ({"t_end": math.inf, "record_times": [0.0]}, "sim.t_end"),
        ({"record_times": [math.nan]}, "sim.record_times"),
        # the streams are keyed on the seed's 64 bits: -1 ran as 2**64 - 1
        ({"seed": -1}, "sim: seed must lie in [0, 2**64)"),
        ({"seed": 2**64}, "sim: seed must lie in [0, 2**64)"),
    ])
    def test_bad_sim_value_exits_1(self, tmp_path, capsys, sim, key):
        path = tmp_path / "bad_sim.json"
        path.write_text(json.dumps({"sim": sim}))
        assert run(["simulate", "--config", path, "--out", tmp_path / "b"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and key in err
        assert not (tmp_path / "b" / "trajectory.csv").exists()

    def test_seed_flag_overrides(self, config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", config, "--out", out1, "--seed", 99]) == 0
        assert run(["simulate", "--config", config, "--out", out2]) == 0
        assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("d0, sim", [
        # d0 = 1.5 > lambda: most recorded populations die out (no snapshot
        # rows, nan means); t = 0.1 prints as 0.10000000000000001
        (1.5, {"seed": 7, "t_end": 2.5, "record_times": [0.1, 0.7, 1.5, 2.5], "replicates": 8}),
        # one state of 5,484 individuals, written in more than one string
        (0.0, {"seed": 7, "t_end": 8.6, "record_times": [0.1, 8.6], "replicates": 1}),
    ], ids=["die_out", "past_4096_rows"])
    def test_csvs_match_per_row_reference(self, tmp_path, d0, sim):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {**MODEL, "d0": d0},
                                    "sim": {**sim, "snapshots": True}}))
        out = tmp_path / "out"
        assert run(["simulate", "--config", path, "--out", out]) == 0
        model = malthus.make_adder(1.0, malthus.ConstantHazard(1.0),
                                   malthus.BetaFragmentation(5, 5), d0=d0)
        trajectories = malthus.run_replicates(model, malthus.PhasePoint(0.0, 1.0),
                                              malthus.SimConfig(**sim))
        traj = ["replicate,t,count,sum_h,mean_a,mean_y\n"]
        snap = ["replicate,t,a,y\n"]
        for r, tr in enumerate(trajectories):
            for s in tr.states:
                a, y = s.a.tolist(), s.y.tolist()
                n = len(a)
                sum_a, sum_h = (functools.reduce(operator.add, v, 0.0) for v in (a, y))
                means = (sum_a / n, sum_h / n) if n else (math.nan, math.nan)
                traj.append("%d,%.17g,%d,%.17g,%.17g,%.17g\n" % (r, s.t, n, sum_h, *means))
                snap += ["%d,%.17g,%.17g,%.17g\n" % (r, s.t, ai, yi) for ai, yi in zip(a, y)]
        counts = [s.count for tr in trajectories for s in tr.states]
        assert (0 in counts) if d0 else max(counts) > 4096
        assert any(row.startswith("0,0.10000000000000001,") for row in snap)
        assert (out / "trajectory.csv").read_bytes() == "".join(traj).encode()
        assert (out / "snapshots.csv").read_bytes() == "".join(snap).encode()

MODEL = {"model_type": "adder", "lambda_growth": 1.0, "d0": 0.0,
         "hazard": {"type": "constant", "b": 1.0},
         "fragmentation": {"type": "beta", "alpha": 5, "beta": 5}}
SMALL = {"model": MODEL, "drift": {"grid_n": 8},
         "doeblin": {"compact": [0.0, 1.0, 1.0, 2.0], "grid_n": 16},
         "stationary": {"n": 256}}


@pytest.mark.parametrize("argv, cfg, digests", [
    # populations pass 8 individuals, so a pairwise sum would change sum_h;
    # the pin moved with the stream (version 2: exponentials by inversion;
    # version 3: integer-Beta fragments without scipy)
    (["simulate"],
     {"model": {**MODEL, "d0": 0.2},
      "sim": {"seed": 7, "replicates": 20, "t_end": 4.0, "snapshots": True}},
     {"trajectory.csv": "48f805820418c24eef66ee5aaf1ffa26f3401528ac8cf3577b495e0ff484bc96",
      "snapshots.csv": "e859ba12add37a3e11c8c7ac6edcf5951398b51bca8dbf98db731602751d0ed0"}),
    (["drift"], SMALL,
     # the pin moved when the ages became 0, a_max and the hazard's knots
     # (grid [2, 8], worst point (0, 2.5)) and the generator the Doob
     # transform of Q (worst margin by +5.7e-11)
     {"drift_report.json": "89193cb34d96fe63e81d4c161f41f50e6ca5df5c18e861dbffd52c4f6824a128"}),
    (["doeblin"], SMALL,
     # the pin moved when the minorant became the closed-form one-jump bound
     {"minorant.csv": "8e13fc0cb9cb67951e5893f88904dccd0a36722971c43a23d3d7561eb01c0b90",
      "minorant_constants.json":
          "581f155b9ca6f109eb131e81f96f686896d4919627a25e5e1ee2c72604930b52"}),
    (["stationary"], SMALL,
     # the pin moved when the sweep became a gather and the Simpson and mass
     # weights explicit (eta* by <= 1.9e-15 relative, pi* by <= 1.5e-15), and
     # when the iteration became Anderson-mixed (16 sweeps, not 41; eta* by
     # <= 1.2e-10 of its maximum, pi* by <= 9.5e-11 of its maximum, kappa by
     # -5.6e-11)
     {"eta_star.csv": "6e3c0f4a33a1175ef481b7f54dba147c37c5aafb2b4de3155e07146532656989",
      "eta_star.json": "0e2c5668633593572340f8eed2fbc2084ca80cd325f2bd34e5cee84218452fc3",
      "pi_star.csv": "34f73440c144c2d13aa7c1f682ad276003fee19d3e60976c3841113556c21367"}),
    (["eigen", "--R", "4"], SMALL,
     # the pin moved when diagnostics gained euler_lotka_residual, when
     # they gained warm_start (the Beta density moved eta by <= 1.1e-15
     # relative), when the leak mass became 2 sf(R/u) (lambda_R kept its
     # bits; eta moved by <= 5.8e-16 relative), and when Newton steps took G
     # from the lam-series of one kernel pass and the diagnostics gained
     # kernel_passes, row_mass_error and each step's centre (lambda_R kept
     # its bits; eta moved by <= 7.8e-16 relative, nu by <= 5.6e-16), and
     # when the warm start moved from 1e-3 to 5e-4 below the coarse root
     # (lambda_R by -1.1e-16, the residual by -2.4e-16, eta and nu by
     # <= 7.5e-16 relative)
     {"eigen_R4.json": "327133b02918e465f5be1eb1634d51ebc4a41d8aff45d9debcdf1f294ac80f34",
      "eigen_summary.csv": "19996a7883e657332e7544141e6341e8bed4144a3842fcdfa929151e20110a80"}),
], ids=["simulate", "drift", "doeblin", "stationary", "eigen"])
def test_outputs_pinned(tmp_path, argv, cfg, digests):
    path = tmp_path / "pin.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([argv[0], "--config", path, "--out", out, *argv[1:]]) == 0
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert written == sorted(digests)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in written} == digests


@pytest.mark.parametrize("argv, cfg, name, digest", [
    # three times, each distance a float; 1.0 prints as 1.  The pin moved
    # when eta* became Anderson-mixed (the distances by <= 2.1e-10 relative)
    (["stationary"],
     {**SMALL, "stationary": {"n": 256, "report": True},
      "sim": {"seed": 7, "t_end": 2.0, "record_times": [1.0, 1.5, 2.0], "replicates": 200}},
     "decay.csv", "2be3544296b363fc7894a9a6df8a8bbecefef9d81b4196e52bb4168f1364c53d"),
    (["eigen", "--R", "4", "--R", "5"], SMALL,
     "eigen_summary.csv", "d94c5891def3855f211484f8187196640e93cf4d0bbc06a6389a2340f0a7cea7"),
], ids=["decay", "eigen_summary_two_rows"])
def test_more_outputs_pinned(tmp_path, argv, cfg, name, digest):
    path = tmp_path / "pin.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([argv[0], "--config", path, "--out", out, *argv[1:]]) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_manifest_pinned(tmp_path, monkeypatch):
    # the bytes of manifest.json but for its two lines that vary by run
    monkeypatch.chdir(tmp_path)
    Path("pin.json").write_text(json.dumps({"model": MODEL, "sim": {"seed": 7}}))
    assert run(["stationary", "--config", "pin.json", "--out", "out"]) == 0
    text = Path("out", "manifest.json").read_text()
    kept = [line for line in text.split("\n")
            if not line.lstrip().startswith(('"wall_clock"', '"out_dir"'))]
    assert "\n".join(kept) == (f'{{\n  "command": "stationary",\n  "config": "pin.json",\n'
                               f'  "seed": 7,\n  "stream": 3,\n'
                               f'  "version": "{malthus.__version__}",\n}}')
    assert json.loads(text)["out_dir"] == str(tmp_path / "out")


@pytest.mark.parametrize("flags, seed", [([], 0), (["--seed", 5], 5)])
def test_manifest_records_the_seed_drawn_with(tmp_path, flags, seed):
    # without sim.seed the draws use seed 0, and the manifest must say so, not null
    path = tmp_path / "no_seed.json"
    path.write_text(json.dumps({"model": MODEL}))
    assert run(["validate", "--config", path, "--out", tmp_path, *flags]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == seed


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

    @pytest.mark.parametrize("R, n, coarse_n, coarse_passes",
                             [(8, 257, 65, 3), (16, 513, 129, 2)], ids=["R8", "R16"])
    def test_reference_grid_makes_one_kernel_pass(self, config, tmp_path, R, n, coarse_n,
                                                  coarse_passes):
        # eigen --R 8 and 16: every fine Newton step is a lam-series of the
        # warm start's kernel pass; the coarse solve makes its own passes
        out = tmp_path / "e"
        assert run(["eigen", "--config", config, "--out", out, "--R", R]) == 0
        payload = json.loads((out / f"eigen_R{R}.json").read_text())
        diag = payload["diagnostics"]
        assert len(payload["grid"]) == n and diag["kernel_passes"] == 1
        assert diag["warm_start"]["n"] == coarse_n
        assert diag["warm_start"]["kernel_passes"] == coarse_passes
        assert {step["centre"] for step in diag["trace"]} == {diag["trace"][0]["lam"]}
        assert diag["mu_evals"] == 3 and diag["row_mass_error"] < 1e-12

    def test_row_mass_error_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(malthus.renewal, "_with_knots",
                            lambda edges, hazard, shift, cut: edges)
        model = {**MODEL, "hazard": {"type": "constant", "b": 1.0, "a_star": 0.3}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": model}))
        assert run(["eigen", "--config", path, "--out", tmp_path / "e",
                    "--R", 4, "--grid-n", 32]) == 3
        assert "mass error" in capsys.readouterr().err


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
        diag = json.loads((out / "eta_star.json").read_text())
        assert sorted(diag) == ["kappa", "n", "pi_mass", "residual", "sweeps", "y_max"]
        assert diag["n"] == 256 and diag["y_max"] == 8.0 and diag["sweeps"] == 16
        assert diag["residual"] < 1e-8 and abs(diag["kappa"] - 1.0) < 1e-4

    @pytest.mark.parametrize("stationary", [{"y_max": 0.5}, {"n": 3}, {"n": 2}],
                             ids=["truncated", "three_nodes", "two_nodes"])
    def test_coarse_grid_exits_5(self, tmp_path, capsys, stationary):
        # each converges to a residual near 1e-11, yet the sweep at the fixed
        # point moves pi* mass by 17% to 52%
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps({"model": MODEL, "stationary": stationary}))
        out = tmp_path / "c"
        assert run(["stationary", "--config", path, "--out", out]) == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "truncates or under-resolves eta*" in err
        assert not (out / "eta_star.csv").exists()

    def test_default_grid_exits_0(self, tmp_path):
        path = tmp_path / "default.json"
        path.write_text(json.dumps({"model": MODEL}))
        out = tmp_path / "d"
        assert run(["stationary", "--config", path, "--out", out]) == 0
        diag = json.loads((out / "eta_star.json").read_text())
        assert diag["n"] == 1024 and abs(diag["kappa"] - 1.0) < 1e-4


class TestDoeblinCommand:
    def test_outputs(self, config, tmp_path):
        out = tmp_path / "db"
        assert run(["doeblin", "--config", config, "--out", out]) == 0
        consts = json.loads((out / "minorant_constants.json").read_text())
        assert consts["mass"] > 0.0
        lines = (out / "minorant.csv").read_text().splitlines()
        assert lines[0] == "a,y,nu" and len(lines) == 1 + 16 * 16

    def test_empty_minorant_exits_6(self, tmp_path, capsys):
        # a domain below the age diagonal: no point is reached in one jump
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"doeblin": {"domain": [1, 2, 0.1, 0.9], "grid_n": 16}}))
        out = tmp_path / "db"
        assert run(["doeblin", "--config", path, "--out", out]) == 6
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "doeblin failed: the minorant has mass 0" in err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


class TestStrictConfig:
    @pytest.mark.parametrize("command, cfg, expected", [
        ("simulate", {"sim": {"replicatse": 5}},
         "sim: unknown key 'replicatse' (did you mean 'replicates'?)"),
        ("simulate", {"simm": {}}, "configuration: unknown key 'simm' (did you mean 'sim'?)"),
        ("eigen", {"grid": {"nn": 3}}, "grid: unknown key 'nn'"),
        ("validate", {"doeblin": [0, 1]}, "doeblin must be a JSON object"),
        ("eigen", {"grid": {"R": None}}, "grid.R:"),
        ("drift", {"drift": {"grid_n": None}}, "drift.grid_n:"),
        ("drift", {"drift": {"box": [10]}}, "drift.box:"),
        # the size-harmonic transform divides by y: no margins below y = 0
        ("drift", {"drift": {"box": [10, -1]}}, "drift: box = (10.0, -1.0)"),
        ("doeblin", {"doeblin": {"compact": [0, 1, 2, 1]}},
         "doeblin: compact = (0.0, 1.0, 2.0, 1.0)"),
        ("stationary", {"stationary": {"n": 1}}, "stationary: "),
        ("stationary", {"stationary": {"bins": [0, 20]}}, "stationary: box"),
        # counts, reals and flags used to be truncated or coerced, and ran
        ("drift", {"drift": {"grid_n": 7.5}}, "drift.grid_n: 7.5 is not an integer"),
        ("stationary", {"stationary": {"bins": [2.5, 3]}}, "stationary.bins: 2.5 is not"),
        ("drift", {"drift": {"c": "1"}}, "drift.c: '1' is not a finite number"),
        ("drift", {"drift": {"c": True}}, "drift.c: True is not a finite number"),
        ("simulate", {"sim": {"snapshots": "no"}}, "sim.snapshots: 'no' is not true or false"),
        ("stationary", {"stationary": {"report": "false"}}, "stationary.report: 'false'"),
        # y = 1 must be a grid node; an infinite R overflowed the node count
        ("eigen", {"grid": {"R": 0.5}}, "grid.R: [0.5] must be finite and at least 1"),
        ("eigen", {"grid": {"R": math.inf}}, "grid.R: inf is not a finite number"),
        ("eigen --R inf", {}, "grid.R: [inf] must be finite"),
        ("eigen", {"grid": {"R": []}}, "grid.R: [] must be finite"),  # wrote an empty summary
        # a grid of 0 nodes used to fall back to the default 32 R
        ("eigen", {"grid": {"n": 0}}, "grid: n = 0 must be at least 2"),
        # minorants of mass 0; the window delta and the horizon j_star are gone
        ("doeblin", {"doeblin": {"delta": -1.0}}, "doeblin: unknown key 'delta'"),
        ("doeblin", {"doeblin": {"Delta": 0.0}}, "doeblin: Delta = 0.0 must be positive"),
        ("doeblin", {"doeblin": {"j_star": 0}}, "doeblin: unknown key 'j_star'"),
        ("doeblin", {"doeblin": {"grid_n": 1}}, "grid_n = 1 at least 2"),
        # a decreasing axis gave negative weights and a minorant of mass < 0
        ("doeblin", {"doeblin": {"domain": [2, 0, 0, 2], "grid_n": 16}},
         "doeblin: domain = (2.0, 0.0, 0.0, 2.0)"),
        # every section is converted whatever the command
        ("eigen", {"drift": {"grid_n": 7.5}}, "drift.grid_n: 7.5 is not an integer"),
        ("drift", {"sim": {"seed": 1.5}}, "sim.seed: 1.5 is not an integer"),
    ], ids=["sim_key", "section", "grid_key", "section_not_object", "null_R", "null_grid_n",
            "short_box", "negative_box", "compact_order", "eta_n", "zero_bins",
            "fractional_grid_n", "fractional_bins", "string_real", "bool_real",
            "string_snapshots", "string_report", "small_R", "infinite_R", "infinite_R_flag",
            "no_R", "zero_grid_n", "negative_delta", "zero_Delta", "zero_j_star",
            "one_node_grid", "reversed_domain", "eigen_checks_drift", "drift_checks_sim"])
    def test_bad_config_exits_1(self, tmp_path, capsys, command, cfg, expected):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run([*command.split(), "--config", path, "--out", tmp_path / "b"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and expected in err

    def test_infinite_growth_rate_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"model": {**MODEL, "lambda_growth": math.inf}}))
        assert run(["validate", "--config", path, "--out", tmp_path / "b"]) == 2
        assert "lambda_growth must be positive and finite" in capsys.readouterr().err


def test_validate_any_config_exits_cleanly(capsys):
    # validate converts every section, so each schema key is drawn from values
    # it accepts and, one time in five, from values of the wrong type or range
    hypothesis = pytest.importorskip("hypothesis")
    hs = hypothesis.strategies
    bad = hs.sampled_from([True, False, "1", None, math.nan, math.inf, -math.inf, -1, 0, 7.5,
                           10**30, 2**64, 1e308, 10**400, [], [1.0], [1.0, 2.0, 3.0], {}])

    def mostly(good, rare=bad):
        return hs.sampled_from([good] * 4 + [rare]).flatmap(lambda s: s)

    def section(**keys):
        given = hs.fixed_dictionaries({}, optional={k: mostly(v) for k, v in keys.items()})
        return mostly(given, given.map(lambda d: {**d, "bogus": 1}) | bad)

    count, real, flag = hs.integers(1, 64), hs.floats(0.1, 8.0), hs.booleans()
    pair, quad = hs.lists(real, min_size=2, max_size=2), hs.lists(real, min_size=4, max_size=4)
    # 3 to 5 knots, any B value of which may be 0: inside the table (the band
    # (ii) fails) or last (the hazard vanishes, so the model is invalid)
    table = hs.integers(3, 5).flatmap(lambda k: hs.fixed_dictionaries({
        "type": hs.just("table"),
        "a": mostly(hs.lists(real, min_size=k - 1, max_size=k - 1)
                    .map(lambda gaps: list(itertools.accumulate(gaps, initial=0.0)))),
        "B": mostly(hs.lists(hs.just(0.0) | real, min_size=k, max_size=k))}))
    hazard = hs.one_of(
        hs.fixed_dictionaries({"type": hs.just("constant"), "b": mostly(real)},
                              optional={"a_star": mostly(real)}),
        table)
    fragmentation = hs.one_of(
        hs.just({"type": "uniform"}),
        count.map(lambda k: {"type": "beta", "alpha": k, "beta": k}),
        hs.fixed_dictionaries({"type": hs.just("beta"), "alpha": mostly(real),
                               "beta": mostly(real)}),
        hs.fixed_dictionaries({"type": hs.just("table"), "rho": hs.just([0.0, 0.5, 1.0]),
                               "F": mostly(hs.just([0.0, 2.0, 0.0]) | quad)}))
    configs = hs.fixed_dictionaries({}, optional={
        "model": section(model_type=hs.just("adder"), lambda_growth=hs.floats(0.5, 2.0),
                         d0=hs.floats(0.0, 0.4), hazard=hazard, fragmentation=fragmentation),
        "grid": section(R=hs.floats(1.0, 16.0) | hs.lists(hs.floats(1.0, 16.0), max_size=3),
                        n=count),
        "sim": section(seed=hs.integers(0, 2**64 - 1), t_end=hs.floats(4.0, 8.0),
                       record_times=hs.lists(hs.floats(0.0, 4.0), max_size=4), cap=count,
                       replicates=count, x0=hs.tuples(real, real).map(sorted), snapshots=flag),
        "doeblin": section(compact=quad, Delta=real, domain=quad, grid_n=count),
        "drift": section(box=pair, grid_n=count, c=real, d=real),
        "stationary": section(y_max=real, n=count, box=pair,
                              bins=hs.lists(count, min_size=2, max_size=2), report=flag),
    })

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @hypothesis.given(mostly(configs, configs.map(lambda c: {**c, "bogus": {}})))
    @hypothesis.example({"model": {"fragmentation": {"type": "beta", "alpha": 1e300,
                                                     "beta": 1e300}}})
    @hypothesis.example({"model": {"hazard": {"type": "table", "a": [0.0, 1.0, 2.0],
                                              "B": [1.0, 0.0, 1.0]}}})
    @hypothesis.example({"model": {"hazard": {"type": "table", "a": [0.0, 1.0, 2.0],
                                              "B": [1.0, 1.0, 0.0]}}})
    def check(cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            reports = []
            for out in ("a", "b"):
                code = main(["validate", "--config", path, "--out", os.path.join(tmp, out)])
                err = capsys.readouterr().err
                assert code in (0, 1, 2)
                assert len(err.splitlines()) == (code != 0)
                report = Path(tmp, out, "validate_report.json")
                reports.append(report.read_bytes() if report.exists() else None)
            assert reports[0] == reports[1]
            assert not list(Path(tmp).rglob("*.partial"))

    check()


class TestThreads:
    def test_main_leaves_environ_unchanged(self, config, tmp_path):
        before = dict(os.environ)
        assert run(["validate", "--config", config, "--out", tmp_path / "t"]) == 0
        assert dict(os.environ) == before

    def test_threads_flag_rejected(self, config, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["validate", "--config", config, "--out", tmp_path / "t5", "--threads", 5])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_no_partial_files_left(self, config, tmp_path):
        out = tmp_path / "p"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        assert not [p for p in out.iterdir() if p.suffix == ".partial"]


def test_import_skips_scipy_integrate(tmp_path):
    # scipy.integrate costs ~0.2 s and ~24 MB to import, and no command uses
    # it; scipy.special (~0.3 s, ~25 MB) is imported only by Beta laws without
    # the polynomial form; the simulation engine is compiled on first use
    src = str(Path(malthus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    probe = ("import sys, malthus.cli\n"
             "def loaded():\n"
             "    print(sorted(m for m in sys.modules if m.startswith(('scipy.', 'malthus.'))))\n"
             "loaded()\n"
             "assert malthus.cli.main(sys.argv[1:]) == 0\n"
             "loaded()\n")
    out = subprocess.run([sys.executable, "-c", probe, "stationary", "--config", str(path),
                            "--out", str(tmp_path / "out")],
                           env=env, capture_output=True, text=True, check=True).stdout
    at_import, after_stationary = out.splitlines()
    assert "scipy.integrate" not in at_import and "scipy.special" not in at_import
    assert "malthus.engine" not in at_import and "malthus.streams" not in at_import
    assert "scipy.integrate" not in after_stationary


def test_import_skips_numpy_random():
    # numpy.random costs 10-14 ms to import; only simulate.individual_rng uses
    # it, and no command calls that
    src = str(Path(malthus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, malthus.cli\nprint('numpy.random' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]


def test_reference_config_runs_without_scipy(tmp_path):
    # integer Beta laws draw, and sum their tails, in numpy arithmetic
    src = str(Path(malthus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    path = tmp_path / "small.json"
    path.write_text(json.dumps({**SMALL, "sim": {"replicates": 4, "t_end": 2.0,
                                                 "record_times": [1.0, 2.0]}}))
    probe = ("import sys\n"
             "sys.modules['scipy'] = None  # any scipy import raises ImportError\n"
             "import malthus.cli\n"
             "for argv in sys.argv[1:]:\n"
             "    assert malthus.cli.main(argv.split()) == 0, argv\n")
    commands = [f"{command} --config {path} --out {tmp_path / command}" for command in
                ("eigen --R 2", "simulate", "stationary", "drift", "doeblin", "validate")]
    subprocess.run([sys.executable, "-c", probe, *commands], env=env, check=True)


@pytest.mark.parametrize("command", ["eigen --R 2", "simulate", "drift"])
def test_split_density_not_finite_exits_2_for_every_command(tmp_path, capsys, command):
    # eigen used to exit 3 after numpy's two-line overflow warning, and
    # simulate to exit 0 with a trajectory of that model
    path = tmp_path / "huge_beta.json"
    path.write_text(json.dumps({"model": {"fragmentation": {"type": "beta", "alpha": 1e300,
                                                            "beta": 1e300}}}))
    out = tmp_path / "out"
    assert run([*command.split(), "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("B", [[0.0, 0.0], [1.0, 1.0, 0.0]], ids=["all_zero", "last_zero"])
@pytest.mark.parametrize("command", ["validate", "eigen --R 2", "simulate", "stationary",
                                     "doeblin", "drift"])
def test_vanishing_hazard_exits_2_for_every_command(tmp_path, capsys, command, B):
    # drift used to print a ZeroDivisionError traceback for the first table;
    # on the second, eigen, simulate and stationary exited 1 naming their own
    # section, and doeblin exited 0
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps({"model": {"hazard": {"type": "table",
                                                     "a": list(range(len(B))), "B": B}}}))
    out = tmp_path / "out"
    assert run([*command.split(), "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("invalid model: (A1)")
    assert not out.exists()


@pytest.mark.parametrize("F", [
    {"type": "beta", "alpha": 2, "beta": 5},
    {"type": "table", "rho": [0.0, 0.2, 0.5, 1.0], "F": [0.0, 2.0, 0.2, 1.68]},
], ids=["beta25", "table"])
@pytest.mark.parametrize("command", ["validate", "eigen --R 2", "simulate", "stationary",
                                     "drift", "doeblin"])
def test_asymmetric_splits_exit_2_for_every_command(tmp_path, capsys, command, F):
    # the kernel (2/y) F(z/y) holds for symmetric F only: eigen, simulate and
    # doeblin used to exit 0 (Beta(2, 5): lambda_R = 0.509 against a
    # simulated 0.999), and validate exit 2 on the mean alone
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps({"model": {"fragmentation": F}}))
    out = tmp_path / "out"
    assert run([*command.split(), "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid model: (A2) fragmentation density must be symmetric: ")
    assert not out.exists()


@pytest.mark.parametrize("rho, F", [([0.1, 0.9], [1.25, 1.25]),
                                    ([0.0, 0.1, 0.9, 1.0], [10.0, 0.0, 0.0, 10.0])],
                         ids=["uniform_01_09", "v_shape"])
def test_symmetric_tables_with_rounded_mirrors_validate(tmp_path, capsys, rho, F):
    # 1 - r in floating point is not the mirrored knot of these laws; the
    # symmetry check must still accept them
    path = tmp_path / "symmetric.json"
    path.write_text(json.dumps({"model": {"fragmentation": {"type": "table", "rho": rho,
                                                             "F": F}}}))
    assert run(["validate", "--config", path, "--out", tmp_path / "out"]) == 0
    assert "(A2)" not in capsys.readouterr().err


def test_failed_drift_names_its_margin(tmp_path, capsys):
    # d = 0 leaves no offset for A V <= -c V + d; drift used to exit 5 silently
    path = tmp_path / "no_offset.json"
    path.write_text(json.dumps({"drift": {"d": 0.0, "grid_n": 8}}))
    out = tmp_path / "out"
    assert run(["drift", "--config", path, "--out", out]) == 5
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("drift failed: margin")
    assert json.loads((out / "drift_report.json").read_text())["pass"] is False


TABLE_HAZARD = {"type": "table", "a": [0.0, 1.0, 2.0, 4.0], "B": [0.5, 1.5, 2.0, 2.0]}


@pytest.mark.parametrize("model, drift, point", [
    # B = 0 below a_star: the margin at age 0 is 2 y - d
    ({**MODEL, "hazard": {"type": "constant", "b": 1.0, "a_star": 0.3}}, {"grid_n": 32},
     "(0, 10)"),
    # d = 4.01 is below the offset 4.9 of B(0) = 0.5
    ({**MODEL, "hazard": TABLE_HAZARD}, {"d": 4.01}, "(0, 4.375)"),
], ids=["dead_zone", "table_hazard"])
def test_drift_fails_at_the_hazards_extreme_age(tmp_path, capsys, model, drift, point):
    # both passed with exit 0 while the first age node was a_max / grid_n
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": model, "drift": drift}))
    out = tmp_path / "out"
    assert run(["drift", "--config", path, "--out", out]) == 5
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.rstrip().endswith(f"at (a, y) = {point}")
    rep = json.loads((out / "drift_report.json").read_text())
    assert rep["pass"] is False and rep["worst_point"][0] == 0.0


def test_drift_offset_spans_the_table_hazard(tmp_path):
    # the default offset took B.upper alone, d = 3.1, and the check failed at B = 0.5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {**MODEL, "hazard": TABLE_HAZARD}}))
    out = tmp_path / "out"
    assert run(["drift", "--config", path, "--out", out]) == 0
    rep = json.loads((out / "drift_report.json").read_text())
    assert rep["pass"] is True and rep["d"] == pytest.approx(4.9)
    assert rep["grid"] == [5, 64]


def test_csv_tables_match_per_value_formatting(tmp_path):
    def fmt(template, v):
        # the per-value formatting that each table's row template stands for
        return str(int(v)) if template == "%d" else format(v, ".17g")

    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300, 0.1 + 0.2, -1e300]
    counts = [0.0, 1.0, 7.0, 4096.0, 2.0**31, 2.0**53 - 1, 2.0**53]
    tables = [
        (["%d", "%.17g", "%.17g"],
         np.array([(c, v, -v) for c, v in zip(counts + counts[:1], special)])),
        (["%d", "%.17g"], np.column_stack((np.arange(4097.0), np.linspace(0.0, 1.0, 4097)))),
        (["%d", "%.17g"], np.empty((0, 2))),
        (["%.17g", "%d"], np.array([(0.1, 2.0**53)])),
    ]
    path = tmp_path / "tables.csv"
    _write_csv(str(path), ["c0", "c1", "c2"],
               ((",".join(t) + "\n", table) for t, table in tables))  # a generator
    expected = "c0,c1,c2\n" + "".join(
        ",".join(fmt(t, v) for t, v in zip(templates, row)) + "\n"
        for templates, table in tables for row in table.tolist())
    assert path.read_text() == expected
    assert expected.count("\n") == 1 + 8 + 4097 + 0 + 1


@pytest.mark.parametrize("clash", ["file_as_out", "artifact_is_a_directory"])
def test_unwritable_output_exits_1(config, tmp_path, capsys, clash):
    # --out naming a file used to end in a FileExistsError traceback
    out = tmp_path / "out"
    if clash == "file_as_out":
        out.write_text("keep")
    else:
        (out / "validate_report.json").mkdir(parents=True)
    assert run(["validate", "--config", config, "--out", out]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("cannot write output: ")
    assert not list(tmp_path.rglob("*.partial"))
    if clash == "file_as_out":
        assert out.read_text() == "keep"
    else:
        assert (out / "manifest.json").exists()


@pytest.mark.parametrize("argv, cfg", [
    (["--R", "4", "--R", "4.0000001"], {}),
    ([], {"grid": {"R": [4, 4.0000001]}}),
], ids=["flags", "config"])
def test_radii_with_one_file_name_exit_1(tmp_path, capsys, argv, cfg):
    # both wrote eigen_R4.json, which kept only the second radius's result
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": MODEL, **cfg}))
    out = tmp_path / "out"
    assert run(["eigen", "--config", path, "--out", out, *argv]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "grid.R: 4.0 and 4.0000001 both name eigen_R4.json" in err
    assert not out.exists()

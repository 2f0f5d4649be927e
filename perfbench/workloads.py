"""The four benchmark workloads: CLI configs, argv lists and output checks.

Every workload runs the reference adder (lambda = 1, B = 1, Beta(5, 5)
splits).  The seed goes into ``sim.seed``; ``spectral`` and ``certify`` do
not simulate, so their outputs do not depend on it.  Each check follows the
acceptance criterion it is named after, at the workload's size.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

ADDER = {"model_type": "adder", "lambda_growth": 1.0, "d0": 0.0,
         "hazard": {"type": "constant", "b": 1.0},
         "fragmentation": {"type": "beta", "alpha": 5, "beta": 5}}


def _config(seed, d0=0.0, **sections):
    return {"model": {**ADDER, "d0": d0}, **sections,
            "sim": {**sections.get("sim", {}), "seed": seed}}


def _argv(command, cfg_path, out, *extra):
    return [command, "--config", cfg_path, "--out", out, *extra]


def _read_json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _read_csv(out, name):
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


class Spectral:
    """``eigen --R 8``: 256 nodes at the spacing of the R = 16 grid."""

    name = "spectral"
    why = ("kernel assembly in the Malthus root find (renewal, eigen); "
           "runs no simulation or stationary code")

    def config(self, seed):
        return _config(seed)

    def argvs(self, cfg_path, out):
        return [_argv("eigen", cfg_path, out, "--R", "8")]

    def check(self, out, captured):
        res = _read_json(out, "eigen_R8.json")
        err = abs(res["lambda_R"] - 1.0)
        riders = {"lambda_err": err, "eigen_residual": res["residual"]}
        failures = []
        if not err < 1e-4:
            failures.append(f"|lambda_R - 1| = {err:.3e} >= 1e-4")
        if not res["residual"] < 1e-9:
            failures.append(f"eigen residual {res['residual']:.3e} >= 1e-9")
        return failures, riders


class Branching:
    """``simulate``: 100 replicates with deaths (d0 = 0.2) to t = 7."""

    name = "branching"
    why = ("few deep trees (~40k events, populations to ~600): per-event "
           "simulation cost plus ~57k CSV rows")
    rate = 0.8  # Lambda = lambda - d0

    def config(self, seed):
        return _config(seed, d0=0.2, sim={"t_end": 7.0, "record_times": list(range(8)),
                                          "replicates": 100, "snapshots": True})

    def argvs(self, cfg_path, out):
        return [_argv("simulate", cfg_path, out)]

    def check(self, out, captured):
        rows = _read_csv(out, "trajectory.csv")
        counts = {}
        for row in rows:
            counts.setdefault(float(row["t"]), []).append(float(row["count"]))
        t_fit = np.array([t for t in sorted(counts) if 4.0 <= t <= 7.0])
        mean = np.array([np.mean(counts[t]) for t in t_fit])
        failures = []
        if np.any(mean <= 0):
            return ["mean count vanished in the fitting window"], {}
        slope = float(np.polyfit(t_fit, np.log(mean), 1)[0])
        err = abs(slope - self.rate) / self.rate
        if not err < 0.05:
            failures.append(f"Lambda_hat = {slope:.4f} is not within 5% of {self.rate}")
        if not os.path.getsize(os.path.join(out, "snapshots.csv")) > 0:
            failures.append("snapshots.csv is empty")
        return failures, {"lambda_hat": slope, "lambda_hat_rel_err": err}


class Ergodic:
    """``stationary`` with ``report: true``: eta*, pi* and 2000 replicates to t = 3."""

    name = "ergodic"
    why = ("many short replicates (~19 events each) plus the eta* fixed point: "
           "the simulate layer used the other way round")

    def config(self, seed):
        return _config(seed, stationary={"report": True},
                       sim={"t_end": 3.0, "record_times": [1.0, 2.0, 3.0],
                            "replicates": 2000})

    def argvs(self, cfg_path, out):
        return [_argv("stationary", cfg_path, out)]

    def check(self, out, captured):
        dist = [float(r["distance"]) for r in _read_csv(out, "decay.csv")]
        profile = captured["solve_eta_star"]
        mass = profile.pi_mass
        failures = []
        if not all(b < a for a, b in zip(dist, dist[1:])):
            failures.append(f"decay.csv is not strictly decreasing: {dist}")
        if not profile.residual < 1e-8:
            failures.append(f"eta* residual {profile.residual:.3e} >= 1e-8")
        if not abs(mass - 1.0) < 1e-6:
            failures.append(f"pi* mass {mass!r} is not within 1e-6 of 1")
        return failures, {"eta_residual": profile.residual, "pi_mass_err": abs(mass - 1.0),
                          "final_distance": dist[-1]}


class Certify:
    """``drift`` on a 32 x 32 grid, then ``doeblin`` with its defaults."""

    name = "certify"
    why = ("Foster-Lyapunov drift and the Doeblin minorant (generator, jump "
           "integral); runs no simulation or kernel assembly")

    def config(self, seed):
        return _config(seed, drift={"grid_n": 32})

    def argvs(self, cfg_path, out):
        return [_argv("drift", cfg_path, out), _argv("doeblin", cfg_path, out)]

    def check(self, out, captured):
        drift = _read_json(out, "drift_report.json")
        minorant = _read_json(out, "minorant_constants.json")
        failures = []
        if drift["pass"] is not True:
            failures.append(f"drift check failed, worst margin {drift['worst_margin']:.3e}")
        if not math.isclose(drift["d"], 3.2, rel_tol=1e-9):
            failures.append(f"drift offset d = {drift['d']!r}, expected 3.2")
        if not minorant["mass"] > 0:
            failures.append(f"minorant mass {minorant['mass']!r} is not positive")
        return failures, {"drift_worst_margin": drift["worst_margin"],
                          "minorant_mass": minorant["mass"]}


WORKLOADS = {w.name: w for w in (Spectral(), Branching(), Ergodic(), Certify())}

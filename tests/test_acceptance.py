"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
per-test verdicts of ``pytest -v`` carry the same information.  Heavy
artifacts (eigen runs, simulations, the stationary profile) are shared
through session-scoped fixtures so the suite stays inside its time budgets.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from malthus import (BetaFragmentation, ConstantHazard, EigenResult,
                     FirstJumpLaw, KernelAssembler, PhasePoint, SimConfig,
                     SizeGrid, TableHazard, UniformFragmentation, check_drift,
                     doeblin_minorant, empirical_profile, ergodicity_report,
                     estimate_malthus, generator_consistency_check,
                     individual_rng, make_adder, reconstruct_h, run_replicates,
                     sample_division_age, skeleton_mc_density, solve_eta_star,
                     spectral_value, weighted_tv)
from malthus.cli import main
from malthus.simulate import division_age_cdf


def verdict(n, ok, detail):
    print(f"[acceptance {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def run_config(tmp_path_factory):
    cfg = {
        "model": {
            "model_type": "adder",
            "lambda_growth": 1.0,
            "d0": 0.0,
            "hazard": {"type": "constant", "b": 1.0},
            "fragmentation": {"type": "beta", "alpha": 5, "beta": 5},
        },
    }
    path = tmp_path_factory.mktemp("acceptance") / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="session")
def eigen16(run_config, tmp_path_factory):
    """cmd_eigen at R = 16, 512 nodes; returns (EigenResult, elapsed seconds)."""
    out = tmp_path_factory.mktemp("eigen16")
    t0 = time.monotonic()
    rc = main(["eigen", "--config", str(run_config), "--out", str(out), "--R", "16"])
    elapsed = time.monotonic() - t0
    assert rc == 0
    payload = json.loads((out / "eigen_R16.json").read_text())
    grid = SizeGrid.uniform(16.0, 512)
    assert np.allclose(grid.nodes, payload["grid"])
    result = EigenResult(
        R=payload["R"], lambda_R=payload["lambda_R"],
        lambda_malthus=payload["lambda_malthus"], mu=payload["mu"],
        eta=np.asarray(payload["eta"]), nu_dual=np.asarray(payload["nu"]),
        residual=payload["residual"], kr_factor=payload["kr_factor"],
        nu_eta=payload["nu_eta"], grid=grid,
    )
    return result, elapsed


@pytest.fixture(scope="session")
def eigen_small(run_config, tmp_path_factory):
    """cmd_eigen at R = 4 and R = 8 (node spacing matching the R = 16 run)."""
    out = tmp_path_factory.mktemp("eigen_small")
    rc = main(["eigen", "--config", str(run_config), "--out", str(out),
               "--R", "4", "--R", "8"])
    assert rc == 0
    rows = (out / "eigen_summary.csv").read_text().splitlines()[1:]
    return {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}


@pytest.fixture(scope="session")
def eta_profile(adder):
    return solve_eta_star(adder)


@pytest.fixture(scope="session")
def ergodic_runs(adder):
    """Two initial conditions, 20000 replicates each, recorded at t = 1, 2, 3."""
    out = {}
    for label, x0, seed in [("A", PhasePoint(0.0, 1.0), 1),
                            ("B", PhasePoint(0.1, 1.1), 2)]:
        cfg = SimConfig(seed=seed, t_end=3.0, record_times=[1.0, 2.0, 3.0],
                        replicates=20000)
        out[label] = run_replicates(adder, x0, cfg)
    return out


def test_criterion_01_adder_eigenpair(eigen16, adder, law):
    result, elapsed = eigen16
    lam_ok = abs(result.lambda_R - 1.0) < 0.01
    ratios = []
    for a in np.linspace(0.0, 4.0, 5):
        for y in np.linspace(0.5, 4.0, 5):
            ratios.append(reconstruct_h(result, adder, PhasePoint(a, y), law) / y)
    ratios = np.asarray(ratios)
    const_ok = (ratios.max() - ratios.min()) / ratios.mean() < 0.02
    time_ok = elapsed < 120.0
    verdict(1, lam_ok and const_ok and time_ok,
            f"lambda_R={result.lambda_R:.6f}, h/y spread="
            f"{(ratios.max() - ratios.min()) / ratios.mean():.2e}, "
            f"runtime={elapsed:.1f}s")


def test_criterion_02_boundary_eigenfunction(eigen16):
    result, _ = eigen16
    ys = np.linspace(0.25, 8.0, 64)
    ratio = np.interp(ys, result.grid.nodes, result.eta) / ys
    ok = bool(np.all((ratio >= 0.99) & (ratio <= 1.01)))
    verdict(2, ok, f"eta(y)/y in [{ratio.min():.5f}, {ratio.max():.5f}] on [0.25, 8]")


def test_criterion_03_monotonicities(assembler_r8, eigen16, eigen_small):
    mus = [spectral_value(assembler_r8, lam)[0] for lam in (0.0, 0.5, 1.0, 2.0)]
    decreasing = all(a > b + 1e-10 for a, b in zip(mus, mus[1:]))
    lam_by_R = dict(eigen_small)
    lam_by_R[16.0] = eigen16[0].lambda_R
    lams = [lam_by_R[R] for R in (4.0, 8.0, 16.0)]
    nondecreasing = all(b >= a - 1e-10 for a, b in zip(lams, lams[1:]))
    mu0 = mus[0] > 1.0
    verdict(3, decreasing and nondecreasing and mu0,
            f"mu(lam)={np.round(mus, 6).tolist()}, lambda_R={np.round(lams, 6).tolist()}")


def test_criterion_04_generator_residual():
    model = make_adder(1.0, ConstantHazard(1.0), BetaFragmentation(5, 5), d0=0.2)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        a, y = rng.uniform(0.0, 4.0), rng.uniform(0.1, 8.0)
        q = model.apply_generator(lambda A, Y: Y, a, y, fd_step=1e-6)
        worst = max(worst, abs(q - 0.8 * y) / y)
    verdict(4, worst < 1e-6, f"max |Qh - Lambda h|/h = {worst:.2e} over 1000 points")


def test_criterion_05_drift_bound(run_config, tmp_path_factory, adder,
                                  adder_uniform):
    outs = {}
    for label, model_cfg in [("beta", None), ("uniform", {"type": "uniform"})]:
        cfg = json.loads(run_config.read_text())
        if model_cfg:
            cfg["model"]["fragmentation"] = model_cfg
        path = tmp_path_factory.mktemp("drift") / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path_factory.mktemp(f"drift_{label}")
        rc = main(["drift", "--config", str(path), "--out", str(out)])
        outs[label] = (rc, json.loads((out / "drift_report.json").read_text()))
    beta_ok = outs["beta"][0] == 0 and outs["beta"][1]["pass"] \
        and outs["beta"][1]["d"] == pytest.approx(3.2)
    unif_ok = outs["uniform"][0] == 0 and outs["uniform"][1]["pass"] \
        and outs["uniform"][1]["d"] == pytest.approx(4.0)
    shrunk = [check_drift(adder, grid_n=32, d=0.75 * 3.2).passed,
              check_drift(adder_uniform, grid_n=32, d=0.75 * 4.0).passed]
    verdict(5, beta_ok and unif_ok and not any(shrunk),
            f"margins: beta={outs['beta'][1]['worst_margin']:.2e}, "
            f"uniform={outs['uniform'][1]['worst_margin']:.2e}; "
            f"25% shrink violates: {not any(shrunk)}")


def test_criterion_06_malthus_estimation(adder_d0):
    cfg = SimConfig(seed=42, t_end=4.0, record_times=[0.5 * i for i in range(9)],
                    replicates=500)
    t0 = time.monotonic()
    runs = run_replicates(adder_d0, PhasePoint(0.0, 1.0), cfg)
    est, se = estimate_malthus(runs)
    elapsed = time.monotonic() - t0
    rerun = run_replicates(adder_d0, PhasePoint(0.0, 1.0), cfg)
    identical = all(a.event_log == b.event_log for a, b in zip(runs, rerun))
    ok = abs(est - 0.8) / 0.8 < 0.05 and elapsed < 300.0 and identical
    verdict(6, ok, f"Lambda_hat={est:.4f} (+/-{se:.4f}), runtime={elapsed:.1f}s, "
            f"bit-identical rerun={identical}")


def test_criterion_07_division_age_law():
    hazards = {
        "constant": ConstantHazard(1.0),
        "tabulated": TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0]),
    }
    pvals = {}
    for label, hz in hazards.items():
        model = make_adder(1.0, hz, BetaFragmentation(5, 5))
        rng = individual_rng(123, 0, 0)
        x = PhasePoint(0.0, 1.0)
        samples = np.array([sample_division_age(model, x, rng)
                            for _ in range(100_000)])
        pvals[label] = stats.kstest(
            samples, lambda a: division_age_cdf(model, x, a)).pvalue
    ok = all(p > 0.01 for p in pvals.values())
    verdict(7, ok, "KS p-values: " +
            ", ".join(f"{k}={v:.3f}" for k, v in pvals.items()))


def test_criterion_08_kolmogorov_consistency(adder):
    fs = {"1": lambda a, y: 1.0, "y": lambda a, y: y, "y^2": lambda a, y: y * y}
    reports = generator_consistency_check(adder, fs, PhasePoint(0.2, 1.0),
                                          dt=0.01, replicates=100_000, seed=7)
    ok = all(abs(r.z_score) < 3.0 for r in reports)
    verdict(8, ok, "z-scores: " +
            ", ".join(f"{r.f_label}={r.z_score:.2f}" for r in reports))


def test_criterion_09_stationary_profile(adder, eta_profile, ergodic_runs):
    t0 = time.monotonic()
    residual_ok = eta_profile.residual < 1e-8
    mass_ok = abs(eta_profile.pi_mass - 1.0) < 1e-6
    rep = ergodicity_report(ergodic_runs["A"], eta_profile, adder)
    decreasing = bool(np.all(np.diff(rep.distances) < 0.0))
    final_ok = rep.distances[-1] < 0.1
    pA = empirical_profile(ergodic_runs["A"], 2, (4.0, 6.0), (20, 20))
    pB = empirical_profile(ergodic_runs["B"], 2, (4.0, 6.0), (20, 20))
    agree = weighted_tv(pA, pB)
    elapsed = time.monotonic() - t0
    ok = residual_ok and mass_ok and decreasing and final_ok and agree < 0.1 \
        and elapsed < 600.0
    verdict(9, ok,
            f"residual={eta_profile.residual:.1e}, pi* mass={eta_profile.pi_mass:.8f}, "
            f"distances={np.round(rep.distances, 4).tolist()}, "
            f"IC agreement={agree:.4f}, analysis time={elapsed:.1f}s")


def test_eta_star_is_spectral_dual_density(eigen16, eta_profile):
    # eta*(z) = c z nu_R(z), with nu_R = nu / weights the density of the dual
    # eigenvector of G at lambda_R: the analytic and the spectral path agree
    result, _ = eigen16
    grid = result.grid
    sel = (grid.nodes >= 0.1) & (grid.nodes <= 6.0)
    spectral = grid.nodes[sel] * result.nu_dual[sel] / grid.weights[sel]
    eta = eta_profile(grid.nodes[sel])
    c = float(np.dot(eta, spectral) / np.dot(spectral, spectral))  # least squares
    err = float(np.max(np.abs(eta - c * spectral)) / np.max(np.abs(eta)))
    assert err < 5e-4, f"relative sup distance {err:.2e} with c = {c:.4f}"


def test_criterion_10_doeblin_minorant(adder):
    frs = [("uniform", UniformFragmentation()),
           ("beta(5,5)", BetaFragmentation(5, 5)),
           ("beta(20,20)", BetaFragmentation(20, 20))]
    compact = (0.0, 1.0, 1.0, 2.0)
    # 16x16 cells over [0, 2]^2; evaluate nu at the cell centers
    edges = np.linspace(0.0, 2.0, 17)
    half = (edges[1] - edges[0]) / 2.0
    domain = (edges[0] + half, edges[-1] - half, edges[0] + half, edges[-1] - half)
    masses = {}
    below = True
    for label, F in frs:
        model = make_adder(1.0, ConstantHazard(1.0), F)
        nu, consts = doeblin_minorant(model, compact, grid_n=16, domain=domain)
        masses[label] = nu.mass
        est, se = skeleton_mc_density(model, PhasePoint(0.5, 1.5), consts.Delta,
                                      consts.j_star, 0.5, edges, edges,
                                      n_samples=20000, seed=11)
        below = below and bool(np.all(nu.values <= est.values + 3.0 * se.values))
    vals = [masses[k] for k, _ in frs]
    ordered = vals[0] > vals[1] > vals[2] > 0.0
    verdict(10, ordered and below,
            "masses: " + ", ".join(f"{k}={masses[k]:.2e}" for k, _ in frs)
            + f"; pointwise below MC estimate: {below}")

"""Principal eigenpair of the truncated renewal operator and the Malthus root.

The spectral value mu(lam) of G_lam^R is strictly decreasing in lam; the
Malthus candidate lambda_R is the unique root of mu(lam) = 1, found by
safeguarded Newton on log mu.  Power iteration supplies the leading
eigenfunction eta (boundary profile, normalized eta(1) = 1) and the dual
measure nu (mass 1); first-order perturbation of the simple eigenvalue gives
the Newton slope dmu/dlam = <nu, (dG/dlam) eta> / <nu, eta>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, NoConvergence
from .model import ModelSpec, PhasePoint
from .renewal import (FirstJumpLaw, KernelAssembler, KernelMatrix, SizeGrid,
                      kernel_row, leak_mass)

RAYLEIGH_TOL = 1e-12
#: bound on the relative eigen residual max|G eta - mu eta| / max|eta|
EIGEN_RESIDUAL_TOL = 1e-9
ROOT_TOL = 1e-10
MAX_POWER_ITERS = 100_000
MAX_ROOT_STEPS = 100
#: the root find's first bracket is [0, LAM_HI]; it never evaluates mu above
#: LAM_CAP * max(lambda_growth, 1)
LAM_HI = 4.0
LAM_CAP = 100.0
#: Newton starts WARM_START_OFFSET below lambda_growth, the exact root of the
#: untruncated operator for every model ``make_adder`` accepts.  The offset lies
#: above the truncation error of lambda_R (-2.9e-5 at R = 8, +1.3e-6 at R = 16 on
#: the CLI grids), so Newton starts below the root and climbs, and below
#: renewal.SERIES_RADIUS / t_max (about 9.6e-4, t_max = 6.8 on the CLI grids),
#: so every step stays within the series of the first kernel pass
WARM_START_OFFSET = 5e-4
#: bound on the orbit rule's mass error (``OrbitRule.mass_error``)
ROW_MASS_TOL = 1e-8


@dataclass
class EigenResult:
    """Principal-eigenpair summary at the Malthus candidate lambda_R.

    ``eta`` uses the boundary normalization eta(1) = 1; multiplying by
    ``kr_factor`` recovers the Krein-Rutman scaling <nu, eta> = 1.
    ``lambda_malthus`` subtracts the model's constant death rate.
    ``diagnostics`` holds the root find's trace of (lam, mu, dmu/dlam) per
    mu evaluation, each with the centre lam0 of the kernel pass its matrix
    was expanded from, the evaluation count, the number of direct kernel
    passes (``kernel_passes``) and how they contract a row (``kernel_pass``,
    ``"suffix"`` or ``"direct"``: ``KernelAssembler``), the final bracket
    [lo, hi], the mass error of the rows' orbit rule (``row_mass_error``),
    the closed-form Euler-Lotka residual at (lambda_R, y = 1), an
    independent check of the root, and the first lam of the trace (``start``).
    """

    R: float
    lambda_R: float
    lambda_malthus: float
    mu: float
    eta: np.ndarray
    nu_dual: np.ndarray
    residual: float
    kr_factor: float
    nu_eta: float
    grid: SizeGrid
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "R": self.R,
            "lambda_R": self.lambda_R,
            "lambda_malthus": self.lambda_malthus,
            "mu": self.mu,
            "residual": self.residual,
            "kr_factor": self.kr_factor,
            "nu_eta": self.nu_eta,
            "grid": self.grid.nodes.tolist(),
            "eta": self.eta.tolist(),
            "nu": self.nu_dual.tolist(),
            "diagnostics": self.diagnostics,
        }


def leading_eigen(matrix: KernelMatrix):
    """Power-iterate G and its adjoint; returns (mu, eta, nu_dual, residual).

    Normalization order: nu has total mass 1; eta is scaled so <nu, eta> = 1
    and then rescaled to eta(1) = 1 (the Krein-Rutman factor is recoverable
    from the returned vectors; mu is unaffected by scaling).  Raises
    NoConvergence when the eigen residual exceeds EIGEN_RESIDUAL_TOL: a
    settled Rayleigh quotient does not prove a converged eigenvector.
    """
    grid = matrix.grid
    positive = grid.nodes > 0
    v = np.where(positive, grid.nodes, 0.0)
    mu_old = math.inf
    for it in range(MAX_POWER_ITERS):
        w = matrix.apply(v)
        num = grid.integrate(v * w)
        den = grid.integrate(v * v)
        mu = num / den
        v = w / np.max(np.abs(w))
        if abs(mu - mu_old) < RAYLEIGH_TOL * max(1.0, abs(mu)):
            break
        mu_old = mu
    else:
        raise NoConvergence(f"power iteration: {MAX_POWER_ITERS} iterations, mu drift {abs(mu - mu_old):.2e}")
    eta = np.clip(v, 0.0, None)

    u = np.where(positive, 1.0, 0.0)
    nu_old = math.inf
    for it in range(MAX_POWER_ITERS):
        s = matrix.adjoint_apply(u)
        total = float(np.sum(s))
        u = s / total
        if abs(total - nu_old) < RAYLEIGH_TOL * max(1.0, abs(total)):
            break
        nu_old = total
    else:
        raise NoConvergence("adjoint power iteration did not converge")
    nu = np.clip(u, 0.0, None)
    nu /= np.sum(nu)

    # scale so <nu, eta> = 1 first, then pin the anchor node eta(1) = 1
    eta = eta / float(np.dot(nu, eta))
    i1 = grid.index_of(1.0)
    if eta[i1] <= 0:
        raise NoConvergence("eigenfunction vanishes at the anchor node y = 1")
    eta = eta / eta[i1]
    residual = float(np.max(np.abs(matrix.apply(eta) - mu * eta)) / np.max(np.abs(eta)))
    if not residual <= EIGEN_RESIDUAL_TOL:
        raise NoConvergence(f"power iteration stalled: eigen residual {residual:.2e} "
                            f"> {EIGEN_RESIDUAL_TOL:g}")
    return float(mu), eta, nu, residual


def spectral_value(assembler: KernelAssembler, lam: float):
    """(mu, dmu/dlam, eta, nu, residual, centre) at lam: the leading
    eigenvalue of G_lam^R, its slope by first-order perturbation from the
    eigenpair and the derivative matrix, the next three as ``leading_eigen``
    returns them, and the centre of the kernel pass the matrix came from.
    """
    matrix = assembler.matrix(lam)
    mu, eta, nu, residual = leading_eigen(matrix)
    dmu = float(np.dot(nu, matrix.derivative_apply(eta))) / float(np.dot(nu, eta))
    return mu, dmu, eta, nu, residual, matrix.centre


def solve_malthus(assembler: KernelAssembler) -> EigenResult:
    """Root of mu(lam) = 1 by safeguarded Newton.

    mu is decreasing and log-convex in lam (every entry of G_lam is a
    positive mixture of exponentials e^{-lam t}), so Newton on
    log mu(lam) = 0, started where mu > 1, climbs to the root without
    overshooting; started where mu < 1, it overshoots below the root once.
    [lo, hi] is kept from the signs of mu - 1.  A step leaving it falls back
    to testing lam = 0 while no point with mu > 1 is known, then to
    bisection once a point with mu < 1 is known, and before that to testing
    hi itself and doubling it.  BracketFailure is raised if mu(0) <= 1, or
    before mu would be evaluated above the cap.  The result holds the
    eigenpair and residual of the last of the mu evaluations.

    Newton starts WARM_START_OFFSET below lambda_growth, the root of the
    untruncated operator (at 0 if that is negative, at the cap if that is
    lower), so the start lies within the offset plus the truncation error of
    lambda_R, and on the CLI grids every step takes G from the lam-series
    of one kernel pass.

    NoConvergence is raised first if the rows' orbit rule misses the
    first-jump mass by more than ROW_MASS_TOL: every row shares that rule,
    so its error would bias every entry of G alike.
    """
    model = assembler.model
    mass_error = assembler.law.orbit_rule(0.0).mass_error
    if not mass_error <= ROW_MASS_TOL:
        raise NoConvergence(f"orbit rule mass error {mass_error:.2e} > {ROW_MASS_TOL:g}")
    passes = assembler.passes
    cap = LAM_CAP * max(model.lambda_growth, 1.0)
    lam = min(max(model.lambda_growth - WARM_START_OFFSET, 0.0), cap)
    lo, hi = 0.0, LAM_HI
    while hi <= lam:
        hi *= 2.0
    lo_seen = hi_seen = False  # whether mu(lo) > 1 and mu(hi) < 1 have been observed
    trace = []
    last = None  # (eta, nu, residual) of the last evaluation

    def evaluate(lam):
        nonlocal last
        mu, dmu, *last, centre = spectral_value(assembler, lam)
        trace.append({"lam": lam, "mu": mu, "dmu": dmu, "centre": centre})
        if mu <= 1.0 and lam == 0.0:
            raise BracketFailure(f"mu(0) = {mu:.6f} <= 1: no positive root")
        return mu, dmu

    mu, dmu = evaluate(lam)
    for _ in range(MAX_ROOT_STEPS):
        if abs(mu - 1.0) < ROOT_TOL:
            break
        if mu > 1.0:
            lo, lo_seen = lam, True
        else:
            hi, hi_seen = lam, True
        if lo_seen and hi - lo < 1e-15:
            raise NoConvergence(f"Malthus bracket collapsed at lam = {lam!r} "
                                f"with |mu - 1| = {abs(mu - 1.0):.2e}")
        step = lam - math.log(mu) * mu / dmu if dmu < 0.0 else math.inf
        if lo < step < min(hi, cap):
            lam = step
        elif not lo_seen:
            lam = 0.0
        elif hi_seen:
            lam = 0.5 * (lo + hi)
        elif hi > cap:
            raise BracketFailure(f"no spectral sign change for lam in [0, {cap:g}]")
        else:
            lam, hi = hi, 2.0 * hi
        mu, dmu = evaluate(lam)
    else:
        raise NoConvergence("Malthus root find exhausted its iteration budget")

    eta, nu, residual = last
    return EigenResult(
        R=assembler.grid.R,
        lambda_R=float(lam),
        lambda_malthus=float(lam) - model.d0,
        mu=mu,
        eta=eta,
        nu_dual=nu,
        residual=residual,
        kr_factor=1.0 / float(np.dot(nu, eta)) if np.dot(nu, eta) > 0 else math.nan,
        nu_eta=float(np.dot(nu, eta)),
        grid=assembler.grid,
        diagnostics={"mu_evals": len(trace), "kernel_passes": assembler.passes - passes,
                     "kernel_pass": assembler.kernel_pass, "trace": trace, "bracket": [lo, hi],
                     "row_mass_error": mass_error,
                     "euler_lotka_residual": euler_lotka_residual(model, lam, assembler.law),
                     "start": trace[0]["lam"]},
    )


# ---------------------------------------------------------------------------
# Euler-Lotka residual
# ---------------------------------------------------------------------------


def euler_lotka_residual(model: ModelSpec, lam: float, law: FirstJumpLaw) -> float:
    """2 m_s * (first-jump mass) - 1, with m_s = E[rho^s], s = lam / lambda_growth.

    This is C_(0,y) * E[exp(lam * (int_y^Z ds/g2(0,s) - T))] - 1 at the
    first jump from any y under any hazard: the orbit time from y to the
    jump size u is log(u / y) / lambda_growth, so the factor (u / y)^s
    e^{-lam t} is 1 and only the moment of order s is left.  It checks the
    moment condition 2 E[rho^s] = 1, whose root is lambda_growth exactly
    when the splits are symmetric; it equals 1 at lam = 0.

    The moment is a sum on the law's ``rule(256)``.  It weighs the moment with
    the orbit rule's mass, so it cannot detect an error of that rule;
    ``OrbitRule.mass_error`` (``row_mass_error``) does.
    """
    rho, w = model.fragmentation.rule(256)
    m_s = float(np.sum(w * rho**(lam / model.lambda_growth)))
    return 2.0 * m_s * float(np.sum(law.orbit_rule(0.0).w)) - 1.0


# ---------------------------------------------------------------------------
# Eigenfunction reconstruction on the full state space
# ---------------------------------------------------------------------------


def reconstruct_h(result: EigenResult, model: ModelSpec, x: PhasePoint,
                  law: FirstJumpLaw | None = None) -> float:
    """h_R(a, y) = int_0^R eta(z) K_{lambda_R}^R((a, y), z) dz.

    At boundary points (0, y) this reproduces eta(y) up to quadrature error.
    """
    law = law or FirstJumpLaw(model)
    grid = result.grid
    q = law.row_quadrature(x)
    coef = q.w * np.exp(-result.lambda_R * q.t)
    kvals = kernel_row(model, q, grid.nodes)
    above = leak_mass(model.fragmentation, q.u, grid.R)
    row = coef @ kvals + float(np.dot(coef, above)) / grid.R
    return float(np.dot(grid.weights, row * result.eta))

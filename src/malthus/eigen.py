"""Principal eigenpair of the truncated renewal operator and the Malthus root.

The spectral value mu(lam) of G_lam^R is strictly decreasing in lam; the
Malthus candidate lambda_R is the unique root of mu(lam) = 1, found by
safeguarded Newton on log mu.  Power iteration supplies the leading
eigenfunction eta (boundary profile, normalized eta(1) = 1) and the dual
measure nu (mass 1); first-order perturbation of the simple eigenvalue gives
the Newton slope dmu/dlam = <nu, (dG/dlam) eta> / <nu, eta>.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BracketFailure, NoConvergence
from .model import ModelSpec, PhasePoint
from .renewal import FirstJumpLaw, KernelAssembler, KernelMatrix, SizeGrid

RAYLEIGH_TOL = 1e-12
#: bound on the relative eigen residual max|G eta - mu eta| / max|eta|
EIGEN_RESIDUAL_TOL = 1e-9
ROOT_TOL = 1e-10
MAX_POWER_ITERS = 100_000
MAX_ROOT_STEPS = 100


@dataclass
class EigenResult:
    """Principal-eigenpair summary at the Malthus candidate lambda_R.

    ``eta`` uses the boundary normalization eta(1) = 1; multiplying by
    ``kr_factor`` recovers the Krein-Rutman scaling <nu, eta> = 1.
    ``lambda_malthus`` subtracts the model's constant death rate.
    ``diagnostics`` holds the root find's trace of (lam, mu, dmu/dlam) per
    mu evaluation, the evaluation count and the final bracket [lo, hi].
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

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def leading_eigen(matrix: KernelMatrix, start: np.ndarray | None = None,
                  tol: float = RAYLEIGH_TOL, max_iters: int = MAX_POWER_ITERS):
    """Power-iterate G and its adjoint; returns (mu, eta, nu_dual).

    Normalization order: nu has total mass 1; eta is scaled so <nu, eta> = 1
    and then rescaled to eta(1) = 1 (the Krein-Rutman factor is recoverable
    from the returned vectors; mu is unaffected by scaling).  Raises
    NoConvergence when the eigen residual exceeds EIGEN_RESIDUAL_TOL: a
    settled Rayleigh quotient does not prove a converged eigenvector.
    """
    grid = matrix.grid
    positive = grid.nodes > 0
    v = np.where(positive, grid.nodes, 0.0) if start is None else np.array(start, dtype=float)
    if np.all(v == 0):
        raise ValueError("starting vector must be nonnegative and nonzero")
    mu_old = math.inf
    for it in range(max_iters):
        w = matrix.apply(v)
        num = grid.integrate(v * w)
        den = grid.integrate(v * v)
        mu = num / den
        v = w / np.max(np.abs(w))
        if abs(mu - mu_old) < tol * max(1.0, abs(mu)):
            break
        mu_old = mu
    else:
        raise NoConvergence(f"power iteration: {max_iters} iterations, mu drift {abs(mu - mu_old):.2e}")
    eta = np.clip(v, 0.0, None)

    u = np.where(positive, 1.0, 0.0)
    nu_old = math.inf
    for it in range(max_iters):
        s = matrix.adjoint_apply(u)
        total = float(np.sum(s))
        u = s / total
        if abs(total - nu_old) < tol * max(1.0, abs(total)):
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
    residual = _eigen_residual(matrix, mu, eta)
    if not residual <= EIGEN_RESIDUAL_TOL:
        raise NoConvergence(f"power iteration stalled: eigen residual {residual:.2e} "
                            f"> {EIGEN_RESIDUAL_TOL:g}")
    return float(mu), eta, nu


def _eigen_residual(matrix: KernelMatrix, mu: float, eta: np.ndarray) -> float:
    return float(np.max(np.abs(matrix.apply(eta) - mu * eta)) / np.max(np.abs(eta)))


def spectral_value(assembler: KernelAssembler, lam: float, slope: bool = False,
                   eigenpair: bool = False):
    """mu(lam), the leading eigenvalue of G_lam^R.

    With ``slope=True`` returns (mu, dmu/dlam), the slope taken by
    first-order perturbation from the eigenpair and the derivative matrix;
    with ``eigenpair=True`` returns (mu, dmu/dlam, eta, nu), the vectors as
    ``leading_eigen`` returns them.
    """
    matrix = assembler.matrix(lam)
    mu, eta, nu = leading_eigen(matrix)
    if not (slope or eigenpair):
        return mu
    dmu = float(np.dot(nu, matrix.derivative_apply(eta))) / float(np.dot(nu, eta))
    return (mu, dmu, eta, nu) if eigenpair else (mu, dmu)


def solve_malthus(assembler: KernelAssembler, bracket=(0.0, 4.0),
                  lam_cap: float | None = None) -> EigenResult:
    """Root of mu(lam) = 1 by safeguarded Newton from ``bracket[0]``.

    mu is decreasing and log-convex in lam (every entry of G_lam is a
    positive mixture of exponentials e^{-lam t}), so Newton on
    log mu(lam) = 0, started where mu > 1, climbs to the root without
    overshooting.  [lo, hi] is kept from the signs of mu - 1; a step leaving
    it falls back to bisection once a point with mu < 1 is known, and before
    that to testing hi itself and doubling it.  BracketFailure is raised
    before mu is ever evaluated above ``lam_cap``.
    """
    model = assembler.model
    cap = lam_cap if lam_cap is not None else 100.0 * max(model.lambda_growth, 1.0)
    lo, hi = float(bracket[0]), float(bracket[1])
    hi_seen = False  # whether mu(hi) < 1 has been observed
    trace = []
    eta = nu = None  # eigenpair of the last evaluation, reused at the root

    def evaluate(lam):
        nonlocal eta, nu
        mu, dmu, eta, nu = spectral_value(assembler, lam, eigenpair=True)
        trace.append({"lam": lam, "mu": mu, "dmu": dmu})
        return mu, dmu

    lam = lo
    mu, dmu = evaluate(lam)
    while mu <= 1.0 and lo > 0.0:
        hi, hi_seen = lo, mu < 1.0
        lam = lo = max(0.0, lo / 2.0 - 0.1)
        mu, dmu = evaluate(lam)
    if mu <= 1.0:
        raise BracketFailure(f"mu({lo:g}) = {mu:.6f} <= 1: no root below")

    for _ in range(MAX_ROOT_STEPS):
        if abs(mu - 1.0) < ROOT_TOL:
            break
        if mu > 1.0:
            lo = lam
        else:
            hi, hi_seen = lam, True
        if hi - lo < 1e-15:
            raise NoConvergence(f"Malthus bracket collapsed at lam = {lam!r} "
                                f"with |mu - 1| = {abs(mu - 1.0):.2e}")
        step = lam - math.log(mu) * mu / dmu if dmu < 0.0 else math.inf
        if lo < step < min(hi, cap):
            lam = step
        elif hi_seen:
            lam = 0.5 * (lo + hi)
        elif hi > cap:
            raise BracketFailure(f"no spectral sign change for lam in [0, {cap:g}]")
        else:
            lam, hi = hi, 2.0 * hi
        mu, dmu = evaluate(lam)
    else:
        raise NoConvergence("Malthus root find exhausted its iteration budget")

    matrix = assembler.matrix(lam)
    return EigenResult(
        R=assembler.grid.R,
        lambda_R=float(lam),
        lambda_malthus=float(lam) - model.d0,
        mu=mu,
        eta=eta,
        nu_dual=nu,
        residual=_eigen_residual(matrix, mu, eta),
        kr_factor=1.0 / float(np.dot(nu, eta)) if np.dot(nu, eta) > 0 else math.nan,
        nu_eta=float(np.dot(nu, eta)),
        grid=assembler.grid,
        diagnostics={"mu_evals": len(trace), "trace": trace, "bracket": [lo, hi]},
    )


# ---------------------------------------------------------------------------
# Euler-Lotka residual
# ---------------------------------------------------------------------------


def _orbit_time_integral(model: ModelSpec, y: float, z, n_quad: int = 96):
    """int_y^z ds / g2(0, s), vectorized in z (sign carries direction)."""
    if model.is_adder:
        return np.log(np.asarray(z, dtype=float) / y) / model.lambda_growth
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    x, w = leggauss(n_quad)
    out = np.empty_like(zz)
    for i, zi in enumerate(zz):
        mid, half = 0.5 * (zi + y), 0.5 * (zi - y)
        s = mid + half * x
        out[i] = float(np.sum(half * w / model.g2(np.zeros_like(s), s)))
    return out if np.ndim(z) else float(out[0])


def euler_lotka_residual(model: ModelSpec, lam: float, y: float,
                         law: FirstJumpLaw | None = None, n_rho: int = 256) -> float:
    """C_(0,y) * E[exp(lam * (int_y^Z ds/g2(0,s) - T))] - 1 at the first jump.

    Vanishes at the Malthus exponent; equals C - 1 at lam = 0.
    """
    law = law or FirstJumpLaw(model)
    q = law.row_quadrature(PhasePoint(0.0, float(y)))
    coef = q.w * np.exp(-lam * q.t)
    x, w = leggauss(n_rho)
    rho = 0.5 * (x + 1.0)
    wr = 0.5 * w
    if model.is_adder:
        s = lam / model.lambda_growth
        frag = model.fragmentation
        m_s = float(np.sum(wr * frag.pdf(rho) * rho**s))
        inner = 2.0 * m_s * (q.u / y) ** s
    else:
        inner = np.empty_like(q.u)
        for i, ui in enumerate(q.u):
            zz = rho * ui
            kv = model.kernel_density(0.0, ui, zz)
            inner[i] = float(np.sum(wr * ui * kv * np.exp(lam * _orbit_time_integral(model, y, zz))))
    return float(np.dot(coef, inner)) - 1.0


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
    z = grid.nodes
    ratio = z[None, :] / q.u[:, None]
    if model.is_adder:
        kvals = (2.0 / q.u)[:, None] * model.fragmentation.pdf(ratio)
        above = np.where(
            q.u > grid.R,
            2.0 * (1.0 - model.fragmentation.cdf(np.minimum(grid.R / q.u, 1.0))),
            0.0,
        )
    else:
        kvals = np.empty_like(ratio)
        above = np.empty_like(q.u)
        for r, ui in enumerate(q.u):
            kvals[r] = model.kernel_density(0.0, ui, z)
            above[r] = model.kernel_mass_above(0.0, ui, grid.R)
    row = coef @ kvals + float(np.dot(coef, above)) / grid.R
    return float(np.dot(grid.weights, row * result.eta))

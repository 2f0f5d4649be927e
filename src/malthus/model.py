"""Structured-population models: rates, kernels, assumption checks, h-transform.

A model couples a deterministic growth field g = (g1, g2) on phase points
x = (a, y) (age/added size, current size) with a division rate
beta(x) = g1(x) * B(x) and an offspring kernel k(x, z) giving the size
density of newborns.  The adder model specialises to g = (lam*y, lam*y),
B = B(a) and the fragmentation kernel k(a, y, z) = (2/y) F(z/y) 1{z <= y}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .errors import InvalidModel, NonPositiveH

MOMENT_TOL = 1e-8
DENSITY_RENORM_TOL = 1e-6


@dataclass(frozen=True)
class PhasePoint:
    """A state (a, y): age or added size, and current size."""

    a: float
    y: float

    def __post_init__(self):
        if not (self.a >= 0.0):
            raise ValueError(f"age must be nonnegative, got {self.a}")
        if not (self.y > 0.0):
            raise ValueError(f"size must be positive, got {self.y}")

    def as_tuple(self):
        return (self.a, self.y)


# ---------------------------------------------------------------------------
# Hazards (the "age hazard rate" B, per unit added size in the adder scaling)
# ---------------------------------------------------------------------------


class ConstantHazard:
    """B(a) = b for a >= a_star, 0 below; closed-form cumulative and inverse."""

    def __init__(self, b: float, a_star: float = 0.0):
        if b <= 0:
            raise ValueError("hazard level must be positive")
        if a_star < 0:
            raise ValueError("a_star must be nonnegative")
        self.b = float(b)
        self.a_star = float(a_star)
        self.lower = float(b)
        self.upper = float(b)

    def __call__(self, a):
        a = np.asarray(a, dtype=float)
        out = np.where(a >= self.a_star, self.b, 0.0)
        return out if out.ndim else float(out)

    def cumulative(self, a):
        a = np.asarray(a, dtype=float)
        out = self.b * np.maximum(a - self.a_star, 0.0)
        return out if out.ndim else float(out)

    def inverse_cumulative(self, H):
        H = np.asarray(H, dtype=float)
        out = self.a_star + H / self.b
        return out if out.ndim else float(out)


class TableHazard:
    """Piecewise-linear B(a) from knots; constant beyond the last knot.

    The cumulative hazard is the exact integral of the interpolant, inverted
    numerically with a Newton polish.
    """

    def __init__(self, a_knots: Sequence[float], B_values: Sequence[float]):
        a = np.asarray(a_knots, dtype=float)
        B = np.asarray(B_values, dtype=float)
        if a.ndim != 1 or a.shape != B.shape or a.size < 2:
            raise ValueError("need matching 1-D knot arrays with >= 2 entries")
        if np.any(np.diff(a) <= 0):
            raise ValueError("hazard knots must be strictly increasing")
        if np.any(B < 0):
            raise ValueError("hazard values must be nonnegative")
        if a[0] > 0:
            # extend flat to 0 so the cumulative integral starts at the origin
            a = np.concatenate([[0.0], a])
            B = np.concatenate([[B[0]], B])
        self.a_knots = a
        self.B_values = B
        # dead zone implied by leading zero hazard values, if any
        pos_idx = np.flatnonzero(B > 0)
        self.a_star = float(a[pos_idx[0] - 1]) if pos_idx.size and pos_idx[0] > 0 else 0.0
        pos = B[B > 0]
        self.lower = float(pos.min()) if pos.size else 0.0
        self.upper = float(B.max())
        # exact prefix integral of the piecewise-linear interpolant
        seg = 0.5 * (B[1:] + B[:-1]) * np.diff(a)
        self._H_knots = np.concatenate([[0.0], np.cumsum(seg)])

    def __call__(self, a):
        a = np.asarray(a, dtype=float)
        out = np.interp(a, self.a_knots, self.B_values)
        return out if out.ndim else float(out)

    def cumulative(self, a):
        a = np.asarray(a, dtype=float)
        knots, B, H = self.a_knots, self.B_values, self._H_knots
        # exact integral: quadratic within each linear segment
        i = np.clip(np.searchsorted(knots, a, side="right") - 1, 0, knots.size - 2)
        t = np.clip(a, knots[0], knots[-1]) - knots[i]
        slope = (B[i + 1] - B[i]) / (knots[i + 1] - knots[i])
        inside = H[i] + B[i] * t + 0.5 * slope * t * t
        # beyond the table, extrapolate with the final constant level
        out = inside + B[-1] * np.maximum(a - knots[-1], 0.0)
        return out if out.ndim else float(out)

    def inverse_cumulative(self, H):
        H = np.asarray(H, dtype=float)
        scalar = H.ndim == 0
        H = np.atleast_1d(H)
        out = np.interp(H, self._H_knots, self.a_knots)
        over = H > self._H_knots[-1]
        if np.any(over):
            if self.B_values[-1] <= 0:
                raise ValueError("cumulative hazard saturates; cannot invert beyond table")
            out[over] = self.a_knots[-1] + (H[over] - self._H_knots[-1]) / self.B_values[-1]
        # Newton polish against the exact cumulative
        for _ in range(5):
            f = self.cumulative(out) - H
            d = np.maximum(self(out), 1e-300)
            out = out - f / d
        return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Fragmentation densities F on [0, 1]
# ---------------------------------------------------------------------------


class UniformFragmentation:
    """F = 1 on [0, 1]."""

    name = "uniform"

    def pdf(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.where((rho >= 0) & (rho <= 1), 1.0, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.clip(rho, 0.0, 1.0)
        return out if out.ndim else float(out)

    def moment(self, k: int) -> float:
        return 1.0 / (k + 1)

    def sample(self, rng, n):
        return rng.random(n)

    def sample_size_biased(self, rng, n):
        # density 2*rho on [0,1]
        return np.sqrt(rng.random(n))


class BetaFragmentation:
    """F given by a Beta(alpha, beta) density; symmetric choices have m1 = 1/2.

    The cdf and the inverse-cdf draws are the regularised incomplete beta
    function and its inverse, called directly: scipy's ``stats.beta`` uses
    the same routines, at a large per-call overhead.
    """

    def __init__(self, alpha: float, beta: float):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.name = f"beta({alpha},{beta})"
        self._log_norm = float(special.betaln(self.alpha, self.beta))

    def pdf(self, rho):
        # direct evaluation: much faster than stats.beta.pdf on large grids
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        inside = (rho > 0.0) & (rho < 1.0)
        x = rho[inside]
        out[inside] = np.exp((self.alpha - 1.0) * np.log(x)
                             + (self.beta - 1.0) * np.log1p(-x) - self._log_norm)
        return out if np.ndim(out) else float(out)

    def cdf(self, rho):
        out = special.betainc(self.alpha, self.beta, np.clip(rho, 0.0, 1.0))
        return out if np.ndim(out) else float(out)

    def moment(self, k: int) -> float:
        m = 1.0
        for j in range(k):
            m *= (self.alpha + j) / (self.alpha + self.beta + j)
        return m

    def sample(self, rng, n):
        return special.betaincinv(self.alpha, self.beta, rng.random(n))

    def sample_size_biased(self, rng, n):
        # rho * Beta(a, b) density is proportional to Beta(a + 1, b)
        return special.betaincinv(self.alpha + 1.0, self.beta, rng.random(n))


class TableFragmentation:
    """Tabulated F on [0, 1]; renormalised when the quadrature mass drifts."""

    name = "table"

    def __init__(self, rho_knots: Sequence[float], F_values: Sequence[float]):
        rho = np.asarray(rho_knots, dtype=float)
        F = np.asarray(F_values, dtype=float)
        if rho.ndim != 1 or rho.shape != F.shape or rho.size < 2:
            raise ValueError("need matching 1-D knot arrays with >= 2 entries")
        if rho.min() < 0 or rho.max() > 1 or np.any(np.diff(rho) <= 0):
            raise ValueError("fragmentation knots must increase within [0, 1]")
        if np.any(F < 0):
            raise ValueError("fragmentation density must be nonnegative")
        m0 = float(np.trapezoid(F, rho))
        if abs(m0 - 1.0) > DENSITY_RENORM_TOL:
            raise InvalidModel(
                f"(A2) tabulated fragmentation density has mass {m0:.8f}, "
                f"more than {DENSITY_RENORM_TOL:g} away from 1"
            )
        self.rho_knots = rho
        self.F_values = F / m0
        seg = 0.5 * (self.F_values[1:] + self.F_values[:-1]) * np.diff(rho)
        self._cdf_knots = np.concatenate([[0.0], np.cumsum(seg)])
        biased = self.F_values * rho
        segb = 0.5 * (biased[1:] + biased[:-1]) * np.diff(rho)
        cb = np.concatenate([[0.0], np.cumsum(segb)])
        self._biased_cdf = cb / cb[-1] if cb[-1] > 0 else cb

    def pdf(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.where(
            (rho >= self.rho_knots[0]) & (rho <= self.rho_knots[-1]),
            np.interp(rho, self.rho_knots, self.F_values),
            0.0,
        )
        return out if out.ndim else float(out)

    def cdf(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.interp(rho, self.rho_knots, self._cdf_knots)
        out = np.where(rho >= self.rho_knots[-1], 1.0, np.where(rho <= self.rho_knots[0], 0.0, out))
        return out if out.ndim else float(out)

    def moment(self, k: int) -> float:
        return float(np.trapezoid(self.rho_knots**k * self.F_values, self.rho_knots))

    def sample(self, rng, n):
        return np.interp(rng.random(n), self._cdf_knots, self.rho_knots)

    def sample_size_biased(self, rng, n):
        return np.interp(rng.random(n), self._biased_cdf, self.rho_knots)


@dataclass(frozen=True)
class MomentTable:
    """First three moments of the fragmentation density F."""

    m0: float
    m1: float
    m2: float

    @classmethod
    def of(cls, fragmentation) -> "MomentTable":
        return cls(fragmentation.moment(0), fragmentation.moment(1), fragmentation.moment(2))


# ---------------------------------------------------------------------------
# ModelSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model description; all operations are pure.

    For ``model_type == "adder"`` the growth field, rate and kernel are
    derived from (lambda_growth, hazard, fragmentation, d0).  For
    ``"general"`` the user supplies g1_fn, g2_fn, B_fn and kernel_fn.
    """

    model_type: str
    lambda_growth: float
    d0: float
    hazard: object | None = None
    fragmentation: object | None = None
    a_star: float = 0.0
    beta_minus: float = 0.0
    beta_plus: float = math.inf
    K_bar: float = 2.0
    c0: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    # general-model fields
    g1_fn: Optional[Callable] = None
    g2_fn: Optional[Callable] = None
    B_fn: Optional[Callable] = None
    kernel_fn: Optional[Callable] = None
    kernel_mass_fn: Optional[Callable] = None
    kernel_support_fn: Optional[Callable] = None

    @property
    def is_adder(self) -> bool:
        return self.model_type == "adder"

    # -- growth field --------------------------------------------------

    def g1(self, a, y):
        if self.is_adder:
            return self.lambda_growth * np.asarray(y, dtype=float)
        return self.g1_fn(a, y)

    def g2(self, a, y):
        if self.is_adder:
            return self.lambda_growth * np.asarray(y, dtype=float)
        return self.g2_fn(a, y)

    # -- division ------------------------------------------------------

    def B(self, a, y):
        if self.is_adder:
            return self.hazard(a)
        return self.B_fn(a, y)

    def beta(self, a, y):
        return self.g1(a, y) * self.B(a, y)

    # -- offspring kernel ------------------------------------------------

    def kernel_density(self, a, y, z):
        """k(a, y, z): offspring size density (total mass = mean offspring)."""
        if self.is_adder:
            z = np.asarray(z, dtype=float)
            out = np.where(
                (z > 0) & (z <= y), (2.0 / y) * self.fragmentation.pdf(np.minimum(z / y, 1.0)), 0.0
            )
            return out if out.ndim else float(out)
        return self.kernel_fn(a, y, z)

    def kernel_mass(self, a, y):
        if self.is_adder:
            return 2.0 * self.fragmentation.moment(0)
        return self.kernel_mass_fn(a, y)

    def kernel_mass_above(self, a, y, R):
        """Integral of k(a, y, .) above R (the truncation leak)."""
        if self.is_adder:
            if y <= R:
                return 0.0
            return 2.0 * (1.0 - self.fragmentation.cdf(R / y))
        lo, hi = self.kernel_support(a, y)
        if hi <= R:
            return 0.0
        zz, ww = _gl_nodes(max(R, lo), hi, 64)
        return float(np.sum(ww * self.kernel_fn(a, y, zz)))

    def kernel_support(self, a, y):
        if self.is_adder:
            return (0.0, float(y))
        if self.kernel_support_fn is not None:
            return self.kernel_support_fn(a, y)
        return (0.0, math.inf)

    # -- generator -------------------------------------------------------

    def jump_integral(self, f, a, y, n_quad: int = 128):
        """Integral of f(0, z) k((a, y), z) dz."""
        if self.is_adder:
            rho, w = _gl_nodes(0.0, 1.0, n_quad)
            return 2.0 * float(np.sum(w * self.fragmentation.pdf(rho) * f(0.0, rho * y)))
        lo, hi = self.kernel_support(a, y)
        zz, ww = _gl_nodes(lo, hi, n_quad)
        vals = np.array([f(0.0, z) for z in np.atleast_1d(zz)])
        return float(np.sum(ww * self.kernel_fn(a, y, zz) * vals))

    def apply_generator(self, f, a, y, fd_step=None, grad=None, n_quad: int = 128):
        """Q f at (a, y): transport + branching jump term - d0 * f.

        The gradient is taken from ``grad(a, y) -> (fa, fy)`` when supplied,
        otherwise by central finite differences with the default step
        1e-6 * (1 + |coordinate|).
        """
        if grad is not None:
            fa, fy = grad(a, y)
        else:
            ha = fd_step if fd_step is not None else 1e-6 * (1.0 + abs(a))
            hy = fd_step if fd_step is not None else 1e-6 * (1.0 + abs(y))
            fa = (f(a + ha, y) - f(a - ha, y)) / (2.0 * ha)
            fy = (f(a, y + hy) - f(a, y - hy)) / (2.0 * hy)
        transport = self.g1(a, y) * fa + self.g2(a, y) * fy
        jump = self.beta(a, y) * (self.jump_integral(f, a, y, n_quad) - f(a, y))
        return transport + jump - self.d0 * f(a, y)


def _gl_nodes(lo, hi, n):
    x, w = leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def make_adder(lambda_growth, B, F, d0=0.0, *, c_margin=4.0) -> ModelSpec:
    """Adder model: g = (lam*y, lam*y), beta = lam*y*B(a), children (rho*y, (1-rho)*y).

    ``B`` is a hazard object (ConstantHazard/TableHazard) or a plain positive
    number (constant hazard).  ``F`` is a fragmentation density object.
    The flow-control constants default to multiples of lambda_growth; they
    only matter for diagnostics (Gronwall envelopes, Doeblin bounds).
    """
    if lambda_growth <= 0:
        raise InvalidModel("lambda_growth must be positive")
    if isinstance(B, (int, float)):
        B = ConstantHazard(float(B))
    return ModelSpec(
        model_type="adder",
        lambda_growth=float(lambda_growth),
        d0=float(d0),
        hazard=B,
        fragmentation=F,
        a_star=getattr(B, "a_star", 0.0),
        beta_minus=B.lower,
        beta_plus=B.upper,
        K_bar=2.0 * F.moment(0),
        c0=float(lambda_growth),
        c1=float(c_margin * lambda_growth),
        c2=float(c_margin * lambda_growth),
    )


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)
    grid: tuple = ()

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "all_passed": self.all_passed,
            "grid": list(self.grid),
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }


def validate(model: ModelSpec, box=(8.0, 8.0), grid_n: int = 64) -> ValidationReport:
    """Check the model assumptions on a sampling grid over [0, box]^2.

    Structural violations (nonpositive hazard bound, fragmentation mean away
    from 1/2, adder death rate >= elongation rate) raise InvalidModel naming
    the first violated assumption; soft sampled conditions are reported
    pass/fail.
    """
    report = ValidationReport(grid=(grid_n, grid_n))
    a_max, y_max = box

    if model.is_adder:
        if model.beta_minus <= 0:
            raise InvalidModel("(A1) hazard lower bound must be positive")
        frag = model.fragmentation
        m = MomentTable.of(frag)
        if abs(m.m0 - 1.0) > DENSITY_RENORM_TOL:
            raise InvalidModel(f"(A2) fragmentation mass m0 = {m.m0:.8f} != 1")
        if abs(m.m1 - 0.5) > MOMENT_TOL:
            raise InvalidModel(f"(A2) fragmentation mean m1 = {m.m1:.8f} != 1/2")
        if not (model.lambda_growth > model.d0):
            raise InvalidModel(
                f"(A3) requires lambda_growth > d0, got {model.lambda_growth} <= {model.d0}"
            )
        report.add("(A1) hazard bounds", True, f"[{model.beta_minus:g}, {model.beta_plus:g}]")
        report.add("(A2) moments", m.m2 <= 0.5 + MOMENT_TOL, f"m1={m.m1:.10f}, m2={m.m2:.10f}")
        report.add("(A3) growth vs death", True, f"lambda={model.lambda_growth:g} > d0={model.d0:g}")
    else:
        if model.beta_minus <= 0:
            raise InvalidModel("(ii) beta_minus must be positive")
        if model.a_star <= 0:
            raise InvalidModel("(ii) general models need a minimal division age a_star > 0")

    aa = np.linspace(1e-3, a_max, grid_n)
    yy = np.linspace(1e-3, y_max, grid_n)
    A, Y = np.meshgrid(aa, yy, indexing="ij")

    g1 = np.asarray(model.g1(A, Y), dtype=float)
    report.add("(i) g1 > 0", bool(np.all(g1 > 0)), "growth in the age coordinate is positive")
    g2_origin = np.asarray(model.g2(np.zeros_like(yy), yy), dtype=float)
    g2 = np.asarray(model.g2(A, Y), dtype=float)
    report.add(
        "(i) g2(a,y) <= g2(0,y)",
        bool(np.all(g2 <= g2_origin[None, :] + 1e-12)),
        "size growth maximal at age 0",
    )

    Bv = np.asarray(model.B(A, Y), dtype=float)
    above = A > model.a_star
    ok_band = np.all((Bv[above] > model.beta_minus * (1 - 1e-12)) & (Bv[above] < model.beta_plus * (1 + 1e-12)))
    ok_zero = np.all(Bv[~above] == 0.0) if np.any(~above) else True
    report.add("(ii) hazard band", bool(ok_band and ok_zero), f"a_star={model.a_star:g}")

    # kernel mass 1 < ||k||_1 <= K_bar on a thinner grid (quadrature per point)
    ok_mass = True
    detail = ""
    for a in aa[:: max(1, grid_n // 8)]:
        for y in yy[:: max(1, grid_n // 8)]:
            mass = model.kernel_mass(a, y)
            if not (1.0 < mass <= model.K_bar + 1e-9):
                ok_mass = False
                detail = f"mass {mass:.6f} at ({a:.3f},{y:.3f})"
                break
        if not ok_mass:
            break
    report.add("(iii) offspring mass", ok_mass, detail or f"K_bar={model.K_bar:g}")

    return report


# ---------------------------------------------------------------------------
# Doob h-transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovModel:
    """Conservative jump-flow model obtained from an (approximate) eigenpair.

    Same flow as the base model; jumps at rate
    beta(x) * int h(0,z) k(x,z) dz / h(x) to a point (0, Z) with Z drawn from
    the h-weighted kernel.  There is no death term.
    """

    base: ModelSpec
    h: Callable
    lam: float

    def _h(self, a, y):
        v = self.h(a, y)
        if np.any(np.asarray(v) <= 0):
            raise NonPositiveH(f"h({a}, {y}) = {v} <= 0")
        return v

    def h_weighted_mass(self, a, y, n_quad: int = 128):
        return self.base.jump_integral(lambda _, z: self._h(0.0, z), a, y, n_quad)

    def jump_rate(self, a, y, n_quad: int = 128):
        return self.base.beta(a, y) * self.h_weighted_mass(a, y, n_quad) / self._h(a, y)

    def post_jump_density(self, a, y, z, n_quad: int = 128):
        norm = self.h_weighted_mass(a, y, n_quad)
        hz = np.asarray([self._h(0.0, zz) for zz in np.atleast_1d(z)], dtype=float)
        k = np.asarray(self.base.kernel_density(a, y, z), dtype=float)
        out = hz.reshape(k.shape) * k / norm
        return out if out.ndim else float(out)

    def sample_post_jump(self, a, y, rng, n_grid: int = 512):
        """Inverse-CDF sample of the post-jump size on the kernel support."""
        lo, hi = self.base.kernel_support(a, y)
        zz = np.linspace(lo, hi, n_grid)
        dens = np.asarray(self.post_jump_density(a, y, zz), dtype=float)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(zz))])
        cdf /= cdf[-1]
        return float(np.interp(rng.random(), cdf, zz))

    def apply_generator(self, f, a, y, fd_step=None, grad=None, n_quad: int = 128):
        """A f at (a, y) for the transformed (conservative) dynamics."""
        if grad is not None:
            fa, fy = grad(a, y)
        else:
            ha = fd_step if fd_step is not None else 1e-6 * (1.0 + abs(a))
            hy = fd_step if fd_step is not None else 1e-6 * (1.0 + abs(y))
            fa = (f(a + ha, y) - f(a - ha, y)) / (2.0 * ha)
            fy = (f(a, y + hy) - f(a, y - hy)) / (2.0 * hy)
        transport = self.base.g1(a, y) * fa + self.base.g2(a, y) * fy
        hx = self._h(a, y)
        weighted = self.base.jump_integral(
            lambda _, z: f(0.0, z) * self._h(0.0, z), a, y, n_quad
        )
        mass = self.h_weighted_mass(a, y, n_quad)
        jump = self.base.beta(a, y) * (weighted - f(a, y) * mass) / hx
        return transport + jump


def h_transform(model: ModelSpec, h: Callable, lam: float) -> MarkovModel:
    """Build the conservative model for an eigenpair candidate (lam, h).

    ``h`` must be strictly positive on the state space; positivity is
    enforced lazily at every queried point (NonPositiveH otherwise).
    """
    probe = h(0.5, 1.0)
    if np.any(np.asarray(probe) <= 0):
        raise NonPositiveH(f"h(0.5, 1.0) = {probe} <= 0")
    return MarkovModel(base=model, h=h, lam=float(lam))


# ---------------------------------------------------------------------------
# JSON configuration (External Interface)
# ---------------------------------------------------------------------------


def hazard_from_config(cfg: dict):
    kind = cfg.get("type", "constant")
    if kind == "constant":
        return ConstantHazard(cfg["b"], cfg.get("a_star", 0.0))
    if kind == "table":
        return TableHazard(cfg["a"], cfg["B"])
    raise InvalidModel(f"unknown hazard type {kind!r}")


def fragmentation_from_config(cfg: dict):
    kind = cfg.get("type", "uniform")
    if kind == "uniform":
        return UniformFragmentation()
    if kind == "beta":
        return BetaFragmentation(cfg["alpha"], cfg["beta"])
    if kind == "table":
        return TableFragmentation(cfg["rho"], cfg["F"])
    raise InvalidModel(f"unknown fragmentation type {kind!r}")


def model_from_config(cfg: dict) -> ModelSpec:
    """Build a ModelSpec from the `model` section of a run configuration."""
    model_type = cfg.get("model_type", "adder")
    if model_type != "adder":
        raise InvalidModel("only adder models can be built from configuration files")
    hazard = hazard_from_config(cfg.get("hazard", {"type": "constant", "b": 1.0}))
    frag = fragmentation_from_config(cfg.get("fragmentation", {"type": "beta", "alpha": 5, "beta": 5}))
    model = make_adder(
        cfg.get("lambda_growth", 1.0), hazard, frag, d0=cfg.get("d0", 0.0)
    )
    bounds = cfg.get("bounds")
    if bounds:
        model = ModelSpec(
            **{
                **model.__dict__,
                **{k: float(v) for k, v in bounds.items() if k in
                   ("c0", "c1", "c2", "beta_minus", "beta_plus", "K_bar", "a_star")},
            }
        )
    return model


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)

"""Stationary profile, drift verification and Doeblin minorant for the adder.

Contains: the boundary-profile fixed point eta* and the stationary density
pi*(a, y) = exp(-H(a)) / y^2 * eta*(y - a); weighted total-variation
distances with weight 1 + V, V(a, y) = 1/y + y; the Foster-Lyapunov drift
check A V <= -c V + d for the size-harmonic transform of the dynamics; and
the explicit minorant density nu assembled from compact-set constants
(one-jump lower bound of the transition kernel averaged over a skeleton).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (EmptyMinorantWarning, GridMismatch, InsufficientData,
                     InvalidModel, NoConvergence)
from .model import MarkovModel, ModelSpec, PhasePoint, gl_nodes, trapezoid_weights
from .renewal import FirstJumpLaw, HAZARD_CUTOFF, _graded_edges, _panel_nodes, _with_knots
from .simulate import Trajectory

#: grid points per generator call in check_drift; the jump integral holds a
#: few (points x JUMP_NODES) float arrays, so this bounds its memory at a few MB
DRIFT_BLOCK = 1024

#: observation box (a_max, y_max) and bins of ``pi_star.csv`` and the ergodicity report
PROFILE_BOX = (4.0, 6.0)
PROFILE_BINS = (20, 20)

#: largest |kappa - 1| solve_eta_star accepts, kappa being the pi*-mass of the
#: un-normalised sweep at the fixed point (-3.1e-5 on the default grid)
KAPPA_TOL = 1e-3
#: Gauss-Legendre panels of the pi*-mass weights, nodes per panel, and the
#: first positive panel edge of their geometric grading
MASS_PANELS = 24
MASS_NODES = 16
MASS_GRADE_LO = 1e-5


def default_V(a, y):
    """Coercive weight V = 1/y + y, the only one: ``drift_offset`` derives d for it."""
    y = np.asarray(y, dtype=float)
    out = 1.0 / y + y
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Density2D
# ---------------------------------------------------------------------------


@dataclass
class Density2D:
    """Nonnegative gridded function on (a, y) with trapezoid quadrature."""

    a_nodes: np.ndarray
    y_nodes: np.ndarray
    values: np.ndarray  # shape (len(a_nodes), len(y_nodes))

    def __post_init__(self):
        self.a_nodes = np.asarray(self.a_nodes, dtype=float)
        self.y_nodes = np.asarray(self.y_nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.a_nodes.size, self.y_nodes.size):
            raise ValueError("values shape must match the grid")
        self.weights = np.outer(trapezoid_weights(self.a_nodes),
                                trapezoid_weights(self.y_nodes))

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights * self.values))

    def same_grid(self, other: "Density2D") -> bool:
        return (self.a_nodes.shape == other.a_nodes.shape
                and self.y_nodes.shape == other.y_nodes.shape
                and np.allclose(self.a_nodes, other.a_nodes)
                and np.allclose(self.y_nodes, other.y_nodes))


def bin_centers(edges) -> np.ndarray:
    """Centers of the cells between consecutive bin ``edges``."""
    return 0.5 * (edges[:-1] + edges[1:])


def _histogram(a, y, a_edges, y_edges):
    """(counts of the points (a, y) in each cell of the edges, the cell areas)."""
    hist, _, _ = np.histogram2d(a, y, bins=[a_edges, y_edges])
    return hist, np.outer(np.diff(a_edges), np.diff(y_edges))


def weighted_tv(u: Density2D, v: Density2D) -> float:
    """Integral of (1 + V) |u - v| over the common grid, V = ``default_V``."""
    if not u.same_grid(v):
        raise GridMismatch("densities live on different grids")
    A, Y = np.meshgrid(u.a_nodes, u.y_nodes, indexing="ij")
    with np.errstate(divide="ignore"):
        w = 1.0 + np.asarray(default_V(A, Y), dtype=float)
    w = np.where(np.isfinite(w), w, 0.0)  # boundary nodes at y = 0 carry no weight
    return float(np.sum(u.weights * w * np.abs(u.values - v.values)))


# ---------------------------------------------------------------------------
# eta* fixed point and pi*
# ---------------------------------------------------------------------------


@dataclass
class EtaStarProfile:
    """Solution of the boundary renewal fixed point, pi*-mass normalized.

    ``kappa`` is the pi*-mass of the un-normalised sweep T eta* at the fixed
    point: 1 for the exact operator, off 1 where the grid truncates or
    under-resolves eta*.
    """

    s_nodes: np.ndarray
    values: np.ndarray
    residual: float
    sweeps: int
    kappa: float
    mass_weights: np.ndarray  # w(s) with pi* mass = int eta*(s) w(s) ds

    def __call__(self, s):
        out = np.interp(np.asarray(s, dtype=float), self.s_nodes, self.values,
                        left=0.0, right=0.0)
        return out if out.ndim else float(out)

    @property
    def pi_mass(self) -> float:
        return float(simpson_weights(self.s_nodes) @ (self.values * self.mass_weights))


def simpson_weights(s: np.ndarray) -> np.ndarray:
    """Weights w such that ``w @ y`` is scipy's ``simpson(y, x=s)``, s increasing.

    Composite Simpson on consecutive pairs of intervals, which may differ in
    length.  For an even number of nodes the last interval takes Cartwright's
    three-point correction, as scipy does; two nodes give the trapezoid.
    """
    n = s.size
    h = np.diff(s)
    w = np.zeros(n)
    if n == 2:
        w[:] = 0.5 * h[0]
        return w
    stop = n - 1 if n % 2 else n - 2  # Simpson pairs cover s[0 .. stop]
    h0, h1 = h[0:stop:2], h[1:stop:2]
    sixth = (h0 + h1) / 6.0
    w[0:stop:2] += sixth * (2.0 - h1 / h0)
    w[1:stop:2] += sixth * (h0 + h1) ** 2 / (h0 * h1)
    w[2:stop + 1:2] += sixth * (2.0 - h0 / h1)
    if n % 2 == 0:
        a, b = h[-2], h[-1]
        w[-1] += (2.0 * b * b + 3.0 * a * b) / (6.0 * (a + b))
        w[-2] += (b * b + 3.0 * a * b) / (6.0 * a)
        w[-3] -= b ** 3 / (6.0 * a * (a + b))
    return w


def _eta_operator(model: ModelSpec, s: np.ndarray, psi_vals: np.ndarray,
                  rho: np.ndarray, w_rho: np.ndarray):
    """Discrete sweep eta -> 2 int F(rho) (psi * eta)(s / rho) drho.

    The inner integral is a trapezoid convolution of psi and eta with the
    step of s, read at s_i / rho_r by linear interpolation and 0 past its
    grid.  The interpolation is tabulated once as an (n, len(rho)) array of
    left indices and two arrays of weights, each times 2 w_r F(rho_r) (0 past
    the grid), so a sweep is one convolution, two gathers and a sum over
    each row.
    """
    h = s[1] - s[0]
    n = s.size
    m = psi_vals.size + n - 1  # the length of the convolution
    u = s[:, None] / rho / h  # s_i / rho_r in steps of the grid
    left = np.minimum(u.astype(np.intp), m - 2)  # floors u >= 0; weighted 0 past the grid
    c = 2.0 * w_rho * model.fragmentation.pdf(rho)
    inside = u <= m - 1
    w_hi = np.where(inside, c * (u - left), 0.0)
    w_lo = np.where(inside, c - w_hi, 0.0)
    edge = 0.5 * h * psi_vals[:n]
    edge0 = 0.5 * h * psi_vals[0]
    gathered = np.empty(left.shape)

    def apply(eta):
        conv = np.convolve(psi_vals, eta)
        conv *= h
        # trapezoid end corrections of the convolution quadrature
        conv[:n] -= edge * eta[0]
        conv[:n] -= edge0 * eta
        # the indices are in range: "clip" only skips numpy's bounds-checked copy
        out = np.einsum("ij,ij->i", np.take(conv, left, out=gathered, mode="clip"), w_lo)
        return out + np.einsum("ij,ij->i", np.take(conv[1:], left, out=gathered, mode="clip"),
                               w_hi)

    return apply


def solve_eta_star(model: ModelSpec, y_max: float = 8.0, n: int = 1024) -> EtaStarProfile:
    """Fixed-point iteration for the boundary profile eta*, from eta0 = 1.

    Each sweep applies the renewal operator and renormalizes so the induced
    stationary density pi* has unit mass; iteration stops when successive
    sweeps differ by less than 1e-10 in sup norm (the renormalized sweep is
    the operator whose residual is reported), within 10,000 sweeps.  Raises
    ``NoConvergence`` when the un-normalised sweep at the fixed point moves
    pi*-mass by more than ``KAPPA_TOL``: the grid then cuts off or
    under-resolves eta*, whatever the residual.
    """
    if not (y_max > 0 and n >= 2):
        raise ValueError(f"y_max = {y_max!r} must be positive and n = {n!r} at least 2")
    hz = model.hazard
    s = np.linspace(0.0, y_max, n)
    h = s[1] - s[0]
    a_cut = float(hz.inverse_cumulative(HAZARD_CUTOFF))
    psi_grid = np.arange(0.0, y_max + a_cut + h, h)
    psi_vals = hz(psi_grid) * np.exp(-hz.cumulative(psi_grid))
    rho, w_rho = gl_nodes(0.0, 1.0, 256)
    apply_T = _eta_operator(model, s, psi_vals, rho, w_rho)
    mass_w = _pi_mass_weights(model, s, a_cut)
    mass_dot = simpson_weights(s) * mass_w

    def normalize(eta):
        m = float(mass_dot @ eta)
        if m <= 0:
            raise NoConvergence("profile iteration lost positivity")
        return eta / m

    eta = np.ones(n)
    eta[0] = 0.0
    eta = normalize(eta)
    for sweep in range(1, 10_001):
        new = normalize(apply_T(eta))
        diff = float(np.max(np.abs(new - eta)) / np.max(np.abs(new)))
        eta = new
        if diff < 1e-10:
            break
    else:
        raise NoConvergence(f"profile iteration: 10000 sweeps, diff {diff:.2e}")
    swept = apply_T(eta)
    kappa = float(mass_dot @ swept)
    if not abs(kappa - 1.0) <= KAPPA_TOL:
        raise NoConvergence(f"the sweep at the fixed point has pi* mass {kappa:.6g}, not 1: "
                            f"the grid y_max = {y_max!r}, n = {n!r} truncates or "
                            "under-resolves eta*")
    residual = float(np.max(np.abs(normalize(swept) - eta)) / np.max(np.abs(eta)))
    return EtaStarProfile(s_nodes=s, values=eta, residual=residual, sweeps=sweep,
                          kappa=kappa, mass_weights=mass_w)


def _pi_mass_weights(model: ModelSpec, s: np.ndarray, a_cut: float) -> np.ndarray:
    """w(s) = int_0^inf exp(-H(a)) / (s + a)^2 da = 1/s - int psi(a)/(s+a) da.

    Gauss-Legendre panels over [0, a_cut] integrate psi(a)/(s+a) at every
    positive node at once.  They are graded geometrically down to
    ``MASS_GRADE_LO``, which resolves the pole at a = -s for the smallest
    positive s, and break at the hazard's knots, where psi has a kink or a
    jump; w is 0 at s <= 0.
    """
    hz = model.hazard
    edges = _with_knots(_graded_edges(a_cut, MASS_PANELS, MASS_GRADE_LO), hz, 0.0, a_cut)
    a, w_a = _panel_nodes(edges, MASS_NODES)
    psi_w = hz(a) * np.exp(-hz.cumulative(a)) * w_a
    w = np.zeros_like(s)
    pos = s > 0
    sp = s[pos]
    w[pos] = 1.0 / sp - (1.0 / (sp[:, None] + a)) @ psi_w
    return w


def pi_star(profile: EtaStarProfile, model: ModelSpec, a, y):
    """Stationary density pi*(a, y) = exp(-H(a)) / y^2 * eta*(y - a)."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(
            (y > a) & (y > 0),
            np.exp(-model.hazard.cumulative(a)) / np.maximum(y, 1e-300) ** 2
            * profile(np.maximum(y - a, 0.0)),
            0.0,
        )
    return vals if vals.ndim else float(vals)


def pi_star_density(profile: EtaStarProfile, model: ModelSpec,
                    a_nodes, y_nodes) -> Density2D:
    A, Y = np.meshgrid(np.asarray(a_nodes, float), np.asarray(y_nodes, float),
                       indexing="ij")
    return Density2D(a_nodes, y_nodes, pi_star(profile, model, A, Y))


# ---------------------------------------------------------------------------
# Foster-Lyapunov drift
# ---------------------------------------------------------------------------


@dataclass
class DriftReport:
    c: float
    d: float
    worst_point: tuple
    worst_margin: float
    grid: tuple
    #: AV + cV - d on the grid, indexed [a, y]; not written to JSON
    margins: np.ndarray | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.worst_margin <= 1e-8 * (1.0 + abs(self.d))

    def to_dict(self):
        return {"c": self.c, "d": self.d, "pass": self.passed,
                "worst_margin": self.worst_margin,
                "worst_point": list(self.worst_point), "grid": list(self.grid)}


def drift_offset(model: ModelSpec) -> float:
    """Offset d = lam * (b_bar + 1 / (b_bar * (1 - 2 m2))) for V = 1/y + y, b_bar = B.upper."""
    m2 = model.fragmentation.moment(2)
    b_bar = model.hazard.upper
    if m2 >= 0.5:
        raise InvalidModel("drift offset needs m2 < 1/2")
    return model.lambda_growth * (b_bar + 1.0 / (b_bar * (1.0 - 2.0 * m2)))


def check_drift(model: ModelSpec, box=(10.0, 10.0), grid_n: int = 64,
                c: float | None = None, d: float | None = None) -> DriftReport:
    """Verify A V <= -c V + d, V = ``default_V``, on a grid of (0, box], A being
    the size-harmonic dynamics (ValueError for a box side <= 0 or grid_n < 1).

    The generator is applied numerically (finite-difference transport,
    quadrature jump term) to blocks of ``DRIFT_BLOCK`` grid points per call;
    the report records the worst margin max(AV + cV - d) and the first grid
    point (a-major order) attaining it.  A NaN margin anywhere is the worst
    margin, and fails the report.
    """
    if not (len(box) == 2 and min(box) > 0 and grid_n >= 1):
        raise ValueError(f"box = {tuple(box)!r} needs sides > 0 and grid_n = {grid_n!r} >= 1")
    markov = MarkovModel(model)
    c = model.lambda_growth if c is None else float(c)
    d = drift_offset(model) if d is None else float(d)
    aa = np.linspace(box[0] / grid_n, box[0], grid_n)
    yy = np.linspace(box[1] / grid_n, box[1], grid_n)
    A, Y = (g.ravel() for g in np.meshgrid(aa, yy, indexing="ij"))
    margin = np.empty(A.size)
    for lo in range(0, A.size, DRIFT_BLOCK):
        a, y = A[lo:lo + DRIFT_BLOCK], Y[lo:lo + DRIFT_BLOCK]
        margin[lo:lo + DRIFT_BLOCK] = (markov.apply_generator(default_V, a, y)
                                       + c * default_V(a, y) - d)
    k = int(np.argmax(margin))  # argmax stops at the first NaN
    return DriftReport(c=c, d=d, worst_point=(float(A[k]), float(Y[k])),
                       worst_margin=float(margin[k]), grid=(grid_n, grid_n),
                       margins=margin.reshape(grid_n, grid_n))


# ---------------------------------------------------------------------------
# Doeblin minorant
# ---------------------------------------------------------------------------


@dataclass
class DoeblinConstants:
    A0: float
    B0: float
    C0: float
    H0: float
    c1: float
    delta: float
    Delta: float
    j_star: int
    beta_tilde: float
    skeleton_factor: float
    mu_min: float
    mu_weights: np.ndarray

    def to_dict(self):
        return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.__dict__.items()}


def kernel_minorant_epsilon(model: ModelSpec, z, delta: float):
    """epsilon(z) = min over z' in [2z, 2z+delta] of F(z/z')/z'.

    Lower bound of the offspring kernel on the window D(z) = [2z, 2z+delta].
    """
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.zeros_like(zz)
    pos = zz > 0
    zi = zz[pos]
    eps = np.full_like(zi, np.inf)
    # one window offset at a time over all points keeps memory O(points); a
    # (points, 64) block needs ~8 MB of pdf temporaries on a 64^2 grid
    for t in np.linspace(0.0, 1.0, 64):
        zp = 2.0 * zi + delta * t
        eps = np.minimum(eps, model.fragmentation.pdf(zi / zp) / zp)
    out[pos] = eps
    return out if np.ndim(z) else float(out[0])


def doeblin_minorant(model: ModelSpec, compact, delta: float | None = None,
                     Delta: float | None = None, j_star: int | None = None,
                     domain=None, grid_n: int = 64):
    """Assemble the explicit minorant density nu over a (a, y) grid.

    ``compact`` is (a_lo, a_hi, y_lo, y_hi): the set of starting points the
    bound must hold for.  Every factor is a certified lower bound: survival
    and first-jump constants fitted as grid infima over the compact and the
    skeleton horizon, the kernel window minorant epsilon, the Jacobian
    envelope, and the sampling weights of the Delta-skeleton.  It is built for
    the transform h(a, y) = y, whose Malthus exponent is lambda_growth - d0.

    Returns (Density2D nu, DoeblinConstants).
    """
    a_lo, a_hi, y_lo, y_hi = (float(v) for v in compact)
    if not (0 <= a_lo <= a_hi and 0 < y_lo <= y_hi):
        raise ValueError(f"compact = {tuple(compact)!r} must satisfy "
                         "0 <= a_lo <= a_hi, 0 < y_lo <= y_hi")
    lam = model.lambda_growth
    lam_m = model.lambda_growth - model.d0
    law = FirstJumpLaw(model)

    delta = 3.0 * y_lo if delta is None else float(delta)
    Delta = delta if Delta is None else float(Delta)
    # a window or skeleton step <= 0, a zero horizon or a one-node grid gives a
    # minorant of mass 0, or a false one: the identity kernel has no density
    if not (delta > 0 and Delta > 0):
        raise ValueError(f"delta = {delta!r} and Delta = {Delta!r} must be positive")
    if not ((j_star is None or j_star >= 1) and grid_n >= 2):
        raise ValueError(f"j_star = {j_star!r} must be at least 1 and grid_n = {grid_n!r} "
                         "at least 2")

    if domain is None:
        domain = (0.0, y_hi, 0.0, y_hi)
    da_lo, da_hi, dy_lo, dy_hi = (float(v) for v in domain)
    if not (da_lo < da_hi and dy_lo < dy_hi):  # decreasing axes get negative weights
        raise ValueError(f"domain = {tuple(domain)!r} must satisfy da_lo < da_hi, dy_lo < dy_hi")
    a_nodes = np.linspace(da_lo, da_hi, grid_n)
    y_nodes = np.linspace(dy_lo, dy_hi, grid_n)

    # skeleton horizon: smallest j with j*Delta past the exit time of every
    # window D(z) = [2z, 2z+delta] reachable from the evaluation domain
    z_max = max(dy_hi - da_lo, y_lo)
    t_exit = math.log((2.0 * z_max + delta) / y_lo) / lam
    if j_star is None:
        j_star = min(64, max(1, math.ceil(t_exit / Delta)))
    horizon = j_star * Delta

    # one valid Gronwall rate for orbits leaving the compact: g1 = lam*y
    # with y(t) = y0 + a(t) - a0 <= y_hi + a(t) <= c1 (1 + a(t))
    c1 = lam * max(y_hi, 1.0)

    # fit (A0, B0) with psi(t|x) >= A0 exp(-B0 (1+t) e^{c1 t}) on the horizon;
    # psi in one call on axes [a0, y0, t]: 16 x 16 starting points x 128 times
    tt = np.linspace(0.0, horizon, 128)
    a0 = np.linspace(a_lo, a_hi, 16)[:, None, None]
    y0 = np.linspace(y_lo, y_hi, 16)[:, None]
    psi = law.jump_time_density(a0, y0, tt)
    m_t = psi.min(axis=(0, 1))
    # C0: sup of (int z k(phi^t x, z) dz = 2 m1 y_t) psi e^{-lam_m t} / y0; a
    # starting point with a NaN anywhere on the horizon does not count
    hk = 2.0 * model.fragmentation.moment(1) * (y0 * np.exp(lam * tt))
    c0_x = np.max(hk * psi * np.exp(-lam_m * tt) / y0, axis=-1)
    C0 = max(float(np.fmax.reduce(c0_x, axis=None, initial=0.0)), 1e-300)
    H0 = y_hi
    if np.any(m_t <= 0):
        warnings.warn("first-jump density vanishes on the compact; minorant is empty",
                      EmptyMinorantWarning)
    shape = (1.0 + tt) * np.exp(c1 * tt)
    pos = m_t > 0
    # least-squares fit of ln psi_min ~ ln A0 - B0 * shape, then a downward
    # shift of A0 to make the envelope a true lower bound
    slope = np.polyfit(shape[pos], np.log(m_t[pos]), 1)[0]
    B0 = max(-float(slope), 1e-12)
    A0 = float(np.min(m_t[pos] * np.exp(B0 * shape[pos]))) if np.any(pos) else 0.0

    beta_tilde = 2.0 * B0 + lam_m
    log_sf = -(2.0 * B0 * (1.0 + horizon) * math.exp(c1 * horizon) + lam_m * horizon)
    skeleton_factor = math.exp(log_sf) if log_sf > -700 else 0.0
    mu_weights = 0.5 * 0.5 ** np.arange(j_star + 1)  # geometric (1 - q) q^j, q = 1/2
    mu_min = float(np.min(mu_weights))

    A, Y = np.meshgrid(a_nodes, y_nodes, indexing="ij")
    Z = Y - A
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        valid = (Z > 0) & (Y > 0)
        tau = np.where(valid, np.log(np.maximum(Y, 1e-300) / np.maximum(Z, 1e-300)) / lam, np.inf)
        surv = np.where(valid, np.exp(-model.hazard.cumulative(A)), 0.0)  # transit survival from (0,z)
        h0z = np.where(valid, Z, 0.0)
        g_norm = lam * Y * math.sqrt(2.0)
        E0 = _jacobian_envelope(Y, Z, valid)
        zeta = np.where(valid & (g_norm > 0) & (E0 > 0),
                        (A0 ** 2 / (C0 * H0)) * surv * h0z / (g_norm * E0), 0.0)
        eps = np.zeros_like(Z)
        eps[valid] = kernel_minorant_epsilon(model, Z[valid], delta)
        nu_vals = np.where(valid & (tau <= horizon),
                           zeta * eps * skeleton_factor * mu_min, 0.0)
    nu_vals = np.clip(np.nan_to_num(nu_vals, nan=0.0, posinf=0.0, neginf=0.0), 0.0, None)
    nu = Density2D(a_nodes, y_nodes, nu_vals)
    if nu.mass == 0.0:
        warnings.warn("assembled minorant is identically zero", EmptyMinorantWarning)
    constants = DoeblinConstants(A0=A0, B0=B0, C0=C0, H0=H0, c1=c1, delta=delta,
                                 Delta=Delta, j_star=int(j_star), beta_tilde=beta_tilde,
                                 skeleton_factor=skeleton_factor, mu_min=mu_min,
                                 mu_weights=mu_weights)
    return nu, constants


def _jacobian_envelope(Y, Z, valid):
    """Spectral norm of the transit-time flow Jacobian [[1, r-1], [0, r]], r = y/z."""
    r = np.where(valid, Y / np.maximum(Z, 1e-300), 1.0)
    # largest singular value of the 2x2 matrix, in closed form
    f = 1.0 + (r - 1.0) ** 2 + r**2
    det = r
    s_max = np.sqrt(0.5 * (f + np.sqrt(np.maximum(f**2 - 4.0 * det**2, 0.0))))
    return np.where(valid, s_max, 0.0)


# ---------------------------------------------------------------------------
# h-transformed single-particle chain and skeleton sampling (for validation)
# ---------------------------------------------------------------------------


def _h_chain_endpoints(model: ModelSpec, x0: PhasePoint, t_end, seed: int):
    """Endpoints (a, y) of the size-harmonic chain run from x0, one per sample.

    Sample i runs for time ``t_end[i]``: flow as the base model, divisions at
    rate beta(x), the survivor's size drawn from the size-biased
    fragmentation law, no deaths.  All samples advance one jump at a time;
    the k-th jump of sample i (k >= 1) reads the Philox block at counter
    (k, 0, 0, 0) under key (seed, i): word 0 for the division exponential,
    word 1 for the uniform of the size-biased fragment.
    """
    # the streams are imported on first use, as in simulate._blocks
    from .streams import exponential, math_map, philox_block, uniform

    lam, hz = model.lambda_growth, model.hazard
    t_end = np.asarray(t_end, dtype=float)
    a_end, y_end = np.empty(t_end.size), np.empty(t_end.size)
    live = np.arange(t_end.size)  # the samples still jumping
    t, a, y = np.zeros(live.size), np.full(live.size, x0.a), np.full(live.size, x0.y)
    k = 0
    while live.size:
        k += 1
        words = philox_block(seed, live.astype(np.uint64), (k, 0, 0, 0))
        a_div = hz.inverse_cumulative(hz.cumulative(a) + exponential(words[0]))
        t_div = t + math_map(math.log1p, (a_div - a) / y) / lam
        stop = t_div >= t_end[live]
        done = live[stop]
        e = math_map(math.exp, lam * (t_end[done] - t[stop]))
        a_end[done], y_end[done] = a[stop] + y[stop] * (e - 1.0), y[stop] * e
        go = ~stop
        live = live[go]
        rho = model.fragmentation.sample_size_biased(uniform(words[1][go]))
        t, a, y = t_div[go], np.zeros(live.size), rho * (y[go] + (a_div[go] - a[go]))
    return a_end, y_end


def skeleton_mc_density(model: ModelSpec, x0: PhasePoint, Delta: float,
                        j_star: int, mu_q: float, a_nodes, y_nodes,
                        n_samples: int = 20_000, seed: int = 0):
    """Monte Carlo estimate of the skeleton-averaged transition density.

    Samples j from the (truncated, renormalized) geometric weights, runs the
    size-harmonic chain for time j*Delta, and bins the endpoints; returns
    (Density2D estimate, Density2D of cell standard errors) on the
    cell-centered grid induced by the given bin edges.  Sample i draws j from
    word 0 of the Philox block at counter (0, 0, 0, 0) under key (seed, i),
    by inversion of the weights' cdf as ``Generator.choice`` inverts it, and
    its chain reads the blocks after it (``_h_chain_endpoints``); ``seed``
    lies in [0, 2**64).
    """
    from .streams import philox_block, uniform

    mu = (1.0 - mu_q) * mu_q ** np.arange(j_star + 1)
    cdf = np.cumsum(mu)
    cdf /= cdf[-1]
    a_edges = np.asarray(a_nodes, dtype=float)
    y_edges = np.asarray(y_nodes, dtype=float)
    u = uniform(philox_block(seed, np.arange(n_samples, dtype=np.uint64), (0, 0, 0, 0))[0])
    j = np.searchsorted(cdf, u, side="right")
    hist, area = _histogram(*_h_chain_endpoints(model, x0, j * Delta, seed), a_edges, y_edges)
    centers = bin_centers(a_edges), bin_centers(y_edges)
    return (Density2D(*centers, hist / (n_samples * area)),
            Density2D(*centers, np.sqrt(np.maximum(hist, 1.0)) / (n_samples * area)))


# ---------------------------------------------------------------------------
# Ergodicity report
# ---------------------------------------------------------------------------


@dataclass
class ErgodicityReport:
    times: np.ndarray
    distances: np.ndarray
    omega_hat: float
    box: tuple
    bins: tuple

    def to_rows(self):
        return list(zip(self.times.tolist(), self.distances.tolist()))


def empirical_profile(trajectories: Sequence[Trajectory], time_index: int,
                      box, bins) -> Density2D:
    """Unit-mass binned profile of all individuals recorded at one time."""
    a_edges = np.linspace(0.0, box[0], bins[0] + 1)
    y_edges = np.linspace(0.0, box[1], bins[1] + 1)
    states = [tr.states[time_index] for tr in trajectories]
    if not sum(s.count for s in states):
        raise InsufficientData("no individuals recorded at the requested time")
    hist, area = _histogram(np.concatenate([s.a for s in states]),
                            np.concatenate([s.y for s in states]), a_edges, y_edges)
    d = Density2D(bin_centers(a_edges), bin_centers(y_edges), hist / area)
    if d.mass <= 0:
        raise InsufficientData("empty empirical profile")
    d.values = d.values / d.mass
    return d


def reference_profile(profile: EtaStarProfile, model: ModelSpec, box, bins) -> Density2D:
    """Cell-averaged pi* on the histogram grid, normalized to unit mass.

    Cell averaging (midpoint subsampling, 8 x 8 points per cell) matches what
    a histogram of exact pi* samples converges to, removing the O(h^2)
    center-value bias.
    """
    subsample = 8
    a_edges = np.linspace(0.0, box[0], bins[0] + 1)
    y_edges = np.linspace(0.0, box[1], bins[1] + 1)
    ha = a_edges[1] - a_edges[0]
    hy = y_edges[1] - y_edges[0]
    offs = (np.arange(subsample) + 0.5) / subsample
    sub_a = (a_edges[:-1, None] + ha * offs[None, :]).ravel()
    sub_y = (y_edges[:-1, None] + hy * offs[None, :]).ravel()
    A, Y = np.meshgrid(sub_a, sub_y, indexing="ij")
    fine = pi_star(profile, model, A, Y)
    cell = fine.reshape(bins[0], subsample, bins[1], subsample).mean(axis=(1, 3))
    ref = Density2D(bin_centers(a_edges), bin_centers(y_edges), cell)
    ref.values = ref.values / ref.mass
    return ref


def ergodicity_report(trajectories: Sequence[Trajectory], profile: EtaStarProfile,
                      model: ModelSpec, box=PROFILE_BOX,
                      bins=PROFILE_BINS) -> ErgodicityReport:
    """Weighted-TV decay of the normalized mean profile toward pi*.

    Profiles (empirical and reference) are both normalized to unit mass over
    the observation box before comparison, so the report measures shape
    convergence regardless of the Malthusian growth factor.
    """
    if not trajectories or len(trajectories[0].states) < 3:
        raise InsufficientData("need >= 3 recorded times")
    times = np.array([s.t for s in trajectories[0].states])
    ref = reference_profile(profile, model, box, bins)
    dists = []
    for i in range(times.size):
        emp = empirical_profile(trajectories, i, box, bins)
        dists.append(weighted_tv(emp, ref))
    dists = np.array(dists)
    if np.any(dists <= 0):
        omega = math.inf
    else:
        omega = -float(np.polyfit(times, np.log(dists), 1)[0])
    return ErgodicityReport(times=times, distances=dists, omega_hat=omega,
                            box=tuple(box), bins=tuple(bins))

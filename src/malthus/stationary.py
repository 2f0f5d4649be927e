"""Stationary profile, drift verification and Doeblin minorant for the adder.

Contains: the boundary-profile fixed point eta* and the stationary density
pi*(a, y) = exp(-H(a)) / y^2 * eta*(y - a); weighted total-variation
distances with weight 1 + V, V(a, y) = 1/y + y; the Foster-Lyapunov drift
check A V <= -c V + d for the size-harmonic transform of the dynamics, at
the ages where the hazard is extreme and on a grid of sizes; and the
Doeblin minorant nu of its skeleton kernel, the closed-form one-jump
density minimised over a compact set of starting points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (EmptyMinorant, GridMismatch, InsufficientData, InvalidModel,
                     NoConvergence)
from .model import MarkovModel, ModelSpec, PhasePoint, gl_nodes, trapezoid_weights
from .renewal import HAZARD_CUTOFF, _with_knots, first_jump_rule
from .simulate import Trajectory

#: observation box (a_max, y_max) and bins of ``pi_star.csv`` and the ergodicity report
PROFILE_BOX = (4.0, 6.0)
PROFILE_BINS = (20, 20)

#: largest |kappa - 1| solve_eta_star accepts, kappa being the pi*-mass of the
#: un-normalised sweep at the fixed point (-3.1e-5 on the default grid)
KAPPA_TOL = 1e-3
#: Gauss-Legendre panels of the pi*-mass weights, and the first positive
#: panel edge of their geometric grading
MASS_PANELS = 24
MASS_GRADE_LO = 1e-5
#: rows of s for which the eta* sweep tables and the pi*-mass weights are
#: built, and the sweep applied, at a time: it bounds their temporaries
ETA_ROWS = 128
#: sweep differences the Anderson step of ``solve_eta_star`` mixes, at most
ANDERSON_DEPTH = 8


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
    grid.  The interpolation is tabulated once, ``ETA_ROWS`` rows of s at a
    time, as two (n, len(rho)) tables: the int32 left index of each s_i / rho_r,
    or a sentinel index past the convolution, where the sweep reads 0; and
    the upper weight c_r (u - left), with c_r = 2 w_r F(rho_r).  The lower
    weight is c_r minus the upper one, so a sweep is one convolution and,
    for each block of rows, a gather of the convolution times c and a gather
    of its differences weighted by the upper table.
    """
    h = s[1] - s[0]
    n, k = s.size, rho.size
    m = psi_vals.size + n - 1  # the length of the convolution, and the sentinel index
    c = 2.0 * w_rho * model.fragmentation.pdf(rho)
    left = np.empty((n, k), dtype=np.int32)
    w_hi = np.empty((n, k))
    for lo in range(0, n, ETA_ROWS):
        u = s[lo:lo + ETA_ROWS, None] / rho / h  # s_i / rho_r in steps of the grid
        inside = u <= m - 1
        lf = np.where(inside, u, m).astype(np.int32)  # floors u >= 0
        left[lo:lo + ETA_ROWS] = lf
        u -= lf
        u *= c
        w_hi[lo:lo + ETA_ROWS] = np.where(inside, u, 0.0)
    edge = 0.5 * h * psi_vals[:n]
    edge0 = 0.5 * h * psi_vals[0]
    conv = np.zeros(m + 2)  # the convolution, then two zeros the sentinel reads
    step = np.empty(m + 1)
    index = np.empty((min(n, ETA_ROWS), k), dtype=np.intp)
    gathered = np.empty(index.shape)

    def apply(eta):
        conv[:m] = np.convolve(psi_vals, eta)
        conv[:m] *= h
        # trapezoid end corrections of the convolution quadrature
        conv[:n] -= edge * eta[0]
        conv[:n] -= edge0 * eta
        np.subtract(conv[1:], conv[:-1], out=step)
        out = np.empty(n)
        for lo in range(0, n, ETA_ROWS):
            rows = min(ETA_ROWS, n - lo)
            ix, g = index[:rows], gathered[:rows]
            ix[...] = left[lo:lo + rows]  # one cast to intp serves both gathers
            # the indices are in range: "clip" only skips numpy's bounds-checked copy
            out[lo:lo + rows] = np.take(conv, ix, out=g, mode="clip") @ c
            out[lo:lo + rows] += np.einsum("ij,ij->i", np.take(step, ix, out=g, mode="clip"),
                                           w_hi[lo:lo + rows])
        return out

    return apply


def solve_eta_star(model: ModelSpec, y_max: float = 8.0, n: int = 1024) -> EtaStarProfile:
    """Fixed-point iteration for the boundary profile eta*, from eta0 = 1.

    Each sweep applies the renewal operator and renormalizes so the induced
    stationary density pi* has unit mass.  The next iterate mixes the last
    ``ANDERSON_DEPTH`` + 1 normalised sweeps by Anderson acceleration (Walker
    and Ni 2011): the combination of their residuals, sweep minus iterate,
    that is smallest in least squares (``numpy.linalg.lstsq`` on the
    residuals' differences), applied to the sweeps.  A mixed iterate with a
    negative entry or a pi*-mass that is not positive is dropped, and that
    step takes the plain normalised sweep.  Iteration stops when a plain
    sweep differs from its iterate by less than 1e-10 relative in sup norm,
    within 10,000 sweeps, and returns that sweep; its own sweep gives kappa
    and the residual.  Raises ``NoConvergence`` when the un-normalised sweep
    at the fixed point moves pi*-mass by more than ``KAPPA_TOL``: the grid
    then cuts off or under-resolves eta*, whatever the residual.
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
    mass_w = _pi_mass_weights(model, s)
    mass_dot = simpson_weights(s) * mass_w

    def normalize(eta):
        m = float(mass_dot @ eta)
        if m <= 0:
            raise NoConvergence("profile iteration lost positivity")
        return eta / m

    eta = np.ones(n)
    eta[0] = 0.0
    eta = normalize(eta)
    d_sweeps, d_residuals = [], []  # differences of consecutive sweeps and residuals
    last = None
    for sweep in range(1, 10_001):
        new = normalize(apply_T(eta))
        residual = new - eta
        diff = float(np.max(np.abs(residual)) / np.max(np.abs(new)))
        eta = new
        if diff < 1e-10:
            break
        if last is not None:
            d_sweeps.append(new - last[0])
            d_residuals.append(residual - last[1])
            if len(d_sweeps) > ANDERSON_DEPTH:
                del d_sweeps[0], d_residuals[0]
        last = new, residual
        if d_sweeps:
            gamma = np.linalg.lstsq(np.column_stack(d_residuals), residual, rcond=None)[0]
            mixed = new - np.column_stack(d_sweeps) @ gamma
            m = float(mass_dot @ mixed)
            if m > 0 and not np.any(mixed < 0):
                eta = mixed / m
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


def _pi_mass_weights(model: ModelSpec, s: np.ndarray) -> np.ndarray:
    """w(s) = int_0^inf exp(-H(a)) / (s + a)^2 da = 1/s - int psi(a)/(s+a) da.

    The first-jump rule from age 0 (``first_jump_rule``) integrates
    psi(a)/(s+a) at every positive node, ``ETA_ROWS`` nodes at a time.  Its
    ``MASS_PANELS`` panels are graded geometrically down to
    ``MASS_GRADE_LO``, which resolves the pole at a = -s for the smallest
    positive s; w is 0 at s <= 0.
    """
    rule = first_jump_rule(model.hazard, 0.0, MASS_PANELS, MASS_GRADE_LO)
    w = np.zeros_like(s)
    pos = np.flatnonzero(s > 0)
    for lo in range(0, pos.size, ETA_ROWS):
        at = pos[lo:lo + ETA_ROWS]
        sp = s[at]
        w[at] = 1.0 / sp - (1.0 / (sp[:, None] + rule.a)) @ rule.w
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
    #: AV + cV - d, indexed [age, y]; not written to JSON
    margins: np.ndarray | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.worst_margin <= 1e-8 * (1.0 + abs(self.d))

    def to_dict(self):
        return {"c": self.c, "d": self.d, "pass": self.passed,
                "worst_margin": self.worst_margin,
                "worst_point": list(self.worst_point), "grid": list(self.grid)}


def drift_offset(model: ModelSpec) -> float:
    """d = lam * max over b in {B.lower, B.upper} of (b + 1 / (b (1 - 2 m2))):
    the supremum over y of the margin for V = 1/y + y, c = lam, m1 = 1/2 and
    B = b, which is convex in b and so largest at an end of the hazard's range."""
    m2 = model.fragmentation.moment(2)
    if m2 >= 0.5:
        raise InvalidModel("drift offset needs m2 < 1/2")
    hz = model.hazard
    return model.lambda_growth * max(b + 1.0 / (b * (1.0 - 2.0 * m2))
                                     for b in (hz.lower, hz.upper))


def check_drift(model: ModelSpec, box=(10.0, 10.0), grid_n: int = 64,
                c: float | None = None, d: float | None = None) -> DriftReport:
    """Verify A V <= -c V + d, V = ``default_V``, A the size-harmonic dynamics,
    over [0, a_max] x (0, y_max] (ValueError for a box side <= 0 or grid_n < 1).

    At a fixed size the margin AV + cV - d is affine in B(a), so its largest
    value over the ages is at 0, a_max or a hazard knot.  The generator
    (finite-difference transport, quadrature jump term) takes those ages
    times ``grid_n`` sizes y_max / grid_n .. y_max in one call; the report
    records the worst margin and the first point (age-major order) attaining
    it.  A NaN margin anywhere is the worst margin, and fails the report.
    """
    if not (len(box) == 2 and min(box) > 0 and grid_n >= 1):
        raise ValueError(f"box = {tuple(box)!r} needs sides > 0 and grid_n = {grid_n!r} >= 1")
    c = model.lambda_growth if c is None else float(c)
    d = drift_offset(model) if d is None else float(d)
    aa = _with_knots(np.array([0.0, box[0]]), model.hazard, 0.0, box[0])
    yy = np.linspace(box[1] / grid_n, box[1], grid_n)
    A, Y = np.meshgrid(aa, yy, indexing="ij")
    margin = MarkovModel(model).apply_generator(default_V, A, Y) + c * default_V(A, Y) - d
    k = np.unravel_index(np.argmax(margin), margin.shape)  # argmax stops at the first NaN
    return DriftReport(c=c, d=d, worst_point=(float(A[k]), float(Y[k])),
                       worst_margin=float(margin[k]), grid=margin.shape, margins=margin)


# ---------------------------------------------------------------------------
# Doeblin minorant
# ---------------------------------------------------------------------------


@dataclass
class DoeblinConstants:
    Delta: float
    j_star: int
    mu_weights: np.ndarray  # mu_j = 2^-(j+1), j = 0 .. j_star

    def to_dict(self):
        return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.__dict__.items()}


def _interval_min(f, lo, hi, knots):
    """min of f over each interval [lo_i, hi_i], for an f whose minimum on an
    interval lies at an end or at one of ``knots``: f at both ends and at each
    knot clipped into the interval."""
    points = np.vstack([lo, hi, np.clip(np.reshape(knots, (-1, 1)), lo, hi)])
    return f(points).min(axis=0)


def doeblin_minorant(model: ModelSpec, compact, Delta: float | None = None,
                     domain=None, grid_n: int = 64):
    """Minorant density nu over an (a, y) grid of the Delta-skeleton kernel.

    ``compact`` is (a_lo, a_hi, y_lo, y_hi): the set of starting points the
    bound must hold for.  The chain is the size-harmonic one (``MarkovModel``:
    the transform h(a, y) = y, no deaths, jumps at rate 2 m1 beta(x) to
    (0, rho u) with rho of density rho F(rho) / m1).  Its kernel P^t(x0, .)
    is at least the density p1_t of the paths that jump exactly once before
    t.  From x0 = (a0, y0) such a path grows to u = y0 e^{lam s}, added size
    a_pre = a0 + u - y0, jumps at time s with density
    2 m1 lam u B(a_pre) e^{-2 m1 (H(a_pre) - H(a0))}, lands at z = rho u with
    density rho F(rho) / (m1 u), and then flows to (a, y) = (y - z, y) without
    a jump, with probability e^{-2 m1 H(a)}.  The map (s, z) -> (a, y) has
    Jacobian lam y, so with z = y - a and s = t - log(y / z) / lam >= 0

        p1_t(x0; a, y) = 2 rho F(rho) B(a_pre) e^{-2 m1 (H(a_pre) - H(a0))}
                         e^{-2 m1 H(a)} / y,   rho = z / u.

    Over the compact each factor that depends on x0 has a certified minimum:
    rho F(rho) on [z / (y_hi e^{lam s}), z / (y_lo e^{lam s})], where it is
    monotone or log-concave on each piece (uniform, Beta and table laws), so
    its minimum lies at an end or a table knot; B on the range
    [a_lo + y_lo (e^{lam s} - 1), a_hi + y_hi (e^{lam s} - 1)] of a_pre, at
    an end or a hazard knot; and H(a_pre) - H(a0) <= B.upper y_hi (e^{lam s} - 1).
    Their product bounds p1_t below at every x0 of the compact (with equality
    at a point compact and a constant hazard), and

        nu = sum_{j=1}^{j_star} 2^-(j+1) min p1_{j Delta} <= sum_j mu_j P^{j Delta}(x0, .)

    for every x0 of the compact.  ``Delta`` defaults to the doubling time
    ln 2 / lam; j_star is the first j whose term changes no value of a
    nonzero nu, at most 64.  ``EmptyMinorant`` if nu has mass 0.

    Returns (Density2D nu, DoeblinConstants).
    """
    a_lo, a_hi, y_lo, y_hi = (float(v) for v in compact)
    if not (0 <= a_lo <= a_hi and 0 < y_lo <= y_hi):
        raise ValueError(f"compact = {tuple(compact)!r} must satisfy "
                         "0 <= a_lo <= a_hi, 0 < y_lo <= y_hi")
    lam, hz, F = model.lambda_growth, model.hazard, model.fragmentation
    Delta = math.log(2.0) / lam if Delta is None else float(Delta)
    # a skeleton step <= 0 or a one-node grid gives a minorant of mass 0, or a
    # false one: the identity kernel has no density
    if not (0 < Delta < math.inf and grid_n >= 2):
        raise ValueError(f"Delta = {Delta!r} must be positive and finite and "
                         f"grid_n = {grid_n!r} at least 2")
    if domain is None:
        domain = (0.0, y_hi, 0.0, y_hi)
    da_lo, da_hi, dy_lo, dy_hi = (float(v) for v in domain)
    if not (da_lo < da_hi and dy_lo < dy_hi):  # decreasing axes get negative weights
        raise ValueError(f"domain = {tuple(domain)!r} must satisfy da_lo < da_hi, dy_lo < dy_hi")
    a_nodes = np.linspace(da_lo, da_hi, grid_n)
    y_nodes = np.linspace(dy_lo, dy_hi, grid_n)

    A, Y = np.meshgrid(a_nodes, y_nodes, indexing="ij")
    inside = (A >= 0) & (Y > A)  # one jump reaches ages a >= 0 below the size
    a, y = A[inside], Y[inside]
    z = y - a
    age_time = np.log(y / z) / lam  # time since the jump
    m = 2.0 * F.moment(1)  # the jump-rate factor of the size-harmonic chain
    after = 2.0 * np.exp(-m * hz.cumulative(a)) / y
    nu = np.zeros(a.size)
    for j_star in range(1, 65):
        s = j_star * Delta - age_time
        with np.errstate(over="ignore"):  # a long step: e^{lam s} = inf gives a term of 0
            grow = np.exp(lam * np.maximum(s, 0.0))
        term = np.where(s >= 0, 0.5 ** (j_star + 1) * after, 0.0)
        term *= _interval_min(lambda rho: rho * F.pdf(rho), z / (y_hi * grow),
                              z / (y_lo * grow), F.rho_knots)
        term *= _interval_min(hz, a_lo + y_lo * (grow - 1.0), a_hi + y_hi * (grow - 1.0),
                              hz.a_knots)
        term *= np.exp(-m * hz.upper * y_hi * (grow - 1.0))
        if nu.any() and np.array_equal(nu + term, nu):
            break
        nu += term
    values = np.zeros(A.shape)
    values[inside] = nu
    density = Density2D(a_nodes, y_nodes, values)
    if not density.mass > 0:
        raise EmptyMinorant(f"the minorant has mass 0: one jump from compact = "
                            f"{(a_lo, a_hi, y_lo, y_hi)} reaches no point of domain = "
                            f"{(da_lo, da_hi, dy_lo, dy_hi)} within {j_star} skeleton steps")
    return density, DoeblinConstants(Delta=Delta, j_star=j_star,
                                     mu_weights=0.5 * 0.5 ** np.arange(j_star + 1))


# ---------------------------------------------------------------------------
# h-transformed single-particle chain and skeleton sampling (for validation)
# ---------------------------------------------------------------------------


def _h_chain_endpoints(model: ModelSpec, x0: PhasePoint, t_end, seed: int):
    """Endpoints (a, y) of the size-harmonic chain run from x0, one per sample.

    Sample i runs for time ``t_end[i]``: flow as the base model, divisions at
    rate beta(x), no deaths; at a division the chain follows one child,
    picked with probability its share of the size.  With rho drawn from F
    and kept with probability rho (else 1 - rho), the kept fraction has
    density rho (F(rho) + F(1 - rho)) = 2 rho F(rho), the size-weighted
    kernel of a symmetric F.  All samples advance one jump at a time; the
    k-th jump of sample i (k >= 1) reads the Philox block at counter
    (k, 0, 0, 0) under key (seed, i): word 0 for the division exponential,
    word 1 for the uniform of rho and word 2 for the pick.
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
        rho = model.fragmentation.sample(uniform(words[1][go]))
        rho = np.where(uniform(words[2][go]) < rho, rho, 1.0 - rho)
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
    return ErgodicityReport(times=times, distances=dists, omega_hat=omega)

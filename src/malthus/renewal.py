"""First-jump law and spectrally weighted renewal kernels.

For a phase point x the first division happens at a random time T with
density psi(t|x) = beta(phi^t x) * exp(-int_0^t beta(phi^s x) ds); jointly
with the offspring size Z the normalized density is
p_x(t, z) = k(phi^t x, z) * psi(t|x) / C_x, where C_x is the mean offspring
count.  The renewal kernel K_lam(x, z) = int e^{-lam t} k(phi^t x, z)
psi(t|x) dt and its truncation to sizes in [0, R] (with the uniform 1/R
leak correction) drive the eigenvalue machinery.

The time integral is evaluated in the added-size variable (da = B-hazard
measure, u = y + a the current size), which removes all flow integration
from the inner loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, PhasePoint, gl_nodes, trapezoid_weights

#: target cumulative hazard at the quadrature cutoff; exp(-28) < 1e-12
HAZARD_CUTOFF = 28.0
#: Gauss-Legendre panels per orbit row, and nodes per panel
N_PANELS = 12
N_PER_PANEL = 16


def _panel_nodes(edges, n_per_panel):
    """Gauss-Legendre nodes/weights tiled over consecutive panels."""
    nodes, weights = zip(*(gl_nodes(lo, hi, n_per_panel)
                           for lo, hi in zip(edges[:-1], edges[1:])))
    return np.concatenate(nodes), np.concatenate(weights)


def _graded_edges(cut, n_panels, lo=0.5):
    """Panel edges packed near 0 where the hazard density concentrates."""
    return np.concatenate([[0.0], np.geomspace(min(lo, cut / 4), cut, n_panels)])


def _with_knots(edges, hazard, shift, cut):
    """``edges`` and the hazard's knots (``a_knots``, or ``a_star``) minus
    ``shift`` that lie in (0, cut), sorted, once each: psi has a kink or a
    jump there.  (``np.union1d`` would import ``numpy.ma`` on first use.)"""
    knots = np.asarray(getattr(hazard, "a_knots", [hazard.a_star])) - shift
    out = np.sort(np.concatenate([edges, knots[(knots > 0) & (knots < cut)]]))
    return out[np.concatenate([[True], out[1:] != out[:-1]])]


@dataclass(frozen=True)
class OrbitRule:
    """First-jump quadrature from one starting age, in the added size.

    ``a`` are the added sizes at the jump and ``w`` the psi-measure weights;
    exactly integrated, ``w`` sums to 1 - e^{-HAZARD_CUTOFF}.
    """

    a: np.ndarray
    w: np.ndarray

    @property
    def mass_error(self) -> float:
        """|sum(w) - (1 - e^{-HAZARD_CUTOFF})|: the mass the rule loses or adds."""
        return abs(float(np.sum(self.w)) - (1.0 - math.exp(-HAZARD_CUTOFF)))


@dataclass(frozen=True)
class RowQuadrature:
    """First-jump quadrature along one orbit, reusable across lam.

    ``t`` are jump times, ``w`` the psi-measure weights (sum ~ 1),
    ``u`` the current sizes at the jump times.
    """

    t: np.ndarray
    w: np.ndarray
    u: np.ndarray


class FirstJumpLaw:
    """Survival, jump-time density and orbit quadrature of the first division.

    The hazard acts on the added size, so the quadrature nodes and
    psi-weights of the first jump from (a, y) depend on the age a only:
    ``orbit_rule`` builds them once per starting age, and ``row_quadrature``
    maps that rule onto the orbit from y, u = y + added size and
    t = log(u / y) / lambda_growth.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        self._rules: dict = {}

    # -- survival -------------------------------------------------------

    def survival(self, a, y, t):
        """P(no division before t from x = (a, y)) = exp(-int_0^t beta(phi^s x) ds)
        = exp(H(a) - H(a_t)), elementwise over broadcastable ``a``, ``y``, ``t``."""
        a_t = a + y * (np.exp(self.model.lambda_growth * np.asarray(t, dtype=float)) - 1.0)
        H = self.model.hazard.cumulative
        out = np.exp(-np.asarray(H(a_t) - H(a)))
        return out if out.ndim else float(out)

    def jump_time_density(self, a, y, t):
        """psi(t|x) = beta(phi^t x) * survival(a, y, t), x = (a, y), broadcast as there."""
        e = np.exp(self.model.lambda_growth * np.asarray(t, dtype=float))
        out = self.model.beta(a + y * (e - 1.0), y * e) * self.survival(a, y, t)
        return out if np.ndim(out) else float(out)

    # -- quadrature along the orbit --------------------------------------

    def orbit_rule(self, a0: float) -> OrbitRule:
        """Graded Gauss-Legendre panels in the added size from age ``a0``, up to
        HAZARD_CUTOFF, broken at the hazard's knots; built once per ``a0``."""
        rule = self._rules.get(a0)
        if rule is None:
            hz = self.model.hazard
            a_cut = hz.inverse_cumulative(hz.cumulative(a0) + HAZARD_CUTOFF) - a0
            edges = _with_knots(_graded_edges(a_cut, N_PANELS), hz, a0, a_cut)
            aa, ww = _panel_nodes(edges, N_PER_PANEL)
            # psi(t) dt = B(a0 + a) exp(-(H(a0+a) - H(a0))) da along the orbit
            dens = hz(a0 + aa) * np.exp(-(hz.cumulative(a0 + aa) - hz.cumulative(a0)))
            rule = self._rules[a0] = OrbitRule(a=aa, w=ww * dens)
        return rule

    def row_quadrature(self, x: PhasePoint) -> RowQuadrature:
        """The orbit rule of ``x.a`` along the orbit from ``x.y``."""
        if x.y <= 0:
            raise ValueError("orbit from zero size never divides")
        rule = self.orbit_rule(x.a)
        u = x.y + rule.a
        return RowQuadrature(t=np.log(u / x.y) / self.model.lambda_growth, w=rule.w, u=u)


def leak_mass(fragmentation, u, R: float):
    """2 sf(R / u), the mass of k(0, u, .) above R, at every size of ``u``."""
    return np.where(u > R, 2.0 * fragmentation.sf(np.minimum(R / u, 1.0)), 0.0)


class KernelRowEvaluator:
    """Offspring-kernel values k(0, u_r, z_j) along one orbit row.

    ``kvals[r, j] = (2 / u_r) F(z_j / u_r)`` at the row's sizes ``u_r`` and
    the fixed sizes ``z``, evaluated in place into buffers that are
    allocated once and kept for every later row of the same length.
    The returned ``kvals`` is overwritten by the next call.
    """

    def __init__(self, model: ModelSpec, z):
        self.model = model
        self.z = np.asarray(z, dtype=float)
        self._buffers = None

    def _workspace(self, n_t: int):
        shape = (n_t, self.z.size)
        if self._buffers is None or self._buffers[0].shape != shape:
            # ratio, kvals, and the float/bool scratch of the density
            self._buffers = (np.empty(shape), np.empty(shape), np.empty(shape),
                             np.empty(shape, dtype=bool))
        return self._buffers

    def __call__(self, q: RowQuadrature):
        ratio, kvals, x, mask = self._workspace(q.u.size)
        np.divide(self.z, q.u[:, None], out=ratio)
        self.model.fragmentation.pdf(ratio, out=kvals, work=(x, mask))
        np.multiply(kvals, (2.0 / q.u)[:, None], out=kvals)
        return kvals


# ---------------------------------------------------------------------------
# Size grid and truncated kernel matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeGrid:
    """Quadrature grid on [0, R]; trapezoid weights summing to R."""

    R: float
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def uniform(cls, R: float, n: int) -> "SizeGrid":
        """n uniform nodes on [0, R], plus y = 1 if it is not one.

        ``leading_eigen`` pins eta(1) = 1, so y = 1 must be a node.
        """
        if n < 2:
            raise ValueError(f"n = {n!r} must be at least 2")
        nodes = np.linspace(0.0, R, n)
        if 1.0 < R and not np.any(np.isclose(nodes, 1.0, rtol=0, atol=1e-12)):
            nodes = np.sort(np.append(nodes, 1.0))
        weights = trapezoid_weights(nodes)
        return cls(R=float(R), nodes=nodes, weights=weights)

    def __post_init__(self):
        if self.nodes[0] < 0 or abs(self.nodes[-1] - self.R) > 1e-12:
            raise ValueError("grid must span [0, R] with nodes[-1] = R")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        if abs(float(np.sum(self.weights)) - self.R) > 1e-9 * (1 + self.R):
            raise ValueError("quadrature weights must sum to R")

    @property
    def n(self) -> int:
        return self.nodes.size

    def index_of(self, value: float) -> int:
        i = int(np.argmin(np.abs(self.nodes - value)))
        if abs(self.nodes[i] - value) > 1e-9:
            raise ValueError(f"{value} is not a grid node")
        return i

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, values))


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized truncated operator G_lam^R on a SizeGrid.

    ``M[i, j]`` approximates the kernel K_lam^R(0, y_i, z_j), already
    including the uniform 1/R leak correction, the row's leak mass
    (1/R) int e^{-lam t} psi * (mass of k above R) dt.  ``dM`` is the
    entrywise derivative of ``M`` in lam (the same integrals weighted by
    -t), leak correction included.  ``centre`` is the lam of
    the direct pass the matrix was expanded from (``KernelAssembler``).
    """

    lam: float
    grid: SizeGrid
    M: np.ndarray
    dM: np.ndarray
    centre: float | None = None

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(G_lam^R f)(y_i) = int_0^R f(z) K_lam^R(0, y_i, z) dz."""
        return self.M @ (self.grid.weights * np.asarray(f, dtype=float))

    def derivative_apply(self, f: np.ndarray) -> np.ndarray:
        """(d/dlam G_lam^R) f on the grid."""
        return self.dM @ (self.grid.weights * np.asarray(f, dtype=float))

    def adjoint_apply(self, w: np.ndarray) -> np.ndarray:
        """Dual action on grid measures: <w, G f> = <J w, f> exactly."""
        return self.grid.weights * (np.asarray(w, dtype=float) @ self.M)


def _series_radius(terms: int) -> float:
    """The largest r, to rounding, with r^terms e^r / terms! <= 2^-53."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid**terms * math.exp(mid) / math.factorial(terms) <= 2.0**-53:
            lo = mid
        else:
            hi = mid
    return lo


#: Taylor terms of G_lam about a direct pass at lam0, and the radius
#: |lam - lam0| t_max within which they suffice: every entry is a positive
#: mixture of e^{-lam t} over node times t <= t_max, so the remainder after
#: SERIES_TERMS terms is at most r^K e^r / K! of the entry at r = |lam - lam0| t_max.
SERIES_TERMS = 6
SERIES_RADIUS = _series_radius(SERIES_TERMS)


def _taylor(moments: np.ndarray, d: float, first: int) -> np.ndarray:
    """sum_{m >= first} d^(m - first) / (m - first)! moments[m], by Horner;
    at d = 0 a copy of ``moments[first]``."""
    if d == 0.0:
        return moments[first].copy()
    out = moments[-1].copy()
    for m in range(len(moments) - 2, first - 1, -1):
        out *= d / (m + 1 - first)
        out += moments[m]
    return out


class KernelAssembler:
    """Builds the KernelMatrix of G_lam^R from lam-moments of one kernel pass.

    G_lam depends on lam only through the factor e^{-lam t} of its time
    integral, so a direct pass at a centre lam0 contracts every row's kernel
    values once with the weights w e^{-lam0 t} (-t)^m, m < SERIES_TERMS,
    into moment matrices M_m, and takes the leak mass of all rows in one
    ``sf`` call.  ``matrix(lam)`` returns M = sum d^m / m! M_m and
    dM = sum d^(m-1) / (m-1)! M_m at d = lam - lam0 while
    |d| t_max <= SERIES_RADIUS (t_max the largest node time of the rows),
    and otherwise makes a new pass centred at lam.  M_0 and M_1 are
    contracted as a pair apart from the higher moments, so the M and dM of
    a centre do not depend on SERIES_TERMS.  ``passes`` counts the direct
    passes; which centre serves a lam depends on the calls before, to
    rounding.
    """

    def __init__(self, model: ModelSpec, grid: SizeGrid, law: FirstJumpLaw | None = None):
        self.model = model
        self.grid = grid
        self.law = law or FirstJumpLaw(model)
        self.passes = 0
        self.t_max = None  # the largest node time of the rows, from the first pass
        self._centre = None  # (lam0, moments of M)

    def matrix(self, lam: float) -> KernelMatrix:
        lam = float(lam)
        if self._centre is None or abs(lam - self._centre[0]) * self.t_max > SERIES_RADIUS:
            self._centre = None  # free the old moments before the new pass
            self._centre = self._direct_pass(lam)
        lam0, moments = self._centre
        d = lam - lam0
        return KernelMatrix(lam=lam, grid=self.grid, M=_taylor(moments, d, 0),
                            dM=_taylor(moments, d, 1), centre=lam0)

    def _direct_pass(self, lam0: float):
        grid = self.grid
        n, R = grid.n, grid.R
        moments = np.zeros((SERIES_TERMS, n, n))
        index = np.flatnonzero(grid.nodes > 0)  # a zero-size orbit never divides
        rows = [self.law.row_quadrature(PhasePoint(0.0, y)) for y in grid.nodes[index].tolist()]
        above = leak_mass(self.model.fragmentation, np.stack([q.u for q in rows]), R)
        kernel = KernelRowEvaluator(self.model, grid.nodes)
        for i, q, row_above in zip(index.tolist(), rows, above):
            weights = [q.w * np.exp(-lam0 * q.t)]
            for _ in range(SERIES_TERMS - 1):
                weights.append(-q.t * weights[-1])
            kvals = kernel(q)
            for m in (slice(0, 2), slice(2, None)):
                c = np.stack(weights[m])
                moments[m, i] = c @ kvals + (c @ row_above / R)[:, None]
        self.passes += 1
        self.t_max = max(float(q.t.max()) for q in rows)
        return lam0, moments

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

from dataclasses import dataclass, field

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
class RowQuadrature:
    """Cached first-jump quadrature along one orbit, reusable across lam.

    ``t`` are jump times, ``w`` the psi-measure weights (sum ~ 1),
    ``u`` the current sizes at the jump times.  ``leak`` caches, per
    truncation level R, the lam-independent leak mass of the row's kernel
    (``KernelRowEvaluator``), so the rows' cache holds it too.
    """

    t: np.ndarray
    w: np.ndarray
    u: np.ndarray
    leak: dict = field(default_factory=dict, repr=False, compare=False)


class FirstJumpLaw:
    """Survival, jump-time density and orbit quadrature of the first division."""

    def __init__(self, model: ModelSpec):
        self.model = model
        self._row_cache: dict = {}

    # -- survival -------------------------------------------------------

    def survival(self, x: PhasePoint, t) -> float:
        """P(no division before t from x) = exp(-int_0^t beta(phi^s x) ds) = exp(H(a) - H(a_t))."""
        lam = self.model.lambda_growth
        a_t = x.a + x.y * (np.exp(lam * np.asarray(t, dtype=float)) - 1.0)
        H = self.model.hazard.cumulative
        out = np.exp(-np.asarray(H(a_t) - H(x.a)))
        return out if out.ndim else float(out)

    def jump_time_density(self, x: PhasePoint, t) -> float:
        """psi(t|x) = beta(phi^t x) * survival(x, t)."""
        tt = np.asarray(t, dtype=float)
        e = np.exp(self.model.lambda_growth * tt)
        a_t, y_t = x.a + x.y * (e - 1.0), x.y * e
        out = self.model.beta(a_t, y_t) * self.survival(x, tt)
        return out if np.ndim(out) else float(out)

    # -- quadrature along the orbit --------------------------------------

    def row_quadrature(self, x: PhasePoint) -> RowQuadrature:
        """Graded Gauss-Legendre panels in the added size, up to HAZARD_CUTOFF,
        broken at the hazard's knots."""
        key = (x.a, x.y)
        cached = self._row_cache.get(key)
        if cached is not None:
            return cached
        hz = self.model.hazard
        if x.y <= 0:
            raise ValueError("orbit from zero size never divides")
        a_cut = hz.inverse_cumulative(hz.cumulative(x.a) + HAZARD_CUTOFF) - x.a
        edges = _with_knots(_graded_edges(a_cut, N_PANELS), hz, x.a, a_cut)
        aa, ww = _panel_nodes(edges, N_PER_PANEL)
        # psi(t) dt = B(a0 + a) exp(-(H(a0+a) - H(a0))) da along the orbit
        dens = hz(x.a + aa) * np.exp(-(hz.cumulative(x.a + aa) - hz.cumulative(x.a)))
        u = x.y + aa
        t = np.log(u / x.y) / self.model.lambda_growth
        row = self._row_cache[key] = RowQuadrature(t=t, w=ww * dens, u=u)
        return row


class KernelRowEvaluator:
    """Offspring-kernel values k(0, u_r, z_j) along one orbit row.

    ``kvals[r, j] = (2 / u_r) F(z_j / u_r)`` at the row's sizes ``u_r`` and
    the fixed sizes ``z``, evaluated in place into buffers that are
    allocated once and kept for every later row of the same length.  With
    a truncation level ``R`` each call also returns the leak mass
    ``above[r]`` = 2 sf(R / u_r) of k(0, u_r, .) above R (None without
    ``R``), computed once per row and R and kept in ``q.leak`` (read-only).
    The returned ``kvals`` is overwritten by the next call.
    """

    def __init__(self, model: ModelSpec, z, R: float | None = None):
        self.model = model
        self.z = np.asarray(z, dtype=float)
        self.R = R
        self._buffers = None

    def _workspace(self, n_t: int):
        shape = (n_t, self.z.size)
        if self._buffers is None or self._buffers[0].shape != shape:
            # ratio, kvals, and the float/bool scratch of the density
            self._buffers = (np.empty(shape), np.empty(shape), np.empty(shape),
                             np.empty(shape, dtype=bool))
        return self._buffers

    def __call__(self, q: RowQuadrature):
        frag, R = self.model.fragmentation, self.R
        ratio, kvals, x, mask = self._workspace(q.u.size)
        np.divide(self.z, q.u[:, None], out=ratio)
        frag.pdf(ratio, out=kvals, work=(x, mask))
        np.multiply(kvals, (2.0 / q.u)[:, None], out=kvals)
        if R is None:
            return kvals, None
        if R not in q.leak:
            above = np.where(q.u > R, 2.0 * frag.sf(np.minimum(R / q.u, 1.0)), 0.0)
            above.flags.writeable = False
            q.leak[R] = above
        return kvals, q.leak[R]


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
    including the uniform 1/R leak correction; ``correction`` records the
    per-row leak mass (1/R) int e^{-lam t} psi * (mass of k above R) dt.
    ``dM`` is the entrywise derivative of ``M`` in lam (the same integrals
    weighted by -t), leak correction included.
    """

    lam: float
    grid: SizeGrid
    M: np.ndarray
    correction: np.ndarray
    dM: np.ndarray

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(G_lam^R f)(y_i) = int_0^R f(z) K_lam^R(0, y_i, z) dz."""
        return self.M @ (self.grid.weights * np.asarray(f, dtype=float))

    def derivative_apply(self, f: np.ndarray) -> np.ndarray:
        """(d/dlam G_lam^R) f on the grid."""
        return self.dM @ (self.grid.weights * np.asarray(f, dtype=float))

    def adjoint_apply(self, w: np.ndarray) -> np.ndarray:
        """Dual action on grid measures: <w, G f> = <J w, f> exactly."""
        return self.grid.weights * (np.asarray(w, dtype=float) @ self.M)


class KernelAssembler:
    """Builds a KernelMatrix per call; it caches nothing itself.

    A row's orbit quadrature does not depend on the spectral shift lam, and
    ``law.row_quadrature`` caches it, so each assembly in the Newton root
    find only pays for the kernel-density evaluations.  Every row's kernel
    values are contracted twice, with the weights w e^{-lam t} and
    -t w e^{-lam t}, so one pass yields both G_lam and its lam-derivative.
    """

    def __init__(self, model: ModelSpec, grid: SizeGrid, law: FirstJumpLaw | None = None):
        self.model = model
        self.grid = grid
        self.law = law or FirstJumpLaw(model)

    def matrix(self, lam: float) -> KernelMatrix:
        grid = self.grid
        n = grid.n
        M = np.zeros((n, n))
        dM = np.zeros((n, n))
        corr = np.zeros(n)
        rows = KernelRowEvaluator(self.model, grid.nodes, grid.R)
        for i, y in enumerate(grid.nodes.tolist()):
            if y <= 0:
                continue  # zero-size orbit never divides
            q = self.law.row_quadrature(PhasePoint(0.0, y))
            coef = q.w * np.exp(-lam * q.t)
            coefs = np.stack([coef, -q.t * coef])
            kvals, above = rows(q)
            leak = coefs @ above / grid.R
            corr[i] = leak[0]
            M[i], dM[i] = coefs @ kvals + leak[:, None]
        return KernelMatrix(lam=float(lam), grid=grid, M=M, correction=corr, dM=dM)

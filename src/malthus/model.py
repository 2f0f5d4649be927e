"""The adder model: rates, kernels, assumption checks, size-harmonic transform.

Phase points x = (a, y) (added size, current size) grow along the field
g = (g1, g2) = (lam*y, lam*y), divide at rate beta(x) = g1(x) * B(a) with B
the hazard per unit added size, and leave two newborns of sizes rho*y and
(1 - rho)*y, rho drawn from the fragmentation density F: the offspring
kernel is k(a, y, z) = (2/y) F(z/y) 1{z <= y}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidModel

MOMENT_TOL = 1e-8
DENSITY_RENORM_TOL = 1e-6
#: largest degree (alpha - 1) + (beta - 1) of the polynomial Beta density
POLY_DEGREE = 64
#: Newton steps of an integer-Beta draw, and table points per binade of x
NEWTON_STEPS = 3
TABLE_STEPS = 128


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """A state (a, y): age or added size, and current size."""

    a: float
    y: float

    def __post_init__(self):
        if not (self.a >= 0.0):
            raise ValueError(f"age must be nonnegative, got {self.a}")
        if not (self.y > 0.0):
            raise ValueError(f"size must be positive, got {self.y}")


# ---------------------------------------------------------------------------
# Hazards (the "age hazard rate" B, per unit added size in the adder scaling)
# ---------------------------------------------------------------------------


class ConstantHazard:
    """B(a) = b for a >= a_star, 0 below; closed-form cumulative and inverse."""

    def __init__(self, b: float, a_star: float = 0.0):
        if not b > 0:
            raise ValueError(f"hazard level b must be positive, got {b!r}")
        if not a_star >= 0:
            raise ValueError(f"a_star must be nonnegative, got {a_star!r}")
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

    The cumulative hazard is the exact integral of the interpolant, a
    quadratic on each segment, and is inverted in closed form.
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
        self._slope = np.diff(B) / np.diff(a)

    def __call__(self, a):
        a = np.asarray(a, dtype=float)
        out = np.interp(a, self.a_knots, self.B_values)
        return out if out.ndim else float(out)

    def cumulative(self, a):
        a = np.asarray(a, dtype=float)
        knots, B, H = self.a_knots, self.B_values, self._H_knots
        # exact integral: quadratic within each linear segment; the segment
        # index, found among the inner knots, lies in [0, knots.size - 2]
        i = np.searchsorted(knots[1:-1], a, side="right")
        t = np.clip(a, knots[0], knots[-1]) - knots[i]
        inside = H[i] + B[i] * t + 0.5 * self._slope[i] * t * t
        # beyond the table, extrapolate with the final constant level
        out = inside + B[-1] * np.maximum(a - knots[-1], 0.0)
        return out if out.ndim else float(out)

    def inverse_cumulative(self, H):
        """Added size at which the cumulative hazard reaches ``H``.

        On segment i the cumulative hazard is H_i + B_i t + s_i t^2 / 2, with
        t the distance past the knot and s_i the slope, so t is a root of a
        quadratic, taken as 2 dH / (B_i + sqrt(B_i^2 + 2 s_i dH)): that form
        does not cancel for either sign of s_i.  A scalar ``H`` gives a float.
        """
        H0 = np.asarray(H, dtype=float)
        H = np.atleast_1d(H0)  # ``out[over]`` needs an array
        knots, B, Hk = self.a_knots, self.B_values, self._H_knots
        over = H > Hk[-1]
        if B[-1] <= 0 and over.any():
            raise ValueError("cumulative hazard saturates; cannot invert beyond table")
        i = np.searchsorted(Hk[1:-1], H, side="right")  # as in ``cumulative``
        dH = H - Hk[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(np.maximum(B[i] * B[i] + 2.0 * self._slope[i] * dH, 0.0))
            t = np.where(dH > 0.0, 2.0 * dH / (B[i] + root), 0.0)
        out = knots[i] + t
        # beyond the table the final constant level continues
        out[over] = knots[-1] + (H[over] - Hk[-1]) / B[-1]
        return out if H0.ndim else float(out[0])


# ---------------------------------------------------------------------------
# Fragmentation densities F on [0, 1]
# ---------------------------------------------------------------------------
# Every law draws by inversion: ``sample(u)`` and ``sample_size_biased(u)``
# map a float array of uniforms to the quantiles of F and of the size-biased
# density rho F(rho) / m1, one draw per uniform.


def _into(values, out):
    """Return ``values`` as a pdf result: copied into ``out`` when one is given.

    Every fragmentation ``pdf(rho, out=None, work=None)`` follows one
    convention: with ``out`` the density is written there and ``out`` is
    returned (``work`` is optional scratch that only the Beta density uses);
    without it a scalar ``rho`` gives a float.
    """
    if out is not None:
        np.copyto(out, values)
        return out
    return values if values.ndim else float(values)


class UniformFragmentation:
    """F = 1 on [0, 1]."""

    name = "uniform"

    def pdf(self, rho, out=None, work=None):
        rho = np.asarray(rho, dtype=float)
        return _into(np.where((rho >= 0) & (rho <= 1), 1.0, 0.0), out)

    def cdf(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.clip(rho, 0.0, 1.0)
        return out if out.ndim else float(out)

    def sf(self, rho):
        return 1.0 - self.cdf(rho)

    def moment(self, k: int) -> float:
        return 1.0 / (k + 1)

    def sample(self, u):
        return u

    def sample_size_biased(self, u):
        # density 2*rho on [0,1]
        return np.sqrt(u)


def _special():
    """``scipy.special``, imported on first use: only Beta laws without the
    polynomial form need it, and the import costs more than most commands."""
    from scipy import special
    return special


def _poly_form(alpha: float, beta: float):
    """(alpha - 1, beta - 1, c) of the polynomial Beta density c x^(alpha-1)
    (1-x)^(beta-1), or None: integer parameters with degree at most
    ``POLY_DEGREE`` and an exact c = (alpha+beta-1) C(alpha+beta-2, alpha-1) < 2^53."""
    p, q = alpha - 1.0, beta - 1.0
    if not (p.is_integer() and q.is_integer() and p + q <= POLY_DEGREE):
        return None
    p, q = int(p), int(q)
    c = (p + q + 1) * math.comb(p + q, p)
    return (p, q, float(c)) if c < 2**53 else None


class _BinomialTail:
    """One tail of an integer Beta law as a binomial sum, and its inverse.

    The sum is T(x) = sum_{j >= a} C(n, j) x^j w^(n-j), n = a + b - 1, at
    (x, w) = (x, 1 - x) for the lower tail I_x(a, b) (``upper`` False), and
    at (1 - x, x) for the upper tail 1 - I_x(b, a) (``upper`` True).  It is
    x^a w^(b-1) S(x/w), with S Horner's polynomial in x/w, and has no
    cancelling terms.  The argument x is exact; the rounding d = (1 - w) - x
    of the other, computed exactly, is corrected to first order with the
    partial derivative nT -+ x c P (Euler's identity for the homogeneous T),
    where c P = c x^(a-1) w^(b-1) is the density.

    ``solve`` inverts T on v in [0, 1/2]: the tail is tabulated once on the
    points 2^-k (1 + j/128) and 1 minus those, graded toward both ends, from
    where it falls below 2^-53 to where it passes 1/2; a draw brackets
    v with ``searchsorted``, starts from the linear interpolant and takes
    ``NEWTON_STEPS`` Newton steps clamped to the bracket.  Only + - * /,
    comparisons and the table lookup are used, no ``np.power``, ``np.log``
    or ``np.exp``, so the bits do not depend on the CPU's vector libm.
    """

    def __init__(self, a: int, b: int, upper: bool):
        n = a + b - 1
        self.n, self.c, self.sign = float(n), float(a * math.comb(n, a)), 1.0 if upper else -1.0
        self.coef = [float(math.comb(n, a + k)) for k in range(b)]
        self.factors = (a - 1, b - 1)
        e = 1
        while self.value(1.0 - math.ldexp(1.0, -e) if upper else math.ldexp(1.0, -e)) > 2.0**-53:
            e += 1
        # binades down to 2^-e at the end the tail starts from, and down to
        # 2^-7 at the other: every median within the cap lies in (2^-7, 1 - 2^-7);
        # ldexp, unlike a vectorised power, is exact on every CPU
        steps = 1.0 + np.arange(TABLE_STEPS) / TABLE_STEPS
        g = np.ldexp(1.0, -np.arange(max(e, 7), 0, -1))[:, None] * steps
        t = np.sort(np.concatenate([[0.0], g[-e:].ravel(), 1.0 - g[-7:].ravel()]))
        x = 1.0 - t if upper else t
        x = x[np.concatenate([[True], x[1:] != x[:-1]])]  # 1 - t rounds to 1 near 1
        F = self.value(x)
        stop = int(np.argmax(F >= 0.5)) + 1
        self.x, self.F = x[:stop], F[:stop]
        self.slope = np.diff(self.x) / np.diff(self.F)
        self.lo = np.minimum(self.x[:-1], self.x[1:])
        self.hi = np.maximum(self.x[:-1], self.x[1:])

    def _eval(self, x):
        """(T, c P) at x: an array or a float, by the same operations."""
        w = 1.0 - x
        p, q = (w, x) if self.sign > 0 else (x, w)
        P = 1.0  # 1 * p is p exactly
        for _ in range(self.factors[0]):
            P = P * p
        for _ in range(self.factors[1]):
            P = P * q
        r = p / q
        S = self.coef[-1]
        for c in self.coef[-2::-1]:
            S = S * r + c
        cP = self.c * P
        T = p * P * S
        return T + ((1.0 - w) - x) * (self.n * T + self.sign * x * cP), cP

    def value(self, x):
        return self._eval(x)[0]

    def solve(self, v):
        """x with T(x) = v for an array of v in [0, 1/2]."""
        k = np.minimum(np.searchsorted(self.F, v, side="right") - 1, self.F.size - 2)
        lo, hi = self.lo[k], self.hi[k]
        x = self.x[k] + (v - self.F[k]) * self.slope[k]
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at v = 0 clamps to 0
            for _ in range(NEWTON_STEPS):
                T, cP = self._eval(x)
                x = np.fmin(np.fmax(x + self.sign * (T - v) / cP, lo), hi)
        return x


class _IntegerBeta:
    """cdf, upper tail and inverse-cdf draws of Beta(a, b), integers a, b >= 1.

    Each tail is summed directly below the median and taken as 1 minus the
    other above it, so the smaller one never cancels.  A uniform u < 1/2
    solves I_x(a, b) = u, and u >= 1/2 the upper tail = 1 - u, which is
    exact there.
    """

    def __init__(self, a: int, b: int):
        self.lower, self.upper = _BinomialTail(a, b, False), _BinomialTail(b, a, True)
        self.split = float(self.lower.x[-1])

    def tail(self, x, upper: bool):
        """The cdf (``upper`` False) or upper tail at ``x`` clipped to [0, 1]."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        below = x < self.split
        out = np.empty_like(x)
        out[below] = self.lower.value(x[below])
        out[~below] = self.upper.value(x[~below])
        out = np.where(below == upper, 1.0 - out, out)
        return out if out.ndim else float(out)

    def ppf(self, u):
        """The draws of the uniforms ``u``, a float array of any size."""
        up = u >= 0.5
        x = np.empty_like(u)
        x[~up] = self.lower.solve(u[~up])
        x[up] = self.upper.solve(1.0 - u[up])
        return x


class BetaFragmentation:
    """F given by a Beta(alpha, beta) density; symmetric choices have m1 = 1/2.

    For integer alpha, beta the density is the polynomial
    c x^(alpha-1) (1-x)^(beta-1), formed by repeated multiplication with the
    exact integer c = (alpha+beta-1) C(alpha+beta-2, alpha-1) while the
    degree is at most ``POLY_DEGREE`` and c < 2^53, and the cdf, the upper
    tail ``sf`` and the inverse-cdf draws are numpy arithmetic on binomial
    tails (``_IntegerBeta``): a tail table brackets each uniform, and
    Newton steps clamped to the bracket solve it.  The size-biased draws
    take Beta(alpha + 1, beta) the same way when that law has the
    polynomial form too.  Other parameters take exp of the log density, and
    the regularised incomplete beta function and its inverse from
    ``scipy.special``, imported on first use.
    """

    def __init__(self, alpha: float, beta: float):
        self.alpha = float(alpha)
        self.beta = float(beta)
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"Beta parameters must be positive and finite, "
                             f"got alpha={alpha!r}, beta={beta!r}")
        self.name = f"beta({alpha},{beta})"
        self._poly = _poly_form(self.alpha, self.beta)

    @functools.cached_property
    def _log_norm(self) -> float:
        """log B(alpha, beta), for the log density of non-polynomial laws."""
        return float(_special().betaln(self.alpha, self.beta))

    @functools.cached_property
    def _law(self):
        return None if self._poly is None else _IntegerBeta(self._poly[0] + 1, self._poly[1] + 1)

    @functools.cached_property
    def _biased_law(self):
        biased = _poly_form(self.alpha + 1.0, self.beta)
        return None if biased is None else _IntegerBeta(biased[0] + 1, biased[1] + 1)

    def pdf(self, rho, out=None, work=None):
        """Beta density at ``rho``, zero outside the open interval (0, 1).

        ``out`` (a float array of rho's shape, not rho itself) receives the
        density; ``work`` lends a float and a bool array of that shape as
        scratch, so a caller that passes both allocates nothing.
        """
        rho = np.asarray(rho, dtype=float)
        scalar = out is None and rho.ndim == 0
        if out is None:
            out = np.empty_like(rho)
        x, inside = work if work is not None else (np.empty_like(rho),
                                                    np.empty(rho.shape, dtype=bool))
        if self._poly is not None:
            self._poly_into(rho, out, x, inside)
            return float(out) if scalar else out
        np.greater(rho, 0.0, out=inside)
        np.less(rho, 1.0, out=inside, where=inside)
        # unmasked ufuncs on x = rho inside, 1/2 outside, zeroed at the end:
        # exp((alpha - 1) log(x) + (beta - 1) log1p(-x) - log B(alpha, beta))
        x.fill(0.5)
        np.copyto(x, rho, where=inside)
        np.log(x, out=out)
        np.multiply(out, self.alpha - 1.0, out=out)
        np.negative(x, out=x)
        np.log1p(x, out=x)
        np.multiply(x, self.beta - 1.0, out=x)
        np.add(out, x, out=out)
        np.subtract(out, self._log_norm, out=out)
        np.exp(out, out=out)
        np.logical_not(inside, out=inside)
        np.copyto(out, 0.0, where=inside)
        return float(out) if scalar else out

    def _poly_into(self, rho, out, x, inside):
        """c x^p (1-x)^q into ``out``, with x = rho clamped to [0, 1].

        The clamp sends -0.0 to 0.0 and NaN to 1, so the polynomial is +0.0
        outside (0, 1) wherever its exponent at that end is positive; an end
        with exponent 0 is zeroed by multiplying with the comparison there.
        No ufunc is masked: ``where=`` costs more than the arithmetic.
        """
        p, q, c = self._poly
        np.maximum(rho, 0.0, out=x)
        np.fmin(x, 1.0, out=x)
        if p:
            np.multiply(x, c, out=out)
        else:
            out.fill(c)
        for _ in range(p - 1):
            np.multiply(out, x, out=out)
        np.subtract(1.0, x, out=x)
        for _ in range(q):
            np.multiply(out, x, out=out)
        if p == 0:
            np.multiply(out, np.greater(rho, 0.0, out=inside), out=out)
        if q == 0:
            np.multiply(out, np.less(rho, 1.0, out=inside), out=out)

    def cdf(self, rho):
        if self._law is not None:
            return self._law.tail(rho, upper=False)
        out = _special().betainc(self.alpha, self.beta, np.clip(rho, 0.0, 1.0))
        return out if np.ndim(out) else float(out)

    def sf(self, rho):
        """1 - cdf, summed as its own tail: no cancellation where it is small."""
        if self._law is not None:
            return self._law.tail(rho, upper=True)
        out = _special().betaincc(self.alpha, self.beta, np.clip(rho, 0.0, 1.0))
        return out if np.ndim(out) else float(out)

    def moment(self, k: int) -> float:
        m = 1.0
        for j in range(k):
            m *= (self.alpha + j) / (self.alpha + self.beta + j)
        return m

    def sample(self, u):
        if self._law is not None:
            return self._law.ppf(u)
        return _special().betaincinv(self.alpha, self.beta, u)

    def sample_size_biased(self, u):
        # rho * Beta(a, b) density is proportional to Beta(a + 1, b)
        if self._biased_law is not None:
            return self._biased_law.ppf(u)
        return _special().betaincinv(self.alpha + 1.0, self.beta, u)


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

    def pdf(self, rho, out=None, work=None):
        rho = np.asarray(rho, dtype=float)
        return _into(np.where(
            (rho >= self.rho_knots[0]) & (rho <= self.rho_knots[-1]),
            np.interp(rho, self.rho_knots, self.F_values),
            0.0,
        ), out)

    def cdf(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.interp(rho, self.rho_knots, self._cdf_knots)
        out = np.where(rho >= self.rho_knots[-1], 1.0, np.where(rho <= self.rho_knots[0], 0.0, out))
        return out if out.ndim else float(out)

    def sf(self, rho):
        return 1.0 - self.cdf(rho)

    def moment(self, k: int) -> float:
        return float(np.trapezoid(self.rho_knots**k * self.F_values, self.rho_knots))

    def sample(self, u):
        return np.interp(u, self._cdf_knots, self.rho_knots)

    def sample_size_biased(self, u):
        return np.interp(u, self._biased_cdf, self.rho_knots)


# ---------------------------------------------------------------------------
# ModelSpec
# ---------------------------------------------------------------------------

#: Gauss-Legendre nodes of the jump integral over the split fraction
JUMP_NODES = 128


@dataclass(frozen=True)
class ModelSpec:
    """Immutable adder model; all operations are pure.

    The growth field g = (lam*y, lam*y), division rate and offspring kernel
    derive from (lambda_growth, hazard, fragmentation); d0 is the constant
    death rate.  The assumption bounds are the hazard's ``lower``, ``upper``
    and ``a_star`` and the moments of the fragmentation density.
    """

    lambda_growth: float
    d0: float
    hazard: object
    fragmentation: object

    def beta(self, a, y):
        return self.lambda_growth * np.asarray(y, dtype=float) * self.hazard(a)

    # -- generator -------------------------------------------------------

    def jump_integral(self, f, a, y):
        """Integral of f(0, z) k((a, y), z) dz, elementwise over (a, y) arrays.

        The quadrature runs on a trailing axis, so ``f`` is called once with
        z of shape ``y.shape + (JUMP_NODES,)``; each point sums its nodes in
        the same order as a scalar call.
        """
        rho, w = gl_nodes(0.0, 1.0, JUMP_NODES)
        z = rho * np.asarray(y, dtype=float)[..., None]
        out = 2.0 * np.sum(w * self.fragmentation.pdf(rho) * f(0.0, z), axis=-1)
        return out if np.ndim(out) else float(out)

    def apply_generator(self, f, a, y, fd_step=None):
        """Q f at (a, y): transport + branching jump term - d0 * f.

        ``a`` and ``y`` may be arrays of one shape; ``f`` must then accept
        arrays.  See ``_transport`` for the gradient.
        """
        transport = _transport(self, f, a, y, fd_step)
        jump = self.beta(a, y) * (self.jump_integral(f, a, y) - f(a, y))
        return transport + jump - self.d0 * f(a, y)


def _transport(model: ModelSpec, f, a, y, fd_step):
    """g1 * df/da + g2 * df/dy at (a, y), g1 = g2 = lam * y.

    The gradient is taken by central finite differences with the default
    step 1e-6 * (1 + |coordinate|).
    """
    ha = fd_step if fd_step is not None else 1e-6 * (1.0 + abs(a))
    hy = fd_step if fd_step is not None else 1e-6 * (1.0 + abs(y))
    fa = (f(a + ha, y) - f(a - ha, y)) / (2.0 * ha)
    fy = (f(a, y + hy) - f(a, y - hy)) / (2.0 * hy)
    g = model.lambda_growth * np.asarray(y, dtype=float)
    return g * fa + g * fy


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per ``n``.

    The arrays are shared between callers and therefore read-only.
    """
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_nodes(lo, hi, n):
    """The n-point Gauss-Legendre rule mapped onto [lo, hi]."""
    x, w = gauss_legendre(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights on increasing float ``nodes``."""
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def make_adder(lambda_growth, B, F, d0=0.0) -> ModelSpec:
    """Adder model: g = (lam*y, lam*y), beta = lam*y*B(a), children (rho*y, (1-rho)*y).

    ``B`` is a hazard object (ConstantHazard/TableHazard) or a plain positive
    number (constant hazard).  ``F`` is a fragmentation density object, which
    must be finite on 63 points inside (0, 1) (InvalidModel otherwise: every
    command builds its model here).  ``d0`` is the constant death rate.
    """
    if not 0 < lambda_growth < math.inf:
        raise InvalidModel(f"lambda_growth must be positive and finite, got {lambda_growth!r}")
    d0 = float(d0)
    if not (math.isfinite(d0) and d0 >= 0):
        raise InvalidModel(f"death rate d0 must be finite and nonnegative, got {d0}")
    if isinstance(B, (int, float)):
        B = ConstantHazard(float(B))
    rho = np.linspace(0.0, 1.0, 65)[1:-1]
    with np.errstate(all="ignore"):  # a numpy warning would be a second stderr line
        dens = np.asarray(F.pdf(rho), dtype=float)
    bad = np.flatnonzero(~np.isfinite(dens))
    if bad.size:
        raise InvalidModel(f"(A2) fragmentation density F({rho[bad[0]]:g}) = "
                           f"{dens[bad[0]]} is not finite")
    return ModelSpec(lambda_growth=float(lambda_growth), d0=d0, hazard=B, fragmentation=F)


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


def validate(model: ModelSpec) -> ValidationReport:
    """Check the model assumptions; the hazard band is sampled on a grid over [0, 8]^2.

    Structural violations (nonpositive hazard bound, fragmentation mass away
    from 1 or mean away from 1/2, death rate >= elongation rate) raise
    InvalidModel naming the first one; m0 = 1 makes the offspring mass (iii)
    2 m0 = 2 everywhere.  ``make_adder`` has already checked that F is
    finite inside (0, 1).  Sampled conditions are reported pass/fail.
    """
    grid_n = 64
    report = ValidationReport(grid=(grid_n, grid_n))
    hz, F = model.hazard, model.fragmentation

    if hz.lower <= 0:
        raise InvalidModel("(A1) hazard lower bound must be positive")
    m0, m1, m2 = (F.moment(k) for k in range(3))
    if abs(m0 - 1.0) > DENSITY_RENORM_TOL:
        raise InvalidModel(f"(A2) fragmentation mass m0 = {m0:.8f} != 1")
    if abs(m1 - 0.5) > MOMENT_TOL:
        raise InvalidModel(f"(A2) fragmentation mean m1 = {m1:.8f} != 1/2")
    if not (model.lambda_growth > model.d0):
        raise InvalidModel(
            f"(A3) requires lambda_growth > d0, got {model.lambda_growth} <= {model.d0}"
        )
    report.add("(A1) hazard bounds", True, f"[{hz.lower:g}, {hz.upper:g}]")
    report.add("(A2) moments", m2 <= 0.5 + MOMENT_TOL, f"m1={m1:.10f}, m2={m2:.10f}")
    report.add("(A3) growth vs death", True, f"lambda={model.lambda_growth:g} > d0={model.d0:g}")

    aa = np.linspace(1e-3, 8.0, grid_n)
    A, _ = np.meshgrid(aa, aa, indexing="ij")
    Bv = np.asarray(hz(A), dtype=float)
    above = A > hz.a_star
    ok_band = np.all((Bv[above] > hz.lower * (1 - 1e-12)) & (Bv[above] < hz.upper * (1 + 1e-12)))
    ok_zero = np.all(Bv[~above] == 0.0) if np.any(~above) else True
    report.add("(ii) hazard band", bool(ok_band and ok_zero), f"a_star={hz.a_star:g}")
    return report


# ---------------------------------------------------------------------------
# Size-harmonic transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovModel:
    """Conservative dynamics of the Doob transform by h(a, y) = y.

    h = y is the adder's eigenfunction (eigenvalue lambda_growth - d0).  Same
    flow as the base model; jumps at rate beta(x) * int z k(x, z) dz / y to
    a point (0, Z) with Z drawn from the size-weighted kernel.  There is no
    death term.
    """

    base: ModelSpec

    def apply_generator(self, f, a, y, fd_step=None):
        """A f at (a, y) for the transformed (conservative) dynamics.

        Elementwise over (a, y) arrays, as ``ModelSpec.apply_generator``.
        """
        transport = _transport(self.base, f, a, y, fd_step)
        weighted = self.base.jump_integral(lambda _, z: f(0.0, z) * z, a, y)
        mass = self.base.jump_integral(lambda _, z: z, a, y)
        jump = self.base.beta(a, y) * (weighted - f(a, y) * mass) / y
        return transport + jump

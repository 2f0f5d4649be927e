"""The adder model: rates, kernels, assumption checks, size-harmonic transform.

Phase points x = (a, y) (added size, current size) grow along the field
g = (g1, g2) = (lam*y, lam*y), divide at rate beta(x) = g1(x) * B(a) with B
the hazard per unit added size, and leave two newborns of sizes rho*y and
(1 - rho)*y, rho drawn from the fragmentation density F.  F is symmetric,
F(rho) = F(1 - rho), so both newborns follow F and the offspring kernel is
k(a, y, z) = (2/y) F(z/y) 1{z <= y}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidModel

MOMENT_TOL = 1e-8
DENSITY_RENORM_TOL = 1e-6
#: largest degree (alpha - 1) + (beta - 1) of the polynomial Beta density
POLY_DEGREE = 64
#: largest degree of a split law's ``monomials``: the sum of a_k rho^k
#: cancels as the degree grows (1.8e-13 of the largest kernel entry at degree 8)
MONOMIAL_DEGREE = 8
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
    """B(a) = b for a >= a_star, 0 below; closed-form cumulative and inverse.

    Every hazard lists in ``a_knots`` the ages where B has a kink or a jump,
    and where it takes its extremes: here the one jump, at a_star.
    """

    def __init__(self, b: float, a_star: float = 0.0):
        if not b > 0:
            raise ValueError(f"hazard level b must be positive, got {b!r}")
        if not a_star >= 0:
            raise ValueError(f"a_star must be nonnegative, got {a_star!r}")
        self.b = float(b)
        self.a_star = float(a_star)
        self.a_knots = np.array([self.a_star])
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


class _PiecewiseLinear:
    """The linear interpolant of values ``v`` at knots ``x``, its exact
    integral from x_0 and that integral's inverse, for both table laws.

    Knots must be finite and strictly increasing and values finite and
    nonnegative, at least 2 of each, or ValueError is raised.  On piece i
    the interpolant is v_i + s_i t, t = x - x_i, and its integral the
    quadratic c_i + v_i t + s_i t^2 / 2, c_i the trapezoid sum ``cum``.
    """

    def __init__(self, x, v):
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 2:
            raise ValueError("need matching 1-D knot arrays with >= 2 entries")
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or past the float range
            width = np.diff(x)
        # a finite positive width also rules out an infinite or NaN knot
        if not np.all((width > 0) & (width < math.inf)):
            raise ValueError("knots must be finite and strictly increasing")
        if not np.all((v >= 0) & (v < math.inf)):
            raise ValueError("values must be finite and nonnegative")
        self.x, self.v, self.slope = x, v, np.diff(v) / width
        self.cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * width)])

    def integral(self, x):
        """The integral from x_0 to ``x`` clipped to the knots."""
        # the piece index, found among the inner knots, lies in [0, x.size - 2]
        i = np.searchsorted(self.x[1:-1], x, side="right")
        t = np.clip(x, self.x[0], self.x[-1]) - self.x[i]
        return self.cum[i] + self.v[i] * t + 0.5 * self.slope[i] * t * t

    def inverse(self, c):
        """The x at which the integral reaches ``c`` in [0, cum[-1]]: x_i + t
        kept within the piece, with t = 2 dc / (v_i + sqrt(v_i^2 + 2 s_i dc)),
        the root of the quadratic in a form that cancels for neither sign of s_i."""
        i = np.searchsorted(self.cum[1:-1], c, side="right")  # as in ``integral``
        dc = c - self.cum[i]
        v = self.v[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(np.maximum(v * v + 2.0 * self.slope[i] * dc, 0.0))
            t = np.where(dc > 0.0, 2.0 * dc / (v + root), 0.0)
        return np.minimum(self.x[i] + t, self.x[i + 1])


class TableHazard:
    """Piecewise-linear B(a) from knots; constant beyond the last knot.

    The cumulative hazard is the exact integral of the interpolant, a
    quadratic on each segment (``_PiecewiseLinear``), and is inverted in
    closed form.
    """

    def __init__(self, a_knots: Sequence[float], B_values: Sequence[float]):
        table = _PiecewiseLinear(a_knots, B_values)
        if table.x[0] > 0:
            # extend flat to 0 so the cumulative integral starts at the origin
            table = _PiecewiseLinear(np.r_[0.0, table.x], np.r_[table.v[0], table.v])
        self._table, self.a_knots, self.B_values = table, table.x, table.v
        a, B = table.x, table.v
        pos = np.flatnonzero(B > 0)
        # dead zone implied by leading zero hazard values, if any
        self.a_star = float(a[pos[0] - 1]) if pos.size and pos[0] > 0 else 0.0
        self.lower = float(B[pos].min()) if pos.size else 0.0
        self.upper = float(B.max())

    def __call__(self, a):
        a = np.asarray(a, dtype=float)
        out = np.interp(a, self.a_knots, self.B_values)
        return out if out.ndim else float(out)

    def cumulative(self, a):
        a = np.asarray(a, dtype=float)
        # beyond the table, extrapolate with the final constant level
        out = self._table.integral(a) + self.B_values[-1] * np.maximum(a - self.a_knots[-1], 0.0)
        return out if out.ndim else float(out)

    def inverse_cumulative(self, H):
        """Added size at which the cumulative hazard reaches ``H``: the
        table's inverse, and past its last knot the final constant level.
        A scalar ``H`` gives a float."""
        H0 = np.asarray(H, dtype=float)
        H = np.atleast_1d(H0)  # ``out[over]`` needs an array
        B_end, H_end = self.B_values[-1], self._table.cum[-1]
        over = H > H_end
        if B_end <= 0 and over.any():
            raise ValueError("cumulative hazard saturates; cannot invert beyond table")
        out = self._table.inverse(H)
        out[over] = self.a_knots[-1] + (H[over] - H_end) / B_end
        return out if H0.ndim else float(out[0])


# ---------------------------------------------------------------------------
# Fragmentation densities F on [0, 1]
# ---------------------------------------------------------------------------
# Every law evaluates its density as ``pdf(rho)``: a new float array of
# rho's shape, or a Python float for a scalar rho, zero outside [0, 1].
# Every law draws by inversion: ``sample(u)`` maps a float array of uniforms
# to the quantiles of F, one draw per uniform.  ``rho_knots`` lists the split
# fractions where F has a kink.  Sums over F run on ``rule(n)``: Gauss-Jacobi where a Beta
# law has a non-integer parameter and min(alpha, beta) < 2 (F or F' may be unbounded at an
# end), else ceil(n / P) Gauss-Legendre nodes times
# ``pdf`` on each of F's P pieces.  A law may be asymmetric; a model's may not (``make_adder``).
# ``monomials`` is (a_0, ..., a_D) with F = sum a_k rho^k on [0, 1] and D <= MONOMIAL_DEGREE,
# or None; the kernel pass (``renewal.KernelAssembler``) takes suffix sums where it is given.


class _SplitLaw:
    """The split-fraction rule and upper tail shared by every law."""

    monomials = None

    def rule(self, n: int):
        """Nodes rho and weights w, F's density in w, with sum(w g(rho)) ~ int g F drho."""
        with np.errstate(all="ignore"):  # a numpy warning would be a second stderr line
            rho, w = self._rule(n)
            mass = float(np.sum(w))
        if not abs(mass - 1.0) <= DENSITY_RENORM_TOL:  # NaN or infinite weights fail too
            raise InvalidModel(f"(A2) {self!r}: the {n}-node rule over rho has mass {mass!r}")
        return rho, w

    def _rule(self, n: int):
        edges = sorted_unique(np.r_[0.0, 1.0, self.rho_knots])
        rho, w = gl_nodes(edges[:-1, None], edges[1:, None], math.ceil(n / (edges.size - 1)))
        return rho.ravel(), (w * self.pdf(rho)).ravel()

    def sf(self, rho):
        return 1.0 - self.cdf(rho)


class UniformFragmentation(_SplitLaw):
    """F = 1 on [0, 1]."""

    rho_knots = ()
    monomials = (1.0,)

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

    def sample(self, u):
        return u


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


class BetaFragmentation(_SplitLaw):
    """F given by a Beta(alpha, beta) density; symmetric choices have m1 = 1/2.

    For integer alpha, beta the density is the polynomial
    c x^(alpha-1) (1-x)^(beta-1), formed by repeated multiplication with the
    exact integer c = (alpha+beta-1) C(alpha+beta-2, alpha-1) while the
    degree is at most ``POLY_DEGREE`` and c < 2^53, and the cdf, the upper
    tail ``sf`` and the inverse-cdf draws are numpy arithmetic on binomial
    tails (``_IntegerBeta``): a tail table brackets each uniform, and
    Newton steps clamped to the bracket solve it.  Other parameters take
    exp of the log density, and the regularised incomplete beta function
    and its inverse from ``scipy.special``, imported on first use.
    """

    rho_knots = ()

    def __init__(self, alpha: float, beta: float):
        self.alpha = float(alpha)
        self.beta = float(beta)
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"Beta parameters must be positive and finite, "
                             f"got alpha={alpha!r}, beta={beta!r}")
        self._poly = _poly_form(self.alpha, self.beta)

    def __repr__(self):
        return f"Beta({self.alpha!r}, {self.beta!r})"

    @functools.cached_property
    def _log_norm(self) -> float:
        """log B(alpha, beta), for the log density of non-polynomial laws."""
        return float(_special().betaln(self.alpha, self.beta))

    @functools.cached_property
    def _law(self):
        return None if self._poly is None else _IntegerBeta(self._poly[0] + 1, self._poly[1] + 1)

    @property
    def monomials(self):
        """a_(p+l) = c (-1)^l C(q, l) of c x^p (1-x)^q, exact integers, while
        p + q <= MONOMIAL_DEGREE; else None."""
        if self._poly is None or self._poly[0] + self._poly[1] > MONOMIAL_DEGREE:
            return None
        p, q, c = self._poly
        return (0.0,) * p + tuple(float((-1)**l * math.comb(q, l)) * c for l in range(q + 1))

    def pdf(self, rho):
        """Beta density at ``rho``: ``scipy.stats.beta``'s on [0, 1], less an
        end where the exponent is negative (an infinite density), and 0 there.

        The polynomial is c x^p (1-x)^q at x = rho clamped to [0, 1]: the
        clamp sends -0.0 to 0.0 and NaN to 1, so it is +0.0 outside [0, 1]
        wherever its exponent at that end is positive; an end with exponent 0
        is cut off by multiplying with the comparison.
        """
        rho = np.asarray(rho, dtype=float)
        if self._poly is None:
            p, q = self.alpha - 1.0, self.beta - 1.0
            inside = (rho >= 0.0 if p >= 0 else rho > 0) & (rho <= 1.0 if q >= 0 else rho < 1)
            x = np.where(inside, rho, 0.5)
            with np.errstate(divide="ignore"):  # log(0) = -inf; 0 * -inf would be NaN
                log_f = (p * np.log(x) if p else 0.0) + (q * np.log1p(-x) if q else 0.0)
                out = np.where(inside, np.exp(log_f - self._log_norm), 0.0)
            return out if out.ndim else float(out)
        p, q, c = self._poly
        x = np.maximum(np.atleast_1d(rho), 0.0)  # 1-d: ufuncs on 0-d give scalars
        np.fmin(x, 1.0, out=x)
        out = x * c if p else np.full(x.shape, c)
        for _ in range(p - 1):
            out *= x
        np.subtract(1.0, x, out=x)
        for _ in range(q):
            out *= x
        if p == 0:
            out *= rho >= 0.0
        if q == 0:
            out *= rho <= 1.0
        return out if rho.ndim else float(out[0])

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

    def _rule(self, n: int):  # where F or F' may be unbounded, Gauss-Jacobi on x = 2 rho - 1
        if min(self.alpha, self.beta) >= 2 or self.alpha.is_integer() and self.beta.is_integer():
            return super()._rule(n)
        x, w = _special().roots_jacobi(n, self.beta - 1.0, self.alpha - 1.0)
        scale = math.exp((1.0 - self.alpha - self.beta) * math.log(2.0) - self._log_norm)
        return 0.5 * (1.0 + x), w * scale

    def moment(self, k: int) -> float:
        m = 1.0
        for j in range(k):
            m *= (self.alpha + j) / (self.alpha + self.beta + j)
        return m

    def sample(self, u):
        if self._law is not None:
            return self._law.ppf(u)
        return _special().betaincinv(self.alpha, self.beta, u)


class TableFragmentation(_SplitLaw):
    """Tabulated F on [0, 1], linear between its knots; renormalised when the
    quadrature mass drifts.

    ``cdf`` is the exact integral of the interpolant and ``sample`` its
    inverse (``_PiecewiseLinear``), so every draw lies within the knots.
    """

    def __init__(self, rho_knots: Sequence[float], F_values: Sequence[float]):
        table = _PiecewiseLinear(rho_knots, F_values)
        rho, F = table.x, table.v
        if rho[0] < 0 or rho[-1] > 1:
            raise ValueError("fragmentation knots must lie within [0, 1]")
        m0 = float(np.trapezoid(F, rho))
        if abs(m0 - 1.0) > DENSITY_RENORM_TOL:
            raise InvalidModel(
                f"(A2) tabulated fragmentation density has mass {m0:.8f}, "
                f"more than {DENSITY_RENORM_TOL:g} away from 1"
            )
        self._table = _PiecewiseLinear(rho, F / m0)
        self.rho_knots = rho
        self.F_values = self._table.v

    def pdf(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.where((rho >= self.rho_knots[0]) & (rho <= self.rho_knots[-1]),
                       np.interp(rho, self.rho_knots, self.F_values), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.where(rho >= self.rho_knots[-1], 1.0, self._table.integral(rho))
        return out if out.ndim else float(out)

    def moment(self, k: int) -> float:
        """Integral of rho^k F, exact: (k + 3) // 2 Gauss-Legendre nodes on each of the
        at most ``rho_knots.size + 1`` pieces integrate rho^k F, of degree k + 1 there."""
        rho, w = self._rule((k + 3) // 2 * (self.rho_knots.size + 1))
        return float(np.sum(w * rho**k))

    def sample(self, u):
        out = self._table.inverse(np.asarray(u, dtype=float) * self._table.cum[-1])
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# ModelSpec
# ---------------------------------------------------------------------------

#: nodes of the split-fraction rule (``rule``) of the jump integral
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

        The law's ``rule(JUMP_NODES)`` runs on a trailing axis, so ``f`` is called
        once with z of shape ``y.shape + rho.shape``, summed as in a scalar call.
        """
        rho, w = self.fragmentation.rule(JUMP_NODES)
        z = rho * np.asarray(y, dtype=float)[..., None]
        out = 2.0 * np.sum(w * f(0.0, z), axis=-1)
        return out if np.ndim(out) else float(out)

    def apply_generator(self, f, a, y, fd_step=None):
        """Q f at (a, y): transport + branching jump term - d0 * f.

        ``a`` and ``y`` may be arrays of one shape; ``f`` must then accept
        arrays.  The transport g1 * df/da + g2 * df/dy, g1 = g2 = lam * y,
        takes its gradient by central finite differences with the default
        step 1e-6 * (1 + |coordinate|).
        """
        ha = fd_step if fd_step is not None else 1e-6 * (1.0 + abs(a))
        hy = fd_step if fd_step is not None else 1e-6 * (1.0 + abs(y))
        fa = (f(a + ha, y) - f(a - ha, y)) / (2.0 * ha)
        fy = (f(a, y + hy) - f(a, y - hy)) / (2.0 * hy)
        g = self.lambda_growth * np.asarray(y, dtype=float)
        jump = self.beta(a, y) * (self.jump_integral(f, a, y) - f(a, y))
        return g * fa + g * fy + jump - self.d0 * f(a, y)


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


def sorted_unique(x):
    """``x`` sorted, each value once (``np.unique`` would import ``numpy.ma``)."""
    x = np.sort(x)
    return x[np.concatenate([[True], x[1:] != x[:-1]])]


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
    number (constant hazard), whose level B(inf) past its last knot must be
    positive: a cell that never divides has no first-jump law.  ``F`` is a
    fragmentation density object, which must be finite and symmetric,
    F(r) = F(1 - r) to 1e-9 of its largest value, at the 63 points k/64
    inside each piece between consecutive points of its ``rho_knots``, their
    mirrors 1 - r, 0 and 1.  A piecewise-linear table and its mirror are both
    linear on each such piece, so the check is exact for tables; it never
    lands on a knot, where 1 - r in floating point may fall on the wrong
    side, and it skips the pieces narrower than 1e-9 that this rounding
    makes.  Both raise InvalidModel otherwise: every command builds its
    model here.  ``d0`` is the constant death rate.
    """
    if not 0 < lambda_growth < math.inf:
        raise InvalidModel(f"lambda_growth must be positive and finite, got {lambda_growth!r}")
    d0 = float(d0)
    if not (math.isfinite(d0) and d0 >= 0):
        raise InvalidModel(f"death rate d0 must be finite and nonnegative, got {d0}")
    if isinstance(B, (int, float)):
        B = ConstantHazard(float(B))
    if not B(math.inf) > 0:
        raise InvalidModel(f"(A1) hazard B(inf) = {B(math.inf):g} must be positive: "
                           "a cell would never divide")
    edges = sorted({0.0, 1.0, *(float(r) for r in F.rho_knots),
                    *(1.0 - float(r) for r in F.rho_knots)})
    lo, hi = np.array([(a, b) for a, b in zip(edges, edges[1:]) if b - a > 1e-9]).T
    rho = np.linspace(lo, hi, 65, axis=-1)[:, 1:-1].ravel()
    with np.errstate(all="ignore"):  # a numpy warning would be a second stderr line
        dens, mirror = (np.asarray(F.pdf(r), dtype=float) for r in (rho, 1.0 - rho))
    bad = np.flatnonzero(~np.isfinite(dens))
    if bad.size:
        raise InvalidModel(f"(A2) fragmentation density F({rho[bad[0]]:g}) = "
                           f"{dens[bad[0]]} is not finite")
    # scaled to the law, so F(r) = 0 against a rounded 1e-15 passes, and
    # written so that a mirror that is NaN or infinite fails
    bad = np.flatnonzero(~(np.abs(dens - mirror) <= 1e-9 * dens.max()))
    if bad.size:
        r = rho[bad[0]]
        raise InvalidModel(f"(A2) fragmentation density must be symmetric: F({r:g}) = "
                           f"{dens[bad[0]]:g} but F(1 - {r:g}) = {mirror[bad[0]]:g}")
    return ModelSpec(lambda_growth=float(lambda_growth), d0=d0, hazard=B, fragmentation=F)


def validate(model: ModelSpec) -> dict:
    """Check the model assumptions; the report is a plain dict with the keys
    ``all_passed``, ``knots`` and ``checks`` (each check a dict of ``name``,
    ``passed`` and ``detail``).

    Structural violations (nonpositive hazard bound, fragmentation mass away
    from 1 or mean away from 1/2, death rate >= elongation rate) raise
    InvalidModel naming the first one; m0 = 1 makes the offspring mass (iii)
    2 m0 = 2 everywhere.  ``make_adder`` has already checked that F is
    finite and symmetric.  The band (ii), B in [lower, upper] above a_star
    and B = 0 below it, is checked at the hazard's ``a_knots``, where a
    piecewise-linear or stepped B takes its extremes, so the check is exact;
    ``knots`` is the number of ages checked.
    """
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
    B = hz(hz.a_knots)
    above = hz.a_knots >= hz.a_star
    band = bool(np.all((B[above] >= hz.lower) & (B[above] <= hz.upper)) and np.all(B[~above] == 0))
    checks = [("(A1) hazard bounds", True, f"[{hz.lower:g}, {hz.upper:g}]"),
              ("(A2) moments", m2 <= 0.5 + MOMENT_TOL, f"m1={m1:.10f}, m2={m2:.10f}"),
              ("(A3) growth vs death", True, f"lambda={model.lambda_growth:g} > d0={model.d0:g}"),
              ("(ii) hazard band", band, f"a_star={hz.a_star:g}")]
    checks = [{"name": name, "passed": bool(ok), "detail": detail} for name, ok, detail in checks]
    return {"all_passed": all(c["passed"] for c in checks), "knots": hz.a_knots.size,
            "checks": checks}


# ---------------------------------------------------------------------------
# Size-harmonic transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovModel:
    """Conservative dynamics of the Doob transform by h(a, y) = y.

    h = y is the adder's eigenfunction (eigenvalue lambda_growth - d0), and
    the generator is the base model's conjugated by it:
    A f = (Q(y f) - f Q(y)) / y.  Same flow as the base model; jumps at rate
    beta(x) * int z k(x, z) dz / y to a point (0, Z) with Z drawn from the
    size-weighted kernel.  The death terms cancel.
    """

    base: ModelSpec

    def apply_generator(self, f, a, y, fd_step=None):
        """A f at (a, y), both Q terms from ``ModelSpec.apply_generator``.

        Q(y) is taken by the same jump quadrature as Q(y f), not from the
        closed form 2 m1 y of the kernel's mass: the two quadrature errors
        then cancel in the difference.  Elementwise over (a, y) arrays.
        """
        q = self.base.apply_generator
        qyf = q(lambda A, Y: Y * f(A, Y), a, y, fd_step)
        return (qyf - f(a, y) * q(lambda A, Y: Y, a, y, fd_step)) / y

"""Deterministic transport along the growth field.

Provides the flow map, orbit parameterizations (size at a given age and
vice versa), transit times between on-orbit points, and flow Jacobians.
The adder field g = (lam*y, lam*y) has closed forms throughout; any other
field is integrated with an adaptive Runge-Kutta scheme, with the Jacobian
obtained from the variational equation as an augmented 6-D system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFailure, OffDomain, OffOrbit
from .model import ModelSpec, PhasePoint


@dataclass(frozen=True)
class Jacobian2x2:
    """Row-major 2x2 flow Jacobian D phi^t(x)."""

    m00: float
    m01: float
    m10: float
    m11: float

    @property
    def det(self) -> float:
        return self.m00 * self.m11 - self.m01 * self.m10

    def as_array(self):
        return np.array([[self.m00, self.m01], [self.m10, self.m11]])


@dataclass(frozen=True)
class FlowEngine:
    """Transport queries for a fixed model; immutable and reentrant.

    ``closed_form`` (default: on for adder models) short-circuits all
    operations with the exact exponential-growth formulas.
    """

    model: ModelSpec
    rtol: float = 1e-8
    atol: float = 1e-10
    orbit_tol: float = 1e-6
    closed_form: bool | None = None

    @property
    def _analytic(self) -> bool:
        return self.model.is_adder if self.closed_form is None else self.closed_form

    # -- flow map --------------------------------------------------------

    def advance(self, x: PhasePoint, t: float) -> PhasePoint:
        """phi^t(x); negative t runs the reverse flow."""
        if t == 0.0:
            return x
        if self._analytic:
            lam = self.model.lambda_growth
            e = math.exp(lam * t)
            return PhasePoint(x.a + x.y * (e - 1.0), x.y * e)
        sol = self._integrate([x.a, x.y], t)
        return PhasePoint(float(sol[0]), float(sol[1]))

    def _integrate(self, state, t, with_jacobian=False):
        from scipy.integrate import solve_ivp  # general fields only; slow import
        model = self.model

        def rhs(_, u):
            a, y = u[0], u[1]
            du = [float(model.g1(a, y)), float(model.g2(a, y))]
            if not with_jacobian:
                return du
            J = _field_jacobian(model, a, y)
            M = np.array(u[2:]).reshape(2, 2)
            return du + list((J @ M).ravel())

        y0 = list(state) + ([1.0, 0.0, 0.0, 1.0] if with_jacobian else [])
        sol = solve_ivp(rhs, (0.0, t), y0, rtol=self.rtol, atol=self.atol, dense_output=False)
        if not sol.success:
            raise IntegrationFailure(sol.message)
        return sol.y[:, -1]

    # -- orbit parameterizations ------------------------------------------

    def size_at_age(self, x: PhasePoint, a: float) -> float:
        """Y_x(a): the size on the orbit of x at age coordinate a."""
        if a < 0:
            raise OffDomain(f"age {a} < 0")
        if self._analytic:
            # dY/da = g2/g1 = 1 along the adder orbit
            y = x.y + (a - x.a)
            if y <= 0:
                raise OffDomain(f"orbit of {x} has nonpositive size at age {a}")
            return y
        t = self._time_to_age(x, a)
        return self.advance(x, t).y

    def age_at_size(self, x: PhasePoint, y: float) -> float:
        """A_x(y): the age on the orbit of x at size y."""
        if self._analytic:
            a = x.a + (y - x.y)
            if a < 0:
                raise OffDomain(f"orbit of {x} never attains size {y} at nonnegative age")
            return a
        if y < x.y - self.orbit_tol * (1 + x.y):
            raise OffDomain("reverse size queries not supported for general fields")
        t = self._time_to_size(x, y)
        return self.advance(x, t).a

    def _gronwall_horizon(self, target: float) -> float:
        c0 = max(self.model.c0, 1e-12)
        return max(1.0, math.log(max(target, 2.0)) / c0) * 10.0

    def _time_to_age(self, x: PhasePoint, a: float) -> float:
        if a == x.a:
            return 0.0
        lo, hi = (0.0, self._gronwall_horizon(a + 2.0)) if a > x.a else (-self._gronwall_horizon(x.a + 2.0), 0.0)
        f = lambda t: self.advance(x, t).a - a
        if f(lo) * f(hi) > 0:
            raise OffDomain(f"age {a} unreachable from {x} within horizon")
        from scipy.optimize import brentq  # general fields only; slow import
        return brentq(f, lo, hi, xtol=1e-12)

    def _time_to_size(self, x: PhasePoint, y: float) -> float:
        if y == x.y:
            return 0.0
        hi = self._gronwall_horizon(y + 2.0)
        f = lambda t: self.advance(x, t).y - y
        if f(0.0) * f(hi) > 0:
            raise OffDomain(f"size {y} unreachable from {x} within horizon")
        from scipy.optimize import brentq  # general fields only; slow import
        return brentq(f, 0.0, hi, xtol=1e-12)

    # -- transit time ------------------------------------------------------

    def transit_time(self, x0: PhasePoint, x1: PhasePoint) -> float:
        """Time t with advance(x0, t) = x1; x1 must lie on the orbit of x0."""
        if self._analytic:
            lam = self.model.lambda_growth
            t = math.log(x1.y / x0.y) / lam
            pred_a = x0.a + x0.y * (x1.y / x0.y - 1.0)
            if abs(pred_a - x1.a) > self.orbit_tol * (1.0 + x1.y):
                raise OffOrbit(f"{x1} is not on the orbit of {x0} (predicted age {pred_a:.8f})")
            return t
        if x1.y >= x0.y:
            t = self._time_to_size(x0, x1.y)
        else:
            t = -FlowEngine(self.model, self.rtol, self.atol, self.orbit_tol, self.closed_form
                            )._time_to_size(x1, x0.y)
        reached = self.advance(x0, t)
        if abs(reached.a - x1.a) > self.orbit_tol * (1.0 + x1.y):
            raise OffOrbit(f"{x1} is not on the orbit of {x0} (reached {reached})")
        return t

    # -- Jacobian ---------------------------------------------------------

    def flow_jacobian(self, x: PhasePoint, t: float) -> Jacobian2x2:
        """D phi^t(x), by closed form or the variational equation."""
        if self._analytic:
            e = math.exp(self.model.lambda_growth * t)
            return Jacobian2x2(1.0, e - 1.0, 0.0, e)
        if t == 0.0:
            return Jacobian2x2(1.0, 0.0, 0.0, 1.0)
        sol = self._integrate([x.a, x.y], t, with_jacobian=True)
        return Jacobian2x2(*sol[2:6])


def _field_jacobian(model: ModelSpec, a: float, y: float, step: float = 1e-6):
    """Jacobian of the growth field g at (a, y) by central differences."""
    ha = step * (1.0 + abs(a))
    hy = step * (1.0 + abs(y))
    return np.array(
        [
            [
                (model.g1(a + ha, y) - model.g1(a - ha, y)) / (2 * ha),
                (model.g1(a, y + hy) - model.g1(a, y - hy)) / (2 * hy),
            ],
            [
                (model.g2(a + ha, y) - model.g2(a - ha, y)) / (2 * ha),
                (model.g2(a, y + hy) - model.g2(a, y - hy)) / (2 * hy),
            ],
        ]
    )

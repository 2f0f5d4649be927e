"""Deterministic transport along the adder's growth field.

Provides the flow map and the orbit parameterizations (size at a given age
and vice versa).  The field g = (lam*y, lam*y) has closed forms throughout:
the size grows as y e^{lam t}, and the added size grows by the same amount,
so along an orbit size minus added size is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OffDomain
from .model import ModelSpec, PhasePoint


@dataclass(frozen=True)
class FlowEngine:
    """Transport queries for a fixed model; immutable and reentrant."""

    model: ModelSpec

    def advance(self, x: PhasePoint, t: float) -> PhasePoint:
        """phi^t(x); negative t runs the reverse flow."""
        if t == 0.0:
            return x
        e = math.exp(self.model.lambda_growth * t)
        return PhasePoint(x.a + x.y * (e - 1.0), x.y * e)

    def size_at_age(self, x: PhasePoint, a: float) -> float:
        """Y_x(a): the size on the orbit of x at age coordinate a."""
        if a < 0:
            raise OffDomain(f"age {a} < 0")
        # dY/da = g2/g1 = 1 along the orbit
        y = x.y + (a - x.a)
        if y <= 0:
            raise OffDomain(f"orbit of {x} has nonpositive size at age {a}")
        return y

    def age_at_size(self, x: PhasePoint, y: float) -> float:
        """A_x(y): the age on the orbit of x at size y."""
        a = x.a + (y - x.y)
        if a < 0:
            raise OffDomain(f"orbit of {x} never attains size {y} at nonnegative age")
        return a

import math

import pytest

from malthus import FlowEngine, OffDomain, PhasePoint


@pytest.fixture(scope="module")
def flow(adder):
    return FlowEngine(adder)


class TestAdvance:
    def test_closed_form(self, flow):
        x = PhasePoint(0.5, 2.0)
        p = flow.advance(x, math.log(2.0))
        assert p.y == pytest.approx(4.0)
        assert p.a == pytest.approx(0.5 + 2.0)  # added size = size increment

    def test_group_property(self, flow):
        x = PhasePoint(0.2, 1.3)
        p = flow.advance(flow.advance(x, 0.7), 0.4)
        q = flow.advance(x, 1.1)
        assert p.a == pytest.approx(q.a) and p.y == pytest.approx(q.y)

    def test_reverse(self, flow):
        x = PhasePoint(1.0, 3.0)
        p = flow.advance(flow.advance(x, 0.9), -0.9)
        assert p.a == pytest.approx(x.a, abs=1e-12)
        assert p.y == pytest.approx(x.y, abs=1e-12)


class TestOrbitQueries:
    def test_size_at_age(self, flow):
        x = PhasePoint(0.5, 2.0)
        assert flow.size_at_age(x, 1.5) == pytest.approx(3.0)
        with pytest.raises(OffDomain):
            flow.size_at_age(x, -0.1)

    def test_age_at_size(self, flow):
        x = PhasePoint(0.5, 2.0)
        assert flow.age_at_size(x, 3.0) == pytest.approx(1.5)
        with pytest.raises(OffDomain):
            flow.age_at_size(x, 1.0)  # would need negative age

import contextlib
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate

from malthus import (BetaFragmentation, ConstantHazard, InvalidModel,
                     MarkovModel, PhasePoint, TableFragmentation,
                     TableHazard, UniformFragmentation, make_adder,
                     model_from_config, validate)
from malthus.model import ModelSpec, gauss_legendre


def log_exp_pdf(F, rho):
    """The Beta density by exp of its log, the form non-integer parameters use."""
    inside = (rho > 0.0) & (rho < 1.0)
    x = rho[inside]
    out = np.zeros_like(rho)
    out[inside] = np.exp((F.alpha - 1.0) * np.log(x) + (F.beta - 1.0) * np.log1p(-x)
                         - F._log_norm)
    return out


def same_bits(scalars, array):
    """Whether a list of Python floats has exactly the bits of a float array."""
    assert all(type(v) is float for v in scalars)
    return np.array_equal(np.array(scalars).view(np.uint64), np.asarray(array).view(np.uint64))


class TestPhasePoint:
    def test_valid(self):
        p = PhasePoint(0.5, 2.0)
        assert p.a == 0.5 and p.y == 2.0

    @pytest.mark.parametrize("a,y", [(-0.1, 1.0), (0.0, 0.0), (0.0, -1.0)])
    def test_invalid(self, a, y):
        with pytest.raises(ValueError):
            PhasePoint(a, y)

    def test_slotted_and_frozen(self):
        p = PhasePoint(0.5, 2.0)
        assert not hasattr(p, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.a = 1.0


class TestConstantHazard:
    def test_closed_forms(self):
        hz = ConstantHazard(2.0, a_star=0.5)
        assert hz(0.2) == 0.0
        assert hz(0.5) == 2.0  # right-continuous at the dead-zone edge
        assert hz.cumulative(1.5) == pytest.approx(2.0)
        assert hz.inverse_cumulative(2.0) == pytest.approx(1.5)

    def test_inverse_roundtrip(self):
        hz = ConstantHazard(0.7)
        H = np.linspace(0.0, 30.0, 100)
        assert np.allclose(hz.cumulative(hz.inverse_cumulative(H)), H)


    @pytest.mark.parametrize("a_star", [0.0, 0.7])
    def test_scalar_and_array_paths_agree_bitwise(self, a_star):
        hz = ConstantHazard(1.5, a_star=a_star)
        rng = np.random.default_rng(5)
        a = np.concatenate([rng.uniform(-1.0, 9.0, 2000),
                            [0.0, -0.0, a_star, np.nextafter(a_star, -1.0),
                             np.nextafter(a_star, 2.0), -1.0, 1e300, -math.inf, math.inf,
                             math.nan]])
        assert same_bits([hz(x) for x in a.tolist()], hz(a))
        assert same_bits([hz.cumulative(x) for x in a.tolist()], hz.cumulative(a))


class TestTableHazard:
    def test_matches_adaptive_quadrature(self):
        hz = TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0])
        for a in [0.3, 1.0, 1.7, 3.5, 6.0]:
            ref, _ = integrate.quad(hz, 0.0, a, limit=200)
            assert hz.cumulative(a) == pytest.approx(ref, abs=1e-10)

    def test_inverse_roundtrip(self):
        hz = TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0])
        H = np.linspace(0.0, 28.0, 500)
        assert np.max(np.abs(hz.cumulative(hz.inverse_cumulative(H)) - H)) < 1e-12

    def test_dead_zone_from_leading_zeros(self):
        hz = TableHazard([0.0, 1.0, 2.0], [0.0, 0.0, 3.0])
        assert hz.a_star == pytest.approx(1.0)
        assert hz(0.5) == 0.0
        assert hz.cumulative(1.0) == 0.0

    # a dead zone below a = 1, a rising and a falling segment, then a constant tail
    ZONED = ([0.0, 1.0, 2.0, 3.0, 5.0], [0.0, 0.0, 2.0, 0.5, 1.0])

    def test_closed_form_inverse_roundtrip(self):
        hz = TableHazard(*self.ZONED)
        knots = hz._table.cum
        inside = 0.5 * (knots[1:] + knots[:-1])
        # knots, inside segments, just past the dead zone, beyond the table
        H = np.concatenate([knots[2:], inside[1:], [1e-3, 0.02],
                            knots[-1] + np.array([1e-9, 0.7, 40.0])])
        a = hz.inverse_cumulative(H)
        assert np.all(np.abs(hz.cumulative(a) - H) <= 1e-13 * H)
        assert hz.inverse_cumulative(0.0) == 1.0  # the end of the dead zone
        assert np.all(a[:-3] <= 5.0) and np.all(a[-3:] > 5.0)

    def test_scalar_and_array_paths_agree_bitwise(self):
        hz = TableHazard(*self.ZONED)
        rng = np.random.default_rng(3)
        H = np.concatenate([rng.uniform(0.0, 12.0, 2000), hz._table.cum, [0.0, 5e-324]])
        a = hz.inverse_cumulative(H)
        assert [hz.inverse_cumulative(h) for h in H.tolist()] == a.tolist()
        A = np.concatenate([rng.uniform(0.0, 9.0, 2000), hz.a_knots, [0.0, 5e-324]])
        assert [hz.cumulative(x) for x in A.tolist()] == hz.cumulative(A).tolist()
        assert type(hz.inverse_cumulative(np.float64(1.5))) is float
        assert type(hz.cumulative(np.array(1.5))) is float

    @pytest.mark.parametrize("law, knots, values", [
        (TableHazard, [0.0, 1.0, 2.0], [1.0, math.nan, 1.0]),
        (TableHazard, [0.0, math.inf], [1.0, 1.0]),
        (TableFragmentation, [0.0, 0.5, 1.0], [0.0, math.nan, 0.0])],
        ids=["nan_value", "infinite_knot", "nan_density"])
    def test_non_finite_tables_raise(self, law, knots, values):
        # both table laws check their knots and values in one place; a NaN
        # hazard value once simulated a population without an error
        with pytest.raises(ValueError, match="must be finite"):
            law(knots, values)

    def test_saturated_hazard_cannot_be_inverted(self):
        hz = TableHazard([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
        assert hz.inverse_cumulative(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="saturates"):
            hz.inverse_cumulative(1.6)
        with pytest.raises(ValueError, match="saturates"):
            hz.inverse_cumulative(np.array([0.5, 1.6]))


class TestFragmentation:
    def test_beta_moments(self):
        F = BetaFragmentation(5, 5)
        assert F.moment(0) == pytest.approx(1.0)
        assert F.moment(1) == pytest.approx(0.5)
        assert F.moment(2) == pytest.approx(3.0 / 11.0)

    def test_uniform_moments(self):
        F = UniformFragmentation()
        assert F.moment(1) == pytest.approx(0.5)
        assert F.moment(2) == pytest.approx(1.0 / 3.0)

    def test_uniform_is_beta_1_1(self):
        """The uniform law's own formulas, before it became Beta(1, 1), bit
        for bit: F = 1 on [0, 1], cdf = clip, moment = 1/(k+1), sample = u."""
        F = UniformFragmentation()
        assert isinstance(F, BetaFragmentation) and (F.alpha, F.beta) == (1.0, 1.0)
        edges = [-0.0, 0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, math.nan]
        u = np.random.Generator(np.random.Philox(3)).random(10**6)
        rho = np.concatenate([u, edges])

        def ref_cdf(r):  # the Beta(1, 1) tail takes -0.0 to +0.0, which clip kept
            return np.clip(r, 0.0, 1.0) + 0.0

        def bits(a):
            return np.asarray(a).view(np.uint64)

        refs = {"pdf": lambda r: np.where((r >= 0) & (r <= 1), 1.0, 0.0), "cdf": ref_cdf,
                "sf": lambda r: 1.0 - np.clip(r, 0.0, 1.0)}
        for name, ref in refs.items():
            assert np.array_equal(bits(getattr(F, name)(rho)), bits(ref(rho))), name
            assert same_bits([getattr(F, name)(r) for r in edges], ref(np.array(edges))), name
        # a uniform lies in [0, 1]: the engine's in [0, 1 - 2^-53]; 1 + 2^-52
        # and NaN are no uniforms, and -0.0 draws +0.0
        draws = np.concatenate([u, edges[:6]])
        assert np.array_equal(bits(F.sample(draws)), bits(draws + 0.0))
        assert [F.moment(k) for k in range(5)] == [1.0 / (k + 1) for k in range(5)]
        for n in (16, 128, 256):
            x, w = gauss_legendre(n)
            rho_n, w_n = F.rule(n)
            assert np.array_equal(bits(rho_n), bits(0.5 + 0.5 * x))
            assert np.array_equal(bits(w_n), bits(0.5 * w))
        assert F.monomials == (1.0,)

    def test_beta_pdf_matches_scipy(self):
        from scipy import stats
        F = BetaFragmentation(5, 5)
        r = np.linspace(-0.2, 1.2, 57)
        assert np.allclose(F.pdf(r), stats.beta(5, 5).pdf(np.clip(r, 0, 1)) *
                           ((r > 0) & (r < 1)), atol=1e-12)

    @pytest.mark.parametrize("F", [BetaFragmentation(5, 5), BetaFragmentation(1, 1),
                                   BetaFragmentation(0.5, 0.5), BetaFragmentation(2.5, 5),
                                   UniformFragmentation(),
                                   TableFragmentation([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])],
                             ids=["beta55", "beta11", "beta0505", "beta255", "uniform",
                                  "table"])
    def test_pdf_matches_reference_as_array_and_float(self, F):
        from scipy import stats
        rho = np.array([-0.5, 0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0, 1.5, np.nan])
        expected = np.array([F.pdf(r) for r in rho])
        if isinstance(F, BetaFragmentation):
            # the gather/scatter formula the density replaced; integer
            # parameters take the polynomial form, within rounding of it,
            # and keep scipy's value at an end of [0, 1] with exponent 0
            ref = log_exp_pdf(F, rho)
            if F.alpha.is_integer() and F.beta.is_integer():
                ends = (rho == 0.0) | (rho == 1.0)
                ref[ends] = stats.beta.pdf(rho[ends], F.alpha, F.beta)
                np.testing.assert_allclose(expected, ref, rtol=1e-13, atol=0.0)
            else:
                assert np.array_equal(expected, ref)
        assert np.array_equal(F.pdf(rho), expected)
        assert all(type(F.pdf(r)) is float for r in rho)

    # F at the signed zeros, the least subnormal, 1e-300, 1/2, 1 - 1e-16, 1,
    # 1.5, +-inf and NaN: as an array and point by point, sign of zero included
    PDF_POINTS = [-0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-16, 1.0, 1.5, math.inf,
                  -math.inf, math.nan]

    @pytest.mark.parametrize("F, values", [
        (BetaFragmentation(5, 5), {4: "0x1.3b00000000000p+1", 5: "0x1.3affffffffffcp-203"}),
        (BetaFragmentation(2, 7), {2: "0x0.0000000000038p-1022", 3: "0x1.2c05bca99d4eep-991",
                                   4: "0x1.c000000000000p-2", 5: "0x1.bffffffffffffp-313"}),
        (BetaFragmentation(2.5, 5), {4: "0x1.4bc9aaa36c231p+0", 5: "0x1.d537ffffffff5p-207"}),
        (UniformFragmentation(), dict.fromkeys(range(7), "0x1.0000000000000p+0")),
        (TableFragmentation([0.0, 0.5, 1.0], [0.0, 2.0, 0.0]),
         {2: "0x0.0000000000004p-1022", 3: "0x1.56e1fc2f8f359p-995", 4: "0x1.0000000000000p+1",
          5: "0x1.0000000000000p-51"}),
    ], ids=["beta55", "beta27", "beta255", "uniform", "table"])
    def test_pdf_pinned(self, F, values):
        """``values`` maps the index of each nonzero point to its hex value;
        every other point is +0.0."""
        expected = [values.get(i, "0x0.0p+0") for i in range(len(self.PDF_POINTS))]
        assert [v.hex() for v in F.pdf(np.array(self.PDF_POINTS)).tolist()] == expected
        scalars = [F.pdf(r) for r in self.PDF_POINTS]
        assert all(type(v) is float for v in scalars)
        assert [v.hex() for v in scalars] == expected

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (1, 3), (3, 1), (2, 2), (5, 5), (2, 7),
                                             (20, 20)])
    def test_polynomial_density(self, alpha, beta):
        from scipy import stats
        F = BetaFragmentation(alpha, beta)
        rho = np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 999), [1e-2, 0.25, 0.5, 0.9]])
        dens = F.pdf(rho)
        np.testing.assert_allclose(dens, stats.beta.pdf(rho, alpha, beta), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(dens, log_exp_pdf(F, rho), rtol=1e-13, atol=0.0)
        # an end with exponent 0 has scipy's value c there, the rest 0
        edges = np.array([-0.5, 0.0, 1.0, 1.5, np.nan])
        expected = np.nan_to_num(stats.beta.pdf(edges, alpha, beta)).tolist()
        assert F.pdf(edges).tolist() == expected
        assert [F.pdf(r) for r in edges.tolist()] == expected

    @pytest.mark.parametrize("alpha, beta", [(1, 2.5), (2.5, 1), (2.5, 5), (0.5, 3)])
    def test_log_density_at_the_ends(self, alpha, beta):
        # an end with exponent 0 has scipy's value there, one with a
        # positive exponent 0, and one with a negative exponent (scipy's inf) 0
        from scipy import stats
        F = BetaFragmentation(alpha, beta)
        ends = np.array([0.0, 1.0])
        ref = stats.beta.pdf(ends, alpha, beta)
        expected = np.where(np.isinf(ref), 0.0, ref)
        np.testing.assert_allclose(F.pdf(ends), expected, rtol=1e-14, atol=0.0)
        assert [F.pdf(r) for r in ends.tolist()] == F.pdf(ends).tolist()

    # 1e300 used to ask math.comb for the polynomial's coefficient
    @pytest.mark.parametrize("alpha, beta", [(5, 5), (1, 3), (20, 20), (2.5, 5), (1e300, 1e300)])
    def test_scalar_pdf_matches_array_bits(self, alpha, beta):
        F = BetaFragmentation(alpha, beta)
        rng = np.random.default_rng(3)
        rho = np.concatenate([rng.uniform(-0.2, 1.2, 2000),
                              [0.0, 1.0, -0.0, 5e-324, 1e-300, 1.0 - 1e-16, 0.5, -math.inf,
                               math.inf, math.nan]])
        # Beta(1e300, 1e300): p log(x) overflows to -inf, and the density to 0
        with (pytest.warns(RuntimeWarning, match="overflow") if alpha == 1e300
              else contextlib.nullcontext()):
            scalars, array = [F.pdf(r) for r in rho.tolist()], F.pdf(rho)
        assert same_bits(scalars, array)

    @pytest.mark.parametrize("alpha, beta", [(-1, -1), (0, 5), (5, math.inf), (math.nan, 5)])
    def test_beta_rejects_bad_parameters(self, alpha, beta):
        # Beta(-1, -1) has the closed-form moments 1, 1/2, -0 of no density
        with pytest.raises(ValueError, match="Beta parameters"):
            BetaFragmentation(alpha, beta)

    def test_table_rejects_bad_mass(self):
        with pytest.raises(InvalidModel, match=r"\(A2\)"):
            TableFragmentation([0.0, 1.0], [0.5, 0.5])

    def test_table_moments(self):
        # symmetric triangle density on [0, 1]: m1 = 1/2
        F = TableFragmentation([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
        assert F.moment(0) == pytest.approx(1.0)
        assert F.moment(1) == pytest.approx(0.5)
        # m2 = 1/4 + 1/24 and m3 = 1/8 + (3/2) (1/24), exactly; a trapezoid
        # sum over the knots read m2 = 1/4
        assert F.moment(2) == pytest.approx(7.0 / 24.0, rel=1e-14)
        assert F.moment(3) == pytest.approx(3.0 / 16.0, rel=1e-14)
        # an asymmetric law, integrated piece by piece in exact fractions
        G = TableFragmentation([0.0, 0.2, 0.5, 1.0], [0.0, 2.0, 0.2, 1.68])
        assert [G.moment(k) for k in range(4)] == pytest.approx(
            [1.0, 64 / 125, 671 / 1875, 17859 / 62500], rel=1e-14)

    TRIANGLE = ([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])

    def test_table_cdf_is_quadratic_on_each_piece(self):
        # the integral of the density 4 rho over [0, 1/4]; linear
        # interpolation of the cdf between knots read 0.25
        F = TableFragmentation(*self.TRIANGLE)
        assert F.cdf(0.25) == 0.125
        assert F.cdf(0.75) == 0.875 and F.sf(0.75) == 0.125
        rho = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(F.cdf(rho), np.where(rho < 0.5, 2.0 * rho**2,
                                                        1.0 - 2.0 * (1.0 - rho)**2),
                                   rtol=1e-15, atol=1e-16)

    def test_table_draws_follow_the_law(self):
        # E rho^2 = m2 = 7/24 under F; inverting the linearly interpolated cdf
        # drew the law uniform on [0, 1] (1/3)
        F = TableFragmentation(*self.TRIANGLE)
        n = 200_000
        u = (np.arange(n) + np.random.default_rng(5).random(n)) / n  # stratified
        rho = F.sample(u)
        x = rho**2
        assert abs(x.mean() - 7.0 / 24.0) <= 3.0 * x.std() / math.sqrt(n)
        # and each draw inverts its cdf to rounding
        assert np.max(np.abs(F.cdf(rho) - u)) <= 1e-14

    def test_table_draws_stay_within_the_knots(self):
        # the last piece's root once rounded one ulp past its knot, where F = 0
        F = TableFragmentation([0.05, 0.35000000000000003, 0.9500000000000001],
                               [0.9523809523809521, 0.0, 2.8571428571428563])
        rho = F.sample(np.array([0.0, 0.5, 1.0 - 2.0**-53]))
        assert np.all((rho >= F.rho_knots[0]) & (rho <= F.rho_knots[-1]))
        assert F.pdf(rho[-1]) > 0.0

    def test_sampling_mean(self):
        rng = np.random.default_rng(1)
        F = BetaFragmentation(5, 5)
        s = F.sample(rng.random(20000))
        assert abs(np.mean(s) - 0.5) < 0.005


def ulp_shift(x, k):
    """x moved by k units in the last place, within [0, 1]."""
    bits = np.clip(x.view(np.int64) + k, 0, np.float64(1.0).view(np.int64))
    return bits.view(np.float64)


def bisect_draws(F, u):
    """64 halvings over the bit patterns of [0, 1]: the least x with
    cdf(x) >= u for u < 1/2, and with sf(x) <= 1 - u for u >= 1/2."""
    up = u >= 0.5
    v = np.where(up, 1.0 - u, u)
    lo = np.zeros(u.size, dtype=np.int64)
    hi = np.full(u.size, np.float64(1.0).view(np.int64))
    for _ in range(64):
        mid = lo + (hi - lo) // 2
        x = mid.view(np.float64)
        right = np.empty(u.size, dtype=bool)
        right[~up] = F.cdf(x[~up]) < v[~up]
        right[up] = F.sf(x[up]) > v[up]
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return hi.view(np.float64)


def exact_tails(alpha, beta, x):
    """(cdf, sf) of integer Beta(alpha, beta) at the float x, as exact fractions."""
    from fractions import Fraction
    m, d = float(x).as_integer_ratio()
    n = alpha + beta - 1
    terms = [math.comb(n, j) * m**j * (d - m)**(n - j) for j in range(n + 1)]
    return Fraction(sum(terms[alpha:]), d**n), Fraction(sum(terms[:alpha]), d**n)


#: the integer laws of the acceptance criteria, the workloads and the default
#: config, Beta(1, 1), and the asymmetric Beta(6, 5)
INTEGER_LAWS = [(5, 5), (20, 20), (1, 1), (6, 5)]


class TestIntegerBeta:
    """Binomial-tail cdf and draws, without scipy, for integer parameters."""

    @pytest.mark.parametrize("alpha, beta", INTEGER_LAWS)
    def test_draws_within_4_ulp_of_bisection(self, alpha, beta):
        rng = np.random.default_rng(17)
        words = np.concatenate([[0, 1, 2**53 - 1], rng.integers(0, 2**53, 10**6)])
        u = words * 2.0**-53  # Generator.random()'s uniforms
        F = BetaFragmentation(alpha, beta)
        x = F.sample(u)
        assert x[0] == 0.0 and 0.0 < x[1] < x[2] < 1.0
        # every draw: the tail it solves crosses its target within 4 ulp
        up, below, above = u >= 0.5, ulp_shift(x, -4), ulp_shift(x, 4)
        low = ~up & (u > 0.0)
        assert np.all(F.cdf(below[low]) < u[low]) and np.all(F.cdf(above[~up]) >= u[~up])
        assert np.all(F.sf(below[up]) > 1.0 - u[up]) and np.all(F.sf(above[up]) <= 1.0 - u[up])
        # the first 20,000 draws, the extreme words included: 64-step bisection
        n = 20_003
        ref = bisect_draws(F, u[:n])
        assert np.abs(x[:n].view(np.int64) - ref.view(np.int64)).max() <= 4

    @pytest.mark.parametrize("alpha, beta", INTEGER_LAWS)
    def test_tails_against_exact_sums_and_scipy(self, alpha, beta):
        from scipy import special
        F = BetaFragmentation(alpha, beta)
        x = np.linspace(0.0, 1.0, 10**5 + 1)
        cdf, sf = F.cdf(x), F.sf(x)
        # the exact binomial sums at 1,001 of the points
        for i in range(0, x.size, 100):
            c, s = exact_tails(alpha, beta, float(x[i]))
            for value, exact in ((cdf[i], c), (sf[i], s)):
                # one rounding a factor: Beta(20, 20) multiplies 37 of them
                assert abs(value - exact) <= (1e-15 if alpha + beta < 40 else 2e-15) * exact
        # scipy's own relative error against the exact sums reaches 7e-16 for
        # Beta(5, 5) and 2.7e-15 for Beta(20, 20) on this grid
        tol = 4e-15 if alpha == 20 else 2e-15
        np.testing.assert_allclose(cdf, special.betainc(alpha, beta, x), rtol=tol, atol=0.0)
        np.testing.assert_allclose(sf, special.betaincc(alpha, beta, x), rtol=tol, atol=0.0)
        assert F.cdf([-1.0, 0.0, 1.0, 2.0]).tolist() == [0.0, 0.0, 1.0, 1.0]
        assert F.sf([-1.0, 0.0, 1.0, 2.0]).tolist() == [1.0, 1.0, 0.0, 0.0]
        assert math.isnan(F.cdf(math.nan)) and type(F.cdf(0.25)) is float

    @pytest.mark.parametrize("alpha, beta", INTEGER_LAWS)
    def test_one_draw_has_the_bits_of_an_array_draw(self, alpha, beta):
        # a draw of a size-1 array takes the whole array's bits
        rng = np.random.default_rng(5)
        u = np.concatenate([rng.random(300), [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53]])
        F = BetaFragmentation(alpha, beta)
        whole = F.sample(u)
        single = [F.sample(np.array([v]))[0] for v in u.tolist()]
        assert np.array_equal(np.array(single).view(np.int64), whole.view(np.int64))

    @pytest.mark.parametrize("alpha, beta", [(2.5, 2.5), (2, 65)])
    def test_other_laws_keep_scipy_bits(self, alpha, beta):
        # Beta(2, 65) has integer parameters, but a degree past POLY_DEGREE
        from scipy import special
        u = np.random.default_rng(9).random(5000)
        F = BetaFragmentation(alpha, beta)
        assert np.array_equal(F.sample(u), special.betaincinv(alpha, beta, u))
        x = np.linspace(-0.5, 1.5, 101)
        assert np.array_equal(F.cdf(x), special.betainc(alpha, beta, np.clip(x, 0.0, 1.0)))
        assert np.array_equal(F.sf(x), special.betaincc(alpha, beta, np.clip(x, 0.0, 1.0)))
        assert F._log_norm == special.betaln(alpha, beta)


class TestModelSpec:
    @pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0])
    def test_rejects_nonfinite_growth(self, lam):
        with pytest.raises(InvalidModel, match="lambda_growth"):
            make_adder(lam, 1.0, BetaFragmentation(5, 5))

    def test_adder_fields(self, adder):
        assert [f.name for f in dataclasses.fields(adder)] == [
            "lambda_growth", "d0", "hazard", "fragmentation"]
        assert adder.beta(0.5, 2.0) == pytest.approx(2.0)

    def test_generator_on_exact_eigenfunction(self, adder_d0):
        # Q y = (lambda_growth - d0) * y for the adder, exactly
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, y = rng.uniform(0, 4), rng.uniform(0.1, 8)
            q = adder_d0.apply_generator(lambda A, Y: Y, a, y)
            assert abs(q - 0.8 * y) / y < 1e-8

    def test_generator_quadratic(self, adder):
        # Q y^2 = 2 lam y^2 + lam B y^3 (2 m2 - 1); m2 = 3/11
        a, y = 0.2, 1.0
        q = adder.apply_generator(lambda A, Y: Y**2, a, y)
        assert q == pytest.approx(2.0 - 5.0 / 11.0, rel=1e-7)

    def test_generator_on_arrays_matches_pointwise(self, adder_d0):
        rng = np.random.default_rng(3)
        a, y = rng.uniform(0, 4, (3, 5)), rng.uniform(0.1, 8, (3, 5))
        f = lambda A, Y: Y**2 + A * Y
        jump = adder_d0.jump_integral(f, a, y)
        q = adder_d0.apply_generator(f, a, y)
        assert jump.shape == q.shape == (3, 5)
        for i, j in np.ndindex(a.shape):
            point = adder_d0.jump_integral(f, a[i, j], y[i, j])
            assert type(point) is float and jump[i, j] == point
            assert q[i, j] == adder_d0.apply_generator(f, a[i, j], y[i, j])

    def test_second_order_generator_pointwise(self, adder_d0):
        # Q(Q f) needs the inner Q f at each quadrature size separately
        f = lambda A, Y: Y * Y
        inner = np.vectorize(lambda A, Y: adder_d0.apply_generator(f, A, Y))
        pointwise = adder_d0.apply_generator(inner, 0.3, 1.5)
        nested = adder_d0.apply_generator(
            lambda A, Y: adder_d0.apply_generator(f, A, Y), 0.3, 1.5)
        # re-pinned (6.2e-16 relative) when the Beta density became a polynomial
        assert nested == pointwise == 1.8020990577070732


class TestQuadratureRules:
    @pytest.mark.parametrize("n", [16, 128])
    def test_cached_rule_is_leggauss(self, n):
        x, w = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert gauss_legendre(n)[0] is x
        assert not x.flags.writeable and not w.flags.writeable


class TestValidate:
    def test_default_passes(self, adder):
        report = validate(adder)
        assert report["all_passed"]
        assert {c["name"] for c in report["checks"]} >= {"(A1) hazard bounds", "(A2) moments"}

    @pytest.mark.parametrize("hz, passed", [
        # a zero between the ages of a 64-point grid on [0, 8], and one past a = 8:
        # both used to pass
        (TableHazard([0.0, 1.0, 1.001, 1.002, 2.0], [1.0, 1.0, 0.0, 1.0, 1.0]), False),
        (TableHazard([0.0, 10.0, 10.01, 12.0], [1.0, 1.0, 0.0, 1.0]), False),
        (TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0]), True),  # criterion 7
        (ConstantHazard(1.0, 0.5), True),
        (ConstantHazard(2.0), True),
        # B rises from 0 at a_star: not bounded below by a positive constant above it
        (TableHazard([0.0, 1.0, 2.0], [0.0, 0.0, 3.0]), False),
        (TableHazard(*TestTableHazard.ZONED), False),
    ], ids=["interior_zero", "zero_past_8", "criterion_7", "dead_zone", "constant",
            "leading_zeros", "zoned"])
    def test_band_at_the_knots(self, hz, passed):
        report = validate(make_adder(1.0, hz, BetaFragmentation(5, 5)))
        band = report["checks"][-1]
        assert band["name"] == "(ii) hazard band" and band["passed"] is passed
        assert report["all_passed"] is passed and report["knots"] == hz.a_knots.size
        json.dumps(report)  # plain data, as the CLI writes it

    @pytest.mark.parametrize("a, B", [([0.0, 1.0], [0.0, 0.0]), ([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])],
                             ids=["all_zero", "last_zero"])
    def test_vanishing_hazard_is_invalid(self, a, B):
        with pytest.raises(InvalidModel, match=r"^\(A1\) hazard B\(inf\) = 0"):
            make_adder(1.0, TableHazard(a, B), BetaFragmentation(5, 5))

    def test_a3_violation(self):
        m = make_adder(1.0, ConstantHazard(1.0), BetaFragmentation(5, 5), d0=2.0)
        with pytest.raises(InvalidModel, match=r"\(A3\)"):
            validate(m)

    def test_a2_violation(self):
        with pytest.raises(InvalidModel, match=r"^\(A2\) fragmentation density must be "
                                               r"symmetric: F\(0\.015625\) = "):
            make_adder(1.0, ConstantHazard(1.0), BetaFragmentation(5, 3))
        # a model built around make_adder still meets validate's mean check
        with pytest.raises(InvalidModel, match=r"\(A2\) fragmentation mean"):
            validate(ModelSpec(1.0, 0.0, ConstantHazard(1.0), BetaFragmentation(5, 3)))

    @pytest.mark.parametrize("rho, F", [([0.1, 0.9], [1.25, 1.25]), ([0.2, 0.8], [5 / 3, 5 / 3]),
                                        ([0.0, 0.1, 0.9, 1.0], [10.0, 0.0, 0.0, 10.0])],
                             ids=["uniform_01_09", "uniform_02_08", "v_shape"])
    def test_a2_accepts_tables_whose_mirrored_knots_round(self, rho, F):
        # 1 - 0.9 = 0.09999999999999998 falls outside [0.1, 0.9], and the
        # mirror of 0.9 in the V lands on the slope at ~1.8e-15 against
        # F(0.9) = 0: a check at the knots rejected both symmetric laws
        law = TableFragmentation(rho, F)
        assert make_adder(1.0, ConstantHazard(1.0), law).fragmentation is law


class TestHTransform:
    def test_jump_rate_and_generator(self, adder):
        mk = MarkovModel(adder)
        # h = y: weighted kernel mass is y itself (2 m1 = 1)
        assert adder.jump_integral(lambda _, z: z, 0.3, 2.0) == pytest.approx(2.0, rel=1e-10)
        # A V closed form for V = 1/y + y:
        # lam (y - 1/y) + lam B (1 - (1 - 2 m2) y^2)
        a, y = 0.5, 2.0
        av = mk.apply_generator(lambda A, Y: 1.0 / Y + Y, a, y)
        expected = (y - 1.0 / y) + (1.0 - (1.0 - 6.0 / 11.0) * y**2)
        assert av == pytest.approx(expected, rel=1e-6)

    def test_one_field(self):
        assert [f.name for f in dataclasses.fields(MarkovModel)] == ["base"]


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = {
            "model_type": "adder",
            "lambda_growth": 1.5,
            "d0": 0.1,
            "hazard": {"type": "table", "a": [0.0, 1.0], "B": [1.0, 2.0]},
            "fragmentation": {"type": "uniform"},
        }
        m = model_from_config(cfg)
        assert m.lambda_growth == 1.5 and m.d0 == 0.1
        assert m.hazard(0.5) == pytest.approx(1.5)
        assert isinstance(m.fragmentation, UniformFragmentation)

    def test_general_rejected(self):
        with pytest.raises(InvalidModel):
            model_from_config({"model_type": "general"})

    def test_moment_table(self):
        F = BetaFragmentation(20, 20)
        assert F.moment(0) == 1.0
        assert F.moment(1) == pytest.approx(0.5)
        assert F.moment(2) == pytest.approx(20.0 * 21.0 / (40.0 * 41.0))

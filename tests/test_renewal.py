import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, stats

from malthus import (ConstantHazard, BetaFragmentation, FirstJumpLaw,
                     KernelAssembler, PhasePoint, SizeGrid, TableFragmentation,
                     TableHazard, UniformFragmentation, make_adder)
from malthus.model import ModelSpec, gl_nodes, trapezoid_weights
from malthus.renewal import (HAZARD_CUTOFF, SERIES_RADIUS, SERIES_TERMS, kernel_row,
                             leak_mass)
from malthus.stationary import _pi_mass_weights


def kernel_K(law, x, z, lam):
    """K_lam(x, z) = int e^{-lam t} k(phi^t x, z) psi(t|x) dt, as the row
    contraction coef @ kvals with coef = w e^{-lam t}."""
    q = law.row_quadrature(x)
    coef = q.w * np.exp(-lam * q.t)
    out = coef @ kernel_row(law.model, q, np.atleast_1d(z))
    return out if np.ndim(z) else float(out[0])


def reference_kvals(model, q, z, R):
    """Kernel values and leak mass of one row, allocated afresh per row."""
    ratio = z[None, :] / q.u[:, None]
    F = model.fragmentation
    if isinstance(F, BetaFragmentation):
        inside = (ratio > 0.0) & (ratio < 1.0)
        x = ratio[inside]
        dens = np.zeros_like(ratio)
        dens[inside] = np.exp((F.alpha - 1.0) * np.log(x)
                              + (F.beta - 1.0) * np.log1p(-x) - F._log_norm)
        # scipy's value at the ends of [0, 1]: c where the exponent is 0
        ends = (ratio == 0.0) | (ratio == 1.0)
        dens[ends] = stats.beta.pdf(ratio[ends], F.alpha, F.beta)
    else:
        dens = F.pdf(ratio)
    kvals = (2.0 / q.u)[:, None] * dens
    above = np.where(q.u > R, 2.0 * F.sf(np.minimum(R / q.u, 1.0)), 0.0)
    return kvals, above


def inline_panels(hz, a0, a_cut, n_panels, grade_lo):
    """16-node Gauss-Legendre panels on [0, a_cut], graded from
    min(grade_lo, a_cut / 4) and broken at the knots past ``a0``."""
    edges = np.concatenate([[0.0], np.geomspace(min(grade_lo, a_cut / 4), a_cut, n_panels)])
    knots = hz.a_knots - a0
    edges = np.unique(np.concatenate([edges, knots[(knots > 0) & (knots < a_cut)]]))
    return (np.concatenate(v) for v in zip(*(gl_nodes(lo, hi, 16)
                                             for lo, hi in zip(edges[:-1], edges[1:]))))


def inline_orbit_rule(hz, a0):
    """(a, w) as ``FirstJumpLaw.orbit_rule`` built them inline, before ``first_jump_rule``."""
    a_cut = hz.inverse_cumulative(hz.cumulative(a0) + HAZARD_CUTOFF) - a0
    aa, ww = inline_panels(hz, a0, a_cut, 12, 0.5)
    dens = hz(a0 + aa) * np.exp(-(hz.cumulative(a0 + aa) - hz.cumulative(a0)))
    return aa, ww * dens


def inline_mass_weights(hz, s):
    """The pi*-mass weights as ``_pi_mass_weights`` built them, on their own
    24 panels graded from 1e-5, before ``first_jump_rule``."""
    a_cut = float(hz.inverse_cumulative(HAZARD_CUTOFF))
    a, w_a = inline_panels(hz, 0.0, a_cut, 24, 1e-5)
    psi_w = hz(a) * np.exp(-hz.cumulative(a)) * w_a
    w = np.zeros_like(s)
    pos = np.flatnonzero(s > 0)
    for lo in range(0, pos.size, 128):
        at = pos[lo:lo + 128]
        w[at] = 1.0 / s[at] - (1.0 / (s[at][:, None] + a)) @ psi_w
    return w


class DirectBeta(BetaFragmentation):
    """A Beta law with no ``monomials``: its kernel passes take the direct
    contraction, the reference of the suffix sums."""

    monomials = None


class DirectUniform(UniformFragmentation):
    monomials = None


HAZARDS = [ConstantHazard(1.0), ConstantHazard(1.0, 0.5),
           TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0])]


class TestFirstJumpRule:
    @pytest.mark.parametrize("a0", [0.0, 0.3, 1.7])
    @pytest.mark.parametrize("hz", HAZARDS, ids=["constant", "dead_zone", "table"])
    def test_orbit_rule_is_the_inline_rule(self, hz, a0):
        rule = FirstJumpLaw(make_adder(1.0, hz, BetaFragmentation(5, 5))).orbit_rule(a0)
        a, w = inline_orbit_rule(hz, a0)
        assert rule.a.tobytes() == a.tobytes() and rule.w.tobytes() == w.tobytes()

    @pytest.mark.parametrize("hz", HAZARDS, ids=["constant", "dead_zone", "table"])
    def test_mass_weights_are_the_inline_weights(self, hz):
        # at a0 = 0, 0 + a and H(a) - H(0) are exact, so the shared rule
        # gives the weights' own product bit for bit
        s = np.concatenate([np.linspace(0.0, 8.0, 1024), [1e-9, 20.0]])
        w = _pi_mass_weights(make_adder(1.0, hz, BetaFragmentation(5, 5)), s)
        assert w.tobytes() == inline_mass_weights(hz, s).tobytes()


class TestFirstJumpLaw:
    def test_row_quadrature_total_mass(self, law):
        # weights integrate the jump-time density: total mass 1 up to the tail
        q = law.row_quadrature(PhasePoint(0.0, 1.0))
        assert float(np.sum(q.w)) == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(q.t) > 0) and np.all(q.u >= 1.0)

    def test_offspring_constant(self, law):
        # C_x = 2 m0 * sum(w) = 2: off the boundary too, the row weights carry
        # the whole first-jump law
        q = law.row_quadrature(PhasePoint(0.2, 1.3))
        assert float(np.sum(q.w)) == pytest.approx(1.0, abs=1e-9)

    def test_kernel_K_against_adaptive_quadrature(self, adder, law):
        x = PhasePoint(0.0, 1.0)
        lam = 1.0
        F = adder.fragmentation
        hz = adder.hazard

        def ref(z):
            def integrand(t):
                u = x.y * math.exp(t)
                a_t = x.a + (u - x.y)
                psi = hz(a_t) * u * math.exp(-(hz.cumulative(a_t) - hz.cumulative(x.a)))
                return math.exp(-lam * t) * (2.0 / u) * F.pdf(z / u) * psi

            val, _ = integrate.quad(integrand, 0.0, 10.0, limit=400)
            return val

        for z in [0.3, 0.8, 1.5, 3.0]:
            assert kernel_K(law, x, z, lam) == pytest.approx(ref(z), rel=1e-6)

    def test_kernel_K_total_mass_at_lam0(self, law):
        # int K_0(x, z) dz = C_x = 2
        x = PhasePoint(0.0, 1.0)
        z = np.linspace(0.0, 30.0, 6001)
        mass = np.trapezoid(kernel_K(law, x, z, 0.0), z)
        assert mass == pytest.approx(2.0, abs=1e-4)

    def test_kernel_K_pinned(self, law):
        # values of the per-row formula before the shared row evaluator,
        # moved by at most 4.5e-16 relative by the polynomial Beta density
        z = np.array([0.0, 0.3, 0.8, 1.5, 3.0, 7.5])
        pins = [
            (PhasePoint(0.0, 1.0), 1.0,
             ["0x0.0p+0", "0x1.01f01a453f02bp-1", "0x1.4be1e652b0669p+0",
              "0x1.a48d1d3b2ab10p-3", "0x1.258e56047e574p-7", "0x1.881c98f1a01e8p-18"],
             "0x1.bc1bafedf4300p-2"),
            (PhasePoint(0.3, 0.7), 0.0,
             ["0x0.0p+0", "0x1.913e3ec5cfad1p+0", "0x1.7e48d8088c05dp+0",
              "0x1.9264bdcce19efp-2", "0x1.f983bdd7d67e9p-6", "0x1.6d4139a930540p-15"],
             "0x1.5ea8cd325760ap-1"),
            (PhasePoint(0.2, 2.5), 0.9,
             ["0x0.0p+0", "0x1.5fff5bc6ac325p-6", "0x1.ce3473fa30fcfp-2",
              "0x1.188dc55fb9f42p+0", "0x1.b4d53d1902d34p-4", "0x1.3b65a185ef65ep-14"],
             "0x1.efcb0bb4dfb95p-1"),
        ]
        for x, lam, values, at_1_2 in pins:
            assert kernel_K(law, x, z, lam).tolist() == [float.fromhex(v) for v in values]
            assert kernel_K(law, x, 1.2, lam) == float.fromhex(at_1_2)


class TestSizeGrid:
    def test_uniform(self):
        g = SizeGrid.uniform(8.0, 128)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 8.0
        assert float(np.sum(g.weights)) == pytest.approx(8.0)
        assert 1.0 in g.nodes  # anchor node always present
        assert g.index_of(1.0) == int(np.where(g.nodes == 1.0)[0][0])

    def test_integrate_polynomial(self):
        g = SizeGrid.uniform(4.0, 4097)
        vals = g.nodes**2
        assert g.integrate(vals) == pytest.approx(4.0**3 / 3.0, rel=1e-6)

    def test_index_of_missing(self):
        g = SizeGrid.uniform(8.0, 64)
        with pytest.raises(ValueError):
            g.index_of(0.12345)


class TestKernelMatrix:
    def test_exact_eigenfunction_of_untruncated_operator(self, assembler_r8):
        # f(z) = z satisfies (G_lam f)(y) = y at lam = lambda_growth, up to
        # truncation leak; interior rows should be accurate
        grid = assembler_r8.grid
        mat = assembler_r8.matrix(1.0)
        out = mat.apply(grid.nodes)
        sel = (grid.nodes > 0.25) & (grid.nodes < 4.0)
        assert np.max(np.abs(out[sel] / grid.nodes[sel] - 1.0)) < 1e-3

    def test_adjoint_is_transpose_pairing(self, assembler_r8):
        mat = assembler_r8.matrix(1.0)
        rng = np.random.default_rng(3)
        f = rng.random(mat.grid.n)
        w = rng.random(mat.grid.n)
        lhs = float(np.dot(w, mat.apply(f)))
        rhs = float(np.dot(mat.adjoint_apply(w), f))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rows_nonnegative_and_cached(self, assembler_r8):
        mat = assembler_r8.matrix(0.5)
        assert np.all(mat.M >= 0.0)
        # every row starts at a = 0: all rows share the law's one orbit rule
        law, nodes = assembler_r8.law, assembler_r8.grid.nodes
        rule = law.orbit_rule(0.0)
        assert law.orbit_rule(0.0) is rule
        for y in nodes[[1, -1]].tolist():
            q = law.row_quadrature(PhasePoint(0.0, y))
            assert q.w is rule.w and np.array_equal(q.u, y + rule.a)

    def test_zero_size_row_is_empty(self, assembler_r8):
        mat = assembler_r8.matrix(1.0)
        assert np.all(mat.M[0] == 0.0)

    # the integer Beta laws on the direct pass: the suffix sums differ from the
    # row formula by up to 1.4e-11 relative where F vanishes (TestSuffixPass)
    @pytest.mark.parametrize("F", [DirectBeta(5, 5), DirectBeta(1, 1),
                                   TableFragmentation([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])],
                             ids=["beta55", "beta11", "table"])
    def test_matrix_matches_row_formula(self, F):
        self.check_matrix(make_adder(1.0, ConstantHazard(1.0), F), n=24)

    @staticmethod
    def check_matrix(model, n):
        grid = SizeGrid.uniform(3.0, n)
        assembler = KernelAssembler(model, grid, FirstJumpLaw(model))
        for lam in (0.0, 0.9):
            mat = assembler.matrix(lam)
            M, dM = np.zeros((grid.n, grid.n)), np.zeros((grid.n, grid.n))
            for i, y in enumerate(grid.nodes[1:], start=1):
                q = assembler.law.row_quadrature(PhasePoint(0.0, float(y)))
                coef = q.w * np.exp(-lam * q.t)
                coefs = np.stack([coef, -q.t * coef])
                kvals, above = reference_kvals(model, q, grid.nodes, grid.R)
                leak = coefs @ above / grid.R
                M[i], dM[i] = coefs @ kvals + leak[:, None]
            F = model.fragmentation
            if isinstance(F, BetaFragmentation) and F.alpha.is_integer() and F.beta.is_integer():
                # the polynomial density is within rounding of the log/exp formula
                np.testing.assert_allclose(mat.M, M, rtol=1e-13, atol=0.0)
                np.testing.assert_allclose(mat.dM, dM, rtol=1e-13, atol=0.0)
            else:
                assert np.array_equal(mat.M, M)
                assert np.array_equal(mat.dM, dM)

    # sha256 of the bytes of M and dM at lam = 0.9 on SizeGrid.uniform(3, 24):
    # the polynomial Beta density (integer parameters), its log form
    # (Beta(2.5, 5)), the uniform and the tabulated law on the direct pass,
    # and the suffix sums of the laws with ``monomials``.  The model is built
    # directly: make_adder rejects the asymmetric laws, whose kernel bits the
    # assembly computes as for any other
    @pytest.mark.parametrize("F, M_sha, dM_sha", [
        (DirectBeta(5, 5),
         "643e461d59c4ad752e0bc2987773a0af95c401f50dcfab3aed27406d166ce593",
         "bf2b991dcfdf7a3708a443bdbc89cb105645ebecac04df76515ff3e8249cffae"),
        (DirectBeta(2, 7),
         "37af8088408c7acf50d03f2ae7a2060baa9049761cf6cf14ff24074a2bc33a72",
         "3175a6fc129c31ef70e55375a77b28cf453d9eef59bea30420597430c428e321"),
        (BetaFragmentation(2.5, 5),
         "1bb206a8c719ecace305b2c4a32edd30a087f4a37410dee02e8190bd3799e505",
         "f952ba7a49901b2e943aed2122eab287825d53aabd12eb4bc83f0143c3d8696a"),
        (DirectUniform(),
         "f2bffb687c16d402197b5898966d5ff7b6d34de6e4621fff5b4105d5c8edc8ab",
         "c60ec165ad49665521b5c736c5f1c1d1cf3a2343454f4ced674b805e9b9c2fb0"),
        # the table pin moved when its cdf became exact on each piece: the
        # leak mass reads sf (M by <= 2.3e-2 of its maximum, dM by <= 7.4e-3);
        # it moved again by rounding when the cdf took the hazard's form of
        # the quadratic (16 entries of M by <= 1.2e-16, 20 of dM by <= 2.8e-17)
        (TableFragmentation([0.0, 0.5, 1.0], [0.0, 2.0, 0.0]),
         "71a38945b43629db2f1090f86a4f1b463438f8eddcf401d76cdf67b36780a815",
         "04279d372764d52268acbd42fc1fd0b475b3a9cf1ccc47e59c9a61f60e0f37fe"),
        (BetaFragmentation(5, 5),
         "ae18fe54cb62cc2f772d40ff3824d4816f0813db7d1926a0ad3dac695b14f476",
         "3d4296918c8c81e6b4b491db29f3578217b5d994f4fd9d637bfa77e0991d5d06"),
        (BetaFragmentation(2, 7),
         "b4e97c56af20a74e2f52fc30fc1627748b43a2bb7235efb5ce85f22f4aa044f7",
         "6236dc0bc83f5d957cbc968fc74011e13c4187b3276d904dcbb7e21559b5ee78"),
        (UniformFragmentation(),
         "8626b87596839e2d05ea6f47806849ebc7985a6cdec97c518decb083167b733f",
         "a26508531859f590ae7ddc2d942c172b4ef1b2793823f92ff0a2321d65c164b0"),
    ], ids=["beta55", "beta27", "beta255", "uniform", "table",
            "beta55_suffix", "beta27_suffix", "uniform_suffix"])
    def test_matrix_bits_pinned(self, F, M_sha, dM_sha):
        model = ModelSpec(1.0, 0.0, ConstantHazard(1.0), F)
        mat = KernelAssembler(model, SizeGrid.uniform(3, 24)).matrix(0.9)
        assert hashlib.sha256(mat.M.tobytes()).hexdigest() == M_sha
        assert hashlib.sha256(mat.dM.tobytes()).hexdigest() == dM_sha

    def test_series_radius_bounds_the_remainder(self):
        r, K = SERIES_RADIUS, SERIES_TERMS
        bound = lambda r: r**K * math.exp(r) / math.factorial(K)
        assert bound(r) <= 2.0**-53 < bound(r * (1.0 + 1e-12))

    # the laws with ``monomials`` on the direct pass, whose rows the reference
    # below rebuilds by ``kernel_row``
    @pytest.mark.parametrize("hazard, F", [
        (ConstantHazard(1.0), DirectBeta(5, 5)),
        (ConstantHazard(1.0), DirectUniform()),
        (ConstantHazard(1.0), TableFragmentation([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])),
        (ConstantHazard(1.0, 0.3), DirectBeta(5, 5)),
        (ConstantHazard(1.0, 0.7), DirectBeta(5, 5)),
        (TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0]), DirectBeta(5, 5)),
    ], ids=["beta55", "uniform", "table", "a_star_0.3", "a_star_0.7", "table_hazard"])
    def test_series_matches_direct_pass(self, hazard, F):
        """The lam-series of a kernel pass at lam0 against a direct pass at lam.

        A fresh pass at lam rounds its own 192-term contractions, and differs
        from the centre's by up to ~26 2^-53 relative in rounding alone; so
        the direct pass here keeps the centre's contraction with e^{-lam0 t}
        and adds the rest, e^{-lam0 t} expm1(-(lam - lam0) t), row by row.
        What is left is the series' truncation and its Horner rounding.
        """
        model = make_adder(1.0, hazard, F)
        grid = SizeGrid.uniform(3.0, 24)
        law = FirstJumpLaw(model)
        assembler = KernelAssembler(model, grid, law)
        lam0 = 0.9
        centre = assembler.matrix(lam0)
        for r in (0.5, 1.0, -0.5, -1.0):
            lam = lam0 + r * SERIES_RADIUS / assembler.t_max
            while abs(lam - lam0) * assembler.t_max > SERIES_RADIUS:  # rounded past it
                lam = float(np.nextafter(lam, lam0))
            mat = assembler.matrix(lam)
            assert mat.centre == lam0 and assembler.passes == 1
            d = lam - lam0
            M = centre.M.copy()
            for i, y in enumerate(grid.nodes[1:].tolist(), start=1):
                q = law.row_quadrature(PhasePoint(0.0, y))
                rest = q.w * np.exp(-lam0 * q.t) * np.expm1(-d * q.t)
                M[i] += (rest @ kernel_row(model, q, grid.nodes)
                         + rest @ leak_mass(F, q.u, grid.R) / grid.R)
            assert np.array_equal(mat.M == 0.0, M == 0.0)
            assert np.all(np.abs(mat.M - M) <= 4 * 2.0**-53 * M)

    def test_leak_correction_positive_near_boundary(self, adder, law):
        # a row's leak mass (1/R) int e^{-lam t} psi (mass of k above R) dt,
        # which M adds to every entry of the row
        grid = SizeGrid.uniform(4.0, 64)
        mat = KernelAssembler(adder, grid, law).matrix(1.0)

        def leak(y):
            q = law.row_quadrature(PhasePoint(0.0, y))
            return float(q.w * np.exp(-q.t) @ leak_mass(adder.fragmentation, q.u, grid.R)) / grid.R

        first, last = leak(grid.nodes[1].item()), leak(grid.nodes[-1].item())
        assert last > 0.0  # orbits from y = R leak past R
        assert first < last
        assert mat.M[-1, 0] == pytest.approx(last, rel=1e-14)  # F(0) = 0: the leak alone


class TestSuffixPass:
    # built with ModelSpec directly: make_adder rejects the asymmetric laws
    @pytest.mark.parametrize("F, reference", [
        (BetaFragmentation(5, 5), DirectBeta(5, 5)),
        (BetaFragmentation(2, 2), DirectBeta(2, 2)),
        (BetaFragmentation(1, 1), DirectBeta(1, 1)),
        (UniformFragmentation(), DirectUniform()),
        (BetaFragmentation(2, 7), DirectBeta(2, 7)),
        (BetaFragmentation(9, 1), DirectBeta(9, 1)),
    ], ids=["beta55", "beta22", "beta11", "uniform", "beta27", "beta91"])
    @pytest.mark.parametrize("R, n", [(3, 24), (8, 257)], ids=["R3", "R8"])
    def test_moments_match_direct_pass(self, F, reference, R, n):
        grid = SizeGrid.uniform(R, n)
        suffix = KernelAssembler(ModelSpec(1.0, 0.0, ConstantHazard(1.0), F), grid)
        direct = KernelAssembler(ModelSpec(1.0, 0.0, ConstantHazard(1.0), reference), grid,
                                 suffix.law)
        assert (suffix.kernel_pass, direct.kernel_pass) == ("suffix", "direct")
        suffix.matrix(1.0)  # sets t_max
        for lam in (1.0, 1.0 + SERIES_RADIUS / suffix.t_max, 1.0 - SERIES_RADIUS / suffix.t_max):
            (_, got), (_, want) = suffix._direct_pass(lam), direct._direct_pass(lam)
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.all(got[0] >= 0.0)
            for m in range(SERIES_TERMS):
                assert np.max(np.abs(got[m] - want[m])) <= 1e-12 * np.max(np.abs(want[m]))

    @pytest.mark.parametrize("F, reference", [(BetaFragmentation(9, 1), DirectBeta(9, 1)),
                                              (UniformFragmentation(), DirectUniform())],
                             ids=["beta91", "uniform"])
    def test_orbit_node_at_a_grid_size_counts(self, F, reference):
        # z = u gives rho = 1, where these laws do not vanish (F(1) = 9 for
        # Beta(9, 1)): the row of y = 1 must count its first orbit node at the
        # grid size z = u_0
        law = FirstJumpLaw(ModelSpec(1.0, 0.0, ConstantHazard(1.0), F))
        u0 = law.row_quadrature(PhasePoint(0.0, 1.0)).u[0]
        nodes = np.array([0.0, 0.5, 1.0, u0, 2.0, 3.0])
        grid = SizeGrid(3.0, nodes, trapezoid_weights(nodes))
        (_, got), (_, want) = (
            KernelAssembler(ModelSpec(1.0, 0.0, ConstantHazard(1.0), G), grid, law)._direct_pass(1.0)
            for G in (F, reference))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("F", [BetaFragmentation(6, 6), BetaFragmentation(2.5, 5),
                                   TableFragmentation([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])],
                             ids=["degree_10", "beta255", "table"])
    def test_other_laws_take_the_direct_pass(self, F):
        assert F.monomials is None
        model = ModelSpec(1.0, 0.0, ConstantHazard(1.0), F)
        assert KernelAssembler(model, SizeGrid.uniform(3, 24)).kernel_pass == "direct"

    @pytest.mark.parametrize("alpha, beta", [(5, 5), (2, 7), (9, 1), (1, 1)])
    def test_monomials_are_the_density(self, alpha, beta):
        F = BetaFragmentation(alpha, beta)
        rho = np.linspace(0.0, 1.0, 101)
        poly = sum(a * rho**k for k, a in enumerate(F.monomials))
        np.testing.assert_allclose(poly, F.pdf(rho), rtol=0.0, atol=1e-12)
        assert all(float(a).is_integer() for a in F.monomials)

import math
import warnings

import numpy as np
import pytest
from numpy.random import Philox
from scipy import integrate

from malthus import (BetaFragmentation, ConstantHazard, Density2D, EmptyMinorant,
                     GridMismatch, InvalidModel, NoConvergence, PhasePoint, SimConfig,
                     TableFragmentation, TableHazard, UniformFragmentation, check_drift, default_V,
                     doeblin_minorant, drift_offset, ergodicity_report,
                     MarkovModel, make_adder, pi_star,
                     pi_star_density, run_replicates, simulate_population,
                     skeleton_mc_density, solve_eta_star, weighted_tv)
import malthus.stationary
from malthus.renewal import HAZARD_CUTOFF
from malthus.model import ModelSpec, gl_nodes
from malthus.stationary import (_eta_operator, _h_chain_endpoints, _pi_mass_weights,
                                reference_profile, simpson_weights)


@pytest.fixture(scope="module")
def profile(adder):
    return solve_eta_star(adder)


def plain_eta_star(model, y_max=8.0, n=1024):
    """(eta*, kappa, sweeps) by the plain normalised fixed-point loop, without
    Anderson mixing, on the grid, operator and stop rule of ``solve_eta_star``."""
    hz = model.hazard
    s = np.linspace(0.0, y_max, n)
    h = s[1] - s[0]
    a_cut = float(hz.inverse_cumulative(HAZARD_CUTOFF))
    psi_grid = np.arange(0.0, y_max + a_cut + h, h)
    psi_vals = hz(psi_grid) * np.exp(-hz.cumulative(psi_grid))
    sweep = _eta_operator(model, s, psi_vals, *model.fragmentation.rule(256))
    mass = simpson_weights(s) * _pi_mass_weights(model, s)
    eta = np.ones(n)
    eta[0] = 0.0
    eta = eta / float(mass @ eta)
    for sweeps in range(1, 10_001):
        new = sweep(eta)
        new = new / float(mass @ new)
        diff = float(np.max(np.abs(new - eta)) / np.max(np.abs(new)))
        eta = new
        if diff < 1e-10:
            return eta, float(mass @ sweep(eta)), sweeps
    raise AssertionError("the plain loop did not converge")


def h_chain_loop(model, x0, t_end, seed, i):
    """Sample i of the size-harmonic chain, jump by jump on numpy's Philox.

    The reference for ``_h_chain_endpoints``: jump k reads the block at
    counter (k, 0, 0, 0), which ``Philox(counter=(k - 1, 0, 0, 0))`` returns
    first, and keeps the fraction rho of word 1 if the uniform of word 2 is
    below it, else 1 - rho.
    """
    lam, hz = model.lambda_growth, model.hazard
    t, a, y, k = 0.0, x0.a, x0.y, 0
    while True:
        k += 1
        w = Philox(counter=np.array([k - 1, 0, 0, 0], dtype=np.uint64),
                   key=np.array([seed, i], dtype=np.uint64)).random_raw(3)
        e = -math.log1p(-float(w[0] >> 11) * 2.0**-53)
        a_div = hz.inverse_cumulative(hz.cumulative(a) + e)
        t_div = t + math.log1p((a_div - a) / y) / lam
        if t_div >= t_end:
            g = math.exp(lam * (t_end - t))
            return a + y * (g - 1.0), y * g
        u = np.array([float(w[1] >> 11) * 2.0**-53])
        rho = float(model.fragmentation.sample(u)[0])
        rho = rho if float(w[2] >> 11) * 2.0**-53 < rho else 1.0 - rho
        t, a, y = t_div, 0.0, rho * (y + (a_div - a))


class TestEtaStar:
    def test_converges(self, profile):
        assert profile.residual < 1e-8
        assert profile.sweeps == 15  # Anderson-mixed; 41 plain sweeps
        assert abs(profile.kappa - 1.0) < 1e-4
        assert profile.values[0] == 0.0
        assert np.all(profile.values >= 0.0)

    @pytest.mark.parametrize("hazard, law, grid", [
        (ConstantHazard(1.0), BetaFragmentation(5, 5), {}),
        (TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0]), BetaFragmentation(5, 5), {}),
        (ConstantHazard(1.0), UniformFragmentation(), {"y_max": 16.0, "n": 2048}),
    ], ids=["beta55", "table_hazard", "uniform_16_2048"])
    def test_mixed_matches_plain_loop(self, hazard, law, grid):
        model = make_adder(1.0, hazard, law)
        profile = solve_eta_star(model, **grid)
        eta, kappa, sweeps = plain_eta_star(model, **grid)
        assert np.max(np.abs(profile.values - eta)) <= 5e-10 * np.max(eta)
        assert abs(profile.kappa - kappa) <= 1e-9
        assert profile.residual < 1e-8 and abs(profile.pi_mass - 1.0) < 1e-6
        # 15, 15 and 17 mixed sweeps against 41, 41 and 58 plain ones
        assert profile.sweeps <= sweeps // 2

    def test_negative_mixed_iterate_takes_the_plain_sweep(self, adder, monkeypatch):
        # a least-squares solution scaled by 1e12 sends every mixed iterate
        # below 0 somewhere (the mixing correction has pi*-mass 0, so it
        # changes sign): each step must take the plain sweep instead
        lstsq, calls = np.linalg.lstsq, []

        def scaled(a, b, rcond=None):
            calls.append(a.shape)
            gamma, *rest = lstsq(a, b, rcond=rcond)
            return (1e12 * gamma, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", scaled)
        profile = solve_eta_star(adder, n=256)
        eta, kappa, sweeps = plain_eta_star(adder, n=256)
        assert len(calls) == sweeps - 2  # every sweep but the first and the last tried to mix
        assert profile.sweeps == sweeps == 41
        assert np.array_equal(profile.values, eta) and profile.kappa == kappa

    def test_truncated_grid_raises(self, adder):
        # converges to a residual near 1e-11, but the sweep loses half the mass
        with pytest.raises(NoConvergence, match="pi\\* mass 0.478"):
            solve_eta_star(adder, y_max=0.5)

    def test_gathered_sweep_matches_interp_loop(self, adder, profile):
        s = profile.s_nodes
        h, n = s[1] - s[0], s.size
        hz = adder.hazard
        psi_grid = np.arange(0.0, s[-1] + float(hz.inverse_cumulative(HAZARD_CUTOFF)) + h, h)
        psi_vals = hz(psi_grid) * np.exp(-hz.cumulative(psi_grid))
        rho, w_rho = gl_nodes(0.0, 1.0, 256)
        sweep = _eta_operator(adder, s, psi_vals, *adder.fragmentation.rule(256))

        def reference(eta):
            # one np.interp per rho, as the sweep was before it was tabulated
            conv = np.convolve(psi_vals, eta) * h
            m = conv.size
            conv[:n] -= 0.5 * h * psi_vals[:n] * eta[0]
            conv -= 0.5 * h * psi_vals[0] * np.concatenate([eta, np.zeros(m - n)])
            conv_grid = np.arange(m) * h
            out = np.zeros(n)
            for r, wf in zip(rho, w_rho * adder.fragmentation.pdf(rho)):
                out += wf * np.interp(s / r, conv_grid, conv, left=0.0, right=0.0)
            return 2.0 * out

        rng = np.random.default_rng(5)
        for eta in (profile.values, rng.uniform(0.5, 2.0, n)):
            np.testing.assert_allclose(sweep(eta), reference(eta), rtol=1e-14, atol=0.0)

    def test_scalar_and_array_paths_agree_bitwise(self, profile):
        s_nodes = profile.s_nodes
        rng = np.random.default_rng(11)
        s = np.concatenate([rng.uniform(-1.0, 9.0, 2000), s_nodes,
                            0.5 * (s_nodes[1:] + s_nodes[:-1]),
                            [0.0, -0.0, s_nodes[-1], np.nextafter(s_nodes[-1], 9.0), -1.0,
                             -math.inf, math.inf, math.nan]])
        scalars = [profile(x) for x in s.tolist()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(np.array(scalars).view(np.uint64), profile(s).view(np.uint64))

    def test_pi_star_mass(self, profile):
        assert abs(profile.pi_mass - 1.0) < 1e-6

    @pytest.mark.parametrize("hz", [ConstantHazard(1.0),
                                    TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0]),
                                    ConstantHazard(1.0, a_star=0.5)],
                             ids=["constant", "table", "dead_zone"])
    def test_mass_weights_match_pointwise_quad(self, hz):
        model = make_adder(1.0, hz, BetaFragmentation(5, 5))
        a_cut = float(hz.inverse_cumulative(HAZARD_CUTOFF))
        s = np.linspace(0.0, 8.0, 1024)
        s = np.concatenate([s[::31], s[1:3]])  # and the poles nearest 0, 8/1023 and 16/1023
        w = _pi_mass_weights(model, s)
        assert w[0] == 0.0
        for si, wi in zip(s[1:], w[1:]):
            val, _ = integrate.quad(lambda a: hz(a) * math.exp(-hz.cumulative(a)) / (si + a),
                                    0.0, a_cut, epsabs=0.0, epsrel=1e-13, limit=400)
            assert wi == pytest.approx(1.0 / si - val, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 256, 1024, 1025])
    def test_simpson_weights_match_scipy(self, n):
        rng = np.random.default_rng(n)
        y = rng.uniform(0.5, 2.0, n)
        for s in (np.linspace(0.0, 8.0, n), np.cumsum(rng.uniform(0.1, 1.0, n))):
            ref = integrate.simpson(y, x=s)
            assert simpson_weights(s) @ y == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_fixed_point_against_direct_quadrature(self, adder, profile):
        # evaluate the renewal map by adaptive quadrature at spot values; the
        # inner integrand, called ~2.7 million times, is on Python floats:
        # psi(a) = b e^{-b a} of the fixture's constant hazard, and eta* by np.interp
        F = adder.fragmentation.pdf
        b = adder.hazard.b
        assert adder.hazard.a_star == 0.0
        s_nodes, values = profile.s_nodes, profile.values

        def T(s):
            def inner(rho):
                u = s / rho
                val, _ = integrate.quad(
                    lambda z: b * math.exp(-b * (u - z)) * np.interp(z, s_nodes, values),
                    0.0, min(u, s_nodes[-1]), limit=200)
                return F(rho) * val

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out, _ = integrate.quad(inner, 1e-9, 1.0, limit=200)
            return 2.0 * out

        for s in [0.5, 1.0, 2.0, 4.0]:
            assert T(s) == pytest.approx(profile(s), rel=0.01)

    def test_pi_star_density_form(self, adder, profile):
        # pi*(a, y) = exp(-H(a)) / y^2 * eta*(y - a); zero when y <= a
        assert pi_star(profile, adder, 1.0, 0.5) == 0.0
        a, y = 0.5, 2.0
        ref = math.exp(-0.5) / 4.0 * profile(1.5)
        assert pi_star(profile, adder, a, y) == pytest.approx(ref)


class TestWeightedTV:
    def test_zero_on_equal(self, profile, adder):
        d = pi_star_density(profile, adder, np.linspace(0, 3, 10), np.linspace(0.1, 4, 12))
        assert weighted_tv(d, d) == 0.0

    def test_grid_mismatch(self, profile, adder):
        d1 = pi_star_density(profile, adder, np.linspace(0, 3, 10), np.linspace(0.1, 4, 12))
        d2 = pi_star_density(profile, adder, np.linspace(0, 3, 11), np.linspace(0.1, 4, 12))
        with pytest.raises(GridMismatch):
            weighted_tv(d1, d2)

    def test_weight_lower_bounds_plain_l1(self, profile, adder):
        a = np.linspace(0.1, 3, 10)
        y = np.linspace(0.5, 4, 12)
        d1 = pi_star_density(profile, adder, a, y)
        d2 = Density2D(a, y, d1.values * 1.1)
        plain = float(np.sum(d1.weights * np.abs(d1.values - d2.values)))
        assert weighted_tv(d1, d2) > plain


class TestDrift:
    def test_offsets(self, adder, adder_uniform):
        assert drift_offset(adder) == 3.1999999999999997
        assert drift_offset(adder_uniform) == pytest.approx(4.0)
        # lam max over B in {0.5, 2} of (B + 1 / (B (1 - 2 m2))), m2 = 3/11;
        # B.upper alone gave 3.1
        table = make_adder(1.0, HAZARDS["table"], BetaFragmentation(5, 5))
        assert drift_offset(table) == pytest.approx(4.9)
        # the triangle law: m2 = 7/24, so d = 1 + 1 / (1 - 7/12) = 3.4
        triangle = TableFragmentation([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
        assert drift_offset(make_adder(1.0, 1.0, triangle)) == pytest.approx(3.4)

    @pytest.mark.parametrize("kwargs", [{"box": (10.0, -1.0)}, {"box": (0.0, 10.0)},
                                        {"grid_n": 0}])
    def test_bad_grid_raises(self, adder, kwargs):
        # the size-harmonic transform divides by y: a grid off y > 0 has no margins
        with pytest.raises(ValueError, match="box|grid_n"):
            check_drift(adder, **kwargs)

    def test_drift_margin_small_grid(self, adder):
        rep = check_drift(adder, grid_n=16)
        assert rep.passed
        rep_bad = check_drift(adder, grid_n=16, d=0.75 * 3.2)
        assert not rep_bad.passed
        assert rep_bad.worst_margin == pytest.approx(0.8, abs=0.05)

    @pytest.mark.parametrize("name", ["adder", "adder_uniform"])
    def test_grid_margins_match_pointwise(self, request, name):
        # B is constant: the ages are the ends of [0, a_max]
        model = request.getfixturevalue(name)
        rep = check_drift(model, grid_n=8)
        markov = MarkovModel(model)
        ages, sizes = [0.0, 10.0], np.linspace(10.0 / 8, 10.0, 8)
        expected = np.array([[markov.apply_generator(default_V, a, y)
                              + rep.c * default_V(a, y) - rep.d for y in sizes]
                             for a in ages])
        assert rep.grid == (2, 8)
        assert np.array_equal(rep.margins, expected)
        i, j = np.unravel_index(np.argmax(expected), expected.shape)
        assert rep.worst_point == (ages[i], sizes[j])
        assert rep.worst_margin == expected[i, j]

    def test_nan_margin_fails(self, adder, monkeypatch):
        a0, y0 = 10.0, np.linspace(10.0 / 8, 10.0, 8)[5]

        def V(a, y):
            return np.where((a == a0) & (y == y0), np.nan, default_V(a, y))

        monkeypatch.setattr(malthus.stationary, "default_V", V)
        rep = check_drift(adder, grid_n=8)
        assert math.isnan(rep.worst_margin) and not rep.passed
        assert rep.worst_point == (a0, y0)


HAZARDS = {"constant": ConstantHazard(1.0), "a_star": ConstantHazard(1.0, a_star=0.3),
           "b2": ConstantHazard(2.0),
           "table": TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0])}
# the table law has a dip at its knot 0.5, where rho F(rho) takes its minimum
LAWS = [UniformFragmentation(), BetaFragmentation(5, 5), BetaFragmentation(20, 20),
        BetaFragmentation(0.5, 0.5), BetaFragmentation(2.5, 0.7),
        TableFragmentation([0.0, 0.2, 0.5, 1.0], [0.0, 2.0, 0.2, 1.68])]


#: the ages ``check_drift`` takes on [0, 10] for each of ``HAZARDS``: the ends and the knots
DRIFT_AGES = {"constant": [0.0, 10.0], "a_star": [0.0, 0.3, 10.0], "b2": [0.0, 10.0],
              "table": [0.0, 1.0, 2.0, 4.0, 10.0]}


class TestDriftReference:
    """``check_drift`` against the closed form of AV + cV - d for V = 1/y + y:
    lam (y - 1/y) + c (y + 1/y) + lam B(a) (2 - 2 m1 - 2 (m1 - m2) y^2) - d."""

    @pytest.mark.parametrize("law", LAWS[:3], ids=["uniform", "beta5", "beta20"])
    @pytest.mark.parametrize("hazard", HAZARDS)
    def test_margins_match_closed_form(self, hazard, law):
        model = make_adder(1.0, HAZARDS[hazard], law)
        rep = check_drift(model, grid_n=16)
        a = np.array(DRIFT_AGES[hazard])[:, None]
        y = np.linspace(10.0 / 16, 10.0, 16)
        lam, m1, m2 = model.lambda_growth, law.moment(1), law.moment(2)
        exact = (lam * (y - 1.0 / y) + rep.c * (y + 1.0 / y)
                 + lam * model.hazard(a) * (2.0 - 2.0 * m1 - 2.0 * (m1 - m2) * y**2) - rep.d)
        assert rep.margins.shape == exact.shape
        assert np.all(np.abs(rep.margins - exact) <= 1e-8 * (1.0 + np.abs(exact)))

    @pytest.mark.parametrize("law", LAWS[:3], ids=["uniform", "beta5", "beta20"])
    @pytest.mark.parametrize("hazard", HAZARDS)
    def test_worst_margin_bounds_a_full_grid(self, hazard, law):
        # the extreme ages bound the generator's margins at every age of a 2-D
        # grid, less its finite-difference noise
        model = make_adder(1.0, HAZARDS[hazard], law)
        rep = check_drift(model, grid_n=16)
        nodes = np.linspace(10.0 / 16, 10.0, 16)
        A, Y = np.meshgrid(nodes, nodes, indexing="ij")
        grid = MarkovModel(model).apply_generator(default_V, A, Y) + rep.c * default_V(A, Y)
        assert rep.worst_margin >= np.max(grid - rep.d) - 1e-9 * (1.0 + abs(rep.d))


#: Beta laws unbounded at both ends, whose rule is Gauss-Jacobi
SINGULAR = [BetaFragmentation(0.5, 0.5), BetaFragmentation(0.7, 0.7)]


def exact_moment(F, k):
    """int rho^k F drho in closed form: ``moment`` for a Beta or uniform law, and
    for a table the sum over its pieces of int rho^k (c0 + c1 rho) drho."""
    if not isinstance(F, TableFragmentation):
        return F.moment(k)
    r, v = F.rho_knots, F.F_values
    c1 = np.diff(v) / np.diff(r)
    c0 = v[:-1] - c1 * r[:-1]
    a, b = r[:-1], r[1:]
    return math.fsum(c0 * (b**(k + 1) - a**(k + 1)) / (k + 1)
                     + c1 * (b**(k + 2) - a**(k + 2)) / (k + 2))


class TestSplitRule:
    @pytest.mark.parametrize("law", LAWS + SINGULAR + [BetaFragmentation(1.1, 1.1),
                                                       BetaFragmentation(1.5, 1.5)],
                             ids=["uniform", "beta5", "beta20", "beta05", "beta25_07", "table",
                                  "beta05_sym", "beta07_sym", "beta11", "beta15"])
    def test_jump_integral_matches_closed_form_moments(self, law):
        # the 128-node Legendre rule on [0, 1] missed 2 m1 by 4.4e-3 for
        # Beta(0.5, 0.5), the table's moments by up to 3e-5 across its kinks,
        # and the mass by 2.9e-6 for Beta(1.1, 1.1), whose F' is unbounded
        model = ModelSpec(1.0, 0.0, ConstantHazard(1.0), law)  # the asymmetric laws too
        for k in range(5):
            got = model.jump_integral(lambda a, z: z**k, 0.0, 1.0)
            assert abs(got - 2.0 * exact_moment(law, k)) <= 1e-13, k

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("law", [UniformFragmentation(), BetaFragmentation(5, 5),
                                     BetaFragmentation(2.5, 2.5)], ids=["uniform", "beta5",
                                                                         "beta25"])
    def test_one_piece_is_the_legendre_rule_times_pdf(self, law, n):
        # the bits every output of these laws was pinned with
        rho, w = gl_nodes(0.0, 1.0, n)
        got = law.rule(n)
        assert np.array_equal(got[0], rho) and np.array_equal(got[1], w * law.pdf(rho))

    def test_table_rule_spreads_n_nodes_over_its_pieces(self):
        rho, w = LAWS[-1].rule(256)
        assert rho.shape == w.shape == (258,)  # 86 on each of 3 pieces
        assert abs(w.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [128, 256])
    def test_rule_off_its_mass_raises(self, n):
        # far narrower than the nodes: 128 Legendre nodes give mass 2.8e-6, 256 give 0.10
        with pytest.raises(InvalidModel, match=f"Beta\\(100000.5, 100000.5\\): the {n}-node"):
            BetaFragmentation(100000.5, 100000.5).rule(n)

    def test_singular_law_fails_the_drift_bound_it_misses(self):
        # AV + V reads 5 at (0, 4), the exact offset, so d = 4.999 must fail;
        # on the Legendre rule it read 4.99569 there, and the check passed
        model = make_adder(1.0, ConstantHazard(1.0), SINGULAR[0])
        rep = check_drift(model, grid_n=40, d=4.999)
        assert not rep.passed and rep.worst_point == (0.0, 4.0)
        assert rep.worst_margin == pytest.approx(1e-3, abs=1e-5)


def one_jump_density(model, a0, y0, t, a, y):
    """p1_t((a0, y0); a, y): the density at (a, y) of the size-harmonic chain
    from (a0, y0) over the paths with exactly one jump before t.

    The chain grows to u = y0 e^{lam s}, jumps at time s at rate
    2 m1 lam u B(a_pre), a_pre = a0 + u - y0, to (0, z), z = rho u with rho of
    density rho F(rho) / m1, and flows to (y - z, y) without a jump; the
    Jacobian of (s, z) -> (a, y) is lam y.  Broadcasts; 0 off y > a >= 0.
    """
    lam, hz, F = model.lambda_growth, model.hazard, model.fragmentation
    m = 2.0 * F.moment(1)
    a, y = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(y, dtype=float))
    ok = (a >= 0) & (y > a)
    z = np.where(ok, y - a, 1.0)
    s = t - np.log(np.where(ok, y, 2.0) / z) / lam
    u = y0 * np.exp(lam * s)
    a_pre = a0 + u - y0
    rho = z / u
    jump = 2.0 * rho * F.pdf(rho) * hz(a_pre) / np.where(ok, y, 1.0)
    survive = np.exp(-m * (hz.cumulative(a_pre) - hz.cumulative(a0) + hz.cumulative(a)))
    return np.where(ok & (s >= 0), jump * survive, 0.0)


def skeleton_one_jump_min(model, compact, consts, a_nodes, y_nodes):
    """min over a 41 x 41 grid of starting points of the compact of
    sum_{j=1}^{j_star} mu_j p1_{j Delta}, on the (a, y) grid."""
    a_lo, a_hi, y_lo, y_hi = compact
    A, Y = np.meshgrid(a_nodes, y_nodes, indexing="ij")
    starts = np.meshgrid(np.linspace(a_lo, a_hi, 41), np.linspace(y_lo, y_hi, 41))
    a0, y0 = np.unique(np.column_stack([g.ravel() for g in starts]), axis=0).T[..., None, None]
    total = sum(consts.mu_weights[j] * one_jump_density(model, a0, y0, j * consts.Delta, A, Y)
                for j in range(1, consts.j_star + 1))
    return total.min(axis=0)


class TestDoeblin:
    def test_minorant_positive_and_bounded(self, adder):
        nu, c = doeblin_minorant(adder, (0.0, 1.0, 1.0, 2.0))
        assert nu.mass >= 1e-3
        assert c.Delta == math.log(2.0) and 1 <= c.j_star <= 64
        assert c.mu_weights.tolist() == [0.5 ** (j + 1) for j in range(c.j_star + 1)]
        assert np.all(nu.values >= 0.0)

    @pytest.mark.parametrize("kwargs, error", [
        ({"delta": -1.0}, TypeError), ({"delta": 0.0}, TypeError), ({"delta": math.nan}, TypeError),
        ({"Delta": 0.0}, ValueError), ({"j_star": 0}, TypeError), ({"grid_n": 1}, ValueError),
    ], ids=["negative_delta", "zero_delta", "nan_delta", "zero_Delta", "zero_j_star",
            "one_node"])
    def test_vacuous_arguments_raise(self, adder, kwargs, error):
        # a step Delta <= 0 or a one-node grid gave a minorant of mass 0; the
        # window delta and the horizon j_star are no longer arguments
        with pytest.raises(error):
            doeblin_minorant(adder, (0.0, 1.0, 1.0, 2.0), **kwargs)

    def test_mass_ordering(self):
        masses = []
        for F in [UniformFragmentation(), BetaFragmentation(5, 5), BetaFragmentation(20, 20)]:
            m = make_adder(1.0, ConstantHazard(1.0), F)
            nu, _ = doeblin_minorant(m, (0.0, 1.0, 1.0, 2.0), grid_n=32)
            masses.append(nu.mass)
        assert masses[0] > masses[1] > masses[2] > 0.0

    @pytest.mark.parametrize("hz", list(HAZARDS.values()), ids=list(HAZARDS))
    @pytest.mark.parametrize("d0", [0.0, 0.2])
    @pytest.mark.parametrize("compact", [
        (0.0, 1.0, 1.0, 2.0), (0.5, 0.5, 1.0, 2.0), (0.0, 1.0, 1.5, 1.5), (0.2, 0.2, 0.7, 0.7),
    ], ids=["box", "a_point", "y_point", "point"])
    def test_minorant_below_one_jump_density(self, hz, d0, compact):
        # nu is a lower bound of the skeleton's one-jump density at every
        # starting point of the compact; the size-harmonic chain has no deaths,
        # so d0 changes nothing.  The bound holds for any F: the model is built
        # directly, as make_adder rejects the asymmetric laws
        for F in LAWS:
            model = ModelSpec(1.0, d0, hz, F)
            nu, c = doeblin_minorant(model, compact, grid_n=12)
            ref = skeleton_one_jump_min(model, compact, c, nu.a_nodes, nu.y_nodes)
            assert np.all(nu.values <= (1.0 + 1e-12) * ref), F
            if compact[0] == compact[1] and compact[2] == compact[3] and hz is HAZARDS["constant"]:
                # at a point each factor's minimum is its value: the bound is tight
                np.testing.assert_allclose(nu.values, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("hz", list(HAZARDS.values()), ids=list(HAZARDS))
    def test_one_jump_density_matches_monte_carlo(self, hz):
        # one-jump paths of the size-harmonic chain from (0.5, 1.5) over t = 1,
        # binned, against the cell averages of p1 (8 x 8 midpoints a cell)
        model = make_adder(1.0, hz, BetaFragmentation(5, 5))
        a0, y0, t, n = 0.5, 1.5, 1.0, 400_000
        rng = np.random.default_rng(20240)
        e1, e2 = rng.exponential(size=(2, n))
        # jump rate 2 m1 lam y B(a) = lam y B(a) for Beta(5, 5): the cumulative
        # hazard in the added size is H(a) - H(a0) until the jump
        a_div = hz.inverse_cumulative(hz.cumulative(a0) + e1)
        s = np.log1p((a_div - a0) / y0)
        z = rng.beta(6.0, 5.0, size=n) * (y0 + a_div - a0)  # size-biased Beta(5, 5)
        grow = np.exp(np.maximum(t - s, 0.0))
        a, y = z * (grow - 1.0), z * grow
        one = (s < t) & (hz.cumulative(a) < e2)  # a jump before t, none after it
        edges = np.linspace(0.0, 4.2, 29)
        count, _, _ = np.histogram2d(a[one], y[one], bins=[edges, edges])
        sub = (edges[:-1, None] + (edges[1] - edges[0]) * (np.arange(8) + 0.5) / 8).ravel()
        A, Y = np.meshgrid(sub, sub, indexing="ij")
        cell = one_jump_density(model, a0, y0, t, A, Y).reshape(28, 8, 28, 8).mean(axis=(1, 3))
        expected = n * cell * (edges[1] - edges[0]) ** 2
        full = count >= 200
        assert full.sum() >= 50
        ratio = count[full] / expected[full]
        assert 0.99 <= np.median(ratio) <= 1.01
        z_score = (count[full] - expected[full]) / np.sqrt(expected[full])
        assert np.max(np.abs(z_score)) <= 5.0

    def test_empty_minorant_raises(self, adder):
        # evaluation domain entirely below the age diagonal (y <= a)
        with pytest.raises(EmptyMinorant, match="mass 0"):
            doeblin_minorant(adder, (0.0, 1.0, 1.0, 2.0), grid_n=16,
                             domain=(1.0, 2.0, 0.1, 0.9))

    def test_h_chain_and_mc_density(self, adder):
        a, y = _h_chain_endpoints(adder, PhasePoint(0.0, 1.0), np.array([0.0, 2.0, 2.0]), 0)
        assert (a[0], y[0]) == (0.0, 1.0)  # no time, no flow
        assert np.all(y > a) and np.all(a >= 0.0)
        est, se = skeleton_mc_density(adder, PhasePoint(0.5, 1.5), 0.5, 4, 0.5,
                                      np.linspace(0, 4, 9), np.linspace(0, 4, 9),
                                      n_samples=2000, seed=1)
        assert est.mass == pytest.approx(1.0, abs=0.2)
        assert np.all(se.values > 0.0)

    @pytest.mark.parametrize("hz, F", [
        (ConstantHazard(1.0), BetaFragmentation(5, 5)),
        (TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0]), UniformFragmentation()),
    ], ids=["constant_beta", "table_uniform"])
    def test_h_chain_matches_a_loop_on_numpy_philox(self, hz, F):
        model = make_adder(1.0, hz, F)
        x0, seed = PhasePoint(0.5, 1.5), 2**64 - 1
        t_end = np.linspace(0.0, 3.0, 40)
        a, y = _h_chain_endpoints(model, x0, t_end, seed)
        loop = np.array([h_chain_loop(model, x0, t, seed, i)
                         for i, t in enumerate(t_end.tolist())])
        assert np.array_equal(np.column_stack([a, y]).view(np.int64), loop.view(np.int64))

    def test_mc_density_depends_on_the_seed_only(self, adder):
        args = (adder, PhasePoint(0.5, 1.5), 0.5, 4, 0.5, np.linspace(0, 4, 9),
                np.linspace(0, 4, 9))
        first, again, other = (skeleton_mc_density(*args, n_samples=2000, seed=s)
                               for s in (1, 1, 2))
        for d, e in zip(first, again):
            assert d.values.tobytes() == e.values.tobytes()
        assert not np.array_equal(first[0].values, other[0].values)

    @pytest.mark.parametrize("F", [
        BetaFragmentation(5, 5), UniformFragmentation(),
        TableFragmentation([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.6, 0.8, 1.6, 0.0]),
    ], ids=["beta55", "uniform", "table"])
    def test_h_chain_is_the_size_weighted_population(self, F):
        # many-to-one: with d0 = 0 the population's total size is y0 e^{lam t}
        # exactly, so the h-chain's law at t is the population's size-weighted
        # law; the chain draws each law by its ``sample``, then picks a child
        model = make_adder(1.0, ConstantHazard(1.0), F)
        x0, t = PhasePoint(0.5, 1.5), 1.5
        a, y = _h_chain_endpoints(model, x0, np.full(20_000, t), 1)
        trs = run_replicates(model, x0, SimConfig(seed=2, t_end=t, record_times=[t],
                                                  replicates=2000))
        states = [tr.states[0] for tr in trs]
        for f in (lambda a, y: y, lambda a, y: a, lambda a, y: 1.0 / y):
            chain = f(a, y)
            pop = np.array([np.sum(s.y * f(s.a, s.y)) / np.sum(s.y) for s in states])
            se = math.hypot(chain.std(ddof=1) / math.sqrt(chain.size),
                            pop.std(ddof=1) / math.sqrt(pop.size))
            assert abs(chain.mean() - pop.mean()) < 4.0 * se


class TestErgodicity:
    def test_distances_shrink(self, adder, profile):
        cfg = SimConfig(seed=1, t_end=3.0, record_times=[1.0, 2.0, 3.0],
                        replicates=1500)
        trs = run_replicates(adder, PhasePoint(0.0, 1.0), cfg)
        rep = ergodicity_report(trs, profile, adder)
        assert rep.distances[0] > rep.distances[-1]
        assert rep.omega_hat > 0.0

    def test_block_event_logs_in_any_read_order(self, adder_d0):
        # a block sorts its events on the first read of any of its logs
        cfg = SimConfig(seed=3, t_end=3.0, record_times=[1.0, 2.0, 3.0], replicates=6)
        x0 = PhasePoint(0.0, 1.0)
        singles = [simulate_population(adder_d0, x0, cfg, replicate=r).event_log
                   for r in range(6)]
        for order in ([0, 1, 2, 3, 4, 5], [5, 2, 0, 4, 1, 3]):
            block = run_replicates(adder_d0, x0, cfg)
            logs = {r: block[r].event_log for r in order}
            assert [logs[r] for r in range(6)] == singles
            assert [tr.event_log for tr in block] == singles  # a second read
        assert len({len(log) for log in singles}) > 1

    def test_reference_profile_mass(self, adder, profile):
        ref = reference_profile(profile, adder, (4.0, 6.0), (20, 20))
        assert ref.mass == pytest.approx(1.0, rel=1e-12)

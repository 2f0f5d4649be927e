import math
import warnings

import numpy as np
import pytest
from numpy.random import Philox
from scipy import integrate

from malthus import (BetaFragmentation, ConstantHazard, Density2D,
                     EmptyMinorantWarning, GridMismatch, NoConvergence, PhasePoint,
                     SimConfig, TableHazard, UniformFragmentation, check_drift, default_V,
                     doeblin_minorant, drift_offset, ergodicity_report,
                     MarkovModel, kernel_minorant_epsilon, make_adder, pi_star,
                     pi_star_density, run_replicates, skeleton_mc_density,
                     solve_eta_star, weighted_tv)
import malthus.stationary
from malthus.engine import _FixedUniforms
from malthus.renewal import HAZARD_CUTOFF
from malthus.model import gl_nodes
from malthus.stationary import (_eta_operator, _h_chain_endpoints, _pi_mass_weights,
                                reference_profile, simpson_weights)


@pytest.fixture(scope="module")
def profile(adder):
    return solve_eta_star(adder)


def h_chain_loop(model, x0, t_end, seed, i):
    """Sample i of the size-harmonic chain, jump by jump on numpy's Philox.

    The reference for ``_h_chain_endpoints``: jump k reads the block at
    counter (k, 0, 0, 0), which ``Philox(counter=(k - 1, 0, 0, 0))`` returns
    first.
    """
    lam, hz = model.lambda_growth, model.hazard
    t, a, y, k = 0.0, x0.a, x0.y, 0
    while True:
        k += 1
        w = Philox(counter=np.array([k - 1, 0, 0, 0], dtype=np.uint64),
                   key=np.array([seed, i], dtype=np.uint64)).random_raw(2)
        e = -math.log1p(-float(w[0] >> 11) * 2.0**-53)
        a_div = hz.inverse_cumulative(hz.cumulative(a) + e)
        t_div = t + math.log1p((a_div - a) / y) / lam
        if t_div >= t_end:
            g = math.exp(lam * (t_end - t))
            return a + y * (g - 1.0), y * g
        u = np.array([float(w[1] >> 11) * 2.0**-53])
        rho = float(model.fragmentation.sample_size_biased(_FixedUniforms(u), 1)[0])
        t, a, y = t_div, 0.0, rho * (y + (a_div - a))


class TestEtaStar:
    def test_converges(self, profile):
        assert profile.residual < 1e-8
        assert profile.sweeps == 41
        assert abs(profile.kappa - 1.0) < 1e-4
        assert profile.values[0] == 0.0
        assert np.all(profile.values >= 0.0)

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
        sweep = _eta_operator(adder, s, psi_vals, rho, w_rho)

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
        w = _pi_mass_weights(model, s, a_cut)
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
        assert drift_offset(adder) == pytest.approx(3.2)
        assert drift_offset(adder_uniform) == pytest.approx(4.0)

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
        model = request.getfixturevalue(name)
        rep = check_drift(model, grid_n=8)
        markov = MarkovModel(model)
        nodes = np.linspace(10.0 / 8, 10.0, 8)
        expected = np.array([[markov.apply_generator(default_V, a, y)
                              + rep.c * default_V(a, y) - rep.d for y in nodes]
                             for a in nodes])
        assert np.array_equal(rep.margins, expected)
        i, j = np.unravel_index(np.argmax(expected), expected.shape)
        assert rep.worst_point == (nodes[i], nodes[j])
        assert rep.worst_margin == expected[i, j]

    def test_blocks_match_single_call(self, adder, monkeypatch):
        whole = check_drift(adder, grid_n=8)
        monkeypatch.setattr(malthus.stationary, "DRIFT_BLOCK", 7)
        blocked = check_drift(adder, grid_n=8)
        assert np.array_equal(blocked.margins, whole.margins)
        assert blocked.worst_point == whole.worst_point
        assert blocked.worst_margin == whole.worst_margin

    def test_nan_margin_fails(self, adder, monkeypatch):
        nodes = np.linspace(10.0 / 8, 10.0, 8)
        a0, y0 = nodes[2], nodes[5]

        def V(a, y):
            return np.where((a == a0) & (y == y0), np.nan, default_V(a, y))

        monkeypatch.setattr(malthus.stationary, "default_V", V)
        rep = check_drift(adder, grid_n=8)
        assert math.isnan(rep.worst_margin) and not rep.passed
        assert rep.worst_point == (a0, y0)


class TestDoeblin:
    def test_epsilon_window_minimum(self, adder):
        # symmetric F: the minimum over [2z, 2z+delta] sits at the wide end
        z, delta = 1.0, 0.5
        zp = 2.0 * z + delta
        ref = adder.fragmentation.pdf(z / zp) / zp
        assert kernel_minorant_epsilon(adder, z, delta) == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("name", ["adder", "adder_uniform"])
    def test_epsilon_array_matches_scalar(self, request, name):
        model = request.getfixturevalue(name)
        z, delta = np.linspace(-0.5, 3.0, 36), 0.7
        eps = kernel_minorant_epsilon(model, z, delta)
        ts = np.linspace(0.0, 1.0, 64)
        for zi, e in zip(z, eps):
            zp = 2.0 * zi + delta * ts
            ref = float(np.min(model.fragmentation.pdf(zi / zp) / zp)) if zi > 0 else 0.0
            assert e == ref == kernel_minorant_epsilon(model, zi, delta)

    def test_minorant_positive_and_bounded(self, adder):
        nu, c = doeblin_minorant(adder, (0.0, 1.0, 1.0, 2.0))
        assert nu.mass > 0.0
        assert c.A0 > 0.0 and c.B0 > 0.0 and c.skeleton_factor > 0.0
        assert np.all(nu.values >= 0.0)
        # certified lower-bound property is checked against MC in acceptance

    @pytest.mark.parametrize("kwargs", [
        {"delta": -1.0}, {"delta": 0.0}, {"delta": math.nan}, {"Delta": 0.0},
        {"j_star": 0}, {"grid_n": 1},
    ], ids=["negative_delta", "zero_delta", "nan_delta", "zero_Delta", "zero_j_star",
            "one_node"])
    def test_vacuous_arguments_raise(self, adder, kwargs):
        # each used to give a minorant of mass 0, or (j_star = 0) a false one
        with pytest.raises(ValueError):
            doeblin_minorant(adder, (0.0, 1.0, 1.0, 2.0), **kwargs)

    def test_mass_ordering(self):
        masses = []
        for F in [UniformFragmentation(), BetaFragmentation(5, 5), BetaFragmentation(20, 20)]:
            m = make_adder(1.0, ConstantHazard(1.0), F)
            nu, _ = doeblin_minorant(m, (0.0, 1.0, 1.0, 2.0), grid_n=32)
            masses.append(nu.mass)
        assert masses[0] > masses[1] > masses[2] > 0.0

    def test_empty_minorant_warns(self, adder):
        with pytest.warns(EmptyMinorantWarning):
            # evaluation domain entirely below the age diagonal (y <= a)
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

    def test_h_chain_is_the_size_weighted_population(self, adder):
        # many-to-one: with d0 = 0 the population's total size is y0 e^{lam t}
        # exactly, so the h-chain's law at t is the population's size-weighted law
        x0, t = PhasePoint(0.5, 1.5), 1.5
        a, y = _h_chain_endpoints(adder, x0, np.full(20_000, t), 1)
        trs = run_replicates(adder, x0, SimConfig(seed=2, t_end=t, record_times=[t],
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

    def test_reference_profile_mass(self, adder, profile):
        ref = reference_profile(profile, adder, (4.0, 6.0), (20, 20))
        assert ref.mass == pytest.approx(1.0, rel=1e-12)

import math

import numpy as np
import pytest

import malthus.eigen
import malthus.renewal
from malthus import (BracketFailure, ConstantHazard, BetaFragmentation,
                     FirstJumpLaw, KernelAssembler, NoConvergence, PhasePoint, SizeGrid,
                     TableFragmentation, TableHazard, UniformFragmentation,
                     euler_lotka_residual, leading_eigen, make_adder,
                     reconstruct_h, solve_malthus, spectral_value)
from malthus.eigen import ROOT_TOL, WARM_START_OFFSET
from malthus.renewal import HAZARD_CUTOFF, KernelMatrix


class DirectBeta(BetaFragmentation):
    """A Beta law with no ``monomials``: its kernel passes take the direct contraction."""

    monomials = None


class TestLeadingEigen:
    def test_eigen_identities(self, assembler_r8, eigen_r8):
        res = eigen_r8
        grid = assembler_r8.grid
        assert res.residual < 1e-10
        assert res.eta[grid.index_of(1.0)] == pytest.approx(1.0)
        assert np.all(res.eta[grid.nodes > 0] > 0.0)
        assert np.sum(res.nu_dual) == pytest.approx(1.0)
        assert res.nu_eta * res.kr_factor == pytest.approx(1.0)

    def test_root_and_shape(self, eigen_r8):
        # exact identity: eta(z) = z, lambda = lambda_growth for m1 = 1/2
        assert abs(eigen_r8.lambda_R - 1.0) < 5e-4
        assert abs(eigen_r8.mu - 1.0) < 1e-10
        grid = eigen_r8.grid
        sel = (grid.nodes >= 0.25) & (grid.nodes <= 4.0)
        ratio = eigen_r8.eta[sel] / grid.nodes[sel]
        assert np.max(np.abs(ratio - 1.0)) < 1e-3

    def test_spectral_value_decreasing(self, assembler_r8):
        mus = [spectral_value(assembler_r8, lam)[0] for lam in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        assert mus[0] > 1.0

    def test_death_rate_shifts_spectrum(self):
        # the killed model's root equals the unkilled root minus d0
        m = make_adder(1.0, ConstantHazard(1.0), BetaFragmentation(5, 5), d0=0.25)
        res = solve_malthus(KernelAssembler(m, SizeGrid.uniform(8.0, 128)))
        assert res.lambda_malthus == pytest.approx(res.lambda_R - 0.25)
        assert abs(res.lambda_malthus - 0.75) < 0.01

    def test_bracket_failure(self, adder, monkeypatch):
        grid = SizeGrid.uniform(8.0, 64)
        asm = KernelAssembler(adder, grid)
        # the root sits near 1.0, beyond this cap (lambda_growth = 1)
        monkeypatch.setattr(malthus.eigen, "LAM_CAP", 0.4)
        with pytest.raises(BracketFailure):
            solve_malthus(asm)

    def test_start_never_passes_the_cap(self, adder, monkeypatch):
        # lambda_growth - WARM_START_OFFSET = 0.9995 lies above this cap; a
        # start there evaluated mu(0.9995) before raising
        lams = []

        def traced(assembler, lam):
            lams.append(lam)
            return spectral_value(assembler, lam)

        monkeypatch.setattr(malthus.eigen, "spectral_value", traced)
        monkeypatch.setattr(malthus.eigen, "LAM_CAP", 0.4)
        with pytest.raises(BracketFailure):
            solve_malthus(KernelAssembler(adder, SizeGrid.uniform(8.0, 64)))
        assert lams and max(lams) <= 0.4

    def test_no_positive_root_raises_bracket_failure(self, adder, monkeypatch):
        # mu < 1 at every lam >= 0 (mu(0) is about 2): the start lies above
        # any root, so lam = 0 is tested before Newton or bisection close in
        # on it; without that test the bracket collapsed (NoConvergence)
        def below_one(assembler, lam):
            mu, dmu, *rest = spectral_value(assembler, lam)
            return (0.25 * mu, 0.25 * dmu, *rest)

        monkeypatch.setattr(malthus.eigen, "spectral_value", below_one)
        with pytest.raises(BracketFailure, match="no positive root"):
            solve_malthus(KernelAssembler(adder, SizeGrid.uniform(8.0, 64)))

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_perturbation_slope_matches_finite_difference(self, adder, lam):
        asm = KernelAssembler(adder, SizeGrid.uniform(8.0, 64))
        h = 1e-5
        fd = (spectral_value(asm, lam + h)[0] - spectral_value(asm, lam - h)[0]) / (2 * h)
        slope = spectral_value(asm, lam)[1]
        assert slope == pytest.approx(fd, rel=1e-5)

    def test_root_find_does_not_stall(self, assembler_r8, monkeypatch):
        # regula falsi needed 26 mu evaluations here; Newton needs ~5
        calls = []

        def counted(assembler, lam):
            calls.append(lam)
            return spectral_value(assembler, lam)

        monkeypatch.setattr(malthus.eigen, "spectral_value", counted)
        res = solve_malthus(assembler_r8)
        assert len(calls) <= 8
        assert abs(res.lambda_R - 0.9999716906540435) < 1e-9

    def test_one_assembly_per_mu_evaluation(self, adder, monkeypatch):
        # the root's matrix is not assembled a second time for its residual
        asm = KernelAssembler(adder, SizeGrid.uniform(4.0, 48))
        calls = []
        matrix = asm.matrix
        monkeypatch.setattr(asm, "matrix", lambda lam: calls.append(lam) or matrix(lam))
        res = solve_malthus(asm)
        assert calls == [step["lam"] for step in res.diagnostics["trace"]]
        assert len(calls) == res.diagnostics["mu_evals"]

    def test_root_find_diagnostics(self, adder, eigen_r8):
        diag = eigen_r8.diagnostics
        trace = diag["trace"]
        assert diag["mu_evals"] == len(trace) >= 2
        # Newton starts WARM_START_OFFSET below lambda_growth, below the root,
        # and climbs; no coarse solve runs first
        assert "warm_start" not in diag
        assert diag["start"] == trace[0]["lam"] == adder.lambda_growth - WARM_START_OFFSET
        assert trace[0]["mu"] > 1.0
        lams = [step["lam"] for step in trace]
        assert lams == sorted(lams)
        assert trace[-1]["lam"] == eigen_r8.lambda_R
        assert abs(trace[-1]["mu"] - 1.0) < ROOT_TOL
        assert all(step["dmu"] < 0.0 for step in trace)
        lo, hi = diag["bracket"]
        assert lo <= eigen_r8.lambda_R <= hi
        # the closed-form Euler-Lotka equation at the root, independent of G
        assert abs(diag["euler_lotka_residual"]) < 1e-4

    def test_warm_start_matches_cold_start(self, adder, eigen_r8, monkeypatch):
        # the start near lambda_growth saves mu evaluations, not accuracy
        assert eigen_r8.diagnostics["mu_evals"] <= 3
        monkeypatch.setattr(malthus.eigen, "WARM_START_OFFSET", adder.lambda_growth)
        cold = solve_malthus(KernelAssembler(adder, SizeGrid.uniform(8.0, 256)))
        assert cold.diagnostics["start"] == cold.diagnostics["trace"][0]["lam"] == 0.0
        assert cold.diagnostics["mu_evals"] > eigen_r8.diagnostics["mu_evals"]
        assert abs(eigen_r8.lambda_R - cold.lambda_R) < 1e-12
        assert abs(eigen_r8.residual - cold.residual) < 1e-12

    def test_start_above_root_keeps_bracket(self, adder, eigen_r8, monkeypatch):
        # a warm start past the root (mu < 1) still converges to it
        monkeypatch.setattr(malthus.eigen, "WARM_START_OFFSET", -0.05)
        res = solve_malthus(KernelAssembler(adder, SizeGrid.uniform(8.0, 256)))
        trace = res.diagnostics["trace"]
        assert trace[0]["mu"] < 1.0
        assert res.diagnostics["bracket"][1] == trace[0]["lam"]
        assert abs(res.lambda_R - eigen_r8.lambda_R) < 1e-9

    def test_stalled_power_iteration_raises(self):
        # top eigenvalues 1 and 0.999 of a self-adjoint operator: the
        # Rayleigh quotient settles while the vector is still off by ~1e-3
        grid = SizeGrid.uniform(2.0, 3)
        delta = 1e-3
        S = np.array([[1 - delta / 2, delta / 2], [delta / 2, 1 - delta / 2]])
        r = 1.0 / np.sqrt(grid.weights[1:])
        M = np.zeros((3, 3))
        M[1:, 1:] = r[:, None] * S * r[None, :]
        mat = KernelMatrix(lam=0.0, grid=grid, M=M, dM=np.zeros((3, 3)))
        with pytest.raises(NoConvergence, match="residual"):
            leading_eigen(mat)


def test_beta_1_1_is_the_uniform_law(adder_uniform):
    """Beta(1, 1) and the uniform law are one density on [0, 1], ends
    included, so the root, eta and nu agree to the bit."""
    grid = SizeGrid.uniform(4.0, 48)
    beta = solve_malthus(KernelAssembler(make_adder(1.0, ConstantHazard(1.0),
                                                    BetaFragmentation(1, 1)), grid))
    uniform = solve_malthus(KernelAssembler(adder_uniform, grid))
    assert beta.lambda_R == uniform.lambda_R
    assert np.array_equal(beta.eta, uniform.eta)
    assert np.array_equal(beta.nu_dual, uniform.nu_dual)


#: (lambda_growth, hazard, split law) of the models the start is tried on
START_MODELS = {
    "uniform": (1.0, ConstantHazard(1.0), UniformFragmentation()),
    "beta22": (1.0, ConstantHazard(1.0), BetaFragmentation(2, 2)),
    "beta05": (1.0, ConstantHazard(1.0), BetaFragmentation(0.5, 0.5)),
    "a_star": (1.0, ConstantHazard(1.0, 0.5), BetaFragmentation(5, 5)),
    "lam2_b3": (2.0, ConstantHazard(3.0), BetaFragmentation(5, 5)),
}


class TestStart:
    @pytest.mark.parametrize("R, n", [(2, 64), (4, 128), (8, 257), (16, 513)])
    @pytest.mark.parametrize("name", list(START_MODELS))
    def test_root_matches_start_from_zero(self, name, R, n, monkeypatch):
        # the start below lambda_growth moves the root by no more than the
        # root find's tolerance, on coarse grids too, where the truncated root
        # lies up to 0.25 below lambda_growth and Newton starts above it
        model = make_adder(*START_MODELS[name])
        law, grid = FirstJumpLaw(model), SizeGrid.uniform(R, n)
        warm = solve_malthus(KernelAssembler(model, grid, law))
        assert warm.diagnostics["start"] == model.lambda_growth - WARM_START_OFFSET
        monkeypatch.setattr(malthus.eigen, "WARM_START_OFFSET", model.lambda_growth)
        cold = solve_malthus(KernelAssembler(model, grid, law))
        assert cold.diagnostics["start"] == 0.0
        assert abs(warm.lambda_R - cold.lambda_R) <= 1e-9

    @pytest.mark.parametrize("R", [8, 16])
    @pytest.mark.parametrize("spec", [(1.0, ConstantHazard(1.0), BetaFragmentation(5, 5)),
                                      START_MODELS["beta22"], START_MODELS["a_star"]],
                             ids=["reference", "beta22", "a_star"])
    def test_cli_grid_makes_one_kernel_pass(self, spec, R):
        # eigen's default grid, 32 R uniform nodes plus y = 1: the root lies
        # within the series radius of the start, so one pass serves every step
        model = make_adder(*spec)
        res = solve_malthus(KernelAssembler(model, SizeGrid.uniform(R, 32 * R)))
        assert res.diagnostics["kernel_passes"] == 1
        assert {step["centre"] for step in res.diagnostics["trace"]} == {res.diagnostics["start"]}


class TestHazardWithJump:
    @pytest.mark.parametrize("a_star", [0.3, 0.7])
    def test_root_is_the_growth_rate(self, a_star):
        # Lambda = lambda - d0 for every hazard; panels laid across the jump
        # of psi at a_star lost 2e-3 of the row's mass and moved lambda_R by 4e-3
        model = make_adder(1.0, ConstantHazard(1.0, a_star), BetaFragmentation(5, 5))
        law = FirstJumpLaw(model)
        row = law.row_quadrature(PhasePoint(0.0, 1.0))
        assert abs(row.w.sum() - (1.0 - math.exp(-HAZARD_CUTOFF))) < 1e-12
        res = solve_malthus(KernelAssembler(model, SizeGrid.uniform(8.0, 256), law))
        assert abs(res.lambda_R - 1.0) < 3e-4
        assert res.diagnostics["row_mass_error"] < 1e-12

    def test_row_mass_check_fires_without_the_knots(self, monkeypatch):
        # panels laid across the jump at a_star = 0.3 lose 2.5e-3 of the mass
        monkeypatch.setattr(malthus.renewal, "_with_knots",
                            lambda edges, hazard, shift, cut: edges)
        model = make_adder(1.0, ConstantHazard(1.0, 0.3), BetaFragmentation(5, 5))
        with pytest.raises(NoConvergence, match="mass error"):
            solve_malthus(KernelAssembler(model, SizeGrid.uniform(8.0, 64)))
        # the Euler-Lotka residual uses the same rule: at the biased root it
        # stays below the 1e-4 it is held to, while lambda_R is off by ~4e-3
        monkeypatch.setattr(malthus.eigen, "ROW_MASS_TOL", 1.0)
        res = solve_malthus(KernelAssembler(model, SizeGrid.uniform(8.0, 64)))
        assert abs(res.lambda_R - 1.0) > 2e-3
        assert abs(res.diagnostics["euler_lotka_residual"]) < 1e-4


class TestEulerLotka:
    def test_root_at_growth_rate(self, adder, law):
        # 2 m_s = 1 exactly at s = 1 (m1 = 1/2), so the residual vanishes
        assert abs(euler_lotka_residual(adder, 1.0, law)) < 1e-9

    @pytest.mark.parametrize("hazard", [ConstantHazard(1.0), ConstantHazard(1.0, 0.3),
                                        TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0])],
                             ids=["constant", "a_star", "table"])
    def test_is_the_first_jump_integral_from_any_size(self, hazard):
        # the orbit-integrated form: (u / y)^s e^{-lam t} is 1 on the orbit from
        # y, so it is 2 m_s times the rule's mass at every y, up to rounding
        for F in (BetaFragmentation(5, 5), UniformFragmentation(),
                  TableFragmentation([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.6, 0.8, 1.6, 0.0])):
            model = make_adder(1.0, hazard, F)
            law = FirstJumpLaw(model)
            rho, w = F.rule(256)  # the law's split-fraction rule
            for lam in (0.0, 0.5, 1.0, 2.0):
                m_s = float(np.sum(w * rho**lam))
                for y in (1.0, 2.5):
                    q = law.row_quadrature(PhasePoint(0.0, y))
                    orbit = float(np.dot(q.w * np.exp(-lam * q.t), 2.0 * m_s * (q.u / y) ** lam))
                    assert abs(euler_lotka_residual(model, lam, law) - (orbit - 1.0)) <= 1e-15

    @pytest.mark.parametrize("rho, F", [([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.6, 0.8, 1.6, 0.0]),
                                        ([0.0, 0.25, 0.75, 1.0], [0.4, 1.2, 1.2, 0.4])],
                             ids=["kinked", "trapezoid"])
    def test_table_law_vanishes_at_growth_rate(self, rho, F):
        # exact value: the orbit rule's mass error, -6.9e-13; one 256-node rule
        # across the kinks read 4.45e-6 and -1.85e-6
        model = make_adder(1.0, ConstantHazard(1.0), TableFragmentation(rho, F))
        assert abs(euler_lotka_residual(model, 1.0, FirstJumpLaw(model))) <= 1e-11

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    def test_singular_law_vanishes_at_growth_rate(self, alpha):
        # F is unbounded at both ends; the 256-node Legendre rule read -2.16e-3
        # for Beta(0.5, 0.5), against the orbit rule's mass error, -6.9e-13
        model = make_adder(1.0, ConstantHazard(1.0), BetaFragmentation(alpha, alpha))
        assert abs(euler_lotka_residual(model, 1.0, FirstJumpLaw(model))) <= 1e-11

    def test_value_at_zero(self, adder, law):
        # residual at lam = 0 is C - 1 = 1
        assert euler_lotka_residual(adder, 0.0, law) == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_lam(self, adder, law):
        vals = [euler_lotka_residual(adder, lam, law) for lam in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestReconstruct:
    def test_boundary_reproduces_eta(self, eigen_r8, adder, law):
        grid = eigen_r8.grid
        for y in [0.5, 1.0, 2.0, 4.0]:
            h = reconstruct_h(eigen_r8, adder, PhasePoint(0.0, y), law)
            eta_y = float(np.interp(y, grid.nodes, eigen_r8.eta))
            assert h == pytest.approx(eta_y, rel=5e-4)

    def test_interior_matches_exact_eigenfunction(self, eigen_r8, adder, law):
        # h(a, y) = y for the adder with m1 = 1/2
        for a, y in [(0.5, 1.0), (1.0, 2.0), (3.0, 4.0)]:
            h = reconstruct_h(eigen_r8, adder, PhasePoint(a, y), law)
            assert h / y == pytest.approx(1.0, abs=2e-3)

    def test_pinned_values(self, law):
        # values of the per-row formula before the shared row evaluator,
        # moved by at most 4.5e-16 relative by the polynomial Beta density;
        # the last two Newton steps now take G from the lam-series of the
        # third step's kernel pass, which moved lambda_R by 4.4e-16 relative
        # (4 ulp), eta by at most 1.1e-15 and these values by at most 4.4e-16.
        # Newton then started 5e-4 below lambda_growth, not at 0 (3 mu
        # evaluations, not 5), which moved lambda_R by -2.3e-13 relative and
        # these values by at most 3.0e-13.  The reference law on the direct
        # pass: test_pinned_values_suffix pins its suffix sums
        self.check_pins(make_adder(1.0, ConstantHazard(1.0), DirectBeta(5, 5)), law,
                        "0x1.fd09538fbab4fp-1",
                        ["0x1.01bb91a846372p-1", "0x1.0000000000de6p+0",
                         "0x1.4bb8978598ff1p+0", "0x1.ab0c0d09a017fp+1"])

    def test_pinned_values_suffix(self, adder, law):
        # the suffix sums move lambda_R by +2.2e-14 relative from the direct
        # pass, and these values by at most 7.2e-14 relative.  The start 5e-4
        # below lambda_growth, not at 0, moved lambda_R by -2.1e-13 relative
        # and these values by at most 2.9e-13
        self.check_pins(adder, law, "0x1.fd09538fbac91p-1",
                        ["0x1.01bb91a8461d8p-1", "0x1.0000000000ce3p+0",
                         "0x1.4bb8978598efap+0", "0x1.ab0c0d09a00a9p+1"])

    @staticmethod
    def check_pins(model, law, lambda_R, values):
        res = solve_malthus(KernelAssembler(model, SizeGrid.uniform(4.0, 48), law))
        assert res.lambda_R == float.fromhex(lambda_R)
        points = [(0.0, 0.5), (0.0, 1.0), (0.4, 1.3), (1.0, 3.5)]
        assert [reconstruct_h(res, model, PhasePoint(a, y), law) for a, y in points] == [
            float.fromhex(h) for h in values]

import math

import numpy as np
import pytest
from scipy import stats

from malthus import (BetaFragmentation, ConstantHazard, InsufficientData,
                     PhasePoint, PopulationCapExceeded, SimConfig, TableHazard,
                     empirical_functional, estimate_malthus, generator_consistency_check,
                     individual_rng, make_adder, run_replicates,
                     sample_division_age, simulate_population)
from malthus.simulate import division_age_cdf, division_time_from_added_size
from malthus.stationary import advance_h_chain


class TestRngStreams:
    def test_streams_independent_of_order(self):
        a = individual_rng(5, 2, 7).random(4)
        _ = individual_rng(5, 2, 8).random(4)
        b = individual_rng(5, 2, 7).random(4)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        assert not np.array_equal(individual_rng(5, 2, 7).random(4),
                                  individual_rng(5, 3, 7).random(4))
        assert not np.array_equal(individual_rng(5, 2, 7).random(4),
                                  individual_rng(6, 2, 7).random(4))

    def test_rekeyed_stream_matches_fresh(self):
        reused = individual_rng(5, 2, 3)
        reused.random(5)
        for tree_id in (7, 2**64 + 3, 2**128 - 1):
            fresh = individual_rng(5, 2, tree_id)
            rekeyed = individual_rng(5, 2, tree_id, reuse=reused)
            assert rekeyed is reused
            assert ([fresh.exponential(), fresh.random(), *fresh.random(3)]
                    == [rekeyed.exponential(), rekeyed.random(), *rekeyed.random(3)])

    def test_high_words_not_rounded(self):
        # ids this deep once went through float64 and shared one stream
        assert not np.array_equal(individual_rng(5, 2, 2**63).random(4),
                                  individual_rng(5, 2, 2**63 + 1).random(4))
        assert not np.array_equal(individual_rng(5, 2, 2**64 * (2**63 + 1)).random(4),
                                  individual_rng(5, 2, 2**64 * 2**63).random(4))

    @pytest.mark.parametrize("tree_id", [-1, 2**128])
    def test_tree_id_out_of_range(self, tree_id):
        # masking such ids would alias the stream of another individual
        with pytest.raises(ValueError):
            individual_rng(5, 2, tree_id)


class TestStreamPins:
    """Draws recorded from the reference implementation; they must never move."""

    EVENT_LOG = [
        (0.0, 'init', 0, 0.0, 1.0),
        (0.8682700154484633, 'division', 0, 1.1135171748016648, 1.2692679295902287),
        (1.724581670540649, 'division', 1, 1.1125158339820467, 1.509216477433705),
        (1.9119972539527204, 'division', 4, 1.3239557457767122, 0.4963531514762285),
        (1.9164246586143545, 'division', 3, 0.7707275788026536, 0.5770634210146434),
        (1.9624929405310476, 'division', 9, 1.0205052893209032, 0.372021204740963),
        (2.0538637485335167, 'division', 2, 3.4995939914858227, 0.6542494410008737),
        (2.114840573231284, 'division', 8, 0.43627374051957124, 0.2674374914775345),
        (2.199724283555449, 'division', 19, 0.6213930739498447, 0.6723365513496314),
        (2.2000575043908923, 'division', 20, 0.2592919810544879, 0.21248926598851275),
        (2.269362664685413, 'division', 5, 1.6980301261697648, 2.6431484626336594),
    ]

    def test_event_log(self, adder_d0):
        # d0 > 0: every individual also draws a death clock
        cfg = SimConfig(seed=5, t_end=2.5, record_times=[2.5])
        tr = simulate_population(adder_d0, PhasePoint(0.0, 1.0), cfg, replicate=2)
        assert tr.event_log == self.EVENT_LOG

    def test_one_step_functional(self, adder_d0):
        reps = generator_consistency_check(adder_d0, {"y2": lambda a, y: y * y},
                                           PhasePoint(0.2, 1.0), dt=0.5,
                                           replicates=50, seed=4)
        assert reps[0].simulated == 1.2771421431749053

    def test_h_chain_endpoint(self, adder):
        p = advance_h_chain(adder, PhasePoint(0.0, 1.0), 3.0, individual_rng(3, 0, 0))
        assert (p.a, p.y) == (0.6494203601082329, 1.1193748547562143)


class TestClocks:
    def test_division_age_exponential_for_constant_hazard(self, adder):
        rng = individual_rng(0, 0, 0)
        x = PhasePoint(0.0, 1.0)
        s = np.array([sample_division_age(adder, x, rng) for _ in range(20000)])
        # B = 1: the added size at division is Exp(1)
        assert stats.kstest(s, "expon").pvalue > 0.01

    def test_division_age_respects_current_age(self, adder):
        rng = individual_rng(0, 0, 1)
        x = PhasePoint(0.7, 1.0)
        s = np.array([sample_division_age(adder, x, rng) for _ in range(2000)])
        assert np.all(s >= 0.7)

    def test_division_time_conversion(self, adder):
        x = PhasePoint(0.0, 2.0)
        t = division_time_from_added_size(adder, x, 2.0)
        assert t == pytest.approx(math.log(2.0))  # size doubles when da = y


class TestSimulation:
    def test_trivial_horizon(self, adder):
        tr = simulate_population(adder, PhasePoint(0.0, 1.0),
                                 SimConfig(seed=1, t_end=0.0, record_times=[0.0]))
        assert len(tr.states) == 1 and tr.states[0].count == 1
        assert not tr.cap_hit

    def test_mass_conservation(self, adder):
        # d0 = 0 adder: total size sum is exactly y0 e^{lam t}
        cfg = SimConfig(seed=3, t_end=2.0, record_times=[0.5, 1.0, 2.0])
        tr = simulate_population(adder, PhasePoint(0.0, 1.0), cfg)
        for s in tr.states:
            total = empirical_functional(s, lambda a, y: y)
            assert total == pytest.approx(math.exp(s.t), rel=1e-10)

    def test_reproducible(self, adder):
        cfg = SimConfig(seed=11, t_end=2.5, record_times=[2.5], replicates=3)
        runs1 = run_replicates(adder, PhasePoint(0.0, 1.0), cfg)
        runs2 = run_replicates(adder, PhasePoint(0.0, 1.0), cfg)
        for a, b in zip(runs1, runs2):
            assert a.event_log == b.event_log

    def test_started_mid_orbit(self, adder):
        # starting from a > 0 must not alter the phase at time 0
        tr = simulate_population(adder, PhasePoint(0.5, 2.0),
                                 SimConfig(seed=5, t_end=0.0, record_times=[0.0]))
        p = tr.states[0].individuals[0]
        assert p.a == pytest.approx(0.5) and p.y == pytest.approx(2.0)

    def test_cap_flag(self, adder):
        cfg = SimConfig(seed=2, t_end=6.0, record_times=[6.0], cap=8)
        tr = simulate_population(adder, PhasePoint(0.0, 1.0), cfg)
        assert tr.cap_hit

    def test_cap_hit_raises(self, adder):
        cfg = SimConfig(seed=2, t_end=6.0, record_times=[3.0, 6.0], cap=8, replicates=2)
        with pytest.raises(PopulationCapExceeded, match="replicate 0 .* cap of 8"):
            run_replicates(adder, PhasePoint(0.0, 1.0), cfg)
        tr = simulate_population(adder, PhasePoint(0.0, 1.0), cfg)
        with pytest.raises(PopulationCapExceeded):
            estimate_malthus([tr])

    def test_death_reduces_population(self):
        m = make_adder(1.0, ConstantHazard(1.0), BetaFragmentation(5, 5), d0=5.0)
        # heavy killing: deaths must appear in the event log
        cfg = SimConfig(seed=9, t_end=2.0, record_times=[2.0])
        tr = simulate_population(m, PhasePoint(0.0, 1.0), cfg)
        kinds = {e[1] for e in tr.event_log}
        assert "death" in kinds


class TestEstimation:
    def test_estimate_malthus(self, adder_d0):
        cfg = SimConfig(seed=42, t_end=4.0,
                        record_times=[0.5 * i for i in range(9)], replicates=200)
        trs = run_replicates(adder_d0, PhasePoint(0.0, 1.0), cfg)
        est, se = estimate_malthus(trs)
        assert abs(est - 0.8) < 0.05
        assert 0.0 < se < 0.1

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_malthus([])


class TestKolmogorov:
    def test_one_step_consistency(self, adder):
        fs = {"1": lambda a, y: 1.0, "y": lambda a, y: y}
        reps = generator_consistency_check(adder, fs, PhasePoint(0.2, 1.0),
                                           dt=0.02, replicates=20000, seed=4)
        for r in reps:
            assert abs(r.z_score) < 4.0


class TestDivisionAgeCdf:
    def test_tabulated_hazard_ks(self):
        hz = TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0])
        m = make_adder(1.0, hz, BetaFragmentation(5, 5))
        rng = individual_rng(8, 0, 0)
        x = PhasePoint(0.0, 1.0)
        s = np.array([sample_division_age(m, x, rng) for _ in range(20000)])
        res = stats.kstest(s, lambda a: division_age_cdf(m, x, a))
        assert res.pvalue > 0.01

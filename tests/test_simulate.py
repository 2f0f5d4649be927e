import functools
import hashlib
import heapq
import math
import operator
import struct
import time

import numpy as np
import pytest
from numpy.random import Philox
from scipy import stats

from malthus import (BetaFragmentation, ConstantHazard, InsufficientData,
                     PhasePoint, PopulationCapExceeded, SimConfig, TableFragmentation, TableHazard,
                     UniformFragmentation, empirical_functional, estimate_malthus,
                     generator_consistency_check, individual_rng, make_adder,
                     run_replicates, sample_division_age, simulate_population)
from malthus import engine, simulate, streams
from malthus.engine import children_ids
from malthus.simulate import Trajectory, division_age_cdf
from malthus.stationary import skeleton_mc_density


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
    """Draws recorded from the reference implementation; they must never move.

    They record stream version 3 (``simulate.STREAM_VERSION``): one word per
    draw, exponentials by inversion, integer-Beta fragments by Newton steps
    on binomial tails.  The skeleton sampler draws on arrays as well: sample
    i reads the Philox blocks at counters (k, 0, 0, 0) under key (seed, i),
    k = 0 for its skeleton index and k >= 1 for its k-th jump.
    """

    EVENT_LOG = [
        (0.0, 'init', 0, 0.0, 1.0),
        (1.0562644539559853, 'division', 0, 1.3438223727892535, 1.5317865583447796),
        (1.381738999636235, 'division', 2, 1.7869713622309664, 0.3340744719726203),
        (1.4200112010371448, 'division', 1, 0.8204137426603032, 1.1129566887188829),
        (1.6676645985499166, 'division', 3, 0.6009879690859957, 0.44997504042632464),
        (1.9545606046971034, 'division', 4, 1.3815242008859303, 0.5179356584521801),
        (1.9857809284084187, 'division', 5, 1.2787551857516313, 1.990506382197323),
        (2.0595785760304963, 'division', 9, 1.1245506367054847, 0.4099505284659395),
        (2.0852230205510285, 'division', 7, 0.39840062738714466, 0.5140494170869364),
        (2.225749831262163, 'division', 20, 0.2660401117801255, 0.21801934578062143),
        (2.3230521098930685, 'division', 8, 0.5372596129413405, 0.3293422221243627),
        (2.3584855465277412, 'division', 6, 0.42613954571120777, 0.4610959864339244),
        (2.4601880566686574, 'division', 19, 0.8062772162501061, 0.872377993464941),
    ]

    def test_event_log(self, adder_d0):
        # d0 > 0: every individual also draws a death clock
        cfg = SimConfig(seed=5, t_end=2.5, record_times=[2.5])
        tr = simulate_population(adder_d0, PhasePoint(0.0, 1.0), cfg, replicate=2)
        assert tr.event_log == self.EVENT_LOG

    def test_one_step_functional(self, adder_d0):
        # the check reads the engine's populations at dt, nothing else
        f, x0 = (lambda a, y: y * y), PhasePoint(0.2, 1.0)
        reps = generator_consistency_check(adder_d0, {"y2": f}, x0, dt=0.5,
                                           replicates=50, seed=4)
        trs = simulate_population(adder_d0, x0, SimConfig(seed=4, t_end=0.5, record_times=[0.5]),
                                  range(50))
        mean = np.array([empirical_functional(tr.states[0], f) for tr in trs]).mean()
        assert reps[0].simulated == (mean - f(x0.a, x0.y)) / 0.5

    def test_one_step_seeds_keep_high_bits(self, adder_d0):
        # a key built from a list rounded seed 2**64 - 1 onto seed 0's stream
        sims = [generator_consistency_check(adder_d0, {"y2": lambda a, y: y * y},
                                            PhasePoint(0.2, 1.0), dt=0.5,
                                            replicates=20, seed=s)[0].simulated
                for s in (0, 2**64 - 1)]
        assert sims[0] != sims[1]

    def test_skeleton_density(self, adder):
        # the pin moved when the size-harmonic chain began to pick a child by
        # size from a draw of F (word 2 of each jump's block), instead of
        # drawing the size-biased law: the same law, other bits
        est, _ = skeleton_mc_density(adder, PhasePoint(0.5, 1.5), 0.5, 4, 0.5,
                                     np.linspace(0, 4, 9), np.linspace(0, 4, 9),
                                     n_samples=2000, seed=3)
        assert hashlib.sha256(est.values.tobytes()).hexdigest() == (
            "ce19d43b9330ab9e7f35907008c440edf171a0c53a13f2c327b8e6f6c0f8c1d7")


class TestClocks:
    def test_division_age_exponential_for_constant_hazard(self, adder):
        rng = individual_rng(0, 0, 0)
        x = PhasePoint(0.0, 1.0)
        s = np.array([sample_division_age(adder, x, rng.random()) for _ in range(20000)])
        # B = 1: the added size at division is Exp(1)
        assert stats.kstest(s, "expon").pvalue > 0.01

    def test_division_age_respects_current_age(self, adder):
        rng = individual_rng(0, 0, 1)
        x = PhasePoint(0.7, 1.0)
        s = np.array([sample_division_age(adder, x, rng.random()) for _ in range(2000)])
        assert np.all(s >= 0.7)


class TestSimConfig:
    @pytest.mark.parametrize("t_end, record_times", [
        (math.inf, [0.0]),  # the engine halved an infinite window forever
        (4.0, [math.nan]),
        (math.nan, []),
    ], ids=["infinite_t_end", "nan_record_time", "nan_t_end"])
    def test_rejects_nonfinite_times(self, t_end, record_times):
        with pytest.raises(ValueError):
            SimConfig(seed=0, t_end=t_end, record_times=record_times)

    @pytest.mark.parametrize("t_end, record_times", [
        (True, [0.0]),  # ran to t = 1.0
        (2.0, [True, False]),  # recorded at 1.0 and 0.0
        (True, [True, False]),
    ], ids=["bool_t_end", "bool_record_times", "both"])
    def test_rejects_booleans_as_times(self, t_end, record_times):
        # counts already reject booleans; times now do too
        with pytest.raises(ValueError, match="t_end|record_times"):
            SimConfig(seed=0, t_end=t_end, record_times=record_times)


class TestSimulation:
    def test_trivial_horizon(self, adder):
        tr = simulate_population(adder, PhasePoint(0.0, 1.0),
                                 SimConfig(seed=1, t_end=0.0, record_times=[0.0]))
        assert len(tr.states) == 1 and tr.states[0].count == 1

    def test_mass_conservation(self, adder):
        # d0 = 0 adder: total size sum is exactly y0 e^{lam t}
        cfg = SimConfig(seed=3, t_end=2.0, record_times=[0.5, 1.0, 2.0])
        tr = simulate_population(adder, PhasePoint(0.0, 1.0), cfg)
        for s in tr.states:
            total = empirical_functional(s, lambda a, y: y)
            assert total == pytest.approx(math.exp(s.t), rel=1e-10)

    def test_functional_of_a_constant_counts_each_individual(self):
        state = simulate.PopulationState(t=0.0, a=np.zeros(3), y=np.ones(3))
        assert empirical_functional(state, lambda a, y: 2.5) == 7.5
        assert empirical_functional(state, lambda a, y: np.float64(2.5)) == 7.5
        empty = simulate.PopulationState(t=0.0, a=np.zeros(0), y=np.zeros(0))
        assert empirical_functional(empty, lambda a, y: 2.5) == 0.0

    def test_functional_sums_left_to_right(self, monkeypatch):
        # builtin sum of floats is compensated from Python 3.12 on, which gives
        # 1.0 here; left-to-right addition gives 0.0 on every version
        state = simulate.PopulationState(t=0.0, a=np.zeros(3), y=np.array([1e16, 1.0, -1e16]))
        assert empirical_functional(state, lambda a, y: y) == 0.0
        monkeypatch.setattr(simulate, "sum", math.fsum, raising=False)
        assert empirical_functional(state, lambda a, y: y) == 0.0

    @pytest.mark.parametrize("values", [[], [-0.0, -0.0], [1e16, 1.0, -1e16],
                                        [1.0, math.nan, -2.0], [math.inf, -math.inf],
                                        [1e308, 1e308, -1e308]],
                             ids=["empty", "negative_zeros", "cancelling", "nan", "inf_minus_inf",
                                  "overflow"])
    def test_functional_matches_left_to_right_reference(self, values):
        y = np.array(values, dtype=float)
        state = simulate.PopulationState(t=0.0, a=np.zeros(y.size), y=y)
        assert bits(empirical_functional(state, lambda a, y: y)) == bits(left_to_right(y))

    def test_functional_matches_reference_on_the_pinned_run(self, adder_d0):
        # every state of tests/test_cli.py::test_outputs_pinned[simulate]
        cfg = SimConfig(seed=7, t_end=4.0, record_times=[0.0, 1.0, 2.0, 3.0, 4.0],
                        replicates=20)
        states = [s for tr in run_replicates(adder_d0, PhasePoint(0.0, 1.0), cfg)
                  for s in tr.states]
        assert max(s.count for s in states) > 8  # np.sum adds more than 8 values pairwise
        for s in states:
            for f in (lambda a, y: a, lambda a, y: y, lambda a, y: y * y):
                assert bits(empirical_functional(s, f)) == bits(left_to_right(f(s.a, s.y)))

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
        s = tr.states[0]
        assert s.a.tolist() == [pytest.approx(0.5)] and s.y.tolist() == [pytest.approx(2.0)]

    def test_cap_hit_raises(self, adder):
        x0 = PhasePoint(0.0, 1.0)
        cfg = SimConfig(seed=2, t_end=6.0, record_times=[3.0, 6.0], cap=8, replicates=2)
        hits = [r for r in range(cfg.replicates) if reference_population(adder, x0, cfg, r)[2]]
        assert hits  # the event loop passes the cap
        # the error names the first replicate in order, not the first to pass the cap in time
        with pytest.raises(PopulationCapExceeded, match=f"replicate {hits[0]} .* cap of 8"):
            run_replicates(adder, x0, cfg)
        for r in hits:
            with pytest.raises(PopulationCapExceeded, match=f"replicate {r} .* cap of 8"):
                simulate_population(adder, x0, cfg, replicate=r)

    def test_death_reduces_population(self):
        m = make_adder(1.0, ConstantHazard(1.0), BetaFragmentation(5, 5), d0=5.0)
        # heavy killing: deaths must appear in the event log
        cfg = SimConfig(seed=9, t_end=2.0, record_times=[2.0])
        tr = simulate_population(m, PhasePoint(0.0, 1.0), cfg)
        kinds = {e[1] for e in tr.event_log}
        assert "death" in kinds

    def test_event_log_built_from_columns(self):
        m = make_adder(1.0, ConstantHazard(1.0), BetaFragmentation(5, 5), d0=1.0)
        cfg = SimConfig(seed=9, t_end=3.0, record_times=[3.0], replicates=4)
        logs = [tr.event_log for tr in run_replicates(m, PhasePoint(0.0, 1.0), cfg)]
        again = [tr.event_log for tr in run_replicates(m, PhasePoint(0.0, 1.0), cfg)]
        assert logs == again
        entries = [e for log in logs for e in log]
        assert {e[1] for e in entries} == {"init", "division", "death"}
        # Python scalars only: the digests hash the log's repr
        assert {tuple(map(type, e)) for e in entries} == {(float, str, int, float, float)}

    def test_event_log_joins_id_words(self):
        one, word = np.ones(1), np.ones(1, dtype=np.uint64)
        tr = Trajectory([], PhasePoint(0.0, 1.0), (one, one > 0, 5 * word, word, one, one))
        assert tr.event_log[1][2] == 5 + 2**64


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
        s = np.array([sample_division_age(m, x, rng.random()) for _ in range(20000)])
        res = stats.kstest(s, lambda a: division_age_cdf(m, x, a))
        assert res.pvalue > 0.01


# ---------------------------------------------------------------------------
# The batched engine against numpy's streams and an event-by-event loop
# ---------------------------------------------------------------------------


def reference_population(model, x0, config, replicate):
    """Event-by-event simulation over a heap of (time, tree id) events.

    The loop the array engine replaced, kept as its reference: each
    individual draws its clocks from a fresh stream at birth.  Returns
    (event log, [(t, phases)], cap hit).
    """
    lam, d0 = model.lambda_growth, model.d0
    heap, alive = [], {}

    def add(tree_id, t0, a0, y0):
        rng = individual_rng(config.seed, replicate, tree_id)
        a_div = sample_division_age(model, PhasePoint(a0, y0), rng.random())
        t_div = t0 + math.log1p((a_div - a0) / y0) / lam
        t_die = t0 - math.log1p(-rng.random()) / d0 if d0 > 0 else math.inf
        u = rng.random()
        # the virtual birth frame (a = 0) of a state started mid-orbit
        alive[tree_id] = ((t0 - math.log(y0 / (y0 - a0)) / lam, y0 - a0) if a0 > 0.0
                          else (t0, y0))
        heapq.heappush(heap, (t_die, tree_id, "death", 0.0) if t_die <= t_div
                       else (t_div, tree_id, "division", u))

    def phase(tree_id, t):
        tb, yb = alive[tree_id]
        e = math.exp(lam * (t - tb))
        return PhasePoint(yb * (e - 1.0), yb * e)

    def flush(up_to):
        while pending and pending[0] <= up_to:
            t = pending.pop(0)
            states.append((t, [phase(i, t) for i in alive]))

    add(0, 0.0, x0.a, x0.y)
    log, states, cap_hit = [(0.0, "init", 0, x0.a, x0.y)], [], False
    pending = list(config.record_times)
    while heap:
        t_ev, tree_id, kind, u = heapq.heappop(heap)
        if t_ev > config.t_end:
            break
        flush(t_ev)
        if kind == "death":
            alive.pop(tree_id)
            log.append((t_ev, "death", tree_id, 0.0, 0.0))
            continue
        y = phase(tree_id, t_ev).y
        alive.pop(tree_id)
        rho = float(model.fragmentation.sample(np.full(1, u))[0])
        y1 = rho * y
        log.append((t_ev, "division", tree_id, y1, y - y1))
        add(2 * tree_id + 1, t_ev, 0.0, y1)
        add(2 * tree_id + 2, t_ev, 0.0, y - y1)
        if len(alive) > config.cap:
            cap_hit = True
            break
    flush(config.t_end)
    return log, states, cap_hit


def left_to_right(values):
    """The reference sum: Python floats added in order, starting from 0.0."""
    return functools.reduce(operator.add, np.asarray(values, dtype=float).tolist(), 0.0)


def bits(x):
    return struct.pack("<d", x)


def flat(tr):
    """(event log, [(t, phases)], cap hit) of a Trajectory, which never hit the cap."""
    states = [(s.t, list(map(PhasePoint, s.a.tolist(), s.y.tolist()))) for s in tr.states]
    return tr.event_log, states, False


def digest(tr):
    log, states, cap_hit = flat(tr)
    points = [(t, [(p.a, p.y) for p in pts]) for t, pts in states]
    return hashlib.sha256(repr((log, points, cap_hit)).encode()).hexdigest()


CONSTANT, BETA = ConstantHazard(1.0), BetaFragmentation(5, 5)
TABLE_HAZARD = TableHazard([0.0, 1.0, 2.0, 4.0], [0.5, 1.5, 2.0, 2.0])
TABLE_FRAG = TableFragmentation([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
RECORD = [0.0, 0.5, 1.5, 2.5, 4.0]

#: name -> (hazard, fragmentation, d0, x0, seed, replicate, extra config,
#: sha256 of (event log, states, cap hit) over RECORD to t = 4); the Beta
#: pins moved with stream version 3 (integer-Beta draws without scipy), and
#: table_table when the table law's fragments became exact inverses of its
#: piecewise-quadratic cdf
PINS = {
    "constant_beta": (CONSTANT, BETA, 0.0, (0.0, 1.0), 7, 3, {},
                      "0a4084024c7dec26fb0eeed9181fae3da8ae52842b0f2ac435226951f8bb1983"),
    "constant_beta_deaths": (CONSTANT, BETA, 0.2, (0.0, 1.0), 7, 3, {},
                             "c09dfdb9658e1583727870c16f8d6f3eaf1e69579ced2dc25645129e6c90fa4b"),
    "table_uniform_deaths": (TABLE_HAZARD, UniformFragmentation(), 0.2, (0.0, 1.0), 3, 1, {},
                             "5ee926239a68ee4e35bbec624a6e63661f53687de2e9c81423614a109fa4b8ef"),
    "table_table": (TABLE_HAZARD, TABLE_FRAG, 0.0, (0.0, 1.0), 5, 0, {},
                    "dbee9005357c796a5b3cb73f018f8b0b4e7c956b0c02de9cae53c341bf6ca76b"),
    "mid_orbit": (CONSTANT, BETA, 0.2, (0.3, 1.2), 11, 4, {},
                  "35da9fd4eccd21067edc77ada59fd14bd85d1a3d8fe3a3493c6cf2436b563402"),
    "seed_max": (CONSTANT, BETA, 0.2, (0.0, 1.0), 2**64 - 1, 2**64 - 1, {},
                 "b954f67ac9fa15b023386ae92f2e5bae656b592c36e56a5f7f57287d310d0af6"),
}


def pin_run(name):
    hz, frag, d0, x0, seed, rep, extra, _ = PINS[name]
    model = make_adder(1.0, hz, frag, d0=d0)
    cfg = SimConfig(seed=seed, t_end=4.0, record_times=RECORD, **extra)
    return model, PhasePoint(*x0), cfg, rep


def first_words(seed, rep, tree_ids):
    """Philox words 0..3 of the streams (seed, rep[i], tree_ids[i]), per numpy."""
    words = [Philox(counter=np.array([0, 0, t & simulate.MASK64, t >> 64], dtype=np.uint64),
                    key=np.array([seed, r], dtype=np.uint64)).random_raw(4)
             for r, t in zip(rep, tree_ids)]
    return np.array(words)


class TestPhiloxOnArrays:
    def test_matches_numpy_philox(self):
        rng = np.random.default_rng(5)
        n = 2100
        tree_ids = [int(i) for i in rng.integers(0, 2**63, n)]
        tree_ids[: n // 3] = [t | 1 << 64 | int(h) << 100 for t, h in
                              zip(tree_ids[: n // 3], rng.integers(0, 2**27, n // 3))]
        tree_ids[:4] = [0, 2**64 - 1, 2**64, 2**128 - 1]
        reps = [int(r) for r in rng.integers(0, 2**64, n, dtype=np.uint64)]
        reps[:3] = [0, 2**63, 2**64 - 1]
        for seed in (0, 2**63 + 5, 2**64 - 1):
            lo = np.array([t & simulate.MASK64 for t in tree_ids], dtype=np.uint64)
            hi = np.array([t >> 64 for t in tree_ids], dtype=np.uint64)
            words = streams.philox_block(seed, np.array(reps, dtype=np.uint64), (1, 0, lo, hi))
            assert np.array_equal(np.stack(words, axis=1), first_words(seed, reps, tree_ids))

    def test_child_ids_carry_into_the_high_word(self):
        ids = [0, 5, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 2**63 - 1, 2**127 - 2]
        lo = np.array([i & simulate.MASK64 for i in ids], dtype=np.uint64)
        hi = np.array([i >> 64 for i in ids], dtype=np.uint64)
        kid_lo, kid_hi = children_ids(lo, hi)
        assert ([int(a) | int(b) << 64 for a, b in zip(kid_lo, kid_hi)]
                == [2 * i + 1 for i in ids] + [2 * i + 2 for i in ids])

    @pytest.mark.parametrize("parent", [2**127 - 1, 2**127, 2**128 - 1])
    def test_child_ids_past_2_128_raise(self, parent):
        lo = np.array([parent & simulate.MASK64], dtype=np.uint64)
        with pytest.raises(ValueError, match="2\\*\\*128"):
            children_ids(lo, np.array([parent >> 64], dtype=np.uint64))


class TestDraws:
    def test_exponential_matches_generator_on_fresh_streams(self):
        n = 100_000
        reps = np.arange(n, dtype=np.uint64) * np.uint64(7919)
        words = streams.philox_block(11, reps, (1, 0, np.arange(n, dtype=np.uint64), 0))
        x = streams.exponential(words[0])
        assert x.tolist() == [-math.log1p(-individual_rng(11, int(r), i).random())
                              for i, r in enumerate(reps.tolist())]

    def test_exponential_at_the_extreme_words(self):
        words = np.array([0, 1, 2**53 - 1], dtype=np.uint64) << np.uint64(11)
        words[1] |= np.uint64(2**11 - 1)  # the low 11 bits are not read
        assert streams.exponential(words).tolist() == [0.0, 2.0**-53, 53 * math.log(2)]

    def test_uniform_is_the_top_53_bits(self):
        words = streams.philox_block(3, np.arange(50, dtype=np.uint64), (1, 0, 0, 0))
        u = streams.uniform(words[0])
        assert u.tolist() == [individual_rng(3, r, 0).random() for r in range(50)]


class TestEngine:
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_pins(self, name):
        model, x0, cfg, rep = pin_run(name)
        assert digest(simulate_population(model, x0, cfg, replicate=rep)) == PINS[name][-1]

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_matches_event_loop(self, name):
        model, x0, cfg, rep = pin_run(name)
        reps = range(rep, rep + 6) if rep < 2**63 else [rep]
        for r, tr in zip(reps, simulate_population(model, x0, cfg, reps)):
            assert flat(tr) == reference_population(model, x0, cfg, r)

    def test_nothing_replays_a_stream(self, monkeypatch):
        # every draw reads one word of the individual's first Philox block
        def refuse(*args):
            raise AssertionError("the engine replayed a stream")

        monkeypatch.setattr(simulate, "individual_rng", refuse)
        model, x0, cfg, rep = pin_run("constant_beta_deaths")
        assert digest(simulate_population(model, x0, cfg, replicate=rep)) \
            == PINS["constant_beta_deaths"][-1]

    def test_range_gives_one_trajectory_per_index(self, adder_d0):
        cfg = SimConfig(seed=4, t_end=3.0, record_times=[1.0, 3.0])
        block = simulate_population(adder_d0, PhasePoint(0.0, 1.0), cfg, range(3, 9))
        assert len(block) == 6
        for r, tr in zip(range(3, 9), block):
            single = simulate_population(adder_d0, PhasePoint(0.0, 1.0), cfg, replicate=r)
            assert flat(tr) == flat(single)

    def test_blocks_do_not_change_trajectories(self, adder_d0, monkeypatch):
        cfg = SimConfig(seed=4, t_end=2.0, record_times=[1.0, 2.0], replicates=10)
        whole = run_replicates(adder_d0, PhasePoint(0.0, 1.0), cfg)
        monkeypatch.setattr(simulate, "BLOCK_LANES", 40)
        assert [flat(t) for t in run_replicates(adder_d0, PhasePoint(0.0, 1.0), cfg)] \
            == [flat(t) for t in whole]

    def test_cap_stops_exploding_run_quickly(self, adder):
        # e^50 individuals would never finish: windows shrink until the cap is found
        start = time.monotonic()
        cfg = SimConfig(seed=2, t_end=50.0, record_times=[3.0, 50.0], cap=8, replicates=3)
        with pytest.raises(PopulationCapExceeded, match="replicate 0 .* cap of 8"):
            run_replicates(adder, PhasePoint(0.0, 1.0), cfg)
        assert time.monotonic() - start < 10.0

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_raises_exactly_when_the_event_loop_hits_the_cap(self, name):
        model, x0, cfg, rep = pin_run(name)
        cfg.cap = 16
        for r in (range(rep, rep + 6) if rep < 2**63 else [rep]):
            ref = reference_population(model, x0, cfg, r)
            if ref[2]:  # the event loop passed the cap
                with pytest.raises(PopulationCapExceeded, match=f"replicate {r} .* cap of 16"):
                    simulate_population(model, x0, cfg, replicate=r)
            else:
                assert flat(simulate_population(model, x0, cfg, replicate=r)) == ref

    def test_cap_at_the_true_peak_does_not_raise(self):
        # deaths keep the peak alive count below 1 + divisions, the bound the
        # engine tests first; only the replay in event order finds the peak
        model, x0 = make_adder(1.0, CONSTANT, BETA, d0=0.4), PhasePoint(0.0, 1.0)
        for seed in range(20):
            cfg = SimConfig(seed=seed, t_end=4.0, record_times=RECORD)
            log = reference_population(model, x0, cfg, 0)[0]
            alive = np.cumsum([1] + [1 if e[1] == "division" else -1 for e in log[1:]])
            peak = int(alive.max())
            if any(e[1] == "death" for e in log[:int(alive.argmax()) + 1]):
                break
        else:
            pytest.fail("no seed in range(20) has a death before its peak")
        cfg.cap = peak
        assert flat(simulate_population(model, x0, cfg)) == reference_population(model, x0, cfg, 0)
        cfg.cap = peak - 1
        with pytest.raises(PopulationCapExceeded, match=f"replicate 0 .* cap of {peak - 1}"):
            simulate_population(model, x0, cfg)

"""Monte Carlo simulation of the branching population.

Each individual carries an exact division time (its added size at division
is drawn once by inverse-CDF from the hazard law and converted through the
closed-form flow) and an independent exponential death clock; the earlier
clock fires.  Fragments are drawn by inverse-CDF as well: for Beta splits,
the inverse regularised incomplete beta function of one uniform.
Randomness comes from counter-based Philox streams keyed on (seed,
replicate) with the individual's breadth-first tree id in the counter, so
trajectories are reproducible independently of event interleaving.  Each
replicate builds one Philox generator and re-keys it to every individual's
stream; the stream layout, and so every draw, is that of a generator built
afresh per individual.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import DegenerateData, InsufficientData, PopulationCapExceeded
from .flow import FlowEngine
from .model import ModelSpec, PhasePoint

MASK64 = (1 << 64) - 1


def individual_rng(seed: int, replicate: int, tree_id: int,
                   reuse: Generator | None = None) -> Generator:
    """Philox stream for one individual; ids are breadth-first (2i+1, 2i+2).

    The key is (seed, replicate) and the counter starts at
    (0, 0, tree_id mod 2**64, tree_id div 2**64).  ``reuse``, a generator
    returned by an earlier call, is reset in place to the state a new stream
    has (empty output buffer), several times cheaper than building one.
    Counter and key words are passed as uint64 arrays: from a list, numpy
    rounds words of 2**63 and above through float64, aliasing streams.
    """
    if not 0 <= tree_id < 1 << 128:
        raise ValueError(f"tree id {tree_id} outside [0, 2**128) would alias another stream")
    counter = np.array([0, 0, tree_id & MASK64, tree_id >> 64], dtype=np.uint64)
    key = np.array([seed & MASK64, replicate & MASK64], dtype=np.uint64)
    if reuse is None:
        return Generator(Philox(counter=counter, key=key))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


# ---------------------------------------------------------------------------
# Clock sampling
# ---------------------------------------------------------------------------


def sample_division_age(model: ModelSpec, x: PhasePoint, rng: Generator) -> float:
    """Added size at division, drawn from P(A >= a) = exp(-(H(a) - H(x.a))).

    Returns the absolute added-size coordinate of the division point
    (>= x.a, and >= a_star when the hazard vanishes below a_star).
    """
    e = rng.exponential()
    hz = model.hazard
    return float(hz.inverse_cumulative(hz.cumulative(x.a) + e))


def division_age_cdf(model: ModelSpec, x: PhasePoint, a) -> float:
    hz = model.hazard
    out = 1.0 - np.exp(-(hz.cumulative(a) - hz.cumulative(x.a)))
    return out if np.ndim(a) else float(out)


def division_time_from_added_size(model: ModelSpec, x: PhasePoint, delta_a: float,
                                  flow: FlowEngine | None = None) -> float:
    """Time for the added size to advance from x.a to x.a + delta_a."""
    if delta_a < 0:
        raise ValueError("added size increment must be nonnegative")
    if model.is_adder:
        return math.log1p(delta_a / x.y) / model.lambda_growth
    flow = flow or FlowEngine(model)
    return flow._time_to_age(x, x.a + delta_a)


# ---------------------------------------------------------------------------
# Population state
# ---------------------------------------------------------------------------


@dataclass
class Individual:
    tree_id: int
    birth_time: float
    size_at_birth: float

    def phase(self, model: ModelSpec, t: float) -> PhasePoint:
        e = math.exp(model.lambda_growth * (t - self.birth_time))
        y0 = self.size_at_birth
        return PhasePoint(y0 * (e - 1.0), y0 * e)


@dataclass
class PopulationState:
    """Snapshot of the point measure Z_t."""

    t: float
    individuals: list

    @property
    def count(self) -> int:
        return len(self.individuals)


@dataclass
class SimConfig:
    seed: int
    t_end: float
    record_times: Sequence[float]
    cap: int = 1_000_000
    replicates: int = 1

    def __post_init__(self):
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        rt = sorted(float(t) for t in self.record_times)
        if rt and (rt[0] < 0 or rt[-1] > self.t_end):
            raise ValueError("record_times must lie in [0, t_end]")
        self.record_times = rt


@dataclass
class Trajectory:
    states: list
    event_log: list
    cap_hit: bool = False


def simulate_population(model: ModelSpec, x0: PhasePoint, config: SimConfig,
                        replicate: int = 0) -> Trajectory:
    """One branching trajectory from delta_{x0}, recorded at record_times."""
    lam = model.lambda_growth
    d0 = model.d0
    rng = None

    def schedule(tree_id, birth_time, a0, y0):
        """Division/death clocks for an individual born (or started) at a0."""
        nonlocal rng
        rng = individual_rng(config.seed, replicate, tree_id, reuse=rng)
        a_div = sample_division_age(model, PhasePoint(a0, y0), rng)
        t_div = birth_time + math.log1p((a_div - a0) / y0) / lam
        t_die = birth_time + rng.exponential() / d0 if d0 > 0 else math.inf
        u_frag = rng.random()
        return t_div, t_die, u_frag

    heap = []
    alive = {}

    def add(tree_id, birth_time, a0, y0):
        t_div, t_die, u_frag = schedule(tree_id, birth_time, a0, y0)
        if a0 > 0.0:
            # re-express the state in its virtual birth frame (a = 0)
            if a0 >= y0:
                raise ValueError("added size must stay below current size")
            yb = y0 - a0
            tb = birth_time - math.log(y0 / yb) / lam
        else:
            yb, tb = y0, birth_time
        alive[tree_id] = Individual(tree_id, tb, yb)
        if t_die <= t_div:
            heapq.heappush(heap, (t_die, tree_id, "death", 0.0))
        else:
            heapq.heappush(heap, (t_div, tree_id, "division", u_frag))

    add(0, 0.0, x0.a, x0.y)
    log = [(0.0, "init", 0, x0.a, x0.y)]
    states = []
    pending = list(config.record_times)
    cap_hit = False

    def flush(up_to):
        while pending and pending[0] <= up_to:
            t = pending.pop(0)
            states.append(PopulationState(t, [ind.phase(model, t) for ind in alive.values()]))

    while heap:
        t_ev, tree_id, kind, u_frag = heapq.heappop(heap)
        if t_ev > config.t_end:
            break
        if tree_id not in alive:
            continue
        flush(t_ev)
        ind = alive.pop(tree_id)
        if kind == "death":
            log.append((t_ev, "death", tree_id, 0.0, 0.0))
            continue
        parent = ind.phase(model, t_ev)
        rho = _frag_from_uniform(model, u_frag)
        y1 = rho * parent.y
        y2 = parent.y - y1
        log.append((t_ev, "division", tree_id, y1, y2))
        add(2 * tree_id + 1, t_ev, 0.0, y1)
        add(2 * tree_id + 2, t_ev, 0.0, y2)
        if len(alive) > config.cap:
            cap_hit = True
            break

    flush(config.t_end)
    # any record times beyond the last event (population froze or went extinct)
    for t in pending:
        states.append(PopulationState(t, [ind.phase(model, t) for ind in alive.values()]))
    return Trajectory(states=states, event_log=log, cap_hit=cap_hit)


def _frag_from_uniform(model: ModelSpec, u: float) -> float:
    frag = model.fragmentation
    rng = _FixedUniform(u)
    return float(frag.sample(rng, 1)[0])


class _FixedUniform:
    """Adapter feeding one fixed uniform draw into a sampler."""

    def __init__(self, u):
        self.u = u

    def random(self, n=None):
        return np.full(n, self.u) if n is not None else self.u


def run_replicates(model: ModelSpec, x0: PhasePoint, config: SimConfig):
    """All replicates, aggregated deterministically by replicate index.

    Raises PopulationCapExceeded when a replicate outgrows ``config.cap``:
    its counts after that point would be frozen, not simulated.
    """
    out = []
    for r in range(config.replicates):
        tr = simulate_population(model, x0, config, replicate=r)
        if tr.cap_hit:
            raise PopulationCapExceeded(
                f"replicate {r} exceeded the population cap of {config.cap}")
        out.append(tr)
    return out


# ---------------------------------------------------------------------------
# Functionals and estimation
# ---------------------------------------------------------------------------


def empirical_functional(state: PopulationState, f: Callable) -> float:
    """<Z_t, f> = sum of f over the individuals alive at t."""
    return float(sum(f(p.a, p.y) for p in state.individuals))


def estimate_malthus(trajectories) -> tuple:
    """Least-squares slope of log mean count over the latter half of times.

    Returns (slope, bootstrap standard error over replicates).  Raises
    PopulationCapExceeded for a trajectory that hit the population cap.
    """
    if not trajectories or not trajectories[0].states:
        raise InsufficientData("need at least one trajectory with recorded states")
    for r, tr in enumerate(trajectories):
        if tr.cap_hit:
            raise PopulationCapExceeded(
                f"trajectory {r} hit the population cap; its later counts are frozen")
    times = np.array([s.t for s in trajectories[0].states])
    counts = np.array([[s.count for s in tr.states] for tr in trajectories], dtype=float)
    half = len(times) // 2
    t_fit = times[half:]
    if len(t_fit) < 2:
        raise InsufficientData("need >= 2 record times in the fitting window")

    def slope(c):
        mean = c.mean(axis=0)[half:]
        if np.any(mean <= 0):
            raise DegenerateData("mean population count vanished in the fitting window")
        return float(np.polyfit(t_fit, np.log(mean), 1)[0])

    est = slope(counts)
    rng = np.random.default_rng(0)
    n = counts.shape[0]
    boots = []
    for _ in range(200):
        idx = rng.integers(0, n, n)
        try:
            boots.append(slope(counts[idx]))
        except DegenerateData:
            continue
    stderr = float(np.std(boots)) if boots else math.nan
    return est, stderr


# ---------------------------------------------------------------------------
# Generator consistency
# ---------------------------------------------------------------------------


@dataclass
class ConsistencyReport:
    f_label: str
    simulated: float
    stderr: float
    generator: float
    z_score: float


def generator_consistency_check(model: ModelSpec, fs, x0: PhasePoint, dt: float,
                                replicates: int, seed: int = 0):
    """Compare (E<Z_dt, f> - f(x0)) / dt with Q f(x0) for each test function.

    The forward difference carries a deterministic discretization bias
    (dt/2) Q^2 f + O(dt^2), which at small Monte Carlo error dominates the
    comparison; the z-score is therefore computed against the second-order
    prediction Q f + (dt/2) Q^2 f, with the denominator floored at the size
    of the neglected O(dt^2) remainder so exactly-conserved functionals
    (zero sample variance) are scored fairly.

    ``fs`` is a dict label -> f(a, y); one batch of one-step replicates is
    shared across all test functions.  Returns a list of ConsistencyReport.
    """
    labels = list(fs)
    funcs = [fs[k] for k in labels]
    vals = np.empty((replicates, len(funcs)))
    for r in range(replicates):
        rng = Generator(Philox(key=[seed & MASK64, r & MASK64]))
        vals[r] = _one_step_functionals(model, x0, dt, rng, funcs)
    reports = []
    for j, label in enumerate(labels):
        mean = float(vals[:, j].mean())
        se = float(vals[:, j].std(ddof=1) / math.sqrt(replicates))
        lhs = (mean - funcs[j](x0.a, x0.y)) / dt
        f = funcs[j]
        rhs = model.apply_generator(lambda a, y, fj=f: fj(a, y), x0.a, x0.y)
        qqf = model.apply_generator(
            lambda a, y, fj=f: model.apply_generator(
                lambda aa, yy: fj(aa, yy), a, y),
            x0.a, x0.y)
        predicted = rhs + 0.5 * dt * qqf
        floor = dt**2 * max(1.0, abs(predicted))
        z = (lhs - predicted) / max(se / dt, floor)
        reports.append(ConsistencyReport(label, lhs, se / dt, rhs, float(z)))
    return reports


def _one_step_functionals(model: ModelSpec, x: PhasePoint, t_end: float,
                          rng: Generator, funcs):
    """Sum of f over the population at t_end, one short exact trajectory."""
    lam = model.lambda_growth
    stack = [(0.0, x.a, x.y)]
    out = np.zeros(len(funcs))
    while stack:
        t0, a0, y0 = stack.pop()
        hz = model.hazard
        a_div = float(hz.inverse_cumulative(hz.cumulative(a0) + rng.exponential()))
        t_div = t0 + math.log1p((a_div - a0) / y0) / lam
        t_die = t0 + rng.exponential() / model.d0 if model.d0 > 0 else math.inf
        t_next = min(t_div, t_die)
        if t_next >= t_end:
            e = math.exp(lam * (t_end - t0))
            a_t, y_t = a0 + y0 * (e - 1.0), y0 * e
            for j, f in enumerate(funcs):
                out[j] += f(a_t, y_t)
            continue
        if t_die <= t_div:
            continue
        e = math.exp(lam * (t_div - t0))
        y_div = y0 * e
        rho = float(model.fragmentation.sample(rng, 1)[0])
        y1 = rho * y_div
        stack.append((t_div, 0.0, y1))
        stack.append((t_div, 0.0, y_div - y1))
    return out

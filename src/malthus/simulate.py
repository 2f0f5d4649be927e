"""Monte Carlo simulation of the branching population.

Each individual carries an exact division time (its added size at division
is drawn once by inverse-CDF from the hazard law and converted through the
closed-form flow) and an independent exponential death clock; the earlier
clock fires.  Fragments are drawn by inverse-CDF as well: for Beta splits,
the inverse regularised incomplete beta function of one uniform, solved in
numpy arithmetic for integer parameters.
Randomness comes from counter-based Philox streams keyed on (seed,
replicate) with the individual's breadth-first tree id in the counter, so
trajectories are reproducible independently of event interleaving.

An individual's draws are fixed at birth and its stream is its own, so
``simulate_population`` advances a block of replicates one generation at a
time on arrays (``malthus.engine``): every newborn's first Philox block is
computed in numpy (``malthus.streams``), and each draw reads one word of it,
in this order: the division exponential, the death exponential (when d0 > 0)
and the fragment uniform.  An exponential is -log1p(-U) of the word's
uniform U, as ``sample_division_age`` draws it (``STREAM_VERSION``).
The stream layout is that of one fresh Philox generator per individual, so
every draw is the one an event-by-event simulation makes.  It returns each
recorded population as arrays of ages and sizes.  The one-step Kolmogorov
check (``generator_consistency_check``) runs on the same engine.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import DegenerateData, InsufficientData
from .model import ModelSpec, PhasePoint

MASK64 = (1 << 64) - 1
#: the law of the draws: 1 was numpy's ziggurat exponential, 2 one word per
#: draw with exponentials by inversion, 3 adds integer-Beta fragments by
#: Newton steps on binomial tails (``model.BetaFragmentation``);
#: ``manifest.json`` records it
STREAM_VERSION = 3
#: individuals (lanes) a block of replicates holds, summed over its
#: replicates: it bounds the engine's arrays at a few MB.  The number of
#: replicates in the next block follows from the lanes per replicate so far.
BLOCK_LANES = 1 << 14


def individual_rng(seed: int, replicate: int, tree_id: int) -> Generator:
    """Philox stream for one individual; ids are breadth-first (2i+1, 2i+2).

    The key is (seed, replicate) and the counter starts at
    (0, 0, tree_id mod 2**64, tree_id div 2**64).  Counter and key words are
    passed as uint64 arrays: from a list, numpy rounds words of 2**63 and
    above through float64, aliasing streams.  ``simulate_population``
    computes the first output block of these streams on arrays instead.
    """
    if not 0 <= tree_id < 1 << 128:
        raise ValueError(f"tree id {tree_id} outside [0, 2**128) would alias another stream")
    counter = np.array([0, 0, tree_id & MASK64, tree_id >> 64], dtype=np.uint64)
    key = np.array([seed & MASK64, replicate & MASK64], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


# ---------------------------------------------------------------------------
# Clock sampling
# ---------------------------------------------------------------------------


def sample_division_age(model: ModelSpec, x: PhasePoint, u: float) -> float:
    """Added size at division of the uniform ``u``, P(A >= a) = exp(-(H(a) - H(x.a))).

    Returns the absolute added-size coordinate of the division point
    (>= x.a, and >= a_star when the hazard vanishes below a_star).  The
    exponential is -log1p(-u), by inversion, as the engine draws it.
    """
    e = -math.log1p(-u)
    hz = model.hazard
    return float(hz.inverse_cumulative(hz.cumulative(x.a) + e))


def division_age_cdf(model: ModelSpec, x: PhasePoint, a) -> float:
    hz = model.hazard
    out = 1.0 - np.exp(-(hz.cumulative(a) - hz.cumulative(x.a)))
    return out if np.ndim(a) else float(out)


# ---------------------------------------------------------------------------
# Population state
# ---------------------------------------------------------------------------


@dataclass
class PopulationState:
    """Snapshot of the point measure Z_t: the phases (a[i], y[i]) alive at t."""

    t: float
    a: np.ndarray
    y: np.ndarray

    @property
    def count(self) -> int:
        return self.a.size


@dataclass
class SimConfig:
    seed: int
    t_end: float
    record_times: Sequence[float]
    cap: int = 1_000_000
    replicates: int = 1

    def __post_init__(self):
        for key in ("seed", "cap", "replicates"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if key != "seed" and value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        if not 0 <= self.seed < 1 << 64:  # streams are keyed on 64 bits: -1 is 2**64 - 1
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        # the engine halves its time window until a window fits: an infinite
        # t_end would never fit
        if not (isinstance(self.t_end, Real) and 0 <= self.t_end < math.inf):
            raise ValueError(f"t_end must be a finite nonnegative number, got {self.t_end!r}")
        self.t_end = float(self.t_end)
        try:
            rt = sorted(float(t) for t in self.record_times)
        except (TypeError, ValueError):
            raise ValueError(f"record_times must be a list of times, "
                             f"got {self.record_times!r}") from None
        if not all(0 <= t <= self.t_end for t in rt):
            raise ValueError(f"record_times must lie in [0, t_end = {self.t_end:g}]")
        self.record_times = rt


@dataclass
class Trajectory:
    states: list
    event_log: list


def simulate_population(model: ModelSpec, x0: PhasePoint, config: SimConfig,
                        replicate: int | Sequence[int] = 0):
    """Branching trajectories from delta_{x0}, recorded at record_times.

    ``replicate`` is one replicate index, giving one Trajectory, or a
    sequence of them (such as a ``range``), giving one Trajectory per index.
    Raises PopulationCapExceeded, naming the first replicate in the order
    given, at the division that takes its population past ``config.cap``.

    The event log lists (time, kind, tree id, y1, y2) in (time, tree id)
    order after the initial entry; a state holds the phases of the
    individuals alive at its time in (birth time, tree id) order.
    """
    single = isinstance(replicate, Integral)
    reps = [int(replicate)] if single else list(replicate)
    out = [tr for block in _blocks(model, x0, config, reps) for tr in block]
    return out[0] if single else out


def _blocks(model: ModelSpec, x0: PhasePoint, config: SimConfig, reps: list):
    """The Trajectories of ``reps`` in order, one list per engine block."""
    # the engine is compiled on first use: commands that do not simulate
    # start without it
    from .engine import Block

    done, size = 0, 16  # a small first block measures the lanes per replicate
    while done < len(reps):
        block = Block(model, x0, config, reps[done:done + size])
        yield block.run()
        done += len(block.reps)
        size = max(1, BLOCK_LANES * len(block.reps) // block.lanes)


def run_replicates(model: ModelSpec, x0: PhasePoint, config: SimConfig):
    """Replicates 0 .. ``config.replicates`` - 1, in order.

    Raises PopulationCapExceeded, naming the first replicate that outgrows
    ``config.cap``.
    """
    return simulate_population(model, x0, config, range(config.replicates))


# ---------------------------------------------------------------------------
# Functionals and estimation
# ---------------------------------------------------------------------------


def empirical_functional(state: PopulationState, f: Callable) -> float:
    """<Z_t, f>: ``f(a, y)``, called once on the state's arrays, summed in order.

    The sum is plain left-to-right float addition: builtin ``sum`` of floats
    is compensated from Python 3.12 on, so its bits depend on the interpreter.
    """
    values = np.broadcast_to(f(state.a, state.y), state.a.shape)
    return float(functools.reduce(operator.add, values.tolist(), 0.0))


def estimate_malthus(trajectories) -> tuple:
    """Least-squares slope of log mean count over the latter half of times.

    Returns (slope, bootstrap standard error over replicates).
    """
    if not trajectories or not trajectories[0].states:
        raise InsufficientData("need at least one trajectory with recorded states")
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

    ``fs`` is a dict label -> f(a, y); one batch of one-step replicates,
    simulated as ``run_replicates`` does, is shared across all test
    functions, and each engine block is summed as it is produced, so memory
    is bounded by the block.  Returns a list of ConsistencyReport; raises
    PopulationCapExceeded when a replicate outgrows the default cap.
    """
    labels = list(fs)
    funcs = [fs[k] for k in labels]
    config = SimConfig(seed=seed, t_end=dt, record_times=[dt], replicates=replicates)
    vals = []
    for block in _blocks(model, x0, config, list(range(replicates))):
        states = [tr.states[0] for tr in block]
        a = np.concatenate([s.a for s in states])
        y = np.concatenate([s.y for s in states])
        owner = np.repeat(np.arange(len(states)), [s.count for s in states])
        # <Z_dt, f> per replicate: bincount adds each replicate's values in order
        vals.append(np.column_stack([np.bincount(owner, np.broadcast_to(f(a, y), a.shape),
                                                 len(states)) for f in funcs]))
    vals = np.concatenate(vals)
    reports = []
    for j, label in enumerate(labels):
        mean = float(vals[:, j].mean())
        se = float(vals[:, j].std(ddof=1) / math.sqrt(replicates))
        lhs = (mean - funcs[j](x0.a, x0.y)) / dt
        f = funcs[j]
        rhs = model.apply_generator(f, x0.a, x0.y)
        # the jump term evaluates the inner Q f on the array of quadrature sizes
        qqf = model.apply_generator(
            lambda a, y, fj=f: model.apply_generator(fj, a, y), x0.a, x0.y)
        predicted = rhs + 0.5 * dt * qqf
        floor = dt**2 * max(1.0, abs(predicted))
        z = (lhs - predicted) / max(se / dt, floor)
        reports.append(ConsistencyReport(label, lhs, se / dt, rhs, float(z)))
    return reports


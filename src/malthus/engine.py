"""The array engine behind ``simulate.simulate_population``.

A ``Block`` simulates a block of replicates one generation at a time.  For
every newborn it computes the first Philox block of the individual's own
stream (``malthus.streams``) and reads one word from it per draw, in this
order: the division exponential, the death exponential (when d0 > 0) and the
fragment uniform.  Divisions, virtual-birth shifts and phases call
``math.log1p``/``math.log``/``math.exp`` element by element
(``streams.math_map``), because numpy's vectorised versions can differ from
them in the last bit; the other operations are the event-by-event
simulation's, element for element, so every draw, event log and state is
bit-identical to it.  States are returned as arrays, slices of the block's
own, and a replicate that outgrows the cap raises PopulationCapExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import PopulationCapExceeded
from .model import ModelSpec, PhasePoint
from .simulate import MASK64, PopulationState, SimConfig, Trajectory
from .streams import exponential, math_map, philox_block, uniform


@dataclass
class _Lanes:
    """Individuals of a block of replicates, one array element (lane) each."""

    rep: np.ndarray    # index of the replicate within the block
    lo: np.ndarray     # tree id = lo + 2**64 hi, as uint64 words; 0 is the root
    hi: np.ndarray
    tb: np.ndarray     # birth time and size; the root's in its virtual birth
    yb: np.ndarray     # frame (a = 0), which precedes time 0 when x0.a > 0
    t_ev: np.ndarray   # time of the lane's own event
    div: np.ndarray    # the event is a division (else a death)
    u: np.ndarray      # uniform of the fragment drawn at that division
    y1: np.ndarray     # children's sizes once the division is processed
    y2: np.ndarray

    def take(self, idx) -> "_Lanes":
        return _Lanes(*(getattr(self, f.name)[idx] for f in fields(self)))

    def reorder(self, idx) -> None:
        """``take`` in place, one array at a time."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name)[idx])

    @staticmethod
    def concat(parts: list) -> "_Lanes":
        """The lanes of ``parts`` in order; empties the list as it copies,
        one array at a time, so the parts and the result never coexist."""
        out = []
        for f in fields(_Lanes):
            out.append(np.concatenate([getattr(p, f.name) for p in parts]))
            for p in parts:
                setattr(p, f.name, None)
        parts.clear()
        return _Lanes(*out)

    @property
    def size(self) -> int:
        return self.rep.size


class Block:
    """The simulation of one block of replicates.

    Events are processed in time windows ``(t0, t1]``: all individuals with
    an event in the window, and the children they bear inside it, are
    advanced a generation at a time.  The first window is the whole horizon.
    A window in which some replicate bears more than ``2 (cap + 1)``
    individuals is abandoned and retried at half the width, so a population
    that explodes past the cap is never built in full; after a window, a
    replicate whose alive count could have passed the cap has its events
    replayed in (time, tree id) order, and PopulationCapExceeded is raised
    if a division did pass it.  The error names the first replicate of
    ``reps`` that passes the cap, whenever it does: the replicates before
    the one found are run again as a block of their own.  ``run`` returns
    one Trajectory per replicate of ``reps``.
    """

    def __init__(self, model: ModelSpec, x0: PhasePoint, config: SimConfig, reps):
        self.model, self.x0, self.config = model, x0, config
        self.reps = reps
        self.keys = np.array([r & MASK64 for r in reps], dtype=np.uint64)
        self.budget = 2 * (config.cap + 1)
        self.lanes = 0  # individuals simulated, once run

    # -- draws and clocks ------------------------------------------------

    def _draws(self, rep, lo, hi):
        """(division exponential, death exponential, fragment uniform) per lane."""
        d0 = self.model.d0
        words = philox_block(self.config.seed & MASK64, self.keys[rep], (1, 0, lo, hi))
        e_die = exponential(words[1]) if d0 > 0 else None
        return exponential(words[0]), e_die, uniform(words[2 if d0 > 0 else 1])

    def _newborns(self, rep, lo, hi, t0, a0, y0, tb, yb) -> _Lanes:
        """Lanes of individuals started at time t0 in state (a0, y0)."""
        model = self.model
        lam, d0, hz = model.lambda_growth, model.d0, model.hazard
        e_div, e_die, u = self._draws(rep, lo, hi)
        a_div = hz.inverse_cumulative(hz.cumulative(a0) + e_div)
        t_ev = t0 + math_map(math.log1p, (a_div - a0) / y0) / lam
        div = np.ones(rep.size, dtype=bool)
        if d0 > 0:
            t_die = t0 + e_die / d0
            div = ~(t_die <= t_ev)
            t_ev = np.where(div, t_ev, t_die)
        zero = np.zeros(rep.size)
        return _Lanes(rep, lo, hi, tb, yb, t_ev, div, u, zero, zero.copy())

    def _roots(self) -> _Lanes:
        n = len(self.reps)
        a0, y0, lam = self.x0.a, self.x0.y, self.model.lambda_growth
        if a0 > 0.0:
            # re-express the state in its virtual birth frame (a = 0)
            if a0 >= y0:
                raise ValueError("added size must stay below current size")
            yb = y0 - a0
            tb = 0.0 - math.log(y0 / yb) / lam
        else:
            yb, tb = y0, 0.0
        words = np.zeros(n, dtype=np.uint64)
        return self._newborns(np.arange(n, dtype=np.int32), words, words, 0.0,
                              np.full(n, float(a0)), np.full(n, float(y0)),
                              np.full(n, tb), np.full(n, yb))

    def _divide(self, lanes: _Lanes) -> _Lanes:
        """Process the events of ``lanes``; return the children they bear."""
        d = np.flatnonzero(lanes.div)
        kid_lo, kid_hi = children_ids(lanes.lo[d], lanes.hi[d])
        t = lanes.t_ev[d]
        lam = self.model.lambda_growth
        y = lanes.yb[d] * math_map(math.exp, lam * (t - lanes.tb[d]))
        rho = self.model.fragmentation.sample(lanes.u[d])
        y1 = rho * y
        y2 = y - y1
        lanes.y1[d], lanes.y2[d] = y1, y2
        t2, y12 = np.concatenate([t, t]), np.concatenate([y1, y2])
        return self._newborns(np.tile(lanes.rep[d], 2), kid_lo, kid_hi, t2,
                              np.zeros(t2.size), y12, t2, y12)

    # -- windows ---------------------------------------------------------

    def _window(self, pending: _Lanes, t1: float, settled: list):
        """Process the events up to t1 of the ``pending`` lanes.

        Appends the lanes whose fate is settled to ``settled`` and returns the
        lanes still pending, or returns None, settling nothing, when some
        replicate bears more than the budget inside the window.  Raises
        PopulationCapExceeded when a division inside it passes the cap.
        """
        n, cap = len(self.reps), self.config.cap
        go = pending.t_ev <= t1
        cur = pending.take(go)
        proc_parts, stay_parts = [cur], [pending.take(~go)]
        born = np.zeros(n, dtype=np.int64)
        while cur.size:
            kids = self._divide(cur)
            born += np.bincount(kids.rep, minlength=n)
            if born.max(initial=0) > self.budget:
                return None
            go = kids.t_ev <= t1
            cur = kids.take(go)
            proc_parts.append(cur)
            stay_parts.append(kids.take(~go))
        proc, stay = _Lanes.concat(proc_parts), _Lanes.concat(stay_parts)
        # the alive count only rises at divisions: most replicates cannot pass the cap
        alive = np.bincount(pending.rep, minlength=n)
        bound = alive + np.bincount(proc.rep[proc.div], minlength=n)
        for b in np.flatnonzero(bound > cap).tolist():
            # replay the window's events in (time, tree id) order
            mine = np.flatnonzero(proc.rep == b)
            order = mine[np.lexsort((proc.lo[mine], proc.hi[mine], proc.t_ev[mine]))]
            running = alive[b] + np.cumsum(np.where(proc.div[order], 1, -1))
            if running.max() > cap:
                if b:  # an earlier replicate may pass the cap later on: name the first
                    Block(self.model, self.x0, self.config, self.reps[:b]).run()
                raise PopulationCapExceeded(
                    f"replicate {self.reps[b]} exceeded the population cap of {cap}")
        settled.append(proc)
        return stay

    def run(self) -> list:
        pending, settled = self._roots(), []
        t0, t_end = 0.0, self.config.t_end
        width = t_end
        while pending.size:
            t1 = min(t0 + width, t_end)
            left = self._window(pending, t1, settled)
            if left is None:
                width *= 0.5
                continue
            pending = left
            if t1 == t_end:
                break
            t0, width = t1, 2.0 * width
        settled.append(pending)
        return self._trajectories(_Lanes.concat(settled))

    # -- output ----------------------------------------------------------

    def _trajectories(self, lanes: _Lanes) -> list:
        """One Trajectory per replicate from all lanes of the block."""
        n, x0 = len(self.reps), self.x0
        self.lanes = lanes.size
        # (birth time, tree id) order within each replicate, as states list them
        lanes.reorder(np.lexsort((lanes.lo, lanes.hi, lanes.tb, lanes.rep)))
        # event logs, (time, tree id) order within each replicate
        ev = np.flatnonzero(lanes.t_ev <= self.config.t_end)
        ev = ev[np.lexsort((lanes.lo[ev], lanes.hi[ev], lanes.t_ev[ev], lanes.rep[ev]))]
        kinds = [("death", "division")[d] for d in lanes.div[ev].tolist()]
        lo, hi = lanes.lo[ev].tolist(), lanes.hi[ev].tolist()
        ids = [a | b << 64 for a, b in zip(lo, hi)] if any(hi) else lo  # tree ids
        entries = list(zip(lanes.t_ev[ev].tolist(), kinds, ids,
                           lanes.y1[ev].tolist(), lanes.y2[ev].tolist()))
        ends = np.cumsum(np.bincount(lanes.rep[ev], minlength=n)).tolist()
        logs = [[(0.0, "init", 0, x0.a, x0.y)] + entries[a:b]
                for a, b in zip([0] + ends, ends)]
        del entries, ev, ids, lo, hi
        # alive at t: born before t (the root always) and its event not before t
        rep, t_ev, tb, yb = lanes.rep, lanes.t_ev, lanes.tb, lanes.yb
        root = (lanes.lo == 0) & (lanes.hi == 0)
        del lanes
        lam = self.model.lambda_growth
        states = [[] for _ in range(n)]
        for t in self.config.record_times:
            sel = np.flatnonzero(((tb < t) | root) & (t_ev >= t))
            e = math_map(math.exp, lam * (t - tb[sel]))
            ybs = yb[sel]
            a, y = ybs * (e - 1.0), ybs * e
            ends = np.cumsum(np.bincount(rep[sel], minlength=n)).tolist()
            for b, (lo, hi) in enumerate(zip([0] + ends, ends)):
                states[b].append(PopulationState(t, a[lo:hi], y[lo:hi]))
        return [Trajectory(states=s, event_log=log) for s, log in zip(states, logs)]


def children_ids(lo: np.ndarray, hi: np.ndarray):
    """uint64 words of the children 2i + 1 (first half) and 2i + 2 of ids i."""
    lo2, hi2 = lo << 1, (hi << 1) | (lo >> 63)
    second = lo2 + 2
    carry = second < 2  # the low word wrapped: carry into the high word
    over = ((hi >> 63) != 0) | (carry & (hi2 == np.uint64(MASK64)))
    if np.any(over):
        i = int(np.flatnonzero(over)[0])
        parent = int(lo[i]) | int(hi[i]) << 64
        tree_id = next(c for c in (2 * parent + 1, 2 * parent + 2) if c >> 128)
        raise ValueError(f"tree id {tree_id} outside [0, 2**128) would alias another stream")
    return np.concatenate([lo2 | 1, second]), np.concatenate([hi2, hi2 + carry])

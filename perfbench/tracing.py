"""In-memory spans around the calls into each ``malthus`` module.

Each public function listed in ``SPANS`` is wrapped at the place it is
looked up: on the class for methods, and in every ``malthus`` module that
bound the function by name (``malthus.cli.solve_malthus``,
``malthus.stationary.individual_rng`` ...).  A span is recorded as
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (-1 for a root).  The layer of a span is the prefix of its name; a
span's self time is its duration minus the durations of its direct children,
so the self times of all spans add up to the time spent inside the roots.
Library code that is not wrapped counts as self time of its nearest wrapped
caller, ultimately ``cli.main``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "model", "renewal", "eigen", "simulate", "stationary")

#: span name -> public functions it covers, as "module:attr" or "module:Class.attr"
SPANS = {
    "cli.main": ["malthus.cli:main"],
    "model.frag_pdf": ["malthus.model:BetaFragmentation.pdf"],
    "model.frag_sample": ["malthus.model:BetaFragmentation.sample"],
    "model.jump_integral": ["malthus.model:ModelSpec.jump_integral"],
    "model.generator": ["malthus.model:ModelSpec.apply_generator",
                        "malthus.model:MarkovModel.apply_generator"],
    "renewal.row_quadrature": ["malthus.renewal:FirstJumpLaw.row_quadrature"],
    "renewal.assembly": ["malthus.renewal:KernelAssembler.matrix"],
    "eigen.solve": ["malthus.eigen:solve_malthus"],
    "eigen.mu_eval": ["malthus.eigen:spectral_value"],
    "eigen.power": ["malthus.eigen:leading_eigen"],
    "simulate.replicates": ["malthus.simulate:run_replicates"],
    "simulate.population": ["malthus.simulate:simulate_population"],
    "simulate.rng": ["malthus.simulate:individual_rng"],
    "simulate.clock": ["malthus.simulate:sample_division_age"],
    "simulate.functional": ["malthus.simulate:empirical_functional"],
    "stationary.eta": ["malthus.stationary:solve_eta_star"],
    "stationary.pi_star": ["malthus.stationary:pi_star_density"],
    "stationary.ergodicity": ["malthus.stationary:ergodicity_report"],
    "stationary.drift": ["malthus.stationary:check_drift"],
    "stationary.minorant": ["malthus.stationary:doeblin_minorant"],
}

#: counted without a span: a matvec costs microseconds, and its time belongs
#: to the power iteration that issues it
COUNTS = {
    "eigen.matvec": ["malthus.renewal:KernelMatrix.apply",
                     "malthus.renewal:KernelMatrix.adjoint_apply"],
}


def _owner(target):
    module_name, attr = target.split(":")
    owner = sys.modules[module_name]
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def wrap(target, make_wrapper):
    """Replace ``target`` by ``make_wrapper(original)`` wherever it is looked up."""
    owner, name = _owner(target)
    original = getattr(owner, name)
    wrapped = functools.wraps(original)(make_wrapper(original))
    if isinstance(owner, type):
        setattr(owner, name, wrapped)
        return
    for module_name, module in list(sys.modules.items()):
        if module_name == "malthus" or module_name.startswith("malthus."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


class Tracer:
    """Records spans and counts in memory; nothing is written until ``dump``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.lam_keys = set()
        self._stack = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _assembly_key(self, fn):
        # distinct (assembler, lam) pairs are the assembler's cache misses
        keys = self.lam_keys

        def wrapper(assembler, lam, *args, **kwargs):
            keys.add((id(assembler), round(float(lam), 14)))
            return fn(assembler, lam, *args, **kwargs)
        return wrapper

    def install(self):
        wrap("malthus.renewal:KernelAssembler.matrix", self._assembly_key)
        for name, targets in SPANS.items():
            for target in targets:
                wrap(target, functools.partial(self._span, name))
        for name, targets in COUNTS.items():
            for target in targets:
                wrap(target, functools.partial(self._count, name))

    def self_times(self):
        """(calls, self seconds, inclusive seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, own, total = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            total[name] += end - start
        return calls, own, total

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)

"""Command-line entry point.

Wires a single JSON configuration file (sections ``model``, ``grid``,
``sim``, ``doeblin``, ``drift``, ``stationary``) to the library operations
and emits deterministic CSV/JSON artifacts.  ``SCHEMA`` is the whole
configuration format: ``main`` converts every section by it before any
command runs.  Command-line flags override config keys, which override the
library's defaults.  Every run first writes an atomic ``manifest.json``;
outputs are staged with a ``.partial`` suffix.

Exit codes: 0 success, 1 malformed configuration JSON, an unknown section or
key, a missing ``model`` key or a bad value in any section, whatever the
command, or an output that cannot be written, 2 invalid model, 3 eigen solver
failure, 4 simulation failure, 5 stationary failure, 6 minorant failure; a
command that runs out of memory fails with its own code.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, InvalidModel, MalthusError
from .model import (BetaFragmentation, ConstantHazard, ModelSpec, PhasePoint,
                    TableFragmentation, TableHazard, UniformFragmentation, make_adder,
                    validate)
from .renewal import KernelAssembler, SizeGrid
from .eigen import solve_malthus
from .simulate import STREAM_VERSION, SimConfig, empirical_functional, run_replicates
from . import stationary as st

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_INVALID_MODEL = 2
EXIT_EIGEN = 3
EXIT_SIM = 4
EXIT_STATIONARY = 5
EXIT_DOEBLIN = 6


# ---------------------------------------------------------------------------
# Configuration format
# ---------------------------------------------------------------------------


def _count(v):
    """A JSON integer; a float or a bool is an error, not truncated or coerced."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


def _real(v):
    """A finite JSON number, as a float; a string, a bool, NaN or Infinity is an error."""
    if type(v) not in (int, float) or not math.isfinite(v):
        raise ValueError(f"{v!r} is not a finite number")
    return float(v)


def _number(v):
    """A JSON number, as a float; its range, NaN and Infinity included, is the model's to check."""
    if type(v) not in (int, float):
        raise ValueError(f"{v!r} is not a number")
    return float(v)


def _flag(v):
    """A JSON true or false."""
    if type(v) is not bool:
        raise ValueError(f"{v!r} is not true or false")
    return v


def _numbers(n=None, cast=_real):
    """Conversion of a list of values (``n`` of them, if given) to a tuple, each by ``cast``."""
    def convert(v):
        if n is not None and len(v) != n:
            raise ValueError(f"{v!r} must list {n} numbers")
        return tuple(map(cast, v))
    return convert


def _component(section, raw):
    """The hazard or fragmentation object that ``model.<section>`` describes."""
    kinds, name = KINDS[section], f"model.{section}"
    kind = (raw if isinstance(raw, dict) else {}).get("type", next(iter(kinds)))
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{name}.type: unknown {section} type {kind!r}"
                          f"{_did_you_mean(str(kind), kinds)}")
    cls, schema, required = kinds[kind]
    given = _section(name, raw, {"type": str, **schema}, required, f"{name} (type {kind!r})")
    given.pop("type", None)
    try:
        return cls(*[given.pop(k) for k in required], **given)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


#: per ``model.hazard`` and ``model.fragmentation`` type (the first is the
#: default): the class built, the conversion of each key, and the required
#: keys, passed to the class first and in this order
KINDS = {
    "hazard": {"constant": (ConstantHazard, {"b": _real, "a_star": _real}, ("b",)),
               "table": (TableHazard, {"a": _numbers(), "B": _numbers()}, ("a", "B"))},
    "fragmentation": {
        "uniform": (UniformFragmentation, {}, ()),
        "beta": (BetaFragmentation, {"alpha": _real, "beta": _real}, ("alpha", "beta")),
        "table": (TableFragmentation, {"rho": _numbers(), "F": _numbers()}, ("rho", "F"))},
}

#: the configuration format: each section's keys and the conversion of each
#: value; a value its conversion rejects is an error naming ``section.key``
SCHEMA = {
    "model": {"model_type": str, "lambda_growth": _number, "d0": _number,
              "hazard": functools.partial(_component, "hazard"),
              "fragmentation": functools.partial(_component, "fragmentation")},
    "grid": {"R": lambda v: list(map(_real, v if isinstance(v, list) else [v])), "n": _count},
    "sim": {"seed": _count, "t_end": _real, "record_times": _numbers(), "cap": _count,
            "replicates": _count, "x0": _numbers(2), "snapshots": _flag},
    "doeblin": {"compact": _numbers(4), "Delta": _real, "domain": _numbers(4),
                "grid_n": _count},
    "drift": {"box": _numbers(2), "grid_n": _count, "c": _real, "d": _real},
    "stationary": {"y_max": _real, "n": _count, "box": _numbers(2),
                   "bins": _numbers(2, _count), "report": _flag},
}

#: the values a run takes for keys its config leaves out; a key in neither
#: table is not passed on, so the library's own default applies
DEFAULTS = {
    "grid": {"R": [16.0], "n": None},
    "sim": {"seed": 0, "t_end": 4.0, "record_times": (0.0, 1.0, 2.0, 3.0, 4.0),
            "x0": (0.0, 1.0), "snapshots": False},
    "doeblin": {"compact": (0.0, 1.0, 1.0, 2.0)},
    "stationary": {"box": st.PROFILE_BOX, "bins": st.PROFILE_BINS, "report": False},
}


def _did_you_mean(word, choices):
    """`` (did you mean 'x'?)`` for the choice closest to ``word``, or ''."""
    close = difflib.get_close_matches(word, choices, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _check_keys(label, raw, allowed, required=()):
    """Raise ConfigError naming the first unknown (with a suggestion) or missing key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be a JSON object, got {raw!r}")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{label}: unknown key {key!r}{_did_you_mean(key, allowed)}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{label}: missing required key {key!r}")


def _section(name, raw, schema, required=(), label=None):
    """``{k: schema[k](v)}`` for each key ``k`` that section ``name`` gives as ``v``; a key
    error names ``label`` (default ``name``), a value its conversion rejects ``name.k``."""
    _check_keys(label or name, raw, schema, required)
    out = {}
    for key, cast in schema.items():
        if key in raw:
            try:
                out[key] = cast(raw[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{name}.{key}: {exc}") from None
    return out


def model_from_config(cfg: dict) -> ModelSpec:
    """The ModelSpec of the ``model`` section ``cfg``: ConfigError for a bad key or value,
    InvalidModel for a model that violates an assumption."""
    given = _section("model", cfg, SCHEMA["model"])
    if given.get("model_type", "adder") != "adder":
        raise InvalidModel("only adder models can be built from configuration files")
    return make_adder(given.get("lambda_growth", 1.0),
                      given.get("hazard") or ConstantHazard(1.0),
                      given.get("fragmentation") or BetaFragmentation(5, 5),
                      given.get("d0", 0.0))


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def convert(cfg, args) -> dict:
    """Every section of ``cfg`` converted by ``SCHEMA`` over ``DEFAULTS``, then ``args``:
    ``model`` becomes the ModelSpec, ``sim`` a SimConfig ``config``, ``x0`` and ``snapshots``.
    """
    _check_keys("configuration", cfg, SCHEMA)
    conf = {"model": model_from_config(cfg.get("model", {}))}
    for name in list(SCHEMA)[1:]:
        conf[name] = {**DEFAULTS.get(name, {}), **_section(name, cfg.get(name, {}), SCHEMA[name])}
    grid, sim = conf["grid"], conf["sim"]
    grid["R"] = args.R or grid["R"]
    grid["n"] = grid["n"] if args.grid_n is None else args.grid_n
    sim["seed"] = sim["seed"] if args.seed is None else args.seed
    if not (grid["R"] and all(1.0 <= R < math.inf for R in grid["R"])):
        raise ConfigError(f"grid.R: {grid['R']} must be finite and at least 1 (y = 1 is a node)")
    for R in grid["R"]:  # eigen writes one eigen_R{R:g}.json per R
        other = next(S for S in grid["R"] if f"{S:g}" == f"{R:g}")
        if other != R:
            raise ConfigError(f"grid.R: {other!r} and {R!r} both name eigen_R{R:g}.json")
    x0, snapshots = sim.pop("x0"), sim.pop("snapshots")
    try:
        sim_config = SimConfig(**sim)
        if not 0.0 <= x0[0] < x0[1]:
            raise ValueError(f"x0 = {list(x0)!r} must be [a, y] with 0 <= a < y")
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from None
    conf["sim"] = {"config": sim_config, "x0": PhasePoint(*x0), "snapshots": snapshots}
    return conf


# ---------------------------------------------------------------------------
# Atomic output helpers
# ---------------------------------------------------------------------------


def _atomic_write(path, writer):
    tmp = path + ".partial"
    try:
        with open(tmp, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_json(path, obj):
    _atomic_write(path, lambda fh: json.dump(obj, fh, indent=2, sort_keys=True))


def _write_csv(path, header, tables):
    """CSV of ``header`` and then the rows of each ``(row, array)`` in ``tables``.

    ``row`` is one row's ``%`` string, ``%.17g`` (an exact round trip) for a
    float and ``%d`` for a count, and ``array`` a 2-D array with one column
    per field (a float array holds each count up to 2**53 exactly).  Rows are
    formatted at most 4,096 to a string, never a whole population at the cap.
    """
    def writer(fh):
        fh.write(",".join(header) + "\n")
        for row, table in tables:
            for i in range(0, len(table), 4096):
                chunk = table[i:i + 4096]
                fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))

    _atomic_write(path, writer)


def _grid_table(density):
    """The (a, y, value) rows of a Density2D, a-major."""
    A, Y = np.meshgrid(density.a_nodes, density.y_nodes, indexing="ij")
    return np.column_stack((A.ravel(), Y.ravel(), density.values.ravel()))


# ---------------------------------------------------------------------------
# Commands: each takes the converted configuration and the output directory
# ---------------------------------------------------------------------------


def cmd_validate(conf, out_dir):
    report = validate(conf["model"])
    _write_json(os.path.join(out_dir, "validate_report.json"), report)
    if not report["all_passed"]:
        print("validation failed", file=sys.stderr)
        return EXIT_INVALID_MODEL
    return EXIT_OK


def cmd_eigen(conf, out_dir):
    grid_n = conf["grid"]["n"]
    summary = []
    for R in conf["grid"]["R"]:
        grid = SizeGrid.uniform(R, round(32 * R) if grid_n is None else grid_n)
        result = solve_malthus(KernelAssembler(conf["model"], grid))
        _write_json(os.path.join(out_dir, f"eigen_R{R:g}.json"), result.to_dict())
        summary.append((R, result.lambda_R, result.residual))
    _write_csv(os.path.join(out_dir, "eigen_summary.csv"), ["R", "lambda_R", "mu_residual"],
               [("%.17g,%.17g,%.17g\n", np.array(summary))])
    return EXIT_OK


def cmd_simulate(conf, out_dir):
    sim = conf["sim"]
    trajectories = run_replicates(conf["model"], sim["x0"], sim["config"])
    rows = np.array([(r, s.t, s.count, empirical_functional(s, lambda a, y: y),
                      empirical_functional(s, lambda a, y: a))
                     for r, tr in enumerate(trajectories) for s in tr.states]).reshape(-1, 5)
    with np.errstate(invalid="ignore"):  # the means of an empty state are 0 / 0 = nan
        means = rows[:, [4, 3]] / rows[:, 2:3]
    _write_csv(os.path.join(out_dir, "trajectory.csv"),
               ["replicate", "t", "count", "sum_h", "mean_a", "mean_y"],
               [("%d,%.17g,%d,%.17g,%.17g,%.17g\n", np.column_stack((rows[:, :4], means)))])
    if sim["snapshots"]:
        # replicate and t are formatted once per state, not once per row
        _write_csv(os.path.join(out_dir, "snapshots.csv"), ["replicate", "t", "a", "y"],
                   (("%d,%.17g," % (r, s.t) + "%.17g,%.17g\n", np.column_stack((s.a, s.y)))
                    for r, tr in enumerate(trajectories) for s in tr.states))
    return EXIT_OK


def cmd_stationary(conf, out_dir):
    model, stcfg = conf["model"], dict(conf["stationary"])
    box, bins, report = stcfg.pop("box"), stcfg.pop("bins"), stcfg.pop("report")
    if not (min(box) > 0 and min(bins) >= 1):
        raise ValueError(f"box = {box} and bins = {bins} must be positive")
    profile = st.solve_eta_star(model, **stcfg)
    _write_csv(os.path.join(out_dir, "eta_star.csv"), ["s", "eta_star"],
               [("%.17g,%.17g\n", np.column_stack((profile.s_nodes, profile.values)))])
    _write_json(os.path.join(out_dir, "eta_star.json"),
                {"sweeps": profile.sweeps, "residual": profile.residual,
                 "kappa": profile.kappa, "pi_mass": profile.pi_mass,
                 "n": int(profile.s_nodes.size), "y_max": float(profile.s_nodes[-1])})
    a_c, y_c = (st.bin_centers(np.linspace(0.0, b, n + 1)) for b, n in zip(box, bins))
    ref = st.pi_star_density(profile, model, a_c, y_c)
    _write_csv(os.path.join(out_dir, "pi_star.csv"), ["a", "y", "pi_star"],
               [("%.17g,%.17g,%.17g\n", _grid_table(ref))])
    if report:
        sim = conf["sim"]
        trajectories = run_replicates(model, sim["x0"], sim["config"])
        rep = st.ergodicity_report(trajectories, profile, model, box=box, bins=bins)
        _write_csv(os.path.join(out_dir, "decay.csv"), ["t", "distance"],
                   [("%.17g,%.17g\n", np.column_stack((rep.times, rep.distances)))])
    return EXIT_OK


def cmd_doeblin(conf, out_dir):
    nu, constants = st.doeblin_minorant(conf["model"], **conf["doeblin"])
    _write_csv(os.path.join(out_dir, "minorant.csv"), ["a", "y", "nu"],
               [("%.17g,%.17g,%.17g\n", _grid_table(nu))])
    _write_json(os.path.join(out_dir, "minorant_constants.json"),
                {**constants.to_dict(), "mass": nu.mass})
    return EXIT_OK


def cmd_drift(conf, out_dir):
    report = st.check_drift(conf["model"], **conf["drift"])
    _write_json(os.path.join(out_dir, "drift_report.json"), report.to_dict())
    if not report.passed:
        a, y = report.worst_point
        print(f"drift failed: margin AV + cV - d = {report.worst_margin:.6g} > 0 "
              f"at (a, y) = ({a:g}, {y:g})", file=sys.stderr)
        return EXIT_STATIONARY
    return EXIT_OK


#: each command: its function, the section whose name prefixes a ValueError
#: from the library (exit 1), and the exit code of a failed computation
COMMANDS = {
    "validate": (cmd_validate, "model", EXIT_INVALID_MODEL),
    "eigen": (cmd_eigen, "grid", EXIT_EIGEN),
    "simulate": (cmd_simulate, "sim", EXIT_SIM),
    "stationary": (cmd_stationary, "stationary", EXIT_STATIONARY),
    "doeblin": (cmd_doeblin, "doeblin", EXIT_DOEBLIN),
    "drift": (cmd_drift, "drift", EXIT_STATIONARY),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="malthus",
                                description="age-and-size structured branching toolkit")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", default=None, help="JSON configuration file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--R", type=float, action="append", default=None,
                   help="truncation radius for eigen (repeatable)")
    p.add_argument("--grid-n", type=int, default=None, help="size-grid nodes for eigen")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, section, exit_failed = COMMANDS[args.command]
    try:
        cfg = {} if args.config is None else load_config(args.config)
    except (ValueError, OSError) as exc:  # JSON, Unicode and file errors
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        conf = convert(cfg, args)
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "manifest.json"), {
            "command": args.command, "config": args.config or "<defaults>",
            "out_dir": os.path.abspath(args.out), "seed": conf["sim"]["config"].seed,
            "stream": STREAM_VERSION, "version": __version__,  # stream: the draws' law
            "wall_clock": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())})
        return command(conf, args.out)
    except InvalidModel as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (MalthusError, MemoryError, np.linalg.LinAlgError) as exc:  # LinAlgError: a ValueError
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return exit_failed
    except ValueError as exc:
        print(f"invalid configuration: {section}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:  # --out is a file, or an output cannot be created or replaced
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())

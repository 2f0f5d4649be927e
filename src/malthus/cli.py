"""Command-line entry point.

Wires a single JSON configuration file (sections ``model``, ``grid``,
``sim``, ``doeblin``, ``drift``, ``stationary``) to the library operations
and emits deterministic CSV/JSON artifacts.  Command-line flags override
config keys, which override the library's defaults.  Every run first writes
an atomic ``manifest.json``; outputs are staged with a ``.partial`` suffix.

Exit codes: 0 success, 1 malformed configuration JSON, an unknown section or
key, a missing ``model`` key or a bad value in any section, 2 invalid model,
3 eigen solver failure, 4 simulation failure, 5 stationary failure, 6
minorant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import __version__
from .errors import BracketFailure, ConfigError, InvalidModel, MalthusError, NoConvergence
from .model import PhasePoint, _check_keys, load_config, model_from_config, validate
from .renewal import KernelAssembler, SizeGrid
from .eigen import solve_malthus
from .simulate import SimConfig, empirical_functional, run_replicates
from . import stationary as st

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_INVALID_MODEL = 2
EXIT_EIGEN = 3
EXIT_SIM = 4
EXIT_STATIONARY = 5
EXIT_DOEBLIN = 6

#: the keys of each configuration section but ``model``, which
#: ``model_from_config`` checks
SECTIONS = {
    "grid": ("R", "n"),
    "sim": ("seed", "t_end", "record_times", "cap", "replicates", "x0", "snapshots"),
    "doeblin": ("compact", "delta", "Delta", "j_star", "domain", "grid_n"),
    "drift": ("box", "grid_n", "c", "d"),
    "stationary": ("y_max", "n", "box", "bins", "report"),
}


# ---------------------------------------------------------------------------
# Manifest and atomic output helpers
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    config: str
    seed: int | None
    command: str
    out_dir: str
    version: str
    wall_clock: str

    def write(self, out_dir):
        _write_json(os.path.join(out_dir, "manifest.json"), dataclasses.asdict(self))


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


def _write_csv(path, header, rows):
    """CSV with ints in decimal and floats as ``%.17g`` (exact round trip).

    Each row is formatted by one ``%`` string, built once per tuple of
    column types: ``%d`` for ints, ``%.17g`` for floats, ``%s`` otherwise.
    """
    formats = {}

    def writer(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            key = tuple(map(type, row))
            fmt = formats.get(key)
            if fmt is None:
                fmt = formats[key] = ",".join(map(_spec, key)) + "\n"
            fh.write(fmt % tuple(row))

    _atomic_write(path, writer)


def _spec(cls):
    if issubclass(cls, (int, np.integer)):
        return "%d"
    if issubclass(cls, float):
        return "%.17g"
    return "%s"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(cfg, args, out_dir):
    model = model_from_config(cfg.get("model", {}))
    report = validate(model)
    _write_json(os.path.join(out_dir, "validate_report.json"), report.to_dict())
    if not report.all_passed:
        print("validation failed", file=sys.stderr)
        return EXIT_INVALID_MODEL
    return EXIT_OK


def cmd_eigen(cfg, args, out_dir):
    model = model_from_config(cfg.get("model", {}))
    gcfg = _given(cfg, "grid", R=lambda v: list(map(_real, v if isinstance(v, list) else [v])),
                  n=_count)
    radii = args.R or gcfg.get("R", [16.0])
    if not all(1.0 <= R < math.inf for R in radii):
        raise ConfigError(f"grid.R: {radii} must be finite and at least 1 (y = 1 is a node)")
    grid_n = args.grid_n if args.grid_n is not None else gcfg.get("n")
    summary = []
    try:
        for R in radii:
            try:
                grid = SizeGrid.uniform(R, round(32 * R) if grid_n is None else grid_n)
            except ValueError as exc:
                raise ConfigError(f"grid: {exc}") from None
            result = solve_malthus(KernelAssembler(model, grid))
            tmp = os.path.join(out_dir, f"eigen_R{R:g}.json")
            _write_json(tmp, result.to_dict())
            summary.append((R, result.lambda_R, result.residual))
    except (NoConvergence, BracketFailure) as exc:
        print(f"eigen solve failed: {exc}", file=sys.stderr)
        return EXIT_EIGEN
    _write_csv(os.path.join(out_dir, "eigen_summary.csv"),
               ["R", "lambda_R", "mu_residual"], summary)
    return EXIT_OK


def _given(cfg, name, **convert):
    """``{k: convert[k](v)}`` for each key ``k`` that section ``name`` gives as ``v``;
    a value that its conversion rejects raises ConfigError naming ``name.k``."""
    section, out = cfg.get(name, {}), {}
    for k, f in convert.items():
        if k in section:
            try:
                out[k] = f(section[k])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}.{k}: {exc}") from None
    return out


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


def _sim_config(cfg, args):
    """(SimConfig, x0) from the ``sim`` section; a bad value raises ConfigError."""
    scfg = cfg.get("sim", {})
    given = _given(cfg, "sim", t_end=_real, record_times=_numbers(), x0=_numbers(2))
    seed = args.seed if args.seed is not None else scfg.get("seed", 0)
    x0 = given.get("x0", (0.0, 1.0))
    try:
        sim_cfg = SimConfig(seed=seed, t_end=given.get("t_end", 4.0),
                            record_times=given.get("record_times", [0.0, 1.0, 2.0, 3.0, 4.0]),
                            **{k: scfg[k] for k in ("cap", "replicates") if k in scfg})
        if not 0.0 <= x0[0] < x0[1]:
            raise ValueError(f"x0 = {list(x0)!r} must be [a, y] with 0 <= a < y")
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from None
    return sim_cfg, PhasePoint(*x0)


def cmd_simulate(cfg, args, out_dir):
    model = model_from_config(cfg.get("model", {}))
    sim_cfg, x0 = _sim_config(cfg, args)
    snapshots = _given(cfg, "sim", snapshots=_flag).get("snapshots", False)
    try:
        trajectories = run_replicates(model, x0, sim_cfg)
    except MalthusError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIM
    rows = []
    for r, tr in enumerate(trajectories):
        for state in tr.states:
            n = state.count
            sum_h = empirical_functional(state, lambda a, y: y)
            mean_a = empirical_functional(state, lambda a, y: a) / n if n else math.nan
            mean_y = sum_h / n if n else math.nan
            rows.append((r, state.t, n, sum_h, mean_a, mean_y))
    _write_csv(os.path.join(out_dir, "trajectory.csv"),
               ["replicate", "t", "count", "sum_h", "mean_a", "mean_y"], rows)
    if snapshots:
        # rows are formatted as they are generated, never all held at once
        snap = chain.from_iterable(zip(repeat(r), repeat(s.t), s.a.tolist(), s.y.tolist())
                                   for r, tr in enumerate(trajectories) for s in tr.states)
        _write_csv(os.path.join(out_dir, "snapshots.csv"),
                   ["replicate", "t", "a", "y"], snap)
    return EXIT_OK


def cmd_stationary(cfg, args, out_dir):
    model = model_from_config(cfg.get("model", {}))
    stcfg = _given(cfg, "stationary", y_max=_real, n=_count, box=_numbers(2),
                   bins=_numbers(2, _count), report=_flag)
    report = stcfg.pop("report", False)
    box = stcfg.pop("box", st.PROFILE_BOX)
    bins = stcfg.pop("bins", st.PROFILE_BINS)
    if not (min(box) > 0 and min(bins) >= 1):
        raise ConfigError(f"stationary: box = {box} and bins = {bins} must be positive")
    try:
        profile = st.solve_eta_star(model, **stcfg)
    except MalthusError as exc:
        print(f"stationary profile failed: {exc}", file=sys.stderr)
        return EXIT_STATIONARY
    except ValueError as exc:
        raise ConfigError(f"stationary: {exc}") from None
    _write_csv(os.path.join(out_dir, "eta_star.csv"), ["s", "eta_star"],
               zip(profile.s_nodes, profile.values))
    _write_json(os.path.join(out_dir, "eta_star.json"),
                {"sweeps": profile.sweeps, "residual": profile.residual,
                 "kappa": profile.kappa, "pi_mass": profile.pi_mass,
                 "n": int(profile.s_nodes.size), "y_max": float(profile.s_nodes[-1])})
    a_c = np.linspace(0, box[0], bins[0] + 1)
    y_c = np.linspace(0, box[1], bins[1] + 1)
    a_c = 0.5 * (a_c[:-1] + a_c[1:])
    y_c = 0.5 * (y_c[:-1] + y_c[1:])
    ref = st.pi_star_density(profile, model, a_c, y_c)
    A, Y = np.meshgrid(a_c, y_c, indexing="ij")
    _write_csv(os.path.join(out_dir, "pi_star.csv"), ["a", "y", "pi_star"],
               zip(A.ravel(), Y.ravel(), ref.values.ravel()))
    if report:
        sim_cfg, x0 = _sim_config(cfg, args)
        try:
            trajectories = run_replicates(model, x0, sim_cfg)
            rep = st.ergodicity_report(trajectories, profile, model, box=box, bins=bins)
        except MalthusError as exc:
            print(f"ergodicity report failed: {exc}", file=sys.stderr)
            return EXIT_STATIONARY
        _write_csv(os.path.join(out_dir, "decay.csv"), ["t", "distance"], rep.to_rows())
    return EXIT_OK


def cmd_doeblin(cfg, args, out_dir):
    model = model_from_config(cfg.get("model", {}))
    dcfg = _given(cfg, "doeblin", compact=_numbers(4), delta=_real, Delta=_real, j_star=_count,
                  domain=_numbers(4), grid_n=_count)
    try:
        nu, constants = st.doeblin_minorant(
            model, dcfg.pop("compact", (0.0, 1.0, 1.0, 2.0)), **dcfg)
    except MalthusError as exc:
        print(f"minorant construction failed: {exc}", file=sys.stderr)
        return EXIT_DOEBLIN
    except ValueError as exc:
        raise ConfigError(f"doeblin: {exc}") from None
    A, Y = np.meshgrid(nu.a_nodes, nu.y_nodes, indexing="ij")
    _write_csv(os.path.join(out_dir, "minorant.csv"), ["a", "y", "nu"],
               zip(A.ravel(), Y.ravel(), nu.values.ravel()))
    out = constants.to_dict()
    out["mass"] = nu.mass
    _write_json(os.path.join(out_dir, "minorant_constants.json"), out)
    return EXIT_OK


def cmd_drift(cfg, args, out_dir):
    model = model_from_config(cfg.get("model", {}))
    dcfg = _given(cfg, "drift", box=_numbers(2), grid_n=_count, c=_real, d=_real)
    try:
        report = st.check_drift(model, **dcfg)
    except ValueError as exc:
        raise ConfigError(f"drift: {exc}") from None
    _write_json(os.path.join(out_dir, "drift_report.json"), report.to_dict())
    return EXIT_OK if report.passed else EXIT_STATIONARY


COMMANDS = {
    "validate": cmd_validate,
    "eigen": cmd_eigen,
    "simulate": cmd_simulate,
    "stationary": cmd_stationary,
    "doeblin": cmd_doeblin,
    "drift": cmd_drift,
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

    cfg = {}
    if args.config is not None:
        try:
            cfg = load_config(args.config)
        except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
            print(f"cannot read configuration: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        if not isinstance(cfg, dict):
            print("configuration must be a JSON object", file=sys.stderr)
            return EXIT_BAD_CONFIG

    out_dir = args.out
    try:
        _check_keys("configuration", cfg, ("model", *SECTIONS))
        for name, keys in SECTIONS.items():
            if name in cfg:
                _check_keys(name, cfg[name], keys)
        os.makedirs(out_dir, exist_ok=True)
        RunManifest(
            config=args.config or "<defaults>",
            seed=args.seed if args.seed is not None else cfg.get("sim", {}).get("seed"),
            command=args.command,
            out_dir=os.path.abspath(out_dir),
            version=__version__,
            wall_clock=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        ).write(out_dir)
        return COMMANDS[args.command](cfg, args, out_dir)
    except InvalidModel as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())

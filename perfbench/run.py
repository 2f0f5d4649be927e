"""Benchmark of the ``malthus`` CLI on the reference adder config.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 28 --trace 0

Runs from the root of a checkout that holds ``src/malthus``.  Each measured
process is a fresh interpreter (``worker.py``) that imports ``malthus``,
calls ``malthus.cli.main(argv)`` as a user would, and checks the outputs;
one workload runs at a time, one process at a time, with BLAS/OpenMP pools
set to one thread.

* ``--trace 0`` starts processes until ``--seconds`` is used up (at least
  two, so every artifact can be compared byte for byte across processes)
  and reports the end-to-end metrics: the medians of ``wall_s`` (first
  ``main()`` call to last return), ``setup_s`` (``import malthus.cli`` in a
  fresh process; import-only probes top the samples up to three) and
  ``peak_rss_mb``.
* ``--trace 1`` runs one untraced and one traced process with the same seed
  and reports the per-layer metrics of the traced one (see ``tracing.py``)
  plus the tracing overhead, traced minus untraced ``wall_s``.

A process fails on a nonzero exit, on a failed output check, or when its
artifacts differ from the first process's.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
provenance, the per-process samples and the accuracy riders, goes to
``perfbench/out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_PROCESSES = 2
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
PROBE = ("import time; t = time.perf_counter(); import malthus.cli; "
         "print(time.perf_counter() - t)")


def _env():
    # One BLAS/OpenMP thread: the package computes single-threaded, and on its
    # small matrices extra BLAS threads only spin, which made certify slower
    # and noisier on a 2-CPU host.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def provenance(seed):
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    sources = sorted((SRC / "malthus").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def run_worker(workload, seed, trace, work, deadline):
    """One fresh process; returns its result dict (with ``failures``).

    Every process of a run uses the same ``work`` directory, so the paths
    recorded in the manifest match and the artifacts can be compared.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(int(trace)), str(work)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=_env(), stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {timeout:.0f} s"]}
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"failures": [f"worker exited with {proc.returncode}"]}
    return json.loads(result_path.read_text())


def probe_setup(deadline):
    proc = subprocess.run([sys.executable, "-c", PROBE], env=_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()), check=True)
    return float(proc.stdout)


def measure(workload, seed, seconds, trace, out):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    runs = []
    if trace:
        for traced in (False, True):
            runs.append(run_worker(workload, seed, traced, out / "proc", deadline))
    else:
        while True:
            runs.append(run_worker(workload, seed, False, out / "proc", deadline))
            elapsed = time.monotonic() - start
            if (len(runs) >= MIN_PROCESSES
                    and elapsed + elapsed / len(runs) > min(seconds, DEADLINE_S)):
                break
    # a process whose artifacts differ from the first process's fails
    reference = runs[0].get("hashes")
    for r in runs[1:]:
        if "hashes" in r and r["hashes"] != reference:
            r["failures"].append("artifacts differ from the first process's")
    metrics = {}
    if not any(r["failures"] for r in runs):
        if trace:
            metrics = dict(runs[1]["per_layer"])
            metrics["trace.wall_s"] = runs[1]["wall_s"]
            metrics["trace.overhead_s"] = runs[1]["wall_s"] - runs[0]["wall_s"]
        else:
            setup = [r["setup_s"] for r in runs]
            while len(setup) < SETUP_SAMPLES:
                setup.append(probe_setup(deadline))
            metrics = {"wall_s": statistics.median(r["wall_s"] for r in runs),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
    return runs, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "malthus" / "cli.py").is_file():
        sys.exit(f"no malthus sources under {SRC}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    out = OUT / args.workload
    runs, values = measure(args.workload, args.seed, args.seconds, args.trace, out)
    failed = sum(1 for r in runs if r["failures"])
    if not failed and set(values) != set(units):
        sys.exit(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed), "runs": runs, "metrics": metrics}
    (out / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    for i, r in enumerate(runs):
        for f in r["failures"]:
            print(f"{args.workload} process {i}: {f}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

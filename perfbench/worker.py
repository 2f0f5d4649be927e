"""One fresh process of a benchmark run: import malthus, run a workload, check it.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED TRACE WORK_DIR

Writes ``WORK_DIR/config.json``, the CLI artifacts under
``WORK_DIR/artifacts`` and the measurements to ``WORK_DIR/result.json``;
with TRACE=1 also the spans to ``WORK_DIR/spans.json``.  ``run.py`` starts
this once per measured process.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
import time

from tracing import LAYERS, Tracer, wrap


def _hashes(art):
    """sha256 of every artifact; the manifest's wall-clock stamp is left out."""
    out = {}
    for name in sorted(os.listdir(art)):
        with open(os.path.join(art, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_clock")
            data = json.dumps(manifest, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def _events(trajectories):
    return sum(1 for tr in trajectories for ev in tr.event_log
               if ev[1] in ("division", "death"))


def _per_layer(tracer, events, sweeps, output_bytes):
    calls, own, total = tracer.self_times()
    spans = tracer.spans
    drift_points = sum(1 for name, _, _, parent in spans
                       if name == "model.generator" and parent >= 0
                       and spans[parent][0] == "stationary.drift")
    m = {f"{layer}.self_s": sum(v for k, v in own.items() if k.split(".")[0] == layer)
         for layer in LAYERS}
    for span in ("model.frag_pdf", "model.frag_sample", "model.jump_integral",
                 "renewal.row_quadrature", "simulate.rng"):
        m[f"{span}_s"] = own[span]
        m[f"{span}_calls"] = calls[span]
    m.update({
        "cli.output_bytes": output_bytes,
        "model.generator_calls": calls["model.generator"],
        "renewal.assembly_s": own["renewal.assembly"],
        "renewal.assemblies": len(tracer.lam_keys),
        "eigen.mu_evals": calls["eigen.mu_eval"],
        "eigen.matvecs": tracer.counts["eigen.matvec"],
        "eigen.power_s": own["eigen.power"],
        "simulate.events": events,
        "simulate.replicates": calls["simulate.population"],
        "simulate.us_per_event": 1e6 * total["simulate.population"] / events if events else 0.0,
        "simulate.clock_s": own["simulate.clock"],
        "simulate.bookkeeping_s": own["simulate.population"],
        "stationary.eta_s": own["stationary.eta"],
        "stationary.eta_sweeps": sweeps,
        "stationary.ergodicity_s": own["stationary.ergodicity"],
        "stationary.drift_s": own["stationary.drift"],
        "stationary.drift_points": drift_points,
        "stationary.minorant_s": own["stationary.minorant"],
    })
    return m


def main(argv):
    name, seed, trace, work = argv[0], int(argv[1]), argv[2] == "1", argv[3]

    t0 = time.perf_counter()
    import malthus.cli
    setup_s = time.perf_counter() - t0

    from workloads import WORKLOADS  # imports numpy: only after the timed import

    workload = WORKLOADS[name]
    art = os.path.join(work, "artifacts")
    os.makedirs(art)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(workload.config(seed), fh, indent=2, sort_keys=True)

    # results the checks read but the CLI does not write out
    captured = {}

    def capture(key, fn):
        def wrapper(*args, **kwargs):
            captured[key] = fn(*args, **kwargs)
            return captured[key]
        return wrapper

    wrap("malthus.simulate:run_replicates", functools.partial(capture, "run_replicates"))
    wrap("malthus.stationary:solve_eta_star", functools.partial(capture, "solve_eta_star"))
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    argvs = workload.argvs(cfg_path, art)
    start = time.perf_counter()
    codes = [malthus.cli.main(a) for a in argvs]
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, riders = [], {}
    if any(codes):
        failures.append(f"exit codes {codes}")
    else:
        failures, riders = workload.check(art, captured)
    events = _events(captured.get("run_replicates", []))
    output_bytes = sum(os.path.getsize(os.path.join(art, f)) for f in os.listdir(art))
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "exit_codes": codes, "failures": failures, "riders": riders,
              "events": events, "events_per_s": events / wall_s,
              "output_bytes": output_bytes, "hashes": _hashes(art)}
    if tracer:
        profile = captured.get("solve_eta_star")
        result["per_layer"] = _per_layer(
            tracer, events, profile.sweeps if profile else 0, output_bytes)
        tracer.dump(os.path.join(work, "spans.json"))
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])

"""One measured process of a benchmark run; ``run.py`` starts it.

Set-up (import, inputs, warm-up pass) runs first and is timed by the
launcher from process start to the first measured op.  Then the passes
``--first-pass`` .. ``--first-pass + --passes - 1`` of the run's op
stream run in a closed loop; with ``--trace 1`` every other pass is
traced.  The process (and a server it starts) is pinned to one CPU, on
which the host clock is read from start to end.  The result, with every
measured op's latency in reference-host and in wall-clock ms, goes to
``--out`` as JSON.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (  # noqa: E402
    CLOCK_REF_MS, HostClock, layer_summary, workload_class,
)

MAX_ERRORS_KEPT = 20


def provenance(wl) -> dict:
    import platform

    from repro import jit, npbits, obs

    counters = obs.metrics_snapshot()["counters"]
    return {
        **wl.provenance,
        "jit_toolchain": jit.toolchain(),
        "jit_fallbacks": counters.get("jit.fallback", 0),
        "numpy_bitwise_count": npbits.HAVE_BITWISE_COUNT,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first-pass", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()
    # One CPU: the clock must read the speed of the CPU the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    clock = HostClock()
    clock.tick(force=True)

    t0 = time.monotonic()
    import repro  # noqa: F401 - the package import is timed on its own
    from repro import obs
    import_s = time.monotonic() - t0
    clock.tick(force=True)

    t0 = time.monotonic()
    wl = workload_class(args.workload)(seed=args.seed, tmp=args.tmp, clock=clock)
    result: dict = {"workload": wl.name, "seed": args.seed}
    try:
        wl.setup()
        inputs_s = time.monotonic() - t0
        clock.tick(force=True)
        t0 = time.monotonic()
        warm = wl.run_pass(wl.warmup_ops(), traced=False, warmup=True)
        warmup_s = time.monotonic() - t0
        gc.collect()
        t_ready = time.monotonic()
        setup_clock = (clock.spent_s, statistics.median(clock.ms) / CLOCK_REF_MS)
        measured = []
        counters: dict[str, float] = {}
        wl.window_begin()
        for p in range(args.first_pass, args.first_pass + args.passes):
            traced = bool(args.trace) and p % 2 == 0
            ops = wl.pass_ops(p)
            if traced:
                before = obs.metrics_snapshot()["counters"]
                obs.enable_tracing()
            measured.append(wl.run_pass(ops, traced))
            if traced:
                obs.disable_tracing()
                after = obs.metrics_snapshot()["counters"]
                for k, v in after.items():
                    counters[k] = counters.get(k, 0) + v - before.get(k, 0)
        wl.window_end()
        if args.trace:
            obs.enable_tracing()
        wl.verify([warm, *measured], bool(args.trace))
        obs.disable_tracing()
        result.update(
            t_start=T_START, t_ready=t_ready, import_s=import_s,
            inputs_s=inputs_s, warmup_s=warmup_s,
            setup_clock_s=setup_clock[0], setup_speed=setup_clock[1],
            clock_ms=statistics.median(clock.ms), clock_readings=len(clock.ms),
        )
        result.update(summarize(wl, warm, measured, args, counters))
    finally:
        wl.teardown()
    Path(args.out).write_text(json.dumps(result))
    return 0


def summarize(wl, warm, measured, args, counters) -> dict:
    """Per-pass latencies (reference-host and raw), checks, provenance and
    (traced) layers."""
    from repro import obs

    all_ops = [o for p in (warm, *measured) for o in p.ops]
    errors = [f"{o.label}: {o.error}" for o in all_ops if o.error]
    out: dict = {
        "attempted": len(all_ops),
        "failed": len(errors),
        "errors": errors[:MAX_ERRORS_KEPT],
        "quality": wl.quality() if not errors else {},
        "provenance": provenance(wl),
        "peak_rss_mb": wl.peak_rss_mb(),
        "passes": [
            {"wall_s": wl.host_wall_s(p), "lat_ms": [wl.host_ms(o) for o in p.ops],
             "raw_wall_s": p.wall_s, "raw_lat_ms": [o.latency_s * 1e3 for o in p.ops],
             "labels": [o.label for o in p.ops], "kinds": [o.kind for o in p.ops]}
            for p in measured if not p.traced
        ],
    }
    traced = [p for p in measured if p.traced]
    if traced:
        spans = obs.trace_spans()
        if args.trace_file:
            obs.export_trace(args.trace_file)
        summary = layer_summary(spans, wl.layer_spans, wl.clock.speed)
        traced_rate = (sum(len(p.ops) for p in traced)
                       / sum(wl.host_wall_s(p) for p in traced))
        layers = {
            name: {"value": v, "unit": u}
            for name, (v, u) in wl.layer_metrics(
                summary, counters, len(traced), measured).items()
        }
        plain_rate = (sum(len(p["lat_ms"]) for p in out["passes"])
                      / sum(p["wall_s"] for p in out["passes"]))
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (1.0 - traced_rate / plain_rate), "unit": "%"}
        out.update(layers=layers, layer_coverage=summary["coverage"],
                   layer_detail=summary["layers"])
    return out


if __name__ == "__main__":
    raise SystemExit(main())

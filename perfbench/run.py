"""Run one benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload identify_cold --seed 1 --seconds 10 --trace 0

The launcher starts fresh worker processes (``worker.py``) with the
behaviour-changing ``REPRO_*`` environment scrubbed.  With ``--trace 0``
three workers run one after the other; each sets up and then measures
its third of the run's passes, so ``setup_s`` is a median of three
set-ups and the latency metrics pool three processes.  With ``--trace 1``
one traced worker runs every pass.  Times are in reference-host seconds:
each interval divided by the host speed that the worker's host clock
(``harness.HostClock``) read around it.  The launcher also times a
pure-Python loop before and after the run as a diagnostic, prints every
metric of ``BENCHMARK.json`` by name with its unit (and the wall-clock
figures beside them), and ends with one JSON line.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import host_calib_ms, window_metrics, workload_class

HERE = Path(__file__).resolve().parent
WORKLOADS = ("identify_cold", "select_partition_sweep", "service_mix")
#: Worker processes of an untraced run: each sets up, then measures a
#: third of the passes.
WORKERS = 3
#: Wall-clock budget of the whole run; workers are killed beyond it.
RUN_BUDGET_S = 170.0
#: Where run records and traces are kept, relative to the repository root.
OUT_DIR = Path(".perfbench")


def worker_env(root: Path) -> tuple[dict[str, str], list[str]]:
    """The workers' environment: no ``REPRO_*`` knobs, the source tree on
    the path, fixed string hashing and single-threaded BLAS."""
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env, scrubbed


def run_worker(argv: list[str], env: dict, root: Path, deadline: float) -> tuple[dict, float]:
    """Start one worker in its own process group; return its result and
    its spawn time.  The group (worker and any server it started) is
    killed when the worker ends or the run's deadline passes, so nothing
    outlives the worker."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env, cwd=root, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise RuntimeError("worker exceeded the run's time budget")
    out = argv[argv.index("--out") + 1]
    if code != 0 or not Path(out).is_file():
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(Path(out).read_text()), t_spawn


def pass_plan(workload: str, seconds: int, run_seconds: int,
              workers: int) -> list[tuple[int, int]]:
    """(first pass, pass count) per worker: the workload's passes at
    *run_seconds*, scaled to *seconds*, at least one per worker, split
    evenly."""
    cls = workload_class(workload)
    per = max(1, round(cls.passes * seconds / run_seconds / workers))
    if cls.max_passes is not None:
        per = min(per, cls.max_passes)
    return [(1 + w * per, per) for w in range(workers)]


def by_kind(passes: list[dict]) -> dict:
    """Latency count, median and max per op kind, in ms."""
    groups: dict[str, list[float]] = {}
    for p in passes:
        for kind, lat in zip(p["kinds"], p["lat_ms"]):
            groups.setdefault(kind, []).append(lat)
    return {k: {"n": len(v), "p50_ms": statistics.median(v), "max_ms": max(v)}
            for k, v in sorted(groups.items())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so the workers' groups are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the repository root "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    deadline = time.monotonic() + RUN_BUDGET_S
    env, scrubbed = worker_env(root)
    (root / OUT_DIR).mkdir(exist_ok=True)
    tmp_root = root / OUT_DIR / "tmp"
    tmp_root.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = OUT_DIR / f"{tag}.trace.jsonl"

    plan = pass_plan(args.workload, args.seconds, spec["run_seconds"], WORKERS)
    if args.trace:
        plan = [(1, max(2, sum(n for _, n in plan)))]
    calib_before = host_calib_ms()
    runs: list[tuple[dict, float]] = []
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        for first, count in plan:
            wtmp = os.path.relpath(tempfile.mkdtemp(dir=tmp), root)
            argv = ["--workload", args.workload, "--seed", str(args.seed),
                    "--first-pass", str(first), "--passes", str(count),
                    "--trace", str(args.trace),
                    "--tmp", wtmp, "--out", os.path.join(wtmp, "result.json")]
            if args.trace:
                argv += ["--trace-file", str(trace_file)]
            runs.append(run_worker(argv, env, root, deadline))
    except RuntimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    calib_after = host_calib_ms()

    results = [r for r, _ in runs]
    raw_setups = [r["t_ready"] - t_spawn for r, t_spawn in runs]
    # Set-up less the clock readings in it, at the host speed they read.
    setups = [(r["t_ready"] - t_spawn - r["setup_clock_s"]) / r["setup_speed"]
              for r, t_spawn in runs]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for e in r["errors"]:
            print(f"FAILED {e}", file=sys.stderr)
    quality = results[0]["quality"]
    if any(r["quality"] != quality for r in results):
        print("FAILED output quality differs between worker processes",
              file=sys.stderr)
        failed += 1
    correct = failed == 0 and bool(quality)
    passes = [p for r in results for p in r["passes"]]
    window = window_metrics(passes)
    raw_window = window_metrics(
        [{"lat_ms": p["raw_lat_ms"], "wall_s": p["raw_wall_s"]} for p in passes])

    values: dict[str, float] = {}
    if args.trace:
        names = spec["per_layer"]
        values.update({k: v["value"] for k, v in results[0].get("layers", {}).items()})
        values["setup.import_s"] = results[0]["import_s"] / results[0]["setup_speed"]
        values["setup.inputs_s"] = results[0]["inputs_s"] / results[0]["setup_speed"]
        values["host.calib_ms"] = (calib_before + calib_after) / 2
        values["host.clock_ms"] = results[0]["clock_ms"]
    else:
        names = spec["end_to_end"]
        values["setup_s"] = statistics.median(setups)
        for k in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            values[k] = window[k]
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
        values.update(quality)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in names}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "pass_plan": plan,
        "setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
        "window": window, "raw_window": raw_window, "by_kind": by_kind(passes),
        "host_calib_ms": [calib_before, calib_after],
        "host_clock_ms": [r["clock_ms"] for r in results],
        "scrubbed_env": scrubbed,
        "workers": [{k: v for k, v in r.items() if k != "errors"} for r in results],
    }
    (root / OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  ops {window['samples']}  host.calib_ms "
          f"{calib_before:.2f}/{calib_after:.2f}  host clock ms "
          + " ".join(f"{r['clock_ms']:.3f}" for r in results))
    if not args.trace:
        print(f"  op_tail_ms is p{window['tail_percentile']:g} of {window['samples']}"
              " samples; setup_s samples " + " ".join(f"{s:.3f}" for s in setups))
        print("  wall clock: " + "  ".join(
            f"{k} {raw_window[k]:.6g}" for k in ("ops_per_s", "op_p50_ms", "op_tail_ms"))
            + f"  setup_s {statistics.median(raw_setups):.6g}")
    else:
        print(f"  layer spans cover {100 * results[0]['layer_coverage']:.1f}% of "
              f"traced op time; trace in {trace_file}")
    prov = results[0]["provenance"]
    print("  ran: " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

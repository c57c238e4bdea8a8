"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the thesis evaluation:
the series/rows are printed and also written to ``benchmarks/results/`` so
they survive pytest's output capturing.  Expensive per-benchmark task
construction is cached across benches within a session.

The module also provides a JSON emitter (:func:`emit_json`) used by the
speed benches to persist ``BENCH_*.json`` — the perf trajectory later
changes are measured against.
"""

from __future__ import annotations

import functools
import json
import os
import platform
from pathlib import Path

from repro import obs
from repro.core import build_task
from repro.core.flow import build_tasks
from repro.rtsched import PeriodicTask, TaskSet, scale_periods_for_utilization
from repro.workloads import get_program

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, lines: list[str]) -> None:
    """Print a table/series and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


#: Version of the shared ``BENCH_*.json`` envelope (``schema_version``,
#: ``host``, ``metrics`` + bench-specific keys).  Bump when the envelope
#: itself changes shape.
BENCH_SCHEMA_VERSION = 2


def host_info() -> dict:
    """Machine fingerprint stored in every ``BENCH_*.json``.

    Timings are only comparable within one host; this records enough to
    tell apart trajectories from different machines/interpreters.
    """
    return {
        "platform": platform.platform(),
        "python_version": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def emit_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result under benchmarks/results/.

    Every ``BENCH_*.json`` shares one envelope: ``schema_version``, a
    ``host`` fingerprint and a snapshot of the obs metrics registry under
    ``metrics`` (each only filled in when the payload does not already
    carry it), plus the bench-specific keys.

    Rate-derivation note (``BENCH_identification.json``): per-row
    ``candidates_visited_per_sec`` and the ``*_enumeration`` speedup
    ratios are derived from the *pure* enumeration wall time
    (``stats["enumerate_seconds"]`` reported by
    :func:`repro.enumeration.library.build_candidate_library`), not from
    the enclosing ``enumerate`` stage timer — the stage also covers
    candidate costing, which is identical across engines and would
    otherwise dilute engine-to-engine comparisons.
    """
    payload.setdefault("schema_version", BENCH_SCHEMA_VERSION)
    payload.setdefault("host", host_info())
    payload.setdefault("metrics", obs.metrics_snapshot())
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n=== {name} ===\n{json.dumps(payload, indent=2, sort_keys=True)}")
    return path


@functools.lru_cache(maxsize=None)
def cached_task(name: str, salt: int = 0, objective: str = "avg") -> PeriodicTask:
    """Build (and cache) a periodic task with its configuration curve."""
    return build_task(get_program(name, salt), objective=objective)


def cached_task_set(
    names: tuple[str, ...], utilization: float, label: str = ""
) -> TaskSet:
    """A task set over cached tasks with periods scaled to *utilization*."""
    seen: dict[str, int] = {}
    tasks = []
    for name in names:
        salt = seen.get(name, 0)
        seen[name] = salt + 1
        tasks.append(cached_task(name, salt))
    return scale_periods_for_utilization(tasks, utilization, name=label)


def prebuild_tasks(
    pairs: tuple[tuple[str, int], ...], workers: int | None = None
) -> list[PeriodicTask]:
    """Build tasks for (benchmark, salt) pairs, optionally in parallel.

    With ``workers > 1`` the identification+curve work fans out over a
    process pool (see :func:`repro.core.flow.build_tasks`).
    """
    programs = [get_program(name, salt) for name, salt in pairs]
    return build_tasks(programs, workers=workers)


def once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

"""Scalability benches for the core solvers (engineering study).

Not thesis tables: these measure how this implementation's solvers scale
with problem size, so downstream users know what to expect.

* EDF selection DP vs. task count and configurations per task;
* RMS branch and bound vs. task count (exponential worst case, pruned);
* candidate enumeration vs. basic-block size;
* multilevel k-way partitioner vs. graph size.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.common import emit, once
from repro.core import select_edf, select_rms
from repro.enumeration import enumerate_connected
from repro.reconfig import kway_partition
from repro.rtsched import PeriodicTask, TaskSet
from repro.selection.config_curve import TaskConfiguration
from repro.workloads.synthesis import OP_MIXES, synth_dfg


def _taskset(n_tasks: int, n_cfg: int, seed: int = 0) -> TaskSet:
    rng = random.Random(seed)
    tasks = []
    for i in range(n_tasks):
        wcet = float(rng.randint(50, 200))
        configs = [TaskConfiguration(0.0, wcet)]
        area, cycles = 0.0, wcet
        for _ in range(n_cfg - 1):
            area += rng.randint(2, 20)
            cycles = max(1.0, cycles * rng.uniform(0.8, 0.95))
            configs.append(TaskConfiguration(area, cycles))
        tasks.append(
            PeriodicTask(
                name=f"t{i}",
                period=wcet * rng.uniform(1.5, 3.0),
                wcet=wcet,
                configurations=tuple(configs),
            )
        )
    return TaskSet(tasks)


def test_scalability_edf_dp(benchmark):
    def run():
        lines = ["n_tasks  n_cfg  time_ms"]
        for n_tasks in (4, 8, 16, 32, 64):
            for n_cfg in (8, 24):
                ts = _taskset(n_tasks, n_cfg, seed=n_tasks)
                budget = 0.5 * ts.max_area
                t0 = time.perf_counter()
                select_edf(ts, budget)
                dt = (time.perf_counter() - t0) * 1000
                lines.append(f"{n_tasks:7d}  {n_cfg:5d}  {dt:7.1f}")
        return lines

    lines = once(benchmark, run)
    emit("scalability_edf_dp", lines)
    # Pseudo-polynomial: even 64 tasks x 24 configs stays fast.
    assert all(float(l.split()[2]) < 2000 for l in lines[1:])


def test_scalability_rms_bb(benchmark):
    def run():
        lines = ["n_tasks  time_ms  schedulable"]
        for n_tasks in (3, 5, 7, 9, 11):
            ts = _taskset(n_tasks, 8, seed=n_tasks + 100)
            budget = 0.4 * ts.max_area
            t0 = time.perf_counter()
            sel = select_rms(ts, budget)
            dt = (time.perf_counter() - t0) * 1000
            lines.append(f"{n_tasks:7d}  {dt:7.1f}  {sel.schedulable}")
        return lines

    lines = once(benchmark, run)
    emit("scalability_rms_bb", lines)


def test_scalability_enumeration(benchmark):
    def run():
        # Candidate counts differ between the engines on the larger blocks:
        # the default visit budgets bind there, and a binding per-root
        # budget is spent depth-first (bitset) vs breadth-first (array) —
        # both deterministic, with the BFS order reaching more feasible
        # subgraphs inside the same budget.  Per-candidate microseconds is
        # the comparable figure; the array engine wins in the hot-block
        # size range real programs produce (tens to a few hundred ops)
        # through ~1500 ops and delegates larger blocks
        # (>= ARRAY_MAX_NODES, where its level frontier outgrows the
        # cache) back to the bitset kernel.  Bit-identity under
        # non-binding budgets is tests/test_enumeration_differential.py.
        lines = [
            "block_ops  bitset_cands  array_cands  bitset_ms  array_ms"
            "  bitset_us_per_cand  array_us_per_cand",
        ]
        for n_ops in (50, 100, 250, 500, 1000, 2000):
            rng = random.Random(n_ops)
            dfg = synth_dfg(rng, n_ops, OP_MIXES["crypto"])
            res = {}
            ms = {}
            # bitset first: it pays for building the shared per-DFG masks.
            for eng in ("bitset", "array"):
                t0 = time.perf_counter()
                res[eng] = enumerate_connected(dfg, 4, 2, engine=eng)
                ms[eng] = (time.perf_counter() - t0) * 1000
            lines.append(
                f"{n_ops:9d}  {len(res['bitset']):12d}  "
                f"{len(res['array']):11d}  "
                f"{ms['bitset']:9.1f}  {ms['array']:8.1f}  "
                f"{1000 * ms['bitset'] / len(res['bitset']):18.1f}  "
                f"{1000 * ms['array'] / len(res['array']):17.1f}"
            )
        return lines

    lines = once(benchmark, run)
    emit("scalability_enumeration", lines)
    rows = lines[1:]
    # Budgeted enumeration: bounded wall time even at 2000 ops.
    for col in (3, 4):
        assert all(float(l.split()[col]) < 15_000 for l in rows)
    for line in rows:
        cols = line.split()
        bitset_ms, array_ms = float(cols[3]), float(cols[4])
        # Regression guard on the hybrid dispatch: with the
        # ARRAY_MIN_NODES/ARRAY_MAX_NODES cutoffs in place the array
        # engine should never lose to bitset by more than ~10% at any
        # block size (below/above the cutoffs it *is* the bitset kernel
        # plus dispatch overhead).  The absolute slack absorbs timer
        # noise on the short small-block runs and CI jitter.
        assert array_ms <= 1.10 * bitset_ms + 75.0, (
            f"array engine regressed at {cols[0]} ops: "
            f"{array_ms:.1f}ms vs bitset {bitset_ms:.1f}ms"
        )


def test_scalability_kway(benchmark):
    def run():
        lines = ["n_vertices  k  cut_time_ms"]
        for n in (50, 200, 800, 2000):
            rng = random.Random(n)
            edges = {}
            for _ in range(n * 4):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    key = (min(u, v), max(u, v))
                    edges[key] = edges.get(key, 0.0) + rng.randint(1, 9)
            for k in (4, 16):
                t0 = time.perf_counter()
                kway_partition(n, edges, k=k, seed=n)
                dt = (time.perf_counter() - t0) * 1000
                lines.append(f"{n:10d}  {k:2d}  {dt:11.1f}")
        return lines

    lines = once(benchmark, run)
    emit("scalability_kway", lines)
    assert all(float(l.split()[2]) < 10_000 for l in lines[1:])

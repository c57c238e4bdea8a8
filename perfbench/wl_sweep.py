"""select_partition_sweep: the selection and partitioning sweeps, mixed.

One pass is 65 ops, shuffled together by the seed:

* 30 Figure 3.3 cells: ``select_edf`` and ``select_rms``
  (``use_cache=False``) at the eleven area fractions of one (Table 3.1
  task set, U0) pair, on tasks prebuilt in set-up;
* 25 Algorithm-4 runs of Figure 5.3 (``iterative_customization`` over
  the Table 5.2 sets x U_in 1.1..1.5);
* five Chapter 6 ``iterative_partition`` runs on the JPEG case study and
  five Chapter 7 ``dp_solution`` runs on 12 synthetic tasks, their seeds
  drawn from the workload seed.

Artifact caches are off in the window, and no op enumerates, so this is
the bypass contrast for ``identify_cold``.
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext
from pathlib import Path

from harness import Workload, default_engine, digest, mean_ms, seeded_order

FIG_3_3 = Path("benchmarks/results/figure_3_3_utilization_vs_area.txt")
FIG_5_3 = Path("benchmarks/results/figure_5_3_utilization_vs_iterations.txt")
UTILIZATIONS = (0.80, 1.00, 1.05, 1.08, 1.10)
AREA_FRACTIONS = tuple(i / 10 for i in range(11))
INPUT_UTILIZATIONS = (1.1, 1.2, 1.3, 1.4, 1.5)
SEEDED_RUNS = 5

EDF = "core.edf_select"
RMS = "core.rms_select"
MLGP = "mlgp.iterative_customization"
RECONFIG = "reconfig.iterative_partition"
DP = "mtreconfig.dp_solution"
SPAN = {"alg4": MLGP, "ch6": RECONFIG, "ch7": DP}


def fig33_row(k: int, u0: float, policy: str, utils: list[float]) -> str:
    """One Figure 3.3 row."""
    cells = "  ".join(f"{u:4.2f}" if math.isfinite(u) else " -- " for u in utils)
    return f"ts{k}  {u0:4.2f}  {policy:6s}  {cells}"


def fig53_row(ts_id: int, u_in: float, result) -> str:
    """One Figure 5.3 row."""
    traj = " ".join(f"{r.utilization:5.3f}" for r in result.records)
    return f"ts{ts_id}  {u_in:4.2f}  {traj}"


class SelectPartitionSweep(Workload):
    name = "select_partition_sweep"
    #: A pass takes 4.2-8.1 s on a 2-vCPU x86-64 VM, so a run measures one
    #: per worker.  Its 195 ops put the p90 tail (20th slowest) among the
    #: Table 5.2 set-1 Algorithm-4 runs and the slowest selection cells,
    #: which lie within 15% of each other.
    passes = 3

    def setup(self) -> None:
        from repro import cache
        from repro.core import build_task, select_edf, select_rms
        from repro.mlgp import iterative_customization
        from repro.mtreconfig import synthetic_reconfig_tasks
        from repro.reconfig import iterative_partition
        from repro.rtsched import scale_periods_for_utilization
        from repro.workloads import (
            CH3_TASK_SETS, CH5_TASK_SETS, JPEG_MAX_AREA, JPEG_RHO, get_program,
            jpeg_loops, jpeg_trace, programs_for,
        )

        self.layer_spans = (EDF, RMS, MLGP, RECONFIG, DP)
        self.inputs: dict[tuple, tuple] = {}
        # Selection tasks are prebuilt with the artifact cache on, the way
        # benchmarks/common.cached_task_set builds them; then it goes off.
        tasks: dict[tuple[str, int], object] = {}
        for k, names in sorted(CH3_TASK_SETS.items()):
            seen: dict[str, int] = {}
            members = []
            for name in names:
                salt = seen.get(name, 0)
                seen[name] = salt + 1
                if (name, salt) not in tasks:
                    tasks[(name, salt)] = build_task(get_program(name, salt))
                members.append(tasks[(name, salt)])
            for u0 in UTILIZATIONS:
                self.inputs[("select", k, u0)] = (
                    scale_periods_for_utilization(members, u0, name=f"ts{k}"),)
        cache.set_enabled(False)

        for ts_id in sorted(CH5_TASK_SETS):
            programs = programs_for(CH5_TASK_SETS[ts_id])
            wcets = [p.wcet() for p in programs]
            for u_in in INPUT_UTILIZATIONS:
                periods = [w * len(programs) / u_in for w in wcets]
                self.inputs[("alg4", ts_id, u_in)] = (programs, periods)
        rng = random.Random(f"partition:{self.seed}")
        loops, trace = jpeg_loops(), jpeg_trace()
        for s in rng.sample(range(1_000_000), SEEDED_RUNS):
            self.inputs[("ch6", s)] = (loops, trace, JPEG_MAX_AREA, JPEG_RHO, s)
        for s in rng.sample(range(1_000_000), SEEDED_RUNS):
            reconfig_tasks = synthetic_reconfig_tasks(12, seed=s)
            fabric = 2.0 * max(v.area for t in reconfig_tasks for v in t.versions)
            rho = 0.01 * min(t.period for t in reconfig_tasks)
            self.inputs[("ch7", s)] = (reconfig_tasks, fabric, rho)

        self.fig33 = {tuple(line.split()[:3]): line
                      for line in FIG_3_3.read_text().splitlines()[1:]}
        self.fig53 = {tuple(line.split()[:2]): line
                      for line in FIG_5_3.read_text().splitlines()[1:]}
        self.digests: dict[tuple, str] = {}
        self.selected: dict[tuple, tuple] = {}
        self.alg4: dict[tuple, object] = {}
        self.rms_nodes = 0
        self.provenance["engines"] = {
            "select_edf": default_engine(select_edf),
            "select_rms": default_engine(select_rms),
            "iterative_customization": default_engine(iterative_customization),
            "iterative_partition": default_engine(iterative_partition),
        }

    def pass_ops(self, index: int) -> list[tuple]:
        return seeded_order(sorted(self.inputs, key=repr), self.seed,
                            f"sweep:{index}")

    def warmup_ops(self) -> list[tuple]:
        """Every partitioning op, which fills ``mlgp_fast``'s per-DFG memo,
        and one selection cell per task set: every selection op is checked
        against Figure 3.3, so the warm-up only needs to touch each set."""
        ops, sets = [], set()
        for op in self.pass_ops(0):
            if op[0] != "select":
                ops.append(op)
            elif op[1] not in sets:
                sets.add(op[1])
                ops.append(op)
        return ops

    def label(self, op) -> str:
        if op[0] == "select":
            return f"ts{op[1]}@{op[2]:.2f}"
        return ":".join(str(x) for x in op)

    def kind(self, op) -> str:
        return op[0]

    def call(self, op, traced: bool):
        from repro import obs
        from repro.core import select_edf, select_rms
        from repro.mlgp import iterative_customization
        from repro.mtreconfig import dp_solution
        from repro.reconfig import iterative_partition

        args = self.inputs[op]
        if op[0] == "select":
            ts = args[0]
            budgets = [ts.max_area * f for f in AREA_FRACTIONS]
            if not traced:
                return ([select_edf(ts, b, use_cache=False) for b in budgets],
                        [select_rms(ts, b, use_cache=False) for b in budgets])
            edf, rms = [], []
            for b in budgets:
                with obs.span(EDF):
                    edf.append(select_edf(ts, b, use_cache=False))
            for b in budgets:
                with obs.span(RMS):
                    rms.append(select_rms(ts, b, use_cache=False))
            self.rms_nodes += sum(r.nodes_visited for r in rms)
            return edf, rms
        with obs.span(SPAN[op[0]]) if traced else nullcontext():
            if op[0] == "alg4":
                programs, periods = args
                return iterative_customization(
                    programs, periods, u_target=1.0, use_cache=False)
            if op[0] == "ch6":
                loops, trace, area, rho, s = args
                return iterative_partition(
                    loops, trace, area, rho, seed=s, use_cache=False)
            return dp_solution(*args)

    def check(self, op, result, warmup: bool) -> str | None:
        if op[0] == "select":
            return self._check_select(op, result)
        if op[0] == "alg4":
            out = fig53_row(op[1], op[2], result)
            want = self.fig53.get((f"ts{op[1]}", f"{op[2]:4.2f}"))
            if out != want:
                return f"{out!r} != figure_5_3 row {want!r}"
            self.alg4[op] = result
        elif op[0] == "ch6":
            out = [result.gain, result.n_configurations,
                   list(result.partition.selection)]
        else:
            sol = result.solution
            out = [sol.utilization, list(sol.selection), list(sol.group_of)]
        d = digest(out)
        if warmup:
            self.digests[op] = d
        elif d != self.digests[op]:
            return f"{self.label(op)}: output digest {d} != warm-up"
        return None

    def _check_select(self, op, result) -> str | None:
        _, k, u0 = op
        edf, rms = result
        got = (
            fig33_row(k, u0, "edf", [s.utilization for s in edf]),
            fig33_row(k, u0, "rms", [s.utilization if s.assignment else math.inf
                                     for s in rms]),
        )
        for line, policy in zip(got, ("edf", "rms")):
            want = self.fig33.get((f"ts{k}", f"{u0:4.2f}", policy))
            if line != want:
                return f"{line!r} != figure_3_3 row {want!r}"
        self.selected[op] = (self.inputs[op][0], edf, rms)
        return None

    def quality(self) -> dict[str, float]:
        """Utilization cut of the Algorithm-4 runs; cycle cut of the
        configurations selected in the Figure 3.3 cells."""
        # Sorted, so every process sums in the same order.
        util = [100.0 * (1.0 - self.alg4[op].utilization / op[2])
                for op in sorted(self.alg4)]
        cyc = []
        for op in sorted(self.selected):
            ts, edf, rms = self.selected[op]
            wcet = sum(t.wcet for t in ts)
            for sel in (*edf, *rms):
                if sel.assignment is None:
                    continue
                cycles = sum(
                    t.configurations[j].cycles for t, j in zip(ts, sel.assignment)
                )
                cyc.append(100.0 * (1.0 - cycles / wcet))
        return {
            "util_reduction_pct": sum(util) / len(util),
            "cycle_reduction_pct": sum(cyc) / len(cyc),
        }

    def layer_metrics(self, summary: dict, counters: dict, passes: int,
                      measured) -> dict:
        rows = summary["layers"]
        out = {
            "core.select_edf_ms": (mean_ms(rows[EDF]), "ms"),
            "core.select_rms_ms": (mean_ms(rows[RMS]), "ms"),
            "core.rms_nodes_visited": (self.rms_nodes / passes, "count"),
            "mlgp.customization_ms": (mean_ms(rows[MLGP]), "ms"),
            "reconfig.partition_ms": (mean_ms(rows[RECONFIG]), "ms"),
            "mtreconfig.dp_ms": (mean_ms(rows[DP]), "ms"),
        }
        for name in ("mlgp.moves", "mlgp.repairs", "mlgp.iterations",
                     "kway.kl_passes", "kway.moves"):
            out[name] = (counters.get(name, 0) / passes, "count")
        return out

"""identify_cold: a fresh ``repro curve <name>`` for every program.

One op is ``repro.core.build_task(program)`` with default arguments,
over all synthetic benchmarks plus the ingested ``examples/fir_kernel.py``.
Outside the timed window each op gets a freshly built ``Program`` (so the
per-DFG precompute, ``DataFlowGraph.bitset_masks``, is timed as a fresh
process pays it) and ``repro.cache.clear()`` empties the artifact cache.
Enumeration does nearly all the work.
"""

from __future__ import annotations

from pathlib import Path

from harness import Workload, default_engine, digest, mean_ms, seeded_order

#: Program-relative reference: Figure 3.1 (g721 decode curve).
FIG_3_1 = Path("benchmarks/results/figure_3_1_g721_curve.txt")
FIR_KERNEL = "examples/fir_kernel.py"

LIBRARY = "enumeration.build_candidate_library"
CURVE = "selection.build_configuration_curve"
ENUM_COUNTERS = ("visited", "feasible", "pruned_visit_budget")


def curve_rows(task) -> list[str]:
    """A task's curve as Figure 3.1 prints it."""
    return [f"{c.area:10.1f} {c.cycles:14.0f}" for c in task.configurations]


def fresh_program(name: str):
    """A newly built Program, sharing no memo with any earlier one."""
    from repro import frontend
    from repro.workloads import get_spec, synth_program

    if name == FIR_KERNEL:
        return frontend.ingest_path(FIR_KERNEL)
    return synth_program(get_spec(name))


class IdentifyCold(Workload):
    name = "identify_cold"
    #: A pass takes 2.0-3.0 s on a 2-vCPU x86-64 VM.  Nine passes are 297
    #: ops, enough for a p95 tail: the 15th slowest op, in the middle of
    #: the nine sha runs (the nine 3des runs are slower, md5 faster).  Under
    #: 200 ops the tail would be p90, where md5 and blowfish runs overlap.
    passes = 9

    def setup(self) -> None:
        from repro.core import build_task
        from repro.enumeration import build_candidate_library
        from repro.workloads import benchmark_names

        self.layer_spans = (LIBRARY, CURVE)
        self.names = [*benchmark_names(), FIR_KERNEL]
        self.program = None
        self.reference: dict[str, str] = {}
        self.tasks: dict[str, object] = {}
        self.fig31 = FIG_3_1.read_text().splitlines()[1:]
        self.enum_stats: dict[str, int] = {}
        self.provenance["engines"] = {
            "build_task": default_engine(build_task),
            "build_candidate_library": default_engine(build_candidate_library),
        }

    def pass_ops(self, index: int) -> list[str]:
        return seeded_order(self.names, self.seed, f"identify:{index}")

    def before_op(self, op: str) -> None:
        from repro import cache

        self.program = fresh_program(op)
        cache.clear()

    def call(self, name: str, traced: bool):
        from repro.core import build_task

        program = self.program
        if not traced:
            return build_task(program)
        # build_task's two layers, called one by one with its defaults.
        from repro import obs
        from repro.enumeration import build_candidate_library
        from repro.rtsched import PeriodicTask
        from repro.selection import build_configuration_curve, downsample_curve

        with obs.span(LIBRARY, program=name):
            library = build_candidate_library(program, stats=self.enum_stats)
        with obs.span(CURVE, program=name):
            curve = downsample_curve(
                build_configuration_curve(program, library.candidates, steps=12),
                24,
            )
        wcet = curve[0].cycles
        return PeriodicTask(
            name=program.name, period=2.0 * wcet, wcet=wcet,
            configurations=tuple(curve),
        )

    def check(self, name: str, task, warmup: bool) -> str | None:
        d = digest([task.wcet, task.period,
                    [[c.area, c.cycles] for c in task.configurations]])
        if warmup:
            self.reference[name] = d
            self.tasks[name] = task
            if name == "g721decode" and curve_rows(task) != self.fig31:
                return "g721decode curve differs from figure_3_1_g721_curve.txt"
            return None
        if d != self.reference[name]:
            return f"{name}: curve digest {d} != warm-up {self.reference[name]}"
        return None

    def quality(self) -> dict[str, float]:
        cyc, util = [], []
        for task in self.tasks.values():
            cfgs = task.configurations
            sw = cfgs[0].cycles
            cyc.append(100.0 * (1.0 - cfgs[-1].cycles / sw))
            half = 0.5 * cfgs[-1].area
            at_half = min(c.cycles for c in cfgs if c.area <= half)
            util.append(100.0 * (1.0 - at_half / sw))
        return {
            "cycle_reduction_pct": sum(cyc) / len(cyc),
            "util_reduction_pct": sum(util) / len(util),
        }

    def layer_metrics(self, summary: dict, counters: dict, passes: int,
                      measured) -> dict:
        rows = summary["layers"]
        out = {
            "enumeration.library_ms": (mean_ms(rows[LIBRARY]), "ms"),
            "selection.curve_ms": (mean_ms(rows[CURVE]), "ms"),
        }
        for k in ENUM_COUNTERS:
            out[f"enumeration.{k}"] = (self.enum_stats.get(k, 0) / passes, "count")
        feasible = self.enum_stats.get("feasible", 0)
        visited = self.enum_stats.get("visited", 0)
        out["enumeration.feasible_ratio"] = (
            feasible / visited if visited else 0.0, "ratio")
        out["enumeration.candidates_kept"] = (
            counters.get("enumeration.candidates_kept", 0) / passes, "count")
        return out

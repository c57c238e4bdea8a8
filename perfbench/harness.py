"""Shared machinery of the benchmark workloads.

Stdlib only, so the launcher (``run.py``) can import it without the
program on ``sys.path``.  A workload is a subclass of :class:`Workload`:
it builds its inputs from the seed, lists the ops of one pass in seeded
order, runs one op (plain, or decomposed into layer calls wrapped in
``obs.span`` for the traced run) and checks every output.

Times are reported in reference-host seconds (see :class:`HostClock`): a
shared host can change speed from one minute to the next (up to 1.8x on
a 2-vCPU x86-64 VM), so every measured interval is divided by the host's
speed at the moment it was measured.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

#: Percentiles the tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Name of the span the benchmark opens around every op of a traced pass.
OP_SPAN = "bench.op"

#: Trace ids: one per op of a run.
_trace_ids = itertools.count(1)


def op_span(workload: str, label: str):
    """The span around one traced op, with its own trace id."""
    from repro import obs

    return obs.span(OP_SPAN, workload=workload, op=label,
                    trace_id=next(_trace_ids))


def rank_index(n: int, p: float) -> int:
    """0-based nearest-rank index of percentile *p* in *n* sorted samples."""
    return max(0, math.ceil(p / 100.0 * n) - 1)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile that has at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n - 1 - rank_index(n, p) >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[rank_index(len(ordered), p)]


def window_metrics(passes: list[dict]) -> dict[str, float]:
    """Throughput and latency over all ops of a run's measured passes.

    The tail is the highest :data:`TAIL_LADDER` percentile with at least
    ten samples beyond it.
    """
    lat = [x for p in passes for x in p["lat_ms"]]
    tail = tail_percentile(len(lat))
    return {
        "ops_per_s": len(lat) / sum(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": percentile(lat, tail),
        "tail_percentile": tail,
        "samples": len(lat),
    }


def workload_class(name: str):
    """The :class:`Workload` subclass of a workload name."""
    if name == "identify_cold":
        from wl_identify import IdentifyCold
        return IdentifyCold
    if name == "select_partition_sweep":
        from wl_sweep import SelectPartitionSweep
        return SelectPartitionSweep
    if name == "service_mix":
        from wl_service import ServiceMix
        return ServiceMix
    raise ValueError(f"unknown workload {name!r}")


def digest(obj: Any) -> str:
    """Content digest of a JSON-able output (floats at full precision)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: The host clock's loop: iterations, its time on the reference host (ms)
#: and how often it is read between ops (s).
CLOCK_ITERS = 30_000
CLOCK_REF_MS = 2.0
CLOCK_EVERY_S = 0.1


def clock_loop_ms() -> float:
    """One reading of the host clock: a fixed pure-Python loop, in ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CLOCK_ITERS):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


class HostClock:
    """The host's speed over time, read between ops on the same CPU.

    The loop is read at most every :data:`CLOCK_EVERY_S` seconds and never
    inside a timed op.  The host speed over an interval is the mean of the
    last reading before it and the first after it, over
    :data:`CLOCK_REF_MS`; an interval of *dur* seconds is ``dur / speed``
    reference-host seconds.  A slowdown of the host cancels, one of the
    program does not.  (A median over the readings within a second of the
    interval followed the host less closely: the same op then varied more
    from one pass to the next.)  Time spent in the loop itself is kept in
    :attr:`spent_s`, so that it can be left out of the intervals that
    contain it.
    """

    def __init__(self) -> None:
        self.t: list[float] = []
        self.ms: list[float] = []
        self.spent_s = 0.0

    def tick(self, force: bool = False) -> None:
        now = time.monotonic()
        if force or not self.t or now - self.t[-1] >= CLOCK_EVERY_S:
            ms = clock_loop_ms()
            self.t.append(now)
            self.ms.append(ms)
            self.spent_s += ms / 1e3

    def speed(self, t0: float, t1: float) -> float:
        """Host time per reference-host time over monotonic [t0, t1]."""
        i = max(bisect.bisect_right(self.t, t0) - 1, 0)
        j = min(bisect.bisect_left(self.t, t1), len(self.t) - 1)
        return (self.ms[i] + self.ms[j]) / (2 * CLOCK_REF_MS)


def host_calib_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a host-speed diagnostic."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def default_engine(fn) -> str:
    """The default ``engine=`` of a public function: what a caller that
    passes none runs."""
    import inspect

    return inspect.signature(fn).parameters["engine"].default


def seeded_order(items: list, seed: int, salt: str) -> list:
    """A copy of *items* shuffled by (seed, salt)."""
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


@dataclass
class OpResult:
    """One op as the benchmark saw it."""

    label: str
    latency_s: float
    error: str | None = None
    kind: str = ""
    output: Any = None
    #: Monotonic start of the op, and its slot: preparation, op and check.
    t0: float = 0.0
    slot_s: float = 0.0


@dataclass
class PassResult:
    ops: list[OpResult]
    #: Sum of the ops' slots: the pass's wall time less the clock readings.
    wall_s: float
    traced: bool
    ops_in: list = field(default_factory=list)


@dataclass
class Workload:
    """Base class; see the module docstring."""

    seed: int
    tmp: str
    clock: HostClock = field(default_factory=HostClock)
    layer_spans: tuple[str, ...] = ()
    #: What ran: the effective engine per layer, and so on.
    provenance: dict[str, Any] = field(default_factory=dict)

    name = ""
    #: Measured passes of a run at the benchmark's ``run_seconds``; other
    #: ``--seconds`` values scale it.  Never decided by a clock reading.
    passes = 3
    #: Upper bound on measured passes per process (``None``: no bound).
    max_passes: int | None = None
    #: Keep each op's output on its OpResult (for checks after the window).
    keep_outputs = False

    # -- to implement --------------------------------------------------
    def setup(self) -> None:
        """Build inputs, prebuild state, boot servers."""

    def pass_ops(self, index: int) -> list:
        """The ops of measured pass *index* (from 1) in seeded order."""
        raise NotImplementedError

    def warmup_ops(self) -> list:
        """The ops of the warm-up pass that ends set-up."""
        return self.pass_ops(0)

    def label(self, op: Any) -> str:
        return str(op)

    def kind(self, op: Any) -> str:
        return ""

    def before_op(self, op: Any) -> None:
        """Untimed preparation of one op (e.g. clearing caches)."""

    def call(self, op: Any, traced: bool) -> Any:
        """Run one op; with *traced*, wrap each layer call in a span."""
        raise NotImplementedError

    def check(self, op: Any, output: Any, warmup: bool) -> str | None:
        """None when *output* is right, else what is wrong."""
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        """The deterministic output-quality metrics (``*_pct``)."""
        raise NotImplementedError

    def layer_metrics(self, summary: dict, counters: dict, passes: int,
                      measured: list[PassResult]) -> dict:
        """Per-layer metrics of a traced run: name -> (value, unit).

        *summary* is :func:`layer_summary` of the trace, *counters* the obs
        counter deltas over the *passes* traced passes.
        """
        return {}

    def window_begin(self) -> None:
        """Called right before the first measured pass."""

    def window_end(self) -> None:
        """Called right after the last measured pass."""

    def verify(self, passes: list[PassResult], traced: bool) -> None:
        """Checks that need the whole run; mark failed ops in place."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def teardown(self) -> None:
        pass

    # -- shared --------------------------------------------------------
    def run_pass(self, ops: list, traced: bool, warmup: bool = False) -> PassResult:
        """Run *ops* back to back in a closed loop; time each op.  The host
        clock is read between ops, and once more after the last."""
        out: list[OpResult] = []
        for op in ops:
            self.clock.tick()
            t_slot = time.perf_counter()
            self.before_op(op)
            label = self.label(op)
            t_mono = time.monotonic()
            t0 = time.perf_counter()
            try:
                if traced:
                    with op_span(self.name, label):
                        output = self.call(op, True)
                else:
                    output = self.call(op, False)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                output, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if error is None:
                error = self.check(op, output, warmup)
            out.append(OpResult(label, latency, error, self.kind(op),
                                output if self.keep_outputs else None,
                                t_mono, time.perf_counter() - t_slot))
        self.clock.tick(force=True)
        return PassResult(out, sum(o.slot_s for o in out), traced, ops)

    def host_ms(self, op: OpResult) -> float:
        """An op's latency in reference-host ms."""
        return 1e3 * op.latency_s / self.clock.speed(op.t0, op.t0 + op.latency_s)

    def host_wall_s(self, p: PassResult) -> float:
        """A pass's wall time in reference-host seconds."""
        return sum(o.slot_s / self.clock.speed(o.t0, o.t0 + o.latency_s)
                   for o in p.ops)


# ----------------------------------------------------------------------
# Trace reduction
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append(
                (s["t0"], s["t0"] + s["dur"])
            )
    return {
        s["id"]: s["dur"] - _covered(children.get(s["id"], []))
        for s in spans
    }


def layer_summary(spans: list[dict], layers: tuple[str, ...],
                  speed=lambda t0, t1: 1.0) -> dict:
    """Per-layer call count, total and self seconds, plus op coverage.

    Coverage is the share of traced op wall time that the benchmark's
    layer spans (direct children of an op span) account for.  Total and
    self seconds of a span are divided by ``speed(start, end)``, the host
    speed of :meth:`HostClock.speed`.
    """
    selfs = self_times(spans)
    ops = {s["id"]: s for s in spans if s["name"] == OP_SPAN}
    out: dict[str, dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in layers
    }
    covered: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        row = out.get(s["name"])
        if row is None:
            continue
        row["calls"] += 1
        host = speed(s["t0"], s["t0"] + s["dur"])
        row["total_s"] += s["dur"] / host
        row["self_s"] += selfs[s["id"]] / host
        if s.get("parent") in ops:
            covered.setdefault(s["parent"], []).append(
                (s["t0"], s["t0"] + s["dur"])
            )
    op_total = sum(s["dur"] for s in ops.values())
    layer_total = sum(_covered(v) for v in covered.values())
    return {
        "layers": out,
        "op_s": op_total,
        "coverage": layer_total / op_total if op_total else 0.0,
    }


def mean_ms(row: dict[str, float]) -> float:
    """Mean duration of one call of a layer, in ms (0 when never called)."""
    return 1e3 * row["total_s"] / row["calls"] if row["calls"] else 0.0

"""service_mix: a real ``repro serve`` process under a closed-loop mix.

The server runs as its own process (``python -m repro serve --inline
--workers 2 --journal ... --socket ...``) with a private disk cache, and
is readiness-gated on the ``health`` op.  One ``ServiceClient``
connection sends each request after the previous reply (a closed loop).
A second concurrent client made a hit wait on the server's GIL while the
other client's miss computed, so hit latency tracked host load rather
than the read path (ops_per_s 79-181/s over five seeds, against
125-144/s with one client).  The server inherits the worker's CPU, so
client and server share one CPU, on which the host clock is read between
requests; in the closed loop only one of them runs at a time.  (Left to
the scheduler, the two sometimes shared a CPU and sometimes not, and the
sub-ms hit latency moved with that placement.)  Exactly one request in
every five is a key the server has never seen (it is queued, computed
without enumeration, stored in memory and on disk, and journaled); the
other four come from a prewarmed hot set covering all six job kinds
(at-rest hits).  Every response is checked against a direct
``compute_job`` of its spec.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext

from harness import PassResult, Workload, peak_rss_mb

#: Requests per pass; exactly PASS_LEN / 5 of them are fresh keys.  A
#: multiple of 15, so the 12 hot specs and 3 fresh kinds fill it evenly.
PASS_LEN = 90
GROUP = 5
#: Fresh keys per process must stay below the server's 1024-entry result LRU.
MAX_PASSES = 40
#: Per-request socket timeout: a stalled server fails the op, never hangs it.
CLIENT_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
STOP_WAIT_S = 10.0

FRESH_KINDS = ("mtreconfig", "reconfig", "pareto")


def hot_set() -> list[tuple[str, dict]]:
    """(kind, params) of the prewarmed hot set: two specs per job kind."""
    from repro.workloads import CH4_TASK_SETS

    return [
        ("identify", {"benchmark": "crc32"}),
        ("identify", {"benchmark": "g721decode"}),
        ("curve", {"benchmark": "crc32"}),
        ("curve", {"benchmark": "g721decode"}),
        ("pareto", {"benchmarks": ["crc32", "bitcount"]}),
        ("pareto", {"benchmarks": list(CH4_TASK_SETS[1])}),
        ("mlgp", {"benchmarks": ["crc32"], "utilization": 1.05}),
        ("mlgp", {"benchmarks": ["lms"], "utilization": 1.05}),
        ("reconfig", {}),
        ("reconfig", {"seed": 1}),
        ("mtreconfig", {"tasks": 6}),
        ("mtreconfig", {}),
    ]


SERVER_COUNTERS = ("computed", "result_hits", "coalesced", "rejected", "failed")


def _comparable(result: dict) -> dict:
    """A job result minus its wall-clock fields, JSON-normalized."""
    out = json.loads(json.dumps(result))
    out.pop("elapsed", None)
    return out


class ServiceMix(Workload):
    name = "service_mix"
    keep_outputs = True
    #: A pass takes 0.45-0.95 s on a 2-vCPU x86-64 VM.  Fifteen passes are
    #: 1350 requests, whose p99 tail (14th slowest) falls among the 90 fresh
    #: Ch6 reconfig keys, the slowest kind of request.
    passes = 15
    max_passes = MAX_PASSES

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.workloads import CH4_TASK_SETS

        self.ch4_set_1 = list(CH4_TASK_SETS[1])
        self.hot = hot_set()
        self.socket = os.path.join(os.path.relpath(self.tmp), "svc.sock")
        self.log = open(os.path.join(self.tmp, "server.log"), "wb")
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = os.path.join(self.tmp, "cache")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--inline",
             "--workers", "2", "--journal", os.path.join(self.tmp, "journal.jsonl"),
             "--socket", self.socket],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        self._wait_ready()
        self.client = ServiceClient(socket_path=self.socket, timeout=CLIENT_TIMEOUT_S)
        for kind, params in self.hot:
            self.client.submit(kind, params)
        self.direct: dict[str, dict] = {}
        self.norm: dict[str, dict] = {}
        #: (start, duration) of each traced direct compute, per kind.
        self.compute_s: dict[str, list[tuple[float, float]]] = {
            k: [] for k in FRESH_KINDS}
        self.window_stats: dict = {}
        self.provenance["engines"] = self._engines()

    def _wait_ready(self) -> None:
        from repro.errors import ReproError
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.server.poll() is not None:
                raise RuntimeError(f"server exited with {self.server.returncode}")
            try:
                with ServiceClient(socket_path=self.socket, timeout=2.0) as c:
                    if c.health().get("accepting"):
                        return
            except ReproError:
                pass
            time.sleep(0.05)
        raise RuntimeError("server not accepting within the boot timeout")

    def _engines(self) -> dict[str, str]:
        from repro.service import jobs

        out = {}
        for kind, params in self.hot:
            engine = jobs.resolve_job(kind, params)[1].get("engine")
            out[kind] = str(engine)
        return out

    # -- op stream -----------------------------------------------------
    def pass_ops(self, index: int) -> list[tuple]:
        """Every pass has the same multiset of requests: each hot spec and
        each fresh kind PASS_LEN / 15 times, one fresh request in each
        group of five, order and positions drawn by the seed.  (Drawing
        hot specs at random let the share of the slower mtreconfig hits,
        and so op_p50_ms, vary with the seed.)"""
        import random

        rng = random.Random(f"service:{self.seed}:{index}")
        reps = PASS_LEN // (GROUP * len(FRESH_KINDS))
        hot = [(k, json.dumps(p, sort_keys=True), False) for k, p in self.hot] * reps
        fresh = list(FRESH_KINDS) * reps
        rng.shuffle(hot)
        rng.shuffle(fresh)
        ops: list[tuple] = []
        for g, kind in enumerate(fresh):
            group = [hot.pop() for _ in range(GROUP - 1)]
            n = (self.seed % 10_000) * 10_000 + index * PASS_LEN + g
            group.insert(rng.randrange(GROUP), self._fresh(kind, n))
            ops += group
        return ops

    def _fresh(self, kind: str, n: int) -> tuple:
        if kind == "pareto":
            params = {"benchmarks": self.ch4_set_1, "utilization": 0.9 + n * 1e-9}
        else:
            params = {"seed": 1_000_000 + n}
        return (kind, json.dumps(params, sort_keys=True), True)

    def label(self, op) -> str:
        return f"{op[0]}:{op[1]}"

    def kind(self, op) -> str:
        return f"{'miss' if op[2] else 'hit'}:{op[0]}"

    # -- one op --------------------------------------------------------
    def call(self, op, traced: bool) -> dict:
        return self.client.submit(op[0], json.loads(op[1]))

    def check(self, op, resp: dict, warmup: bool) -> str | None:
        """Disposition only; results are compared in :meth:`verify`."""
        want = "queued" if op[2] else "cached"
        if resp.get("disposition") != want:
            return f"disposition {resp.get('disposition')!r} != {want!r}"
        return None

    def window_begin(self) -> None:
        self.window_stats["before"] = self._snapshot()

    def window_end(self) -> None:
        self.window_stats["after"] = self._snapshot()
        self.server_rss_mb = peak_rss_mb(self.server.pid)

    def _snapshot(self) -> dict:
        return {"stats": self.client.stats(), "health": self.client.health()}

    # -- checks --------------------------------------------------------
    def verify(self, passes: list[PassResult], traced: bool) -> None:
        """Compare every response with a direct ``compute_job`` of its spec;
        a mismatch marks that op failed.  In the traced run the direct
        computes of fresh specs are the ``service.compute_job.*`` spans."""
        for kind, params in self.hot:
            self._direct(kind, json.dumps(params, sort_keys=True), False)
        for p in passes:
            for op, res in zip(p.ops_in, p.ops):
                if res.error is not None:
                    continue
                key = self._direct(op[0], op[1], traced and op[2])
                if _comparable(res.output["job"]["result"]) != self.direct[key]:
                    res.error = f"{op[0]} response != direct compute_job"

    def _direct(self, kind: str, params_json: str, traced: bool) -> str:
        from repro import obs
        from repro.service import jobs

        key = f"{kind}:{params_json}"
        if key not in self.direct:
            norm = jobs.resolve_job(kind, json.loads(params_json))[1]
            span = (obs.span(f"service.compute_job.{kind}") if traced
                    else nullcontext())
            self.clock.tick()
            t_mono, t0 = time.monotonic(), time.perf_counter()
            with span:
                result = jobs.compute_job(kind, norm)
            if traced:
                self.compute_s[kind].append((t_mono, time.perf_counter() - t0))
            self.clock.tick(force=traced)
            self.direct[key] = _comparable(result)
            self.norm[key] = norm
        return key

    def quality(self) -> dict[str, float]:
        util, cyc = [], []
        for kind, params in self.hot:
            key = f"{kind}:{json.dumps(params, sort_keys=True)}"
            r, norm = self.direct[key], self.norm[key]
            if kind in ("mlgp", "mtreconfig"):
                util.append(100.0 * (1.0 - r["utilization"] / norm["utilization"]))
            elif kind == "curve":
                cfgs = r["configurations"]
                cyc.append(100.0 * (1.0 - cfgs[-1][1] / cfgs[0][1]))
        return {
            "util_reduction_pct": sum(util) / len(util),
            "cycle_reduction_pct": sum(cyc) / len(cyc),
        }

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def layer_metrics(self, summary: dict, counters: dict, passes: int,
                      measured: list[PassResult]) -> dict:
        """Client latencies, direct compute times (reference-host ms) and
        the server's counter deltas over the measured window."""
        hits = [self.host_ms(o) for p in measured for o in p.ops
                if o.kind.startswith("hit")]
        misses = [self.host_ms(o) for p in measured for o in p.ops
                  if o.kind.startswith("miss")]
        miss_ms = sum(misses) / len(misses)
        out = {
            "service.hit_ms": (sum(hits) / len(hits), "ms"),
            "service.miss_ms": (miss_ms, "ms"),
        }
        all_compute = []
        for kind, timed in self.compute_s.items():
            samples = [1e3 * dur / self.clock.speed(t, t + dur) for t, dur in timed]
            all_compute += samples
            out[f"service.compute_ms.{kind}"] = (
                sum(samples) / len(samples) if samples else 0.0, "ms")
        compute_ms = sum(all_compute) / len(all_compute) if all_compute else 0.0
        out["service.overhead_ms"] = (miss_ms - compute_ms, "ms")
        before, after = self.window_stats["before"], self.window_stats["after"]
        cb, ca = before["stats"]["counters"], after["stats"]["counters"]
        delta = {k: ca.get(k, 0) - cb.get(k, 0) for k in (*SERVER_COUNTERS, "submitted")}
        for k in SERVER_COUNTERS:
            out[f"service.{k}"] = (delta[k], "count")
        out["service.hit_ratio"] = (
            delta["result_hits"] / delta["submitted"] if delta["submitted"] else 0.0,
            "ratio")
        kb, ka = before["stats"]["cache"], after["stats"]["cache"]
        for kind in ("service", "library"):
            out[f"cache.{kind}.hits"] = (ka[kind]["hits"] - kb[kind]["hits"], "count")
        disk = ka.get("disk", {})
        out["cache.disk.entries"] = (disk.get("entries", 0), "count")
        out["cache.disk.bytes"] = (disk.get("bytes", 0), "bytes")
        jb = before["health"].get("journal", {})
        ja = after["health"].get("journal", {})
        out["service.journal.appends"] = (
            ja.get("appends", 0) - jb.get("appends", 0), "count")
        out["service.journal.compactions"] = (ja.get("compactions", 0), "count")
        return out

    def teardown(self) -> None:
        """Stop the server: ``shutdown`` op, then SIGTERM, then kill."""
        from repro.errors import ReproError
        from repro.service.client import ServiceClient

        if getattr(self, "client", None) is not None:
            self.client.close()
        if getattr(self, "server", None) is None:
            return
        if self.server.poll() is None:
            try:
                with ServiceClient(socket_path=self.socket, timeout=5.0) as c:
                    c.shutdown()
            except ReproError:
                pass
        for stop in (None, self.server.terminate, self.server.kill):
            if stop is not None and self.server.poll() is None:
                stop()
            try:
                self.server.wait(STOP_WAIT_S)
                break
            except subprocess.TimeoutExpired:
                continue
        self.log.close()

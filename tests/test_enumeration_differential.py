"""Differential tests: the array enumeration engine vs bitset/reference.

The ``engine="array"`` enumerator is promised *bit-identical* to the
bitset engine — same candidate sets in the same order AND the same five
stats counters — whenever the visit budgets and candidate caps do not
bind (under binding budgets the engines spend the same per-root budgets
breadth-first vs depth-first, so only determinism and cap-respect are
promised).  The bitset engine is in turn candidate-identical to the
original set-based reference.  These tests enforce both promises across
seeded random DFGs, synthetic blocks and real benchmark blocks,
mirroring :mod:`tests.test_partitioning_differential` for the
partitioning engines.
"""

from __future__ import annotations

import random

import pytest

from repro import npbits
from repro.enumeration import enumerate_connected
from repro.enumeration import mimo_array
from repro.workloads import get_program
from repro.workloads.synthesis import OP_MIXES, synth_dfg
from tests.conftest import random_small_dfg

#: Budgets far beyond anything the small test graphs can exhaust: with
#: these, all three engines must agree bit for bit.
NO_BUDGET = dict(max_candidates=10**7, min_size=2, max_visited=10**9)

STAT_KEYS = (
    "visited",
    "feasible",
    "pruned_visit_budget",
    "pruned_inputs",
    "pruned_outputs",
)


@pytest.fixture
def force_array(monkeypatch):
    """Drop the hybrid cutoff so even tiny DFGs run the array kernel."""
    monkeypatch.setattr(mimo_array, "ARRAY_MIN_NODES", 0)


def _run(dfg, engine, **kw):
    stats: dict = {}
    out = enumerate_connected(dfg, engine=engine, stats=stats, **kw)
    return out, {k: stats.get(k, 0) for k in STAT_KEYS}


def _assert_trio_identical(dfg, **kw):
    ref, _ = _run(dfg, "reference", **kw)
    bit, bit_stats = _run(dfg, "bitset", **kw)
    arr, arr_stats = _run(dfg, "array", **kw)
    assert arr == bit, "array candidates diverged from bitset"
    assert arr_stats == bit_stats, "array counters diverged from bitset"
    assert arr == ref, "array candidates diverged from reference"


class TestArrayDifferential:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", (10, 18, 26))
    def test_random_dfgs_bit_identical(self, force_array, seed, n):
        """30 seeded random DFGs: array == bitset (candidates
        + counters) and == reference (candidates), non-binding budgets."""
        dfg = random_small_dfg(seed, n=n)
        _assert_trio_identical(
            dfg, max_inputs=4, max_outputs=2, max_size=8, **NO_BUDGET
        )

    @pytest.mark.parametrize("mi,mo", ((2, 1), (3, 2), (4, 3)))
    def test_port_constraint_sweep(self, force_array, mi, mo):
        dfg = random_small_dfg(3, n=20)
        _assert_trio_identical(
            dfg, max_inputs=mi, max_outputs=mo, max_size=7, **NO_BUDGET
        )

    @pytest.mark.parametrize("mix", ("crypto", "dsp"))
    def test_synth_blocks_bit_identical(self, force_array, mix):
        """Blocks big enough to clear the hybrid cutoff naturally."""
        rng = random.Random(mix)
        dfg = synth_dfg(rng, 60, OP_MIXES[mix])
        _assert_trio_identical(
            dfg, max_inputs=4, max_outputs=2, max_size=6, **NO_BUDGET
        )

    @pytest.mark.parametrize("name", ("sha", "adpcm"))
    def test_benchmark_blocks_bit_identical(self, force_array, name):
        prog = get_program(name)
        for blk in prog.basic_blocks:
            _assert_trio_identical(
                blk.dfg, max_inputs=4, max_outputs=2, max_size=6, **NO_BUDGET
            )

    def test_min_size_filter_matches(self, force_array):
        dfg = random_small_dfg(7, n=18)
        for min_size in (1, 3):
            kw = dict(NO_BUDGET, min_size=min_size)
            _assert_trio_identical(
                dfg, max_inputs=4, max_outputs=2, max_size=6, **kw
            )


class TestArrayBudgets:
    """Binding budgets: BFS vs DFS spend them differently, so equality
    with the bitset engine is no longer promised — but determinism and
    cap-respect are."""

    def test_binding_budget_is_deterministic(self, force_array):
        rng = random.Random(99)
        dfg = synth_dfg(rng, 80, OP_MIXES["crypto"])
        # Loose ports + a tight visit cap: the per-root visit budget binds
        # (rather than the candidate cap stopping the search first).
        kw = dict(
            max_inputs=6, max_outputs=4, max_size=12,
            max_candidates=10**6, min_size=2, max_visited=300,
        )
        a1, s1 = _run(dfg, "array", **kw)
        a2, s2 = _run(dfg, "array", **kw)
        assert a1 == a2
        assert s1 == s2
        # The budget really bound (otherwise this test is vacuous).
        assert s1["pruned_visit_budget"] >= 1

    def test_candidate_cap_respected(self, force_array):
        rng = random.Random(99)
        dfg = synth_dfg(rng, 80, OP_MIXES["crypto"])
        out, stats = _run(
            dfg, "array", max_inputs=4, max_outputs=2, max_size=10,
            max_candidates=25, min_size=2, max_visited=None,
        )
        assert len(out) <= 25
        assert stats["feasible"] >= len(out)

    def test_non_binding_budget_flags_no_pruning(self, force_array):
        dfg = random_small_dfg(1, n=16)
        _, stats = _run(
            dfg, "array", max_inputs=4, max_outputs=2, max_size=8, **NO_BUDGET
        )
        assert stats["pruned_visit_budget"] == 0


class TestHybridDispatch:
    def test_small_blocks_delegate_to_bitset(self):
        """Below ARRAY_MIN_NODES the array engine must hand the identical
        call to the bitset engine (no monkeypatching here)."""
        dfg = random_small_dfg(2, n=12)
        assert len(dfg) < mimo_array.ARRAY_MIN_NODES
        bit, bit_stats = _run(
            dfg, "bitset", max_inputs=4, max_outputs=2, max_size=8, **NO_BUDGET
        )
        arr, arr_stats = _run(
            dfg, "array", max_inputs=4, max_outputs=2, max_size=8, **NO_BUDGET
        )
        assert arr == bit
        assert arr_stats == bit_stats

    def test_large_blocks_delegate_to_bitset(self, monkeypatch):
        """At or above ARRAY_MAX_NODES the array engine must hand the call
        to the bitset engine.  Checked under a binding visit budget, where
        the two walks return different candidates, so a broken delegation
        cannot pass."""
        rng = random.Random(99)
        dfg = synth_dfg(rng, 80, OP_MIXES["crypto"])
        kw = dict(
            max_inputs=6, max_outputs=4, max_size=12,
            max_candidates=10**6, min_size=2, max_visited=300,
        )
        bit, bit_stats = _run(dfg, "bitset", **kw)
        assert bit_stats["pruned_visit_budget"] >= 1
        assert _run(dfg, "array", **kw)[0] != bit  # batched walk differs
        monkeypatch.setattr(mimo_array, "ARRAY_MAX_NODES", len(dfg) - 1)
        arr, arr_stats = _run(dfg, "array", **kw)
        assert arr == bit
        assert arr_stats == bit_stats


class TestPopcountFallback:
    def test_fallback_popcount_bit_identical(self, force_array, monkeypatch):
        """The table-lookup popcount path (NumPy < 2.0 or
        REPRO_NO_BITWISE_COUNT set) must produce identical enumerations."""
        dfg = random_small_dfg(5, n=22)
        kw = dict(max_inputs=4, max_outputs=2, max_size=7, **NO_BUDGET)
        fast, fast_stats = _run(dfg, "array", **kw)
        monkeypatch.setattr(npbits, "HAVE_BITWISE_COUNT", False)
        slow, slow_stats = _run(dfg, "array", **kw)
        assert slow == fast
        assert slow_stats == fast_stats

    def test_popcount_helpers_agree(self, monkeypatch):
        import numpy as np

        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2**63, size=(17, 3), dtype=np.uint64)
        fast_rows = npbits.popcount_rows(rows)
        fast_u64 = npbits.popcount_u64(rows)
        monkeypatch.setattr(npbits, "HAVE_BITWISE_COUNT", False)
        assert (npbits.popcount_rows(rows) == fast_rows).all()
        assert (npbits.popcount_u64(rows) == fast_u64).all()


class TestIngestedDifferential:
    """Engine parity on DFGs built by the real-code front-end.

    Ingested graphs have shapes the synthetic generator never produces
    (MAC chains, invalid LOAD/STORE/BRANCH region splits, latch CMPs),
    so they are a distinct corpus for the bitset/array oracles.
    """

    @pytest.fixture(scope="class")
    def ingested_blocks(self):
        from pathlib import Path

        from repro.frontend import ingest_path

        example = Path(__file__).resolve().parent.parent / "examples" / "fir_kernel.py"
        program = ingest_path(example, function="fir_filter")
        return [b.dfg for b in program.basic_blocks]

    def test_example_kernel_blocks_bit_identical(
        self, force_array, ingested_blocks
    ):
        assert len(ingested_blocks) >= 3
        for dfg in ingested_blocks:
            _assert_trio_identical(
                dfg, max_inputs=4, max_outputs=2, max_size=6, **NO_BUDGET
            )

    def test_ingested_source_bit_identical(self, force_array):
        from repro.frontend import ingest_source

        src = (
            "def mix(a, b, c, x, i):\n"
            "    t = a + b * c\n"
            "    u = x[i] ^ t\n"
            "    v = min(u, t) + max(a, c)\n"
            "    w = (v << 2) - (u & 0xFF)\n"
            "    return w\n"
        )
        program = ingest_source(src)
        for block in program.basic_blocks:
            _assert_trio_identical(
                block.dfg, max_inputs=4, max_outputs=2, max_size=6, **NO_BUDGET
            )

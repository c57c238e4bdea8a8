"""Array-native ESU enumeration (``engine="array"``).

Restructures the bitset engine's per-candidate DFS state into flat NumPy
arrays and walks the ESU tree **level-synchronously**: all subgraphs of
size ``s`` (across every root) live in one ``(S, n_words)`` uint64 bitset
matrix, and one batched pass scores every frontier extension of the level
at once — vectorized I/O-port counting via per-word popcounts on the
candidate/boundary matrices, convexity and feasibility as boolean mask
reductions, and the input/visit-budget pruning as single
``np.flatnonzero`` filters instead of per-candidate Python branches.

State threaded per level (mirroring the bitset DFS accumulators):

* ``sub``/``pred``/``anc``/``desc`` — ``(S, n_words)`` uint64 rows: the
  subgraph and the unions of member predecessor / ancestor / descendant
  masks;
* ``live`` — live-in operand totals, ``root`` — per-state ESU root index
  (selects the per-root ``never``/``above_root`` pruning rows);
* the ESU extension lists in fused CSR form (``ext_csr``/``ext_off``) with
  the exact order the bitset engine maintains — children pop from the end
  and keep the list prefix before their position.  Each CSR slot carries
  both the extension value and its exclusive prefix-OR mask (the "kept
  siblings" ``ext_mask`` the DFS would hold when popping that slot); the
  masks are threaded incrementally — copied with the kept prefix, extended
  per fresh bit — so no segmented scan is ever recomputed.

Each level is scored (input-prune + feasibility) **at child-build time**,
so the extension CSR — the most expensive per-level structure — is only
constructed for *surviving* states: input-pruned children, children of
capped/killed roots, dead-end states with empty extension lists, and the
entire deepest level (``size == max_size``) never pay for one.

**Equivalence contract** (asserted by
``tests/test_enumeration_differential.py``): when the visit budget and the
candidate caps do not bind, the array engine generates exactly the tree
the bitset engine walks — identical candidate sets *and* identical
``visited``/``feasible``/``pruned_*`` counters; the candidate set then
also equals the reference engine's.  Under *binding* budgets the engines
diverge (the DFS spends its budget depth-first, the level walk
breadth-first) the same way the bitset engine already diverges from the
reference; each root's visit budget, its candidate cap and the global
candidate cap are enforced deterministically in the level's flat state
order, so array results stay reproducible run to run.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import npbits
from repro.graphs.dfg import DataFlowGraph, DFGMasks

__all__ = [
    "enumerate_array",
    "canonical_candidates",
    "ARRAY_MIN_NODES",
    "ARRAY_MAX_NODES",
]

#: Hybrid dispatch threshold (empirical): below this many DFG nodes the
#: per-level NumPy call overhead outweighs the batching win and the bitset
#: DFS is faster, so ``enumerate_connected(engine="array")`` delegates tiny
#: blocks to the bitset kernel (bit-identical whenever budgets/caps do not
#: bind).  Tests pin it to 0 to drive the array kernel on small graphs.
ARRAY_MIN_NODES = 24

#: Upper hybrid dispatch threshold (empirical): at and above this many DFG
#: nodes the level frontier's bitset matrices (``n_words`` grows with the
#: block, the frontier with the budget) outgrow the cache and the batched
#: walk loses to the bitset DFS.  The measured wall-clock crossover on the
#: scalability sweep sits between 2000 and 3000 ops (at 2000 the walk is
#: at parity in wall time while still ~25% cheaper per candidate; at 3000
#: it clearly loses both ways), so blocks of 1536+ ops — the next
#: word-aligned step safely below the parity point — delegate to the
#: bitset kernel and ``engine="array"`` stays within noise of bitset at
#: every block size (guarded by ``benchmarks/test_scalability.py``).  The
#: previous cap of 768 was a dead zone: it delegated 768–1500-op blocks
#: where the batched walk actually wins 2x+ per candidate.  Real hot
#: blocks are tens to a few hundred ops; blocks this large are
#: budget-bound synthetic stress cases where the two engines already
#: return different (deterministic) candidate sets.
ARRAY_MAX_NODES = 1536


class _ArrayConsts:
    """Per-DFG constant matrices for the array engine (cached per masks)."""

    def __init__(self, dfg: DataFlowGraph) -> None:
        m: DFGMasks = dfg.bitset_masks()
        self.masks = m
        n = len(dfg)
        self.n = n
        W = npbits.n_words(n)
        self.W = W
        self.PRED = npbits.pack_masks(m.pred, W)
        self.SUCC = npbits.pack_masks(m.succ, W)
        self.ANC = npbits.pack_masks(m.anc, W)
        self.DESC = npbits.pack_masks(m.desc, W)
        self.ADJ = npbits.pack_masks(m.adj_valid, W)
        self.BIT = npbits.bit_rows(n, W)
        self.EXT = np.array(m.external_inputs, dtype=np.int64)
        self.full_row = npbits.pack_masks([m.full], W)[0]
        live_row = npbits.pack_masks([m.live_out], W)
        self.live_flag = npbits.unpack_bits(live_row, n)[0].astype(bool)
        valid_bits = npbits.unpack_bits(
            npbits.pack_masks([m.valid], W), n
        )[0]
        self.roots = np.flatnonzero(valid_bits).astype(np.int64)
        invalid_row = npbits.pack_masks([m.full & ~m.valid], W)[0]
        self.NEVER = (
            npbits.low_mask_rows(self.roots, W) | invalid_row
        )
        self.ABOVE = (
            ~npbits.low_mask_rows(self.roots + 1, W) & self.full_row
        )
        # Fused accumulator layout: one (n, 4W) matrix so a child batch is
        # built with a single gather + OR instead of four of each.  Column
        # blocks: [sub-bit | pred-union | anc-union | desc-union].
        self.CMB = np.hstack([self.BIT, self.PRED, self.ANC, self.DESC])
        # LOWM[b] = all bits strictly below b — turns "OR of the first k
        # ascending set bits of a row" into ``row & LOWM[k-th bit]``.
        self.LOWM = npbits.low_mask_rows(np.arange(n, dtype=np.int64), W)


_CONST_CACHE: "weakref.WeakKeyDictionary[DataFlowGraph, _ArrayConsts]" = (
    weakref.WeakKeyDictionary()
)


def _get_consts(dfg: DataFlowGraph) -> _ArrayConsts:
    c = _CONST_CACHE.get(dfg)
    if c is None or c.masks is not dfg.bitset_masks():
        c = _ArrayConsts(dfg)
        _CONST_CACHE[dfg] = c
    return c


def _sorted_run_ranks(values: np.ndarray) -> np.ndarray:
    """Occurrence rank of each element within its run of equal values.

    *values* must be sorted (the level's root column stays ascending by
    construction), so ranks are a linear run-boundary scan — no argsort.
    """
    n = values.shape[0]
    idx = np.arange(n, dtype=np.int64)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    is_start[1:] = values[1:] != values[:-1]
    starts = idx[is_start]
    run_lens = np.diff(np.concatenate((starts, [n])))
    return idx - np.repeat(starts, run_lens)


def _ramp(lengths: np.ndarray) -> np.ndarray:
    """``[0..l0-1, 0..l1-1, ...]`` for the segment *lengths* (may be 0)."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def _output_counts(
    c: _ArrayConsts, sub_rows: np.ndarray, outside_rows: np.ndarray
) -> np.ndarray:
    """Output-port counts for a batch of subgraphs.

    A member is an output when its value is live-out of the block or some
    consumer lies outside the subgraph; the per-member external-successor
    test is one gather + AND over the packed word rows.
    """
    B = sub_rows.shape[0]
    if B == 0:
        return np.zeros(0, dtype=np.int64)
    members, _ranks = npbits.set_bits_csr(sub_rows)
    rows = np.arange(B, dtype=np.int64).repeat(
        npbits.popcount_rows(sub_rows)
    )
    ext = npbits.nonzero_rows(
        c.SUCC.take(members, axis=0) & outside_rows.take(rows, axis=0)
    )
    is_out = ext | c.live_flag[members]
    return np.bincount(rows[is_out], minlength=B).astype(np.int64)


def canonical_candidates(rows: np.ndarray) -> list[frozenset[int]]:
    """Dedupe + canonically order a stacked matrix of candidate bitsets.

    Finishing pass of the array engine: unique rows (popped siblings can
    re-enter via fresh bits, so the walk can revisit a subgraph — the
    bitset engine carries the same belt-and-braces set), then the
    engines' canonical order (largest
    first, lexicographic ids inside a size).  ``set_bits_csr`` emits each
    row's ids ascending, so the sort key is the extracted segment itself
    — no per-candidate ``sorted()``.
    """
    rows = np.unique(rows, axis=0)
    ids, _ranks = npbits.set_bits_csr(rows)
    bounds = np.cumsum(npbits.popcount_rows(rows))
    ids_list = ids.tolist()
    items: list[list[int]] = []
    lo = 0
    for hi in bounds.tolist():
        items.append(ids_list[lo:hi])
        lo = hi
    items.sort(key=lambda seg: (-len(seg), seg))
    return [frozenset(seg) for seg in items]


def _rows_to_sets(rows: np.ndarray) -> list[frozenset[int]]:
    """Each uint64 bitset row to its ``frozenset`` of node ids (batched)."""
    ids, _ranks = npbits.set_bits_csr(rows)
    bounds = np.cumsum(npbits.popcount_rows(rows))
    ids_list = ids.tolist()
    out: list[frozenset[int]] = []
    lo = 0
    for hi in bounds.tolist():
        out.append(frozenset(ids_list[lo:hi]))
        lo = hi
    return out


def enumerate_array(
    dfg: DataFlowGraph,
    max_inputs: int,
    max_outputs: int,
    max_size: int,
    max_candidates: int,
    min_size: int,
    max_visited: int | None,
    stats: dict | None = None,
) -> list[frozenset[int]]:
    """Array-native ESU enumeration over *dfg* (see module docstring)."""
    c = _get_consts(dfg)
    R = c.roots.shape[0]
    if R == 0:
        return []
    total_budget = max_visited if max_visited is not None else 25 * max_candidates
    per_root_budget = max(200, total_budget // R)
    per_root_cap = max(20, max_candidates // R)

    visited_per_root = np.zeros(R, dtype=np.int64)
    found_per_root = np.zeros(R, dtype=np.int64)
    alive_root = np.ones(R, dtype=bool)
    feasible_rows: list[np.ndarray] = []
    n_feasible = 0
    all_visited = 0
    cut_budget = 0
    cut_inputs = 0
    cut_outputs = 0
    W = c.W

    def prune_and_score(
        state: np.ndarray, live: np.ndarray, root_idx: np.ndarray, size: int
    ) -> np.ndarray:
        """Input-prune + feasibility scoring for one level's state batch.

        Returns the monotone input-prune mask; feasible candidates are
        recorded (capped per root / globally, in flat state order — the
        same order the DFS visits this level's nodes).
        """
        nonlocal n_feasible, cut_inputs, cut_outputs, found_per_root
        sub = state[:, :W]
        pred = state[:, W : 2 * W]
        # Garbage bits past ``n`` in ``not_sub``'s last word are harmless:
        # every constant row (PRED/SUCC/ANC/DESC) is a subset of ``full``,
        # so the ANDs below clear them — no ``& full_row`` pass needed.
        not_sub = ~sub
        ext_prod = pred & not_sub
        never_cnt = (
            npbits.popcount_rows(ext_prod & c.NEVER.take(root_idx, axis=0))
            + live
        )
        pruned_in = never_cnt > max_inputs
        cut_inputs += int(pruned_in.sum())
        if size < min_size:
            return pruned_in
        # Feasibility narrows fast (most states fail the input-port count),
        # so each test only touches the survivors of the previous one.
        ok1 = (~pruned_in).nonzero()[0]
        if not ok1.size:
            return pruned_in
        inputs_ok = (
            npbits.popcount_rows(ext_prod.take(ok1, axis=0)) + live[ok1]
            <= max_inputs
        )
        ok2 = ok1[inputs_ok]
        if not ok2.size:
            return pruned_in
        anc = state[:, 2 * W : 3 * W]
        desc = state[:, 3 * W :]
        convex = ~npbits.nonzero_rows(
            anc.take(ok2, axis=0)
            & desc.take(ok2, axis=0)
            & not_sub.take(ok2, axis=0)
        )
        check_idx = ok2[convex]
        if not check_idx.size:
            return pruned_in
        outs = _output_counts(
            c,
            sub.take(check_idx, axis=0),
            not_sub.take(check_idx, axis=0),
        )
        ok = outs <= max_outputs
        cut_outputs += int((~ok).sum())
        cand_idx = check_idx[ok]
        if not cand_idx.size:
            return pruned_in
        cand_roots = root_idx[cand_idx]
        new_counts = np.bincount(cand_roots, minlength=R)
        if (
            n_feasible + cand_idx.size < max_candidates
            and int((found_per_root + new_counts).max()) < per_root_cap
            and alive_root[cand_roots].all()
        ):
            feasible_rows.append(sub.take(cand_idx, axis=0))
            n_feasible += int(cand_idx.size)
            found_per_root += new_counts
        else:
            # Caps consume the level in flat state order (a short loop:
            # it only runs when a cap is binding).
            accept = np.zeros(cand_idx.shape[0], dtype=bool)
            for k, r in enumerate(cand_roots.tolist()):
                if not alive_root[r]:
                    continue
                accept[k] = True
                n_feasible += 1
                found_per_root[r] += 1
                if found_per_root[r] >= per_root_cap:
                    alive_root[r] = False
                if n_feasible >= max_candidates:
                    alive_root[:] = False
                    break
            feasible_rows.append(sub.take(cand_idx[accept], axis=0))
        return pruned_in

    def finish() -> list[frozenset[int]]:
        if stats is not None:
            stats["visited"] = stats.get("visited", 0) + all_visited
            stats["feasible"] = stats.get("feasible", 0) + n_feasible
            stats["pruned_visit_budget"] = (
                stats.get("pruned_visit_budget", 0) + cut_budget
            )
            stats["pruned_inputs"] = stats.get("pruned_inputs", 0) + cut_inputs
            stats["pruned_outputs"] = (
                stats.get("pruned_outputs", 0) + cut_outputs
            )
        if not n_feasible:
            return []
        return canonical_candidates(np.concatenate(feasible_rows, axis=0))

    # --- level 1: one state per root (always within its visit budget) ---
    root_idx = np.arange(R, dtype=np.int64)
    state = c.CMB.take(c.roots, axis=0)
    live = c.EXT[c.roots]
    visited_per_root[:] = 1
    all_visited += R
    size = 1
    pruned_in = prune_and_score(state, live, root_idx, size)
    if size >= max_size or not alive_root.any():
        return finish()
    keep = np.flatnonzero(~pruned_in & alive_root[root_idx])
    if not keep.size:
        return finish()
    state = state.take(keep, axis=0)
    live = live[keep]
    root_idx = root_idx[keep]
    ext_rows = c.ADJ.take(c.roots[root_idx], axis=0) & c.ABOVE.take(root_idx, axis=0)
    ext_len = npbits.popcount_rows(ext_rows)
    nz = np.flatnonzero(ext_len > 0)
    if not nz.size:
        return finish()
    if nz.size < state.shape[0]:
        state = state.take(nz, axis=0)
        live = live[nz]
        root_idx = root_idx[nz]
        ext_rows = ext_rows.take(nz, axis=0)
        ext_len = ext_len[nz]
    ext_vals, _r = npbits.set_bits_csr(ext_rows)
    ext_off = np.concatenate(([0], np.cumsum(ext_len)))
    owner = np.repeat(
        np.arange(state.shape[0], dtype=np.int64), ext_len
    )
    ext_csr = np.empty((ext_vals.shape[0], 1 + W), dtype=np.uint64)
    ext_csr[:, 0] = ext_vals
    ext_csr[:, 1:] = ext_rows.take(owner, axis=0) & c.LOWM.take(ext_vals, axis=0)

    while True:
        # --- expansion: batch-build every child of the level ---
        S = state.shape[0]
        lens = ext_len
        child_par = np.arange(S, dtype=np.int64).repeat(lens)
        # Children pop from the end of the extension list: descending j.
        child_j = lens.repeat(lens) - 1 - _ramp(lens)
        n_children = child_par.shape[0]

        # Per-root visit-budget admission (flat child order), before any
        # accumulator work is spent on rejected states.  Skipped entirely
        # when no root's budget can bind at this level.
        if int(visited_per_root.max()) + n_children <= per_root_budget:
            all_visited += n_children
            # The root column is sorted, so the per-root child counts are
            # run-segment sums — no per-child root column needed here.
            rs = np.empty(S, dtype=bool)
            rs[0] = True
            rs[1:] = root_idx[1:] != root_idx[:-1]
            run_starts = rs.nonzero()[0]
            visited_per_root[root_idx[run_starts]] += np.add.reduceat(
                lens, run_starts
            )
            par = child_par
            j = child_j
        else:
            child_root = root_idx.take(child_par)
            ranks = _sorted_run_ranks(child_root)
            vnum = visited_per_root[child_root] + ranks + 1
            admit = vnum <= per_root_budget
            over_first = vnum == per_root_budget + 1
            n_admit = int(admit.sum())
            n_over = int(over_first.sum())
            all_visited += n_admit + n_over
            cut_budget += n_over
            if n_over:
                alive_root[child_root[over_first]] = False
            visited_per_root += np.bincount(
                child_root[admit | over_first], minlength=R
            )
            if n_admit == 0:
                break
            admit_idx = admit.nonzero()[0]
            par = child_par.take(admit_idx)
            j = child_j.take(admit_idx)

        # The popped value and its "kept siblings" mask come straight from
        # the CSR slot — the prefix masks are threaded, not recomputed.
        slot_rows = ext_csr.take(ext_off.take(par) + j, axis=0)
        w = slot_rows[:, 0].astype(np.int64)
        p_keep = slot_rows[:, 1:]

        new_state = state.take(par, axis=0) | c.CMB.take(w, axis=0)
        new_live = live[par] + c.EXT[w]
        new_root = root_idx[par]
        size += 1

        pruned_in = prune_and_score(new_state, new_live, new_root, size)
        if size >= max_size or not alive_root.any():
            break

        # --- survivors only: filter before the extension CSR is built ---
        kidx = (~pruned_in & alive_root.take(new_root)).nonzero()[0]
        if not kidx.size:
            break
        state = new_state.take(kidx, axis=0)
        live = new_live[kidx]
        root_idx = new_root[kidx]
        j_k = j[kidx]
        p_keep = p_keep.take(kidx, axis=0)
        par_k = par[kidx]
        fresh = (
            c.ADJ.take(w[kidx], axis=0)
            & c.ABOVE.take(root_idx, axis=0)
            & ~(state[:, :W] | p_keep)
        )
        fresh_cnt = npbits.popcount_rows(fresh)
        new_len = j_k + fresh_cnt
        if not new_len.all():
            # Dead ends (empty extension list) cannot expand — drop them.
            nzi = (new_len > 0).nonzero()[0]
            if not nzi.size:
                break
            state = state.take(nzi, axis=0)
            live = live[nzi]
            root_idx = root_idx[nzi]
            j_k = j_k[nzi]
            p_keep = p_keep.take(nzi, axis=0)
            par_k = par_k[nzi]
            fresh = fresh.take(nzi, axis=0)
            fresh_cnt = fresh_cnt[nzi]
            new_len = new_len[nzi]

        # Child extension CSR: kept prefix slots, then fresh ids ascending.
        new_off = np.concatenate(([0], new_len.cumsum()))
        new_E = int(new_off[-1])
        new_csr = np.empty((new_E, 1 + W), dtype=np.uint64)
        pre_ramp = _ramp(j_k)
        pre_dst = new_off[:-1].repeat(j_k) + pre_ramp
        pre_src = ext_off.take(par_k).repeat(j_k) + pre_ramp
        new_csr[pre_dst] = ext_csr.take(pre_src, axis=0)
        fresh_ids, fresh_rank = npbits.set_bits_csr(fresh)
        if fresh_ids.size:
            fr_rows = np.arange(new_len.shape[0], dtype=np.int64).repeat(
                fresh_cnt
            )
            fr_dst = new_off.take(fr_rows) + j_k.take(fr_rows) + fresh_rank
            # One fused per-child gather for both the kept-prefix mask and
            # the fresh row (half the advanced-indexing rounds).
            combo = np.empty((p_keep.shape[0], 2 * W), dtype=np.uint64)
            combo[:, :W] = p_keep
            combo[:, W:] = fresh
            g = combo.take(fr_rows, axis=0)
            fr_block = np.empty((fresh_ids.shape[0], 1 + W), dtype=np.uint64)
            fr_block[:, 0] = fresh_ids
            # Fresh slots extend the kept-prefix mask with the fresh bits
            # before them (ascending, so "row & bits-below" selects them).
            fr_block[:, 1:] = g[:, :W] | (
                g[:, W:] & c.LOWM.take(fresh_ids, axis=0)
            )
            new_csr[fr_dst] = fr_block

        ext_csr, ext_off, ext_len = new_csr, new_off, new_len

    return finish()

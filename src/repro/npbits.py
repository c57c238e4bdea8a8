"""NumPy bitset-matrix kernels for the ``engine="array"`` enumeration path.

The bitset engines represent node sets as Python int bitmasks — one
arbitrary-precision int per subgraph.  The array engine restructures
that state as **uint64 bitset matrices**: a batch of ``B`` node sets over
an ``n``-node DFG is a ``(B, n_words)`` ndarray with ``n_words =
ceil(n / 64)``, bit ``n`` of a row (little-endian word order) marking node
``n``'s membership.  Set algebra over a whole batch then becomes a single
vectorized ``&``/``|``/``~`` pass, and per-row population counts /
emptiness tests become one reduction — no per-candidate Python.

Population counting uses :func:`numpy.bitwise_count` (NumPy >= 2.0) when
available and falls back to an 8-bit lookup table otherwise; the fallback
is also forced by setting the ``REPRO_NO_BITWISE_COUNT`` environment
variable (non-empty) so the compatibility path stays exercised on CI even
with a modern NumPy installed.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "n_words",
    "pack_masks",
    "unpack_bits",
    "bit_rows",
    "low_mask_rows",
    "popcount_rows",
    "popcount_u64",
    "nonzero_rows",
    "set_bits_csr",
    "HAVE_BITWISE_COUNT",
]

#: Env knob forcing the lookup-table popcount (compatibility/chaos testing).
_ENV_NO_BITWISE_COUNT = "REPRO_NO_BITWISE_COUNT"

#: True when :func:`numpy.bitwise_count` exists *and* is not disabled via
#: the environment.  Read at import; tests monkeypatch module state via
#: :func:`popcount_rows`'s dispatch instead of re-importing.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count") and not os.environ.get(
    _ENV_NO_BITWISE_COUNT
)

#: 8-bit population-count lookup table for the fallback path.
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def n_words(n_bits: int) -> int:
    """Words needed for an *n_bits*-bit bitset (at least one)."""
    return max(1, (n_bits + 63) >> 6)


def pack_masks(masks, words: int) -> np.ndarray:
    """Pack Python int bitmasks into a ``(len(masks), words)`` uint64 matrix.

    Little-endian word order: word ``w`` holds bits ``64*w .. 64*w + 63``.
    """
    nbytes = words * 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    return (
        np.frombuffer(buf, dtype="<u8").reshape(len(masks), words).copy()
    )


def bit_rows(n_bits: int, words: int) -> np.ndarray:
    """One-hot matrix: row ``i`` is the bitset ``{i}`` (``(n_bits, words)``)."""
    out = np.zeros((n_bits, words), dtype=np.uint64)
    idx = np.arange(n_bits)
    out[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
    return out


def low_mask_rows(thresholds, words: int) -> np.ndarray:
    """Rows with bits ``[0, t)`` set, one per threshold ``t``.

    Vectorized equivalent of packing ``(1 << t) - 1`` per row.
    """
    t = np.asarray(thresholds, dtype=np.int64)
    k = np.clip(t[:, None] - (np.arange(words, dtype=np.int64) << 6), 0, 64)
    shifted = np.uint64(1) << np.minimum(k, 63).astype(np.uint64)
    return np.where(
        k >= 64, np.uint64(0xFFFFFFFFFFFFFFFF), shifted - np.uint64(1)
    )


def unpack_bits(rows: np.ndarray, n_bits: int) -> np.ndarray:
    """Expand ``(B, words)`` uint64 bitsets to a ``(B, n_bits)`` uint8 matrix.

    Column ``n`` is node ``n``'s membership flag; column order matches bit
    order, so ``np.nonzero`` on the result yields ascending node ids per
    row (row-major).
    """
    rows = np.ascontiguousarray(rows)
    as_bytes = rows.view(np.uint8).reshape(rows.shape[0], -1)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :n_bits]


def popcount_rows(rows: np.ndarray) -> np.ndarray:
    """Per-row population count of a ``(B, words)`` uint64 matrix.

    Dispatches to :func:`numpy.bitwise_count` when available; otherwise an
    8-bit table lookup over the byte view (bit-identical results).
    """
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)
    rows = np.ascontiguousarray(rows)
    as_bytes = rows.view(np.uint8).reshape(rows.shape[0], -1)
    return _POP8[as_bytes].sum(axis=-1, dtype=np.int64)


def nonzero_rows(rows: np.ndarray) -> np.ndarray:
    """Boolean per-row "any bit set" test of a ``(B, words)`` matrix."""
    if rows.shape[-1] == 1:
        return rows[:, 0] != 0
    return rows.any(axis=-1)


def popcount_u64(values: np.ndarray) -> np.ndarray:
    """Elementwise population count of a uint64 array (same shape)."""
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(values).astype(np.int64)
    flat = np.ascontiguousarray(values).reshape(-1)
    as_bytes = flat.view(np.uint8).reshape(flat.shape[0], 8)
    return _POP8[as_bytes].sum(axis=-1, dtype=np.int64).reshape(values.shape)


def set_bits_csr(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Set-bit ids of each row of a ``(B, words)`` matrix, in CSR form.

    Returns ``(flat_ids, ranks)``: the bit ids of every row concatenated
    (ascending per row) and each id's 0-based rank within its row.  Works
    on the packed words directly — ``np.nonzero`` touches only the
    ``(B, words)`` word matrix (not an unpacked ``(B, n)`` bit matrix),
    then the set bits of the surviving nonzero words are peeled lowest
    bit first in ``max-popcount-per-word`` vectorized passes.
    """
    if rows.size <= 512:
        # Tiny batch: one dense nonzero over the unpacked bit matrix beats
        # the peel loop's per-pass call overhead.
        _rw, ids = np.nonzero(unpack_bits(rows, rows.shape[1] << 6))
        ids = ids.astype(np.int64, copy=False)
        counts = popcount_rows(rows)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ranks = np.arange(ids.shape[0], dtype=np.int64) - np.repeat(
            starts, counts
        )
        return ids, ranks
    rw, cw = np.nonzero(rows)
    words = rows[rw, cw]
    if words.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    base = cw.astype(np.int64) << 6
    # Counting placement: word order is row-major ascending and the peel
    # emits each word's bits low-to-high, so bit ``p`` of word ``t`` lands
    # at ``word_off[t] + p`` — a direct scatter, no sort needed.
    pc_word = popcount_u64(words)
    word_off = np.concatenate(([0], np.cumsum(pc_word)[:-1]))
    total = int(pc_word[-1] + word_off[-1])
    out_ids = np.empty(total, dtype=np.int64)
    alive = np.arange(words.shape[0], dtype=np.int64)
    one = np.uint64(1)
    p = 0
    while alive.size:
        low = words & (~words + one)
        out_ids[word_off[alive] + p] = base[alive] + popcount_u64(low - one)
        words ^= low
        keep = words != 0
        alive = alive[keep]
        words = words[keep]
        p += 1
    counts = popcount_rows(rows)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ranks = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return out_ids, ranks

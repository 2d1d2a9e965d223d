"""Vectorized codec kernels (the default backend).

Every function here is the NumPy counterpart of a loop in
:mod:`repro.compressors.kernels.scalar` and must emit **identical
bytes**; the differential suite and the CI ``kernel-equivalence``
matrix enforce that. No O(n) Python loop is allowed on any path in
this module — loops below are O(max_code_length) ≤ 32 rounds,
O(distinct plane counts), or the chain walk's bounded lockstep
iterations, never per element.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.utils.chains import walk_chain

name = "vector"

_I64_MAX = np.iinfo(np.int64).max

#: Largest dense lookup table, in entries per alphabet symbol.
_DENSE_SLACK = 8


# ----------------------------------------------------------------------
# Huffman
# ----------------------------------------------------------------------


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code values for non-decreasing code lengths.

    RFC 1951 construction, vectorized over symbols: the first code of
    each length is ``(first_code[l-1] + count[l-1]) << 1`` (an
    O(max_len) scan), and within a length codes are the first code plus
    the symbol's rank.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    if lens.size == 0:
        return np.empty(0, dtype=np.int64)
    max_len = int(lens[-1])
    counts = np.bincount(lens, minlength=max_len + 1).astype(np.int64)
    first = np.zeros(max_len + 1, dtype=np.int64)
    for ln in range(1, max_len + 1):
        first[ln] = (first[ln - 1] + counts[ln - 1]) << 1
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank = np.arange(lens.size, dtype=np.int64) - starts[lens]
    return first[lens] + rank


def huffman_histogram(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct symbols and their counts in one ``np.unique``."""
    return np.unique(values, return_counts=True)


def huffman_lookup_indices(
    values: np.ndarray, symbols_sorted: np.ndarray
) -> np.ndarray:
    """Dense table over the alphabet's compact prefix, binary search for
    the rest.

    The prefix is every symbol within ``_DENSE_SLACK * len(alphabet)``
    of the smallest one (SZ's quantization codes); ``tab[v - lo]`` maps
    those in one gather. Values outside it (SZ's escape symbol, sparse
    int64 alphabets) are binary-searched in the remaining suffix.
    ``v - lo`` may wrap for extreme int64 values, but a wrapped offset
    never lands inside the table.
    """
    nsym = symbols_sorted.size
    lo = int(symbols_sorted[0]) if nsym else 0
    limit = min(lo + _DENSE_SLACK * nsym, _I64_MAX)
    k = int(np.searchsorted(symbols_sorted, limit, side="right"))
    span = int(symbols_sorted[k - 1]) - lo + 1 if k else 0
    tab = np.full(span + 1, -1, dtype=np.int64)
    tab[symbols_sorted[:k] - lo] = np.arange(k)
    # Unsigned offsets send values below lo past the table; the clipped
    # index is at most span, so the int64 view is exact (and gathers
    # faster than a uint64 index).
    offsets = (values - np.int64(lo)).view(np.uint64)
    idx = tab[np.minimum(offsets, np.uint64(span)).view(np.int64)]
    miss = np.flatnonzero(idx < 0)
    if miss.size:
        rest = symbols_sorted[k:]
        wanted = values[miss]
        pos = np.searchsorted(rest, wanted)
        found = pos < rest.size
        found[found] = rest[pos[found]] == wanted[found]
        if not found.all():
            missing = wanted[~found][0]
            raise KeyError(f"symbol {int(missing)} is not in the codec alphabet")
        idx[miss] = k + pos
    return idx


def huffman_encode_bits(
    codes: np.ndarray, lengths: np.ndarray, max_len: int
) -> np.ndarray:
    """Left-align codes into an ``(n, max_len)`` bit matrix, flatten
    through the per-symbol length mask (row order preserves symbol
    order)."""
    if codes.size == 0:
        return np.empty(0, dtype=np.uint8)
    col = np.arange(max_len, dtype=np.int64)
    aligned = codes << (max_len - lengths)
    bits = ((aligned[:, None] >> (max_len - 1 - col)[None, :]) & 1).astype(np.uint8)
    mask = col[None, :] < lengths[:, None]
    return bits[mask]


def huffman_decode_symbols(
    bits: np.ndarray,
    dec_symbol: np.ndarray,
    dec_length: np.ndarray,
    count: int,
    max_len: int,
) -> np.ndarray:
    """Prefix-table decode via the segmented lockstep chain walk.

    The ``max_len``-bit window at bit *p* is read on the fly from the
    packed stream: the big-endian 64-bit word at byte ``p >> 3``,
    shifted left by ``p & 7`` (``max_len + 7 <= 64`` bits always fit).
    The code chain ``p -> p + dec_length[window(p)]`` is walked by
    :func:`~repro.utils.chains.walk_chain`.
    """
    nbytes = (bits.size + 7) // 8
    padded = np.zeros(nbytes + 8, dtype=np.uint8)
    padded[:nbytes] = np.packbits(bits)
    words = (
        sliding_window_view(padded, 8)[:nbytes].copy().view(">u8").ravel()
        .astype(np.uint64)
    )
    drop = np.uint64(64 - max_len)

    def window(pos: np.ndarray) -> np.ndarray:
        word = words[pos >> 3] << (pos & 7).view(np.uint64)
        return (word >> drop).view(np.int64)

    def step(pos: np.ndarray) -> np.ndarray:
        return pos + dec_length[window(pos)]

    chain, _ = walk_chain(step, bits.size, count)
    return dec_symbol[window(chain)]


# ----------------------------------------------------------------------
# Bit packing (BitWriter/BitReader byte boundary)
# ----------------------------------------------------------------------


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array into bytes, MSB-first, zero-padded at the tail."""
    return np.packbits(bits)


def unpack_bits(data: np.ndarray) -> np.ndarray:
    """Unpack bytes into a 0/1 array, MSB-first."""
    return np.unpackbits(data)


# ----------------------------------------------------------------------
# ZFP negabinary + bit planes
# ----------------------------------------------------------------------

_NB_MASK = np.uint64(0xAAAAAAAAAAAAAAAA)


def negabinary_encode(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    return (v + _NB_MASK) ^ _NB_MASK


def negabinary_decode(values: np.ndarray) -> np.ndarray:
    return ((values ^ _NB_MASK) - _NB_MASK).astype(np.int64)


def zfp_encode_plane_group(rows: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Emit flag/payload chunks for a kept-plane group in one masked
    flatten over the ``(g, kv, 1 + block_size)`` chunk tensor."""
    shifts = planes.astype(np.uint64)[None, :, None]
    bits = ((rows[:, None, :] >> shifts) & np.uint64(1)).astype(np.uint8)
    flags = bits.any(axis=2).astype(np.uint8)  # (g, kv)
    chunks = np.concatenate([flags[:, :, None], bits], axis=2)
    mask = np.ones_like(chunks, dtype=bool)
    mask[:, :, 1:] = flags[:, :, None].astype(bool)
    return chunks[mask]


def zfp_decode_plane_group(
    bits: np.ndarray, nchunks: int, block_size: int
) -> Tuple[np.ndarray, int]:
    """Walk the chunk chain (1 or ``1 + block_size`` bits each) with the
    segmented lockstep walk. Once the chunks cover the whole stream, the
    unmarked bits are exactly the flagged payloads, in chunk order."""
    nbits = bits.size
    width = np.int64(block_size)

    def step(pos: np.ndarray) -> np.ndarray:
        return pos + 1 + bits[pos] * width

    chain, mask = walk_chain(step, nbits, nchunks)
    flags = bits[chain].astype(bool)
    consumed = int(chain[-1]) + 1 + (block_size if flags[-1] else 0) if nchunks else 0
    if consumed != nbits:
        raise ValueError(
            f"plane group length mismatch: consumed {consumed} of {nbits} bits"
        )
    plane_vals = np.zeros((nchunks, block_size), dtype=np.uint64)
    plane_vals[flags] = bits[~mask].reshape(-1, block_size)
    return plane_vals, consumed


# ----------------------------------------------------------------------
# SZ grid quantizer
# ----------------------------------------------------------------------


def sz_quantize(data: np.ndarray, origin: float, bin_width: float) -> np.ndarray:
    scaled = (data - origin) / bin_width
    return np.rint(scaled).astype(np.int64)


def sz_reconstruct(indices: np.ndarray, origin: float, bin_width: float) -> np.ndarray:
    return origin + indices.astype(np.float64) * bin_width

"""Vectorized traversal of variable-length chunk chains.

Decoding a stream of variable-length chunks (Huffman codes, ZFP plane
records) is inherently sequential: the next chunk starts where the
current one ends. A per-chunk Python loop is orders of magnitude too
slow for realistic streams, so :func:`walk_chain` walks the chain with
a **segmented lockstep walk**:

1. **Lanes.** The stream is cut into fixed segments of
   :data:`SEGMENT_BITS` bits and one lane starts at each segment's first
   bit. Every iteration advances all live lanes with one vectorized
   ``step(positions)`` call; a lane stops when it leaves its segment,
   and every position it visits is marked in a ``bool`` mask of length
   ``nbits``.
2. **Sync.** Segment *s*'s true entry is segment *s-1*'s exit. If that
   entry is already marked on lane *s*'s path, the lane is synchronized:
   only the marks before the entry are cleared. Otherwise the lane is
   re-walked from the entry until it lands on one of its old marks (the
   rest of the old path is then the true one) or leaves the segment.
   Self-synchronizing codes re-converge within a few chunks, so a
   re-walk round is short, and rounds repeat until every entry matches.
3. **Bounded fallback.** After :data:`MAX_ROUNDS` walks, the suffix from
   the first unresolved segment is finished by pointer doubling
   (:func:`follow_chain`). Streams with a period that never lines up
   with the segment grid (an all-flagged ZFP group with a constant
   payload, a fixed-length code) end there.

A walk costs at most ``SEGMENT_BITS`` Python iterations, so the walker
never runs O(n) Python iterations; the worst case is the doubling's
O(n log n) gathers on the suffix, the common case O(n) work overall.
Streams shorter than :data:`MIN_SEGMENTS` segments go straight to the
doubling, whose few bulk gathers beat a lockstep walk with few lanes.

:func:`follow_chain` is the doubling itself: given a jump table over
every position, it extracts the chain with O(log n) rounds of bulk
gathers (if ``chain`` holds the first ``m`` positions, ``jump^m``
applied to it yields the next ``m``).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["MAX_ROUNDS", "MIN_SEGMENTS", "SEGMENT_BITS", "follow_chain", "walk_chain"]

#: Bits per lane segment. Bounds the Python iterations of one walk.
SEGMENT_BITS = 2048

#: Walks (the first plus re-walks) before the doubling takes over.
MAX_ROUNDS = 6

#: Fewer segments than this are decoded by doubling alone.
MIN_SEGMENTS = 64

ESCAPE_MSG = "jump chain escaped the stream: corrupt input"

Step = Callable[[np.ndarray], np.ndarray]


def walk_chain(step: Step, nbits: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return the first *count* positions of the chain ``0 -> step(0) -> ...``.

    Parameters
    ----------
    step:
        Vectorized successor: maps an ``int64`` array of positions, all
        in ``[0, nbits)``, to the positions that follow them. Every step
        must advance (``step(p) > p``).
    nbits:
        Stream length; positions at or past it end the chain.
    count:
        Number of chain positions to return.

    Returns
    -------
    (chain, mask)
        ``chain`` is the ``int64`` array of the first *count* positions;
        ``mask`` is the ``bool`` array of length *nbits* marking them.
        When the chain ends exactly at *nbits* after *count* positions,
        ``mask`` marks no other position.

    Raises
    ------
    ValueError
        If fewer than *count* chain positions lie inside the stream
        (corrupt input).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    nseg = -(-nbits // SEGMENT_BITS)
    # Whole segments plus one unmarked slot that every position past
    # the last segment is clipped to in the merge test.
    marks = np.zeros(nseg * SEGMENT_BITS + 1, dtype=bool)
    mask = marks[:nbits]
    if count == 0:
        return np.empty(0, dtype=np.int64), mask
    if nbits <= 0:
        raise ValueError(ESCAPE_MSG)

    if nseg < MIN_SEGMENTS:
        _double_suffix(step, mask, 0, 0, count)
    else:
        lo = np.arange(nseg, dtype=np.int64) * SEGMENT_BITS
        hi = np.minimum(lo + SEGMENT_BITS, nbits)
        entry = lo.copy()
        exits = _walk(step, marks, np.arange(nseg), entry, hi)
        for rounds in range(1, MAX_ROUNDS + 1):
            stale = np.flatnonzero(entry[1:] != exits[:-1]) + 1
            if not stale.size:
                break
            if rounds == MAX_ROUNDS:
                first = int(stale[0])
                _double_suffix(
                    step, mask, int(lo[first]), int(exits[first - 1]), count
                )
                break
            entry[stale] = exits[stale - 1]
            exits[stale] = _walk(
                step, marks, stale, entry[stale], hi[stale], old_exit=exits[stale]
            )

    chain = np.flatnonzero(mask)
    if chain.size < count:
        raise ValueError(ESCAPE_MSG)
    return chain[:count], mask


def _walk(
    step: Step,
    marks: np.ndarray,
    lanes: np.ndarray,
    start: np.ndarray,
    hi: np.ndarray,
    old_exit: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Walk *lanes* in lockstep from *start* to their segment ends *hi*.

    Lane *s* owns segment *s* and marks only positions inside it. A
    re-walk (*old_exit* given) stops a lane early on a position its
    previous walk marked: from there the old path, and the old exit,
    hold. Its marks before that stop (or all of them, if it left the
    segment instead) are cleared before the new path is marked.
    Returns the lanes' exits: their first positions at or past *hi*.
    """
    rewalk = old_exit is not None
    exits = start.copy() if old_exit is None else old_exit.copy()
    stop = hi.copy()
    clip = marks.size - 1
    visited = []
    idx = np.arange(lanes.size)
    pos = start
    end = hi
    for _ in range(SEGMENT_BITS + 1):
        done = out = pos >= end
        if rewalk:
            hit = marks[np.minimum(pos, clip)] > out
            done = out | hit
        if np.count_nonzero(done):
            if rewalk:
                stop[idx[hit]] = pos[hit]
            exits[idx[out]] = pos[out]
            keep = ~done
            idx, pos, end = idx[keep], pos[keep], end[keep]
            if not idx.size:
                break
        visited.append(pos)
        pos = step(pos)
    else:
        raise ValueError("chain step must advance every position")

    if rewalk:
        rows = marks[:-1].reshape(-1, SEGMENT_BITS)
        kept = np.arange(SEGMENT_BITS) >= (stop - lanes * SEGMENT_BITS)[:, None]
        rows[lanes] &= kept
    if visited:
        marks[np.concatenate(visited)] = True
    return exits


def _double_suffix(
    step: Step, mask: np.ndarray, cut: int, entry: int, count: int
) -> None:
    """Re-mark the chain from *entry* on by pointer doubling.

    Marks before *cut* are the resolved prefix of the chain; the rest
    are cleared and replaced by the chain positions that complete it to
    *count* (or raise if the stream ends first).
    """
    nbits = mask.size
    mask[cut:] = False
    need = count - int(np.count_nonzero(mask[:cut]))
    if need <= 0:
        return
    if entry >= nbits:
        raise ValueError(ESCAPE_MSG)
    jumps = step(np.arange(entry, nbits, dtype=np.int64)) - entry
    mask[follow_chain(jumps, 0, need) + entry] = True


def follow_chain(jump_targets: np.ndarray, start: int, count: int) -> np.ndarray:
    """Return the first *count* positions of the chain ``p -> jump_targets[p]``.

    Parameters
    ----------
    jump_targets:
        1-D integer array; ``jump_targets[p]`` is the position following
        ``p``. Positions at or past ``len(jump_targets)`` terminate the
        chain (the caller guarantees the chain stays in bounds for the
        requested *count*).
    start:
        First chain position (included in the output).
    count:
        Number of chain positions to return.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length *count*: ``start, j[start], j[j[start]], ...``

    Raises
    ------
    ValueError
        If the chain escapes the valid index range before *count*
        positions have been produced (corrupt stream).
    """
    jumps = np.ascontiguousarray(jump_targets, dtype=np.int64)
    n = jumps.size
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if not 0 <= start < n:
        raise ValueError(f"start={start} out of range for chain of length {n}")

    # `doubled` maps p -> position 2^k chunks ahead; out-of-range targets
    # are clamped to a sentinel slot that self-loops at `n` so corrupt
    # streams surface as an explicit error instead of a wild gather.
    sentinel = n
    table = np.empty(n + 1, dtype=np.int64)
    table[:n] = np.where((jumps >= 0) & (jumps <= n), jumps, sentinel)
    table[sentinel] = sentinel

    # Invariant at the top of each round: chain[0:filled] is correct and
    # `table` advances a position by exactly `filled` chunks, so
    # table[chain[0:take]] yields chain[filled:filled+take].
    chain = np.empty(count, dtype=np.int64)
    chain[0] = start
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        chain[filled : filled + take] = table[chain[:take]]
        filled += take
        if filled < count:
            table = table[table]
    if np.any(chain >= n):
        raise ValueError(ESCAPE_MSG)
    return chain

"""Unit + property tests for the chain walkers: the segmented lockstep
walk (``walk_chain``) and the pointer doubling behind its fallback
(``follow_chain``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import chains
from repro.utils.chains import ESCAPE_MSG, follow_chain, walk_chain


def naive_chain(jumps, start, count):
    out, pos = [], start
    for _ in range(count):
        out.append(pos)
        pos = jumps[pos] if pos < len(jumps) else len(jumps)
    return out


class TestFollowChain:
    def test_empty_count(self):
        assert follow_chain(np.array([1, 2, 3]), 0, 0).size == 0

    def test_unit_steps(self):
        jumps = np.arange(1, 11)
        assert follow_chain(jumps, 0, 10).tolist() == list(range(10))

    def test_variable_steps(self):
        jumps = np.array([2, 99, 3, 7, 99, 99, 99, 8])
        assert follow_chain(jumps, 0, 4).tolist() == [0, 2, 3, 7]

    def test_start_offset(self):
        jumps = np.arange(1, 11)
        assert follow_chain(jumps, 4, 3).tolist() == [4, 5, 6]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            follow_chain(np.array([1]), 0, -1)

    def test_start_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            follow_chain(np.array([1, 2]), 5, 1)

    def test_chain_escaping_raises(self):
        # Position 1 jumps past the end; asking for 3 entries must fail.
        jumps = np.array([1, 50, 3])
        with pytest.raises(ValueError, match="corrupt"):
            follow_chain(jumps, 0, 3)

    def test_negative_jump_treated_as_corrupt(self):
        jumps = np.array([1, -5, 3])
        with pytest.raises(ValueError, match="corrupt"):
            follow_chain(jumps, 0, 3)

    def test_count_power_of_two_boundaries(self):
        # Exercises the doubling rounds at exact powers of two.
        n = 64
        jumps = np.arange(1, n + 1)
        for count in (1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 64):
            assert follow_chain(jumps, 0, count).tolist() == list(range(count))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_walk(self, data):
        n = data.draw(st.integers(2, 200))
        steps = data.draw(
            st.lists(st.integers(1, 5), min_size=n, max_size=n)
        )
        jumps = np.arange(n) + np.array(steps)
        jumps = np.minimum(jumps, n)
        start = data.draw(st.integers(0, n - 1))
        # Longest valid chain from start:
        max_count = len(naive_chain_until_end(jumps.tolist(), start, n))
        count = data.draw(st.integers(1, max_count))
        assert follow_chain(jumps, start, count).tolist() == naive_chain(
            jumps.tolist(), start, count
        )


def naive_chain_until_end(jumps, start, n):
    out, pos = [], start
    while pos < n:
        out.append(pos)
        pos = jumps[pos]
    return out


def stepper(steps):
    steps = np.asarray(steps, dtype=np.int64)
    return lambda pos: pos + steps[pos]


class TestWalkChain:
    def test_empty_count(self):
        chain, mask = walk_chain(stepper([1, 1]), 2, 0)
        assert chain.size == 0 and mask.shape == (2,) and not mask.any()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            walk_chain(stepper([1]), 1, -1)

    def test_empty_stream_escapes(self):
        with pytest.raises(ValueError, match=ESCAPE_MSG):
            walk_chain(stepper([]), 0, 1)

    def test_escape_when_stream_ends_first(self):
        with pytest.raises(ValueError, match=ESCAPE_MSG):
            walk_chain(stepper([2, 9, 5]), 3, 3)

    def test_non_advancing_step_rejected(self, monkeypatch):
        monkeypatch.setattr(chains, "MIN_SEGMENTS", 1)
        with pytest.raises(ValueError, match="must advance"):
            walk_chain(lambda pos: pos, 10, 3)

    def test_mask_marks_exactly_the_chain(self, monkeypatch):
        monkeypatch.setattr(chains, "SEGMENT_BITS", 8)
        monkeypatch.setattr(chains, "MIN_SEGMENTS", 2)
        steps = np.random.default_rng(0).integers(1, 6, 400)
        full = naive_chain_until_end((np.arange(400) + steps).tolist(), 0, 400)
        chain, mask = walk_chain(stepper(steps), 400, len(full))
        assert chain.tolist() == full
        assert np.flatnonzero(mask).tolist() == full

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_walk_across_segment_grids(self, data):
        # Tiny segments, few rounds and long steps put every path of the
        # walker to work: synchronized lanes, re-walks that merge or run
        # out, skipped segments and the doubling fallback.
        n = data.draw(st.integers(1, 600))
        period = data.draw(st.integers(1, 12))
        steps = data.draw(
            st.one_of(
                st.lists(st.integers(1, 9), min_size=n, max_size=n),
                st.lists(st.sampled_from([1, period]), min_size=n, max_size=n),
                st.just([period] * n),
                st.lists(st.integers(1, 80), min_size=n, max_size=n),
            )
        )
        jumps = (np.arange(n) + np.array(steps)).tolist()
        full = naive_chain_until_end(jumps, 0, n)
        count = data.draw(st.integers(1, len(full) + 2))
        with pytest.MonkeyPatch.context() as mp:
            segment = data.draw(st.sampled_from([4, 8, 16, 32]))
            mp.setattr(chains, "SEGMENT_BITS", segment)
            mp.setattr(chains, "MAX_ROUNDS", data.draw(st.integers(1, 6)))
            mp.setattr(chains, "MIN_SEGMENTS", data.draw(st.sampled_from([1, 2, 8])))
            if count > len(full):
                with pytest.raises(ValueError, match=ESCAPE_MSG):
                    walk_chain(stepper(steps), n, count)
                return
            chain, mask = walk_chain(stepper(steps), n, count)
        assert chain.tolist() == full[:count]
        assert mask[chain].all()
        if count == len(full):
            assert np.count_nonzero(mask) == count

"""Tests for the common index interface and binary-search baseline."""

import numpy as np
import pytest

from repro.baselines.binary_search import BinarySearchIndex
from repro.baselines.interfaces import OrderedIndex, SearchBounds
from repro.baselines.rmi_adapter import RMIAsIndex


class SloppyIndex(OrderedIndex):
    """Index returning deliberately wrong-but-plausible intervals, to
    exercise the interval-escape repair in ``lower_bound``."""

    name = "sloppy"

    def __init__(self, keys, offset):
        super().__init__(keys)
        self.offset = offset

    def search_bounds(self, key):
        center = int(np.searchsorted(self.keys, key)) + self.offset
        center = min(max(center, 0), self.n - 1)
        return SearchBounds(lo=center, hi=min(center + 2, self.n - 1),
                            hint=center)

    def size_in_bytes(self):
        return 0


class TestLowerBoundRepair:
    @pytest.mark.parametrize("offset", [-50, -3, 0, 3, 50])
    def test_repair_recovers_correct_position(self, books_keys, offset,
                                              mixed_queries, oracle):
        index = SloppyIndex(books_keys, offset)
        queries = mixed_queries(books_keys)
        got = index.lower_bound_batch(queries)
        np.testing.assert_array_equal(got, oracle(books_keys, queries))

    def test_rejects_empty_and_unsorted(self):
        with pytest.raises(ValueError, match="no keys"):
            SloppyIndex(np.array([], dtype=np.uint64), 0)
        with pytest.raises(ValueError, match="sorted"):
            SloppyIndex(np.array([3, 1], dtype=np.uint64), 0)
        # RMIAsIndex validates through its RMI alone (and adopts the
        # RMI's key array): the same inputs must still be refused.
        with pytest.raises(ValueError, match="empty"):
            RMIAsIndex(np.array([], dtype=np.uint64), layer2_size=4)
        with pytest.raises(ValueError, match="sorted"):
            RMIAsIndex(np.array([3, 1, 2], dtype=np.uint64), layer2_size=4)


class TestSearchBounds:
    def test_width(self):
        assert SearchBounds(lo=3, hi=9, hint=5).width == 7
        assert SearchBounds(lo=5, hi=4, hint=5).width == 0


class TestBinarySearchIndex:
    def test_matches_oracle(self, osmc_keys, mixed_queries, oracle):
        index = BinarySearchIndex(osmc_keys)
        queries = mixed_queries(osmc_keys)
        np.testing.assert_array_equal(
            index.lower_bound_batch(queries), oracle(osmc_keys, queries)
        )

    def test_zero_size_and_whole_array_bounds(self, books_keys):
        index = BinarySearchIndex(books_keys)
        assert index.size_in_bytes() == 0
        b = index.search_bounds(int(books_keys[0]))
        assert (b.lo, b.hi) == (0, len(books_keys) - 1)
        assert b.evaluation_steps == 0

    def test_duplicates_first_occurrence(self, wiki_keys, oracle):
        index = BinarySearchIndex(wiki_keys)
        dup_positions = np.flatnonzero(wiki_keys[1:] == wiki_keys[:-1])
        assert len(dup_positions) > 0  # wiki must contain duplicates
        q = wiki_keys[dup_positions[0] + 1]
        assert index.lower_bound(int(q)) == oracle(wiki_keys, np.array([q]))[0]

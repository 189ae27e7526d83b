"""Tests for the kNN base types: Neighbor, canonical ordering, merging."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.knn import Neighbor, canonical_knn, merge_partial_results


class TestNeighborOrdering:
    def test_orders_by_distance_then_id(self) -> None:
        assert Neighbor(1.0, 5) < Neighbor(2.0, 1)
        assert Neighbor(1.0, 1) < Neighbor(1.0, 2)

    def test_canonical_from_mapping(self) -> None:
        result = canonical_knn({3: 2.0, 1: 1.0, 2: 1.0}, 2)
        assert result == [Neighbor(1.0, 1), Neighbor(1.0, 2)]

    def test_canonical_from_sequence(self) -> None:
        pool = [Neighbor(2.0, 1), Neighbor(1.0, 2)]
        assert canonical_knn(pool, 5) == [Neighbor(1.0, 2), Neighbor(2.0, 1)]

    def test_canonical_truncates(self) -> None:
        assert len(canonical_knn({i: float(i) for i in range(10)}, 3)) == 3


class TestMergePartials:
    def test_merges_disjoint_partitions(self) -> None:
        a = [Neighbor(1.0, 1), Neighbor(4.0, 4)]
        b = [Neighbor(2.0, 2), Neighbor(3.0, 3)]
        merged = merge_partial_results([a, b], 3)
        assert [n.object_id for n in merged] == [1, 2, 3]

    def test_duplicate_object_keeps_min_distance(self) -> None:
        a = [Neighbor(5.0, 1)]
        b = [Neighbor(2.0, 1)]
        merged = merge_partial_results([a, b], 1)
        assert merged == [Neighbor(2.0, 1)]

    def test_empty_partials(self) -> None:
        assert merge_partial_results([], 5) == []
        assert merge_partial_results([[], []], 5) == []

    def test_some_partials_empty(self) -> None:
        """A worker whose partition holds < k objects returns a short
        (possibly empty) partial; the merge must not be disturbed."""
        a = [Neighbor(3.0, 7)]
        merged = merge_partial_results([[], a, []], 2)
        assert merged == [Neighbor(3.0, 7)]

    def test_k_larger_than_merged_pool(self) -> None:
        a = [Neighbor(1.0, 1)]
        b = [Neighbor(2.0, 2)]
        merged = merge_partial_results([a, b], 100)
        assert merged == [Neighbor(1.0, 1), Neighbor(2.0, 2)]

    def test_exact_distance_ties_break_by_object_id(self) -> None:
        """Equidistant objects across different partitions must rank by
        object id so every executor produces the identical answer."""
        a = [Neighbor(5.0, 9), Neighbor(5.0, 3)]
        b = [Neighbor(5.0, 1), Neighbor(5.0, 6)]
        merged = merge_partial_results([a, b], 3)
        assert merged == [Neighbor(5.0, 1), Neighbor(5.0, 3), Neighbor(5.0, 6)]

    def test_tie_at_the_k_boundary_is_deterministic(self) -> None:
        a = [Neighbor(1.0, 2), Neighbor(2.0, 5)]
        b = [Neighbor(2.0, 4)]
        assert merge_partial_results([a, b], 2) == [
            Neighbor(1.0, 2), Neighbor(2.0, 4),
        ]

    def test_k_zero(self) -> None:
        assert merge_partial_results([[Neighbor(1.0, 1)]], 0) == []

    def test_negative_k_rejected(self) -> None:
        """A negative k used to slice from the end of the sorted pool,
        returning the *worst* candidates; it must raise instead."""
        with pytest.raises(ValueError):
            merge_partial_results([[Neighbor(1.0, 1)]], -1)
        with pytest.raises(ValueError):
            canonical_knn({1: 1.0}, -2)

    def test_keeps_the_partials_own_neighbors(self) -> None:
        """Ranking is by ``(distance, object_id)`` keys: the merge sorts
        without ``Neighbor.__lt__`` and builds no ``Neighbor``."""
        a = [Neighbor(1.0, 1), Neighbor(4.0, 4)]
        b = [Neighbor(2.0, 2), Neighbor(3.0, 3)]
        merged = merge_partial_results([a, b], 3)
        assert type(merged) is list
        assert [id(n) for n in merged] == [id(a[0]), id(b[0]), id(b[1])]

    def test_single_partial_is_still_canonicalized(self) -> None:
        """One partial gets no shortcut here: unsorted, over-long or
        with a repeated object, it is ranked like any other pool.  (The
        pool's ledger skips the merge for a *worker's* single complete
        partial, which is canonical by the ``query`` contract.)"""
        messy = [Neighbor(3.0, 7), Neighbor(1.0, 2), Neighbor(2.0, 7)]
        assert merge_partial_results([messy], 5) == [
            Neighbor(1.0, 2), Neighbor(2.0, 7),
        ]
        assert merge_partial_results([messy], 1) == [Neighbor(1.0, 2)]
        canonical = [Neighbor(1.0, 2), Neighbor(2.0, 7)]
        merged = merge_partial_results([canonical], 2)
        assert merged == canonical and merged is not canonical

    @given(
        partials=st.lists(
            st.lists(
                st.tuples(
                    st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    st.integers(min_value=0, max_value=50),
                ),
                max_size=10,
            ),
            max_size=5,
        ),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_merge_equals_global_topk(self, partials, k) -> None:
        """Merging per-partition top lists == top-k of the union, when
        every partial reports all its objects."""
        neighbor_partials = [
            [Neighbor(d, o) for d, o in part] for part in partials
        ]
        merged = merge_partial_results(neighbor_partials, k)
        best: dict[int, float] = {}
        for part in partials:
            for d, o in part:
                if o not in best or d < best[o]:
                    best[o] = d
        expected = sorted(Neighbor(d, o) for o, d in best.items())[:k]
        assert merged == expected

    @given(
        pool=st.dictionaries(
            st.integers(0, 30),
            st.floats(min_value=0, max_value=100, allow_nan=False),
            max_size=20,
        ),
        k=st.integers(min_value=0, max_value=25),
    )
    def test_canonical_is_sorted_prefix(self, pool, k) -> None:
        result = canonical_knn(pool, k)
        assert len(result) == min(k, len(pool))
        assert result == sorted(result)

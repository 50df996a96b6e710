"""Unit and property tests for :mod:`repro.util.bitset`."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitset import BitSet

id_sets = st.sets(st.integers(min_value=0, max_value=300), max_size=40)


class TestConstruction:
    def test_empty(self):
        bs = BitSet()
        assert len(bs) == 0
        assert not bs
        assert list(bs) == []

    def test_from_iterable(self):
        bs = BitSet([3, 1, 4, 1, 5])
        assert sorted(bs) == [1, 3, 4, 5]
        assert len(bs) == 4

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            BitSet([-1])

    def test_from_bits(self):
        assert BitSet.from_bits(0b1011).to_set() == {0, 1, 3}

    def test_from_bits_negative_rejected(self):
        with pytest.raises(ValueError):
            BitSet.from_bits(-1)

    def test_full(self):
        assert BitSet.full(4).to_set() == {0, 1, 2, 3}
        assert BitSet.full(0).to_set() == set()

    def test_full_negative_rejected(self):
        with pytest.raises(ValueError):
            BitSet.full(-2)


class TestMembershipAndMutation:
    def test_contains(self):
        bs = BitSet([2, 7])
        assert 2 in bs
        assert 7 in bs
        assert 3 not in bs
        assert -1 not in bs

    def test_add_discard(self):
        bs = BitSet()
        bs.add(5)
        assert 5 in bs
        bs.discard(5)
        assert 5 not in bs

    def test_discard_missing_is_noop(self):
        bs = BitSet([1])
        bs.discard(9)
        bs.discard(-3)
        assert bs.to_set() == {1}

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            BitSet().add(-2)

    def test_union_update(self):
        bs = BitSet([1, 2])
        bs.union_update(BitSet([2, 5]))
        assert bs.to_set() == {1, 2, 5}

    def test_union_update_leaves_other_unchanged(self):
        other = BitSet([3])
        BitSet([1]).union_update(other)
        assert other.to_set() == {3}

    def test_union_update_with_empty_is_noop(self):
        bs = BitSet([4])
        bs.union_update(BitSet())
        assert bs.to_set() == {4}


class TestAlgebra:
    def test_and(self):
        assert (BitSet([1, 2, 3]) & BitSet([2, 3, 4])).to_set() == {2, 3}

    def test_or(self):
        assert (BitSet([1]) | BitSet([2])).to_set() == {1, 2}

    def test_xor(self):
        assert (BitSet([1, 2]) ^ BitSet([2, 3])).to_set() == {1, 3}

    def test_sub(self):
        assert (BitSet([1, 2, 3]) - BitSet([2])).to_set() == {1, 3}

    def test_subset_superset(self):
        small, big = BitSet([1, 2]), BitSet([1, 2, 3])
        assert small.issubset(big)
        assert big.issuperset(small)
        assert not big.issubset(small)

    def test_disjoint(self):
        assert BitSet([1]).isdisjoint(BitSet([2]))
        assert not BitSet([1, 2]).isdisjoint(BitSet([2]))

    def test_equality_and_hash(self):
        assert BitSet([1, 2]) == BitSet([2, 1])
        assert hash(BitSet([1, 2])) == hash(BitSet([2, 1]))
        assert BitSet([1]) != BitSet([2])

    def test_copy_is_independent(self):
        original = BitSet([1])
        copy = original.copy()
        copy.add(2)
        assert original.to_set() == {1}

    def test_repr_lists_members(self):
        assert repr(BitSet([2, 0])) == "BitSet({0, 2})"

    def test_offset(self):
        assert BitSet([0, 2]).offset(3).to_set() == {3, 5}

    def test_offset_zero_is_copy(self):
        original = BitSet([1, 4])
        shifted = original.offset(0)
        assert shifted == original
        shifted.add(9)
        assert original.to_set() == {1, 4}

    def test_offset_negative_rejected(self):
        with pytest.raises(ValueError):
            BitSet([1]).offset(-1)


class TestIncrementalMaintenance:
    def test_clear_bit_present(self):
        bs = BitSet([1, 5])
        assert bs.clear_bit(5) is True
        assert bs.to_set() == {1}

    def test_clear_bit_absent(self):
        bs = BitSet([1])
        assert bs.clear_bit(3) is False
        assert bs.clear_bit(-2) is False
        assert bs.to_set() == {1}

    def test_difference_update(self):
        bs = BitSet([1, 2, 3])
        bs.difference_update(BitSet([2, 9]))
        assert bs.to_set() == {1, 3}

    def test_difference_update_leaves_other_unchanged(self):
        other = BitSet([1, 2])
        BitSet([2]).difference_update(other)
        assert other.to_set() == {1, 2}

    def test_compact_renumbers(self):
        bs = BitSet([0, 2, 5])
        assert bs.compact({0: 0, 2: 1, 5: 2}).to_set() == {0, 1, 2}

    def test_compact_drops_unmapped(self):
        assert BitSet([0, 1, 2]).compact({1: 0}).to_set() == {0}

    def test_compact_returns_new_instance(self):
        original = BitSet([3])
        compacted = original.compact({3: 0})
        compacted.add(7)
        assert original.to_set() == {3}

    def test_compact_negative_target_rejected(self):
        with pytest.raises(ValueError):
            BitSet([1]).compact({1: -1})


class TestHypothesis:
    @given(id_sets, id_sets)
    def test_and_matches_set_intersection(self, a, b):
        assert (BitSet(a) & BitSet(b)).to_set() == a & b

    @given(id_sets, id_sets)
    def test_or_matches_set_union(self, a, b):
        assert (BitSet(a) | BitSet(b)).to_set() == a | b

    @given(id_sets, id_sets)
    def test_difference_matches_set_difference(self, a, b):
        assert (BitSet(a) - BitSet(b)).to_set() == a - b

    @given(id_sets)
    def test_roundtrip_and_len(self, a):
        bs = BitSet(a)
        assert bs.to_set() == a
        assert len(bs) == len(a)

    @given(id_sets, id_sets)
    def test_subset_consistent(self, a, b):
        assert BitSet(a).issubset(BitSet(b)) == (a <= b)

    @given(id_sets)
    def test_iteration_sorted_ascending(self, a):
        assert list(BitSet(a)) == sorted(a)

    @given(id_sets, id_sets)
    def test_union_update_matches_set_union(self, a, b):
        bs = BitSet(a)
        bs.union_update(BitSet(b))
        assert bs.to_set() == a | b

    @given(id_sets, st.integers(min_value=0, max_value=64))
    def test_offset_shifts_every_member(self, a, k):
        assert BitSet(a).offset(k).to_set() == {i + k for i in a}

    @given(id_sets, id_sets, st.integers(min_value=0, max_value=64))
    def test_offset_distributes_over_union(self, a, b, k):
        # The merge layer relies on shift-then-OR == OR-then-shift.
        left = BitSet(a).offset(k) | BitSet(b).offset(k)
        right = (BitSet(a) | BitSet(b)).offset(k)
        assert left == right

    @given(id_sets, st.integers(min_value=0, max_value=300))
    def test_clear_bit_matches_set_discard(self, a, i):
        bs = BitSet(a)
        assert bs.clear_bit(i) == (i in a)
        assert bs.to_set() == a - {i}

    @given(id_sets, id_sets)
    def test_difference_update_matches_set_difference(self, a, b):
        bs = BitSet(a)
        bs.difference_update(BitSet(b))
        assert bs.to_set() == a - b

    @given(id_sets, id_sets)
    def test_compact_matches_mapped_survivors(self, a, survivors):
        # A dense renumbering of the survivor set, exactly as the
        # occurrence-column compaction builds it.
        id_map = {i: n for n, i in enumerate(sorted(survivors))}
        expected = {id_map[i] for i in a & survivors}
        assert BitSet(a).compact(id_map).to_set() == expected

    @given(id_sets)
    def test_compact_identity_map_roundtrips(self, a):
        identity = {i: i for i in a}
        assert BitSet(a).compact(identity).to_set() == a

    @given(id_sets, id_sets)
    def test_overlap_matches_intersection_size(self, a, b):
        assert BitSet(a).intersection_count(BitSet(b)) == len(a & b)

    @given(id_sets, id_sets)
    def test_jaccard_matches_set_definition(self, a, b):
        expected = 1.0 if not (a | b) else len(a & b) / len(a | b)
        assert BitSet(a).jaccard(BitSet(b)) == expected

    @given(id_sets, id_sets)
    def test_jaccard_bounds_and_symmetry(self, a, b):
        left = BitSet(a).jaccard(BitSet(b))
        assert 0.0 <= left <= 1.0
        assert left == BitSet(b).jaccard(BitSet(a))

    @given(id_sets)
    def test_jaccard_self_is_one(self, a):
        assert BitSet(a).jaccard(BitSet(a)) == 1.0

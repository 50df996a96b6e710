"""Wide-id property suite: :class:`BitSet` against Python's ``set``.

``tests/test_bitset.py`` checks the set algebra over small ids; this
half of the suite drives Hypothesis id sets that straddle 2**16 and
reach a few times past it, mixing sparse members with long runs of
consecutive ids, and checks every operation against the plain ``set``
answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitset import BitSet

_WIDE = 1 << 16

# Big-set cases (200k-member ranges) can take longer than Hypothesis's
# default 200 ms deadline on shared CI runners; correctness, not
# latency, is what this suite pins.
no_deadline = settings(deadline=None)

# Ids concentrated on the interesting coordinates: small, around 2**16,
# and a couple of multiples out.
_ids = st.one_of(
    st.integers(min_value=0, max_value=192),
    st.integers(min_value=_WIDE - 4, max_value=_WIDE + 4),
    st.integers(min_value=0, max_value=4 * _WIDE),
)

# A run of consecutive ids.
_runs = st.builds(
    lambda start, length: list(range(start, start + length)),
    st.integers(min_value=0, max_value=2 * _WIDE),
    st.integers(min_value=1, max_value=300),
)

_id_sets = st.one_of(
    st.lists(_ids, max_size=60).map(set),
    _runs.map(set),
    st.tuples(st.lists(_ids, max_size=30).map(set), _runs.map(set)).map(
        lambda pair: pair[0] | pair[1]
    ),
)


def _check(value: BitSet, expected: set[int]) -> None:
    """The full observational equality battery for one value."""
    assert value.to_set() == expected
    assert len(value) == len(expected)
    assert bool(value) == bool(expected)
    assert list(value) == sorted(expected)
    assert value.bits == sum(1 << i for i in expected)


class TestConstruction:
    @no_deadline
    @given(_id_sets)
    def test_roundtrip_and_len(self, ids):
        _check(BitSet(ids), ids)

    @no_deadline
    @given(_id_sets)
    def test_from_bits_matches(self, ids):
        _check(BitSet.from_bits(BitSet(ids).bits), ids)

    @no_deadline
    @given(st.integers(min_value=0, max_value=3 * _WIDE + 7))
    def test_full(self, n):
        full = BitSet.full(n)
        assert len(full) == n
        assert full.bits == (1 << n) - 1
        assert (n - 1 in full) == (n > 0)
        assert n not in full

    @no_deadline
    @given(_id_sets, _ids)
    def test_contains(self, ids, probe):
        assert (probe in BitSet(ids)) == (probe in ids)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            BitSet([-1])
        with pytest.raises(ValueError):
            BitSet().add(-5)


class TestBinaryOps:
    @no_deadline
    @given(_id_sets, _id_sets)
    def test_and_or_xor_sub(self, a, b):
        left, right = BitSet(a), BitSet(b)
        _check(left & right, a & b)
        _check(left | right, a | b)
        _check(left ^ right, a ^ b)
        _check(left - right, a - b)

    @no_deadline
    @given(_id_sets, _id_sets)
    def test_named_aliases(self, a, b):
        left, right = BitSet(a), BitSet(b)
        assert left.intersection(right).to_set() == a & b
        assert left.union(right).to_set() == a | b
        assert left.difference(right).to_set() == a - b

    @no_deadline
    @given(_id_sets, _id_sets)
    def test_counting_kernels(self, a, b):
        left, right = BitSet(a), BitSet(b)
        assert left.intersection_count(right) == len(a & b)
        expected = 1.0 if not (a | b) else len(a & b) / len(a | b)
        assert left.jaccard(right) == pytest.approx(expected)
        assert left.isdisjoint(right) == a.isdisjoint(b)
        assert left.issubset(right) == (a <= b)
        assert left.issuperset(right) == (a >= b)

    @no_deadline
    @given(_id_sets, _id_sets)
    def test_equality_and_hash(self, a, b):
        left, right = BitSet(a), BitSet(b)
        assert (left == right) == (a == b)
        if left == right:
            assert hash(left) == hash(right)


class TestMutation:
    @no_deadline
    @given(_id_sets, _ids)
    def test_add_discard(self, ids, extra):
        value = BitSet(ids)
        value.add(extra)
        _check(value, ids | {extra})
        value.discard(extra)
        _check(value, ids - {extra})

    @no_deadline
    @given(_id_sets, _ids)
    def test_clear_bit(self, ids, victim):
        value = BitSet(ids)
        assert value.clear_bit(victim) == (victim in ids)
        _check(value, ids - {victim})

    @no_deadline
    @given(_id_sets, _id_sets)
    def test_union_update(self, a, b):
        value = BitSet(a)
        value.union_update(BitSet(b))
        _check(value, a | b)

    @no_deadline
    @given(_id_sets, _id_sets)
    def test_difference_update(self, a, b):
        value = BitSet(a)
        value.difference_update(BitSet(b))
        _check(value, a - b)

    @no_deadline
    @given(_id_sets)
    def test_copy_is_independent(self, ids):
        value = BitSet(ids)
        dup = value.copy()
        dup.add(3 * _WIDE + 11)
        assert value.to_set() == ids


class TestShiftingAndRemapping:
    @settings(max_examples=60, deadline=None)
    @given(_id_sets, st.integers(min_value=0, max_value=2 * _WIDE + 3))
    def test_offset(self, ids, k):
        _check(BitSet(ids).offset(k), {i + k for i in ids})

    @no_deadline
    @given(_id_sets, st.integers(min_value=0, max_value=40))
    def test_compact(self, ids, salt):
        # A non-monotonic but injective renumbering that drops every
        # third member — the updater's compaction shape.
        id_map = {
            i: (i * 7 + salt) % (5 * _WIDE)
            for n, i in enumerate(sorted(ids))
            if n % 3 != 0
        }
        if len(set(id_map.values())) != len(id_map):
            id_map = {i: n for n, i in enumerate(sorted(id_map))}
        expected = {id_map[i] for i in ids if i in id_map}
        _check(BitSet(ids).compact(id_map), expected)

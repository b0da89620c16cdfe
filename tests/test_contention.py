"""Carriers, independence, and the subset contention relation."""

import itertools

import pytest
from hypothesis import given, strategies as st

from linkalg.contention import (
    CSet,
    coproduct,
    discrete,
    full,
    indep_masks,
    indep_subsets,
    is_independent,
    mask_of,
    pc_contends_masks,
    powerset_contention,
    set_of,
)
from linkalg.shape import SpanFormatError

from oracles import all_csets


def csets(max_size=5):
    def build(draw_pairs):
        n, bits = draw_pairs
        pairs = list(itertools.combinations(range(n), 2))
        chosen = frozenset(p for p, b in zip(pairs, bits) if b)
        return CSet(n, chosen)

    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        )
    ).map(build)


def test_normalisation_drops_reflexive_and_orients():
    x = CSet(3, frozenset({(2, 1), (1, 1)}))
    assert x.contention == frozenset({(1, 2)})


def test_out_of_range_pair_rejected():
    with pytest.raises(ValueError):
        CSet(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        CSet(0, frozenset({(0, 0)}))


def test_contends_is_reflexive_and_symmetric():
    x = CSet(3, frozenset({(0, 1)}))
    for i in range(3):
        assert x.contends(i, i)
    assert x.contends(0, 1) and x.contends(1, 0)
    assert not x.contends(0, 2)
    for a, b in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="^element out of range for size 3$"):
            x.contends(a, b)


def test_independent_subset_listing_order():
    # canonical order is increasing bitmask: {}, {0}, {1}, {0,1}, ...
    assert [sorted(s) for s in indep_subsets(discrete(2))] == [[], [0], [1], [0, 1]]
    assert [sorted(s) for s in indep_subsets(full(2))] == [[], [0], [1]]


def test_singletons_always_independent():
    for x in all_csets(4):
        for i in range(x.size):
            assert is_independent(x, {i})


@given(csets())
def test_indep_masks_against_definition(x):
    masks = set(indep_masks(x))
    for m in range(1 << x.size):
        elems = sorted(set_of(m))
        ok = all(
            not x.contends(a, b) for a, b in itertools.combinations(elems, 2)
        )
        assert (m in masks) == ok


@given(csets(4))
def test_independent_sets_closed_under_intersection_and_difference(x):
    ms = indep_masks(x)
    for u in ms:
        for v in ms:
            assert (u & v) in set(ms)
            assert (u & ~v) in set(ms)


def test_independent_sets_not_closed_under_union():
    x = full(2)
    assert is_independent(x, {0}) and is_independent(x, {1})
    assert not is_independent(x, {0, 1})


def test_coproduct_never_crosses_components():
    x, y = full(2), CSet(3, frozenset({(0, 2)}))
    z, inl, inr = coproduct(x, y)
    assert z.size == 5
    assert inl == (0, 1) and inr == (2, 3, 4)
    for a in inl:
        for b in inr:
            assert not z.contends(a, b)
    assert z.contends(inl[0], inl[1])
    assert z.contends(inr[0], inr[2])
    assert not z.contends(inr[0], inr[1])


def test_subset_contention_shared_element_counts():
    # reflexivity means overlapping subsets always contend
    x = discrete(3)
    assert powerset_contention(x, {0, 1}, {1, 2})
    assert not powerset_contention(x, {0}, {1, 2})


def test_subset_contention_via_adjacent_elements():
    x = CSet(4, frozenset({(1, 2)}))
    assert powerset_contention(x, {0, 1}, {2, 3})
    assert not powerset_contention(x, {0, 1}, {3})


def test_subset_contention_requires_independent_arguments():
    with pytest.raises(ValueError, match=r"^\[0, 1\] is not independent$"):
        powerset_contention(full(2), {0, 1}, {0})
    with pytest.raises(ValueError, match=r"^\[0, 1\] is not independent$"):
        powerset_contention(full(2), {0}, {0, 1})


@given(csets(4))
def test_pc_contends_matches_elementwise_definition(x):
    ms = indep_masks(x)
    for u in ms[: 12]:
        for v in ms[: 12]:
            want = any(
                x.contends(a, b) for a in set_of(u) for b in set_of(v)
            )
            assert pc_contends_masks(x, u, v) == want


def test_serialisation_round_trip():
    x = CSet(4, frozenset({(3, 1), (0, 2)}))
    assert CSet.from_dict(x.to_dict()) == x
    assert x.to_dict()["contention"] == [[0, 2], [1, 3]]


@pytest.mark.parametrize(
    "d, message",
    [
        ({"size": True, "contention": []}, "carrier size must be a natural number, got true"),
        ({"size": 2, "contention": [[0, 1.5]]}, "contention[0][1] must be a natural number, got 1.5"),
    ],
)
def test_from_dict_refuses_booleans_and_floats(d, message):
    with pytest.raises(SpanFormatError) as e:
        CSet.from_dict(d)
    assert str(e.value) == message


def test_mask_set_round_trip():
    x = discrete(6)
    for elems in ({0, 3, 5}, set(), {2}):
        assert set_of(mask_of(x, elems)) == frozenset(elems)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CSet(True),
        lambda: CSet(2.0),
        lambda: CSet(2, [(False, True)]),
        lambda: CSet(2, [(0, 1.0)]),
        lambda: mask_of(discrete(2), [True]),
    ],
    ids=["CSet(True)", "CSet(2.0)", "bool pair", "float pair", "mask_of bool"],
)
def test_constructor_refuses_booleans_and_floats(build):
    with pytest.raises(SpanFormatError, match="must be a natural number"):
        build()

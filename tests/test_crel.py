"""Arrows between carriers: validation, the lift, and the category laws."""

import pytest

from linkalg.contention import CSet, discrete, full, indep_masks, set_of
from linkalg.crel import (
    CRel,
    compose,
    crel,
    graph,
    identity,
    lift,
    lift_mask,
    op_graph,
    validate,
)
from linkalg.shape import SpanFormatError

from draws import random_crel
from oracles import all_crels, all_csets


def test_validate_rejects_dependent_image():
    r = CRel(discrete(1), full(2), (frozenset({0, 1}),))
    res = validate(r)
    assert not res
    assert "not independent" in res.reason


def test_validate_rejects_contending_images_of_independent_elements():
    # both elements map onto the same target, but do not contend themselves
    r = CRel(discrete(2), discrete(1), (frozenset({0}), frozenset({0})))
    res = validate(r)
    assert not res
    assert "contend" in res.reason


def test_factory_raises_with_reason():
    with pytest.raises(ValueError, match="invalid relation"):
        crel(discrete(2), discrete(1), [[0], [0]])


def test_shape_mismatches_raise():
    with pytest.raises(ValueError):
        CRel(discrete(2), discrete(2), (frozenset([0]),))
    with pytest.raises(ValueError):
        CRel(discrete(1), discrete(1), (frozenset([3]),))


def test_empty_images_always_fine():
    r = crel(full(3), discrete(0), [[], [], []])
    assert validate(r)


def test_identity_and_units(rng):
    for _ in range(40):
        f = random_crel(rng)
        assert compose(identity(f.dom), f) == f
        assert compose(f, identity(f.cod)) == f


def test_compose_requires_matching_middle():
    f = identity(discrete(1))
    g = identity(discrete(2))
    with pytest.raises(ValueError, match="middle"):
        compose(f, g)


def test_associativity_random_chains(rng):
    for _ in range(60):
        f = random_crel(rng)
        g = random_crel(rng, dom=f.cod)
        h = random_crel(rng, dom=g.cod)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_lift_rejects_dependent_argument():
    f = identity(full(2))
    with pytest.raises(ValueError):
        lift(f, {0, 1})


def test_lift_of_union_is_union_on_independent_parts():
    x = discrete(3)
    f = crel(x, discrete(4), [[0], [1, 2], [3]])
    assert lift(f, {0, 1}) == {0, 1, 2}
    assert lift(f, set()) == set()


def test_difference_and_intersection_laws_small():
    """lift(U' minus U) = lift(U') minus lift(U) for U inside U', and
    lift of an intersection of subsets of an independent set is the
    intersection of the lifts.  Exhaustive over tiny arrows."""
    for dom in all_csets(2):
        for cod in all_csets(2):
            for f in all_crels(dom, cod):
                ms = indep_masks(dom)
                for mu in ms:
                    for mv in ms:
                        if mv & ~mu == 0:  # V inside U
                            assert lift_mask(f, mu & ~mv) == lift_mask(f, mu) & ~lift_mask(f, mv)
                        if (mu | mv) in ms:
                            assert lift_mask(f, mu & mv) == lift_mask(f, mu) & lift_mask(f, mv)


def test_difference_law_needs_the_arrow_condition():
    # an ordinary relation with overlapping images: both elements of a
    # discrete domain hit port 0.  Not a valid arrow here, and the
    # difference law indeed breaks on it.
    bad = CRel(discrete(2), discrete(1), (frozenset([0]), frozenset([0])))
    assert not validate(bad)
    whole, part = 0b11, 0b01
    lhs = lift_mask(bad, whole & ~part)
    rhs = lift_mask(bad, whole) & ~lift_mask(bad, part)
    assert lhs != rhs


def test_graph_and_op_graph():
    f = graph([1, 0], 2)
    assert f.map == (frozenset([1]), frozenset([0]))
    g = op_graph([0, 0, 1], 2)
    assert [sorted(u) for u in g.map] == [[0, 1], [2]]
    with pytest.raises(ValueError):
        op_graph([2], 1)


def test_graph_of_noninjective_needs_contention():
    fn = [0, 0]
    bad = graph(fn, 1)
    assert not validate(bad)
    good = graph(fn, 1, dom=full(2))
    assert validate(good)


def test_random_crel_always_valid(rng):
    for _ in range(200):
        assert validate(random_crel(rng))


def test_serialisation_round_trip(rng):
    for _ in range(20):
        f = random_crel(rng)
        assert CRel.from_dict(f.to_dict()) == f


def test_from_dict_refuses_booleans_and_floats():
    good = crel(discrete(1), discrete(1), [[0]]).to_dict()
    for bad, message in (
        ({**good, "dom": {"size": True, "contention": []}}, "dom size must be a natural number, got true"),
        ({**good, "cod": {"size": 1.0, "contention": []}}, "cod size must be a natural number, got 1.0"),
        ({**good, "map": [[0.5]]}, "map[0][0] must be a natural number, got 0.5"),
        ({**good, "map": [[True]]}, "map[0][0] must be a natural number, got true"),
        ({**good, "dom": {"size": 10**15, "contention": []}}, "map has 1 entries, expected 1000000000000000"),
    ):
        with pytest.raises(SpanFormatError) as e:
            CRel.from_dict(bad)
        assert str(e.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: CRel(discrete(1), discrete(2), [[True]]),
        lambda: CRel(discrete(1), discrete(2), [[0.0]]),
        lambda: op_graph([True], 2),
        lambda: op_graph([1.0], 2),
    ],
    ids=["CRel bool", "CRel float", "op_graph bool", "op_graph float"],
)
def test_constructors_refuse_booleans_and_floats(build):
    with pytest.raises(SpanFormatError, match="must be a natural number"):
        build()

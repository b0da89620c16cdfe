"""Spans in the multiplicity model."""

import pytest

from linkalg.shape import SpanFormatError
from linkalg.span_m import (
    SpanM,
    compose,
    factorise,
    find_iso,
    generators_m,
    identity_span_m,
    iso_check,
    span_m,
    tensor,
)

from draws import random_span_m


GENS = generators_m()


def test_generator_boundaries_match_contention_model():
    from linkalg.span_c import generators

    for name, s in generators().items():
        m = GENS[name]
        assert (m.left, m.right) == (s.left, s.right), name


def test_split_and_copy_still_differ_here():
    # copy is one link using both right ports, split is two links
    assert GENS["copy"].carrier == 1 and GENS["split"].carrier == 2
    assert not iso_check(GENS["split"], GENS["copy"])
    assert not iso_check(GENS["join"], GENS["merge"])


def test_joint_injectivity_enforced():
    with pytest.raises(ValueError, match="jointly injective"):
        span_m(1, 1, [[1], [1]], [[0], [0]])
    with pytest.raises(ValueError, match="^invalid span: legs are not jointly injective$"):
        SpanM.from_dict({"model": "m", "left": 1, "right": 1, "carrier": 2,
                         "lleg": [[1], [1]], "rleg": [[0], [0]]})


@pytest.mark.parametrize("entry", [True, 1.5, "2", -1])
def test_span_entries_must_be_ints_at_least_zero(entry):
    """Entries are not coerced: [[1.5]] is refused, not read as [[1]]."""
    with pytest.raises(SpanFormatError, match=r"^lleg\[0\]\[0\] must be a natural number"):
        span_m(1, 1, [(entry,)], [(1,)])
    with pytest.raises(SpanFormatError, match=r"^rleg\[0\]\[0\] must be a natural number"):
        span_m(1, 1, [(1,)], [(entry,)])


def test_mismatched_shapes_are_refused():
    with pytest.raises(ValueError, match="^boundary mismatch: 2 vs 1$"):
        compose(GENS["copy"], GENS["copy"])
    with pytest.raises(ValueError, match="^leg row counts differ$"):
        span_m(1, 1, [[1]], [[1], [0]])
    with pytest.raises(SpanFormatError, match=r"^rleg\[0\] has 2 entries, expected 1$"):
        span_m(1, 1, [[1]], [[1, 0]])


def test_split_then_join_is_identity():
    s = compose(GENS["split"], GENS["join"])
    assert iso_check(s, identity_span_m(1))


def test_join_then_split_merges_parallel_paths():
    s = compose(GENS["join"], GENS["split"])
    # four crossing links, one per port pair, each weight 1
    assert s.carrier == 4
    assert s.links == (
        ((0, 1), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((1, 0), (1, 0)),
    )


def test_copy_then_join_doubles_the_weight():
    s = compose(GENS["copy"], GENS["join"])
    assert s.carrier == 1
    assert s.links == (((1,), (2,)),)


def test_compose_factorises_repeated_pairs():
    # two parallel links with equal images collapse after composition
    a = span_m(1, 2, [[1]], [[1, 1]])
    b = span_m(2, 0, [[1, 0], [0, 1]], [[], []])
    s = compose(a, b)
    assert s.links == (((1,), ()),)


def test_identity_units(rng):
    for _ in range(40):
        s = random_span_m(rng)
        assert iso_check(compose(identity_span_m(s.left), s), s)
        assert iso_check(compose(s, identity_span_m(s.right)), s)


def test_composition_associative(rng):
    for _ in range(60):
        a = random_span_m(rng)
        b = _with_left(random_span_m(rng), a.right)
        if b is None:
            continue
        c = _with_left(random_span_m(rng), b.right)
        if c is None:
            continue
        assert iso_check(compose(compose(a, b), c), compose(a, compose(b, c)))


def _with_left(s, k):
    """s with its left rows cut or padded to k counts; None if links then coincide."""
    try:
        return SpanM(k, s.right, [((l + (0,) * k)[:k], r) for l, r in s.links])
    except ValueError:
        return None


def test_tensor_blocks_and_zero_collision():
    a = span_m(1, 0, [[1]], [[]])
    b = span_m(0, 1, [[]], [[1]])
    t = tensor(a, b)
    assert t.carrier == 2
    # a closed loop on each side collapses to one loop after the tensor
    loop = SpanM(0, 0, [((), ())])
    tt = tensor(loop, loop)
    assert tt.links == (((), ()),)


def test_construction_sorts_links():
    s = span_m(1, 1, [[2], [1]], [[0], [1]])
    assert s.links == (((1,), (1,)), ((2,), (0,)))
    assert s == span_m(1, 1, [[1], [2]], [[1], [0]]) == SpanM(1, 1, reversed(s.links))


def test_iso_is_pair_set_equality(rng):
    for _ in range(60):
        s = random_span_m(rng)
        # the links in another order build the same span
        perm = SpanM(s.left, s.right, reversed(s.links))
        assert iso_check(s, perm) and perm.links == s.links
        if s.carrier and s.left:
            # damaging one weight breaks the isomorphism
            links = list(s.links)
            l, r = links[0]
            links[0] = ((l[0] + 1,) + l[1:], r)
            if len(set(links)) == len(links):
                assert not iso_check(s, SpanM(s.left, s.right, links))


def test_factorise_deduplicates():
    s = factorise(1, 1, [((1,), (1,)), ((1,), (1,)), ((0,), (1,))])
    assert s.carrier == 2


def test_serialisation_round_trip(rng):
    for _ in range(25):
        s = random_span_m(rng)
        assert SpanM.from_dict(s.to_dict()) == s


def test_json_lists_links_in_sorted_order():
    """Links are kept sorted whatever order they come in, so JSON lists
    them sorted; the leg views follow the same order."""
    d = {"model": "m", "left": 1, "right": 2, "carrier": 3,
         "lleg": [[2], [0], [1]], "rleg": [[0, 1], [1, 1], [1, 0]]}
    s = SpanM.from_dict(d)
    assert s.links == (((0,), (1, 1)), ((1,), (1, 0)), ((2,), (0, 1)))
    assert s.to_dict() == {**d, "lleg": [[0], [1], [2]], "rleg": [[1, 1], [1, 0], [0, 1]]}
    assert span_m(1, 2, d["lleg"], d["rleg"]) == s
    assert (s.lleg.dom, s.lleg.cod, s.lleg.rows) == (3, 1, ((0,), (1,), (2,)))
    assert (s.rleg.dom, s.rleg.cod, s.rleg.rows) == (3, 2, ((1, 1), (1, 0), (0, 1)))
    assert s.lleg is s.lleg and s.rleg is s.rleg  # each view is built once
    assert GENS["split"].to_dict()["rleg"] == [[0, 1], [1, 0]]


def test_find_iso_returns_the_carrier_permutation():
    # equal spans list their links in one order: the bijection is the identity
    s = span_m(1, 2, [(2,), (0,), (1,)], [(0, 1), (1, 1), (1, 0)])
    t = span_m(1, 2, [(1,), (2,), (0,)], [(1, 0), (0, 1), (1, 1)])
    assert find_iso(s, t) == [0, 1, 2]
    assert find_iso(t, s) == [0, 1, 2]
    assert find_iso(s, GENS["split"]) is None
    assert find_iso(GENS["del"], GENS["del"]) == [0]


def test_a_repeated_link_cannot_be_built():
    # two equal links would be legs that are not jointly injective
    with pytest.raises(ValueError, match="^legs are not jointly injective$"):
        SpanM(1, 1, [((1,), (1,))] * 2)
    # the repeats need not be next to each other in the input
    with pytest.raises(ValueError, match="^legs are not jointly injective$"):
        SpanM(1, 1, [((1,), (1,)), ((0,), (1,)), ((1,), (1,))])


@pytest.mark.parametrize("links", [[((1, 0), (1,))], [((1,), ())], [((1,), (0,)), ((), (1,))]])
def test_link_rows_must_match_the_boundaries(links):
    with pytest.raises(ValueError, match="^link rows must match the boundaries$"):
        SpanM(1, 1, links)

"""Spans in the multiplicity model."""

import pytest

from linkalg.multiset import MRel
from linkalg.span_m import (
    SpanM,
    canonical,
    compose,
    factorise,
    find_iso,
    generators_m,
    identity_span_m,
    iso_check,
    random_span_m,
    span_m,
    tensor,
)


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


@pytest.mark.parametrize("entry", [True, 1.5, "2", -1])
def test_span_entries_must_be_ints_at_least_zero(entry):
    """Entries are not coerced: [[1.5]] is refused, not read as [[1]]."""
    with pytest.raises(ValueError, match="natural"):
        span_m(1, 1, [(entry,)], [(1,)])
    with pytest.raises(ValueError, match="natural"):
        span_m(1, 1, [(1,)], [(entry,)])


def test_split_then_join_is_identity():
    s = compose(GENS["split"], GENS["join"])
    assert iso_check(s, identity_span_m(1))


def test_join_then_split_merges_parallel_paths():
    s = compose(GENS["join"], GENS["split"])
    # four crossing links, one per port pair, each weight 1
    assert s.carrier == 4
    assert sorted(s.pairs()) == [
        ((0, 1), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((1, 0), (1, 0)),
    ]


def test_copy_then_join_doubles_the_weight():
    s = compose(GENS["copy"], GENS["join"])
    assert s.carrier == 1
    assert s.pairs() == [((1,), (2,))]


def test_compose_factorises_repeated_pairs():
    # two parallel links with equal images collapse after composition
    a = span_m(1, 2, [[1]], [[1, 1]])
    b = span_m(2, 0, [[1, 0], [0, 1]], [[], []])
    s = compose(a, b)
    assert s.check()
    assert s.carrier == 1


def test_identity_units(rng):
    for _ in range(40):
        s = random_span_m(rng)
        assert iso_check(compose(identity_span_m(s.left), s), s)
        assert iso_check(compose(s, identity_span_m(s.right)), s)


def test_composition_associative(rng):
    for _ in range(60):
        a = random_span_m(rng)
        b = random_span_m(rng)
        b = SpanM(a.right, b.right, b.carrier, _reshape(b.lleg, a.right), b.rleg)
        if not b.check():
            continue
        c = random_span_m(rng)
        c = SpanM(b.right, c.right, c.carrier, _reshape(c.lleg, b.right), c.rleg)
        if not c.check():
            continue
        assert iso_check(compose(compose(a, b), c), compose(a, compose(b, c)))


def _reshape(leg, new_cod):
    return MRel(leg.dom, new_cod, tuple((r + (0,) * new_cod)[:new_cod] for r in leg.rows))


def test_tensor_blocks_and_zero_collision():
    a = span_m(1, 0, [[1]], [[]])
    b = span_m(0, 1, [[]], [[1]])
    t = tensor(a, b)
    assert t.carrier == 2
    # a closed loop on each side collapses to one loop after the tensor
    loop = SpanM(0, 0, 1, MRel(1, 0, ((),)), MRel(1, 0, ((),)))
    tt = tensor(loop, loop)
    assert tt.carrier == 1
    assert tt.check()


def test_canonical_sorts_pairs():
    s = span_m(1, 1, [[2], [1]], [[0], [1]])
    c = canonical(s)
    assert c.pairs() == sorted(s.pairs())
    assert iso_check(s, c)


def test_iso_is_pair_set_equality(rng):
    for _ in range(60):
        s = random_span_m(rng)
        perm = canonical(s)
        assert iso_check(s, perm)
        if s.carrier:
            # damaging one weight breaks the isomorphism
            rows = list(s.lleg.rows)
            if s.left:
                rows[0] = (rows[0][0] + 1,) + rows[0][1:]
                t = SpanM(s.left, s.right, s.carrier, MRel(s.carrier, s.left, rows), s.rleg)
                if t.check():
                    assert not iso_check(s, t)


def test_factorise_deduplicates():
    s = factorise(1, 1, [((1,), (1,)), ((1,), (1,)), ((0,), (1,))])
    assert s.carrier == 2


def test_serialisation_round_trip(rng):
    for _ in range(25):
        s = random_span_m(rng)
        assert SpanM.from_dict(s.to_dict()) == s


def test_carrier_order_is_kept():
    """Links stay in the order given; only compose, tensor and canonical sort."""
    d = {"model": "m", "left": 1, "right": 2, "carrier": 3,
         "lleg": [[2], [0], [1]], "rleg": [[0, 1], [1, 1], [1, 0]]}
    s = SpanM.from_dict(d)
    assert s.pairs() == [((2,), (0, 1)), ((0,), (1, 1)), ((1,), (1, 0))]
    assert s.to_dict() == d
    assert span_m(1, 2, d["lleg"], d["rleg"]) == s
    assert GENS["split"].to_dict()["rleg"] == [[1, 0], [0, 1]]


def test_find_iso_returns_the_carrier_permutation():
    s = span_m(1, 2, [(2,), (0,), (1,)], [(0, 1), (1, 1), (1, 0)])
    t = span_m(1, 2, [(1,), (2,), (0,)], [(1, 0), (0, 1), (1, 1)])
    assert find_iso(s, t) == [1, 2, 0]
    assert find_iso(t, s) == [2, 0, 1]
    assert find_iso(s, s) == [0, 1, 2]
    assert find_iso(s, canonical(s)) == [2, 0, 1]
    assert find_iso(s, GENS["split"]) is None


def test_find_iso_refuses_legs_that_are_not_jointly_injective():
    # two equal links: a lookup by image pair cannot give a bijection
    leg = MRel(2, 1, [(1,), (1,)])
    s = SpanM(1, 1, 2, leg, leg)
    with pytest.raises(ValueError, match="jointly injective"):
        find_iso(s, s)

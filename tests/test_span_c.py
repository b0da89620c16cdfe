"""Spans in the contention model: generators, composition, isomorphism,
and the embedding of cospans of functions."""

import itertools

import pytest

from linkalg.contention import CSet, discrete, full
from linkalg.span_c import (
    Cospan,
    SpanC,
    compose,
    compose_cospans,
    cospan_iso,
    cospan_key,
    embed_cospan,
    find_iso,
    generators,
    identity_span,
    iso_check,
    random_cospan,
    random_span_c,
    span_c,
    tensor,
)


GENS = generators()


def test_generator_boundaries():
    want = {
        "copy": (1, 2), "del": (1, 0), "merge": (2, 1), "new": (0, 1),
        "split": (1, 2), "stop": (1, 0), "join": (2, 1), "start": (0, 1),
        "id": (1, 1), "swap": (2, 2),
    }
    for name, (k, l) in want.items():
        s = GENS[name]
        assert (s.left, s.right) == (k, l), name
        assert s.check(), name


def test_copy_and_split_differ_only_in_contention():
    c, s = GENS["copy"], GENS["split"]
    assert c.carrier.size == 1 and s.carrier.size == 2
    assert s.carrier.contention == frozenset({(0, 1)})
    # both feed the single left port; copy does it with one element
    assert [sorted(u) for u in s.lleg.map] == [[0], [0]]


def test_stop_and_start_have_empty_carriers():
    assert GENS["stop"].carrier.size == 0
    assert GENS["start"].carrier.size == 0


def test_invalid_span_rejected():
    # two independent carrier elements may not share a boundary port
    with pytest.raises(ValueError):
        span_c(1, 0, discrete(2), [[0], [0]], [[], []])


def test_compose_boundary_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        compose(GENS["copy"], GENS["copy"])


def test_split_then_join_is_two_contending_parallel_links():
    s = compose(GENS["split"], GENS["join"])
    assert (s.left, s.right, s.carrier.size) == (1, 1, 2)
    assert s.carrier.contention == frozenset({(0, 1)})
    assert [sorted(u) for u in s.lleg.map] == [[0], [0]]
    assert [sorted(u) for u in s.rleg.map] == [[0], [0]]
    assert not iso_check(s, identity_span(1))


def test_join_then_split_is_complete_bipartite_all_contending():
    s = compose(GENS["join"], GENS["split"])
    assert (s.left, s.right, s.carrier.size) == (2, 2, 4)
    assert len(s.carrier.contention) == 6
    ends = sorted(
        (sorted(s.lleg.map[x]), sorted(s.rleg.map[x])) for x in range(4)
    )
    assert ends == [([0], [0]), ([0], [1]), ([1], [0]), ([1], [1])]


def test_copy_then_merge_collapses_to_identity():
    s = compose(GENS["copy"], GENS["merge"])
    assert iso_check(s, identity_span(1))


def test_identity_units(rng):
    for _ in range(40):
        s = random_span_c(rng)
        assert iso_check(compose(identity_span(s.left), s), s)
        assert iso_check(compose(s, identity_span(s.right)), s)


def test_composition_associative(rng):
    for _ in range(60):
        a = random_span_c(rng)
        b = random_span_c(rng)
        # align boundaries by construction
        b = SpanC(a.right, b.right, b.carrier, _retarget(b.lleg, a.right), b.rleg)
        if not b.check():
            continue
        c = random_span_c(rng)
        c = SpanC(b.right, c.right, c.carrier, _retarget(c.lleg, b.right), c.rleg)
        if not c.check():
            continue
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert iso_check(lhs, rhs)


def _retarget(leg, new_cod):
    """Clip a leg's images into a boundary of a different width."""
    from linkalg.crel import CRel

    images = tuple(frozenset(e for e in u if e < new_cod) for u in leg.map)
    return CRel(leg.dom, discrete(new_cod), images)


def test_tensor_is_disjoint_union():
    s = tensor(GENS["split"], GENS["copy"])
    assert (s.left, s.right) == (2, 4)
    assert s.carrier.size == 3
    assert s.carrier.contention == frozenset({(0, 1)})
    assert [sorted(u) for u in s.rleg.map] == [[0], [1], [2, 3]]


def test_tensor_unit_is_empty_span(rng):
    empty = span_c(0, 0, CSet(0), [], [])
    for _ in range(20):
        s = random_span_c(rng)
        assert iso_check(tensor(empty, s), s)
        assert iso_check(tensor(s, empty), s)


def test_iso_finds_witness_permutation():
    a = span_c(1, 1, CSet(2, {(0, 1)}), [[0], [0]], [[0], []])
    b = span_c(1, 1, CSet(2, {(0, 1)}), [[0], [0]], [[], [0]])
    w = find_iso(a, b)
    assert w == [1, 0]
    assert iso_check(a, b)


def test_iso_distinguishes_contention():
    a = span_c(1, 1, discrete(2), [[0], []], [[0], []])
    b = span_c(1, 1, CSet(2, {(0, 1)}), [[0], []], [[0], []])
    assert not iso_check(a, b)


def test_iso_respects_leg_assignments():
    a = span_c(2, 0, discrete(2), [[0], [1]], [[], []])
    b = span_c(2, 0, discrete(2), [[1], [0]], [[], []])
    # swapping the carrier elements matches the legs
    assert iso_check(a, b)
    c = span_c(2, 0, discrete(2), [[0], [1]], [[], []])
    d = span_c(2, 0, discrete(2), [[0], []], [[], []])
    assert not iso_check(c, d)


def test_find_iso_is_not_bounded_by_the_recursion_limit():
    n = 1200
    assert find_iso(identity_span(n), identity_span(n)) == list(range(n))


def test_embed_preserves_identity_and_legs():
    c = Cospan(2, 1, 2, (0, 1), (0,))
    s = embed_cospan(c)
    assert s.check()
    assert (s.left, s.right, s.carrier.size) == (2, 1, 2)
    assert s.carrier.contention == frozenset()
    assert [sorted(u) for u in s.lleg.map] == [[0], [1]]
    assert [sorted(u) for u in s.rleg.map] == [[0], []]


def test_embed_functorial_on_samples(rng):
    for _ in range(120):
        c = random_cospan(rng)
        d = random_cospan(rng)
        d = Cospan(c.right, d.right, d.carrier, tuple(v % d.carrier for v in range(c.right)), d.rmap)
        lhs = embed_cospan(compose_cospans(c, d))
        rhs = compose(embed_cospan(c), embed_cospan(d))
        assert iso_check(lhs, rhs)


def test_cospan_pushout_glues_along_shared_boundary():
    # two arcs glued end to start give a single path
    c = Cospan(1, 1, 2, (0,), (1,))
    d = Cospan(1, 1, 2, (0,), (1,))
    e = compose_cospans(c, d)
    assert e.carrier == 3
    assert e.lmap == (0,) and e.rmap == (2,)


def test_cospan_iso_key():
    a = Cospan(1, 1, 2, (0,), (1,))
    b = Cospan(1, 1, 2, (1,), (0,))
    assert cospan_iso(a, b)
    assert cospan_key(a) == cospan_key(b)
    c = Cospan(1, 1, 1, (0,), (0,))
    assert not cospan_iso(a, c)


def test_embedding_faithful_on_iso_classes(rng):
    """Cospans are isomorphic exactly when their embedded spans are."""
    sample = [random_cospan(rng, max_boundary=2, max_carrier=3) for _ in range(60)]
    for a, b in itertools.combinations(sample, 2):
        if (a.left, a.right) != (b.left, b.right):
            continue
        assert cospan_iso(a, b) == iso_check(embed_cospan(a), embed_cospan(b))


def test_serialisation_round_trip(rng):
    for _ in range(25):
        s = random_span_c(rng)
        assert SpanC.from_dict(s.to_dict()) == s
    c = Cospan(2, 1, 2, (0, 1), (0,))
    assert Cospan.from_dict(c.to_dict()) == c

"""Minimal synchronisations, the pullback, and its mediating arrows."""

import itertools
import random

import pytest

from linkalg.contention import CSet, discrete, full, indep_masks, set_of
from linkalg.crel import CRel, compose, crel, identity, lift_mask, validate
from linkalg import span_c
from linkalg.sync_c import is_sync, mediator, min_sync_masks, min_syncs, pullback, sync_space
from linkalg.terms import eval_c, parse

from draws import random_crel, random_cset
from oracles import all_crels, all_csets, naive_min_sync_masks, naive_sync_space


def test_is_sync_basic():
    x = discrete(1)
    f = crel(full(2), x, [[0], [0]])
    g = identity(x)
    assert is_sync(f, g, {0}, {0})
    assert not is_sync(f, g, {0}, set())
    assert is_sync(f, g, set(), set())


def test_is_sync_rejects_dependent_parts():
    f = crel(full(2), discrete(1), [[0], [0]])
    with pytest.raises(ValueError):
        is_sync(f, f, {0, 1}, {0})


def test_arrows_must_share_a_codomain():
    f, g = identity(discrete(1)), identity(discrete(2))
    with pytest.raises(ValueError, match="^arrows must share a codomain$"):
        is_sync(f, g, {0}, {0})
    with pytest.raises(ValueError, match="^arrows must share a codomain$"):
        min_sync_masks(f, g)


def test_identity_pullback_recovers_the_object():
    # pulling back f against the identity gives back dom(f) elementwise
    x = CSet(3, frozenset({(0, 1)}))
    f = crel(x, discrete(2), [[0], [0], [1]])
    syncs, space = min_syncs(f, identity(discrete(2)))
    assert [(sorted(s.u), sorted(s.v)) for s in syncs] == [
        ([0], [0]),
        ([1], [0]),
        ([2], [1]),
    ]
    assert space.contention == frozenset({(0, 1)})


def test_four_syncs_on_shared_port():
    # two contending sources each side of one port: every cross pair is minimal
    f = crel(full(2), discrete(1), [[0], [0]])
    pairs = min_sync_masks(f, f)
    assert pairs == [(0b01, 0b01), (0b01, 0b10), (0b10, 0b01), (0b10, 0b10)]
    space = sync_space(f, f, pairs)
    # any two of them share an element on one side or contend there
    assert space.contention == frozenset(
        {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    )


def test_empty_image_gives_unit_sync():
    # an element with empty image synchronises with the empty set
    x = discrete(1)
    f = crel(x, discrete(1), [[]])
    g = crel(discrete(0), discrete(1), [])
    assert min_sync_masks(f, g) == [(0b1, 0)]


def test_matches_naive_enumeration_exhaustively():
    cods = [discrete(0), discrete(1), discrete(2), full(2)]
    doms = list(all_csets(2))
    for cod in cods:
        for da in doms:
            for db in doms:
                for f in all_crels(da, cod):
                    for g in all_crels(db, cod):
                        assert min_sync_masks(f, g) == naive_min_sync_masks(f, g)


def test_matches_naive_enumeration_random(rng):
    for _ in range(150):
        cod = rng.choice([discrete(2), discrete(3), full(3), CSet(3, frozenset({(0, 1)}))])
        f = random_crel(rng, cod=cod)
        g = random_crel(rng, cod=cod)
        assert min_sync_masks(f, g) == naive_min_sync_masks(f, g)


def test_candidates_need_no_dominance_filter(rng, monkeypatch):
    """The search returns only minimal pairs, with no filter after it:
    wider domains than the tests above, and every pullback step of the
    dense model-c terms."""
    for _ in range(60):
        cod = random_cset(rng, max_size=4)
        f = random_crel(rng, cod=cod, max_size=7)
        g = random_crel(rng, cod=cod, max_size=7)
        assert min_sync_masks(f, g) == naive_min_sync_masks(f, g)
    steps = []

    def recording_pullback(f, g):
        steps.append((f, g))
        return pullback(f, g)

    monkeypatch.setattr(span_c, "pullback", recording_pullback)
    terms = [" ; ".join(["join ; split"] * k) for k in range(1, 7)]
    terms.append("(split * split) ; (id * swap * id) ; (join * join)")
    for text in terms:
        eval_c(parse(text))
    assert len(steps) == sum(2 * k - 1 for k in range(1, 7)) + 2
    for f, g in steps:
        pairs = min_sync_masks(f, g)
        for (a1, b1), (a2, b2) in itertools.permutations(pairs, 2):
            assert not (a1 & ~a2 == 0 and b1 & ~b2 == 0)


def test_minimal_syncs_inside_a_sync_are_disjoint(rng):
    """Distinct minimal synchronisations below a common one never share
    elements on either side."""
    for _ in range(150):
        f = random_crel(rng)
        g = random_crel(rng, cod=f.cod)
        pairs = min_sync_masks(f, g)
        us = indep_masks(f.dom)
        vs = indep_masks(g.dom)
        for mu in us:
            lu = lift_mask(f, mu)
            for mv in vs:
                if lu != lift_mask(g, mv):
                    continue
                below = [(a, b) for a, b in pairs if a & ~mu == 0 and b & ~mv == 0]
                for (a1, b1), (a2, b2) in itertools.combinations(below, 2):
                    assert a1 & a2 == 0
                    assert b1 & b2 == 0
                # and their union reassembles the synchronisation exactly
                au = bu = 0
                for a, b in below:
                    au |= a
                    bu |= b
                assert (au, bu) == (mu, mv)


def _matched_away(rng, n):
    """Each element contends with all but one other (the last one, for
    odd n, with all): every closed neighbourhood differs."""
    order = rng.sample(range(n), n)
    matched = {frozenset(p) for p in zip(order[0::2], order[1::2])}
    return CSet(n, [p for p in itertools.combinations(range(n), 2) if frozenset(p) not in matched])


def _dense(rng, n):
    return CSet(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.7])


def _sync_space_cases(rng, monkeypatch):
    """Facing legs for sync_space: small random ones; domains on both
    sides of the 8-element chunks, dense or matched away; and every
    pullback of (join ; split)^5 and of a randomly bracketed 128-link B
    chain, evaluated."""
    cases = []
    for _ in range(200):
        cod = random_cset(rng, max_size=4)
        cases.append((random_crel(rng, cod=cod, max_size=6), random_crel(rng, cod=cod, max_size=6)))
    for n in (7, 8, 9, 15, 16, 17, 66):
        for dom in (_dense, _matched_away):
            cod = CSet(3, [(0, 1)])
            cases.append((random_crel(rng, dom=dom(rng, n), cod=cod), random_crel(rng, dom=dom(rng, n), cod=cod)))
    monkeypatch.setattr(span_c, "pullback", lambda f, g: cases.append((f, g)) or pullback(f, g))
    assert eval_c(parse(" ; ".join(["join ; split"] * 5))).carrier.size == 64
    # this bracketing ends in a pullback of two 128-element domains
    layers = ["(split * split)", "(id * swap * id)", "(join * join)"] * 6
    assert eval_c(parse(_bracket(layers, random.Random(2)))).carrier.size == 128
    monkeypatch.undo()
    return cases


def _bracket(items, rng):
    if len(items) == 1:
        return items[0]
    k = rng.randint(1, len(items) - 1)
    return f"({_bracket(items[:k], rng)} ; {_bracket(items[k:], rng)})"


def test_sync_space_matches_pairwise_reference(rng, monkeypatch):
    for f, g in _sync_space_cases(rng, monkeypatch):
        pairs = min_sync_masks(f, g)
        assert sync_space(f, g, pairs) == naive_sync_space(f, g, pairs)


def test_pullback_legs_are_valid_and_commute(rng):
    for _ in range(120):
        f = random_crel(rng)
        g = random_crel(rng, cod=f.cod)
        space, p, q = pullback(f, g)
        assert validate(p)
        assert validate(q)
        assert compose(p, f) == compose(q, g)


def test_mediator_worked_example():
    # one port, one source each side; cone sends z to both sources
    f = crel(discrete(1), discrete(1), [[0]])
    g = crel(discrete(1), discrete(1), [[0]])
    alpha = crel(discrete(1), discrete(1), [[0]])
    beta = crel(discrete(1), discrete(1), [[0]])
    h = mediator(f, g, alpha, beta)
    assert h.map == (frozenset([0]),)


def test_mediator_rejects_non_cone():
    f = crel(discrete(1), discrete(1), [[0]])
    g = crel(discrete(1), discrete(1), [[]])
    alpha = crel(discrete(1), discrete(1), [[0]])
    beta = crel(discrete(1), discrete(1), [[0]])
    with pytest.raises(ValueError, match="not a cone"):
        mediator(f, g, alpha, beta)
    with pytest.raises(ValueError, match="^cone legs do not match the arrows$"):
        mediator(f, g, alpha, identity(discrete(2)))
    with pytest.raises(ValueError, match="^cone legs must share a domain$"):
        mediator(f, g, alpha, crel(discrete(2), discrete(1), [[0], []]))


def test_mediator_triangles_and_uniqueness_random(rng):
    """Build cones as h;p, h;q from a random h into the space, then check
    the mediator reproduces them and no other arrow does."""
    for _ in range(60):
        f = random_crel(rng, max_size=3)
        g = random_crel(rng, cod=f.cod, max_size=3)
        space, p, q = pullback(f, g)
        h = random_crel(rng, cod=space, max_size=2)
        alpha, beta = compose(h, p), compose(h, q)
        med = mediator(f, g, alpha, beta)
        assert compose(med, p) == alpha
        assert compose(med, q) == beta
        assert med == h  # the cone came from h, so the mediator must be h
        # uniqueness among all candidate images, element by element
        for z in range(h.dom.size):
            valid = []
            for m in indep_masks(space):
                if (
                    lift_mask(p, m) == alpha.img_masks[z]
                    and lift_mask(q, m) == beta.img_masks[z]
                ):
                    valid.append(m)
            assert valid == [med.img_masks[z]]

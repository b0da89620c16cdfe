"""Minimal multi-synchronisations and the weak pullback."""

import itertools
import random

import pytest

from linkalg.multiset import MRel, Multiset, compose_m, lift_m, random_mrel, unit, zero
from linkalg.sync_m import (
    SyncM,
    is_msync,
    min_msync_vectors,
    min_msyncs,
    minimal_decomposition,
    weak_pullback,
)

from oracles import box_min_msyncs, naive_min_msync_vectors


def two_to_one():
    return MRel.from_matrix([[1], [1]])


def test_four_unit_pairs_on_shared_target():
    t = two_to_one()
    got = min_msync_vectors(t, t)
    assert got == [
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
    ]


def test_cone_with_two_decompositions():
    """The square delivers a weak pullback only: the diagonal cone
    decomposes in two distinct ways over the four minimal pairs."""
    t = two_to_one()
    syncs = min_msyncs(t, t)
    u0 = Multiset((1, 1))
    assert is_msync(t, t, u0, u0)
    solutions = []
    for ks in itertools.product(range(2), repeat=len(syncs)):
        acc_u, acc_v = zero(2), zero(2)
        for k, s in zip(ks, syncs):
            acc_u = acc_u + s.u.scale(k)
            acc_v = acc_v + s.v.scale(k)
        if acc_u == u0 and acc_v == u0:
            solutions.append(ks)
    assert len(solutions) >= 2
    matched = min_msync_vectors(t, t)
    picks = [tuple(m for m, k in zip(matched, ks) if k) for ks in solutions]
    assert ((0, 1, 1, 0), (1, 0, 0, 1)) in picks
    assert ((0, 1, 0, 1), (1, 0, 1, 0)) in picks


def test_solutions_are_syncs_and_minimal(rng):
    for _ in range(80):
        f = random_mrel(rng)
        g = random_mrel(rng, cod=f.cod)
        vecs = min_msync_vectors(f, g)
        na = f.dom
        for t in vecs:
            u, v = Multiset(t[:na]), Multiset(t[na:])
            assert is_msync(f, g, u, v)
            assert any(t)
        for a, b in itertools.combinations(vecs, 2):
            assert not all(x <= y for x, y in zip(a, b))
            assert not all(y <= x for x, y in zip(a, b))


def test_matches_box_oracle(rng):
    for _ in range(60):
        f = random_mrel(rng, max_size=3, max_entry=3)
        g = random_mrel(rng, cod=f.cod, max_size=3, max_entry=3)
        got = min_msync_vectors(f, g)
        bound = max([4] + [c + 1 for t in got for c in t])
        assert got == [tuple(t) for t in box_min_msyncs(f, g, bound)]


def test_matches_naive_completion():
    """Systems too wide for the box oracle: 3-4 links a side over 3 ports
    with weights <= 2, then small mixed shapes where some links have an
    empty image (zero columns) or there are no ports at all.  The seed
    keeps the reference near 1 s; some draws of this shape take it over
    a minute."""
    rng = random.Random(7)

    def leg(links, ports, max_entry, p_zero):
        rows = [[rng.randint(0, max_entry) for _ in range(ports)] for _ in range(links)]
        return MRel(links, ports, tuple(Multiset((0,) * ports if rng.random() < p_zero else r) for r in rows))

    for _ in range(20):
        f, g = (leg(rng.randint(3, 4), 3, 2, 0.0) for _side in "fg")
        assert min_msync_vectors(f, g) == naive_min_msync_vectors(f, g)
    for _ in range(150):
        ports = rng.randint(0, 3)
        f, g = (leg(rng.randint(0, 3), ports, 2, 0.25) for _side in "fg")
        assert min_msync_vectors(f, g) == naive_min_msync_vectors(f, g)


def test_difference_of_nested_syncs_is_sync(rng):
    for _ in range(60):
        f = random_mrel(rng)
        g = random_mrel(rng, cod=f.cod)
        u1 = Multiset(tuple(rng.randint(0, 2) for _ in range(f.dom)))
        v1 = Multiset(tuple(rng.randint(0, 2) for _ in range(g.dom)))
        u2 = Multiset(tuple(rng.randint(0, 2) for _ in range(f.dom)))
        v2 = Multiset(tuple(rng.randint(0, 2) for _ in range(g.dom)))
        if not (is_msync(f, g, u1, v1) and is_msync(f, g, u2, v2)):
            continue
        if u1 >= u2 and v1 >= v2:
            assert is_msync(f, g, u1 - u2, v1 - v2)
        # linear combinations stay synchronisations
        assert is_msync(f, g, u1 + 3 * u2, v1 + 3 * v2)


def test_weak_pullback_commutes(rng):
    for _ in range(60):
        f = random_mrel(rng)
        g = random_mrel(rng, cod=f.cod)
        n, p, q = weak_pullback(f, g)
        assert compose_m(p, f) == compose_m(q, g)


def test_minimal_decomposition_reassembles(rng):
    for _ in range(80):
        f = random_mrel(rng)
        g = random_mrel(rng, cod=f.cod)
        ks = [rng.randint(0, 2) for _ in min_msyncs(f, g)]
        basis = min_msyncs(f, g)
        u = zero(f.dom)
        v = zero(g.dom)
        for k, s in zip(ks, basis):
            u = u + s.u.scale(k)
            v = v + s.v.scale(k)
        parts = minimal_decomposition(f, g, SyncM(u, v))
        ru, rv = zero(f.dom), zero(g.dom)
        seen = set()
        for k, s in parts:
            assert k >= 1
            assert s in basis
            assert s not in seen  # parts are distinct
            seen.add(s)
            ru = ru + s.u.scale(k)
            rv = rv + s.v.scale(k)
        assert (ru, rv) == (u, v)


def test_minimal_decomposition_worked_example():
    t = two_to_one()
    parts = minimal_decomposition(t, t, SyncM(Multiset((1, 1)), Multiset((1, 1))))
    total_u = zero(2)
    total_v = zero(2)
    for k, s in parts:
        total_u = total_u + s.u.scale(k)
        total_v = total_v + s.v.scale(k)
    assert total_u == Multiset((1, 1)) and total_v == Multiset((1, 1))


def test_minimal_decomposition_rejects_non_sync():
    t = two_to_one()
    with pytest.raises(ValueError, match="not a synchronisation"):
        minimal_decomposition(t, t, SyncM(Multiset((1, 0)), Multiset((0, 0))))

"""Minimal multi-synchronisations and the weak pullback."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import linkalg
from linkalg import sync_m
from linkalg.multiset import MRel, compose_m
from linkalg.shape import SpanFormatError
from linkalg.sync_m import (
    SyncM,
    is_msync,
    min_msync_vectors,
    min_msyncs,
    minimal_decomposition,
    weak_pullback,
)

from draws import random_mrel
from oracles import box_min_msyncs, from_matrix, naive_extreme_rays, naive_min_msync_vectors


def two_to_one():
    return from_matrix([[1], [1]])


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def scale(k, a):
    return tuple(k * x for x in a)


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
    u0 = (1, 1)
    assert is_msync(t, t, u0, u0)
    solutions = []
    for ks in itertools.product(range(2), repeat=len(syncs)):
        acc_u, acc_v = (0, 0), (0, 0)
        for k, s in zip(ks, syncs):
            acc_u = add(acc_u, scale(k, s.u))
            acc_v = add(acc_v, scale(k, s.v))
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
            assert is_msync(f, g, t[:na], t[na:])
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
        return MRel(links, ports, tuple((0,) * ports if rng.random() < p_zero else r for r in rows))

    for _ in range(20):
        f, g = (leg(rng.randint(3, 4), 3, 2, 0.0) for _side in "fg")
        assert min_msync_vectors(f, g) == naive_min_msync_vectors(f, g)
    for _ in range(150):
        ports = rng.randint(0, 3)
        f, g = (leg(rng.randint(0, 3), ports, 2, 0.25) for _side in "fg")
        assert min_msync_vectors(f, g) == naive_min_msync_vectors(f, g)


def mrel(*rows):
    ports = len(rows[0]) if rows else 0
    return MRel(len(rows), ports, rows)


def random_system(rng, ports, links, max_entry, p_zero=0.0, p_repeat=0.0):
    """Two legs into `ports`; some rows zero, some copies of the last."""

    def leg():
        rows = []
        for _ in range(rng.randint(*links)):
            if rows and rng.random() < p_repeat:
                rows.append(rows[-1])
            elif rng.random() < p_zero:
                rows.append((0,) * ports)
            else:
                rows.append(tuple(rng.randint(0, max_entry) for _ in range(ports)))
        return MRel(len(rows), ports, rows)

    return leg(), leg()


def test_draw_with_a_long_completion_finishes():
    """4+4 links over 3 ports whose unbounded completion ran for over
    600 s and kept growing; with the box it ends with 52 elements."""
    f = mrel((2, 3, 2), (1, 3, 3), (2, 3, 3), (1, 0, 0))
    g = mrel((3, 3, 1), (3, 3, 1), (3, 3, 0), (0, 1, 2))
    got = min_msync_vectors(f, g)
    assert len(got) == 52
    for t in got:
        assert any(t)
        assert is_msync(f, g, t[:4], t[4:])
    for a, b in itertools.permutations(got, 2):
        assert not all(x <= y for x, y in zip(a, b))
    small = [t for t in got if max(t) <= 3]
    assert small == [tuple(t) for t in box_min_msyncs(f, g, 3)]


def test_box_holds_every_basis_element():
    """The basis comes from the naive completion, so a box that is too
    small cannot hide its own fault by pruning.  In the first system
    (3, 4, 1, 0, 1, 1) is minimal, while every ray has coordinate 1 at
    most 3: a box of the largest ray entries alone would lose it."""
    f = mrel((2, 0), (0, 2))
    g = mrel((2, 3), (2, 0), (1, 2), (3, 3))
    assert (3, 4, 1, 0, 1, 1) in naive_min_msync_vectors(f, g)
    assert max(r[1] for r in naive_extreme_rays(f, g)) == 3
    systems = [(f, g)]
    rng = random.Random(11)
    systems += [random_system(rng, rng.randint(0, 3), (0, 3), 3, p_zero=0.2) for _ in range(150)]
    for f, g in systems:
        basis = naive_min_msync_vectors(f, g)
        cols = sync_m._columns(f, g)
        box = sync_m._box(cols, len(cols))
        if box is None:
            assert basis == []
            continue
        for t in basis:
            assert all(x <= b for x, b in zip(t, box)), (t, box)
        assert min_msync_vectors(f, g) == basis


def test_rays_match_support_oracle():
    rng = random.Random(5)
    systems = [random_system(rng, rng.randint(0, 3), (0, 4), 3, p_zero=0.2, p_repeat=0.2) for _ in range(200)]
    systems += [(mrel(), mrel()), (mrel((0, 0)), mrel((0, 0), (1, 0)))]
    for f, g in systems:
        cols = sync_m._columns(f, g)
        assert sorted(sync_m._rays(cols, len(cols))) == naive_extreme_rays(f, g)


def test_import_leaves_out_fractions():
    """fractions pulls in decimal, a few ms of start-up on every run."""
    code = "import sys, linkalg; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(linkalg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


small_systems = st.integers(0, 3).flatmap(
    lambda ports: st.tuples(
        *(st.lists(st.tuples(*[st.integers(0, 2)] * ports), max_size=3) for _side in "fg")
    ).map(lambda legs: (ports, legs))
)


@settings(max_examples=150, deadline=None)
@given(small_systems)
def test_completion_matches_naive_on_small_systems(system):
    ports, (frows, grows) = system
    f, g = (MRel(len(r), ports, r) for r in (frows, grows))
    assert min_msync_vectors(f, g) == naive_min_msync_vectors(f, g)


def test_difference_of_nested_syncs_is_sync(rng):
    for _ in range(60):
        f = random_mrel(rng)
        g = random_mrel(rng, cod=f.cod)
        u1 = tuple(rng.randint(0, 2) for _ in range(f.dom))
        v1 = tuple(rng.randint(0, 2) for _ in range(g.dom))
        u2 = tuple(rng.randint(0, 2) for _ in range(f.dom))
        v2 = tuple(rng.randint(0, 2) for _ in range(g.dom))
        if not (is_msync(f, g, u1, v1) and is_msync(f, g, u2, v2)):
            continue
        if all(a >= b for a, b in zip(u1 + v1, u2 + v2)):
            assert is_msync(f, g, add(u1, scale(-1, u2)), add(v1, scale(-1, v2)))
        # linear combinations stay synchronisations
        assert is_msync(f, g, add(u1, scale(3, u2)), add(v1, scale(3, v2)))


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
        u = (0,) * f.dom
        v = (0,) * g.dom
        for k, s in zip(ks, basis):
            u = add(u, scale(k, s.u))
            v = add(v, scale(k, s.v))
        parts = minimal_decomposition(f, g, SyncM(u, v))
        ru, rv = (0,) * f.dom, (0,) * g.dom
        seen = set()
        for k, s in parts:
            assert k >= 1
            assert s in basis
            assert s not in seen  # parts are distinct
            seen.add(s)
            ru = add(ru, scale(k, s.u))
            rv = add(rv, scale(k, s.v))
        assert (ru, rv) == (u, v)


def test_minimal_decomposition_worked_example():
    t = two_to_one()
    parts = minimal_decomposition(t, t, SyncM((1, 1), (1, 1)))
    total_u = total_v = (0, 0)
    for k, s in parts:
        total_u = add(total_u, scale(k, s.u))
        total_v = add(total_v, scale(k, s.v))
    assert total_u == (1, 1) and total_v == (1, 1)


def test_arrows_must_share_a_codomain():
    f, g = MRel(1, 1, [(1,)]), MRel(1, 2, [(1, 1)])
    with pytest.raises(ValueError, match="^arrows must share a codomain$"):
        is_msync(f, g, (1,), (1,))
    with pytest.raises(ValueError, match="^arrows must share a codomain$"):
        min_msync_vectors(f, g)
    with pytest.raises(SpanFormatError, match="^v has 2 entries, expected 1$"):
        is_msync(f, f, (1,), (1, 0))


def test_minimal_decomposition_rejects_non_sync():
    t = two_to_one()
    with pytest.raises(ValueError, match="not a synchronisation"):
        minimal_decomposition(t, t, SyncM((1, 0), (0, 0)))
    # a synchronisation is a pair of multisets: only ints >= 0 count
    for bad in ((-1, -1), (0.5, 0.5), (True, True)):
        with pytest.raises(SpanFormatError, match="natural"):
            is_msync(t, t, bad, bad)
        with pytest.raises(ValueError, match="natural"):
            minimal_decomposition(t, t, SyncM(bad, bad))

"""Multirelations over count-tuple multisets."""

import pytest

from linkalg.multiset import MRel, compose_m, identity_m, lift_m
from linkalg.shape import SpanFormatError

from draws import random_mrel
from oracles import from_matrix, to_matrix


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def scale(k, a):
    return tuple(k * x for x in a)


def test_negative_counts_rejected():
    with pytest.raises(SpanFormatError, match=r"^rows\[0\]\[1\] must be a natural number, got -1$"):
        MRel(1, 2, [(1, -1)])


@pytest.mark.parametrize("entry", [True, False, 1.5, 2.0, "2", -1, None])
def test_entries_must_be_ints_at_least_zero(entry):
    """Entries are not coerced: bool, float and str are refused like negatives."""
    with pytest.raises(SpanFormatError, match="natural"):
        MRel(1, 1, [[entry]])
    with pytest.raises(ValueError, match="natural"):
        from_matrix([[0, entry]])


def test_mrel_shape_validation():
    with pytest.raises(SpanFormatError, match="^rows has 1 entries, expected 2$"):
        MRel(2, 1, [(0,)])
    with pytest.raises(SpanFormatError, match=r"^rows\[0\] has 1 entries, expected 2$"):
        MRel(1, 2, [(0,)])
    with pytest.raises(SpanFormatError, match="^rows must be an array, got 5$"):
        MRel(1, 1, 5)
    assert MRel(2, 1, [[1], (2,)]).rows == ((1,), (2,))


def test_lift_is_linear(rng):
    for _ in range(50):
        f = random_mrel(rng)
        u = tuple(rng.randint(0, 3) for _ in range(f.dom))
        v = tuple(rng.randint(0, 3) for _ in range(f.dom))
        assert lift_m(f, add(u, v)) == add(lift_m(f, u), lift_m(f, v))
        assert lift_m(f, scale(2, u)) == scale(2, lift_m(f, u))
        assert lift_m(f, (0,) * f.dom) == (0,) * f.cod
    with pytest.raises(ValueError, match="domain"):
        lift_m(MRel(1, 1, [(1,)]), (1, 1))


def test_compose_is_matrix_product(rng):
    """Direct matrix multiplication as the oracle."""
    for _ in range(60):
        f = random_mrel(rng)
        g = random_mrel(rng, dom=f.cod)
        got = to_matrix(compose_m(f, g))
        a, b = to_matrix(f), to_matrix(g)
        want = [
            [sum(a[i][k] * b[k][j] for k in range(f.cod)) for j in range(g.cod)]
            for i in range(f.dom)
        ]
        assert got == want
    with pytest.raises(ValueError, match="middle objects differ"):
        compose_m(MRel(1, 1, [(1,)]), MRel(2, 1, [(1,), (1,)]))


def test_category_laws(rng):
    for _ in range(40):
        f = random_mrel(rng)
        g = random_mrel(rng, dom=f.cod)
        h = random_mrel(rng, dom=g.cod)
        assert compose_m(identity_m(f.dom), f) == f
        assert compose_m(f, identity_m(f.cod)) == f
        assert compose_m(compose_m(f, g), h) == compose_m(f, compose_m(g, h))


def test_matrix_round_trip():
    m = [[1, 0, 2], [0, 3, 0]]
    assert to_matrix(from_matrix(m)) == m
    assert from_matrix(m) == MRel(2, 3, ((1, 0, 2), (0, 3, 0)))
    assert from_matrix([], cod=3).dom == 0
    with pytest.raises(ValueError):
        from_matrix([])

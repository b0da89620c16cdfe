"""Multirelations between ordinals, with multisets as count tuples.

A multiset over n is a tuple of n naturals.  A multirelation f: k -> l
assigns a multiset over l to every element of k, i.e. it is a k-by-l
matrix of naturals, stored as its k rows.  Lifting extends f linearly
to multisets over k, and composition is matrix product; the tests
check that against a direct matrix oracle.

>>> f = MRel(2, 3, [(1, 0, 2), (0, 1, 1)])
>>> lift_m(f, (2, 1))
(2, 1, 5)
"""

from __future__ import annotations

from dataclasses import dataclass

from .shape import nat_matrix


@dataclass(frozen=True, init=False)
class MRel:
    """Rows indexed by the domain; row x is the multiset image of x.

    MRel(dom, cod, rows) checks the rows through shape; MRel.derived(dom,
    cod, rows) takes tuple rows computed from arrows already built, unchecked.
    """

    dom: int
    cod: int
    rows: tuple

    def __init__(self, dom, cod, rows):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "rows", tuple(map(tuple, nat_matrix(rows, "rows", dom, cod))))

    @classmethod
    def derived(cls, dom, cod, rows):
        f = object.__new__(cls)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "rows", rows)
        return f


def identity_m(n):
    return MRel.derived(n, n, tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)))


def lift_m(f, u):
    """Linear extension: sum of f's rows with multiplicities from u.

    u is a tuple of f.dom counts and is not checked further.
    """
    if len(u) != f.dom:
        raise ValueError("multiset base must match the domain")
    acc = [0] * f.cod
    for c, row in zip(u, f.rows):
        if c:
            for j, x in enumerate(row):
                acc[j] += c * x
    return tuple(acc)


def compose_m(f, g):
    if f.cod != g.dom:
        raise ValueError("middle objects differ")
    return MRel.derived(f.dom, g.cod, tuple(lift_m(g, r) for r in f.rows))

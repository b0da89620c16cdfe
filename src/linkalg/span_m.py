"""Relational spans of multirelations.

An arrow k -> l is a span k <= x => l of multirelations whose legs are
jointly injective: the pairing x -> (multisets over k) x (multisets
over l) has no repeated value.  Composition takes the weak pullback of
the facing legs and then identifies carrier elements with equal outer
image pairs, which restores joint injectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multiset import MRel, Multiset, lift_m
from .shape import nat_keys, nat_rows
from .sync_m import min_msyncs


@dataclass(frozen=True)
class SpanM:
    left: int
    right: int
    carrier: int
    lleg: MRel
    rleg: MRel

    MODEL = "m"

    def __post_init__(self):
        if self.lleg.dom != self.carrier or self.rleg.dom != self.carrier:
            raise ValueError("legs must share the carrier as domain")
        if self.lleg.cod != self.left or self.rleg.cod != self.right:
            raise ValueError("leg codomains must match the boundaries")

    def pairs(self):
        return [(self.lleg.rows[i].counts, self.rleg.rows[i].counts) for i in range(self.carrier)]

    def check(self):
        seen = set()
        for p in self.pairs():
            if p in seen:
                return False
            seen.add(p)
        return True

    def to_dict(self):
        return {
            "model": "m",
            "left": self.left,
            "right": self.right,
            "carrier": self.carrier,
            "lleg": [list(r.counts) for r in self.lleg.rows],
            "rleg": [list(r.counts) for r in self.rleg.rows],
        }

    @classmethod
    def from_dict(cls, d):
        """Load and validate.

        SpanFormatError if the JSON has the wrong shape; ValueError("invalid
        span: ...") if the legs are not jointly injective.
        """
        left, right, n = nat_keys(d, "left", "right", "carrier")
        s = cls(
            left,
            right,
            n,
            MRel(n, left, tuple(Multiset(tuple(r)) for r in nat_rows(d, "lleg", n, left))),
            MRel(n, right, tuple(Multiset(tuple(r)) for r in nat_rows(d, "rleg", n, right))),
        )
        if not s.check():
            raise ValueError("invalid span: legs are not jointly injective")
        return s


def span_m(left, right, lrows, rrows):
    n = len(lrows)
    if len(rrows) != n:
        raise ValueError("leg row counts differ")
    s = SpanM(
        left,
        right,
        n,
        MRel(n, left, tuple(Multiset(tuple(r)) for r in lrows)),
        MRel(n, right, tuple(Multiset(tuple(r)) for r in rrows)),
    )
    if not s.check():
        raise ValueError("legs are not jointly injective")
    return s


def canonical(s):
    """Sort the carrier by image pair; a normal form for iso classes."""
    ps = sorted(s.pairs())
    return SpanM(
        s.left,
        s.right,
        s.carrier,
        MRel(s.carrier, s.left, tuple(Multiset(l) for l, _ in ps)),
        MRel(s.carrier, s.right, tuple(Multiset(r) for _, r in ps)),
    )


def factorise(left, right, pairs):
    """Quotient a family of image pairs to its distinct values, sorted."""
    distinct = sorted(set(pairs))
    return SpanM(
        left,
        right,
        len(distinct),
        MRel(len(distinct), left, tuple(Multiset(l) for l, _ in distinct)),
        MRel(len(distinct), right, tuple(Multiset(r) for _, r in distinct)),
    )


def identity_span_m(n):
    return span_m(n, n, [[1 if j == i else 0 for j in range(n)] for i in range(n)], [[1 if j == i else 0 for j in range(n)] for i in range(n)])


def compose(s, t):
    """Weak pullback over the shared boundary, then image factorisation."""
    if s.right != t.left:
        raise ValueError(f"boundary mismatch: {s.right} vs {t.left}")
    syncs = min_msyncs(s.rleg, t.lleg)
    pairs = [
        (lift_m(s.lleg, m.u).counts, lift_m(t.rleg, m.v).counts)
        for m in syncs
    ]
    return factorise(s.left, t.right, pairs)


def tensor(s, t):
    pairs = [
        (l + (0,) * t.left, r + (0,) * t.right)
        for l, r in s.pairs()
    ] + [
        ((0,) * s.left + l, (0,) * s.right + r)
        for l, r in t.pairs()
    ]
    # distinct pairs can only collide on all-zero rows; identifying those
    # keeps the result jointly injective
    return factorise(s.left + t.left, s.right + t.right, pairs)


def iso_check(s, t):
    """Joint injectivity makes this equality of image pair sets."""
    if (s.left, s.right, s.carrier) != (t.left, t.right, t.carrier):
        return False
    return sorted(s.pairs()) == sorted(t.pairs())


def find_iso(s, t):
    """A carrier bijection matching image pairs, or None."""
    if not iso_check(s, t):
        return None
    pairs_t = list(enumerate(t.pairs()))
    image = []
    used = set()
    for ps in s.pairs():
        for j, pt in pairs_t:
            if j not in used and pt == ps:
                image.append(j)
                used.add(j)
                break
    return image


def generators_m():
    """The ten basic arrows in the multiset model."""
    g = {}
    g["copy"] = span_m(1, 2, [[1]], [[1, 1]])
    g["del"] = span_m(1, 0, [[1]], [[]])
    g["merge"] = span_m(2, 1, [[1, 1]], [[1]])
    g["new"] = span_m(0, 1, [[]], [[1]])
    g["split"] = span_m(1, 2, [[1], [1]], [[1, 0], [0, 1]])
    g["stop"] = span_m(1, 0, [], [])
    g["join"] = span_m(2, 1, [[1, 0], [0, 1]], [[1], [1]])
    g["start"] = span_m(0, 1, [], [])
    g["id"] = identity_span_m(1)
    g["swap"] = span_m(2, 2, [[1, 0], [0, 1]], [[0, 1], [1, 0]])
    return g


# the name every model module answers to (see terms.MODELS)
generators = generators_m


def random_span_m(rng, max_boundary=2, max_carrier=2, max_entry=2):
    from .multiset import random_mrel

    while True:
        k, l = rng.randint(0, max_boundary), rng.randint(0, max_boundary)
        n = rng.randint(0, max_carrier)
        s = SpanM(
            k,
            l,
            n,
            random_mrel(rng, dom=n, cod=k, max_entry=max_entry),
            random_mrel(rng, dom=n, cod=l, max_entry=max_entry),
        )
        if s.check():
            return canonical(s)

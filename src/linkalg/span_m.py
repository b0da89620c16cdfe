"""Relational spans of multirelations.

An arrow k -> l is a span k <= x => l of multirelations whose legs are
jointly injective: the pairing x -> (multisets over k) x (multisets
over l) has no repeated value.  Composition takes the weak pullback of
the facing legs and then identifies carrier elements with equal outer
image pairs, which restores joint injectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import span_c
from .multiset import MRel, checked_rows, identity_m, lift_m
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
        """The links as (left image, right image) count tuple pairs, in carrier order."""
        return list(zip(self.lleg.rows, self.rleg.rows))

    def check(self):
        return len(set(self.pairs())) == self.carrier

    def to_dict(self):
        return {
            "model": "m",
            "left": self.left,
            "right": self.right,
            "carrier": self.carrier,
            "lleg": self.lleg.to_matrix(),
            "rleg": self.rleg.to_matrix(),
        }

    @classmethod
    def from_dict(cls, d):
        """Load and validate.

        SpanFormatError if the JSON has the wrong shape; ValueError("invalid
        span: ...") if the legs are not jointly injective.
        """
        left, right, n = nat_keys(d, "left", "right", "carrier")
        lrows, rrows = nat_rows(d, "lleg", n, left), nat_rows(d, "rleg", n, right)
        pairs = list(zip(map(tuple, lrows), map(tuple, rrows)))
        if len(set(pairs)) < n:
            raise ValueError("invalid span: legs are not jointly injective")
        return _span(left, right, pairs)


def _span(left, right, pairs):
    """The span whose links are the (left, right) count tuple pairs, in
    the given order; the pairs are not checked."""
    n = len(pairs)
    return SpanM(
        left,
        right,
        n,
        MRel.derived(n, left, tuple(l for l, _ in pairs)),
        MRel.derived(n, right, tuple(r for _, r in pairs)),
    )


def span_m(left, right, lrows, rrows):
    n = len(lrows)
    if len(rrows) != n:
        raise ValueError("leg row counts differ")
    pairs = list(zip(checked_rows(lrows, n, left), checked_rows(rrows, n, right)))
    if len(set(pairs)) < n:
        raise ValueError("legs are not jointly injective")
    return _span(left, right, pairs)


def canonical(s):
    """Sort the carrier by image pair; a normal form for iso classes."""
    return _span(s.left, s.right, sorted(s.pairs()))


def factorise(left, right, pairs):
    """Quotient a family of image pairs to its distinct values, sorted."""
    return _span(left, right, sorted(set(pairs)))


def identity_span_m(n):
    rows = identity_m(n).rows
    return _span(n, n, list(zip(rows, rows)))


def compose(s, t):
    """Weak pullback over the shared boundary, then image factorisation."""
    if s.right != t.left:
        raise ValueError(f"boundary mismatch: {s.right} vs {t.left}")
    pairs = [(lift_m(s.lleg, m.u), lift_m(t.rleg, m.v)) for m in min_msyncs(s.rleg, t.lleg)]
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
    """A carrier bijection matching image pairs, or None; ValueError if the
    legs are not jointly injective, where a lookup cannot give a bijection."""
    if not iso_check(s, t):
        return None
    where = {p: j for j, p in enumerate(t.pairs())}
    if len(where) < t.carrier:
        raise ValueError("legs are not jointly injective")
    return [where[p] for p in s.pairs()]


def forget_contention(s):
    """View a contention-model span as a multiset-model span.

    Image subsets become 0/1 count tuples and the contention is
    dropped; only meaningful when the resulting pairs stay distinct.
    """
    lrows = [tuple((m >> j) & 1 for j in range(s.left)) for m in s.lleg.img_masks]
    rrows = [tuple((m >> j) & 1 for j in range(s.right)) for m in s.rleg.img_masks]
    return span_m(s.left, s.right, lrows, rrows)


# model c's ten basic arrows with their contention forgotten, built once
# and shared; generators_m() returns a fresh dict over them
GENERATORS = {name: forget_contention(g) for name, g in span_c.GENERATORS.items()}
generators_m = generators = GENERATORS.copy


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

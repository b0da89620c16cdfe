"""Relational spans of multirelations.

An arrow k -> l is a span k <= x => l of multirelations whose legs are
jointly injective: the pairing x -> (multisets over k) x (multisets
over l) has no repeated value.  Up to isomorphism of the carrier such a
span is exactly its set of links, the (left image, right image) count
tuple pairs, so a SpanM stores that set, sorted: two spans are
isomorphic exactly when they are equal.  Composition takes the weak
pullback of the facing legs and keeps the distinct outer image pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import span_c
from .multiset import MRel, identity_m, lift_m
from .shape import nat_keys, nat_matrix, nat_rows
from .sync_m import min_msyncs


@dataclass(frozen=True)
class SpanM:
    """links: the distinct (left counts, right counts) pairs, sorted on
    construction.  A repeated link, or a row whose length is not its
    boundary, raises ValueError; the counts themselves are checked
    (SpanFormatError) by span_m and from_dict."""

    left: int
    right: int
    links: tuple

    MODEL = "m"

    def __post_init__(self):
        links = tuple(sorted(self.links))
        if any(len(l) != self.left or len(r) != self.right for l, r in links):
            raise ValueError("link rows must match the boundaries")
        if any(a == b for a, b in zip(links, links[1:])):
            raise ValueError("legs are not jointly injective")
        object.__setattr__(self, "links", links)

    # the carrier and the two legs, read off the links; the legs are
    # built on first use and kept
    @property
    def carrier(self):
        return len(self.links)

    @cached_property
    def lleg(self):
        return MRel.derived(len(self.links), self.left, tuple(l for l, _ in self.links))

    @cached_property
    def rleg(self):
        return MRel.derived(len(self.links), self.right, tuple(r for _, r in self.links))

    def to_dict(self):
        return {
            "model": "m",
            "left": self.left,
            "right": self.right,
            "carrier": len(self.links),
            "lleg": [list(l) for l, _ in self.links],
            "rleg": [list(r) for _, r in self.links],
        }

    @classmethod
    def from_dict(cls, d):
        """Load and validate.

        SpanFormatError if the JSON has the wrong shape; ValueError("invalid
        span: ...") if the legs are not jointly injective.
        """
        left, right, n = nat_keys(d, "left", "right", "carrier")
        lrows, rrows = nat_rows(d, "lleg", n, left), nat_rows(d, "rleg", n, right)
        try:
            return cls(left, right, zip(map(tuple, lrows), map(tuple, rrows)))
        except ValueError as exc:
            raise ValueError(f"invalid span: {exc}") from None


def span_m(left, right, lrows, rrows):
    lrows, rrows = nat_matrix(lrows, "lleg", None, left), nat_matrix(rrows, "rleg", None, right)
    if len(lrows) != len(rrows):
        raise ValueError("leg row counts differ")
    return SpanM(left, right, zip(map(tuple, lrows), map(tuple, rrows)))


def factorise(left, right, pairs):
    """Quotient a family of image pairs to its distinct values."""
    return SpanM(left, right, set(pairs))


def identity_span_m(n):
    rows = identity_m(n).rows
    return SpanM(n, n, zip(rows, rows))


def compose(s, t):
    """Weak pullback over the shared boundary, then image factorisation."""
    if s.right != t.left:
        raise ValueError(f"boundary mismatch: {s.right} vs {t.left}")
    pairs = [(lift_m(s.lleg, m.u), lift_m(t.rleg, m.v)) for m in min_msyncs(s.rleg, t.lleg)]
    return factorise(s.left, t.right, pairs)


def tensor(s, t):
    pairs = [
        (l + (0,) * t.left, r + (0,) * t.right)
        for l, r in s.links
    ] + [
        ((0,) * s.left + l, (0,) * s.right + r)
        for l, r in t.links
    ]
    # distinct pairs can only collide on all-zero rows; identifying those
    # keeps the result jointly injective
    return factorise(s.left + t.left, s.right + t.right, pairs)


def iso_check(s, t):
    """Links are stored as a sorted set, so isomorphism is equality."""
    return s == t


def find_iso(s, t):
    """The carrier bijection, or None: equal spans list their links in
    the same order, so it is the identity."""
    return list(range(s.carrier)) if s == t else None


def forget_contention(s):
    """View a contention-model span as a multiset-model span.

    Image subsets become 0/1 count tuples and the contention is
    dropped; ValueError if two links then coincide.
    """
    lrows = [tuple((m >> j) & 1 for j in range(s.left)) for m in s.lleg.img_masks]
    rrows = [tuple((m >> j) & 1 for j in range(s.right)) for m in s.rleg.img_masks]
    return SpanM(s.left, s.right, zip(lrows, rrows))


# model c's ten basic arrows with their contention forgotten, built once
# and shared; generators_m() returns a fresh dict over them
GENERATORS = {name: forget_contention(g) for name, g in span_c.GENERATORS.items()}
generators_m = generators = GENERATORS.copy

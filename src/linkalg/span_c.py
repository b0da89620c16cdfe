"""Spans over discrete boundaries in the contention model.

An arrow k -> l is a span of relations out of a common carrier,
k <= (X, contention) => l, with both boundaries discrete.  Arrows are
compared up to carrier isomorphism; composition pulls back along the
shared boundary via minimal synchronisations, the tensor is disjoint
union on every level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contention import CSet, coproduct, discrete, set_of
from .crel import CRel, compose as crel_compose, lift_mask, op_graph, validate
from .sync_c import min_sync_masks, sync_space


@dataclass(frozen=True)
class SpanC:
    left: int
    right: int
    carrier: CSet
    lleg: CRel
    rleg: CRel

    MODEL = "c"

    def __post_init__(self):
        if self.lleg.dom != self.carrier or self.rleg.dom != self.carrier:
            raise ValueError("legs must share the carrier as domain")
        if self.lleg.cod != discrete(self.left) or self.rleg.cod != discrete(self.right):
            raise ValueError("boundaries must be discrete of the stated sizes")

    def check(self):
        from .crel import CheckResult

        for leg in (self.lleg, self.rleg):
            res = validate(leg)
            if not res:
                return res
        return CheckResult(True)

    def to_dict(self):
        return {
            "model": "c",
            "left": self.left,
            "right": self.right,
            "carrier": self.carrier.to_dict(),
            "lleg": [sorted(u) for u in self.lleg.map],
            "rleg": [sorted(u) for u in self.rleg.map],
        }

    @classmethod
    def from_dict(cls, d):
        """Load and validate; ValueError("invalid span: ...") if the legs break the arrow condition."""
        return span_c(d["left"], d["right"], CSet.from_dict(d["carrier"]), d["lleg"], d["rleg"])


def span_c(left, right, carrier, limages, rimages):
    s = SpanC(
        left,
        right,
        carrier,
        CRel(carrier, discrete(left), tuple(frozenset(u) for u in limages)),
        CRel(carrier, discrete(right), tuple(frozenset(u) for u in rimages)),
    )
    res = s.check()
    if not res:
        raise ValueError(f"invalid span: {res.reason}")
    return s


def identity_span(n):
    x = discrete(n)
    return SpanC(n, n, x, CRel(x, x, tuple(frozenset([i]) for i in range(n))), CRel(x, x, tuple(frozenset([i]) for i in range(n))))


def compose(s, t):
    """Pull back s.rleg against t.lleg and push the outer legs through."""
    if s.right != t.left:
        raise ValueError(f"boundary mismatch: {s.right} vs {t.left}")
    pairs = min_sync_masks(s.rleg, t.lleg)
    space = sync_space(s.rleg, t.lleg, pairs)
    lmap = tuple(set_of(lift_mask(s.lleg, mu)) for mu, _ in pairs)
    rmap = tuple(set_of(lift_mask(t.rleg, mv)) for _, mv in pairs)
    return SpanC(
        s.left,
        t.right,
        space,
        CRel(space, discrete(s.left), lmap),
        CRel(space, discrete(t.right), rmap),
    )


def tensor(s, t):
    carrier, _, inr = coproduct(s.carrier, t.carrier)
    off = s.carrier.size
    lmap = [frozenset(u) for u in s.lleg.map] + [frozenset(e + s.left for e in u) for u in t.lleg.map]
    rmap = [frozenset(u) for u in s.rleg.map] + [frozenset(e + s.right for e in u) for u in t.rleg.map]
    assert inr == tuple(range(off, off + t.carrier.size))
    return SpanC(
        s.left + t.left,
        s.right + t.right,
        carrier,
        CRel(carrier, discrete(s.left + t.left), tuple(lmap)),
        CRel(carrier, discrete(s.right + t.right), tuple(rmap)),
    )


def _signatures(s):
    deg = [bin(m).count("1") for m in s.carrier.adj]
    return [
        (tuple(sorted(s.lleg.map[i])), tuple(sorted(s.rleg.map[i])), deg[i])
        for i in range(s.carrier.size)
    ]


def find_iso(s, t):
    """A carrier bijection matching legs and contention exactly, or None."""
    if (s.left, s.right, s.carrier.size) != (t.left, t.right, t.carrier.size):
        return None
    sig_s, sig_t = _signatures(s), _signatures(t)
    if sorted(sig_s) != sorted(sig_t):
        return None
    n = s.carrier.size
    cands = [[j for j in range(n) if sig_t[j] == sig_s[i]] for i in range(n)]
    assignment = [-1] * n
    used = [False] * n
    tried = [0] * n  # per carrier element of s, how many of its candidates were tried

    def fits(i, j):
        for k in range(i):
            if s.carrier.contends(i, k) != t.carrier.contends(j, assignment[k]):
                return False
        return True

    # depth-first over i with an explicit stack, so that carrier size is
    # not bounded by the recursion limit
    i = 0
    while 0 <= i < n:
        if assignment[i] >= 0:  # back from a dead end: undo this element's choice
            used[assignment[i]] = False
            assignment[i] = -1
        row = cands[i]
        while tried[i] < len(row):
            j = row[tried[i]]
            tried[i] += 1
            if not used[j] and fits(i, j):
                assignment[i] = j
                used[j] = True
                i += 1
                break
        else:
            tried[i] = 0
            i -= 1
    return assignment if i == n else None


def iso_check(s, t):
    return find_iso(s, t) is not None


GENERATOR_NAMES = ("copy", "del", "merge", "new", "split", "stop", "join", "start", "id", "swap")


def generators():
    """The ten basic arrows, keyed by their term-language names."""
    from .contention import full

    g = {}
    g["copy"] = span_c(1, 2, discrete(1), [[0]], [[0, 1]])
    g["del"] = span_c(1, 0, discrete(1), [[0]], [[]])
    g["merge"] = span_c(2, 1, discrete(1), [[0, 1]], [[0]])
    g["new"] = span_c(0, 1, discrete(1), [[]], [[0]])
    g["split"] = span_c(1, 2, full(2), [[0], [0]], [[0], [1]])
    g["stop"] = span_c(1, 0, CSet(0), [], [])
    g["join"] = span_c(2, 1, full(2), [[0], [1]], [[0], [0]])
    g["start"] = span_c(0, 1, CSet(0), [], [])
    g["id"] = identity_span(1)
    g["swap"] = span_c(2, 2, discrete(2), [[0], [1]], [[1], [0]])
    return g


@dataclass(frozen=True)
class Cospan:
    """k -> carrier <- l between finite sets, maps stored as index lists."""

    left: int
    right: int
    carrier: int
    lmap: tuple
    rmap: tuple

    def __post_init__(self):
        if len(self.lmap) != self.left or len(self.rmap) != self.right:
            raise ValueError("boundary map lengths must match the boundaries")
        for v in tuple(self.lmap) + tuple(self.rmap):
            if not (0 <= v < self.carrier):
                raise ValueError("boundary map value out of range")
        object.__setattr__(self, "lmap", tuple(self.lmap))
        object.__setattr__(self, "rmap", tuple(self.rmap))

    def to_dict(self):
        return {
            "left": self.left,
            "right": self.right,
            "carrier": self.carrier,
            "lmap": list(self.lmap),
            "rmap": list(self.rmap),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["left"], d["right"], d["carrier"], tuple(d["lmap"]), tuple(d["rmap"]))


def embed_cospan(c):
    """Turn a cospan of functions into a span by taking preimage maps.

    The carrier stays the same set, now with no contention, and each
    leg sends a carrier element to its preimage on that boundary.
    """
    return SpanC(
        c.left,
        c.right,
        discrete(c.carrier),
        op_graph(c.lmap, c.carrier),
        op_graph(c.rmap, c.carrier),
    )


def compose_cospans(c, d):
    """Pushout composition, carrier glued with a union-find."""
    if c.right != d.left:
        raise ValueError("boundary mismatch")
    total = c.carrier + d.carrier
    parent = list(range(total))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for z in range(c.right):
        a, b = find(c.rmap[z]), find(d.lmap[z] + c.carrier)
        if a != b:
            parent[b] = a
    reps = {}
    for v in range(total):
        r = find(v)
        if r not in reps:
            reps[r] = len(reps)
    lmap = tuple(reps[find(v)] for v in c.lmap)
    rmap = tuple(reps[find(v + c.carrier)] for v in d.rmap)
    return Cospan(c.left, d.right, len(reps), lmap, rmap)


def cospan_key(c):
    """Iso classes of cospans: the multiset of boundary preimage pairs."""
    pre_l = [[] for _ in range(c.carrier)]
    pre_r = [[] for _ in range(c.carrier)]
    for i, v in enumerate(c.lmap):
        pre_l[v].append(i)
    for i, v in enumerate(c.rmap):
        pre_r[v].append(i)
    pairs = sorted((tuple(pre_l[v]), tuple(pre_r[v])) for v in range(c.carrier))
    return (c.left, c.right, tuple(pairs))


def cospan_iso(c, d):
    return cospan_key(c) == cospan_key(d)


def random_span_c(rng, max_boundary=3, max_carrier=3):
    from .crel import random_cset, random_crel

    k, l = rng.randint(0, max_boundary), rng.randint(0, max_boundary)
    carrier = random_cset(rng, max_carrier)
    lleg = random_crel(rng, dom=carrier, cod=discrete(k))
    rleg = random_crel(rng, dom=carrier, cod=discrete(l))
    return SpanC(k, l, carrier, lleg, rleg)


def random_cospan(rng, max_boundary=3, max_carrier=4):
    k, l = rng.randint(0, max_boundary), rng.randint(0, max_boundary)
    n = rng.randint(1, max_carrier)
    return Cospan(k, l, n, tuple(rng.randrange(n) for _ in range(k)), tuple(rng.randrange(n) for _ in range(l)))

"""Spans over discrete boundaries in the contention model.

An arrow k -> l is a span of relations out of a common carrier,
k <= (X, contention) => l, with both boundaries discrete.  Arrows are
compared up to carrier isomorphism; composition pulls back along the
shared boundary via minimal synchronisations, the tensor is disjoint
union on every level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contention import CSet, coproduct, discrete, full, members
from .crel import CRel, compose as crel_compose, identity as crel_identity, op_graph, validate
from .shape import nat, nat_keys, nat_rows, nats, need
from .sync_c import pullback


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
        for leg, size in ((self.lleg, self.left), (self.rleg, self.right)):
            if leg.cod.size != size or any(leg.cod.adj):
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
            "lleg": [list(members(m)) for m in self.lleg.img_masks],
            "rleg": [list(members(m)) for m in self.rleg.img_masks],
        }

    @classmethod
    def from_dict(cls, d):
        """Load and validate.

        SpanFormatError if the JSON has the wrong shape; ValueError("invalid
        span: ...") if the legs break the arrow condition.
        """
        left, right = nat_keys(d, "left", "right")
        carrier = need(d, "carrier")
        size = nat(need(carrier, "size"), "carrier size")  # legs first: the c-set allocates a row per element
        lleg = nat_rows(d, "lleg", size, None, left)
        rleg = nat_rows(d, "rleg", size, None, right)
        return span_c(left, right, CSet.from_dict(carrier), lleg, rleg)


def span_c(left, right, carrier, limages, rimages):
    s = SpanC(
        left,
        right,
        carrier,
        CRel(carrier, discrete(left), limages),
        CRel(carrier, discrete(right), rimages),
    )
    res = s.check()
    if not res:
        raise ValueError(f"invalid span: {res.reason}")
    return s


def identity_span(n):
    x = discrete(n)
    return SpanC(n, n, x, crel_identity(x), crel_identity(x))


def compose(s, t):
    """Pull back s.rleg against t.lleg and push the outer legs through."""
    if s.right != t.left:
        raise ValueError(f"boundary mismatch: {s.right} vs {t.left}")
    space, p, q = pullback(s.rleg, t.lleg)
    return SpanC(s.left, t.right, space, crel_compose(p, s.lleg), crel_compose(q, t.rleg))


def tensor(s, t):
    """Disjoint union of carriers; t's links and ports shift past s's."""
    carrier, _, _ = coproduct(s.carrier, t.carrier)
    lmasks = s.lleg.img_masks + tuple(m << s.left for m in t.lleg.img_masks)
    rmasks = s.rleg.img_masks + tuple(m << s.right for m in t.rleg.img_masks)
    return SpanC(
        s.left + t.left,
        s.right + t.right,
        carrier,
        CRel(carrier, discrete(s.left + t.left), masks=lmasks),
        CRel(carrier, discrete(s.right + t.right), masks=rmasks),
    )


def _signatures(s):
    return list(zip(s.lleg.img_masks, s.rleg.img_masks, (row.bit_count() for row in s.carrier.adj)))


def find_iso(s, t):
    """A carrier bijection matching legs and contention exactly, or None."""
    if (s.left, s.right, s.carrier.size) != (t.left, t.right, t.carrier.size):
        return None
    sig_s, sig_t = _signatures(s), _signatures(t)
    if sorted(sig_s) != sorted(sig_t):
        return None
    n = s.carrier.size
    by_sig = {}  # signature -> the elements of t that have it, in increasing order
    for j, sig in enumerate(sig_t):
        by_sig.setdefault(sig, []).append(j)
    cands = [by_sig[sig] for sig in sig_s]
    s_adj, t_adj = s.carrier.adj, t.carrier.adj
    assignment = [-1] * n
    used = 0  # bitmask of the elements of t assigned so far
    tried = [0] * n  # per carrier element of s, how many of its candidates were tried

    # depth-first over i with an explicit stack, so that carrier size is
    # not bounded by the recursion limit
    i = 0
    while 0 <= i < n:
        if assignment[i] >= 0:  # back from a dead end: undo this element's choice
            used ^= 1 << assignment[i]
            assignment[i] = -1
        # j fits i when its assigned neighbours are the images of i's
        # neighbours among 0..i-1.  used holds the images of all of
        # 0..i-1, so when i contends with most of them, take the images
        # of the others away from used instead.
        earlier = (1 << i) - 1
        nbrs = s_adj[i] & earlier
        want, rest = (used, earlier ^ nbrs) if 2 * nbrs.bit_count() > i else (0, nbrs)
        for k in members(rest):
            want ^= 1 << assignment[k]
        row = cands[i]
        while tried[i] < len(row):
            j = row[tried[i]]
            tried[i] += 1
            if not (used >> j) & 1 and t_adj[j] & used == want:
                assignment[i] = j
                used |= 1 << j
                i += 1
                break
        else:
            tried[i] = 0
            i -= 1
    return assignment if i == n else None


def iso_check(s, t):
    return find_iso(s, t) is not None


# The ten basic arrows by term-language name, written out only here (model
# m forgets their contention).  Built once and shared; generators()
# returns a fresh dict over them.
GENERATORS = {
    "copy": span_c(1, 2, discrete(1), [[0]], [[0, 1]]),
    "del": span_c(1, 0, discrete(1), [[0]], [[]]),
    "merge": span_c(2, 1, discrete(1), [[0, 1]], [[0]]),
    "new": span_c(0, 1, discrete(1), [[]], [[0]]),
    "split": span_c(1, 2, full(2), [[0], [0]], [[0], [1]]),
    "stop": span_c(1, 0, CSet(0), [], []),
    "join": span_c(2, 1, full(2), [[0], [1]], [[0], [0]]),
    "start": span_c(0, 1, CSet(0), [], []),
    "id": identity_span(1),
    "swap": span_c(2, 2, discrete(2), [[0], [1]], [[1], [0]]),
}
generators = GENERATORS.copy


@dataclass(frozen=True)
class Cospan:
    """k -> carrier <- l between finite sets, maps stored as index lists."""

    left: int
    right: int
    carrier: int
    lmap: tuple
    rmap: tuple

    def __post_init__(self):
        nat_keys(vars(self), "left", "right", "carrier")
        if len(self.lmap) != self.left or len(self.rmap) != self.right:
            raise ValueError("boundary map lengths must match the boundaries")
        for v in tuple(self.lmap) + tuple(self.rmap):
            nat(v, "boundary map value", self.carrier)
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
        """Load; SpanFormatError if the JSON has the wrong shape."""
        left, right, n = nat_keys(d, "left", "right", "carrier")
        lmap = nats(need(d, "lmap"), "lmap", left, n)
        rmap = nats(need(d, "rmap"), "rmap", right, n)
        return cls(left, right, n, tuple(lmap), tuple(rmap))


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

"""Finite carriers equipped with a contention relation.

A carrier of size n is the ordinal {0, .., n-1}.  Contention is a
reflexive symmetric relation, stored as one adjacency bitmask per
element: bit b of adj[a] is set when a and b are distinct and contend.
Reflexive pairs are implicit.  Two elements are independent when they
are distinct and not in contention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .shape import nat, nat_rows, nats, need


@dataclass(frozen=True, init=False)
class CSet:
    """A finite set with a contention relation on it.

    CSet(size, pairs) checks the pairs and drops reflexive ones;
    CSet(size, adj=rows) takes rows derived from c-sets already built,
    unchecked.
    """

    size: int
    adj: tuple

    def __init__(self, size, contention=(), *, adj=None):
        if adj is None:
            rows = [0] * nat(size, "size")
            for i, pair in enumerate(contention):
                a, b = nats(list(pair), f"contention[{i}]", 2, size)
                if a != b:  # reflexive pairs are implicit
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
            adj = rows
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "adj", tuple(adj))

    def pairs(self):
        """The contention pairs (a, b), a < b, in increasing order."""
        for a, row in enumerate(self.adj):
            yield from ((a, b) for b in members(row) if b > a)

    @property
    def contention(self):
        """The contention as a frozenset of pairs (a, b) with a < b."""
        return frozenset(self.pairs())

    def contends(self, a, b):
        """Reflexive closure: every element contends with itself."""
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise ValueError(f"element out of range for size {self.size}")
        return a == b or (self.adj[a] >> b) & 1 == 1

    def to_dict(self):
        return {"size": self.size, "contention": [list(p) for p in self.pairs()]}

    @classmethod
    def from_dict(cls, d, name="carrier"):
        """Load; SpanFormatError, naming the c-set by name, if of the wrong shape."""
        size = nat(need(d, "size"), f"{name} size")
        return cls(size, nat_rows(d, "contention", None, 2, size))


def discrete(n):
    """The c-set on n elements whose only contention is reflexive.

    >>> discrete(2).contention
    frozenset()
    """
    return CSet(n)


def full(n):
    """The c-set on n elements where everything contends with everything."""
    every = (1 << n) - 1
    return CSet(n, adj=[every ^ (1 << a) for a in range(n)])


def coproduct(x, y):
    """Disjoint union; contention never crosses the two components.

    Returns the sum c-set together with the two injection index maps.
    """
    z = CSet(x.size + y.size, adj=x.adj + tuple(row << x.size for row in y.adj))
    return z, tuple(range(x.size)), tuple(range(x.size, z.size))


def members(mask):
    """The members of a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(x, elems):
    m = 0
    for e in elems:
        m |= 1 << nat(e, "element", x.size)
    return m


def set_of(mask):
    return frozenset(members(mask))


def _indep_mask(x, m):
    mm = m
    while mm:
        low = mm & -mm
        if x.adj[low.bit_length() - 1] & m:
            return False
        mm ^= low
    return True


def is_independent(x, elems):
    """No two distinct members of elems contend in x.

    >>> is_independent(full(2), {0, 1})
    False
    >>> is_independent(discrete(2), {0, 1})
    True
    """
    return _indep_mask(x, mask_of(x, elems))


def indep_masks(x):
    """All independent subsets of x as bitmasks, in increasing mask order."""
    if x.size == 0:
        return [0]
    # m independent iff m minus its lowest bit is and that bit sees none of m
    good = bytearray(1 << x.size)
    good[0] = 1
    out = [0]
    for m in range(1, 1 << x.size):
        low = m & -m
        if good[m ^ low] and not (x.adj[low.bit_length() - 1] & m):
            good[m] = 1
            out.append(m)
    return out


def indep_subsets(x):
    """Independent subsets in canonical (increasing bitmask) order.

    >>> [sorted(s) for s in indep_subsets(discrete(2))]
    [[], [0], [1], [0, 1]]
    >>> [sorted(s) for s in indep_subsets(full(2))]
    [[], [0], [1]]
    """
    return [set_of(m) for m in indep_masks(x)]


def pc_contends_masks(x, u, v):
    """Contention between subsets: some element of u contends with some of v."""
    if u & v:
        return True
    mm = u
    while mm:
        low = mm & -mm
        if x.adj[low.bit_length() - 1] & v:
            return True
        mm ^= low
    return False


def powerset_contention(x, u, v):
    """Contention on independent subsets of x.

    Both arguments must be independent; the relation holds when some
    member of one contends (reflexively) with some member of the other.
    """
    mu, mv = mask_of(x, u), mask_of(x, v)
    if not _indep_mask(x, mu):
        raise ValueError(f"{sorted(u)} is not independent")
    if not _indep_mask(x, mv):
        raise ValueError(f"{sorted(v)} is not independent")
    return pc_contends_masks(x, mu, mv)

"""Synchronisations between a cospan of relations, and the pullback they induce.

Given f: A -> X and g: B -> X, a synchronisation is a pair of
independent subsets (U, V) of A and B whose lifts agree in X.  The
nonzero minimal ones form the carrier of the pullback of f and g; a
pair of minimal synchronisations contends exactly when their U parts
or their V parts contend as subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contention import CSet, mask_of, members, set_of, _indep_mask
from .crel import CRel, lift_mask, validate


@dataclass(frozen=True)
class SyncC:
    u: frozenset
    v: frozenset


def is_sync(f, g, u, v):
    if f.cod != g.cod:
        raise ValueError("arrows must share a codomain")
    mu, mv = mask_of(f.dom, u), mask_of(g.dom, v)
    if not (_indep_mask(f.dom, mu) and _indep_mask(g.dom, mv)):
        raise ValueError("synchronisation parts must be independent")
    return lift_mask(f, mu) == lift_mask(g, mv)


def min_sync_masks(f, g):
    """Minimal nonzero synchronisations as (umask, vmask) pairs.

    f and g must be valid (crel.validate), or pairs that are not minimal
    may appear.  Independent elements of a valid arrow have disjoint
    images, as overlapping images contend reflexively, so a part's lift
    is the OR of its members' images: each state carries its two lifts.

    A minimal synchronisation M is grown from the lowest element a of
    its left part, at each step adding an element that covers the
    lowest port p on which the two lifts still disagree, and stopping at
    the first agreement.  While the state lies in M, the element of M
    covering p is one of its children: it is independent of the state's
    part, and not below a, as no left element below the seed is ever
    added.  The search is a tree, so M is grown once: the states grown
    from a seed have it as their lowest left element, and a state's
    children add distinct elements that all cover p, so any two contend
    and no state holds both.  If M's left part is empty, its right
    part's lift is empty, so it is a single right element with an empty
    image; no seed reaches those, and they are taken on their own.

    On valid arrows every candidate C is minimal too, and none is
    filtered.  Were C above a smaller nonzero synchronisation, the rest
    of C would be one too: C would split into S, holding the seed, and
    R, with disjoint lifts on either side.  Inductively the state lies
    in S, so p is in the lift of S on the other side, and the element
    added to cover p is not in R, whose lifts agree.  So C lies in S, a
    contradiction.  Tests compare against a plain increasing-size
    enumeration.
    """
    if f.cod != g.cod:
        raise ValueError("arrows must share a codomain")
    fa, ga = f.dom.adj, g.dom.adj
    fim, gim = f.img_masks, g.img_masks
    covers_a = [[a for a in range(f.dom.size) if (fim[a] >> p) & 1] for p in range(f.cod.size)]
    covers_b = [[b for b in range(g.dom.size) if (gim[b] >> p) & 1] for p in range(g.cod.size)]
    found = [(0, 1 << b) for b, im in enumerate(gim) if not im]
    for seed, im in enumerate(fim):
        stack = [(1 << seed, 0, im, 0)]  # (umask, vmask, their lifts)
        while stack:
            mu, mv, lu, lv = stack.pop()
            diff = lu ^ lv
            if not diff:
                found.append((mu, mv))
                continue
            p = (diff & -diff).bit_length() - 1
            if (lu >> p) & 1:
                stack += [(mu, mv | 1 << b, lu, lv | gim[b]) for b in covers_b[p] if not ga[b] & mv]
            else:
                stack += [(mu | 1 << a, mv, lu | fim[a], lv) for a in covers_a[p] if a > seed and not fa[a] & mu]
    # canonical order: by the sorted members of U, then of V
    return sorted(found, key=lambda p: (tuple(members(p[0])), tuple(members(p[1]))))


def min_syncs(f, g):
    """Minimal synchronisations in canonical order, with their contention."""
    pairs = min_sync_masks(f, g)
    space = sync_space(f, g, pairs)
    return [SyncC(set_of(mu), set_of(mv)) for mu, mv in pairs], space


def sync_space(f, g, pairs):
    """The c-set on the synchronisations (umask, vmask) in pairs.

    Two contend when their U parts or their V parts contend as subsets.
    On each side, holders[e] holds the synchronisations whose part on
    that side contains the element e.  Those whose part contains e or
    an element contending with e, touches[e], are the OR of holders
    over e's closed neighbourhood adj[e] | 1 << e, which is e's key.  A
    synchronisation's row is the OR of touches over the members of its
    two parts, less its own bit.

    Elements often share a key (on a full carrier all do), so the OR is
    computed once per distinct key.  Each key is read one 8-element
    chunk of the domain at a time: the OR of holders over a chunk's byte
    is walked bit by bit the first time that (chunk, byte) is met and
    looked up afterwards.  A dense key so costs about one step per bit,
    and keys sharing bytes about one lookup per chunk; only the (chunk,
    byte) pairs that occur are ever computed.
    """
    rows = [0] * len(pairs)
    for side, dom in enumerate((f.dom, g.dom)):
        holders = [0] * dom.size
        for i, p in enumerate(pairs):
            m, bit = p[side], 1 << i
            while m:
                low = m & -m
                holders[low.bit_length() - 1] |= bit
                m ^= low
        keys = [row | 1 << e for e, row in enumerate(dom.adj)]
        memo = _ors(holders, set(keys))
        touches = [memo[key] for key in keys]
        for i, p in enumerate(pairs):
            m, row = p[side], rows[i]
            while m:
                low = m & -m
                row |= touches[low.bit_length() - 1]
                m ^= low
            rows[i] = row
    return CSet(len(pairs), adj=[row & ~(1 << i) for i, row in enumerate(rows)])


def _ors(holders, keys):
    """{key: the OR of holders[e] over the members e of key}."""
    width = -(-len(holders) // 8)
    parts = [None] * (256 * width)  # index 256 * chunk + byte: the OR over that byte
    memo = {}
    for key in keys:
        acc, at = 0, 0  # at: 256 * the chunk
        for byte in key.to_bytes(width, "little"):
            if byte:
                part = parts[at + byte]
                if part is None:
                    part, m, first = 0, byte, at >> 5  # first: the chunk's first element
                    while m:
                        low = m & -m
                        part |= holders[first + low.bit_length() - 1]
                        m ^= low
                    parts[at + byte] = part
                acc |= part
            at += 256
        memo[key] = acc
    return memo


def pullback(f, g):
    """The span (M, p, q) of minimal synchronisations over f, g.

    f and g must be valid arrows, as min_sync_masks requires.  p and q
    project a synchronisation to its two parts; both are valid arrows
    because contention on M is inherited from the parts.
    """
    pairs = min_sync_masks(f, g)
    space = sync_space(f, g, pairs)
    p = CRel(space, f.dom, masks=[mu for mu, _ in pairs])
    q = CRel(space, g.dom, masks=[mv for _, mv in pairs])
    return space, p, q


def mediator(f, g, alpha, beta):
    """The unique arrow into the pullback commuting with a cone.

    alpha: Z -> A and beta: Z -> B with equal lifts into X.  Each cone
    element maps to the set of minimal synchronisations lying below its
    pair of images; this is the only choice making both triangles
    commute, which the tests confirm by exhaustive enumeration.
    """
    if alpha.cod != f.dom or beta.cod != g.dom:
        raise ValueError("cone legs do not match the arrows")
    if alpha.dom != beta.dom:
        raise ValueError("cone legs must share a domain")
    pairs = min_sync_masks(f, g)
    space = sync_space(f, g, pairs)
    images = []
    for z in range(alpha.dom.size):
        au, bv = alpha.img_masks[z], beta.img_masks[z]
        if lift_mask(f, au) != lift_mask(g, bv):
            raise ValueError(f"not a cone: lifts differ at element {z}")
        below = (1 << i for i, (mu, mv) in enumerate(pairs) if mu & ~au == 0 and mv & ~bv == 0)
        images.append(sum(below))  # distinct bits: the sum is their OR
    h = CRel(alpha.dom, space, masks=images)
    if not validate(h):
        raise ValueError("mediating map is not a valid arrow")
    return h

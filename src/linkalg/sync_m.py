"""Synchronisations between multirelations into a common codomain.

For f: A -> X and g: B -> X, a synchronisation is a pair of multisets
(U, V) over A and B with equal lifts.  Solutions of that linear system
are closed under sum and difference, and the minimal nonzero ones are
finite (a Hilbert basis); they are computed by completion: grow
candidate vectors one unit at a time towards the kernel, pruning
anything that already dominates a known minimal solution.  Each
candidate carries its value and its inner products with the columns,
so a step costs one vector addition, and the dominance test looks only
at the minimal solutions that can dominate the new candidate (see
min_msync_vectors).

The completion is also kept inside a box.  The solutions x >= 0 form a
cone C generated by its extreme rays (found by double description).
A minimal solution is a ray or a combination sum lam_i r_i of at most
d = dim C independent rays with every lam_i < 1 (otherwise x - r_i is
a smaller solution), so x[j] is at most the largest r[j] or the sum of
the d largest r[j] minus one.  A candidate that leaves the box is
never grown, since every minimal solution is reached through
candidates below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add, le, mul

from .multiset import MRel, lift_m
from .shape import nats


@dataclass(frozen=True)
class SyncM:
    """Count tuples over the domains of the two arrows."""

    u: tuple
    v: tuple


def is_msync(f, g, u, v):
    """Whether u and v, arrays of f.dom and g.dom naturals, have equal lifts."""
    if f.cod != g.cod:
        raise ValueError("arrows must share a codomain")
    return lift_m(f, nats(u, "u", f.dom)) == lift_m(g, nats(v, "v", g.dom))


def _columns(f, g):
    return list(f.rows) + [tuple(-c for c in r) for r in g.rows]


def _rays(cols, n):
    """Extreme rays of the cone {x >= 0 : sum x[i]*cols[i] = 0}.

    Integer double description (Motzkin et al. 1953): start from the unit
    vectors, the rays of x >= 0, and cut by one equation a at a time.
    Rays with <a, r> = 0 stay; every pair p, q with <a, p> > 0 > <a, q>
    gives <a, p>*q - <a, q>*p, divided by its gcd.  A ray of the cut cone
    is exactly a solution of minimal support, and one support carries one
    primitive ray, so the candidates are kept when no other candidate's
    support (a bitmask) lies inside theirs, once per support.
    """
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    for row in zip(*cols):
        keep, pos, neg = [], [], []
        for r in rays:
            a = sum(map(mul, row, r))
            if a > 0:
                pos.append((a, r))
            elif a < 0:
                neg.append((a, r))
            else:
                keep.append(r)
        for a, p in pos:
            for b, q in neg:
                c = [a * y - b * x for x, y in zip(p, q)]
                g = gcd(*c)
                keep.append(tuple(x // g for x in c))
        found = {}
        for r in keep:
            found.setdefault(sum(1 << j for j, x in enumerate(r) if x), r)
        masks, rays = [], []
        for m in sorted(found, key=int.bit_count):
            if not any(k & m == k for k in masks):
                masks.append(m)
                rays.append(found[m])
    return rays


def _rank(vectors):
    """Rank over the rationals by fraction-free integer elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    while rows:
        p = rows.pop()
        j = next((j for j, x in enumerate(p) if x), None)
        if j is None:
            continue
        rank += 1
        pj = p[j]
        for r in rows:
            if r[j]:
                rj = r[j]
                r[:] = [pj * x - rj * y for x, y in zip(r, p)]
                g = gcd(*r)
                if g > 1:
                    r[:] = [x // g for x in r]
    return rank


def _box(cols, n):
    """Per-coordinate bounds on the Hilbert basis, or None if the cone is {0}.

    By Caratheodory a solution x is sum lam_i r_i over at most d = dim C
    linearly independent extreme rays r_i with lam_i >= 0.  If some
    lam_i >= 1, x - r_i is a solution too, so a basis element is either
    a ray or has every lam_i < 1; then x[j] < sum of the d largest r[j],
    and x[j] is an integer.
    """
    rays = _rays(cols, n)
    if not rays:
        return None
    d = _rank(rays)
    box = []
    for col in zip(*rays):
        top = sorted(col, reverse=True)
        box.append(max(top[0], sum(top[:d]) - 1))
    return tuple(box)


def min_msync_vectors(f, g):
    """Minimal nonzero solutions as concatenated (u, v) count tuples.

    Completion by degree (Pottier; Contejean & Devie): the frontier holds
    the candidates t of degree k, each with its value v = sum t[j]*col[j]
    and its row d[j] = <v, col[j]>.  A candidate of value zero is minimal.
    Any other t grows to s = t + e[i] wherever d[i] < 0, i.e. where col[i]
    points against v (Pottier's criterion); s inherits v + col[i] and
    d + gram[i], with gram[i][j] = <col[i], col[j]>, so no value is
    recomputed.  s is dropped when it is already on the next frontier or
    dominates a known minimal solution b (b <= s pointwise).

    Only basis elements with b[i] == s[i] can dominate s.  The candidate t
    dominates no basis element: those of degree < k were ruled out when t
    was created, and one of degree k that is <= t would be t itself, whose
    value is nonzero.  So if b <= s = t + e[i] and b[i] <= t[i], then
    b <= t, which cannot be; hence b[i] = t[i] + 1 = s[i].  The basis is
    indexed by (coordinate, nonzero count) to find exactly those b.

    s is also dropped when it leaves the box of _box: every basis element
    lies inside it, and every basis element b is reached by a chain of
    candidates t <= b (that is Pottier's completeness argument), all of
    them inside the box too, so no such chain is cut.  The box is computed
    when the frontier reaches degree n, and the frontier is cut to it then;
    before that the bound n cannot be reached, since a candidate of degree
    k < n has no entry above k.  Small systems finish before degree n, and
    on them computing the rays would cost as much as the whole completion.
    A cone with no rays is {0}, whose basis is empty.
    """
    if f.cod != g.cod:
        raise ValueError("arrows must share a codomain")
    n = f.dom + g.dom
    cols = _columns(f, g)
    gram = [tuple(sum(map(mul, ci, cj)) for cj in cols) for ci in cols]

    basis = []
    index = {}  # (i, c) -> basis elements b with b[i] == c > 0
    box = (n,) * n
    frontier = {
        tuple(1 if j == i else 0 for j in range(n)): (cols[i], gram[i])
        for i in range(n)
    }
    degree = 1
    while frontier:
        if degree == n:
            box = _box(cols, n)
            if box is None:
                return []
            frontier = {t: vd for t, vd in frontier.items() if all(map(le, t, box))}
        grow = []
        for t, (v, d) in frontier.items():
            if any(v):
                grow.append((t, v, d))
                continue
            basis.append(t)
            for i, c in enumerate(t):
                if c:
                    index.setdefault((i, c), []).append(t)
        nxt = {}
        for t, v, d in grow:
            for i in range(n):
                if d[i] >= 0 or t[i] >= box[i]:
                    continue
                s = t[:i] + (t[i] + 1,) + t[i + 1:]
                if s in nxt or any(all(map(le, b, s)) for b in index.get((i, s[i]), ())):
                    continue
                nxt[s] = (tuple(map(add, v, cols[i])), tuple(map(add, d, gram[i])))
        frontier = nxt
        degree += 1
    return sorted(basis)


def min_msyncs(f, g):
    """The minimal synchronisations, in canonical vector order."""
    na = f.dom
    return [SyncM(t[:na], t[na:]) for t in min_msync_vectors(f, g)]


def weak_pullback(f, g):
    """Span of minimal synchronisations; weakly universal only.

    Every cone factors through it, but factorisations need not be
    unique because a synchronisation may decompose into minimal ones in
    several ways.
    """
    syncs = min_msyncs(f, g)
    p = MRel.derived(len(syncs), f.dom, tuple(s.u for s in syncs))
    q = MRel.derived(len(syncs), g.dom, tuple(s.v for s in syncs))
    return len(syncs), p, q


def minimal_decomposition(f, g, s):
    """Greedily write a synchronisation as a sum of minimal ones.

    Returns a list of (multiplicity, SyncM) with distinct minimal
    parts.  Greedy in canonical order: repeatedly take the first basis
    element that still fits, as many times as it fits.
    """
    if not is_msync(f, g, s.u, s.v):
        raise ValueError("not a synchronisation")
    na = f.dom
    out = []
    rest = tuple(s.u) + tuple(s.v)
    basis = min_msync_vectors(f, g)
    while any(rest):
        for b in basis:
            if all(map(le, b, rest)):
                k = min(have // need for have, need in zip(rest, b) if need)
                out.append((k, SyncM(b[:na], b[na:])))
                rest = tuple(x - k * y for x, y in zip(rest, b))
                break
        else:
            raise ValueError("synchronisation not covered by minimal ones")
    return out

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
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le

from .multiset import MRel, Multiset, lift_m


@dataclass(frozen=True)
class SyncM:
    u: Multiset
    v: Multiset


def is_msync(f, g, u, v):
    if f.cod != g.cod:
        raise ValueError("arrows must share a codomain")
    return lift_m(f, u) == lift_m(g, v)


def _columns(f, g):
    cols = [tuple(f.rows[a].counts) for a in range(f.dom)]
    cols += [tuple(-c for c in g.rows[b].counts) for b in range(g.dom)]
    return cols


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
    """
    if f.cod != g.cod:
        raise ValueError("arrows must share a codomain")
    n = f.dom + g.dom
    cols = _columns(f, g)
    gram = [tuple(sum(a * b for a, b in zip(ci, cj)) for cj in cols) for ci in cols]

    basis = []
    index = {}  # (i, c) -> basis elements b with b[i] == c > 0
    frontier = {
        tuple(1 if j == i else 0 for j in range(n)): (cols[i], gram[i])
        for i in range(n)
    }
    while frontier:
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
                if d[i] >= 0:
                    continue
                s = t[:i] + (t[i] + 1,) + t[i + 1:]
                if s in nxt or any(all(map(le, b, s)) for b in index.get((i, s[i]), ())):
                    continue
                nxt[s] = (tuple(map(add, v, cols[i])), tuple(map(add, d, gram[i])))
        frontier = nxt
    return sorted(basis)


def min_msyncs(f, g):
    """The minimal synchronisations, in canonical vector order."""
    na = f.dom
    return [
        SyncM(Multiset(t[:na]), Multiset(t[na:]))
        for t in min_msync_vectors(f, g)
    ]


def weak_pullback(f, g):
    """Span of minimal synchronisations; weakly universal only.

    Every cone factors through it, but factorisations need not be
    unique because a synchronisation may decompose into minimal ones in
    several ways.
    """
    syncs = min_msyncs(f, g)
    p = MRel(len(syncs), f.dom, tuple(s.u for s in syncs))
    q = MRel(len(syncs), g.dom, tuple(s.v for s in syncs))
    return len(syncs), p, q


def minimal_decomposition(f, g, s):
    """Greedily write a synchronisation as a sum of minimal ones.

    Returns a list of (multiplicity, SyncM) with distinct minimal
    parts.  Greedy in canonical order: repeatedly take the first basis
    element that still fits, as many times as it fits.
    """
    if not is_msync(f, g, s.u, s.v):
        raise ValueError("not a synchronisation")
    basis = min_msyncs(f, g)
    out = []
    ru, rv = s.u, s.v
    while not (ru.is_zero() and rv.is_zero()):
        for m in basis:
            if ru >= m.u and rv >= m.v:
                k = _max_fit(ru, rv, m)
                out.append((k, m))
                ru = ru - m.u.scale(k)
                rv = rv - m.v.scale(k)
                break
        else:
            raise ValueError("synchronisation not covered by minimal ones")
    return out


def _max_fit(ru, rv, m):
    k = None
    for have, need in zip(ru.counts + rv.counts, m.u.counts + m.v.counts):
        if need:
            fit = have // need
            k = fit if k is None else min(k, fit)
    return 1 if k is None else k

"""References the benchmark checks outputs against.

Nothing here calls into linkalg: spans arrive as their documented JSON
dicts (``to_dict()``), and every answer is recomputed by plain
enumeration or read off a closed form, so a defect in the library cannot
also hide in its reference.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter


def count_atoms(text):
    """Term length: the number of generator names in a term text."""
    return len(re.findall(r"[A-Za-z_]+", text))


# ---------------------------------------------------------------- model c

def _adjacency(size, pairs):
    nbr = [0] * size
    for a, b in pairs:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    return nbr


def _indep_sets(size, nbr):
    """Every independent subset; exponential, so for small carriers only."""
    sets = [(frozenset(), 0)]  # (members, mask of elements they exclude)
    for v in range(size):
        sets += [(m | {v}, blocked | nbr[v] | 1 << v) for m, blocked in sets if not blocked >> v & 1]
    return [m for m, _ in sets]


def naive_min_syncs(left, right):
    """Minimal nonzero synchronisations of left.rleg against right.lleg.

    ``left`` and ``right`` are model-c span dicts.  Returns the set of
    (U, V) frozenset pairs and the set of contending pairs of them.
    """
    na, nb = left["carrier"]["size"], right["carrier"]["size"]
    nbr_a = _adjacency(na, left["carrier"]["contention"])
    nbr_b = _adjacency(nb, right["carrier"]["contention"])
    by_lift = {}
    for v in _indep_sets(nb, nbr_b):
        key = frozenset(p for b in v for p in right["lleg"][b])
        by_lift.setdefault(key, []).append(v)
    cands = []
    for u in _indep_sets(na, nbr_a):
        key = frozenset(p for a in u for p in left["rleg"][a])
        cands += [(u, v) for v in by_lift.get(key, ()) if u or v]
    cands.sort(key=lambda c: len(c[0]) + len(c[1]))
    minimal = []
    for u, v in cands:
        if not any(au <= u and av <= v for au, av in minimal):
            minimal.append((u, v))

    def touches(x, y, nbr):
        return any(a == b or nbr[a] >> b & 1 for a in x for b in y)

    contending = {
        frozenset((s, t))
        for s, t in itertools.combinations(minimal, 2)
        if touches(s[0], t[0], nbr_a) or touches(s[1], t[1], nbr_b)
    }
    return set(minimal), contending


def c_signature(d):
    """Multiset of (left ports, right ports, contention degree) over links."""
    deg = Counter()
    for a, b in d["carrier"]["contention"]:
        deg[a] += 1
        deg[b] += 1
    return Counter(
        (tuple(d["lleg"][x]), tuple(d["rleg"][x]), deg[x]) for x in range(d["carrier"]["size"])
    )


def c_invalid(d):
    """Why a model-c span dict breaks the arrow condition, or None.

    Boundaries are discrete, so the condition is: two links that touch
    a common port on either side must contend.
    """
    n = d["carrier"]["size"]
    nbr = _adjacency(n, d["carrier"]["contention"])
    for side, k in (("lleg", d["left"]), ("rleg", d["right"])):
        for x, ports in enumerate(d[side]):
            if any(not 0 <= p < k for p in ports):
                return f"{side} of link {x} leaves the boundary"
        for x, y in itertools.combinations(range(n), 2):
            if set(d[side][x]) & set(d[side][y]) and not nbr[x] >> y & 1:
                return f"links {x},{y} share a port on {side} but do not contend"
    return None


def chain_signature(family, blocks, port_offset=0):
    """Closed-form value of a 2 -> 2 chain of ``blocks`` blocks.

    ``J`` is ``join ; split``: 2**(blocks+1) links, every pair contending.
    ``B`` is the bialgebra block ``(split*split);(id*swap*id);(join*join)``:
    as many links, each independent of exactly the one link that uses
    neither of its ports.  Either way each of the four port pairs carries
    a quarter of the links.
    """
    size = 2 ** (blocks + 1)
    degree = size - 1 if family == "J" else size - 2
    out = Counter()
    for p in range(2):
        for q in range(2):
            out[((p + port_offset,), (q + port_offset,), degree)] = size // 4
    return out


# ---------------------------------------------------------------- model m

def lift(rows, counts, width):
    acc = [0] * width
    for row, c in zip(rows, counts):
        if c:
            for j, w in enumerate(row):
                acc[j] += c * w
    return tuple(acc)


def box_min_msyncs(f_rows, g_rows, width, bound):
    """Minimal nonzero (u, v) with f-lift(u) == g-lift(v) and entries <= bound.

    Anything below a vector of the box is in the box, so these are
    exactly the elements of the full minimal set that fit in the box.
    """
    by_lift = {}
    for v in itertools.product(range(bound + 1), repeat=len(g_rows)):
        by_lift.setdefault(lift(g_rows, v, width), []).append(v)
    cands = []
    for u in itertools.product(range(bound + 1), repeat=len(f_rows)):
        cands += [u + v for v in by_lift.get(lift(f_rows, u, width), ()) if any(u) or any(v)]
    cands.sort(key=sum)
    minimal = []
    for c in cands:
        if not any(all(a <= b for a, b in zip(m, c)) for m in minimal):
            minimal.append(c)
    return sorted(minimal)


def m_pairs(d):
    return [(tuple(l), tuple(r)) for l, r in zip(d["lleg"], d["rleg"])]


def m_reducible(links):
    """Some link is zero, repeated, or a sum of two or more links."""
    links = [tuple(x) for x in links]
    if len(set(links)) < len(links) or any(not any(x) for x in links):
        return True
    for i, x in enumerate(links):
        others = [y for j, y in enumerate(links) if j != i]
        # partial sums that still fit under x, with how many links they used
        reach = {(0,) * len(x): 0}
        frontier = list(reach)
        while frontier:
            nxt = []
            for s in frontier:
                for y in others:
                    t = tuple(a + b for a, b in zip(s, y))
                    if all(a <= b for a, b in zip(t, x)) and t not in reach:
                        reach[t] = reach[s] + 1
                        nxt.append(t)
            frontier = nxt
        if reach.get(x, 0) >= 2:
            return True
    return False

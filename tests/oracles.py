"""Reference implementations the library is tested against.

Deliberately naive: exhaustive enumeration over independent subsets, or
over a bounded box of multisets, and the Hilbert basis completion in its
first, unindexed form, which reaches systems too wide for the box.
The term tokenizer and the matrix view of multirelations are kept here
as first written.
"""

import itertools
import math
from fractions import Fraction

from linkalg.contention import CSet, indep_masks, pc_contends_masks, set_of
from linkalg.crel import CRel, lift_mask, validate
from linkalg.multiset import MRel
from linkalg.terms import ALIASES, TermSyntaxError


def all_csets(max_size):
    """Every carrier with every contention relation, sizes 0..max_size."""
    for n in range(max_size + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.chain.from_iterable(
            itertools.combinations(pairs, k) for k in range(len(pairs) + 1)
        ):
            yield CSet(n, frozenset(chosen))


def all_crels(dom, cod):
    """Every valid arrow dom -> cod, by brute enumeration and filtering."""
    choices = [set_of(m) for m in indep_masks(cod)]
    for images in itertools.product(choices, repeat=dom.size):
        r = CRel(dom, cod, tuple(images))
        if validate(r):
            yield r


def naive_min_sync_masks(f, g):
    """Reference enumeration: all independent pairs in increasing size."""
    us = [(m, lift_mask(f, m)) for m in indep_masks(f.dom)]
    vs = [(m, lift_mask(g, m)) for m in indep_masks(g.dom)]
    cands = []
    for mu, lu in us:
        for mv, lv in vs:
            if lu == lv and (mu or mv):
                cands.append((bin(mu).count("1") + bin(mv).count("1"), mu, mv))
    cands.sort()
    accepted = []
    for _, mu, mv in cands:
        if any(au & ~mu == 0 and av & ~mv == 0 for au, av in accepted):
            continue
        accepted.append((mu, mv))
    return sorted(
        accepted,
        key=lambda p: (tuple(sorted(set_of(p[0]))), tuple(sorted(set_of(p[1])))),
    )


def naive_sync_space(f, g, pairs):
    """Contention on synchronisations as first written: every pair of
    synchronisations tested part by part.  Returns the same c-set as
    sync_c.sync_space."""
    cont = set()
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pc_contends_masks(f.dom, pairs[i][0], pairs[j][0]) or pc_contends_masks(
                g.dom, pairs[i][1], pairs[j][1]
            ):
                cont.add((i, j))
    return CSet(len(pairs), frozenset(cont))


def _lift(rows, u, width):
    """Row sums of a count matrix with multiplicities u, entry by entry."""
    return tuple(sum(c * row[j] for c, row in zip(u, rows)) for j in range(width))


def box_min_msyncs(f, g, bound):
    """Reference enumeration over the box of entry values 0..bound.

    Joins the two sides on their lift value, then keeps the pointwise
    minimal nonzero pairs.  Complete as long as every minimal
    synchronisation fits inside the box.
    """
    by_lift = {}
    for v in itertools.product(range(bound + 1), repeat=g.dom):
        by_lift.setdefault(_lift(g.rows, v, g.cod), []).append(v)
    pairs = []
    for u in itertools.product(range(bound + 1), repeat=f.dom):
        for v in by_lift.get(_lift(f.rows, u, f.cod), ()):
            if any(u) or any(v):
                pairs.append(u + v)
    pairs.sort(key=sum)
    accepted = []
    for cand in pairs:
        if any(all(a <= c for a, c in zip(acc, cand)) for acc in accepted):
            continue
        accepted.append(cand)
    return sorted(accepted)


def _msync_columns(f, g):
    cols = [tuple(f.rows[a]) for a in range(f.dom)]
    cols += [tuple(-c for c in g.rows[b]) for b in range(g.dom)]
    return cols


def naive_min_msync_vectors(f, g):
    """The completion as first written: every value recomputed, every
    candidate checked against the whole basis.  Returns the same sorted
    list as sync_m.min_msync_vectors."""
    if f.cod != g.cod:
        raise ValueError("arrows must share a codomain")
    n = f.dom + g.dom
    cols = _msync_columns(f, g)
    dim = f.cod

    def value(t):
        acc = [0] * dim
        for i, c in enumerate(t):
            if c:
                col = cols[i]
                for j in range(dim):
                    acc[j] += c * col[j]
        return tuple(acc)

    basis = []
    frontier = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        frontier.append(e)
    frontier = sorted(set(frontier))
    while frontier:
        nxt = set()
        vals = {}
        for t in frontier:
            v = value(t)
            vals[t] = v
            if all(c == 0 for c in v):
                basis.append(t)
        for t in frontier:
            v = vals[t]
            if all(c == 0 for c in v):
                continue
            for i in range(n):
                col = cols[i]
                if sum(a * b for a, b in zip(v, col)) < 0:
                    s = tuple(t[j] + (1 if j == i else 0) for j in range(n))
                    if not any(all(bc <= sc for bc, sc in zip(b, s)) for b in basis):
                        nxt.add(s)
        frontier = sorted(nxt)
    return sorted(basis)


def _kernel(cols):
    """A basis of {x : sum x[i]*cols[i] = 0}, over the rationals."""
    n = len(cols)
    rows = [[Fraction(c[j]) for c in cols] for j in range(len(cols[0]))] if cols else []
    pivots = []
    for k in range(n):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][k]), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        rows[top] = [x / rows[top][k] for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][k]:
                rows[r] = [x - rows[r][k] * y for x, y in zip(rows[r], rows[top])]
        pivots.append(k)
    basis = []
    for free in (k for k in range(n) if k not in pivots):
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for row, k in zip(rows, pivots):
            x[k] = -row[free]
        basis.append(x)
    return basis


def naive_extreme_rays(f, g):
    """Extreme rays of {x >= 0 : sum x[i]*col[i] = 0}, by their supports.

    A ray's support S is minimal, so the columns on S have a kernel of
    dimension one, and |S| <= rank + 1.  Every support of that size is
    tried; those whose one kernel vector has a single sign on all of S
    give a ray, scaled to coprime positive integers.  Sorted.
    """
    cols = _msync_columns(f, g)
    n = len(cols)
    rank = n - len(_kernel(cols))
    rays = []
    for size in range(1, rank + 2):
        for support in itertools.combinations(range(n), size):
            kernel = _kernel([cols[i] for i in support])
            if len(kernel) != 1:
                continue
            x = kernel[0]
            if not (all(c > 0 for c in x) or all(c < 0 for c in x)):
                continue
            scale = math.lcm(*(c.denominator for c in x))
            ints = [abs(int(c * scale)) for c in x]
            common = math.gcd(*ints)
            ray = [0] * n
            for i, c in zip(support, ints):
                ray[i] = c // common
            rays.append(tuple(ray))
    return sorted(rays)


def scan_tokens(text):
    """The term tokenizer as first written, one character at a time.
    Returns the same (kind, value, position) list as terms._tokenize and
    raises the same TermSyntaxError."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in ";*()":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_" or ch in ALIASES:
            if ch in ALIASES and not ch.isascii():
                toks.append(("name", ALIASES[ch], i))
                i += 1
                continue
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_") and text[j].isascii():
                j += 1
            word = text[i:j]
            if j == i:  # single non-ascii letter that is not an alias
                word = ch
                j = i + 1
            toks.append(("name", ALIASES.get(word, word), i))
            i = j
            continue
        raise TermSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", len(text)))
    return toks


def to_matrix(f):
    """A multirelation's rows as a list of lists."""
    return [list(r) for r in f.rows]


def from_matrix(matrix, cod=None):
    """The multirelation with these rows; cod is read off the first row
    unless given, so an empty matrix needs it."""
    if cod is None:
        if not matrix:
            raise ValueError("codomain size needed for an empty matrix")
        cod = len(matrix[0])
    return MRel(len(matrix), cod, matrix)

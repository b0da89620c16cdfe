"""Factoring spans into the ten generators.

Every desk-scale span is the value of a term, and the term can be read
off the span directly rather than searched for.  The pipeline: fan each
left port out to the links it touches, inject any contention that
shared ports do not already force, route wires to their links, collapse
each link to a single element and fan it back out, route again, and fan
wire bundles into the right ports.  The construction is verified by
evaluating the term and checking isomorphism with the input.
"""

from __future__ import annotations

from .span_c import SpanC
from .span_m import SpanM
from .terms import MODELS, Atom, Seq, Ten, eval_term, pretty


def _tensor_all(parts):
    out = None
    for p in parts:
        out = p if out is None else Ten(out, p)
    return out


def _seq_all(stages):
    out = None
    for s in stages:
        if s is None:
            continue
        out = s if out is None else Seq(out, s)
    return out


def _split_tree(n):
    """1 -> n through split; the leaves are pairwise in contention."""
    if n == 0:
        return Atom("stop")
    if n == 1:
        return Atom("id")
    if n == 2:
        return Atom("split")
    return Seq(Atom("split"), Ten(_split_tree(n - 1), Atom("id")))


def _copy_tree(n):
    """1 -> n through copy; the leaves stay mutually independent."""
    if n == 0:
        return Atom("del")
    if n == 1:
        return Atom("id")
    if n == 2:
        return Atom("copy")
    return Seq(Atom("copy"), Ten(_copy_tree(n - 1), Atom("id")))


def _merge_tree(n):
    if n == 0:
        return Atom("new")
    if n == 1:
        return Atom("id")
    if n == 2:
        return Atom("merge")
    return Seq(Ten(_merge_tree(n - 1), Atom("id")), Atom("merge"))


def _join_tree(n):
    if n == 0:
        return Atom("start")
    if n == 1:
        return Atom("id")
    if n == 2:
        return Atom("join")
    return Seq(Ten(_join_tree(n - 1), Atom("id")), Atom("join"))


def _core(a, b):
    """a -> b through a single middle element: merge everything, then copy."""
    if a == 1:
        return _copy_tree(b)
    if b == 1:
        return _merge_tree(a)
    return Seq(_merge_tree(a), _copy_tree(b))


def _all_id(term):
    if isinstance(term, Atom):
        return term.name == "id"
    if isinstance(term, Ten):
        return _all_id(term.fst) and _all_id(term.snd)
    return False


def _route(perm):
    """Adjacent-swap layers sending input wire i to position perm[i].

    Odd-even transposition sort, one term layer per round; None when the
    wires are already in order.
    """
    cur = list(perm)
    n = len(cur)
    layers = []
    parity = 0
    while any(cur[i] != i for i in range(n)):
        atoms = []
        pos = 0
        moved = False
        while pos < n:
            if pos % 2 == parity and pos + 1 < n and cur[pos] > cur[pos + 1]:
                atoms.append(Atom("swap"))
                cur[pos], cur[pos + 1] = cur[pos + 1], cur[pos]
                moved = True
                pos += 2
            else:
                atoms.append(Atom("id"))
                pos += 1
        if moved:
            layers.append(_tensor_all(atoms))
        parity ^= 1
    return _seq_all(layers)


def _gadget_pairs(s):
    """Contention pairs of s that sharing a boundary port does not force."""
    out = []
    for a, b in sorted(s.carrier.contention):
        if s.lleg.map[a] & s.lleg.map[b]:
            continue
        if s.rleg.map[a] & s.rleg.map[b]:
            continue
        out.append((a, b))
    return out


def _assemble(k, l, n, la, ra, gads):
    """Build the pipeline term.

    la[x] and ra[x] list the boundary ports of link x with multiplicity,
    sorted.  Each pair in gads becomes a shared two-branch source whose
    branches contend, one branch wired into each of the two links.
    """
    lwires = []
    fan_parts = []
    for p in range(k):
        hits = [(x, i) for x in range(n) for i in range(la[x].count(p))]
        fan_parts.append(_split_tree(len(hits)))
        lwires.extend(("L", p, x, i) for x, i in hits)
    for gi, (a, b) in enumerate(gads):
        fan_parts.append(Seq(Atom("new"), Atom("split")))
        lwires.append(("G", gi, 0))
        lwires.append(("G", gi, 1))
    fan = _tensor_all(fan_parts)

    ltarget = []
    core_parts = []
    for x in range(n):
        ins = [("L", p, x, i) for p in sorted(set(la[x])) for i in range(la[x].count(p))]
        ins += [("G", gi, 0 if a == x else 1) for gi, (a, b) in enumerate(gads) if x in (a, b)]
        ltarget.extend(ins)
        core_parts.append(_core(len(ins), len(ra[x])))
    cores = _tensor_all(core_parts)
    lpos = {w: j for j, w in enumerate(ltarget)}
    route_in = _route([lpos[w] for w in lwires]) if lwires else None

    rwires = []
    for x in range(n):
        rwires.extend(
            ("R", q, x, i) for q in sorted(set(ra[x])) for i in range(ra[x].count(q))
        )
    rtarget = []
    fanin_parts = []
    for q in range(l):
        hits = [(x, i) for x in range(n) for i in range(ra[x].count(q))]
        fanin_parts.append(_join_tree(len(hits)))
        rtarget.extend(("R", q, x, i) for x, i in hits)
    fanin = _tensor_all(fanin_parts)
    rpos = {w: j for j, w in enumerate(rtarget)}
    route_out = _route([rpos[w] for w in rwires]) if rwires else None

    stages = [fan, route_in, cores, route_out, fanin]
    term = _seq_all([st for st in stages if st is not None and not _all_id(st)])
    if term is None:
        # everything wired straight through: the span is an identity
        term = _identity_term(k)
    return term


def _synthesize(s):
    if isinstance(s, SpanC):
        n = s.carrier.size
        la = [sorted(s.lleg.map[x]) for x in range(n)]
        ra = [sorted(s.rleg.map[x]) for x in range(n)]
        return _assemble(s.left, s.right, n, la, ra, _gadget_pairs(s))
    la = [
        [p for p in range(s.left) for _ in range(s.lleg.rows[x].counts[p])]
        for x in range(s.carrier)
    ]
    ra = [
        [q for q in range(s.right) for _ in range(s.rleg.rows[x].counts[q])]
        for x in range(s.carrier)
    ]
    return _assemble(s.left, s.right, s.carrier, la, ra, [])


def _identity_term(k):
    if k == 0:
        return Seq(Atom("start"), Atom("stop"))
    return _tensor_all([Atom("id")] * k)


def decompose(s):
    """A term over the ten generators whose value is isomorphic to s.

    The term is read off the span directly and confirmed by evaluating
    it; a failed confirmation is a defect in the construction and raises
    RuntimeError.
    """
    if not isinstance(s, (SpanC, SpanM)):
        raise TypeError("expected a span value")
    if not s.check():
        raise ValueError("span is not valid")
    term = _synthesize(s)
    if not MODELS[s.MODEL].iso_check(eval_term(term, s.MODEL), s):
        raise RuntimeError(f"synthesised term does not evaluate back to the span: {pretty(term)}")
    return term

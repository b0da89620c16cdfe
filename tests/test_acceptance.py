"""Acceptance gate: ten checks, one printed verdict line each.

Run with -s to see the lines; the test names carry the same numbering.  Scope notes: exhaustive layers run at the
largest size that stays within a few seconds in pure Python, with a
randomized layer on top wherever the exhaustive bound had to shrink.
"""

import time
from itertools import combinations, product

from linkalg import crel, span_c, span_m
from linkalg.contention import discrete, indep_masks, mask_of, set_of
from linkalg.crel import lift_mask
from linkalg.decompose import decompose
from linkalg.equations import laws, run_law
from linkalg.multiset import MRel, lift_m
from linkalg.span_c import SpanC, embed_cospan, compose_cospans, cospan_iso
from linkalg.span_m import SpanM
from linkalg.sync_c import mediator, min_sync_masks, pullback, sync_space
from linkalg.sync_m import is_msync, min_msyncs
from linkalg.terms import Atom, Seq, Ten, check_equation, eval_c, eval_m, parse

import pytest

from draws import random_cospan, random_crel, random_cset, random_mrel, random_span_c, random_span_m
from oracles import all_crels, all_csets, box_min_msyncs


@pytest.fixture
def rng():
    import random

    return random.Random(0xACCE97)


def _report(n, ok, what):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {what}")
    assert ok, f"criterion {n}: {what}"


FROBENIUS_FAMILY = {
    "copy-unit", "copy-comm", "copy-assoc",
    "merge-unit", "merge-comm", "merge-assoc",
    "frobenius-l", "frobenius-r", "separable", "snake-l", "snake-r",
}


def test_criterion_01_frobenius_family_both_models():
    rows = [l for l in laws() if l.label in FROBENIUS_FAMILY]
    t0 = time.perf_counter()
    results = [run_law(l) for l in rows]
    elapsed = time.perf_counter() - t0
    ok = len(results) == 22 and all(r.actual for r in results) and elapsed < 5.0
    _report(1, ok, f"Frobenius family holds in both models ({len(results)} rows, {elapsed:.2f}s)")


def test_criterion_02_bialgebra_family_exact_booleans():
    cases = [
        ("split ; (stop * id)", "id", True, True),
        ("split ; swap", "split", True, True),
        ("split ; (split * id)", "split ; (id * split)", True, True),
        ("join ; stop", "stop * stop", True, True),
        ("(split * split) ; (id * swap * id) ; (join * join)", "join ; split", False, True),
        ("split ; join", "id", False, True),
    ]
    bad = []
    for lhs, rhs, want_c, want_m in cases:
        got = (check_equation(lhs, rhs, "c"), check_equation(lhs, rhs, "m"))
        if got != (want_c, want_m):
            bad.append((lhs, rhs, got))
    _report(2, not bad, f"bialgebra family verdicts exact in both models ({len(cases)} laws){bad or ''}")


def test_criterion_03_mixed_family_and_the_weighted_link():
    cases = [
        ("copy ; (id * stop)", "stop ; start", True, True),
        ("merge ; stop", "stop * stop", True, True),
        ("join ; del", "del * del", False, True),
        ("copy ; join", "stop ; start", True, False),
        ("join ; copy", "(copy * copy) ; (id * swap * id) ; (join * join)", True, True),
        ("copy ; (split * id)", "split ; (copy * copy) ; (id * swap * id) ; (id * id * join)", True, True),
    ]
    bad = []
    for lhs, rhs, want_c, want_m in cases:
        got = (check_equation(lhs, rhs, "c"), check_equation(lhs, rhs, "m"))
        if got != (want_c, want_m):
            bad.append((lhs, rhs, got))
    # the multiset side of copy;join is one link of right weight two
    v = eval_m(parse("copy ; join"))
    weighted = v.carrier == 1 and v.lleg.rows[0] == (1,) and v.rleg.rows[0] == (2,)
    # dangling-branch value agrees across models
    dangle = eval_c(parse("split ; (id * del)"))
    agree = span_m.iso_check(
        span_m.span_m(1, 1, [[1], [1]], [[1], [0]]), eval_m(parse("split ; (id * del)"))
    ) and dangle.carrier.size == 2
    ok = not bad and weighted and agree
    _report(3, ok, f"mixed family verdicts exact; copy;join carries one weight-2 link{bad or ''}")


def test_criterion_04_four_unit_synchronisations_and_a_weak_square():
    t = MRel(2, 1, [(1,), (1,)])
    basis = min_msyncs(t, t)
    got = sorted(s.u + s.v for s in basis)
    want = [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]
    cone = (1, 1)
    picks = []
    for ks in product(range(2), repeat=len(basis)):
        u = [0, 0]
        v = [0, 0]
        for k, s in zip(ks, basis):
            for i in range(2):
                u[i] += k * s.u[i]
                v[i] += k * s.v[i]
        if tuple(u) == cone and tuple(v) == cone:
            picks.append(ks)
    ok = got == want and len(picks) >= 2
    _report(4, ok, f"unit pair basis exact and the [1,1] cone factors {len(picks)} ways")


def test_criterion_05_mediators_exist_commute_and_are_unique(rng):
    checked = 0
    for _ in range(200):
        cod = random_cset(rng, max_size=3)
        f = random_crel(rng, cod=cod, max_size=3)
        g = random_crel(rng, cod=cod, max_size=3)
        space, p, q = pullback(f, g)
        h = random_crel(rng, cod=space, max_size=3)
        alpha, beta = crel.compose(h, p), crel.compose(h, q)
        med = mediator(f, g, alpha, beta)
        assert crel.compose(med, p) == alpha and crel.compose(med, q) == beta
        for z in range(h.dom.size):
            fits = [
                m
                for m in indep_masks(space)
                if lift_mask(p, m) == alpha.img_masks[z] and lift_mask(q, m) == beta.img_masks[z]
            ]
            assert fits == [med.img_masks[z]]
        checked += 1
    _report(5, checked == 200, f"{checked}/200 random cones mediate uniquely")


def test_criterion_06_lift_laws_and_minimal_sync_structure(rng):
    # difference and intersection laws, every valid arrow up to size 3
    csets3 = list(all_csets(3))
    arrows = 0
    for dom in csets3:
        masks = indep_masks(dom)
        for cod in csets3:
            for f in all_crels(dom, cod):
                arrows += 1
                for big in masks:
                    sub = big
                    while True:
                        assert lift_mask(f, big & ~sub) == lift_mask(f, big) & ~lift_mask(f, sub)
                        if sub == 0:
                            break
                        sub = (sub - 1) & big
                for big in masks:
                    subs = []
                    sub = big
                    while True:
                        subs.append(sub)
                        if sub == 0:
                            break
                        sub = (sub - 1) & big
                    for va in subs:
                        for vb in subs:
                            assert lift_mask(f, va & vb) == lift_mask(f, va) & lift_mask(f, vb)

    def sync_structure(f, g):
        mins = min_sync_masks(f, g)
        lifts_f = {m: lift_mask(f, m) for m in indep_masks(f.dom)}
        lifts_g = {m: lift_mask(g, m) for m in indep_masks(g.dom)}
        for mu, lu in lifts_f.items():
            for mv, lv in lifts_g.items():
                if lu != lv or not (mu or mv):
                    continue
                inside = [(au, av) for au, av in mins if au & ~mu == 0 and av & ~mv == 0]
                seen_u = seen_v = 0
                for au, av in inside:
                    assert seen_u & au == 0 and seen_v & av == 0  # pairwise disjoint
                    seen_u |= au
                    seen_v |= av
                assert (seen_u, seen_v) == (mu, mv)  # they reassemble the sync

    pairs = 0
    csets2 = list(all_csets(2))
    for cod in csets3:
        into = []
        for dom in csets2:
            into.extend(all_crels(dom, cod))
        for f in into:
            for g in into:
                sync_structure(f, g)
                pairs += 1
    for _ in range(300):  # randomized layer at carrier size 3
        cod = random_cset(rng, max_size=3)
        sync_structure(random_crel(rng, cod=cod, max_size=3), random_crel(rng, cod=cod, max_size=3))

    # multiset side: nested syncs subtract, and combinations stay syncs
    def m_sync_laws(f, g, syncs):
        for (u, v), (u2, v2) in combinations(syncs, 2):
            if all(a <= b for a, b in zip(u + v, u2 + v2)):
                du = tuple(b - a for a, b in zip(u, u2))
                dv = tuple(b - a for a, b in zip(v, v2))
                assert is_msync(f, g, du, dv)
            cu = tuple(a + 2 * b for a, b in zip(u, u2))
            cv = tuple(a + 2 * b for a, b in zip(v, v2))
            assert is_msync(f, g, cu, cv)

    def all_mrels(dom, cod, emax):
        for rows in product(product(range(emax + 1), repeat=cod), repeat=dom):
            yield MRel(dom, cod, rows)

    mpairs = 0
    for cod in (0, 1, 2):
        marrows = [f for dom in (0, 1, 2) for f in all_mrels(dom, cod, 2)]
        for f in marrows:
            by_lift = {}
            for v in product(range(3), repeat=f.dom):
                by_lift.setdefault(lift_m(f, v), []).append(v)
            for g in marrows:
                syncs = []
                for v in product(range(3), repeat=g.dom):
                    for u in by_lift.get(lift_m(g, v), ()):
                        if any(u) or any(v):
                            syncs.append((u, v))
                m_sync_laws(f, g, syncs[:10])
                mpairs += 1
    for _ in range(300):  # randomized layer at dimension 3
        cod = rng.randint(0, 3)
        f = random_mrel(rng, dom=rng.randint(0, 3), cod=cod, max_entry=2)
        g = random_mrel(rng, dom=rng.randint(0, 3), cod=cod, max_entry=2)
        basis = min_msyncs(f, g)
        syncs = []
        for _ in range(4):
            u = (0,) * f.dom
            v = (0,) * g.dom
            for s in basis:
                k = rng.randint(0, 2)
                u = tuple(a + k * b for a, b in zip(u, s.u))
                v = tuple(a + k * b for a, b in zip(v, s.v))
            if any(u) or any(v):
                syncs.append((u, v))
        m_sync_laws(f, g, syncs)

    _report(6, True, f"lift laws on {arrows} arrows; sync structure on {pairs}+300 pairs; {mpairs}+300 multiset pairs")


def test_criterion_07_minimal_solution_basis_matches_brute_force(rng):
    agreed = 0
    for _ in range(500):
        cod = rng.randint(0, 3)
        f = random_mrel(rng, dom=rng.randint(0, 3), cod=cod, max_entry=3)
        g = random_mrel(rng, dom=rng.randint(0, 3), cod=cod, max_entry=3)
        got = sorted(s.u + s.v for s in min_msyncs(f, g))
        bound = max([4] + [c + 1 for t in got for c in t])
        if got == box_min_msyncs(f, g, bound):
            agreed += 1
    _report(7, agreed == 500, f"{agreed}/500 random systems match the boxed enumeration")


def _compatible_c(rng, left):
    while True:
        s = random_span_c(rng, max_boundary=3, max_carrier=3)
        if s.left == left:
            return s


def _compatible_m(rng, left):
    while True:
        s = random_span_m(rng, max_boundary=2, max_carrier=2, max_entry=2)
        if s.left == left:
            return s


def test_criterion_08_composition_is_associative_up_to_iso(rng):
    ok_c = ok_m = 0
    for _ in range(200):
        a = random_span_c(rng, max_boundary=3, max_carrier=3)
        b = _compatible_c(rng, a.right)
        c = _compatible_c(rng, b.right)
        lhs = span_c.compose(span_c.compose(a, b), c)
        rhs = span_c.compose(a, span_c.compose(b, c))
        ok_c += span_c.iso_check(lhs, rhs)
    for _ in range(200):
        a = random_span_m(rng, max_boundary=2, max_carrier=2, max_entry=2)
        b = _compatible_m(rng, a.right)
        c = _compatible_m(rng, b.right)
        lhs = span_m.compose(span_m.compose(a, b), c)
        rhs = span_m.compose(a, span_m.compose(b, c))
        ok_m += span_m.iso_check(lhs, rhs)
    _report(8, ok_c == 200 and ok_m == 200, f"associativity: {ok_c}/200 contention, {ok_m}/200 multiset triples")


def test_criterion_09_embedding_preserves_composition_and_is_faithful(rng):
    preserved = 0
    for _ in range(200):
        a = random_cospan(rng, max_boundary=3, max_carrier=4)
        while True:
            b = random_cospan(rng, max_boundary=3, max_carrier=4)
            if b.left == a.right:
                break
        glued = compose_cospans(a, b)
        split = span_c.compose(embed_cospan(a), embed_cospan(b))
        preserved += span_c.iso_check(embed_cospan(glued), split)
    pool = [random_cospan(rng, max_boundary=2, max_carrier=3) for _ in range(40)]
    faithful = True
    for a, b in combinations(pool, 2):
        if (a.left, a.right) != (b.left, b.right):
            continue
        if cospan_iso(a, b) != span_c.iso_check(embed_cospan(a), embed_cospan(b)):
            faithful = False
    _report(9, preserved == 200 and faithful, f"{preserved}/200 pushouts map to pullbacks; embedding faithful on the sample")


def _random_term(rng, depth):
    by_dom = {
        0: ["new", "start"],
        1: ["copy", "del", "split", "stop", "id"],
        2: ["merge", "join", "swap"],
    }

    def layer(width):
        parts = []
        left = width
        while left > 0:
            d = 2 if left >= 2 and rng.random() < 0.35 else 1
            parts.append(Atom(rng.choice(by_dom[d])))
            left -= d
        if rng.random() < 0.25 or not parts:
            parts.insert(rng.randint(0, len(parts)), Atom(rng.choice(by_dom[0])))
        t = parts[0]
        for p in parts[1:]:
            t = Ten(t, p)
        return t

    t = layer(rng.randint(0, 3))
    for _ in range(depth - 1):
        if t.cod == 0 and rng.random() < 0.5:
            break
        t = Seq(t, layer(t.cod))
    return t


def test_criterion_10_every_small_span_factors_into_generators(rng):
    failures = 0
    done = 0
    while done < 120:  # spans arising from random terms, kept at desk scale
        t = _random_term(rng, rng.randint(1, 4))
        vc, vm = eval_c(t), eval_m(t)
        if vc.carrier.size > 6 or vm.carrier > 6 or max(t.dom, t.cod) > 4:
            continue
        done += 1
        if not span_c.iso_check(eval_c(decompose(vc)), vc):
            failures += 1
        if not span_m.iso_check(eval_m(decompose(vm)), vm):
            failures += 1

    swept_c = 0
    for car in all_csets(2):
        for k in range(3):
            for l in range(3):
                for lf in all_crels(car, discrete(k)):
                    for rf in all_crels(car, discrete(l)):
                        s = SpanC(k, l, car, lf, rf)
                        swept_c += 1
                        if not span_c.iso_check(eval_c(decompose(s)), s):
                            failures += 1

    swept_m = 0
    for k in range(3):
        for l in range(3):
            pairs = [(lr, rr) for lr in product(range(3), repeat=k) for rr in product(range(3), repeat=l)]
            spans = [SpanM(k, l, ())]
            spans += [SpanM(k, l, [p]) for p in pairs]
            for i, p in enumerate(pairs):
                for q in pairs[i + 1:]:
                    spans.append(SpanM(k, l, [p, q]))
            for s in spans:
                swept_m += 1
                if not span_m.iso_check(eval_m(decompose(s)), s):
                    failures += 1

    _report(10, failures == 0, f"decomposition round-trips: 120 term spans, {swept_c} swept contention spans, {swept_m} swept multiset spans, {failures} failures")

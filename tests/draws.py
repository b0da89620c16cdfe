"""Seeded random draws of the library's values, for tests only.

Each takes a random.Random and its size bounds; a seeded rng draws the
same values every run.
"""

from linkalg.contention import CSet, discrete, indep_masks, pc_contends_masks
from linkalg.crel import CRel
from linkalg.multiset import MRel
from linkalg.span_c import Cospan, SpanC
from linkalg.span_m import SpanM


def random_cset(rng, max_size=4, p_edge=0.4):
    n = rng.randint(0, max_size)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p_edge]
    return CSet(n, pairs)


def random_crel(rng, dom=None, cod=None, max_size=4):
    """A random valid arrow, built element by element with rejection."""
    if dom is None:
        dom = random_cset(rng, max_size)
    if cod is None:
        cod = random_cset(rng, max_size)
    images = []
    for x in range(dom.size):
        choices = []
        for m in indep_masks(cod):
            ok = True
            for y, prev in enumerate(images):
                if pc_contends_masks(cod, m, prev) and not dom.contends(x, y):
                    ok = False
                    break
            if ok:
                choices.append(m)
        images.append(rng.choice(choices))  # 0 (empty image) is always a choice
    return CRel(dom, cod, masks=images)


def random_mrel(rng, dom=None, cod=None, max_size=3, max_entry=2):
    if dom is None:
        dom = rng.randint(0, max_size)
    if cod is None:
        cod = rng.randint(0, max_size)
    return MRel.derived(
        dom, cod, tuple(tuple(rng.randint(0, max_entry) for _ in range(cod)) for _ in range(dom))
    )


def random_span_c(rng, max_boundary=3, max_carrier=3):
    k, l = rng.randint(0, max_boundary), rng.randint(0, max_boundary)
    carrier = random_cset(rng, max_carrier)
    lleg = random_crel(rng, dom=carrier, cod=discrete(k))
    rleg = random_crel(rng, dom=carrier, cod=discrete(l))
    return SpanC(k, l, carrier, lleg, rleg)


def random_cospan(rng, max_boundary=3, max_carrier=4):
    k, l = rng.randint(0, max_boundary), rng.randint(0, max_boundary)
    n = rng.randint(1, max_carrier)
    return Cospan(k, l, n, tuple(rng.randrange(n) for _ in range(k)), tuple(rng.randrange(n) for _ in range(l)))


def random_span_m(rng, max_boundary=2, max_carrier=2, max_entry=2):
    while True:
        k, l = rng.randint(0, max_boundary), rng.randint(0, max_boundary)
        n = rng.randint(0, max_carrier)
        links = set(zip(
            random_mrel(rng, dom=n, cod=k, max_entry=max_entry).rows,
            random_mrel(rng, dom=n, cod=l, max_entry=max_entry).rows,
        ))
        if len(links) == n:
            return SpanM(k, l, links)

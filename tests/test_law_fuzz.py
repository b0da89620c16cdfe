"""The composition laws on spans drawn by hypothesis, in both models.

Units, the interchange law between ";" and "*", and naturality of the
symmetry hold in both models; associativity is checked in model c.  In
model m composition is not yet associative on every input: the last
test pins the smallest known counterexample as an expected failure.
"""

import pytest
from hypothesis import given, settings, strategies as st

from linkalg import span_c, span_m
from linkalg.contention import CSet, discrete
from linkalg.span_m import SpanM
from linkalg.terms import MODELS, check_equation

# derandomized, so that every run draws the same examples
FUZZ = settings(max_examples=100, deadline=2000, derandomize=True)

IDENTITY = {"c": span_c.identity_span, "m": span_m.identity_span_m}


def _row(width, top):
    return st.tuples(*[st.integers(0, top)] * width)


@st.composite
def spans_m(draw, left=None, right=None):
    """Boundaries <= 2, carrier <= 3, weights <= 2."""
    k = draw(st.integers(0, 2)) if left is None else left
    l = draw(st.integers(0, 2)) if right is None else right
    return SpanM(k, l, draw(st.sets(st.tuples(_row(k, 2), _row(l, 2)), max_size=3)))


@st.composite
def spans_c(draw, left=None, right=None):
    """Boundaries <= 2, carrier <= 3; links sharing a port contend, others may."""
    k = draw(st.integers(0, 2)) if left is None else left
    l = draw(st.integers(0, 2)) if right is None else right
    n = draw(st.integers(0, 3))
    limages = [sorted(draw(st.sets(st.integers(0, k - 1)))) if k else [] for _ in range(n)]
    rimages = [sorted(draw(st.sets(st.integers(0, l - 1)))) if l else [] for _ in range(n)]
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if set(limages[a]) & set(limages[b]) or set(rimages[a]) & set(rimages[b]) or draw(st.booleans())
    ]
    return span_c.span_c(k, l, CSet(n, pairs), limages, rimages)


SPANS = {"c": spans_c, "m": spans_m}


def braid(model, m, n):
    """The symmetry m + n -> n + m: wire i < m goes to n + i, wire m + j to j."""
    w = m + n
    to = [i + n if i < m else i - m for i in range(w)]
    if model == "c":
        return span_c.span_c(w, w, discrete(w), [[i] for i in range(w)], [[j] for j in to])
    unit = [tuple(int(j == i) for j in range(w)) for i in range(w)]
    return SpanM(w, w, [(unit[i], unit[to[i]]) for i in range(w)])


@pytest.mark.parametrize("model", "cm")
def test_braid_of_single_wires_is_swap(model):
    mod = MODELS[model]
    assert mod.iso_check(braid(model, 1, 1), mod.GENERATORS["swap"])
    assert mod.iso_check(braid(model, 2, 0), IDENTITY[model](2))


@pytest.mark.parametrize("model", "cm")
@FUZZ
@given(data=st.data())
def test_identities_are_units(model, data):
    mod = MODELS[model]
    s = data.draw(SPANS[model]())
    assert mod.iso_check(mod.compose(IDENTITY[model](s.left), s), s)
    assert mod.iso_check(mod.compose(s, IDENTITY[model](s.right)), s)


@pytest.mark.parametrize("model", "cm")
@FUZZ
@given(data=st.data())
def test_interchange(model, data):
    """(a ; b) * (c ; d) = (a * c) ; (b * d)."""
    mod = MODELS[model]
    a = data.draw(SPANS[model]())
    b = data.draw(SPANS[model](left=a.right))
    c = data.draw(SPANS[model]())
    d = data.draw(SPANS[model](left=c.right))
    lhs = mod.tensor(mod.compose(a, b), mod.compose(c, d))
    rhs = mod.compose(mod.tensor(a, c), mod.tensor(b, d))
    assert mod.iso_check(lhs, rhs)


@pytest.mark.parametrize("model", "cm")
@FUZZ
@given(data=st.data())
def test_swap_is_natural(model, data):
    """(a * b) ; swap = swap ; (b * a), with swaps of the bundle widths."""
    mod = MODELS[model]
    a = data.draw(SPANS[model]())
    b = data.draw(SPANS[model]())
    lhs = mod.compose(mod.tensor(a, b), braid(model, a.right, b.right))
    rhs = mod.compose(braid(model, a.left, b.left), mod.tensor(b, a))
    assert mod.iso_check(lhs, rhs)


@FUZZ
@given(data=st.data())
def test_composition_is_associative_in_model_c(data):
    a = data.draw(spans_c())
    b = data.draw(spans_c(left=a.right))
    c = data.draw(spans_c(left=b.right))
    assert span_c.iso_check(span_c.compose(span_c.compose(a, b), c), span_c.compose(a, span_c.compose(b, c)))


@pytest.mark.xfail(strict=True, reason="model-m composition keeps reducible links, so it is not associative")
def test_model_m_associativity_counterexample():
    assert check_equation("copy ; join ; split ; merge", "(copy ; join) ; (split ; merge)", "m")

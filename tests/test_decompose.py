"""Factoring span values back into generator terms."""

import importlib
from itertools import permutations

import pytest

from linkalg import span_c, span_m
from linkalg.contention import CSet, discrete, full
from linkalg.crel import CRel
from linkalg.decompose import (
    _all_id,
    _copy_tree,
    _core,
    _gadget_pairs,
    _identity_term,
    _join_tree,
    _merge_tree,
    _route,
    _split_tree,
    decompose,
)
from linkalg.multiset import MRel
from linkalg.span_c import SpanC, random_span_c
from linkalg.span_m import SpanM, random_span_m
from linkalg.terms import Atom, Seq, Ten, eval_c, eval_m, parse, pretty


def _round_trip_c(s):
    t = decompose(s)
    assert span_c.iso_check(eval_c(t), s)
    return t


def _round_trip_m(s):
    t = decompose(s)
    assert span_m.iso_check(eval_m(t), s)
    return t


def test_rejects_things_that_are_not_spans():
    with pytest.raises(TypeError, match="expected a span value"):
        decompose(42)
    with pytest.raises(TypeError, match="expected a span value"):
        decompose("split ; join")


def test_rejects_invalid_spans():
    # contending images over independent sources break the arrow condition
    bad_leg = CRel(discrete(2), discrete(1), (frozenset({0}), frozenset({0})))
    with pytest.raises(ValueError, match="span is not valid"):
        decompose(SpanC(1, 1, discrete(2), bad_leg, bad_leg))
    leg = MRel(2, 1, [[1], [1]])
    with pytest.raises(ValueError, match="span is not valid"):
        decompose(SpanM(1, 1, 2, leg, leg))


def test_fan_trees_have_the_right_shapes():
    assert _split_tree(0) == Atom("stop")
    assert _split_tree(1) == Atom("id")
    assert _split_tree(2) == Atom("split")
    assert _merge_tree(0) == Atom("new")
    assert _copy_tree(0) == Atom("del")
    assert _join_tree(0) == Atom("start")
    for n in range(5):
        assert (_split_tree(n).dom, _split_tree(n).cod) == (1, n)
        assert (_merge_tree(n).dom, _merge_tree(n).cod) == (n, 1)


def test_fan_tree_values():
    # a 1-to-3 nondeterministic fan: three mutually contending links
    fan = eval_c(_split_tree(3))
    assert span_c.iso_check(fan, span_c.span_c(1, 3, full(3), [[0]] * 3, [[0], [1], [2]]))
    # a 1-to-3 broadcast: one link touching every port
    bc = eval_c(_copy_tree(3))
    assert span_c.iso_check(bc, span_c.span_c(1, 3, discrete(1), [[0]], [[0, 1, 2]]))


def test_core_blocks():
    assert _core(1, 3) == _copy_tree(3)
    assert _core(2, 1) == _merge_tree(2)
    v = eval_c(_core(2, 3))
    assert span_c.iso_check(v, span_c.span_c(2, 3, discrete(1), [[0, 1]], [[0, 1, 2]]))
    loop = eval_c(_core(0, 0))
    assert (loop.left, loop.right, loop.carrier.size) == (0, 0, 1)


def test_routing_layers_realise_any_permutation():
    assert _route([0, 1, 2]) is None
    for n in range(1, 5):
        for perm in permutations(range(n)):
            t = _route(list(perm))
            if list(perm) == sorted(perm):
                assert t is None
                continue
            want = span_c.span_c(
                n, n, discrete(n), [[i] for i in range(n)], [[perm[i]] for i in range(n)]
            )
            assert span_c.iso_check(eval_c(t), want)


def test_gadget_pairs_skip_structural_contention():
    k22 = span_c.span_c(2, 2, full(4), [[0], [0], [1], [1]], [[0], [1], [0], [1]])
    assert _gadget_pairs(k22) == [(0, 3), (1, 2)]
    ports_only = CSet(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
    cycle = span_c.span_c(2, 2, ports_only, [[0], [0], [1], [1]], [[0], [1], [0], [1]])
    assert _gadget_pairs(cycle) == []
    funnel = span_c.span_c(1, 1, full(2), [[0], [0]], [[0], [0]])
    assert _gadget_pairs(funnel) == []


def test_identity_terms():
    assert _identity_term(0) == Seq(Atom("start"), Atom("stop"))
    assert _identity_term(1) == Atom("id")
    assert _identity_term(2) == Ten(Atom("id"), Atom("id"))
    assert decompose(span_c.identity_span(1)) == Atom("id")
    assert decompose(span_c.span_c(0, 0, discrete(0), [], [])) == _identity_term(0)


def test_all_id_predicate():
    assert _all_id(Atom("id"))
    assert _all_id(Ten(Ten(Atom("id"), Atom("id")), Atom("id")))
    assert not _all_id(Atom("swap"))
    assert not _all_id(Seq(Atom("id"), Atom("id")))


def test_round_trips_on_contention_exemplars():
    # two through wires that contend without sharing a port
    crossed = span_c.span_c(2, 2, CSet(2, frozenset({(0, 1)})), [[0], [1]], [[0], [1]])
    t = _round_trip_c(crossed)
    assert "new" in pretty(t) and "split" in pretty(t)  # needs a contention gadget
    _round_trip_c(span_c.span_c(2, 2, full(4), [[0], [0], [1], [1]], [[0], [1], [0], [1]]))
    _round_trip_c(span_c.span_c(1, 1, full(2), [[0], [0]], [[0], [0]]))
    _round_trip_c(span_c.span_c(1, 1, full(2), [[0], [0]], [[0], []]))
    _round_trip_c(span_c.span_c(2, 0, full(2), [[0], [1]], [[], []]))
    _round_trip_c(span_c.identity_span(3))


def test_round_trips_on_multiset_exemplars():
    _round_trip_m(span_m.span_m(1, 1, [[1]], [[2]]))  # doubled link
    _round_trip_m(span_m.span_m(1, 1, [[2]], [[1]]))
    _round_trip_m(span_m.span_m(0, 0, [[]], [[]]))  # closed loop
    _round_trip_m(span_m.span_m(1, 2, [[1]], [[1, 1]]))
    _round_trip_m(
        span_m.span_m(2, 2, [[0, 1], [0, 1], [1, 0], [1, 0]], [[0, 1], [1, 0], [0, 1], [1, 0]])
    )


def test_random_round_trips(rng):
    for _ in range(150):
        s = random_span_c(rng, max_boundary=3, max_carrier=3)
        t = _round_trip_c(s)
        # the printed form reparses to the same value (association may shift)
        assert span_c.iso_check(eval_c(parse(pretty(t))), s)
    for _ in range(150):
        s = random_span_m(rng, max_boundary=3, max_carrier=3, max_entry=2)
        _round_trip_m(s)


def test_synthesis_needs_no_search_budget():
    k22 = span_c.span_c(2, 2, full(4), [[0], [0], [1], [1]], [[0], [1], [0], [1]])
    t = decompose(k22)
    assert span_c.iso_check(eval_c(t), k22)


def test_failed_self_check_raises(monkeypatch):
    # a construction defect must surface, never come back as a wrong term
    # the package's decompose attribute is the function, so patch the module itself
    module = importlib.import_module("linkalg.decompose")
    monkeypatch.setattr(module, "_synthesize", lambda s: Atom("copy"))
    with pytest.raises(RuntimeError, match="does not evaluate back"):
        decompose(span_c.generators()["split"])
    with pytest.raises(RuntimeError, match="does not evaluate back"):
        decompose(span_m.generators_m()["split"])

"""The law table: every row's verdict, and the cross-model bridge."""

import pytest

from linkalg import span_c, span_m
from linkalg.equations import (
    Law,
    forget_contention,
    format_results,
    laws,
    run_law,
    run_suite,
)
from linkalg.terms import eval_c, eval_m, parse


def test_every_row_matches_its_expectation():
    results = run_suite()
    assert len(results) == 59
    bad = [r for r in results if not r.ok]
    assert bad == []


def test_model_filter_partitions_the_table():
    c = run_suite("c")
    m = run_suite("m")
    assert all(r.model == "c" for r in c)
    assert all(r.model == "m" for r in m)
    assert (len(c), len(m)) == (31, 28)
    assert len(c) + len(m) == len(run_suite())


def test_the_models_disagree_exactly_where_recorded():
    verdict = {(r.label, r.model): r.actual for r in run_suite()}
    # contention blocks these, multiplicities do not
    for label in ["bialgebra", "split-join", "join-del"]:
        assert verdict[(label, "c")] is False
        assert verdict[(label, "m")] is True
    # and the one law that goes the other way
    assert verdict[("copy-join", "c")] is True
    assert verdict[("copy-join", "m")] is False
    for label in ["copy-assoc", "frobenius-l", "frobenius-r", "separable", "snake-l"]:
        assert verdict[(label, "c")] is True
        assert verdict[(label, "m")] is True


def test_bialgebra_failure_is_contention_only():
    lhs = eval_c(parse("(split * split) ; (id * swap * id) ; (join * join)"))
    rhs = eval_c(parse("join ; split"))
    # same four links between the same ports, finer contention on the left
    assert lhs.carrier.size == rhs.carrier.size == 4
    assert sorted(lhs.lleg.map) == sorted(rhs.lleg.map)
    assert sorted(lhs.rleg.map) == sorted(rhs.rleg.map)
    assert len(lhs.carrier.to_dict()["contention"]) == 4
    assert len(rhs.carrier.to_dict()["contention"]) == 6
    assert not span_c.iso_check(lhs, rhs)


def test_format_lines_carry_verdicts():
    lines = format_results(run_suite("c"))
    assert len(lines) == 31
    assert all(line.endswith("pass") for line in lines)
    row = next(line for line in lines if line.startswith("bialgebra "))
    assert "expected=false" in row and "actual=false" in row


def test_format_flags_a_wrong_expectation():
    broken = run_law(Law("broken", "c", "split", "copy", True))
    assert not broken.ok
    assert format_results([broken])[0].endswith("FAIL")


def test_forgetting_contention_sends_generators_to_generators():
    gens_c = span_c.generators()
    gens_m = span_m.generators_m()
    assert list(gens_c) == list(gens_m)
    for name in gens_c:
        assert span_m.iso_check(forget_contention(gens_c[name]), gens_m[name])


def test_forgetting_contention_bridges_a_shared_value():
    assert span_m.iso_check(forget_contention(eval_c(parse("join ; split"))), eval_m(parse("join ; split")))
    assert span_m.iso_check(forget_contention(eval_c(parse("join ; copy"))), eval_m(parse("join ; copy")))


def test_forgetting_contention_can_collide_links():
    two = eval_c(parse("split ; join"))  # two contending links over the same ports
    with pytest.raises(ValueError, match="jointly injective"):
        forget_contention(two)

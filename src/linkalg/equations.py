"""The algebraic laws of the two models, as a runnable table.

Each entry states that two arrows of one model are isomorphic (or that
they fail to be).  Sides are term texts where the law is equational;
where a side is a specific arrow with no shorter term form, it is an
explicit span.  Both models satisfy the whole symmetric Frobenius
family; they differ on the bialgebra family and on part of the mixed
family, as the expected columns record.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import span_c, span_m
from .contention import CSet, full
from .span_m import forget_contention  # re-exported: the law table's bridge between the models
from .terms import MODELS, eval_term, parse


@dataclass(frozen=True)
class Law:
    label: str
    model: str
    lhs: str
    rhs: object  # term text, SpanC or SpanM
    expected: bool


def _k22_full():
    return span_c.span_c(2, 2, full(4), [[0], [0], [1], [1]], [[0], [1], [0], [1]])


def _k22_ports_only():
    # contention exactly where two links share a boundary port
    cont = CSet(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
    return span_c.span_c(2, 2, cont, [[0], [0], [1], [1]], [[0], [1], [0], [1]])


def _two_into_one():
    return span_c.span_c(1, 1, full(2), [[0], [0]], [[0], [0]])


def _through_and_dangling_c():
    return span_c.span_c(1, 1, full(2), [[0], [0]], [[0], []])


def _through_and_dangling_m():
    return span_m.span_m(1, 1, [[1], [1]], [[1], [0]])


def _contended_pair_of_stubs():
    return span_c.span_c(2, 0, full(2), [[0], [1]], [[], []])


def _double_link_m():
    return span_m.span_m(1, 1, [[1]], [[2]])


def laws():
    rows = []

    def both(label, lhs, rhs, expected_c=True, expected_m=True):
        rows.append(Law(label, "c", lhs, rhs, expected_c))
        rows.append(Law(label, "m", lhs, rhs, expected_m))

    # comonoid / monoid / Frobenius family: holds in both models
    both("copy-unit", "copy ; (del * id)", "id")
    both("copy-comm", "copy ; swap", "copy")
    both("copy-assoc", "copy ; (copy * id)", "copy ; (id * copy)")
    both("merge-unit", "(new * id) ; merge", "id")
    both("merge-comm", "swap ; merge", "merge")
    both("merge-assoc", "(merge * id) ; merge", "(id * merge) ; merge")
    both("frobenius-l", "(id * copy) ; (merge * id)", "merge ; copy")
    both("frobenius-r", "(copy * id) ; (id * merge)", "merge ; copy")
    both("separable", "copy ; merge", "id")
    both("snake-l", "((new ; copy) * id) ; (id * (merge ; del))", "id")
    both("snake-r", "(id * (new ; copy)) ; ((merge ; del) * id)", "id")

    # nondeterministic comonoid / monoid family
    both("split-unit", "split ; (stop * id)", "id")
    both("split-comm", "split ; swap", "split")
    both("split-assoc", "split ; (split * id)", "split ; (id * split)")
    both("join-unit", "(start * id) ; join", "id")
    both("join-comm", "swap ; join", "join")
    both("join-assoc", "(join * id) ; join", "(id * join) ; join")
    both("join-stop", "join ; stop", "stop * stop")

    # the bialgebra family separates the models
    both(
        "bialgebra",
        "(split * split) ; (id * swap * id) ; (join * join)",
        "join ; split",
        expected_c=False,
        expected_m=True,
    )
    both("split-join", "split ; join", "id", expected_c=False, expected_m=True)

    # mixed family
    both("copy-stop", "copy ; (id * stop)", "stop ; start")
    both("merge-stop", "merge ; stop", "stop * stop")
    both("join-del", "join ; del", "del * del", expected_c=False, expected_m=True)
    both("copy-join", "copy ; join", "stop ; start", expected_c=True, expected_m=False)
    both(
        "join-copy",
        "join ; copy",
        "(copy * copy) ; (id * swap * id) ; (join * join)",
    )
    both(
        "copy-split",
        "copy ; (split * id)",
        "split ; (copy * copy) ; (id * swap * id) ; (id * id * join)",
    )

    # pinned values for the sides that have no shorter term form
    rows.append(Law("split-join-value", "c", "split ; join", _two_into_one(), True))
    rows.append(Law("join-split-value", "c", "join ; split", _k22_full(), True))
    rows.append(
        Law(
            "bialgebra-lhs-value",
            "c",
            "(split * split) ; (id * swap * id) ; (join * join)",
            _k22_ports_only(),
            True,
        )
    )
    rows.append(Law("split-del-value", "c", "split ; (id * del)", _through_and_dangling_c(), True))
    rows.append(Law("split-del-value", "m", "split ; (id * del)", _through_and_dangling_m(), True))
    rows.append(Law("join-del-value", "c", "join ; del", _contended_pair_of_stubs(), True))
    rows.append(Law("copy-join-value", "m", "copy ; join", _double_link_m(), True))
    return rows


@dataclass(frozen=True)
class LawResult:
    label: str
    model: str
    expected: bool
    actual: bool

    @property
    def ok(self):
        return self.expected == self.actual


def run_law(law):
    lhs = eval_term(parse(law.lhs), law.model)
    rhs = eval_term(parse(law.rhs), law.model) if isinstance(law.rhs, str) else law.rhs
    actual = MODELS[law.model].iso_check(lhs, rhs)
    return LawResult(law.label, law.model, law.expected, actual)


def run_suite(model=None):
    return [run_law(l) for l in laws() if model is None or l.model == model]


def format_results(results):
    lines = []
    width = max(len(r.label) for r in results)
    for r in results:
        lines.append(
            f"{r.label:<{width}}  {r.model}  expected={_tf(r.expected)}  actual={_tf(r.actual)}  "
            + ("pass" if r.ok else "FAIL")
        )
    return lines


def _tf(b):
    return "true" if b else "false"


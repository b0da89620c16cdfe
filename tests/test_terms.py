"""Parser, printer and evaluator for the diagram term language."""

import pytest
from hypothesis import given, settings, strategies as st

from linkalg import span_c, span_m
from linkalg.terms import (
    _tokenize,
    ALIASES,
    ARITIES,
    MODELS,
    Atom,
    Seq,
    Ten,
    TermSyntaxError,
    TermTypeError,
    check_equation,
    eval_c,
    eval_m,
    eval_term,
    parse,
    pretty,
)

from oracles import scan_tokens


def test_atom_boundaries_match_the_arity_table():
    for name, (dom, cod) in ARITIES.items():
        t = parse(name)
        assert t == Atom(name)
        assert (t.dom, t.cod) == (dom, cod)
    assert (Atom("copy").dom, Atom("copy").cod) == (1, 2)
    assert (Atom("merge").dom, Atom("merge").cod) == (2, 1)
    assert (Atom("start").dom, Atom("start").cod) == (0, 1)


def test_boundary_arithmetic_on_composites():
    t = Ten(Atom("copy"), Atom("merge"))
    assert (t.dom, t.cod) == (3, 3)
    s = Seq(Atom("copy"), Ten(Atom("id"), Atom("id")))
    assert (s.dom, s.cod) == (1, 2)


def test_tensor_binds_tighter_than_composition():
    t = parse("copy ; id * id")
    assert t == Seq(Atom("copy"), Ten(Atom("id"), Atom("id")))


def test_operators_associate_to_the_left():
    assert parse("id ; id ; id") == Seq(Seq(Atom("id"), Atom("id")), Atom("id"))
    assert parse("id * id * id") == Ten(Ten(Atom("id"), Atom("id")), Atom("id"))


def test_parentheses_override_grouping():
    t = parse("id ; (id ; id)")
    assert t == Seq(Atom("id"), Seq(Atom("id"), Atom("id")))
    u = parse("(copy ; id * id) * id")
    assert u == Ten(Seq(Atom("copy"), Ten(Atom("id"), Atom("id"))), Atom("id"))


def test_unicode_and_letter_aliases():
    for alias, name in ALIASES.items():
        assert parse(alias) == Atom(name)
    assert parse("Λ ; X ; ∇") == parse("split ; swap ; merge")
    # printing always uses the long names
    assert pretty(parse("Δ")) == "copy"


def test_pretty_parses_back_for_unparenthesised_input():
    for text in [
        "copy ; id * id ; merge",
        "split * new",
        "start ; stop",
        "join ; copy ; swap",
        "del * del",
    ]:
        t = parse(text)
        assert parse(pretty(t)) == t
        assert pretty(t) == text


def test_pretty_guards_composition_inside_tensor():
    t = parse("(copy ; merge) * id")
    s = pretty(t)
    assert s == "(copy ; merge) * id"
    assert parse(s) == t


def test_pretty_flattens_association():
    # grouping parens that do not cross an operator boundary are not
    # reconstructed, so reparsing yields the left-nested shape
    t = parse("id ; (id ; id)")
    again = parse(pretty(t))
    assert again == parse("id ; id ; id")
    assert (again.dom, again.cod) == (t.dom, t.cod)
    assert pretty(parse(pretty(t))) == pretty(t)


def _wiring_of_width(rng, width):
    """Random tensor of generators whose inputs add up to ``width``."""
    by_dom = {1: ["copy", "del", "split", "stop", "id"], 2: ["merge", "join", "swap"]}
    parts = []
    left = width
    while left > 0:
        d = 2 if left >= 2 and rng.random() < 0.4 else 1
        parts.append(Atom(rng.choice(by_dom[d])))
        left -= d
    t = parts[0]
    for p in parts[1:]:
        t = Ten(t, p)
    return t


def test_random_terms_print_and_reparse_exactly(rng):
    for _ in range(200):
        t = _wiring_of_width(rng, rng.randint(1, 4))
        for _ in range(rng.randint(0, 3)):
            if t.cod == 0:
                break
            t = Seq(t, _wiring_of_width(rng, t.cod))
        assert parse(pretty(t)) == t


def test_syntax_error_positions():
    with pytest.raises(TermSyntaxError, match=r"at position 5: unexpected character '\$'") as e:
        parse("copy $")
    assert e.value.pos == 5
    with pytest.raises(TermSyntaxError, match="unknown generator 'frob'"):
        parse("frob")
    with pytest.raises(TermSyntaxError, match=r"expected '\)'"):
        parse("(copy ; merge")
    with pytest.raises(TermSyntaxError, match="unexpected 'copy'"):
        parse("copy copy")
    with pytest.raises(TermSyntaxError, match="found ';'"):
        parse("; copy")
    with pytest.raises(TermSyntaxError, match="found 'end'"):
        parse("")
    # a non-ASCII letter that is no alias is a name of one character
    with pytest.raises(TermSyntaxError, match="^at position 0: unknown generator 'é'$"):
        parse("é")


def _tokens_or_error(scan, text):
    try:
        return scan(text)
    except TermSyntaxError as exc:
        return str(exc), exc.pos


def test_tokenizer_matches_the_character_scanner_on_every_small_code_point():
    chars = [chr(c) for c in range(0x800)] + list(ALIASES)
    for ch in chars:
        for text in (ch, f"copy_{ch}", f"{ch}_x", f"a_{ch}b", f" {ch}{ch} "):
            assert _tokens_or_error(_tokenize, text) == _tokens_or_error(scan_tokens, text), text


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text() | st.text(alphabet="copy_delV IX19 ;*()\t$é" + "".join(ALIASES)))
def test_tokenizer_matches_the_character_scanner_on_drawn_text(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(scan_tokens, text)


def test_composition_arity_mismatch_is_a_type_error():
    with pytest.raises(TermTypeError, match="cannot compose 1 outputs with 2 inputs"):
        parse("new ; merge")
    # same boundaries in the other order are fine
    parse("copy ; merge")


def test_eval_dispatches_on_model():
    t = parse("copy ; merge")
    assert span_c.iso_check(eval_term(t, "c"), span_c.identity_span(1))
    assert span_m.iso_check(eval_term(t, "m"), span_m.identity_span_m(1))
    with pytest.raises(ValueError, match="unknown model 'q'"):
        eval_term(t, "q")


def test_eval_rejects_non_terms():
    with pytest.raises(TypeError, match="not a term"):
        eval_term(42, "c")
    with pytest.raises(TypeError, match="not a term"):
        pretty(object())


def test_long_flat_chain_needs_no_recursion():
    text = " ; ".join(["id"] * 1500)
    t = parse(text)
    assert pretty(t) == text
    assert (t.dom, t.cod) == (1, 1)
    assert span_c.iso_check(eval_c(t), span_c.identity_span(1))
    assert span_m.iso_check(eval_m(t), span_m.identity_span_m(1))
    assert check_equation(text, "id", "m")
    wide = parse(" * ".join(["id"] * 1500))
    assert (wide.dom, wide.cod) == (1500, 1500)


def test_deep_nesting_needs_no_recursion():
    text = "(" * 600 + "id" + ")" * 600
    assert parse(text) == Atom("id")
    with pytest.raises(TermSyntaxError, match=r"expected '\)'") as e:
        parse(text[:-1])
    assert e.value.pos == len(text) - 1


def test_the_two_models_disagree_on_split_then_join():
    t = parse("split ; join")
    assert span_m.iso_check(eval_m(t), span_m.identity_span_m(1))
    c = eval_c(t)
    assert c.carrier.size == 2 and c.carrier.contends(0, 1)
    assert not span_c.iso_check(c, span_c.identity_span(1))


def test_check_equation_accepts_terms_or_strings():
    assert check_equation("copy ; merge", "id", "c")
    assert check_equation(parse("split ; join"), parse("id"), "m")
    assert not check_equation("split", "copy", "c")
    assert not check_equation("split", "copy", "m")


def test_check_equation_requires_matching_boundaries():
    with pytest.raises(TermTypeError, match=r"sides have different boundaries: 1->2 vs 2->1"):
        check_equation("copy", "merge", "c")


def test_wide_terms_compare_hash_and_print_without_recursion():
    text = " * ".join(["id"] * 1200)
    t, u = parse(text), parse(text)
    assert t == u and hash(t) == hash(u)
    assert t != parse(" * ".join(["id"] * 1199) + " * swap")
    assert repr(t).count("Atom(name='id')") == 1200


def test_terms_compare_and_print_as_dataclasses_would():
    t = parse("copy ; id * id")
    assert repr(t) == "Seq(fst=Atom(name='copy'), snd=Ten(fst=Atom(name='id'), snd=Atom(name='id')))"
    assert t == Seq(Atom("copy"), Ten(Atom("id"), Atom("id")))
    assert len({t, parse("copy ; (id * id)")}) == 1
    assert Seq(Atom("id"), Atom("id")) != Ten(Atom("id"), Atom("id"))
    assert Atom("id") != "id"


@pytest.mark.parametrize("model", ["c", "m"])
def test_atoms_evaluate_to_generators_built_once(model):
    assert eval_term(parse("split"), model) is eval_term(parse("split"), model)
    gens = MODELS[model].generators()
    assert gens is not MODELS[model].generators()
    gens["split"] = gens["copy"]
    assert eval_term(parse("split"), model) is MODELS[model].GENERATORS["split"]
    assert eval_term(parse("split"), model).carrier != eval_term(parse("copy"), model).carrier

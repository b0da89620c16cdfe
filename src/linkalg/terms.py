"""Term language over the ten generators.

Grammar:  term   := factor (";" factor)*
          factor := atom ("*" atom)*
          atom   := NAME | "(" term ")"

"*" (tensor) binds tighter than ";" (sequential composition).  Atom
names are the keys of span_c.GENERATORS; one-character aliases from the
usual string-diagram notation are accepted on input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import span_c, span_m

# The span modules are the model interface: each provides compose,
# tensor, iso_check, find_iso and GENERATORS, its ten basic arrows.
# Callers look functions up on the module at call time, so that
# rebinding a module attribute (as a tracer does) reaches every caller.
MODELS = {"c": span_c, "m": span_m}

# generator name -> (inputs, outputs), read off the spans themselves
ARITIES = {name: (g.left, g.right) for name, g in span_c.GENERATORS.items()}

ALIASES = {
    "Δ": "copy",   # Δ
    "⊥": "del",    # ⊥
    "∇": "merge",  # ∇
    "⊤": "new",    # ⊤
    "Λ": "split",  # Λ
    "↓": "stop",   # ↓
    "V": "join",
    "↑": "start",  # ↑
    "I": "id",
    "X": "swap",
}


class TermSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class TermTypeError(ValueError):
    pass


class _Term:
    """Equality, hash and repr (the one dataclasses would generate) from one
    walk over an explicit stack, so that no term reaches the recursion limit."""

    def _parts(self):  # the pieces of the repr, in order
        stack = [self]
        while stack:
            x = stack.pop()
            if isinstance(x, str):
                yield x
            elif isinstance(x, Atom):
                yield f"Atom(name={x.name!r})"
            else:
                yield f"{type(x).__name__}(fst="
                stack += (")", x.snd, ", snd=", x.fst)

    def __eq__(self, other):
        if not isinstance(other, _Term):
            return NotImplemented
        return tuple(self._parts()) == tuple(other._parts())

    def __hash__(self):
        return hash(tuple(self._parts()))

    def __repr__(self):
        return "".join(self._parts())


@dataclass(frozen=True, eq=False, repr=False)
class Atom(_Term):
    name: str

    @property
    def dom(self):
        return ARITIES[self.name][0]

    @property
    def cod(self):
        return ARITIES[self.name][1]


# dom and cod are stored, not derived on each access, so that reading
# them on a long chain does not recurse down its spine
@dataclass(frozen=True, eq=False, repr=False)
class Seq(_Term):
    fst: object
    snd: object
    dom: int = field(init=False)
    cod: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dom", self.fst.dom)
        object.__setattr__(self, "cod", self.snd.cod)


@dataclass(frozen=True, eq=False, repr=False)
class Ten(_Term):
    fst: object
    snd: object
    dom: int = field(init=False)
    cod: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dom", self.fst.dom + self.snd.dom)
        object.__setattr__(self, "cod", self.fst.cod + self.snd.cod)


# one token after optional space: an operator, an ASCII word, any other
# single character (a name if it is a letter or an alias), or the end.
# Left to re's cache, so that it is compiled on first use, not on import.
_TOKEN = r"\s*(?:([;*()])|([A-Za-z_][A-Za-z0-9_]*)|(\S)|\Z)"


def _tokenize(text):
    toks = []
    for m in re.finditer(_TOKEN, text):
        op, word, ch = m.groups()
        tok = op or word or ch
        if tok is None:
            toks.append(("end", "", len(text)))
            return toks
        at = m.end() - len(tok)
        if ch and not (ch.isalpha() or ch in ALIASES):
            raise TermSyntaxError(f"unexpected character {ch!r}", at)
        toks.append((op, op, at) if op else ("name", ALIASES.get(tok, tok), at))


def parse(text):
    """Parse to a Term and typecheck it.

    Shift-reduce with an explicit stack holding one frame per open
    parenthesis, so that nesting depth is not bounded by the recursion
    limit.  Errors are raised at the same tokens, with the same
    messages, as a recursive descent over the grammar would raise them.
    """
    toks = _tokenize(text)
    pos = 0
    frames = []  # (term, factor, semi) of each enclosing open parenthesis
    # the innermost open term: its sequence so far, its open factor and
    # the position of the ";" before that factor
    term = factor = semi = None
    while True:
        kind, val, at = toks[pos]
        pos += 1
        if kind == "(":
            frames.append((term, factor, semi))
            term = factor = None
            continue
        if kind != "name":
            raise TermSyntaxError(f"expected a generator or '(', found {val or kind!r}", at)
        if val not in ARITIES:
            raise TermSyntaxError(f"unknown generator {val!r}", at)
        atom = Atom(val)
        while True:  # fold in the atom, then every parenthesis it closes
            factor = atom if factor is None else Ten(factor, atom)
            kind, val, at = toks[pos]
            if kind == "*":
                break
            if term is None:
                term = factor
            elif term.cod != factor.dom:
                raise TermTypeError(
                    f"cannot compose {term.cod} outputs with {factor.dom} inputs (near position {semi})"
                )
            else:
                term = Seq(term, factor)
            factor = None
            if kind == ";":
                semi = at
                break
            if not frames:
                if kind != "end":
                    raise TermSyntaxError(f"unexpected {val!r}", at)
                return term
            if kind != ")":
                raise TermSyntaxError("expected ')'", at)
            pos += 1
            atom = term
            term, factor, semi = frames.pop()
        pos += 1


def pretty(t):
    """Render a term; inverse of parse up to whitespace.

    Works from an explicit stack of terms and literal text (1-tuples),
    so that a long flat chain does not reach the recursion limit.
    """
    out = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            out.append(x[0])
        elif isinstance(x, Atom):
            out.append(x.name)
        elif isinstance(x, Seq):
            stack += (x.snd, (" ; ",), x.fst)
        elif isinstance(x, Ten):
            for part in (x.snd, (" * ",), x.fst):
                stack += ((")",), part, ("(",)) if isinstance(part, Seq) else (part,)
        else:
            raise TypeError(f"not a term: {x!r}")
    return "".join(out)


def eval_term(t, model):
    """Evaluate in the chosen model, 'c' or 'm'.

    Post-order over an explicit stack: each node's first operand, then
    its second, then the node itself, as a recursive evaluation would.
    """
    mod = MODELS.get(model)
    if mod is None:
        raise ValueError(f"unknown model {model!r}")
    values = []
    stack = [(t, False)]
    while stack:
        x, operands_done = stack.pop()
        if isinstance(x, Atom):
            values.append(mod.GENERATORS[x.name])
        elif not isinstance(x, (Seq, Ten)):
            raise TypeError(f"not a term: {x!r}")
        elif operands_done:
            snd = values.pop()
            fst = values.pop()
            values.append((mod.compose if isinstance(x, Seq) else mod.tensor)(fst, snd))
        else:
            stack += ((x, True), (x.snd, False), (x.fst, False))
    return values[0]


def eval_c(t):
    return eval_term(t, "c")


def eval_m(t):
    return eval_term(t, "m")


def check_equation(lhs, rhs, model):
    """Do two terms denote isomorphic spans in the given model?"""
    l = lhs if not isinstance(lhs, str) else parse(lhs)
    r = rhs if not isinstance(rhs, str) else parse(rhs)
    if (l.dom, l.cod) != (r.dom, r.cod):
        raise TermTypeError(
            f"sides have different boundaries: {l.dom}->{l.cod} vs {r.dom}->{r.cod}"
        )
    lv, rv = eval_term(l, model), eval_term(r, model)
    return MODELS[model].iso_check(lv, rv)

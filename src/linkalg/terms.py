"""Term language over the ten generators.

Grammar:  term   := factor (";" factor)*
          factor := atom ("*" atom)*
          atom   := NAME | "(" term ")"

"*" (tensor) binds tighter than ";" (sequential composition).  Atom
names are copy, del, merge, new, split, stop, join, start, id, swap;
one-character aliases from the usual string-diagram notation are
accepted on input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import span_c, span_m

# The span modules are the model interface: each provides compose,
# tensor, iso_check, find_iso and generators.  Callers look functions up
# on the module at call time, so that rebinding a module attribute (as a
# tracer does) reaches every caller.
MODELS = {"c": span_c, "m": span_m}

ARITIES = {
    "copy": (1, 2),
    "del": (1, 0),
    "merge": (2, 1),
    "new": (0, 1),
    "split": (1, 2),
    "stop": (1, 0),
    "join": (2, 1),
    "start": (0, 1),
    "id": (1, 1),
    "swap": (2, 2),
}

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


@dataclass(frozen=True)
class Atom:
    name: str

    @property
    def dom(self):
        return ARITIES[self.name][0]

    @property
    def cod(self):
        return ARITIES[self.name][1]


# dom and cod are stored, not derived on each access, so that reading
# them on a long chain does not recurse down its spine
@dataclass(frozen=True)
class Seq:
    fst: object
    snd: object
    dom: int = field(init=False, repr=False, compare=False)
    cod: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dom", self.fst.dom)
        object.__setattr__(self, "cod", self.snd.cod)


@dataclass(frozen=True)
class Ten:
    fst: object
    snd: object
    dom: int = field(init=False, repr=False, compare=False)
    cod: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dom", self.fst.dom + self.snd.dom)
        object.__setattr__(self, "cod", self.fst.cod + self.snd.cod)


def _tokenize(text):
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


def parse(text):
    """Parse to a Term and typecheck it."""
    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def advance():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def parse_atom():
        kind, val, at = peek()
        if kind == "name":
            advance()
            if val not in ARITIES:
                raise TermSyntaxError(f"unknown generator {val!r}", at)
            return Atom(val)
        if kind == "(":
            advance()
            t = parse_term()
            kind2, _, at2 = peek()
            if kind2 != ")":
                raise TermSyntaxError("expected ')'", at2)
            advance()
            return t
        raise TermSyntaxError(f"expected a generator or '(', found {val or kind!r}", at)

    def parse_factor():
        t = parse_atom()
        while peek()[0] == "*":
            advance()
            t = Ten(t, parse_atom())
        return t

    def parse_term():
        t = parse_factor()
        while peek()[0] == ";":
            _, _, at = advance()
            rhs = parse_factor()
            if t.cod != rhs.dom:
                raise TermTypeError(
                    f"cannot compose {t.cod} outputs with {rhs.dom} inputs (near position {at})"
                )
            t = Seq(t, rhs)
        return t

    t = parse_term()
    kind, val, at = peek()
    if kind != "end":
        raise TermSyntaxError(f"unexpected {val!r}", at)
    return t


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
    gens = mod.generators()
    values = []
    stack = [(t, False)]
    while stack:
        x, operands_done = stack.pop()
        if isinstance(x, Atom):
            values.append(gens[x.name])
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

"""The three workloads, as seeded streams of batches of ops.

The first batch of a run holds the ops every run must attempt exactly
once, whatever the speed of the code: the largest inputs.  Every later
batch is one round, a fixed mix of op kinds and input sizes whose inputs
are drawn fresh from the seed.  Runs stop only between batches, so runs
of different seeds do the same kind and amount of work per round while
their inputs differ.

Ops that fail at this commit are not in the timed stream.  Each workload
names them in ``DEFECTS``; every run attempts them once, untimed, and
reports how they end (see README.md).

An op's ``run`` calls only public entry points; everything else about
an op (building its inputs, checking its output, sampling a deeper
check) happens outside the timed call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable

import linkalg
from linkalg import cli, equations, span_c, span_m, sync_m, terms

import refs

decomposition = importlib.import_module("linkalg.decompose")

ARITY = {
    "copy": (1, 2), "del": (1, 0), "merge": (2, 1), "new": (0, 1), "split": (1, 2),
    "stop": (1, 0), "join": (2, 1), "start": (0, 1), "id": (1, 1), "swap": (2, 2),
}


@dataclass
class Op:
    """One call into the library, with everything needed to judge it.

    ``check(out)`` returns None for a right answer or a reason.
    ``sample(out)`` is the deeper check the run loop applies to a seeded
    share of ops; it returns (reason or None, extra output sizes).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    atoms: int = 0
    sample: Callable[[object], tuple] | None = None


def bracket(items, rng, sep):
    """A random full bracketing of ``items`` joined by ``sep``."""
    if len(items) == 1:
        return items[0]
    k = rng.randint(1, len(items) - 1)
    return f"({bracket(items[:k], rng, sep)} {sep} {bracket(items[k:], rng, sep)})"


def links_out(value):
    carrier = value.carrier
    return carrier if isinstance(carrier, int) else carrier.size


def evaluate(text, model):
    return terms.eval_term(terms.parse(text), model)


# ------------------------------------------------------------ output checks

def check_true(out):
    return None if out is True else f"verdict {out!r}, expected true by the regrouping law"


def c_sync_sample(left_text, right_text):
    """Minimal synchronisations of one composition step against enumeration."""
    s, t = evaluate(left_text, "c"), evaluate(right_text, "c")
    want = refs.naive_min_syncs(s.to_dict(), t.to_dict())
    syncs, space = linkalg.min_syncs(s.rleg, t.lleg)
    got = [(frozenset(x.u), frozenset(x.v)) for x in syncs]
    got_cont = {frozenset((got[a], got[b])) for a, b in space.to_dict()["contention"]}
    if set(got) != want[0] or len(got) != len(want[0]):
        return f"min syncs of {left_text} ; {right_text} differ from enumeration", {}
    if got_cont != want[1]:
        return f"sync contention of {left_text} ; {right_text} differs from enumeration", {}
    return None, {"syncs": len(got)}


def m_basis_sample(s, t, bound, out=None):
    """The Hilbert basis of s ; t against box enumeration, and the output's
    links against the lifts of that basis."""
    sd, td = s.to_dict(), t.to_dict()
    basis = sync_m.min_msync_vectors(s.rleg, t.lleg)
    box = refs.box_min_msyncs(sd["rleg"], td["lleg"], sd["right"], bound)
    if box != sorted(b for b in basis if max(b) <= bound):
        return "minimal syncs differ from box enumeration", {"basis": len(basis)}
    if out is not None:
        na = sd["carrier"]
        lifted = {
            (refs.lift(sd["lleg"], b[:na], sd["left"]), refs.lift(td["rleg"], b[na:], td["right"]))
            for b in basis
        }
        if not set(refs.m_pairs(out.to_dict())) <= lifted:
            return "an output link is not the lift of a minimal sync", {"basis": len(basis)}
    return None, {"basis": len(basis)}


def check_m_value(out, left, right):
    d = out.to_dict()
    if (d["left"], d["right"]) != (left, right):
        return f"boundaries {d['left']}->{d['right']}, expected {left}->{right}"
    pairs = refs.m_pairs(d)
    if len(set(pairs)) != len(pairs):
        return "legs are not jointly injective"
    return None


# ---------------------------------------------------------------- c-dense

C_DENSE_LIMIT = 10.0  # seconds per op
C_DENSE_SIZES = (32, 64, 128, 256)
# Ops per shape and round.  The 256-link eqs are the slowest sixth of a
# round, so that p90 falls inside one cluster of latencies, not in the
# gap between two, where it would jump from run to run.
C_DENSE_KINDS = {32: ("eval", "eval", "eq"), 64: ("eval", "eval", "eq"), 128: ("eval", "eval", "eq"),
                 256: ("eval", "eval", "eq", "eq")}
C_SIGNATURE_MAX = 256  # larger outputs are checked by size only


# the layers of one block of each chain family
BLOCKS = {"J": (("join",), ("split",)), "B": (("split", "split"), ("id", "swap", "id"), ("join", "join"))}


def _chain_layers(family, blocks, rng=None):
    """Layer texts of a chain; rng regroups the tensor inside each layer,
    None writes it flat."""
    def layer(atoms):
        if rng is None:
            return atoms[0] if len(atoms) == 1 else f"({' * '.join(atoms)})"
        return bracket(list(atoms), rng, "*")

    return [layer(atoms) for _ in range(blocks) for atoms in BLOCKS[family]]


def _blocks(links):
    return links.bit_length() - 2  # a chain of b blocks has 2**(b+1) links


def _c_value_check(want, left, right, size):
    def check(out):
        if (out.left, out.right, links_out(out)) != (left, right, size):
            return f"value is {out.left}->{out.right} with {links_out(out)} links, expected {left}->{right} with {size}"
        if size <= C_SIGNATURE_MAX and refs.c_signature(out.to_dict()) != want:
            return "link signatures or contention degrees differ from the closed form"
        return None

    return check


def _window(layers, rng, max_len):
    """Two adjacent random pieces of a chain, for the sync sample."""
    w = rng.randint(2, min(len(layers), max_len))
    start = rng.randint(0, len(layers) - w)
    k = rng.randint(1, w - 1)
    return bracket(layers[start:start + k], rng, ";"), bracket(layers[start + k:start + w], rng, ";")


def _c_dense_op(rng, kind, shape, links):
    """kind: eval or eq; shape: J, B (one chain) or T (two chains side by side)."""
    if shape == "T":
        fams = rng.sample(["J", "B"], 2)
        b = _blocks(links // 2)
        l1, l2 = _chain_layers(fams[0], b, rng), _chain_layers(fams[1], b, rng)
        text = f"{bracket(l1, rng, ';')} * {bracket(l2, rng, ';')}"
        want = refs.chain_signature(fams[0], b) + refs.chain_signature(fams[1], b, 2)
        ends = (4, 4)
        if kind == "eq":
            i1, i2 = (len(BLOCKS[f]) * rng.randint(1, b - 1) for f in fams)
            m1, m2 = _chain_layers(fams[0], b, rng), _chain_layers(fams[1], b, rng)
            other = (f"({bracket(m1[:i1], rng, ';')} * {bracket(m2[:i2], rng, ';')}) ; "
                     f"({bracket(m1[i1:], rng, ';')} * {bracket(m2[i2:], rng, ';')})")
        name, sample_layers = f"{kind}.{''.join(fams)}.{links}", l1
    else:
        b = _blocks(links)
        layers = _chain_layers(shape, b, rng)
        text = bracket(layers, rng, ";")
        want, ends = refs.chain_signature(shape, b), (2, 2)
        other = text
        while kind == "eq" and other == text:
            other = bracket(_chain_layers(shape, b, rng), rng, ";")
        name, sample_layers = f"{kind}.{shape}.{links}", layers
    left, right = _window(sample_layers, rng, 10)
    sample = lambda out: c_sync_sample(left, right)  # noqa: E731
    if kind == "eval":
        return (text,), Op(name, lambda: evaluate(text, "c"),
                           _c_value_check(want, *ends, links), refs.count_atoms(text), sample)
    return (text, other), Op(name, lambda: terms.check_equation(text, other, "c"), check_true,
                             refs.count_atoms(text) + refs.count_atoms(other), sample)


def _unique(seen, make):
    for _ in range(100):
        key, op = make()
        if key not in seen:
            seen.add(key)
            return op
    raise RuntimeError("could not draw a new distinct op")


def _flat_chain_ops(family, links):
    """A chain typed flat, as a user would, and compared with its
    right-nested regrouping.  Their inputs are the same in every run, so
    that these large ops weigh the same in every run."""
    blocks = _blocks(links)
    layers = _chain_layers(family, blocks)
    flat = " ; ".join(layers)
    nested = functools.reduce(lambda acc, layer: f"({layer} ; {acc})", reversed(layers[:-1]), layers[-1])
    left, right = " ; ".join(layers[:4]), " ; ".join(layers[4:8])
    sample = lambda out: c_sync_sample(left, right)  # noqa: E731
    return [
        Op(f"eval.{family}.{links}", lambda: evaluate(flat, "c"),
           _c_value_check(refs.chain_signature(family, blocks), 2, 2, links), refs.count_atoms(flat), sample),
        Op(f"eq.{family}.{links}", lambda: terms.check_equation(flat, nested, "c"), check_true,
           2 * refs.count_atoms(flat), sample),
    ]


def c_dense(seed):
    """Dense model-c chains: (join ; split)^n, bialgebra blocks, both side by side.

    The first batch holds the 512- and 1024-link chains, all but the
    1024-link eq, which is a known defect.  Rounds hold
    32 to 256 links, and no two of their ops are alike: each is a fresh
    random bracketing (and, for eq, a second one to compare against).
    """
    rng = random.Random(seed)
    seen = set()

    def op(kind, shape, links):
        def make():
            texts, new = _c_dense_op(rng, kind, shape, links)
            return (kind, shape, links) + texts, new

        return _unique(seen, make)

    yield _flat_chain_ops("J", 1024)[:1] + _flat_chain_ops("B", 512)
    while True:
        batch = [op(kind, shape, links)
                 for links in C_DENSE_SIZES
                 for shape in ("J", "B", "T")
                 for kind in C_DENSE_KINDS[links]]
        rng.shuffle(batch)
        yield batch


# -------------------------------------------------------------- m-hilbert

M_HILBERT_LIMIT = 2.0  # seconds per op
M_BOX = 6  # entry bound of the box enumeration
# The balance systems are a fixed draw: a Hilbert basis costs anywhere
# from 0.1 ms to over 8 s on systems of the same shape, so fresh systems
# per seed would make runs of different seeds measure different work.
# The seed relabels links and ports, draws the outer legs and the order.
M_POPULATION_SEED = 1303
M_POPULATION = 40
M_PORTS = 3  # shared middle boundary
M_OUTER = 2  # outer boundaries
M_CHAINS = [("cj", n, "copy ; join") for n in range(2, 8)] + [("cjsm", n, "copy ; join ; split ; merge") for n in (1, 2)]


def _facing_legs():
    rng = random.Random(M_POPULATION_SEED)
    return [
        tuple([[rng.randint(0, 2) for _ in range(M_PORTS)] for _ in range(rng.randint(3, 4))] for _side in "st")
        for _ in range(M_POPULATION)
    ]


def m_span_dict(left, right, lrows, rrows):
    return {"model": "m", "left": left, "right": right, "carrier": len(lrows), "lleg": lrows, "rleg": rrows}


def _outer_leg(rng, facing, width):
    """Random outer rows that keep the span jointly injective."""
    while True:
        rows = [[rng.randint(0, 2) for _ in range(width)] for _ in facing]
        pairs = [(tuple(o), tuple(f)) for o, f in zip(rows, facing)]
        if len(set(pairs)) == len(pairs):
            return rows


def _m_compose_op(rng, index, facing):
    cols = rng.sample(range(M_PORTS), M_PORTS)
    sf, tf = ([[row[c] for c in cols] for row in rng.sample(rows, len(rows))] for rows in facing)
    s = span_m.SpanM.from_dict(m_span_dict(M_OUTER, M_PORTS, _outer_leg(rng, sf, M_OUTER), sf))
    t = span_m.SpanM.from_dict(m_span_dict(M_PORTS, M_OUTER, tf, _outer_leg(rng, tf, M_OUTER)))
    return Op(
        f"compose.{len(sf)}x{len(tf)}.p{index}",
        lambda: span_m.compose(s, t),
        lambda out: check_m_value(out, M_OUTER, M_OUTER),
        sample=lambda out: m_basis_sample(s, t, M_BOX, out),
    )


def _m_chain_op(kind, n, unit):
    """A flat chain, left-associated by the parser as a user would type it.

    (copy ; join)^n is one link of weight 2^n on the right.  Every link
    of (copy ; join ; split ; merge)^n has equal weights on its two
    sides, and the weight-1 link is among them.
    """
    text = " ; ".join([unit] * n)

    def check(out):
        bad = check_m_value(out, 1, 1)
        if bad:
            return bad
        pairs = refs.m_pairs(out.to_dict())
        if kind == "cj" and pairs != [((1,), (2 ** n,))]:
            return f"links {pairs}, expected one link (1)->({2 ** n})"
        if kind == "cjsm" and (((1,), (1,)) not in pairs or any(l != r for l, r in pairs)):
            return f"links {pairs}, expected balanced links including (1)->(1)"
        return None

    return Op(f"eval.{kind}.{n}", lambda: evaluate(text, "m"), check, refs.count_atoms(text))


def m_hilbert(seed):
    """Model-m compositions whose time is the Hilbert basis completion."""
    rng = random.Random(seed)
    population = _facing_legs()
    yield []
    while True:
        batch = [_m_compose_op(rng, i, facing) for i, facing in enumerate(population)]
        batch += [_m_chain_op(*chain) for chain in M_CHAINS]
        rng.shuffle(batch)
        yield batch


# ------------------------------------------------------------ small-mixed

SMALL_LIMIT = 2.0  # seconds per op
SMALL_BOX = 4


def short_term(rng, max_layers=3, max_width=3):
    """Atom names per layer of a random well-typed term, with its boundaries."""
    width = dom = rng.randint(1, 2)
    layers = []
    for _ in range(rng.randint(1, max_layers)):
        atoms, rem, out_w = [], width, 0
        while rem:
            # out_w + rem <= max_width holds throughout, so del always fits
            name = rng.choice([a for a, (d, c) in ARITY.items() if 1 <= d <= rem and out_w + c + rem - d <= max_width])
            atoms.append(name)
            rem -= ARITY[name][0]
            out_w += ARITY[name][1]
        if out_w < max_width and rng.random() < 0.15:
            atoms.insert(rng.randrange(len(atoms) + 1), rng.choice(["new", "start"]))
            out_w += 1
        layers.append(atoms)
        width = out_w
        if width == 0:
            break
    return layers, dom, width


def term_text(layers, rng):
    return bracket([bracket(atoms, rng, "*") for atoms in layers], rng, ";")


def random_c_span(rng, left=None, right=None, max_boundary=3, max_carrier=4):
    """A valid model-c span dict: links sharing a port always contend."""
    k = rng.randint(0, max_boundary) if left is None else left
    l = rng.randint(0, max_boundary) if right is None else right
    n = rng.randint(0, max_carrier)
    lleg = [[p for p in range(k) if rng.random() < 0.4] for _ in range(n)]
    rleg = [[q for q in range(l) if rng.random() < 0.4] for _ in range(n)]
    pairs = [
        [a, b] for a, b in itertools.combinations(range(n), 2)
        if set(lleg[a]) & set(lleg[b]) or set(rleg[a]) & set(rleg[b]) or rng.random() < 0.3
    ]
    return {"model": "c", "left": k, "right": l, "carrier": {"size": n, "contention": pairs},
            "lleg": lleg, "rleg": rleg}


def random_m_span(rng, left=None, right=None, max_boundary=2, max_carrier=4):
    """A model-m span dict in normal form: no link is zero, repeated or a
    sum of other links, so a round trip holds whether or not composition
    drops reducible links."""
    k = rng.randint(0, max_boundary) if left is None else left
    l = rng.randint(0, max_boundary) if right is None else right
    while True:
        links = [[rng.randint(0, 2) for _ in range(k + l)] for _ in range(rng.randint(0, max_carrier))]
        if not refs.m_reducible(links):
            return m_span_dict(k, l, [x[:k] for x in links], [x[k:] for x in links])


def load_span(d):
    return (span_c.SpanC if d["model"] == "c" else span_m.SpanM).from_dict(d)


def run_cli(argv, stdin=""):
    """cli.main in-process, with standard streams swapped for buffers."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _cli_check(parse_output):
    def check(out):
        rc, stdout, stderr = out
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[:200]}"
        try:
            parse_output(stdout)
        except ValueError as exc:
            return f"unparsable output {stdout[:80]!r}: {exc}"
        return None

    return check


def _json_lines(text):
    for line in text.splitlines():
        json.loads(line)


def _sync_sample(layers, model, rng):
    """A deeper check of one composition step inside a short term."""
    if len(layers) < 2:
        return None
    k = rng.randint(1, len(layers) - 1)
    left, right = term_text(layers[:k], rng), term_text(layers[k:], rng)
    if model == "c":
        return lambda out: c_sync_sample(left, right)
    return lambda out: m_basis_sample(evaluate(left, "m"), evaluate(right, "m"), SMALL_BOX)


def _eval_op(rng, model):
    layers, dom, cod = short_term(rng)
    text = term_text(layers, rng)

    def check(out):
        d = out.to_dict()
        if (d["left"], d["right"]) != (dom, cod):
            return f"boundaries {d['left']}->{d['right']}, expected {dom}->{cod}"
        return refs.c_invalid(d) if model == "c" else check_m_value(out, dom, cod)

    return Op(f"eval.{model}", lambda: evaluate(text, model), check, refs.count_atoms(text),
              _sync_sample(layers, model, rng))


def _eq_op(rng):
    layers, _, _ = short_term(rng)
    lhs, rhs = term_text(layers, rng), term_text(layers, rng)
    return Op("eq.c", lambda: terms.check_equation(lhs, rhs, "c"), check_true,
              refs.count_atoms(lhs) + refs.count_atoms(rhs), _sync_sample(layers, "c", rng))


def _decompose_op(rng, model):
    d = random_c_span(rng) if model == "c" else random_m_span(rng)
    s = load_span(d)
    iso = span_c.iso_check if model == "c" else span_m.iso_check

    def check(out):
        if out is None:
            return "no term found"
        return None if iso(terms.eval_term(out, model), s) else "term does not evaluate back to the span"

    return Op(f"decompose.{model}", lambda: decomposition.decompose(s), check)


def _cli_ops(rng):
    model = rng.choice("cm")
    layers, _, _ = short_term(rng)
    eq_layers, _, _ = short_term(rng)
    gen = random_c_span if model == "c" else random_m_span
    mid = rng.randint(0, 2)
    pair = json.dumps([gen(rng, right=mid), gen(rng, left=mid)])
    span = json.dumps(gen(rng))
    eval_argv = ["eval", "-m", model, term_text(layers, rng)]
    eq_argv = ["eq", "-m", model, "--witness", term_text(eq_layers, rng), term_text(eq_layers, rng)]
    return [
        Op("cli.eval", lambda: run_cli(eval_argv), _cli_check(json.loads), refs.count_atoms(eval_argv[-1])),
        Op("cli.eq", lambda: run_cli(eq_argv), _cli_check(_json_lines), refs.count_atoms(" ".join(eq_argv[-2:]))),
        Op("cli.compose", lambda: run_cli(["compose"], pair), _cli_check(json.loads)),
        Op("cli.decompose", lambda: run_cli(["decompose", "-m", model], span), _cli_check(terms.parse)),
    ]


def _law_op(law):
    def check(out):
        return None if out.actual == law.expected else f"verdict {out.actual}, table expects {law.expected}"

    return Op(f"law.{law.label}.{law.model}", lambda: equations.run_law(law), check,
              refs.count_atoms(law.lhs) + (refs.count_atoms(law.rhs) if isinstance(law.rhs, str) else 0))


def small_mixed(seed):
    """Thousands of sub-millisecond ops across both models and the CLI."""
    rng = random.Random(seed)
    table = equations.laws()
    yield []
    while True:
        batch = [_law_op(law) for law in table]
        batch += [_eval_op(rng, model) for model in "cm" for _ in range(8)]
        batch += [_eq_op(rng) for _ in range(8)]
        batch += [_decompose_op(rng, model) for model in "cm" for _ in range(6)]
        batch += [op for _ in range(2) for op in _cli_ops(rng)]
        rng.shuffle(batch)
        yield batch


WORKLOADS = {
    "c-dense": (c_dense, C_DENSE_LIMIT),
    "m-hilbert": (m_hilbert, M_HILBERT_LIMIT),
    "small-mixed": (small_mixed, SMALL_LIMIT),
}

# Ops that fail at this commit, kept out of the timed stream so that a
# run's failures are its regressions.  Each is still attempted once per
# run, under its workload's per-op limit, and reported by name.
DEFECTS = {
    # find_iso recurses once per link and raises RecursionError
    "c-dense": lambda: _flat_chain_ops("J", 1024)[1:],
    # (copy ; join ; split ; merge)^3 does not finish within the per-op limit
    "m-hilbert": lambda: [_m_chain_op("cjsm", 3, "copy ; join ; split ; merge")],
    "small-mixed": lambda: [],
}

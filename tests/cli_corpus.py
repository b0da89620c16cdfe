"""The checked-in command line corpus: a seeded generator and its replay.

Each case in cli_corpus.json is one call of the command line: its argv,
its standard input (text; bytes that are not UTF-8 are kept as surrogate
escapes), and the exit code, stderr and stdout it gave.  Stdout longer
than HASH_ABOVE bytes is kept as its SHA-256, so that the file stays
small.  A call that ends in an uncaught exception is recorded as the
interpreter ends it: exit 1, with the traceback's last line as stderr.

Calls run in process through cli.main, with COLUMNS=80 for argparse's
messages.  tests/test_cli_corpus.py replays every case and compares
bytes.  After an intended change of output, regenerate the file and
read its diff, one case a line:

    PYTHONPATH=src python tests/cli_corpus.py          # rewrite the file
    PYTHONPATH=src python tests/cli_corpus.py --check  # replay only
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import random
import sys
import traceback
from pathlib import Path

from linkalg import cli, span_c

from draws import random_cospan, random_span_c, random_span_m

SEED = 2113
HASH_ABOVE = 2048  # bytes of stdout kept verbatim
CORPUS = Path(__file__).with_name("cli_corpus.json")
ARITY = {name: (g.left, g.right) for name, g in span_c.GENERATORS.items()}
TWINS = {"copy": "split", "split": "copy", "merge": "join", "join": "merge",
         "del": "stop", "stop": "del", "new": "start", "start": "new"}
BLOCKS = {"J": (("join",), ("split",)), "B": (("split", "split"), ("id", "swap", "id"), ("join", "join"))}


def run_case(argv, stdin=None):
    """The case that one in-process call of cli.main gives."""
    saved = sys.stdin, sys.stdout, sys.stderr, os.environ.get("COLUMNS")
    data = (stdin or "").encode("utf-8", "surrogateescape")
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    os.environ["COLUMNS"] = "80"
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    except Exception as exc:
        err.write(traceback.format_exception_only(type(exc), exc)[-1])
        code = 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved[:3]
        if saved[3] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[3]
    case = {"argv": argv, "stdin": stdin, "exit": code, "stderr": err.getvalue()}
    text = out.getvalue()
    if len(text.encode("utf-8")) > HASH_ABOVE:
        case["stdout_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    else:
        case["stdout"] = text
    return case


# ------------------------------------------------------------ term draws

def bracket(items, rng, sep):
    """A random full bracketing of items joined by sep."""
    if len(items) == 1:
        return items[0]
    k = rng.randint(1, len(items) - 1)
    return f"({bracket(items[:k], rng, sep)} {sep} {bracket(items[k:], rng, sep)})"


def random_layers(rng, layers, width):
    """Well-typed layers, each a list of atoms, at most width wires wide."""
    need = rng.randint(1, width)
    out = []
    for _ in range(layers):
        atoms, made = [], 0
        if need == 0:
            atoms.append(rng.choice(["new", "start"]))
            made = 1
        while need:
            fits = [g for g, (i, o) in ARITY.items() if 0 < i <= need and made + o + need - i <= width]
            g = rng.choice(sorted(fits))
            atoms.append(g)
            need, made = need - ARITY[g][0], made + ARITY[g][1]
        out.append(atoms)
        need = made
    return out


def term(layers, rng=None):
    """The text of layers, flat or, given rng, randomly bracketed."""
    if rng is None:
        return " ; ".join(atoms[0] if len(atoms) == 1 else f"({' * '.join(atoms)})" for atoms in layers)
    return bracket([bracket(atoms, rng, "*") for atoms in layers], rng, ";")


def chain(family, links, rng=None):
    """A J or B chain (2 wires), or both side by side (T), of links links."""
    if family == "T":
        half = chain("J", links // 2, rng), chain("B", links // 2, rng)
        return " * ".join(f"({text})" for text in half)
    blocks = links.bit_length() - 2  # a chain of b blocks has 2**(b+1) links
    return term([list(atoms) for _ in range(blocks) for atoms in BLOCKS[family]], rng)


def dump(obj):
    return json.dumps(obj, sort_keys=True)


# ------------------------------------------------------------- the cases

def good_calls(rng):
    """Calls on well-formed input: every subcommand, both models."""
    for model in "cm":
        for name in sorted(ARITY):
            yield ["eval", "-m", model, name], None
        yield ["suite", "-m", model], None
    yield ["suite"], None
    yield ["eval", "-m", "c"], "split ; join"
    yield ["eq", "-m", "m", "copy ; join ; split ; merge", "(copy ; join) ; (split ; merge)"], None
    yield ["eval", "-m", "m", "copy ; join ; split ; merge ; copy ; join ; split ; merge"], None
    for model, layers, width, count in (("c", 5, 4, 40), ("m", 4, 3, 30)):
        for _ in range(count):
            ls = random_layers(rng, rng.randint(1, layers), width)
            flat = term(ls)
            yield ["eval", "-m", model, term(ls, rng)], None
            yield ["eq", "-m", model, "--witness", flat, term(ls, rng)], None
            k = rng.randrange(len(ls))
            j = rng.randrange(len(ls[k]))
            twin = [list(atoms) for atoms in ls]
            twin[k][j] = TWINS.get(twin[k][j], twin[k][j])
            yield ["eq", "-m", model, *rng.sample(["--witness"], rng.randint(0, 1)), flat, term(twin, rng)], None
    for family in "JBT":
        for links in (32, 128, 512):
            flat = chain(family, links)
            yield ["eval", "-m", "c", flat], None
            if links < 512:  # the eq below evaluates a bracketed one
                yield ["eval", "-m", "c", chain(family, links, rng)], None
            yield ["eq", "-m", "c", "--witness", flat, chain(family, links, rng)], None
    for n in (1, 4, 9):
        yield ["eval", "-m", "m", term([["copy"], ["join"]] * n, rng)], None
    for model, draw in (("c", functools.partial(random_span_c, max_boundary=2)), ("m", random_span_m)):
        for _ in range(25):
            s = draw(rng)
            while True:
                t = draw(rng)
                if t.left == s.right:
                    break
            yield ["compose", *["-m", model][:2 * rng.randint(0, 1)]], dump([s.to_dict(), t.to_dict()])
            yield ["decompose", "-m", model], dump(s.to_dict())
    for _ in range(20):
        yield ["embed"], dump(random_cospan(rng).to_dict())


def bad_calls():
    """Calls on malformed input, one or more of each class."""
    # term text: syntax (2), unknown names (2), boundaries (1)
    for text in ("copy ;;", "(copy", "copy )", "", "copy ; é", "frob", "copy * ", "id ; (swap"):
        yield ["eval", "-m", "c", text], None
    yield ["eq", "-m", "m", "copy ;;", "id"], None
    yield ["eval", "-m", "m", "copy ; copy"], None
    yield ["eq", "-m", "c", "copy", "merge"], None
    yield ["eq", "-m", "c", "copy ; merge", "id ;"], None
    yield ["eval", "-m", "c", "(" * 600 + "id" + ")" * 600], None
    # usage: a missing flag
    yield ["eval", "copy"], None
    # JSON: not JSON, empty, too deep, not UTF-8
    for argv in (["compose"], ["decompose", "-m", "c"], ["embed"]):
        yield argv, "{nope"
        yield argv, ""
        yield argv, "[" * 20000 + "]" * 20000
        yield argv, b"\xff\xfe{}".decode("utf-8", "surrogateescape")
    yield ["compose", "no-such-file.json", "-"], None
    # span JSON of the wrong shape (2)
    good_m = {"model": "m", "left": 1, "right": 1, "carrier": 1, "lleg": [[1]], "rleg": [[1]]}
    good_c = span_c.identity_span(1).to_dict()
    for bad in (
        {**good_m, "right": True}, {**good_m, "lleg": [[1.5]]},
        {k: v for k, v in good_m.items() if k != "carrier"}, {**good_m, "carrier": -1},
        {**good_m, "rleg": [[-1]]}, {**good_m, "carrier": 2}, {**good_m, "rleg": [[1, 0]]},
        {**good_m, "lleg": 5}, {**good_c, "left": 1.0},
        {**good_c, "carrier": {"size": True, "contention": []}}, {**good_c, "carrier": {"size": 1}},
        {**good_c, "rleg": [[0], [0]]}, {**good_c, "carrier": {"size": 10**15, "contention": []}},
        {**good_c, "lleg": [[1]]}, {**good_c, "carrier": {"size": 2, "contention": [[0, 2]]}},
        {**good_c, "model": "x"}, [good_c], "span",
    ):
        good = good_c if not isinstance(bad, dict) or bad["model"] == "c" else good_m
        yield ["compose"], dump([good, bad])
        yield ["decompose", "-m", "c" if good is good_c else "m"], dump(bad)
    yield ["compose"], dump([good_m])
    yield ["compose"], dump({"model": "m"})
    # spans that break the arrow or injectivity condition, mixed models,
    # boundaries and model flags that do not match (1)
    bad_c = {"model": "c", "left": 1, "right": 1, "carrier": {"size": 2, "contention": []},
             "lleg": [[0], [0]], "rleg": [[0], [0]]}
    bad_m = {"model": "m", "left": 1, "right": 1, "carrier": 2, "lleg": [[1], [1]], "rleg": [[1], [1]]}
    for bad, good in ((bad_c, good_c), (bad_m, good_m)):
        yield ["compose"], dump([bad, good])
        yield ["compose"], dump([good, bad])
        yield ["decompose", "-m", bad["model"]], dump(bad)
    yield ["compose"], dump([good_c, good_m])
    yield ["compose", "-m", "m"], dump([good_c, good_c])
    copy = span_c.generators()["copy"].to_dict()
    yield ["compose"], dump([copy, copy])
    yield ["decompose", "-m", "c"], dump(good_m)
    yield ["decompose", "-m", "m"], dump(good_c)
    # cospans of the wrong shape (2)
    cospan = {"left": 2, "right": 1, "carrier": 2, "lmap": [0, 1], "rmap": [0]}
    for bad in ({**cospan, "lmap": [0]}, {**cospan, "rmap": [2]}, {**cospan, "carrier": False}, [cospan],
                {k: v for k, v in cospan.items() if k != "rmap"}):
        yield ["embed"], dump(bad)
    # valid shape, too large to build
    yield ["decompose", "-m", "c"], dump({**good_c, "left": 10**15, "carrier": {"size": 0, "contention": []},
                                          "lleg": [], "rleg": []})
    yield ["embed"], dump({"left": 0, "right": 0, "carrier": 10**15, "lmap": [], "rmap": []})
    # a c-set is no span
    yield ["compose"], dump([good_c, good_c["carrier"]])


def build():
    rng = random.Random(SEED)
    calls = [*good_calls(rng), *bad_calls()]
    return [run_case(argv, stdin) for argv, stdin in calls]


def load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def mismatches(cases):
    """The cases that a replay does not reproduce, with what it gave."""
    return [(case, got) for case in cases if (got := run_case(case["argv"], case["stdin"])) != case]


def main(argv):
    if argv == ["--check"]:
        cases = load()
        bad = mismatches(cases)
        for case, got in bad:
            print(case["argv"], got["exit"], got["stderr"].strip()[:200])
        print(f"{len(bad)} of {len(cases)} cases differ")
        return 1 if bad else 0
    cases = build()
    CORPUS.write_text("[\n" + ",\n".join(dump(c) for c in cases) + "\n]\n", encoding="utf-8")
    print(f"{len(cases)} cases, {CORPUS.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

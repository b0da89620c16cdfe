"""Command line front end.

Subcommands: eval, compose, eq, suite, decompose, embed.  Span and
cospan values travel as JSON, read from file arguments or standard
input and written to standard output (or --output).  Span JSON is
validated as it is read.  Exit status 0 is a clean answer (including
"false"), 1 a domain error such as mismatched boundaries or a span that
breaks the arrow or injectivity condition, 2 a parse or input error,
including input that is not UTF-8, JSON nested too deeply for the
decoder, JSON of the wrong shape (see linkalg.shape), and input of
valid shape too large to build in memory (a MemoryError, such as a
boundary of 10**15 ports).
"""

from __future__ import annotations

import argparse
import json
import sys

from .equations import format_results, run_suite
from .decompose import decompose
from .span_c import Cospan, SpanC, embed_cospan
from .shape import SpanFormatError, need
from .span_m import SpanM
from .terms import MODELS, TermSyntaxError, TermTypeError, eval_term, parse, pretty


def _read_text(path):
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except RecursionError:
        raise SpanFormatError("JSON nested too deeply") from None


def _load_span(obj):
    model = need(obj, "model")
    for cls in (SpanC, SpanM):
        if model == cls.MODEL:
            return cls.from_dict(obj)
    raise SpanFormatError('span JSON needs "model": "c" or "m"')


def _emit(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cmd_eval(args):
    text = args.term if args.term is not None else sys.stdin.read()
    value = eval_term(parse(text), args.model)
    _emit(_dump(value.to_dict()), args.output)
    return 0


def _cmd_compose(args):
    if args.inputs:
        if len(args.inputs) != 2:
            raise ValueError("compose takes exactly two span files")
        spans = [_load_span(_load_json(p)) for p in args.inputs]
    else:
        arr = _load_json(None)
        if not isinstance(arr, list) or len(arr) != 2:
            raise SpanFormatError("standard input must hold a JSON array of two spans")
        spans = [_load_span(d) for d in arr]
    s, t = spans
    if type(s) is not type(t):
        raise ValueError("cannot compose spans of different models")
    if args.model is not None and s.MODEL != args.model:
        raise ValueError(f"spans are not model {args.model}")
    out = MODELS[s.MODEL].compose(s, t)
    _emit(_dump(out.to_dict()), args.output)
    return 0


def _cmd_eq(args):
    lhs = parse(args.lhs)
    rhs = parse(args.rhs)
    if (lhs.dom, lhs.cod) != (rhs.dom, rhs.cod):
        raise TermTypeError(
            f"boundary mismatch: {lhs.dom}->{lhs.cod} vs {rhs.dom}->{rhs.cod}"
        )
    a = eval_term(lhs, args.model)
    b = eval_term(rhs, args.model)
    wit = MODELS[args.model].find_iso(a, b)
    lines = ["true" if wit is not None else "false"]
    if args.witness and wit is not None:
        lines.append(_dump(wit))
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_suite(args):
    results = run_suite(args.model)
    bad = sum(1 for r in results if not r.ok)
    lines = format_results(results)
    lines.append(f"{len(results) - bad}/{len(results)} rows as expected")
    _emit("\n".join(lines), args.output)
    return 1 if bad else 0


def _cmd_decompose(args):
    obj = _load_json(args.input)
    s = _load_span(obj)
    if s.MODEL != args.model:
        raise ValueError(f"span is model {s.MODEL}, flag says {args.model}")
    _emit(pretty(decompose(s)), args.output)
    return 0


def _cmd_embed(args):
    cos = Cospan.from_dict(_load_json(args.input))
    _emit(_dump(embed_cospan(cos).to_dict()), args.output)
    return 0


def _parser():
    ap = argparse.ArgumentParser(
        prog="linkalg",
        description="Evaluate, compose, compare and factor linking spans.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_model(p, required):
        p.add_argument(
            "-m",
            "--model",
            choices=("c", "m"),
            required=required,
            default=None,
            help="span model: c (contention) or m (multiplicities)",
        )

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("eval", help="evaluate a term to a JSON span")
    add_model(p, True)
    p.add_argument("term", nargs="?", help="term text (default: read stdin)")
    add_output(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("compose", help="compose two JSON spans")
    add_model(p, False)
    p.add_argument("inputs", nargs="*", help="two span files (default: JSON array on stdin)")
    add_output(p)
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("eq", help="compare two terms up to isomorphism")
    add_model(p, True)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--witness", action="store_true", help="also print the carrier bijection")
    add_output(p)
    p.set_defaults(fn=_cmd_eq)

    p = sub.add_parser("suite", help="run the equation table")
    add_model(p, False)
    add_output(p)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("decompose", help="factor a JSON span into generators")
    add_model(p, True)
    p.add_argument("input", nargs="?", help="span file (default: stdin)")
    add_output(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("embed", help="turn a JSON cospan into its model-c span")
    p.add_argument("input", nargs="?", help="cospan file (default: stdin)")
    add_output(p)
    p.set_defaults(fn=_cmd_embed)

    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except TermSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError, OSError, SpanFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large to build in memory", file=sys.stderr)
        return 2
    except (TermTypeError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

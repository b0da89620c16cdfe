"""Linking diagrams as spans of relations, in two flavours.

Model c tracks which links may not coexist (contention), model m tracks
how many times a link uses each boundary port (multiplicities).  Both
models compose by synchronising the shared boundary, carry the same ten
generators, and disagree on exactly the laws the equation table says
they do.
"""

from .contention import (
    CSet,
    coproduct,
    discrete,
    full,
    indep_subsets,
    is_independent,
    powerset_contention,
)
# The validating factories crel, span_c and span_m stay in their
# modules; re-exporting them here would shadow the submodules of the
# same name on the package object.
from .crel import CRel, CheckResult, compose as compose_crel, graph, identity, lift, op_graph, validate
from .sync_c import SyncC, is_sync, mediator, min_syncs, pullback
from .span_c import (
    Cospan,
    SpanC,
    compose_cospans,
    cospan_iso,
    embed_cospan,
    generators,
    identity_span,
)
from .span_c import compose as compose_c, tensor as tensor_c, iso_check as iso_check_c, find_iso
from .multiset import MRel, compose_m as compose_mrel, identity_m, lift_m
from .sync_m import SyncM, is_msync, min_msyncs, minimal_decomposition, weak_pullback
from .span_m import SpanM, forget_contention, generators_m, identity_span_m
from .span_m import compose as compose_m, tensor as tensor_m, iso_check as iso_check_m
from .terms import (
    Atom,
    Seq,
    Ten,
    TermSyntaxError,
    TermTypeError,
    check_equation,
    eval_term,
    parse,
    pretty,
)
from .equations import Law, LawResult, format_results, laws, run_suite
from .decompose import decompose

__version__ = "0.1.0"

__all__ = [
    "CSet", "coproduct", "discrete", "full", "indep_subsets", "is_independent",
    "powerset_contention",
    "CRel", "CheckResult", "compose_crel", "graph", "identity", "lift",
    "op_graph", "validate",
    "SyncC", "is_sync", "mediator", "min_syncs", "pullback",
    "SpanC", "Cospan", "compose_cospans", "cospan_iso", "embed_cospan",
    "generators", "identity_span", "compose_c", "tensor_c",
    "iso_check_c", "find_iso",
    "MRel", "compose_mrel", "identity_m", "lift_m",
    "SyncM", "is_msync", "min_msyncs", "minimal_decomposition", "weak_pullback",
    "SpanM", "forget_contention", "generators_m", "identity_span_m", "compose_m",
    "tensor_m", "iso_check_m",
    "Atom", "Seq", "Ten", "TermSyntaxError", "TermTypeError", "check_equation",
    "eval_term", "parse", "pretty",
    "Law", "LawResult", "format_results", "laws", "run_suite",
    "decompose",
    "__version__",
]

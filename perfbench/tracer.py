"""Per-layer spans, recorded from outside the library.

``Tracer.install`` rebinds each traced function, under every name any
linkalg module holds it by (``span_c.min_sync_masks`` beside
``sync_c.min_sync_masks``), to a wrapper that records a span: layer,
start, end, parent span and the op it belongs to.  Classes are traced
through their ``__init__``.  Spans are recorded only while an op runs,
so building inputs and checking outputs leave no trace.

A layer's self time is its spans' duration minus the time their child
spans cover.  Some layers also count the size of what they produce.
"""

from __future__ import annotations

import csv
import importlib
import sys
from time import perf_counter

from linkalg import terms

import refs

TRACED = (
    ("contention", "CSet"),
    ("crel", "CRel"),
    ("crel", "validate"),
    ("sync_c", "min_sync_masks"),
    ("sync_c", "sync_space"),
    ("span_c", "compose"),
    ("span_c", "tensor"),
    ("span_c", "find_iso"),
    ("span_c", "generators"),
    ("span_m", "generators_m"),
    ("terms", "parse"),
    ("terms", "eval_term"),
    ("equations", "run_law"),
    ("cli", "main"),
    ("multiset", "lift_m"),
    ("sync_m", "min_msync_vectors"),
    ("span_m", "compose"),
    ("span_m", "factorise"),
    ("span_m", "tensor"),
    ("span_m", "iso_check"),
    ("decompose", "decompose"),
)


def _atoms(term):
    return 0 if term is None else refs.count_atoms(terms.pretty(term))


# layer -> (counter, size of the work from (args, result)); for a class
# args[0] is the new instance
COUNTERS = {
    "contention.CSet": ("pairs", lambda args, out: len(args[0].contention)),
    "sync_c.min_sync_masks": ("out_pairs", lambda args, out: len(out)),
    "sync_c.sync_space": ("pair_tests", lambda args, out: len(args[2]) * (len(args[2]) - 1) // 2),
    "span_c.compose": ("out_links", lambda args, out: out.carrier.size),
    "sync_m.min_msync_vectors": ("out_basis", lambda args, out: len(out)),
    "span_m.compose": ("out_links", lambda args, out: out.carrier),
    "decompose.decompose": ("out_atoms", lambda args, out: _atoms(out)),
}

LAYERS = tuple(f"{mod}.{name}" for mod, name in TRACED)


class Tracer:
    def __init__(self, max_kept=200_000):
        n = len(LAYERS)
        self.calls, self.self_s, self.errors, self.counts = [0] * n, [0.0] * n, [0] * n, [0] * n
        self.stack = []  # (span id, [time covered by children]) of open spans
        self.spans = []  # (id, parent, op, layer, start, end, count), the first max_kept
        self.max_kept = max_kept
        self.next_id = 0
        self.op = None  # index of the running op; None records nothing
        self.origin = perf_counter()

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "linkalg" or name.startswith("linkalg.")]
        for idx, (mod, name) in enumerate(TRACED):
            target = getattr(importlib.import_module(f"linkalg.{mod}"), name)
            counter = COUNTERS.get(LAYERS[idx], (None, None))[1]
            if isinstance(target, type):
                target.__init__ = self._wrap(idx, target.__init__, counter)
                continue
            wrapper = self._wrap(idx, target, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, key, wrapper)

    def begin_op(self, index):
        self.stack.clear()
        self.op = index

    def end_op(self):
        self.op = None
        self.stack.clear()  # a timeout can leave spans open

    def _wrap(self, idx, fn, counter):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else -1
            children = [0.0]
            self.stack.append((sid, children))
            ok = False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = perf_counter()
                self.stack.pop()
                self.calls[idx] += 1
                self.self_s[idx] += end - start - children[0]
                count = -1
                if not ok:
                    self.errors[idx] += 1
                elif counter is not None:
                    count = counter(args, out)
                    self.counts[idx] += count
                if self.stack:
                    # counting is nobody's work: hide it from the parent too
                    self.stack[-1][1][0] += perf_counter() - start
                if len(self.spans) < self.max_kept:
                    self.spans.append((sid, parent, self.op, idx, start - self.origin, end - self.origin, count))

        return traced

    def metrics(self):
        out = {}
        for idx, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (self.calls[idx], "count")
            out[f"{layer}.self_s"] = (self.self_s[idx], "s")
            out[f"{layer}.errors"] = (self.errors[idx], "count")
            if layer in COUNTERS:
                out[f"{layer}.{COUNTERS[layer][0]}"] = (self.counts[idx], "count")
        return out

    def write(self, path):
        """The kept spans as CSV; times in seconds from the tracer's start."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "parent", "op", "layer", "start_s", "end_s", "count"])
            for sid, parent, op, idx, start, end, count in self.spans:
                w.writerow([sid, parent, op, LAYERS[idx], f"{start:.9f}", f"{end:.9f}", "" if count < 0 else count])
        return len(self.spans), self.next_id

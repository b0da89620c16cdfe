"""linkalg benchmark: one workload per run, checked, end-to-end or traced.

    python3 perfbench/run.py --workload c-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                # every workload, a table of metrics
    python3 perfbench/run.py --trace 1      # every workload, per-layer metrics

Run it from anywhere inside a checkout; it imports linkalg from the
checkout's ``src``.  One caller issues ops in a closed loop, the next op
after the previous one returns, until the ops have been busy for
``--seconds`` (rounded up to a whole batch, see workloads.py).  Output
checks and input generation happen between ops, outside the timed call.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics.  With ``--trace 1`` the same ops run twice,
untraced and then traced, and the metrics are the per-layer ones plus
the tracing overhead.  Per-op records and trace spans go to
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# the keys of workloads.WORKLOADS, which can be imported only once src is on the path
WORKLOAD_NAMES = ("c-dense", "m-hilbert", "small-mixed")
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SAMPLE_EVERY = 4  # every fourth op that succeeds also gets the deeper check
SETUP_PROBES = 7
MEMORY_CAP = 3 << 30  # address space of the workload process, bytes

SETUP_PROBE = """\
import sys
from time import perf_counter
sys.path.insert(0, {src!r})
t0 = perf_counter()
import linkalg
from linkalg import span_c, span_m
span_c.generators()
span_m.generators_m()
print(perf_counter() - t0)
"""


class OpTimeout(BaseException):
    """Raised inside a running op when it reaches its limit.

    A BaseException, so that no ``except Exception`` in the library
    can swallow it.
    """


class Deadline:
    """A per-op time limit on SIGALRM that fires at most once per arming."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def arm(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure_setup():
    """Median time to import linkalg and build both generator sets, each
    in a fresh interpreter.  The first probe only warms the bytecode cache."""
    code = SETUP_PROBE.format(src=SRC)
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


class Tally:
    """What a pass keeps of its ops.  Per-op records go straight to a
    file; only latency and outcome stay in memory, nine bytes an op, so
    that peak RSS stays the program's."""

    SIZES = ("links_out", "atoms", "basis", "syncs")

    def __init__(self, path=None):
        self.latency = array("d")
        self.ok = bytearray()
        self.failures = []  # (index, op name, latency, reason)
        self.wrong = 0
        self.sizes = {key: [0, 0, 0] for key in self.SIZES}  # ops, total, max
        self.path = path

    def add(self, rec, fh):
        self.latency.append(rec["latency_s"])
        self.ok.append(rec["error"] is None)
        if rec["error"] is not None:
            self.failures.append((rec["i"], rec["op"], rec["latency_s"], rec["error"]))
        self.wrong += "wrong" in rec
        for key, agg in self.sizes.items():
            if key in rec:
                agg[0] += 1
                agg[1] += rec[key]
                agg[2] = max(agg[2], rec[key])
        if fh:
            fh.write(json.dumps(rec) + "\n")


def run_ops(batches, seconds, limit, tally, tracer=None, n_batches=None, check=True):
    """Run whole batches until busy for `seconds` (or for `n_batches`).

    Returns the number of batches run.  Every exception, timeout and
    wrong output is a failure of its op.
    """
    deadline = Deadline()
    busy = 0.0
    done = 0
    with open(tally.path, "w", encoding="utf-8") if tally.path else contextlib.nullcontext() as fh:
        for batch in batches:
            for op in batch:
                index = len(tally.ok)
                out, error = None, None
                if tracer:
                    tracer.begin_op(index)
                t0 = perf_counter()
                try:
                    try:
                        deadline.arm(limit)
                        out = op.run()
                    finally:
                        deadline.disarm()
                except OpTimeout:
                    error = f"timeout after {limit} s"
                except Exception as exc:  # an op boundary: record the failure and go on
                    error = f"{type(exc).__name__}: {str(exc)[:200]}"
                latency = perf_counter() - t0
                if tracer:
                    tracer.end_op()
                busy += latency
                rec = {"i": index, "op": op.name, "latency_s": latency, "atoms": op.atoms, "error": error}
                if error is None:
                    if hasattr(out, "carrier"):
                        rec["links_out"] = workloads.links_out(out)
                    if check:
                        wrong = op.check(out)
                        if wrong is None and op.sample and index % SAMPLE_EVERY == 0:
                            wrong, sizes = op.sample(out)
                            rec.update(sizes)
                        if wrong is not None:
                            rec["error"] = rec["wrong"] = wrong
                tally.add(rec, fh)
                del out
            done += 1
            if n_batches is None and busy >= seconds and len(tally.ok) >= MIN_OPS:
                break
            if n_batches is not None and done >= n_batches:
                break
    return done


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarise(tally, limit):
    ok = sum(tally.ok)
    # a failed op counts as missing any limit: it sorts at the per-op limit,
    # above every op that finished
    lat = sorted(t if good else limit for t, good in zip(tally.latency, tally.ok))
    return {
        "ops_per_s": (ok / sum(tally.latency), "1/s"),
        "latency_p50_ms": (1000 * percentile(lat, 0.5), "ms"),
        "latency_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (ok / len(tally.ok), "ratio"),
    }


def describe(tally, label):
    """Human-readable lines: failures by op, and output sizes beside times."""
    lines = [f"# {label}: {len(tally.ok)} ops, busy {sum(tally.latency):.3f} s, per-op records in {tally.path}"]
    for index, name, latency, reason in tally.failures:
        lines.append(f"# failed op {index} {name} after {latency:.3f} s: {reason}")
    for key, (n, total, most) in tally.sizes.items():
        if n:
            lines.append(f"# {key}: {n} ops, mean {total / n:.1f}, max {most}, total {total}")
    return lines


def run_workload(args):
    make, limit = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (measure_setup(), "s")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))

    tally = Tally(stem + "-ops.jsonl")
    n_batches = run_ops(make(args.seed), args.seconds, limit, tally)
    lines = describe(tally, f"{args.workload} seed {args.seed}, {n_batches} batches")
    # read before the defect probe, so that its memory stays out of peak_rss_mb
    summary = summarise(tally, limit)
    defects = Tally(stem + "-defects.jsonl")
    run_ops([workloads.DEFECTS[args.workload]()], 0, limit, defects, n_batches=1)
    lines += [f"# known defect {name} after {latency:.3f} s: {reason}" for _, name, latency, reason in defects.failures]
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
        traced = Tally()
        run_ops(make(args.seed), args.seconds, limit, traced, tracer, n_batches, check=False)
        kept, total = tracer.write(stem + "-spans.csv")
        lines.append(f"# traced pass: {total} spans, first {kept} written to {stem}-spans.csv")
        untraced_rate = summary["ops_per_s"][0]
        traced_rate = summarise(traced, limit)["ops_per_s"][0]
        metrics.update(tracer.metrics())
        metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
        metrics["known_defects.failed"] = (len(defects.failures), "count")
    else:
        metrics.update(summary)
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.wrong == 0 and defects.wrong == 0,
        "attempted": len(tally.ok),
        "failed": len(tally.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own fresh process; one table of every metric."""
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for line in done.stdout.splitlines()[:-1]:
            if line.startswith(("# failed", "# known defect")):
                print("  " + line[2:])
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all, one table)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "linkalg")):
        print(f"error: no linkalg sources under {SRC}; run from a linkalg checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    sys.path.insert(0, SRC)
    global tracer_mod, workloads
    import tracer as tracer_mod
    import workloads

    if args.workload is None:
        run_all(args)
    else:
        run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

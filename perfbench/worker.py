"""One fresh workload process of the benchmark.

run.py starts it as

    python3 perfbench/worker.py <mode> <workdir> <workload> [<seconds>]

with the checkout's `src` on PYTHONPATH and one thread per numeric
library. `workdir` holds the inputs run.py wrote. Modes:

  setup  set up once and print the monotonic clock when ready
  run    filter calls with tracing off for `seconds`
  trace  untraced passes for `seconds / 2`, one traced pass, a CLI parity check

Set-up is what a `pimfilter filter` process does before its first call:
import pimfilter, parse the reference FASTA and plan the kernel layout.
A filter call is the CLI's pipeline on one candidate file:
io.parse_candidates, then genome.run_filter with the oracle check, then
io.emit_results. `run` and `trace` write their result to
<workdir>/result.json.
"""

from __future__ import annotations

import hashlib
import io as textio
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import Tracer, percentile, self_times, top_level_seconds
from workloads import WORKLOADS, call_path, read_truth

MODEL_ARRAYS = 500_000  # arrays in the paper's headline latency figure
SPEED_PERIOD_S = 0.05   # how often HostSpeed times its snippet
SPEED_MARGIN_S = 1.0    # snippet samples this close to an interval count for it
REFERENCE_SNIPPET_S = 90e-6  # the snippet's time on an idle core (2-vCPU Xeon VM)


def speed_snippet(cells=np.zeros((128, 256), dtype=np.uint8)):
    """A fixed mix of interpreter and numpy scalar work, like the executor's."""
    acc = 0
    for i in range(300):
        row = cells[i & 127]
        acc += int(row[i & 255]) | (i & 1)
    return acc


class HostSpeed:
    """Samples the host's speed while a measurement runs.

    The cores this benchmark runs on are shared with other machines, and
    their speed drifts by up to 2x over tens of seconds. Every
    SPEED_PERIOD_S a SIGALRM handler times speed_snippet. A host time
    multiplied by scale() over the same interval is the time it would
    have taken at reference speed, where the snippet takes
    REFERENCE_SNIPPET_S; that figure does not drift with the host.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at start, snippet seconds)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        start = time.perf_counter()
        speed_snippet()
        self.samples.append((start, time.perf_counter() - start))

    def scale(self, start, end):
        """Reference-speed factor for the interval [start, end]."""
        near = [d for t, d in self.samples
                if start - SPEED_MARGIN_S <= t <= end + SPEED_MARGIN_S]
        return REFERENCE_SNIPPET_S / statistics.fmean(near or [d for _, d in self.samples])

    def scaled(self, intervals):
        return [(end - start) * self.scale(start, end) for start, end in intervals]


def setup(workdir, w):
    from pimfilter import io, kernel
    with open(Path(workdir) / "genome.fa") as fh:
        fasta = io.parse_fasta(fh)
    kernel.plan_layout(w.read_length)
    return fasta


def filter_call(fasta, text, w):
    """The `pimfilter filter --verify-oracle` pipeline on one candidate file."""
    from pimfilter import genome, io
    candidates = io.parse_candidates(textio.StringIO(text), w.read_length)
    run = genome.run_filter(fasta.seq, candidates, w.eth, read_length=w.read_length,
                            iter_factor=w.iter_factor, strict=w.strict,
                            verify_oracle=True)
    out = textio.StringIO()
    io.emit_results(run.decisions, run.stats, out)
    return run, out.getvalue()


class Calls:
    """Runs the workload's calls in order, timing and checking each one.

    A failure is counted per candidate: an oracle mismatch, a read at its
    true position within the edit threshold that was discarded, every
    candidate of a call that raised, and every candidate of a call whose
    output differs from the same call earlier in the process.
    """

    def __init__(self, workdir, w):
        self.w = w
        self.texts = [call_path(workdir, c).read_text() for c in range(w.calls)]
        self.sizes = [sum(1 for line in t.splitlines() if line and line[0] != "#")
                      for t in self.texts]
        self.truth = read_truth(workdir)
        self.first = [None] * w.calls  # (sha256, output) of each call's first run
        self.pass_hash = hashlib.sha256()
        self.pass_stats = Counter()
        self.intervals = []  # (start, end) of each call that returned
        self.attempted = 0
        self.failures = Counter()
        self.done = 0

    def call(self, fasta):
        k = self.done % self.w.calls
        n = self.sizes[k]
        self.attempted += n
        self.done += 1
        start = time.perf_counter()
        try:
            run, out = filter_call(fasta, self.texts[k], self.w)
        except Exception:
            traceback.print_exc()
            self.failures["raised"] += n
            return
        self.intervals.append((start, time.perf_counter()))

        self.failures["oracle"] += run.stats.oracle_mismatches
        self.failures["unsound"] += self.unsound(run.decisions)
        sha = hashlib.sha256(out.encode()).hexdigest()
        if self.first[k] is None:
            self.first[k] = (sha, out)
            self.pass_hash.update(out.encode())
            s = run.stats
            self.pass_stats.update(
                queued=s.queued, processed=s.processed, discarded=s.discarded,
                passthrough=s.passthrough, compute_cycles=s.compute_cycles,
                init_cycles=s.init_cycles)
        elif sha != self.first[k][0]:
            self.failures["drift"] += n

    def unsound(self, decisions):
        count = 0
        for d in decisions:
            truth = self.truth.get(d.read_id)
            if (d.verdict == "discard" and truth is not None
                    and truth[0] == d.position and truth[1] <= self.w.eth):
                count += 1
        return count

    def run_pass(self, fasta, tracer=None):
        for _ in range(self.w.calls):
            if tracer is not None:
                tracer.call_id = self.done
            self.call(fasta)

    def pin(self):
        """Exact statistics of the first pass over the workload's calls."""
        return {"compute_cycles": self.pass_stats["compute_cycles"],
                "init_cycles": self.pass_stats["init_cycles"],
                "sha256": self.pass_hash.hexdigest()}


def cli_parity(workdir, w, expected):
    """Whether `pimfilter filter` emits byte-identical results for call 0."""
    from pimfilter import cli
    out = Path(workdir) / "cli-results.tsv"
    code = cli.main(["filter", "--genome", str(Path(workdir) / "genome.fa"),
                     "--candidates", str(call_path(workdir, 0)),
                     "--out", str(out)] + w.cli_args())
    return code == 0 and out.read_text() == expected


def mode_run(workdir, w, seconds):
    fasta = setup(workdir, w)
    calls = Calls(workdir, w)
    with HostSpeed() as speed:
        start = time.perf_counter()
        while calls.done < w.calls or time.perf_counter() - start < seconds:
            calls.call(fasta)
        elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from pimfilter import perf
    p = calls.pass_stats
    modeled = 0.0
    if p["processed"]:
        total_per_location = (p["compute_cycles"] + p["init_cycles"]) / p["processed"]
        modeled, _ = perf.total_latency(
            perf.PerfParams(cycles_per_iteration=total_per_location), MODEL_ARRAYS)
    scaled = speed.scaled(calls.intervals)
    whole_passes = range(0, len(scaled) - w.calls + 1, w.calls)
    return {"samples": [end - start for start, end in calls.intervals],
            "scaled": scaled, "elapsed_s": elapsed,
            "pass_s": [sum(scaled[i:i + w.calls]) for i in whole_passes],
            "speed": speed.scale(0, float("inf")),
            "located": calls.attempted - calls.failures["raised"],
            "attempted": calls.attempted, "failures": dict(calls.failures),
            "pass": dict(p), "modeled_total_s": modeled, "pin": calls.pin(),
            "peak_rss_mb": peak_rss_mb}


def trace_targets():
    """Module attributes to wrap, under the names of the modules that define them.

    Each is the attribute its caller looks up at call time: run_filter
    calls route, schedule, load_tile and run_kernel through the genome
    namespace and histogram and decide through oracle's; run_kernel calls
    build_program and execute, and build_program calls emit_popcount and
    emit_adder, through the kernel namespace.
    """
    from pimfilter import genome, io, kernel, oracle

    def stats_attrs(args, kwargs, run):
        s = run.stats
        return {"waves": s.waves, "passthrough": s.passthrough,
                "mismatches": s.oracle_mismatches}

    def kernel_attrs(args, kwargs, res):
        return {"steps": {k: [v.compute, v.init] for k, v in res.steps.items()},
                "compute": res.compute_cycles, "init": res.init_cycles}

    def execute_attrs(args, kwargs, res):
        return {"microops": len(args[0].ops), "compute": res.compute_cycles,
                "init": res.init_cycles}

    return [
        ("io.parse_fasta", io, "parse_fasta", None),
        ("io.parse_candidates", io, "parse_candidates",
         lambda a, k, r: {"candidates": len(r)}),
        ("io.emit_results", io, "emit_results", None),
        ("genome.run_filter", genome, "run_filter", stats_attrs),
        ("genome.route", genome, "route", None),
        ("genome.schedule", genome, "schedule",
         lambda a, k, r: {"queue_max": max(a[0], default=0)}),
        ("genome.load_tile", genome, "load_tile", None),
        ("kernel.run_kernel", genome, "run_kernel", kernel_attrs),
        ("kernel.build_program", kernel, "build_program", None),
        ("gates.emit_popcount", kernel, "emit_popcount", None),
        ("gates.emit_adder", kernel, "emit_adder", None),
        ("crossbar.execute", kernel, "execute", execute_attrs),
        ("oracle.histogram", oracle, "histogram", None),
        ("oracle.decide", oracle, "decide", None),
    ]


def step_table(kernel_attrs):
    """Per step label: compute max and mean, init max, budget and slack."""
    from pimfilter.kernel import STEP_BUDGETS, STEP_LABELS
    rows = {}
    for label in STEP_LABELS:
        compute = [a["steps"].get(label, [0, 0])[0] for a in kernel_attrs]
        init = [a["steps"].get(label, [0, 0])[1] for a in kernel_attrs]
        rows[label] = {"compute_max": max(compute, default=0),
                       "compute_mean": statistics.fmean(compute) if compute else 0.0,
                       "init_max": max(init, default=0),
                       "budget": STEP_BUDGETS[label],
                       "slack": STEP_BUDGETS[label] - max(compute, default=0)}
    return rows


def budget_violations(kernel_attrs):
    """Locations whose steps or totals exceed the kernel's cycle budgets."""
    from pimfilter.kernel import COMPUTE_BUDGET, STEP_BUDGETS, TOTAL_BUDGET
    return sum(
        1 for a in kernel_attrs
        if a["compute"] > COMPUTE_BUDGET or a["compute"] + a["init"] > TOTAL_BUDGET
        or any(a["steps"].get(k, [0])[0] > b for k, b in STEP_BUDGETS.items()))


def layer_metrics(spans, wall, overhead):
    """Per-layer metrics of one traced pass, with the units they are given in."""
    st = self_times(spans)

    def self_s(name):
        return st.get(name, (0.0, 0.0, 0))[0]

    def count(name):
        return st.get(name, (0.0, 0.0, 0))[2]

    def attrs(name):
        return [s["attrs"] for s in spans if s["name"] == name]

    runs, execs, kernels = attrs("genome.run_filter"), attrs("crossbar.execute"), attrs("kernel.run_kernel")
    kernel_us = [(s["end"] - s["start"]) * 1e6 for s in spans if s["name"] == "kernel.run_kernel"]
    microops = sum(a["microops"] for a in execs)
    m = {
        "io.parse_fasta_s": (self_s("io.parse_fasta"), "s"),
        "io.parse_candidates_s": (self_s("io.parse_candidates"), "s"),
        "io.emit_results_s": (self_s("io.emit_results"), "s"),
        "io.candidates": (sum(a["candidates"] for a in attrs("io.parse_candidates")), "count"),
        "genome.run_filter_self_s": (self_s("genome.run_filter"), "s"),
        "genome.route_s": (self_s("genome.route"), "s"),
        "genome.schedule_s": (self_s("genome.schedule"), "s"),
        "genome.load_tile_s": (self_s("genome.load_tile"), "s"),
        "genome.tiles_loaded": (count("genome.load_tile"), "count"),
        "genome.waves": (sum(a["waves"] for a in runs), "count"),
        "genome.queue_max": (max((a["queue_max"] for a in attrs("genome.schedule")), default=0), "count"),
        "genome.passthrough": (sum(a["passthrough"] for a in runs), "count"),
        "kernel.run_kernel_self_s": (self_s("kernel.run_kernel"), "s"),
        "kernel.build_program_s": (self_s("kernel.build_program"), "s"),
        "kernel.template_builds": (count("kernel.build_program"), "count"),
        "kernel.template_hit_ratio": (
            1 - count("kernel.build_program") / len(kernels) if kernels else 0.0, "ratio"),
        "kernel.run_kernel_us_p50": (percentile(kernel_us, 50), "us"),
        "kernel.run_kernel_us_p99": (percentile(kernel_us, 99), "us"),
    }
    table = step_table(kernels)
    for label, row in table.items():
        m[f"kernel.step.{label}.compute_max"] = (row["compute_max"], "cycles")
        m[f"kernel.step.{label}.compute_mean"] = (row["compute_mean"], "cycles")
        m[f"kernel.step.{label}.init_max"] = (row["init_max"], "cycles")
    m["kernel.budget_slack_min"] = (min(r["slack"] for r in table.values()), "cycles")
    m["kernel.over_budget_locations"] = (budget_violations(kernels), "count")
    m["gates.emit_s"] = (self_s("gates.emit_popcount") + self_s("gates.emit_adder"), "s")
    m["crossbar.execute_s"] = (self_s("crossbar.execute"), "s")
    m["crossbar.execute_calls"] = (len(execs), "count")
    m["crossbar.microops"] = (microops, "count")
    m["crossbar.ns_per_microop"] = (
        self_s("crossbar.execute") / microops * 1e9 if microops else 0.0, "ns")
    m["crossbar.compute_cycles"] = (sum(a["compute"] for a in execs), "cycles")
    m["crossbar.init_cycles"] = (sum(a["init"] for a in execs), "cycles")
    m["oracle.histogram_s"] = (self_s("oracle.histogram"), "s")
    m["oracle.decide_s"] = (self_s("oracle.decide"), "s")
    m["oracle.decide_calls"] = (count("oracle.decide"), "count")
    m["oracle.mismatches"] = (sum(a["mismatches"] for a in runs), "count")
    remainder = wall - top_level_seconds(spans)
    m["trace.wall_s"] = (wall, "s")
    m["trace.remainder_s"] = (remainder, "s")
    m["trace_overhead_pct"] = (overhead * 100, "%")

    accounted = sum(v[0] for v in st.values()) + remainder
    consistent = (remainder >= 0 and all(v[0] >= -1e-9 for v in st.values())
                  and abs(accounted - wall) <= 1e-6 * max(wall, 1.0))
    pin = {"microops": microops,
           "step_max": {k: [r["compute_max"], r["init_max"]] for k, r in table.items()}}
    return m, table, consistent, pin


def mode_trace(workdir, w, seconds):
    """Untraced passes, then one traced pass; both include set-up.

    The tracing overhead compares the traced pass with the median
    untraced one, both at reference speed.
    """
    calls = Calls(workdir, w)
    targets = trace_targets()
    originals = [(module, attr, getattr(module, attr)) for _, module, attr, _ in targets]
    tracer = Tracer(targets)
    untraced = []
    with HostSpeed() as speed:
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < seconds / 2:
            t = time.perf_counter()
            calls.run_pass(setup(workdir, w))
            untraced.append((t, time.perf_counter()))
        with tracer:
            t = time.perf_counter()
            calls.run_pass(setup(workdir, w), tracer)
            traced = (t, time.perf_counter())
    wall = traced[1] - traced[0]
    overhead = speed.scaled([traced])[0] / statistics.median(speed.scaled(untraced)) - 1
    restored = all(getattr(module, attr) is fn for module, attr, fn in originals)
    if calls.first[0] is not None and not cli_parity(workdir, w, calls.first[0][1]):
        calls.failures["parity"] += calls.sizes[0]
    spans = tracer.all_spans()
    tracer.write(Path(workdir) / "spans.jsonl")

    metrics, table, consistent, pin = layer_metrics(spans, wall, overhead)
    failures = Counter(calls.failures)
    failures["trace_accounting"] += 0 if consistent else 1
    failures["not_restored"] += 0 if restored else 1
    return {"metrics": metrics, "step_table": table,
            "untraced_walls": [end - start for start, end in untraced],
            "attempted": calls.attempted, "failures": dict(failures),
            "pin": {**calls.pin(), **pin}}


def main(argv):
    mode, workdir, name = argv[:3]
    w = WORKLOADS[name]
    if mode == "setup":
        setup(workdir, w)
        print(time.monotonic(), flush=True)
        return 0
    seconds = float(argv[3])
    result = mode_run(workdir, w, seconds) if mode == "run" else mode_trace(workdir, w, seconds)
    result["numpy"] = np.__version__
    Path(workdir, "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

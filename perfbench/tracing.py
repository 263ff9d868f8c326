"""Spans around the calls into each pimfilter module, from outside it.

A Tracer replaces module attributes that callers look up at call time
(for example `genome.run_kernel`, which `run_filter` calls through the
`genome` module namespace) with wrappers that record one span per call:
its name, the filter call it belongs to, its parent span, and its start
and end. Spans are kept in memory and written out when the run ends. A
layer's self time is its spans' durations minus the parts covered by
their child spans.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Tracer:
    """Context manager that wraps `targets` and restores them on exit.

    :param targets: (span name, module, attribute, extractor) tuples. The
        extractor, when not None, receives (args, kwargs, result) and
        returns a small dict of counts stored with the span.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = defaultdict(list)  # call id -> [span dict, ...]
        self.call_id = "setup"
        self._originals = []
        self._stack = []
        self._next_id = 0

    def __enter__(self):
        try:
            for name, module, attr, extract in self.targets:
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, extract))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, extract):
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "parent": parent,
                    "start": start, "end": end}
            if extract is not None:
                span["attrs"] = extract(args, kwargs, result)
            self.spans[self.call_id].append(span)
            return result

        return wrapper

    def all_spans(self):
        return [s for spans in self.spans.values() for s in spans]

    def write(self, path):
        with open(path, "w") as fh:
            for call_id, spans in self.spans.items():
                for span in spans:
                    fh.write(json.dumps({"call": call_id, **span}) + "\n")


def self_times(spans):
    """Per span name: (summed self seconds, summed total seconds, count)."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for s in spans:
        dur = s["end"] - s["start"]
        agg = out[s["name"]]
        agg[0] += dur - child_time[s["id"]]
        agg[1] += dur
        agg[2] += 1
    return {name: tuple(v) for name, v in out.items()}


def top_level_seconds(spans):
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def percentile(values, q):
    """The q-th percentile by statistics.quantiles, or the only value."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

"""Tests of the benchmark itself: inputs, tracing, checks and exit rules.

Run from the root of a source checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from tracing import Tracer, self_times, top_level_seconds  # noqa: E402
from workloads import (  # noqa: E402
    HELD_OUT_SEED, PINNED_SEED, TILE_STRIDE, WORKLOADS, generate, read_truth, write_inputs,
)


def small(name, **changes):
    return dataclasses.replace(WORKLOADS[name], **{"per_call": 6, "calls": 1, **changes})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    w = WORKLOADS[name]
    a, b = generate(w, 3), generate(w, 3)
    assert (a.genome, a.calls, a.truth) == (b.genome, b.calls, b.truth)
    assert generate(w, 4).genome != a.genome
    assert len(a.genome) == w.genome_len and len(a.calls) == w.calls
    reads = [c for call in a.calls for c in call]
    assert all(len(call) == w.per_call for call in a.calls)
    assert all(len(read) == w.read_length for _, read, _ in reads)
    assert abs(len(a.truth) - len(reads) / 2) <= 1
    for read_id, (pos, edits) in a.truth.items():
        assert edits <= w.eth
        assert any(r == read_id and p == pos for r, _, p in reads)


def test_skew_puts_its_share_on_hot_tiles():
    w = WORKLOADS["skew-cap"]
    tiles = [p // TILE_STRIDE for call in generate(w, 5).calls for _, _, p in call]
    top = sorted((tiles.count(t) for t in set(tiles)), reverse=True)[:w.hot_tiles]
    assert sum(top) >= w.hot_share * len(tiles)


def test_inputs_round_trip(tmp_path):
    w = small("dense-r100")
    inputs = generate(w, 1)
    write_inputs(inputs, tmp_path)
    assert read_truth(tmp_path) == inputs.truth


def test_tracer_restores_attributes_also_on_error():
    def f(x):
        return g(x) + 1

    def g(x):
        return x * 2

    mod = types.SimpleNamespace(f=f, g=g)
    tracer = Tracer([("m.f", mod, "f", None), ("m.g", mod, "g", lambda a, k, r: {"r": r})])
    with pytest.raises(RuntimeError):
        with tracer:
            assert mod.f is not f and mod.f(3) == 7
            raise RuntimeError
    assert mod.f is f and mod.g is g
    spans = tracer.all_spans()
    assert [s["name"] for s in spans] == ["m.f"]  # f calls its own g, not the wrapper

    with tracer:
        mod.f(mod.g(1))
    assert mod.f is f and mod.g is g
    assert [s["attrs"] for s in tracer.all_spans() if s["name"] == "m.g"] == [{"r": 2}]


def test_pimfilter_attributes_are_restored():
    targets = worker.trace_targets()
    before = [getattr(m, a) for _, m, a, _ in targets]
    with Tracer(targets):
        assert all(getattr(m, a) is not fn for (_, m, a, _), fn in zip(targets, before))
    assert all(getattr(m, a) is fn for (_, m, a, _), fn in zip(targets, before))


def test_self_times_and_remainder_add_up_to_wall():
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 1.0, "end": 5.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.5, "end": 3.0},
        {"id": 2, "name": "c", "parent": 1, "start": 2.0, "end": 2.5},
        {"id": 3, "name": "b", "parent": None, "start": 6.0, "end": 7.0},
    ]
    st = self_times(spans)
    assert st["a"] == (2.5, 4.0, 1)
    assert st["b"] == (2.0, 2.5, 2)
    assert st["c"] == (0.5, 0.5, 1)
    wall = 10.0
    remainder = wall - top_level_seconds(spans)
    assert sum(v[0] for v in st.values()) + remainder == pytest.approx(wall)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_passes_are_correct_in_both_modes(name, tmp_path):
    w = small(name)
    write_inputs(generate(w, PINNED_SEED), tmp_path)
    res = worker.mode_run(tmp_path, w, 0)
    assert not any(res["failures"].values()) and res["attempted"] == w.per_call
    traced = worker.mode_trace(tmp_path, w, 0)
    assert not any(traced["failures"].values())
    m = traced["metrics"]
    assert m["io.candidates"][0] == w.per_call
    assert m["oracle.decide_calls"][0] + m["genome.passthrough"][0] == w.per_call
    assert traced["pin"]["compute_cycles"] == m["crossbar.compute_cycles"][0]
    assert traced["pin"]["sha256"] == res["pin"]["sha256"]


def test_cli_parity_detects_a_difference(tmp_path):
    w = small("dense-r100")
    write_inputs(generate(w, 2), tmp_path)
    res = worker.mode_trace(tmp_path, w, 0)
    assert res["failures"].get("parity", 0) == 0
    assert not worker.cli_parity(tmp_path, w, "read_id\tposition\tverdict\n")


def test_pins_cover_pinned_and_held_out_seeds():
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    for name in WORKLOADS:
        for seed in (PINNED_SEED, HELD_OUT_SEED):
            pin = pins[name][str(seed)]
            assert set(pin) == {"compute_cycles", "init_cycles", "sha256", "microops", "step_max"}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-r100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

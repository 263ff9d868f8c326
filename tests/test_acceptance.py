"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. The randomized criteria are seeded and deterministic.
"""

import itertools
import math
import random

from pimfilter import oracle, perf
from pimfilter.crossbar import CrossbarState, ProgramBuilder, execute
from pimfilter.gates import (
    build_adder,
    build_copy,
    build_half_adder,
    build_mux,
    build_not,
    build_popcount,
    build_subtractor,
)
from pimfilter.genome import run_filter
from pimfilter.io import CandidateRecord, mutate_read, synth_fixture, synth_genome
from pimfilter.kernel import (
    COMPUTE_BUDGET,
    FRAGMENTS_PER_TILE,
    STEP_BUDGETS,
    TOTAL_BUDGET,
    plan_layout,
    run_kernel,
)
from pimfilter.genome import load_tile, partition

from grid import snapshot

EVERY_PAIR = range(FRAGMENTS_PER_TILE)


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def row(width, *starts):
    return [[(0, c) for c in range(s, s + width)] for s in starts]


# ---------------------------------------------------------------------------
# 1. Gate and arithmetic correctness.

def test_criterion_1_gate_and_arithmetic_correctness():
    # NOR truth tables, exhaustive up to three inputs, every row in parallel
    for k in (1, 2, 3):
        patterns = list(itertools.product((0, 1), repeat=k))
        state = CrossbarState()
        for r, bits in enumerate(patterns):
            state.set_bits([(r, c) for c in range(k)], bits)
        pb = ProgramBuilder()
        pb.init((range(len(patterns)), (k,)))
        pb.nor_row(tuple(range(k)), k, range(len(patterns)))
        execute(pb.build(), state)
        for r, bits in enumerate(patterns):
            assert snapshot(state)[r, k] == int(not any(bits))

    # COPY, exhaustive over bit values
    src = [(r, 0) for r in range(4)]
    dst = [(r, 2) for r in range(4)]
    copy = build_copy(src, dst)
    for value in range(16):
        state = CrossbarState()
        state.write_value(src, value)
        execute(copy.program, state)
        assert state.read_value(dst) == value

    # half adder, exhaustive
    cells = [(0, 0), (0, 1), (0, 2), (0, 3)]
    ha = build_half_adder(*cells)
    for a in (0, 1):
        for b in (0, 1):
            state = CrossbarState()
            state.set_bits(cells[:2], [a, b])
            execute(ha.program, state)
            assert state.read_value(cells[2:]) == a + b

    # 4-bit adder / subtractor / mux, exhaustive
    x4, y4 = row(4, 0, 5)
    z4 = [(0, c) for c in range(10, 15)]
    add4, sub4 = build_adder(4, x4, y4, z4), build_subtractor(4, x4, y4, z4)
    mux4 = build_mux(4, x4, y4, (0, 20), z4[:4])
    for xv in range(16):
        for yv in range(16):
            state = CrossbarState()
            state.write_value(x4, xv)
            state.write_value(y4, yv)
            execute(add4.program, state)
            assert state.read_value(z4) == xv + yv
            state = CrossbarState()
            state.write_value(x4, xv)
            state.write_value(y4, yv)
            execute(sub4.program, state)
            assert state.read_value(z4) == (xv - yv) % 32
            for sel in (0, 1):
                state = CrossbarState()
                state.write_value(x4, xv)
                state.write_value(y4, yv)
                state.set_bits([(0, 20)], [sel])
                execute(mux4.program, state)
                assert state.read_value(z4[:4]) == (yv if sel else xv)

    # randomized 8-bit ops and 100-bit popcount, >= 1000 trials each
    rng = random.Random(2024)
    x8, y8 = row(8, 0, 9)
    z8 = [(0, c) for c in range(18, 27)]
    add8, sub8 = build_adder(8, x8, y8, z8), build_subtractor(8, x8, y8, z8)
    mux8 = build_mux(8, x8, y8, (0, 30), z8[:8])
    for _ in range(1000):
        xv, yv, sel = rng.randrange(256), rng.randrange(256), rng.randint(0, 1)
        state = CrossbarState()
        state.write_value(x8, xv)
        state.write_value(y8, yv)
        execute(add8.program, state)
        assert state.read_value(z8) == xv + yv
        state = CrossbarState()
        state.write_value(x8, xv)
        state.write_value(y8, yv)
        execute(sub8.program, state)
        assert state.read_value(z8) == (xv - yv) % 512
        state = CrossbarState()
        state.write_value(x8, xv)
        state.write_value(y8, yv)
        state.set_bits([(0, 30)], [sel])
        execute(mux8.program, state)
        assert state.read_value(z8[:8]) == (yv if sel else xv)

    pop = build_popcount(0, 100)
    cells100 = [(r, 0) for r in range(100)]
    for _ in range(1000):
        bits = [rng.randint(0, 1) for _ in range(100)]
        state = CrossbarState()
        state.set_bits(cells100, bits)
        execute(pop.program, state)
        assert state.read_value(pop.result_cells) == sum(bits)

    report(1, "NOR/COPY/HA exhaustive; 4-bit ops exhaustive; "
              "1000 randomized trials each for 8-bit ops and 100-bit popcount")


# ---------------------------------------------------------------------------
# 2. Compound-op cycle costs.

def test_criterion_2_cycle_costs():
    measured = {}

    def run_and_measure(name, build):
        state = CrossbarState()
        res = execute(build.program, state)
        assert res.compute_cycles == build.compute_cycles, name
        measured[name] = res.compute_cycles

    run_and_measure("NOT", build_not([(r, 0) for r in range(4)],
                                     [(r, 1) for r in range(4)]))
    run_and_measure("COPY", build_copy([(r, 0) for r in range(4)],
                                       [(r, 2) for r in range(4)]))
    run_and_measure("HA", build_half_adder((0, 0), (0, 1), (0, 2), (0, 3)))
    for width in (4, 8):
        x, y = row(width, 0, width + 1)
        z = [(0, c) for c in range(2 * width + 2, 3 * width + 3)]
        run_and_measure(f"ADD{width}", build_adder(width, x, y, z))
        run_and_measure(f"SUB{width}", build_subtractor(width, x, y, z))
        run_and_measure(f"MUX{width}", build_mux(width, x, y, (0, 100), z[:width]))
    pop = build_popcount(0, 100)
    run_and_measure("POPCOUNT100", pop)

    assert measured["NOT"] == 1
    assert measured["COPY"] == 2
    assert measured["HA"] == 5
    for width in (4, 8):
        assert measured[f"ADD{width}"] == 9 * width + 1
        assert measured[f"SUB{width}"] == 9 * width + 1
        assert measured[f"MUX{width}"] == 4 * width
    assert measured["POPCOUNT100"] <= 414

    report(2, f"NOT=1 COPY=2 HA=5 ADD/SUB=9N+1 MUX=4N; "
              f"popcount(100)={measured['POPCOUNT100']} <= 414")


# ---------------------------------------------------------------------------
# 3. Kernel equals the golden model on a synthetic corpus.

def test_criterion_3_kernel_vs_oracle_equivalence():
    rng = random.Random(31)
    genome = synth_genome(100_000, rng)
    total = 0
    for eth in (0, 1, 5, 10):
        candidates = []
        for i in range(2500):
            pos = rng.randint(0, len(genome) - 100)
            if rng.random() < 0.5:
                read = mutate_read(genome[pos:pos + 100],
                                   rng.randint(0, 2 * eth + 2), rng)
            else:
                read = synth_genome(100, rng)
            candidates.append(CandidateRecord(f"e{eth}_{i}", read, pos))
        run = run_filter(genome, candidates, eth, iter_factor=None,
                         verify_oracle=True)
        assert run.stats.passthrough == 0
        assert run.stats.oracle_mismatches == 0, f"eth={eth}"
        total += run.stats.processed
    assert total == 10_000
    report(3, "10^5-base genome, 10^4 candidates over eth in {0,1,5,10}: "
              "100% agreement with the golden model")


# ---------------------------------------------------------------------------
# 4. Soundness: within-threshold reads are never discarded.

def test_criterion_4_soundness():
    eth = 5
    fixture = synth_fixture(genome_len=100_000, reads=1000, decoys_per_read=0,
                            max_edits=eth, seed=47)
    for cand in fixture.candidates:
        window = fixture.genome[cand.position:cand.position + 100]
        assert oracle.within_edits(cand.seq, window, eth)
    run = run_filter(fixture.genome, fixture.candidates, eth, iter_factor=None)
    discards = [d for d in run.decisions if d.verdict == "discard"]
    assert run.stats.processed == 1000
    assert not discards

    rng = random.Random(53)
    for _ in range(10_000):
        n1, n2 = rng.randint(0, 60), rng.randint(0, 60)
        a = synth_genome(n1, rng)
        b = synth_genome(n2, rng)
        err = oracle.base_count_error(oracle.histogram(a), oracle.histogram(b))
        # err <= 2 * edit distance: no alignment within ceil(err / 2) - 1
        assert err == 0 or not oracle.within_edits(a, b, math.ceil(err / 2) - 1)

    report(4, "1000 reads with <= eth edits at their true positions: 0 discards; "
              "count error <= 2 * edit distance on 10^4 random pairs")


# ---------------------------------------------------------------------------
# 5. Kernel cycle budgets.

def test_criterion_5_kernel_cycle_budget():
    layout = plan_layout()
    rng = random.Random(61)
    genome = synth_genome(6600, rng)
    state = CrossbarState()
    load_tile(state, layout, genome, partition(len(genome))[0], eth=5, pairs=EVERY_PAIR)
    worst = {label: 0 for label in STEP_BUDGETS}
    worst_compute = worst_total = 0
    for offset in (0, 1, 37, 99, 100, 123, 3200, 6399, 6400):
        counts = oracle.histogram(synth_genome(100, rng))
        res = run_kernel(state, layout, counts, offset)
        for label, budget in STEP_BUDGETS.items():
            spent = res.steps[label].compute
            assert spent <= budget, f"step {label} at offset {offset}"
            worst[label] = max(worst[label], spent)
        assert res.compute_cycles <= COMPUTE_BUDGET
        assert res.compute_cycles + res.init_cycles <= TOTAL_BUDGET
        worst_compute = max(worst_compute, res.compute_cycles)
        worst_total = max(worst_total, res.compute_cycles + res.init_cycles)
    counts_line = " ".join(f"{label}={worst[label]}/{STEP_BUDGETS[label]}"
                           for label in STEP_BUDGETS)
    report(5, f"per-step compute {counts_line}; "
              f"compute {worst_compute}/{COMPUTE_BUDGET}; "
              f"with init {worst_total}/{TOTAL_BUDGET}")


# ---------------------------------------------------------------------------
# 6. Analytic model headline numbers, 3 significant figures.

def test_criterion_6_analytic_reproduction():
    p = perf.PerfParams()
    comp = perf.compute_latency(p, p.crossbars)
    gb = perf.total_transferred_bytes(p) / perf.GB
    xfer = perf.transfer_latency(p)
    total, speedups = perf.total_latency(p, p.crossbars)
    for value, target in ((comp, 13.8), (gb, 598.0), (xfer, 59.8), (total, 73.6)):
        assert math.isclose(value, target, rel_tol=5e-3), (value, target)
    assert round(speedups.compute) == 160
    assert round(speedups.transfer) == 86
    assert round(speedups.total) == 100
    report(6, f"compute {comp:.3g} s, {gb:.3g} GB, transfer {xfer:.3g} s, "
              f"total {total:.3g} s; speedups {speedups.compute:.0f}x/"
              f"{speedups.transfer:.0f}x/{speedups.total:.0f}x")


# ---------------------------------------------------------------------------
# 7. Power throttling.

def test_criterion_7_power_throttling():
    p = perf.PerfParams()
    allowed = perf.power_constrained_arrays(perf.PowerParams(budget_w=100),
                                            p.crossbars)
    assert allowed == 100_000
    full_compute = perf.compute_latency(p, p.crossbars)
    throttled_compute = perf.compute_latency(p, allowed)
    assert math.isclose(throttled_compute, 5 * full_compute)
    full_total, _ = perf.total_latency(p, p.crossbars)
    throttled_total, _ = perf.total_latency(p, allowed)
    assert abs(throttled_total / full_total - 1.75) <= 0.01
    report(7, f"100 W -> {allowed} arrays; compute x5 exactly; "
              f"total x{throttled_total / full_total:.3f}")


# ---------------------------------------------------------------------------
# 8. Scaling-curve crossover and endpoint.

def test_criterion_8_curve_crossover():
    p = perf.figure_params()
    n = perf.crossover_arrays(p)
    assert abs(n - 190) <= 5
    endpoint, _ = perf.total_latency(p, 500_000)
    assert 61.5 <= endpoint <= 63.0
    report(8, f"crossover at {n} arrays; 500k-array endpoint {endpoint:.4g} s")


# ---------------------------------------------------------------------------
# 9. Full-scale claims replaced by desk-scale properties.

def test_criterion_9_corpus_properties():
    rng = random.Random(71)
    genome = synth_genome(40_000, rng)
    candidates = []
    exact_ids = set()
    for i in range(120):
        pos = rng.randint(0, len(genome) - 100)
        if i % 3 == 0:  # exact-match candidate
            candidates.append(CandidateRecord(f"x{i}", genome[pos:pos + 100], pos))
            exact_ids.add(f"x{i}")
        else:
            candidates.append(CandidateRecord(f"d{i}", synth_genome(100, rng), pos))

    capped = run_filter(genome, candidates, eth=2, iter_factor=1)
    uncapped = run_filter(genome, candidates, eth=2, iter_factor=None)

    # (a) the discard rate is computed and reported
    assert 0.0 <= uncapped.stats.discard_rate <= 1.0
    assert uncapped.stats.discarded and uncapped.stats.discard_rate == \
        uncapped.stats.discarded / uncapped.stats.processed

    # (b) exact-match candidates are never discarded
    for d in uncapped.decisions + capped.decisions:
        if d.read_id in exact_ids:
            assert d.verdict != "discard"

    # (c) the overflow fraction is reported and responds to the cap
    assert uncapped.stats.passthrough_rate == 0.0
    assert capped.stats.passthrough_rate > 0.0
    assert capped.stats.passthrough_rate == \
        capped.stats.passthrough / capped.stats.queued

    report(9, f"discard rate {uncapped.stats.discard_rate:.3f} reported; "
              f"exact matches kept; overflow fraction "
              f"{capped.stats.passthrough_rate:.3f} (capped) vs 0.0 (uncapped)")

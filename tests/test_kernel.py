import copy
import dataclasses
import hashlib
import random

import pytest

from pimfilter import crossbar, kernel, oracle
from pimfilter.crossbar import (
    ROWS,
    Block,
    CrossbarState,
    LaneGroup,
    MicroProgram,
    NorRow,
    _dataflow,
    execute,
)
from pimfilter.genome import load_tile, partition
from pimfilter.io import synth_genome
from pimfilter.kernel import (
    BASES,
    COMPUTE_BUDGET,
    FRAGMENT_ROWS,
    STEP_BUDGETS,
    TILE_STRIDE,
    TOTAL_BUDGET,
    _body,
    build_program,
    encode_base,
    plan_layout,
    run_kernel,
    store_threshold,
    window_row_ranges,
)

from dataflow import live_cells


@pytest.fixture(scope="module")
def tile_state(layout):
    rng = random.Random(11)
    genome = synth_genome(6600, rng)
    state = CrossbarState()
    load_tile(state, layout, genome, partition(len(genome))[0], eth=5)
    return genome, state


class TestEncoding:
    @pytest.mark.parametrize("base,code", [("A", (0, 0)), ("T", (0, 1)), ("G", (1, 0)), ("C", (1, 1))])
    def test_codes(self, base, code):
        assert encode_base(base) == code

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            encode_base("N")


def match_value(base, pa, pb):
    """Evaluate the match network for `base` on an inverted bit pair.

    The window is stored inverted, so with (pa, pb) the complemented code
    bits, each base type has its own two-level NOR expression that is 1
    exactly when the original base equals `base`:

        A: NOR(NOR(pa), NOR(pb))    G: NOR(pa, NOR(pb))
        T: NOR(NOR(pa), pb)         C: NOR(pa, pb)
    """
    na, nb = 1 - pa, 1 - pb
    if base == "A":
        return 1 - (na | nb)
    if base == "T":
        return 1 - (na | pb)
    if base == "G":
        return 1 - (pa | nb)
    if base == "C":
        return 1 - (pa | pb)
    raise ValueError(f"invalid base {base!r}")


class TestMatchExpressions:
    def test_truth_table(self):
        # evaluate all four expressions over all four stored codes
        for stored in BASES:
            a, b = encode_base(stored)
            pa, pb = 1 - a, 1 - b  # the window is kept inverted
            for probe in BASES:
                assert match_value(probe, pa, pb) == int(probe == stored)

    def test_c_is_plain_nor(self):
        # stored C inverts to (0, 0); NOR(0, 0) = 1
        assert match_value("C", 0, 0) == 1

    def test_t_expression(self):
        a, b = encode_base("T")
        assert match_value("T", 1 - a, 1 - b) == 1
        assert match_value("G", 1 - a, 1 - b) == 0


class TestWindowRows:
    def test_aligned_offset_single_fragment(self):
        assert window_row_ranges(0, 100) == [(0, range(0, 100))]
        assert window_row_ranges(6400, 100) == [(64, range(0, 100))]

    def test_split_offset(self):
        (p1, r1), (p2, r2) = window_row_ranges(230, 100)
        assert (p1, list(r1)[:1], list(r1)[-1]) == (2, [30], 99)
        assert (p2, list(r2)) == (3, list(range(0, 30)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            window_row_ranges(6401, 100)


class TestBudgets:
    def test_per_step_and_totals(self, layout, tile_state):
        genome, state = tile_state
        counts = oracle.histogram(genome[123:223])
        res = run_kernel(state, layout, counts, 123)
        for label, budget in STEP_BUDGETS.items():
            assert res.steps[label].compute <= budget, label
        assert res.compute_cycles <= COMPUTE_BUDGET
        assert res.compute_cycles + res.init_cycles <= TOTAL_BUDGET

    def test_comparison_step_structure(self, layout):
        # two shared inversions feed the A comparison; T, G, C cost one each
        prog = build_program(layout, 0, oracle.BaseCounts(100, 0, 0, 0))
        spans = {label: (s, e) for label, s, e in prog.annotations if label == "3"}
        s, e = spans["3"]
        gates = [op for op in prog.ops[s:e] if isinstance(op, NorRow)]
        assert len(gates) == 6
        na, nb = gates[0], gates[1]
        assert len(na.input_cols) == 1 and len(nb.input_cols) == 1
        m_a = gates[2]
        assert set(m_a.input_cols) == {na.output_col, nb.output_col}

    def test_write_step_cost(self, layout, tile_state):
        genome, state = tile_state
        counts = oracle.histogram(genome[0:100])
        res = run_kernel(state, layout, counts, 0)
        assert res.steps["1"].compute == 8  # two cycles per stored count


class TestEveryRowPhase:
    # A program depends on its offset only through the row phase
    # offset % 100, so the 100 phases cover every program of a read length.
    @pytest.mark.parametrize("read_length,totals", [
        (100, (194598, 190498, 4500)),
        (64, (195844, 191344, 4900)),
        (1, (195592, 191092, 4900)),
    ])
    def test_programs_valid_clean_and_within_budget(self, read_length, totals):
        layout = plan_layout(read_length)
        defined = {(r, c) for r in range(FRAGMENT_ROWS) for c in range(layout.genome_cols)}
        defined |= {(layout.lane_rows["A"], c) for c in layout.thr_cols}
        counts = oracle.BaseCounts(read_length, 0, 0, 0)
        ops = compute = init = 0
        for r0 in range(FRAGMENT_ROWS):
            prog = build_program(layout, r0, counts)
            assert live_cells(prog) <= defined, r0
            # the whole program, head and body, is init-dominated, so
            # strict and permissive runs of it cannot differ
            assert _dataflow(prog.ops)[0], r0
            # execute checks structure and annotations first and raises
            # MicroOpError or ValueError on a violation
            res = execute(prog, CrossbarState())
            assert res.compute_cycles <= COMPUTE_BUDGET, r0
            assert res.compute_cycles + res.init_cycles <= TOTAL_BUDGET, r0
            if read_length == 100:
                for label, budget in STEP_BUDGETS.items():
                    assert res.steps[label].compute <= budget, (r0, label)
            ops += len(prog.ops)
            compute += res.compute_cycles
            init += res.init_cycles
        # pinned: a change to any program or to cycle accounting shows here
        assert (ops, compute, init) == totals

    @pytest.mark.parametrize("read_length,counts,digest", [
        (100, (10, 20, 30, 40), "0795463040e9ae4ccf0e81ade5320ac37b09c1a13ec4991ad3497445a2418916"),
        (64, (1, 2, 3, 58), "d1f7634ebbacd82d19de8906af514f6ffd3826d943f1bd9f8dbf787462e21eb9"),
        (1, (0, 0, 1, 0), "6d42a8a5bc47e3bc106488a390af2576766f816567bda3f30dcbb0807e599842"),
    ])
    def test_op_stream_pinned(self, read_length, counts, digest):
        # every row phase in the first, second and last fragment pair;
        # the digest covers each op's text and the step annotations
        layout = plan_layout(read_length)
        h = hashlib.sha256()
        for pair in (0, 1, 64):
            for offset in range(FRAGMENT_ROWS * pair, min(FRAGMENT_ROWS * (pair + 1), TILE_STRIDE + 1)):
                prog = build_program(layout, offset, oracle.BaseCounts(*counts))
                text = repr(prog.annotations) + "\n" + "\n".join(op.describe() for op in prog.ops) + "\n"
                h.update(text.encode())
        assert h.hexdigest() == digest


class TestSharedBody:
    @pytest.mark.parametrize("read_length", [100, 64])
    def test_body_is_shared_and_lowered_once(self, monkeypatch, read_length):
        kernel._placed.cache_clear()  # no phase block compiled by earlier tests
        layout = plan_layout(read_length)
        counts = oracle.BaseCounts(read_length, 0, 0, 0)
        first = build_program(layout, 250, counts)
        second = build_program(layout, 137, counts)

        # the ops from the second block on are the one body that programs
        # of every read length share (ops compare by identity)
        for prog in (first, second):
            shared = prog.ops[prog.blocks[1][0]:]
            assert len(shared) > 1800 and shared == _body().ops
        # both heads span two fragments; a full-length window covers every
        # row, so at read length 100 the two share one phase block too
        if read_length == 100:
            assert first.blocks is second.blocks

        execute(first, CrossbarState())
        lowered, compiled = [], []
        real_lower, real_compile = crossbar._lower, crossbar._compile
        monkeypatch.setattr(crossbar, "_lower",
                            lambda op: lowered.append(op) or real_lower(op))
        monkeypatch.setattr(crossbar, "_compile",
                            lambda *args: compiled.append(args) or real_compile(*args))
        execute(second, CrossbarState())
        # only the head of steps 1 and 2 is lowered per location; a
        # short read's new window shape compiles its phase block once
        head = second.ops[:second.blocks[0][0]]
        assert [id(op) for op in lowered] == [id(op) for op in head]
        assert len(head) == 9
        if read_length == 100:
            assert compiled == []
        else:
            assert [ops for ops, *_ in compiled] == [second.blocks[0][1].ops]

        # _lower_program reads the ops outside blocks one by one; it checks
        # each block's ops as one slice and adds its cached cycle sums
        visited = []

        class Recording(list):
            def __getitem__(self, i):
                if isinstance(i, int):
                    visited.append(i)
                return super().__getitem__(i)

        crossbar._lower_program(dataclasses.replace(second, ops=Recording(second.ops)))
        in_blocks = {i for start, block in second.blocks for i in range(start, start + len(block.ops))}
        assert visited == [i for i in range(len(second.ops)) if i not in in_blocks]
        assert len(visited) == 9

    @pytest.mark.parametrize("read_length", [100, 64, 1])
    def test_every_body_block_is_proved(self, read_length):
        # every read length runs the body's blocks; every gate output in
        # the body is initialized inside its own block (Block checks it
        # when it is built), so strict and permissive runs share the
        # unchecked code
        body = _body()
        prog = build_program(plan_layout(read_length), 250, oracle.BaseCounts(read_length, 0, 0, 0))
        head = prog.blocks[1][0]
        assert [(start - head, block) for start, block in prog.blocks[1:]] == list(body.blocks)
        assert [op for _, block in body.blocks for op in block.ops] == body.ops
        for start, block in body.blocks:
            assert _dataflow(block.ops)[0], start

    @pytest.mark.parametrize("read_length,shapes", [(100, 2), (64, FRAGMENT_ROWS)])
    def test_one_phase_block_per_window_shape(self, read_length, shapes):
        # step 3 and a short read's zeroing depend only on the window's
        # rows: one proved block per row phase (per head length at read
        # length 100), the same object in every fragment pair
        layout = plan_layout(read_length)
        counts = oracle.BaseCounts(read_length, 0, 0, 0)
        by_phase = {}
        for offset in range(TILE_STRIDE + 1):
            prog = build_program(layout, offset, counts)
            start, block = prog.blocks[0]
            assert prog.ops[start:start + len(block.ops)] == block.ops
            by_phase.setdefault(offset % FRAGMENT_ROWS, set()).add(block)  # by identity
        assert all(len(blocks) == 1 for blocks in by_phase.values())
        distinct = set().union(*by_phase.values())
        assert len(distinct) == shapes
        for block in distinct:
            assert _dataflow(block.ops)[0]

    def test_edited_program_is_rejected(self):
        prog = build_program(plan_layout(100), 250, oracle.BaseCounts(100, 0, 0, 0))
        start, block = prog.blocks[2]
        prog.ops[start + 5] = copy.copy(prog.ops[start + 5])
        with pytest.raises(ValueError, match="do not hold the block"):
            execute(prog, CrossbarState())


class TestLaneGroup:
    def test_group_covers_the_step_4_and_5_spans(self):
        body = _body()
        (start, group), *rest = body.blocks
        assert isinstance(group, LaneGroup) and start == 0
        assert [label for label, _, _ in body.annotations[:8]] == ["4", "5"] * 4
        assert body.annotations[7][2] == len(group.ops) == rest[0][0]
        assert not any(isinstance(block, LaneGroup) for _, block in rest)
        for read_length in (100, 64, 37, 1):
            prog = build_program(plan_layout(read_length), 137, oracle.BaseCounts(read_length, 0, 0, 0))
            assert prog.blocks[1][1] is group, read_length

    def test_matches_the_spans_run_as_separate_blocks(self):
        # every row phase, from a random grid: the group and the eight
        # spans it holds, each run as its own Block, must leave the same
        # cells, readout, cycles, steps and trace
        body = _body()
        spans = [(start, Block(body.ops[start:end])) for _, start, end in body.annotations[:8]]
        layout = plan_layout(100)
        rng = random.Random(23)
        for r0 in range(FRAGMENT_ROWS):
            a = rng.randint(0, 100)
            t = rng.randint(0, 100 - a)
            g = rng.randint(0, 100 - a - t)
            prog = build_program(layout, FRAGMENT_ROWS * rng.randrange(64) + r0,
                                 oracle.BaseCounts(a, t, g, 100 - a - t - g))
            phase, (head, group), *rest = prog.blocks
            assert group is body.blocks[0][1]
            split = MicroProgram(prog.ops, prog.annotations,
                                 (phase,) + tuple((head + start, block) for start, block in spans)
                                 + tuple(rest))
            grid = [rng.getrandbits(ROWS) for _ in range(len(CrossbarState().cols))]
            runs = []
            for program in (prog, split):
                state, trace = CrossbarState(), []
                state.cols[:] = grid
                res = execute(program, state, strict=bool(r0 % 2), trace=trace.append)
                runs.append((state.cols, res.readout, res.compute_cycles, res.init_cycles,
                             {k: (v.compute, v.init) for k, v in res.steps.items()}, trace))
            assert runs[0] == runs[1], r0


class TestDecisions:
    def test_exact_window_kept_at_zero_threshold(self, layout, tile_state):
        genome, state = tile_state
        counts = oracle.histogram(genome[200:300])
        store_threshold(state, layout, 0)
        res = run_kernel(state, layout, counts, 200)
        assert res.discard == 0

    def test_all_a_read_against_all_a_window(self, layout):
        genome = "A" * 6500
        state = CrossbarState()
        load_tile(state, layout, genome, partition(len(genome))[0], eth=0)
        counts = oracle.BaseCounts(100, 0, 0, 0)
        assert run_kernel(state, layout, counts, 0).discard == 0

    def test_fully_disjoint_alphabets_discard(self, layout):
        genome = "G" * 50 + "C" * 6450
        state = CrossbarState()
        load_tile(state, layout, genome, partition(len(genome))[0], eth=10)
        counts = oracle.BaseCounts(50, 50, 0, 0)  # error 200 > 20
        assert run_kernel(state, layout, counts, 0).discard == 1

    def test_boundary_error_exactly_twice_eth(self, layout):
        # window has k non-A bases against an all-A read: error = 2k
        k = 7
        genome = "T" * k + "A" * 6500
        state = CrossbarState()
        load_tile(state, layout, genome, partition(len(genome))[0], eth=k)
        counts = oracle.BaseCounts(100, 0, 0, 0)
        assert run_kernel(state, layout, counts, 0).discard == 0
        store_threshold(state, layout, k - 1)
        assert run_kernel(state, layout, counts, 0).discard == 1

    def test_window_lands_in_p_as_row_rotation(self, layout, tile_state):
        # the inverted window copy rotates rows by the in-fragment phase
        genome, state = tile_state
        offset = 250  # split across two fragments, phase 50
        counts = oracle.histogram("ACGT" * 25)
        run_kernel(state, layout, counts, offset)
        window = genome[offset:offset + 100]
        r0 = offset % 100
        for r in range(100):
            pa, pb = state.cells[r, layout.p_cols[0]], state.cells[r, layout.p_cols[1]]
            a, b = encode_base(window[(r - r0) % 100])
            assert (pa, pb) == (1 - a, 1 - b)

    def test_window_counts_reach_the_lanes(self, layout, tile_state):
        genome, state = tile_state
        offset = 4321
        window = genome[offset:offset + 100]
        counts = oracle.histogram("ACGT" * 25)
        run_kernel(state, layout, counts, offset)
        want = oracle.histogram(window)
        got = [state.read_value([(layout.lane_rows[b], c) for c in layout.res_cols])
               for b in BASES]
        assert got == [want.a, want.t, want.g, want.c]
        assert sum(got) == 100

    def test_permutation_invariance(self, layout):
        rng = random.Random(5)
        window = list("ACGT" * 25)
        rng.shuffle(window)
        shuffled = list(window)
        rng.shuffle(shuffled)
        counts = oracle.histogram(synth_genome(100, rng))
        results = []
        for w in ("".join(window), "".join(shuffled)):
            genome = w + "A" * 6450
            state = CrossbarState()
            load_tile(state, layout, genome, partition(len(genome))[0], eth=3)
            results.append(run_kernel(state, layout, counts, 0).discard)
        assert results[0] == results[1]

    def test_randomized_against_golden_model(self, layout, tile_state):
        genome, state = tile_state
        rng = random.Random(17)
        for _ in range(150):
            offset = rng.randint(0, 6400)
            eth = rng.choice([0, 1, 5, 10])
            read = synth_genome(100, rng) if rng.random() < 0.6 else \
                list(genome[offset:offset + 100])
            if isinstance(read, list):
                for _ in range(rng.randint(0, 12)):
                    read[rng.randrange(100)] = rng.choice("ACGT")
                read = "".join(read)
            counts = oracle.histogram(read)
            store_threshold(state, layout, eth)
            res = run_kernel(state, layout, counts, offset)
            assert res.discard == oracle.decide(counts, genome[offset:offset + 100], eth)


class TestValidation:
    def test_histogram_must_sum_to_read_length(self, layout, tile_state):
        _, state = tile_state
        with pytest.raises(ValueError, match="read length"):
            run_kernel(state, layout, oracle.BaseCounts(1, 0, 0, 0), 0)

    def test_offset_out_of_range(self, layout, tile_state):
        genome, state = tile_state
        counts = oracle.histogram(genome[:100])
        with pytest.raises(ValueError):
            run_kernel(state, layout, counts, 6401)
        with pytest.raises(ValueError):
            run_kernel(state, layout, counts, -1)

    def test_threshold_range(self, layout):
        state = CrossbarState()
        with pytest.raises(ValueError):
            store_threshold(state, layout, -1)
        with pytest.raises(ValueError):
            store_threshold(state, layout, 101)

    def test_program_taint_clean(self, layout):
        prog = build_program(layout, 123, oracle.BaseCounts(100, 0, 0, 0))
        defined = {(r, c) for r in range(100) for c in range(layout.genome_cols)}
        defined |= {(layout.lane_rows["A"], c) for c in layout.thr_cols}
        assert live_cells(prog) <= defined

    def test_short_reads_supported(self):
        short = plan_layout(read_length=60)
        genome = "ACGT" * 1700
        state = CrossbarState()
        load_tile(state, short, genome, partition(len(genome), 60)[0], eth=2)
        rng = random.Random(9)
        for _ in range(8):
            offset = rng.randint(0, 6400)
            read = synth_genome(60, rng)
            counts = oracle.histogram(read)
            res = run_kernel(state, short, counts, offset)
            assert res.discard == oracle.decide(counts, genome[offset:offset + 60], 2)

    @pytest.mark.parametrize("read_length", [64, 37, 1])
    def test_short_reads_every_row_phase(self, read_length):
        # every row phase, so windows inside one fragment and (but for
        # read length 1) windows spanning two, each run strict and
        # permissive from a random grid with the tile loaded over it
        layout = plan_layout(read_length)
        rng = random.Random(read_length)
        genome = synth_genome(6600, rng)
        tile = partition(len(genome), read_length)[0]
        decisions = set()
        for r0 in range(FRAGMENT_ROWS):
            offset = FRAGMENT_ROWS * rng.randrange(64) + r0
            window = genome[offset:offset + read_length]
            read = list(window)
            for _ in range(rng.randint(0, 6)):
                read[rng.randrange(read_length)] = rng.choice(BASES)
            counts = oracle.histogram("".join(read))
            eth = rng.randint(0, min(3, read_length))
            want = oracle.decide(counts, window, eth)
            decisions.add(want)
            for strict in (True, False):
                state = CrossbarState()
                state.cols[:] = [rng.getrandbits(ROWS) for _ in state.cols]
                load_tile(state, layout, genome, tile, eth)
                res = run_kernel(state, layout, counts, offset, strict=strict)
                assert res.discard == want, (r0, strict)
        assert decisions == {0, 1}

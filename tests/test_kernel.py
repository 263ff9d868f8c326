import dataclasses
import hashlib
import itertools
import random
import re
import tracemalloc
import types

import numpy as np
import pytest

from pimfilter import crossbar, kernel, oracle
from pimfilter.crossbar import (
    COLS,
    ROWS,
    Block,
    CrossbarState,
    ExecResult,
    Init,
    LaneGroup,
    MicroProgram,
    NorCol,
    NorRow,
    ProgramBuilder,
    WriteExternal,
    _band,
    _dataflow,
    _interpret,
    _pack,
    execute,
)
from pimfilter.genome import load_tile, partition
from pimfilter.io import synth_genome
from pimfilter.kernel import (
    BASES,
    COMPUTE_BUDGET,
    FRAGMENT_ROWS,
    FRAGMENTS_PER_TILE,
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

from dataflow import annotations, live_cells, live_rows
from grid import snapshot

EVERY_PAIR = range(FRAGMENTS_PER_TILE)


@pytest.fixture(scope="module")
def tile_state(layout):
    rng = random.Random(11)
    genome = synth_genome(6600, rng)
    state = CrossbarState()
    load_tile(state, layout, genome, partition(len(genome))[0], eth=5, pairs=EVERY_PAIR)
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


class TestLayout:
    def test_shared_layout_is_read_only(self):
        # plan_layout is built once per read length and shared
        layout = plan_layout(64)
        assert plan_layout(read_length=64) is layout and plan_layout() is plan_layout(100)
        with pytest.raises(TypeError):
            layout.match_cols["A"] = 0
        with pytest.raises(TypeError):
            layout.lane_rows["A"] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.read_length = 100
        assert plan_layout(64).match_cols["A"] == layout.genome_cols + 2

    @pytest.mark.parametrize("read_length", [0, FRAGMENT_ROWS + 1])
    def test_a_read_length_outside_one_fragment_raises(self, read_length):
        with pytest.raises(ValueError, match=f"^read length must be 1..{FRAGMENT_ROWS}$"):
            plan_layout(read_length)


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
        (step,) = [ops for block in prog.blocks for label, ops in block.steps if label == "3"]
        gates = [op for op in step if isinstance(op, NorRow)]
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
            # execute lowers the head first and raises MicroOpError on
            # a violation
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
        # the digest covers each op's text and the (label, start, end)
        # range of each step
        layout = plan_layout(read_length)
        h = hashlib.sha256()
        for pair in (0, 1, 64):
            for offset in range(FRAGMENT_ROWS * pair, min(FRAGMENT_ROWS * (pair + 1), TILE_STRIDE + 1)):
                prog = build_program(layout, offset, oracle.BaseCounts(*counts))
                text = repr(annotations(prog)) + "\n" + "\n".join(op.describe() for op in prog.ops) + "\n"
                h.update(text.encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("read_length", [100, 64, 1])
    def test_every_column_stays_in_range(self, read_length):
        # from a grid whose every cell is random, the top rows included,
        # run_kernel at each row phase leaves every column in
        # [0, 2**ROWS): the compiled code clears bits with no negative
        # value and sets none off the array
        layout = plan_layout(read_length)
        rng = random.Random(read_length)
        state = CrossbarState()
        for r0 in range(FRAGMENT_ROWS):
            state.cols[:] = [rng.getrandbits(ROWS) for _ in range(COLS)]
            offset = FRAGMENT_ROWS * rng.randrange(FRAGMENTS_PER_TILE - 1) + r0
            run_kernel(state, layout, oracle.BaseCounts(read_length, 0, 0, 0), offset)
            assert all(0 <= v < 1 << ROWS for v in state.cols), r0


class TestFragmentOnlyLoads:
    @pytest.mark.parametrize("read_length", [100, 64, 37, 1])
    def test_programs_read_only_their_window_fragments(self, read_length):
        # every row phase in the first two and the last two fragment
        # pairs, offset 6400 included: a program reads rows 0..99 of the
        # columns of the fragments its window spans, and the threshold,
        # so a tile need store only the fragments its windows read
        layout = plan_layout(read_length)
        counts = oracle.BaseCounts(read_length, 0, 0, 0)
        threshold = {(layout.lane_rows["A"], c) for c in layout.thr_cols}
        for offset in (*range(2 * FRAGMENT_ROWS), *range(TILE_STRIDE - FRAGMENT_ROWS, TILE_STRIDE + 1)):
            cols = [2 * pair + i for pair, _ in window_row_ranges(offset, read_length) for i in (0, 1)]
            read = {(r, c) for r in range(FRAGMENT_ROWS) for c in cols} | threshold
            assert live_cells(build_program(layout, offset, counts)) <= read, offset

    def test_composed_live_ins_match_one_walk_over_the_program(self):
        # live_rows composes the head's live-in rows with each block's,
        # less the rows written before it; on a sample of programs that
        # must equal one _dataflow walk over every op
        rng = random.Random(29)
        for read_length in (100, 64, 37, 1):
            layout = plan_layout(read_length)
            for offset in rng.sample(range(TILE_STRIDE + 1), 5):
                prog = build_program(layout, offset, oracle.BaseCounts(read_length, 0, 0, 0))
                assert live_rows(prog) == _dataflow(prog.ops)[1], (read_length, offset)


class TestSharedBody:
    @pytest.mark.parametrize("read_length", [100, 64])
    def test_body_is_shared_and_lowered_once(self, monkeypatch, read_length):
        layout = plan_layout(read_length)
        counts = oracle.BaseCounts(read_length, 0, 0, 0)
        first = build_program(layout, 250, counts)
        second = build_program(layout, 137, counts)
        aligned = build_program(layout, 300, counts)

        # the blocks from the second on are the one body that programs of
        # every read length share (blocks compare by identity)
        assert sum(len(block.ops) for block in _body()) > 1800
        for prog in (first, second):
            assert prog.blocks[1:] == _body()
        # both heads span two fragments; a full-length window covers every
        # row, so at read length 100 the two share one phase block too
        if read_length == 100:
            assert first.blocks[0] is second.blocks[0]

        # step 1's writes are shared per (base, count): an equal count is
        # the same op object, in any program
        other = oracle.BaseCounts(0, read_length, 0, 0)
        third = build_program(layout, 250, other)
        for write, mine, count, its in zip(first.head[0][1], third.head[0][1], counts, other):
            assert (write is mine) == (count == its)
        for bad in (-1, 128):
            with pytest.raises(ValueError, match="7 bits"):
                build_program(layout, 0, oracle.BaseCounts(bad, 0, 0, read_length - bad))

        execute(first, CrossbarState())
        lowered = []
        real_lower = crossbar._lower
        monkeypatch.setattr(crossbar, "_lower",
                            lambda op: lowered.append(op) or real_lower(op))
        execute(second, CrossbarState())
        # only step 2 is lowered per location: 5 ops for a window that
        # spans two fragments, 3 for one inside a fragment; the phase
        # block and the body were lowered when they were built
        assert [label for label, _ in second.head] == ["1", "2"]
        assert [id(op) for op in lowered] == [id(op) for op in second.head[1][1]]
        assert len(lowered) == 5
        lowered.clear()
        execute(aligned, CrossbarState())
        assert [id(op) for op in lowered] == [id(op) for op in aligned.head[1][1]]
        assert len(lowered) == 3
        assert kernel._count_write.cache_info().currsize <= 4 * 128

        # counting a program's cycles reads the head's ops step by step
        visited = []

        class Recording(list):
            def __iter__(self):
                for op in super().__iter__():
                    visited.append(op)
                    yield op

        head = [op for _, ops in second.head for op in ops]
        recorded = tuple((label, Recording(ops)) for label, ops in second.head)
        dataclasses.replace(second, head=recorded).cycles()
        assert [id(op) for op in visited] == [id(op) for op in head]

    def test_count_values_keep_only_ints(self):
        # step 1's table keeps its value ints, not the 512 lowered count
        # writes (0.98 MB by tracemalloc); building every shape of one
        # read length caches only the count writes its proof builds,
        # those of the counts (64, 0, 0, 0)
        for cached in (kernel._count_write, kernel._count_values, kernel._shape):
            cached.cache_clear()
        plan_layout()
        tracemalloc.start()
        try:
            kernel._count_values()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 300_000
        assert kernel._count_write.cache_info().currsize == 0
        for phase in range(FRAGMENT_ROWS):
            kernel._shape(64, phase)
        assert kernel._count_write.cache_info().currsize <= len(BASES)

    @pytest.mark.parametrize("fault,match", [
        ("every_base_in_lane_a", "two bases' count writes set one cell"),
        ("off_the_count_columns", "a count write sets a cell off the lane rows of the count columns"),
        ("count_100_sets_7_cells", "the count writes of A do not each set the same cells"),
    ])
    def test_count_writes_that_fail_the_proof_raise(self, monkeypatch, fault, match):
        # _count_values builds its writes outside _count_write's cache,
        # from the function it wraps
        real = kernel._count_write.__wrapped__
        monkeypatch.setattr(kernel, "_count_write", types.SimpleNamespace(__wrapped__=COUNT_FAULTS[fault](real)))
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            kernel._count_values.__wrapped__()

    @pytest.mark.parametrize("read_length", [100, 64, 1])
    def test_every_body_block_is_proved(self, read_length):
        # every read length runs the body's blocks; every gate output in
        # the body is initialized inside its own block (Block checks it
        # when it is built), so strict and permissive runs share the
        # unchecked code
        prog = build_program(plan_layout(read_length), 250, oracle.BaseCounts(read_length, 0, 0, 0))
        assert prog.blocks[1:] == _body()
        for block in _body():
            assert _dataflow(block.ops)[0]

    @pytest.mark.parametrize("read_length,shapes", [(100, 1), (64, FRAGMENT_ROWS)])
    def test_one_phase_block_per_window_shape(self, read_length, shapes):
        # step 3 and a short read's zeroing depend only on the window's
        # rows: one proved block per row phase (one in all at read length
        # 100, whose window covers every row), the same object in every
        # fragment pair
        layout = plan_layout(read_length)
        counts = oracle.BaseCounts(read_length, 0, 0, 0)
        by_phase = {}
        for offset in range(TILE_STRIDE + 1):
            block = build_program(layout, offset, counts).blocks[0]
            by_phase.setdefault(offset % FRAGMENT_ROWS, set()).add(block)  # by identity
        assert all(len(blocks) == 1 for blocks in by_phase.values())
        distinct = set().union(*by_phase.values())
        assert len(distinct) == shapes
        for block in distinct:
            assert _dataflow(block.ops)[0]


def interpreted(state, layout, counts, offset, strict=True, trace=None):
    """A location run as its MicroProgram: the head through the
    interpreter, then the blocks (the reference for run_kernel)."""
    if counts.total != layout.read_length:
        raise ValueError("read histogram does not sum to the read length")
    return execute(build_program(layout, offset, counts), state, strict=strict, trace=trace)


class TestCompiledLocations:
    @pytest.mark.parametrize("read_length", [100, 64, 37, 1])
    def test_matches_the_interpreted_head_and_blocks(self, read_length):
        # every row phase of pairs 0, 1, 63 and 64 (offset <= 6400), from a
        # grid whose every cell is random: run_kernel's lane decision, its
        # grid when read, cycles and step report must be those of the
        # program run through the interpreter; a sample also the same
        # trace
        layout = plan_layout(read_length)
        rng = random.Random(41 + read_length)
        offsets = [FRAGMENT_ROWS * pair + r0 for pair in (0, 1, 63, 64) for r0 in range(FRAGMENT_ROWS)
                   if FRAGMENT_ROWS * pair + r0 <= TILE_STRIDE]
        assert len(offsets) == 301
        for offset in offsets:
            a = rng.randint(0, read_length)
            t = rng.randint(0, read_length - a)
            g = rng.randint(0, read_length - a - t)
            counts = oracle.BaseCounts(a, t, g, read_length - a - t - g)
            grid = [rng.getrandbits(ROWS) for _ in range(COLS)]
            strict = bool(offset % 2)
            traced = offset % 37 == 0
            runs = []
            for run in (run_kernel, interpreted):
                state, trace = CrossbarState(), []
                state.cols[:] = grid
                res = run(state, layout, counts, offset, strict=strict,
                          trace=trace.append if traced else None)
                runs.append((state.cols, res.readout[0], res.compute_cycles, res.init_cycles,
                             list(res.steps.items()), trace))
            assert runs[0] == runs[1], offset

    @pytest.mark.parametrize("read_length", [100, 1])
    def test_bad_inputs_raise_as_the_interpreted_path_does(self, read_length):
        layout = plan_layout(read_length)
        good = oracle.BaseCounts(read_length, 0, 0, 0)
        cases = [(oracle.BaseCounts(-1, 0, 0, read_length + 1), 0),
                 (oracle.BaseCounts(128, 0, 0, read_length - 128), 0),
                 (oracle.BaseCounts(read_length, 1, 0, 0), 0),
                 (good, -1), (good, TILE_STRIDE + 1)]
        for counts, offset in cases:
            messages = []
            for run in (run_kernel, interpreted):
                state = CrossbarState()
                with pytest.raises(ValueError) as err:
                    run(state, layout, counts, offset)
                assert state.cols == CrossbarState().cols
                messages.append(str(err.value))
            assert messages[0] == messages[1], (counts, offset)
        assert messages[0] == "offset out of range"

    @pytest.mark.parametrize("read_length", [100, 64])
    def test_a_seen_shape_builds_lowers_and_interprets_nothing(self, monkeypatch, read_length):
        layout = plan_layout(read_length)
        state = CrossbarState()
        counts = oracle.BaseCounts(read_length - 3, 1, 1, 1)
        run_kernel(state, layout, counts, 237)
        built, calls = [], []
        for cls in (Init, NorRow, NorCol, crossbar.WriteExternal, crossbar.ReadCell):
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init, **k: built.append(self) or init(self, *a, **k))
        for name in ("_lower", "_interpret"):
            real = getattr(crossbar, name)
            monkeypatch.setattr(crossbar, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
        # the same shape at another pair, with other counts
        res = run_kernel(state, layout, oracle.BaseCounts(1, 2, 3, read_length - 6), 37 + 5200)
        assert built == [] and calls == []
        shape = kernel._shape(read_length, 37)
        assert res.steps is shape.cycles[2]
        assert (res.compute_cycles, res.init_cycles) == shape.cycles[:2]
        with pytest.raises(TypeError):
            res.steps["1"] = crossbar.StepCycles()
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.steps["1"].compute = 0
        # a trace reads the ops, which are then built
        run_kernel(state, layout, counts, 237, trace=lambda line: None)
        assert built

    def test_a_head_that_fails_the_proof_raises(self, monkeypatch):
        layout = plan_layout(64)
        real = kernel._copy

        def shifted(layout, offset):
            # the window one pair to the left, except at pair 0
            return real(layout, offset - FRAGMENT_ROWS if offset >= 2 * FRAGMENT_ROWS else offset)

        def bare(layout, offset):
            # step 2 without its Init
            copy, rows = real(layout, offset)
            return copy[1:], rows

        def moved(layout, offset):
            # the window's rows one row down, except at pair 0
            copy, rows = real(layout, offset)
            return copy, rows if offset < FRAGMENT_ROWS else tuple(range(r.start + 1, r.stop + 1) for r in rows)

        for fake, match in ((shifted, "offset 250 is not the head at offset 50"),
                            (bare, "not init-dominated"),
                            (moved, "offset 150 is not the head at offset 50")):
            monkeypatch.setattr(kernel, "_copy", fake)
            with pytest.raises(ValueError, match=match):
                kernel._Shape(layout, 50)
        monkeypatch.setattr(kernel, "_copy", real)
        # the window takes rows 50-99 of pair 1 and rows 0-13 of pair 2
        assert kernel._Shape(layout, 50).outside == (1 << 50) - (1 << 14)

    @pytest.mark.parametrize("builder,fault,match", [
        ("build_program", "drop_a_body_block", "the blocks after the phase block are not the body"),
        ("_copy", "a_two_input_not", "step 2 is not one Init, then NOTs"),
        ("_copy", "a_nor_col_past_pair_0", "step 2 holds a NorCol, not only an Init and NOTs"),
        ("_copy", "one_pair_right", "the window at offset 6350 reads past the stored slice"),
        ("_phase", "read_a_pool_cell", "the program reads other cells than its window and the threshold"),
        ("_copy", "split_each_not", "a P column's window bits come from more than two columns"),
        ("build_program", "swap_t_and_g", "step 1 is not the count writes"),
        ("_phase", "a_nor_col", "step 2, the phase block or the front is not Inits and row NORs alone"),
    ])
    def test_a_shape_that_fails_the_proof_raises(self, monkeypatch, builder, fault, match):
        # each fault breaks one property of _Shape's proof, in the
        # builder the proof reads, and only that property's check fails
        real = getattr(kernel, builder)
        monkeypatch.setattr(kernel, builder, SHAPE_FAULTS[fault](real))
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            kernel._Shape(plan_layout(64), 50)


def _drop_a_body_block(build):
    # the program stops before steps 6-13
    return lambda *args: dataclasses.replace(build(*args), blocks=build(*args).blocks[:-1])


def _a_two_input_not(copy):
    # the first NOT also reads the second bit column of its fragment
    def fake(layout, offset):
        ops, rows = copy(layout, offset)
        op = ops[1]
        return [ops[0], NorRow(op.input_cols + (op.input_cols[0] + 1,), op.output_col, op.rows), *ops[2:]], rows
    return fake


def _a_nor_col_past_pair_0(copy):
    # past pair 0, step 2 ends with a column NOR
    def fake(layout, offset):
        ops, rows = copy(layout, offset)
        return ops + [NorCol((0,), 1, (layout.p_cols[0],))] * (offset >= FRAGMENT_ROWS), rows
    return fake


def _one_pair_right(copy):
    # every NOT reads the window from the pair right of its own
    def fake(layout, offset):
        ops, rows = copy(layout, offset)
        return [ops[0], *(NorRow((op.input_cols[0] + 2,), op.output_col, op.rows) for op in ops[1:])], rows
    return fake


def _split_each_not(copy):
    # each NOT over n rows, as two over n // 2 and the rest
    def fake(layout, offset):
        ops, rows = copy(layout, offset)
        nots = [NorRow(op.input_cols, op.output_col, part) for op in ops[1:]
                for part in (op.rows[:len(op.rows) // 2], op.rows[len(op.rows) // 2:]) if part]
        return [ops[0], *nots], rows
    return fake


def _with_phase_ops(ops):
    # the phase block, then `ops` as one more step-3 step
    return lambda phase: lambda spans: Block((*phase(spans).steps, ("3", ops)))


def _swap_t_and_g(build):
    # step 1 writes G's count into T's lane and T's into G's: the same
    # band record at the counts a shape is built from, where both are 0
    def fake(layout, offset, counts):
        program = build(layout, offset, counts)
        (one, (a, t, g, c)), two = program.head
        return dataclasses.replace(program, head=((one, [a, g, t, c]), two))
    return fake


SHAPE_FAULTS = {
    "drop_a_body_block": _drop_a_body_block,
    "a_two_input_not": _a_two_input_not,
    "a_nor_col_past_pair_0": _a_nor_col_past_pair_0,
    "one_pair_right": _one_pair_right,
    "split_each_not": _split_each_not,
    # row 5 of pool column 200, read before anything writes it
    "read_a_pool_cell": _with_phase_ops([Init((((5,), (201,)),)), NorRow((200,), 201, (5,))]),
    # a column NOR on cells the block set itself
    "a_nor_col": _with_phase_ops([Init((((5, 6), (200,)),)), NorCol((5,), 6, (200,))]),
    "swap_t_and_g": _swap_t_and_g,
}


def random_counts(rng, read_length):
    a = rng.randint(0, read_length)
    t = rng.randint(0, read_length - a)
    g = rng.randint(0, read_length - a - t)
    return oracle.BaseCounts(a, t, g, read_length - a - t - g)


class TestHeldStores:
    # a location's program runs on its grid only when the grid is read:
    # the state holds its stores back until then, and replays them
    def test_a_sequence_on_one_state_matches_the_interpreted_path(self, monkeypatch):
        # per batch size B = 1, 3, 64 and 256, 300 locations (1000 at B =
        # 256) at mixed read lengths, row phases and counts on one state,
        # in batches of B (or fewer, when a new batch starts early), some
        # alone; between batches, at random, the grid is read, and
        # between locations, about once in 2B, the grid is read, a result
        # is read (one still pending once its batch runs or the grid is
        # read), fragment pairs and thresholds are loaded, cells are set
        # or a small program runs. The same sequence through
        # build_program and execute, which runs each location on the grid
        # at once, must give every decision and readout and, whenever the
        # grid is read, the same grid
        sizes = []
        real = kernel.Batch.run
        monkeypatch.setattr(kernel.Batch, "run", lambda self: sizes.append(len(self.entries)) or real(self))
        rng = random.Random(2027)
        genome = synth_genome(6600, rng)
        tile = partition(len(genome))[0]
        for size, count in ((1, 300), (3, 300), (64, 300), (256, 1000)):
            grid = [rng.getrandbits(ROWS) for _ in range(COLS)]
            held, stored = CrossbarState(), CrossbarState()
            for state in (held, stored):
                state.cols[:] = grid
                load_tile(state, plan_layout(100), genome, tile, 3, EVERY_PAIR)
            replaced = reads = pending_reads = 0
            batch, results = kernel.Batch(), []
            sizes.clear()
            for i in range(count):
                read_length = rng.choice((100, 64, 37, 1))
                layout = plan_layout(read_length)
                offset = rng.randint(0, TILE_STRIDE)
                counts = random_counts(rng, read_length)
                replaced += bool(held._replay)
                new = len(batch.entries) == size or rng.randrange(4 * size) == 0
                if new:
                    batch = kernel.Batch()
                alone = rng.randrange(4) == 0
                res = run_kernel(held, layout, counts, offset, batch=None if alone else batch)
                # a batch runs itself at its cap, so it then holds no entry
                assert bool(res.readout) == (alone or not batch.entries)
                assert held._replay[-1].readout is res.readout
                results.append((res, batch, interpreted(stored, layout, counts, offset).readout[0], i))
                if new and rng.randrange(2):
                    event = 0
                else:
                    event = rng.randrange(16) if rng.randrange(2 * size) == 0 else None
                if event == 0:
                    pending_reads += any(not location.readout for location in held._replay)
                    assert held.cols == stored.cols, i
                    assert not held._replay
                    reads += 1
                elif event == 1:
                    pairs, eth = rng.sample(EVERY_PAIR, 3), rng.randint(0, read_length)
                    for state in (held, stored):
                        load_tile(state, layout, genome, tile, eth, pairs)
                elif event == 2:
                    eth = rng.randint(0, read_length)
                    for state in (held, stored):
                        store_threshold(state, layout, eth)
                elif event == 3:
                    cells = [(rng.randrange(ROWS), rng.randrange(COLS)) for _ in range(6)]
                    bits = [rng.randint(0, 1) for _ in cells]
                    for state in (held, stored):
                        state.set_bits(cells, bits)
                elif event == 4:
                    pb = ProgramBuilder()
                    row, col, other = rng.randrange(ROWS), rng.randrange(COLS), rng.randrange(COLS)
                    pb.init(((row,), (col,)))
                    if other != col:
                        pb.nor_row((other,), col, (row,))
                    pb.read(row, col)
                    pb.read(rng.randrange(ROWS), rng.randrange(COLS))
                    program = pb.build()
                    assert execute(program, held).readout == execute(program, stored).readout, i
                elif event is not None and event < 8:
                    res, queued, want, j = rng.choice(results)
                    if not res.readout and j % 2:
                        queued.run()
                    elif not res.readout:
                        assert held.cols == stored.cols, i
                    assert res.readout[0] == want, j
            assert held.cols == stored.cols
            for res, _, want, j in results:
                assert res.readout[0] == want, j
            assert max(sizes) == size, size
            assert replaced > 150 and reads > 0 and pending_reads > 0, size

    def test_a_write_back_keeps_the_list_object(self):
        state, stored = CrossbarState(), CrossbarState()
        cols = state.cols
        layout = plan_layout(64)
        counts = oracle.BaseCounts(10, 20, 30, 4)
        run_kernel(state, layout, counts, 1234)
        interpreted(stored, layout, counts, 1234)
        assert state._replay and cols != stored.cols
        assert state.cols is cols and not state._replay
        assert cols == stored.cols

    def test_a_replay_that_reads_out_other_than_its_batch_raises(self):
        layout = plan_layout(37)
        state = CrossbarState()
        res = run_kernel(state, layout, oracle.BaseCounts(10, 20, 3, 4), 1290)
        res.readout[0] ^= 1
        with pytest.raises(RuntimeError, match="offset 1290 reads out"):
            state.cols

    def test_the_body_holds_cells_no_location_reads(self):
        # the lanes read first only the cells a batch packs: the lane rows
        # of the read counts, the threshold's row, and the front's window
        # bits and mask. No location writes a cell a batch reads from a
        # grid (the genome slice and the threshold's row), neither the
        # body nor any shape's head and phase block (a shape that did
        # would raise when it is built)
        L = plan_layout()
        lanes = kernel._lanes()
        window = (1 << FRAGMENT_ROWS) - 1
        want = [(k, 0xf << FRAGMENT_ROWS) for k in L.rb_cols] + [(k, 1 << L.lane_rows["A"]) for k in L.thr_cols]
        want += [(k, window) for k in (kernel._MASK_COL, L.genome_cols - 2, L.genome_cols - 1)]
        assert [(k, rows) for k, rows, _ in lanes.inputs] == want
        written = _dataflow([op for block in _body() for op in block.ops])[2]
        assert sum(bin(rows).count("1") for rows in written) > 1500
        reads = [window] * L.genome_cols + [0] * (COLS - L.genome_cols)
        for k in L.thr_cols:
            reads[k] |= 1 << L.lane_rows["A"]
        assert kernel._reads() == reads
        assert not any(map(int.__and__, written, reads))
        for read_length in (100, 64, 37, 1):
            for phase in range(FRAGMENT_ROWS):
                kernel._shape(read_length, phase)

    def test_a_head_or_phase_block_that_reads_a_held_cell_raises(self, monkeypatch):
        # a shape whose location writes a cell a batch reads from the grid
        # (where a later location would read it before the store is
        # made), whose front does not leave its bitmaps, or whose step 1
        # is not its band record, raises when it is built
        layout = plan_layout(64)
        real_reads, real_bands = kernel._reads(), kernel._count_values()
        reads = list(real_reads)
        reads[layout.p_cols[0]] |= 1 << 7
        monkeypatch.setattr(kernel, "_reads", lambda: reads)
        with pytest.raises(ValueError, match="writes a cell a batch reads"):
            kernel._Shape(layout, 50)
        monkeypatch.setattr(kernel, "_reads", lambda: real_reads)
        monkeypatch.setattr(kernel, "_count_values", lambda: [[v << 1 for v in row] for row in real_bands])
        with pytest.raises(ValueError, match="not the band record"):
            kernel._Shape(layout, 50)
        monkeypatch.setattr(kernel, "_count_values", lambda: real_bands)
        front = kernel._front()
        gates = [i for i, op in enumerate(front.ops) if op.__class__ is NorRow and len(op.input_cols) == 3]
        assert len(gates) == len(BASES)
        # each bitmap gate without its first input, and A's without the
        # mask (the other bases' bitmaps hold 0 off the window without it)
        for gate, keep in [(i, slice(1, 3)) for i in gates] + [(gates[0], slice(0, 2))]:
            ops = list(front.ops)
            op = ops[gate]
            ops[gate] = NorRow(op.input_cols[keep], op.output_col, op.rows)
            broken = Block([(None, ops)])
            monkeypatch.setattr(kernel, "_front", lambda broken=broken: broken)
            with pytest.raises(ValueError, match="the front leaves other bitmaps"):
                kernel._Shape(layout, 50)
        monkeypatch.setattr(kernel, "_front", lambda: front)
        assert kernel._Shape(layout, 50).gather == kernel._shape(64, 50).gather

    def test_a_body_that_writes_a_cell_it_reads_first_raises(self, monkeypatch):
        # a later location would read such a cell in its batch before
        # the store of an earlier one is made
        group, rest = _body()
        rows = range(100, 104)
        writes_its_input = Block([(None, [Init(((rows, (6,)),)), NorRow((5,), 6, rows),
                                          Init((((101,), (5,)),))])])
        monkeypatch.setattr(kernel, "_body", lambda: (group, rest, writes_its_input))
        caches = (kernel._lanes, kernel._body_flow)
        for cached in caches:
            cached.cache_clear()
        try:
            with pytest.raises(ValueError, match="writes a cell it reads before writing it"):
                kernel._lanes()
        finally:
            monkeypatch.undo()
            for cached in caches:
                cached.cache_clear()
        assert len(kernel._lanes().inputs) == 19

    @pytest.mark.parametrize("builder,fault,match", [
        ("_body", "writes_the_genome", "the body writes a cell a batch reads from the grid"),
        ("_body", "reads_row_120", "the body reads first other cells than the bitmaps, the counts and the threshold"),
        ("_front", "reads_pair_0", "the lanes read other cells than a batch packs"),
    ])
    def test_lanes_that_fail_the_proof_raise(self, monkeypatch, builder, fault, match):
        # each fault breaks one property of _lanes' proof, and only that
        # property's check fails
        broken = LANE_FAULTS[fault]()
        monkeypatch.setattr(kernel, builder, lambda: broken)
        kernel._body_flow.cache_clear()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
                kernel._lanes.__wrapped__()
        finally:
            monkeypatch.undo()
            kernel._body_flow.cache_clear()
        assert len(kernel._lanes().inputs) == 19


def _front_from_pair_0():
    # the front as it is built, but copying the window from pair 0,
    # whose columns no batch packs
    copy, _ = kernel._copy(plan_layout(), 0)
    pb = ProgramBuilder()
    with pb.step("3"):
        kernel._compare(pb, (range(FRAGMENT_ROWS),), (kernel._MASK_COL,))
    return Block((("2", copy), *pb.build().head))


LANE_FAULTS = {
    # the body, then an Init of the genome slice's cell (0, 0)
    "writes_the_genome": lambda: (*_body(), Block([(None, [Init((((0,), (0,)),))])])),
    # the body, then a NOT of row 120 of column 250, which nothing writes
    "reads_row_120": lambda: (*_body(), Block([(None, [Init((((120,), (251,)),)), NorRow((250,), 251, (120,))])])),
    "reads_pair_0": _front_from_pair_0,
}


def _moved_100_columns_right(write):
    def fake(base, n):
        op = write(base, n)
        return WriteExternal(tuple((r, c + 100) for r, c in op.cells), op.bits)
    return fake


def _short_at_100(write):
    def fake(base, n):
        op = write(base, n)
        return WriteExternal(op.cells[:7], op.bits[:7]) if n == 100 else op
    return fake


COUNT_FAULTS = {
    "every_base_in_lane_a": lambda write: lambda base, n: write("A", n),
    "off_the_count_columns": _moved_100_columns_right,
    "count_100_sets_7_cells": _short_at_100,
}


class TestBatches:
    @pytest.mark.parametrize("read_length", [100, 64, 37, 1])
    def test_batches_match_one_by_one_runs(self, read_length):
        # one location per row phase, each on one of three tiles' states,
        # in batches of 1, 3, 64 and 65 locations that span the states:
        # every location's discard, cycles and steps, and every state's
        # grid, must be those of the same locations run one by one
        # through build_program and execute
        layout = plan_layout(read_length)
        rng = random.Random(7 + read_length)
        genome = synth_genome(3 * TILE_STRIDE + FRAGMENT_ROWS + 50, rng)
        tiles = partition(len(genome))[:3]
        locations = [(rng.randrange(3), FRAGMENT_ROWS * rng.randrange(64) + r0, random_counts(rng, read_length))
                     for r0 in range(FRAGMENT_ROWS)]
        rng.shuffle(locations)

        def states():
            out = [CrossbarState() for _ in tiles]
            for state, tile in zip(out, tiles):
                load_tile(state, layout, genome, tile, read_length // 2, EVERY_PAIR)
            return out

        alone = states()
        want = []
        for t, offset, counts in locations:
            res = interpreted(alone[t], layout, counts, offset)
            want.append((res.readout[0], res.compute_cycles, res.init_cycles, dict(res.steps)))
        for size in (1, 3, 64, 65):
            batched, results, batches = states(), [], []
            for n, (t, offset, counts) in enumerate(locations):
                if n % size == 0:
                    batch = kernel.Batch()
                    batches.append(batch)
                results.append(run_kernel(batched[t], layout, counts, offset, batch=batch))
            for batch in batches:
                batch.run()
            assert [(res.readout[0], res.compute_cycles, res.init_cycles, dict(res.steps)) for res in results] == want
            assert [state.cols for state in batched] == [state.cols for state in alone], size

    @pytest.mark.parametrize("then", ["run", "grid read"])
    def test_a_batch_runs_itself_at_its_cap(self, then):
        # 257 locations at mixed read lengths and row phases queued on one
        # batch: add runs it at the 256th, which fills the first 256
        # readouts, and the 257th waits until the batch runs or the grid
        # is read. Each result is execute's: its readout the one its
        # location fills, its steps its shape's report
        rng = random.Random(257)
        genome = synth_genome(6600, rng)
        state = CrossbarState()
        load_tile(state, plan_layout(100), genome, partition(len(genome))[0], 1, EVERY_PAIR)
        batch, results = kernel.Batch(), []
        for i in range(kernel._BATCH + 1):
            read_length = rng.choice((100, 64, 37, 1))
            offset = rng.randint(0, TILE_STRIDE)
            res = run_kernel(state, plan_layout(read_length), random_counts(rng, read_length), offset, batch=batch)
            assert res.__class__ is ExecResult
            assert state._replay[-1].readout is res.readout
            assert res.steps is kernel._shape(read_length, offset % FRAGMENT_ROWS).cycles[2]
            results.append(res)
            filled = sum(bool(r.readout) for r in results)
            assert filled == (kernel._BATCH if i >= kernel._BATCH - 1 else 0), i
        assert len(batch.entries) == 1 and not results[-1].readout
        if then == "run":
            batch.run()
        else:
            state.cols  # replays every location, the 257th's batch run first
        assert not batch.entries and len(results[-1].readout) == 1
        state.cols  # each replay checks its readout against its program's
        assert all(len(res.readout) == 1 for res in results)


class TestLiveRows:
    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_every_unit_is_exact_on_the_rows_live_after_it(self, lanes):
        # each unit of the lanes is compiled from the rows live after it
        # (crossbar._live): from random inputs, on B lanes, every value it
        # returns must hold, on the rows it writes that are live after
        # it, what interpreting its ops leaves on a grid holding the same
        # inputs and the values the unit takes as known on entry; and its
        # read bits must be the interpreter's. A unit over n spans holds
        # span x of location j in lane x * B + j, and one that folds them
        # at row shift x of lane j, so each span has its own grid
        rng = random.Random(lanes)
        units = kernel._lanes()._units
        for u, (unit, n) in enumerate(units):
            assert _dataflow(unit.ops)[0], u  # so each unit may be interpreted alone
            stride, lo, width = unit.fmt
            spans = unit.fold[1]
            grids = [[[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(max(n, spans))]
                     for _ in range(lanes)]
            for g in itertools.chain(*grids):
                for k, value in unit.entry.items():
                    g[k] = value
            params = []
            for k, live in unit.loads:
                if spans > 1:
                    values = [sum((span[k] & live) << x for x, span in enumerate(lane)) for lane in grids]
                else:
                    values = [(lane[x][k] & live) >> lo for x in range(n) for lane in grids]
                params.append(_pack(values, stride))
            bits = []
            got = unit.run(bits.append, unit.constants(n * lanes), *params)
            band = (1 << width) - 1
            for j, lane in enumerate(grids):
                for x, g in enumerate(lane):
                    readout = []
                    _interpret(unit.ops, g, readout, True, None)
                    assert [v >> stride * j & 1 for v in bits] == readout, (u, j)
                    for (k, rows), value in zip(unit.stores, got):
                        if spans > 1:
                            value = (value >> stride * j & band) >> x
                        else:
                            value = (value >> stride * (x * lanes + j) & band) << lo
                        live = rows & unit.after[k]
                        assert value & live == g[k] & live, (u, j, x, k)
        assert sum(unit.reads for unit, _ in units) == 1

    def test_a_cone_line_that_is_not_its_nor_gates_raises(self, monkeypatch):
        # the cone pass proves each line on every leaf pattern against the
        # NOR gates it replaces: an expression table that maps the
        # three-leaf XOR (the adders' sums) to a three-leaf OR, at the same
        # cost, must fail the build of the lanes
        table = dict(crossbar._expressions())
        xor3, or3 = 0xAA ^ 0xCC ^ 0xF0, 0xAA | 0xCC | 0xF0
        assert table[xor3][1] == table[or3][1] == 2
        table[xor3] = table[or3]
        monkeypatch.setattr(crossbar, "_expressions", lambda: table)
        kernel._lanes.cache_clear()
        try:
            with pytest.raises(ValueError, match="is not its NOR gates"):
                kernel._lanes()
        finally:
            monkeypatch.undo()
            kernel._lanes.cache_clear()
        assert len(kernel._lanes().inputs) == 19

    def test_every_gate_assigns_its_cells_so_no_init_line_is_left(self):
        # every Block is init-dominated, so a NorRow assigns its rows and a
        # NorCol its output row: no Init line (`|=`, `&=`) is left in lane
        # code. Each step-5 tail only moves row 0 of its span to its lane
        # row, through the stage row, so it runs as no unit: steps 6-13
        # read the lane rows of each result column straight from the
        # folded popcount, where span x's row 0 is row x and lane row
        # 100 + x its row, one masked term a column
        lanes = kernel._lanes()
        units = lanes._units
        assert not any(re.search(r"[&|]=", unit.text) for unit, _ in units)
        L = plan_layout()
        assert [L.lane_rows[base] for base in BASES] == list(range(FRAGMENT_ROWS, FRAGMENT_ROWS + len(BASES)))
        calls = [line for line in lanes._lines if re.match(r"u\d+ = ", line)]
        assert len(units) == len(calls) == 4 and calls[3].startswith("u3 = f3(")
        body = calls[3]
        for i, k in enumerate(L.res_cols):
            assert re.search(rf"from_bytes\(\(u2\[{i}\] & m\d+\)\.to_bytes", body), k


class TestLaneGroup:
    def test_group_covers_the_step_4_and_5_spans(self):
        group, rest = _body()
        assert isinstance(group, LaneGroup) and not isinstance(rest, LaneGroup)
        assert [label for label, _ in group.steps] == ["4", "5"] * 4
        for read_length in (100, 64, 37, 1):
            prog = build_program(plan_layout(read_length), 137, oracle.BaseCounts(read_length, 0, 0, 0))
            assert prog.blocks[1] is group, read_length

    def test_popcount_moves_fuse_to_one_line_per_column_per_level(self):
        # each popcount level moves its pairs with one run of NorCol ops,
        # none of which reads a row another one writes, so lane code has
        # one line per column the level moves on, every row live after
        # it: 28 lines for the template's 100 moves
        template = _body()[0].steps[0][1]
        levels = [list(ops) for is_col, ops in itertools.groupby(template, lambda op: op.__class__ is NorCol)
                  if is_col]
        assert len(levels) == (FRAGMENT_ROWS - 1).bit_length()
        assert sum(map(len, levels)) == FRAGMENT_ROWS
        lines = 0
        for ops in levels:
            src = crossbar._Source({}, (0, ROWS), "l")
            src.ops(ops, crossbar._live(ops, [crossbar._ROW_MASK] * COLS)[0])
            assert len(src.lines) == len({k for op in ops for k in op.cols})
            lines += len(src.lines)
        assert lines == 28

    def test_the_popcounts_fold_from_the_third_tree_level(self):
        # from op 105 of 388, the Init of the tree's third level, the
        # template touches only rows 0, 4, ..., 96 and the ones row 105,
        # so its four spans share one lane from there; from the second
        # level's Init (op 59) every other row is still live
        template = _body()[0].steps[0][1]
        inits = [i for i, op in enumerate(template) if op.__class__ is Init]
        rows = sum(1 << r for r in range(0, FRAGMENT_ROWS, 4)) | 1 << plan_layout().ones_row
        assert len(template) == 388 and inits[:4] == [0, 2, 59, 105]
        assert crossbar._fold(template, 4) == (105, rows)
        assert crossbar._fold(template[59:], 4)[0] == 105 - 59
        assert kernel._lanes()._units[2][0].fold == (rows, 4)

    def test_each_block_is_one_function_of_pinned_length(self):
        # as lanes of locations, the front and the body are one function
        # per unit, with no `~` (so no negative value) and the same text
        # for any number of lanes: no constant is spelled out, each is a
        # name bound per lane count. Each unit is compiled from the rows
        # live after it: a gate assigns its cells, a dead gate and an Init
        # that only readies gate outputs emit no line, and a cone of
        # NorRows is one line of its cheapest
        # expression (crossbar._Cones). Past its def, K unpack and return
        # lines, the front is 4 lines, the template splits at its fold's
        # cut into 9 lines over four lanes a location and 84 over one, the
        # tails, which only move rows, run as no unit, and steps 6-13, on
        # a byte per lane, are 83 lines. The bitwise operators of those
        # lines are pinned too, so a pass that stops folding shows here
        rest = _body()[1]
        units = kernel._lanes()._units
        assert [(unit.fmt, n, unit.fold[1]) for unit, n in units] == \
            [((ROWS, 0, ROWS), 1, 1), ((ROWS, 0, ROWS), 4, 1), ((ROWS, 0, ROWS), 1, 4),
             ((8, FRAGMENT_ROWS, 4), 1, 1)]
        texts = [unit.text for unit, _ in units]
        assert not any("~" in text or "0x" in text for text in texts)
        assert [len(text.splitlines()) - 3 for text in texts] == [4, 9, 84, 83]
        assert [operators(text) for text in texts] == [12, 18, 219, 218]
        assert len(texts[-1].splitlines()) - 3 < sum(op.__class__ in (NorRow, NorCol) for op in rest.ops)

    def test_matches_the_spans_run_as_separate_blocks(self):
        # every row phase: the program with the group and the one with the
        # eight spans it holds, each as its own Block, hold the same ops and
        # report the same cycles per step
        group, _ = _body()
        spans = tuple(Block([step]) for step in group.steps)
        layout = plan_layout(100)
        rng = random.Random(23)
        for r0 in range(FRAGMENT_ROWS):
            a = rng.randint(0, 100)
            t = rng.randint(0, 100 - a)
            g = rng.randint(0, 100 - a - t)
            prog = build_program(layout, FRAGMENT_ROWS * rng.randrange(64) + r0,
                                 oracle.BaseCounts(a, t, g, 100 - a - t - g))
            phase, together, rest = prog.blocks
            assert together is group
            split = MicroProgram(prog.head, (phase, *spans, rest))
            assert split.ops == prog.ops
            assert split.cycles() == prog.cycles(), r0


def test_steps_6_to_13_run_on_their_4_row_band():
    # steps 6-13 touch only the four lane rows, so their lane code runs on
    # a byte per lane: from any inputs on the band, no value it returns
    # holds a bit off the band in any lane, nor any read bit one off bit
    # 0, so no lane spills into the next; the decisions and the
    # whole-input-domain tests check the values on the band
    rest = _body()[1]
    assert _band(rest.ops) == (FRAGMENT_ROWS, len(BASES))
    unit, _ = kernel._lanes()._units[-1]
    assert unit.ops is rest.ops and unit.fmt == (8, FRAGMENT_ROWS, len(BASES))
    rng = random.Random(13)
    for lanes in (1, 3, 64):
        params = [_pack([rows >> FRAGMENT_ROWS & rng.getrandbits(8) for _ in range(lanes)], 8)
                  for _, rows in unit.loads]
        bits = []
        values = unit.run(bits.append, unit.constants(lanes), *params)
        assert len(values) == len(unit.stores) and len(bits) == 1
        for value in values:
            assert max(value.to_bytes(lanes, "little")) < 1 << len(BASES), lanes
        assert max(bits[0].to_bytes(lanes, "little")) <= 1, lanes


def operators(text):
    """The bitwise operators of a unit's lines, past its def, K unpack and
    return lines."""
    return sum(len(re.findall(r"<<|>>|[&|^]", line)) for line in text.splitlines()[2:-1])


def packed(values, rows, bit):
    """A column over len(values) lanes: bit `bit` of values[x, i] in row
    rows[i] of lane x."""
    cells = np.zeros((len(values), ROWS), np.uint8)
    cells[:, rows] = values >> bit & 1
    return int.from_bytes(np.packbits(cells, bitorder="little").tobytes(), "little")


def unpacked(v, lanes, rows):
    """The cells of rows `rows` of a column over `lanes` lanes, one lane a row."""
    cells = np.unpackbits(np.frombuffer(v.to_bytes(lanes * ROWS // 8, "little"), np.uint8),
                          bitorder="little")
    return cells.reshape(lanes, ROWS)[:, rows].astype(int)


def live_ins(ops):
    return {k: rows for k, rows in enumerate(_dataflow(ops)[1]) if rows}


def banded(values, rows, bit):
    """A column over len(values) lanes of a byte each, the lane rows'
    band (Lanes' format of steps 6-13): bit `bit` of values[x, i] in row
    rows[i] of lane x."""
    cells = np.zeros((len(values), 8), np.uint8)
    cells[:, [r - FRAGMENT_ROWS for r in rows]] = values >> bit & 1
    return int.from_bytes(np.packbits(cells, bitorder="little").tobytes(), "little")


def unbanded(v, lanes, rows):
    """The cells of rows `rows` of a banded column, one lane a row."""
    cells = np.unpackbits(np.frombuffer(v.to_bytes(lanes, "little"), np.uint8), bitorder="little")
    return cells.reshape(lanes, 8)[:, [r - FRAGMENT_ROWS for r in rows]].astype(int)


def lane_unit(ops, cols, rows, lanes, inputs, fmt=(8, FRAGMENT_ROWS)):
    """Run ops as lane code (crossbar._Unit), exact only on rows `rows`
    of the columns `cols` (what the next stage reads), over `lanes` lanes
    of the format `fmt`, (stride, lo): by default the lane rows' band,
    each parameter from `inputs` (column -> value in that format, 0 if
    absent): its values by column and its read bits."""
    after = [0] * COLS
    for k in cols:
        after[k] = sum(1 << r for r in rows)
    unit = crossbar._Unit(ops, after)
    assert unit.fmt[:2] == fmt
    bits = []
    got = unit.run(bits.append, unit.constants(lanes), *(inputs.get(k, 0) for k, _ in unit.loads))
    return dict(zip((k for k, _ in unit.stores), got)), bits


class TestWholeInputDomain:
    def test_step_3_on_every_code_in_every_row(self):
        # step 3 reads only the inverted window bits (p_cols) on the rows
        # it covers, so four lanes that hold code (lane + row) % 4 put
        # every code on every row; each base's bitmap must be 1 exactly
        # where that base is stored
        L = plan_layout()
        rows = list(range(FRAGMENT_ROWS))
        ops = [op for label, step in kernel._phase((range(FRAGMENT_ROWS),)).steps if label == "3"
               for op in step]
        assert live_ins(ops) == {k: (1 << FRAGMENT_ROWS) - 1 for k in L.p_cols}

        # as lane code on a whole column per lane, exact on the bitmaps
        codes = (np.arange(4)[:, None] + np.arange(FRAGMENT_ROWS)) % 4
        inputs = {k: packed(1 - (codes >> shift & 1), rows, 0)  # the window is kept inverted
                  for k, shift in zip(L.p_cols, (1, 0))}
        out, bits = lane_unit(ops, L.match_cols.values(), rows, 4, inputs, (ROWS, 0))
        assert not bits  # step 3 reads no cell out
        for base, (a, b) in kernel.BASE_CODES.items():
            assert (unpacked(out[L.match_cols[base]], 4, rows) == (codes == 2 * a + b)).all(), base

    def test_steps_6_and_7_on_every_count_pair(self):
        # steps 6-7 read only the window counts (res_cols) and the read
        # counts (rb_cols) on the four lane rows, so one pass of their
        # lane code over 4096 lanes, one (window, read) pair per lane row, runs
        # all 16,384 pairs of 7-bit counts; each must leave |window -
        # read| in z_cols, where round 1 reads it
        L = plan_layout()
        ops = [op for label, step in _body()[1].steps if label in ("6", "7") for op in step]
        rows = [L.lane_rows[b] for b in BASES]
        assert live_ins(ops) == {k: sum(1 << r for r in rows) for k in L.res_cols + L.rb_cols}

        lanes = 4096
        pair = np.arange(128 * 128).reshape(lanes, len(rows))
        window, read = pair >> 7, pair & 127
        inputs = {k: banded(values, rows, bit) for cols, values in ((L.res_cols, window), (L.rb_cols, read))
                  for bit, k in enumerate(cols)}
        out, bits = lane_unit(ops, L.z_cols, rows, lanes, inputs)
        z = sum(unbanded(out[k], lanes, rows) << bit for bit, k in enumerate(L.z_cols))
        assert (z == abs(window - read)).all() and not bits

    def test_steps_8_to_11_on_every_input_of_each_adder_round(self):
        # steps 8-11 split at each adder round's Init. Round 1 reads two
        # 7-bit absolute differences (z_cols) per lane pair, 14 bits, and
        # round 2 two 8-bit first sums (s1_cols) on lanes A and G, 16 bits;
        # besides those each reads only the zero cell seeded in step 6. So
        # the stages compose: round 1 reads what steps 6-7 write, round 2
        # what round 1 writes, and step 12 what round 2 writes. Two runs of
        # 4096 lanes, each lane holding two pairs, cover round 1's 16,384
        # inputs, and 16 runs cover round 2's 65,536
        L = plan_layout()
        body = _body()[1]
        rows = [L.lane_rows[b] for b in BASES]
        lane_a, _, lane_g, _ = rows
        every_lane = sum(1 << r for r in rows)

        def step(*labels):
            return [op for label, ops in body.steps if label in labels for op in ops]

        stage = step("8-11")
        cuts = [i for i, op in enumerate(stage) if op.__class__ is Init]
        assert cuts[0] == 0 and len(cuts) == 2
        round1, round2 = stage[:cuts[1]], stage[cuts[1]:]
        zero = {L.q0_col: every_lane}
        assert live_ins(round1) == {**{k: every_lane for k in L.z_cols},
                                    L.q0_col: 1 << lane_a | 1 << lane_g}
        assert live_ins(round2) == {**{k: 1 << lane_a | 1 << lane_g for k in L.s1_cols},
                                    L.q0_col: 1 << lane_a}
        assert _dataflow(step("6"))[2][L.q0_col] == every_lane
        threshold = {k: 1 << lane_a for k in L.thr_cols}  # stored with the tile
        for ops, before, constants in ((round1, step("6", "7"), {}), (round2, round1, zero),
                                       (step("12"), round2, {**zero, **threshold})):
            written = _dataflow(before)[2]
            for k, live in live_ins(ops).items():
                assert live & ~written[k] & ~constants.get(k, 0) == 0, k

        lanes = 4096
        for run in range(2):
            # (A, T) holds v and (G, C) 16383 - v: each 7-bit half of the
            # one differs from the same half of the other, and the two
            # runs give each of the 16,384 inputs to one of the pairs
            v = lanes * run + np.arange(lanes)
            z = np.stack([v >> 7, v & 127, (16383 - v) >> 7, (16383 - v) & 127], axis=1)
            # exact on the first sums round 2 reads; the zero cell holds 0
            out, bits = lane_unit(round1, L.s1_cols, [lane_a, lane_g], lanes,
                                  {k: banded(z, rows, bit) for bit, k in enumerate(L.z_cols)})
            assert not bits  # steps 8-11 read no cell out
            s1 = sum(unbanded(out[k], lanes, [lane_a, lane_g]) << bit for bit, k in enumerate(L.s1_cols))
            assert (s1 == z[:, [0, 2]] + z[:, [1, 3]]).all()

        for pair in np.arange(1 << 16).reshape(-1, lanes):
            s1 = np.stack([pair >> 8, pair & 255], axis=1)
            out, _ = lane_unit(round2, L.total_cols, [lane_a], lanes,
                               {k: banded(s1, [lane_a, lane_g], bit) for bit, k in enumerate(L.s1_cols)})
            total = sum(unbanded(out[k], lanes, [lane_a]) << bit for bit, k in enumerate(L.total_cols))
            assert (total[:, 0] == s1[:, 0] + s1[:, 1]).all()

    def test_steps_12_and_13_on_every_threshold_and_total(self):
        # steps 12-13 read the threshold, the low eight bits of the total
        # and the zero cell seeded in step 6, on lane A's row only, so 16
        # passes of their lane code over 4096 lanes cover all 65,536
        # pairs of 8-bit values; the bit read out must be 1 exactly when
        # the total exceeds the threshold
        L = plan_layout()
        ops = [op for label, step in _body()[1].steps if label in ("12", "13") for op in step]
        row = L.lane_rows["A"]
        assert live_ins(ops) == {k: 1 << row for k in L.thr_cols + L.total_cols[:8] + (L.q0_col,)}

        lanes = 4096
        for pair in np.arange(1 << 16).reshape(-1, lanes, 1):
            threshold, total = pair >> 8, pair & 255
            # nothing live after it but the bit it reads; the zero cell
            # holds 0
            _, readout = lane_unit(ops, (), (), lanes, {k: banded(values, [row], bit)
                                                        for cols, values in ((L.thr_cols, threshold),
                                                                             (L.total_cols[:8], total))
                                                        for bit, k in enumerate(cols)})
            (bits,) = readout
            assert (unbanded(bits, lanes, [FRAGMENT_ROWS]) == (total > threshold)).all()


class TestDecisions:
    def test_exact_window_kept_at_zero_threshold(self, layout, tile_state):
        genome, state = tile_state
        counts = oracle.histogram(genome[200:300])
        store_threshold(state, layout, 0)
        res = run_kernel(state, layout, counts, 200)
        assert res.readout[0] == 0

    def test_all_a_read_against_all_a_window(self, layout):
        genome = "A" * 6500
        state = CrossbarState()
        load_tile(state, layout, genome, partition(len(genome))[0], eth=0, pairs=EVERY_PAIR)
        counts = oracle.BaseCounts(100, 0, 0, 0)
        assert run_kernel(state, layout, counts, 0).readout[0] == 0

    def test_fully_disjoint_alphabets_discard(self, layout):
        genome = "G" * 50 + "C" * 6450
        state = CrossbarState()
        load_tile(state, layout, genome, partition(len(genome))[0], eth=10, pairs=EVERY_PAIR)
        counts = oracle.BaseCounts(50, 50, 0, 0)  # error 200 > 20
        assert run_kernel(state, layout, counts, 0).readout[0] == 1

    def test_boundary_error_exactly_twice_eth(self, layout):
        # window has k non-A bases against an all-A read: error = 2k
        k = 7
        genome = "T" * k + "A" * 6500
        state = CrossbarState()
        load_tile(state, layout, genome, partition(len(genome))[0], eth=k, pairs=EVERY_PAIR)
        counts = oracle.BaseCounts(100, 0, 0, 0)
        assert run_kernel(state, layout, counts, 0).readout[0] == 0
        store_threshold(state, layout, k - 1)
        assert run_kernel(state, layout, counts, 0).readout[0] == 1

    def test_window_lands_in_p_as_row_rotation(self, layout, tile_state):
        # the inverted window copy rotates rows by the in-fragment phase
        genome, state = tile_state
        offset = 250  # split across two fragments, phase 50
        counts = oracle.histogram("ACGT" * 25)
        run_kernel(state, layout, counts, offset)
        window = genome[offset:offset + 100]
        r0 = offset % 100
        cells = snapshot(state)
        for r in range(100):
            pa, pb = cells[r, layout.p_cols[0]], cells[r, layout.p_cols[1]]
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
            load_tile(state, layout, genome, partition(len(genome))[0], eth=3, pairs=EVERY_PAIR)
            results.append(run_kernel(state, layout, counts, 0).readout[0])
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
            assert res.readout[0] == oracle.decide(counts, genome[offset:offset + 100], eth)


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

    @pytest.mark.parametrize("read_length", [100, 64, 1])
    def test_threshold_is_the_value_write(self, read_length):
        layout = plan_layout(read_length)
        cells = [(layout.lane_rows["A"], c) for c in layout.thr_cols]
        rng = random.Random(read_length)
        grid = [rng.getrandbits(ROWS) for _ in range(COLS)]
        for eth in range(read_length + 1):
            stored, written = CrossbarState(), CrossbarState()
            stored.cols[:] = written.cols[:] = grid
            store_threshold(stored, layout, eth)
            written.write_value(cells, 2 * eth)
            assert stored.cols == written.cols, eth
        with pytest.raises(ValueError, match="edit threshold out of range"):
            store_threshold(stored, layout, read_length + 1)

    def test_program_taint_clean(self, layout):
        prog = build_program(layout, 123, oracle.BaseCounts(100, 0, 0, 0))
        defined = {(r, c) for r in range(100) for c in range(layout.genome_cols)}
        defined |= {(layout.lane_rows["A"], c) for c in layout.thr_cols}
        assert live_cells(prog) <= defined

    def test_short_reads_supported(self):
        short = plan_layout(read_length=60)
        genome = "ACGT" * 1700
        state = CrossbarState()
        load_tile(state, short, genome, partition(len(genome), 60)[0], eth=2, pairs=EVERY_PAIR)
        rng = random.Random(9)
        for _ in range(8):
            offset = rng.randint(0, 6400)
            read = synth_genome(60, rng)
            counts = oracle.histogram(read)
            res = run_kernel(state, short, counts, offset)
            assert res.readout[0] == oracle.decide(counts, genome[offset:offset + 60], 2)

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
                load_tile(state, layout, genome, tile, eth, EVERY_PAIR)
                res = run_kernel(state, layout, counts, offset, strict=strict)
                assert res.readout[0] == want, (r0, strict)
        assert decisions == {0, 1}

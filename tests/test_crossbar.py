import itertools
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimfilter.crossbar import (
    COLS,
    ROWS,
    Block,
    CrossbarState,
    Init,
    LaneGroup,
    Lanes,
    MicroOpError,
    MicroProgram,
    NorCol,
    NorRow,
    ProgramBuilder,
    ReadCell,
    WriteExternal,
    _band,
    _dataflow,
    _fold,
    _interpret,
    _lower,
    _pack,
    _Unit,
    execute,
)
from pimfilter.gates import _adder_gates

from dataflow import annotations, live_cells
from grid import load_grid, snapshot


def fresh():
    return CrossbarState()


def unlabelled(ops):
    """Steps holding `ops` outside every step label."""
    return ((None, list(ops)),)


def run_op(op, state=None, strict=True):
    """Execute a one-op program; the crossbar contract raises MicroOpError."""
    return execute(MicroProgram(unlabelled([op])), state or fresh(), strict=strict)


class TestValidate:
    def test_output_among_inputs(self):
        with pytest.raises(MicroOpError, match="output among inputs"):
            run_op(NorRow((3, 4), 3, (0,)))

    def test_ok_when_output_initialized(self):
        s = fresh()
        s.set_bits([(0, 5)], [1])
        assert run_op(NorRow((3, 4), 5, (0,)), s).compute_cycles == 1

    def test_row_out_of_bounds(self):
        with pytest.raises(MicroOpError, match="row out of bounds"):
            run_op(ReadCell(200, 0))

    def test_column_out_of_bounds(self):
        with pytest.raises(MicroOpError, match="column out of bounds"):
            run_op(NorRow((300,), 5, (0,)))

    def test_uninitialized_output_flagged_in_strict_only(self):
        op = NorRow((3, 4), 5, (0,))
        with pytest.raises(MicroOpError, match="not initialized"):
            run_op(op, strict=True)
        run_op(op, strict=False)

    def test_write_external_shape(self):
        with pytest.raises(MicroOpError, match="bit count"):
            run_op(WriteExternal(((0, 0),), (1, 0)))

    def test_a_non_op_is_named_before_any_op_runs(self):
        # an object that is not a micro-op raises TypeError naming its
        # class, from execute before the first op runs and from Block
        s = fresh()
        before = list(s.cols)
        ops = [Init((((0,), (5,)),)), NorRow((3,), 5, (0,)), object()]
        with pytest.raises(TypeError, match="^object is not a micro-op$"):
            execute(MicroProgram(unlabelled(ops)), s)
        with pytest.raises(TypeError, match="^object is not a micro-op$"):
            Block(unlabelled(ops))
        assert s.cols == before


class TestExecute:
    def test_init_then_nor(self):
        s = fresh()
        pb = ProgramBuilder()
        pb.init(((0,), (5,)))
        pb.nor_row((3, 4), 5, (0,))
        res = execute(pb.build(), s)
        assert snapshot(s)[0, 5] == 1  # NOR(0, 0) = 1
        assert res.compute_cycles == 1
        assert res.init_cycles == 1

    def test_nor_with_high_input(self):
        s = fresh()
        s.set_bits([(0, 3)], [1])
        pb = ProgramBuilder()
        pb.init(((0,), (5,)))
        pb.nor_row((3, 4), 5, (0,))
        execute(pb.build(), s)
        assert snapshot(s)[0, 5] == 0

    def test_row_parallel_truth_table(self):
        s = fresh()
        s.set_bits([(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 3), (3, 4)],
                   [0, 0, 0, 1, 1, 0, 1, 1])
        pb = ProgramBuilder()
        pb.init((range(0, 4), (5,)))
        pb.nor_row((3, 4), 5, range(0, 4))
        res = execute(pb.build(), s)
        assert s.get_bits([(0, 5), (1, 5), (2, 5), (3, 5)]) == [1, 0, 0, 0]
        assert res.compute_cycles == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nor_exhaustive(self, k):
        # all input patterns for a k-input NOR, one pattern per row
        patterns = list(itertools.product((0, 1), repeat=k))
        s = fresh()
        for r, bits in enumerate(patterns):
            s.set_bits([(r, c) for c in range(k)], bits)
        pb = ProgramBuilder()
        pb.init((range(len(patterns)), (k,)))
        pb.nor_row(tuple(range(k)), k, range(len(patterns)))
        execute(pb.build(), s)
        for r, bits in enumerate(patterns):
            assert snapshot(s)[r, k] == (0 if any(bits) else 1)

    @pytest.mark.parametrize("n", [1, 2, 17, 100, 128])
    def test_row_parallelism_costs_one_cycle(self, n):
        s = fresh()
        pb = ProgramBuilder()
        pb.init((range(n), (9,)))
        pb.nor_row((3,), 9, range(n))
        res = execute(pb.build(), s)
        assert res.compute_cycles == 1

    def test_column_gate(self):
        s = fresh()
        s.set_bits([(3, 0), (3, 1), (3, 2)], [0, 1, 0])
        pb = ProgramBuilder()
        pb.init(((7,), (0, 1, 2)))
        pb.nor_col((3,), 7, (0, 1, 2))
        res = execute(pb.build(), s)
        assert s.get_bits([(7, 0), (7, 1), (7, 2)]) == [1, 0, 1]
        assert res.compute_cycles == 1

    @pytest.mark.parametrize("lines", [
        (0, 1, 2),                               # few adjacent lines
        range(10, 60),                           # range of many lines
        tuple(range(5, 100, 3)),                 # strided tuple
        (1, 4, 9, 16, 25, 36, 49, 64, 81),       # irregular tuple
    ])
    @pytest.mark.parametrize("strict", [True, False])
    def test_column_nor_is_row_nor_on_transpose(self, lines, strict):
        rng = np.random.default_rng(3)
        grid = rng.integers(0, 2, size=(128, 128), dtype=np.uint8)
        members, ins, out = list(lines), (3, 7, 11), 20
        if strict:
            grid[members, out] = 1
        row, col = fresh(), fresh()
        load_grid(row, np.pad(grid, ((0, 0), (0, COLS - 128))))
        load_grid(col, np.pad(grid.T, ((0, 0), (0, COLS - 128))))
        run_op(NorRow(ins, out, lines), row, strict=strict)
        run_op(NorCol(ins, out, lines), col, strict=strict)
        want = 1 - grid[np.ix_(members, ins)].any(axis=1)
        if not strict:
            want &= grid[members, out]
        assert (snapshot(row)[members, out] == want).all()
        assert (snapshot(col)[:, :128] == snapshot(row)[:, :128].T).all()
        assert not snapshot(row)[:, 128:].any() and not snapshot(col)[:, 128:].any()

    def test_frame_property(self):
        # cells not addressed by an op are unchanged
        s = fresh()
        rng = np.random.default_rng(0)
        load_grid(s, rng.integers(0, 2, size=(ROWS, COLS), dtype=np.uint8))
        before = snapshot(s).copy()
        pb = ProgramBuilder()
        pb.init((range(10, 20), (5,)))
        pb.nor_row((3, 4), 5, range(10, 20))
        pb.nor_col((12,), 40, (7, 8))
        execute(pb.build(), s, strict=False)
        touched = np.zeros_like(before, dtype=bool)
        touched[10:20, 5] = True
        touched[40, 7:9] = True
        assert (snapshot(s)[~touched] == before[~touched]).all()

    def test_replay_is_deterministic(self):
        rng = np.random.default_rng(1)
        base = fresh()
        load_grid(base, rng.integers(0, 2, size=(ROWS, COLS), dtype=np.uint8))
        pb = ProgramBuilder()
        pb.init((range(0, 50), (10, 11, 12)))
        pb.nor_row((0, 1), 10, range(0, 50))
        pb.nor_row((10,), 11, range(0, 50))
        pb.write(((60, 60),), (1,))
        pb.read(60, 60)
        prog = pb.build()
        s1, s2 = fresh(), fresh()
        load_grid(s1, snapshot(base))
        load_grid(s2, snapshot(base))
        r1, r2 = execute(prog, s1), execute(prog, s2)
        assert (snapshot(s1) == snapshot(s2)).all()
        assert (r1.readout, r1.compute_cycles, r1.init_cycles) == \
               (r2.readout, r2.compute_cycles, r2.init_cycles)

    def test_strict_aborts_on_uninitialized_output(self):
        pb = ProgramBuilder()
        pb.nor_row((3, 4), 5, (0,))
        with pytest.raises(MicroOpError, match="not initialized"):
            execute(pb.build(), fresh())

    @pytest.mark.parametrize("gate,lines", [
        (NorRow, (0, 1, 2)), (NorRow, tuple(range(20, 32))), (NorCol, (0, 1, 2)),
    ])
    def test_strict_failure_switches_no_cell(self, gate, lines):
        # a gate checks its whole output set before it switches any cell
        s = fresh()
        cells = np.zeros((ROWS, COLS), np.uint8)
        grid = cells if gate is NorRow else cells.T
        grid[list(lines), 3] = 1        # every line's NOR gives 0
        grid[list(lines[:-1]), 5] = 1   # each output but the last holds 1
        load_grid(s, cells)
        before = snapshot(s).copy()
        with pytest.raises(MicroOpError, match="not initialized"):
            run_op(gate((3, 4), 5, lines), s)
        assert (snapshot(s) == before).all()

    def test_permissive_masks_output(self):
        # output <- old AND NOR(inputs): a 0 output can never flip back to 1
        s = fresh()
        s.set_bits([(0, 3), (0, 5)], [0, 0])
        pb = ProgramBuilder()
        pb.nor_row((3,), 5, (0,))
        execute(pb.build(), s, strict=False)
        assert snapshot(s)[0, 5] == 0  # NOR says 1, stale 0 wins

        s.set_bits([(1, 5)], [1])
        pb = ProgramBuilder()
        pb.nor_row((3,), 5, (1,))
        execute(pb.build(), s, strict=False)
        assert snapshot(s)[1, 5] == 1

    def test_permissive_still_rejects_aliasing(self):
        pb = ProgramBuilder()
        pb.nor_row((5,), 5, (0,))
        with pytest.raises(MicroOpError, match="output among inputs"):
            execute(pb.build(), fresh(), strict=False)

    def test_write_external_cost_and_read(self):
        s = fresh()
        pb = ProgramBuilder()
        pb.write(((2, 2), (2, 3)), (1, 0))
        pb.read(2, 2)
        pb.read(2, 3)
        res = execute(pb.build(), s)
        assert res.readout == [1, 0]
        assert res.compute_cycles == 2 + 2  # fixed write cost + one per read

    def test_bad_last_op_aborts_before_any_op_runs(self):
        s = fresh()
        load_grid(s, np.random.default_rng(2).integers(0, 2, size=(ROWS, COLS), dtype=np.uint8))
        before = snapshot(s).copy()
        pb = ProgramBuilder()
        with pb.step("a"):
            pb.init((range(0, 20), (5,)))
            pb.nor_row((3, 4), 5, range(0, 20))
        with pb.step("b"):
            pb.write(((60, 60),), (1,))
            pb.read(200, 0)
        prog = pb.build()
        # the bad op is numbered across the steps
        with pytest.raises(MicroOpError, match="row out of bounds") as err:
            execute(prog, s)
        assert err.value.op_index == len(prog.ops) - 1
        assert (snapshot(s) == before).all()

    @pytest.mark.parametrize("lines", [(0, 0), (0,) * 9 + tuple(range(1, 9))])
    def test_repeated_line_switches_once(self, lines):
        # a gate acts on a set of lines: a repeated line must not see its
        # own output as an uninitialized cell
        s = fresh()
        s.set_bits([(r, c) for r in range(9) for c in (3, 5)], [1] * 18)
        run_op(NorRow((3,), 5, lines), s, strict=True)
        assert not snapshot(s)[sorted(set(lines)), 5].any()


class TestProgram:
    def test_builder_step_spans(self):
        # each step holds the ops emitted inside it; an empty step is
        # dropped, and steps cannot nest
        pb = ProgramBuilder()
        with pb.step("x"):
            pb.init(((0,), (1,)))
        with pb.step("y"):
            pb.nor_row((0,), 1, (0,))
            with pytest.raises(RuntimeError, match="cannot nest"):
                with pb.step("z"):
                    pass
        with pb.step("x"):
            pass
        prog = pb.build()
        assert [(label, [op.describe() for op in ops]) for label, ops in prog.head] == \
               [("x", ["init [0]x[1]"]), ("y", ["nor_row in=[0] out=1 rows=[0]"])]
        assert prog.blocks == ()

    def test_op_outside_every_step_is_rejected(self):
        # an op before, between or after the steps leaves a gap or a tail
        for outside in (0, 1, 2):
            pb = ProgramBuilder()
            for k in range(3):
                if k == outside:
                    pb.init(((0,), (9,)))
                if k < 2:
                    with pb.step("xy"[k]):
                        pb.init(((0,), (k,)))
            with pytest.raises(ValueError, match="outside every step"):
                pb.build()

    def test_per_step_cycle_report(self):
        pb = ProgramBuilder()
        with pb.step("a"):
            pb.init(((0,), (1, 2)))
            pb.nor_row((0,), 1, (0,))
        with pb.step("b"):
            pb.nor_row((1,), 2, (0,))
        res = execute(pb.build(), fresh())
        assert res.steps["a"].compute == 1 and res.steps["a"].init == 1
        assert res.steps["b"].compute == 1 and res.steps["b"].init == 0

    def test_trace_format(self):
        lines = []
        pb = ProgramBuilder()
        pb.init(((0,), (5,)))
        pb.nor_row((3, 4), 5, (0,))
        pb.read(0, 5)
        execute(pb.build(), fresh(), trace=lines.append)
        assert lines[0].startswith("init 1 init ")
        assert lines[1].startswith("compute 1 nor_row ")
        assert lines[2].startswith("compute 2 read ")


class TestTaint:
    def test_clean_program(self):
        pb = ProgramBuilder()
        pb.init(((0,), (5,)))
        pb.nor_row((3, 4), 5, (0,))
        assert live_cells(pb.build()) <= {(0, 3), (0, 4)}

    def test_read_before_define(self):
        pb = ProgramBuilder()
        pb.init(((0,), (5,)))
        pb.nor_row((3, 4), 5, (0,))
        assert live_cells(pb.build()) - {(0, 3)} == {(0, 4)}


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=64),
       k=st.integers(1, 3))
def test_nor_row_matches_boolean_model(bits, k):
    rows = len(bits) // k
    if rows == 0:
        return
    s = CrossbarState()
    table = [bits[r * k:(r + 1) * k] for r in range(rows)]
    for r, pattern in enumerate(table):
        s.set_bits([(r, c) for c in range(k)], pattern)
    pb = ProgramBuilder()
    pb.init((range(rows), (k,)))
    pb.nor_row(tuple(range(k)), k, range(rows))
    execute(pb.build(), s)
    for r, pattern in enumerate(table):
        assert snapshot(s)[r, k] == int(not any(pattern))


# Differential check: execute against a cell-by-cell model of the crossbar
# contract. The ops address a 16x16 window of the grid whose origin is drawn
# so that it also lands on the far edges: rows 112-127 are the top bits of
# each packed column, and column 255 is the last column.
GRID = 16


def members(spec):
    return (spec,) if isinstance(spec, int) else tuple(spec)


def model_run(program, grid, strict):
    """Reference semantics: (cells, readout, compute, init, steps, trace, failed).

    A strict gate that finds an output cell at 0 stops the run before it
    switches any cell: `failed` is its op index, the cells and trace are
    those it left, and the cycle counts are None. Otherwise `failed` is None.
    """
    cells = grid.tolist()
    readout, costs, trace = [], [], []
    compute = init = 0
    for index, op in enumerate(program.ops):
        if isinstance(op, Init):
            for rs, cs in op.regions:
                for r in members(rs):
                    for c in members(cs):
                        cells[r][c] = 1
            cost = (0, 1)
        elif isinstance(op, (NorRow, NorCol)):
            row = isinstance(op, NorRow)
            ins, out, lines = ((op.input_cols, op.output_col, op.rows) if row
                               else (op.input_rows, op.output_row, op.cols))
            gates = [[(line, k) if row else (k, line) for k in ins + (out,)]
                     for line in sorted(set(members(lines)))]
            if strict and any(cells[r][c] != 1 for *_, (r, c) in gates):
                return cells, readout, None, None, None, trace, index
            for *inputs, (r, c) in gates:
                cells[r][c] &= int(not any(cells[i][j] for i, j in inputs))
            cost = (1, 0)
        elif isinstance(op, WriteExternal):
            for (r, c), b in zip(op.cells, op.bits):
                cells[r][c] = b
            cost = (2, 0)
        else:
            readout.append(cells[op.row][op.col])
            cost = (1, 0)
        compute += cost[0]
        init += cost[1]
        trace.append(f"init {init}" if isinstance(op, Init) else f"compute {compute}")
        costs.append(cost)
    steps = {}
    for label, start, end in annotations(program):
        if label is None:
            continue
        step = steps.setdefault(label, [0, 0])
        step[0] += sum(c for c, _ in costs[start:end])
        step[1] += sum(i for _, i in costs[start:end])
    return cells, readout, compute, init, steps, trace, None


def coords(lo):
    return st.integers(lo, lo + GRID - 1)


def line_sets(lo):
    hi = lo + GRID
    return st.one_of(
        coords(lo),
        st.builds(lambda a, n: range(a, min(hi, a + n)), coords(lo), st.integers(1, GRID)),
        st.builds(lambda a, n, k: tuple(range(a, min(hi, a + n * k), k)),
                  coords(lo), st.integers(1, GRID), st.integers(1, 5)),
        st.lists(coords(lo), min_size=1, max_size=GRID).map(tuple),
    )


@st.composite
def nor_ops(draw, strict, r0, c0):
    row = draw(st.booleans())
    gate, line = (c0, r0) if row else (r0, c0)
    ins = tuple(draw(st.lists(coords(gate), min_size=1, max_size=3, unique=True)))
    out = draw(coords(gate).filter(lambda v: v not in ins))
    lines = draw(line_sets(line))
    if row:
        op, region = NorRow(ins, out, lines), (lines, (out,))
    else:
        op, region = NorCol(ins, out, lines), ((out,), lines)
    # in strict mode most gates get their outputs initialized; the others
    # fail unless the drawn grid already holds 1 there
    return [Init((region,)), op] if strict and draw(st.integers(0, 4)) else [op]


def other_ops(r0, c0):
    cell = st.tuples(coords(r0), coords(c0))
    return st.one_of(
        st.lists(st.tuples(line_sets(r0), line_sets(c0)), min_size=1, max_size=2)
        .map(lambda regions: [Init(tuple(regions))]),
        st.builds(lambda cells, bits: [WriteExternal(
            tuple(cells), tuple(bits[:len(cells)]))],
            st.lists(cell, min_size=1, max_size=4),
            st.lists(st.integers(0, 1), min_size=4, max_size=4)),
        st.builds(lambda rc: [ReadCell(*rc)], cell),
    )


@st.composite
def programs(draw, strict, r0, c0):
    ops = [op for group in draw(st.lists(st.one_of(nor_ops(strict, r0, c0), other_ops(r0, c0)),
                                         min_size=1, max_size=12))
           for op in group]
    cuts = sorted(draw(st.sets(st.integers(1, len(ops) - 1), max_size=4))) if len(ops) > 1 else []
    bounds = [0] + cuts + [len(ops)]
    labels = draw(st.lists(st.sampled_from("abc"), min_size=len(bounds) - 1,
                           max_size=len(bounds) - 1))
    return MicroProgram(tuple((label, ops[start:end])
                              for label, start, end in zip(labels, bounds, bounds[1:])))


def origins(size):
    return st.sampled_from((0, size - GRID)) | st.integers(0, size - GRID)


def run_program(program, grid, strict):
    """execute on a copy of grid: (cells, ExecResult or None, MicroOpError or None, trace)."""
    state = fresh()
    load_grid(state, grid)
    trace = []
    try:
        res, err = execute(program, state, strict=strict, trace=trace.append), None
    except MicroOpError as exc:
        res, err = None, exc
    return snapshot(state).tolist(), res, err, trace


def with_block(program, cut):
    """The same program with ops[cut:] as one Block after the head of the
    others, each part with its share of the steps (a step that straddles
    the cut becomes two), or None when the ops are not init-dominated and
    Block rejects them."""
    head, tail, at = [], [], 0
    for label, ops in program.head:
        if at < cut:
            head.append((label, ops[:cut - at]))
        if at + len(ops) > cut:
            tail.append((label, ops[max(cut - at, 0):]))
        at += len(ops)
    if not _dataflow(lowered(program.ops[cut:]))[0]:
        with pytest.raises(ValueError, match="not init-dominated"):
            Block(tail)
        return None
    return MicroProgram(tuple(head), (Block(tail),))


@pytest.mark.parametrize("strict", [True, False])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_execute_matches_cell_model(strict, data):
    # the interpreter must agree with the cell model; the program with
    # its ops from a cut on as one Block, a step that straddles the cut
    # split in two, holds the same ops and merges the Block's cycle
    # report into the same one; a Block is built only from init-dominated
    # ops
    r0, c0 = data.draw(origins(ROWS)), data.draw(origins(COLS))
    program = data.draw(programs(strict, r0, c0))
    cut = data.draw(st.integers(0, len(program.ops) - 1))
    window = np.array(data.draw(st.lists(st.integers(0, 1), min_size=GRID * GRID,
                                         max_size=GRID * GRID)), dtype=np.uint8)
    grid = np.zeros((ROWS, COLS), np.uint8)
    grid[r0:r0 + GRID, c0:c0 + GRID] = window.reshape(GRID, GRID)
    cells, readout, compute, init, steps, model_trace, failed = model_run(program, grid, strict)
    got, res, err, trace = run_program(program, grid, strict)
    assert got == cells
    assert [" ".join(line.split(" ", 2)[:2]) for line in trace] == model_trace
    if failed is None:
        assert err is None
        assert res.readout == readout
        assert (res.compute_cycles, res.init_cycles) == (compute, init)
        assert {k: [v.compute, v.init] for k, v in res.steps.items()} == steps
    else:
        assert res is None
        assert err.op_index == failed
        assert err.violations == ["output not initialized"]

    model = model_run(program, grid, False)
    whole = with_block(program, 0)
    for prog in (whole, with_block(program, cut)):
        if prog is not None:
            assert prog.ops == program.ops
            c, i, report = prog.cycles()
            assert (c, i, {k: [v.compute, v.init] for k, v in report.items()}) == model[2:5]

    # a Block cannot fail in strict mode, whatever the grid held: a strict
    # run of it matches the cell model of a permissive one
    if whole is not None:
        assert model_run(program, grid, True) == model
        got, res, err, trace = run_program(whole, grid, True)
        assert err is None
        assert got == model[0]
        assert (res.readout, res.compute_cycles, res.init_cycles) == model[1:4]
        assert [" ".join(line.split(" ", 2)[:2]) for line in trace] == model[5]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_column_stays_in_range(data):
    # interpreted, a drawn program leaves every column in [0, 2**ROWS)
    # from a grid whose every cell is random; as lanes at B = 1 and 3, an
    # init-dominated one reads back in each lane what the interpreter
    # leaves on that lane's grid, so no lane's value spills into another
    r0, c0 = data.draw(origins(ROWS)), data.draw(origins(COLS))
    program = data.draw(programs(True, r0, c0))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    state = fresh()
    state.cols[:] = [rng.getrandbits(ROWS) for _ in range(COLS)]
    execute(program, state, strict=False)
    assert all(0 <= v < 1 << ROWS for v in state.cols)
    whole = with_block(program, 0)
    if whole is not None:
        lanes = reading_back(whole.blocks)
        for lane_count in (1, 3):
            grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
            assert run_as_lanes(lanes, grids) == interpreted_reads(whole.ops, grids), lane_count


def test_block_fails_in_its_second_chunk():
    # 101 ops, whose gate at block index 80, past the first 64 ops,
    # finds no Init of its output column, so the ops cannot form a Block,
    # and after one other op the interpreter fails there in strict mode
    rng = np.random.default_rng(5)
    grid = rng.integers(0, 2, size=(ROWS, COLS), dtype=np.uint8)
    grid[:, 120] = 0
    ops = []
    for k in range(50):
        lines = range(k, k + 20)
        ops += [Init(((lines, (150 + k,)),)), NorRow((k, k + 1), 150 + k, lines)]
    ops.insert(80, NorRow((3,), 120, range(0, 10)))
    with pytest.raises(ValueError, match="not init-dominated"):
        Block(unlabelled(ops))
    plain = MicroProgram(unlabelled([WriteExternal(((0, 0),), (1,))] + ops))
    for strict in (True, False):
        _, res, err, trace = run_program(plain, grid, strict)
        if strict:
            assert err.op_index == 81
            assert err.violations == ["output not initialized"]
            assert len(trace) == 81
        else:
            assert err is None and len(trace) == len(plain.ops)
            assert res.compute_cycles == 2 + 51


def lowered(ops):
    for op in ops:
        assert _lower(op) == [], op
    return ops


def test_compile_at_256_lanes():
    # a mask repeated in 256 lanes has about 9900 decimal digits, past the
    # default int-to-str limit of 4300; lane code names each constant and
    # binds it per lane count, so it spells out none
    default = getattr(sys.int_info, "default_max_str_digits", 4300)
    assert ROWS * 256 * 0.30103 > default
    ops = lowered([Init(((range(0, ROWS), (3, 4)),)), NorRow((1, 2), 3, range(0, ROWS)),
                   Init((((9,), (1, 5)),)), NorCol((0, 70, ROWS - 1), 9, (1, 5)),
                   WriteExternal(((ROWS - 1, 2), (0, 4)), (0, 1)), ReadCell(9, 5)])
    rng = random.Random(8)
    grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(256)]
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is not None:
        saved = limit()
        sys.set_int_max_str_digits(default)
    try:
        got = run_as_lanes(reading_back([Block(unlabelled(ops))]), grids)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(saved)
    assert got == interpreted_reads(ops, grids)


def snapshot_cols(grid):
    """The packed columns of a ROWS x COLS grid of cells."""
    state = fresh()
    load_grid(state, grid)
    return list(state.cols)


def copy_span(k):
    """A template span on input column k: rows 0-3 of k, inverted into
    column 10, then back into column 11."""
    return [Init(((range(4), (10, 11)),)), NorRow((k,), 10, range(4)), NorRow((10,), 11, range(4))]


def stage_tail(x, col=11):
    """A tail staging the template's row-0 result into row 8 + x of `col`."""
    return [Init((((8 + x,), (col,)),)), NorCol((0,), 8 + x, (col,)), ReadCell(8 + x, col)]


def late_span(k):
    """copy_span(k), then 70 ops that chain through columns 20-27 from
    constants, then a gate that reads column k again: a long template
    that reads its input column again at its end."""
    ops = copy_span(k) + [Init(((range(4), (20, 30, 31)),)), NorRow((30,), 31, range(4))]
    for i in range(35):
        ops += [Init(((range(4), (20 + (i + 1) % 8,)),)), NorRow((20 + i % 8, 11), 20 + (i + 1) % 8, range(4))]
    return ops + [Init(((range(4), (12,)),)), NorRow((k, 31, 23), 12, range(4))]


def fold_span(k):
    """A template span on input column k whose ops from its second Init
    touch only rows 0, 4 and 9: rows 0-7 of k inverted into column 10,
    beside a column 13 of all 1s; then rows 0 and 4 of column 10 inverted
    into column 11, row 4 of 11 moved into row 9 by a NorCol, and 13 read
    by a gate into column 12."""
    return [Init(((range(8), (10,)), (range(ROWS), (13,)))), NorRow((k,), 10, range(8)),
            Init((((0, 4, 9), (11,)), ((0, 9), (12,)))), NorRow((10,), 11, (0, 4)),
            NorCol((4,), 9, (11,)), NorRow((11, 13), 12, (0,)), NorRow((11,), 12, (9,))]


def fold_tail(x):
    """A tail that reads its span's rows from both sides of the cut."""
    return [Init((((20 + x,), (11, 10)),)), NorCol((0, 9), 20 + x, (11,)), NorCol((5,), 20 + x, (10,)),
            ReadCell(20 + x, 11), ReadCell(20 + x, 10), ReadCell(9, 12), ReadCell(0, 11)]


def input_after_cut_span(k):
    """A template span whose first part sets column 10 to 0 on rows 0-7
    from constants alone, and whose rest, from its second Init, reads
    its input column k for the first time, on rows 0 and 4."""
    return [Init(((range(8), (10, 12)),)), NorRow((12,), 10, range(8)),
            Init((((0, 4), (11,)),)), NorRow((k, 10), 11, (0, 4))]


def read_tail(x):
    return [ReadCell(0, 11), ReadCell(4, 11), ReadCell(0, 10)]


def runs_like_its_spans_in_order(span, tail):
    """A LaneGroup of three (span, tail) pairs, on input columns 5-7, must
    hold its spans' steps and cycles as separate blocks would, and run as
    lanes like its ops interpreted in order."""
    pairs = [(("t", span(k)), ("s", tail(x))) for x, k in enumerate((5, 6, 7))]
    group = LaneGroup(pairs)
    assert group.steps == tuple(step for pair in pairs for step in pair)
    assert group.ops == [op for pair in pairs for _, ops in pair for op in ops]
    separate = MicroProgram((), tuple(Block([step]) for pair in pairs for step in pair))
    assert MicroProgram((), (group,)).cycles() == separate.cycles()
    # as lanes of many grids: span x of lane j in lane x * B + j, then
    # the tails, each on its own span's lanes
    rng = np.random.default_rng(6)
    lanes = reading_back([group])
    for lane_count in LANE_COUNTS:
        grids = [snapshot_cols(rng.integers(0, 2, size=(ROWS, COLS), dtype=np.uint8)) for _ in range(lane_count)]
        assert run_as_lanes(lanes, grids) == interpreted_reads(group.ops, grids), lane_count


def copy_tail(x):
    """A tail that only moves the template's row-0 result in column 11
    into row 20 + x, through row 40."""
    return [Init((((40, 20 + x), (11,)),)), NorCol((0,), 40, (11,)), NorCol((40,), 20 + x, (11,))]


class TestLaneGroup:
    def test_runs_like_its_spans_in_order(self):
        runs_like_its_spans_in_order(copy_span, stage_tail)

    @pytest.mark.parametrize("wide", [False, True])
    def test_tails_that_only_move_rows_run_as_no_unit(self, wide):
        # a tail that only moves a row of its span (row 40 is read by
        # nothing later) runs as no unit: what reads the row it writes
        # reads it from the template's folded lane, where span x's row 0
        # is row x, moved up by 20: onto a band of rows 20-22, or, with a
        # read of row 120 too, onto whole columns
        pairs = [(("t", fold_span(k)), ("s", copy_tail(x))) for x, k in enumerate((5, 6, 7))]
        group = LaneGroup(pairs)
        reads = [ReadCell(20 + x, 11) for x in range(3)] + [ReadCell(120, 3)] * wide
        lanes = Lanes([group, Block(unlabelled(reads))])
        assert [(unit.fmt[0], unit.fold[1]) for unit, _ in lanes._units] == \
            [(ROWS, 1), (ROWS, 3), (ROWS if wide else 8, 1)]
        rng = random.Random(9)
        for lane_count in LANE_COUNTS:
            grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
            readouts = [[] for _ in grids]
            lanes.run([_pack([(g[k] & rows) >> lo for g in grids], stride) for k, rows, (stride, lo, _) in lanes.inputs],
                      readouts)
            wants = []
            for g in grids:
                bits = []
                _interpret(group.ops + reads, list(g), bits, True, None)
                wants.append(bits)
            assert readouts == wants, lane_count

    def test_a_template_that_reads_its_input_column_late(self):
        # the template folds columns it starts at 0 on the lane grid into
        # constants over 70 ops, and reads its packed input column again
        # at its end
        assert len(late_span(5)) > 64
        runs_like_its_spans_in_order(late_span, lambda x: stage_tail(x, 12))

    def test_a_template_that_folds(self):
        # from its second Init the template touches rows 0, 4 and 9 only,
        # so as lanes its three spans share one lane from there, span x at
        # row shift x; the tails read their span's rows from the lanes
        # before the cut and from the shifted rows after it
        assert _fold(lowered(fold_span(5)), 3) == (2, 1 | 1 << 4 | 1 << 9)
        assert _fold(lowered(fold_span(5)), 6) == (7, 0)  # shifted by 5, row 4 meets row 9
        runs_like_its_spans_in_order(fold_span, fold_tail)
        # a rest that reads the input column the first part never read
        assert _fold(lowered(input_after_cut_span(5)), 3) == (2, 1 | 1 << 4)
        runs_like_its_spans_in_order(input_after_cut_span, read_tail)

    @pytest.mark.parametrize("pairs,match", [
        # a template that reads a second column before writing it
        ([([Init(((range(4), (10, 11)),)), NorRow((k, 3), 10, range(4)),
            NorRow((10,), 11, range(4))], stage_tail(x)) for x, k in enumerate((5, 6))],
         "not one"),
        # a tail that writes a cell the template reads, or one it writes
        ([(copy_span(5), stage_tail(0)), (copy_span(6), [Init((((0,), (5,)),))])],
         "writes one the template uses"),
        ([(copy_span(5), stage_tail(0)), (copy_span(6), [Init((((2,), (10,)),))])],
         "writes one the template uses"),
        # a tail that reads a cell another tail writes
        ([(copy_span(5), [Init((((30,), (40,)),))]), (copy_span(6), [ReadCell(30, 40)])],
         "reads a cell the group writes"),
        # a lane span that differs beyond its input column
        ([(copy_span(5), stage_tail(0)),
          ([Init(((range(4), (10, 12)),)), NorRow((6,), 10, range(4)),
            NorRow((10,), 12, range(4))], stage_tail(1))],
         "is not the template"),
        # the template writes its input column after reading it
        ([(copy_span(k) + [Init(((range(8, 12), (k,)),))], stage_tail(x))
          for x, k in enumerate((5, 6))],
         "writes an input column"),
        # a gate output with no Init before it
        ([(copy_span(5)[1:], stage_tail(0)), (copy_span(6)[1:], stage_tail(1))],
         "not init-dominated"),
        # a span that writes from the host or reads a cell out
        ([(copy_span(k) + [WriteExternal(((8, 10),), (1,))], stage_tail(x)) for x, k in enumerate((5, 6))],
         "^a template span holds an op other than Init, NorRow and NorCol$"),
        ([(copy_span(k) + [ReadCell(0, 10)], stage_tail(x)) for x, k in enumerate((5, 6))],
         "^a template span holds an op other than Init, NorRow and NorCol$"),
    ])
    def test_a_failed_proof_raises(self, pairs, match):
        with pytest.raises(ValueError, match=match):
            LaneGroup(((None, span), (None, tail)) for span, tail in pairs)


class TestInitDominance:
    @pytest.mark.parametrize("ops,proved", [
        ([Init((((0, 1), (5,)),)), NorRow((3,), 5, (0, 1))], True),
        ([Init((((7,), (0, 1)),)), NorCol((3,), 7, (0, 1))], True),
        # a read switches no cell
        ([Init((((0,), (5,)),)), ReadCell(0, 5), NorRow((3,), 5, (0,))], True),
        # no Init, or one that misses an output line
        ([NorRow((3,), 5, (0,))], False),
        ([Init((((0,), (5,)),)), NorRow((3,), 5, (0, 1))], False),
        ([Init((((7,), (0,)),)), NorCol((3,), 7, (0, 1))], False),
        # the output was written since its Init, by the host or a gate
        ([Init((((0,), (5,)),)), WriteExternal(((0, 5),), (1,)), NorRow((3,), 5, (0,))], False),
        ([Init((((0,), (5,)),)), NorRow((3,), 5, (0,)), NorRow((4,), 5, (0,))], False),
        ([Init((((7,), (0,)),)), NorCol((3,), 7, (0,)), NorCol((4,), 7, (0,))], False),
    ])
    def test_block_proof(self, ops, proved):
        # a Block is built only from init-dominated ops
        if proved:
            assert Block(unlabelled(ops)).ops == ops
        else:
            with pytest.raises(ValueError, match="not init-dominated"):
                Block(unlabelled(ops))
        assert _dataflow(ops)[0] is proved


class TestState:
    def test_cells_round_trip(self):
        grid = np.random.default_rng(4).integers(0, 2, size=(ROWS, COLS), dtype=np.uint8)
        s = fresh()
        load_grid(s, grid)
        assert (snapshot(s) == grid).all()
        assert [s.cols[c] >> r & 1 for r, c in ((0, 0), (127, 255), (64, 3))] == \
               [grid[0, 0], grid[127, 255], grid[64, 3]]
        again = fresh()
        load_grid(again, snapshot(s))
        assert again.cols == s.cols

    def test_snapshot_is_read_only(self):
        s = fresh()
        with pytest.raises(ValueError, match="read-only"):
            snapshot(s)[0, 5] = 1
        assert s.cols == [0] * COLS

    @pytest.mark.parametrize("grid", [np.zeros((ROWS, COLS - 1), np.uint8),
                                      np.full((ROWS, COLS), 2, np.uint8)])
    def test_setter_rejects_a_bad_grid(self, grid):
        with pytest.raises(ValueError, match="cells of 0 or 1"):
            load_grid(fresh(), grid)

    def test_execute_mutates_cols_in_place(self):
        s = fresh()
        cols = s.cols
        pb = ProgramBuilder()
        pb.init(((0,), (5,)))
        pb.nor_row((3,), 5, (0,))
        execute(pb.build(), s)
        pb = ProgramBuilder()
        pb.write(((2, 7),), (1,))
        pb.read(0, 5)
        res = execute(pb.build(), s)
        assert s.cols is cols
        assert cols[5] == 1 and cols[7] == 1 << 2 and res.readout == [1]
        assert s.get_bits([(0, 5), (2, 7)]) == [1, 1]

    @pytest.mark.parametrize("value", [-1, 256, 300])
    def test_write_value_rejects_what_does_not_fit(self, value):
        s = fresh()
        cells = [(0, c) for c in range(8)]
        with pytest.raises(ValueError, match="does not fit"):
            s.write_value(cells, value)
        assert s.cols == [0] * COLS
        s.write_value(cells, 255)
        assert s.read_value(cells) == 255

    @pytest.mark.parametrize("bit", [2, -1])
    def test_set_bits_rejects_a_non_bit(self, bit):
        s = fresh()
        with pytest.raises(ValueError, match=f"^cell value must be 0 or 1, got {bit}$"):
            s.set_bits([(0, 0)], [bit])
        assert s.cols == [0] * COLS

    @pytest.mark.parametrize("cell", [(ROWS, 0), (0, COLS), (-1, 0), (0, -1)])
    def test_cell_outside_the_array(self, cell):
        with pytest.raises(IndexError, match="outside"):
            fresh().set_bits([cell], [1])
        with pytest.raises(IndexError, match="outside"):
            fresh().get_bits([cell])


def ref_violations(spec, what, bound):
    m = members(spec)
    if not m:
        return [f"empty {what} set"]
    return [f"{what} out of bounds"] if min(m) < 0 or max(m) >= bound else []


def ref_mask(spec):
    return sum(1 << r for r in set(members(spec)))


def specs(bound):
    """Ranges with steps of +-1..3 (empty and out of bounds included) and tuples."""
    line = st.integers(-3, bound + 2)
    return st.one_of(
        st.builds(range, line, line, st.sampled_from((1, 2, 3, -1, -2, -3))),
        st.lists(line, max_size=6).map(tuple))


@settings(max_examples=300, deadline=None)
@given(rows=specs(ROWS), cols=specs(COLS),
       cells=st.lists(st.tuples(st.integers(-2, ROWS + 1), st.integers(-2, COLS + 1)),
                      min_size=1, max_size=4))
def test_lower_matches_set_model(rows, cols, cells):
    # the constant-time bounds and range mask agree with a set-based model
    want_rows, want_cols = ref_violations(rows, "row", ROWS), ref_violations(cols, "column", COLS)
    cell_violations = [v for r, c in cells for v in ref_violations(r, "row", ROWS) + ref_violations(c, "column", COLS)]
    # each case: op, its violations, and its lowered form when it has none
    cases = [
        (Init(((rows, cols),)), want_rows + want_cols, lambda: ((cols, ref_mask(rows)),)),
        (NorRow((3, 4), 5, rows), want_rows, lambda: ((3, 4), 5, ref_mask(rows))),
        (NorCol((3, 4), 5, cols), want_cols, lambda: (0b11000, 1 << 5, cols)),
        (WriteExternal(tuple(cells), (1,) * len(cells)), cell_violations,
         lambda: tuple((c, 1 << r, 1) for r, c in cells)),
        # ops that no well-formed program holds, each with its violations
        (NorRow((), 5, rows), ["empty input set", "empty column set"] + want_rows, None),
        (NorRow((3, 4), COLS, rows), ["column out of bounds"] + want_rows, None),
        (Init(()), ["empty cell set"], None),
        (WriteExternal((), ()), ["empty cell set"], None),
        (WriteExternal(tuple(cells), (2,) * len(cells)), ["bits must be 0 or 1"] + cell_violations, None),
        (ReadCell(cells[0][0], COLS), ref_violations(cells[0][0], "row", ROWS) + ["column out of bounds"], None),
    ]
    for op, want, lowered in cases:
        assert _lower(op) == want, op
        assert op._c == (None if want else lowered()), op


# Differential checks of lane code against the interpreter, bit for bit.

@st.composite
def nor_col_runs(draw):
    """An Init, then a run of NorCol ops on columns 0-5, over the rows of a
    4- or 16-row range: in the short range a later op often reads a row
    that an earlier one wrote. An op drops each column where an earlier
    one wrote its output row, and the Init readies every output cell, so
    the ops are init-dominated."""
    r0 = draw(origins(ROWS))
    rows = st.integers(r0, r0 + draw(st.sampled_from((3, 15))))
    ops, written = [], set()
    for _ in range(draw(st.integers(1, 16))):
        ins = tuple(draw(st.lists(rows, min_size=1, max_size=2, unique=True)))
        out = draw(rows.filter(lambda v: v not in ins))
        cols = tuple(k for k in draw(st.lists(st.integers(0, 5), min_size=1, max_size=4)) if (out, k) not in written)
        if cols:
            written.update((out, k) for k in cols)
            ops.append(NorCol(ins, out, cols))
    return lowered([Init(tuple(((out,), (k,)) for out, k in sorted(written))), *ops])


@settings(max_examples=100, deadline=None)
@given(ops=nor_col_runs(), data=st.data())
def test_fused_nor_col_runs_match_the_interpreter(ops, data):
    # the run is one line per column per group of ops with no hazard
    # (crossbar._Source.nor_cols); as lanes at B = 1 and 3, each lane must
    # read back what the interpreter leaves on its own grid
    lanes = reading_back([Block(unlabelled(ops))])
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for lane_count in (1, 3):
        grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
        assert run_as_lanes(lanes, grids) == interpreted_reads(ops, grids), lane_count


def test_a_hazard_starts_a_new_line():
    # the second op reads row 1, which the first writes: fused into one
    # line, it would read row 1 as it was before the first op. So the run
    # is two lines of column 5, and each lane reads back what the
    # interpreter leaves
    ops = lowered([Init((((1, 2, 4), (5,)),)),
                   NorCol((0,), 1, (5,)), NorCol((1,), 2, (5,)), NorCol((3,), 4, (5,))])
    lanes = reading_back([Block(unlabelled(ops))])
    assert len(re.findall(r"^    c5 = ", lanes._units[0][0].text, re.M)) == 2
    g = [0] * COLS
    g[5] = 0b11111
    assert interpreted_reads(ops, [g]) == [[0, 1, 0]]  # rows 1, 2 and 4: 0b01101
    rng = random.Random(3)
    grids = [g] + [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(2)]
    for lane_count in (1, 3):
        assert run_as_lanes(lanes, grids[:lane_count]) == interpreted_reads(ops, grids[:lane_count]), lane_count


@st.composite
def band_ops(draw, lo, width, c0=None):
    """Init-dominated ops on columns c0..c0+7 (c0 drawn if None) whose
    rows span exactly lo..lo+width-1: a WriteExternal on both end rows,
    then gates whose outputs are initialized just before them, Inits,
    WriteExternals and ReadCells."""
    c0 = draw(origins(COLS)) if c0 is None else c0
    rows, cols = st.integers(lo, lo + width - 1), st.integers(c0, c0 + 7)
    ops = [WriteExternal(((lo, draw(cols)), (lo + width - 1, draw(cols))),
                         (draw(st.integers(0, 1)), draw(st.integers(0, 1))))]
    for kind in draw(st.lists(st.sampled_from("rcIWR"), min_size=1, max_size=14)):
        if kind == "r":
            ins = tuple(draw(st.lists(cols, min_size=1, max_size=3, unique=True)))
            out = draw(cols.filter(lambda v: v not in ins))
            lines = tuple(draw(st.lists(rows, min_size=1, max_size=width)))
            ops += [Init(((lines, (out,)),)), NorRow(ins, out, lines)]
        elif kind == "c" and width > 1:
            ins = tuple(draw(st.lists(rows, min_size=1, max_size=min(3, width - 1), unique=True)))
            out = draw(rows.filter(lambda v: v not in ins))
            lines = tuple(draw(st.lists(cols, min_size=1, max_size=4)))
            ops += [Init((((out,), lines),)), NorCol(ins, out, lines)]
        elif kind == "I":
            ops.append(Init(((tuple(draw(st.lists(rows, min_size=1, max_size=width))),
                              tuple(draw(st.lists(cols, min_size=1, max_size=3)))),)))
        elif kind == "W":
            cells = draw(st.lists(st.tuples(rows, cols), min_size=1, max_size=4))
            ops.append(WriteExternal(tuple(cells), tuple(draw(st.integers(0, 1)) for _ in cells)))
        else:
            ops.append(ReadCell(draw(rows), draw(cols)))
    return ops


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_banded_blocks_match_the_interpreter(data):
    # a block whose rows fit 8 rows runs as lane code on a byte per lane,
    # its band: at both edges of the array and in between, each lane at
    # B = 1 and 3 must read back what the interpreter leaves on its own
    # grid, whatever the grid held
    lo = data.draw(st.sampled_from((0, ROWS - 8)) | st.integers(0, ROWS - 8))
    width = data.draw(st.sampled_from((8,)) | st.integers(1, 8))
    ops = data.draw(band_ops(lo, width))
    assert _band(lowered(ops)) == (lo, width)
    lanes = reading_back([Block(unlabelled(ops))])
    assert lanes._units[0][0].fmt == (8, lo, width)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for lane_count in (1, 3):
        grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
        assert run_as_lanes(lanes, grids) == interpreted_reads(ops, grids), lane_count


LANE_COUNTS = (1, 3, 64, 256)


def written_cells(ops):
    """The (row, column) of every cell that lowered ops write, column by
    column."""
    return [(r, k) for k, rows in enumerate(_dataflow(ops)[2]) for r in range(rows.bit_length()) if rows >> r & 1]


def reading_back(blocks):
    """Lanes of the blocks, then of a block that reads out every cell
    they write."""
    cells = written_cells([op for block in blocks for op in block.ops])
    return Lanes([*blocks, Block(unlabelled([ReadCell(r, k) for r, k in cells]))])


def run_as_lanes(lanes, grids):
    """Run Lanes over len(grids) lanes, lane j's inputs packed from
    grids[j]: per lane, its read bits."""
    readouts = [[] for _ in grids]
    lanes.run([_pack([(g[k] & rows) >> lo for g in grids], stride) for k, rows, (stride, lo, _) in lanes.inputs],
              readouts)
    return readouts


def interpreted_reads(ops, grids):
    """Per grid, the bits that ops read out, interpreted on a copy of the
    grid, then every cell they write as they leave it."""
    cells = written_cells(ops)
    wants = []
    for g in grids:
        want, bits = list(g), []
        _interpret(ops, want, bits, True, None)
        wants.append(bits + [want[k] >> r & 1 for r, k in cells])
    return wants


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lanes_read_what_the_interpreter_leaves(data):
    # one or two random init-dominated blocks on the same 8 columns and
    # near rows, each on a band or on whole columns, so that the second
    # often reads what the first wrote, in another format, then a block
    # that reads back every cell they write; compiled once and run as
    # lanes at B = 1, 3, 64 and 256, from inputs packed per lane: each
    # lane's read bits must be what the interpreter reads out on its own
    # grid, so each cell the blocks write ends as it does there
    c0 = data.draw(origins(COLS))
    lo = data.draw(st.sampled_from((0, ROWS - 8, ROWS - 1)) | st.integers(0, ROWS - 1))
    blocks = []
    for _ in range(data.draw(st.integers(1, 2))):
        width = data.draw(st.integers(1, min(8, ROWS - lo)) | st.just(ROWS - lo))
        blocks.append(Block(unlabelled(data.draw(band_ops(lo, width, c0)))))
        lo = data.draw(st.integers(max(0, lo - 4), min(lo + 4, ROWS - 1)))
    ops = [op for block in blocks for op in block.ops]
    live = _dataflow(ops)[1]
    lanes = reading_back(blocks)
    assert [(k, rows) for k, rows, _ in lanes.inputs] == [(k, rows) for k, rows in enumerate(live) if rows]
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for lane_count in LANE_COUNTS:
        grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
        assert run_as_lanes(lanes, grids) == interpreted_reads(ops, grids), lane_count


@st.composite
def cone_ops(draw, rows, c0):
    """Init-dominated NorRows over six columns c0.. that they reuse, most
    on the row set `rows`, some on a part of it: so chains of gates fold
    into cones of lane code, and a cone's leaf is often assigned again
    before the cone's line."""
    cols = st.integers(c0, c0 + 5)
    masks = st.sampled_from((rows, rows, rows, rows[:len(rows) // 2 + 1]))
    ops = []
    for _ in range(draw(st.integers(1, 24))):
        ins = tuple(draw(st.lists(cols, min_size=1, max_size=3, unique=True)))
        out, lines = draw(cols.filter(lambda v: v not in ins)), draw(masks)
        ops += [Init(((lines, (out,)),)), NorRow(ins, out, lines)]
    return ops


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cones_of_nor_rows_read_what_the_interpreter_leaves(data):
    # a gate network on one row set, on a band or on whole columns, whose
    # gates fold into cones of at most three leaves, each one line of its
    # cheapest expression (crossbar._Cones), then a block that reads back
    # every cell it writes: run as lanes at B = 1 and 3, each lane's read
    # bits must be what the interpreter reads out on its own grid
    c0 = data.draw(origins(COLS))
    lo = data.draw(st.integers(0, ROWS - 8))
    span = data.draw(st.sampled_from((8, ROWS - lo)))
    rows = tuple(sorted(data.draw(st.sets(st.integers(lo, lo + span - 1), min_size=1, max_size=8))))
    ops = data.draw(cone_ops(rows, c0))
    lanes = reading_back([Block(unlabelled(ops))])
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for lane_count in (1, 3):
        grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
        assert run_as_lanes(lanes, grids) == interpreted_reads(ops, grids), lane_count


def test_a_full_adder_cell_is_two_lines_of_six_operators():
    # the nine NOR gates of a full adder cell fold into two cones over
    # its three inputs: the sum, a three-leaf XOR of 2 operators, and the
    # carry, a majority of 4; on every input pattern, in every row of the
    # cell's rows, they hold what the interpreter leaves
    pb, rows = ProgramBuilder(), (1, 2, 5)
    a, b, q, s, carry, t = 0, 1, 2, 3, 4, tuple(range(5, 12))
    pb.init((rows, t + (s, carry)))
    _adder_gates(pb, 1, (a,), (b,), (s, carry), t, (), rows, q)
    ops = pb.build().head[0][1]
    after = [0] * COLS
    after[s] = after[carry] = sum(1 << r for r in rows)
    unit = _Unit(Block(unlabelled(ops)).ops, after)
    lines = unit.text.splitlines()[2:-1]
    assert len(lines) == 2
    assert sum(len(re.findall(r"[&|^]", line)) for line in lines) == 6
    assert [k for k, _ in unit.loads] == [a, b, q] and [k for k, _ in unit.stores] == [s, carry]
    for pattern in range(8):
        grid = [0] * COLS
        for bit, k in enumerate((a, b, q)):
            grid[k] = sum(1 << r for r in rows) * (pattern >> bit & 1)
        got = unit.run(None, unit.constants(1), *(grid[k] >> unit.fmt[1] for k, _ in unit.loads))
        _interpret(ops, grid, [], True, None)
        assert [v << unit.fmt[1] & after[k] for v, (k, _) in zip(got, unit.stores)] == [grid[s], grid[carry]]


def test_lanes_move_values_between_formats():
    # each block reads what an earlier one wrote in another format: a
    # whole column onto a band, a band onto a whole column (with rows from
    # the inputs around it) and one band onto another; every lane from
    # its own random grid
    a = [Init(((range(10), (2,)),)), NorRow((1,), 2, range(10))]
    b = [Init(((range(4, 8), (3,)),)), NorRow((2,), 3, range(4, 8)), ReadCell(5, 3)]
    c = [Init(((range(10), (4,)),)), NorRow((2, 3), 4, range(10)), ReadCell(9, 4)]
    d = [Init(((range(6, 10), (5,)),)), NorRow((3,), 5, range(6, 10)), ReadCell(6, 5), ReadCell(9, 5)]
    blocks = [Block(unlabelled(ops)) for ops in (a, b, c, d)]
    assert [_band(block.ops) for block in blocks] == [(0, ROWS), (4, 4), (0, ROWS), (6, 4)]
    lanes = reading_back(blocks)
    rng = random.Random(12)
    for lane_count in LANE_COUNTS:
        grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
        assert run_as_lanes(lanes, grids) == interpreted_reads(a + b + c + d, grids), lane_count


def test_lanes_of_a_body_that_reads_no_cell():
    # no live-in cell: no input, and every lane reads out the same
    block = Block(unlabelled([Init(((range(4), (3,)),)), ReadCell(2, 3)]))
    lanes = reading_back([block])
    assert lanes.inputs == ()
    assert run_as_lanes(lanes, [[0] * COLS, [5] * COLS]) == [[1] * 5] * 2


@pytest.mark.parametrize("lo", [0, ROWS - 9])
def test_a_nine_row_block_runs_on_whole_columns(lo):
    # nine rows do not fit a byte: the block's lane code runs on a whole
    # column per lane, its live-in columns loaded on their nine rows, and
    # each lane reads back what the interpreter leaves
    ops = [Init(((range(lo, lo + 9), (3, 4)),)), NorRow((1, 2), 3, range(lo, lo + 9)),
           NorCol((lo,), lo + 8, (4,)), ReadCell(lo + 8, 4)]
    lanes = reading_back([Block(unlabelled(ops))])
    assert _band(ops) == (0, ROWS)
    unit = lanes._units[0][0]
    assert unit.fmt == (ROWS, 0, ROWS)
    assert unit.loads == ((1, 0x1ff << lo), (2, 0x1ff << lo))
    assert 3 not in unit.known
    rng = random.Random(lo)
    for lane_count in (1, 3):
        grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
        assert run_as_lanes(lanes, grids) == interpreted_reads(ops, grids), lane_count


@pytest.mark.parametrize("lo", [0, ROWS - 6, 60])
@pytest.mark.parametrize("gate", ["constant leaf", "four leaves", "five leaves"])
def test_a_row_nor_outside_every_cone_takes_the_masked_form(lo, gate):
    # a NorRow whose column holds no live row off its rows is a node of a
    # cone only with at most three leaves, none of them known: one that
    # reads a known column holding 1 on some of its rows (a constant
    # leaf), or that reads four or five columns, is the masked line
    # `(acc) & m ^ m`, m its rows less the known 1s. A cone gate then
    # reads it, and each lane reads back what the interpreter leaves
    rows = range(lo + 2, lo + 6)
    ops = [Init(((range(lo, lo + 6), (3,)),))]  # column 3 known, on a six-row band
    if gate == "constant leaf":
        ops.append(WriteExternal(((lo + 4, 3), (lo + 5, 3)), (0, 0)))
        ins = (1, 3)
    else:
        ins = (1, 2, 5, 6, 8)[:4 if gate == "four leaves" else 5]
    ops += [Init(((rows, (4, 7)),)), NorRow(ins, 4, rows), NorRow((4,), 7, rows)]
    lanes = reading_back([Block(unlabelled(ops))])
    text = lanes._units[0][0].text
    acc = " | ".join(f"c{k}" for k in ins if k != 3)
    assert re.search(rf"^    c4 = \({re.escape(acc)}\) & (k\d+) \^ \1$", text, re.M), text
    rng = random.Random(lo)
    for lane_count in (1, 3):
        grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
        assert run_as_lanes(lanes, grids) == interpreted_reads(ops, grids), lane_count


def test_a_nor_col_run_on_a_known_column_binds_it_first():
    # column 4 is known after its Init, then a NorCol run moves its rows:
    # the column is bound to its local as a constant, and the run takes
    # the general path; each lane reads back what the interpreter leaves
    for lo in (0, ROWS - 9):
        ops = [Init(((range(lo, lo + 9), (4,)),)), NorCol((lo, lo + 1), lo + 8, (4,)),
               NorCol((lo + 8,), lo + 5, (4,)), ReadCell(lo + 5, 4)]
        lanes = reading_back([Block(unlabelled(ops))])
        unit = lanes._units[0][0]
        assert 4 not in unit.known and re.search(r"^    c4 = k\d+$", unit.text, re.M), unit.text
        rng = random.Random(lo)
        for lane_count in (1, 3):
            grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
            assert run_as_lanes(lanes, grids) == interpreted_reads(ops, grids), lane_count


@pytest.mark.parametrize("lo,width", [(0, 4), (ROWS - 4, 4), (40, 1), (0, ROWS)])
def test_a_full_band_init_makes_its_column_known(lo, width):
    # column 5 is live-in, then an Init sets every row of the band in it,
    # all of them dead until the gate after it assigns them: the Init
    # makes the column known and emits no line, the gate assigns the
    # column outright, and each lane reads back what the interpreter
    # leaves
    band = range(lo, lo + width)
    ops = [Init(((band, (6,)),)), NorRow((5,), 6, band), Init(((band, (5,)),)),
           NorRow((6, 7), 5, band), ReadCell(lo, 5)]
    lanes = reading_back([Block(unlabelled(ops))])
    assert _band(ops) == ((lo, width) if width <= 8 else (0, ROWS))
    text = lanes._units[0][0].text
    assert "|=" not in text and "&=" not in text
    assert re.search(r"^    c5 = \(c6 \| c7\) \^ k\d+$", text, re.M), text
    rng = random.Random(width)
    for lane_count in (1, 3):
        grids = [[rng.getrandbits(ROWS) for _ in range(COLS)] for _ in range(lane_count)]
        assert run_as_lanes(lanes, grids) == interpreted_reads(ops, grids), lane_count

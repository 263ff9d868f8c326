import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimfilter.crossbar import (
    COLS,
    ROWS,
    CrossbarState,
    Init,
    MicroOpError,
    MicroProgram,
    NorCol,
    NorRow,
    ProgramBuilder,
    ReadCell,
    WriteExternal,
    execute,
    taint_violations,
)


def fresh():
    return CrossbarState()


def run_op(op, state=None, strict=True):
    """Execute a one-op program; the crossbar contract raises MicroOpError."""
    return execute(MicroProgram([op]), state or fresh(), strict=strict)


class TestValidate:
    def test_output_among_inputs(self):
        with pytest.raises(MicroOpError, match="output among inputs"):
            run_op(NorRow((3, 4), 3, (0,)))

    def test_ok_when_output_initialized(self):
        s = fresh()
        s.cells[0, 5] = 1
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


class TestExecute:
    def test_init_then_nor(self):
        s = fresh()
        pb = ProgramBuilder()
        pb.init(((0,), (5,)))
        pb.nor_row((3, 4), 5, (0,))
        res = execute(pb.build(), s)
        assert s.cells[0, 5] == 1  # NOR(0, 0) = 1
        assert res.compute_cycles == 1
        assert res.init_cycles == 1

    def test_nor_with_high_input(self):
        s = fresh()
        s.cells[0, 3] = 1
        pb = ProgramBuilder()
        pb.init(((0,), (5,)))
        pb.nor_row((3, 4), 5, (0,))
        execute(pb.build(), s)
        assert s.cells[0, 5] == 0

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
            assert s.cells[r, k] == (0 if any(bits) else 1)

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
        row.cells[:, :128] = grid
        col.cells[:, :128] = grid.T
        execute(MicroProgram([NorRow(ins, out, lines)]), row, strict=strict)
        execute(MicroProgram([NorCol(ins, out, lines)]), col, strict=strict)
        want = 1 - grid[np.ix_(members, ins)].any(axis=1)
        if not strict:
            want &= grid[members, out]
        assert (row.cells[members, out] == want).all()
        assert (col.cells[:, :128] == row.cells[:, :128].T).all()
        assert not row.cells[:, 128:].any() and not col.cells[:, 128:].any()

    def test_frame_property(self):
        # cells not addressed by an op are unchanged
        s = fresh()
        rng = np.random.default_rng(0)
        s.cells[:] = rng.integers(0, 2, size=s.cells.shape, dtype=np.uint8)
        before = s.cells.copy()
        pb = ProgramBuilder()
        pb.init((range(10, 20), (5,)))
        pb.nor_row((3, 4), 5, range(10, 20))
        pb.nor_col((12,), 40, (7, 8))
        execute(pb.build(), s, strict=False)
        touched = np.zeros_like(before, dtype=bool)
        touched[10:20, 5] = True
        touched[40, 7:9] = True
        assert (s.cells[~touched] == before[~touched]).all()

    def test_replay_is_deterministic(self):
        rng = np.random.default_rng(1)
        base = fresh()
        base.cells[:] = rng.integers(0, 2, size=base.cells.shape, dtype=np.uint8)
        pb = ProgramBuilder()
        pb.init((range(0, 50), (10, 11, 12)))
        pb.nor_row((0, 1), 10, range(0, 50))
        pb.nor_row((10,), 11, range(0, 50))
        pb.write(((60, 60),), (1,))
        pb.read(60, 60)
        prog = pb.build()
        s1, s2 = fresh(), fresh()
        s1.cells[:] = base.cells
        s2.cells[:] = base.cells
        r1, r2 = execute(prog, s1), execute(prog, s2)
        assert (s1.cells == s2.cells).all()
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
        grid = s.cells if gate is NorRow else s.cells.T
        grid[list(lines), 3] = 1        # every line's NOR gives 0
        grid[list(lines[:-1]), 5] = 1   # each output but the last holds 1
        before = s.cells.copy()
        with pytest.raises(MicroOpError, match="not initialized"):
            run_op(gate((3, 4), 5, lines), s)
        assert (s.cells == before).all()

    def test_permissive_masks_output(self):
        # output <- old AND NOR(inputs): a 0 output can never flip back to 1
        s = fresh()
        s.cells[0, 3] = 0
        s.cells[0, 5] = 0
        pb = ProgramBuilder()
        pb.nor_row((3,), 5, (0,))
        execute(pb.build(), s, strict=False)
        assert s.cells[0, 5] == 0  # NOR says 1, stale 0 wins

        s.cells[1, 5] = 1
        pb = ProgramBuilder()
        pb.nor_row((3,), 5, (1,))
        execute(pb.build(), s, strict=False)
        assert s.cells[1, 5] == 1

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
        s.cells[:] = np.random.default_rng(2).integers(0, 2, size=s.cells.shape, dtype=np.uint8)
        before = s.cells.copy()
        pb = ProgramBuilder()
        pb.init((range(0, 20), (5,)))
        pb.nor_row((3, 4), 5, range(0, 20))
        pb.write(((60, 60),), (1,))
        pb.read(200, 0)
        prog = pb.build()
        with pytest.raises(MicroOpError, match="row out of bounds") as err:
            execute(prog, s)
        assert err.value.op_index == len(prog.ops) - 1
        assert (s.cells == before).all()

    @pytest.mark.parametrize("lines", [(0, 0), (0,) * 9 + tuple(range(1, 9))])
    def test_repeated_line_switches_once(self, lines):
        # a gate acts on a set of lines: a repeated line must not see its
        # own output as an uninitialized cell
        s = fresh()
        s.cells[:9, 3] = 1
        s.cells[:9, 5] = 1
        execute(MicroProgram([NorRow((3,), 5, lines)]), s, strict=True)
        assert not s.cells[sorted(set(lines)), 5].any()


class TestProgram:
    def test_annotations_partition_enforced(self):
        ops = [Init((((0,), (1,)),)), NorRow((0,), 1, (0,))]
        with pytest.raises(ValueError):
            MicroProgram(ops, (("a", 0, 1),)).check_annotations()
        good = MicroProgram(ops, (("a", 0, 1), ("b", 1, 2)))
        good.check_annotations()

    def test_builder_step_spans(self):
        pb = ProgramBuilder()
        with pb.step("x"):
            pb.init(((0,), (1,)))
        with pb.step("y"):
            pb.nor_row((0,), 1, (0,))
        prog = pb.build()
        assert prog.annotations == (("x", 0, 1), ("y", 1, 2))

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
        assert taint_violations(pb.build(), {(0, 3), (0, 4)}) == []

    def test_read_before_define(self):
        pb = ProgramBuilder()
        pb.init(((0,), (5,)))
        pb.nor_row((3, 4), 5, (0,))
        bad = taint_violations(pb.build(), {(0, 3)})
        assert bad and "undefined" in bad[0]


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
        assert s.cells[r, k] == int(not any(pattern))


# Differential check: execute against a cell-by-cell model of the crossbar
# contract. The ops address a 16x16 window of the grid whose origin is drawn
# so that it also lands on the far edges: rows 112-127 are the top bits of
# each packed column, and column 255 is the last column.
GRID = 16


def members(spec):
    return (spec,) if isinstance(spec, int) else tuple(spec)


def model_run(program, grid, strict):
    """Reference semantics: (cells, readout, compute, init, steps, trace)."""
    cells = grid.tolist()
    readout, costs, trace = [], [], []
    compute = init = 0
    for op in program.ops:
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
            for line in sorted(set(members(lines))):
                *inputs, (r, c) = [(line, k) if row else (k, line) for k in ins + (out,)]
                assert not strict or cells[r][c] == 1
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
    for label, start, end in program.annotations:
        step = steps.setdefault(label, [0, 0])
        step[0] += sum(c for c, _ in costs[start:end])
        step[1] += sum(i for _, i in costs[start:end])
    return cells, readout, compute, init, steps, trace


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
    return [Init((region,)), op] if strict else [op]


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
    return MicroProgram(ops, tuple(zip(labels, bounds, bounds[1:])))


def origins(size):
    return st.sampled_from((0, size - GRID)) | st.integers(0, size - GRID)


@pytest.mark.parametrize("strict", [True, False])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_execute_matches_cell_model(strict, data):
    r0, c0 = data.draw(origins(ROWS)), data.draw(origins(COLS))
    program = data.draw(programs(strict, r0, c0))
    window = np.array(data.draw(st.lists(st.integers(0, 1), min_size=GRID * GRID,
                                         max_size=GRID * GRID)), dtype=np.uint8)
    state = fresh()
    state.cells[r0:r0 + GRID, c0:c0 + GRID] = window.reshape(GRID, GRID)
    grid = state.cells.copy()
    trace = []
    res = execute(program, state, strict=strict, trace=trace.append)
    cells, readout, compute, init, steps, model_trace = model_run(program, grid, strict)
    assert state.cells.tolist() == cells
    assert res.readout == readout
    assert (res.compute_cycles, res.init_cycles) == (compute, init)
    assert {k: [v.compute, v.init] for k, v in res.steps.items()} == steps
    assert [" ".join(line.split(" ", 2)[:2]) for line in trace] == model_trace

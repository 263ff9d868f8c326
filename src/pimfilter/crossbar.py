"""Cycle-counting simulator for one stateful-logic memristive crossbar.

Data lives as bits in a 2-D grid of memristor cells (1 = low resistance,
0 = high resistance). Logic executes in place as NOR gates whose inputs
and output sit in the same row (or the same column). A single micro-op
applies the same gate across an arbitrary set of rows (or columns) in one
clock cycle, which is the source of intra-crossbar parallelism. A gate
output cell must hold 1 before the gate evaluates; setting any batch of
cells to 1 costs one cycle, tracked in a separate counter so that gate
cost accounting can exclude initialization.

Every crossbar is a fixed ROWS x COLS array, and each op class states
its own compute-cycle cost; every cycle count derives from those costs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

ROWS, COLS = 128, 256
_COL_BYTES = ROWS // 8  # one packed grid column


def _axis(spec):
    """Members of an axis spec (int, range, or sequence of ints).

    A range or tuple comes back as is, so normalizing stays cheap; _lower
    turns members into bitmasks.
    """
    if isinstance(spec, (range, tuple)):
        return spec
    if isinstance(spec, (int, np.integer)):
        return (int(spec),)
    return tuple(int(v) for v in spec)


def _axis_str(spec):
    if isinstance(spec, range):
        return f"{spec.start}:{spec.stop}" + (f":{spec.step}" if spec.step != 1 else "")
    return ",".join(str(v) for v in _axis(spec))


@dataclass(eq=False)
class Init:
    """Set every cell in the listed (rows, cols) regions to 1. One init
    cycle, no compute cycle."""

    regions: tuple
    _c: object = field(default=None, init=False, repr=False)
    cycles = 0

    def describe(self):
        return "init " + " ".join(f"[{_axis_str(r)}]x[{_axis_str(c)}]" for r, c in self.regions)


@dataclass(eq=False)
class NorRow:
    """In-row NOR: for each row r in `rows`, cell(r, output_col) <- NOR of
    cells (r, c) over input_cols. One compute cycle regardless of |rows|."""

    input_cols: tuple
    output_col: int
    rows: object
    _c: object = field(default=None, init=False, repr=False)
    cycles = 1

    def describe(self):
        return f"nor_row in=[{','.join(map(str, self.input_cols))}] out={self.output_col} rows=[{_axis_str(self.rows)}]"


@dataclass(eq=False)
class NorCol:
    """In-column NOR: for each column c in `cols`, cell(output_row, c) <- NOR
    of cells (r, c) over input_rows. One compute cycle regardless of |cols|."""

    input_rows: tuple
    output_row: int
    cols: object
    _c: object = field(default=None, init=False, repr=False)
    cycles = 1

    def describe(self):
        return f"nor_col in=[{','.join(map(str, self.input_rows))}] out={self.output_row} cols=[{_axis_str(self.cols)}]"


@dataclass(eq=False)
class WriteExternal:
    """Host-driven write of explicit bits into cells. Two compute cycles,
    whatever the number of cells."""

    cells: tuple
    bits: tuple
    _c: object = field(default=None, init=False, repr=False)
    cycles = 2

    def describe(self):
        pairs = " ".join(f"({r},{c})={b}" for (r, c), b in zip(self.cells, self.bits))
        return f"write cost={self.cycles} {pairs}"


@dataclass(eq=False)
class ReadCell:
    """Read one cell out of the array. One compute cycle."""

    row: int
    col: int
    _c: object = field(default=None, init=False, repr=False)
    cycles = 1

    def describe(self):
        return f"read ({self.row},{self.col})"


class MicroOpError(RuntimeError):
    """Raised when executing an op that violates the crossbar contract."""

    def __init__(self, op_index, op, violations):
        self.op_index = op_index
        self.op = op
        self.violations = list(violations)
        super().__init__(f"op {op_index} ({op.describe()}): " + "; ".join(self.violations))


@dataclass
class MicroProgram:
    """An ordered list of micro-ops, optionally annotated with step labels.

    Annotations are (label, start, end) half-open ranges over the op list.
    When present they must partition the list; a label may appear in more
    than one range.
    """

    ops: list
    annotations: tuple = ()

    def check_annotations(self):
        if not self.annotations:
            return
        pos = 0
        for label, start, end in self.annotations:
            if start != pos or end <= start:
                raise ValueError(f"annotations do not partition the op list at {label!r}")
            pos = end
        if pos != len(self.ops):
            raise ValueError("annotations do not cover the op list")


class ProgramBuilder:
    """Accumulates micro-ops and step annotations for a MicroProgram."""

    def __init__(self):
        self.ops = []
        self._spans = []
        self._open_label = None
        self._open_start = 0

    @contextmanager
    def step(self, label):
        if self._open_label is not None:
            raise RuntimeError("step annotations cannot nest")
        self._open_label = label
        self._open_start = len(self.ops)
        try:
            yield self
        finally:
            self._spans.append((self._open_label, self._open_start, len(self.ops)))
            self._open_label = None

    def init(self, *regions):
        self.ops.append(Init(tuple((r, c) for r, c in regions)))

    def nor_row(self, input_cols, output_col, rows):
        self.ops.append(NorRow(tuple(input_cols), int(output_col), rows))

    def nor_col(self, input_rows, output_row, cols):
        self.ops.append(NorCol(tuple(input_rows), int(output_row), cols))

    def write(self, cells, bits):
        self.ops.append(WriteExternal(tuple(cells), tuple(int(b) for b in bits)))

    def read(self, row, col):
        self.ops.append(ReadCell(int(row), int(col)))

    def build(self):
        if self._spans and sum(e - s for _, s, e in self._spans) != len(self.ops):
            raise RuntimeError("ops were emitted outside of step annotations")
        prog = MicroProgram(self.ops, tuple(self._spans))
        prog.check_annotations()
        return prog


class CrossbarState:
    """Cell grid of one ROWS x COLS crossbar."""

    def __init__(self):
        self.cells = np.zeros((ROWS, COLS), dtype=np.uint8)

    # Host-side accessors. These model pre-stored data (no cycle cost);
    # cycle-counted writes go through the WriteExternal micro-op.
    def set_bits(self, cells, bits):
        for (r, c), b in zip(cells, bits):
            if b not in (0, 1):
                raise ValueError(f"cell value must be 0 or 1, got {b}")
            self.cells[r, c] = b

    def get_bits(self, cells):
        return [int(self.cells[r, c]) for r, c in cells]

    def write_value(self, cells, value):
        """Store an unsigned integer little-endian across `cells`."""
        self.set_bits(cells, [(value >> i) & 1 for i in range(len(cells))])

    def read_value(self, cells):
        """Read cells as a little-endian unsigned integer."""
        return sum(int(self.cells[r, c]) << i for i, (r, c) in enumerate(cells))


@dataclass
class StepCycles:
    compute: int = 0
    init: int = 0


@dataclass
class ExecResult:
    """Outcome of running a program: read-out bits plus the cycle report."""

    readout: list
    compute_cycles: int
    init_cycles: int
    steps: dict


def _lower(op):
    """Check one op against the crossbar and lower it to bitmask form.

    The checks do not depend on cell values: addressing, aliasing and
    shape. A well-formed op gets its lowered form cached on op._c and
    yields no violations; an op with violations is not cached, so it
    fails again on every run. The forms address the column grid that
    execute runs on, where bit r of column c is cell (r, c). A repeated
    line switches once: a row set is one bitmask, and a column NOR that
    meets a column again finds it already switched:

    - Init: one (cols, row_mask) pair per region;
    - NorRow: (input_cols, output_col, row_mask);
    - NorCol: (input_row_mask, output_row_bit, cols);
    - WriteExternal: one (col, row_bit, bit) triple per cell;
    - ReadCell: (col, row_bit).
    """
    row, col = ("row", ROWS), ("column", COLS)
    bad = []

    def members(spec, axis):
        what, bound = axis
        m = _axis(spec)
        if len(m) == 0:
            bad.append(f"empty {what} set")
        elif min(m) < 0 or max(m) >= bound:
            bad.append(f"{what} out of bounds")
        return m

    def mask(m):
        return sum(1 << r for r in set(m))

    if isinstance(op, Init):
        if not op.regions:
            bad.append("empty cell set")
        regions = [(members(r, row), members(c, col)) for r, c in op.regions]
        if not bad:
            op._c = tuple((c, mask(r)) for r, c in regions)
    elif isinstance(op, (NorRow, NorCol)):
        if isinstance(op, NorRow):
            ins, out, lines, gate, line = op.input_cols, op.output_col, op.rows, col, row
        else:
            ins, out, lines, gate, line = op.input_rows, op.output_row, op.cols, row, col
        if len(ins) == 0:
            bad.append("empty input set")
        if out in ins:
            bad.append("output among inputs")
        members(ins, gate)
        members((out,), gate)
        m = members(lines, line)
        if not bad:
            op._c = (ins, out, mask(m)) if gate is col else (mask(ins), 1 << out, m)
    elif isinstance(op, WriteExternal):
        if len(op.cells) == 0:
            bad.append("empty cell set")
        if len(op.cells) != len(op.bits):
            bad.append("bit count does not match cell count")
        if any(b not in (0, 1) for b in op.bits):
            bad.append("bits must be 0 or 1")
        for r, c in op.cells:
            members((r,), row)
            members((c,), col)
        if not bad:
            op._c = tuple((c, 1 << r, b) for (r, c), b in zip(op.cells, op.bits))
    elif isinstance(op, ReadCell):
        members((op.row,), row)
        members((op.col,), col)
        if not bad:
            op._c = (op.col, 1 << op.row)
    else:
        bad.append(f"unknown op {type(op).__name__}")
    return bad


def _lower_program(program):
    """Lower every op of `program` not yet lowered.

    Raises MicroOpError at the first op with a violation, before any op
    runs. Returns the compute and init cycles of the whole program and
    per step label; they follow from the op costs alone: each op takes
    `op.cycles` compute cycles, and an Init one init cycle.
    """
    program.check_annotations()
    ops = program.ops
    steps = {}
    compute = init = 0
    for label, start, end in program.annotations or ((None, 0, len(ops)),):
        step_compute, step_init = compute, init
        for i in range(start, end):
            op = ops[i]
            try:
                c = op._c
            except AttributeError:  # not a micro-op; _lower says so
                c = None
            if c is None:
                bad = _lower(op)
                if bad:
                    raise MicroOpError(i, op, bad)
            compute += op.cycles
            init += op.__class__ is Init
        if label is not None:
            sc = steps.setdefault(label, StepCycles())
            sc.compute += compute - step_compute
            sc.init += init - step_init
    return compute, init, steps


def execute(program, state, strict=True, trace=None):
    """Run a MicroProgram on a CrossbarState, mutating it in place.

    Every op is checked and lowered before the first one runs, so an
    addressing, aliasing or shape violation aborts with the state
    untouched. The ops then run on a grid of COLS Python ints, where bit
    r of column c is cell (r, c): state.cells is packed into it once on
    entry and written back once on exit, error or not. A NorRow is one
    bitwise expression over its whole row mask; a NorCol is one per
    column. Both modes evaluate a NOR by conditional switching:
    output <- output AND NOR(inputs). Strict mode adds the precondition
    that every output cell of a gate holds 1, checked before the gate
    switches any cell, and aborts at the first gate that finds a 0.

    :param trace: optional callable receiving one line per op,
        formatted `cycle_kind cycle_index op_descriptor`.
    :return: ExecResult with read-out bits and the cycle report.
    """
    compute, init, steps = _lower_program(program)
    packed = np.packbits(state.cells.T.copy(), bitorder="little").tobytes()
    g = [int.from_bytes(packed[i:i + _COL_BYTES], "little")
         for i in range(0, len(packed), _COL_BYTES)]
    readout = []
    traced_compute = traced_init = 0
    try:
        for i, op in enumerate(program.ops):
            cls = op.__class__
            lowered = op._c
            if cls is NorRow:
                ins, out, rows = lowered
                v = g[out]
                if strict and v & rows != rows:
                    raise MicroOpError(i, op, ["output not initialized"])
                acc = 0
                for k in ins:
                    acc |= g[k]
                g[out] = v & ~(acc & rows)
            elif cls is NorCol:
                ins, out, cols = lowered
                if strict and not all(g[k] & out for k in cols):
                    raise MicroOpError(i, op, ["output not initialized"])
                for k in cols:
                    if g[k] & ins:
                        g[k] &= ~out
            elif cls is Init:
                for cols, rows in lowered:
                    for k in cols:
                        g[k] |= rows
            elif cls is WriteExternal:
                for k, bit, b in lowered:
                    g[k] = g[k] | bit if b else g[k] & ~bit
            else:  # ReadCell
                k, bit = lowered
                readout.append(1 if g[k] & bit else 0)
            if trace is not None:
                if cls is Init:
                    traced_init += 1
                    trace(f"init {traced_init} {op.describe()}")
                else:
                    traced_compute += op.cycles
                    trace(f"compute {traced_compute} {op.describe()}")
    finally:
        packed = np.frombuffer(b"".join(v.to_bytes(_COL_BYTES, "little") for v in g), np.uint8)
        state.cells[:] = np.unpackbits(packed, bitorder="little").reshape(COLS, ROWS).T

    return ExecResult(readout, compute, init, steps)


def taint_violations(program, defined_cells):
    """Read-before-define check over a program.

    `defined_cells` is the set of (row, col) cells holding meaningful data
    before the program runs (operands, pre-stored constants). A cell
    becomes readable once it is initialized, host-written, or produced by
    a gate. Returns a list of violation strings (empty = clean).
    """
    known = set(defined_cells)
    bad = []

    def read(cellset, i, op):
        for cell in cellset:
            if cell not in known:
                bad.append(f"op {i} ({op.describe()}) reads undefined cell {cell}")
                return

    for i, op in enumerate(program.ops):
        if isinstance(op, Init):
            for r, c in op.regions:
                known.update((rr, cc) for rr in _axis(r) for cc in _axis(c))
        elif isinstance(op, NorRow):
            rows = _axis(op.rows)
            read(((r, c) for r in rows for c in op.input_cols), i, op)
            known.update((r, op.output_col) for r in rows)
        elif isinstance(op, NorCol):
            cols = _axis(op.cols)
            read(((r, c) for c in cols for r in op.input_rows), i, op)
            known.update((op.output_row, c) for c in cols)
        elif isinstance(op, WriteExternal):
            known.update(op.cells)
        elif isinstance(op, ReadCell):
            read(((op.row, op.col),), i, op)
    return bad

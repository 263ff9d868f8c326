"""Cycle-counting simulator for one stateful-logic memristive crossbar.

Data lives as bits in a 2-D grid of memristor cells (1 = low resistance,
0 = high resistance). Logic executes in place as NOR gates whose inputs
and output sit in the same row (or the same column). A single micro-op
applies the same gate across an arbitrary set of rows (or columns) in one
clock cycle, which is the source of intra-crossbar parallelism. A gate
output cell must hold 1 before the gate evaluates; setting any batch of
cells to 1 costs one cycle, tracked in a separate counter so that gate
cost accounting can exclude initialization.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _axis(spec):
    """Members of an axis spec (int, range, or sequence of ints).

    A range or tuple comes back as is, so normalizing stays cheap on the
    hot validation path; _compile_op turns members into numpy indices.
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
    """Set every cell in the listed (rows, cols) regions to 1. One init cycle."""

    regions: tuple
    _c: object = field(default=None, init=False, repr=False)

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

    def describe(self):
        return f"nor_col in=[{','.join(map(str, self.input_rows))}] out={self.output_row} cols=[{_axis_str(self.cols)}]"


@dataclass(eq=False)
class WriteExternal:
    """Host-driven write of explicit bits into cells, at a declared cost."""

    cells: tuple
    bits: tuple
    cycles: int = 2

    def describe(self):
        pairs = " ".join(f"({r},{c})={b}" for (r, c), b in zip(self.cells, self.bits))
        return f"write cost={self.cycles} {pairs}"


@dataclass(eq=False)
class ReadCell:
    """Read one cell out of the array. One compute cycle."""

    row: int
    col: int

    def describe(self):
        return f"read ({self.row},{self.col})"


MicroOp = (Init, NorRow, NorCol, WriteExternal, ReadCell)


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
    _structure_ok: bool = field(default=False, repr=False, compare=False)

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

    def __init__(self, rows=128, cols=256):
        self.rows = rows
        self.cols = cols
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

    def write(self, cells, bits, cycles):
        self.ops.append(WriteExternal(tuple(cells), tuple(int(b) for b in bits), int(cycles)))

    def read(self, row, col):
        self.ops.append(ReadCell(int(row), int(col)))

    def build(self):
        if self._spans and sum(e - s for _, s, e in self._spans) != len(self.ops):
            raise RuntimeError("ops were emitted outside of step annotations")
        prog = MicroProgram(self.ops, tuple(self._spans))
        prog.check_annotations()
        return prog


class CrossbarState:
    """Cell grid plus cycle counters for one crossbar."""

    def __init__(self, rows=128, cols=256):
        if rows < 1 or cols < 1:
            raise ValueError("crossbar dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.cells = np.zeros((rows, cols), dtype=np.uint8)
        self.compute_cycles = 0
        self.init_cycles = 0

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


def validate_structure(op, rows, cols):
    """State-independent checks: addressing, aliasing, shape."""
    bad = []

    def check(spec, bound, what):
        members = _axis(spec)
        if len(members) == 0:
            bad.append(f"empty {what} set")
        elif min(members) < 0 or max(members) >= bound:
            bad.append(f"{what} out of bounds")

    if isinstance(op, Init):
        if not op.regions:
            bad.append("empty cell set")
        for r, c in op.regions:
            check(r, rows, "row")
            check(c, cols, "column")
    elif isinstance(op, NorRow):
        if len(op.input_cols) == 0:
            bad.append("empty input set")
        if op.output_col in op.input_cols:
            bad.append("output among inputs")
        check(op.input_cols, cols, "column")
        check((op.output_col,), cols, "column")
        check(op.rows, rows, "row")
    elif isinstance(op, NorCol):
        if len(op.input_rows) == 0:
            bad.append("empty input set")
        if op.output_row in op.input_rows:
            bad.append("output among inputs")
        check(op.input_rows, rows, "row")
        check((op.output_row,), rows, "row")
        check(op.cols, cols, "column")
    elif isinstance(op, WriteExternal):
        if len(op.cells) == 0:
            bad.append("empty cell set")
        if len(op.cells) != len(op.bits):
            bad.append("bit count does not match cell count")
        if any(b not in (0, 1) for b in op.bits):
            bad.append("bits must be 0 or 1")
        if op.cycles < 0:
            bad.append("negative cycle cost")
        for r, c in op.cells:
            check((r,), rows, "row")
            check((c,), cols, "column")
    elif isinstance(op, ReadCell):
        check((op.row,), rows, "row")
        check((op.col,), cols, "column")
    else:
        bad.append(f"unknown op {type(op).__name__}")
    return bad


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


def _validate_program_structure(program, rows, cols):
    if program._structure_ok:
        return
    for i, op in enumerate(program.ops):
        bad = validate_structure(op, rows, cols)
        if bad:
            raise MicroOpError(i, op, bad)
    program.check_annotations()
    program._structure_ok = True


_SMALL = 8


def _compile_op(op):
    """Numpy indices of an Init or NOR op, computed once and cached on it.

    A NOR compiles to (transposed, inputs, output, index, small): a column
    NOR is a row NOR on the transposed grid. Line sets of at most _SMALL
    members run as a scalar loop over `small`; larger sets use `index`.
    Members become slices when they form an arithmetic progression, else
    fancy-index lists.
    """
    def index(members):
        if isinstance(members, range):
            return slice(members.start, members.stop, members.step)
        step = members[1] - members[0] if len(members) > 1 else 1
        if step > 0 and all(b - a == step for a, b in zip(members, members[1:])):
            return slice(members[0], members[-1] + 1, step)
        return list(members)

    if isinstance(op, Init):
        pre = []
        for r, c in op.regions:
            ri, ci = index(_axis(r)), index(_axis(c))
            if isinstance(ri, list) and isinstance(ci, list):
                pre.append(np.ix_(ri, ci))
            else:
                pre.append((ri, ci))
        return pre
    if isinstance(op, NorRow):
        transposed, ins, out, lines = False, op.input_cols, op.output_col, op.rows
    else:
        transposed, ins, out, lines = True, op.input_rows, op.output_row, op.cols
    members = _axis(lines)
    if len(members) <= _SMALL:
        return transposed, ins, out, None, members
    return transposed, ins, out, index(members), None


def execute(program, state, strict=True, trace=None):
    """Run a MicroProgram on a CrossbarState, mutating it in place.

    In strict mode a NOR whose output cell is not 1 aborts with the
    violation list. In permissive mode the gate conditionally switches:
    output <- old_output AND NOR(inputs). Addressing and aliasing
    violations abort in both modes.

    :param trace: optional callable receiving one line per op,
        formatted `cycle_kind cycle_index op_descriptor`.
    :return: ExecResult with read-out bits and the cycle report.
    """
    _validate_program_structure(program, state.rows, state.cols)
    cells = state.cells
    cells_t = cells.T
    readout = []
    compute = 0
    init = 0
    steps = {}
    spans = list(program.annotations)
    span_i = 0
    for i, op in enumerate(program.ops):
        cls = op.__class__
        if cls is NorRow or cls is NorCol:
            c = op._c
            if c is None:
                c = op._c = _compile_op(op)
            transposed, ins, out, idx, small = c
            grid = cells_t if transposed else cells
            if small is not None:
                for r in small:
                    line = grid[r]
                    acc = line[ins[0]]
                    for k in ins[1:]:
                        acc = acc | line[k]
                    if strict:
                        if line[out] != 1:
                            raise MicroOpError(i, op, ["output not initialized"])
                        line[out] = 0 if acc else 1
                    elif acc:
                        line[out] = 0
            else:
                if strict and not grid[idx, out].all():
                    raise MicroOpError(i, op, ["output not initialized"])
                if len(ins) == 1:
                    acc = grid[idx, ins[0]] ^ 1
                else:
                    acc = grid[idx, ins[0]] | grid[idx, ins[1]]
                    for k in ins[2:]:
                        acc |= grid[idx, k]
                    acc ^= 1
                if strict:
                    grid[idx, out] = acc
                else:
                    grid[idx, out] &= acc
            compute += 1
            kind, cost = "compute", 1
        elif cls is Init:
            pre = op._c
            if pre is None:
                pre = op._c = _compile_op(op)
            for index in pre:
                cells[index] = 1
            init += 1
            kind, cost = "init", 1
        elif cls is WriteExternal:
            for (r, c), b in zip(op.cells, op.bits):
                cells[r, c] = b
            compute += op.cycles
            kind, cost = "compute", op.cycles
        else:  # ReadCell
            readout.append(int(cells[op.row, op.col]))
            compute += 1
            kind, cost = "compute", 1

        if spans:
            while span_i < len(spans) and i >= spans[span_i][2]:
                span_i += 1
            label = spans[span_i][0]
            sc = steps.get(label)
            if sc is None:
                sc = steps[label] = StepCycles()
            if kind == "compute":
                sc.compute += cost
            else:
                sc.init += cost
        if trace is not None:
            index = init if kind == "init" else compute
            trace(f"{kind} {index} {op.describe()}")

    state.compute_cycles += compute
    state.init_cycles += init
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

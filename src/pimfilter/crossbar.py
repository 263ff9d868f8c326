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
Programs and the Blocks they share hold their ops as (label, ops) steps,
so every op belongs to exactly one step and the per-step cycle report
needs no check that the labels cover the ops.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, groupby
from numbers import Integral
from types import MappingProxyType

ROWS, COLS = 128, 256
_ROW_MASK = (1 << ROWS) - 1
# Widest row band whose lane code runs on a byte per lane (_band, _Unit):
# at one lane, 8 rows keep every value at most 255, which CPython caches.
_BAND_ROWS = 8
_BITS = frozenset((0, 1))


def _axis(spec):
    """Members of an axis spec (int, range, or sequence of ints).

    A range or tuple comes back as is, so normalizing stays cheap; _lower
    turns members into bitmasks.
    """
    if isinstance(spec, (range, tuple)):
        return spec
    if isinstance(spec, Integral):
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


class Block:
    """A run of ops that many programs share, held as (label, ops) steps.

    Building a block lowers its ops and counts their cycles (_count: an op
    with a violation raises MicroOpError, numbered across the block's
    steps) and proves the ops init-dominated: every gate output is set by
    an Init among them, with no write since (_dataflow).
    Ops that are not raise ValueError. So a strict run cannot fail inside
    a block, whatever the grid held before, and MicroProgram.run runs its
    ops without the check. `ops` lists the steps' ops in
    order. A block has two executors: on a grid, the interpreter runs its
    ops (MicroProgram.run, _interpret), which defines what they do; over
    many grids at once, Lanes runs them as lane code compiled once per
    block (_Unit), tested against the interpreter.
    """

    def __init__(self, steps):
        self.steps = tuple((label, list(ops)) for label, ops in steps)
        self.ops = list(chain(*(ops for _, ops in self.steps)))
        self.counted = _count(self.steps)
        if not _dataflow(self.ops)[0]:
            raise ValueError("the block is not init-dominated")


class LaneGroup(Block):
    """Spans that run one template op for op, each on its own input
    column and each followed by its own tail, which Lanes runs as lanes
    of the template and then the tails.

    `pairs` lists (template step, tail step) pairs; the block's steps are
    those steps in that order, so a program, its cycle counts, its trace
    and a run on a grid hold them as if they were separate blocks. Lanes
    runs span x of a grid as lane x of the template, from span x's input
    column, with every other template column at 0 on entry, then tail x
    on lane x's template-written cells (Lanes._group).

    That is exact because a proof, made once when the group is built
    (from _dataflow's live-in and written rows), shows that the group is
    init-dominated, as every Block is, and that:

    (a) every template span is Inits and NORs alone, so it reads no cell
        out, reads before writing it one column, its input, and is the
        first with its input column renamed;
    (b) the template writes no span's input column;
    (c) each tail reads, before writing, only template-written cells or
        cells nothing in the group writes, and writes no cell a template
        span reads or writes.

    A group that fails the proof raises ValueError when it is built,
    from the check marked with the letter of the property that fails.
    """

    def __init__(self, pairs):
        super().__init__(step for pair in pairs for step in pair)
        parts = [ops for _, ops in self.steps]
        self._pairs = list(zip(parts[0::2], parts[1::2]))
        if any(op.__class__ not in (Init, NorRow, NorCol) for span, _ in self._pairs for op in span):  # (a)
            raise ValueError("a template span holds an op other than Init, NorRow and NorCol")
        group_written = _dataflow(self.ops)[2]
        inputs = []
        for span, _ in self._pairs:
            live = _dataflow(span)[1]
            cols = [k for k, rows in enumerate(live) if rows]
            if len(cols) != 1:  # (a)
                raise ValueError(f"a template span reads columns {cols} before writing them, not one")
            inputs.append((cols[0], live[cols[0]]))
        template = self._pairs[0][0]
        k0 = inputs[0][0]
        forms = [_form(op, {}) for op in template]
        for (k, _), (span, _) in zip(inputs, self._pairs):
            if [_form(op, {k: k0}) for op in span] != forms:  # (a)
                raise ValueError(f"the span on column {k} is not the template on column {k0}")
        t_written = _dataflow(template)[2]
        if any(t_written[k] for k, _ in inputs):  # (b)
            raise ValueError("the template writes an input column")
        t_touched = list(t_written)
        for k, rows in inputs:
            t_touched[k] |= rows
        for x, (_, tail) in enumerate(self._pairs):
            _, live, written = _dataflow(tail)
            if any(live[k] & ~t_written[k] & group_written[k] or written[k] & t_touched[k]
                   for k in range(COLS)):  # (c)
                raise ValueError(f"tail {x} reads a cell the group writes outside the "
                                 "template, or writes one the template uses")
        self._inputs = tuple(k for k, _ in inputs)


class _Unit:
    """Ops compiled once as lane code (_Source.function): run(append, K,
    *params) runs them over any number n of lanes of the format `fmt` =
    (stride, lo, width), where lane j of a value holds rows lo..lo+width-1
    of its column from bit stride * j: a byte per lane on a band of at
    most _BAND_ROWS rows (_band), else a whole column. constants(n) is
    the value of each name in K: its one-lane value repeated in n lanes.

    The unit is compiled from the rows live after it (`after`, per
    column, those that something run later reads) that it writes, back
    to the rows it reads first (_live, _Source.lane_op): a gate assigns
    its output cells, so an Init that only readies them emits nothing,
    and a cone of NorRows on the same rows that only its root's readers
    see is one line of its cheapest bitwise expression (_Cones). `loads`
    lists the (column, live-in rows) of its parameters, and `stores` the
    (column, written rows) of the values run returns, for each column
    with a written row live after: a value holds what the ops leave on
    those rows, and anything on the other written rows. A column with no
    live-in row starts known to hold 0, and one in `known` that value
    (`entry` maps each column known on entry to its value); any other is
    a parameter. The unit's `known` holds the values the ops leave known.

    With `fold` = (rows, spans), the ops touch only `rows` (_fold) and
    run on whole columns, each lane holding `spans` copies of them, copy
    x at rows r + x: a constant is bound as (value & rows) in every
    copy. The copies are disjoint, so every op acts on each copy alone."""

    def __init__(self, ops, after, known=None, var="c", fold=None):
        written = _dataflow(ops)[2]
        # from the rows it writes that are live after it, back to the rows
        # it reads first
        per_op, live_in = _live(ops, list(map(int.__and__, after, written)))
        lo, width = _band(ops) if fold is None else (0, ROWS)
        self.fmt = (_BAND_ROWS if width <= _BAND_ROWS else ROWS, lo, width)
        self.ops, self.after = ops, after
        self.entry = {**{k: 0 for k in range(COLS) if not live_in[k]}, **(known or {})}
        src = _Source(dict(self.entry), (lo, width), var)
        src.ops(ops, per_op)
        self.known = src.known
        self.fold = (_ROW_MASK, 1) if fold is None else fold
        self.stores = tuple((k, rows) for k, rows in enumerate(written) if rows & after[k])
        self.text = src.function([k for k, _ in self.stores])
        self.loads = tuple((k, live_in[k]) for k in src.loads)
        self.consts = tuple(src.consts)
        self.reads = any(op.__class__ is ReadCell for op in ops)
        # per store, (shift, rows) if its value only moves rows it loaded,
        # up by the shift if positive
        self.copies = [None if k in src.known else src.copies.get(k) for k, _ in self.stores]
        namespace = {}
        exec(compile(self.text, "<lanes>", "exec"), namespace)
        self.run = namespace["f"]

    def constants(self, n):
        rows, spans = self.fold
        # the copies of `rows` are disjoint, so the product has no carry
        repeat = _repeat(self.fmt[0], n) * ((1 << spans) - 1)
        return tuple((v & rows) * repeat for v in self.consts)


def _fold(ops, n):
    """(cut, rows): the first Init of ops, or else their end, from which
    the rows that the rest touch (_dataflow's live-in and written rows),
    shifted by 0..n-1, are n disjoint sets inside ROWS rows, and those
    rows. So n copies of the rest can share one whole-column lane."""
    for cut in [i for i, op in enumerate(ops) if op.__class__ is Init] + [len(ops)]:
        _, live, written = _dataflow(ops[cut:])
        rows = 0
        for k in range(COLS):
            rows |= live[k] | written[k]
        copies = 0
        for x in range(n):
            if copies & rows << x:
                break
            copies |= rows << x
        else:
            if copies <= _ROW_MASK:
                return cut, rows


def _shifted(name, stride, o, x):
    """The expression of value `name`'s lanes from o * B of the stride,
    at row shift x: down by x, or up by -x when x is negative."""
    if o:
        return f"{name} >> {stride * o} * B" + (f" + {x}" if x > 0 else f" - {-x}" if x < 0 else "")
    return name + (f" >> {x}" if x > 0 else f" << {-x}" if x < 0 else "")


def _repeat(stride, n):
    """1 at bit stride * j of each of n lanes."""
    return int.from_bytes((b"\1" + bytes(stride // 8 - 1)) * n, "little")


def _pack(values, stride):
    """Per-lane values, each below 2**stride, as one int: lane j from
    bit stride * j."""
    if stride == _BAND_ROWS:
        return int.from_bytes(bytes(values), "little")
    return int.from_bytes(b"".join([v.to_bytes(stride // 8, "little") for v in values]), "little")


class Lanes:
    """Blocks run once over many lanes, as many arrays run one program
    in lockstep: lane j stands for the blocks run on one array's grid.

    `inputs` lists, per column that the blocks read before writing it
    (one _dataflow pass over their ops), (column, rows, fmt): its live-in
    rows, and the format fmt = (stride, lo, width) of a _Unit that a
    caller packs them in: a byte per lane, rows lo.. of the column, when
    the rows fit _BAND_ROWS rows, else a whole column per lane.
    run(values, readouts) runs the blocks once over B = len(readouts)
    lanes, values[i] holding input i of every lane (lane j from bit
    stride * j, shifted down by lo, with no bit off the input's rows:
    _pack), and appends lane j's read bits to readouts[j]: those that
    running the blocks on a grid holding lane j's inputs reads out.

    Each block runs as lane code compiled once (_Unit), whatever B is: a
    Block on its own format; a LaneGroup of n = len(pairs) spans as its
    template up to its fold's cut (_fold) over n * B lanes, span x of
    lane j in lane x * B + j, then the rest of the template over B
    lanes, span x of lane j at rows r + x of lane j (starting from the
    columns the first part leaves known), then each tail over B lanes.
    The rest touches only the fold's rows, whose n shifts are disjoint
    and inside the column, and each of its constants is bound as its
    value on those rows in every span, so each op acts on each span
    alone, as over n * B lanes. A template with no cut folds at its end,
    with an empty rest.

    Each unit is compiled from the rows live after it: one backward pass
    (_live) from the read bits, the only thing live after the last unit,
    through every unit in reverse, each span's input taking the live
    rows of the template's input. Each parameter of a unit is gathered,
    row by row of its live-in rows, from the last unit run before it
    that wrote the row, or else from the inputs, and converted to the
    unit's format; a parameter of the rest is the OR over x of span x's
    rows shifted by x. A tail takes the template-written rows from its
    own span's lanes and row shift: the proof of the LaneGroup
    shows that a tail reads no cell another tail writes and writes none
    a span uses. So every unit reads, on its live-in rows, what it reads
    in a run of the blocks, and every row a later unit reads holds what
    the run leaves there. A tail on whole columns that reads no cell out
    and whose every value only moves rows of its own column that one
    layer on whole columns holds (_Unit.copies) runs as no unit: its
    rows are that layer's, at the shift that moves them.

    One more function, `_run`, compiled once like the units, gathers,
    runs the units and splits the read bits; the lane counts and masks
    that depend on B are bound per B (_bind).
    """

    def __init__(self, blocks):
        live = _dataflow([op for block in blocks for op in block.ops])[1]
        self._units, self._masks, self._lines = [], {}, []
        inputs, layers = [], {}
        for i, (k, rows) in enumerate((k, rows) for k, rows in enumerate(live) if rows):
            lo = (rows & -rows).bit_length() - 1
            fmt = (_BAND_ROWS, lo, _BAND_ROWS) if rows.bit_length() - lo <= _BAND_ROWS else (ROWS, 0, ROWS)
            inputs.append((k, rows, fmt))
            layers[k] = [((None, i, fmt, 0, 0), rows)]
        self.inputs = tuple(inputs)
        # the rows live after each unit, from the last back (_live): only
        # the read bits are live after the last
        live, afters = [0] * COLS, []
        for block in reversed(blocks):
            for ops in reversed(self._parts(block)):
                afters.append(live)
                live = _live(ops, live)[1]
            if isinstance(block, LaneGroup):  # each span reads its own input as the template reads k0
                for k in block._inputs:
                    live[k] |= live[block._inputs[0]]
        for block in blocks:
            if isinstance(block, LaneGroup):
                self._group(block, layers, afters)
            else:
                unit = _Unit(block.ops, afters.pop())
                self._written(self._call(unit, 1, [[self._gather(layers.get(k, []), rows, unit.fmt)]
                                                   for k, rows in unit.loads]), layers)
        names = [f"K{u}" for u in range(len(self._units))] + list(self._masks.values())
        body = [*([f"({''.join(f'c{i}, ' for i in range(len(inputs)))}) = values"] if inputs else []),
                *([f"({''.join(n + ', ' for n in names)}) = P"] if names else []),
                "r = []", *self._lines]
        namespace = {f"f{u}": unit.run for u, (unit, _) in enumerate(self._units)}
        namespace.update(pack=_pack, from_bytes=int.from_bytes)
        exec(compile(_function("run(values, P, B, readouts)", body), "<lanes>", "exec"), namespace)
        self._run = namespace["run"]

    @staticmethod
    def _parts(block):
        """The op lists of a block's units, in run order: a LaneGroup's
        template up to its fold's cut (_fold), the rest of it, then its
        tails; any other block's ops."""
        if not isinstance(block, LaneGroup):
            return [block.ops]
        template = block._pairs[0][0]
        cut, _ = _fold(template, len(block._pairs))
        return [template[:cut], template[cut:], *(tail for _, tail in block._pairs)]

    def _group(self, group, layers, afters):
        """The units of a LaneGroup: its template up to its fold's cut
        (_fold) over its spans' lanes, the rest of it over B lanes with
        span x at row shift x, then its tails, each reading the
        template-written rows from its span's lanes. `afters` lists the
        rows live after each unit, the last unit's first."""
        n, k0 = len(group._pairs), group._inputs[0]
        template = group._pairs[0][0]
        cut, rows = _fold(template, n)
        first = _Unit(template[:cut], afters.pop(), known={k: 0 for k in range(COLS) if k != k0}, var="l")
        p = self._call(first, n, [[self._gather(layers.get(k, []), live, first.fmt) for k in group._inputs]
                                  for _, live in first.loads])
        # the rest starts from the columns the first part leaves known,
        # but for the input, which it reads from the spans' own columns
        rest = _Unit(template[cut:], afters.pop(), known={k: v for k, v in first.known.items() if k != k0},
                     var="l", fold=(rows, n))
        inputs = [layers.get(k, []) for k in group._inputs]
        q = self._call(rest, 1, [[self._gather((inputs[x] if k == k0 else []) + self._span(x, k, (p,)), live,
                                               rest.fmt) for x in range(n)] for k, live in rest.loads])
        self._written(p, layers, n - 1)
        self._written(q, layers, n - 1)
        for x, (_, tail) in enumerate(group._pairs):
            unit = _Unit(tail, afters.pop())
            moved = self._copy_layers(unit, [layers.get(k, []) + self._span(x, k, (p, q)) for k, _ in unit.stores])
            if moved is None:
                self._written(self._call(unit, 1, [[self._gather(layers.get(k, []) + self._span(x, k, (p, q)), live,
                                                                 unit.fmt)] for k, live in unit.loads]), layers)
            for k, layer in moved or ():
                layers.setdefault(k, []).append(layer)

    @staticmethod
    def _copy_layers(unit, stacks):
        """The layers of a unit on whole columns that reads no cell out
        and whose every value only moves rows of its own column, each
        held by one layer on whole columns in its stack (stacks, one per
        store): (column, that layer at the moved rows and row shift), so
        the unit need not run; else None."""
        if unit.reads or unit.fmt[0] != ROWS or None in unit.copies:
            return None
        moved = []
        for (k, _), stack, (shift, rows) in zip(unit.stores, stacks, unit.copies):
            top = next(((key, held) for key, held in reversed(stack) if held & rows), None)
            if top is None or top[1] & rows != rows or top[0][2][0] != ROWS:
                return None
            (u, i, fmt, o, x), _ = top
            moved.append((k, ((u, i, fmt, o, x - shift), rows << shift if shift > 0 else rows >> -shift)))
        return moved

    def _layers(self, u, x=0):
        """(column, layer) of each store of unit u, as span x holds it:
        lanes from x * B of a unit over every span, row shift x of one
        that folds them."""
        unit = self._units[u][0]
        at = (0, x) if unit.fold[1] > 1 else (x, 0)
        return [(k, ((u, i, unit.fmt, *at), rows)) for i, (k, rows) in enumerate(unit.stores)]

    def _span(self, x, k, units):
        """The layers of column k that the template units `units` write,
        as span x holds them."""
        return [layer for u in units for c, layer in self._layers(u, x) if c == k]

    def _written(self, u, layers, x=0):
        """Put the rows unit u writes on top of their columns' layers, as
        span x holds them."""
        for k, layer in self._layers(u, x):
            layers.setdefault(k, []).append(layer)

    def _call(self, unit, n, params):
        """Add the lines of _run that run `unit` over n * B lanes, each
        parameter the OR of its gathers, gather x moved to lanes x * B..,
        or to row shift x in a unit that folds spans; the unit's index."""
        u = len(self._units)
        self._units.append((unit, n))
        fold = unit.fold[1] > 1
        args = "".join(", " + " | ".join(f"({expr}) << {x if fold else f'{unit.fmt[0] * x} * B'}" if x else expr
                                         for x, expr in enumerate(gathers)) for gathers in params)
        self._lines.append(f"u{u} = f{u}(r.append, K{u}{args})")
        if unit.reads:
            step = unit.fmt[0] // 8
            self._lines += ["for v in r:",
                            f"    for readout, bit in zip(readouts, v.to_bytes({step} * B, 'little')[::{step}]):",
                            "        readout.append(bit)",
                            "r.clear()"]
        return u

    def _gather(self, stack, need, fmt):
        """The expression of a column's rows `need` in format fmt over B
        lanes, each row from the top layer of `stack` that holds it; 0
        where none does. A layer of unit u is its lanes from o * B, at row
        shift x, and one of input i is c<i>, which holds only its rows.
        A negative row shift moves rows up. Rows from whole columns onto a
        band are ORed on the whole columns, shifted down by lo, one term
        per (unit value, lanes, shift), then moved to a byte per lane at
        once."""
        stride, lo, _ = fmt
        exprs, moved = [], {}
        for (u, i, (s, l, w), o, x), rows in reversed(stack):
            take = rows & need
            if not take:
                continue
            need &= ~take
            name = f"c{i}" if u is None else f"u{u}[{i}]"
            if (s, l) == (stride, lo):
                value = _shifted(name, s, o, x)
                if u is not None or take != rows:
                    value += f" & {self._mask(s, take >> l)}"
                exprs.append(value)
            elif (s, stride) == (ROWS, _BAND_ROWS):
                moved[name, o, x + lo] = moved.get((name, o, x + lo), 0) | take >> lo
            else:
                exprs.append(f"pack([(({name} >> {s} * ({o} * B + j) + {x} & {hex((1 << w) - 1)}) << {l}"
                             f" & {hex(take)}) >> {lo} for j in range(B)], {stride})")
        if moved:
            terms = " | ".join(f"{_shifted(name, ROWS, o, x)} & {self._mask(ROWS, rows)}"
                               for (name, o, x), rows in moved.items())
            exprs.append(f"from_bytes(({terms}).to_bytes(16 * B, 'little')[::16], 'little')")
        return " | ".join(f"({expr})" for expr in exprs) or "0"

    def _mask(self, stride, rows):
        """The name of `rows` repeated in each lane of the stride."""
        return self._masks.setdefault((stride, rows), f"m{len(self._masks)}")

    @functools.lru_cache(maxsize=2)
    def _bind(self, B):
        """The names _run binds at B lanes: each unit's constants, then the
        masks."""
        return (*(unit.constants(n * B) for unit, n in self._units),
                *(rows * _repeat(stride, B) for stride, rows in self._masks))

    def run(self, values, readouts):
        B = len(readouts)
        self._run(values, self._bind(B), B, readouts)


@dataclass
class MicroProgram:
    """A program: a head of (label, ops) steps, then `blocks`, a tuple of
    Blocks that run in order after it.

    A label of None marks ops outside every step. A label may name more
    than one step, and steps in the head and in blocks alike. `ops` reads
    the whole program: the head's ops, then each block's. execute asks a
    program for its cycles (`cycles`), then runs it (`run`) on a grid
    through the interpreter: the head with the caller's strict check, the
    blocks, proved init-dominated, without it. A kernel
    location (kernel.run_kernel) is a program of the same form that a
    batch decides as a lane (Lanes), that runs as its MicroProgram only
    when its grid is read, and whose head and ops are built only when
    something reads them.
    """

    head: tuple
    blocks: tuple = ()

    @property
    def ops(self):
        return list(chain(*(ops for _, ops in self.head), *(block.ops for block in self.blocks)))

    def cycles(self):
        """Lower the head's ops (_count), so that a violation raises before
        any op runs, and count the cycles of every step, adding the
        blocks' counts (Block.counted): (compute, init, steps), where
        steps maps each step label, the head's first, to its StepCycles
        and is read-only."""
        compute, init, per_label = _count(self.head)
        for block in self.blocks:
            block_compute, block_init, block_labels = block.counted
            compute, init = compute + block_compute, init + block_init
            for label, (c, i) in block_labels.items():
                c0, i0 = per_label.get(label, (0, 0))
                per_label[label] = (c0 + c, i0 + i)
        return compute, init, MappingProxyType({label: StepCycles(c, i) for label, (c, i) in per_label.items()})

    def run(self, state, readout, strict, emit):
        """Run every op through the interpreter on the grid of state: the
        head's with the `strict` check, the blocks' without it, since a
        Block is proved init-dominated and none of its gates can fail it."""
        g = state.cols
        _interpret(chain(*(ops for _, ops in self.head)), g, readout, strict, emit)
        for block in self.blocks:
            _interpret(block.ops, g, readout, False, emit)


class ProgramBuilder:
    """Accumulates micro-ops as (label, ops) steps for a MicroProgram.

    The last step takes the next op: inside `with step(label)` that is
    the step, and outside every step a step labelled None. A step is open
    while the last step has a label.
    """

    def __init__(self):
        self.steps = [(None, [])]

    @contextmanager
    def step(self, label):
        if self.steps[-1][0] is not None:
            raise RuntimeError("steps cannot nest")
        self.steps.append((label, []))
        try:
            yield self
        finally:
            self.steps.append((None, []))

    def init(self, *regions):
        self.steps[-1][1].append(Init(tuple((r, c) for r, c in regions)))

    def nor_row(self, input_cols, output_col, rows):
        self.steps[-1][1].append(NorRow(tuple(input_cols), int(output_col), rows))

    def nor_col(self, input_rows, output_row, cols):
        self.steps[-1][1].append(NorCol(tuple(input_rows), int(output_row), cols))

    def write(self, cells, bits):
        self.steps[-1][1].append(WriteExternal(tuple(cells), tuple(map(int, bits))))

    def read(self, row, col):
        self.steps[-1][1].append(ReadCell(int(row), int(col)))

    def build(self):
        """A MicroProgram of the non-empty steps; ValueError if some ops
        are inside a step and others outside every step."""
        steps = tuple(step for step in self.steps if step[1])
        if len({label is None for label, _ in steps}) > 1:
            raise ValueError("some ops are outside every step")
        return MicroProgram(steps)


class CrossbarState:
    """Cell grid of one ROWS x COLS crossbar, held packed.

    `cols` is a list of COLS Python ints in which bit r of cols[c] is
    cell (r, c); execute runs programs on it, and the grid is exact
    whenever it is read. Every column stays in [0, 2**ROWS): no op sets a
    bit off the array.

    A kernel location (kernel.run_kernel) does not run on the grid when
    it is run: a batch of locations (kernel.Batch) decides it, as a lane
    of one pass (Lanes), from the cells its program reads, which no
    location writes, and it waits in `_replay` until the grid is read.
    Reading `cols` replays the waiting locations in order, each as its
    program (kernel._Location.replay), in the same list object. The list
    is exact until the next kernel location runs on the state.
    """

    def __init__(self):
        self._grid = [0] * COLS
        self._replay = []

    @property
    def cols(self):
        if self._replay:
            replay, self._replay = self._replay, []
            for location in replay:
                location.replay(self)
        return self._grid

    # Host-side accessors. These model pre-stored data (no cycle cost);
    # cycle-counted writes go through the WriteExternal micro-op.
    def set_bits(self, cells, bits):
        cols = self.cols
        for cell, b in zip(cells, bits):
            if b not in (0, 1):
                raise ValueError(f"cell value must be 0 or 1, got {b}")
            r, c = _cell(cell)
            if b:
                cols[c] |= 1 << r
            else:
                cols[c] &= ~(1 << r)

    def get_bits(self, cells):
        cols = self.cols
        return [cols[c] >> r & 1 for r, c in map(_cell, cells)]

    def write_value(self, cells, value):
        """Store an unsigned integer little-endian across `cells`."""
        if not 0 <= value < 1 << len(cells):
            raise ValueError(f"{value} does not fit in {len(cells)} cells")
        self.set_bits(cells, [(value >> i) & 1 for i in range(len(cells))])

    def read_value(self, cells):
        """Read cells as a little-endian unsigned integer."""
        return sum(b << i for i, b in enumerate(self.get_bits(cells)))


def _cell(cell):
    """(row, col) of a cell; IndexError if it is outside the array."""
    r, c = cell
    if not (0 <= r < ROWS and 0 <= c < COLS):
        raise IndexError(f"cell ({r}, {c}) is outside the {ROWS}x{COLS} array")
    return r, c


@dataclass(frozen=True)
class StepCycles:
    compute: int = 0
    init: int = 0


@dataclass(slots=True)
class ExecResult:
    """Outcome of running a program: read-out bits plus the cycle report."""

    readout: list
    compute_cycles: int
    init_cycles: int
    steps: MappingProxyType  # step label -> StepCycles, shared, read-only


def _members(spec, what, bound, bad):
    """Members of an axis spec; an empty set or one outside 0..bound-1
    appends its violation to bad. A range is bounded by its two ends."""
    m = _axis(spec)
    if not m:
        bad.append(f"empty {what} set")
    elif m.__class__ is range:
        lo, hi = (m[0], m[-1]) if m.step > 0 else (m[-1], m[0])
        if lo < 0 or hi >= bound:
            bad.append(f"{what} out of bounds")
    elif min(m) < 0 or max(m) >= bound:
        bad.append(f"{what} out of bounds")
    return m


def _mask(m):
    """Bitmask of in-bounds lines: a unit-step range in one shift, any
    other set line by line (a repeated line sets its bit once)."""
    if m.__class__ is range and m.step == 1:
        return ((1 << len(m)) - 1) << m.start
    return sum(1 << r for r in set(m))


def _gate_checks(ins, out, what, bound, bad):
    if len(ins) == 0:
        bad.append("empty input set")
    if out in ins:
        bad.append("output among inputs")
    _members(ins, what, bound, bad)
    if not 0 <= out < bound:
        bad.append(f"{what} out of bounds")


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

    The cost does not grow with the row count of a unit-step range: its
    bounds come from its ends and its mask from one shift. An object that
    is not one of the op classes raises TypeError.
    """
    bad = []
    if isinstance(op, Init):
        if not op.regions:
            bad.append("empty cell set")
        regions = [(_members(r, "row", ROWS, bad), _members(c, "column", COLS, bad))
                   for r, c in op.regions]
        if not bad:
            op._c = tuple([(c, _mask(r)) for r, c in regions])
    elif isinstance(op, NorRow):
        _gate_checks(op.input_cols, op.output_col, "column", COLS, bad)
        rows = _members(op.rows, "row", ROWS, bad)
        if not bad:
            op._c = (op.input_cols, op.output_col, _mask(rows))
    elif isinstance(op, NorCol):
        _gate_checks(op.input_rows, op.output_row, "row", ROWS, bad)
        cols = _members(op.cols, "column", COLS, bad)
        if not bad:
            op._c = (_mask(op.input_rows), 1 << op.output_row, cols)
    elif isinstance(op, WriteExternal):
        cells, bits = op.cells, op.bits
        if len(cells) == 0:
            bad.append("empty cell set")
        if len(cells) != len(bits):
            bad.append("bit count does not match cell count")
        if not _BITS.issuperset(bits):
            bad.append("bits must be 0 or 1")
        for r, c in cells:
            if not 0 <= r < ROWS:
                bad.append("row out of bounds")
            if not 0 <= c < COLS:
                bad.append("column out of bounds")
        if not bad:
            op._c = tuple([(c, 1 << r, b) for (r, c), b in zip(cells, bits)])
    elif isinstance(op, ReadCell):
        if not 0 <= op.row < ROWS:
            bad.append("row out of bounds")
        if not 0 <= op.col < COLS:
            bad.append("column out of bounds")
        if not bad:
            op._c = (op.col, 1 << op.row)
    else:
        raise TypeError(f"{type(op).__name__} is not a micro-op")
    return bad


def _count(steps):
    """Lower every op not yet lowered, raising MicroOpError (numbered
    across the steps) at the first with a violation, and count the cycles.

    Returns (compute, init, per_label), with a (compute, init) pair per
    step label other than None. They follow from the op costs alone: each
    op takes `op.cycles` compute cycles, and an Init one init cycle.
    """
    per_label = {}
    compute = init = index = 0
    for label, ops in steps:
        step_compute, step_init = compute, init
        for i, op in enumerate(ops, index):
            # an object that is not a micro-op has no _c; _lower raises TypeError
            if getattr(op, "_c", None) is None and (bad := _lower(op)):
                raise MicroOpError(i, op, bad)
            compute += op.cycles
            init += op.__class__ is Init
        index += len(ops)
        if label is not None:
            c0, i0 = per_label.get(label, (0, 0))
            per_label[label] = (c0 + compute - step_compute, i0 + init - step_init)
    return compute, init, per_label


def _dataflow(ops):
    """One pass over lowered ops, tracking row masks column by column.

    Returns (dominated, live, written). `dominated` is True if every gate
    output is a cell that an Init among the ops set to 1 with no write
    since (the init-ready rows), so that a strict run cannot fail inside
    them, whatever the grid held before. live[k] holds the rows of column
    k that an op reads before any op writes them (the live-in rows), and
    written[k] the rows that some op writes. A gate reads its inputs and
    its output (conditional switching), a ReadCell its cell; an Init, a
    gate and a WriteExternal write their cells.
    """
    ready, live, written = [0] * COLS, [0] * COLS, [0] * COLS
    dominated = True
    for op in ops:
        cls = op.__class__
        lowered = op._c
        if cls is NorRow:
            ins, out, rows = lowered
            for k in (*ins, out):
                live[k] |= rows & ~written[k]
            dominated = dominated and ready[out] & rows == rows
            ready[out] &= ~rows
            written[out] |= rows
        elif cls is NorCol:
            ins, out, cols = lowered
            dominated = dominated and all(ready[k] & out for k in cols)
            for k in cols:
                live[k] |= (ins | out) & ~written[k]
                ready[k] &= ~out
                written[k] |= out
        elif cls is Init:
            for cols, rows in lowered:
                for k in cols:
                    ready[k] |= rows
                    written[k] |= rows
        elif cls is WriteExternal:
            for k, bit, b in lowered:
                ready[k] &= ~bit
                written[k] |= bit
        else:  # ReadCell
            k, bit = lowered
            live[k] |= bit & ~written[k]
    return dominated, live, written


def _live(ops, after_ops):
    """Backward row liveness over the lowered ops of a Block, which are
    init-dominated: from `after_ops`, per column the rows read after the
    ops, (per op the rows of each column it writes that are live after
    it, per column the rows read before the ops).

    A gate's output held 1, so the gate assigns it the NOR of its
    inputs: a NorRow kills its live rows in its output column and makes
    them live in its inputs, and a NorCol, in each column where its
    output row is live, kills that row and makes its input rows live;
    a gate with no live output cell is dead and reads nothing. So an
    Init that only readies gate outputs is dead too. An Init or a
    WriteExternal kills its cells; a ReadCell reads its cell."""
    live, after = list(after_ops), [None] * len(ops)
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        cls = op.__class__
        lowered = op._c
        if cls is NorRow:
            ins, out, rows = lowered
            a = live[out]
            after[i] = {out: a}
            if a & rows:
                live[out] = a & ~rows
                for k in ins:
                    live[k] |= a & rows
        elif cls is NorCol:
            ins, out, cols = lowered
            after[i] = {k: live[k] for k in cols}
            for k in cols:
                if live[k] & out:
                    live[k] = live[k] & ~out | ins
        elif cls is ReadCell:
            k, bit = lowered
            after[i] = {}
            live[k] |= bit
        else:  # Init, WriteExternal
            cells = lowered if cls is Init else [((part[0],), part[1]) for part in lowered]
            after[i] = {k: live[k] for cols, _ in cells for k in cols}
            for cols, rows in cells:
                for k in cols:
                    live[k] &= ~rows
    return after, live


def _form(op, rename):
    """The lowered form of an Init, NorRow or NorCol, with its columns
    mapped through `rename`."""
    cls = op.__class__
    c = op._c

    def col(k):
        return rename.get(k, k)

    if cls is NorRow:
        return cls, tuple(map(col, c[0])), col(c[1]), c[2]
    if cls is NorCol:
        return cls, c[0], c[1], tuple(map(col, c[2]))
    return cls, tuple((tuple(map(col, cols)), rows) for cols, rows in c)


def _band(ops):
    """(lo, width) of the row band that lowered ops touch, or (0, ROWS),
    every row, when it is wider than _BAND_ROWS rows."""
    rows = 0
    for op in ops:
        cls = op.__class__
        c = op._c
        if cls is NorRow:
            rows |= c[2]
        elif cls is NorCol:
            rows |= c[0] | c[1]
        elif cls is ReadCell:
            rows |= c[1]
        else:  # the rows of each Init region, or of each WriteExternal cell
            for part in c:
                rows |= part[1]
    lo = (rows & -rows).bit_length() - 1
    width = rows.bit_length() - lo
    return (lo, width) if rows and width <= _BAND_ROWS else (0, ROWS)


class _Source:
    """Lane code: straight-line Python on column locals, built line by
    line from lowered ops for one lane, which _Unit runs over any number
    of lanes.

    A value holds rows lo..lo+width-1 of its column (`band`), so every
    mask is shifted down by lo. Each column the lines touch is a local
    named `var` and its column, and each constant a name that `consts`
    maps its one-lane value to: one text runs over any number of lanes of
    any stride once the names are bound to the values repeated in each
    lane (_Unit), and every op acts on each lane alone, so the lines stay
    exact. A ReadCell appends an int holding each lane's bit at that
    lane's bit 0. The code takes the columns the lines read before
    assigning them as parameters, runs the lines with no test and returns
    the columns asked for (function): no gate checks its outputs, since
    every Block is init-dominated. No value goes negative: a value holds
    no bit outside `full`, the all-ones value of its band, so a clear is
    an AND with the kept bits, and all of `full` needs no mask.

    The code is built from the rows live after each op (`after`, from
    _live): it need be exact only on those. A gate's output held 1, so a
    gate assigns its output cells:
    - A column in `known` holds that value, and has no local: an Init, a
      write or a NorRow that writes it only updates the value, a NorRow
      that reads it folds the value in as a constant, and a NorCol run
      on it first binds the value to its local. A column still known at
      the end is returned as its value.
    - A NorRow of at most three leaves, none of them known, whose column
      holds no live row off its rows, is a node of a cone (_Cones): it
      gets a line only where something other than such gates on the
      same rows reads it, and that line is the cheapest expression of
      its cone's truth table over its leaves, proved on every leaf
      pattern against the cone's NOR gates.
    - Any other NorRow is `c = c & keep | (acc) & m ^ m`, where m is its
      rows less those a known input holds 1 on, and keep the live rows
      off its rows (with none, `c = (acc) & m ^ m`); it is nothing when
      none of its rows is live.
    - A run of NorCol ops on a column is one line for each group of ops
      in which no op reads a row an earlier one wrote (a hazard starts a
      new group), with one term per distinct shift: every term reads the
      column as it was before the group, which is what each op reads
      when the ops run in order. A group assigns the output rows it
      writes, `c = c & keep | (terms) ^ outs`, keeping only the rows live
      after it; a move through a row that nothing reads later, moved on
      again, is a copy with no NOR, and a move of a node `NOT x` moves x.
    - An Init sets only the rows something reads before a gate assigns
      them, and makes its column known when it sets every live row.
    """

    def __init__(self, known, band, var):
        self.lines, self.loads, self.local = [], [], set()
        self.known = known
        self.lo, self.width = band
        self.var = var
        self.full = (1 << self.width) - 1
        self.consts = {}
        self.cones = _Cones(var)
        self.copies = {}  # column -> (shift, rows) of a last line that only moves its loaded rows

    def num(self, value):
        """The name of a one-lane constant."""
        return self.consts.setdefault(value, f"k{len(self.consts)}")

    def mask(self, rows):
        """A lowered row mask on the band."""
        return rows >> self.lo

    def load(self, k):
        """Column k's local, loaded on entry unless assigned first."""
        if k not in self.local:
            self.local.add(k)
            self.loads.append(k)

    def col(self, k, write=False):
        """The local holding column k, loaded on entry unless assigned
        first. The next line reads its value, which so must exist
        (_Cones), and writes a new one if `write`."""
        self.load(k)
        self.cones.pinned.add(self.cones.value(k))
        if write:
            self.copies.pop(k, None)
            self.cones.assign(k, len(self.lines))
        return f"{self.var}{k}"

    def set(self, k, line):
        """Append the line that assigns column k's local."""
        self.copies.pop(k, None)
        self.local.add(k)
        self.cones.assign(k, len(self.lines))
        self.lines.append(f"{self.var}{k} = {line}")

    def within(self, expr, m):
        """expr masked to m; all of `full` needs no mask."""
        return f"({expr})" if m == self.full else f"({expr}) & {self.num(m)}"

    def ops(self, ops, after):
        """Append the lines of lowered ops, exact on the rows live after
        each op (`after`, from _live: lane_op, moves), with a placeholder
        for each node of a cone, which function replaces."""
        for is_col, run in groupby(zip(ops, after), lambda pair: pair[0].__class__ is NorCol):
            if is_col:
                self.nor_cols(list(run))
            else:
                for op, live in run:
                    self.lane_op(op, {k: self.mask(rows) for k, rows in live.items()})

    def lane_op(self, op, after):
        """Append the lines of one lowered op other than a NorCol, exact on
        the rows live after it (`after`, per column it writes, as masks).
        A NorRow assigns its rows (assign); with no live row off them,
        no known leaf holding 1 on them and at most three leaves, it is
        a node of a cone (_Cones.gate),
        whose line, if any, waits for the cone pass; a dead one emits
        nothing. An Init sets only the live rows, those something reads
        before a gate assigns them, and makes its column known when it
        sets every live row. A WriteExternal or a ReadCell is as in op."""
        cls = op.__class__
        known = self.known
        if cls is NorRow:
            ins, out, rows = op._c
            rows, a = self.mask(rows), after[out]
            if a & rows:
                const = 0
                for k in ins:
                    const |= known.get(k, 0)
                m, keep = rows & ~const, a & ~rows
                names = [k for k in ins if k not in known]
                if not names or not m:
                    value = m
                elif keep or m != rows or len(names) > 3:
                    value = f"{self.within(' | '.join(map(self.col, names)), m)} ^ {self.num(m)}"
                else:
                    # no live row off the gate's rows, so no mask: a node
                    # of a cone, emitted, if at all, when the lines are
                    # done (_Cones)
                    cones = self.cones
                    leaves = []
                    for k in names:
                        self.load(k)
                        leaves.append(cones.value(k))
                    known.pop(out, None)
                    self.local.add(out)
                    self.lines.append(cones.gate(out, rows, leaves, len(self.lines)))
                    return
                self.assign(out, keep, value)
        elif cls is Init:
            per_col = {}  # one line per column, whatever its regions
            for cols, rows in op._c:
                for k in cols:
                    per_col[k] = per_col.get(k, 0) | self.mask(rows)
            for k, rows in per_col.items():
                a = after[k]
                if k in known or not a & ~rows:
                    known[k] = known.get(k, 0) | rows
                elif a & rows:
                    self.lines.append(f"{self.col(k, True)} |= {self.num(a & rows)}")
        else:
            self.op(op)

    def assign(self, k, keep, value):
        """Column k takes `value`, an int or an expression that is 0 off
        the rows an op assigns, and keeps its rows `keep`, the live ones
        off them. It stays or becomes known when both parts are."""
        known, num = self.known, self.num
        if k in known or not keep:
            rest = known.pop(k, 0) & keep
            if value.__class__ is int:
                known[k] = value | rest
                return
            line = value + (f" | {num(rest)}" if rest else "")
        else:
            line = f"{self.col(k)} & {num(keep)}"
            if value:
                line += f" | {num(value) if value.__class__ is int else value}"
        self.set(k, line)

    def op(self, op):
        """Append the lines of a lowered WriteExternal or ReadCell."""
        known, lines, num = self.known, self.lines, self.num
        if op.__class__ is WriteExternal:
            for k, bit, b in op._c:
                bit = self.mask(bit)
                if k in known:
                    known[k] = known[k] | bit if b else known[k] & ~bit
                elif b:
                    lines.append(f"{self.col(k, True)} |= {num(bit)}")
                else:
                    lines.append(f"{self.col(k, True)} &= {num(self.full & ~bit)}")
        else:  # ReadCell
            k, bit = op._c
            shift = bit.bit_length() - 1 - self.lo
            if k in known:
                lines.append(f"append({num(known[k] >> shift & 1)})")
            else:
                lines.append(f"append({self.col(k)}{f' >> {shift}' if shift else ''} & {num(1)})")

    def nor_cols(self, ops):
        """Lines for a run of NorCol ops, each with its live rows (_live),
        column by column: a gate whose output row is dead in a column is
        no term there, and each group of the rest with no hazard is one
        line (moves). A known column is first bound to its local."""
        per_col, lives = {}, {}
        for op, after in ops:
            for k in dict.fromkeys(op._c[2]):
                if after[k] & op._c[1]:
                    per_col.setdefault(k, []).append(op._c)
                lives[k] = after[k]
        for k, gates in per_col.items():
            if k in self.known:
                self.set(k, self.num(self.known.pop(k)))
            groups, terms, wrote = [], {}, 0
            for ins, out, _ in gates:
                if ins & wrote:  # a hazard: the op reads a row the group wrote
                    groups.append((terms, self.mask(wrote)))
                    terms, wrote = {}, 0
                for s, m in self.shifts(ins, out):
                    terms[s] = terms.get(s, 0) | m
                wrote |= out
            groups.append((terms, self.mask(wrote)))
            self.moves(k, groups, self.mask(lives[k]))

    def moves(self, k, groups, live):
        """Lane-code lines for the groups of a run of NorCol ops on column
        k, each (terms, rows it writes), with `live` the rows live after
        the run. A gate's output held 1, so a group assigns its rows the
        NOR of its terms, and keeps only the rows live after it that it
        does not write. A group of one-row moves by one shift whose rows
        the next group moves again by one shift, and that nothing reads
        later, is inverted twice: the two are one move, a copy; one of
        the rows the unit loads, with nothing else on the column, is
        recorded in `copies` until the column is written again."""
        num, loaded = self.num, k not in self.local
        lives = []  # the rows live after each group, from the last back
        for terms, wrote in reversed(groups):
            lives.append(live)
            live &= ~wrote
            for m in terms.values():
                live |= m
        merged = []  # (terms, rows written, inverted, rows live after)
        for (terms, wrote), live in zip(groups, reversed(lives)):
            if merged and len(terms) == 1 and len(merged[-1][0]) == 1:
                (s0, m0), = merged[-1][0].items()
                (s, m), = terms.items()
                if m == merged[-1][1] == (m0 << s0 if s0 > 0 else m0 >> -s0) and not m & live:
                    merged[-1] = ({s0 + s: m0}, wrote, not merged[-1][2], live)
                    continue
            merged.append((terms, wrote, True, live))
        for i, (terms, wrote, inverted, live) in enumerate(merged):
            source = None
            if not i and len(terms) == 1:  # a move of a NOT that nothing else reads moves its input
                (m,) = terms.values()
                source = self.cones.inverse(k, m, len(self.lines))
            if source is not None:
                inverted = not inverted
            value = self.terms(source or self.col(k), terms)
            if inverted:
                value = f"({value}) ^ {num(wrote)}"
            keep = live & ~wrote
            self.set(k, f"{self.col(k)} & {num(keep)} | {value}" if keep else value)
            if loaded and not i and source is None and not inverted and not keep:
                (self.copies[k],) = terms.items()

    def terms(self, v, terms):
        """The OR of the shifted terms {shift: mask} of column local v."""
        return " | ".join(f"({v} & {self.num(m)})" + (f" << {s}" if s > 0 else f" >> {-s}" if s else "")
                          for s, m in terms.items())

    def shifts(self, ins, out):
        """(shift, mask) per input row of a NorCol: the mask selects the
        row, and the shift moves it onto the output row."""
        to = out.bit_length() - 1
        return [(to - r, self.mask(1 << r)) for r in range(ins.bit_length()) if ins >> r & 1]

    def function(self, stores):
        """The lines as lane code, `def f(append, K, <loads>)`: K binds
        the constants' names in order, each column the lines read before
        assigning it is a parameter, and f returns the value of each
        column in `stores`, a local or a constant. The values returned
        are pinned, then each cone placeholder becomes its line, or
        none (_Cones.lines)."""
        values = []
        for k in stores:
            if k in self.known:
                values.append(self.num(self.known[k]))
            else:
                values.append(self.col(k))
        lines = self.cones.lines(self.lines, self.num)
        params = "".join(f", {self.var}{k}" for k in self.loads)
        unpack = [f"({', '.join(self.consts.values())},) = K"] if self.consts else []
        return _function(f"f(append, K{params})", [*unpack, *lines, f"return ({''.join(v + ', ' for v in values)})"])


class _Cones:
    """The cone pass of lane code (_Source): which NorRows of at most
    three leaves and no live row off their rows get a line, and which
    fold into the lines of the gates that read them.

    Each value a column local takes gets an id. Such a NorRow is a node
    (gate), with a placeholder in the lines. A line that reads a local
    other than a node pins the value it holds (_Source.col), and so does
    a node on other rows and the unit's return; a node whose value is
    not pinned, so that only nodes on its rows read it, folds into them.
    Every pinned node, and every node a chosen cone has as a leaf, gets
    a line: a cone of at most three leaves, each a loaded or assigned
    local or another node with a line, that its local
    still holds where the cone's line stands, written as the cheapest
    expression over `&`, `|`, `^` and NOT as `^ m` of the cone's truth
    table (_expressions). The cones are chosen by area flow (cover).

    Proof: each line's text is evaluated on all eight leaf patterns and
    must give the truth table of the cone's NOR gates, or ValueError.
    Bitwise ops act on each row alone and every gate of a cone has the
    same rows m, so the line holds the cone's value on m, and no row off
    m is live after it.
    """

    _LEAVES = (0xAA, 0xCC, 0xF0)

    def __init__(self, var):
        self.var = var
        self.count = 0
        self.held = {}  # column -> id of the value its local holds
        self.names = {}  # id -> the text of its local or constant
        self.ends = {}  # id -> the line that next assigns its local
        self.gates = {}  # id -> (column, rows, leaf ids, line) of a node
        self.readers = {}  # node id -> how many nodes read it
        self.pinned = set()

    def new(self, name):
        self.count += 1
        self.names[self.count] = name
        return self.count

    def value(self, k):
        """The id of the value column k's local holds."""
        if k not in self.held:
            self.held[k] = self.new(f"{self.var}{k}")
        return self.held[k]

    def assign(self, k, line):
        """Column k's local takes a new value at line `line`."""
        if k in self.held:
            self.ends[self.held[k]] = line
        self.held[k] = self.new(f"{self.var}{k}")

    def gate(self, k, rows, leaves, line):
        """A node: the NorRow of the ids `leaves` on rows, into column k's
        local at line `line`; its id, the line's placeholder."""
        self.assign(k, line)
        g = self.held[k]
        self.gates[g] = (k, rows, leaves, line)
        self.readers[g] = 0
        for v in leaves:
            if v in self.gates:
                self.readers[v] += 1
                if self.gates[v][1] != rows:
                    self.pinned.add(v)
        return g

    def inverse(self, k, rows, line):
        """The name of x where column k's local holds a node NOT x on
        `rows` that nothing reads, and x's local holds x at line `line`;
        else None. The caller reads x instead of the node."""
        g = self.held.get(k)
        if g in self.gates and g not in self.pinned and not self.readers[g]:
            _, mask, leaves, _ = self.gates[g]
            if len(leaves) == 1 and mask & rows == rows and self.ends.get(leaves[0], line) >= line:
                self.pinned.add(leaves[0])
                return self.names[leaves[0]]
        return None

    def table(self, g, leaves):
        """The truth table of node g's cone over `leaves` (_LEAVES)."""
        tables = dict(zip(leaves, self._LEAVES))

        def value(v):
            if v not in tables:
                acc = 0
                for x in self.gates[v][2]:
                    acc |= value(x)
                tables[v] = acc ^ 0xFF
            return tables[v]
        return value(g)

    def lines(self, lines, num):
        """The lines with each placeholder replaced by its cone's line, or
        dropped where the node folds."""
        expressions = _expressions()
        # node -> [(leaves, truth table, operators, unpinned node leaves)]
        # of each cone, its table from its inputs' tables over its leaves
        cuts = {}
        for g, (_, _, leaves, line) in self.gates.items():
            combos = {frozenset(): ()}  # leaves -> a cone of each input so far
            for v in leaves:
                options = [((v,), 0xAA)]
                if v in cuts and v not in self.pinned:  # those of its cones whose leaves are still held
                    options += [cut[:2] for cut in cuts[v] if all(self.ends.get(x, line) >= line for x in cut[0])]
                combos = {u: combo + (o,) for union, combo in combos.items() for o in options
                          if len(u := union.union(o[0])) <= 3}
            tables = {}
            for union, combo in combos.items():
                cut = tuple(sorted(union))
                acc = 0
                for o, t in combo:
                    acc |= _spread(t, tuple(map(cut.index, o)))
                tables[cut] = acc ^ 0xFF
            cuts[g] = [(cut, tt, expressions[tt][1], tuple(v for v in cut if v in cuts and v not in self.pinned))
                       for cut, tt in sorted(tables.items())]
        # area flow, each node's operators shared by the nodes that read
        # it; then again, shared by the cones that use it as a leaf in
        # that cover. The cover with fewer operators wins
        first = self.cover(cuts, self.readers)
        share = dict.fromkeys(self.gates, 0)
        for _, _, _, nodes in first.values():
            for v in nodes:
                share[v] += 1
        text = {}
        for g, (cut, tt, _, _) in min(first, self.cover(cuts, share),
                                      key=lambda cover: sum(ops for _, _, ops, _ in cover.values())).items():
            k, rows, _, _ = self.gates[g]
            tree = expressions[tt][0]
            names = [self.names[v] for v in cut] + [num(rows)] * _inverts(tree)
            expr = _render(tree, names)
            if eval(expr, dict(zip(names, (*self._LEAVES[:len(cut)], 0xFF)))) != self.table(g, cut):
                raise ValueError(f"the line of column {k}'s cone, {expr}, is not its NOR gates")
            text[g] = f"{self.var}{k} = {expr}"
        return [text[line] if line.__class__ is int else line for line in lines
                if line.__class__ is not int or line in text]

    def cover(self, cuts, share):
        """The cone of each emitted node: the pinned nodes, and the leaves
        of the cones chosen, each choosing its cone of least area flow
        (operators, plus each unpinned node leaf's flow over its share)."""
        flow, chosen = {}, {}
        for g, found in cuts.items():
            least = None
            for cut in found:
                area = cut[2]
                for v in cut[3]:
                    area += flow[v] / (share[v] or 1)
                if least is None or area < least:
                    least, chosen[g] = area, cut
            flow[g] = least
        need, cover = self.pinned & self.gates.keys(), {}
        for g in reversed(self.gates):
            if g in need:
                cover[g] = chosen[g]
                need.update(v for v in chosen[g][0] if v in self.gates)
        return cover


@functools.cache
def _expressions():
    """The cheapest expression of each of the 256 functions of three
    leaves, keyed by truth table (leaf i is _Cones._LEAVES[i]): (tree,
    operators), where a tree is a leaf index, "0", "1" (the gate's rows)
    or (operator, tree, tree), a NOT being ("^", tree, "1"). Found level
    by level of operator count, so each function's first tree is a
    cheapest; built once per process, by the first lane code."""
    best = dict(zip(_Cones._LEAVES, range(3)))
    best.update({0: "0", 0xFF: "1"})
    levels = [list(best)]
    while len(best) < 256:
        size, new = len(levels), {}
        for f in levels[-1]:
            if f ^ 0xFF not in best:
                new.setdefault(f ^ 0xFF, ("^", best[f], "1"))
        for i in range((size - 1) // 2 + 1):
            for f in levels[i]:
                for g in levels[size - 1 - i]:
                    for h, op in ((f & g, "&"), (f | g, "|"), (f ^ g, "^")):
                        if h not in best and h not in new:
                            new[h] = (op, best[f], best[g])
        best.update(new)
        levels.append(list(new))
    return {f: (best[f], size) for size, level in enumerate(levels) for f in level}


@functools.cache
def _spread(table, places):
    """A truth table over leaves 0, 1, .. as one over the three leaves,
    leaf j of the one being leaf places[j] of the other."""
    spread = 0
    for p in range(8):
        q = sum((p >> i & 1) << j for j, i in enumerate(places))
        spread |= (table >> q & 1) << p
    return spread


def _inverts(tree):
    """Whether an expression tree holds "1", the rows a NOT flips."""
    return tree == "1" or tree.__class__ is tuple and any(map(_inverts, tree[1:]))


def _render(tree, names):
    """The text of an expression tree over the leaf names, "1" named
    names[-1], with only the parentheses precedence needs."""
    def text(tree):
        if tree.__class__ is int:
            return names[tree], 4
        if tree.__class__ is str:
            return (names[-1] if tree == "1" else "0"), 4
        op, *args = tree
        level = " | ^ &".split().index(op) + 1
        parts = [t if p >= level else f"({t})" for t, p in map(text, args)]
        return f" {op} ".join(parts), level
    return text(tree)[0]


def _function(signature, body):
    """The text of `def signature:` with the lines `body`."""
    return "\n".join([f"def {signature}:", *(f"    {line}" for line in body or ["pass"])])


def _interpret(ops, g, readout, strict, emit):
    """Run ops, already lowered, on the column grid g, one op at a time.

    Of the two executors, this one defines the semantics. It runs every
    MicroProgram on a grid, its head and its blocks alike, a kernel
    location's too when its grid is read and the location replayed, and
    each kernel shape's proof runs through it. The other, Lanes, runs
    blocks as lane code (_Source) over many grids at once, and is tested
    against it bit for bit. It is also the one place where strict mode
    checks gate outputs."""
    for i, op in enumerate(ops):
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
        if emit is not None:
            emit((op,))


def _tracer(trace):
    """Trace writer: one line per op, formatted `cycle_kind cycle_index
    op_descriptor`, counting cycles across calls. The lines do not depend
    on cell values."""
    compute = init = 0

    def emit(ops):
        nonlocal compute, init
        for op in ops:
            if op.__class__ is Init:
                init += 1
                trace(f"init {init} {op.describe()}")
            else:
                compute += op.cycles
                trace(f"compute {compute} {op.describe()}")
    return emit


def execute(program, state, strict=True, trace=None):
    """Run a program on a CrossbarState; its grid is exact whenever it
    is read (CrossbarState.cols).

    The program first counts its cycles (program.cycles), which for a
    MicroProgram lowers and checks every op of its head, so an
    addressing, aliasing or shape violation aborts with the state
    untouched; a block's ops were checked and lowered when it was built.
    It then runs on the state (program.run), in its packed grid of COLS
    Python ints where bit r of column c is cell (r, c): a MicroProgram's
    every op through the interpreter (_interpret). A kernel location
    runs no op: it waits on the state, to run as its MicroProgram when
    the grid is read, and its readout fills when the batch of locations
    that run_kernel queues it on (kernel.Batch) decides them as lanes of
    one pass (Lanes); both paths give the same cells, readout and trace.
    A NorRow is one bitwise expression over its whole row mask; a NorCol
    is one per column. Both modes evaluate a NOR by conditional
    switching: output <- output AND NOR(inputs). Strict mode adds the
    precondition that every output cell of a gate holds 1, checked before
    the gate switches any cell, and aborts at the first gate that finds a
    0, leaving the cells the ops before it wrote. Only a head is
    checked, and only a head can fail the check: a Block is proved
    init-dominated when it is built, so its ops run unchecked, and a
    kernel location's head is proved init-dominated by its shape.

    :param trace: optional callable receiving one line per op run,
        formatted `cycle_kind cycle_index op_descriptor`.
    :return: ExecResult with read-out bits and the cycle report.
    """
    compute, init, steps = program.cycles()
    readout = []
    program.run(state, readout, strict, None if trace is None else _tracer(trace))
    return ExecResult(readout, compute, init, steps)

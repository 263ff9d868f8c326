"""Thirteen-step in-crossbar program deciding one candidate location.

A 128x256 array holds a 6500-base genome slice: 65 fragments of 100
bases, one base per row, two adjacent bit columns per fragment. The
filter receives the read's four base counts and a window offset, counts
the bases of the window in place, and reads back a single bit telling
whether the accumulated count difference exceeds twice the edit
threshold stored in the array.

Row map                          Column map (rows 0..99)
  0..99    genome slice            0..129    genome fragments
  100..103 arithmetic lanes        130..131  inverted window bits
           (one per base type)     132..135  match bitmaps
  104      staging row             136..137  shared inverted bits
  105      constants row           138..145  count result band
                                   146..255  popcount working pool

Lane columns (rows 100..103) are allocated from the space left of the
result band; the popcount pool overlaps them only on rows 0..99.

Steps 1 and 2 are the program's head, per location: step 1 writes the
read's four counts, and step 2 copies the window out of its fragment
pair. A program reads only its window's fragment columns and the
threshold, so a tile stores only the fragments its windows read
(genome.load_tile). Step 3 depends only on the rows the window covers,
and so does a short read's zeroing of the bitmap rows its window leaves
untouched (a step labelled 4 after step 3): both are one proved Block
per window shape. Steps 4-13 are one body of two Blocks, built once per
process and shared by every read length; the zeroing lets its popcounts
always count all 100 bitmap rows.

A location runs as the compiled code of its shape, one per read length
and row phase (_Shape), built from the shape's own ops on its first use:
its head is one function of the counts and the fragment pair, proved
once to stand for the head of every pair. No op is built, lowered or
interpreted per location, and every location of a shape shares one
cycle report; its ops (build_program) are built only for a trace.

The body runs as the arrays of the paper run it: many locations in
lockstep. A location's run captures the cells its body reads and joins
a batch (Batch) of up to _BATCH = 256 locations, over any tiles; the
batch runs the body once for all of them, each location a lane of the
body's code, compiled once for any batch size (crossbar.Lanes). The
four popcounts of a location take four lanes for the tree's first two
levels and fold into one from its third level on, where only every
fourth row is live, each base at its own row shift; so a batch of 256
pays less per location than one of 64, and a call of 200 locations is
one pass. The body's stores wait on each state until its grid is read,
and the next location's replace them, as in the array, where the
scratch of one location stays unread until the next overwrites it. A
proof made once (_lanes, and _Shape proof (f)) shows this exact: the
decisions, cycles and cells are those of running the locations one by
one, and the grid is exact whenever it is read (CrossbarState.cols).

Per-step compute cycles at read length 100, against the step budgets:

  step   1  2  3     4  5    6   7  8-11  12 13   total
  spent  8  4  6  1520  8  105  28   153  72  1   1905
  limit  8  4  6  1656  8  111  28   153  73  1   2050
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

from .crossbar import (
    _ROW_MASK,
    COLS,
    ROWS,
    Block,
    Init,
    LaneGroup,
    Lanes,
    MicroProgram,
    NorRow,
    ProgramBuilder,
    WriteExternal,
    _count,
    _dataflow,
    _put,
    execute,
)
from .gates import (
    ColumnPool,
    _adder_gates,
    _mux_gates,
    _twos_complement_gates,
    emit_adder,
    emit_popcount,
)

BASES = "ATGC"
BASE_CODES = {"A": (0, 0), "T": (0, 1), "G": (1, 0), "C": (1, 1)}

FRAGMENT_ROWS = 100
FRAGMENTS_PER_TILE = 65
TILE_SPAN = FRAGMENT_ROWS * FRAGMENTS_PER_TILE  # 6500 stored bases
TILE_STRIDE = TILE_SPAN - FRAGMENT_ROWS         # 6400 new bases per tile

STEP_LABELS = ("1", "2", "3", "4", "5", "6", "7", "8-11", "12", "13")
STEP_BUDGETS = {
    "1": 8, "2": 4, "3": 6, "4": 1656, "5": 8,
    "6": 111, "7": 28, "8-11": 153, "12": 73, "13": 1,
}
COMPUTE_BUDGET = 2050          # whole kernel, initialization excluded
TOTAL_BUDGET = 3000            # whole kernel including initialization


def encode_base(base):
    """Two-bit code of a base: A=00, T=01, G=10, C=11 (first bit, second bit)."""
    try:
        return BASE_CODES[base]
    except KeyError:
        raise ValueError(f"invalid base {base!r}") from None


@dataclass(frozen=True)
class KernelLayout:
    """Concrete cell placement of every kernel operand on one crossbar."""

    read_length: int
    genome_cols: int            # leftmost columns holding the slice
    p_cols: tuple               # inverted window bit pair
    na_col: int
    nb_col: int
    match_cols: MappingProxyType  # base -> bitmap column
    res_cols: tuple             # shared popcount result band (8 cells)
    pool_cols: tuple            # popcount working columns (rows 0..99)
    lane_rows: MappingProxyType   # base -> arithmetic lane row
    stage_row: int
    ones_row: int
    rb_cols: tuple              # read counts, 8 bits
    y1_cols: tuple              # window minus read, 9 bits (msb = sign)
    y2_cols: tuple              # negated difference, 8 bits
    z_cols: tuple               # absolute difference, 7 bits
    thr_cols: tuple             # pre-stored threshold (2*eth), 8 bits
    q0_col: int                 # shared zero cell for carry/borrow seeds
    lane_ones_col: int
    one_col: int                # carry seed (1) for the negation
    tmp_cols: tuple             # reduction staging band, 8 bits
    s1_cols: tuple              # first reduction sums, 8 bits
    total_cols: tuple           # final sum, 9 bits
    res12_cols: tuple           # threshold minus total, 9 bits (msb read out)
    lane_scratch: tuple         # shared scratch band, re-initialized per use


def plan_layout(read_length=100):
    """The layout of one read length, built once per process: every
    caller shares it, so it is read-only."""
    return _plan_layout(read_length)


@functools.cache
def _plan_layout(read_length):
    if not 1 <= read_length <= FRAGMENT_ROWS:
        raise ValueError(f"read length must be 1..{FRAGMENT_ROWS}")
    genome_cols = 2 * FRAGMENTS_PER_TILE
    p_cols = (genome_cols, genome_cols + 1)
    na_col, nb_col = genome_cols + 6, genome_cols + 7
    match_cols = MappingProxyType({b: genome_cols + 2 + i for i, b in enumerate(BASES)})
    res_cols = tuple(range(genome_cols + 8, genome_cols + 16))
    pool_cols = tuple(range(genome_cols + 16, COLS))

    lanes = ColumnPool(c for c in range(COLS) if c not in res_cols)
    layout = KernelLayout(
        read_length=read_length,
        genome_cols=genome_cols, p_cols=p_cols, na_col=na_col, nb_col=nb_col,
        match_cols=match_cols, res_cols=res_cols, pool_cols=pool_cols,
        lane_rows=MappingProxyType({b: FRAGMENT_ROWS + i for i, b in enumerate(BASES)}),
        stage_row=FRAGMENT_ROWS + 4, ones_row=FRAGMENT_ROWS + 5,
        rb_cols=tuple(lanes.take(8)),
        y1_cols=tuple(lanes.take(9)),
        y2_cols=tuple(lanes.take(8)),
        z_cols=tuple(lanes.take(7)),
        thr_cols=tuple(lanes.take(8)),
        q0_col=lanes.take_one(),
        lane_ones_col=lanes.take_one(),
        one_col=lanes.take_one(),
        tmp_cols=tuple(lanes.take(8)),
        s1_cols=tuple(lanes.take(8)),
        total_cols=tuple(lanes.take(9)),
        res12_cols=tuple(lanes.take(9)),
        lane_scratch=tuple(lanes.take(63)),
    )
    return layout


def window_row_ranges(offset, read_length):
    """Row ranges of the window bases inside the two fragments it spans.

    Returns [(fragment_index, row_range), ...]; the bases never overlap
    horizontally because each fragment column holds exactly 100 bases, so
    the window lands as a row permutation of itself.
    """
    pair, r0 = _split(offset)
    ranges = [(pair, range(r0, min(FRAGMENT_ROWS, r0 + read_length)))]
    spill = r0 + read_length - FRAGMENT_ROWS
    if spill > 0:
        ranges.append((pair + 1, range(0, spill)))
    return ranges


def _split(offset):
    """(fragment pair, row phase) of a window offset; ValueError if the
    offset is outside 0..TILE_STRIDE."""
    if not 0 <= offset <= TILE_STRIDE:
        raise ValueError("offset out of range")
    return divmod(offset, FRAGMENT_ROWS)


def store_threshold(state, layout, eth):
    """Host write of the pre-computed constant 2*eth (done at tile load),
    as one masked write per threshold column."""
    if not 0 <= eth <= layout.read_length:
        raise ValueError("edit threshold out of range")
    cols = state.cols
    for k, keep, bit in _threshold_writes(layout.lane_rows["A"], layout.thr_cols, 2 * eth):
        cols[k] = cols[k] & keep | bit


@functools.cache
def _threshold_writes(row, cols, value):
    """(column, keep, bit) per cell of `value` stored little-endian on
    row `row` of `cols`: the write of CrossbarState.write_value."""
    return tuple((k, _ROW_MASK & ~(1 << row), (value >> i & 1) << row) for i, k in enumerate(cols))


def build_program(layout, offset, counts):
    """Emit the full labelled micro-program for one location check.

    Steps 1 and 2 depend on the read counts and the window's fragments
    and are the program's head, written here without a builder. Step 1
    is four host writes, one per read count, each shared by every
    location with that count in that lane (_count_write); step 2 is an
    Init and NOTs (_copy). Every other op depends at most on the rows
    the window covers: step 3 and a short read's bitmap zeroing are one
    proved Block per window shape (_phase), followed by the blocks of
    the shared body of steps 4-13 (_body). run_kernel runs none of these
    ops: it runs a location as the code compiled from its shape's
    program (_Shape), and builds the program only when a trace or a test
    reads its ops. The program reads only the window's fragment columns
    and the threshold, so a tile needs only those fragments stored
    (genome.load_tile).
    """
    # Step 1: host write of the four read counts, two cycles per value;
    # step 2: the window's inverted copy
    copy, rows = _copy(layout, offset)
    head = (("1", [_count_write(base, count) for base, count in zip(BASES, counts)]), ("2", copy))
    # a full-length window covers every row, whatever its phase
    spans = (range(0, FRAGMENT_ROWS),) if layout.read_length == FRAGMENT_ROWS else rows
    return MicroProgram(head, (_phase(spans), *_body()))


def _copy(layout, offset):
    """Step 2 at `offset`, the inverted copy of the window into the P
    column pair (one Init, then one NOT per bit column per fragment the
    window spans), and the row ranges the window covers."""
    ranges = window_row_ranges(offset, layout.read_length)
    p_cols = layout.p_cols
    ops = [Init(tuple((rng, p_cols) for _, rng in ranges)),
           *(NorRow((2 * pair + i,), p_cols[i], rng) for pair, rng in ranges for i in (0, 1))]
    return ops, tuple(rng for _, rng in ranges)


def _check_counts(counts):
    if min(counts) < 0 or max(counts) > 127:
        raise ValueError("base count must fit in 7 bits")


@functools.cache
def _count_write(base, count):
    """Step 1's host write of one read count into the lane of `base`,
    built and lowered once per (base, count): at most 4 x 128 ops, since
    a count outside 0..127 raises ValueError."""
    _check_counts((count,))
    L = plan_layout()
    return WriteExternal(tuple((L.lane_rows[base], c) for c in L.rb_cols),
                         tuple(count >> i & 1 for i in range(8)))


@functools.cache
def _body():
    """Steps 4-13, built once per process, as two blocks of labelled steps.

    The four step-4 popcounts and their step-5 staging steps form one
    LaneGroup, taken pairwise from the builder's steps: the popcounts
    differ only in the bitmap column they count, so they run as four
    lanes of one compiled pass, and each step-5 step then stages its own
    lane's result. Steps 6-13 are one Block. Locations run both as lanes
    of one pass (_lanes), the popcounts folded into one lane a location
    from the tree's third level (crossbar._fold).
    """
    L = plan_layout()
    lanes = tuple(L.lane_rows[b] for b in BASES)
    pb = ProgramBuilder()

    # Steps 4 and 5, interleaved per base type: count one bitmap, then
    # stage its result band into that base's lane before the band is
    # reused for the next count.
    for base in BASES:
        with pb.step("4"):
            emit_popcount(pb, L.match_cols[base], FRAGMENT_ROWS, ColumnPool(L.pool_cols),
                          L.res_cols, ones_row=L.ones_row)
        with pb.step("5"):
            lane = L.lane_rows[base]
            pb.init(((L.stage_row,), L.res_cols), ((lane,), L.res_cols))
            pb.nor_col((0,), L.stage_row, L.res_cols)
            pb.nor_col((L.stage_row,), lane, L.res_cols)

    steps = pb.build().head
    group = LaneGroup(zip(steps[0::2], steps[1::2]))
    pb = ProgramBuilder()

    # Step 6: per-lane window count minus read count (nine-gate cells,
    # borrow chain), then the negated difference via fold-in increment.
    with pb.step("6"):
        pb.init((lanes, (L.lane_ones_col, L.q0_col)))
        pb.nor_row((L.lane_ones_col,), L.q0_col, lanes)
        sub_pool = ColumnPool(L.lane_scratch)
        emit_adder(pb, 8, L.res_cols, L.rb_cols, L.y1_cols, sub_pool, lanes,
                   carry_in_col=L.q0_col, borrow=True)
        tc_pool = ColumnPool(L.lane_scratch)
        tc = tc_pool.take(24)
        pb.init((lanes, tuple(tc) + (L.one_col,) + L.y2_cols))
        _twos_complement_gates(pb, 8, L.y1_cols[:8], L.y2_cols, tc, lanes, L.one_col)

    # Step 7: keep the non-negative difference. The sign of (window -
    # read) selects; 0 keeps the difference, 1 its negation.
    with pb.step("7"):
        mux_pool = ColumnPool(L.lane_scratch)
        sc = mux_pool.take(21)
        pb.init((lanes, tuple(sc) + L.z_cols))
        _mux_gates(pb, 7, L.y1_cols[:7], L.y2_cols[:7], L.y1_cols[8],
                   L.z_cols, sc, lanes)

    # Steps 8-11: reduce the four absolute differences. Two rounds of
    # align-into-the-upper-lane followed by one row-parallel add; both
    # adds reuse the zero cell seeded in step 6.
    lane_a, lane_t, lane_g, lane_c = lanes
    with pb.step("8-11"):
        p1 = ColumnPool(L.lane_scratch)
        t1, c1 = p1.take(49), p1.take(6)
        pb.init(((lane_t, lane_c), L.tmp_cols[:7]),
                ((lane_a, lane_g), L.tmp_cols[:7]),
                ((lane_a, lane_g), tuple(t1 + c1) + L.s1_cols))
        for k in range(7):
            pb.nor_row((L.z_cols[k],), L.tmp_cols[k], (lane_t, lane_c))
        pb.nor_col((lane_t,), lane_a, L.tmp_cols[:7])
        pb.nor_col((lane_c,), lane_g, L.tmp_cols[:7])
        _adder_gates(pb, 7, L.z_cols, L.tmp_cols[:7], L.s1_cols, t1, c1,
                     (lane_a, lane_g), L.q0_col)

        p2 = ColumnPool(L.lane_scratch)
        t2, c2 = p2.take(56), p2.take(7)
        pb.init(((lane_g,), L.tmp_cols), ((lane_a,), L.tmp_cols),
                ((lane_a,), tuple(t2 + c2) + L.total_cols))
        for k in range(8):
            pb.nor_row((L.s1_cols[k],), L.tmp_cols[k], (lane_g,))
        pb.nor_col((lane_g,), lane_a, L.tmp_cols)
        _adder_gates(pb, 8, L.s1_cols, L.tmp_cols, L.total_cols, t2, c2,
                     (lane_a,), L.q0_col)

    # Step 12: threshold minus total; the total never exceeds twice the
    # read length, so eight bits carry it and the borrow out is the sign.
    with pb.step("12"):
        p3 = ColumnPool(L.lane_scratch)
        t3, c3 = p3.take(56), p3.take(7)
        pb.init(((lane_a,), tuple(t3 + c3) + L.res12_cols))
        _adder_gates(pb, 8, L.thr_cols, L.total_cols[:8], L.res12_cols, t3, c3,
                     (lane_a,), L.q0_col, borrow=True)

    # Step 13: read the sign; 1 means the error exceeded the threshold.
    with pb.step("13"):
        pb.read(lane_a, L.res12_cols[8])

    return group, Block(pb.build().head)


@functools.cache
def _lanes():
    """The body as lanes of locations (crossbar.Lanes), proved once per
    process to run exact when it waits for a batch:

    - a batch captures a location's body reads (Lanes.capture: the
      body's live-in cells, exactly) right after its head and phase
      block ran, and runs the body later from those values;
    - the body writes no cell it reads before writing it, so a capture
      reads no cell whose store a body run before it still holds back
      (CrossbarState._held) or has not yet made (_pending);
    - each shape proves that its head and phase block read no cell the
      body writes before writing it (_held; _Shape proof (f)), so the
      body's stores may wait past later heads: a cell both write ends
      with the value of the last location's body either way.

    So running every head first and the bodies later, from the captured
    values, leaves the same cells and readouts as running the locations
    one by one. A body that fails the proof raises ValueError.
    """
    lanes = Lanes(_body())
    if any(map(int.__and__, lanes.live, lanes.written)):
        raise ValueError("the body writes a cell it reads before writing it")
    return lanes


def _held():
    """The cells the body writes, whose stores a batch holds back until
    the grid is read."""
    return _lanes().written


@functools.cache
def _phase(spans):
    """Step 3 over the window rows `spans`, then a short read's bitmap
    zeroing as a step-4 step, as one Block."""
    L = plan_layout()
    pb = ProgramBuilder()

    # Step 3: the four base comparisons. NOT(pa) and NOT(pb) are computed
    # once and reused, so A costs three gates and T, G, C one each.
    with pb.step("3"):
        pa, pxb = L.p_cols
        mc = L.match_cols
        targets = (L.na_col, L.nb_col) + tuple(mc[b] for b in BASES)
        pb.init(*((rng, targets) for rng in spans))
        for rng in spans:
            pb.nor_row((pa,), L.na_col, rng)
            pb.nor_row((pxb,), L.nb_col, rng)
            pb.nor_row((L.na_col, L.nb_col), mc["A"], rng)
            pb.nor_row((L.na_col, pxb), mc["T"], rng)
            pb.nor_row((pa, L.nb_col), mc["G"], rng)
            pb.nor_row((pa, pxb), mc["C"], rng)

    # A short read zeroes the bitmap rows its window leaves untouched,
    # so every read length counts the whole column in the shared body.
    rest = _complement_rows(spans)
    if rest:
        ones = L.pool_cols[0]
        with pb.step("4"):
            for base in BASES:
                col = L.match_cols[base]
                pb.init(*((rng, (ones, col)) for rng in rest))
                for rng in rest:
                    pb.nor_row((ones,), col, rng)

    return Block(pb.build().head)


def _complement_rows(spans):
    used = sorted(r for rng in spans for r in rng)
    rest = []
    prev = 0
    for r in used + [FRAGMENT_ROWS]:
        if r > prev:
            rest.append(range(prev, r))
        prev = r + 1
    return rest


@functools.cache
def _count_values():
    """Step 1's write of every count as one int: (slots, values).

    slots lists (column, rows) of the cells the writes of the four bases
    touch, and values[x][n] is the write of count n into the lane of
    base x (_count_write's, built and lowered here one at a time outside
    its cache, and dropped), with bit ROWS * j + r set for each cell
    (r, slots[j][0]) it sets to 1. So the OR of one value per base holds
    all of step 1 for any four counts, and each column takes its slot in
    one masked write. That is exact because every count's write of a
    base sets the same cells, and no two bases write one cell; a write
    that breaks either raises ValueError.
    """
    def lowered(base, n):
        op = _count_write.__wrapped__(base, n)
        _count(((base, [op]),))
        return op._c

    cells = [{(k, bit) for k, bit, _ in lowered(base, 0)} for base in BASES]
    if len(set().union(*cells)) != sum(map(len, cells)):
        raise ValueError("two bases' count writes set one cell")
    slots = {}
    for k, bit in sorted(set().union(*cells)):
        slots[k] = slots.get(k, 0) | bit
    at = {k: ROWS * j for j, k in enumerate(slots)}
    values = []
    for base, own in zip(BASES, cells):
        row = []
        for n in range(128):
            write = lowered(base, n)
            if {(k, bit) for k, bit, _ in write} != own:
                raise ValueError(f"the count writes of {base} do not each set the same cells")
            row.append(sum(bit << at[k] for k, bit, b in write if b))
        values.append(tuple(row))
    return tuple(slots.items()), tuple(values)


class _Shape:
    """What every location of one read length and row phase runs: its
    blocks, its cycles and read-only step report (`cycles`, counted once
    from the ops, MicroProgram.cycles) and its head compiled into one
    function f(g, w, s) of the grid, the counts' step-1 value w
    (_count_values) and the source offset s = 2 * pair.

    It is built from the program at pair 0 (build_program), and a proof,
    made once when it is built, shows that the code is exact at every
    offset of the phase in 0..TILE_STRIDE:

    (a) the head is init-dominated, so no strict check can fail in it;
    (b) at each offset, step 2 (_copy) is built as pair 0's with the
        columns it reads (its sources) renamed k -> k + s, over the same
        rows (_spec: ops built alike lower alike, and pair 0's are
        lowered and checked, so no op at another offset needs lowering);
        step 1 depends on the counts alone and the blocks on those rows
        alone (build_program), so they are pair 0's too;
    (c) every source column stays below genome_cols;
    (d) step 2 is one Init, then NorRows whose inputs are sources, so
        each column it writes takes, on the rows the Init sets, the NOR
        of its gates' inputs on their rows, and keeps its other rows;
    (e) step 1 is the count writes of _count_values;
    (f) its blocks are a phase block, then the body, and neither the
        phase block nor the head at any offset reads a cell the body
        writes (_held) before writing it. So the body may run later, as
        lanes of a batch (_lanes), and its stores wait until the grid is
        read: every location's body writes all of those cells after its
        head and phase block, so a cell they write too ends with the
        body's value in either order.

    A shape that fails the proof raises ValueError when it is built.
    """

    def __init__(self, layout, phase):
        counts = (layout.read_length, 0, 0, 0)
        program = build_program(layout, phase, counts)
        self.blocks = program.blocks
        self.phase, *self.body = self.blocks
        self.cycles = program.cycles()  # lowers the head
        (_, writes), (_, copy) = program.head
        if not _dataflow(writes + copy)[0]:
            raise ValueError("the head is not init-dominated")
        held = _held()
        if tuple(self.body) != _body():
            raise ValueError("the blocks after the phase block are not the body")
        if any(map(int.__and__, _dataflow(self.phase.ops)[1], held)):
            raise ValueError("the phase block reads a cell the body holds back")
        window = _copy(layout, phase)[1]
        live = _dataflow(copy)[1]
        sources = [k for k, rows in enumerate(live) if rows]
        specs = [_spec(op, {}) for op in copy]
        for offset in range(phase, TILE_STRIDE + 1, FRAGMENT_ROWS):
            s = 2 * (offset // FRAGMENT_ROWS)
            if max(sources) + s >= layout.genome_cols:
                raise ValueError(f"the window at offset {offset} reads past the stored slice")
            if any(live[k] & held[k + s] for k in sources):
                raise ValueError(f"the head at offset {offset} reads a cell the body holds back")
            c, rows = _copy(layout, offset)
            rename = {k + s: k for k in sources}
            if rows != window or [_spec(op, rename) for op in c] != specs:
                raise ValueError(f"the head at offset {offset} is not the head at offset "
                                 f"{phase} with its source columns renamed")
        slots, self.values = _count_values()
        if writes != [_count_write(base, n) for base, n in zip(BASES, counts)]:
            raise ValueError("step 1 is not the count writes")
        lines = [_put(f"g[{k}]", _ROW_MASK & ~rows, f"w >> {ROWS * j} & {hex(rows)}")
                 for j, (k, rows) in enumerate(slots)]
        lines += _copy_lines(copy, sources)
        namespace = {}
        exec(compile("\n".join(["def f(g, w, s):", *(f"    {line}" for line in lines)]), "<head>", "exec"),
             namespace)
        self.head = namespace["f"]


def _spec(op, rename):
    """An Init or NorRow as it was built, its columns mapped through
    `rename`: two ops with the same spec lower to the same form. Any
    other op is its own spec."""
    cls = op.__class__
    col = rename.get
    if cls is Init:
        return cls, tuple([(rows, tuple(map(col, cols, cols))) for rows, cols in op.regions])
    if cls is NorRow:
        return cls, tuple(map(col, op.input_cols, op.input_cols)), col(op.output_col, op.output_col), op.rows
    return op


def _copy_lines(copy, sources):
    """Step 2's code: one line per column it writes, reading each source
    column k at g[s + k] (proof (d) of _Shape)."""
    first, *gates = copy
    written = {}
    if first.__class__ is Init:
        for cols, rows in first._c:
            for k in cols:
                written[k] = written.get(k, 0) | rows
    if not written or any(op.__class__ is not NorRow for op in gates) \
            or any(k not in sources or k in written for op in gates for k in op.input_cols):
        raise ValueError("step 2 is not one Init and then NORs of the columns it reads first")
    terms = {k: [] for k in written}
    for ins, out, rows in (op._c for op in gates):
        terms[out].append(f"({' | '.join(f'g[s + {k}]' for k in ins)}) & {hex(rows)}")
    return [_put(f"g[{k}]", _ROW_MASK & ~rows, f"({' | '.join(terms[k])}) ^ {hex(rows)}" if terms[k] else rows)
            for k, rows in written.items()]


@functools.cache
def _shape(read_length, phase):
    return _Shape(plan_layout(read_length), phase)


class _Location:
    """The program of one location check, as execute runs it: the cycles
    and compiled code of its shape, its body left to `batch`. Its head
    and ops are those of build_program, built only when something reads
    them (a trace, or a test); `blocks` are its shape's."""

    def __init__(self, shape, layout, offset, counts, batch):
        self.shape, self.layout, self.offset, self.counts = shape, layout, offset, counts
        self.batch = batch

    @functools.cached_property
    def _program(self):
        return build_program(self.layout, self.offset, self.counts)

    head = property(lambda self: self._program.head)
    ops = property(lambda self: self._program.ops)
    blocks = property(lambda self: self.shape.blocks)

    def cycles(self):
        return self.shape.cycles

    def run(self, state, readout, strict, emit):
        # the shape's head and blocks are proved init-dominated, so no
        # strict check can fail in them, and its head and phase block to
        # read no cell the body writes, so they run on the grid itself,
        # past the body stores of earlier locations that wait, and the
        # body joins the batch (_Shape, _lanes)
        shape = self.shape
        g = state._grid
        a, t, gg, c = self.counts
        va, vt, vg, vc = shape.values
        shape.head(g, va[a] | vt[t] | vg[gg] | vc[c], 2 * (self.offset // FRAGMENT_ROWS))
        shape.phase.run(g, readout)
        self.batch.add(state, readout)
        if emit is not None:
            emit(self.ops)


_BATCH = 256  # most locations whose bodies run as lanes of one pass


class Batch:
    """Locations whose bodies run as lanes of one pass of the body's
    compiled code (_lanes), at most _BATCH of them, over any tiles.

    add captures a location's body reads from its state's grid, after
    its head ran, and leaves the batch pending on the state. run, which
    reading a pending state's `cols` or a pending KernelResult's
    `discard` calls, runs the bodies once, appends each location's
    read bits to its readout, and leaves on each state that the batch
    is still pending on the stores of its last location in the batch,
    held until its grid is read (CrossbarState). The batch is then empty,
    and takes new locations for another pass."""

    def __init__(self):
        self.states, self.captures, self.readouts = [], [], []

    @property
    def full(self):
        return len(self.captures) >= _BATCH

    def add(self, state, readout):
        self.states.append(state)
        self.captures.append(_lanes().capture(state._grid))
        self.readouts.append(readout)
        state._pending = self

    def run(self):
        if not self.captures:
            return
        lanes = _lanes().run(self.captures, self.readouts)
        for state, lane in {state: lane for lane, state in enumerate(self.states)}.items():
            if state._pending is self:
                state._pending, state._held = None, (lanes, lane)
        self.states, self.captures, self.readouts = [], [], []


class KernelResult:
    """Decision and cycle accounting for one location check; `steps` is
    the read-only step report its shape shares. `discard` runs the
    location's batch first if it is still pending."""

    def __init__(self, readout, batch, compute_cycles, init_cycles, steps):
        self._readout, self._batch = readout, batch
        self.compute_cycles, self.init_cycles, self.steps = compute_cycles, init_cycles, steps

    @property
    def discard(self):
        if not self._readout:
            self._batch.run()
        return self._readout[0]


def run_kernel(state, layout, counts, offset, strict=True, trace=None, batch=None):
    """Run one location check on a pre-loaded crossbar.

    The genome slice and the threshold constant must already be stored
    (see genome.load_tile and store_threshold). `counts` is the read's
    oracle.BaseCounts, `layout` plan_layout(read length). The inputs are
    checked, then the location runs through one execute call as the code
    of its shape (_Shape): its counts in one masked write per count
    column, its window copied by one masked store per P column, then its
    phase block; its body joins `batch` (Batch), whose pass runs the
    bodies of all its locations as lanes. With no batch, the location is
    a batch of one, run before this returns. The cycle report is exact
    at once, the decision once the batch ran, and the grid whenever it
    is read. A trace gets the ops of build_program.
    """
    if counts.total != layout.read_length:
        raise ValueError("read histogram does not sum to the read length")
    _, phase = _split(offset)
    _check_counts(counts)
    alone = batch is None
    if alone:
        batch = Batch()
    program = _Location(_shape(layout.read_length, phase), layout, offset, counts, batch)
    result = execute(program, state, strict=strict, trace=trace)
    if alone:
        batch.run()
    return KernelResult(result.readout, batch, result.compute_cycles, result.init_cycles, result.steps)

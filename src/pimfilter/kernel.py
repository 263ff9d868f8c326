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

A location runs as the arrays of the paper run it: many locations in
lockstep, each array writing only its read's counts. run_kernel counts
a location's cycles from its shape, one per read length and row phase
(_Shape, built on its first use), returns them at once, and queues the
location: no op is built, lowered or run per location, and every
location of a shape shares one cycle report. A batch (Batch), over any
tiles and shapes, runs itself at its _BATCH = 256th location and
otherwise when its caller runs it or a grid is read; it decides its
locations in one pass (crossbar.Lanes) from
what the host holds: each location's counts, its state's threshold, and
its window's bits, gathered under the rows its shape's step 2 reads
them at. The pass runs steps 2-3 and a short read's zeroing as one
Block shared by every shape (_front), then the body, each location a
lane of code compiled once for any batch size. The four popcounts of a
location take four lanes for the tree's first two levels and fold into
one from its third level on, where only every fourth row is live, each
base at its own row shift; so a batch of 256 pays less per location
than one of 64, and a call of 200 locations is one pass.

No grid is written then: a state keeps its locations until its grid is
read, and reading it replays them in order, each as its program
(build_program), the reference path, checked against its batch's
decision. A proof made once per shape (_Shape) and once per process
(_lanes) shows this exact: the decisions, cycles and cells are those of
running the locations one by one, and the grid is exact whenever it is
read (CrossbarState.cols). A location's ops are built only for a trace
or a replay.

Per-step compute cycles at read length 100, against the step budgets:

  step   1  2  3     4  5    6   7  8-11  12 13   total
  spent  8  4  6  1520  8  105  28   153  72  1   1905
  limit  8  4  6  1656  8  111  28   153  73  1   2050
"""

from __future__ import annotations

import functools
import itertools
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
    _BAND_ROWS,
    _count,
    _dataflow,
    _interpret,
    _pack,
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
    ops: a batch decides a location as a lane (Batch), and the program is
    built only when a trace, a replay of the location on its grid, or a
    test reads its ops. The program reads only the window's fragment columns
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
    """What a batch runs (crossbar.Lanes): the front (_front), then the
    body, as lanes of locations, built once per process on the first
    batch. Its inputs, in column order, are the read counts on the lane
    rows of rb_cols and the threshold on its row, each a byte per lane,
    then the front's mask and the window's two bit columns, each a whole
    column per lane: what Batch.run packs (d). The body reads first
    only rows 0-99 of the match columns, which the front writes, and the
    counts and the threshold on their rows (c); it writes no cell it
    reads first (a), nor any cell a batch reads from a grid (_reads, b),
    so a location decided later, from those cells, decides as its
    program would on the grid. Each check raises ValueError where the
    property its letter names fails.
    """
    L = plan_layout()
    row = L.lane_rows["A"]
    live, written = _body_flow()
    if any(map(int.__and__, live, written)):  # (a)
        raise ValueError("the body writes a cell it reads before writing it")
    if any(map(int.__and__, written, _reads())):  # (b)
        raise ValueError("the body writes a cell a batch reads from the grid")
    first = [0] * COLS
    for cols, rows in ((L.match_cols.values(), _WINDOW), (L.rb_cols, 0xf << row), (L.thr_cols, 1 << row)):
        for k in cols:
            first[k] = rows
    if live != first:  # (c)
        raise ValueError("the body reads first other cells than the bitmaps, the counts and the threshold")
    lanes = Lanes((_front(), *_body()))
    band, whole = (_BAND_ROWS, row, _BAND_ROWS), (ROWS, 0, ROWS)
    if lanes.inputs != (*((k, 0xf << row, band) for k in L.rb_cols), *((k, 1 << row, band) for k in L.thr_cols),
                        *((k, _WINDOW, whole) for k in (_MASK_COL, 2 * _FRONT_PAIR, 2 * _FRONT_PAIR + 1))):  # (d)
        raise ValueError("the lanes read other cells than a batch packs")
    return lanes


@functools.cache
def _body_flow():
    """(live, written) of the body's ops (_dataflow), once per process."""
    return _dataflow([op for block in _body() for op in block.ops])[1:]


_WINDOW = (1 << FRAGMENT_ROWS) - 1  # rows 0..99, the genome slice's


@functools.cache
def _reads():
    """Per column, the rows a batch may read from a grid: the genome
    slice's, where a window's bits lie, and the threshold's row."""
    L = plan_layout()
    reads = [_WINDOW if k < L.genome_cols else 0 for k in range(COLS)]
    for k in L.thr_cols:
        reads[k] |= 1 << L.lane_rows["A"]
    return reads


# The front reads the window's two bit columns from pair 64's columns,
# as the full window at offset TILE_STRIDE does, and its mask from the
# genome column left of them: no location writes any of the three, and
# the body reads none of them.
_FRONT_PAIR = FRAGMENTS_PER_TILE - 1
_MASK_COL = 2 * _FRONT_PAIR - 1


@functools.cache
def _front():
    """Steps 2 and 3 and a short read's zeroing for the lanes of a
    batch, as one Block on rows 0-99 shared by every read length and row
    phase: the inverted copy of a full window from pair 64's columns,
    then step 3 over every row with the mask column as a third input of
    each bitmap gate, so a row where the mask holds 1 (outside the
    window) gets 0 in every bitmap. Its lanes take the window's bits
    gathered into those columns (Batch.run), each under the rows its
    shape's step 2 reads them at, and the shape's rows outside the
    window as the mask; _Shape proof (f) shows it leaves the match rows
    of the shape's head and phase block."""
    copy, _ = _copy(plan_layout(), FRAGMENT_ROWS * _FRONT_PAIR)
    pb = ProgramBuilder()
    with pb.step("3"):
        _compare(pb, (range(FRAGMENT_ROWS),), (_MASK_COL,))
    return Block((("2", copy), *pb.build().head))


@functools.cache
def _phase(spans):
    """Step 3 over the window rows `spans`, then a short read's bitmap
    zeroing as a step-4 step, as one Block."""
    L = plan_layout()
    pb = ProgramBuilder()
    with pb.step("3"):
        _compare(pb, spans)

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


def _compare(pb, spans, extra=()):
    """Step 3, the four base comparisons, over the rows `spans`, each
    bitmap gate also reading the columns `extra`. NOT(pa) and NOT(pb) are
    computed once and reused, so A costs three gates and T, G, C one
    each."""
    L = plan_layout()
    pa, pxb = L.p_cols
    mc = L.match_cols
    targets = (L.na_col, L.nb_col) + tuple(mc[b] for b in BASES)
    pb.init(*((rng, targets) for rng in spans))
    for rng in spans:
        pb.nor_row((pa,), L.na_col, rng)
        pb.nor_row((pxb,), L.nb_col, rng)
        pb.nor_row((L.na_col, L.nb_col, *extra), mc["A"], rng)
        pb.nor_row((L.na_col, pxb, *extra), mc["T"], rng)
        pb.nor_row((pa, L.nb_col, *extra), mc["G"], rng)
        pb.nor_row((pa, pxb, *extra), mc["C"], rng)


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
    """Step 1's write of every count, a byte per count column: values[x][n]
    is the write of count n into the lane of base x (_count_write's,
    built and lowered here one at a time outside its cache, and dropped),
    with bit 8 * j + r - 100 set for each cell (r, rb_cols[j]) it sets
    to 1. So the OR of one value per base holds all of step 1 for any
    four counts: the count bytes of a batch's band record (Batch.run).
    That is exact because every count's write of a base sets the same
    cells (a), no two bases write one cell (b), and every cell is on a
    lane row of a count column (c); each check raises ValueError where
    the property its letter names fails.
    """
    L = plan_layout()
    lo = L.lane_rows["A"]
    at = {k: 8 * j for j, k in enumerate(L.rb_cols)}

    def lowered(base, n):
        op = _count_write.__wrapped__(base, n)
        _count(((base, [op]),))
        return op._c

    cells = [{(k, bit) for k, bit, _ in lowered(base, 0)} for base in BASES]
    if len(set().union(*cells)) != sum(map(len, cells)):  # (b)
        raise ValueError("two bases' count writes set one cell")
    if any(k not in at or bit >> lo not in (1, 2, 4, 8) for k, bit in set().union(*cells)):  # (c)
        raise ValueError("a count write sets a cell off the lane rows of the count columns")
    values = []
    for base, own in zip(BASES, cells):
        row = []
        for n in range(128):
            write = lowered(base, n)
            if {(k, bit) for k, bit, _ in write} != own:  # (a)
                raise ValueError(f"the count writes of {base} do not each set the same cells")
            row.append(sum(bit >> lo << at[k] for k, bit, b in write if b))
        values.append(tuple(row))
    return tuple(values)


class _Shape:
    """What every location of one read length and row phase shares: its
    blocks, its cycles and read-only step report (`cycles`, counted once
    from the ops, MicroProgram.cycles), and what a batch takes from its
    grid: `gather` = (k0, m0, k2, m2, k1, m1, k3, m3), so that the
    window's bits of P column i at offset s = 2 * pair are g[s + k] & m
    ORed over its two (source, rows) pairs (a pad is (0, 0)), and
    `outside`, the rows 0-99 its window leaves.

    It is built from the program at pair 0 (build_program), and a proof,
    made once when it is built, shows that a batch decides every location
    of the shape, at every offset of the phase in 0..TILE_STRIDE, as its
    program does, and that the program may run later, when the grid is
    read (CrossbarState.cols):

    (a) the head is init-dominated, so no strict check can fail in it;
    (b) the blocks after the phase block are the body, step 2 (_copy)
        is one Init, then NOTs, and at each offset it is built as pair
        0's with the columns it reads (its sources) renamed k -> k + s,
        over the same rows (_spec: ops built alike lower alike); step 1
        depends on the counts alone and the blocks on those rows alone
        (build_program), so they are pair 0's too;
    (c) every source column stays below genome_cols;
    (d) the program reads first only its sources on the rows step 2
        reads them and the threshold's row, and writes no cell a batch
        reads from any grid (_reads): so what a batch reads of a state is
        what the location reads, however many locations before it still
        wait to run on the grid;
    (e) step 1 is the count writes of _count_values, and interpreted, it
        leaves on the lane rows of rb_cols their bytes there;
    (f) each P column's window bits come from at most two NOTs
        (`gather`); step 2, the phase block and the front (_front) are
        Inits and NorRows alone, which act on each row alone.
        Interpreted on the 16 grids where pair 0's columns hold one base
        on every row and pair 1's another, the head and phase block
        leave on rows 0-99 of the match columns what the front leaves
        from the window's bits gathered under `gather` and the mask
        `outside`. Each row of a grid reads only those four cells (d),
        and the 16 grids put every value of them on every row, so the
        two agree on every grid.

    So the front, then the body, over a batch's lanes (_lanes) decide
    each location as its program would. A shape that fails the proof
    raises ValueError when it is built, from the check marked with the
    letter of the property that fails.
    """

    def __init__(self, layout, phase):
        counts = (layout.read_length, 0, 0, 0)
        program = build_program(layout, phase, counts)
        self.cycles = program.cycles()  # lowers the head
        (_, writes), (_, copy) = program.head
        head = writes + copy
        if not _dataflow(head)[0]:  # (a)
            raise ValueError("the head is not init-dominated")
        block, *body = program.blocks
        if tuple(body) != _body():  # (b)
            raise ValueError("the blocks after the phase block are not the body")
        window = _copy(layout, phase)[1]
        first, *nots = copy
        if first.__class__ is not Init or any(op.__class__ is not NorRow or len(op.input_cols) != 1 for op in nots):
            raise ValueError("step 2 is not one Init, then NOTs")  # (b)
        nots = [(op._c[0][0], op._c[1], op._c[2]) for op in nots]  # (source, P column, rows)
        sources = sorted({k for k, _, _ in nots})
        specs = [_spec(op, {}) for op in copy]
        for offset in range(phase, TILE_STRIDE + 1, FRAGMENT_ROWS):
            s = 2 * (offset // FRAGMENT_ROWS)
            if max(sources) + s >= layout.genome_cols:  # (c)
                raise ValueError(f"the window at offset {offset} reads past the stored slice")
            c, rows = _copy(layout, offset)
            rename = {k + s: k for k in sources}
            if rows != window or [_spec(op, rename) for op in c] != specs:  # (b)
                raise ValueError(f"the head at offset {offset} is not the head at offset "
                                 f"{phase} with its source columns renamed")

        L = plan_layout()
        row = L.lane_rows["A"]
        ops = head + block.ops
        _, live, written = _dataflow(ops)
        body_live = _body_flow()[0]
        reads, covered = [0] * COLS, 0
        for k, _, rows in nots:
            reads[k] |= rows
            covered |= rows
        for k in L.thr_cols:
            reads[k] |= 1 << row
        if [rows | body_live[k] & ~written[k] for k, rows in enumerate(live)] != reads:  # (d)
            raise ValueError("the program reads other cells than its window and the threshold")
        if any(map(int.__and__, written, _reads())):  # (d)
            raise ValueError("the head or phase block writes a cell a batch reads from the grid")

        self.gather = ()
        for p in L.p_cols:
            pairs = [(k, rows) for k, out, rows in nots if out == p]
            if len(pairs) > 2:  # (f)
                raise ValueError("a P column's window bits come from more than two columns")
            for k, rows in (pairs + [(0, 0)] * 2)[:2]:
                self.gather += (k, rows)
        self.outside = _WINDOW & ~covered

        if writes != [_count_write(base, n) for base, n in zip(BASES, counts)]:  # (e)
            raise ValueError("step 1 is not the count writes")
        g = [0] * COLS
        _interpret(writes, g, [], True, None)
        record = 0
        for x, n in enumerate(counts):
            record |= _count_values()[x][n]
        if sum((g[k] >> row & 0xf) << 8 * j for j, k in enumerate(L.rb_cols)) != record:  # (e)
            raise ValueError("step 1 is not the band record of its counts")

        front = _front()
        if any(op.__class__ not in (Init, NorRow) for op in copy + block.ops + front.ops):  # (f)
            raise ValueError("step 2, the phase block or the front is not Inits and row NORs alone")
        k0, m0, k2, m2, k1, m1, k3, m3 = self.gather
        for b0, b1 in itertools.product(BASES, BASES):
            g, lane = [0] * COLS, [0] * COLS
            for i, bit in enumerate(BASE_CODES[b0] + BASE_CODES[b1]):
                g[i] = _WINDOW * bit
            lane[_MASK_COL] = self.outside
            lane[2 * _FRONT_PAIR] = g[k0] & m0 | g[k2] & m2
            lane[2 * _FRONT_PAIR + 1] = g[k1] & m1 | g[k3] & m3
            _interpret(ops, g, [], True, None)
            _interpret(front.ops, lane, [], True, None)
            if any((g[k] ^ lane[k]) & _WINDOW for k in L.match_cols.values()):  # (f)
                raise ValueError(f"the front leaves other bitmaps than the head and phase block "
                                 f"with bases {b0} and {b1} in pairs 0 and 1")


def _spec(op, rename):
    """An Init or NorRow as it was built, its columns mapped through
    `rename`: two ops with the same spec lower to the same form. Any
    other op raises ValueError."""
    cls = op.__class__
    col = rename.get
    if cls is Init:
        return cls, tuple([(rows, tuple(map(col, cols, cols))) for rows, cols in op.regions])
    if cls is not NorRow:
        raise ValueError(f"step 2 holds a {cls.__name__}, not only an Init and NOTs")
    return cls, tuple(map(col, op.input_cols, op.input_cols)), col(op.output_col, op.output_col), op.rows


@functools.cache
def _shape(read_length, phase):
    return _Shape(plan_layout(read_length), phase)


class _Location:
    """The program of one location check, as execute runs it: the cycles
    of its shape, and a run that sets its readout, which `batch` fills
    once run_kernel has queued it there (Batch.add) and the batch has
    run, and leaves it to its state's replay. Its ops are those of
    build_program, built only when something reads them (a trace, a
    replay, or a test)."""

    __slots__ = ("shape", "layout", "offset", "counts", "batch", "readout", "strict", "_built")

    def __init__(self, shape, layout, offset, counts, batch):
        self.shape, self.layout, self.offset, self.counts = shape, layout, offset, counts
        self.batch, self._built = batch, None

    @property
    def _program(self):
        if self._built is None:
            self._built = build_program(self.layout, self.offset, self.counts)
        return self._built

    ops = property(lambda self: self._program.ops)

    def cycles(self):
        return self.shape.cycles

    def run(self, state, readout, strict, emit):
        # no op runs now: the batch decides the location, and its program
        # runs on the grid when the grid is read (_Shape's proof)
        self.readout, self.strict = readout, strict
        state._replay.append(self)
        if emit is not None:
            emit(self.ops)

    def replay(self, state):
        """Run the program on the grid of state through the interpreter
        (MicroProgram.run), once its batch decided it; RuntimeError if it
        reads out other than the batch decided."""
        if not self.readout:
            self.batch.run()
        program = self._program
        program.cycles()  # lowers the head
        readout = []
        program.run(state, readout, self.strict, None)
        if readout != self.readout:
            raise RuntimeError(f"the location at offset {self.offset} reads out {readout} when replayed, "
                               f"{self.readout} in its batch")


_BATCH = 256  # most locations a batch runs as lanes of one pass


class Batch:
    """Locations run as lanes of one pass (_lanes), over any tiles:
    `entries` lists each location with its state. add queues one and
    runs the batch at its _BATCH-th, so no pass holds more.

    run, which add, a caller, or reading a waiting state's `cols` calls,
    packs each location's inputs from what the host holds: its counts
    (_count_values) and its state's threshold row, a byte per column,
    then the rows its window leaves (_Shape.outside) and the window's
    bits that its shape's step 2 reads (_Shape.gather), a whole column
    each. It runs the front and the body once for all of them, appends
    each location's read bit to its readout and empties the batch,
    which then takes new locations for another pass. It writes no grid:
    each location runs on its grid when the grid is read."""

    def __init__(self):
        self.entries = []

    def add(self, state, location):
        self.entries.append((state, location))
        if len(self.entries) == _BATCH:
            self.run()

    def run(self):
        entries = self.entries
        if not entries:
            return
        self.entries = []
        lanes = _lanes()
        ba, bt, bg, bc = _count_values()
        L = plan_layout()
        row, counted, thr = L.lane_rows["A"], len(L.rb_cols), L.thr_cols
        thresholds, records, masks, p0, p1 = {}, [], [], [], []
        for state, location in entries:
            g = state._grid
            s = 2 * (location.offset // FRAGMENT_ROWS)
            shape = location.shape
            k0, m0, k2, m2, k1, m1, k3, m3 = shape.gather
            p0.append(g[s + k0] & m0 | g[s + k2] & m2)
            p1.append(g[s + k1] & m1 | g[s + k3] & m3)
            masks.append(shape.outside)
            t = thresholds.get(state)
            if t is None:
                t = thresholds[state] = int.from_bytes(bytes([g[k] >> row & 1 for k in thr]), "little") << 8 * counted
            a, tt, gg, c = location.counts
            records.append(ba[a] | bt[tt] | bg[gg] | bc[c] | t)
        size = counted + len(thr)
        data = b"".join([r.to_bytes(size, "little") for r in records])
        lanes.run((*[int.from_bytes(data[i::size], "little") for i in range(size)],
                   _pack(masks, ROWS), _pack(p0, ROWS), _pack(p1, ROWS)),
                  [location.readout for _, location in entries])


def run_kernel(state, layout, counts, offset, strict=True, trace=None, batch=None):
    """Run one location check on a pre-loaded crossbar.

    The genome slice and the threshold constant must already be stored
    (see genome.load_tile and store_threshold). `counts` is the read's
    oracle.BaseCounts, `layout` plan_layout(read length). The inputs are
    checked, then the location runs through one execute call, which
    counts its shape's cycles (_Shape) and leaves it waiting on the
    state until the grid is read, when it runs as its program; it then
    joins `batch` (Batch.add), whose pass decides all its locations as
    lanes. With no batch, the location is a batch of one, run before
    this returns. It returns execute's ExecResult: the cycle report, its
    `steps` the shape's, is exact at once, and the readout, the decision
    bit, fills once the batch has run. A trace gets the ops of
    build_program.
    """
    a, t, g, c = counts
    if a + t + g + c != layout.read_length:
        raise ValueError("read histogram does not sum to the read length")
    if not 0 <= offset <= TILE_STRIDE:
        raise ValueError("offset out of range")
    # counts summing to at most FRAGMENT_ROWS fit in 7 bits if none is negative
    if a < 0 or t < 0 or g < 0 or c < 0:
        raise ValueError("base count must fit in 7 bits")
    alone = batch is None
    if alone:
        batch = Batch()
    program = _Location(_shape(layout.read_length, offset % FRAGMENT_ROWS), layout, offset, counts, batch)
    result = execute(program, state, strict=strict, trace=trace)
    batch.add(state, program)
    if alone:
        batch.run()
    return result

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

Steps 1 and 2 are built per location. Step 3 depends only on the rows
the window covers, and so does a short read's zeroing of the bitmap rows
its window leaves untouched (one step-4 span after step 3): both are one
proved Block per window shape. Steps 4-13 are one body, built once per
process and shared by every read length; the zeroing lets its popcounts
always count all 100 bitmap rows.

Per-step compute cycles at read length 100, against the step budgets:

  step   1  2  3     4  5    6   7  8-11  12 13   total
  spent  8  4  6  1520  8  105  28   153  72  1   1905
  limit  8  4  6  1656  8  111  28   153  73  1   2050
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .crossbar import COLS, Block, LaneGroup, MicroProgram, ProgramBuilder, execute
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
    match_cols: dict            # base -> bitmap column
    res_cols: tuple             # shared popcount result band (8 cells)
    pool_cols: tuple            # popcount working columns (rows 0..99)
    lane_rows: dict             # base -> arithmetic lane row
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
    if not 1 <= read_length <= FRAGMENT_ROWS:
        raise ValueError(f"read length must be 1..{FRAGMENT_ROWS}")
    genome_cols = 2 * FRAGMENTS_PER_TILE
    p_cols = (genome_cols, genome_cols + 1)
    na_col, nb_col = genome_cols + 6, genome_cols + 7
    match_cols = {b: genome_cols + 2 + i for i, b in enumerate(BASES)}
    res_cols = tuple(range(genome_cols + 8, genome_cols + 16))
    pool_cols = tuple(range(genome_cols + 16, COLS))

    lanes = ColumnPool(c for c in range(COLS) if c not in res_cols)
    layout = KernelLayout(
        read_length=read_length,
        genome_cols=genome_cols, p_cols=p_cols, na_col=na_col, nb_col=nb_col,
        match_cols=match_cols, res_cols=res_cols, pool_cols=pool_cols,
        lane_rows={b: FRAGMENT_ROWS + i for i, b in enumerate(BASES)},
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
    if not 0 <= offset <= TILE_STRIDE:
        raise ValueError("offset out of range")
    pair, r0 = divmod(offset, FRAGMENT_ROWS)
    ranges = [(pair, range(r0, min(FRAGMENT_ROWS, r0 + read_length)))]
    spill = r0 + read_length - FRAGMENT_ROWS
    if spill > 0:
        ranges.append((pair + 1, range(0, spill)))
    return ranges


def store_threshold(state, layout, eth):
    """Host write of the pre-computed constant 2*eth (done at tile load)."""
    if not 0 <= eth <= layout.read_length:
        raise ValueError("edit threshold out of range")
    cells = [(layout.lane_rows["A"], c) for c in layout.thr_cols]
    state.write_value(cells, 2 * eth)


def counts_bits(count):
    if not 0 <= count <= 127:
        raise ValueError("base count must fit in 7 bits")
    return [(count >> i) & 1 for i in range(8)]


def build_program(layout, offset, counts):
    """Emit the full annotated micro-program for one location check.

    Steps 1 and 2 depend on the read counts and the window's fragments
    and are emitted here. Every other op depends at most on the rows the
    window covers: step 3 and a short read's bitmap zeroing are one
    proved Block per window shape, followed by the shared body of steps
    4-13 (_placed). So those op objects, their lowered forms, their cycle
    counts and their compiled code are reused by every location with the
    same window shape.
    """
    L = layout
    n = L.read_length
    ranges = window_row_ranges(offset, n)
    if ranges[-1][0] >= FRAGMENTS_PER_TILE:
        raise ValueError("window spills past the stored slice")
    pb = ProgramBuilder()

    # Step 1: host write of the four read counts, two cycles per value.
    with pb.step("1"):
        for base, count in zip(BASES, counts):
            cells = tuple((L.lane_rows[base], c) for c in L.rb_cols)
            pb.write(cells, counts_bits(count))

    # Step 2: inverted copy of the window into the P column pair. The
    # window may span two fragments, one NOT per bit column per fragment.
    with pb.step("2"):
        pb.init(*(((rng, L.p_cols)) for _, rng in ranges))
        for pair, rng in ranges:
            pb.nor_row((2 * pair,), L.p_cols[0], rng)
            pb.nor_row((2 * pair + 1,), L.p_cols[1], rng)

    head = pb.build()
    # a full-length window covers every row, whatever its phase
    spans = (range(0, FRAGMENT_ROWS),) if n == FRAGMENT_ROWS else tuple(rng for _, rng in ranges)
    ops, annotations, blocks = _placed(len(head.ops), spans)
    return MicroProgram(head.ops + ops + _body().ops, head.annotations + annotations, blocks)


@functools.cache
def _body():
    """Steps 4-13, built once per process, as a MicroProgram whose blocks
    cover its ops.

    The four step-4 popcounts and their step-5 staging spans form one
    LaneGroup: the popcounts differ only in the bitmap column they count,
    so they run as four lanes of one compiled pass, and each step-5 span
    then stages its own lane's result. Steps 6-13 are one Block.
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

    body = pb.build()
    spans = [body.ops[start:end] for _, start, end in body.annotations[:8]]
    group = LaneGroup(zip(spans[0::2], spans[1::2]))
    rest = Block(body.ops[len(group.ops):])
    return MicroProgram(body.ops, body.annotations, ((0, group), (len(group.ops), rest)))


@functools.cache
def _placed(head_len, spans):
    """Step 3 over the window rows `spans`, then a short read's bitmap
    zeroing, as one Block placed after a head of head_len ops, followed
    by the body.

    Returns the Block's ops, the annotations of it and of the body, and
    the blocks of both, all moved past the head.
    """
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

    phase = pb.build()
    body = _body()
    at = head_len + len(phase.ops)
    annotations = tuple((label, start + head_len, end + head_len) for label, start, end in phase.annotations)
    annotations += tuple((label, start + at, end + at) for label, start, end in body.annotations)
    blocks = ((head_len, Block(phase.ops)),) + tuple((start + at, block) for start, block in body.blocks)
    return phase.ops, annotations, blocks


def _complement_rows(spans):
    used = sorted(r for rng in spans for r in rng)
    rest = []
    prev = 0
    for r in used + [FRAGMENT_ROWS]:
        if r > prev:
            rest.append(range(prev, r))
        prev = r + 1
    return rest


@dataclass
class KernelResult:
    """Decision and cycle accounting for one location check."""

    discard: int
    compute_cycles: int
    init_cycles: int
    steps: dict


def run_kernel(state, layout, counts, offset, strict=True, trace=None):
    """Run one location check on a pre-loaded crossbar.

    The genome slice and the threshold constant must already be stored
    (see genome.load_tile and store_threshold). `counts` is the read's
    oracle.BaseCounts.
    """
    if counts.total != layout.read_length:
        raise ValueError("read histogram does not sum to the read length")
    program = build_program(layout, offset, counts)
    result = execute(program, state, strict=strict, trace=trace)
    return KernelResult(result.readout[0], result.compute_cycles,
                        result.init_cycles, result.steps)

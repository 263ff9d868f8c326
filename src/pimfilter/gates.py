"""Builders for compound in-crossbar operations.

Every builder emits a MicroProgram made of NOR gates (plus batched
initializations) on the fixed crossbar. A Build's compute-cycle cost is
the sum of its emitted ops' costs; by construction it comes to:

    NOT              1 per parallelizable group
    COPY             2 (two chained NOTs)
    half adder       5
    N-bit adder      9*N + 1
    N-bit subtractor 9*N + 1
    N-bit mux        4*N
    popcount         whatever the tree needs (<= 414 for 100 bits)

The adder and subtractor share one nine-gate cell per bit. With operands
(a, b) and chain bit q:

    t1 = NOR(a, b)        t5 = NOR(t4, q)       out  = NOR(t6, t7)
    t2 = NOR(a, t1)       t6 = NOR(t4, t5)      carry = NOR(t1, t5)
    t3 = NOR(b, t1)       t7 = NOR(q, t5)       borrow = NOR(t3, t7)
    t4 = NOR(t2, t3)

`out` is the XOR-3 sum/difference bit; the adder chains `carry`
(majority of a, b, q) and the subtractor chains `borrow` (majority of
NOT a, b, q). The extra +1 cycle produces the chain's zero seed by
inverting a freshly initialized cell; a caller that already owns a zero
cell can pass it in and skip the seed cycle.

Builders never read a scratch cell they have not initialized, so an
emitted program reads no cell before writing it except its operands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crossbar import COLS, ROWS, MicroProgram, ProgramBuilder


class ColumnPool:
    """Hands out free column indices to the emitters, never twice."""

    def __init__(self, cols):
        self._free = list(cols)

    def take(self, n):
        if n > len(self._free):
            raise ValueError(f"insufficient scratch columns: need {n}, have {len(self._free)}")
        out, self._free = self._free[:n], self._free[n:]
        return out

    def take_one(self):
        return self.take(1)[0]


@dataclass
class Build:
    """A built compound op: the program and its result cells."""

    program: MicroProgram
    result_cells: list

    @property
    def compute_cycles(self):
        return sum(op.cycles for op in self.program.ops)


# ---------------------------------------------------------------------------
# Row-parallel gate cores. These emit gates only; the caller has already
# initialized every output and scratch cell they touch.

def _adder_gates(pb, width, x_cols, y_cols, z_cols, t_cols, carry_cols, rows, chain_col, borrow=False):
    """Ripple chain of nine-gate full adder/subtractor cells. 9*width cycles.

    :param t_cols: 7*width scratch columns, consumed per bit.
    :param carry_cols: width-1 chain columns; the final chain bit lands in
        z_cols[width] (carry-out, or the sign bit when subtracting).
    :param chain_col: column holding the zero seed of the chain.
    """
    q = chain_col
    for i in range(width):
        a, b = x_cols[i], y_cols[i]
        t1, t2, t3, t4, t5, t6, t7 = t_cols[7 * i:7 * i + 7]
        q_next = carry_cols[i] if i < width - 1 else z_cols[width]
        pb.nor_row((a, b), t1, rows)
        pb.nor_row((a, t1), t2, rows)
        pb.nor_row((b, t1), t3, rows)
        pb.nor_row((t2, t3), t4, rows)
        pb.nor_row((t4, q), t5, rows)
        pb.nor_row((t4, t5), t6, rows)
        pb.nor_row((q, t5), t7, rows)
        pb.nor_row((t6, t7), z_cols[i], rows)
        if borrow:
            pb.nor_row((t3, t7), q_next, rows)
        else:
            pb.nor_row((t1, t5), q_next, rows)
        q = q_next


def _half_adder_gates(pb, a_col, b_col, s_col, c_col, sc3, rows):
    """Five-gate half adder: s = a XOR b, c = a AND b."""
    na, nb, t = sc3
    pb.nor_row((a_col,), na, rows)
    pb.nor_row((b_col,), nb, rows)
    pb.nor_row((na, nb), c_col, rows)
    pb.nor_row((a_col, b_col), t, rows)
    pb.nor_row((c_col, t), s_col, rows)


def _mux_gates(pb, width, x_cols, y_cols, sel_col, z_cols, sc_cols, rows):
    """Per-bit select: z = x when sel=0, y when sel=1. 4*width cycles."""
    for i in range(width):
        nsel, m1, m2 = sc_cols[3 * i:3 * i + 3]
        pb.nor_row((sel_col,), nsel, rows)
        pb.nor_row((x_cols[i], sel_col), m1, rows)
        pb.nor_row((y_cols[i], nsel), m2, rows)
        pb.nor_row((m1, m2), z_cols[i], rows)


def _twos_complement_gates(pb, width, v_cols, z_cols, sc_cols, rows, one_col):
    """z = (NOT v) + 1 over `width` bits, 4 cycles per bit.

    Folds the inversion into the increment: per bit, with carry c,
    z_i = XNOR(v_i, c) and c' = NOT(v_i) AND c. `one_col` seeds c = 1 and
    only ever needs initialization, not a gate.
    """
    c = one_col
    for i in range(width):
        t1, t3, c_next = sc_cols[3 * i:3 * i + 3]
        pb.nor_row((v_cols[i], c), t1, rows)
        pb.nor_row((v_cols[i], t1), c_next, rows)
        pb.nor_row((c, t1), t3, rows)
        pb.nor_row((c_next, t3), z_cols[i], rows)
        c = c_next


def emit_adder(pb, width, x_cols, y_cols, z_cols, pool, rows, carry_in_col=None, borrow=False):
    """Init + gates for a full adder/subtractor over `rows` in parallel.

    Emits 9*width gates, plus 1 for the zero seed when no carry_in_col
    is given.
    """
    if len(z_cols) != width + 1:
        raise ValueError("result needs width+1 cells")
    t_cols = pool.take(7 * width)
    carry_cols = pool.take(width - 1) if width > 1 else []
    init_cols = list(t_cols) + list(carry_cols) + list(z_cols)
    seed_ops = []
    if carry_in_col is None:
        ones = pool.take_one()
        zero = pool.take_one()
        init_cols += [ones, zero]
        seed_ops.append((ones, zero))
        carry_in_col = zero
    pb.init((rows, tuple(init_cols)))
    for ones, zero in seed_ops:
        pb.nor_row((ones,), zero, rows)
    _adder_gates(pb, width, x_cols, y_cols, z_cols, t_cols, carry_cols, rows, carry_in_col, borrow=borrow)


# ---------------------------------------------------------------------------
# Popcount reduction tree.

@dataclass
class _Value:
    row: int
    cols: tuple
    band: int  # -1 for the caller's input column and the final result


def emit_popcount(pb, col, height, pool, res_cols, ones_row=None):
    """Sum the bits of rows 0..height-1 of one column with a pairing
    reduction tree.

    Each level pairs vertically adjacent values. The second value of every
    pair is aligned into the first's row: one inverted row-parallel shift
    per source column moves all of them sideways at once, then one
    column-parallel move per pair drops it into place (the double
    inversion restores polarity). A single row-parallel adder then sums
    every pair of the level; an odd value carries over unmodified and is
    zero-extended when it finally meets a wider partner.

    The final add writes `res_cols` in the first value's row, and the
    zero extensions read `ones_row` (default: row `height`), a row
    outside the bit column. Returns the result cells: the
    ceil(log2(height+1)) value bits, little-endian. When the full result
    band is wider (final add emits a carry cell) the extra cells are
    guaranteed zero for any column of at most `height` set bits.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    final_width = height.bit_length()
    if len(res_cols) < min(final_width + 1, height + 1) and height > 1:
        raise ValueError("result band too narrow")

    if height == 1:
        tmp = pool.take_one()
        pb.init(((0,), (tmp, res_cols[0])))
        pb.nor_row((col,), tmp, (0,))
        pb.nor_row((tmp,), res_cols[0], (0,))
        return [(0, res_cols[0])]

    if ones_row is None:
        ones_row = height
    if not height <= ones_row < ROWS:
        raise ValueError("ones_row must lie outside the bit column")

    band_width = final_width + 1
    tmp_cols = pool.take(final_width)
    scratch = pool.take(8 * final_width - 1)
    ones_col = pool.take_one()
    zero_col = pool.take_one()

    tree_rows = range(height)
    pb.init((tree_rows, (ones_col, zero_col)))
    pb.nor_row((ones_col,), zero_col, tree_rows)

    bands = []  # column tuples; a value in bands[i] has band == i
    values = [_Value(i, (col,), -1) for i in range(height)]

    while len(values) > 1:
        values.sort(key=lambda v: (-len(v.cols), v.row))
        pairs = [(values[k], values[k + 1]) for k in range(0, len(values) - 1, 2)]
        leftover = values[-1] if len(values) % 2 else None
        last = len(pairs) == 1 and leftover is None

        # One adder group per distinct first-operand placement.
        groups = {}
        for a, b in pairs:
            groups.setdefault(a.cols, []).append((a, b))

        if last:
            dest_cols = tuple(res_cols)
            dest_band = -1
        else:  # the first band that holds none of the current values
            busy = {v.band for v in values}
            dest_band = next((i for i in range(len(bands)) if i not in busy), len(bands))
            if dest_band == len(bands):
                bands.append(tuple(pool.take(band_width)))
            dest_cols = bands[dest_band]

        # Batched initialization of everything this level writes.
        regions = []
        fill_cols = set()
        for a_cols, members in groups.items():
            w = len(a_cols)
            a_rows = tuple(a.row for a, _ in members)
            b_rows = tuple(b.row for _, b in members)
            regions.append((a_rows + b_rows, tuple(tmp_cols[:w])))
            regions.append((a_rows, tuple(scratch[:8 * w - 1])))
            regions.append((a_rows, tuple(dest_cols[:w + 1])))
            for _, b in members:
                if len(b.cols) < w:
                    fill_cols.update(tmp_cols[len(b.cols):w])
        if fill_cols:
            regions.append(((ones_row,), tuple(sorted(fill_cols))))
        pb.init(*regions)

        # Sideways shifts, grouped by source placement (one op per column).
        shift_groups = {}
        for _, b in pairs:
            shift_groups.setdefault(b.cols, []).append(b.row)
        for src_cols, rows_ in shift_groups.items():
            for k, src in enumerate(src_cols):
                pb.nor_row((src,), tmp_cols[k], tuple(rows_))

        # Per-pair vertical moves and zero extensions.
        for a_cols, members in groups.items():
            w = len(a_cols)
            for a, b in members:
                pb.nor_col((b.row,), a.row, tuple(tmp_cols[:len(b.cols)]))
                if len(b.cols) < w:
                    pb.nor_col((ones_row,), a.row, tuple(tmp_cols[len(b.cols):w]))

        # Row-parallel adds.
        new_values = []
        for a_cols, members in groups.items():
            w = len(a_cols)
            a_rows = tuple(a.row for a, _ in members)
            z_cols = tuple(dest_cols[:w + 1])
            if w == 1:
                _half_adder_gates(pb, a_cols[0], tmp_cols[0], z_cols[0], z_cols[1], scratch[:3], a_rows)
            else:
                t_cols = scratch[:7 * w]
                carry_cols = scratch[7 * w:8 * w - 1]
                _adder_gates(pb, w, a_cols, tmp_cols[:w], z_cols, t_cols, carry_cols, a_rows, zero_col)
            new_values.extend(_Value(a.row, z_cols, dest_band) for a, _ in members)
        values = new_values + ([leftover] if leftover is not None else [])

    final = values[0]
    return [(final.row, c) for c in list(final.cols)[:final_width]]


# ---------------------------------------------------------------------------
# Standalone builders. Operands are explicit (row, col) cells; arithmetic
# operands sit little-endian in a single row, and each builder takes its
# scratch cells from the columns (or rows) its operands leave free.

def _require_disjoint(*cell_groups):
    seen = set()
    for group in cell_groups:
        for cell in group:
            if cell in seen:
                raise ValueError(f"aliased cell {cell}")
            seen.add(cell)


def _single_row(cells, what):
    rows = {r for r, _ in cells}
    if len(rows) != 1:
        raise ValueError(f"{what} must sit in one row")
    return rows.pop()


def _pool_for_row(used_cols):
    return ColumnPool(c for c in range(COLS) if c not in set(used_cols))


def build_not(src_cells, dst_cells):
    """dst <- bitwise NOT of src. One cycle per parallelizable group:
    a column-aligned group (same source and destination column, matching
    rows) or a row-aligned group (same rows, matching columns) inverts in
    a single cycle; anything else falls back to one gate per bit."""
    src, dst = list(src_cells), list(dst_cells)
    if len(src) != len(dst) or not src:
        raise ValueError("src and dst must be same nonempty length")
    _require_disjoint(src, dst)
    pb = ProgramBuilder()

    src_cols = {c for _, c in src}
    dst_cols = {c for _, c in dst}
    src_rows = {r for r, _ in src}
    dst_rows = {r for r, _ in dst}
    if len(src_cols) == 1 and len(dst_cols) == 1 and all(a[0] == b[0] for a, b in zip(src, dst)):
        row_set = tuple(r for r, _ in src)
        pb.init((row_set, (dst[0][1],)))
        pb.nor_row((src[0][1],), dst[0][1], row_set)
    elif len(src_rows) == 1 and len(dst_rows) == 1 and all(a[1] == b[1] for a, b in zip(src, dst)):
        col_set = tuple(c for _, c in src)
        pb.init(((dst[0][0],), col_set))
        pb.nor_col((src[0][0],), dst[0][0], col_set)
    else:
        for (sr, sc), (dr, dc) in zip(src, dst):
            if sr != dr:
                raise ValueError("scattered NOT bits must stay in their row")
            pb.init(((dr,), (dc,)))
            pb.nor_row((sc,), dc, (dr,))
    return Build(pb.build(), dst)


def build_copy(src_cells, dst_cells):
    """dst <- src via two chained NOTs through free scratch cells. Two
    cycles per group."""
    src, dst = list(src_cells), list(dst_cells)
    if len(src) != len(dst) or not src:
        raise ValueError("src and dst must be same nonempty length")
    _require_disjoint(src, dst)
    used_cols = {c for _, c in src} | {c for _, c in dst}
    free_cols = [c for c in range(COLS) if c not in used_cols]
    src_cols = {c for _, c in src}
    src_rows = {r for r, _ in src}
    if len(src_cols) == 1 and all(a[0] == b[0] for a, b in zip(src, dst)):
        mid_cells = [(r, free_cols[0]) for r, _ in src]
    elif len(src_rows) == 1 and all(a[1] == b[1] for a, b in zip(src, dst)):
        used_rows = src_rows | {r for r, _ in dst}
        tmp_row = next(r for r in range(ROWS) if r not in used_rows)
        mid_cells = [(tmp_row, c) for _, c in src]
    else:
        mid_cells = [(r, free_cols[i]) for i, (r, _) in enumerate(src)]
    first = build_not(src, mid_cells)
    second = build_not(mid_cells, dst)
    return Build(MicroProgram(first.program.ops + second.program.ops), dst)


def build_half_adder(a_cell, b_cell, s_cell, c_cell):
    """(s, c) <- a + b for single-bit cells in one row. Five cycles."""
    row = _single_row([a_cell, b_cell, s_cell, c_cell], "half adder cells")
    _require_disjoint([a_cell, b_cell], [s_cell, c_cell])
    sc3 = _pool_for_row([c for _, c in (a_cell, b_cell, s_cell, c_cell)]).take(3)
    pb = ProgramBuilder()
    pb.init(((row,), tuple(sc3) + (s_cell[1], c_cell[1])))
    _half_adder_gates(pb, a_cell[1], b_cell[1], s_cell[1], c_cell[1], sc3, (row,))
    return Build(pb.build(), [s_cell, c_cell])


def _build_addsub(width, x_cells, y_cells, z_cells, borrow):
    if len(x_cells) != width or len(y_cells) != width:
        raise ValueError("operands must be `width` bits")
    if len(z_cells) != width + 1:
        raise ValueError("result must be width+1 bits")
    row = _single_row(list(x_cells) + list(y_cells) + list(z_cells), "operands")
    _require_disjoint(x_cells, y_cells, z_cells)
    pool = _pool_for_row([c for _, c in list(x_cells) + list(y_cells) + list(z_cells)])
    pb = ProgramBuilder()
    emit_adder(
        pb, width,
        [c for _, c in x_cells], [c for _, c in y_cells], [c for _, c in z_cells],
        pool, (row,), borrow=borrow,
    )
    return Build(pb.build(), list(z_cells))


def build_adder(width, x_cells, y_cells, z_cells):
    """z <- x + y over width-bit little-endian operands in one row.

    z carries width+1 bits including the carry-out. Cycles: 9*width + 1.
    """
    return _build_addsub(width, x_cells, y_cells, z_cells, borrow=False)


def build_subtractor(width, x_cells, y_cells, z_cells):
    """z <- x - y in width+1-bit two's complement (msb = sign).

    Cycles: 9*width + 1.
    """
    return _build_addsub(width, x_cells, y_cells, z_cells, borrow=True)


def build_mux(width, x_cells, y_cells, sel_cell, z_cells):
    """z <- x when sel = 0, else y. Cycles: 4*width."""
    if len(x_cells) != width or len(y_cells) != width or len(z_cells) != width:
        raise ValueError("mux operands and result must be `width` bits")
    row = _single_row(list(x_cells) + list(y_cells) + list(z_cells) + [sel_cell], "mux cells")
    _require_disjoint(x_cells, y_cells, [sel_cell], z_cells)
    used = [c for _, c in list(x_cells) + list(y_cells) + list(z_cells)] + [sel_cell[1]]
    sc = _pool_for_row(used).take(3 * width)
    pb = ProgramBuilder()
    pb.init(((row,), tuple(sc) + tuple(c for _, c in z_cells)))
    _mux_gates(pb, width, [c for _, c in x_cells], [c for _, c in y_cells],
               sel_cell[1], [c for _, c in z_cells], sc, (row,))
    return Build(pb.build(), list(z_cells))


def build_popcount(col, height):
    """Sum the 1-bits of `col` in rows 0..height-1.

    The result lands little-endian in row 0, in the lowest columns other
    than `col`; result cells are returned in the Build. Row `height`
    holds the tree's constant ones. Cycle cost is whatever the tree
    needed (380 for a 100-bit column).
    """
    pool = ColumnPool(c for c in range(COLS) if c != col)
    width = height.bit_length()
    res_cols = pool.take(min(width + 1, height + 1) if height > 1 else 1)
    pb = ProgramBuilder()
    result_cells = emit_popcount(pb, col, height, pool, res_cols)
    return Build(pb.build(), result_cells)

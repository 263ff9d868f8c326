import hashlib
import random

import pytest

from pimfilter.crossbar import CrossbarState, execute
from pimfilter.gates import (
    ColumnPool,
    build_adder,
    build_copy,
    build_half_adder,
    build_mux,
    build_not,
    build_popcount,
    build_subtractor,
)

from dataflow import live_cells


def run(build, preload=()):
    """Execute a built op on a fresh array with preloaded operand values."""
    state = CrossbarState()
    for cells, value in preload:
        state.write_value(cells, value)
    res = execute(build.program, state)
    return state, res


def lane(width, groups):
    """Little-endian cell groups packed left to right in row 0."""
    out = []
    col = 0
    for g in groups:
        n = width + 1 if g == "z" else width
        out.append([(0, c) for c in range(col, col + n)])
        col += n + 1
    return out


class TestNot:
    def test_column_group_single_cycle(self):
        src = [(r, 0) for r in range(4)]
        dst = [(r, 1) for r in range(4)]
        b = build_not(src, dst)
        state, res = run(b, [(src, 0b0000)])
        assert state.read_value(dst) == 0b1111
        assert res.compute_cycles == b.compute_cycles == 1

    def test_row_group(self):
        src = [(0, c) for c in range(4)]
        dst = [(1, c) for c in range(4)]
        b = build_not(src, dst)
        state, res = run(b, [(src, 0b1010)])
        assert state.read_value(dst) == 0b0101
        assert res.compute_cycles == 1

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match="aliased"):
            build_not([(0, 0)], [(0, 0)])


class TestCopy:
    def test_two_chained_nots(self):
        src = [(r, 0) for r in range(4)]
        dst = [(r, 2) for r in range(4)]
        b = build_copy(src, dst)
        state, res = run(b, [(src, 0b1010)])
        assert state.read_value(dst) == 0b1010
        assert res.compute_cycles == b.compute_cycles == 2

    def test_single_bit(self):
        b = build_copy([(0, 0)], [(0, 3)])
        state, res = run(b, [([(0, 0)], 1)])
        assert state.cells[0, 3] == 1
        assert res.compute_cycles == 2


class TestHalfAdder:
    @pytest.mark.parametrize("a,b_,s,c", [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 1)])
    def test_exhaustive(self, a, b_, s, c):
        cells = [(0, 0), (0, 1), (0, 2), (0, 3)]
        b = build_half_adder(*cells)
        state, res = run(b, [([cells[0]], a), ([cells[1]], b_)])
        assert state.get_bits(cells[2:]) == [s, c]
        assert res.compute_cycles == b.compute_cycles == 5


class TestAdder:
    def test_cycle_cost_formula(self):
        for width in (1, 4, 7, 8):
            x, y, z = lane(width, "xyz")
            assert build_adder(width, x, y, z).compute_cycles == 9 * width + 1

    def test_examples_8bit(self):
        x, y, z = lane(8, "xyz")
        b = build_adder(8, x, y, z)
        for xv, yv in [(0, 0), (100, 55), (255, 255)]:
            state, res = run(b, [(x, xv), (y, yv)])
            assert state.read_value(z) == xv + yv
            assert res.compute_cycles == 73

    def test_exhaustive_4bit(self):
        x, y, z = lane(4, "xyz")
        b = build_adder(4, x, y, z)
        for xv in range(16):
            for yv in range(16):
                state, _ = run(b, [(x, xv), (y, yv)])
                assert state.read_value(z) == xv + yv

    @pytest.mark.parametrize("width", [7, 8])
    def test_randomized_wide(self, width):
        x, y, z = lane(width, "xyz")
        b = build_adder(width, x, y, z)
        rng = random.Random(width)
        for _ in range(300):
            xv, yv = rng.randrange(2 ** width), rng.randrange(2 ** width)
            state, _ = run(b, [(x, xv), (y, yv)])
            assert state.read_value(z) == xv + yv


class TestSubtractor:
    def test_cycle_cost_formula(self):
        for width in (4, 8):
            x, y, z = lane(width, "xyz")
            assert build_subtractor(width, x, y, z).compute_cycles == 9 * width + 1

    def test_examples_8bit(self):
        x, y, z = lane(8, "xyz")
        b = build_subtractor(8, x, y, z)
        state, _ = run(b, [(x, 10), (y, 10)])
        assert state.read_value(z) == 0
        state, _ = run(b, [(x, 5), (y, 9)])
        assert state.read_value(z) == (5 - 9) % 512  # two's complement, msb set
        assert state.cells[0, z[-1][1]] == 1

    def test_exhaustive_4bit(self):
        x, y, z = lane(4, "xyz")
        b = build_subtractor(4, x, y, z)
        for xv in range(16):
            for yv in range(16):
                state, _ = run(b, [(x, xv), (y, yv)])
                assert state.read_value(z) == (xv - yv) % 32

    @pytest.mark.parametrize("width", [7, 8])
    def test_randomized_wide(self, width):
        x, y, z = lane(width, "xyz")
        b = build_subtractor(width, x, y, z)
        rng = random.Random(width + 1)
        for _ in range(300):
            xv, yv = rng.randrange(2 ** width), rng.randrange(2 ** width)
            state, _ = run(b, [(x, xv), (y, yv)])
            assert state.read_value(z) == (xv - yv) % 2 ** (width + 1)


class TestMux:
    def test_cycle_cost_formula(self):
        for width in (2, 7, 8):
            x, y, z = lane(width, "xyy")
            sel = (0, 100)
            assert build_mux(width, x, y, sel, z).compute_cycles == 4 * width

    def test_examples(self):
        x, y, z = lane(8, "xyy")
        sel = (0, 100)
        b = build_mux(8, x, y, sel, z)
        state, _ = run(b, [(x, 0xAB), (y, 0xCD), ([sel], 0)])
        assert state.read_value(z) == 0xAB
        state, _ = run(b, [(x, 0xAB), (y, 0xCD), ([sel], 1)])
        assert state.read_value(z) == 0xCD

    def test_exhaustive_2bit(self):
        x, y, z = lane(2, "xyy")
        sel = (0, 100)
        b = build_mux(2, x, y, sel, z)
        for xv in range(4):
            for yv in range(4):
                for sv in (0, 1):
                    state, _ = run(b, [(x, xv), (y, yv), ([sel], sv)])
                    assert state.read_value(z) == (yv if sv else xv)


class TestPopcount:
    def test_boundary_columns(self):
        b = build_popcount(0, 100)
        state = CrossbarState()
        execute(b.program, state)  # all zeros
        assert state.read_value(b.result_cells) == 0
        state = CrossbarState()
        state.set_bits([(r, 0) for r in range(100)], [1] * 100)
        execute(b.program, state)
        assert state.read_value(b.result_cells) == 100

    def test_100_bit_budget(self):
        b = build_popcount(0, 100)
        assert b.compute_cycles <= 414
        state = CrossbarState()
        res = execute(b.program, state)
        assert res.compute_cycles == b.compute_cycles

    def test_randomized_100bit(self):
        b = build_popcount(0, 100)
        rng = random.Random(2)
        cells = [(r, 0) for r in range(100)]
        for _ in range(200):
            bits = [rng.randint(0, 1) for _ in range(100)]
            state = CrossbarState()
            state.set_bits(cells, bits)
            execute(b.program, state)
            assert state.read_value(b.result_cells) == sum(bits)

    @pytest.mark.parametrize("height", list(range(1, 18)) + [31, 32, 33, 64, 100, 120])
    def test_height_sweep(self, height):
        b = build_popcount(0, height)
        rng = random.Random(height)
        cells = [(r, 0) for r in range(height)]
        for bits in ([1] * height, [0] * height,
                     [rng.randint(0, 1) for _ in range(height)]):
            state = CrossbarState()
            state.set_bits(cells, bits)
            res = execute(b.program, state)
            assert state.read_value(b.result_cells) == sum(bits)
            assert res.compute_cycles == b.compute_cycles

    def test_result_at_first_value_row(self):
        b = build_popcount(3, 100)
        assert all(r == 0 for r, _ in b.result_cells)

    def test_op_streams_pinned(self):
        # heights 1..120, taken before band reuse was simplified; the
        # digest covers each op's text and the result cells
        h = hashlib.sha256()
        for height in range(1, 121):
            b = build_popcount(0, height)
            text = "\n".join(op.describe() for op in b.program.ops) + "\n" + repr(b.result_cells) + "\n"
            h.update(text.encode())
        assert h.hexdigest() == "f7829fc00e1fbc7b385c552f985cd2ffb7a50365239d535dab7cf0b779789df2"


class TestTaintCleanliness:
    def test_builders_never_read_undefined_scratch(self):
        width = 4
        x, y, z = lane(width, "xyz")
        for b, operands in [
            (build_adder(width, x, y, z), x + y),
            (build_subtractor(width, x, y, z), x + y),
            (build_mux(width, x, y[:width], (0, 100), z[:width]), x + y + [(0, 100)]),
            (build_not([(0, 0)], [(0, 1)]), [(0, 0)]),
            (build_copy([(0, 0)], [(0, 2)]), [(0, 0)]),
        ]:
            assert live_cells(b.program) <= set(operands)

    def test_popcount_taint_clean(self):
        b = build_popcount(0, 100)
        assert live_cells(b.program) <= {(r, 0) for r in range(100)}


def test_column_pool_exhaustion():
    pool = ColumnPool(range(3))
    pool.take(2)
    with pytest.raises(ValueError, match="insufficient"):
        pool.take(2)

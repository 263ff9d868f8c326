import hashlib
import random

import pytest

from pimfilter import crossbar, oracle
from pimfilter.crossbar import CrossbarState, NorRow, _axis, execute, taint_violations
from pimfilter.genome import load_tile, partition
from pimfilter.io import synth_genome
from pimfilter.kernel import (
    BASES,
    COMPUTE_BUDGET,
    FRAGMENT_ROWS,
    STEP_BUDGETS,
    TILE_STRIDE,
    TOTAL_BUDGET,
    build_program,
    encode_base,
    plan_layout,
    run_kernel,
    store_threshold,
    window_row_ranges,
)


@pytest.fixture(scope="module")
def tile_state(layout):
    rng = random.Random(11)
    genome = synth_genome(6600, rng)
    state = CrossbarState()
    load_tile(state, layout, genome, partition(len(genome))[0], eth=5)
    return genome, state


class TestEncoding:
    @pytest.mark.parametrize("base,code", [("A", (0, 0)), ("T", (0, 1)), ("G", (1, 0)), ("C", (1, 1))])
    def test_codes(self, base, code):
        assert encode_base(base) == code

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            encode_base("N")


def match_value(base, pa, pb):
    """Evaluate the match network for `base` on an inverted bit pair.

    The window is stored inverted, so with (pa, pb) the complemented code
    bits, each base type has its own two-level NOR expression that is 1
    exactly when the original base equals `base`:

        A: NOR(NOR(pa), NOR(pb))    G: NOR(pa, NOR(pb))
        T: NOR(NOR(pa), pb)         C: NOR(pa, pb)
    """
    na, nb = 1 - pa, 1 - pb
    if base == "A":
        return 1 - (na | nb)
    if base == "T":
        return 1 - (na | pb)
    if base == "G":
        return 1 - (pa | nb)
    if base == "C":
        return 1 - (pa | pb)
    raise ValueError(f"invalid base {base!r}")


class TestMatchExpressions:
    def test_truth_table(self):
        # evaluate all four expressions over all four stored codes
        for stored in BASES:
            a, b = encode_base(stored)
            pa, pb = 1 - a, 1 - b  # the window is kept inverted
            for probe in BASES:
                assert match_value(probe, pa, pb) == int(probe == stored)

    def test_c_is_plain_nor(self):
        # stored C inverts to (0, 0); NOR(0, 0) = 1
        assert match_value("C", 0, 0) == 1

    def test_t_expression(self):
        a, b = encode_base("T")
        assert match_value("T", 1 - a, 1 - b) == 1
        assert match_value("G", 1 - a, 1 - b) == 0


class TestWindowRows:
    def test_aligned_offset_single_fragment(self):
        assert window_row_ranges(0, 100) == [(0, range(0, 100))]
        assert window_row_ranges(6400, 100) == [(64, range(0, 100))]

    def test_split_offset(self):
        (p1, r1), (p2, r2) = window_row_ranges(230, 100)
        assert (p1, list(r1)[:1], list(r1)[-1]) == (2, [30], 99)
        assert (p2, list(r2)) == (3, list(range(0, 30)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            window_row_ranges(6401, 100)


class TestBudgets:
    def test_per_step_and_totals(self, layout, tile_state):
        genome, state = tile_state
        counts = oracle.histogram(genome[123:223])
        res = run_kernel(state, layout, counts, 123)
        for label, budget in STEP_BUDGETS.items():
            assert res.steps[label].compute <= budget, label
        assert res.compute_cycles <= COMPUTE_BUDGET
        assert res.compute_cycles + res.init_cycles <= TOTAL_BUDGET

    def test_comparison_step_structure(self, layout):
        # two shared inversions feed the A comparison; T, G, C cost one each
        prog = build_program(layout, 0, oracle.BaseCounts(100, 0, 0, 0))
        spans = {label: (s, e) for label, s, e in prog.annotations if label == "3"}
        s, e = spans["3"]
        gates = [op for op in prog.ops[s:e] if isinstance(op, NorRow)]
        assert len(gates) == 6
        na, nb = gates[0], gates[1]
        assert len(na.input_cols) == 1 and len(nb.input_cols) == 1
        m_a = gates[2]
        assert set(m_a.input_cols) == {na.output_col, nb.output_col}

    def test_write_step_cost(self, layout, tile_state):
        genome, state = tile_state
        counts = oracle.histogram(genome[0:100])
        res = run_kernel(state, layout, counts, 0)
        assert res.steps["1"].compute == 8  # two cycles per stored count


class TestEveryRowPhase:
    # A program depends on its offset only through the row phase
    # offset % 100, so the 100 phases cover every program of a read length.
    @pytest.mark.parametrize("read_length,totals", [
        (100, (194598, 190498, 4500)),
        (64, (195844, 191344, 4900)),
        (1, (195592, 191092, 4900)),
    ])
    def test_programs_valid_clean_and_within_budget(self, read_length, totals):
        layout = plan_layout(read_length)
        defined = {(r, c) for r in range(FRAGMENT_ROWS) for c in range(layout.genome_cols)}
        defined |= {(layout.lane_rows["A"], c) for c in layout.thr_cols}
        counts = oracle.BaseCounts(read_length, 0, 0, 0)
        ops = compute = init = 0
        for r0 in range(FRAGMENT_ROWS):
            prog = build_program(layout, r0, counts)
            assert taint_violations(prog, defined) == [], r0
            # execute checks structure and annotations first and raises
            # MicroOpError or ValueError on a violation
            res = execute(prog, CrossbarState())
            assert res.compute_cycles <= COMPUTE_BUDGET, r0
            assert res.compute_cycles + res.init_cycles <= TOTAL_BUDGET, r0
            if read_length == 100:
                for label, budget in STEP_BUDGETS.items():
                    assert res.steps[label].compute <= budget, (r0, label)
            ops += len(prog.ops)
            compute += res.compute_cycles
            init += res.init_cycles
        # pinned: a change to any program or to cycle accounting shows here
        assert (ops, compute, init) == totals

    @pytest.mark.parametrize("read_length,counts,digest", [
        (100, (10, 20, 30, 40), "0795463040e9ae4ccf0e81ade5320ac37b09c1a13ec4991ad3497445a2418916"),
        (64, (1, 2, 3, 58), "173d9e78e80ffb88ca9f0af8c115ed251e56c34ec0425d0f554942b9a2ddcb62"),
        (1, (0, 0, 1, 0), "4a2ec7bbc65544a2dcfae58206c8fb3a0179a96c2c7d834f7a6c51279e26fe56"),
    ])
    def test_op_stream_pinned(self, read_length, counts, digest):
        # every row phase in the first, second and last fragment pair;
        # the digest covers each op's text and the step annotations
        layout = plan_layout(read_length)
        h = hashlib.sha256()
        for pair in (0, 1, 64):
            for offset in range(FRAGMENT_ROWS * pair, min(FRAGMENT_ROWS * (pair + 1), TILE_STRIDE + 1)):
                prog = build_program(layout, offset, oracle.BaseCounts(*counts))
                text = repr(prog.annotations) + "\n" + "\n".join(op.describe() for op in prog.ops) + "\n"
                h.update(text.encode())
        assert h.hexdigest() == digest


class TestSharedBody:
    @pytest.mark.parametrize("read_length,unshared", [(100, 16), (64, 30)])
    def test_body_is_shared_and_lowered_once(self, monkeypatch, read_length, unshared):
        layout = plan_layout(read_length)
        counts = oracle.BaseCounts(read_length, 0, 0, 0)
        first = build_program(layout, 250, counts)
        second = build_program(layout, 137, counts)

        def body_ops(prog):
            # ops past step 3, less a short read's bitmap zeroing, which
            # is the only user of the pool's first column in step 4
            spare = layout.pool_cols[0]
            out = []
            for label, start, end in prog.annotations:
                for op in prog.ops[start:end]:
                    if label in ("1", "2", "3"):
                        continue
                    if label == "4" and read_length < FRAGMENT_ROWS and (
                            spare in getattr(op, "input_cols", ())
                            or any(spare in _axis(c) for _, c in getattr(op, "regions", ()))):
                        continue
                    out.append(op)
            return out

        shared = body_ops(first)
        assert len(shared) == len(body_ops(second)) > 1800
        assert all(a is b for a, b in zip(shared, body_ops(second)))

        execute(first, CrossbarState())
        lowered = []
        real_lower = crossbar._lower
        monkeypatch.setattr(crossbar, "_lower",
                            lambda op: lowered.append(op) or real_lower(op))
        execute(second, CrossbarState())
        first_ids = {id(op) for op in first.ops}
        fresh = [op for op in second.ops if id(op) not in first_ids]
        assert [id(op) for op in lowered] == [id(op) for op in fresh]
        assert len(lowered) == unshared


class TestDecisions:
    def test_exact_window_kept_at_zero_threshold(self, layout, tile_state):
        genome, state = tile_state
        counts = oracle.histogram(genome[200:300])
        store_threshold(state, layout, 0)
        res = run_kernel(state, layout, counts, 200)
        assert res.discard == 0

    def test_all_a_read_against_all_a_window(self, layout):
        genome = "A" * 6500
        state = CrossbarState()
        load_tile(state, layout, genome, partition(len(genome))[0], eth=0)
        counts = oracle.BaseCounts(100, 0, 0, 0)
        assert run_kernel(state, layout, counts, 0).discard == 0

    def test_fully_disjoint_alphabets_discard(self, layout):
        genome = "G" * 50 + "C" * 6450
        state = CrossbarState()
        load_tile(state, layout, genome, partition(len(genome))[0], eth=10)
        counts = oracle.BaseCounts(50, 50, 0, 0)  # error 200 > 20
        assert run_kernel(state, layout, counts, 0).discard == 1

    def test_boundary_error_exactly_twice_eth(self, layout):
        # window has k non-A bases against an all-A read: error = 2k
        k = 7
        genome = "T" * k + "A" * 6500
        state = CrossbarState()
        load_tile(state, layout, genome, partition(len(genome))[0], eth=k)
        counts = oracle.BaseCounts(100, 0, 0, 0)
        assert run_kernel(state, layout, counts, 0).discard == 0
        store_threshold(state, layout, k - 1)
        assert run_kernel(state, layout, counts, 0).discard == 1

    def test_window_lands_in_p_as_row_rotation(self, layout, tile_state):
        # the inverted window copy rotates rows by the in-fragment phase
        genome, state = tile_state
        offset = 250  # split across two fragments, phase 50
        counts = oracle.histogram("ACGT" * 25)
        run_kernel(state, layout, counts, offset)
        window = genome[offset:offset + 100]
        r0 = offset % 100
        for r in range(100):
            pa, pb = state.cells[r, layout.p_cols[0]], state.cells[r, layout.p_cols[1]]
            a, b = encode_base(window[(r - r0) % 100])
            assert (pa, pb) == (1 - a, 1 - b)

    def test_window_counts_reach_the_lanes(self, layout, tile_state):
        genome, state = tile_state
        offset = 4321
        window = genome[offset:offset + 100]
        counts = oracle.histogram("ACGT" * 25)
        run_kernel(state, layout, counts, offset)
        want = oracle.histogram(window)
        got = [state.read_value([(layout.lane_rows[b], c) for c in layout.res_cols])
               for b in BASES]
        assert got == [want.a, want.t, want.g, want.c]
        assert sum(got) == 100

    def test_permutation_invariance(self, layout):
        rng = random.Random(5)
        window = list("ACGT" * 25)
        rng.shuffle(window)
        shuffled = list(window)
        rng.shuffle(shuffled)
        counts = oracle.histogram(synth_genome(100, rng))
        results = []
        for w in ("".join(window), "".join(shuffled)):
            genome = w + "A" * 6450
            state = CrossbarState()
            load_tile(state, layout, genome, partition(len(genome))[0], eth=3)
            results.append(run_kernel(state, layout, counts, 0).discard)
        assert results[0] == results[1]

    def test_randomized_against_golden_model(self, layout, tile_state):
        genome, state = tile_state
        rng = random.Random(17)
        for _ in range(150):
            offset = rng.randint(0, 6400)
            eth = rng.choice([0, 1, 5, 10])
            read = synth_genome(100, rng) if rng.random() < 0.6 else \
                list(genome[offset:offset + 100])
            if isinstance(read, list):
                for _ in range(rng.randint(0, 12)):
                    read[rng.randrange(100)] = rng.choice("ACGT")
                read = "".join(read)
            counts = oracle.histogram(read)
            store_threshold(state, layout, eth)
            res = run_kernel(state, layout, counts, offset)
            assert res.discard == oracle.decide(counts, genome[offset:offset + 100], eth)


class TestValidation:
    def test_histogram_must_sum_to_read_length(self, layout, tile_state):
        _, state = tile_state
        with pytest.raises(ValueError, match="read length"):
            run_kernel(state, layout, oracle.BaseCounts(1, 0, 0, 0), 0)

    def test_offset_out_of_range(self, layout, tile_state):
        genome, state = tile_state
        counts = oracle.histogram(genome[:100])
        with pytest.raises(ValueError):
            run_kernel(state, layout, counts, 6401)
        with pytest.raises(ValueError):
            run_kernel(state, layout, counts, -1)

    def test_threshold_range(self, layout):
        state = CrossbarState()
        with pytest.raises(ValueError):
            store_threshold(state, layout, -1)
        with pytest.raises(ValueError):
            store_threshold(state, layout, 101)

    def test_program_taint_clean(self, layout):
        prog = build_program(layout, 123, oracle.BaseCounts(100, 0, 0, 0))
        defined = {(r, c) for r in range(100) for c in range(layout.genome_cols)}
        defined |= {(layout.lane_rows["A"], c) for c in layout.thr_cols}
        assert taint_violations(prog, defined) == []

    def test_short_reads_supported(self):
        short = plan_layout(read_length=60)
        genome = "ACGT" * 1700
        state = CrossbarState()
        load_tile(state, short, genome, partition(len(genome), 60)[0], eth=2)
        rng = random.Random(9)
        for _ in range(8):
            offset = rng.randint(0, 6400)
            read = synth_genome(60, rng)
            counts = oracle.histogram(read)
            res = run_kernel(state, short, counts, offset)
            assert res.discard == oracle.decide(counts, genome[offset:offset + 60], 2)

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimfilter import genome as genome_mod
from pimfilter import crossbar, kernel, oracle
from pimfilter.cli import main
from pimfilter.crossbar import COLS, ROWS, CrossbarState, execute
from pimfilter.genome import (
    load_tile,
    partition,
    route,
    run_filter,
    schedule,
    tile_count,
)
from pimfilter.io import CandidateRecord, mutate_read, parse_candidates, parse_fasta, synth_fixture, synth_genome
from pimfilter.kernel import FRAGMENT_ROWS, FRAGMENTS_PER_TILE, TILE_SPAN, TILE_STRIDE, build_program, encode_base

from grid import load_grid, snapshot

EVERY_PAIR = range(FRAGMENTS_PER_TILE)


class TestPartition:
    def test_full_scale_tile_count(self):
        assert tile_count(3_200_000_000) == 500_000

    def test_two_tiles(self):
        tiles = partition(12_900)
        assert [t.start for t in tiles] == [0, 6400]

    def test_single_tile(self):
        assert len(partition(6_500)) == 1

    def test_stride_and_span(self):
        tiles = partition(20_000)
        for t in tiles[:-1]:
            assert t.length == TILE_SPAN
        assert all(t.start == t.index * TILE_STRIDE for t in tiles)

    def test_last_tile_may_be_short(self):
        tiles = partition(6_600)
        assert tiles[-1].length == 6_600 - 6_400

    def test_too_short(self):
        with pytest.raises(ValueError):
            tile_count(99)

    @pytest.mark.parametrize("read_length", [100, 64, 1])
    def test_tile_count_is_the_float_ceiling(self, read_length):
        # every length within 2 of each of the first six multiples of the
        # stride past one read, and within 2 of 2**32
        lengths = [read_length + TILE_STRIDE * k + d for k in range(6) for d in (-2, -1, 0, 1, 2)]
        lengths += [2 ** 32 + d for d in range(-2, 3)]
        for length in (n for n in lengths if n >= read_length):
            want = max(1, math.ceil((length - read_length) / TILE_STRIDE))
            got = tile_count(length, read_length)
            assert got == want and type(got) is int, length
        with pytest.raises(ValueError, match="^genome shorter than one read$"):
            tile_count(read_length - 1, read_length)


class TestRoute:
    def test_origin(self):
        assert route(0, 100_000) == (0, 0)

    def test_last_window_of_first_tile(self):
        # window ends at 6499, still inside the 6500-base span
        assert route(6399, 100_000) == (0, 6399)

    def test_first_window_of_second_tile(self):
        assert route(6400, 100_000) == (1, 0)

    def test_boundary_window_clamps_to_final_tile(self):
        # L - 100 is an exact stride multiple: the window lands in the
        # final tile's overlap fragment at offset 6400
        assert route(12_800, 12_900) == (1, 6400)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            route(99_901, 100_000)
        with pytest.raises(ValueError):
            route(-1, 100_000)

    def test_coverage_every_window_stored_in_its_tile(self):
        rng = random.Random(2)
        genome = synth_genome(20_000, rng)
        tiles = partition(len(genome))
        for _ in range(300):
            p = rng.randint(0, len(genome) - 100)
            t, off = route(p, len(genome))
            tile = tiles[t]
            stored = genome[tile.start:tile.start + tile.length]
            assert stored[off:off + 100] == genome[p:p + 100]
            assert off + 100 <= TILE_SPAN


def looped_tile(genome, tile):
    """Reference: each stored base written cell by cell."""
    state = CrossbarState()
    for i in range(tile.length):
        a, b = encode_base(genome[tile.start + i])
        pair, row = divmod(i, FRAGMENT_ROWS)
        state.set_bits([(row, 2 * pair), (row, 2 * pair + 1)], [a, b])
    return snapshot(state)


class TestLoadTile:
    def test_cells_match_encoding(self, layout):
        rng = random.Random(3)
        genome = synth_genome(7000, rng)
        tile = partition(len(genome))[0]
        state = CrossbarState()
        load_tile(state, layout, genome, tile, 3, EVERY_PAIR)
        assert tile.length == TILE_SPAN
        assert (snapshot(state)[:FRAGMENT_ROWS] == looped_tile(genome, tile)[:FRAGMENT_ROWS]).all()
        assert state.read_value([(layout.lane_rows["A"], c) for c in layout.thr_cols]) == 6

    def test_short_final_tile_is_zero_padded(self, layout):
        genome = synth_genome(6400 + 3210, random.Random(4))
        tile = partition(len(genome))[-1]
        state = CrossbarState()
        ones = np.zeros((ROWS, COLS), np.uint8)
        ones[:FRAGMENT_ROWS, :layout.genome_cols] = 1  # padding must be written
        load_grid(state, ones)
        load_tile(state, layout, genome, tile, 3, EVERY_PAIR)
        assert tile.length == 3210
        assert (snapshot(state)[:FRAGMENT_ROWS] == looped_tile(genome, tile)[:FRAGMENT_ROWS]).all()

    @pytest.mark.parametrize("bad", ["N", "a", "\u00e9"])
    def test_invalid_base_is_named(self, layout, bad):
        genome = synth_genome(7000, random.Random(5))
        genome = genome[:4321] + bad + genome[4322:]
        with pytest.raises(ValueError, match=f"invalid base {bad!r}"):
            load_tile(CrossbarState(), layout, genome, partition(len(genome))[0], 3, EVERY_PAIR)


    def test_unlisted_fragments_stay_untouched(self, layout):
        genome = synth_genome(7000, random.Random(12))
        tile = partition(len(genome))[0]
        state = CrossbarState()
        load_grid(state, np.random.default_rng(12).integers(0, 2, size=(ROWS, COLS), dtype=np.uint8))
        before = snapshot(state)
        load_tile(state, layout, genome, tile, 3, [3, 17])
        after, want = snapshot(state), looped_tile(genome, tile)
        listed = [6, 7, 34, 35]
        assert (after[:FRAGMENT_ROWS, listed] == want[:FRAGMENT_ROWS, listed]).all()
        changed = after != before
        changed[:FRAGMENT_ROWS, listed] = False
        changed[layout.lane_rows["A"], list(layout.thr_cols)] = False
        assert not changed.any()

    def test_listed_fragments_of_a_short_final_tile_are_zero_padded(self, layout):
        # fragment 31 is full, 32 holds 10 bases and 40 none
        genome = synth_genome(6400 + 3210, random.Random(13))
        tile = partition(len(genome))[-1]
        state = CrossbarState()
        load_grid(state, np.ones((ROWS, COLS), np.uint8))
        load_tile(state, layout, genome, tile, 3, [31, 32, 40])
        cells, want = snapshot(state), looped_tile(genome, tile)
        listed = [62, 63, 64, 65, 80, 81]
        assert (cells[:FRAGMENT_ROWS, listed] == want[:FRAGMENT_ROWS, listed]).all()
        assert not cells[10:FRAGMENT_ROWS, 64:66].any() and not cells[:FRAGMENT_ROWS, 80:82].any()
        unlisted = [c for c in range(layout.genome_cols) if c not in listed]
        assert cells[:FRAGMENT_ROWS, unlisted].all()

    def test_invalid_base_in_a_fragment_no_window_reads(self, layout):
        # the bad base sits in fragment 50; the only window reads fragment 0
        genome = synth_genome(7000, random.Random(14))
        genome = genome[:5012] + "N" + genome[5013:]
        with pytest.raises(ValueError, match="invalid base 'N'"):
            load_tile(CrossbarState(), layout, genome, partition(len(genome))[0], 3, [0])
        with pytest.raises(ValueError, match="invalid base 'N'"):
            run_filter(genome, [CandidateRecord("r", genome[:100], 0)], eth=3)

    def test_a_non_ascii_letter_in_a_fragment_no_window_reads(self, layout):
        # "é" encodes to two bytes, so the tile's bytes are checked before
        # any listed fragment is sliced out of them
        genome = synth_genome(7000, random.Random(15))
        genome = genome[:5012] + "\u00e9" + genome[5013:]
        with pytest.raises(ValueError, match="^invalid base '\u00e9'$"):
            load_tile(CrossbarState(), layout, genome, partition(len(genome))[0], 3, [0])
        with pytest.raises(ValueError, match="^invalid base '\u00e9'$"):
            run_filter(genome, [CandidateRecord("r", genome[:100], 0)], eth=3)

    @pytest.mark.parametrize("genome_len,index", [(7000, 0), (TILE_STRIDE + 3210, -1), (2 * TILE_STRIDE + 150, -1)])
    def test_listed_pairs_match_the_cell_loop(self, layout, genome_len, index):
        # a whole tile, and short final tiles of 3210 and 150 bases, over
        # a random grid: the two columns of every listed pair, a partly
        # stored one and ones past the stored slice among them, hold on
        # rows 0-99 what looped_tile writes there, and every other cell
        # but the threshold's keeps what it held
        rng = random.Random(genome_len)
        genome = synth_genome(genome_len, rng)
        tile = partition(len(genome))[index]
        pairs = {*rng.sample(range(FRAGMENTS_PER_TILE), 20), 0, 32, 40, FRAGMENTS_PER_TILE - 1}
        state = CrossbarState()
        grid = np.random.default_rng(genome_len).integers(0, 2, size=(ROWS, COLS), dtype=np.uint8)
        load_grid(state, grid)
        load_tile(state, layout, genome, tile, 3, sorted(pairs))
        after, want = snapshot(state), looped_tile(genome, tile)
        listed = sorted(c for pair in pairs for c in (2 * pair, 2 * pair + 1))
        expected = grid.copy()
        expected[:FRAGMENT_ROWS, listed] = want[:FRAGMENT_ROWS, listed]
        expected[layout.lane_rows["A"], list(layout.thr_cols)] = [(6 >> i) & 1 for i in range(len(layout.thr_cols))]
        assert (after == expected).all()


class TestSchedule:
    def test_uniform_queues_no_overflow(self):
        processed, report = schedule([3] * 10, iter_factor=5)
        assert processed == [3] * 10
        assert report.overflow == 0
        assert report.iter_cap == 15

    def test_skewed_queue_overflows(self):
        lengths = [100] + [0] * 9
        processed, report = schedule(lengths, iter_factor=5)
        assert report.iter_cap == 50
        assert processed[0] == 50
        assert report.overflow == 50

    def test_active_limit_doubles_waves(self):
        lengths = [4] * 10
        _, unlimited = schedule(lengths, iter_factor=None)
        _, halved = schedule(lengths, iter_factor=None, active_limit=5)
        assert halved.waves == 2 * unlimited.waves

    def test_processed_plus_overflow_is_total(self):
        rng = random.Random(4)
        lengths = [rng.randint(0, 20) for _ in range(30)]
        processed, report = schedule(lengths, iter_factor=2)
        assert sum(processed) + report.overflow == sum(lengths)

    def test_cap_disabled(self):
        processed, report = schedule([100, 0, 0], iter_factor=None)
        assert report.overflow == 0

    def test_zero_factor_disables_cap(self):
        assert schedule([3, 1], iter_factor=0) == schedule([3, 1], iter_factor=None)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_an_active_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="^active limit must be >= 1$"):
            schedule([1, 2], active_limit=limit)

    def test_negative_or_infinite_factor_rejected(self):
        # a negative cap never drains a queue and an infinite one cannot
        # be rounded; empty queues keep this test from hanging if the
        # check is missing
        for factor in (-1, math.inf):
            with pytest.raises(ValueError, match="iter_factor"):
                schedule([0, 0], iter_factor=factor)


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(0, 12) | st.just(0), min_size=1, max_size=40),
       factor=st.sampled_from((None, 0, 0.5, 1, 2, 5)), limit=st.none() | st.integers(1, 6))
def test_nonempty_queues_schedule_like_every_tile(lengths, factor, limit):
    # run_filter lists only the queues that got a candidate, with the tile
    # count (a genome has at least one tile): the same processed counts,
    # per non-empty queue, and report as the list of every tile's queue,
    # empty ones included
    processed, report = schedule(lengths, factor, limit)
    nonempty = [q for q in lengths if q]
    assert schedule(nonempty, factor, limit, tiles=len(lengths)) == \
        ([done for done, q in zip(processed, lengths) if q], report)


@pytest.fixture(scope="module")
def small_run():
    fixture = synth_fixture(genome_len=15_000, reads=12, decoys_per_read=2,
                            max_edits=2, seed=21)
    run = run_filter(fixture.genome, fixture.candidates, eth=4,
                     verify_oracle=True)
    return fixture, run


class TestRunFilter:
    def test_decisions_match_oracle(self, small_run):
        _, run = small_run
        assert run.stats.oracle_mismatches == 0

    def test_exact_window_candidates_never_discarded(self):
        rng = random.Random(6)
        genome = synth_genome(14_000, rng)
        candidates = []
        for i in range(25):
            pos = rng.randint(0, len(genome) - 100)
            candidates.append(CandidateRecord(f"w{i}", genome[pos:pos + 100], pos))
        run = run_filter(genome, candidates, eth=0)
        assert all(d.verdict == "keep" for d in run.decisions)

    def test_transferred_bytes_counter(self, small_run):
        _, run = small_run
        assert run.stats.bytes_transferred == 13 * run.stats.processed

    def test_decision_order_is_tile_then_queue(self, small_run):
        fixture, run = small_run
        glen = len(fixture.genome)
        keys = [route(d.position, glen)[0] for d in run.decisions]
        assert keys == sorted(keys)

    def test_overflow_locations_pass_through(self):
        rng = random.Random(7)
        genome = synth_genome(13_000, rng)
        pos = 30
        cands = [CandidateRecord(f"r{i}", synth_genome(100, rng), pos + i)
                 for i in range(40)]
        run = run_filter(genome, cands, eth=0, iter_factor=0.5)
        passthrough = [d for d in run.decisions if d.verdict == "passthrough"]
        assert passthrough and len(passthrough) == run.stats.passthrough
        assert run.report.overflow == len(passthrough)
        assert not any(d.verdict == "discard" for d in passthrough)

    def test_a_wrong_kernel_decision_is_an_oracle_mismatch(self, monkeypatch, tmp_path, capsys):
        # the lanes decide the first location of each pass wrongly; 10
        # candidates over 2 tiles, none capped, are one pass. With the
        # oracle check on, the run counts one mismatch, and the command
        # writes its results but fails
        assert main(["synth", "--out-dir", str(tmp_path), "--genome-len", "13000", "--reads", "5",
                     "--decoys", "1", "--edits", "2", "--seed", "4"]) == 0
        with open(tmp_path / "genome.fa") as fh:
            genome = parse_fasta(fh).seq
        with open(tmp_path / "candidates.tsv") as fh:
            candidates = parse_candidates(fh)
        args = ["filter", "--genome", str(tmp_path / "genome.fa"), "--candidates", str(tmp_path / "candidates.tsv"),
                "--eth", "4", "--out", str(tmp_path / "results.tsv"), "--verify-oracle"]
        real = crossbar.Lanes.run

        def flipped(self, values, readouts):
            real(self, values, readouts)
            readouts[0][-1] ^= 1

        for flip, mismatches in ((False, 0), (True, 1)):
            if flip:
                monkeypatch.setattr(crossbar.Lanes, "run", flipped)
            run = run_filter(genome, candidates, eth=4, verify_oracle=True)
            assert (run.stats.processed, run.stats.oracle_mismatches) == (10, mismatches)
            assert run_filter(genome, candidates, eth=4).stats.oracle_mismatches is None
            assert main(args) == mismatches
            assert capsys.readouterr().err == ("error: 1 oracle mismatches\n" if flip else "")
            assert f"# oracle_mismatches {mismatches}\n" in (tmp_path / "results.tsv").read_text()

    def test_only_decided_reads_get_a_histogram(self, monkeypatch):
        # a capped run: the hot tile takes 12 of its 30 reads, and 18 of
        # the 36 pass through. Decisions and stats are pinned; only the 18
        # reads the kernel decides get a histogram, yet a non-base in a
        # passthrough read still raises, naming it
        rng = random.Random(31)
        genome = synth_genome(3 * TILE_STRIDE + 100, rng)
        cands = [CandidateRecord(f"h{i}", synth_genome(100, rng), 50 + 7 * i) for i in range(30)]
        cands += [CandidateRecord(f"c{i}", synth_genome(100, rng), rng.randrange(TILE_STRIDE, len(genome) - 100))
                  for i in range(6)]
        run = run_filter(genome, cands, eth=5, iter_factor=1, verify_oracle=True)
        assert (run.stats.processed, run.stats.passthrough) == (18, 18)
        digest = hashlib.sha256(repr((run.decisions, run.stats)).encode()).hexdigest()
        assert digest == "00da5a131124b0644d02ae07e526cfcbf8026f286f2baefa3807243499beed1a"

        reads = []
        real = oracle.histogram
        monkeypatch.setattr(oracle, "histogram", lambda seq: reads.append(seq) or real(seq))
        assert run_filter(genome, cands, eth=5, iter_factor=1).decisions == run.decisions
        decided = {d.read_id for d in run.decisions if d.verdict != "passthrough"}
        assert sorted(reads) == sorted(c.seq for c in cands if c.read_id in decided)

        passthrough = next(i for i, c in enumerate(cands) if c.read_id == "h29")
        assert run.decisions[passthrough].verdict == "passthrough"
        bad = list(cands)
        seq = cands[passthrough].seq
        bad[passthrough] = CandidateRecord("h29", seq[:40] + "N" + seq[41:], cands[passthrough].position)
        with pytest.raises(ValueError, match="^invalid base 'N' at position 40$"):
            run_filter(genome, bad, eth=5, iter_factor=1)

    @pytest.mark.parametrize("iter_factor", [0.1, None])
    def test_a_read_of_another_length_raises_naming_it(self, iter_factor):
        # capped, the short read would pass through; uncapped, the kernel
        # would reach it. Either way it raises when it is routed, before
        # any location runs
        rng = random.Random(5)
        genome = synth_genome(TILE_STRIDE + 100, rng)
        good = synth_genome(100, rng)
        cands = [CandidateRecord(f"r{i}", good, 10 * i) for i in range(3)] + [CandidateRecord("b", "ACGT", 5)]
        with pytest.raises(ValueError, match="^read 'b' has 4 bases, not the read length 100$"):
            run_filter(genome, cands, 3, iter_factor=iter_factor)
        run = run_filter(genome, cands[:3], 3, iter_factor=iter_factor)
        assert (run.stats.processed, run.stats.passthrough) == ((1, 2) if iter_factor else (3, 0))

    def test_zero_factor_runs_uncapped(self):
        rng = random.Random(9)
        genome = synth_genome(6_600, rng)
        cands = [CandidateRecord(f"r{i}", synth_genome(100, rng), 40 + i) for i in range(3)]
        run = run_filter(genome, cands, eth=1, iter_factor=0)
        assert run.stats.passthrough == 0
        assert run.decisions == run_filter(genome, cands, eth=1, iter_factor=None).decisions

    def test_determinism(self):
        fixture = synth_fixture(genome_len=13_000, reads=6, decoys_per_read=1, seed=8)
        a = run_filter(fixture.genome, fixture.candidates, eth=3)
        b = run_filter(fixture.genome, fixture.candidates, eth=3)
        assert [(d.read_id, d.position, d.verdict) for d in a.decisions] == \
               [(d.read_id, d.position, d.verdict) for d in b.decisions]
        assert a.stats == b.stats

    def test_cycle_totals_accumulate(self, small_run):
        _, run = small_run
        assert run.stats.compute_cycles > 0
        assert run.stats.compute_cycles <= 2050 * run.stats.processed
        assert run.stats.init_cycles > 0

    @pytest.mark.parametrize("read_length,genome_len", [
        (100, 2 * TILE_STRIDE + 3210),
        (64, 2 * TILE_STRIDE + 64),
        (37, 2 * TILE_STRIDE + 37),
        (1, 2 * TILE_STRIDE + 1),
    ])
    def test_fragment_only_loads_match_whole_tile_loads(self, monkeypatch, read_length, genome_len):
        # windows at offset 0, at 6300-6400 and at row phases that spill
        # into the next fragment, in every tile; the final tile is short
        # and, at every read length but 100, holds the window at offset
        # 6400. Decisions, stats and trace must equal those of a run that
        # stores every fragment of each tile
        rng = random.Random(read_length)
        genome = synth_genome(genome_len, rng)
        spill = range(FRAGMENT_ROWS - read_length + 1, FRAGMENT_ROWS)
        positions = set()
        for tile in partition(genome_len, read_length):
            offsets = [0, *range(6300, TILE_STRIDE + 1, 10),
                       *(FRAGMENT_ROWS * rng.randrange(64) + r0 for r0 in rng.sample(spill, min(8, len(spill))))]
            positions |= {tile.start + off for off in offsets if tile.start + off + read_length <= genome_len}
        cands = [CandidateRecord(f"r{p}", mutate_read(genome[p:p + read_length], 4, rng), p)
                 for p in sorted(positions)]

        def run():
            trace = []
            res = run_filter(genome, cands, eth=read_length // 40, read_length=read_length,
                             verify_oracle=True, trace=trace.append)
            return res.decisions, res.stats, trace

        fragments = run()
        real = genome_mod.load_tile
        monkeypatch.setattr(genome_mod, "load_tile",
                            lambda *args: real(*args[:5], range(FRAGMENTS_PER_TILE)))
        assert fragments == run()
        assert fragments[1].oracle_mismatches == 0
        assert {d.verdict for d in fragments[0]} == {"keep", "discard"}

    @pytest.mark.parametrize("read_length", [100, 64, 37, 1])
    def test_a_call_past_the_batch_cap_runs_like_one_location_at_a_time(self, monkeypatch, read_length):
        # 400 locations over 3 tiles, none capped, four at each row phase
        # (so, but at read length 1, windows that span two fragments too):
        # the batch runs itself at its cap of 256 and again after the last
        # tile for the other 144, each pass spanning the tiles and mixing
        # the phases. The
        # decisions, stats and every tile's grid, replayed when it is
        # read, must be those of the same call with each location run
        # alone, as its interpreted program
        rng = random.Random(300 + read_length)
        genome = synth_genome(3 * TILE_STRIDE + FRAGMENT_ROWS, rng)
        cands = []
        for i in range(400):
            p = TILE_STRIDE * rng.randrange(3) + FRAGMENT_ROWS * rng.randrange(64) + i % FRAGMENT_ROWS
            read = list(genome[p:p + read_length])
            for _ in range(rng.randrange(3) if i % 2 else read_length):
                read[rng.randrange(read_length)] = rng.choice("ACGT")
            cands.append(CandidateRecord(f"r{i}", "".join(read), p))

        def run():
            states, sizes = [], []
            monkeypatch.setattr(genome_mod, "CrossbarState", lambda: states.append(CrossbarState()) or states[-1])
            real = kernel.Batch.run
            monkeypatch.setattr(kernel.Batch, "run", lambda self: sizes.append(len(self.entries)) or real(self))
            res = run_filter(genome, cands, eth=read_length // 40, read_length=read_length, iter_factor=0,
                             verify_oracle=True)
            return res.decisions, res.stats, [state.cols for state in states], [n for n in sizes if n]

        def alone(state, layout, counts, offset, strict=True, trace=None, batch=None):
            return execute(build_program(layout, offset, counts), state, strict=strict, trace=trace)

        batched = run()
        monkeypatch.setattr(genome_mod, "run_kernel", alone)
        one_by_one = run()
        assert batched[:3] == one_by_one[:3]
        assert batched[3] == [kernel._BATCH, 400 - kernel._BATCH] and one_by_one[3] == []
        assert len(batched[2]) == 3 and batched[1].oracle_mismatches == 0
        assert {d.verdict for d in batched[0]} == {"keep", "discard"}

    @pytest.mark.parametrize("eth,read_length", [(-3, 100), (101, 100), (500, 100), (65, 64), (2, 1)])
    def test_an_edit_threshold_out_of_range_raises_before_any_tile_loads(self, monkeypatch, eth, read_length):
        # with no candidate no tile is loaded, and in a capped call most
        # candidates pass through: the threshold is checked at entry
        # either way, with store_threshold's message
        loads = []
        monkeypatch.setattr(genome_mod, "load_tile", lambda *args: loads.append(args))
        rng = random.Random(3)
        genome = synth_genome(3 * TILE_STRIDE + 100, rng)
        capped = [CandidateRecord(f"r{i}", synth_genome(read_length, rng), 50 + i) for i in range(30)]
        for candidates in ([], capped):
            with pytest.raises(ValueError, match="^edit threshold out of range$"):
                run_filter(genome, candidates, eth=eth, read_length=read_length, iter_factor=1e-9)
        with pytest.raises(ValueError, match="^edit threshold out of range$"):
            run_filter("ACGT" * 100, [], eth=eth, read_length=read_length)
        assert loads == []

    def test_a_call_with_no_candidate_decides_nothing(self):
        run = run_filter("ACGT" * 100, [], eth=4, verify_oracle=True)
        assert run.decisions == [] and run.stats == genome_mod.FilterStats(oracle_mismatches=0)
        assert (run.report.processed, run.report.overflow, run.report.waves) == (0, 0, 0)

    def test_a_capped_call_that_passes_most_candidates_through(self):
        # a cap of one location per tile: one kernel run, the rest pass
        # through, on any threshold in range
        rng = random.Random(4)
        genome = synth_genome(TILE_STRIDE + 100, rng)
        cands = [CandidateRecord(f"r{i}", synth_genome(100, rng), 10 * i) for i in range(20)]
        for eth in (0, 100):
            run = run_filter(genome, cands, eth=eth, iter_factor=1e-9, verify_oracle=True)
            assert [d.verdict for d in run.decisions[1:]] == ["passthrough"] * 19
            assert (run.stats.processed, run.stats.passthrough, run.stats.oracle_mismatches) == (1, 19, 0)
            assert run.decisions[0].verdict == ("keep" if eth == 100 else "discard")

    def test_unroutable_candidate_rejected(self):
        genome = "A" * 200
        with pytest.raises(ValueError):
            run_filter(genome, [CandidateRecord("r", "A" * 100, 150)], eth=0)

import math
import random

import pytest

from pimfilter import oracle
from pimfilter.crossbar import CrossbarState
from pimfilter.genome import (
    load_tile,
    partition,
    route,
    run_filter,
    schedule,
    tile_count,
)
from pimfilter.io import CandidateRecord, synth_fixture, synth_genome
from pimfilter.kernel import FRAGMENT_ROWS, TILE_SPAN, TILE_STRIDE, encode_base


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
    cells = CrossbarState().cells
    for i in range(tile.length):
        a, b = encode_base(genome[tile.start + i])
        pair, row = divmod(i, FRAGMENT_ROWS)
        cells[row, 2 * pair] = a
        cells[row, 2 * pair + 1] = b
    return cells


class TestLoadTile:
    def test_cells_match_encoding(self, layout):
        rng = random.Random(3)
        genome = synth_genome(7000, rng)
        tile = partition(len(genome))[0]
        state = CrossbarState()
        load_tile(state, layout, genome, tile, 3)
        assert tile.length == TILE_SPAN
        assert (state.cells[:FRAGMENT_ROWS] == looped_tile(genome, tile)[:FRAGMENT_ROWS]).all()
        assert state.read_value([(layout.lane_rows["A"], c) for c in layout.thr_cols]) == 6

    def test_short_final_tile_is_zero_padded(self, layout):
        genome = synth_genome(6400 + 3210, random.Random(4))
        tile = partition(len(genome))[-1]
        state = CrossbarState()
        state.cells[:FRAGMENT_ROWS, :layout.genome_cols] = 1  # padding must be written
        load_tile(state, layout, genome, tile, 3)
        assert tile.length == 3210
        assert (state.cells[:FRAGMENT_ROWS] == looped_tile(genome, tile)[:FRAGMENT_ROWS]).all()

    @pytest.mark.parametrize("bad", ["N", "a", "\u00e9"])
    def test_invalid_base_is_named(self, layout, bad):
        genome = synth_genome(7000, random.Random(5))
        genome = genome[:4321] + bad + genome[4322:]
        with pytest.raises(ValueError, match=f"invalid base {bad!r}"):
            load_tile(CrossbarState(), layout, genome, partition(len(genome))[0], 3)


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

    def test_negative_or_infinite_factor_rejected(self):
        # a negative cap never drains a queue and an infinite one cannot
        # be rounded; empty queues keep this test from hanging if the
        # check is missing
        for factor in (-1, math.inf):
            with pytest.raises(ValueError, match="iter_factor"):
                schedule([0, 0], iter_factor=factor)


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

    def test_unroutable_candidate_rejected(self):
        genome = "A" * 200
        with pytest.raises(ValueError):
            run_filter(genome, [CandidateRecord("r", "A" * 100, 150)], eth=0)

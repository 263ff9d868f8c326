"""Partitioning a reference genome over crossbars and running the filter.

Tiles advance by 6400 bases and store 6500, so the first and last
fragments of neighboring tiles overlap and every read-sized window lies
fully inside exactly one tile. Candidate locations are routed to their
tile, capped per tile by an iteration budget, and checked one per tile
per wave; locations past the cap pass through unfiltered so the cap can
never lose a true location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import oracle
from .crossbar import CrossbarState
from .kernel import (
    BASE_CODES,
    Batch,
    FRAGMENT_ROWS,
    TILE_SPAN,
    TILE_STRIDE,
    encode_base,
    plan_layout,
    run_kernel,
    store_threshold,
)

BYTES_PER_LOCATION = 13  # 60 bits in, 33 bits out, rounded up per direction

_BASES = "".join(BASE_CODES).encode()
# translate each base to its first, then its second code bit, as a digit
_BITS = tuple(bytes.maketrans(_BASES, "".join(str(code[i]) for code in BASE_CODES.values()).encode()) for i in (0, 1))
_ABOVE_SLICE = -1 << FRAGMENT_ROWS  # rows past the genome slice, kept by load_tile


@dataclass(frozen=True)
class Tile:
    """One crossbar's slice of the reference."""

    index: int
    start: int
    length: int  # stored bases; the final tile may be short (zero padded)


def tile_count(genome_length, read_length=100):
    if genome_length < read_length:
        raise ValueError("genome shorter than one read")
    return max(1, -(-(genome_length - read_length) // TILE_STRIDE))


def partition(genome_length, read_length=100):
    """Tiles with stride 6400 and span 6500 covering every window."""
    return [_tile(i, genome_length) for i in range(tile_count(genome_length, read_length))]


def _tile(index, genome_length):
    start = index * TILE_STRIDE
    return Tile(index, start, min(TILE_SPAN, genome_length - start))


def route(position, genome_length, read_length=100):
    """Tile index and in-tile offset hosting the window at `position`.

    Interior tiles receive offsets in [0, 6400); when the last valid
    window starts exactly at a stride boundary it lands in the final
    tile's 65th fragment at offset 6400.
    """
    if position < 0 or position + read_length > genome_length:
        raise ValueError(f"position {position} out of range")
    n = tile_count(genome_length, read_length)
    tile = min(position // TILE_STRIDE, n - 1)
    offset = position - tile * TILE_STRIDE
    return tile, offset


def load_tile(state, layout, genome, tile, eth, pairs):
    """Pre-store the fragment pairs `pairs` of one tile and the threshold
    constant in an array.

    Base i of the tile is the bit pair in row i % 100, columns
    2 * (i // 100) and the next one; a short final tile is zero padded.
    A location reads only its window's fragments (window_row_ranges), so
    a caller lists the ones its windows read and the other columns keep
    what they held. The tile's slice is encoded to bytes once: they serve
    the check of every base of the tile, listed or not (a non-base raises
    ValueError), and one translate of each listed column to bit digits.
    A listed column's rows past the slice keep what they held.
    """
    seq = genome[tile.start:tile.start + tile.length]
    data = seq.encode()  # one byte a base, once the check has passed
    if data.translate(None, _BASES):
        encode_base(next(b for b in seq if b not in BASE_CODES))
    cols = state.cols
    for pair in pairs:
        rows = data[pair * FRAGMENT_ROWS:(pair + 1) * FRAGMENT_ROWS][::-1]  # int(, 2) reads row 0 last
        for c, bits in enumerate(_BITS, 2 * pair):
            cols[c] = cols[c] & _ABOVE_SLICE | int(b"0" + rows.translate(bits), 2)
    store_threshold(state, layout, eth)


@dataclass
class ScheduleReport:
    """How the per-tile iteration cap and the active-array limit played out."""

    waves: int
    processed: int
    overflow: int
    iter_cap: int
    active_limit: int


def schedule(queue_lengths, iter_factor=5, active_limit=None, tiles=None):
    """Per-tile processed counts under the iteration cap, plus the report.

    The cap is iter_factor times the mean queue length over all `tiles`
    tiles (empty ones included; None counts one per queue length); None
    or 0 disables it. Each wave activates at most `active_limit` tiles in
    ascending index order, one location each; whatever a tile still holds
    past its cap is overflow, passed through unfiltered. An empty queue
    takes no part in a wave, so a caller may list only the non-empty
    queues, in ascending tile order, and pass the tile count as `tiles`.
    """
    n = len(queue_lengths) if tiles is None else tiles
    total = sum(queue_lengths)
    if iter_factor is not None and not 0 <= iter_factor < math.inf:
        raise ValueError("iter_factor must be a finite number >= 0")
    if not iter_factor:
        cap = total
    else:
        cap = math.ceil(iter_factor * total / n) if n else 0
    processed = [min(q, cap) for q in queue_lengths]
    done = sum(processed)

    limit = n if active_limit is None else active_limit
    if limit < 1:
        raise ValueError("active limit must be >= 1")
    waves = 0
    remaining = list(processed)
    pending = [i for i, q in enumerate(remaining) if q]
    while pending:
        for i in pending[:limit]:
            remaining[i] -= 1
        pending = [i for i in pending if remaining[i]]
        waves += 1
    return processed, ScheduleReport(waves, done, total - done, cap, limit)


@dataclass
class FilterStats:
    queued: int = 0
    processed: int = 0
    passthrough: int = 0
    discarded: int = 0
    kept: int = 0
    discard_rate: float = 0.0
    passthrough_rate: float = 0.0
    compute_cycles: int = 0
    init_cycles: int = 0
    bytes_transferred: int = 0
    waves: int = 0
    oracle_mismatches: int | None = None


@dataclass(slots=True)
class Decision:
    read_id: str
    position: int
    verdict: str  # keep | discard | passthrough


@dataclass
class FilterRun:
    decisions: list
    stats: FilterStats
    report: ScheduleReport


def run_filter(genome, candidates, eth, read_length=100, iter_factor=5,
               active_limit=None, strict=True, verify_oracle=False,
               trace=None):
    """Simulate the whole filter over a genome and its candidate list.

    Decisions come back in (tile index, queue order); every non-overflow
    location is decided by the in-crossbar kernel, overflow locations are
    marked passthrough. The kernel's locations are queued on one batch
    (Batch), across tiles, each location a lane of one pass of every
    step (four lanes a location for the popcount tree's first two levels,
    one from there: crossbar.Lanes); the batch runs itself when it
    fills and once more after the last tile, and no tile's grid is
    written. The verdicts are then read off the readouts, and with
    `verify_oracle` each is also checked against the golden model in the
    same loop and mismatches are counted. An edit threshold
    outside 0..read_length, or a read of another length or holding a
    non-base, passthrough or not, raises ValueError when the candidate
    is routed; only the reads the kernel decides get a histogram.
    """
    layout = plan_layout(read_length)
    if not 0 <= eth <= read_length:
        raise ValueError("edit threshold out of range")
    glen = len(genome)
    queues = {}  # only the tiles that get a candidate
    for cand in candidates:
        t, off = route(cand.position, glen, read_length)
        if len(cand.seq) != read_length:
            raise ValueError(f"read {cand.read_id!r} has {len(cand.seq)} bases, not the read length {read_length}")
        if cand.seq.encode().translate(None, _BASES):
            oracle.histogram(cand.seq)  # raises, naming the first non-base
        queues.setdefault(t, []).append((cand, off))
    busy = sorted(queues)
    processed, report = schedule([len(queues[t]) for t in busy], iter_factor, active_limit,
                                 tiles=tile_count(glen, read_length))

    compute = init = done_total = 0
    decisions, runs = [], []  # each kernel run, its readout filled once the batch has run
    spill = FRAGMENT_ROWS - read_length  # a window from a later row reads the next pair too
    batch = Batch()
    for t, done in zip(busy, processed):
        queue = queues[t]
        pairs = set()
        for _, off in queue[:done]:
            pair, r0 = divmod(off, FRAGMENT_ROWS)
            pairs.add(pair)
            if r0 > spill:
                pairs.add(pair + 1)
        state = CrossbarState()
        load_tile(state, layout, genome, _tile(t, glen), eth, pairs)
        for cand, off in queue[:done]:
            decision = Decision(cand.read_id, cand.position, "passthrough")
            decisions.append(decision)
            counts = oracle.histogram(cand.seq)
            res = run_kernel(state, layout, counts, off, strict=strict, trace=trace, batch=batch)
            compute += res.compute_cycles
            init += res.init_cycles
            runs.append((decision, counts, res))
        for cand, _ in queue[done:]:
            decisions.append(Decision(cand.read_id, cand.position, "passthrough"))
        done_total += done
    batch.run()

    discarded = mismatches = 0
    for decision, counts, res in runs:
        discard = res.readout[0]
        decision.verdict = "discard" if discard else "keep"
        discarded += discard
        if verify_oracle and oracle.decide(counts, genome, eth, decision.position, read_length) != discard:
            mismatches += 1

    queued = len(candidates)
    stats = FilterStats(queued=queued, processed=done_total, passthrough=queued - done_total,
                        discarded=discarded, kept=done_total - discarded,
                        compute_cycles=compute, init_cycles=init, waves=report.waves,
                        bytes_transferred=BYTES_PER_LOCATION * done_total,
                        oracle_mismatches=mismatches if verify_oracle else None)
    if done_total:
        stats.discard_rate = discarded / done_total
    if queued:
        stats.passthrough_rate = stats.passthrough / queued
    return FilterRun(decisions, stats, report)

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

import numpy as np

from . import oracle
from .crossbar import CrossbarState
from .kernel import (
    BASE_CODES,
    FRAGMENT_ROWS,
    TILE_SPAN,
    TILE_STRIDE,
    encode_base,
    plan_layout,
    run_kernel,
    store_threshold,
)

BYTES_PER_LOCATION = 13  # 60 bits in, 33 bits out, rounded up per direction

# Two-bit code of each byte value, first bit high; 4 marks a non-base.
_CODES = np.full(256, 4, np.uint8)
_CODES[[ord(b) for b in BASE_CODES]] = [2 * a + b for a, b in BASE_CODES.values()]


@dataclass(frozen=True)
class Tile:
    """One crossbar's slice of the reference."""

    index: int
    start: int
    length: int  # stored bases; the final tile may be short (zero padded)


def tile_count(genome_length, read_length=100):
    if genome_length < read_length:
        raise ValueError("genome shorter than one read")
    return max(1, math.ceil((genome_length - read_length) / TILE_STRIDE))


def partition(genome_length, read_length=100):
    """Tiles with stride 6400 and span 6500 covering every window."""
    n = tile_count(genome_length, read_length)
    return [
        Tile(i, i * TILE_STRIDE, min(TILE_SPAN, genome_length - i * TILE_STRIDE))
        for i in range(n)
    ]


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


def load_tile(state, layout, genome, tile, eth):
    """Pre-store one tile's bases and the threshold constant in an array.

    Base i of the tile is the bit pair in row i % 100, columns
    2 * (i // 100) and the next one; a short final tile is zero padded.
    """
    seq = genome[tile.start:tile.start + tile.length]
    codes = _CODES[np.frombuffer(seq.encode(), np.uint8)]
    if (codes > 3).any():
        encode_base(next(b for b in seq if b not in BASE_CODES))
    pairs = np.zeros((TILE_SPAN, 2), np.uint8)
    pairs[:tile.length] = codes[:, None] >> np.array((1, 0), np.uint8) & 1
    state.cells[:FRAGMENT_ROWS, :layout.genome_cols] = \
        pairs.reshape(-1, FRAGMENT_ROWS, 2).transpose(1, 0, 2).reshape(FRAGMENT_ROWS, -1)
    store_threshold(state, layout, eth)


@dataclass
class ScheduleReport:
    """How the per-tile iteration cap and the active-array limit played out."""

    waves: int
    processed: int
    overflow: int
    iter_cap: int
    active_limit: int


def schedule(queue_lengths, iter_factor=5, active_limit=None):
    """Per-tile processed counts under the iteration cap, plus the report.

    The cap is iter_factor times the mean queue length over all tiles
    (empty ones included); None or 0 disables it. Each wave activates at most
    `active_limit` tiles in ascending index order, one location each;
    whatever a tile still holds past its cap is overflow, passed through
    unfiltered.
    """
    n = len(queue_lengths)
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
    pending = [i for i in range(n) if remaining[i]]
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


@dataclass
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
    marked passthrough. With `verify_oracle` each kernel decision is also
    checked against the golden model and mismatches are counted.
    """
    layout = plan_layout(read_length)
    glen = len(genome)
    tiles = partition(glen, read_length)
    queues = [[] for _ in tiles]
    for cand in candidates:
        t, off = route(cand.position, glen, read_length)
        queues[t].append((cand, off, oracle.histogram(cand.seq)))

    processed, report = schedule([len(q) for q in queues], iter_factor, active_limit)

    stats = FilterStats(queued=len(candidates))
    if verify_oracle:
        stats.oracle_mismatches = 0
    decisions = []
    for tile in tiles:
        queue = queues[tile.index]
        if not queue:
            continue
        state = CrossbarState()
        load_tile(state, layout, genome, tile, eth)
        for j, (cand, off, counts) in enumerate(queue):
            if j < processed[tile.index]:
                res = run_kernel(state, layout, counts, off, strict=strict, trace=trace)
                verdict = "discard" if res.discard else "keep"
                stats.processed += 1
                stats.discarded += res.discard
                stats.kept += 1 - res.discard
                stats.compute_cycles += res.compute_cycles
                stats.init_cycles += res.init_cycles
                if verify_oracle:
                    window = genome[cand.position:cand.position + read_length]
                    if oracle.decide(counts, window, eth) != res.discard:
                        stats.oracle_mismatches += 1
            else:
                verdict = "passthrough"
                stats.passthrough += 1
            decisions.append(Decision(cand.read_id, cand.position, verdict))

    stats.waves = report.waves
    stats.bytes_transferred = BYTES_PER_LOCATION * stats.processed
    if stats.processed:
        stats.discard_rate = stats.discarded / stats.processed
    if stats.queued:
        stats.passthrough_rate = stats.passthrough / stats.queued
    return FilterRun(decisions, stats, report)

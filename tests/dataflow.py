"""Live-in cells and step ranges of a program, for tests."""

import functools
from itertools import chain

from pimfilter.crossbar import COLS, _count, _dataflow


@functools.cache
def block_flow(block):
    """(live, written) of a Block's ops (_dataflow), once per block."""
    return _dataflow(block.ops)[1:]


def live_rows(program):
    """Lower `program` and list, per column, the rows it reads before it
    writes them: the head's live-in rows, then each block's, less the rows
    written before the block."""
    _count(program.head)
    _, live, written = _dataflow([op for _, ops in program.head for op in ops])
    for block in program.blocks:
        block_live, block_written = block_flow(block)
        for k in range(COLS):
            live[k] |= block_live[k] & ~written[k]
            written[k] |= block_written[k]
    return live


def live_cells(program):
    """Lower `program` and list the (row, col) cells it reads before it
    writes them: a gate's inputs and output, and a ReadCell's cell."""
    return {(r, k) for k, rows in enumerate(live_rows(program))
            for r in range(rows.bit_length()) if rows >> r & 1}


def annotations(program):
    """(label, start, end) ranges of program.ops, one per step: the head's
    steps, then each block's."""
    ranges, at = [], 0
    for label, ops in chain(program.head, *(block.steps for block in program.blocks)):
        ranges.append((label, at, at + len(ops)))
        at += len(ops)
    return tuple(ranges)

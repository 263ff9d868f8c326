"""Live-in cells and step ranges of a program, for tests."""

from itertools import chain

from pimfilter.crossbar import _dataflow, _lower_program


def live_cells(program):
    """Lower `program` and list the (row, col) cells it reads before it
    writes them: a gate's inputs and output, and a ReadCell's cell."""
    _lower_program(program)
    live = _dataflow(program.ops)[1]
    return {(r, k) for k, rows in enumerate(live) for r in range(rows.bit_length()) if rows >> r & 1}


def annotations(program):
    """(label, start, end) ranges of program.ops, one per step: the head's
    steps, then each block's."""
    ranges, at = [], 0
    for label, ops in chain(program.head, *(block.steps for block in program.blocks)):
        ranges.append((label, at, at + len(ops)))
        at += len(ops)
    return tuple(ranges)

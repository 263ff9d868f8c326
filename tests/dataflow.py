"""Live-in cells of a program, from crossbar's one dataflow pass."""

from pimfilter.crossbar import ROWS, _dataflow, _lower_program


def live_cells(program):
    """Lower `program` and list the (row, col) cells it reads before it
    writes them: a gate's inputs and output, and a ReadCell's cell."""
    _lower_program(program)
    live = _dataflow(program.ops)[1]
    return {(r, k) for k, rows in enumerate(live) for r in range(ROWS) if rows >> r & 1}

"""A crossbar's packed grid as a numpy array of cells, for tests."""

import numpy as np

from pimfilter.crossbar import COLS, ROWS

_COL_BYTES = ROWS // 8  # one packed grid column


def snapshot(state):
    """A read-only ROWS x COLS numpy snapshot of the cells of `state`."""
    packed = np.frombuffer(b"".join(v.to_bytes(_COL_BYTES, "little") for v in state.cols), np.uint8)
    cells = np.unpackbits(packed, bitorder="little").reshape(COLS, ROWS).T
    cells.flags.writeable = False
    return cells


def load_grid(state, grid):
    """Load a ROWS x COLS grid of 0s and 1s into the whole array of `state`."""
    grid = np.asarray(grid)
    if grid.shape != (ROWS, COLS) or ((grid != 0) & (grid != 1)).any():
        raise ValueError(f"a grid must be {ROWS}x{COLS} cells of 0 or 1")
    packed = np.packbits(grid.T.astype(np.uint8), axis=1, bitorder="little").tobytes()
    state.cols[:] = [int.from_bytes(packed[i:i + _COL_BYTES], "little")
                     for i in range(0, len(packed), _COL_BYTES)]

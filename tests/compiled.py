"""Lowered ops compiled into one function over lanes, for tests."""

import re

from pimfilter.crossbar import COLS, ROWS, _dataflow, _Source


def compiled(ops, lanes=1, known=None):
    """f(g, append) running lowered ops over `lanes` lanes of whole
    columns (crossbar._Source), with the columns of `known` compiled as
    the values it maps them to."""
    src = _Source(lanes, known)
    src.ops(ops)
    namespace = {}
    exec(compile(src.source(), "<compiled ops>", "exec"), namespace)
    return namespace["f"]


def grid_io(block):
    """The code of a block, which holds no `~`, as its loads {column: the
    expression read from g[column]} and its stores {column: line}: at most
    one of each per column, loads only of live-in columns and stores for
    exactly the written columns."""
    src = block._source()
    assert "~" not in src
    lines = [line.strip() for line in src.splitlines()[1:]]
    loads = [re.fullmatch(r"c(\d+) = (g\[\1\].*)", line).groups()
             for line in lines if re.match(r"c\d+ = g\[", line)]
    stores = [(int(re.match(r"g\[(\d+)\]", line)[1]), line) for line in lines if line.startswith("g[")]
    loads = {int(k): expr for k, expr in loads}
    assert len(loads) == sum(bool(re.match(r"c\d+ = g\[", line)) for line in lines)
    assert len(dict(stores)) == len(stores)
    _, live, written = _dataflow(block.ops)
    assert set(loads) <= {k for k in range(COLS) if live[k]}
    assert set(dict(stores)) == {k for k in range(COLS) if written[k]}
    return loads, dict(stores)


def band_io(block, lo, width):
    """grid_io of a block on the row band (lo, width): each load shifts its
    column down to the band and masks it to the band, and each store
    keeps some rows and puts the band's value, shifted back up, over them
    (or only keeps rows, when the value is 0)."""
    loads, stores = grid_io(block)
    down = (f" >> {lo}" if lo else "") + (f" & {hex((1 << width) - 1)}" if lo + width < ROWS else "")
    assert all(expr == f"g[{k}]{down}" for k, expr in loads.items()), loads
    up = f" << {lo}" if lo else ""
    for k, line in stores.items():
        assert re.fullmatch(rf"g\[{k}\] (= g\[{k}\] & 0x[0-9a-f]+ \| (c{k}{up}|0x[0-9a-f]+)|&= 0x[0-9a-f]+)",
                            line), line
    return loads, stores

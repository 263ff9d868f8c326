"""Record the exact statistics that run.py checks, for the given seeds.

Run from the root of a source checkout:

    python3 perfbench/pin.py 1 2027

For every workload and seed it runs one untraced and one traced pass in a
fresh worker, and stores in perfbench/pins.json the totals of compute and
init cycles, the micro-op count, the per-step maxima and the sha256 of
the emitted results. A pass that fails a check is not pinned. Pins change
only with a change that is meant to change simulated cycles or output.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, run_worker
from workloads import WORKLOADS, generate, write_inputs


def main(seeds):
    root = Path.cwd()
    path = HERE / "pins.json"
    pins = json.loads(path.read_text())
    for w in WORKLOADS.values():
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
                write_inputs(generate(w, seed), tmp)
                res = run_worker(root, Path(tmp), "trace", w.name, 0)
            if any(res["failures"].values()):
                print(f"{w.name} seed {seed}: not pinned, failures {res['failures']}")
                return 1
            pins.setdefault(w.name, {})[str(seed)] = res["pin"]
            print(f"{w.name} seed {seed}: {res['pin']['sha256']}")
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))

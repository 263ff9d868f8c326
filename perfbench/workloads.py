"""Seeded inputs of the benchmark workloads.

Inputs are generated here from the workload name and seed alone, without
pimfilter's own fixture code, so a change to the program cannot change
what the benchmark feeds it. Each candidate list is written in the
format `pimfilter filter --candidates` reads, and every read that was
made from the reference keeps its true position and an upper bound on
its edit distance, for the soundness check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BASES = "ACGT"
TILE_STRIDE = 6400  # new bases per crossbar tile, as in the paper's layout

PINNED_SEED = 1     # the seed the benchmark was built and tuned on
HELD_OUT_SEED = 2027  # a seed used only to confirm the correctness checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    genome_len: int
    read_length: int
    eth: int
    iter_factor: float | None   # None disables the cap (CLI --iter-factor 0)
    strict: bool
    calls: int                  # filter calls in one pass over the workload
    per_call: int               # candidates per call
    hot_tiles: int = 0          # tiles that receive `hot_share` of the candidates
    hot_share: float = 0.0

    def cli_args(self):
        """The `pimfilter filter` options that select this configuration."""
        args = ["--eth", str(self.eth), "--read-length", str(self.read_length),
                "--iter-factor", "0" if self.iter_factor is None else str(self.iter_factor),
                "--verify-oracle"]
        return args if self.strict else args + ["--permissive"]


WORKLOADS = {w.name: w for w in (
    Workload(
        "dense-r100",
        "2 tiles, no cap, one call: every location reaches the kernel and the "
        "template cache warms, so crossbar execution dominates",
        genome_len=12_900, read_length=100, eth=4, iter_factor=None,
        strict=True, calls=1, per_call=200),
    Workload(
        "stream-r64",
        "100 tiles held over 100 calls of 3 reads: every call pays cold "
        "templates and tile loads; runs the short-read program shape",
        genome_len=640_064, read_length=64, eth=3, iter_factor=5,
        strict=True, calls=100, per_call=3),
    Workload(
        "skew-cap",
        "200 tiles, 60% of reads on 3 hot tiles: the cap and passthrough "
        "path, the largest reference parse, permissive gates",
        genome_len=1_280_100, read_length=100, eth=4, iter_factor=5,
        strict=False, calls=1, per_call=600, hot_tiles=3, hot_share=0.6),
)}


@dataclass
class Inputs:
    genome: str
    calls: list    # per call, a list of (read_id, read, position)
    truth: dict    # read_id -> (true position, edit bound) for reads made from the reference


def _mutate(window, budget, rng):
    """A same-length read within `budget` edits of `window`, and its edit bound.

    A substitution costs one edit. An insertion or deletion shifts the
    rest of the read and is paired with a deletion or insertion at its
    end, so it costs two.
    """
    read = list(window)
    spent = 0
    while budget - spent > 0:
        i = rng.randrange(len(read))
        kind = rng.choice(("sub", "sub", "ins", "del")) if budget - spent >= 2 else "sub"
        if kind == "sub":
            read[i] = rng.choice(BASES)
            spent += 1
        elif kind == "ins":
            read.insert(i, rng.choice(BASES))
            read.pop()
            spent += 2
        else:
            read.pop(i)
            read.append(rng.choice(BASES))
            spent += 2
    return "".join(read), spent


def generate(workload, seed):
    """The workload's reference and candidate calls for `seed`.

    Reads alternate between reads made from the reference at their true
    positions, within `eth` edits, and uniformly random reads. On a
    skewed workload `hot_share` of the positions fall in a few tiles, and
    the reads alternate within the hot and the other positions apart, so
    the locations under the cap are an even split on every seed.
    """
    w = workload
    rng = random.Random(f"{w.name}:{seed}")
    genome = "".join(rng.choices(BASES, k=w.genome_len))
    max_pos = w.genome_len - w.read_length
    hot = rng.sample(range(max_pos // TILE_STRIDE), w.hot_tiles)

    def position(hot_pick):
        if hot_pick:
            return rng.choice(hot) * TILE_STRIDE + rng.randrange(TILE_STRIDE)
        return rng.randint(0, max_pos)

    calls, truth = [], {}
    made = {True: 0, False: 0}  # candidates so far on hot and on other tiles
    for c in range(w.calls):
        n_hot = round(w.hot_share * w.per_call)
        picks = [j < n_hot for j in range(w.per_call)]
        rng.shuffle(picks)
        call = []
        for j, hot_pick in enumerate(picks):
            pos = position(hot_pick)
            made[hot_pick] += 1
            if made[hot_pick] % 2:
                read_id = f"m{c}.{j}"
                read, edits = _mutate(genome[pos:pos + w.read_length],
                                      rng.randint(0, w.eth), rng)
                truth[read_id] = (pos, edits)
            else:
                read_id = f"x{c}.{j}"
                read = "".join(rng.choices(BASES, k=w.read_length))
            call.append((read_id, read, pos))
        rng.shuffle(call)
        calls.append(call)
    return Inputs(genome, calls, truth)


def write_inputs(inputs, directory):
    """Write genome.fa, one call-NNNN.tsv per call and truth.tsv."""
    directory = Path(directory)
    seq = inputs.genome
    with open(directory / "genome.fa", "w") as fh:
        fh.write(">bench\n")
        for i in range(0, len(seq), 70):
            fh.write(seq[i:i + 70] + "\n")
    for c, call in enumerate(inputs.calls):
        with open(call_path(directory, c), "w") as fh:
            fh.write("# read_id\tread_seq\tposition\n")
            for read_id, read, pos in call:
                fh.write(f"{read_id}\t{read}\t{pos}\n")
    with open(directory / "truth.tsv", "w") as fh:
        for read_id, (pos, edits) in sorted(inputs.truth.items()):
            fh.write(f"{read_id}\t{pos}\t{edits}\n")


def call_path(directory, index):
    return Path(directory) / f"call-{index:04d}.tsv"


def read_truth(directory):
    truth = {}
    with open(Path(directory) / "truth.tsv") as fh:
        for line in fh:
            read_id, pos, edits = line.split("\t")
            truth[read_id] = (int(pos), int(edits))
    return truth

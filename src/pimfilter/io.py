"""Data ingestion, result emission, and seeded synthetic fixtures.

Formats are plain text: FASTA for the reference, tab-separated
`read_id  read_seq  position` lines for candidates, and a results table
of `read_id  position  verdict` rows followed by a `# key value` summary
block. Non-ACGT letters are rejected at ingestion with their position so
the golden model and the simulated kernel can never drift apart on
alphabet handling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .oracle import BASES, edit_distance

MAX_POSITION = 2**32 - 1


@dataclass
class RunConfig:
    """Knobs of a full filtering run.

    `iter_factor` 0 or None disables the per-tile cap; a negative or
    non-finite factor is rejected.
    """

    eth: int = 0
    read_length: int = 100
    iter_factor: float | None = 5
    active_limit: int | None = None
    strict: bool = True
    verify_oracle: bool = False
    trace: str | None = None

    def __post_init__(self):
        if not 1 <= self.read_length <= 100:
            raise ValueError("read_length must be 1..100")
        if not 0 <= self.eth <= self.read_length:
            raise ValueError(f"eth must be 0..{self.read_length} (the read length)")
        if self.iter_factor is not None and not 0 <= self.iter_factor < math.inf:
            raise ValueError("iter_factor must be a finite number >= 0")
        if self.active_limit is not None and self.active_limit < 1:
            raise ValueError("active_limit must be >= 1")

    _FIELD_TYPES = {
        "eth": int, "read_length": int, "iter_factor": float,
        "active_limit": int, "strict": bool, "verify_oracle": bool,
        "trace": str,
    }
    _NONE_KEYS = ("iter_factor", "active_limit", "trace")
    _BOOLS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}

    def apply_line(self, key, value):
        """Set `key` from its text, then check the whole config again.

        Booleans take 1/0, true/false, yes/no or on/off in any case; only
        iter_factor, active_limit and trace take `none` or an empty value.
        """
        kind = self._FIELD_TYPES.get(key)
        if kind is None:
            raise ValueError(f"unknown config key {key!r}")
        word = value.lower()
        if word in ("none", ""):
            if key not in self._NONE_KEYS:
                raise ValueError(f"{key} needs a value")
            parsed = None
        elif kind is bool:
            if word not in self._BOOLS:
                raise ValueError(f"{key} must be 1/0, true/false, yes/no or on/off, got {value!r}")
            parsed = self._BOOLS[word]
        else:
            parsed = kind(value)
        setattr(self, key, parsed)
        self.__post_init__()


def parse_config(stream, config=None):
    """Apply `key=value` lines (# comments allowed) onto a RunConfig."""
    config = config or RunConfig()
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value")
        key, _, value = line.partition("=")
        try:
            config.apply_line(key.strip(), value.strip())
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return config


class FastaError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = f" (line {line}" + (f", column {col})" if col else ")") if line else ""
        super().__init__(message + where)


@dataclass
class Fasta:
    seq: str


def parse_fasta(stream):
    """Concatenated uppercase reference from a FASTA stream.

    Multi-record files concatenate in order into one sequence; header
    lines only separate records, and no record boundary is kept. Any
    letter outside ACGT fails with its line and column.
    """
    parts = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line or line.startswith(">"):
            continue
        seq = line.upper()
        for col, ch in enumerate(seq, start=1):
            if ch not in "ACGT":
                raise FastaError(f"invalid base {ch!r}", lineno, col)
        parts.append(seq)
    if not parts:
        raise FastaError("no sequence data")
    return Fasta("".join(parts))


class CandidateError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message + (f" (line {line})" if line else ""))


@dataclass
class CandidateRecord:
    read_id: str
    seq: str
    position: int


def parse_candidates(stream, read_length=100):
    """Candidate records from `read_id<TAB>read_seq<TAB>position` lines.

    Lines starting with '#' and blank lines are skipped. Each read must
    be `read_length` ACGT letters (any case), and each position an
    integer in 0..2**32-1; a bad line fails with its line number.
    """
    out = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise CandidateError("expected read_id<TAB>read_seq<TAB>position", lineno)
        read_id, body, pos_text = fields
        try:
            position = int(pos_text)
        except ValueError:
            raise CandidateError("malformed position", lineno) from None
        if not 0 <= position <= MAX_POSITION:
            raise CandidateError("position overflows 32 bits", lineno)
        seq = body.upper()
        if len(seq) != read_length:
            raise CandidateError(
                f"read length {len(seq)} != {read_length}", lineno)
        if any(ch not in "ACGT" for ch in seq):
            raise CandidateError("read has a non-ACGT base", lineno)
        out.append(CandidateRecord(read_id, seq, position))
    return out


RESULT_HEADER = "read_id\tposition\tverdict"


def emit_results(decisions, stats, stream):
    """One decision row per location, then the `# key value` summary block."""
    stream.write(RESULT_HEADER + "\n")
    for d in decisions:
        stream.write(f"{d.read_id}\t{d.position}\t{d.verdict}\n")
    for key in ("queued", "processed", "passthrough", "discarded", "kept"):
        stream.write(f"# {key} {getattr(stats, key)}\n")
    stream.write(f"# discard_rate {stats.discard_rate:.6f}\n")
    stream.write(f"# passthrough_rate {stats.passthrough_rate:.6f}\n")
    for key in ("compute_cycles", "init_cycles", "bytes_transferred", "waves"):
        stream.write(f"# {key} {getattr(stats, key)}\n")
    if stats.oracle_mismatches is not None:
        stream.write(f"# oracle_mismatches {stats.oracle_mismatches}\n")


def write_fasta(seq, stream, name):
    """One record, 70 bases per line."""
    stream.write(f">{name}\n")
    for i in range(0, len(seq), 70):
        stream.write(seq[i:i + 70] + "\n")


def write_candidates(records, stream):
    stream.write("# read_id\tread_seq\tposition\n")
    for rec in records:
        stream.write(f"{rec.read_id}\t{rec.seq}\t{rec.position}\n")


# ---------------------------------------------------------------------------
# Seeded synthetic fixtures.

def synth_genome(length, rng):
    return "".join(rng.choice(BASES) for _ in range(length))


def mutate_read(window, max_edits, rng):
    """A read within `max_edits` Levenshtein distance of `window`.

    Applies substitutions, insertions, and deletions while keeping the
    read length fixed, then certifies the distance; if the length
    bookkeeping pushed it over, falls back to substitutions only (each
    changes the distance by at most one).
    """
    n = len(window)
    if max_edits == 0:
        return window

    def apply_ops(subs_only):
        read = list(window)
        for _ in range(rng.randint(0, max_edits)):
            kind = "sub" if subs_only else rng.choice(("sub", "sub", "ins", "del"))
            i = rng.randrange(n)
            if kind == "sub":
                read[i] = rng.choice(BASES)
            elif kind == "ins":
                read.insert(i, rng.choice(BASES))
                read.pop()
            else:
                read.pop(i)
                read.append(rng.choice(BASES))
        return "".join(read)

    read = apply_ops(subs_only=False)
    if edit_distance(read, window) <= max_edits:
        return read
    return apply_ops(subs_only=True)


@dataclass
class SynthFixture:
    genome: str
    candidates: list


def synth_fixture(genome_len=100_000, reads=100, decoys_per_read=1,
                  max_edits=0, read_length=100, seed=0):
    """Deterministic genome + candidate list for tests and the CLI.

    Every read is a (possibly mutated) genome window queried at its true
    position, plus `decoys_per_read` additional random positions. The
    read length must be 1..100, as `parse_candidates` and the filter
    accept, and the genome must hold at least one read.
    """
    if not 1 <= read_length <= 100:
        raise ValueError("read_length must be 1..100")
    if genome_len < read_length:
        raise ValueError(f"genome_len must be >= read_length ({read_length})")
    for name, value in (("reads", reads), ("decoys_per_read", decoys_per_read),
                        ("max_edits", max_edits)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
    rng = random.Random(seed)
    genome = synth_genome(genome_len, rng)
    candidates = []
    max_pos = genome_len - read_length
    for i in range(reads):
        pos = rng.randint(0, max_pos)
        window = genome[pos:pos + read_length]
        read = mutate_read(window, max_edits, rng)
        read_id = f"r{i}"
        candidates.append(CandidateRecord(read_id, read, pos))
        for _ in range(decoys_per_read):
            candidates.append(CandidateRecord(read_id, read, rng.randint(0, max_pos)))
    return SynthFixture(genome, candidates)

import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimfilter.io import synth_genome
from pimfilter.kernel import TILE_SPAN
from pimfilter.oracle import (
    BaseCounts,
    base_count_error,
    decide,
    edit_distance,
    histogram,
    should_discard,
    window_counts,
    within_edits,
)

seqs = st.text(alphabet="ACGT", max_size=40)


# letters of every kind the oracle meets: bases, lowercase bases, N,
# other ASCII and non-ASCII letters; a sequence is all bases, all bases
# but one letter, or any mix
BASE_RUNS = st.text(alphabet="ACGT", max_size=30)
OTHERS = "acgtNU-x\u00e9\u00fc"
MIXED = (BASE_RUNS
         | st.builds("".join, st.tuples(BASE_RUNS, st.sampled_from(OTHERS), BASE_RUNS))
         | st.text(alphabet="ACGT" + OTHERS, max_size=40))


def windows(seq):
    """(start, length) of windows of seq: inside it, empty, ending at or
    just past its end, or starting before it (counted from the end, as a
    slice is)."""
    n = len(seq)
    return st.tuples(st.integers(-3, n + 2), st.integers(0, n + 3)) | st.integers(0, n).map(
        lambda start: (start, n - start + 1))


def counter_model(seq):
    """(BaseCounts, None) of a sequence by collections.Counter, or (None,
    message) with the ValueError message the oracle raises on it."""
    bad = [(i, ch) for i, ch in enumerate(seq) if ch not in "ATGC"]
    if bad:
        i, ch = bad[0]
        return None, f"invalid base {ch!r} at position {i}"
    counts = Counter(seq)
    return BaseCounts(*(counts[b] for b in "ATGC")), None


def outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


@lru_cache(maxsize=None)
def reference_distance(a, b):
    """Independent recursive definition of the edit distance."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return reference_distance(a[1:], b[1:])
    return 1 + min(
        reference_distance(a[1:], b[1:]),   # substitute
        reference_distance(a, b[1:]),       # insert
        reference_distance(a[1:], b),       # delete
    )


class TestHistogram:
    def test_balanced(self):
        assert histogram("ACGT" * 25) == BaseCounts(25, 25, 25, 25)

    def test_empty(self):
        assert histogram("") == BaseCounts(0, 0, 0, 0)

    def test_skewed(self):
        assert histogram("AAAT") == BaseCounts(a=3, t=1, g=0, c=0)

    def test_rejects_invalid_letter(self):
        with pytest.raises(ValueError, match="position 2"):
            histogram("ACNT")

    @pytest.mark.parametrize("read_length", [1, 37, 64, 100])
    def test_window_counts_on_every_window_of_a_tile(self, read_length):
        # and decide counts a window of the tile in place as it counts the
        # window's slice
        tile = synth_genome(TILE_SPAN, random.Random(read_length))
        read = histogram(tile[:read_length])
        for p in range(len(tile) - read_length + 1):
            assert window_counts(tile, p, read_length) == histogram(tile[p:p + read_length]), p
            assert decide(read, tile, 1, p, read_length) == decide(read, tile[p:p + read_length], 1), p

    @pytest.mark.parametrize("start,length", [(0, 5), (3, 4), (6, 4), (9, 3), (-2, 2)])
    def test_window_counts_is_histogram_of_the_slice(self, start, length):
        # a window that holds a non-base raises as histogram does, naming
        # its position in the window; one that runs past the end counts
        # the bases it holds
        seq = "ACGTNACGTA"
        window = seq[start:start + length]
        if "N" in window:
            with pytest.raises(ValueError, match=f"^invalid base 'N' at position {window.index('N')}$"):
                window_counts(seq, start, length)
        else:
            assert window_counts(seq, start, length) == histogram(window)

    @given(MIXED)
    def test_matches_counter_model(self, seq):
        got = outcome(histogram, seq)
        assert got == counter_model(seq)
        assert got[0] is None or type(got[0]) is BaseCounts

    @given(seqs)
    def test_total_is_length(self, seq):
        assert histogram(seq).total == len(seq)

    @given(seqs, st.randoms())
    def test_permutation_invariance(self, seq, rnd):
        shuffled = list(seq)
        rnd.shuffle(shuffled)
        assert histogram(seq) == histogram("".join(shuffled))


class TestAgainstCounter:
    """The oracle, counted with str.count into locals, against a
    collections.Counter model of each of its functions."""

    @given(MIXED, st.data())
    def test_window_counts(self, seq, data):
        start, length = data.draw(windows(seq))
        got = outcome(window_counts, seq, start, length)
        assert got == counter_model(seq[start:start + length])
        assert got[0] is None or type(got[0]) is BaseCounts

    @given(BASE_RUNS, BASE_RUNS)
    def test_base_count_error(self, read, window):
        r, w = Counter(read), Counter(window)
        assert base_count_error(histogram(read), histogram(window)) == sum(((w - r) + (r - w)).values())

    @given(BASE_RUNS, MIXED, st.integers(0, 30), st.data())
    def test_decide(self, read, seq, eth, data):
        # length None: the window is seq from start to its end
        start, length = data.draw(windows(seq) | st.integers(-3, len(seq) + 1).map(lambda start: (start, None)))
        window = seq[start:] if length is None else seq[start:start + length]
        want = counter_model(window)
        if want[1] is None:
            r, w = Counter(read), Counter(window)
            want = (1 if sum(((w - r) + (r - w)).values()) > 2 * eth else 0, None)
        assert outcome(decide, histogram(read), seq, eth, start, length) == want


class TestBaseCountError:
    def test_one_substitution_costs_two(self):
        assert base_count_error(BaseCounts(100, 0, 0, 0), BaseCounts(99, 1, 0, 0)) == 2

    def test_identical_is_zero(self):
        h = BaseCounts(10, 20, 30, 40)
        assert base_count_error(h, h) == 0

    def test_disjoint_alphabets(self):
        assert base_count_error(BaseCounts(50, 50, 0, 0), BaseCounts(0, 0, 50, 50)) == 200


class TestShouldDiscard:
    def test_boundary_is_kept(self):
        assert should_discard(2, eth=1) == 0  # 2 > 2 is false

    def test_above_boundary_discards(self):
        assert should_discard(3, eth=1) == 1

    def test_zero_zero(self):
        assert should_discard(0, eth=0) == 0


class TestEditDistance:
    def test_equal(self):
        assert edit_distance("AAAA", "AAAA") == 0

    def test_single_substitution(self):
        assert edit_distance("AAAA", "AATA") == 1

    def test_indel(self):
        assert edit_distance("ACGT", "AGT") == 1
        assert edit_distance("", "ACG") == 3

    @given(st.text(alphabet="ACGT", max_size=7), st.text(alphabet="ACGT", max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_matches_recursive_reference(self, a, b):
        assert edit_distance(a, b) == reference_distance(a, b)


def edited(seq, data, edits):
    """seq after up to `edits` drawn substitutions, insertions and
    deletions."""
    for _ in range(data.draw(st.integers(0, edits))):
        i = data.draw(st.integers(0, len(seq)))
        base = data.draw(st.sampled_from("ACGT"))
        kind = data.draw(st.sampled_from(["sub", "ins", "del"]))
        seq = seq[:i] + base + seq[i + (kind == "sub"):] if kind != "del" else seq[:i] + seq[i + 1:]
    return seq


class TestWithinEdits:
    @given(seqs, st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_full_table_on_every_bound(self, a, data):
        # b is a few edits from a, or unrelated; every bound 0..25, so
        # the pairs at the bound and one past it are among them
        b = data.draw(seqs | st.just(a).map(lambda a: edited(a, data, 12)))
        distance = edit_distance(a, b)
        assert [within_edits(a, b, k) for k in range(26)] == [distance <= k for k in range(26)]
        assert within_edits(b, a, distance) and (distance == 0 or not within_edits(a, b, distance - 1))

    def test_a_read_of_length_100(self):
        rng = random.Random(5)
        for k in range(8):
            window = "".join(rng.choice("ACGT") for _ in range(100))
            read = list(window)
            for _ in range(k):
                read.insert(rng.randrange(100), rng.choice("ACGT"))
                read.pop()
            read = "".join(read)
            distance = edit_distance(read, window)
            assert [within_edits(read, window, j) for j in range(12)] == [distance <= j for j in range(12)]


class TestSoundness:
    @given(seqs, seqs)
    @settings(max_examples=200, deadline=None)
    def test_error_bounded_by_twice_edit_distance(self, a, b):
        assert base_count_error(histogram(a), histogram(b)) <= 2 * edit_distance(a, b)

    def test_never_discards_within_threshold(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(10, 40)
            window = "".join(rng.choice("ACGT") for _ in range(n))
            eth = rng.randint(0, 5)
            k = rng.randint(0, eth)
            read = list(window)
            for _ in range(k):  # substitutions keep the distance <= k
                read[rng.randrange(n)] = rng.choice("ACGT")
            read = "".join(read)
            assert edit_distance(read, window) <= eth
            assert decide(histogram(read), window, eth) == 0

    @given(seqs.filter(lambda s: len(s) > 0), st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_edit_moves_error_by_at_most_two(self, seq, data):
        i = data.draw(st.integers(0, len(seq) - 1))
        base = data.draw(st.sampled_from("ACGT"))
        kind = data.draw(st.sampled_from(["sub", "ins", "del"]))
        if kind == "sub":
            edited = seq[:i] + base + seq[i + 1:]
        elif kind == "ins":
            edited = seq[:i] + base + seq[i:]
        else:
            edited = seq[:i] + seq[i + 1:]
        h0, h1 = histogram(seq), histogram(edited)
        assert base_count_error(h0, h1) <= 2

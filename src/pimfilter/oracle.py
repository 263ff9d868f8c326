"""Software golden model of the base-count filter.

The filter compares per-base occurrence histograms of a read and a
same-length reference window. The accumulated absolute count difference
is a lower bound on twice the edit distance, so discarding a location
only when that error exceeds twice the edit threshold never loses a true
location. A plain Levenshtein distance is included for testing that
soundness claim.
"""

from __future__ import annotations

from typing import NamedTuple

BASES = "ATGC"


class BaseCounts(NamedTuple):
    """Occurrences of each base type in a sequence."""

    a: int
    t: int
    g: int
    c: int

    @property
    def total(self):
        return self.a + self.t + self.g + self.c


# _counts(BaseCounts, (a, t, g, c)) is BaseCounts(a, t, g, c), built
# without the Python-level __new__ that NamedTuple generates
_counts = tuple.__new__


def histogram(seq):
    """Exact per-base counts of a sequence over {A, C, G, T}.

    :raises ValueError: on any other letter.
    """
    count = seq.count
    a, t, g, c = count("A"), count("T"), count("G"), count("C")
    if a + t + g + c != len(seq):
        i, ch = next((i, ch) for i, ch in enumerate(seq) if ch not in BASES)
        raise ValueError(f"invalid base {ch!r} at position {i}")
    return _counts(BaseCounts, (a, t, g, c))


def window_counts(seq, start, length):
    """histogram(seq[start:start + length]), counted in place with
    str.count over the window, without slicing it: a window of `length`
    bases needs no other check, and any other goes through histogram.

    :raises ValueError: on any letter other than A, C, G, T, as histogram
        does.
    """
    end = start + length
    count = seq.count
    a, t, g, c = count("A", start, end), count("T", start, end), count("G", start, end), count("C", start, end)
    return _counts(BaseCounts, (a, t, g, c)) if a + t + g + c == length else histogram(seq[start:end])


def base_count_error(read_counts, window_counts):
    """Sum over base types of |window count - read count|."""
    a, t, g, c = read_counts
    wa, wt, wg, wc = window_counts
    return abs(wa - a) + abs(wt - t) + abs(wg - g) + abs(wc - c)


def should_discard(error, eth):
    """1 iff the accumulated count error exceeds twice the edit threshold."""
    return 1 if error > 2 * eth else 0


def decide(read_counts, seq, eth, start=0, length=None):
    """Filter decision (1 = discard) for a read histogram and the window
    of `length` bases of seq from `start` (all of seq by default),
    counted in place (window_counts)."""
    counts = window_counts(seq, start, len(seq) - start if length is None else length)
    return should_discard(base_count_error(read_counts, counts), eth)


def edit_distance(a, b):
    """Levenshtein distance: minimal substitutions + insertions + deletions."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != cb),
            ))
        prev = cur
    return prev[len(b)]


def within_edits(a, b, k):
    """True iff edit_distance(a, b) <= k, from the cells of its table on
    the diagonal band |i - j| <= k alone.

    A cell off the band is more than k indels from the origin, so it may
    stand as k + 1; capping every value at k + 1 this way keeps each
    value at most k exact, and a row with no value at most k ends the
    search, since no value falls along a path.
    """
    n, m = len(a), len(b)
    if abs(n - m) > k:
        return False
    over = k + 1
    prev = [min(j, over) for j in range(m + 1)]
    for i in range(1, n + 1):
        lo, hi = max(1, i - k), min(m, i + k)
        cur = [over] * (m + 1)
        cur[0] = min(i, over)
        ca = a[i - 1]
        for j in range(lo, hi + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != b[j - 1]))
        if min(cur[lo - 1:hi + 1]) > k:
            return False
        prev = cur
    return prev[m] <= k

"""Reference kernels for the streak similarity test (paper §8).

``repro.analysis.streaks`` decides similarity through a chain of exact
prefilters and a bit-parallel distance engine with an early cutoff.
This module keeps the straightforward implementations those replaced,
as the oracles of ``tests/test_streak_prefilters.py`` and the measured
baselines of ``benchmarks/test_ablation_levenshtein.py``:

* :func:`levenshtein_full` — the O(len²) cell-by-cell DP;
* :func:`levenshtein_banded` — the O(k·n) banded DP;
* :func:`levenshtein_myers` — Myers' bit-vector algorithm without any
  cutoff (every column runs, whatever the budget);
* :func:`similar_reference` — the similarity test before any prefilter;
* :func:`strip_common_affixes_reference` and :func:`bag_surplus_reference`
  — per-character loops for the affix trim and the two-sided
  bag-of-characters bound.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Tuple

from repro.analysis.streaks import DEFAULT_STREAK_THRESHOLD


def levenshtein_full(a: str, b: str) -> int:
    """Exact Levenshtein distance by the full dynamic program."""
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(
                    previous[j] + 1,       # deletion
                    current[j - 1] + 1,    # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def levenshtein_banded(a: str, b: str, k: int) -> Optional[int]:
    """Banded Levenshtein; assumes len(a) ≤ len(b) and len(b)-len(a) ≤ k.

    The band is stored in offset-indexed lists (index d represents
    column j = i + d - k of row i).  Returns ``None`` once a whole row
    of the band exceeds *k*.
    """
    len_a, len_b = len(a), len(b)
    if k == 0:
        return 0 if a == b else None
    infinity = k + 1
    width = 2 * k + 1
    previous = [infinity] * width
    for j in range(0, min(len_b, k) + 1):
        previous[j + k] = j
    for i in range(1, len_a + 1):
        current = [infinity] * width
        window_low = max(0, i - k)
        window_high = min(len_b, i + k)
        best_in_row = infinity
        char_a = a[i - 1]
        for j in range(window_low, window_high + 1):
            d = j - i + k
            if j == 0:
                value = i
            else:
                diagonal = previous[d]
                if char_a == b[j - 1]:
                    value = diagonal
                else:
                    up = previous[d + 1] if d + 1 < width else infinity
                    left = current[d - 1] if d >= 1 else infinity
                    value = (
                        diagonal if diagonal <= up and diagonal <= left
                        else (up if up <= left else left)
                    ) + 1
            current[d] = value
            if value < best_in_row:
                best_in_row = value
        if best_in_row > k:
            return None
        previous = current
    d_end = len_b - len_a + k
    distance = previous[d_end] if 0 <= d_end < width else infinity
    return distance if distance <= k else None


def levenshtein_myers(a: str, b: str) -> int:
    """Exact Levenshtein distance by Myers' bit vectors, no cutoff.

    The shorter text is the pattern and every column of the longer one
    runs, with all three delta vectors masked per column.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    length = len(a)
    mask = (1 << length) - 1
    last = 1 << (length - 1)
    match_masks: Dict[str, int] = {}
    bit = 1
    for char in a:
        match_masks[char] = match_masks.get(char, 0) | bit
        bit <<= 1
    positive = mask
    negative = 0
    score = length
    get = match_masks.get
    for char in b:
        matches = get(char, 0)
        diagonal = matches | negative
        horizontal_x = (((matches & positive) + positive) ^ positive) | matches
        h_positive = negative | (~(horizontal_x | positive) & mask)
        h_negative = positive & horizontal_x
        if h_positive & last:
            score += 1
        elif h_negative & last:
            score -= 1
        h_positive = ((h_positive << 1) | 1) & mask
        h_negative = (h_negative << 1) & mask
        positive = h_negative | (~(diagonal | h_positive) & mask)
        negative = h_positive & diagonal
    return score


def similar_reference(
    stripped_a: str, stripped_b: str, threshold: float = DEFAULT_STREAK_THRESHOLD
) -> bool:
    """The similarity test before any prefilter: length gap, banded DP."""
    if stripped_a == stripped_b:
        return True
    longest = max(len(stripped_a), len(stripped_b))
    if longest == 0:
        return True
    budget = int(longest * threshold)
    a, b = stripped_a, stripped_b
    if len(a) > len(b):
        a, b = b, a
    if len(b) - len(a) > budget:
        return False
    return levenshtein_banded(a, b, budget) is not None


def strip_common_affixes_reference(a: str, b: str) -> Tuple[str, str]:
    """Trim the shared prefix, then the shared suffix, one character at a time."""
    limit = min(len(a), len(b))
    prefix = 0
    while prefix < limit and a[prefix] == b[prefix]:
        prefix += 1
    suffix = 0
    limit -= prefix
    while suffix < limit and a[len(a) - 1 - suffix] == b[len(b) - 1 - suffix]:
        suffix += 1
    return a[prefix:len(a) - suffix], b[prefix:len(b) - suffix]


def bag_surplus_reference(a: str, b: str) -> int:
    """``max`` of both multiset surpluses, each summed separately."""
    freq_a, freq_b = Counter(a), Counter(b)
    excess_a = sum((freq_a - freq_b).values())
    excess_b = sum((freq_b - freq_a).values())
    return max(excess_a, excess_b)

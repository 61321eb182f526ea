"""The streak similarity prefilter chain is exact (ISSUE 6).

The fast kernel (:func:`repro.analysis.streaks.prepared_similar`) may
settle a pair by equality, length difference, the bag-of-characters
bound, or the common-affix upper bound before any DP runs — but every
one of those shortcuts must be a *provable* bound on the edit
distance.  These properties pin that down against hypothesis-generated
pairs and real log pairs:

* the bag bound never exceeds the true Levenshtein distance (so a
  bag-reject can never kill a pair the DP would accept);
* the filtered kernel decides every pair exactly like the
  pre-prefilter reference kernel;
* the bit-parallel distance engine equals the full O(n²) DP, on both
  sides of every budget, however often its diagonal cutoff is checked;
* the binary-search affix trim and the one-sided bag bound equal their
  per-character references;
* worker-precomputed boundary tables leave merges byte-identical;
* lean-mode ``repro streaks`` output is byte-identical to
  full-ingestion output.
"""

import io
import contextlib
import itertools
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from reference_levenshtein import (
    bag_surplus_reference,
    levenshtein_full,
    similar_reference,
    strip_common_affixes_reference,
)
from repro.analysis import streaks
from repro.analysis.streaks import (
    PreparedText,
    SIMILARITY_COUNTERS,
    StreakAccumulator,
    _strip_common_affixes,
    bag_distance_bound,
    levenshtein,
    prepared_similar,
    strip_prefixes,
    stripped_similar,
)
from repro.api import analyze_corpora
from repro.cli import main
from repro.workload import generate_day_log

# Small alphabet: collisions (equal bags, shared affixes, near misses)
# are what stress the filter chain, not character diversity.
_texts = st.text(alphabet=string.ascii_lowercase[:6] + " {}?", max_size=40)
_thresholds = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])


@given(_texts, _texts)
def test_bag_bound_is_a_lower_bound(a, b):
    """bag_distance_bound(a, b) <= levenshtein(a, b), always."""
    bound = bag_distance_bound(PreparedText(a).freq, PreparedText(b).freq)
    assert bound <= levenshtein_full(a, b)


@given(_texts, _texts, _thresholds)
def test_prefilters_never_flip_a_decision(a, b, threshold):
    """Filtered kernel ≡ pre-prefilter reference kernel, any pair."""
    assert stripped_similar(a, b, threshold) == similar_reference(
        a, b, threshold
    )


@given(_texts, _texts)
def test_bitparallel_distance_equals_full_dp(a, b):
    """The Myers engine computes the exact Levenshtein distance."""
    assert levenshtein(a, b) == levenshtein_full(a, b)


@given(_texts, _texts, st.integers(0, 12))
def test_bounded_distance_agrees_with_full_dp(a, b, max_distance):
    """levenshtein(..., max_distance=k) is exact on both sides of k."""
    full = levenshtein_full(a, b)
    expected = full if full <= max_distance else None
    assert levenshtein(a, b, max_distance=max_distance) == expected


def _all_strings(alphabet, max_length):
    for length in range(max_length + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


@pytest.mark.parametrize("stride", [1, 16])
def test_bounded_distance_exhaustive_small(monkeypatch, stride):
    """Every pair over {a, b, c} up to length 4, plus a seeded sample up
    to length 10; every budget 0..max(len), both argument orders.

    Stride 1 checks the diagonal cutoff after every column, so even
    these short pairs exercise the bound wherever it could fire.
    """
    monkeypatch.setattr(streaks, "_CUTOFF_STRIDE", stride)
    texts = list(_all_strings("abc", 4))
    pairs = list(itertools.combinations_with_replacement(texts, 2))
    rng = random.Random(14)
    for _ in range(3000):
        pairs.append(tuple(
            "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
            for _ in range(2)
        ))
    for a, b in pairs:
        full = levenshtein_full(a, b)
        for max_distance in range(max(len(a), len(b)) + 1):
            expected = full if full <= max_distance else None
            assert levenshtein(a, b, max_distance) == expected, (a, b, max_distance)
            assert levenshtein(b, a, max_distance) == expected, (b, a, max_distance)


def _mutate(rng, text, edits):
    for _ in range(edits):
        position = rng.randint(0, len(text))
        operation = rng.randrange(3)
        if operation == 0:  # insert
            text = text[:position] + rng.choice("abcd") + text[position:]
        elif position < len(text) and operation == 1:  # substitute
            text = text[:position] + rng.choice("abcd") + text[position + 1:]
        else:  # delete
            text = text[:position] + text[position + 1:]
    return text


def test_bounded_distance_on_long_pairs():
    """Pairs past 100 characters cross several cutoff checks and more
    than 64 bits; the engine must be exact at d - 1, d and d + 1."""
    rng = random.Random(2017)
    for _ in range(40):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(101, 180)))
        b = _mutate(rng, a, rng.choice([3, 20, 60, 200]))
        distance = levenshtein_full(a, b)
        for max_distance in (distance - 1, distance, distance + 1):
            if max_distance < 0:
                continue
            expected = distance if distance <= max_distance else None
            assert levenshtein(a, b, max_distance) == expected
            assert levenshtein(b, a, max_distance) == expected


def test_negative_max_distance_is_rejected():
    """A negative bound is an error for equal and unequal texts alike."""
    for a, b in (("a", "a"), ("a", "b"), ("", "")):
        with pytest.raises(ValueError, match="max_distance"):
            levenshtein(a, b, max_distance=-1)


_affix_texts = st.text(alphabet="ab", max_size=12)


@given(_texts, _texts)
def test_affix_trim_equals_character_loop(a, b):
    """The binary-search trim cuts exactly what the character loop cuts."""
    assert _strip_common_affixes(a, b) == strip_common_affixes_reference(a, b)


@given(_affix_texts, _affix_texts, _affix_texts, _affix_texts)
def test_affix_trim_equals_character_loop_on_shared_affixes(
    prefix, suffix, core_a, core_b
):
    """Long shared affixes around short cores, including overlaps."""
    a, b = prefix + core_a + suffix, prefix + core_b + suffix
    assert _strip_common_affixes(a, b) == strip_common_affixes_reference(a, b)


@given(_texts, _texts)
def test_bag_bound_equals_two_sided_surplus(a, b):
    """The one-sided pass equals the max of both multiset surpluses."""
    bound = bag_distance_bound(PreparedText(a).freq, PreparedText(b).freq)
    assert bound == bag_surplus_reference(a, b)


@given(st.lists(_texts, max_size=60), st.integers(1, 8), st.integers(1, 20))
@settings(max_examples=50, deadline=None)
def test_boundary_tables_leave_merges_byte_identical(texts, window, cut):
    """Merging with a precomputed boundary table equals merging without."""
    cut = min(cut, len(texts))
    plain_left = StreakAccumulator(window=window)
    primed_left = StreakAccumulator(window=window)
    for text in texts[:cut]:
        plain_left.push(text)
        primed_left.push(text)
    primed_left.precompute_boundary(texts[cut:cut + window])
    right = StreakAccumulator(window=window)
    for text in texts[cut:]:
        right.push(text)
    assert primed_left.merge(right.copy()) == plain_left.merge(right)
    assert primed_left.to_dict() == plain_left.to_dict()


def test_prepared_similar_matches_stripped_similar_on_log_pairs():
    """Real log pairs through both entry points, plus counter sanity."""
    stripped = [strip_prefixes(q) for q in generate_day_log(120, seed=3)]
    pairs = [(a, b) for a in stripped[:40] for b in stripped[40:80]]
    SIMILARITY_COUNTERS.reset()
    for a, b in pairs:
        assert prepared_similar(
            PreparedText(a), PreparedText(b)
        ) == similar_reference(a, b)
    counters = SIMILARITY_COUNTERS.to_dict()
    settled = (
        counters["equal_accepts"]
        + counters["length_rejects"]
        + counters["bag_rejects"]
        + counters["trim_accepts"]
        + counters["dp_runs"]
    )
    assert counters["comparisons"] == len(pairs) == settled


def test_lean_mode_streak_state_is_byte_identical():
    """Lean and full ingestion agree on everything but Valid/Unique."""
    log = generate_day_log(150, session_rate=0.4, seed=11)
    lean = analyze_corpora({"day": log}, metrics=("streaks",), lean=True)
    full = analyze_corpora({"day": log}, metrics=("streaks",), lean=False)
    assert (
        lean.study.datasets["day"].streaks == full.study.datasets["day"].streaks
    )
    assert (
        lean.study.datasets["day"].streaks.to_dict()
        == full.study.datasets["day"].streaks.to_dict()
    )
    assert lean.study.datasets["day"].total == len(log)
    assert lean.study.datasets["day"].valid == 0  # parse never ran
    assert full.study.datasets["day"].valid > 0


def test_lean_cli_streaks_output_byte_identical():
    """End to end: `repro streaks` lean vs --full-ingestion bytes."""
    outputs = {}
    for label, extra in (("lean", []), ("full", ["--full-ingestion"])):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(
                ["streaks", "--synthetic", "300", "--seed", "2016", *extra]
            )
        assert code == 0
        outputs[label] = buffer.getvalue()
    assert outputs["lean"] == outputs["full"]
    assert "Table 6" in outputs["lean"]


def test_lean_requires_sequence_only_metrics():
    """lean=True with per-query passes must fail validation loudly."""
    with pytest.raises(ValueError, match="per-query passes"):
        analyze_corpora(
            {"day": ["ASK { ?s ?p ?o }"]}, metrics=("shallow", "streaks"),
            lean=True,
        )
    with pytest.raises(ValueError, match="sequence metric"):
        analyze_corpora({"day": ["ASK { ?s ?p ?o }"]}, lean=True)


def test_parallel_ingestion_counters_match_serial_exactly():
    """Sharded chunks ship counter deltas home; totals must be exact.

    Regression for a silent drop: pool workers mutate their *own*
    ``SIMILARITY_COUNTERS``, so before the deltas rode back with the
    chunk results the parent's totals under-counted whenever ingestion
    actually forked.  workers=1 (in-process chunks) and workers=2
    (forked chunks) must now agree to the query, not approximately.
    """
    from repro.analysis.context import AnalysisOptions
    from repro.analysis.parallel import build_query_logs_parallel

    log = generate_day_log(200, session_rate=0.5, seed=7)
    options = AnalysisOptions(metrics=("streaks",))
    totals = {}
    for workers in (1, 2):
        SIMILARITY_COUNTERS.reset()
        logs = build_query_logs_parallel(
            {"day": log}, workers=workers, chunk_size=16, options=options
        )
        assert logs["day"].sequences is not None
        totals[workers] = SIMILARITY_COUNTERS.to_dict()
    assert totals[1] == totals[2]
    assert totals[1]["comparisons"] > 0

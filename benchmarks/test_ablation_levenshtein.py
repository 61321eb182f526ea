"""Ablation — the streak similarity kernel, layer by layer (§8).

Streak discovery was "extremely resource-consuming" for the paper; the
similarity kernel is what makes it affordable here, and this bench
measures each of its layers against the one below, always verifying
identical decisions:

* **distance engines** — full O(n²) DP vs banded O(k·n) DP vs the
  Myers bit-parallel algorithm the kernel actually uses;
* **distance cutoff** — Myers without any cutoff vs the shipped engine
  (longer text as the pattern, diagonal cutoff) on exactly the
  window-shaped pairs that survive the prefilters;
* **prefilters on/off** — the full filter chain
  (:func:`repro.analysis.streaks.stripped_similar`) vs the
  pre-prefilter kernel kept as the correctness oracle;

The baselines are the reference kernels of ``tests/reference_levenshtein.py``.
* **lean ingestion on/off** — a sequence-only ``streaks`` study with
  and without the full clean → parse → dedup pipeline.

Every comparison appends a row to ``BENCH_ablation.json``
(``REPRO_BENCH_ABLATION_JSON`` overrides the path) so CI can upload
the ablation table as an artifact; see docs/PERFORMANCE.md for how to
read it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from _bench_utils import banner
from reference_levenshtein import (
    levenshtein_banded,
    levenshtein_full,
    levenshtein_myers,
    similar_reference,
)
from repro.analysis import levenshtein
from repro.analysis.streaks import (
    SIMILARITY_COUNTERS,
    _strip_common_affixes,
    strip_prefixes,
    stripped_similar,
)
from repro.api import analyze_corpora
from repro.workload import generate_day_log

#: Lookbehind used to build realistic comparison pairs: each query
#: against its predecessors, like the streak scan itself.
WINDOW = 30


def _record_ablation(row: dict) -> None:
    """Append *row* to the ablation table (keyed by its ``name``)."""
    out_path = Path(
        os.environ.get("REPRO_BENCH_ABLATION_JSON", "BENCH_ablation.json")
    )
    payload = {}
    if out_path.exists():
        payload = json.loads(out_path.read_text(encoding="utf-8"))
    payload[row["name"]] = row
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _speedup(baseline: float, optimized: float) -> float:
    return baseline / optimized if optimized > 0 else float("inf")


def test_ablation_levenshtein_engines(benchmark):
    """Full DP vs banded DP vs bit-parallel on consecutive-pair budgets."""
    log = [strip_prefixes(q) for q in generate_day_log(400, seed=4)]
    pairs = list(zip(log, log[1:]))

    def bitparallel_pass():
        decisions = []
        for a, b in pairs:
            budget = int(max(len(a), len(b)) * 0.25)
            decisions.append(levenshtein(a, b, max_distance=budget) is not None)
        return decisions

    def banded_pass():
        decisions = []
        for a, b in pairs:
            budget = int(max(len(a), len(b)) * 0.25)
            short, long = (a, b) if len(a) <= len(b) else (b, a)
            if len(long) - len(short) > budget:
                decisions.append(False)
            elif short == long:
                decisions.append(True)
            else:
                decisions.append(
                    levenshtein_banded(short, long, budget) is not None
                )
        return decisions

    bit_decisions = benchmark.pedantic(bitparallel_pass, rounds=1, iterations=1)

    started = time.monotonic()
    full_decisions = []
    for a, b in pairs:
        budget = int(max(len(a), len(b)) * 0.25)
        distance = 0 if a == b else levenshtein_full(a, b)
        full_decisions.append(distance <= budget)
    full_elapsed = time.monotonic() - started

    started = time.monotonic()
    banded_decisions = banded_pass()
    banded_elapsed = time.monotonic() - started

    started = time.monotonic()
    bitparallel_pass()
    bit_elapsed = time.monotonic() - started

    banner("Ablation: Levenshtein engines (full vs banded vs bit-parallel)")
    print(f"full DP:      {full_elapsed * 1e3:9.1f} ms over {len(pairs)} pairs")
    print(f"banded DP:    {banded_elapsed * 1e3:9.1f} ms")
    print(f"bit-parallel: {bit_elapsed * 1e3:9.1f} ms")
    if bit_elapsed > 0:
        print(f"speedup over full: {_speedup(full_elapsed, bit_elapsed):9.2f}x")

    # The optimizations must not change any similarity decision.
    assert banded_decisions == full_decisions
    assert bit_decisions == full_decisions
    # And the shipped engine should actually be faster.
    assert bit_elapsed <= full_elapsed * 1.2
    _record_ablation(
        {
            "name": "levenshtein_engines",
            "pairs": len(pairs),
            "full_seconds": round(full_elapsed, 6),
            "banded_seconds": round(banded_elapsed, 6),
            "bitparallel_seconds": round(bit_elapsed, 6),
            "speedup_vs_full": round(_speedup(full_elapsed, bit_elapsed), 2),
        }
    )


def _window_pairs(log):
    """Each query against its ``WINDOW`` predecessors, like the scan."""
    return [
        (log[i], log[j])
        for i in range(len(log))
        for j in range(max(0, i - WINDOW), i)
    ]


def test_ablation_levenshtein_cutoff():
    """Myers without a cutoff vs the shipped engine, same decisions.

    The pairs are the window-shaped pairs the prefilter chain hands to
    the distance engine (``dp_runs``), trimmed as the kernel trims them.
    """
    log = [strip_prefixes(q) for q in generate_day_log(400, seed=4)]
    dp_pairs = []
    for a, b in _window_pairs(log):
        before = SIMILARITY_COUNTERS.dp_runs
        stripped_similar(a, b)
        if SIMILARITY_COUNTERS.dp_runs > before:
            budget = int(max(len(a), len(b)) * 0.25)
            dp_pairs.append((*_strip_common_affixes(a, b), budget))
    assert dp_pairs, "no pair reached the distance engine"

    started = time.monotonic()
    uncut = [levenshtein_myers(a, b) <= budget for a, b, budget in dp_pairs]
    uncut_elapsed = time.monotonic() - started

    started = time.monotonic()
    shipped = [
        levenshtein(a, b, max_distance=budget) is not None
        for a, b, budget in dp_pairs
    ]
    shipped_elapsed = time.monotonic() - started

    identical = shipped == uncut
    banner("Ablation: Levenshtein cutoff (no cutoff vs diagonal cutoff)")
    print(f"no cutoff: {uncut_elapsed * 1e3:9.1f} ms over {len(dp_pairs)} pairs")
    print(f"cutoff:    {shipped_elapsed * 1e3:9.1f} ms")
    print(f"speedup:   {_speedup(uncut_elapsed, shipped_elapsed):9.2f}x")
    print(f"accepted:  {sum(shipped)} of {len(dp_pairs)}")
    _record_ablation(
        {
            "name": "levenshtein_cutoff",
            "pairs": len(dp_pairs),
            "accepted": sum(shipped),
            "uncut_seconds": round(uncut_elapsed, 6),
            "cutoff_seconds": round(shipped_elapsed, 6),
            "speedup": round(_speedup(uncut_elapsed, shipped_elapsed), 2),
            "identical_decisions": identical,
        }
    )
    # The cutoff must not change any similarity decision.
    assert identical


def test_ablation_prefilters():
    """Filter chain on vs off over window-shaped pairs, same decisions."""
    log = [strip_prefixes(q) for q in generate_day_log(400, seed=4)]
    pairs = _window_pairs(log)

    started = time.monotonic()
    reference = [similar_reference(a, b) for a, b in pairs]
    off_elapsed = time.monotonic() - started

    SIMILARITY_COUNTERS.reset()
    started = time.monotonic()
    filtered = [stripped_similar(a, b) for a, b in pairs]
    on_elapsed = time.monotonic() - started
    counters = SIMILARITY_COUNTERS.to_dict()
    skip_rate = SIMILARITY_COUNTERS.dp_skip_rate

    banner("Ablation: similarity prefilters on vs off")
    print(f"prefilters off: {off_elapsed * 1e3:9.1f} ms over {len(pairs)} pairs")
    print(f"prefilters on:  {on_elapsed * 1e3:9.1f} ms")
    print(f"speedup:        {_speedup(off_elapsed, on_elapsed):9.2f}x")
    print(
        f"DP skip rate:   {skip_rate:9.1%}  "
        f"(length {counters['length_rejects']}, bag {counters['bag_rejects']}, "
        f"equal {counters['equal_accepts']}, trim {counters['trim_accepts']}, "
        f"DP {counters['dp_runs']})"
    )

    # The provable-lower-bound contract: not one decision may differ.
    assert filtered == reference
    _record_ablation(
        {
            "name": "prefilters",
            "pairs": len(pairs),
            "off_seconds": round(off_elapsed, 6),
            "on_seconds": round(on_elapsed, 6),
            "speedup": round(_speedup(off_elapsed, on_elapsed), 2),
            "dp_skip_rate": round(skip_rate, 4),
            "counters": counters,
        }
    )


def test_ablation_lean_ingestion():
    """Lean vs full ingestion of a sequence-only streaks study."""
    log = generate_day_log(600, session_rate=0.3, seed=8)

    started = time.monotonic()
    full = analyze_corpora({"day": log}, metrics=("streaks",), lean=False)
    full_elapsed = time.monotonic() - started

    started = time.monotonic()
    lean = analyze_corpora({"day": log}, metrics=("streaks",), lean=True)
    lean_elapsed = time.monotonic() - started

    banner("Ablation: lean vs full ingestion (sequence-only study)")
    print(f"full ingestion: {full_elapsed * 1e3:9.1f} ms over {len(log)} queries")
    print(f"lean ingestion: {lean_elapsed * 1e3:9.1f} ms")
    print(f"speedup:        {_speedup(full_elapsed, lean_elapsed):9.2f}x")

    # Identical streak state — only Table 1's Valid/Unique differ
    # (0 in lean runs: the parse stage never ran).
    assert (
        lean.study.datasets["day"].streaks == full.study.datasets["day"].streaks
    )
    assert lean.study.datasets["day"].total == full.study.datasets["day"].total
    assert lean.study.datasets["day"].valid == 0
    _record_ablation(
        {
            "name": "lean_ingestion",
            "queries": len(log),
            "full_seconds": round(full_elapsed, 6),
            "lean_seconds": round(lean_elapsed, 6),
            "speedup": round(_speedup(full_elapsed, lean_elapsed), 2),
        }
    )

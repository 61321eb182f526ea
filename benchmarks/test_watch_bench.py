"""Watch mode: incremental cycle cost vs full re-analysis, at two sizes.

Builds two deterministic single-day logs, the second with a history
10x longer, checkpoints most of each once, then times a series of
small watch cycles — each with a *fresh* ``WatchSession`` so resume
(cursor verification, checkpoint and journal load) and the atomic
checkpoint write are inside the measured window.  Cycles on the two
logs alternate, so host-speed drift hits both sizes alike.  A one-shot
``analyze_corpora`` over the complete small log is timed for
comparison.  Writes ``BENCH_watch.json`` (path overridable via
``REPRO_BENCH_WATCH_JSON``) with the timings, the speedup, the mean
cycle time and checkpoint bytes at both sizes, their ratio, and the
byte-identity verdict between each checkpointed study and its one-shot
study (invariant 12).  The CI bench-smoke job uploads the file and
asserts the speedup floor and that the 10x history costs at most 1.5x
per cycle, so a watch cycle that silently degrades to re-analysing or
re-reading the whole log fails the build.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from _bench_utils import banner
from repro.api import WatchSession, analyze_corpora, load_study
from repro.workload import generate_day_log

ENTRIES = int(os.environ.get("REPRO_BENCH_WATCH_ENTRIES", "2400"))
LARGE_FACTOR = 10
CYCLES = 8
SLICE = 24
SPEEDUP_FLOOR = 3.0


def _append(path: Path, texts) -> None:
    with path.open("a", encoding="utf-8") as handle:
        for text in texts:
            handle.write(text.replace("\n", "\\n") + "\n")


def _study_bytes(study) -> str:
    return json.dumps(study.to_dict(), sort_keys=True)


def _appended_slices():
    """The entries every measured cycle appends, the same for both
    sizes: a day log of its own, tagged so that no history has seen
    them and both sizes do the same new-data work."""
    texts = generate_day_log(n_queries=CYCLES * SLICE, seed=8)
    return [f"{text} # appended" for text in texts]


class _GrowingLog:
    """One log whose history is checkpointed up front; :meth:`cycle`
    then appends and folds one slice at a time."""

    def __init__(self, root: Path, entries: int, slices) -> None:
        history = entries - len(slices)
        assert history > 0, "bench log too small for the cycle schedule"
        self.texts = generate_day_log(n_queries=history, seed=7) + slices
        self.base = history
        root.mkdir()
        self.log = root / "day.log"
        self.state = root / "watch-state"
        self.seconds = []
        # The first fold is the expensive one and stays outside the
        # measured cycles.
        _append(self.log, self.texts[: self.base])
        WatchSession([str(self.log)], self.state).cycle()

    def cycle(self, index: int) -> None:
        start_entry = self.base + index * SLICE
        _append(self.log, self.texts[start_entry : start_entry + SLICE])
        start = time.perf_counter()
        outcome = WatchSession([str(self.log)], self.state).cycle(
            drain=index == CYCLES - 1
        )
        self.seconds.append(time.perf_counter() - start)
        assert outcome.total_new == SLICE

    def summary(self) -> dict:
        return {
            "entries": len(self.texts),
            "history_bytes": self.log.stat().st_size,
            "mean_cycle_seconds": round(sum(self.seconds) / len(self.seconds), 6),
            "max_cycle_seconds": round(max(self.seconds), 6),
            "checkpoint_bytes": (self.state / "checkpoint.json").stat().st_size,
            "journal_bytes": sum(
                path.stat().st_size for path in self.state.glob("seen-*")
            ),
        }


def test_watch_artifact(tmp_path):
    slices = _appended_slices()
    small = _GrowingLog(tmp_path / "small", ENTRIES, slices)
    large = _GrowingLog(tmp_path / "large", ENTRIES * LARGE_FACTOR, slices)
    for index in range(CYCLES):
        small.cycle(index)
        large.cycle(index)

    start = time.perf_counter()
    reference = analyze_corpora({"day": small.texts}).study
    one_shot_seconds = time.perf_counter() - start
    identical = _study_bytes(load_study(small.state / "study.json")) == (
        _study_bytes(reference)
    )
    identical_large = _study_bytes(load_study(large.state / "study.json")) == (
        _study_bytes(analyze_corpora({"day": large.texts}).study)
    )

    sizes = {"small": small.summary(), "large": large.summary()}
    mean_cycle = sizes["small"]["mean_cycle_seconds"]
    speedup = one_shot_seconds / mean_cycle
    growth = sizes["large"]["mean_cycle_seconds"] / mean_cycle

    payload = {
        "watch": {
            "entries": len(small.texts),
            "cycles": CYCLES,
            "entries_per_cycle": SLICE,
            "one_shot_seconds": round(one_shot_seconds, 6),
            "mean_cycle_seconds": mean_cycle,
            "max_cycle_seconds": sizes["small"]["max_cycle_seconds"],
            "speedup": round(speedup, 2),
            "identical_study": identical and identical_large,
            "sizes": sizes,
            "large_over_small_cycle": round(growth, 3),
        }
    }
    out_path = Path(os.environ.get("REPRO_BENCH_WATCH_JSON", "BENCH_watch.json"))
    # Merge key-wise, same contract as the other bench artifacts.
    if out_path.exists():
        merged = json.loads(out_path.read_text(encoding="utf-8"))
        merged.update(payload)
        payload = merged
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    banner("Watch mode: incremental cycle vs full re-analysis")
    print(
        f"  one-shot: {len(small.texts):,} entries in {one_shot_seconds:8.4f}s; "
        f"speedup: {speedup:,.1f}x; identical studies: "
        f"{identical and identical_large}"
    )
    for name, size in sizes.items():
        print(
            f"  {name:<5} {size['entries']:>7,} entries "
            f"({size['history_bytes']:,} B): cycle of {SLICE} in "
            f"{size['mean_cycle_seconds']:8.4f}s mean "
            f"(max {size['max_cycle_seconds']:8.4f}s), checkpoint "
            f"{size['checkpoint_bytes']:,} B + journal {size['journal_bytes']:,} B"
        )
    print(f"  {LARGE_FACTOR}x history costs {growth:.2f}x per cycle")

    assert identical and identical_large, (
        "checkpointed studies must match one-shot analysis"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental cycle only {speedup:.1f}x faster than re-analysis "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

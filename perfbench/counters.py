"""The one place the benchmark reads the program's own counters.

Every counter the per-layer ledger uses — ``ParseCache.hits/misses``,
``PassProfile``, ``TransportStats`` and ``SIMILARITY_COUNTERS`` — is
read here and nowhere else, so replacing those objects with another
telemetry type means editing this module only.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.passes import PASS_NAMES, PassProfile
from repro.analysis.parallel import TransportStats
from repro.analysis.streaks import SIMILARITY_COUNTERS
from repro.logs.pipeline import ParseCache


def parse_cache(cache: ParseCache) -> Dict[str, float]:
    lookups = cache.hits + cache.misses
    return {
        "logs.pipeline.parse_cache_hit_rate": cache.hits / lookups if lookups else 0.0,
    }


def pass_profile(profile: PassProfile) -> Dict[str, float]:
    metrics = {
        f"analysis.passes.{name}_s": profile.seconds.get(name, 0.0)
        for name in PASS_NAMES
    }
    metrics["analysis.context.structure_cache_hit_rate"] = profile.cache_hit_rate
    return metrics


def transport(stats: TransportStats) -> Dict[str, float]:
    return {
        "analysis.parallel.chunks_shipped": stats.chunks_shipped,
        "analysis.parallel.shipped_bytes": stats.shipped_bytes,
        "analysis.parallel.merge_s": stats.merge_seconds,
    }


def similarity_snapshot() -> Dict[str, int]:
    """Current streak-kernel counters (pass to :func:`similarity_since`)."""
    return SIMILARITY_COUNTERS.to_dict()


def similarity_since(before: Dict[str, int]) -> Dict[str, float]:
    delta = SIMILARITY_COUNTERS.delta_since(before)
    comparisons = delta["comparisons"]
    return {
        "analysis.streaks.comparisons": comparisons,
        "analysis.streaks.dp_runs": delta["dp_runs"],
        "analysis.streaks.dp_skip_rate": (
            1.0 - delta["dp_runs"] / comparisons if comparisons else 0.0
        ),
    }

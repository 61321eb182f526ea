"""Self-test of the benchmark at a tiny input size.

Run from the repository root (about 20 seconds)::

    python3 perfbench/selftest.py

It checks that every workload emits every metric ``BENCHMARK.json``
names, with its unit, in both modes; that no operation fails on the
current program; that each traced run writes a Chrome trace whose stage
spans cover the traced wall time on the analysis workloads; and that an
output tampered by one byte is counted as a failure on every workload.
"""

from __future__ import annotations

import json
import sys

import run

#: ``trace.coverage`` floor for the analysis workloads: the stage spans
#: must account for this share of every traced round's wall time.
COVERAGE_FLOOR = 0.95

SEED = 7
SECONDS = 0.2


def flip(data):
    """*data* with its second-to-last byte (or character) altered."""
    if isinstance(data, bytes):
        return data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
    return data[:-2] + chr(ord(data[-2]) ^ 1) + data[-1:]


def tamper(workloads) -> None:
    """Make each workload's program output wrong by one byte."""
    corpus = workloads.CorpusAnalyze._run
    workloads.CorpusAnalyze._run = lambda self, index: flip(corpus(self, index))
    daylog = workloads.DaylogStreaks._run
    workloads.DaylogStreaks._run = lambda self, index: flip(daylog(self, index))

    watch_after = workloads.WatchAppend._after_cycle

    def after_cycle(self, total_new):
        if self.cycle_index + 1 == self.epoch_cycles:
            study = self.state / "study.json"
            study.write_bytes(flip(study.read_bytes()))
        return watch_after(self, total_new)

    workloads.WatchAppend._after_cycle = after_cycle
    get = workloads.ServeMixed._get

    def tampered_get(self, path):
        status, body = get(self, path)
        return status, flip(body) if path.startswith("/report") else body

    workloads.ServeMixed._get = tampered_get


def main() -> int:
    if not run.prepare():
        print("selftest: no program source", file=sys.stderr)
        return 2
    import workloads

    spec = run.load_spec()
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            outcome = run.run_workload(name, SEED, SECONDS, trace, tiny=True)
            result, report = outcome["result"], outcome["report"]
            where = f"{name} trace={int(trace)}"
            declared = spec["per_layer" if trace else "end_to_end"]
            expected = {metric["name"]: metric["unit"] for metric in declared}
            emitted = {key: value["unit"] for key, value in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{where}: metrics/units {emitted} != {expected}")
            if result["failed"] or not result["correct"] or report["failed_ratio"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            if not trace:
                zero = [key for key, value in result["metrics"].items() if not value["value"]]
                if zero:
                    problems.append(f"{where}: end-to-end metrics read 0: {zero}")
                continue
            events = json.loads(
                (run.ROOT / report["trace_file"]).read_text(encoding="utf-8")
            )["traceEvents"]
            if not events:
                problems.append(f"{where}: empty trace file")
            coverage = result["metrics"]["trace.coverage"]["value"]
            if name in ("corpus-analyze", "daylog-streaks") and coverage < COVERAGE_FLOOR:
                problems.append(f"{where}: trace.coverage {coverage:.3f} < {COVERAGE_FLOOR}")
    tamper(workloads)
    for name in workloads.WORKLOADS:
        result = run.run_workload(name, SEED, SECONDS, False, tiny=True)["result"]
        if result["correct"] or not result["failed"]:
            problems.append(f"{name}: a tampered output was not counted as a failure")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

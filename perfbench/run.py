"""Benchmark of the SPARQL log study: one workload per run, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload corpus-analyze --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` and written under
``.bench_out/``; set-up then runs ``SETUP_REPEATS`` times, and a closed
loop (one caller, next operation after the previous one returns) runs
the workload's operation for ``--seconds`` seconds.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced operations, runs the per-layer ledger,
reports the per-layer metrics and writes the spans as Chrome trace JSON
to ``.bench_out/traces/``.  Every operation's output is checked; the
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Host speed the timing metrics are normalized to: the seconds
#: :func:`probe` takes on the reference host.
PROBE_REFERENCE_S = 0.008

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_fingerprint() -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _kernel() -> float:
    start = time.perf_counter()
    total = 0
    for number in range(40000):
        total += number * number % 7
    table = {f"key{number}": [number, str(number), (number, number)] for number in range(3000)}
    sorted(table, reverse=True)
    json.loads(json.dumps(table))
    return time.perf_counter() - start


def probe() -> float:
    """Seconds one fixed pure-Python kernel (arithmetic, allocation, JSON)
    takes now, averaged over the CPUs this process may use: the host's
    current speed, independent of the program."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def live_children() -> List[int]:
    """Process ids of this process's running children (pool, server)."""
    me = str(os.getpid())
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if stat.rsplit(")", 1)[1].split()[1] == me:
                pids.append(int(entry.name))
    return pids


def cpu_seconds(children: List[int]) -> float:
    """CPU time used so far by this process, its reaped children and the
    live *children*."""
    total = sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )
    for pid in children:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / CLOCK_TICKS
    return total


def closed_loop(workload, seconds: float, tracer) -> Tuple[list, list, list, float]:
    """Run operations back to back for *seconds*; with a *tracer*, every
    other operation is traced.  Returns the untraced and traced results,
    the probe times around untraced operations (untraced runs only) and
    the CPU seconds the process tree spent in untraced operations."""
    untraced: list = []
    traced: list = []
    probes = [] if tracer is not None else [probe()]
    children = live_children()
    busy = 0.0
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(untraced) < workload.min_ops
        or (tracer is not None and len(traced) < workload.min_ops)
    ):
        if tracer is not None and len(traced) < len(untraced):
            traced.append(workload.traced_op(tracer))
            continue
        before = cpu_seconds(children)
        untraced.append(workload.op())
        busy += cpu_seconds(children) - before
        if tracer is None:
            probes.append(probe())
    return untraced, traced, probes, busy


def normalized(seconds: List[float], probes: List[float], cpu_share: float) -> List[float]:
    """*seconds* rescaled to a host where :func:`probe` takes
    ``PROBE_REFERENCE_S``: the CPU-busy share of each time scales with the
    probe times measured just before and after it."""
    return [
        elapsed * (1 - cpu_share + cpu_share * PROBE_REFERENCE_S * 2 / (before + after))
        for elapsed, before, after in zip(seconds, probes, probes[1:])
    ]


def prepare() -> bool:
    """Put the program's source on the import path of this process and
    its children, and keep their temporary files in the checkout.
    Returns ``False`` when the checkout holds no program source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    sys.path.insert(0, str(SRC))
    return True


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False
) -> Dict[str, object]:
    """Run one workload; returns the result object plus a report block."""
    # Imported here: the program must be on sys.path first.
    from spans import Tracer
    from workloads import WORKLOADS

    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    workload = WORKLOADS[name](work, seed, tiny)
    try:
        setup_probes = [probe()]
        setup_seconds = []
        checks = []
        for _ in range(SETUP_REPEATS):
            elapsed, ok = workload.setup()
            setup_seconds.append(elapsed)
            checks.append(ok)
            setup_probes.append(probe())
        untraced, traced, probes, busy = closed_loop(workload, seconds, tracer)
        checks += [ok for _, ok, _ in untraced + traced]
        op_seconds = [elapsed for elapsed, _, _ in untraced]
        cpu_share = min(1.0, busy / sum(op_seconds))
        if trace:
            ledger = workload.ledger(tracer, op_seconds)
            measured = {f"{span}_s": value for span, value in tracer.layer_seconds().items()}
            measured.update(workload.layer_medians())
            measured.update(ledger)
            measured["trace.coverage"] = tracer.coverage(workload.op_name)
            measured["trace.overhead"] = statistics.median(
                elapsed for elapsed, _, _ in traced
            ) / statistics.median(op_seconds)
        checks += workload.final_checks()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        # Set-up is CPU work throughout; an operation's CPU share is
        # measured, so time spent waiting (a network stall) is not rescaled.
        op_norm = normalized(op_seconds, probes, cpu_share)
        measured = {
            "setup_s": statistics.median(normalized(setup_seconds, setup_probes, 1.0)),
            "op_p50_ms": statistics.median(op_norm) * 1e3,
            "items_per_s": statistics.mean(items for _, _, items in untraced)
            / statistics.median(op_norm),
            "peak_rss_mb": peak_rss_mb(),
        }
    metrics = {
        metric["name"]: {"value": measured.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in declared
    }
    failed = checks.count(False)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "operations": len(untraced) + len(traced),
        "raw_setup_s": statistics.median(setup_seconds),
        "raw_op_p50_ms": statistics.median(op_seconds) * 1e3,
        "raw_op_p90_ms": p90(op_seconds) * 1e3,
        "probe_ms": statistics.median(setup_probes + probes) * 1e3,
        "cpu_share": cpu_share,
        "failed_ratio": failed / len(checks),
        "inputs": workload.inputs,
        "host": host_fingerprint(),
    }
    if trace:
        path = OUT / "traces" / f"{name}-seed{seed}.json"
        tracer.write_chrome(path, report)
        report["trace_file"] = str(path.relative_to(ROOT))
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": len(checks),
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in outcome["report"].items():
        print(f"{key}: {json.dumps(value)}")
    for name, metric in outcome["result"]["metrics"].items():
        print(f"  {name:<52} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads of the log study.

Each workload generates its inputs from the seed (the program only
receives the written files), sets the program up, and then offers:

* ``op()`` — one untraced end-to-end operation through the public entry
  point a user calls, timed around the program call only, returning
  ``(seconds, ok, items)``; ``ok`` is the operation's correctness check;
* ``traced_op(tracer)`` — the same operation decomposed into the public
  calls the program makes one after another, with a span around each;
* ``ledger(tracer, op_seconds)`` — the per-layer measurements that are
  not part of one operation (whole-corpus tokenizing, serial streak
  scans, ...), given the untraced operation times of the same run;
* ``final_checks()`` — whole-run correctness checks.

Why each workload exists, and which optimisation it must *not* move,
is in ``perfbench/README.md``.
"""

from __future__ import annotations

import http.client
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import quote

import counters
from spans import Tracer

from repro.analysis.context import AnalysisOptions
from repro.analysis.parallel import TransportStats, WorkerPool, build_query_logs_parallel
from repro.analysis.passes import PASS_NAMES, SEQUENCE_PASS_NAMES
from repro.analysis.streaks import StreakAccumulator
from repro.analysis.study import study_corpus
from repro.api import (
    AnalysisRequest,
    AnalysisSession,
    WatchSession,
    analyze,
    load_study,
    open_warehouse,
    save_study,
)
from repro.exceptions import SparqlSyntaxError, StudySnapshotError
from repro.logs import ParseCache, build_query_log, dataset_name
from repro.logs.formats import encode_access_log_line
from repro.logs.sources import read_entries
from repro.rdf.namespaces import WELL_KNOWN_PREFIXES
from repro.reporting.reporters import render_report
from repro.sparql.parser import parse_query
from repro.sparql.tokenizer import tokenize
from repro.workload import generate_corpus, generate_day_log

#: Every per-query pass plus the ``streaks`` sequence pass.
ALL_METRICS = PASS_NAMES + SEQUENCE_PASS_NAMES

#: Repetitions of the measured ledger steps outside the operation loop.
LEDGER_REPEATS = 3

#: Seeded inputs per analysis run.  Rounds rotate over them, so a run's
#: median covers several inputs and one costly input moves it less from
#: seed to seed.
ROTATION = 4

OpResult = Tuple[float, bool, int]


def write_access_log(path: Path, entries: List[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(encode_access_log_line(text) + "\n" for text in entries),
        encoding="utf-8",
    )


def write_lines_log(path: Path, entries: List[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(text.replace("\n", "\\n") + "\n" for text in entries),
        encoding="utf-8",
    )


def write_corpus(directory: Path, scale: float, seed: int) -> List[Path]:
    """The 13-dataset calibrated corpus as one access-log file each."""
    paths = []
    for name, entries in generate_corpus(scale=scale, seed=seed).items():
        path = directory / f"{name.replace('/', '_')}.log"
        write_access_log(path, entries)
        paths.append(path)
    return paths


def timed(call: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


def median_of(call: Callable[[], object], repeats: int = LEDGER_REPEATS) -> float:
    return statistics.median(timed(call)[0] for _ in range(repeats))


def snapshot_ledger(study, path: Path) -> Dict[str, float]:
    """Time ``analysis.snapshot`` save and load of *study*."""
    return {
        "analysis.snapshot.save_s": median_of(lambda: save_study(study, path)),
        "analysis.snapshot.load_s": median_of(lambda: load_study(path)),
        "analysis.snapshot.bytes": path.stat().st_size,
    }


class Workload:
    """Shared shape of a workload; subclasses fill in the operations."""

    name = ""
    #: Name of the root span of one traced operation.
    op_name = ""
    #: Operations the closed loop runs even when ``--seconds`` is short.
    min_ops = 5

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.inputs: Dict[str, object] = {}
        self.layers: Dict[str, List[float]] = {}
        self.position = 0

    def record(self, metrics: Dict[str, float]) -> None:
        """Keep one traced operation's layer readings (medians at the end)."""
        for name, value in metrics.items():
            self.layers.setdefault(name, []).append(value)

    def layer_medians(self) -> Dict[str, float]:
        return {name: statistics.median(values) for name, values in self.layers.items()}

    def next_index(self, count: int) -> int:
        """The next input of a rotation over *count* inputs."""
        index = self.position % count
        self.position += 1
        return index

    def setup(self) -> Tuple[float, bool]:
        """One program-side set-up: (seconds, output correct)."""
        raise NotImplementedError

    def warm_up(self, count: int) -> Tuple[float, bool]:
        """One operation on each of *count* rotated inputs."""
        results = [self.op() for _ in range(count)]
        return sum(seconds for seconds, _, _ in results), all(ok for _, ok, _ in results)

    def op(self) -> OpResult:
        raise NotImplementedError

    def traced_op(self, tracer: Tracer) -> OpResult:
        raise NotImplementedError

    def ledger(self, tracer: Tracer, op_seconds: List[float]) -> Dict[str, float]:
        return {}

    def final_checks(self) -> List[bool]:
        return []

    def close(self) -> None:
        pass


class CorpusAnalyze(Workload):
    """Serial analysis of the calibrated 13-dataset corpus + text report."""

    name = "corpus-analyze"
    op_name = "round"

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        scale = 1e-6 if tiny else 1e-5
        count = 2 if tiny else ROTATION
        self.corpora = [
            write_corpus(work / f"corpus{index}", scale, seed * count + index)
            for index in range(count)
        ]
        entries = [[entry for path in files for entry in read_entries(path)] for files in self.corpora]
        self.entries = [len(corpus) for corpus in entries]
        self.texts = [list(dict.fromkeys(corpus)) for corpus in entries]
        # The reference is the layer-by-layer composition of the same
        # run, so every round also checks analyze() against it.
        self.references = [self._layered(files, Tracer())[1] for files in self.corpora]
        self.study = None
        self.inputs = {
            "scale": scale,
            "corpora": count,
            "datasets_per_corpus": len(self.corpora[0]),
            "entries": self.entries,
            "unique_texts": [len(texts) for texts in self.texts],
            "bytes": sum(path.stat().st_size for files in self.corpora for path in files),
        }

    def _run(self, index: int) -> str:
        return analyze(*self.corpora[index]).render("text")

    def setup(self) -> Tuple[float, bool]:
        return self.warm_up(len(self.corpora))

    def op(self) -> OpResult:
        index = self.next_index(len(self.corpora))
        seconds, report = timed(lambda: self._run(index))
        return seconds, report == self.references[index], self.entries[index]

    def _layered(self, files: List[Path], tracer: Tracer):
        """The serial AnalysisSession.run path, one public call per layer."""
        with tracer.span(self.op_name) as root:
            with tracer.span("logs.sources.read"):
                corpora = {dataset_name(path): read_entries(path) for path in files}
            cache = ParseCache()
            with tracer.span("logs.pipeline.ingest"):
                logs = {
                    name: build_query_log(name, texts, None, cache=cache)
                    for name, texts in corpora.items()
                }
            with tracer.span("analysis.study.measure"):
                study = study_corpus(logs, options=AnalysisOptions(profile=True))
            with tracer.span("reporting.render"):
                report = render_report(study, "text")
        return study, report, cache, root.seconds

    def traced_op(self, tracer: Tracer) -> OpResult:
        index = self.next_index(len(self.corpora))
        study, report, cache, seconds = self._layered(self.corpora[index], tracer)
        self.study = study
        self.record(counters.parse_cache(cache))
        self.record(counters.pass_profile(study.pass_profile))
        return seconds, report == self.references[index], self.entries[index]

    def ledger(self, tracer: Tracer, op_seconds: List[float]) -> Dict[str, float]:
        prefixes = dict(WELL_KNOWN_PREFIXES)
        for texts in self.texts:
            with tracer.span("sparql.tokenizer.tokenize"):
                for text in texts:
                    try:
                        tokenize(text)
                    except SparqlSyntaxError:
                        pass
            with tracer.span("sparql.parser.parse"):
                for text in texts:
                    try:
                        parse_query(text, extra_prefixes=prefixes)
                    except (SparqlSyntaxError, RecursionError):
                        pass
        return snapshot_ledger(self.study, self.work / "study.json")


class DaylogStreaks(Workload):
    """Streak discovery over ordered day logs on a warm 2-worker session."""

    name = "daylog-streaks"
    op_name = "round"

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        n_queries = 200 if tiny else 3000
        count = 2 if tiny else ROTATION
        self.paths = [work / f"day{index}.log" for index in range(count)]
        for index, path in enumerate(self.paths):
            write_lines_log(path, generate_day_log(n_queries=n_queries, seed=seed * count + index))
        self.entries = [len(read_entries(path)) for path in self.paths]
        self.requests = [
            AnalysisRequest(inputs=(path,), metrics=("streaks",), workers=2)
            for path in self.paths
        ]
        with AnalysisSession() as session:
            self.references = [
                render_report(session.run(replace(request, workers=1)).study)
                for request in self.requests
            ]
        self.session: Optional[AnalysisSession] = None
        self.pool: Optional[WorkerPool] = None
        self.study = None
        self.inputs = {
            "logs": count,
            "entries": self.entries,
            "unique_texts": [len(set(read_entries(path))) for path in self.paths],
            "bytes": sum(path.stat().st_size for path in self.paths),
            "workers": 2,
        }

    def _run(self, index: int) -> str:
        return render_report(self.session.run(self.requests[index]).study)

    def setup(self) -> Tuple[float, bool]:
        # A new session: its first round starts the worker pool.
        if self.session is not None:
            self.session.close()
        self.session = AnalysisSession()
        return self.warm_up(len(self.paths))

    def op(self) -> OpResult:
        index = self.next_index(len(self.paths))
        seconds, report = timed(lambda: self._run(index))
        return seconds, report == self.references[index], self.entries[index]

    def traced_op(self, tracer: Tracer) -> OpResult:
        # AnalysisSession.run at workers=2 on a persistent pool, one
        # public call per layer.
        index = self.next_index(len(self.paths))
        if self.pool is None:
            self.pool = WorkerPool(2)
            self._traced_round(Tracer(), index)  # warm the pool like the session's
        return self._traced_round(tracer, index)

    def _traced_round(self, tracer: Tracer, index: int) -> OpResult:
        path = self.paths[index]
        options = self.requests[index].options()
        transport = TransportStats()
        with tracer.span(self.op_name) as root:
            with tracer.span("logs.sources.read"):
                corpora = {dataset_name(path): read_entries(path)}
            with tracer.span("logs.pipeline.ingest"):
                logs = build_query_logs_parallel(
                    corpora, None, workers=2, options=options,
                    pool=self.pool, transport=transport,
                )
            with tracer.span("analysis.study.measure"):
                study = study_corpus(
                    logs, workers=2, options=options, pool=self.pool, transport=transport
                )
            with tracer.span("reporting.render"):
                report = render_report(study)
        self.study = study
        self.record(counters.transport(transport))
        return root.seconds, report == self.references[index], self.entries[index]

    def ledger(self, tracer: Tracer, op_seconds: List[float]) -> Dict[str, float]:
        options = self.requests[0].options()
        for path in self.paths:
            accumulator = StreakAccumulator(options.streak_window, options.streak_threshold)
            texts = read_entries(path)
            before = counters.similarity_snapshot()
            with tracer.span("analysis.streaks.scan"):
                for text in texts:
                    accumulator.push(text)
            self.record(counters.similarity_since(before))
        with AnalysisSession() as serial:
            serial_s = statistics.median(
                timed(lambda: render_report(serial.run(replace(request, workers=1)).study))[0]
                for request in self.requests
            )
        return {
            "analysis.parallel.speedup": serial_s / statistics.median(op_seconds),
            **snapshot_ledger(self.study, self.work / "study.json"),
        }

    def close(self) -> None:
        for owner in (self.session, self.pool):
            if owner is not None:
                owner.close()


def read_io() -> Tuple[int, int]:
    """This process's (rchar, wchar): bytes passed to read/write calls."""
    fields = dict(
        line.split(":", 1) for line in Path("/proc/self/io").read_text().splitlines()
    )
    return int(fields["rchar"]), int(fields["wchar"])


class WatchAppend(Workload):
    """Cron-style watch cycles, each appending a fixed slice to a long log.

    The log restarts from the seeded history every ``epoch_cycles``
    cycles (outside the timed calls), so every run measures cycles over
    the same range of history sizes however fast the program is.
    """

    name = "watch-append"
    op_name = "cycle"

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        self.history_entries = history = 200 if tiny else 3000
        self.slice_entries = 5 if tiny else 25
        self.epoch_cycles = 4 if tiny else 80
        self.min_ops = self.epoch_cycles
        texts = generate_day_log(
            n_queries=history + self.slice_entries * self.epoch_cycles, seed=seed
        )
        lines = [(encode_access_log_line(text) + "\n").encode("utf-8") for text in texts]
        self.history = b"".join(lines[:history])
        self.slices = [
            b"".join(lines[start : start + self.slice_entries])
            for start in range(history, len(lines), self.slice_entries)
        ]
        self.log = work / "log" / "day.log"
        self.log.parent.mkdir(parents=True)
        self.log.write_bytes(self.history)
        self.state = work / "state"
        self.warehouse = work / "warehouse.sqlite"
        self.pristine = work / "pristine"
        self.cycle_index = 0
        self.epoch_study: Optional[bytes] = None
        self.inputs = {
            "history_entries": history,
            "history_bytes": len(self.history),
            "entries_per_cycle": self.slice_entries,
            "cycles_per_epoch": self.epoch_cycles,
            "appended_bytes_per_epoch": sum(len(chunk) for chunk in self.slices),
            "metrics": list(ALL_METRICS),
        }

    def _session(self) -> WatchSession:
        return WatchSession(
            [self.log], self.state, metrics=ALL_METRICS, warehouse_path=self.warehouse
        )

    def _clear(self) -> None:
        shutil.rmtree(self.state, ignore_errors=True)
        for path in self.work.glob(self.warehouse.name + "*"):
            path.unlink()

    def setup(self) -> Tuple[float, bool]:
        self._clear()
        seconds, cycle = timed(lambda: self._session().cycle())
        shutil.rmtree(self.pristine, ignore_errors=True)
        shutil.copytree(self.state, self.pristine / "state")
        for path in self.work.glob(self.warehouse.name + "*"):
            shutil.copy2(path, self.pristine / path.name)
        return seconds, cycle.total_new == self.history_entries

    def _restart_epoch(self) -> None:
        self._clear()
        shutil.copytree(self.pristine / "state", self.state)
        for path in self.pristine.glob(self.warehouse.name + "*"):
            shutil.copy2(path, self.work / path.name)
        self.log.write_bytes(self.history)
        self.cycle_index = 0

    def _append(self) -> int:
        if self.cycle_index == self.epoch_cycles:
            self._restart_epoch()
        chunk = self.slices[self.cycle_index]
        with self.log.open("ab") as handle:
            handle.write(chunk)
        return len(chunk)

    def _after_cycle(self, total_new: int) -> bool:
        self.cycle_index += 1
        ok = total_new == self.slice_entries
        if self.cycle_index == self.epoch_cycles:
            ok = self._check_epoch() and ok
        return ok

    def _check_epoch(self) -> bool:
        """Every epoch ends in the same checkpoint study, and the
        warehouse the cycles fed renders exactly that study."""
        study_bytes = (self.state / "study.json").read_bytes()
        if self.epoch_study is None:
            self.epoch_study = study_bytes
        with open_warehouse(self.warehouse, readonly=True) as warehouse:
            served = warehouse.render("text")
        try:
            checkpointed = render_report(load_study(self.state / "study.json"))
        except StudySnapshotError:
            return False
        return study_bytes == self.epoch_study and served == checkpointed

    def op(self) -> OpResult:
        self._append()
        seconds, cycle = timed(lambda: self._session().cycle())
        return seconds, self._after_cycle(cycle.total_new), self.slice_entries

    def traced_op(self, tracer: Tracer) -> OpResult:
        appended = self._append()
        read_before, written_before = read_io()
        with tracer.span(self.op_name) as root:
            with tracer.span("analysis.incremental.resume"):
                session = self._session()
            with tracer.span("analysis.incremental.cycle"):
                cycle = session.cycle()
        read_after, written_after = read_io()
        self.record(
            {
                "analysis.incremental.read_bytes_per_new_byte":
                    (read_after - read_before) / appended,
                "analysis.incremental.write_bytes_per_new_byte":
                    (written_after - written_before) / appended,
            }
        )
        return root.seconds, self._after_cycle(cycle.total_new), self.slice_entries

    def ledger(self, tracer: Tracer, op_seconds: List[float]) -> Dict[str, float]:
        return {
            "analysis.incremental.checkpoint_bytes":
                (self.state / "checkpoint.json").stat().st_size,
            "warehouse.store.bytes": sum(
                path.stat().st_size for path in self.work.glob(self.warehouse.name + "*")
            ),
        }

    def final_checks(self) -> List[bool]:
        """Invariant 12: the checkpointed study of a whole epoch equals a
        one-shot analysis of the same log."""
        whole = self.work / "oneshot" / "day.log"
        whole.parent.mkdir(exist_ok=True)
        whole.write_bytes(self.history + b"".join(self.slices))
        save_study(analyze(whole, metrics=ALL_METRICS).study, whole.with_suffix(".json"))
        return [
            self.epoch_study is not None
            and self.epoch_study == whole.with_suffix(".json").read_bytes()
        ]


#: FTS5 query operators a search word must not be (AND, OR and NOT are
#: shorter than the four letters a word needs).
_FTS_OPERATORS = {"NEAR"}


class ServeMixed(Workload):
    """One keep-alive HTTP client against a ``repro serve`` child process,
    sending a seeded mix over every read route."""

    name = "serve-mixed"
    op_name = "request"
    min_ops = 50
    per_route = 8

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        scale = 1e-6 if tiny else 1e-5
        files = write_corpus(work / "corpus", scale, seed)
        day = work / "corpus" / "day.log"
        write_lines_log(day, generate_day_log(n_queries=100 if tiny else 1000, seed=seed))
        files.append(day)
        self.snapshot = work / "study.json"
        save_study(analyze(*files, metrics=ALL_METRICS).study, self.snapshot)
        study = load_study(self.snapshot)
        self.report_text = render_report(study, "text")
        self.report_json = render_report(study, "json")
        self.mix = self._mix(study, files)
        self.seen: Dict[str, bytes] = {}
        self.server: Optional[subprocess.Popen] = None
        self.connection: Optional[http.client.HTTPConnection] = None
        self.ingest_seconds: List[float] = []
        self.warehouse_path: Optional[Path] = None
        self.inputs = {
            "scale": scale,
            "day_log_entries": 100 if tiny else 1000,
            "snapshot_bytes": self.snapshot.stat().st_size,
            "routes": self.routes,
            "requests_per_route": self.per_route,
        }

    def _mix(self, study, files: List[Path]) -> List[Tuple[str, Callable]]:
        """A seeded sequence of (path, the equivalent direct warehouse call)."""
        rng = random.Random(self.seed)
        datasets = sorted(study.datasets)
        words = sorted(
            {
                word
                for path in files
                for text in read_entries(path)[:50]
                for word in re.findall(r"[A-Za-z]{4,}", text)
                if word.upper() not in _FTS_OPERATORS
            }
        )
        page = {"limit": 50, "offset": 0}

        def routes(table: int, name: str, word: str) -> Dict[str, Tuple[str, Callable]]:
            return {
                "/datasets": ("/datasets", lambda w: w.datasets(**page)),
                "/datasets/{name}": (f"/datasets/{quote(name)}", lambda w: w.dataset(name)),
                "/tables/{1..6}": (
                    f"/tables/{table}", lambda w: w.table_cells(table, dataset=None, **page)
                ),
                "/tables/{1..6}?format=text": (
                    f"/tables/{table}?format=text", lambda w: w.table_text(table)
                ),
                "/streaks": ("/streaks", lambda w: w.streak_histograms(**page)),
                "/caveats": ("/caveats", lambda w: w.caveats()),
                "/search?q={word}": (f"/search?q={word}", lambda w: w.search(word, **page)),
                "/report": ("/report", lambda w: w.render("text")),
                "/report?format=json": ("/report?format=json", lambda w: w.render("json")),
            }

        # Every route equally often, so the mix's cost does not depend
        # on the seed; the seed picks the order and the parameters.
        self.routes = list(routes(1, datasets[0], words[0]))
        order = [route for route in self.routes for _ in range(self.per_route)]
        rng.shuffle(order)
        return [
            routes(rng.randint(1, 6), rng.choice(datasets), rng.choice(words))[route]
            for route in order
        ]

    def check(self, path: str, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        if path == "/report":
            text = self.report_text if self.report_text.endswith("\n") else self.report_text + "\n"
            return body == text.encode("utf-8")
        if path == "/report?format=json":
            return body == self.report_json.encode("utf-8")
        return body == self.seen.setdefault(path, body)

    def _stop_server(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    def setup(self) -> Tuple[float, bool]:
        self._stop_server()
        self.warehouse_path = self.work / f"warehouse-{len(self.ingest_seconds)}.sqlite"
        start = time.perf_counter()
        with open_warehouse(self.warehouse_path) as warehouse:
            ingest_start = time.perf_counter()
            warehouse.ingest(load_study(self.snapshot), source=str(self.snapshot))
            self.ingest_seconds.append(time.perf_counter() - ingest_start)
        self.server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", str(self.warehouse_path),
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.server.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)/", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.connection = http.client.HTTPConnection(match[1], int(match[2]), timeout=30)
        status, _ = self._get("/")
        return time.perf_counter() - start, status == 200

    def _get(self, path: str) -> Tuple[int, bytes]:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        return response.status, response.read()

    def _next(self) -> str:
        return self.mix[self.next_index(len(self.mix))][0]

    def op(self) -> OpResult:
        path = self._next()
        seconds, (status, body) = timed(lambda: self._get(path))
        return seconds, self.check(path, status, body), 1

    def traced_op(self, tracer: Tracer) -> OpResult:
        path = self._next()
        with tracer.span(self.op_name) as root:
            with tracer.span("warehouse.service.request"):
                status, body = self._get(path)
        self.record({"warehouse.service.response_bytes": len(body)})
        return root.seconds, self.check(path, status, body), 1

    def ledger(self, tracer: Tracer, op_seconds: List[float]) -> Dict[str, float]:
        query_ms = []
        with open_warehouse(self.warehouse_path, readonly=True) as warehouse:
            for _ in range(LEDGER_REPEATS):
                for _, call in self.mix:
                    with tracer.span("warehouse.store.query") as span:
                        call(warehouse)
                    query_ms.append(span.seconds * 1e3)
            render_s = median_of(lambda: warehouse.render("text"))
        query_p50_ms = statistics.median(query_ms)
        return {
            "warehouse.store.ingest_s": statistics.median(self.ingest_seconds),
            "warehouse.store.render_s": render_s,
            "warehouse.store.query_ms": query_p50_ms,
            "warehouse.service.overhead_ms":
                statistics.median(op_seconds) * 1e3 - query_p50_ms,
            "warehouse.store.bytes": self.warehouse_path.stat().st_size,
        }

    def close(self) -> None:
        self._stop_server()


WORKLOADS = {
    workload.name: workload
    for workload in (CorpusAnalyze, DaylogStreaks, WatchAppend, ServeMixed)
}

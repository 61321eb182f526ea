"""Incremental always-on analysis: the engine behind ``repro watch``.

The batch pipeline answers "what does this log say"; this module
answers it *continuously*: tail growing log files (or directories of
them), feed only the new suffix through the existing pass pipeline,
and fold the result into a running :class:`CorpusStudy` checkpoint —
exploiting the fact that every accumulator in the system already
merges in stream order.

Three pieces make the fold exact (invariant 12 in
``docs/ARCHITECTURE.md``: the checkpointed study is byte-identical to
a one-shot ``repro analyze`` of the full log, for *any* split into
watch cycles):

* **Resumable source cursors.**  Each tailed file carries a logical
  byte offset (raw bytes for plain files, decompressed bytes for gzip
  — recognized by magic, and readable across appended gzip members)
  plus SHA-256 digests of two windows of the consumed prefix: its
  first :data:`VERIFY_WINDOW` bytes and the :data:`VERIFY_WINDOW`
  bytes ending at the cursor.  Every cycle re-verifies both windows
  and seeks past the rest, so resuming costs O(window), not
  O(history), and a truncated, rotated, or rewritten source raises
  :class:`~repro.exceptions.WatchStateError` instead of silently
  double-counting history.  While the prefix is at most two windows
  long the windows cover all of it; beyond that, a same-length edit
  strictly between them goes undetected (the documented contract of
  invariant 12).  Cycles advance only past *complete* entry
  boundaries (the last newline; for block format, the last blank
  line), so a writer flushing mid-entry never splits one; ``drain``
  consumes the unterminated tail on a final cycle.
* **Cross-cycle deduplication.**  Table 1's Unique column and every
  main-body measurement run over first occurrences.  The state
  directory keeps the SHA-256 digests of all unique texts seen, so each cycle
  measures exactly the queries whose first occurrence falls in its
  slice — concatenated across cycles, that is precisely the one-shot
  unique stream, in order.
* **Streak resume tokens.**  The per-dataset
  :class:`~repro.analysis.streaks.StreakAccumulator` snapshots with
  the study; its open-chain records (lean: O(window) per chain,
  however long the streak) are the resume state, and each cycle's
  slice accumulator stitches on via the same merge the sharded scan
  uses.

The checkpoint keeps one cumulative study *per dataset* and derives
the combined study by merging them in input order — the same stitch
the sharded drivers use — so datasets growing in interleaved cycles
still report with exactly the one-shot counter order (one-shot runs
fold each dataset to completion before the next).

Durability: cursors and the per-dataset study snapshots are one JSON
*checkpoint* document written with a single atomic replace — a crashed
or SIGKILLed cycle leaves either the previous checkpoint or the new
one, never a torn cursor/study pair, so resuming re-reads at most one
suffix (``tests/test_watch.py`` kill-tests this).  The seen digests
live beside it in one append-only journal per dataset (raw 32-byte
digests, :data:`JOURNAL_PATTERN`): a cycle appends and fsyncs its new
digests *before* the checkpoint replace, and the checkpoint records
each journal's committed length.  A kill between the two leaves a
journal longer than its committed length; resume truncates that torn
tail, so the journal and the checkpoint always agree.  A journal
*shorter* than its committed length lost data and fails loudly.  A
convenience copy of the combined study is kept next to it for
``repro report`` / ``repro merge``; it is derived state, written just
before the checkpoint on every cycle that ingested something (a kill
between the two leaves it ahead of the checkpoint, and the resumed
cycle re-ingests that same suffix and rewrites it).  Idle cycles only
bump the checkpoint's generation.

Limits, by design: watch analyses the Unique corpus (``dedup=True``)
only; the entry format of a file is detected once, at its first
non-empty cycle, and pinned; and directory sources assume files grow
append-only in sorted name order (the one-shot concatenation order).
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..exceptions import StudySnapshotError, WatchStateError
from ..ioutils import atomic_write_text
from ..logs.pipeline import ParsedQuery, QueryLog
from ..logs.sources import (
    _GZIP_MAGIC,
    _PARSERS,
    DETECT_LINES,
    dataset_name,
    detect_format,
    source_paths,
)
from .context import AnalysisOptions
from .parallel import build_query_logs_parallel, measure_chunk
from .passes import resolve_passes, sequence_only_selection
from .snapshot import save_study, study_from_dict, study_to_dict
from .structure_store import StoreBackedStructureCache, open_structure_cache
from .study import CorpusStudy, DatasetStats, _claim_streaks

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA_VERSION",
    "WatchCycle",
    "WatchSession",
]

#: ``kind`` header of a watch checkpoint document.
CHECKPOINT_KIND = "repro.watch_checkpoint"

#: Version of the checkpoint layout (the embedded study dicts carry
#: their own snapshot schema version and migrate independently, so a
#: checkpoint written before a snapshot schema bump keeps loading).
#: Schema 1 carried full-prefix cursor fingerprints and the seen
#: digests inline; it still loads, is verified once with the full
#: prefix hash, and is rewritten as schema 2 by the next cycle.
CHECKPOINT_SCHEMA_VERSION = 2

#: File names inside a watch state directory.  Seen-digest journals
#: are named by the dataset's input position.
CHECKPOINT_NAME = "checkpoint.json"
STUDY_NAME = "study.json"
JOURNAL_PATTERN = "seen-{}.digests"

#: Bytes hashed at each end of a cursor's consumed prefix on resume.
VERIFY_WINDOW = 64 << 10

_DIGEST_SIZE = hashlib.sha256().digest_size
_READ_CHUNK = 1 << 20


def _text_digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def _window_digest(window: bytes) -> str:
    return hashlib.sha256(window).hexdigest()


def _open_logical(path: Path) -> BinaryIO:
    """Open *path* as its logical byte stream (decompressing gzip).

    Compression is recognized by magic bytes, like
    :func:`repro.logs.sources.open_text`; gzip offsets therefore count
    *decompressed* bytes, which stay stable when members are appended
    (``gzip`` reads concatenated members as one stream).
    """
    with path.open("rb") as probe:
        magic = probe.read(len(_GZIP_MAGIC))
    if magic == _GZIP_MAGIC:
        return gzip.open(path, "rb")
    return path.open("rb")


def _consumable_length(data: bytes, format: str, drain: bool) -> int:
    """Length of the longest prefix of *data* ending at an entry boundary.

    Line formats cut after the last newline; block format cuts after
    the last blank separator line, so a block still being written is
    never split.  ``drain`` consumes everything — only correct when
    the writer has finished (the final scheduled cycle).
    """
    if drain:
        return len(data)
    if format == "blocks":
        cut = position = 0
        while True:
            newline = data.find(b"\n", position)
            if newline < 0:
                return cut
            if not data[position:newline].strip():
                cut = newline + 1
            position = newline + 1
    cut = data.rfind(b"\n")
    return 0 if cut < 0 else cut + 1


def _region_lines(data: bytes) -> List[str]:
    """Decode a consumed region exactly as :func:`open_text` would.

    Same wrapper class, same encoding, same ``errors="replace"``, same
    universal-newline translation — and regions always split right
    after ``\\n``, which no UTF-8 multi-byte sequence or ``\\r\\n``
    pair can straddle, so region-wise decoding equals whole-file
    decoding.
    """
    wrapper = io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="replace"
    )
    return [line.rstrip("\n") for line in wrapper]


@dataclass
class _SourceCursor:
    """Resume state of one tailed file."""

    path: str
    format: Optional[str] = None  # pinned at the first non-empty read
    offset: int = 0  # consumed logical bytes
    head: str = ""  # sha256 of the first VERIFY_WINDOW consumed bytes
    tail: str = ""  # sha256 of the VERIFY_WINDOW bytes ending at offset
    legacy: Optional[str] = None  # schema-1 full-prefix fingerprint

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "path": self.path,
            "format": self.format,
            "offset": self.offset,
        }
        if self.legacy is not None:
            # Not re-verified since a schema-1 load (its file left the
            # dataset): keep the fingerprint it can still be checked by.
            document["fingerprint"] = self.legacy
        else:
            document["head"] = self.head
            document["tail"] = self.tail
        return document

    @classmethod
    def from_dict(cls, data: Any, where: str) -> "_SourceCursor":
        if not isinstance(data, dict):
            raise WatchStateError(f"{where}: malformed cursor {data!r}")
        path = data.get("path")
        format = data.get("format")
        offset = data.get("offset")
        legacy = data.get("fingerprint")
        head, tail = data.get("head", ""), data.get("tail", "")
        if (
            not isinstance(path, str)
            or (format is not None and format not in _PARSERS)
            or not isinstance(offset, int)
            or isinstance(offset, bool)
            or offset < 0
            or not (legacy is None or isinstance(legacy, str))
            or not isinstance(head, str)
            or not isinstance(tail, str)
        ):
            raise WatchStateError(f"{where}: malformed cursor {data!r}")
        return cls(
            path=path,
            format=format,
            offset=offset,
            head=head,
            tail=tail,
            legacy=legacy,
        )

    def _shrank(self) -> WatchStateError:
        return WatchStateError(
            f"watched source {self.path}: shrank below the "
            f"{self.offset}-byte cursor (truncated or rotated)"
        )

    def _rewritten(self) -> WatchStateError:
        return WatchStateError(
            f"watched source {self.path}: consumed prefix was "
            "rewritten behind the cursor (rotated or edited)"
        )

    def _read_exact(self, stream: BinaryIO, size: int) -> bytes:
        data = stream.read(size)
        if len(data) < size:
            raise self._shrank()
        return data

    def _verified_windows(self, stream: BinaryIO) -> Tuple[bytes, bytes]:
        """Check the consumed prefix; return its head and tail windows.

        Leaves *stream* positioned at the cursor.  Only the two windows
        are read (a plain file seeks past the middle; a gzip stream's
        seek decompresses it, unhashed), so a prefix of at most two
        windows is checked whole and a longer one at both ends.
        """
        offset = self.offset
        if self.legacy is not None:
            head, tail = self._verified_legacy_prefix(stream)
            self.head, self.tail = _window_digest(head), _window_digest(tail)
            self.legacy = None
            return head, tail
        head = self._read_exact(stream, min(offset, VERIFY_WINDOW))
        skip_to = max(offset - VERIFY_WINDOW, len(head))
        stream.seek(skip_to)
        tail = (head + self._read_exact(stream, offset - skip_to))[
            -VERIFY_WINDOW:
        ]
        if offset and (
            _window_digest(head) != self.head
            or _window_digest(tail) != self.tail
        ):
            raise self._rewritten()
        return head, tail

    def _verified_legacy_prefix(self, stream: BinaryIO) -> Tuple[bytes, bytes]:
        """Schema-1 check: hash the whole prefix against the old
        fingerprint, once, collecting the windows on the way."""
        hasher = hashlib.sha256()
        head = tail = b""
        remaining = self.offset
        while remaining:
            chunk = stream.read(min(_READ_CHUNK, remaining))
            if not chunk:
                raise self._shrank()
            hasher.update(chunk)
            head += chunk[: VERIFY_WINDOW - len(head)]
            tail = (tail + chunk)[-VERIFY_WINDOW:]
            remaining -= len(chunk)
        if self.offset and hasher.hexdigest() != self.legacy:
            raise self._rewritten()
        return head, tail

    def read_new_entries(self, drain: bool) -> List[str]:
        """Verify the consumed prefix, consume complete new entries.

        Advances ``offset`` and the window digests past the consumed
        region and returns its raw query texts (empty when nothing
        complete is new).  Raises :class:`WatchStateError` when the
        on-disk prefix no longer matches what the study already folded
        in, as far as the two verified windows can tell.
        """
        try:
            stream = _open_logical(Path(self.path))
        except OSError as error:
            raise WatchStateError(
                f"watched source {self.path}: unreadable ({error})"
            ) from error
        with stream:
            head, tail = self._verified_windows(stream)
            data = stream.read()
        if not data:
            return []
        if self.format is None:
            # First sight of data: detect like the one-shot reader and
            # pin.  (One-shot detection sees the whole file's peek
            # window at once; appends that would flip the verdict are
            # out of contract — see the module docstring.)
            self.format = detect_format(_region_lines(data)[:DETECT_LINES])
        consumable = _consumable_length(data, self.format, drain)
        if not consumable:
            return []
        region = data[:consumable]
        self.offset += consumable
        self.head = _window_digest(head + region[: VERIFY_WINDOW - len(head)])
        self.tail = _window_digest((tail + region[-VERIFY_WINDOW:])[-VERIFY_WINDOW:])
        return list(_PARSERS[self.format](iter(_region_lines(region))))


@dataclass
class WatchCycle:
    """What one :meth:`WatchSession.cycle` call did."""

    generation: int
    new_entries: Dict[str, int] = field(default_factory=dict)
    changed: bool = False
    diff: str = ""

    @property
    def total_new(self) -> int:
        return sum(self.new_entries.values())


class WatchSession:
    """A resumable incremental-analysis session over growing logs.

    Construct with the input paths (files or directories, one dataset
    each — the same inputs ``repro analyze`` takes) and a *state
    directory*; every :meth:`cycle` call ingests whatever the sources
    grew by, folds it into the running study, and atomically rewrites
    the checkpoint.  Killing the process at any point loses at most
    the in-flight cycle: a new session over the same state directory
    resumes from the last durable checkpoint and converges to the same
    bytes (``tests/test_watch.py``).

    The analysis configuration (metrics, streak parameters, shape
    limit, extra prefixes) is fixed at the first checkpoint; resuming
    with different options raises
    :class:`~repro.exceptions.WatchStateError` rather than mixing
    incompatible measurements into one study.
    """

    def __init__(
        self,
        inputs: Sequence[Union[str, Path]],
        state_dir: Union[str, Path],
        *,
        metrics: Optional[Sequence[str]] = None,
        streak_window: Optional[int] = None,
        streak_threshold: Optional[float] = None,
        shape_node_limit: Optional[int] = None,
        extra_prefixes: Optional[Mapping[str, str]] = None,
        warehouse_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if not inputs:
            raise ValueError("watch needs at least one input file or directory")
        self.inputs: Tuple[str, ...] = tuple(str(path) for path in inputs)
        names = [dataset_name(path) for path in self.inputs]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate dataset name(s) {sorted(duplicates)}; "
                "rename the inputs"
            )
        self._datasets: Tuple[Tuple[str, str], ...] = tuple(
            zip(names, self.inputs)
        )
        self._positions = {name: index for index, name in enumerate(names)}
        self.state_dir = Path(state_dir)
        self.checkpoint_path = self.state_dir / CHECKPOINT_NAME
        self.study_path = self.state_dir / STUDY_NAME
        self.warehouse_path = (
            None if warehouse_path is None else Path(warehouse_path)
        )
        defaults = AnalysisOptions()
        self.options = AnalysisOptions(
            metrics=None if metrics is None else tuple(metrics),
            shape_node_limit=(
                defaults.shape_node_limit
                if shape_node_limit is None
                else shape_node_limit
            ),
            streak_window=(
                defaults.streak_window
                if streak_window is None
                else streak_window
            ),
            streak_threshold=(
                defaults.streak_threshold
                if streak_threshold is None
                else streak_threshold
            ),
            lean_ingestion=sequence_only_selection(metrics),
        )
        resolve_passes(self.options.metrics)  # reject unknown metrics now
        self.extra_prefixes = (
            None if extra_prefixes is None else dict(extra_prefixes)
        )
        self.generation = 0
        self._studies: Dict[str, CorpusStudy] = {}
        self._cursors: Dict[str, _SourceCursor] = {}
        self._seen: Dict[str, Set[bytes]] = {}
        # Per dataset: journal bytes the checkpoint vouches for, and
        # digests seen since that are not in the journal yet.
        self._journaled: Dict[str, int] = {}
        self._unjournaled: Dict[str, List[bytes]] = {}
        if self.checkpoint_path.exists():
            self._load_checkpoint()

    @property
    def study(self) -> Optional[CorpusStudy]:
        """The checkpointed study so far (``None`` before any cycle).

        Derived by stitching the per-dataset studies in input order —
        exactly how a one-shot run over the full sources would fold
        them, so counter key order (and hence snapshot bytes) match.
        """
        if not self._studies:
            return None
        combined = CorpusStudy(dedup=True)
        for name, _ in self._datasets:
            combined.merge(self._studies[name])
        return combined

    # -- configuration identity -------------------------------------

    def _config_dict(self) -> Dict[str, Any]:
        options = self.options
        return {
            "metrics": (
                None if options.metrics is None else list(options.metrics)
            ),
            "streak_window": options.streak_window,
            "streak_threshold": options.streak_threshold,
            "shape_node_limit": options.shape_node_limit,
            "extra_prefixes": self.extra_prefixes,
            "lean": options.lean_ingestion,
        }

    # -- checkpoint I/O ---------------------------------------------

    def _load_checkpoint(self) -> None:
        where = str(self.checkpoint_path)
        try:
            data = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WatchStateError(
                f"{where}: unreadable checkpoint ({error})"
            ) from error
        if not isinstance(data, dict) or data.get("kind") != CHECKPOINT_KIND:
            raise WatchStateError(f"{where}: not a watch checkpoint")
        schema = data.get("schema")
        if schema not in (1, CHECKPOINT_SCHEMA_VERSION):
            raise WatchStateError(
                f"{where}: checkpoint schema {schema!r} is not "
                f"{CHECKPOINT_SCHEMA_VERSION} (written by another version?)"
            )
        if tuple(data.get("inputs", ())) != self.inputs:
            raise WatchStateError(
                f"{where}: checkpoint watches inputs {data.get('inputs')!r}, "
                f"session asks for {list(self.inputs)!r}"
            )
        config = data.get("config")
        if config != self._config_dict():
            raise WatchStateError(
                f"{where}: checkpoint was written under options {config!r}; "
                f"this session asks for {self._config_dict()!r} — one study "
                "cannot mix them"
            )
        generation = data.get("generation")
        if not isinstance(generation, int) or isinstance(generation, bool):
            raise WatchStateError(f"{where}: malformed generation")
        cursors = data.get("cursors")
        if not isinstance(cursors, list):
            raise WatchStateError(f"{where}: malformed cursors")
        known = {name for name, _ in self._datasets}
        if schema == 1:
            seen, unjournaled = self._legacy_seen(data.get("seen"), known, where)
            journaled = {name: 0 for name in seen}
        else:
            journaled = data.get("journals")
            if not isinstance(journaled, dict) or not set(journaled) <= known:
                raise WatchStateError(f"{where}: malformed journal lengths")
            for length in journaled.values():
                if (
                    not isinstance(length, int)
                    or isinstance(length, bool)
                    or length < 0
                    or length % _DIGEST_SIZE
                ):
                    raise WatchStateError(f"{where}: malformed journal lengths")
            seen = {
                name: self._read_journal(name, length)
                for name, length in journaled.items()
            }
            unjournaled = {}
        studies = data.get("studies")
        if not isinstance(studies, dict) or set(studies) != known:
            raise WatchStateError(
                f"{where}: per-dataset studies do not cover the watched "
                f"datasets {sorted(known)}"
            )
        loaded: Dict[str, CorpusStudy] = {}
        for name, document in studies.items():
            try:
                loaded[name] = study_from_dict(document)
            except StudySnapshotError as error:
                raise WatchStateError(
                    f"{where}: study for dataset {name!r}: {error}"
                ) from error
        self.generation = generation
        self._cursors = {}
        for entry in cursors:
            cursor = _SourceCursor.from_dict(entry, where)
            self._cursors[cursor.path] = cursor
        self._seen = seen
        self._journaled = journaled
        self._unjournaled = unjournaled
        self._studies = loaded

    @staticmethod
    def _legacy_seen(
        seen: Any, known: Set[str], where: str
    ) -> Tuple[Dict[str, Set[bytes]], Dict[str, List[bytes]]]:
        """Schema 1 carried hex digests inline; they all go to journals."""
        malformed = WatchStateError(f"{where}: malformed seen-digest map")
        if not isinstance(seen, dict) or not set(seen) <= known:
            raise malformed
        sets: Dict[str, Set[bytes]] = {}
        for name, digests in seen.items():
            try:
                sets[name] = {bytes.fromhex(digest) for digest in digests}
            except (TypeError, ValueError):
                raise malformed from None
            if any(len(digest) != _DIGEST_SIZE for digest in sets[name]):
                raise malformed
        return sets, {name: sorted(digests) for name, digests in sets.items()}

    def _journal_path(self, name: str) -> Path:
        return self.state_dir / JOURNAL_PATTERN.format(self._positions[name])

    def _read_journal(self, name: str, length: int) -> Set[bytes]:
        """The digests of *name*'s journal up to its committed length.

        A longer file holds the torn tail of a cycle killed between its
        journal append and its checkpoint replace; it is truncated.
        """
        path = self._journal_path(name)
        if not length and not path.exists():
            return set()
        try:
            with path.open("r+b") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size > length:
                    handle.truncate(length)
                data = handle.read(length)
        except OSError as error:
            raise WatchStateError(
                f"{path}: unreadable seen-digest journal ({error})"
            ) from error
        if len(data) < length:
            raise WatchStateError(
                f"{path}: seen-digest journal has {len(data)} bytes, "
                f"fewer than the {length} the checkpoint committed"
            )
        return {
            data[start : start + _DIGEST_SIZE]
            for start in range(0, length, _DIGEST_SIZE)
        }

    def _append_journals(self) -> None:
        """Append and fsync every digest not yet journaled."""
        for name, digests in self._unjournaled.items():
            if not digests:
                continue
            committed = self._journaled.get(name, 0)
            # A fresh journal overwrites whatever an uncommitted run
            # may have left under its name.
            with self._journal_path(name).open("ab" if committed else "wb") as handle:
                handle.write(b"".join(digests))
                handle.flush()
                os.fsync(handle.fileno())
            self._journaled[name] = committed + len(digests) * _DIGEST_SIZE
        self._unjournaled = {}

    def _write_checkpoint(self, combined: Optional[CorpusStudy]) -> None:
        """Persist the cycle; *combined* (the derived study) is ``None``
        on idle cycles, which leave ``study.json`` untouched."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        if combined is not None:
            # Derived convenience snapshot (repro report / merge load
            # it; resume never does).  Written first: a kill before the
            # checkpoint replace leaves it ahead, and the resumed cycle
            # re-ingests the same suffix and rewrites it.
            save_study(combined, self.study_path)
        # The journals must hold every digest the checkpoint commits.
        self._append_journals()
        document = {
            "kind": CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "generation": self.generation,
            "inputs": list(self.inputs),
            "config": self._config_dict(),
            "cursors": [cursor.to_dict() for cursor in self._cursors.values()],
            "journals": dict(self._journaled),
            "studies": {
                name: study_to_dict(self._studies[name])
                for name, _ in self._datasets
            },
        }
        # One atomic replace carries cursors, journal lengths and
        # studies: a kill leaves the previous checkpoint or this one,
        # never a torn set.
        atomic_write_text(
            self.checkpoint_path,
            json.dumps(document, separators=(",", ":")) + "\n",
        )

    # -- the cycle ----------------------------------------------------

    def cycle(self, drain: bool = False) -> WatchCycle:
        """Ingest whatever the sources grew by; checkpoint; report.

        With ``drain`` the unterminated tail of every source is
        consumed as a final entry (use on the last scheduled cycle,
        when the writer is done).  Returns the cycle's outcome,
        including a diff report: what changed in Tables 1–6 since the
        previous checkpoint.
        """
        # Reporting imports lazily: analysis must stay importable
        # without the reporting layer (and vice versa).
        from ..reporting.reporters import render_rows_diff, study_long_rows

        first = not self._studies
        new_texts: Dict[str, List[str]] = {}
        for name, spec in self._datasets:
            texts: List[str] = []
            for file_path in source_paths(spec):
                key = str(file_path)
                cursor = self._cursors.get(key)
                if cursor is None:
                    cursor = self._cursors[key] = _SourceCursor(path=key)
                texts.extend(cursor.read_new_entries(drain))
            new_texts[name] = texts
        counts = {name: len(texts) for name, texts in new_texts.items()}
        changed = any(counts.values())
        self.generation += 1
        if not (changed or first):
            # Idle: nothing to fold or diff; the checkpoint still
            # records the generation (and any advanced cursors).
            self._write_checkpoint(None)
            return WatchCycle(generation=self.generation, new_entries=counts)
        previous_rows = [] if first else study_long_rows(self.study)
        # The first cycle folds every dataset in, entries or not, so
        # the study lists them exactly like a one-shot run would;
        # later cycles only touch datasets that grew.
        corpora = {
            name: texts for name, texts in new_texts.items() if first or texts
        }
        logs = build_query_logs_parallel(
            corpora,
            self.extra_prefixes,
            workers=1,
            options=self.options,
        )
        deltas: Dict[str, CorpusStudy] = {}
        for name in corpora:
            delta = self._measure_delta(name, logs[name])
            deltas[name] = delta
            if name in self._studies:
                self._studies[name].merge(delta)
            else:
                self._studies[name] = delta
        combined = self.study
        self._write_checkpoint(combined)
        if self.warehouse_path is not None:
            # The warehouse accumulates by merging, so it gets the
            # cycle's *delta* (cumulative checkpoints would
            # double-count); its merged study then tracks the
            # checkpoint study.
            from ..warehouse import StudyWarehouse

            cycle_delta = CorpusStudy(dedup=True)
            for name, _ in self._datasets:
                if name in deltas:
                    cycle_delta.merge(deltas[name])
            with StudyWarehouse.open(self.warehouse_path) as warehouse:
                warehouse.ingest(
                    cycle_delta,
                    source=f"watch:{self.state_dir}@{self.generation}",
                )
        return WatchCycle(
            generation=self.generation,
            new_entries=counts,
            changed=changed,
            diff=render_rows_diff(previous_rows, study_long_rows(combined)),
        )

    def _measure_delta(self, name: str, log: QueryLog) -> CorpusStudy:
        """Measure one dataset's cycle slice as a mergeable partial study.

        Table 1 counters are the slice's own (they add across cycles);
        the measured stream is the slice's *first-ever* occurrences —
        concatenated over cycles that is the one-shot unique stream, in
        order, which is what makes checkpoint ≡ one-shot exact.  The
        measuring itself is :func:`~repro.analysis.parallel.measure_chunk`,
        the study driver's chunk body.
        """
        seen = self._seen.setdefault(name, set())
        unjournaled = self._unjournaled.setdefault(name, [])
        fresh: List[ParsedQuery] = []
        for parsed in log.unique_queries():
            digest = _text_digest(parsed.text)
            if digest in seen:
                continue
            seen.add(digest)
            unjournaled.append(digest)
            fresh.append(parsed)
        study = CorpusStudy(dedup=True)
        study.datasets[name] = DatasetStats(
            name=name,
            total=log.total,
            valid=log.valid,
            unique=len(fresh),
            streaks=_claim_streaks(name, log),
        )
        cache = open_structure_cache(self.options)
        try:
            return study.merge(
                measure_chunk(name, fresh, options=self.options, cache=cache)
            )
        finally:
            if isinstance(cache, StoreBackedStructureCache):
                cache.close()

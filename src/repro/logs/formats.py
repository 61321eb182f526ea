"""Endpoint log-line formats.

Real SPARQL endpoint logs (the USEWOD and Openlink files the paper
analyzed) are HTTP access logs whose request lines carry the query
URL-encoded in a ``query=`` parameter.  This module round-trips that
format so the pipeline can be exercised end-to-end: raw access-log
lines in, query texts out.
"""

from __future__ import annotations

import re
import urllib.parse
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

from ..exceptions import LogFormatError

__all__ = ["LogEntry", "encode_access_log_line", "parse_access_log_line", "iter_queries"]

_REQUEST_RE = re.compile(
    r'^(?P<host>\S+) \S+ \S+ \[(?P<time>[^\]]*)\] '
    r'"(?P<method>GET|POST) (?P<path>\S+) HTTP/[\d.]+" '
    r"(?P<status>\d{3}) (?P<size>\d+|-)"
)


@dataclass(frozen=True)
class LogEntry:
    """One decoded log line."""

    host: str
    timestamp: str
    method: str
    path: str
    status: int
    query: Optional[str]  # decoded query text, if the line carried one


def encode_access_log_line(
    query: str,
    host: str = "192.0.2.1",
    timestamp: str = "01/Jan/2015:00:00:00 +0000",
    endpoint: str = "/sparql",
    status: int = 200,
) -> str:
    """Render *query* as an Apache-combined-style access-log line."""
    encoded = urllib.parse.quote(query, safe="")
    return (
        f'{host} - - [{timestamp}] '
        f'"GET {endpoint}?query={encoded}&format=json HTTP/1.1" {status} 1234'
    )


def parse_access_log_line(line: str) -> LogEntry:
    """Decode one access-log line.

    Raises :class:`~repro.exceptions.LogFormatError` if the line is not
    an access-log line at all.  Lines without a ``query=`` parameter
    decode with ``query=None`` — these are the "entries that were not
    queries" the paper's cleaning step drops.
    """
    match = _REQUEST_RE.match(line)
    if match is None:
        raise LogFormatError(f"not an access-log line: {line[:80]!r}")
    path = match.group("path")
    query_text: Optional[str] = None
    if "?" in path:
        _, _, query_string = path.partition("?")
        parameters = urllib.parse.parse_qs(query_string, keep_blank_values=True)
        values = parameters.get("query")
        if values:
            query_text = values[0]
    return LogEntry(
        host=match.group("host"),
        timestamp=match.group("time"),
        method=match.group("method"),
        path=path,
        status=int(match.group("status")),
        query=query_text,
    )


def _query_parameter(query_string: str) -> Optional[str]:
    """The decoded first ``query`` parameter of a URL query string.

    Returns exactly what ``parse_qs(query_string,
    keep_blank_values=True).get("query", [None])[0]`` does, without
    decoding the other parameters: fields split on ``&``, empty fields
    are skipped, a field without ``=`` has a blank value, and names and
    values decode with ``+`` as space and UTF-8 ``%`` escapes (invalid
    bytes become U+FFFD).
    """
    for field in query_string.split("&"):
        if not field:
            continue
        name, _, value = field.partition("=")
        if name == "query" or (
            "%" in name and urllib.parse.unquote(name.replace("+", " ")) == "query"
        ):
            return urllib.parse.unquote(value.replace("+", " "))
    return None


def iter_queries(lines: Iterable[str]) -> Iterator[str]:
    """Extract the query texts from access-log *lines*, skipping
    non-query lines (malformed lines are skipped too — cleaning, not
    validation, happens here).

    Yields what :func:`parse_access_log_line` decodes into
    ``LogEntry.query``.  Endpoint logs repeat the same requests many
    times, so each distinct request target is decoded once per call and
    its repeats yield the same string; the memo holds one entry per
    distinct target, the same bound as the parse cache's one per
    distinct text.
    """
    decoded: Dict[str, Optional[str]] = {}
    match_request = _REQUEST_RE.match
    for line in lines:
        match = match_request(line)
        if match is None:
            continue
        path = match.group("path")
        try:
            query = decoded[path]
        except KeyError:
            query = None
            if "?" in path:
                query = _query_parameter(path.partition("?")[2])
            decoded[path] = query
        if query is not None:
            yield query

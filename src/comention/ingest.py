"""Article ingest: JSONL parsing, name normalization and checks, alias folding."""

from __future__ import annotations

import csv
import gc
import json
import logging
import re
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date as _date
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError
from .graph import Graph, density

logger = logging.getLogger(__name__)

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
# what XML 1.0 forbids even as a character reference
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")

AliasMap = dict[str, str]  # alias -> canonical, idempotent by construction


def normalize_name(raw: str) -> str:
    """NFC-normalize and collapse internal whitespace."""
    return " ".join(unicodedata.normalize("NFC", raw).split())


@dataclass(frozen=True, slots=True)
class ArticleRecord:
    """One ingested article: id, ordered distinct persons, optional title/date."""

    id: str
    persons: tuple[str, ...]
    title: str | None = None
    date: str | None = None


_JSON = json.JSONDecoder()


def _json_value(payload: str):
    """``json.loads(payload)``, errors included.  A line that is one JSON value
    and its newline skips ``decode``'s whitespace scans."""
    try:
        value, end = _JSON.raw_decode(payload)
        if payload[end:] in ("", "\n"):
            return value
    except json.JSONDecodeError:
        pass  # decode below raises what json.loads would
    if payload.startswith("\ufeff"):  # as json.loads rejects it
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", payload, 0)
    return _JSON.decode(payload)


def _name_error(name: str) -> str | None:
    """Why ``name`` cannot be written out as UTF-8 XML, or None."""
    if name.isascii() and name.isprintable():  # no control character
        return None
    try:  # a \ud800 escape gives a lone surrogate, which UTF-8 cannot hold
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"is not valid Unicode: {exc.reason}"
    bad = _XML_FORBIDDEN.search(name)
    return None if bad is None else f"holds {bad.group()!r}, which XML 1.0 forbids"


class _Memo:
    """What one parse has already checked: raw mention -> folded name, and
    the dates found valid."""

    def __init__(self, aliases: Mapping[str, str]):
        self.names: dict[str, str] = {}
        self.known = self.names.__getitem__
        self.dates: set[str] = set()
        self.fold = aliases.get

    def name(self, raw, lineno: int) -> str:
        if not isinstance(raw, str):  # before the lookup: a list is unhashable
            raise DataError(f"line {lineno}: person entries must be strings, got {raw!r}")
        name = self.names.get(raw)
        if name is None:
            name = normalize_name(raw)
            problem = _name_error(name)
            if problem:
                raise DataError(f"line {lineno}: person name {raw!r} {problem}")
            name = self.names[raw] = self.fold(name, name)
        return name

    def check_date(self, when, lineno: int) -> None:
        if not isinstance(when, str) or not _DATE_RE.match(when):
            raise DataError(f"line {lineno}: 'date' must look like YYYY-MM-DD")
        try:
            _date.fromisoformat(when)
        except ValueError as exc:
            raise DataError(f"line {lineno}: 'date' is not a real calendar date: {when}") from exc
        self.dates.add(when)


def _parse_line(payload: str, lineno: int, memo: _Memo) -> ArticleRecord | None:
    try:
        obj = _json_value(payload)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"line {lineno}: record must be a JSON object")

    rid = obj.get("id")
    if not isinstance(rid, str) or not (rid := rid.strip()):
        raise DataError(f"line {lineno}: 'id' must be a non-empty string")

    title = obj.get("title")
    if title is not None and not isinstance(title, str):
        raise DataError(f"line {lineno}: 'title' must be a string when present")

    when = obj.get("date")
    if when is not None and not (isinstance(when, str) and when in memo.dates):
        memo.check_date(when, lineno)

    persons_raw = obj.get("persons")
    if not isinstance(persons_raw, list):
        raise DataError(f"line {lineno}: 'persons' must be a list of strings")
    try:  # every mention seen before: one pass in C
        persons = dict.fromkeys(map(memo.known, persons_raw))  # insertion-ordered set
    except (KeyError, TypeError):
        persons = dict.fromkeys([memo.name(raw, lineno) for raw in persons_raw])
    persons.pop("", None)
    if not persons:
        logger.warning("line %d: record %r mentions no usable person, skipping", lineno, rid)
        return None
    return ArticleRecord(rid, tuple(persons), title, when)


def parse_articles(lines: Iterable[str],
                   aliases: Mapping[str, str] | None = None) -> list[ArticleRecord]:
    """Parse JSONL article records, folding aliased names.

    Each non-blank line must be an object with a non-empty string ``id`` and a
    ``persons`` list; ``title`` and ``date`` (YYYY-MM-DD) are optional.  Person
    names are normalized, renamed by ``aliases`` (an idempotent alias ->
    canonical map, as :func:`load_aliases` returns) and deduplicated per
    record, first mention first.  A malformed line, or a name that XML 1.0
    cannot carry, raises :class:`DataError` carrying its line number; a record
    left with no persons is skipped with a warning.
    """
    records: list[ArticleRecord] = []
    memo = _Memo(aliases or {})
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        record = _parse_line(line, lineno, memo)
        if record is not None:
            records.append(record)
    return records


@contextmanager
def open_text(path, newline=None):
    """``path`` opened as UTF-8 text; a byte that is not UTF-8 raises DataError naming it."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from exc


@contextmanager
def collector_paused():
    """Run the block with Python's cyclic garbage collector paused.

    Ingest builds no reference cycle, but with the collector on, each burst of
    allocations rescans every record kept so far.  On the way out the
    collector is restored as it was; if it was on, ``freeze`` + ``unfreeze``
    first moves every tracked object to the oldest generation without a scan
    (unless some other code keeps objects frozen), so the young-generation
    collection that would follow does not scan all that was built once more.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def load_articles(path, aliases: Mapping[str, str] | None = None) -> list[ArticleRecord]:
    """:func:`parse_articles` over a JSONL file; errors name the file."""
    with open_text(path) as fh:
        try:
            return parse_articles(fh, aliases)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc


def read_name_pairs(path, header: tuple[str, str]) -> Iterator[tuple[int, str, str]]:
    """``(lineno, first, second)`` per row of a two-column CSV, names normalized.

    The first row must be ``header`` (case-insensitive) and blank rows are
    skipped; a wrong header, a short row or a blank field raises
    :class:`DataError` naming the file and line.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip().lower() for h in first[:2]] != list(header):
            raise DataError(f"{path}: expected header '{','.join(header)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise DataError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
            a, b = normalize_name(row[0]), normalize_name(row[1])
            if not a or not b:
                raise DataError(f"{path}: line {lineno}: blank {header[0] if not a else header[1]}")
            for name in (a, b):
                problem = _name_error(name)
                if problem:
                    raise DataError(f"{path}: line {lineno}: name {name!r} {problem}")
            yield lineno, a, b


def load_aliases(path) -> dict[str, str]:
    """Load an alias,canonical CSV into a one-step rename map.

    The map must be idempotent: a canonical name may never itself appear as an
    alias (no chains), and one alias cannot point at two targets.  Rows that
    map a name to itself are dropped with a warning.
    """
    aliases: dict[str, str] = {}
    for lineno, alias, canonical in read_name_pairs(path, ("alias", "canonical")):
        if alias == canonical:
            logger.warning("%s: line %d: %r maps to itself, ignoring", path, lineno, alias)
            continue
        if alias in aliases and aliases[alias] != canonical:
            raise DataError(f"{path}: line {lineno}: alias {alias!r} maps to both "
                            f"{aliases[alias]!r} and {canonical!r}")
        aliases[alias] = canonical
    for alias, canonical in aliases.items():
        if canonical in aliases:
            raise DataError(f"{path}: chained alias: {alias!r} -> {canonical!r} -> "
                            f"{aliases[canonical]!r}")
    return aliases


def ingest_stats(records: Sequence[ArticleRecord], g: Graph) -> dict:
    """Corpus-level counts next to the graph ``g`` built from ``records``.

    Every distinct co-mention pair is one edge of ``g``, so ``unique_pairs``
    is its edge count.
    """
    persons: set[str] = set()
    pair_slots = 0
    dates: list[str] = []
    for record in records:
        persons.update(record.persons)
        k = len(record.persons)
        pair_slots += k * (k - 1) // 2
        if record.date:
            dates.append(record.date)
    return {
        "articles": len(records),
        "persons_distinct": len(persons),
        "pair_slots": pair_slots,
        "unique_pairs": g.edge_count,
        "nodes": g.node_count,
        "edges": g.edge_count,
        "density": density(g.node_count, g.edge_count),
        "date_min": min(dates) if dates else None,
        "date_max": max(dates) if dates else None,
    }

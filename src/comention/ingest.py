"""Article ingest: JSONL parsing, name normalization and checks, alias folding."""

from __future__ import annotations

import csv
import json
import logging
import re
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date as _date
from typing import Iterable, Iterator, Mapping

import numpy as np

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


@dataclass(frozen=True, eq=False)
class Articles:
    """A parsed corpus in columns, one integer key per distinct person.

    ``names[key]`` is the folded name of ``key``; ``keys`` holds each kept
    record's distinct persons end to end, first mention first, and ``sizes``
    the number of persons in each kept record; ``dates`` holds the distinct
    dates of kept records.  ``len()`` is the number of kept records.
    """

    names: tuple[str, ...]
    keys: np.ndarray
    sizes: np.ndarray
    dates: frozenset[str]

    def __len__(self) -> int:
        return self.sizes.size


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
    """What one parse has already checked: raw mention -> key of its folded
    name (-1 for a blank one), folded name -> key, and the dates found valid.

    Keys count the folded names in the order they are first mentioned.
    """

    def __init__(self, aliases: Mapping[str, str]):
        self.keys: dict[str, int] = {}
        self.known = self.keys.__getitem__
        self.index: dict[str, int] = {}
        self.dates: set[str] = set()
        self.fold = aliases.get

    def key(self, raw, lineno: int) -> int:
        if not isinstance(raw, str):  # before the lookup: a list is unhashable
            raise DataError(f"line {lineno}: person entries must be strings, got {raw!r}")
        key = self.keys.get(raw)
        if key is None:
            name = normalize_name(raw)
            problem = _name_error(name)
            if problem:
                raise DataError(f"line {lineno}: person name {raw!r} {problem}")
            name = self.fold(name, name)
            key = self.keys[raw] = self.index.setdefault(name, len(self.index)) if name else -1
        return key

    def check_date(self, when, lineno: int) -> None:
        if not isinstance(when, str) or not _DATE_RE.match(when):
            raise DataError(f"line {lineno}: 'date' must look like YYYY-MM-DD")
        try:
            _date.fromisoformat(when)
        except ValueError as exc:
            raise DataError(f"line {lineno}: 'date' is not a real calendar date: {when}") from exc
        self.dates.add(when)


def _parse_line(payload: str, lineno: int, memo: _Memo) -> tuple[dict, str | None] | None:
    """The record's distinct person keys (an insertion-ordered dict) and its
    date, or None for a record left with no persons."""
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
        persons = dict.fromkeys([memo.key(raw, lineno) for raw in persons_raw])
    persons.pop(-1, None)
    if not persons:
        logger.warning("line %d: record %r mentions no usable person, skipping", lineno, rid)
        return None
    return persons, when


def parse_articles(lines: Iterable[str], aliases: Mapping[str, str] | None = None) -> Articles:
    """Parse JSONL article records, folding aliased names, into columns.

    Each non-blank line must be an object with a non-empty string ``id`` and a
    ``persons`` list; ``title`` and ``date`` (YYYY-MM-DD) are optional and
    only checked, as is the id.  Person names are normalized, renamed by
    ``aliases`` (an idempotent alias -> canonical map, as :func:`load_aliases`
    returns) and deduplicated per record, first mention first.  A malformed
    line, or a name that XML 1.0 cannot carry, raises :class:`DataError`
    carrying its line number; a record left with no persons is skipped with a
    warning.
    """
    memo = _Memo(aliases or {})
    keys: list[int] = []
    sizes: list[int] = []
    dates: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        kept = _parse_line(line, lineno, memo)
        if kept is not None:
            persons, when = kept
            keys += persons
            sizes.append(len(persons))
            if when is not None:
                dates.add(when)
    return Articles(tuple(memo.index), np.array(keys, dtype=np.int64),
                    np.array(sizes, dtype=np.int64), frozenset(dates))


@contextmanager
def open_text(path, newline=None):
    """``path`` opened as UTF-8 text; a byte that is not UTF-8 raises DataError naming it."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def load_articles(path, aliases: Mapping[str, str] | None = None) -> Articles:
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
        if first and first[0].startswith("\ufeff"):  # the header would look right
            raise DataError(f"{path}: line 1: unexpected UTF-8 byte-order mark (BOM); "
                            "save the file without one")
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


def read_edge_pairs(path) -> list[tuple[str, str]]:
    """Named pairs of a two-column CSV with a source,target header.

    Names are normalized the same way article ingest normalizes them, so a
    round trip through disk reproduces the graph exactly.
    """
    pairs = [(a, b) for _, a, b in read_name_pairs(path, ("source", "target"))]
    if not pairs:
        raise DataError(f"{path}: no edges")
    return pairs


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


def ingest_stats(articles: Articles, g: Graph) -> dict:
    """Corpus-level counts next to the graph ``g`` built from ``articles``.

    Every distinct co-mention pair is one edge of ``g``, so ``unique_pairs``
    is its edge count.
    """
    sizes, dates = articles.sizes, articles.dates
    return {
        "articles": len(articles),
        "persons_distinct": int(np.count_nonzero(np.bincount(articles.keys,
                                                             minlength=len(articles.names)))),
        "pair_slots": int((sizes * (sizes - 1) // 2).sum()),
        "unique_pairs": g.edge_count,
        "nodes": g.node_count,
        "edges": g.edge_count,
        "density": density(g.node_count, g.edge_count),
        "date_min": min(dates) if dates else None,
        "date_max": max(dates) if dates else None,
    }

"""Streaming readers and writers for corpus records.

Two on-disk shapes are supported:

* line-delimited: one JSON object per line with keys ``text`` (required),
  ``url``, ``id`` and ``source``; written back in the fixed key order
  id, url, source, text.
* plain text blocks: UTF-8 text split on blank lines, one record per
  block (parliamentary-transcript corpora ship this way).

Readers are generators with O(1) memory in the file size; malformed
lines are counted and skipped, never abort the stream. Invalid byte
sequences are replaced with U+FFFD rather than rejected, because the
heavy filtering happens downstream in curation, not at ingest. One
UTF-8 byte order mark at the very start of a file is dropped.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from lusokit.textutil import BOM, blake2b

log = logging.getLogger(__name__)

FORMAT_LINE_DELIMITED = "jsonl"
FORMAT_PLAIN_TEXT_BLOCKS = "blocks"


class Source(Enum):
    OSCAR = "OSCAR"
    CULTURAX = "CulturaX"
    DCEP = "DCEP"
    EUROPARL = "Europarl"
    PARLAMENTO_PT = "ParlamentoPT"
    OTHER = "Other"


_SOURCE_BY_LOWER = {member.value.lower(): member for member in Source}


def parse_source(name: str | None, default: Source = Source.OTHER) -> Source:
    """Case-insensitive source lookup; unknown tags map to the default."""
    if not name:
        return default
    return _SOURCE_BY_LOWER.get(name.strip().lower(), default)


@dataclass(frozen=True, slots=True)
class CorpusRecord:
    """One web-crawl document. Immutable, safe to share across workers."""

    id: str
    text: str
    url: str | None = None
    source: Source = Source.OTHER


@dataclass(slots=True)
class IngestReport:
    """Counters filled in while a read stream is consumed.

    Final only after the stream is exhausted. In line-delimited mode the
    accounting unit is one line, so records_read + records_malformed
    equals the number of lines consumed; in block mode the unit is one
    blank-line-separated block.
    """

    records_read: int = 0
    records_malformed: int = 0
    bytes_read: int = 0


def _synth_id(text: str, line_no: int) -> str:
    digest = blake2b(text.encode("utf-8"), digest_size=6).hexdigest()
    return f"{digest}#{line_no}"


def read_records(path: str | Path) -> tuple[Iterator[CorpusRecord], IngestReport]:
    """Open a line-delimited corpus file and return (record stream, ingest report).

    The report object is shared with the generator and carries the final
    counts once the stream has been fully consumed. An unreadable path
    raises immediately; malformed content never does. The records are
    ``parse_units`` over the file's ``read_units``; a blocks file is read
    with those two directly.

    Note: id uniqueness within a file is an input contract, not checked
    here; tracking seen ids would break the bounded-memory guarantee of
    streaming reads.
    """
    handle = Path(path).open("rb")  # propagate unreadable-path errors eagerly

    def units() -> Iterator[bytes]:
        with handle:
            yield from read_units(handle)

    return parse_units(units())


def _check_format(format: str) -> None:
    if format not in (FORMAT_LINE_DELIMITED, FORMAT_PLAIN_TEXT_BLOCKS):
        raise ValueError(f"unknown corpus format: {format!r}")


def _decode(raw: bytes, file_start: bool) -> str:
    """Text of raw bytes; at the start of a file, without one leading byte order mark."""
    return (raw.removeprefix(BOM) if file_start else raw).decode("utf-8", errors="replace")


def read_units(handle: BinaryIO, format: str = FORMAT_LINE_DELIMITED) -> Iterator[bytes]:
    """Split a binary corpus stream into the raw units ``parse_units`` reads.

    A unit is one line (newline included) in line-delimited mode. In
    block mode it is one block's lines with the blank lines before it;
    blank lines at the end of the stream form a last unit of their own.
    Every byte of the stream is in exactly one unit.
    """
    _check_format(format)
    if format == FORMAT_LINE_DELIMITED:
        return iter(handle)
    return _blocks(handle)


def _blocks(handle: BinaryIO) -> Iterator[bytes]:
    unit: list[bytes] = []
    has_text = False
    for line_no, raw in enumerate(handle):
        blank = not _decode(raw, line_no == 0).strip()
        if blank and has_text:
            yield b"".join(unit)
            unit, has_text = [], False
        unit.append(raw)
        has_text = has_text or not blank
    if unit:
        yield b"".join(unit)


def parse_units(
    units: Iterable[bytes],
    start: int = 0,
    format: str = FORMAT_LINE_DELIMITED,
    default_source: Source = Source.OTHER,
    name: str = "",
) -> tuple[Iterator[CorpusRecord], IngestReport]:
    """Parse raw units as ``read_units`` splits them; (record stream, report).

    start is the index of the first unit in its file, so a file may be
    parsed whole or in chunks with the same records: unit i is line i + 1
    (a record without an id gets one synthesized from its text and line
    number) or block i (id ``name#i``). The file's first unit (start 0)
    loses one leading UTF-8 byte order mark; bytes_read still counts it.
    The report is final once the stream is exhausted.
    """
    _check_format(format)
    report = IngestReport()
    if format == FORMAT_LINE_DELIMITED:
        stream = _parse_lines(units, start, default_source, report)
    else:
        stream = _parse_blocks(units, start, name, default_source, report)
    return stream, report


def _parse_lines(
    units: Iterable[bytes], start: int, default_source: Source, report: IngestReport
) -> Iterator[CorpusRecord]:
    for index, raw in enumerate(units, start):
        report.bytes_read += len(raw)
        line = _decode(raw, index == 0).strip()
        record = _parse_record_line(line, index + 1, default_source)
        if record is None:
            report.records_malformed += 1
            log.debug("skipping malformed line %d", index + 1)
        else:
            report.records_read += 1
            yield record


def _parse_record_line(
    line: str, line_no: int, default_source: Source
) -> CorpusRecord | None:
    if not line:
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict):
        return None
    text = obj.get("text")
    if not isinstance(text, str):
        return None
    url = obj.get("url")
    if url is not None and not isinstance(url, str):
        return None
    rec_id = obj.get("id")
    if rec_id is not None and not isinstance(rec_id, str):
        return None
    # Only a \u escape can put a lone surrogate, which no output can
    # encode, into a decoded line. Testing for a backslash first is about
    # 20 times cheaper than the two escape searches on a line without one.
    if "\\" in line and ("\\ud" in line or "\\uD" in line):
        try:
            f"{rec_id}{url}{text}".encode("utf-8")
        except UnicodeEncodeError:
            return None
    if not rec_id:
        rec_id = _synth_id(text, line_no)
    source_tag = obj.get("source")
    if source_tag is not None and not isinstance(source_tag, str):
        return None
    return CorpusRecord(
        id=rec_id,
        text=text,
        url=url,
        source=parse_source(source_tag, default_source),
    )


def _parse_blocks(
    units: Iterable[bytes], start: int, name: str, default_source: Source, report: IngestReport
) -> Iterator[CorpusRecord]:
    for index, raw in enumerate(units, start):
        report.bytes_read += len(raw)
        text = _decode(raw, index == 0)
        lines = [line.rstrip("\r") for line in text.split("\n") if line.strip()]
        if lines:
            report.records_read += 1
            yield CorpusRecord(
                id=f"{name}#{index}", text="\n".join(lines), url=None, source=default_source
            )


def record_to_json(record: CorpusRecord) -> str:
    """Serialize one record in the fixed key order id, url, source, text."""
    obj: dict[str, object] = {"id": record.id}
    if record.url is not None:
        obj["url"] = record.url
    obj["source"] = record.source.value
    obj["text"] = record.text
    return json.dumps(obj, ensure_ascii=False)


def write_records(records: Iterable[CorpusRecord], path: str | Path) -> int:
    """Write records as line-delimited JSON; returns the count written.

    Round-trips exactly: read_records over the written file reproduces
    the input field for field.
    """
    count = 0
    with Path(path).open("w", encoding="utf-8") as out:
        for record in records:
            out.write(record_to_json(record))
            out.write("\n")
            count += 1
    return count

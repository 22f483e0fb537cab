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
heavy filtering happens downstream in curation, not at ingest.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

log = logging.getLogger(__name__)

FORMAT_LINE_DELIMITED = "line_delimited"
FORMAT_PLAIN_TEXT_BLOCKS = "plain_text_blocks"


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

    def __reduce__(self):
        # Records cross to worker processes by pickle; rebuilding from
        # the fields takes a third of the time of the dataclass's state.
        return (CorpusRecord, (self.id, self.text, self.url, self.source))


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
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=6).hexdigest()
    return f"{digest}#{line_no}"


def read_records(
    path: str | Path,
    format: str = FORMAT_LINE_DELIMITED,
    default_source: Source = Source.OTHER,
) -> tuple[Iterator[CorpusRecord], IngestReport]:
    """Open a corpus file and return (record stream, ingest report).

    The report object is shared with the generator and carries the final
    counts once the stream has been fully consumed. An unreadable path
    raises immediately; malformed content never does.

    Note: id uniqueness within a file is an input contract, not checked
    here; tracking seen ids would break the bounded-memory guarantee of
    streaming reads.
    """
    path = Path(path)
    if format not in (FORMAT_LINE_DELIMITED, FORMAT_PLAIN_TEXT_BLOCKS):
        raise ValueError(f"unknown corpus format: {format!r}")
    handle = path.open("rb")  # propagate unreadable-path errors eagerly
    report = IngestReport()
    if format == FORMAT_LINE_DELIMITED:
        stream = _read_line_delimited(handle, report, default_source)
    else:
        stream = _read_plain_text_blocks(handle, path.name, report, default_source)
    return stream, report


def _read_line_delimited(
    handle, report: IngestReport, default_source: Source
) -> Iterator[CorpusRecord]:
    with handle:
        for line_no, raw in enumerate(handle, start=1):
            report.bytes_read += len(raw)
            line = raw.decode("utf-8", errors="replace").strip()
            record = _parse_record_line(line, line_no, default_source)
            if record is None:
                report.records_malformed += 1
                log.debug("skipping malformed line %d", line_no)
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


def _read_plain_text_blocks(
    handle, filename: str, report: IngestReport, default_source: Source
) -> Iterator[CorpusRecord]:
    block_index = 0
    pending: list[str] = []
    with handle:
        for raw in handle:
            report.bytes_read += len(raw)
            line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
            if line.strip():
                pending.append(line)
            elif pending:
                yield _block_record(filename, block_index, pending, default_source)
                report.records_read += 1
                block_index += 1
                pending = []
        if pending:
            yield _block_record(filename, block_index, pending, default_source)
            report.records_read += 1


def _block_record(
    filename: str, index: int, lines: list[str], source: Source
) -> CorpusRecord:
    return CorpusRecord(
        id=f"{filename}#{index}",
        text="\n".join(lines),
        url=None,
        source=source,
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

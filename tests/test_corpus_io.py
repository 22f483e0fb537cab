"""Record I/O: streaming reads, malformed tolerance, round trips."""

import io
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusokit.corpus_io import (
    FORMAT_LINE_DELIMITED,
    FORMAT_PLAIN_TEXT_BLOCKS,
    CorpusRecord,
    Source,
    parse_source,
    parse_units,
    read_records,
    read_units,
    record_to_json,
    write_records,
)

BOM = b"\xef\xbb\xbf"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLineDelimited:
    def test_reads_records_in_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(
            path,
            [
                json.dumps({"id": "a", "url": "https://x.pt/1", "text": "ola mundo"}),
                json.dumps({"id": "b", "text": "sem url"}),
            ],
        )
        records, report = read_records(path)
        out = list(records)
        assert [r.id for r in out] == ["a", "b"]
        assert out[0].url == "https://x.pt/1"
        assert out[1].url is None
        assert report.records_read == 2
        assert report.records_malformed == 0

    def test_malformed_lines_are_counted_and_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(
            path,
            [
                "not json",
                json.dumps(["a", "list"]),
                json.dumps({"id": 7, "text": "id nao textual"}),
                json.dumps({"id": "x", "text": 9}),
                json.dumps({"id": "ok", "text": "valida"}),
                "",
                json.dumps({"id": "ok2", "url": 3, "text": "url nao textual"}),
            ],
        )
        records, report = read_records(path)
        out = list(records)
        assert [r.id for r in out] == ["ok"]
        assert report.records_read == 1
        assert report.records_malformed == 6

    def test_missing_id_gets_synthesized_deterministically(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [json.dumps({"text": "sem identificador"})] * 2)
        out1 = [r.id for r in read_records(path)[0]]
        out2 = [r.id for r in read_records(path)[0]]
        assert out1 == out2
        assert len(set(out1)) == 2  # line number breaks the tie

    def test_unknown_source_falls_back_to_default(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(
            path,
            [
                json.dumps({"id": "a", "text": "x", "source": "CulturaX"}),
                json.dumps({"id": "b", "text": "y", "source": "inventada"}),
            ],
        )
        out = list(read_records(path)[0])
        assert out[0].source is Source.CULTURAX
        assert out[1].source is Source.OTHER

    def test_bytes_read_counts_whole_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [json.dumps({"id": "a", "text": "ola"})])
        records, report = read_records(path)
        list(records)
        assert report.bytes_read == path.stat().st_size

    def test_leading_byte_order_mark_is_dropped_once(self, tmp_path):
        path = tmp_path / "c.jsonl"
        line = json.dumps({"id": "a", "text": "ola"}).encode() + b"\n"
        path.write_bytes(BOM + line + BOM + line)
        records, report = read_records(path)
        assert [r.id for r in records] == ["a"]
        assert report.records_malformed == 1  # a mark past the file's start stays
        assert report.bytes_read == path.stat().st_size

    def test_unreadable_path_raises_eagerly(self, tmp_path):
        with pytest.raises(OSError):
            read_records(tmp_path / "nope.jsonl")


class TestBlocks:
    def test_blank_separated_blocks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "primeiro bloco\ncontinua aqui\n\n\nsegundo bloco\n", encoding="utf-8"
        )
        with path.open("rb") as handle:
            records, report = parse_units(
                read_units(handle, FORMAT_PLAIN_TEXT_BLOCKS), format=FORMAT_PLAIN_TEXT_BLOCKS
            )
            out = list(records)
        assert len(out) == 2
        assert out[0].text == "primeiro bloco\ncontinua aqui"
        assert out[1].text == "segundo bloco"
        assert out[0].url is None
        assert out[0].id != out[1].id
        assert report.records_read == 2


    def test_leading_byte_order_mark_is_dropped_once(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(BOM + b"\nprimeiro\n\n" + BOM + b"segundo\n")
        with path.open("rb") as handle:
            records, report = parse_units(
                read_units(handle, FORMAT_PLAIN_TEXT_BLOCKS), format=FORMAT_PLAIN_TEXT_BLOCKS,
                name=path.name,
            )
            assert [(r.id, r.text) for r in records] == [
                ("c.txt#0", "primeiro"),
                ("c.txt#1", "\ufeffsegundo"),
            ]
        assert report.bytes_read == path.stat().st_size


def reference_blocks(data: bytes) -> list[str]:
    """Block texts as the line-by-line reader found them, after a leading BOM is dropped."""
    blocks, pending = [], []
    for raw in io.BytesIO(data.removeprefix(BOM)):
        line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
        if line.strip():
            pending.append(line)
        elif pending:
            blocks.append("\n".join(pending))
            pending = []
    if pending:
        blocks.append("\n".join(pending))
    return blocks


UNIT_PIECES = [
    json.dumps({"id": "a", "text": "um dois"}).encode() + b"\n",
    json.dumps({"text": "sem id"}).encode() + b"\n",
    b"not json\n",
    b"\n",
    b"  \t\n",
    b"\r\n",
    b"linha de texto\r\n",
    "\x1c\u00a0\n".encode(),  # whitespace to str.strip, not to bytes.strip
    BOM + json.dumps({"text": "marca"}).encode() + b"\n",
    b"\xff\xfe invalido\n",
    b"sem fim",
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(UNIT_PIECES), max_size=14),
    st.booleans(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([FORMAT_LINE_DELIMITED, FORMAT_PLAIN_TEXT_BLOCKS]),
)
def test_chunks_parse_like_the_whole_file(tmp_path_factory, pieces, bom, size, format):
    data = (BOM if bom else b"") + b"".join(pieces)
    path = tmp_path_factory.mktemp("units") / "c.txt"
    path.write_bytes(data)
    with path.open("rb") as handle:
        units = list(read_units(handle, format))
    assert b"".join(units) == data
    records, report = parse_units(units, format=format, name="c.txt")
    whole = list(records)
    if format == FORMAT_LINE_DELIMITED:
        records, report = read_records(path)
        assert list(records) == whole
    got, counts = [], [0, 0, 0]
    for start in range(0, len(units), size):
        part, part_report = parse_units(units[start:start + size], start, format, name="c.txt")
        got += part
        counts = [
            counts[0] + part_report.records_read,
            counts[1] + part_report.records_malformed,
            counts[2] + part_report.bytes_read,
        ]
    assert got == whole
    assert counts == [report.records_read, report.records_malformed, len(data)]
    if format == FORMAT_PLAIN_TEXT_BLOCKS:
        assert [r.text for r in whole] == reference_blocks(data)
        assert [r.id for r in whole] == [f"c.txt#{i}" for i in range(len(whole))]
    else:
        assert report.records_read + report.records_malformed == len(units)


class TestRoundTrip:
    def test_write_then_read_preserves_everything(self, tmp_path):
        records = [
            CorpusRecord(id="a", text="ola mundo", url="https://x.pt/1"),
            CorpusRecord(id="b", text="sem url", source=Source.CULTURAX),
            CorpusRecord(id="c", text="acentuação é preservada"),
        ]
        path = tmp_path / "out.jsonl"
        assert write_records(records, path) == 3
        back = list(read_records(path)[0])
        assert back == records

    def test_pickle_round_trip(self):
        # default dataclass pickling, at every protocol, a lone surrogate included
        records = [
            CorpusRecord(id="a", text="ola mundo", url="https://x.pt/1", source=Source.OSCAR),
            CorpusRecord(id="b", text="sem url \ud800"),
        ]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(records, protocol=protocol))
            assert back == records
            assert back[0].source is Source.OSCAR

    def test_json_key_order_is_stable(self):
        rec = CorpusRecord(id="a", text="x", url="https://y.br/", source=Source.OSCAR)
        obj = record_to_json(rec)
        assert list(json.loads(obj)) == ["id", "url", "source", "text"]
        rec2 = CorpusRecord(id="a", text="x")
        assert "url" not in json.loads(record_to_json(rec2))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1
                ),
                st.sampled_from(list(Source)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip_arbitrary_text(self, tmp_path_factory, items):
        tmp = tmp_path_factory.mktemp("rt") / "c.jsonl"
        records = [
            CorpusRecord(id=f"r{i}", text=text, source=source)
            for i, (text, source) in enumerate(items)
        ]
        write_records(records, tmp)
        assert list(read_records(tmp)[0]) == records


def test_parse_source_case_insensitive():
    assert parse_source("culturax") is Source.CULTURAX
    assert parse_source("OSCAR") is Source.OSCAR
    assert parse_source(None) is Source.OTHER
    assert parse_source("desconhecida") is Source.OTHER

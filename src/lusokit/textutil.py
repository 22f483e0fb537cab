"""Shared text measurement and rendering helpers.

A "word" throughout the toolkit is a maximal run of non-whitespace
Unicode characters, as ``str.split()`` returns them: ``stats`` counts
words with ``word_count``, and the quality rules and the tokenizer call
``str.split()`` themselves.

``blake2b`` is the one BLAKE2b the toolkit digests text with (record
ids, dedup keys, translate cache keys): CPython's builtin ``_blake2``
class, which is the class ``hashlib.blake2b`` returns (hashlib never
takes BLAKE2b from OpenSSL), so every digest is the same, but importing
it maps no OpenSSL into the process.

``sha256`` is the one SHA-256 (run keys, the stand-in trainer's scores):
CPython's builtin SHA-2 module (``_sha2`` from 3.12, ``_sha256`` before),
whose digests equal ``hashlib.sha256``'s, again without OpenSSL. Only an
interpreter built without that module (some FIPS builds) takes it from
``hashlib``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

from _blake2 import blake2b

from lusokit.errors import ConfigurationError

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

BOM = b"\xef\xbb\xbf"  # the UTF-8 byte order mark
MERGE_TAG = "tag:yaml.org,2002:merge"  # YAML's merge key, <<


def word_count(text: str) -> int:
    return len(text.split())


def normalize_whitespace(text: str) -> str:
    """Collapse any whitespace runs to single spaces and trim the ends."""
    return " ".join(text.split())


def render_tsv_rows(rows: Iterable[Sequence[str]]) -> str:
    """Rows of cells as tab-separated lines, without a trailing newline."""
    return "\n".join("\t".join(row) for row in rows)


def utf8_lines(path: str | Path, error: type[Exception]) -> Iterator[str]:
    """Lines of a small input file (vocabulary, config, list, roster, task file), each
    up to its "\n": UTF-8 after one leading BOM. Bytes that are not UTF-8 raise error
    naming the file and the line."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            raw = raw.removeprefix(BOM) if line_no == 1 else raw
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{line_no}: not UTF-8 (byte 0x{raw[exc.start]:02x})") from None


def load_yaml(path: str | Path, what: str):
    """The document of a small YAML input file (what names it: config, roster), read by
    ``utf8_lines``; an empty file is the empty mapping. A file that is not YAML, or that
    gives a key twice in one mapping, raises one line naming what and file:line."""
    import yaml  # here, so only the commands that read YAML load its parser

    class Loader(yaml.SafeLoader):
        def compose_mapping_node(self, anchor):
            """The mapping node, refused if it gives a key twice. Keys are compared as
            written, before merge keys (``<<``) are applied, so a key beside a merge
            key still overrides the merged one."""
            node = super().compose_mapping_node(anchor)
            seen = set()
            for key_node, _ in node.value:
                if isinstance(key_node, yaml.ScalarNode) and key_node.tag != MERGE_TAG:
                    key = self.construct_object(key_node)
                    if key in seen:
                        line = key_node.start_mark.line + 1
                        raise ConfigurationError(f"{what} {path}:{line}: key {key!r} given twice")
                    seen.add(key)
            return node

    text = "".join(utf8_lines(path, ConfigurationError))
    try:
        document = yaml.load(text, Loader)
    except yaml.YAMLError as exc:
        if isinstance(exc, yaml.MarkedYAMLError):
            at = exc.problem_mark.index
            problem = ", ".join(filter(None, (exc.context, exc.problem)))
        else:  # a character the reader refuses
            at, problem = exc.position, str(exc).split("\n")[0]
        line = text.count("\n", 0, at) + 1
        raise ConfigurationError(f"{what} {path}:{line} is not valid YAML: {problem}") from None
    return {} if document is None else document


def check_mapping(value, allowed: set, what: str, shape="must be a mapping", keys="keys") -> dict:
    """value if it is a mapping whose keys are all in allowed; otherwise a
    ConfigurationError "{what} {shape}" or "{what} has unknown {keys}: [...]"."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} {shape}")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigurationError(f"{what} has unknown {keys}: {sorted(unknown)}")
    return value

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

from typing import Iterable, Sequence

from _blake2 import blake2b

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def word_count(text: str) -> int:
    return len(text.split())


def normalize_whitespace(text: str) -> str:
    """Collapse any whitespace runs to single spaces and trim the ends."""
    return " ".join(text.split())


def render_tsv_rows(rows: Iterable[Sequence[str]]) -> str:
    """Rows of cells as tab-separated lines, without a trailing newline."""
    return "\n".join("\t".join(row) for row in rows)

"""Variant labelling by source-URL top-level domain.

Crawled records with a ``.br`` hostname go to the PTBR subset, ``.pt``
to PTPT, and everything else (including missing or unparseable URLs) is
discarded. "Top-level domain" means the final hostname label, so
"example.com.br" counts as "br"; no public-suffix list is consulted.

Corpora that carry no URLs at all (parliamentary transcripts) are of
one known variant already and skip this step: ``split-variant`` sends
every record without a usable URL, so every ``ingest --format blocks``
record, to the discard output. Such a corpus goes straight to
``curate``.
"""

from __future__ import annotations

from enum import Enum

from lusokit.corpus_io import CorpusRecord
from lusokit.urls import final_label, hostname_of


class Variant(Enum):
    PTPT = "ptpt"
    PTBR = "ptbr"
    DISCARD = "discard"


def extract_tld(url: str | None) -> str | None:
    """Final dot-separated hostname label, lowercased; None if unusable.

    Ports, paths, queries and hostname case never affect the result.
    Bare-IP hostnames and strings without a parseable hostname give None.
    """
    host = hostname_of(url)
    if host is None:
        return None
    return final_label(host)


def classify_variant(record: CorpusRecord) -> Variant:
    """Label one record by its URL's TLD. Depends only on the url field."""
    tld = extract_tld(record.url)
    if tld == "br":
        return Variant.PTBR
    if tld == "pt":
        return Variant.PTPT
    return Variant.DISCARD

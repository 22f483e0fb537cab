"""lusokit: desk-scale tooling for Portuguese corpus pipelines.

Covers the procedural side of building Portuguese variant encoders:
web-crawl ingestion, TLD-based PTPT/PTBR separation, quality filtering
and deduplication, corpus statistics, subword tokenization with staged
truncation and dynamic padding, benchmark task preparation, evaluation
metrics, and resumable hyperparameter grid orchestration around an
external trainer command. No neural training happens here.
"""

import importlib

__version__ = "0.1.0"

# Seed of the one train/dev split every grid run shares; here rather than
# in lusokit.experiments.grid so the CLI parser can name it without
# importing the experiment modules.
DEFAULT_SPLIT_SEED = 13

# Importing the package loads no submodule: every command would pay for
# it. The names below resolve on first use (PEP 562).
_LAZY = {
    "CorpusRecord": "lusokit.corpus_io",
    "IngestReport": "lusokit.corpus_io",
    "Source": "lusokit.corpus_io",
    "read_records": "lusokit.corpus_io",
    "write_records": "lusokit.corpus_io",
    "Variant": "lusokit.variants",
    "classify_variant": "lusokit.variants",
    "extract_tld": "lusokit.variants",
}

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

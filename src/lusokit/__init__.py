"""lusokit: desk-scale tooling for Portuguese corpus pipelines.

Covers the procedural side of building Portuguese variant encoders:
web-crawl ingestion, TLD-based PTPT/PTBR separation, quality filtering
and deduplication, corpus statistics, subword tokenization with staged
truncation and dynamic padding, benchmark task preparation, evaluation
metrics, and resumable hyperparameter grid orchestration around an
external trainer command. No neural training happens here.

Names are imported from their modules, for example
lusokit.corpus_io.read_records; importing the package loads none.
"""

__version__ = "0.1.0"

# Seed of the one train/dev split every grid run shares; here rather than
# in lusokit.experiments.grid so the CLI parser can name it without
# importing the experiment modules.
DEFAULT_SPLIT_SEED = 13

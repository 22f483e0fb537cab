"""Exception types shared across the toolkit.

ConfigurationError maps to CLI exit code 2, DataError to exit code 1
and WorkerDied to exit code 3. Plain ValueError is used for bad
arguments to library functions.
"""


class ConfigurationError(Exception):
    """Invalid configuration: bad config file, missing path, impossible geometry."""


class DataError(Exception):
    """The input data cannot be processed as requested (schema violations etc.)."""


class WorkerDied(RuntimeError):
    """A forked worker process ended without sending all of its results."""

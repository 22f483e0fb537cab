"""Pipeline configuration file loading.

One YAML file holds the quality-rule settings and domain blocklist
that `lusokit curate --config` reads. Validation is strict: unknown
keys are rejected (a typo should fail loudly, not silently fall back to
a default) and every referenced file must exist at load time. Relative
paths are resolved against the config file's own directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from lusokit.curation import Blocklist, FilterConfig, load_default_stopwords, parse_list
from lusokit.errors import ConfigurationError
from lusokit.textutil import check_mapping, load_yaml, utf8_lines

_TOP_KEYS = {"curation", "blocklist"}

# FilterConfig's fields, with its word lists named as the files they load.
_SECTION_KEYS = {
    "curation": (
        {f.name for f in fields(FilterConfig)} - {"stopword_list", "flagged_word_list"}
    )
    | {"stopword_file", "flagged_words_file"},
    "blocklist": {"exact_file", "suffix_file"},
}

_PATH_KEYS = {key for keys in _SECTION_KEYS.values() for key in keys if key.endswith("_file")}


def load_list(path: str | Path) -> frozenset[str]:
    """The entries of a word or domain list file, by ``parse_list``."""
    return parse_list("".join(utf8_lines(path, ConfigurationError)))


@dataclass(frozen=True)
class PipelineConfig:
    """Validated pipeline settings, sections kept as plain mappings."""

    curation: dict = field(default_factory=dict)
    blocklist: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        raw = check_mapping(load_yaml(path, "config"), _TOP_KEYS, f"config {path}",
                            "must be a mapping at top level", "top-level keys")
        sections: dict[str, dict] = {}
        for name, allowed in _SECTION_KEYS.items():
            section = raw.get(name)  # None when absent or empty: the empty mapping
            section = check_mapping({} if section is None else section, allowed,
                                    f"config section '{name}'")
            resolved = {}
            for key, value in section.items():
                if key in _PATH_KEYS:
                    if not isinstance(value, str) or not value:
                        raise ConfigurationError(
                            f"config {name}.{key} must be a file path string"
                        )
                    candidate = (path.parent / value).resolve()
                    if not candidate.exists():
                        raise ConfigurationError(
                            f"config {name}.{key} points to a missing file: {candidate}"
                        )
                    resolved[key] = candidate
                else:
                    resolved[key] = value
            sections[name] = resolved
        return cls(curation=sections["curation"], blocklist=sections["blocklist"])

    def make_filter_config(self) -> FilterConfig:
        """Quality-rule settings; unnamed lists are the package's stopwords and no flagged words."""
        section = dict(self.curation)
        stopwords = section.pop("stopword_file", None)
        flagged = section.pop("flagged_words_file", None)
        return FilterConfig(
            **section,
            stopword_list=load_list(stopwords) if stopwords else load_default_stopwords(),
            flagged_word_list=load_list(flagged) if flagged else frozenset(),
        )

    def make_blocklist(self) -> Blocklist:
        exact, suffix = (
            load_list(self.blocklist[key]) if key in self.blocklist else frozenset()
            for key in ("exact_file", "suffix_file")
        )
        return Blocklist(exact_domains=exact, suffix_domains=suffix)

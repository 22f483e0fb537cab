"""Pipeline config loading and factory methods."""

from dataclasses import fields

import pytest
import yaml

from lusokit.config import PipelineConfig, load_list
from lusokit.corpus_io import CorpusRecord
from lusokit.curation import FilterConfig, apply_filters, load_default_stopwords
from lusokit.errors import ConfigurationError


def write_config(tmp_path, body, name="pipeline.yaml"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


class TestLists:
    def test_word_list_skips_blanks_and_comments(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# header\n\nde\n  que \n#tail\n", encoding="utf-8")
        assert load_list(path) == frozenset({"de", "que"})

    def test_word_list_lowercases(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("Merda\nQUE\nde\n", encoding="utf-8")
        assert load_list(path) == frozenset({"merda", "que", "de"})

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # the first entry would otherwise be "\ufeffde" and never match
        path = tmp_path / "words.txt"
        path.write_bytes(b"\xef\xbb\xbfde\nque\n")
        assert load_list(path) == frozenset({"de", "que"})

    def test_list_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes("de\nolá\n".encode("latin-1"))
        with pytest.raises(ConfigurationError, match=r"words.txt:2: not UTF-8 \(byte 0xe1\)"):
            load_list(path)

    def test_domain_list_lowercases(self, tmp_path):
        path = tmp_path / "domains.txt"
        path.write_text("Exemplo.PT\n# nada\nmais.pt\n", encoding="utf-8")
        assert load_list(path) == frozenset({"exemplo.pt", "mais.pt"})


class TestLoad:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = PipelineConfig.load(write_config(tmp_path, ""))
        assert cfg.curation == {}
        assert cfg.make_blocklist().exact_domains == frozenset()

    @pytest.mark.parametrize("body", ["", "curation:\nblocklist: {}\n", "\ufeff"])
    def test_empty_file_is_the_empty_config(self, tmp_path, body):
        # what curate runs without --config
        cfg = PipelineConfig.load(write_config(tmp_path, body))
        assert cfg == PipelineConfig()
        assert cfg.make_filter_config() == PipelineConfig().make_filter_config()
        assert cfg.make_filter_config().stopword_list == load_default_stopwords()
        assert cfg.make_blocklist() == PipelineConfig().make_blocklist()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "curations: {}\n")
        with pytest.raises(ConfigurationError) as exc:
            PipelineConfig.load(path)
        assert "curations" in str(exc.value)

    @pytest.mark.parametrize("key", ["workdir", "packing", "experiments", "translation"])
    def test_removed_sections_rejected(self, tmp_path, key):
        # keys of sections no command reads are refused like typos
        path = write_config(tmp_path, f"{key}: {{}}\n")
        with pytest.raises(ConfigurationError) as exc:
            PipelineConfig.load(path)
        assert "unknown top-level keys" in str(exc.value)
        assert key in str(exc.value)

    def test_unknown_section_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "curation:\n  minimum_words: 3\n")
        with pytest.raises(ConfigurationError) as exc:
            PipelineConfig.load(path)
        assert "minimum_words" in str(exc.value)

    def test_section_must_be_mapping(self, tmp_path):
        path = write_config(tmp_path, "curation:\n  - a\n  - b\n")
        with pytest.raises(ConfigurationError) as exc:
            PipelineConfig.load(path)
        assert "must be a mapping" in str(exc.value)

    def test_missing_referenced_file_rejected(self, tmp_path):
        path = write_config(tmp_path, "blocklist:\n  exact_file: nowhere.txt\n")
        with pytest.raises(ConfigurationError) as exc:
            PipelineConfig.load(path)
        assert "missing file" in str(exc.value)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "conf"
        sub.mkdir()
        (sub / "lists").mkdir()
        (sub / "lists" / "stop.txt").write_text("de\nque\n", encoding="utf-8")
        path = write_config(sub, "curation:\n  stopword_file: lists/stop.txt\n")
        cfg = PipelineConfig.load(path)
        assert cfg.curation["stopword_file"] == (sub / "lists" / "stop.txt").resolve()

    def test_bad_yaml_rejected(self, tmp_path):
        path = write_config(tmp_path, "curation: [unclosed\n")
        with pytest.raises(ConfigurationError):
            PipelineConfig.load(path)


class TestFactories:
    def test_filter_config_overrides_and_defaults(self, tmp_path):
        (tmp_path / "flagged.txt").write_text("zzz\n", encoding="utf-8")
        path = write_config(
            tmp_path,
            "curation:\n"
            "  min_words: 3\n"
            "  max_words: 50\n"
            "  flagged_words_file: flagged.txt\n",
        )
        fcfg = PipelineConfig.load(path).make_filter_config()
        assert fcfg.min_words == 3
        assert fcfg.max_words == 50
        assert fcfg.flagged_word_list == frozenset({"zzz"})
        # stopwords fall back to the bundled list
        assert "de" in fcfg.stopword_list

    def test_flagged_word_matches_in_any_case(self, tmp_path):
        # the rules compare lowercased words, so a capitalised list entry
        # must still flag the word however the text writes it
        (tmp_path / "flagged.txt").write_text("Merda\n", encoding="utf-8")
        path = write_config(
            tmp_path, "curation:\n  max_flagged_word_ratio: 0.0\n  flagged_words_file: flagged.txt\n"
        )
        fcfg = PipelineConfig.load(path).make_filter_config()
        for word in ("merda", "Merda", "MERDA"):
            record = CorpusRecord(id="r", text=f"isto nao passa de uma {word} qualquer")
            assert apply_filters(record, fcfg).rejected_by == "flagged_word"

    def test_every_threshold_field_is_settable(self, tmp_path):
        # each numeric FilterConfig field gets a non-default value from YAML
        thresholds = {
            f.name: f.default + 1 if isinstance(f.default, int) else f.default / 2
            for f in fields(FilterConfig)
            if isinstance(f.default, (int, float))
        }
        assert {"min_words", "min_stopword_ratio", "max_flagged_word_ratio"} <= set(thresholds)
        path = write_config(tmp_path, yaml.safe_dump({"curation": thresholds}))
        fcfg = PipelineConfig.load(path).make_filter_config()
        assert {name: getattr(fcfg, name) for name in thresholds} == thresholds

    def test_bad_threshold_surfaces_as_config_error(self, tmp_path):
        path = write_config(tmp_path, "curation:\n  max_special_char_ratio: 1.5\n")
        with pytest.raises(ConfigurationError):
            PipelineConfig.load(path).make_filter_config()

    @pytest.mark.parametrize("name", ["min_words", "max_special_char_ratio"])
    @pytest.mark.parametrize("value", ["yes", "true", '"5"'])
    def test_boolean_or_string_threshold_rejected(self, tmp_path, name, value):
        # YAML reads yes and true as booleans, which Python would compare as 1
        path = write_config(tmp_path, f"curation:\n  {name}: {value}\n")
        with pytest.raises(ConfigurationError) as exc:
            PipelineConfig.load(path).make_filter_config()
        assert name in str(exc.value)

    def test_rule_list_key_rejected(self, tmp_path):
        # a rule is switched off by its threshold, not by a list of rules
        path = write_config(tmp_path, "curation:\n  enabled_rules: [min_words]\n")
        with pytest.raises(ConfigurationError) as exc:
            PipelineConfig.load(path)
        assert "unknown keys: ['enabled_rules']" in str(exc.value)

    def test_blocklist_from_files(self, tmp_path):
        (tmp_path / "exact.txt").write_text("Bloqueado.PT\n", encoding="utf-8")
        (tmp_path / "suffix.txt").write_text("anuncios.pt\n", encoding="utf-8")
        path = write_config(
            tmp_path,
            "blocklist:\n  exact_file: exact.txt\n  suffix_file: suffix.txt\n",
        )
        block = PipelineConfig.load(path).make_blocklist()
        assert block.exact_domains == frozenset({"bloqueado.pt"})
        assert block.suffix_domains == frozenset({"anuncios.pt"})


class TestBundledExample:
    def test_repo_example_config_loads(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        cfg = PipelineConfig.load(root / "config" / "example.yaml")
        fcfg = cfg.make_filter_config()
        assert fcfg.min_words >= 1
        cfg.make_blocklist()
        # the example documents the defaults: every threshold it sets is one
        thresholds = [f.name for f in fields(FilterConfig) if f.type in ("int", "float")]
        assert len(thresholds) == 8
        assert set(thresholds) <= set(cfg.curation)
        default = FilterConfig()
        assert {n: getattr(fcfg, n) for n in thresholds} == {
            n: getattr(default, n) for n in thresholds
        }

"""Quality rules, blocklist semantics, dedup."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_first_violation, oracle_measurements
from lusokit.corpus_io import CorpusRecord, Source
from lusokit.curation import (
    Blocklist,
    FilterConfig,
    apply_blocklist,
    apply_filters,
    curate_stream,
    dedup_exact,
    load_default_stopwords,
    measure_rules,
)
from lusokit.errors import ConfigurationError


def rec(text, url=None, source=Source.OTHER, rid="r1"):
    return CorpusRecord(id=rid, text=text, url=url, source=source)


BASE = FilterConfig(stopword_list=load_default_stopwords())


class TestRules:
    def test_min_words(self):
        decision = apply_filters(rec("poucas palavras"), BASE)
        assert not decision.keep
        assert decision.rejected_by == "min_words"

    def test_max_words(self):
        cfg = FilterConfig(max_words=10, stopword_list=BASE.stopword_list)
        text = " ".join(f"palavra{i}" for i in range(11))
        decision = apply_filters(rec(text), cfg)
        assert decision.rejected_by == "max_words"

    def test_char_repetition(self):
        text = " ".join(f"{c}{'a' * 30}" for c in "bcdef")
        decision = apply_filters(rec(text), BASE)
        assert decision.rejected_by == "char_repetition"

    def test_word_repetition(self):
        text = " ".join(["alfazema", "bordado", "ciclone"] * 3)
        decision = apply_filters(rec(text), BASE)
        assert decision.rejected_by == "word_repetition"

    def test_special_char(self):
        decision = apply_filters(rec(">>> ??? !!! ### $$$ %%%"), BASE)
        assert decision.rejected_by == "special_char"

    def test_stopword_needs_minimum_length(self):
        nouns = "gato cavalo peixe arvore trigo sal pedra vento fogo lua sol mar"
        short = apply_filters(rec(nouns), BASE)  # 12 words, rule not applicable
        assert short.keep
        long_text = nouns + " ceu rio flor neve barro cobre ferro luz som tinta"
        long = apply_filters(rec(long_text), BASE)  # 22 words, no stopwords
        assert long.rejected_by == "stopword"

    def test_flagged_word(self):
        cfg = FilterConfig(
            stopword_list=BASE.stopword_list,
            flagged_word_list=frozenset({"maldita"}),
        )
        decision = apply_filters(rec("gato cavalo maldita peixe arvore trigo"), cfg)
        assert decision.rejected_by == "flagged_word"

    def test_clean_text_keeps(self):
        text = (
            "a casa de pedra fica perto do rio e o jardim tem flores "
            "que a familia cuida com carinho durante o verao inteiro"
        )
        decision = apply_filters(rec(text), BASE)
        assert decision.keep
        assert decision.rejected_by is None

    def test_first_violated_rule_wins(self):
        # two words AND all-special characters: min_words comes first
        decision = apply_filters(rec(">>> !!!"), BASE)
        assert decision.rejected_by == "min_words"

    def test_disabled_rule_does_not_fire(self):
        cfg = FilterConfig(stopword_list=BASE.stopword_list, min_words=0)
        decision = apply_filters(rec("duas palavras"), cfg)
        assert decision.keep

    def test_measured_values_reported_even_when_kept(self):
        text = "a casa de pedra fica perto do rio com a familia por perto"
        assert apply_filters(rec(text), BASE).keep
        measured = measure_rules(text, BASE)
        assert measured["min_words"] == 13
        assert 0.0 <= measured["special_char"] <= 1.0

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterConfig(min_words=10, max_words=5)
        with pytest.raises(ConfigurationError):
            FilterConfig(max_special_char_ratio=1.5)

    @pytest.mark.parametrize("name", ["stopword_list", "flagged_word_list"])
    def test_word_lists_must_be_lowercase(self, name):
        # the rules look words up lowercased: "Merda" would never match
        with pytest.raises(ConfigurationError) as exc:
            FilterConfig(**{name: frozenset({"de", "Merda"})}, max_flagged_word_ratio=0.0)
        assert name in str(exc.value) and "'Merda'" in str(exc.value)


def test_default_stopwords_are_the_bundled_file_stripped_without_blanks():
    # the list-file rule (lowercase, skip '#' lines) leaves the bundled list as it was
    from importlib import resources

    data = resources.files("lusokit.data").joinpath("stopwords_pt.txt").read_text("utf-8")
    assert load_default_stopwords() == frozenset(w.strip() for w in data.splitlines() if w.strip())


def _random_text(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return " ".join(rng.choice(["de", "a", "o", "casa", "rio", "gato"]) for _ in range(rng.randrange(0, 40)))
    if kind == 1:
        return "a" * rng.randrange(0, 120)
    if kind == 2:
        return " ".join("!@#$" for _ in range(rng.randrange(1, 15)))
    if kind == 3:
        return " ".join(f"w{rng.randrange(5)}" for _ in range(rng.randrange(1, 30)))
    if kind == 4:
        return ""
    return " ".join(
        rng.choice(["de", "que", "tempo", "cidade", "zzz", "###", "aaaa"])
        for _ in range(rng.randrange(1, 60))
    )


class TestOracleAgreement:
    def test_decisions_match_independent_oracle(self):
        rng = random.Random(99)
        cfg = FilterConfig(
            min_words=3,
            max_words=50,
            stopword_list=BASE.stopword_list,
            flagged_word_list=frozenset({"zzz"}),
        )
        for i in range(500):
            text = _random_text(rng)
            expected = oracle_first_violation(text, cfg)
            decision = apply_filters(rec(text, rid=f"r{i}"), cfg)
            assert decision.rejected_by == expected, text
            assert decision.keep == (expected is None)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ab de!#", max_size=60))
    def test_keep_decision_independent_of_rule_order(self, text):
        # the keep/reject outcome must equal the AND of per-rule checks,
        # however they are ordered
        decision = apply_filters(rec(text), BASE)
        measured = measure_rules(text, BASE)
        n_words = int(measured["min_words"])
        per_rule = {
            "min_words": n_words < BASE.min_words,
            "max_words": n_words > BASE.max_words,
            "char_repetition": measured["char_repetition"] > BASE.max_char_repetition_ratio,
            "word_repetition": measured["word_repetition"] > BASE.max_word_repetition_ratio,
            "special_char": measured["special_char"] > BASE.max_special_char_ratio,
            "stopword": n_words >= BASE.stopword_min_words
            and measured["stopword"] < BASE.min_stopword_ratio,
            "flagged_word": measured["flagged_word"] > BASE.max_flagged_word_ratio,
        }
        assert decision.keep == (not any(per_rule.values()))


_SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)


def _oracle_by_rule(text, cfg):
    expected = oracle_measurements(text, cfg.stopword_list, cfg.flagged_word_list)
    expected["min_words"] = expected["max_words"] = expected.pop("n_words")
    return expected


# The first character outside Latin-1 of a text sits at its start, in its
# middle or at its end: the 3-gram count then ranks the text's characters.
_NOT_LATIN1 = ["\u201c", "\u2014", "\u20ac", "\U0001f600", "\ud800"]
_PLACED = [
    text
    for c in _NOT_LATIN1
    for text in (c + "abc ab\xffc", "abc " + c + " ab\xffc", "abc ab\xffc" + c)
]
# More distinct characters than one byte holds, ranks up into the
# surrogate range, and more than two bytes rank.
_MANY_CHARS = [
    pytest.param("".join(map(chr, range(0x1F300, 0x1F300 + n))) * 2, id=f"{n}-distinct")
    for n in (257, 60_000, 65_537)
]


class TestMeasurementsMatchOracle:
    CFG = FilterConfig(
        stopword_list=BASE.stopword_list,
        flagged_word_list=frozenset({"\U0001f600", "cafe\u0301"}),
    )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "a",
            "ab",
            "abc",
            "aaa",
            " \t\n",
            "\U0001f600",
            "\U0001f600\U0001f600\U0001f600",
            "a\U0001f600 a\U0001f600 a\U0001f600 \U0010ffff\U0010fffe",
            "cafe\u0301 e\u0301 \u0301\u0301\u0301 De A",
            "\ud800",
            "\ud800\ud800\ud800",
            "a\ud800b \udc00\ud800 \ud83d\ude00",
            "!!",
            "#!# #!# ???",
            "\x00\x00\x00",
            "\xff\xff\xff",
            "\x00\xff\x00",
            "\xe9 \xff",
            "\x00" * 40,
            "\xff" * 40,
            "a" * 9,
            "\u20ac" * 9,
            "\U0001f600" * 9,
            "\ud800" * 9,
            *_PLACED,
            *_MANY_CHARS,
        ],
    )
    def test_edge_texts(self, text):
        assert measure_rules(text, self.CFG) == _oracle_by_rule(text, self.CFG)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("\x00\xff a\xe9!") | st.characters(max_codepoint=0xFF), max_size=60))
    def test_latin1_texts(self, text):
        assert measure_rules(text, self.CFG) == _oracle_by_rule(text, self.CFG)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.characters() | _SURROGATES, max_size=40))
    def test_any_code_points(self, text):
        assert measure_rules(text, self.CFG) == _oracle_by_rule(text, self.CFG)


class TestBlocklist:
    BL = Blocklist(
        exact_domains=frozenset({"bloqueado.pt", "exato.example.com.br"}),
        suffix_domains=frozenset({"anuncios.com.br", "paywall.pt"}),
    )

    def test_exact_match_blocks(self):
        assert not apply_blocklist(rec("x", url="https://bloqueado.pt/a"), self.BL)

    def test_suffix_blocks_subdomains_only(self):
        assert not apply_blocklist(rec("x", url="https://promo.anuncios.com.br/a"), self.BL)
        assert not apply_blocklist(rec("x", url="https://a.b.paywall.pt/z"), self.BL)
        # the bare domain equal to a suffix entry is kept unless also exact
        assert apply_blocklist(rec("x", url="https://anuncios.com.br/a"), self.BL)

    def test_similar_names_not_blocked(self):
        assert apply_blocklist(rec("x", url="https://xanuncios.com.br/a"), self.BL)
        assert apply_blocklist(rec("x", url="https://anuncios.com.br.evil.com/a"), self.BL)

    def test_no_url_passes(self):
        assert apply_blocklist(rec("x"), self.BL)

    def test_case_insensitive(self):
        assert not apply_blocklist(rec("x", url="https://BLOQUEADO.PT/a"), self.BL)

    def test_entries_validated(self):
        with pytest.raises(ConfigurationError):
            Blocklist(exact_domains=frozenset({"Maiusculas.pt"}))
        with pytest.raises(ConfigurationError):
            Blocklist(suffix_domains=frozenset({".comeca-com-ponto.pt"}))


class TestDedup:
    def test_first_occurrence_wins(self):
        records = [
            rec("ola  mundo", rid="a"),
            rec("outro texto", rid="b"),
            rec("ola mundo", rid="c"),  # whitespace-normalized duplicate
            rec(" ola\tmundo ", rid="d"),
        ]
        unique, stats = dedup_exact(records)
        out = list(unique)
        assert [r.id for r in out] == ["a", "b"]
        assert stats.kept == 2
        assert stats.duplicates == 2

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet="ab ", max_size=10), max_size=20))
    def test_kept_plus_duplicates_is_total(self, texts):
        records = [rec(t, rid=f"r{i}") for i, t in enumerate(texts)]
        unique, stats = dedup_exact(records)
        out = list(unique)
        assert stats.kept + stats.duplicates == len(texts)
        assert stats.kept == len(out)
        normalized = {" ".join(t.split()) for t in texts}
        assert stats.kept == len(normalized)


class TestCurateStream:
    def test_blocklist_runs_before_quality_and_exemption_applies(self):
        bl = Blocklist(exact_domains=frozenset({"mau.pt"}))
        clean = (
            "a casa de pedra fica perto do rio e o jardim tem flores "
            "que a familia cuida com carinho"
        )
        records = [
            rec(clean, url="https://bom.pt/1", rid="keep"),
            rec(clean, url="https://mau.pt/2", rid="blocked"),
            rec("curto", url="https://bom.pt/3", rid="low-quality"),
            rec("curto", url="https://bom.pt/4", rid="exempt", source=Source.CULTURAX),
            rec("curto", url="https://mau.pt/5", rid="exempt-blocked", source=Source.CULTURAX),
        ]
        rejections = []
        stream, stats = curate_stream(
            records, BASE, bl, on_reject=lambda r, stage, d: rejections.append((r.id, stage))
        )
        kept = [r.id for r in stream]
        assert kept == ["keep", "exempt"]
        assert stats.kept == 2
        assert stats.blocklisted == 2
        assert stats.rejected == 1
        assert ("exempt-blocked", "blocklist") in rejections
        assert ("low-quality", "quality") in rejections

"""Shared test utilities.

Contains independent re-implementations of the quality-rule math, of
greedy tokenization and of the report's model selection (used as
oracles against the package's own) and a synthetic corpus
generator that emits a raw input file together with a ledger of every
outcome the pipeline is expected to produce from it.
"""

from __future__ import annotations

import collections
import itertools
import json
import random
import re
from dataclasses import dataclass, field

from lusokit.curation import RULE_NAMES, FilterConfig, load_default_stopwords
from lusokit.experiments.aggregate import CellResult
from lusokit.experiments.grid import RunConfig, make_run_key
from lusokit.tokenizer import Vocabulary

_WS_SPLIT = re.compile(r"\s+")


def oracle_measurements(text: str, stopwords: frozenset, flagged: frozenset) -> dict:
    """Rule measurements computed with different mechanics than the package."""
    tokens = [t for t in _WS_SPLIT.split(text) if t]
    n = len(tokens)
    grams = collections.Counter(
        a + b + c for a, b, c in zip(text, text[1:], text[2:])
    )
    total_grams = sum(grams.values())
    char_rep = 1.0 - len(grams) / total_grams if total_grams else 0.0
    word_counter = collections.Counter(tokens)
    word_rep = 1.0 - len(word_counter) / n if n else 0.0
    specials = sum(1 for ch in text if not (ch.isalnum() or ch.isspace()))
    special = specials / len(text) if text else 0.0
    lowered = [t.lower() for t in tokens]
    stop = sum(1 for t in lowered if t in stopwords) / n if n else 0.0
    flag = sum(1 for t in lowered if t in flagged) / n if n else 0.0
    return {
        "n_words": n,
        "char_repetition": char_rep,
        "word_repetition": word_rep,
        "special_char": special,
        "stopword": stop,
        "flagged_word": flag,
    }


def oracle_first_violation(text: str, cfg: FilterConfig) -> str | None:
    """First violated rule in canonical order, or None if the text passes."""
    m = oracle_measurements(text, cfg.stopword_list, cfg.flagged_word_list)
    checks = {
        "min_words": m["n_words"] < cfg.min_words,
        "max_words": m["n_words"] > cfg.max_words,
        "char_repetition": m["char_repetition"] > cfg.max_char_repetition_ratio,
        "word_repetition": m["word_repetition"] > cfg.max_word_repetition_ratio,
        "special_char": m["special_char"] > cfg.max_special_char_ratio,
        "stopword": (
            m["n_words"] >= cfg.stopword_min_words
            and m["stopword"] < cfg.min_stopword_ratio
        ),
        "flagged_word": m["flagged_word"] > cfg.max_flagged_word_ratio,
    }
    for rule in RULE_NAMES:
        if checks[rule]:
            return rule
    return None


def reference_tokenize(text: str, vocab: Vocabulary) -> tuple[int, ...]:
    """Greedy longest-match ids, trying every end position, no memo.

    The scan is bounded by the longest content fragment (pieces after
    the four specials, "##" stripped), as the package's always was.
    """
    longest = max([1] + [len(p[2:] if p.startswith("##") else p) for p in vocab.pieces[4:]])
    ids = [vocab.cls_id]
    for word in text.split():
        pos = 0
        at_start = True
        in_unk_run = False
        while pos < len(word):
            match = None
            for end in range(min(len(word), pos + longest), pos, -1):
                key = word[pos:end] if at_start else "##" + word[pos:end]
                if key in vocab.ids:
                    match = (vocab.ids[key], end - pos)
                    break
            if match is None:
                if not in_unk_run:
                    ids.append(vocab.unk_id)
                    in_unk_run = True
                pos += 1
            else:
                ids.append(match[0])
                pos += match[1]
                in_unk_run = False
            at_start = False
    ids.append(vocab.sep_id)
    return tuple(ids)


def oracle_aggregate(records, models, tasks, axes, seeds, split_seed) -> list[CellResult]:
    """Report cells by brute force: every runnable (model, task) pair,
    every combination of the (learning rates, dropouts, bf16 options)
    axes, every seed, looked up one by one.

    A combination counts only when all its seeds have an ok record; a
    complete cell's winner has the highest seed-averaged dev score, ties
    going to the lowest lr, then the lowest dropout, then bf16 off.
    """
    cells = []
    for model in models:
        for task in tasks:
            if model.variant not in task.variants:
                continue
            if task.requires_multichoice and not model.supports_multichoice:
                continue
            expected = len(seeds)
            for axis in axes:
                expected *= len(axis)
            ok_runs = 0
            means = {}
            for combo in itertools.product(*axes):
                devs, tests = [], []
                for seed in seeds:
                    run = RunConfig(model.name, task.name, *combo, seed, split_seed)
                    rec = records.get(make_run_key(run))
                    if rec is not None and rec["status"] == "ok":
                        devs.append(float(rec["dev"]))
                        tests.append(float(rec["test"]))
                ok_runs += len(devs)
                if len(devs) == len(seeds):
                    means[combo] = (sum(devs) / len(devs), sum(tests) / len(tests))
            if ok_runs < expected:
                cells.append(CellResult(model.name, task.name, expected, ok_runs, None, None, None))
                continue
            top = max(dev for dev, _ in means.values())
            best = sorted(combo for combo, (dev, _) in means.items() if dev == top)[0]
            cells.append(CellResult(model.name, task.name, expected, ok_runs, best, *means[best]))
    return cells


# Word pools for generated Portuguese-looking text. The STOP words must
# all be present in the bundled stopword list.
STOP_POOL = ["de", "a", "o", "que", "e", "do", "da", "em", "um", "para", "com", "as"]
NOUN_POOL = [
    "casa", "tempo", "cidade", "rio", "livro", "porta", "janela", "estrada",
    "montanha", "jardim", "mercado", "escola", "palavra", "musica", "viagem",
    "trabalho", "amigo", "familia", "historia", "futuro",
]
VERB_POOL = [
    "fica", "parece", "mostra", "conta", "leva", "traz", "abre", "fecha",
    "guarda", "encontra",
]

FLAGGED_WORD = "palavrainterdita"


def clean_text(rng: random.Random, tag: str) -> str:
    """Text engineered to pass every quality rule with margin."""
    parts = []
    for _ in range(8):
        parts.append(rng.choice(STOP_POOL))
        parts.append(rng.choice(NOUN_POOL))
        parts.append(rng.choice(VERB_POOL))
    parts.append(f"nota{tag}")
    return " ".join(parts)


def rule_violating_text(rule: str, rng: random.Random, tag: str) -> str:
    """Text whose FIRST violated rule (default-ish config) is `rule`."""
    if rule == "min_words":
        return f"frase{tag} curta"
    if rule == "max_words":
        # diverse words so nothing earlier fires; caller's config must
        # set max_words below 450
        return " ".join(f"palavra{tag}n{i}" for i in range(450))
    if rule == "char_repetition":
        base = "a" * 24
        return " ".join(f"{chr(98 + i)}{base}{tag[:1]}" for i in range(6))
    if rule == "word_repetition":
        w1, w2, w3 = f"marco{tag}", "zebralunar", "ocultofervir"
        return " ".join([w1, w2, w3] * 3)
    if rule == "special_char":
        return f">>> ??? !!! ### $$$ %%{tag[:1]}%"
    if rule == "stopword":
        nouns = rng.sample(NOUN_POOL, 12)
        return " ".join(nouns + [f"termo{tag}n{i}" for i in range(10)])
    if rule == "flagged_word":
        nouns = rng.sample(NOUN_POOL, 8)
        return " ".join(nouns + [FLAGGED_WORD, f"resto{tag}"])
    raise ValueError(rule)


@dataclass
class CorpusLedger:
    """Expected pipeline outcomes for one generated raw corpus file."""

    total_lines: int = 0
    malformed: int = 0
    well_formed: int = 0
    ptpt: int = 0
    ptbr: int = 0
    discarded_variant: int = 0
    blocklisted: int = 0
    rule_rejected: collections.Counter = field(default_factory=collections.Counter)
    exempt_kept: int = 0
    curated_kept: int = 0
    duplicates: int = 0
    unique_after_dedup: int = 0
    kept_texts: list = field(default_factory=list)


BLOCK_EXACT_HOST = "bloqueado.example.com.br"
BLOCK_SUFFIX_ENTRY = "anuncios.com.br"


def generate_corpus(
    path,
    cfg: FilterConfig,
    seed: int = 20240817,
    clean_br: int = 2400,
    clean_pt: int = 800,
    discard: int = 400,
    malformed: int = 150,
    blocklisted: int = 300,
    per_rule: int = 60,
    exempt: int = 200,
    duplicates: int = 500,
) -> CorpusLedger:
    """Write a raw line-delimited corpus with a fully known ledger.

    cfg must match what the pipeline will run with. Every crafted text
    is verified against the independent oracle before being counted, so
    the ledger reflects actual (not merely intended) outcomes.
    """
    rng = random.Random(seed)
    ledger = CorpusLedger()
    lines: list[str] = []
    uid = 0

    def next_id() -> str:
        nonlocal uid
        uid += 1
        return f"rec{uid:06d}"

    def emit(obj: dict) -> None:
        lines.append(json.dumps(obj, ensure_ascii=False))

    stopwords = cfg.stopword_list
    assert all(w in stopwords for w in STOP_POOL), "STOP_POOL must be stopwords"

    kept_groups: list[str] = []
    clean_pool: list[str] = []

    for i in range(clean_br):
        text = clean_text(rng, f"br{i}")
        assert oracle_first_violation(text, cfg) is None, text
        emit({"id": next_id(), "url": f"https://site{i}.example.com.br/post", "text": text})
        ledger.ptbr += 1
        ledger.curated_kept += 1
        kept_groups.append(text)
        clean_pool.append(text)

    for i in range(clean_pt):
        text = clean_text(rng, f"pt{i}")
        assert oracle_first_violation(text, cfg) is None, text
        emit({"id": next_id(), "url": f"https://jornal{i}.example.pt/artigo", "text": text})
        ledger.ptpt += 1

    discard_urls = [
        lambda i: f"https://site{i}.example.org/p",
        lambda i: f"https://site{i}.example.com/p",
        lambda i: "http://192.168.10.1/x",
        lambda i: None,
    ]
    for i in range(discard):
        url = discard_urls[i % len(discard_urls)](i)
        obj = {"id": next_id(), "text": clean_text(rng, f"d{i}")}
        if url is not None:
            obj["url"] = url
        emit(obj)
        ledger.discarded_variant += 1

    bad_shapes = [
        "definitely not json",
        '{"id": 12345, "text": "id deve ser texto"}',
        '["uma", "lista"]',
        '{"id": "x", "text": 42}',
        '{"id": "y", "url": 7, "text": "url deve ser texto"}',
    ]
    for i in range(malformed):
        lines.append(bad_shapes[i % len(bad_shapes)].replace('"x"', f'"x{i}"').replace('"y"', f'"y{i}"'))
        ledger.malformed += 1

    for i in range(blocklisted):
        text = clean_text(rng, f"bl{i}")
        assert oracle_first_violation(text, cfg) is None, text
        host = BLOCK_EXACT_HOST if i % 2 == 0 else f"promo{i}.{BLOCK_SUFFIX_ENTRY}"
        emit({"id": next_id(), "url": f"https://{host}/pagina", "text": text})
        ledger.ptbr += 1
        ledger.blocklisted += 1

    for rule in RULE_NAMES:
        for i in range(per_rule):
            text = rule_violating_text(rule, rng, f"{rule[:4]}{i}")
            first = oracle_first_violation(text, cfg)
            assert first == rule, f"crafted {rule} text trips {first}: {text[:60]}"
            emit({"id": next_id(), "url": f"https://r{rule[:4]}{i}.example.com.br/x", "text": text})
            ledger.ptbr += 1
            ledger.rule_rejected[rule] += 1

    for i in range(exempt):
        text = rule_violating_text("stopword", rng, f"ex{i}")
        assert oracle_first_violation(text, cfg) == "stopword", text
        emit(
            {
                "id": next_id(),
                "url": f"https://pre{i}.example.com.br/x",
                "source": "CulturaX",
                "text": text,
            }
        )
        ledger.ptbr += 1
        ledger.exempt_kept += 1
        ledger.curated_kept += 1
        kept_groups.append(text)

    # duplicates copy quality-passing texts only: a copy of an
    # exempt-source text would be re-filtered under its own source
    dup_sources = rng.sample(clean_pool, min(duplicates, len(clean_pool)))
    for i in range(duplicates):
        original = dup_sources[i % len(dup_sources)]
        text = original if i % 10 else "  " + original.replace(" ", "  ", 1)
        if text != original:
            # whitespace variant must still pass quality on its own
            assert oracle_first_violation(text, cfg) is None, text
        emit({"id": next_id(), "url": f"https://dup{i}.example.com.br/x", "text": text})
        ledger.ptbr += 1
        ledger.curated_kept += 1
        ledger.duplicates += 1

    ledger.total_lines = len(lines)
    ledger.well_formed = ledger.total_lines - ledger.malformed
    assert ledger.well_formed == ledger.ptpt + ledger.ptbr + ledger.discarded_variant
    ledger.unique_after_dedup = ledger.curated_kept - ledger.duplicates
    ledger.kept_texts = kept_groups

    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    return ledger

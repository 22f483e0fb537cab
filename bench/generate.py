"""Seeded inputs for the benchmark workloads, each with a ledger.

`generate(workload, seed, out_dir)` writes every file a workload feeds
to lusokit and returns the ledger: the counts and values each command
must report. The same (workload, seed) always writes byte-identical
files; another seed writes different files with the same ledger shape.
The generation parameters live in frozen.json and are not retuned.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np

import oracle

_FROZEN = json.loads(Path(__file__).with_name("frozen.json").read_text(encoding="utf-8"))
WORKLOADS = ("crawl_zipf", "crawl_longtail", "eval_sweep")


def params(section: str) -> dict:
    return {name: entry["value"] for name, entry in _FROZEN[section].items()}


# Function words, all on the benchmark's own stopword list (written to
# stopwords.txt, which the curate config names).
STOPWORDS = (
    "de", "a", "o", "que", "e", "do", "da", "em", "um", "para", "é", "com",
    "não", "uma", "os", "no", "se", "na", "por", "mais", "as", "dos", "como",
    "mas", "foi", "ao", "ele", "das", "tem", "à", "seu", "sua", "ou", "ser",
    "quando", "muito", "há", "nos", "já", "está", "eu", "também", "só",
    "pelo", "pela", "até", "isso", "ela", "entre", "depois",
)
# k and w never occur in generated syllables, so these collide with nothing.
FLAGGED = ("kwazak", "wokzik", "zikwup", "kwerto")
# Outside the vocabulary alphabet: these always tokenize to [UNK].
UNK_SYMBOLS = ("🙂", "★", "→")

_ONSETS = ("", "b", "c", "d", "f", "g", "j", "l", "m", "n", "p", "r", "s", "t",
           "v", "ch", "lh", "nh", "br", "cr", "pr", "tr", "gr", "qu")
_NUCLEI = ("a", "e", "i", "o", "u", "a", "e", "o", "ã", "á", "é", "ê", "í", "ó",
           "ô", "õ", "ú")
_CODAS = ("", "", "", "s", "r", "l", "m", "n")
_ENDINGS = ("ção", "mente", "dade", "ismo", "ista", "ado", "ada", "ido", "ida",
            "ar", "er", "ir", "os", "as", "ões", "inho", "eiro")
SYLLABLES = tuple(sorted({o + n + c for o in _ONSETS for n in _NUCLEI for c in _CODAS}))
SENTENCE_PUNCT = (",", ".")
LEXICON_SHAPE_SEED = 20240301


def alphabet() -> list[str]:
    """Every character generated running text uses, upper and lower case."""
    chars = set("".join(SYLLABLES) + "".join(_ENDINGS) + "".join(STOPWORDS))
    chars |= {c.upper() for c in chars}
    chars |= set(SENTENCE_PUNCT)
    return sorted(chars)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _syllable_word(rng: np.random.Generator, lo: int, hi: int) -> str:
    count = int(rng.integers(lo, hi + 1))
    return "".join(SYLLABLES[i] for i in rng.integers(0, len(SYLLABLES), count))


class ZipfWords:
    """Words drawn with probability proportional to rank ** -exponent.

    The length of the word at each rank, and whether it carries a
    derivational ending, comes from a fixed, seed-independent stream, so
    every seed's text has the same characters per word; the seed only
    picks the letters.
    """

    def __init__(self, rng: np.random.Generator, size: int, exponent: float) -> None:
        shape = np.random.default_rng(LEXICON_SHAPE_SEED)
        # Frequent words are short: 3-6 letters in the top 100, 6-9 past rank 10000.
        stem_lengths = 3 + np.floor(np.log10(np.arange(size) + 1)).astype(int) + shape.integers(0, 4, size)
        endings = [_ENDINGS[i] if u < 0.3 else "" for u, i in
                   zip(shape.random(size), shape.integers(0, len(_ENDINGS), size))]
        by_length = {k: [s for s in SYLLABLES if len(s) == k] for k in range(1, 5)}
        taken = set(STOPWORDS) | set(FLAGGED)
        content: list[str] = []
        ks, picks, j = [], [], 0
        while len(content) < size:
            rank = len(content)
            stem, left = "", int(stem_lengths[rank])
            while left:
                if j == len(ks):
                    ks, picks, j = rng.integers(1, 5, 8 * size).tolist(), rng.random(8 * size).tolist(), 0
                pool = by_length[min(ks[j], left)]
                stem += pool[int(picks[j] * len(pool))]
                left -= min(ks[j], left)
                j += 1
            word = stem + endings[rank]
            if word not in taken:
                taken.add(word)
                content.append(word)
        # Function words take every other rank in the top 100.
        ranked: list[str] = []
        for i, stop in enumerate(STOPWORDS):
            ranked += [stop, content[i]]
        ranked += content[len(STOPWORDS):]
        self.words = ranked[:size]
        weights = np.arange(1, size + 1, dtype=np.float64) ** -exponent
        self.cdf = np.cumsum(weights / weights.sum())
        self.rng = rng

    def draw(self, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        words = self.words
        return [words[i] for i in np.minimum(idx, len(words) - 1).tolist()]


class FreshWords:
    """High-entropy text: function words, else a newly built word."""

    def __init__(self, rng: np.random.Generator, stopword_share: float, syllables: list) -> None:
        self.rng = rng
        self.stopword_share = stopword_share
        self.lo, self.hi = syllables

    def draw(self, n: int) -> list[str]:
        rng = self.rng
        is_stop = rng.random(n) < self.stopword_share
        stops = rng.integers(0, len(STOPWORDS), n)
        counts = rng.integers(self.lo, self.hi + 1, n)
        sylls = rng.integers(0, len(SYLLABLES), (n, self.hi))
        out = []
        for i in range(n):
            if is_stop[i]:
                out.append(STOPWORDS[stops[i]])
            else:
                out.append("".join([SYLLABLES[s] for s in sylls[i, : counts[i]]]))
        return out


def _decorate(rng: np.random.Generator, words: list[str], cp: dict) -> list[str]:
    """Trailing commas and periods and capitalised words, at frozen rates."""
    u = rng.random(len(words))
    comma = cp["punct_comma_share"]
    period = comma + cp["punct_period_share"]
    cap = period + cp["capitalised_share"]
    out = list(words)
    for i in np.flatnonzero(u < cap).tolist():
        if u[i] < comma:
            out[i] += ","
        elif u[i] < period:
            out[i] += "."
        else:
            out[i] = out[i][:1].upper() + out[i][1:]
    return out


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform quantiles, one per stratum, shuffled: totals barely vary by seed."""
    return (rng.permutation(n) + rng.random(n)) / n


def _zipf_lengths(rng: np.random.Generator, n: int, wp: dict) -> list[int]:
    normal = NormalDist()
    lo, hi = wp["tail_words"]
    body = wp["body_share"]
    out = []
    for u in _stratified(rng, n):
        if u < body:
            z = normal.inv_cdf(min(max(u / body, 1e-9), 1 - 1e-9))
            out.append(max(5, int(round(wp["body_median_words"] * math.exp(wp["body_sigma"] * z)))))
        else:
            v = (u - body) / (1.0 - body)
            out.append(int(round(lo * (hi / lo) ** v)))
    return out


def _loguniform_lengths(rng: np.random.Generator, n: int, bounds: list) -> list[int]:
    lo, hi = bounds
    return [int(round(lo * (hi / lo) ** u)) for u in _stratified(rng, n)]


_MALFORMED = (
    '{"id": "broken", "text": "unterminated',
    "[1, 2, 3]",
    '{"id": "n1", "text": 42}',
    '{"id": "n2", "url": 7, "text": "palavra solta"}',
    "",
    '{"id": 5, "text": "id numerico"}',
    '{"id": "n3", "source": 3, "text": "fonte numerica"}',
    "null",
)


class _Crawl:
    """Builds one crawl dump and its ledger."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.cp = params("crawl")
        self.wp = params(workload)
        self.rng = _rng(workload, seed)
        self.cur = self.cp["curation"]
        self.stopwords = frozenset(STOPWORDS)
        self.flagged = frozenset(FLAGGED)
        if workload == "crawl_zipf":
            self.words = ZipfWords(self.rng, self.wp["lexicon_size"], self.wp["zipf_exponent"])
        else:
            self.words = FreshWords(self.rng, self.wp["stopword_share"], self.wp["syllables_per_word"])
        self.sites = self._names(400)
        self.seen_texts: set[str] = set()

    def _names(self, n: int) -> list[str]:
        out: list[str] = []
        while len(out) < n:
            name = "".join(
                SYLLABLES[i] for i in self.rng.integers(0, len(SYLLABLES), 3)
            )
            name = name.encode("ascii", "ignore").decode()
            if len(name) > 3 and name not in out:
                out.append(name)
        return out

    def _violation(self, text: str) -> str | None:
        return oracle.first_violation(text, self.cur, self.stopwords, self.flagged)

    def lengths(self, n: int) -> list[int]:
        if self.workload == "crawl_zipf":
            return _zipf_lengths(self.rng, n, self.wp)
        return _loguniform_lengths(self.rng, n, self.wp["doc_words"])

    def clean_text(self, n_words: int, curated: bool = True, unk: bool = False) -> str:
        """Running text; when it reaches curate, it passes every rule and is unique."""
        for _ in range(50):
            words = _decorate(self.rng, self.words.draw(n_words), self.cp)
            if unk:
                pos = int(self.rng.integers(0, len(words)))
                words[pos] += UNK_SYMBOLS[int(self.rng.integers(0, len(UNK_SYMBOLS)))]
            text = " ".join(words)
            if not curated:
                return text
            if self._violation(text) is None and oracle.normalized(text) not in self.seen_texts:
                self.seen_texts.add(oracle.normalized(text))
                return text
        raise RuntimeError("could not draw a clean text; frozen parameters are inconsistent")

    def rule_text(self, rule: str, tag: str) -> str:
        """Text whose first violated rule is `rule`."""
        rng = self.rng
        if rule == "min_words":
            text = " ".join(self.words.draw(3)[:2] + [f"nota{tag}"])
        elif rule == "max_words":
            text = " ".join(self.words.draw(self.cur["max_words"] + 1 + int(rng.integers(0, 50))))
        elif rule == "char_repetition":
            text = " ".join(
                chr(98 + i) + "a" * 120 + tag for i in range(6 + int(rng.integers(0, 4)))
            )
        elif rule == "word_repetition":
            base = [_syllable_word(rng, 4, 5) for _ in range(5)] + [f"marca{tag}"]
            text = " ".join(base * 6)
        elif rule == "special_char":
            text = f">>> ??? !!! ### $$$ %%{tag}% ***"
        elif rule == "stopword":
            words = [w for w in self.words.draw(200) if w not in self.stopwords][:24]
            text = " ".join(words + [f"termo{tag}"])
        else:
            words = [w for w in self.words.draw(60) if w not in self.stopwords][:11]
            text = " ".join(words[:5] + [FLAGGED[int(rng.integers(0, len(FLAGGED)))]] + words[5:])
        got = self._violation(text)
        if got != rule:
            raise RuntimeError(f"planted {rule} text trips {got}")
        self.seen_texts.add(oracle.normalized(text))
        return text

    def br_url(self, i: int) -> str:
        site = self.sites[i % len(self.sites)]
        path = f"artigo/{i}"
        return (
            f"https://{site}.com.br/{path}",
            f"http://www.{site}.br/{path}?p={i}",
            f"{site}.gov.br/{path}",
            f"HTTPS://{site.upper()}.COM.BR:8080/{path}",
        )[i % 4]

    def pt_url(self, i: int) -> str:
        site = self.sites[(i * 7) % len(self.sites)]
        return (
            f"https://{site}.pt/noticia/{i}",
            f"http://{site}.com.pt/x/{i}",
            f"www.{site}.pt",
            f"HTTP://{site.upper()}.PT./a/{i}",
        )[i % 4]

    def discard_url(self, i: int) -> str | None:
        site = self.sites[(i * 13) % len(self.sites)]
        return (
            f"https://{site}.com/pagina/{i}",
            f"http://{site}.org/{i}",
            f"https://{site}.es/{i}",
            f"https://{site}.br.com/{i}",
            f"http://192.168.{i % 250}.{(i * 3) % 250}/x",
            None,
            "",
            "nao e um endereco",
        )[i % 8]

    def build(self, out_dir: Path) -> dict:
        cp, rng = self.cp, self.rng
        n_lines = self.wp["lines"]
        n_malformed = round(cp["malformed_share"] * n_lines)
        well = n_lines - n_malformed
        n_pt = round(cp["ptpt_share"] * well)
        n_disc = round(cp["discard_share"] * well)
        n_br_lines = well - n_pt - n_disc
        n_dup_exact = round(cp["dup_exact_share"] * n_br_lines)
        n_dup_ws = round(cp["dup_ws_share"] * n_br_lines)
        n_br = n_br_lines - n_dup_exact - n_dup_ws
        n_block = round(cp["blocklisted_share"] * n_br)
        n_rule = round(cp["per_rule_share"] * n_br)
        n_exempt = round(cp["exempt_share"] * n_br)
        n_unk = round(cp["unk_share"] * n_br)
        n_clean = n_br - n_block - 7 * n_rule - n_exempt

        block_exact = sorted({f"anuncio{i}.com.br" for i in range(12)})
        block_suffix = sorted({f"spam{i}.com.br" for i in range(8)})
        exact_set, suffix_set = frozenset(block_exact), frozenset(block_suffix)

        lengths = self.lengths(n_pt + n_disc + n_clean + n_block + n_exempt)
        records: list[dict] = []  # well-formed, before duplicates
        clean_br: list[int] = []  # indexes of kept, non-exempt .br records

        def add(url, text, source="OSCAR", kind="clean"):
            rec = {"url": url, "source": source, "text": text, "kind": kind}
            records.append(rec)
            return len(records) - 1

        for i in range(n_pt):
            add(self.pt_url(i), self.clean_text(lengths.pop(), curated=False), kind="ptpt")
        for i in range(n_disc):
            add(self.discard_url(i), self.clean_text(lengths.pop(), curated=False), kind="discard")
        for i in range(n_clean):
            url = self.br_url(i)
            if i < len(block_suffix):  # bare suffix domains are not blocked
                url = f"https://{block_suffix[i]}/inicio"
            if oracle.is_blocked(oracle.host_of(url), exact_set, suffix_set):
                raise RuntimeError(f"clean url {url} is blocklisted")
            clean_br.append(add(url, self.clean_text(lengths.pop(), unk=i < n_unk)))
        for i in range(n_block):
            if i % 2:
                url = f"https://{block_exact[i % len(block_exact)]}/p/{i}"
                url = url.upper() if i % 4 == 1 else url
            else:
                url = f"http://sub{i}.{block_suffix[i % len(block_suffix)]}/p/{i}"
            if not oracle.is_blocked(oracle.host_of(url), exact_set, suffix_set):
                raise RuntimeError(f"blocked url {url} is not blocklisted")
            add(url, self.clean_text(lengths.pop(), curated=False),
                source="CulturaX" if i < 2 else "OSCAR", kind="blocklisted")
        rule_counts = {}
        for r, rule in enumerate(oracle.RULE_ORDER):
            for j in range(n_rule):
                add(self.br_url(n_clean + r * n_rule + j),
                    self.rule_text(rule, f"{r}x{j}"), kind=f"rule:{rule}")
            rule_counts[rule] = n_rule
        for i in range(n_exempt):
            n_words = lengths.pop()
            if i % 2:
                text = self.rule_text(oracle.RULE_ORDER[(i // 2) % 7], f"e{i}")
            else:
                text = self.clean_text(n_words)
            add(self.br_url(3 * n_clean + i), text,
                source="culturax" if i % 5 == 0 else "CulturaX", kind="exempt")
        assert not lengths

        order = [float(k) for k in rng.permutation(len(records))]
        keyed = [(order[i], i, rec) for i, rec in enumerate(records)]
        for d in range(n_dup_exact + n_dup_ws):
            orig = clean_br[int(rng.integers(0, len(clean_br)))]
            text = records[orig]["text"]
            if d >= n_dup_exact:
                text = self._whitespace_variant(text)
            dup = {"url": self.br_url(5 * n_clean + d), "source": "OSCAR", "text": text, "kind": "dup"}
            key = order[orig] + 0.5 + rng.random() * (len(records) - order[orig])
            keyed.append((key, len(records) + d, dup))
        keyed.sort(key=lambda item: (item[0], item[1]))
        lines = []
        for n, (_, _, rec) in enumerate(keyed):
            obj = {}
            if n % 97 != 5:  # a few lines carry no id; ingest synthesizes one
                obj["id"] = f"r{self.seed}-{n}"
            if rec["url"] is not None:
                obj["url"] = rec["url"]
            if rec["source"] != "OSCAR" or n % 89 != 7:  # a few lines carry no source
                obj["source"] = rec["source"]
            obj["text"] = rec["text"]
            lines.append(json.dumps(obj, ensure_ascii=False))
        for m in range(n_malformed):
            pos = int(rng.integers(0, len(lines) + 1))
            lines.insert(pos, _MALFORMED[m % len(_MALFORMED)])

        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "raw.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        texts = [rec["text"] for _, _, rec in keyed]
        kinds = [rec["kind"] for _, _, rec in keyed]
        self._write_config(out_dir, block_exact, block_suffix)
        distinct = {oracle.normalized(t): t for t in texts}
        write_vocab(out_dir / "vocab.txt", list(distinct.values()), cp)
        one = {"id": "one", "url": "https://um.com.br/a", "source": "OSCAR",
               "text": self.clean_text(40)}
        (out_dir / "one.jsonl").write_text(json.dumps(one, ensure_ascii=False) + "\n", encoding="utf-8")
        wordpiece = oracle.WordPiece((out_dir / "vocab.txt").read_text(encoding="utf-8").splitlines())

        kept = [t for t, k in zip(texts, kinds) if k in ("clean", "exempt", "dup")]
        unique_texts, seen = [], set()
        for t in kept:
            norm = oracle.normalized(t)
            if norm not in seen:
                seen.add(norm)
                unique_texts.append(t)
        tokens = token_ledger(wordpiece, unique_texts, cp["schedule"])
        if tokens["unk_rows"] < n_unk:
            raise RuntimeError("planted [UNK] records tokenize without [UNK]")
        return {
            "workload": self.workload,
            "lines": len(lines),
            "malformed": n_malformed,
            "well_formed": len(texts),
            "input_words": sum(len(t.split()) for t in texts),
            "ptpt": n_pt,
            "ptbr": n_br_lines,
            "discarded": n_disc,
            "blocklisted": n_block,
            "rejected": rule_counts,
            "exempt": n_exempt,
            "curated_kept": len(kept),
            "duplicates": len(kept) - len(unique_texts),
            "unique": len(unique_texts),
            "unique_words": sum(len(t.split()) for t in unique_texts),
            "tokens": tokens,
            "one_tokens": token_ledger(wordpiece, [one["text"]], cp["schedule"]),
        }

    def _whitespace_variant(self, text: str) -> str:
        words = text.split()
        seps = [(" ", "  ", "\t", " \n ")[int(k)] for k in self.rng.integers(0, 4, len(words))]
        variant = "".join(w + s for w, s in zip(words, seps)).rstrip() + " "
        if self._violation(variant) is not None:
            raise RuntimeError("whitespace variant of a clean text trips a rule")
        return variant

    def _write_config(self, out_dir: Path, block_exact: list, block_suffix: list) -> None:
        (out_dir / "stopwords.txt").write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
        (out_dir / "flagged.txt").write_text("\n".join(FLAGGED) + "\n", encoding="utf-8")
        (out_dir / "block_exact.txt").write_text("\n".join(block_exact) + "\n", encoding="utf-8")
        (out_dir / "block_suffix.txt").write_text("\n".join(block_suffix) + "\n", encoding="utf-8")
        lines = ["curation:"]
        lines += [f"  {k}: {v}" for k, v in self.cur.items()]
        lines += ["  stopword_file: stopwords.txt", "  flagged_words_file: flagged.txt",
                  "blocklist:", "  exact_file: block_exact.txt", "  suffix_file: block_suffix.txt"]
        (out_dir / "pipeline.yaml").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_vocab(path: Path, texts: list[str], cp: dict) -> None:
    """Vocabulary derived from the corpus, in the 4-line specials format.

    `texts` are the corpus's distinct documents, as a vocabulary is
    trained on a deduplicated corpus. Frequent whole words, then every alphabet character as a start piece
    and as a ## piece, then frequent ## word endings.
    """
    counts = Counter(w for t in texts for w in t.split())
    alpha = set(alphabet())
    frequent = [(w, c) for w, c in counts.items() if c >= cp["vocab_min_word_count"]]
    words = [
        w for w, _ in sorted(frequent, key=lambda kv: (-kv[1], kv[0])) if set(w) <= alpha
    ][: cp["vocab_top_words"]]
    endings: Counter = Counter()
    for k in cp["vocab_suffix_lengths"]:
        for w, c in counts.items():
            if len(w) > k:
                endings[w[-k:]] += c
    suffixes = [
        s for s, _ in sorted(endings.items(), key=lambda kv: (-kv[1], kv[0])) if set(s) <= alpha
    ]
    pieces: dict[str, None] = {}
    for p in words + alphabet() + ["##" + c for c in alphabet()]:
        pieces.setdefault(p, None)
    for s in suffixes[: cp["vocab_top_suffixes"]]:
        pieces.setdefault("##" + s, None)
    lines = ["[CLS]", "[SEP]", "[PAD]", "[UNK]"] + list(pieces)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def token_ledger(wordpiece: oracle.WordPiece, texts: list[str], schedule: str) -> dict:
    """What tokenize and pack must give for texts, by the oracle's WordPiece.

    Counts over the whole sequences, and per stage cap the rows, tokens,
    truncated rows, width and a digest of the capped id rows.
    """
    seqs = [wordpiece.encode(t) for t in texts]
    ledger = {
        "content": sum(len(q) - 2 for q in seqs),
        "unk": sum(q.count(wordpiece.unk) for q in seqs),
        "unk_rows": sum(wordpiece.unk in q for q in seqs),
        "digest": oracle.rows_digest([len(q) for q in seqs], [i for q in seqs for i in q]),
        "stages": {},
    }
    for cap in (int(part.split(":")[0]) for part in schedule.split(",")):
        rows = [oracle.capped(q, cap) for q in seqs]
        lengths = [len(r) for r in rows]
        ledger["stages"][cap] = {
            "rows": len(rows),
            "tokens": sum(lengths),
            "truncated_rows": sum(len(q) > cap for q in seqs),
            "width": max(lengths),
            "digest": oracle.rows_digest(lengths, [i for r in rows for i in r]),
        }
    return ledger


_GRID_LRS = (1e-5, 5e-5, 1e-6)
_GRID_DROPOUTS = (0.0, 0.1)
_GRID_BF16 = (False, True)
_GRID_SEEDS = (41, 42, 43)
# Variants each benchmark task exists for, as the task registry documents.
TASK_VARIANTS = {"rte": ("ptbr", "ptpt"), "assin2-rte": ("ptbr",)}


def cell_runs(model: str, task: str, split_seed: int = 13) -> list[dict]:
    """The 36 runs of one (model, task) cell under the default grid."""
    runs = []
    for lr in _GRID_LRS:
        for dropout in _GRID_DROPOUTS:
            for bf16 in _GRID_BF16:
                for seed in _GRID_SEEDS:
                    fields = (model, task, repr(lr), repr(dropout),
                              "true" if bf16 else "false", str(seed), str(split_seed))
                    runs.append({"key": oracle.run_key(fields), "model": model, "task": task,
                                 "lr": lr, "dropout": dropout, "bf16": bf16, "seed": seed,
                                 "split_seed": split_seed})
    return runs


def _roster_yaml(models: list[tuple[str, str, str]]) -> str:
    lines = ["models:"]
    for name, variant, size in models:
        lines += [f"  - name: {name}", f"    variant: {variant}",
                  f'    size_class: "{size}"']
    return "\n".join(lines) + "\n"


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


def _eval(seed: int, out_dir: Path) -> dict:
    ep = params("eval_sweep")
    rng = _rng("eval_sweep", seed)
    words = ZipfWords(rng, params("crawl_zipf")["lexicon_size"], params("crawl_zipf")["zipf_exponent"])
    lo, hi = ep["mt_words"]

    def sentence(n: int) -> str:
        return " ".join(words.draw(n))

    out_dir.mkdir(parents=True, exist_ok=True)
    mt_rows, seen = [], set()
    while len(mt_rows) < ep["mt_texts"]:
        text = sentence(int(rng.integers(lo, hi + 1)))
        if text not in seen:
            seen.add(text)
            mt_rows.append({"id": f"mt{len(mt_rows)}", "source": "Other", "text": text})
    _write_jsonl(out_dir / "mt.jsonl", mt_rows)
    _write_jsonl(out_dir / "mt_one.jsonl", [{"id": "mt-one", "source": "Other", "text": sentence(12)}])

    examples = []
    for i in range(ep["task_examples"]):
        examples.append({"id": f"{ep['task']}-{seed}-{i}",
                         "sentence1": sentence(int(rng.integers(10, 31))),
                         "sentence2": sentence(int(rng.integers(5, 16))),
                         "label": int(rng.integers(0, 2))})
    _write_jsonl(out_dir / "task.jsonl", examples)
    _write_jsonl(out_dir / "task_two.jsonl", examples[:2])
    dev = [examples[i] for i in oracle.split_dev_indices(len(examples), ep["split_seed"])]
    preds = []
    for ex in dev:
        hit = rng.random() < ep["prediction_accuracy"]
        preds.append({"id": ex["id"], "prediction": ex["label"] if hit else 1 - ex["label"]})
    _write_jsonl(out_dir / "pred.jsonl", preds)
    accuracy = sum(p["prediction"] == ex["label"] for p, ex in zip(preds, dev)) / len(dev)
    _write_jsonl(out_dir / "gold_one.jsonl", [examples[0]])
    _write_jsonl(out_dir / "pred_one.jsonl", [{"id": examples[0]["id"], "prediction": examples[0]["label"]}])

    models, runs, cells_of = [], [], []
    for variant, size in ep["roster"]:
        tasks = [t for t in ep["tasks"] if variant in TASK_VARIANTS[t]]
        target_fails = round(ep["fail_rate"] * 36 * len(tasks))
        while True:
            name = f"enc-{variant}-{size}-{_syllable_word(rng, 2, 2).encode('ascii', 'ignore').decode()}"
            cand = [r for t in tasks for r in cell_runs(name, t)]
            if sum(oracle.fails_first(r["key"], ep["fail_rate"]) for r in cand) == target_fails:
                break
        models.append((name, variant, size))
        cells_of += [(name, t) for t in tasks]
        runs += cand
    (out_dir / "roster.yaml").write_text(_roster_yaml(models), encoding="utf-8")
    cells = {}
    for name, task in cells_of:
        cell = [r for r in runs if r["model"] == name and r["task"] == task]
        cells[f"{name}\t{task}"] = f"{oracle.best_cell_value(cell):.4f}"

    one_model = models[0]
    (out_dir / "roster_one.yaml").write_text(_roster_yaml([one_model]), encoding="utf-8")
    one_runs = cell_runs(one_model[0], ep["tasks"][0])
    store = out_dir / "store_one"
    store.mkdir(exist_ok=True)
    done = []
    for r in one_runs:
        dev_score, test_score = oracle.trainer_scores(r["key"])
        done.append({"run_key": r["key"], "model": r["model"], "task": r["task"], "lr": r["lr"],
                     "dropout": r["dropout"], "bf16": r["bf16"], "seed": r["seed"],
                     "split_seed": r["split_seed"], "status": "ok", "dev": dev_score,
                     "test": test_score, "error": None})
    _write_jsonl(store / "results.jsonl", done)

    n_texts = len(mt_rows)
    return {
        "workload": "eval_sweep",
        "mt_texts": n_texts,
        "mt_input_words": sum(len(r["text"].split()) for r in mt_rows),
        "mt_cold_requests": math.ceil(n_texts / ep["mt_batch_size"]),
        "mt_expected": [" ".join(reversed(r["text"].split())) for r in mt_rows],
        "task_examples": len(examples),
        "train": len(examples) - len(dev),
        "dev_ids": [ex["id"] for ex in dev],
        "accuracy": f"{accuracy:.6f}",
        "models": [m[0] for m in models],
        "tasks": list(ep["tasks"]),
        "runs": len(runs),
        "run_keys": sorted(r["key"] for r in runs),
        "first_pass_failures": sum(oracle.fails_first(r["key"], ep["fail_rate"]) for r in runs),
        "cells": cells,
        "one_cell": {"model": one_model[0], "task": ep["tasks"][0], "runs": len(one_runs)},
    }


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's inputs under out_dir and return its ledger."""
    if workload == "eval_sweep":
        return _eval(seed, Path(out_dir))
    return _Crawl(workload, seed).build(Path(out_dir))

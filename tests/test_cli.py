"""Command-line interface: exit codes, wiring, stderr reporting."""

import ast
import hashlib
import json
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lusokit
from lusokit import __version__
from lusokit.benchmarks import TASKS, THREE_CLASS_LABELS
from lusokit.cli import dispatch
from lusokit.corpus_io import record_to_json
from lusokit.experiments.grid import build_matrix, load_roster, make_run_key
from lusokit.experiments.store import ResultsStore
from lusokit.metrics import f1_macro
from lusokit.packing import VIEW_MAGIC, pack_flat, read_shard
from lusokit.tokenizer import load_vocabulary, tokenize_flat

from helpers import BLOCK_EXACT_HOST, clean_text, rule_violating_text
from mt_server import PROXY_VARS, MTServer, Proxy

VOCAB = str(Path(__file__).resolve().parent.parent / "config" / "vocab.demo.txt")


def sample_text(i):
    return clean_text(random.Random(i), f"cli{i}")


def jsonl(path, rows):
    with path.open("w", encoding="utf-8") as out:
        for row in rows:
            out.write(json.dumps(row, ensure_ascii=False) + "\n")
    return str(path)


def corpus_row(i, text, host="jornal.example.br"):
    return {"id": f"r{i}", "url": f"https://{host}/p/{i}", "text": text}


def blocklist_config(tmp_path):
    """A pipeline config whose only setting is an exact blocklist of BLOCK_EXACT_HOST."""
    (tmp_path / "exact.txt").write_text(BLOCK_EXACT_HOST + "\n", encoding="utf-8")
    config = tmp_path / "pipeline.yaml"
    config.write_text("blocklist:\n  exact_file: exact.txt\n", encoding="utf-8")
    return str(config)


TRAINER_TEMPLATE = (
    f"{sys.executable} -m lusokit.faketrainer --run-key {{run_key}} "
    "--model {model} --task {task} --lr {lr} --dropout {dropout} "
    "--bf16 {bf16} --seed {seed} --split-seed {split_seed}"
)

MINI_ROSTER = "models:\n  - name: m1\n    variant: ptbr\n    size_class: 900m\n"


class TestDispatchBasics:
    def test_version_exits_zero(self, capsys):
        assert dispatch(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert dispatch([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_input_file_is_os_error(self, tmp_path, capsys):
        code = dispatch(
            ["dedup", "--input", str(tmp_path / "none.jsonl"),
             "--output", str(tmp_path / "out.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


def python_process(code, check=True):
    """Run code in a fresh interpreter with this checkout's package."""
    src = str(Path(lusokit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=check,
    )


def run_python(code):
    """Run code in a fresh interpreter with this checkout's package; its stdout."""
    return python_process(code).stdout.strip()


def test_import_leaves_numpy_and_requests_unloaded():
    # every command pays for what `import lusokit.cli` loads; numpy and
    # requests are imported only by the commands that use them
    code = "import sys, lusokit.cli; print(sorted({'numpy', 'requests'} & set(sys.modules)))"
    assert run_python(code) == "[]"


def test_import_leaves_command_modules_unloaded():
    # the package loads no submodule, and the CLI only what every command
    # needs; each command imports its own modules
    heavy = ["yaml", "lusokit.config", "lusokit.experiments", "lusokit.benchmarks", "lusokit.curation"]
    code = f"import sys, lusokit.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    assert run_python(code) == "[]"
    code = "import sys, lusokit; print(sorted(m for m in sys.modules if m.startswith('lusokit.')))"
    assert run_python(code) == "[]"


def test_fake_translate_leaves_requests_unloaded(tmp_path):
    # only the HTTP client needs the HTTP stack; the offline path never builds one
    src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "bom dia mundo")])
    argv = ["translate", "--input", src, "--output", str(tmp_path / "out.jsonl"),
            "--target", "PT-PT", "--fake", "--cache-dir", str(tmp_path / "cache")]
    http = ["requests", "http.client", "ssl", "urllib.request"]
    code = ("import sys; from lusokit.cli import dispatch; "
            f"code = dispatch({argv!r}); print(code, sorted(set({http!r}) & set(sys.modules)))")
    assert run_python(code) == "0 []"


def test_no_module_under_src_imports_requests():
    imported = set()
    for path in Path(lusokit.__file__).resolve().parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
    assert "yaml" in imported and "requests" not in imported


def corpus_chain(src, out):
    """The argvs of ingest through pack over src, each reading the one
    before it, with every output under out."""
    return [
        ["ingest", "--input", src, "--output", f"{out}/norm.jsonl"],
        ["split-variant", "--input", f"{out}/norm.jsonl", "--output-ptpt", f"{out}/pt.jsonl",
         "--output-ptbr", f"{out}/br.jsonl"],
        ["curate", "--input", f"{out}/br.jsonl", "--output", f"{out}/kept.jsonl"],
        ["dedup", "--input", f"{out}/kept.jsonl", "--output", f"{out}/unique.jsonl"],
        ["stats", "--input", f"{out}/unique.jsonl"],
        ["pack", "--input", f"{out}/unique.jsonl", "--vocab", VOCAB, "--schedule", "16:100,32:50",
         "--output-dir", f"{out}/packed"],
    ]


def test_pack_and_packing_import_leave_numpy_unloaded(tmp_path):
    # no corpus command imports numpy, in its own process or in the forked
    # workers of a multi-chunk input (an import there raises); only the
    # dense PackedBatch functions of lusokit.packing import it
    rows = [corpus_row(i, sample_text(i)) for i in range(20)]
    out = tmp_path
    argvs = corpus_chain(jsonl(tmp_path / "raw.jsonl", rows), out)
    code = f"""
import json, os, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy imported")

sys.meta_path.insert(0, NoNumpy())
from lusokit import cli, fanout

cli.CHUNK_RECORDS = 4
fanout.cpu_count = lambda: 2
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
runs = []
for argv in {argvs!r}:
    forks.clear()
    runs.append((cli.dispatch(argv), len(forks)))
print(json.dumps([runs, 'numpy' in sys.modules]))
"""
    runs, loaded = json.loads(run_python(code).splitlines()[-1])
    assert [exit_code for exit_code, _ in runs] == [0] * len(argvs)
    assert all(forks >= 1 for _, forks in runs), runs  # the workers ran
    assert not loaded
    assert len((out / "unique.jsonl").read_text().splitlines()) == len(rows)
    assert run_python("import sys, lusokit.packing; print('numpy' in sys.modules)") == "False"


def test_one_chunk_corpus_command_loads_no_pool(tmp_path):
    # an input of one chunk runs in the command's own process, so it pays
    # nothing for the process pool's or the thread pool's modules
    src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, sample_text(i)) for i in range(3)])
    argv = ["dedup", "--input", src, "--output", str(tmp_path / "out.jsonl")]
    code = ("import sys; from lusokit.cli import dispatch; code = dispatch("
            f"{argv!r}); print(code, sorted({{'multiprocessing', 'concurrent.futures'}} & set(sys.modules)))")
    assert run_python(code) == "0 []"


def test_forking_corpus_command_loads_no_pool(tmp_path):
    # workers are forked and fed by pipes, without multiprocessing's or the
    # process pool's modules
    src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, sample_text(i)) for i in range(10)])
    argv = ["dedup", "--input", src, "--output", str(tmp_path / "out.jsonl")]
    code = ("import os, sys; from lusokit import cli, fanout\n"
            "cli.CHUNK_RECORDS = 3; fanout.cpu_count = lambda: 2\n"
            "forks = []; os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
            f"code = cli.dispatch({argv!r})\n"
            "print(code, len(forks), sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    assert run_python(code) == "0 2 []"


# Importing _hashlib (hashlib's OpenSSL half) raises an error hashlib does
# not catch, so a command or trainer that loads OpenSSL fails.
NO_OPENSSL = """
import sys

class NoOpenSSL:
    def find_spec(self, name, path=None, target=None):
        if name == "_hashlib":
            raise RuntimeError("_hashlib imported")

sys.meta_path.insert(0, NoOpenSSL())
"""


@pytest.mark.parametrize("chunk_records, forked", [(1 << 20, False), (4, True)])
def test_corpus_commands_load_no_openssl(tmp_path, chunk_records, forked):
    # the corpus commands and translate digest with the builtin BLAKE2b;
    # an import of _hashlib in a forked worker fails the command
    rows = [corpus_row(i, sample_text(i)) for i in range(20)]
    out = tmp_path
    argvs = corpus_chain(jsonl(tmp_path / "raw.jsonl", rows), out) + [
        ["translate", "--input", f"{out}/unique.jsonl", "--output", f"{out}/mt.jsonl",
         "--target", "PT-PT", "--fake", "--cache-dir", f"{out}/cache"],
    ]
    code = NO_OPENSSL + f"""
import json, os
from lusokit import cli, fanout

cli.CHUNK_RECORDS = {chunk_records}
fanout.cpu_count = lambda: 2
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
runs = []
for argv in {argvs!r}:
    forks.clear()
    runs.append((argv[0], cli.dispatch(argv), len(forks) > 0, '_hashlib' in sys.modules))
print(json.dumps(runs))
"""
    runs = json.loads(run_python(code).splitlines()[-1])
    corpus = [(name, 0, forked and name != "translate", False) for name, *_ in argvs]
    assert [tuple(run) for run in runs] == corpus
    assert len((out / "unique.jsonl").read_text().splitlines()) == len(rows)


def test_eval_commands_load_no_openssl(tmp_path):
    # run keys and the stand-in trainer's scores take SHA-256 from the
    # builtin module; the trainer runs under the same finder, so a trainer
    # that loaded OpenSSL would fail its run
    trainer = tmp_path / "trainer.py"
    trainer.write_text(NO_OPENSSL + "from lusokit.faketrainer import main\nsys.exit(main())\n",
                       encoding="utf-8")
    template = TRAINER_TEMPLATE.replace("-m lusokit.faketrainer", str(trainer))
    roster = tmp_path / "roster.yaml"
    roster.write_text(MINI_ROSTER, encoding="utf-8")
    gold = jsonl(tmp_path / "rte.jsonl", [
        {"id": f"e{i}", "sentence1": f"frase {i}", "sentence2": f"outra {i}", "label": i % 2}
        for i in range(10)
    ])
    preds = jsonl(tmp_path / "pred.jsonl", [{"id": f"e{i}", "prediction": 1} for i in range(10)])
    store = f"{tmp_path}/store"
    argvs = [
        ["validate", "--input", gold, "--task", "rte"],
        ["split", "--input", gold, "--task", "rte", "--seed", "13",
         "--output-train", f"{tmp_path}/train.jsonl", "--output-dev", f"{tmp_path}/dev.jsonl"],
        ["matrix", "--models", str(roster), "--output", f"{tmp_path}/runs.jsonl"],
        ["run", "--models", str(roster), "--template", template, "--store", store,
         "--tasks", "rte", "--max-workers", "2"],
        ["report", "--models", str(roster), "--store", store, "--tasks", "rte"],
        ["score", "--gold", gold, "--pred", preds, "--task", "rte"],
    ]
    code = NO_OPENSSL + f"""
import json
from lusokit import cli
runs = [(argv[0], cli.dispatch(argv), '_hashlib' in sys.modules) for argv in {argvs!r}]
print(json.dumps(runs))
"""
    runs = json.loads(run_python(code).splitlines()[-1])
    assert [tuple(run) for run in runs] == [(argv[0], 0, False) for argv in argvs]
    records = ResultsStore(store).load().values()
    assert len(records) == 36 and {r["status"] for r in records} == {"ok"}


def test_one_blake2b_digests_as_hashlib_does():
    from lusokit import textutil

    assert textutil.blake2b is hashlib.blake2b


@settings(max_examples=200, deadline=None)
@given(text=st.text(), line_no=st.integers(1, 10**9))
def test_digests_equal_hashlib_blake2b(text, line_no):
    from lusokit.corpus_io import _synth_id
    from lusokit.curation import text_digest
    from lusokit.translate import _digest

    def digest(s, size):
        return hashlib.blake2b(s.encode("utf-8"), digest_size=size)

    assert _synth_id(text, line_no) == f"{digest(text, 6).hexdigest()}#{line_no}"
    assert text_digest(text) == digest(" ".join(text.split()), 16).digest()
    assert _digest(text) == digest(text, 16).digest()


class TestPipelineCommands:
    def test_ingest_reports_and_writes(self, tmp_path, capsys):
        src = jsonl(tmp_path / "raw.jsonl", [corpus_row(i, sample_text(i)) for i in range(4)])
        out = tmp_path / "norm.jsonl"
        assert dispatch(["ingest", "--input", src, "--output", str(out)]) == 0
        assert "ingested 4 records" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 4

    def test_split_variant_partitions(self, tmp_path, capsys):
        rows = [
            corpus_row(0, sample_text(0), host="a.example.br"),
            corpus_row(1, sample_text(1), host="b.example.pt"),
            corpus_row(2, sample_text(2), host="c.example.org"),
        ]
        src = jsonl(tmp_path / "in.jsonl", rows)
        br, pt = tmp_path / "br.jsonl", tmp_path / "pt.jsonl"
        code = dispatch(
            ["split-variant", "--input", src,
             "--output-ptpt", str(pt), "--output-ptbr", str(br)]
        )
        assert code == 0
        assert "ptpt=1 ptbr=1 discarded=1" in capsys.readouterr().err
        assert len(br.read_text().splitlines()) == 1
        assert len(pt.read_text().splitlines()) == 1

    def test_curate_blocklist_and_rules(self, tmp_path, capsys):
        rows = [
            corpus_row(0, sample_text(0)),
            corpus_row(1, rule_violating_text("min_words", random.Random(1), "cli")),
            corpus_row(2, sample_text(2), host=BLOCK_EXACT_HOST),
        ]
        src = jsonl(tmp_path / "in.jsonl", rows)
        out = tmp_path / "kept.jsonl"
        rejects = tmp_path / "rejects.jsonl"
        code = dispatch(
            ["curate", "--input", src, "--output", str(out),
             "--config", blocklist_config(tmp_path), "--rejects", str(rejects)]
        )
        assert code == 0
        assert "kept=1 blocklisted=1 rejected=1" in capsys.readouterr().err
        reject_rows = [json.loads(l) for l in rejects.read_text().splitlines()]
        assert {r["stage"] for r in reject_rows} == {"blocklist", "quality"}
        quality_row = next(r for r in reject_rows if r["stage"] == "quality")
        assert quality_row["rule"] == "min_words"

    @pytest.mark.parametrize("key, value", [
        ("max_special_char_ratio", "yes"),
        ("min_words", '"5"'),
        ("enabled_rules", "[min_words]"),
    ])
    def test_curate_bad_config_is_usage_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "pipeline.yaml"
        config.write_text(f"curation:\n  {key}: {value}\n", encoding="utf-8")
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, sample_text(0))])
        out = tmp_path / "kept.jsonl"
        code = dispatch(["curate", "--input", src, "--output", str(out), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    def test_curate_without_config_is_the_empty_config(self, tmp_path, capsys):
        rng = random.Random(7)
        rows = [corpus_row(i, sample_text(i)) for i in range(4)] + [
            corpus_row(4 + i, rule_violating_text(rule, rng, "cli"))
            for i, rule in enumerate(["min_words", "stopword", "special_char"])
        ]
        src = jsonl(tmp_path / "in.jsonl", rows)
        empty = tmp_path / "empty.yaml"
        empty.write_text("", encoding="utf-8")
        seen = []
        for name, config in [("none", []), ("empty", ["--config", str(empty)])]:
            out, rejects = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.rejects.jsonl"
            argv = ["curate", "--input", src, "--output", str(out), "--rejects", str(rejects)]
            assert dispatch(argv + config) == 0
            seen.append((out.read_bytes(), rejects.read_bytes(), capsys.readouterr()))
        assert seen[0] == seen[1]
        assert b'"rule": "stopword"' in seen[0][1]  # the package's stopwords apply

    def test_curate_without_config_loads_no_yaml(self, tmp_path):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, sample_text(0))])
        argv = ["curate", "--input", src, "--output", str(tmp_path / "out.jsonl")]
        code = f"import sys; from lusokit.cli import dispatch; dispatch({argv!r}); print('yaml' in sys.modules)"
        assert run_python(code) == "False"

    def test_dev_null_may_be_named_as_two_outputs(self, tmp_path, capsys):
        rows = [corpus_row(0, sample_text(0), host="a.example.br"),
                corpus_row(1, sample_text(1), host="b.example.pt"),
                corpus_row(2, sample_text(2), host="c.example.org")]
        src = jsonl(tmp_path / "in.jsonl", rows)
        br = tmp_path / "br.jsonl"
        code = dispatch(["split-variant", "--input", src, "--output-ptpt", os.devnull,
                         "--output-ptbr", str(br), "--output-discard", os.devnull])
        assert code == 0
        assert "ptpt=1 ptbr=1 discarded=1" in capsys.readouterr().err
        assert len(br.read_text().splitlines()) == 1

    def test_dedup(self, tmp_path, capsys):
        rows = [corpus_row(0, "um texto qualquer aqui"),
                corpus_row(1, "um  texto qualquer aqui"),
                corpus_row(2, "outro texto diferente aqui")]
        src = jsonl(tmp_path / "in.jsonl", rows)
        out = tmp_path / "out.jsonl"
        assert dispatch(["dedup", "--input", src, "--output", str(out)]) == 0
        assert "kept=2 duplicates=1" in capsys.readouterr().err

    def test_stats_table(self, tmp_path, capsys):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, "tres palavras aqui") for i in range(2)])
        assert dispatch(["stats", "--input", src, "--names", "meu"]) == 0
        out = capsys.readouterr().out
        assert "meu" in out
        assert "examples" in out

    def test_stats_name_count_mismatch(self, tmp_path, capsys):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "a b c")])
        assert dispatch(["stats", "--input", src, src, "--names", "um"]) == 2

    @pytest.mark.parametrize("argv", [
        ["ingest", "--output", "{input}"],
        ["dedup", "--output", "{input}"],
        ["curate", "--output", "{new}", "--rejects", "{input}"],
        ["curate", "--output", "{new}", "--rejects", "{new}"],
        ["split-variant", "--output-ptpt", "{old}", "--output-ptbr", "{old}"],
        ["split-variant", "--output-ptpt", "{new}", "--output-ptbr", "{sub}/../new.jsonl"],
        ["split-variant", "--output-ptpt", "{new}", "--output-ptbr", "{old}",
         "--output-discard", "{link}"],
        ["matrix", "--output", "{input}"],
    ], ids=["ingest", "dedup", "rejects-input", "rejects-output", "ptpt-ptbr", "spelled-apart",
            "hard-link", "matrix-roster"])
    def test_output_that_is_the_input_or_another_output_is_refused(self, tmp_path, capsys, argv):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, sample_text(i)) for i in range(3)])
        old = tmp_path / "old.jsonl"
        old.write_bytes(b"kept as it was\n")
        link = tmp_path / "link.jsonl"
        os.link(src, link)  # the input under another name
        before = Path(src).read_bytes()
        paths = {"input": src, "old": old, "new": tmp_path / "new.jsonl", "link": link,
                 "sub": tmp_path / "sub"}
        flag = "--models" if argv[0] == "matrix" else "--input"
        argv = [argv[0], flag, src, *(arg.format(**paths) for arg in argv[1:])]
        assert dispatch(argv) == 2
        assert "is the same file as" in capsys.readouterr().err
        assert Path(src).read_bytes() == before
        assert old.read_bytes() == b"kept as it was\n"
        assert not (tmp_path / "new.jsonl").exists()

    def test_pack_writes_manifest_and_shards(self, tmp_path, capsys):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, sample_text(i)) for i in range(3)])
        out_dir = tmp_path / "packed"
        code = dispatch(
            ["pack", "--input", src, "--vocab", VOCAB,
             "--schedule", "16:100,32:50", "--output-dir", str(out_dir),
             "--global-batch", "3072", "--devices", "16"]
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["records"] == 3
        assert manifest["per_device_batch"] == 192
        assert [s["max_len"] for s in manifest["stages"]] == [16, 32]
        for stage in manifest["stages"]:
            assert (out_dir / stage["shard"]).exists()

    @pytest.mark.parametrize("pieces, width", [(None, 2), (65_537, 4)])
    def test_pack_stores_ids_at_the_vocabulary_width(self, tmp_path, capsys, pieces, width):
        # Filler pieces go before the demo's content pieces, and a piece
        # the texts use goes last: at 65,537 pieces its id is 65,536.
        texts = [sample_text(i) for i in range(20)]
        demo = load_vocabulary(VOCAB)
        last = demo.piece(max(tokenize_flat(texts, demo, {})[0]))
        content = [p for p in demo.pieces[4:] if p != last] + [last]
        filler = [f"\u2400{i}" for i in range((pieces or len(demo)) - len(demo))]
        vocab_path = tmp_path / "vocab.txt"
        lines = [*demo.pieces[:4], *filler, *content]
        vocab_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        vocab = load_vocabulary(vocab_path)
        assert len(vocab) == (pieces or len(demo))
        ids, lengths = tokenize_flat(texts, vocab, {})
        assert (max(ids) >= 1 << 16) == (width == 4)
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, t) for i, t in enumerate(texts)])
        out_dir = tmp_path / "packed"
        assert dispatch(
            ["pack", "--input", src, "--vocab", str(vocab_path),
             "--schedule", "8:100,32:50,512:10", "--output-dir", str(out_dir)]
        ) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        base = manifest["stages"][-1]["shard"]
        for stage in manifest["stages"]:
            path = out_dir / stage["shard"]
            assert path.read_bytes()[6] == width
            if stage["shard"] == base:  # the full shard at the top cap
                assert path.stat().st_size == 20 + width * stage["tokens"] + 4 * stage["rows"]
            else:  # a cap view of it: header, then the base's name
                assert path.read_bytes()[:4] == VIEW_MAGIC
                assert path.stat().st_size == 20 + len(base.encode())
            cap = stage["max_len"]
            want = pack_flat(np.array(ids, dtype="<i4"), np.array(lengths), cap, vocab.pad_id)
            got = read_shard(path)
            assert np.array_equal(got.token_ids, want.token_ids)
            assert np.array_equal(got.attention_mask, want.attention_mask)

    def test_pack_batch_without_devices_is_usage_error(self, tmp_path):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "a b c")])
        code = dispatch(
            ["pack", "--input", src, "--vocab", VOCAB,
             "--schedule", "16:100", "--output-dir", str(tmp_path / "p"),
             "--global-batch", "3072"]
        )
        assert code == 2

    @pytest.mark.parametrize("schedule", ["1:10,128:10", "0:10"])
    def test_pack_cap_below_two_fails_before_any_work(self, tmp_path, capsys, monkeypatch, schedule):
        from lusokit import cli

        def no_read(*args, **kwargs):
            raise AssertionError("read the input")

        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, sample_text(i)) for i in range(3)])
        out_dir = tmp_path / "p"
        monkeypatch.setattr(cli, "_map_corpus", no_read)
        code = dispatch(
            ["pack", "--input", src, "--vocab", VOCAB,
             "--schedule", schedule, "--output-dir", str(out_dir)]
        )
        assert code == 2
        assert "a row needs cls + sep" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_pack_empty_input_leaves_no_shard_or_manifest(self, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("", encoding="utf-8")
        out_dir = tmp_path / "p"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("the user's own file\n", encoding="utf-8")
        code = dispatch(
            ["pack", "--input", str(src), "--vocab", VOCAB,
             "--schedule", "16:100,32:50", "--output-dir", str(out_dir)]
        )
        assert code == 1
        assert "has no records to pack" in capsys.readouterr().err
        # no stage_*.bin, *.partial or manifest.json, and the user's file stays
        assert [p.name for p in out_dir.iterdir()] == ["notes.txt"]

    def test_pack_renames_the_base_before_any_view_and_writes_the_manifest_last(
        self, tmp_path, capsys, monkeypatch
    ):
        from lusokit import packing

        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, sample_text(i)) for i in range(3)])
        argv = ["pack", "--input", src, "--vocab", VOCAB, "--schedule", "8:10,16:10,32:10",
                "--output-dir", str(tmp_path / "p")]
        assert dispatch(argv) == 0  # an earlier pack into the same directory
        real = packing.write_view
        seen = []

        def watched(path, base, cap):
            out = Path(path).parent
            seen.append((cap, Path(base).name, sorted(p.name for p in out.glob("*.partial")),
                         (out / "manifest.json").exists(), Path(base).exists()))
            real(path, base, cap)

        monkeypatch.setattr(packing, "write_view", watched)
        assert dispatch(argv) == 0
        assert seen == [(8, "stage_32.bin", [], False, True), (16, "stage_32.bin", [], False, True)]
        assert sorted(p.name for p in (tmp_path / "p").iterdir()) == [
            "manifest.json", "stage_16.bin", "stage_32.bin", "stage_8.bin"
        ]

    def test_packed_directory_moved_whole_reads_back_unchanged(self, tmp_path, capsys):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, sample_text(i)) for i in range(20)])
        out_dir = tmp_path / "p"
        assert dispatch(
            ["pack", "--input", src, "--vocab", VOCAB,
             "--schedule", "8:100,32:50,512:10", "--output-dir", str(out_dir)]
        ) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        before = [read_shard(out_dir / stage["shard"]) for stage in manifest["stages"]]
        moved = tmp_path / "elsewhere" / "packed"
        shutil.copytree(out_dir, moved)
        shutil.rmtree(out_dir)
        for stage, want in zip(manifest["stages"], before):
            got = read_shard(moved / stage["shard"])
            assert got.stage_max_len == want.stage_max_len == stage["max_len"]
            assert np.array_equal(got.token_ids, want.token_ids)
            assert np.array_equal(got.attention_mask, want.attention_mask)

    @pytest.mark.parametrize("batch, devices", [("63", "2"), ("0", "2"), ("64", "0")])
    def test_pack_bad_device_split_fails_before_any_work(self, tmp_path, capsys, batch, devices):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, sample_text(i)) for i in range(3)])
        out_dir = tmp_path / "p"
        code = dispatch(
            ["pack", "--input", src, "--vocab", VOCAB,
             "--schedule", "16:100", "--output-dir", str(out_dir),
             "--global-batch", batch, "--devices", devices]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.fixture
def forks(monkeypatch):
    """Counts the processes forked in this test (workers fork through os.fork)."""
    started = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


def fan_out_rows():
    """Clean, rule-breaking, blocklisted and over-long records, mixed."""
    rng = random.Random(11)
    rules = ["min_words", "char_repetition", "word_repetition", "special_char", "stopword"]
    rows = []
    for i in range(40):
        if i % 7 == 3:
            text = rule_violating_text(rules[i % len(rules)], rng, f"f{i}")
            rows.append(corpus_row(i, text))
        elif i % 11 == 5:
            rows.append(corpus_row(i, sample_text(i), host=BLOCK_EXACT_HOST))
        else:
            rows.append(corpus_row(i, " ".join(sample_text(i + k) for k in range(i % 4 + 1))))
    return rows


# the whitespace before a text and after each of its words
WHITESPACE_GAPS = st.lists(st.sampled_from([" ", "  ", "\t", "\n "]), min_size=5, max_size=5)


def fan_out_corpus(path):
    return jsonl(path, fan_out_rows())


def boundary_corpus(path):
    """fan_out_rows plus lines whose handling must not depend on chunking.

    With CHUNK_RECORDS = 3 each special line is the first or last line of
    a chunk: a malformed line, a blank line, records without an id (the
    synthesized id takes the line number), .pt and URL-less records, and
    whitespace variants of line 2's text three and eleven chunks later
    (line 45 repeats line 4's text as well).
    """
    rows = fan_out_rows()
    lines = [json.dumps(row, ensure_ascii=False) for row in rows]
    again = "  " + rows[2]["text"].replace(" ", "\t", 3)
    specials = {
        3: "not json",
        5: "",
        6: json.dumps({"url": "https://a.example.pt/x", "text": sample_text(90)}),
        8: json.dumps({"text": sample_text(91)}),
        9: json.dumps(corpus_row(92, again, host="b.example.pt")),
        12: json.dumps({"url": "https://c.example.pt/y", "text": sample_text(93)}),
        35: json.dumps(corpus_row(94, again)),
    }
    for at, line in sorted(specials.items()):
        lines.insert(at, line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def boundary_blocks(path):
    """Plain-text blocks with blank runs of every shape between them."""
    gaps = ["\n", "\n\n\n", "  \n\t\n", "\r\n"]
    parts = ["\n\n"]
    for i in range(14):
        parts.append(f"bloco {i} linha um\n" + "continua aqui\r\n" * (i % 3))
        parts.append(gaps[i % len(gaps)])
    path.write_text("".join(parts) + "\n \n", encoding="utf-8")
    return str(path)


class TestProcessFanOut:
    """Every corpus command splits its input into chunks run by forked workers."""

    def curate(self, tmp_path, capsys, name):
        src = fan_out_corpus(tmp_path / "in.jsonl")
        out, rejects = tmp_path / f"{name}.kept", tmp_path / f"{name}.rejects"
        code = dispatch(
            ["curate", "--input", src, "--output", str(out),
             "--config", blocklist_config(tmp_path), "--rejects", str(rejects)]
        )
        return code, out.read_bytes(), rejects.read_bytes(), capsys.readouterr().err

    def pack(self, tmp_path, capsys, name):
        src = fan_out_corpus(tmp_path / "in.jsonl")
        out_dir = tmp_path / name
        code = dispatch(
            ["pack", "--input", src, "--vocab", VOCAB, "--schedule", "8:10,32:10,256:10",
             "--output-dir", str(out_dir), "--global-batch", "64", "--devices", "2"]
        )
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return code, files, capsys.readouterr().err.replace(str(out_dir), "<out>")

    def every_command(self, tmp_path, capsys, name):
        """Exit code, stdout and stderr of each corpus command, and every file written."""
        src = boundary_corpus(tmp_path / "raw.jsonl")
        blocks = boundary_blocks(tmp_path / "raw.txt")
        config = blocklist_config(tmp_path)
        out = tmp_path / f"{name}.all"
        out.mkdir()
        argvs = [
            ["ingest", "--input", src, "--output", f"{out}/norm.jsonl"],
            ["ingest", "--input", blocks, "--format", "blocks", "--source", "DCEP",
             "--output", f"{out}/blocks.jsonl"],
            ["split-variant", "--input", src, "--output-ptpt", f"{out}/pt.jsonl",
             "--output-ptbr", f"{out}/br.jsonl", "--output-discard", f"{out}/rest.jsonl"],
            ["curate", "--input", src, "--output", f"{out}/kept.jsonl",
             "--config", config, "--rejects", f"{out}/rejects.jsonl"],
            ["dedup", "--input", src, "--output", f"{out}/unique.jsonl"],
            ["stats", "--input", src, "--names", "raw"],
            ["pack", "--input", src, "--vocab", VOCAB, "--schedule", "8:10,32:10,256:10",
             "--output-dir", f"{out}/packed", "--global-batch", "64", "--devices", "2"],
        ]
        runs = []
        for argv in argvs:
            code = dispatch(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err.replace(str(out), "<out>")))
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*.*"))}
        return runs, files

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_outputs_identical_to_one_chunk(self, tmp_path, capsys, monkeypatch, forks, workers):
        from lusokit import cli, fanout

        monkeypatch.setattr(fanout, "cpu_count", lambda: 1)
        curated = self.curate(tmp_path, capsys, "one")
        packed = self.pack(tmp_path, capsys, "one")
        runs, files = self.every_command(tmp_path, capsys, "one")
        assert forks == []
        assert curated[0] == 0 and curated[3] == "kept=28 blocklisted=3 rejected=9\n"
        assert packed[0] == 0 and len(packed[1]) == 4
        raw = (tmp_path / "raw.jsonl").stat().st_size
        assert [err for _code, _out, err in runs[:5]] == [
            f"ingested 45 records (2 malformed units skipped, {raw} bytes read)\n",
            f"ingested 14 records (0 malformed units skipped, {(tmp_path / 'raw.txt').stat().st_size} bytes read)\n",
            "ptpt=3 ptbr=41 discarded=1\n",
            "kept=33 blocklisted=3 rejected=9\n",
            "kept=42 duplicates=3\n",
        ]
        assert all(code == 0 for code, _out, _err in runs)
        assert runs[5][1].splitlines()[-1].split()[:2] == ["raw", "45"]
        assert len(files) == 12

        monkeypatch.setattr(fanout, "cpu_count", lambda: workers)
        monkeypatch.setattr(cli, "CHUNK_RECORDS", 3)  # 14-16 chunks per input
        assert self.curate(tmp_path, capsys, "many") == curated
        assert self.pack(tmp_path, capsys, "many") == packed
        assert self.every_command(tmp_path, capsys, "many") == (runs, files)
        # curate and pack above, then seven commands, each forking every worker
        assert len(forks) == (9 * workers if workers > 1 else 0)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(st.integers(1, 4), WHITESPACE_GAPS), max_size=12),
           chunk_records=st.integers(1, 3))
    def test_dedup_equals_dedup_exact_across_chunks(
        self, tmp_path, capsys, monkeypatch, forks, rows, chunk_records
    ):
        # whitespace variants of four texts, so a duplicate can fall in
        # another chunk, and another worker, than its first occurrence
        from lusokit import cli, fanout
        from lusokit.corpus_io import read_records
        from lusokit.curation import dedup_exact

        monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "CHUNK_RECORDS", chunk_records)
        forks.clear()
        words = ["um", "texto", "qualquer", "aqui"]
        texts = [gaps[0] + "".join(w + g for w, g in zip(words[:n], gaps[1:])) for n, gaps in rows]
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, t) for i, t in enumerate(texts)])
        out = tmp_path / "unique.jsonl"
        assert dispatch(["dedup", "--input", src, "--output", str(out)]) == 0
        unique, stats = dedup_exact(read_records(src)[0])
        assert out.read_text(encoding="utf-8") == "".join(record_to_json(r) + "\n" for r in unique)
        assert capsys.readouterr().err == f"kept={stats.kept} duplicates={stats.duplicates}\n"
        assert len(forks) == (2 if len(texts) > chunk_records else 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lone_surrogate_is_a_malformed_unit(self, tmp_path, capsys, monkeypatch, workers):
        from lusokit import cli, fanout

        monkeypatch.setattr(fanout, "cpu_count", lambda: workers)
        monkeypatch.setattr(cli, "CHUNK_RECORDS", 1)
        src = tmp_path / "in.jsonl"
        src.write_text('{"id": "a", "text": "bad \\ud800 surrogate"}\n'
                       '{"id": "b", "text": "pair \\ud83d\\ude00 kept"}\n', encoding="utf-8")
        out = tmp_path / "norm.jsonl"
        assert dispatch(["ingest", "--input", str(src), "--output", str(out)]) == 0
        assert capsys.readouterr().err == (
            f"ingested 1 records (1 malformed units skipped, {src.stat().st_size} bytes read)\n")
        assert out.read_text(encoding="utf-8") == '{"id": "b", "source": "Other", "text": "pair \U0001f600 kept"}\n'

        src.write_text('{"id": "a", "text": "um"}\n{"id": "\\udc00", "text": "dois"}\n'
                       '{"text": "\\uDFFF sem id"}\n{"id": "c", "text": "um"}\n', encoding="utf-8")
        out = tmp_path / "unique.jsonl"
        assert dispatch(["dedup", "--input", str(src), "--output", str(out)]) == 0
        assert capsys.readouterr().err == "kept=1 duplicates=1\n"
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["a"]

    def test_input_that_is_not_a_regular_file_starts_no_worker(self, tmp_path, capsys, monkeypatch, forks):
        # each worker rereads its input, which a FIFO cannot give twice
        from lusokit import cli, fanout

        monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "CHUNK_RECORDS", 3)
        src = boundary_corpus(tmp_path / "raw.jsonl")
        assert dispatch(["dedup", "--input", src, "--output", str(tmp_path / "file.out")]) == 0
        from_file = capsys.readouterr().err
        assert len(forks) == 2
        forks.clear()

        fifo = tmp_path / "raw.fifo"
        os.mkfifo(fifo)
        # a process, not a thread, fills it: a thread would itself keep the command in-process
        writer = subprocess.Popen(["sh", "-c", 'exec cat "$1" > "$2"', "sh", src, str(fifo)])
        try:
            assert dispatch(["dedup", "--input", str(fifo), "--output", str(tmp_path / "fifo.out")]) == 0
            assert writer.wait(timeout=30) == 0
        finally:
            writer.kill()  # a no-op once it has exited
            writer.wait()
        assert forks == []
        assert capsys.readouterr().err == from_file
        assert (tmp_path / "fifo.out").read_bytes() == (tmp_path / "file.out").read_bytes()

    def test_one_chunk_starts_no_worker(self, tmp_path, capsys, monkeypatch):
        from lusokit import fanout

        def no_fork():
            raise AssertionError("forked for a one-chunk input")

        monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert self.curate(tmp_path, capsys, "c")[0] == 0
        assert self.pack(tmp_path, capsys, "p")[0] == 0
        runs, _files = self.every_command(tmp_path, capsys, "all")
        assert [code for code, _out, _err in runs] == [0] * 7

    def test_worker_exception_is_the_command_error(self, tmp_path, capsys, monkeypatch, forks):
        from lusokit import cli, curation, fanout
        from lusokit.errors import DataError

        real = curation.apply_filters

        def failing(record, cfg):
            if record.id == "r20":
                raise DataError(f"cannot filter {record.id}")
            return real(record, cfg)

        monkeypatch.setattr(curation, "apply_filters", failing)
        monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "CHUNK_RECORDS", 3)
        code, _, _, err = self.curate(tmp_path, capsys, "c")
        assert code == 1
        assert "error: cannot filter r20" in err
        assert len(forks) == 2

    def test_pack_worker_exception_leaves_no_shard_or_manifest(self, tmp_path, capsys, monkeypatch, forks):
        from lusokit import cli, fanout, tokenizer
        from lusokit.errors import DataError

        real = tokenizer.tokenize_flat
        rows = map(json.loads, Path(fan_out_corpus(tmp_path / "in.jsonl")).read_text().splitlines())
        marker = next(row["text"] for row in rows if row["id"] == "r20")

        def failing(texts, vocab, memo):
            if marker in texts:
                raise DataError("cannot tokenize r20")
            return real(texts, vocab, memo)

        monkeypatch.setattr(tokenizer, "tokenize_flat", failing)
        monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "CHUNK_RECORDS", 3)
        out_dir = tmp_path / "p"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("the user's own file\n", encoding="utf-8")
        code = dispatch(
            ["pack", "--input", str(tmp_path / "in.jsonl"), "--vocab", VOCAB,
             "--schedule", "8:10,32:10,256:10", "--output-dir", str(out_dir)]
        )
        assert code == 1
        assert "error: cannot tokenize r20" in capsys.readouterr().err
        # no stage_*.bin, *.partial or manifest.json, and the user's file stays
        assert [p.name for p in out_dir.iterdir()] == ["notes.txt"]
        assert len(forks) == 2

    def test_dead_worker_fails_the_command(self, tmp_path):
        # dedup: the one command whose worker results pass a filter in the parent
        src = fan_out_corpus(tmp_path / "in.jsonl")
        argv = ["dedup", "--input", src, "--output", str(tmp_path / "unique.jsonl")]
        code = (
            "import os, sys\n"
            "from lusokit import cli, curation, fanout\n"
            "parent = os.getpid()\n"
            "real = curation.text_digest\n"
            "def dying(text):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(3)\n"
            "    return real(text)\n"
            "curation.text_digest = dying\n"
            "fanout.cpu_count = lambda: 2\n"
            "cli.CHUNK_RECORDS = 3\n"
            f"sys.exit(cli.dispatch({argv!r}))\n"
        )
        result = python_process(code, check=False)
        # one error line and exit code 3, not a traceback
        assert result.returncode == 3
        assert re.fullmatch(
            r"error: worker process \d+ terminated abruptly \(exit code 3\)\n", result.stderr
        ), result.stderr
        assert "Traceback" not in result.stderr

    def test_sigint_is_one_error_line_and_leaves_no_worker(self, tmp_path):
        # a worker writes its pid to the marker, then blocks in r20's chunk
        # (the seventh) until the command, interrupted, kills it
        src = fan_out_corpus(tmp_path / "in.jsonl")
        marker = tmp_path / "worker.pid"
        argv = ["curate", "--input", src, "--output", str(tmp_path / "kept.jsonl")]
        code = (
            "import os, sys, time\n"
            "from lusokit import cli, curation, fanout\n"
            "real = curation.apply_filters\n"
            "def blocking(record, cfg):\n"
            "    if record.id == 'r20':\n"
            f"        with open({str(marker)!r} + '.tmp', 'w') as out:\n"
            "            out.write(str(os.getpid()))\n"
            f"        os.replace({str(marker)!r} + '.tmp', {str(marker)!r})\n"
            "        time.sleep(60)\n"
            "    return real(record, cfg)\n"
            "curation.apply_filters = blocking\n"
            "fanout.cpu_count = lambda: 2\n"
            "cli.CHUNK_RECORDS = 3\n"
            f"sys.exit(cli.dispatch({argv!r}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.Popen([sys.executable, "-c", code], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while not marker.exists():
                assert child.poll() is None, "the command ended before r20's chunk"
                assert time.monotonic() < deadline, "no worker reached r20's chunk"
                time.sleep(0.01)
            worker = int(marker.read_text())
            assert worker != child.pid
            child.send_signal(signal.SIGINT)
            _out, err = child.communicate(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            if worker is not None:
                try:
                    os.kill(worker, signal.SIGKILL)
                    alive = True
                except ProcessLookupError:
                    alive = False
        assert (child.returncode, err) == (130, "error: interrupted\n")
        assert not alive, f"worker {worker} outlived the command"


class TestTaskCommands:
    def _rte_rows(self, n):
        return [
            {"id": f"e{i}", "sentence1": f"frase {i}", "sentence2": f"outra {i}",
             "label": i % 2}
            for i in range(n)
        ]

    def test_split_and_validate(self, tmp_path, capsys):
        src = jsonl(tmp_path / "rte.jsonl", self._rte_rows(10))
        train, dev = tmp_path / "train.jsonl", tmp_path / "dev.jsonl"
        code = dispatch(
            ["split", "--input", src, "--task", "rte", "--seed", "13",
             "--output-train", str(train), "--output-dev", str(dev)]
        )
        assert code == 0
        assert "train=9 dev=1" in capsys.readouterr().err
        for part in (train, dev):
            assert dispatch(["validate", "--input", str(part), "--task", "rte"]) == 0

    def test_validate_reports_violations(self, tmp_path, capsys):
        rows = self._rte_rows(3)
        rows[1]["label"] = 7
        src = jsonl(tmp_path / "rte.jsonl", rows)
        assert dispatch(["validate", "--input", src, "--task", "rte"]) == 1
        captured = capsys.readouterr()
        assert "e1" in captured.out
        assert "violations=1" in captured.err

    @pytest.mark.parametrize("train, dev", [("{new}", "{new}"), ("{old}", "{input}"),
                                            ("{input}", "{new}"), ("{new}", "{link}")],
                             ids=["train-dev", "dev-input", "train-input", "dev-link"])
    def test_split_outputs_that_collide_are_refused(self, tmp_path, capsys, train, dev):
        src = jsonl(tmp_path / "rte.jsonl", self._rte_rows(10))
        old = tmp_path / "old.jsonl"
        old.write_bytes(b"kept as it was\n")
        os.link(src, tmp_path / "link.jsonl")
        before = Path(src).read_bytes()
        paths = {"input": src, "old": old, "new": tmp_path / "new.jsonl", "link": tmp_path / "link.jsonl"}
        code = dispatch(["split", "--input", src, "--task", "rte", "--seed", "13",
                         "--output-train", train.format(**paths), "--output-dev", dev.format(**paths)])
        assert code == 2
        assert "is the same file as" in capsys.readouterr().err
        assert Path(src).read_bytes() == before
        assert old.read_bytes() == b"kept as it was\n"
        assert not (tmp_path / "new.jsonl").exists()

    def test_split_rejects_bad_schema(self, tmp_path):
        rows = self._rte_rows(3)
        del rows[0]["sentence2"]
        src = jsonl(tmp_path / "rte.jsonl", rows)
        code = dispatch(
            ["split", "--input", src, "--task", "rte", "--seed", "13",
             "--output-train", str(tmp_path / "t"), "--output-dev", str(tmp_path / "d")]
        )
        assert code == 1

    def test_unknown_task_is_usage_error(self, tmp_path, capsys):
        src = jsonl(tmp_path / "x.jsonl", self._rte_rows(2))
        assert dispatch(["validate", "--input", src, "--task", "nada"]) == 2
        assert "unknown task" in capsys.readouterr().err

    def test_score_accuracy(self, tmp_path, capsys):
        gold = jsonl(tmp_path / "gold.jsonl", self._rte_rows(4))
        preds = jsonl(
            tmp_path / "pred.jsonl",
            [{"id": f"e{i}", "prediction": 1 if i < 2 else i % 2} for i in range(4)],
        )
        code = dispatch(["score", "--gold", gold, "--pred", preds, "--task", "rte"])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

    def test_score_cb_is_macro_f1_over_the_three_labels(self, tmp_path, capsys):
        labels = sorted(THREE_CLASS_LABELS)
        rng = random.Random(26)
        pairs = [(rng.choice(labels), rng.choice(labels[:2])) for _ in range(12)]  # no neutral predicted
        gold = jsonl(tmp_path / "cb.jsonl", [
            {"id": f"e{i}", "premise": f"frase {i}", "hypothesis": f"outra {i}", "label": g}
            for i, (g, _) in enumerate(pairs)
        ])
        preds = jsonl(tmp_path / "pred.jsonl",
                      [{"id": f"e{i}", "prediction": p} for i, (_, p) in enumerate(pairs)])
        assert dispatch(["score", "--gold", gold, "--pred", preds, "--task", "cb"]) == 0
        assert capsys.readouterr().out == f"f1_macro={f1_macro(pairs, labels):.6f}\n"

    def test_score_missing_prediction_is_data_error(self, tmp_path, capsys):
        gold = jsonl(tmp_path / "gold.jsonl", self._rte_rows(3))
        preds = jsonl(tmp_path / "pred.jsonl", [{"id": "e0", "prediction": 1}])
        assert dispatch(["score", "--gold", gold, "--pred", preds, "--task", "rte"]) == 1

    @pytest.mark.parametrize(
        "body,message",
        [
            ('\n{"id": "e0", "prediction": 1\n', "2: invalid JSON (Expecting ',' delimiter)"),
            ('"e0"\n', "1: need 'id' and 'prediction' keys"),
            ('{"id": "e0", "prediction": 1}\n{"id": "e1"}\n', "2: need 'id' and 'prediction' keys"),
            ('{"id": "e0", "prediction": 1}\n{"id": "e0", "prediction": 0}\n',
             "2: duplicate prediction for 'e0'"),
            ('{"id": ["e0"], "prediction": 1}\n', "1: prediction id must be a string, got ['e0']"),
            ('{"id": "e0", "prediction": 1}\n{"id": 1, "prediction": 0}\n',
             "2: prediction id must be a string, got 1"),
        ],
    )
    def test_score_prediction_file_errors(self, tmp_path, capsys, body, message):
        gold = jsonl(tmp_path / "gold.jsonl", self._rte_rows(2))
        preds = tmp_path / "pred.jsonl"
        preds.write_text(body, encoding="utf-8")
        assert dispatch(["score", "--gold", gold, "--pred", str(preds), "--task", "rte"]) == 1
        assert capsys.readouterr().err == f"error: {preds}:{message}\n"


    @pytest.mark.parametrize(
        "predictions,message",
        [
            (["abc", 2.5], "could not convert string to float: 'abc'"),
            ([None, 2.5], "float() argument must be a string or a real number, not 'NoneType'"),
            ([1.0], "need at least 2 points for correlation, got 1"),
        ],
    )
    def test_score_bad_pearson_input_is_one_error_line(self, tmp_path, capsys, predictions, message):
        rows = [{"id": f"e{i}", "sentence1": "um", "sentence2": "dois", "label": 1.0 + i}
                for i in range(len(predictions))]
        gold = jsonl(tmp_path / "gold.jsonl", rows)
        preds = jsonl(tmp_path / "pred.jsonl",
                      [{"id": f"e{i}", "prediction": p} for i, p in enumerate(predictions)])
        assert dispatch(["score", "--gold", gold, "--pred", preds, "--task", "stsb"]) == 1
        assert capsys.readouterr().err == f"error: cannot compute pearson: {message}\n"


@pytest.fixture
def loopback_env(monkeypatch):
    """An auth key for the loopback provider, and none of this machine's proxy settings."""
    for name in PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("LUSOKIT_MT_AUTH_KEY", "chave")


class TestTranslateCommand:
    def test_fake_translation_round_trip(self, tmp_path, capsys):
        rows = [corpus_row(0, "bom dia mundo"), corpus_row(1, "ate logo")]
        src = jsonl(tmp_path / "in.jsonl", rows)
        out = tmp_path / "out.jsonl"
        code = dispatch(
            ["translate", "--input", src, "--output", str(out),
             "--target", "PT-PT", "--fake",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["text"] == "mundo dia bom"
        assert "translated=2 rejected=0" in capsys.readouterr().err

    def test_cache_is_one_file_and_a_rerun_sends_nothing(self, tmp_path, capsys):
        rows = [corpus_row(i, f"texto numero {i} aqui") for i in range(7)]
        src = jsonl(tmp_path / "in.jsonl", rows)
        cache = tmp_path / "cache"
        outputs = []
        for run in range(2):
            out = tmp_path / f"out{run}.jsonl"
            code = dispatch(
                ["translate", "--input", src, "--output", str(out), "--target",
                 "PT-PT", "--fake", "--batch-size", "3", "--cache-dir", str(cache)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
            assert sorted(p.name for p in cache.iterdir()) == ["cache.jsonl"]
        err = capsys.readouterr().err
        assert "requests=3" in err and "requests=0" in err
        assert outputs[0] == outputs[1]

    def test_repeated_text_is_sent_and_cached_once(self, tmp_path, capsys):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, "o mesmo texto") for i in range(4)])
        out = tmp_path / "out.jsonl"
        code = dispatch(
            ["translate", "--input", src, "--output", str(out), "--target", "PT-PT",
             "--fake", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        assert capsys.readouterr().err == "translated=4 rejected=0 requests=1\n"
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [(r["id"], r["text"]) for r in rows] == [(f"r{i}", "texto mesmo o") for i in range(4)]
        cached = (tmp_path / "cache" / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(cached) == 1 and "text" not in json.loads(cached[0])

    def test_each_reject_is_one_warning_line(self, tmp_path, capsys, loopback_env):
        rows = [corpus_row(0, "um"), corpus_row(1, "veneno"), corpus_row(2, "dois"),
                corpus_row(3, "veneno")]
        # a non-text answer for "veneno" rejects that text alone
        with MTServer(translate=lambda text: None if text == "veneno" else text) as server:
            code = dispatch(
                ["translate", "--input", jsonl(tmp_path / "in.jsonl", rows),
                 "--output", str(tmp_path / "o"), "--target", "PT-PT",
                 "--endpoint", f"{server.url}/v1"]
            )
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "WARNING lusokit: rejected r1: translation 0 is NoneType, not text",
            "WARNING lusokit: rejected r3: translation 0 is NoneType, not text",
            "translated=2 rejected=2 requests=5",
        ]

    def test_output_lines_serialize_like_records(self, tmp_path, capsys):
        rows = [
            {"id": "a", "url": "https://x.pt/1", "source": "DCEP", "text": "um \u00e9 dois"},
            {"id": "b", "text": "sem url"},
        ]
        out = tmp_path / "out.jsonl"
        code = dispatch(
            ["translate", "--input", jsonl(tmp_path / "in.jsonl", rows),
             "--output", str(out), "--target", "PT-PT", "--fake"]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == (
            '{"id": "a", "url": "https://x.pt/1", "source": "DCEP", "text": "dois \u00e9 um"}\n'
            '{"id": "b", "source": "Other", "text": "url sem"}\n'
        )

    @pytest.mark.parametrize("same", ["input", "link"])
    def test_output_that_is_the_input_is_refused(self, tmp_path, capsys, same):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "bom dia mundo")])
        os.link(src, tmp_path / "link.jsonl")
        before = Path(src).read_bytes()
        output = src if same == "input" else str(tmp_path / "link.jsonl")
        code = dispatch(["translate", "--input", src, "--output", output, "--target", "PT-PT",
                         "--fake", "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert f"error: output {output} is the same file as {src}" in capsys.readouterr().err
        assert Path(src).read_bytes() == before
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("flag", ["--batch-size", "--max-workers"])
    def test_non_positive_flag_fails_before_any_work(self, tmp_path, capsys, flag):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "ola")])
        out, cache = tmp_path / "out.jsonl", tmp_path / "cache"
        code = dispatch(
            ["translate", "--input", src, "--output", str(out), "--target", "PT-PT",
             "--fake", "--cache-dir", str(cache), flag, "0"]
        )
        assert code == 2
        assert f"error: {flag} must be positive, got 0" in capsys.readouterr().err
        assert not out.exists() and not cache.exists()

    def test_missing_key_is_one_error_line(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LUSOKIT_MT_AUTH_KEY", raising=False)
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "ola")])
        argv = ["translate", "--input", src, "--output", str(tmp_path / "o"),
                "--target", "PT-PT", "--endpoint", "https://mt.example/v1"]
        code = f"import sys; from lusokit.cli import main; sys.argv[1:] = {argv!r}; main()"
        done = python_process(code, check=False)
        assert done.returncode == 2
        assert done.stderr == "error: no auth key: pass one or set LUSOKIT_MT_AUTH_KEY\n"

    def test_key_rejected_mid_run_is_one_error_line(self, tmp_path, capsys, loopback_env):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(i, f"texto {i}") for i in range(3)])
        # echoes the first batch back, then answers 401
        with MTServer(statuses=[200, 401], translate=lambda text: text) as server:
            code = dispatch(
                ["translate", "--input", src, "--output", str(tmp_path / "o"), "--target",
                 "PT-PT", "--endpoint", f"{server.url}/v1", "--batch-size", "1",
                 "--cache-dir", str(tmp_path / "cache")]
            )
        assert code == 2
        assert capsys.readouterr().err == "error: auth rejected with status 401\n"
        cached = (tmp_path / "cache" / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        digest = hashlib.blake2b("texto 0".encode("utf-8"), digest_size=16).hexdigest()
        assert [(json.loads(line)["digest"], json.loads(line)["translation"])
                for line in cached] == [(digest, "texto 0")]

    def test_endpoint_without_a_scheme_fails_before_any_work(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.setenv("LUSOKIT_MT_AUTH_KEY", "chave")
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "ola")])
        out, cache = tmp_path / "out.jsonl", tmp_path / "cache"
        code = dispatch(
            ["translate", "--input", src, "--output", str(out), "--target", "PT-PT",
             "--endpoint", "mt.example/v1", "--cache-dir", str(cache)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: endpoint mt.example/v1 is not an http or https URL with a host\n")
        assert not out.exists() and not cache.exists()

    def test_endpoint_required_without_fake(self, tmp_path):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "ola")])
        code = dispatch(
            ["translate", "--input", src, "--output", str(tmp_path / "o"),
             "--target", "PT-PT"]
        )
        assert code == 2


class TestTranslateOverHttp:
    """translate --endpoint against a loopback provider (and proxy) in this process."""

    TEXTS = [f"texto numero {i} aqui" for i in range(40)]

    @pytest.fixture(autouse=True)
    def environment(self, tmp_path, monkeypatch, loopback_env):
        monkeypatch.setattr("lusokit.translate.BACKOFF_BASE_S", 0.01)
        jsonl(tmp_path / "in.jsonl", [corpus_row(i, t) for i, t in enumerate(self.TEXTS)])

    def translate(self, tmp_path, name, *flags):
        """dispatch's exit code and the output's bytes (None if not written)."""
        out = tmp_path / f"{name}.jsonl"
        code = dispatch(["translate", "--input", str(tmp_path / "in.jsonl"), "--output", str(out),
                         "--target", "PT-PT", "--batch-size", "4", "--max-workers", "2", *flags])
        return code, out.read_bytes() if out.exists() else None

    @pytest.fixture
    def expected(self, tmp_path, capsys):
        """translate --fake's output, which the loopback server's answers reproduce."""
        code, output = self.translate(tmp_path, "fake", "--fake")
        capsys.readouterr()
        assert code == 0
        return output

    def test_cold_then_warm_over_kept_alive_connections(self, tmp_path, capsys, expected):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        with MTServer() as server:
            cold = self.translate(tmp_path, "cold", "--endpoint", f"{server.url}/v1", *cache)
            assert len(server.peers) <= 2  # one connection per worker, reused
            warm = self.translate(tmp_path, "warm", "--endpoint", f"{server.url}/v1", *cache)
        assert cold == warm == (0, expected)
        assert len(server.requests) == 10
        assert {(path, headers["Authorization"]) for path, headers, _ in server.requests} == {
            ("/v1", "Bearer chave")}
        assert capsys.readouterr().err.splitlines() == [
            "translated=40 rejected=0 requests=10", "translated=40 rejected=0 requests=0"]

    def test_unavailable_then_ok_is_retried(self, tmp_path, capsys, expected):
        with MTServer(statuses=[503]) as server:
            result = self.translate(tmp_path, "out", "--endpoint", f"{server.url}/v1")
        assert result == (0, expected)
        assert capsys.readouterr().err == "translated=40 rejected=0 requests=11\n"

    @pytest.mark.parametrize("status", [401, 302])
    def test_rejected_key_or_redirect_is_one_error_line(self, tmp_path, capsys, status):
        with MTServer(statuses=[status] * 2) as server:
            code, output = self.translate(tmp_path, "out", "--endpoint", f"{server.url}/v1")
        assert (code, output) == (2, None)
        if status == 401:
            line = "error: auth rejected with status 401"
        else:
            line = (f"error: endpoint {server.url}/v1 redirects with status 302 to "
                    f"{server.location}; redirects are not followed")
        assert capsys.readouterr().err == line + "\n"
        assert len(server.requests) <= 2

    def test_http_proxy_carries_requests_unless_no_proxy_names_the_host(
            self, tmp_path, monkeypatch, expected):
        with MTServer() as server, Proxy() as proxy:
            endpoint = f"{server.url}/v1"
            monkeypatch.setenv("http_proxy", proxy.url)
            proxied = self.translate(tmp_path, "proxied", "--endpoint", endpoint)
            assert proxy.seen == [("POST", endpoint, None)] * 10
            monkeypatch.setenv("no_proxy", "127.0.0.1")
            direct = self.translate(tmp_path, "direct", "--endpoint", endpoint)
        assert proxied == direct == (0, expected)
        assert len(proxy.seen) == 10 and len(server.requests) == 20


class TestExperimentCommands:
    def _roster(self, tmp_path):
        path = tmp_path / "roster.yaml"
        path.write_text(MINI_ROSTER, encoding="utf-8")
        return str(path)

    def test_matrix_count(self, tmp_path, capsys):
        code = dispatch(["matrix", "--models", self._roster(tmp_path), "--count"])
        assert code == 0
        assert capsys.readouterr().out.strip() == str(10 * 36)

    def test_matrix_rows_have_keys(self, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        code = dispatch(
            ["matrix", "--models", self._roster(tmp_path), "--output", str(out)]
        )
        assert code == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert set(first) >= {"run_key", "model", "task", "lr", "dropout",
                              "bf16", "seed", "split_seed"}

    def test_run_and_report(self, tmp_path, capsys):
        roster = self._roster(tmp_path)
        store = str(tmp_path / "store")
        code = dispatch(
            ["run", "--models", roster, "--template", TRAINER_TEMPLATE,
             "--store", store, "--tasks", "rte"]
        )
        assert code == 0
        assert "attempted=36 succeeded=36" in capsys.readouterr().err
        code = dispatch(
            ["report", "--models", roster, "--store", store, "--tasks", "rte"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "cells=1 incomplete=0" in captured.err
        assert "m1" in captured.out

    def test_each_run_key_is_hashed_once(self, tmp_path, capsys, monkeypatch):
        from lusokit.experiments import grid

        hashed = []

        def counting_sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(grid, "sha256", counting_sha256)
        roster = self._roster(tmp_path)
        store = str(tmp_path / "store")
        template = ("sh -c 'echo dev=0.5 test=0.5' sh {run_key} {model} {task} {lr} "
                    "{dropout} {bf16} {seed} {split_seed}")
        code = dispatch(["run", "--models", roster, "--template", template,
                         "--store", store, "--tasks", "rte", "--max-workers", "2"])
        assert code == 0
        assert "attempted=36 succeeded=36" in capsys.readouterr().err
        assert len(hashed) == len(set(hashed)) == 36
        hashed.clear()
        assert dispatch(["report", "--models", roster, "--store", store, "--tasks", "rte"]) == 0
        assert "cells=1 incomplete=0" in capsys.readouterr().err
        assert len(hashed) == len(set(hashed)) == 36

    def test_run_prints_one_progress_line_per_run(self, tmp_path, capsys):
        code = dispatch(
            ["run", "--models", self._roster(tmp_path), "--template", TRAINER_TEMPLATE,
             "--store", str(tmp_path / "store"), "--tasks", "rte", "--max-workers", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1] == "attempted=36 succeeded=36 failed=0 already_done=0 claimed_elsewhere=0"
        keys = set(ResultsStore(tmp_path / "store").load())
        assert len(lines) == 37 and len(keys) == 36
        assert {line.split()[1] for line in lines[:-1]} == keys
        assert all(re.fullmatch(r"ok [0-9a-f]{16} m1 rte \d+\.\d{3}s", line) for line in lines[:-1])

    def test_run_leaves_a_live_claim_alone(self, tmp_path, capsys):
        roster = self._roster(tmp_path)
        held = make_run_key(build_matrix(load_roster(roster), tasks=[TASKS["rte"]])[0])
        holder = ResultsStore(tmp_path / "store")
        assert holder.claim(held)
        log = tmp_path / "log.jsonl"
        code = dispatch(
            ["run", "--models", roster, "--template", f"{TRAINER_TEMPLATE} --log {log}",
             "--store", str(tmp_path / "store"), "--tasks", "rte", "--max-workers", "2"]
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "attempted=35 succeeded=35 failed=0 already_done=0 claimed_elsewhere=1"
        invoked = [json.loads(line)["run_key"] for line in log.read_text().splitlines()]
        assert len(invoked) == len(set(invoked)) == 35 and held not in invoked
        holder.release(held)

    @pytest.mark.parametrize("script, status, error", [
        ("printf '\\377\\376bad\\n' >&2; echo dev=0.5 test=0.5", "ok", None),
        ("printf '\\377\\376\\n'", "failed", "no 'dev=<float> test=<float>' line in trainer output"),
    ], ids=["bad-stderr", "garbage-stdout"])
    def test_trainer_output_that_is_not_utf8_is_recorded(self, tmp_path, capsys, script, status, error):
        # undecodable bytes are replaced; they never stop the run
        template = (f"sh -c {shlex.quote(script)} sh {{run_key}} {{model}} {{task}} {{lr}} "
                    "{dropout} {bf16} {seed} {split_seed}")
        store = tmp_path / "store"
        code = dispatch(["run", "--models", self._roster(tmp_path), "--template", template,
                         "--store", str(store), "--tasks", "rte", "--max-workers", "2"])
        assert code == (0 if status == "ok" else 1)
        records = ResultsStore(store).load().values()
        assert len(records) == 36
        assert {(r["status"], r["error"]) for r in records} == {(status, error)}

    def test_run_failures_exit_one(self, tmp_path, capsys):
        roster = self._roster(tmp_path)
        template = TRAINER_TEMPLATE + f" --fail-rate 1.0 --flaky-dir {tmp_path / 'flaky'}"
        code = dispatch(
            ["run", "--models", roster, "--template", template,
             "--store", str(tmp_path / "store"), "--tasks", "rte"]
        )
        assert code == 1
        assert "failed=36" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "report"])
    @pytest.mark.parametrize("tasks", ["rte,rte", "rte, rte", "wnli,rte,rte,rte"])
    def test_repeated_task_is_usage_error(self, tmp_path, capsys, command, tasks):
        argv = [command, "--models", self._roster(tmp_path), "--store",
                str(tmp_path / "store"), "--tasks", tasks]
        if command == "run":
            argv += ["--template", TRAINER_TEMPLATE]
        assert dispatch(argv) == 2
        repeats = "twice" if tasks.count("rte") == 2 else "3 times"
        assert capsys.readouterr().err == f"error: --tasks names rte {repeats}\n"
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_non_positive_timeout_is_usage_error(self, tmp_path, capsys, timeout):
        store = tmp_path / "store"
        ResultsStore(store).append({"run_key": "earlier", "status": "ok"})

        def snapshot():
            return {p.relative_to(store): p.read_bytes() if p.is_file() else None
                    for p in store.rglob("*")}

        before = snapshot()
        code = dispatch(["run", "--models", self._roster(tmp_path), "--template", TRAINER_TEMPLATE,
                         "--store", str(store), "--tasks", "rte", f"--timeout={timeout}"])
        assert code == 2
        assert capsys.readouterr().err == f"error: timeout must be positive, got {float(timeout)}\n"
        assert snapshot() == before

    @pytest.mark.parametrize("argv, code", [
        (["run", "--template", TRAINER_TEMPLATE, "--timeout", "0"], 2),
        (["run", "--template", "train {model}"], 2),
        (["report"], 0),
    ], ids=["run-timeout", "run-template", "report"])
    def test_command_that_writes_no_record_makes_no_store(self, tmp_path, capsys, argv, code):
        store = tmp_path / "store"
        argv = [*argv, "--models", self._roster(tmp_path), "--store", str(store), "--tasks", "rte"]
        assert dispatch(argv) == code
        assert not store.exists()

    def test_bad_template_is_usage_error(self, tmp_path, capsys):
        code = dispatch(
            ["run", "--models", self._roster(tmp_path), "--template", "train {model}",
             "--store", str(tmp_path / "store"), "--tasks", "rte"]
        )
        assert code == 2


RTE_LINES = ['{"id": "e0", "sentence1": "um", "sentence2": "dois", "label": 0}',
             '{"id": "e1", "sentence1": "olá", "sentence2": "dois", "label": 1}']


def _encoded(path, text, encoding):
    path.write_bytes(text.encode(encoding))
    return path


def _input_file_case(case, tmp_path, encoding):
    """(argv, the small input file written in encoding, where its "á" is on line 2)."""
    corpus = jsonl(tmp_path / "in.jsonl", [corpus_row(0, sample_text(0))])
    task = _encoded(tmp_path / "rte.jsonl", "\n".join(RTE_LINES) + "\n", encoding)
    roster = _encoded(tmp_path / "roster.yaml", MINI_ROSTER.replace("m1", "m1 # olá", 1), encoding)
    store = ["--store", str(tmp_path / "store")]
    if case == "pack --vocab":
        vocab = _encoded(tmp_path / "vocab.txt", "[CLS]\nolá\n[PAD]\n[UNK]\n", encoding)
        return ["pack", "--input", corpus, "--vocab", str(vocab), "--schedule", "8:10",
                "--output-dir", str(tmp_path / "p")], vocab
    if case == "curate --config":
        config = _encoded(tmp_path / "c.yaml", "curation:\n  min_words: 3  # olá\n", encoding)
        return ["curate", "--input", corpus, "--output", str(tmp_path / "o.jsonl"),
                "--config", str(config)], config
    if case == "curate list file":
        words = _encoded(tmp_path / "flagged.txt", "merda\nolá\n", encoding)
        (tmp_path / "c.yaml").write_text("curation:\n  flagged_words_file: flagged.txt\n")
        return ["curate", "--input", corpus, "--output", str(tmp_path / "o.jsonl"),
                "--config", str(tmp_path / "c.yaml")], words.resolve()
    if case == "validate":
        return ["validate", "--input", str(task), "--task", "rte"], task
    if case == "split":
        return ["split", "--input", str(task), "--task", "rte", "--seed", "1",
                "--output-train", str(tmp_path / "t"), "--output-dev", str(tmp_path / "d")], task
    if case == "score --gold":
        preds = jsonl(tmp_path / "p.jsonl", [{"id": f"e{i}", "prediction": i} for i in range(2)])
        return ["score", "--gold", str(task), "--pred", preds, "--task", "rte"], task
    if case == "score --pred":
        gold = jsonl(tmp_path / "g.jsonl", [json.loads(line) for line in RTE_LINES])
        preds = _encoded(tmp_path / "p.jsonl", '{"id": "e0", "prediction": 0}\n'
                         '{"id": "e1", "prediction": 1, "note": "olá"}\n', encoding)
        return ["score", "--gold", gold, "--pred", str(preds), "--task", "rte"], preds
    if case == "matrix":
        return ["matrix", "--models", str(roster), "--count"], roster
    if case == "run":
        return ["run", "--models", str(roster), "--template", TRAINER_TEMPLATE, "--tasks", "rte",
                *store], roster
    assert case == "report"
    return ["report", "--models", str(roster), *store], roster


INPUT_FILE_CASES = [
    ("pack --vocab", 2), ("curate --config", 2), ("curate list file", 2), ("validate", 1),
    ("split", 1), ("score --gold", 1), ("score --pred", 1), ("matrix", 2), ("run", 2),
    ("report", 2),
]


class TestInputFileEncoding:
    @pytest.mark.parametrize("case, code", INPUT_FILE_CASES, ids=[c for c, _ in INPUT_FILE_CASES])
    def test_file_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, case, code):
        # exit 2 for configuration (vocabulary, config, list, roster), 1 for data
        argv, bad = _input_file_case(case, tmp_path, "latin-1")
        assert dispatch(argv) == code
        assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 (byte 0xe1)\n"

    @pytest.mark.parametrize("case", ["pack --vocab", "curate --config", "curate list file",
                                      "validate", "split", "score --gold", "score --pred",
                                      "matrix", "report"])
    def test_file_may_start_with_a_byte_order_mark(self, tmp_path, capsys, case):
        argv, _ = _input_file_case(case, tmp_path, "utf-8-sig")
        assert dispatch(argv) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["roster", "config"])
    def test_file_that_is_not_yaml_is_one_error_line(self, tmp_path, capsys, what):
        # two JSON objects: the second starts a document without "---"
        bad = tmp_path / "bad.yaml"
        bad.write_text('{"a": 1}\n{"b": 2}\n', encoding="utf-8")
        if what == "roster":
            argv = ["matrix", "--models", str(bad), "--count"]
        else:
            argv = ["curate", "--input", jsonl(tmp_path / "in.jsonl", [corpus_row(0, "um")]),
                    "--output", str(tmp_path / "o.jsonl"), "--config", str(bad)]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {what} {bad}:2 is not valid YAML: expected '<document start>', but found '{{'\n")

    @pytest.mark.parametrize("name", ["null", "[a, b]", "7", "''", "{}"])
    def test_roster_name_that_is_not_a_string_is_one_error_line(self, tmp_path, capsys, name):
        # str() made these the models "None" and "['a', 'b']"
        roster = tmp_path / "roster.yaml"
        roster.write_text(MINI_ROSTER.replace("name: m1", f"name: {name}"), encoding="utf-8")
        assert dispatch(["matrix", "--models", str(roster), "--count"]) == 2
        assert capsys.readouterr().err == (
            f"error: roster {roster}: model #0 needs a non-empty string name\n")

    @pytest.mark.parametrize("what", ["roster", "config"])
    def test_key_given_twice_is_one_error_line(self, tmp_path, capsys, what):
        # last-wins would load variant ptpt, or min_words 500
        bad = tmp_path / "twice.yaml"
        if what == "roster":
            bad.write_text(MINI_ROSTER + "    variant: ptpt\n", encoding="utf-8")
            argv, line, key = ["matrix", "--models", str(bad), "--count"], 5, "variant"
        else:
            bad.write_text("curation:\n  min_words: 3\n  min_words: 500\n", encoding="utf-8")
            argv = ["curate", "--input", jsonl(tmp_path / "in.jsonl", [corpus_row(0, "um")]),
                    "--output", str(tmp_path / "o.jsonl"), "--config", str(bad)]
            line, key = 3, "min_words"
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"error: {what} {bad}:{line}: key '{key}' given twice\n"
        assert not (tmp_path / "o.jsonl").exists()

    def test_list_file_with_a_byte_order_mark_matches_its_first_entry(self, tmp_path, capsys):
        _encoded(tmp_path / "exact.txt", BLOCK_EXACT_HOST + "\n", "utf-8-sig")
        config = _encoded(tmp_path / "c.yaml", "blocklist:\n  exact_file: exact.txt\n", "utf-8-sig")
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, sample_text(0), host=BLOCK_EXACT_HOST),
                                            corpus_row(1, sample_text(1))])
        code = dispatch(["curate", "--input", src, "--output", str(tmp_path / "o.jsonl"),
                         "--config", str(config)])
        assert code == 0
        assert "kept=1 blocklisted=1 rejected=0" in capsys.readouterr().err

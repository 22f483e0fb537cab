"""Command-line interface: exit codes, wiring, stderr reporting."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lusokit
from lusokit import __version__
from lusokit.cli import dispatch

from helpers import BLOCK_EXACT_HOST, clean_text, rule_violating_text

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


def run_python(code):
    """Run code in a fresh interpreter with this checkout's package; its stdout."""
    src = str(Path(lusokit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return result.stdout.strip()


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
    code = "import sys, lusokit; print('lusokit.corpus_io' in sys.modules, lusokit.CorpusRecord.__name__)"
    assert run_python(code) == "False CorpusRecord"


def test_fake_translate_leaves_requests_unloaded(tmp_path):
    # only the HTTP client needs requests; the offline path never builds one
    src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "bom dia mundo")])
    argv = ["translate", "--input", src, "--output", str(tmp_path / "out.jsonl"),
            "--target", "PT-PT", "--fake", "--cache-dir", str(tmp_path / "cache")]
    code = ("import sys; from lusokit.cli import dispatch; "
            f"code = dispatch({argv!r}); print(code, 'requests' in sys.modules)")
    assert run_python(code) == "0 False"


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
        block = tmp_path / "exact.txt"
        block.write_text(BLOCK_EXACT_HOST + "\n", encoding="utf-8")
        out = tmp_path / "kept.jsonl"
        rejects = tmp_path / "rejects.jsonl"
        code = dispatch(
            ["curate", "--input", src, "--output", str(out),
             "--blocklist-exact", str(block), "--rejects", str(rejects)]
        )
        assert code == 0
        assert "kept=1 blocklisted=1 rejected=1" in capsys.readouterr().err
        reject_rows = [json.loads(l) for l in rejects.read_text().splitlines()]
        assert {r["stage"] for r in reject_rows} == {"blocklist", "quality"}
        quality_row = next(r for r in reject_rows if r["stage"] == "quality")
        assert quality_row["rule"] == "min_words"

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

    def test_pack_batch_without_devices_is_usage_error(self, tmp_path):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "a b c")])
        code = dispatch(
            ["pack", "--input", src, "--vocab", VOCAB,
             "--schedule", "16:100", "--output-dir", str(tmp_path / "p"),
             "--global-batch", "3072"]
        )
        assert code == 2

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


def fan_out_corpus(path):
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
    return jsonl(path, rows)


class TestProcessFanOut:
    """curate and pack split their input into chunks run by forked workers."""

    def curate(self, tmp_path, capsys, name):
        src = fan_out_corpus(tmp_path / "in.jsonl")
        block = tmp_path / "exact.txt"
        block.write_text(BLOCK_EXACT_HOST + "\n", encoding="utf-8")
        out, rejects = tmp_path / f"{name}.kept", tmp_path / f"{name}.rejects"
        code = dispatch(
            ["curate", "--input", src, "--output", str(out),
             "--blocklist-exact", str(block), "--rejects", str(rejects)]
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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_outputs_identical_to_one_chunk(self, tmp_path, capsys, monkeypatch, forks, workers):
        from lusokit import cli, fanout

        monkeypatch.setattr(fanout, "cpu_count", lambda: 1)
        curated = self.curate(tmp_path, capsys, "one")
        packed = self.pack(tmp_path, capsys, "one")
        assert forks == []
        assert curated[0] == 0 and curated[3] == "kept=28 blocklisted=3 rejected=9\n"
        assert packed[0] == 0 and len(packed[1]) == 4

        monkeypatch.setattr(fanout, "cpu_count", lambda: workers)
        monkeypatch.setattr(cli, "CHUNK_RECORDS", 3)  # 14 chunks
        assert self.curate(tmp_path, capsys, "many") == curated
        assert self.pack(tmp_path, capsys, "many") == packed
        assert len(forks) == (2 * workers if workers > 1 else 0)

    def test_one_chunk_starts_no_worker(self, tmp_path, capsys, monkeypatch):
        from lusokit import fanout

        def no_fork():
            raise AssertionError("forked for a one-chunk input")

        monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert self.curate(tmp_path, capsys, "c")[0] == 0
        assert self.pack(tmp_path, capsys, "p")[0] == 0

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

    def test_dead_worker_fails_the_command(self, tmp_path):
        src = fan_out_corpus(tmp_path / "in.jsonl")
        argv = ["curate", "--input", src, "--output", str(tmp_path / "kept.jsonl")]
        code = (
            "import os, sys\n"
            "from lusokit import cli, curation, fanout\n"
            "parent = os.getpid()\n"
            "real = curation.apply_filters\n"
            "def dying(record, cfg):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(3)\n"
            "    return real(record, cfg)\n"
            "curation.apply_filters = dying\n"
            "fanout.cpu_count = lambda: 2\n"
            "cli.CHUNK_RECORDS = 3\n"
            f"sys.exit(cli.dispatch({argv!r}))\n"
        )
        with pytest.raises(subprocess.CalledProcessError) as exc:
            run_python(code)
        assert "terminated abruptly" in exc.value.stderr


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

    def test_score_missing_prediction_is_data_error(self, tmp_path, capsys):
        gold = jsonl(tmp_path / "gold.jsonl", self._rte_rows(3))
        preds = jsonl(tmp_path / "pred.jsonl", [{"id": "e0", "prediction": 1}])
        assert dispatch(["score", "--gold", gold, "--pred", preds, "--task", "rte"]) == 1


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

    def test_endpoint_required_without_fake(self, tmp_path):
        src = jsonl(tmp_path / "in.jsonl", [corpus_row(0, "ola")])
        code = dispatch(
            ["translate", "--input", src, "--output", str(tmp_path / "o"),
             "--target", "PT-PT"]
        )
        assert code == 2


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

    def test_run_failures_exit_one(self, tmp_path, capsys):
        roster = self._roster(tmp_path)
        template = TRAINER_TEMPLATE + f" --fail-rate 1.0 --flaky-dir {tmp_path / 'flaky'}"
        code = dispatch(
            ["run", "--models", roster, "--template", template,
             "--store", str(tmp_path / "store"), "--tasks", "rte"]
        )
        assert code == 1
        assert "failed=36" in capsys.readouterr().err

    def test_bad_template_is_usage_error(self, tmp_path, capsys):
        code = dispatch(
            ["run", "--models", self._roster(tmp_path), "--template", "train {model}",
             "--store", str(tmp_path / "store"), "--tasks", "rte"]
        )
        assert code == 2

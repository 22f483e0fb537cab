"""Grid expansion, results store, runner, aggregation."""

import dataclasses
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusokit.benchmarks import TASKS
from lusokit.errors import ConfigurationError
from lusokit.experiments import grid
from lusokit.experiments.aggregate import aggregate_cells, render_cell_table, render_cell_tsv
from lusokit.experiments.grid import (
    ModelEntry,
    RunConfig,
    SizeClass,
    build_matrix,
    load_roster,
    make_run_key,
)
from lusokit.experiments.runner import (
    ExecutionSummary,
    build_command,
    parse_scores,
    run_matrix,
    run_one,
    validate_template,
)
from lusokit.experiments.store import ResultsStore
from lusokit.faketrainer import scores_for
from lusokit.variants import Variant

from helpers import oracle_aggregate

REPO_ROOT = Path(__file__).resolve().parent.parent

TRAINER_TEMPLATE = (
    f"{sys.executable} -m lusokit.faketrainer --run-key {{run_key}} "
    "--model {model} --task {task} --lr {lr} --dropout {dropout} "
    "--bf16 {bf16} --seed {seed} --split-seed {split_seed}"
)


def model(name="m1", variant=Variant.PTBR, size=SizeClass.S900M, multi=True):
    return ModelEntry(name=name, variant=variant, size_class=size, supports_multichoice=multi)


def cfg(**kw):
    base = dict(model="m1", task="rte", lr=1e-5, dropout=0.0, bf16=False, seed=41, split_seed=13)
    base.update(kw)
    return RunConfig(**base)


class TestGrid:
    def test_default_axes(self):
        assert grid.LEARNING_RATES == (1e-5, 5e-5, 1e-6)
        assert grid.DROPOUTS == (0.0, 0.1)
        assert grid.BF16_OPTIONS == (False, True)
        assert grid.SEEDS == (41, 42, 43)

    def test_combos_lr_major_order(self):
        runs = build_matrix([model()], tasks=[TASKS["rte"]])
        combos = [(r.lr, r.dropout, r.bf16) for r in runs[::3]]
        assert [r.seed for r in runs[:3]] == [41, 42, 43]
        assert combos[0] == (1e-5, 0.0, False)
        assert combos[1] == (1e-5, 0.0, True)
        assert combos[2] == (1e-5, 0.1, False)
        assert combos[4] == (5e-5, 0.0, False)
        assert len(combos) == 12

    def test_small_size_class_cannot_claim_multichoice(self):
        with pytest.raises(ConfigurationError):
            ModelEntry("x", Variant.PTBR, SizeClass.S100M, supports_multichoice=True)


class TestMatrix:
    def test_single_model_all_tasks(self):
        runs = build_matrix([model()])
        assert len(runs) == 10 * 36

    def test_multichoice_exclusion(self):
        runs = build_matrix([model(size=SizeClass.S100M, multi=False)])
        assert len(runs) == 9 * 36
        assert not any(r.task == "copa" for r in runs)

    def test_variant_restriction(self):
        runs = build_matrix([model(variant=Variant.PTPT)])
        assert len(runs) == 8 * 36
        assert not any(r.task.startswith("assin2") for r in runs)

    def test_keys_unique_and_stable(self):
        runs = build_matrix([model()])
        keys = [make_run_key(r) for r in runs]
        assert len(set(keys)) == len(keys)
        assert all(len(k) == 16 for k in keys)
        assert make_run_key(runs[0]) == make_run_key(runs[0])

    def test_key_sensitive_to_every_field(self):
        base = cfg()
        for change in (
            dict(model="m2"),
            dict(task="wnli"),
            dict(lr=5e-5),
            dict(dropout=0.1),
            dict(bf16=True),
            dict(seed=42),
            dict(split_seed=14),
        ):
            assert make_run_key(cfg(**change)) != make_run_key(base)

    def test_expected_count_matches_materialized(self):
        models = [model(), model(name="m2", size=SizeClass.S100M, multi=False)]
        cells = aggregate_cells({}, models)
        assert sum(c.expected_runs for c in cells) == len(build_matrix(models))

    def test_run_keys_and_commands_pinned(self):
        # existing result stores are keyed by these values: they never change
        runs = build_matrix(load_roster(REPO_ROOT / "config" / "models.example.yaml"))
        assert len(runs) == 4104

        def digest(lines):
            return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]

        template = (
            "trainer --run-key {run_key} --model {model} --task {task} --lr {lr} "
            "--dropout {dropout} --bf16 {bf16} --seed {seed} --split-seed {split_seed}"
        )
        assert digest(make_run_key(r) for r in runs) == "9b09b8bee11bf737"
        assert digest(" ".join(build_command(template, r)) for r in runs) == "1f6eb6c4621dc101"


class TestRoster:
    def test_load(self, tmp_path):
        path = tmp_path / "roster.yaml"
        path.write_text(
            "models:\n"
            "  - name: alpha\n    variant: ptbr\n    size_class: 900m\n"
            "  - name: beta\n    variant: ptpt\n    size_class: 100m\n",
            encoding="utf-8",
        )
        entries = load_roster(path)
        assert entries[0].supports_multichoice is True
        assert entries[1].supports_multichoice is False

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "roster.yaml"
        path.write_text(
            "models:\n  - name: a\n    variant: ptbr\n    size_class: 900m\n    gpu: a100\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError):
            load_roster(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "roster.yaml"
        path.write_text(
            "models:\n"
            "  - name: a\n    variant: ptbr\n    size_class: 900m\n"
            "  - name: a\n    variant: ptpt\n    size_class: 900m\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError):
            load_roster(path)


class TestStore:
    def test_append_load_last_wins(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        store.append({"run_key": "k1", "status": "failed"})
        store.append({"run_key": "k1", "status": "ok", "dev": 0.5, "test": 0.4})
        store.append({"run_key": "k2", "status": "ok", "dev": 0.1, "test": 0.2})
        records = store.load()
        assert records["k1"]["status"] == "ok"
        assert store.completed_keys() == {"k1", "k2"}

    def test_torn_final_line_skipped(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        store.append({"run_key": "k1", "status": "ok"})
        with store.results_path.open("a", encoding="utf-8") as out:
            out.write('{"run_key": "k2", "sta')
        assert set(store.load()) == {"k1"}

    def test_append_after_torn_line_kept(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        store.append({"run_key": "k1", "status": "ok"})
        with store.results_path.open("a", encoding="utf-8") as out:
            out.write('{"run_key": "k2", "sta')
        store.append({"run_key": "k3", "status": "ok"})
        assert set(store.load()) == {"k1", "k3"}

    def test_concurrent_appends_all_land(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def write(worker):
                for i in range(100):
                    store.append({"run_key": f"w{worker}-{i}", "status": "ok",
                                  "pad": "x" * (i * 37 % 500)})

            threads = [threading.Thread(target=write, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        lines = store.results_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 800
        assert all(json.loads(line)["status"] == "ok" for line in lines)
        assert len(store.load()) == 800

    def test_append_waits_for_a_line_being_written(self, tmp_path):
        # another appender holds the log's lock with half its line
        # written; an append that read that tail now would start a fresh
        # line and split the other record in two
        store = ResultsStore(tmp_path / "s")
        store.append({"run_key": "k1", "status": "ok"})
        fd = os.open(store.results_path, os.O_WRONLY | os.O_APPEND)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            os.write(fd, b'{"run_key": "k2", "sta')
            writer = threading.Thread(
                target=store.append, args=({"run_key": "k3", "status": "ok"},))
            writer.start()
            writer.join(timeout=0.3)
            assert writer.is_alive()
            os.write(fd, b'tus": "ok"}\n')
        finally:
            os.close(fd)
        writer.join(timeout=10)
        assert not writer.is_alive()
        lines = store.results_path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["run_key"] for line in lines] == ["k1", "k2", "k3"]

    def test_claims_are_exclusive(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        assert store.claim("k1") is True
        assert store.claim("k1") is False
        store.release("k1")
        assert store.claim("k1") is True

    def test_claim_of_another_live_store_is_not_taken(self, tmp_path):
        holder = ResultsStore(tmp_path / "s")
        other = ResultsStore(tmp_path / "s")
        assert holder.claim("k1") is True
        assert other.claim("k1") is False
        holder.release("k1")
        assert other.claim("k1") is True
        assert [p.stat().st_size for p in (tmp_path / "s" / "claims").iterdir()] == [0]

    def test_claim_dies_with_a_killed_holder(self, tmp_path):
        # the holder is SIGKILLed, so nothing of it gets to clean up
        code = (
            "import time\n"
            "from lusokit.experiments.store import ResultsStore\n"
            f"assert ResultsStore({str(tmp_path / 's')!r}).claim('k1')\n"
            "print('claimed', flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env)
        try:
            assert child.stdout.readline() == b"claimed\n"
            assert ResultsStore(tmp_path / "s").claim("k1") is False
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
            child.stdout.close()
        assert ResultsStore(tmp_path / "s").claim("k1") is True

    def test_completed_keys_reads_only_complete_new_lines(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        other = ResultsStore(tmp_path / "s")
        store.append({"run_key": "k1", "status": "ok"})
        assert store.completed_keys() == {"k1"}
        with store.results_path.open("a", encoding="utf-8") as out:
            out.write('{"run_key": "k2", "status": "o')
        assert store.completed_keys() == {"k1"}
        with store.results_path.open("a", encoding="utf-8") as out:
            out.write('k"}')
        assert store.completed_keys() == {"k1"}  # parses, but its newline is not there yet
        with store.results_path.open("a", encoding="utf-8") as out:
            out.write("\n")
        assert store.completed_keys() == {"k1", "k2"}
        other.append({"run_key": "k3", "status": "ok"})
        other.append({"run_key": "k1", "status": "failed"})
        assert store.completed_keys() == {"k2", "k3"}
        assert store.completed_keys() == other.completed_keys() == {"k2", "k3"}

    def test_completed_keys_skips_a_torn_line_once_appended_past(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        with store.results_path.open("a", encoding="utf-8") as out:
            out.write('{"run_key": "k1", "sta')
        assert store.completed_keys() == set()
        store.append({"run_key": "k2", "status": "ok"})
        assert store.completed_keys() == {"k2"}
        assert set(store.load()) == {"k2"}


class TestTemplate:
    def test_all_placeholders_required(self):
        with pytest.raises(ConfigurationError) as exc:
            validate_template("train --model {model}")
        assert "run_key" in str(exc.value)

    def test_unknown_placeholder_rejected(self):
        template = TRAINER_TEMPLATE + " --gpu {gpu}"
        with pytest.raises(ConfigurationError):
            validate_template(template)

    def test_valid_template_passes(self):
        validate_template(TRAINER_TEMPLATE)

    def test_values_with_spaces_stay_single_args(self):
        template = TRAINER_TEMPLATE.replace("--model {model}", "--model {model} --tag 'fixed tag'")
        with pytest.raises(ConfigurationError):
            validate_template(template + " {extra}")
        cmd = build_command(template, cfg(model="nome com espaco"))
        assert "nome com espaco" in cmd
        assert "fixed tag" in cmd

    def test_command_field_forms(self):
        cmd = build_command(TRAINER_TEMPLATE, cfg(lr=5e-5, bf16=True))
        assert "5e-05" in cmd
        assert "true" in cmd


class TestParseScores:
    def test_basic(self):
        assert parse_scores("dev=0.5 test=0.25\n") == (0.5, 0.25)

    def test_last_line_wins_and_noise_ignored(self):
        out = "epoch 1\ndev=0.1 test=0.2\nepoch 2\ndev=0.3 test=0.4\n"
        assert parse_scores(out) == (0.3, 0.4)

    def test_missing(self):
        assert parse_scores("nothing here") is None
        assert parse_scores("dev=abc test=0.1") is None


class TestRunOne:
    def test_success_records_scores(self):
        record = run_one(cfg(), TRAINER_TEMPLATE)
        assert record["status"] == "ok"
        dev, test = scores_for(record["run_key"])
        assert record["dev"] == pytest.approx(dev, abs=1e-6)
        assert record["test"] == pytest.approx(test, abs=1e-6)

    def test_missing_executable_is_failure(self):
        template = TRAINER_TEMPLATE.replace(sys.executable, "/no/such/binary")
        record = run_one(cfg(), template)
        assert record["status"] == "failed"
        assert "not found" in record["error"]

    def test_nonzero_exit_is_failure(self, tmp_path):
        template = (
            f"{sys.executable} -m lusokit.faketrainer --run-key {{run_key}} "
            "--model {model} --task {task} --lr {lr} --dropout {dropout} "
            "--bf16 {bf16} --seed {seed} --split-seed {split_seed} "
            f"--fail-rate 1.0 --flaky-dir {tmp_path}"
        )
        record = run_one(cfg(), template)
        assert record["status"] == "failed"
        assert "exit 1" in record["error"]


    def test_duration_recorded_on_success_and_failure(self, tmp_path):
        record = run_one(cfg(), TRAINER_TEMPLATE + " --sleep 0.05")
        assert record["status"] == "ok" and record["duration_s"] >= 0.05
        record = run_one(cfg(), TRAINER_TEMPLATE.replace(sys.executable, "/no/such/binary"))
        assert record["status"] == "failed" and 0 <= record["duration_s"] < 1


class TestRunMatrix:
    def _mini_runs(self):
        runs = build_matrix([model()], tasks=[TASKS["rte"]])
        return [r for r in runs if (r.lr, r.dropout, r.bf16) == (1e-5, 0.0, False)]

    def test_executes_and_resumes(self, tmp_path):
        runs = self._mini_runs()
        store = ResultsStore(tmp_path / "s")
        first = run_matrix(runs, TRAINER_TEMPLATE, store)
        assert first.attempted == 3
        assert first.succeeded == 3
        second = run_matrix(runs, TRAINER_TEMPLATE, store)
        assert second.attempted == 0
        assert second.skipped_completed == 3

    def test_claimed_runs_skipped(self, tmp_path):
        runs = self._mini_runs()
        store = ResultsStore(tmp_path / "s")
        store.claim(make_run_key(runs[0]))
        summary = run_matrix(runs, TRAINER_TEMPLATE, store)
        assert summary.skipped_claimed == 1
        assert summary.attempted == 2

    def test_run_finished_elsewhere_after_the_snapshot_is_not_rerun(self, tmp_path):
        runs = self._mini_runs()
        store = ResultsStore(tmp_path / "s")
        other = ResultsStore(tmp_path / "s")
        first = make_run_key(runs[0])
        claim = store.claim

        def claim_after_other_finished(key):
            if key == first:
                other.append({"run_key": key, "status": "ok", "dev": 0.5, "test": 0.5})
            return claim(key)

        store.claim = claim_after_other_finished
        seen = []
        summary = run_matrix(runs, TRAINER_TEMPLATE, store, progress=seen.append)
        assert (summary.attempted, summary.skipped_completed, summary.skipped_claimed) == (2, 1, 0)
        assert first not in {r["run_key"] for r in seen}
        assert store.load()[first]["dev"] == 0.5
        assert other.claim(first)  # released after the check

    @pytest.mark.parametrize("max_workers", [1, 3])
    def test_progress_once_per_attempted_run(self, tmp_path, max_workers):
        runs = self._mini_runs()
        store = ResultsStore(tmp_path / "s")
        store.claim(make_run_key(runs[0]))
        seen = []
        summary = run_matrix(runs, TRAINER_TEMPLATE, store,
                             max_workers=max_workers, progress=seen.append)
        assert summary.attempted == len(seen) == 2
        assert sorted(r["run_key"] for r in seen) == sorted(
            make_run_key(run) for run in runs[1:]
        )

    def test_parallel_equals_serial(self, tmp_path):
        runs = self._mini_runs()
        serial = ResultsStore(tmp_path / "a")
        parallel = ResultsStore(tmp_path / "b")
        run_matrix(runs, TRAINER_TEMPLATE, serial)
        run_matrix(runs, TRAINER_TEMPLATE, parallel, max_workers=3)
        srec = serial.load()
        prec = parallel.load()
        assert {k: (r["dev"], r["test"]) for k, r in srec.items()} == {
            k: (r["dev"], r["test"]) for k, r in prec.items()
        }


class TestAggregate:
    def _records_for(self, runs, dev_fn):
        records = {}
        for run in runs:
            key = make_run_key(run)
            records[key] = {
                "run_key": key,
                "status": "ok",
                "dev": dev_fn(run),
                "test": 0.5 + run.lr * 1000,
            }
        return records

    def test_best_on_dev_reports_mean_test(self):
        runs = build_matrix([model()], tasks=[TASKS["rte"]])
        # make lr=5e-5 clearly best on dev
        records = self._records_for(runs, lambda r: 0.9 if r.lr == 5e-5 else 0.1)
        cells = aggregate_cells(records, [model()], tasks=[TASKS["rte"]])
        assert len(cells) == 1
        cell = cells[0]
        assert cell.complete
        assert cell.best_combo[0] == 5e-5
        assert cell.mean_test == pytest.approx(0.5 + 5e-5 * 1000)
        assert cell.display() == f"{cell.mean_test:.4f}"

    def test_tie_breaks_prefer_lower_lr_dropout_bf16_off(self):
        runs = build_matrix([model()], tasks=[TASKS["rte"]])
        records = self._records_for(runs, lambda r: 0.7)  # all tied on dev
        cells = aggregate_cells(records, [model()], tasks=[TASKS["rte"]])
        assert cells[0].best_combo == (1e-6, 0.0, False)

    def test_incomplete_cell_reports_deficit(self):
        runs = build_matrix([model()], tasks=[TASKS["rte"]])
        records = self._records_for(runs, lambda r: 0.7)
        dropped = make_run_key(runs[0])
        del records[dropped]
        records[make_run_key(runs[1])] = {
            "run_key": make_run_key(runs[1]),
            "status": "failed",
            "dev": None,
            "test": None,
        }
        cells = aggregate_cells(records, [model()], tasks=[TASKS["rte"]])
        cell = cells[0]
        assert not cell.complete
        assert cell.display() == "n.a. (missing 2)"

    def test_render_table_and_tsv(self):
        models = [model(), model(name="m2")]
        tasks = [TASKS["rte"], TASKS["boolq"]]
        runs = build_matrix(models, tasks=tasks)
        records = self._records_for(runs, lambda r: 0.7)
        cells = aggregate_cells(records, models, tasks=tasks)
        table = render_cell_table(cells)
        assert table.splitlines()[0].split() == ["model", "rte", "boolq"]
        assert table.splitlines()[2].startswith("m1")
        tsv = render_cell_tsv(cells)
        assert tsv.splitlines()[0].split("\t")[0] == "model"
        assert len(tsv.splitlines()) == 1 + len(cells)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force_oracle(self, data):
        small = lambda values: tuple(
            data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))
        )
        axes = (small([1e-6, 5e-6, 1e-5, 2e-5, 5e-5]), small([0.0, 0.1, 0.2, 0.3]), small([False, True]))
        seeds = small([7, 41, 42, 43, 1000])
        variants = st.sampled_from([Variant.PTBR, Variant.PTPT])
        models = [model("small", data.draw(variants), SizeClass.S100M, multi=False)]
        for i in range(data.draw(st.integers(0, 2))):
            size = data.draw(st.sampled_from(list(SizeClass)))
            multi = size is not SizeClass.S100M and data.draw(st.booleans())
            models.append(model(f"m{i}", data.draw(variants), size, multi))
        names = data.draw(st.lists(st.sampled_from(sorted(TASKS)), min_size=1, max_size=4, unique=True))
        tasks = [TASKS[name] for name in names]
        split_seed = data.draw(st.sampled_from([13, 14]))
        rng = data.draw(st.randoms(use_true_random=False))

        # the store's latest-wins view: ties on dev are common, a few runs
        # are missing or failed, and runs at another split seed must not count
        records = {}
        patched = patch.multiple(
            grid, LEARNING_RATES=axes[0], DROPOUTS=axes[1], BF16_OPTIONS=axes[2], SEEDS=seeds
        )
        with patched:
            runs = build_matrix(models, tasks=tasks, split_seed=split_seed)
        for run in runs:
            record = {"status": "ok", "dev": rng.choice([0.25, 0.5, 0.75]), "test": rng.random()}
            records[make_run_key(run)] = record
            other = dataclasses.replace(run, split_seed=split_seed + 100)
            records[make_run_key(other)] = {"status": "ok", "dev": 1.0, "test": 1.0}
        for _ in range(data.draw(st.integers(0, 3)) if runs else 0):
            key = make_run_key(rng.choice(runs))
            if data.draw(st.booleans()):
                records.pop(key, None)
            else:
                records[key] = {"status": "failed", "dev": None, "test": None}

        with patched:
            cells = aggregate_cells(records, models, tasks=tasks, split_seed=split_seed)
        assert cells == oracle_aggregate(records, models, tasks, axes, seeds, split_seed)

"""Grid expansion, results store, runner, aggregation."""

import fcntl
import json
import os
import sys
import threading

import pytest

from lusokit.benchmarks import TASKS
from lusokit.errors import ConfigurationError
from lusokit.experiments.aggregate import aggregate_cells, render_cell_table, render_cell_tsv
from lusokit.experiments.grid import (
    HyperGrid,
    ModelEntry,
    RunConfig,
    SizeClass,
    build_matrix,
    expected_run_count,
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
        grid = HyperGrid()
        assert grid.learning_rates == (1e-5, 5e-5, 1e-6)
        assert grid.dropouts == (0.0, 0.1)
        assert grid.bf16_options == (False, True)
        assert grid.seeds == (41, 42, 43)
        assert grid.combo_count == 12
        assert grid.runs_per_cell == 36

    def test_combos_lr_major_order(self):
        combos = list(HyperGrid().combos())
        assert combos[0] == (1e-5, 0.0, False)
        assert combos[1] == (1e-5, 0.0, True)
        assert combos[2] == (1e-5, 0.1, False)
        assert combos[4] == (5e-5, 0.0, False)
        assert len(combos) == 12

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            HyperGrid(seeds=())

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
        assert expected_run_count(models) == len(build_matrix(models))


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

    def test_compact_keeps_winners_only(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        for i in range(5):
            store.append({"run_key": "k1", "status": "failed", "attempt": i})
        store.append({"run_key": "k1", "status": "ok"})
        assert store.compact() == 1
        lines = store.results_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "ok"

    def test_claims_are_exclusive(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        assert store.claim("k1") is True
        assert store.claim("k1") is False
        store.release("k1")
        assert store.claim("k1") is True
        assert store.clear_claims() == 1
        assert store.claim("k1") is True


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


class TestRunMatrix:
    def _mini_runs(self):
        grid = HyperGrid(learning_rates=(1e-5,), dropouts=(0.0,), bf16_options=(False,))
        return build_matrix([model()], tasks=[TASKS["rte"]], grid=grid)

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
        grid = HyperGrid()
        runs = build_matrix([model()], tasks=[TASKS["rte"]], grid=grid)
        # make lr=5e-5 clearly best on dev
        records = self._records_for(runs, lambda r: 0.9 if r.lr == 5e-5 else 0.1)
        cells = aggregate_cells(records, [model()], tasks=[TASKS["rte"]], grid=grid)
        assert len(cells) == 1
        cell = cells[0]
        assert cell.complete
        assert cell.best_combo[0] == 5e-5
        assert cell.mean_test == pytest.approx(0.5 + 5e-5 * 1000)
        assert cell.display() == f"{cell.mean_test:.4f}"

    def test_tie_breaks_prefer_lower_lr_dropout_bf16_off(self):
        grid = HyperGrid()
        runs = build_matrix([model()], tasks=[TASKS["rte"]], grid=grid)
        records = self._records_for(runs, lambda r: 0.7)  # all tied on dev
        cells = aggregate_cells(records, [model()], tasks=[TASKS["rte"]], grid=grid)
        assert cells[0].best_combo == (1e-6, 0.0, False)

    def test_incomplete_cell_reports_deficit(self):
        grid = HyperGrid()
        runs = build_matrix([model()], tasks=[TASKS["rte"]], grid=grid)
        records = self._records_for(runs, lambda r: 0.7)
        dropped = make_run_key(runs[0])
        del records[dropped]
        records[make_run_key(runs[1])] = {
            "run_key": make_run_key(runs[1]),
            "status": "failed",
            "dev": None,
            "test": None,
        }
        cells = aggregate_cells(records, [model()], tasks=[TASKS["rte"]], grid=grid)
        cell = cells[0]
        assert not cell.complete
        assert cell.display() == "n.a. (missing 2)"

    def test_render_table_and_tsv(self):
        grid = HyperGrid()
        models = [model(), model(name="m2")]
        tasks = [TASKS["rte"], TASKS["boolq"]]
        runs = build_matrix(models, tasks=tasks, grid=grid)
        records = self._records_for(runs, lambda r: 0.7)
        cells = aggregate_cells(records, models, tasks=tasks, grid=grid)
        table = render_cell_table(cells)
        assert table.splitlines()[0].split() == ["model", "rte", "boolq"]
        assert table.splitlines()[2].startswith("m1")
        tsv = render_cell_tsv(cells)
        assert tsv.splitlines()[0].split("\t")[0] == "model"
        assert len(tsv.splitlines()) == 1 + len(cells)

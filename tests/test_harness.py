"""Harness behavior: deterministic runs, sweeps, sentinels, schedule dumps."""

import json
import os
import time

import numpy as np
import pytest

from gradprune import harness, models
from gradprune.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from gradprune.distillation import TeacherHandle
from gradprune.harness import (
    METRICS_COLUMNS,
    SCHEDULE_COLUMNS,
    SENTINEL,
    TrainingDiverged,
    emit_schedule,
    run,
    sweep,
    train_teacher,
    write_csv,
)
from gradprune.models import TinyEncoder, TinyEncoderConfig, encoder_from_checkpoint
from gradprune.recipes import compile_timeline, override_field, parse_recipe
from gradprune.tasks import SyntheticTask, generate_task

MODEL = TinyEncoderConfig(
    vocab_size=16, max_sequence_length=8, hidden_dim=16, num_layers=1,
    num_heads=2, ffn_dim=32, num_classes=3,
)

BASE_DOC = {
    "name": "tiny-test",
    "stage": "downstream",
    "total_epochs": 4,
    "batch_size": 16,
    "weight_decay": 0.0,
    "seeds": [0],
    "lr": {"kind": "cyclic", "initial": 1e-3, "final": 1e-5,
           "cycle_length_epochs": 2.0},
    "sparsity": {"initial_step": 0.3, "final": 0.75,
                 "head_freeze_epochs": 1, "tail_freeze_epochs": 1,
                 "prune_frequency_per_epoch": 2, "policy": "uniform"},
    "kd": {"hardness": 0.0, "temperature": 5.5, "scale_kl_by_t_squared": True},
    "mask_source": None,
}


def make_recipe(**replacements):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(replacements)
    return parse_recipe(json.dumps(doc))


@pytest.fixture(scope="module")
def data():
    return generate_task(SyntheticTask(
        num_classes=3, sequence_length=8, vocab_size=16,
        train_size=64, val_size=64, seed=3,
    ))


@pytest.fixture(scope="module")
def teacher(data):
    return train_teacher(data, MODEL, epochs=2, lr=1e-3, batch_size=16, seed=5)


def read_tree(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_same_inputs_give_byte_identical_outputs(data, teacher, tmp_path):
    recipe = make_recipe()
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run(recipe, data, seed=11, teacher=teacher, out_dir=a)
    run(recipe, data, seed=11, teacher=teacher, out_dir=b)
    tree_a, tree_b = read_tree(a), read_tree(b)
    assert SENTINEL not in tree_a
    assert set(tree_a) == {
        "metrics.csv", "summary.json",
        "checkpoint/manifest.json", "checkpoint/data.bin",
        "checkpoint/masks.bin",
    }
    assert tree_a == tree_b


def test_different_seed_changes_outputs(data, teacher, tmp_path):
    recipe = make_recipe()
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run(recipe, data, seed=11, teacher=teacher, out_dir=a)
    run(recipe, data, seed=12, teacher=teacher, out_dir=b)
    assert read_tree(a)["metrics.csv"] != read_tree(b)["metrics.csv"]


def test_metrics_rows_match_timeline(data, teacher, tmp_path):
    recipe = make_recipe()
    timeline = compile_timeline(recipe, steps_per_epoch=4)
    out = str(tmp_path / "run")
    result = run(recipe, data, seed=0, teacher=teacher, out_dir=out)

    with open(os.path.join(out, "metrics.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) - 1 == len(result.rows) == len(timeline.eval_steps)
    assert [r["step"] for r in result.rows] == list(timeline.eval_steps)
    for row in result.rows:
        assert row["lr"] == float(timeline.lr[row["step"]])

    # the csv holds floats at full precision
    first = lines[1].split(",")
    assert first[METRICS_COLUMNS.index("lr")] == f"{result.rows[0]['lr']:.17g}"


def test_sparsity_progression(data, teacher):
    recipe = make_recipe()
    result = run(recipe, data, seed=0, teacher=teacher)
    targets = [r["target_sparsity"] for r in result.rows]
    assert targets == sorted(targets)
    assert targets[0] == 0.0          # head-freeze epoch evaluates dense
    assert targets[-1] == 0.75
    assert result.summary["final_target_sparsity"] == 0.75
    # uniform per-tensor rounding keeps the aggregate within
    # num_tensors / (2 * total) of the target
    assert abs(result.summary["achieved_sparsity"] - 0.75) <= 6 / (2 * 2048) + 1e-12
    achieved = [r["achieved_sparsity"] for r in result.rows]
    assert achieved == sorted(achieved)


def test_dense_recipe_runs_without_masks(data):
    recipe = make_recipe(sparsity=None)
    result = run(recipe, data, seed=4)
    assert result.summary["num_prune_events"] == 0
    assert result.summary["achieved_sparsity"] == 0.0
    assert result.checkpoint.masks is None
    # with neither teacher nor init, the student is the default encoder for
    # the task's classes, seeded by the run
    assert result.checkpoint.config == TinyEncoderConfig(num_classes=3, seed=4).to_dict()


def test_hard_kd_uses_teacher(data, teacher):
    recipe = make_recipe(kd={"hardness": 1.0, "temperature": 5.5,
                             "scale_kl_by_t_squared": True})
    result = run(recipe, data, seed=0, teacher=teacher)
    assert result.summary["kd_hardness"] == 1.0
    assert np.isfinite(result.summary["final_val_accuracy"])
    # pure-KD rows spend nothing on cross-entropy
    assert all(r["kl_term"] > 0.0 for r in result.rows)
    # student initializes from the teacher, so config rides along
    assert result.checkpoint.config["vocab_size"] == 16


def test_kd_run_computes_teacher_logits_once(data, teacher, monkeypatch):
    calls = []
    logits = TeacherHandle.logits

    def counted(self, tokens):
        calls.append(len(tokens))
        return logits(self, tokens)

    monkeypatch.setattr(TeacherHandle, "logits", counted)
    recipe = make_recipe(kd={"hardness": 0.5, "temperature": 5.5,
                             "scale_kl_by_t_squared": True})
    run(recipe, data, seed=0, teacher=teacher)
    assert calls == [data.train.tokens.shape[0]]


def test_hard_kd_without_teacher_is_an_error(data):
    recipe = make_recipe(kd={"hardness": 1.0, "temperature": 5.5,
                             "scale_kl_by_t_squared": True})
    with pytest.raises(ValueError, match="teacher"):
        run(recipe, data, seed=0)


def test_class_count_mismatch_is_an_error(data):
    bad = TinyEncoder.build(TinyEncoderConfig(
        vocab_size=16, max_sequence_length=8, hidden_dim=16, num_layers=1,
        num_heads=2, ffn_dim=32, num_classes=4,
    ))
    with pytest.raises(ValueError, match="num_classes"):
        run(make_recipe(), data, seed=0, teacher=bad.to_checkpoint())


def test_oversized_batch_is_an_error(data):
    with pytest.raises(ValueError, match="batch_size"):
        run(make_recipe(batch_size=128), data, seed=0)


def test_divergence_raises_and_leaves_sentinel(data, teacher, tmp_path):
    recipe = make_recipe(lr={"kind": "linear", "initial": 1e200}, sparsity=None)
    out = str(tmp_path / "run")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            run(recipe, data, seed=0, teacher=teacher, out_dir=out)
    assert info.value.step >= 0
    assert os.path.exists(os.path.join(out, SENTINEL))
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_non_finite_loss_from_finite_logits_diverges(data, teacher):
    # logits near +-max float stay finite, but the cross-entropy of a row
    # labelled 1 overflows, so the loss check (not the logits check) fires
    params = dict(teacher.params)
    params["head.classifier.bias"] = np.array([1.7e308, -1.7e308, 0.0])
    extreme = Checkpoint(config=teacher.config, params=params)
    logits = encoder_from_checkpoint(extreme, requires_grad=False).forward(
        data.train.tokens).data
    assert np.all(np.isfinite(logits))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            run(make_recipe(sparsity=None), data, seed=0, teacher=extreme)
    assert info.value.step == 0


def test_finetune_keeps_masks_fixed(data, teacher, tmp_path):
    pruned = run(make_recipe(), data, seed=0, teacher=teacher)
    assert pruned.checkpoint.masks is not None

    finetune = make_recipe(
        name="tiny-finetune",
        stage="upstream-finetune",
        sparsity=None,
        lr={"kind": "linear", "initial": 1e-3},
        mask_source="tiny-test",
    )
    result = run(finetune, data, seed=0, init=pruned.checkpoint)
    assert result.summary["num_prune_events"] == 0
    assert result.summary["achieved_sparsity"] == pruned.summary["achieved_sparsity"]
    for name, mask in pruned.checkpoint.masks.items():
        np.testing.assert_array_equal(result.checkpoint.masks[name], mask)
        # masked weights stay exactly zero through finetuning
        assert np.all(result.checkpoint.params[name][~mask] == 0.0)


@pytest.mark.parametrize("init_recipe", ["tiny-test", None])
def test_finetune_init_must_come_from_the_mask_source(data, teacher, init_recipe):
    # a pruned student records its recipe; a teacher checkpoint records none
    if init_recipe is None:
        init = teacher
    else:
        init = run(make_recipe(), data, seed=0, teacher=teacher).checkpoint
    finetune = make_recipe(
        name="tiny-finetune",
        stage="upstream-finetune",
        sparsity=None,
        lr={"kind": "linear", "initial": 1e-3},
        mask_source="upstream-3ep",
    )
    with pytest.raises(ValueError, match="mask_source") as info:
        run(finetune, data, seed=0, init=init)
    assert "'upstream-3ep'" in str(info.value)
    assert repr(init_recipe) in str(info.value)


def test_finetune_init_may_mask_only_prunable_tensors(data, teacher, tmp_path):
    masks = {"head.classifier.weight": teacher.params["head.classifier.weight"] != 0.0}
    path = str(tmp_path / "init")
    save_checkpoint(Checkpoint(config=teacher.config, params=teacher.params,
                               masks=masks, metadata={"recipe": "tiny-test"}), path)
    finetune = make_recipe(
        name="tiny-finetune",
        stage="upstream-finetune",
        sparsity=None,
        lr={"kind": "linear", "initial": 1e-3},
        mask_source="tiny-test",
    )
    with pytest.raises(ValueError, match="init checkpoint masks a non-prunable tensor "
                                         "'head.classifier.weight'"):
        run(finetune, data, seed=0, init=load_checkpoint(path))


def test_finetune_without_init_is_an_error(data):
    finetune = make_recipe(
        stage="upstream-finetune",
        sparsity=None,
        lr={"kind": "linear", "initial": 1e-3},
        mask_source="tiny-test",
    )
    with pytest.raises(ValueError, match="init"):
        run(finetune, data, seed=0)


def test_sweep_aggregates_and_isolates_failures(data, tmp_path):
    recipe = make_recipe(lr={"kind": "linear", "initial": 1e-3}, sparsity=None,
                         total_epochs=2)
    out = str(tmp_path / "sweep")
    with np.errstate(over="ignore", invalid="ignore"):
        result = sweep(recipe, "lr.initial", [1e-3, 1e200], [0, 1], data,
                       out_dir=out)

    ok_row, bad_row = result.rows
    assert ok_row["value"] == 1e-3
    assert ok_row["num_ok"] == 2 and ok_row["num_seeds"] == 2
    assert np.isfinite(ok_row["mean_accuracy"])
    assert bad_row["num_ok"] == 0
    assert np.isnan(bad_row["mean_accuracy"])
    assert set(result.errors) == {"1e+200/0", "1e+200/1"}
    assert all("diverged" in msg for msg in result.errors.values())

    assert not os.path.exists(os.path.join(out, SENTINEL))
    with open(os.path.join(out, "table.csv")) as fh:
        table = fh.read().splitlines()
    assert table[0] == "value,mean_accuracy,std_accuracy,num_ok,num_seeds"
    assert len(table) == 3
    with open(os.path.join(out, "errors.json")) as fh:
        assert set(json.load(fh)) == set(result.errors)
    # failed children leave their sentinels behind
    child = os.path.join(out, "value=1e+200", "seed=0")
    assert os.path.exists(os.path.join(child, SENTINEL))


def test_a_clean_sweep_leaves_no_stale_errors(data, teacher, tmp_path):
    recipe = make_recipe(lr={"kind": "linear", "initial": 1e-3}, sparsity=None,
                         total_epochs=2)
    out = str(tmp_path / "sweep")
    with np.errstate(over="ignore", invalid="ignore"):
        failed = sweep(recipe, "lr.initial", [1e200], [0], data,
                       teacher=teacher, out_dir=out)
    assert set(failed.errors) == {"1e+200/0"}
    clean = sweep(recipe, "lr.initial", [1e-3], [0], data,
                  teacher=teacher, out_dir=out)
    assert clean.errors == {}
    with open(os.path.join(out, "errors.json")) as fh:
        assert json.load(fh) == {}


def test_sweep_runs_every_value_on_an_iterator_of_seeds(data):
    recipe = make_recipe(sparsity=None, total_epochs=2)
    result = sweep(recipe, "kd.temperature", [5.5, 2.0], iter([0, 1]), data)
    assert [(r["num_ok"], r["num_seeds"]) for r in result.rows] == [(2, 2), (2, 2)]
    assert set(result.runs) == {"5.5/0", "5.5/1", "2.0/0", "2.0/1"}


def test_sweep_propagates_harness_invariant_errors(data, monkeypatch):
    real_prune = harness.magnitude_prune

    def reviving_prune(weights, masks, target, policy):
        new = real_prune(weights, masks, target, policy)
        if all(m.all() for m in masks.values()):
            return new
        return {name: np.ones_like(m) for name, m in new.items()}

    monkeypatch.setattr(harness, "magnitude_prune", reviving_prune)
    with pytest.raises(RuntimeError, match="mask shrank"):
        sweep(make_recipe(), "kd.temperature", [5.5], [0], data)


def test_sweep_runs_use_model_seed_from_argument(data):
    recipe = make_recipe(sparsity=None, total_epochs=2)
    result = sweep(recipe, "kd.temperature", [5.5], [3, 4], data)
    assert set(result.runs) == {"5.5/3", "5.5/4"}
    accs = [r.summary["final_val_accuracy"] for r in result.runs.values()]
    assert len(accs) == 2


def test_emit_schedule_matches_timeline(tmp_path):
    recipe = make_recipe()
    timeline = compile_timeline(recipe, steps_per_epoch=4)
    rows = emit_schedule(recipe, steps_per_epoch=4)
    assert len(rows) == timeline.total_steps
    np.testing.assert_array_equal([r["lr"] for r in rows], timeline.lr)
    events = dict(timeline.prune_events)
    target = 0.0
    for row in rows:
        if row["step"] in events:
            target = events[row["step"]]
        assert row["target_sparsity"] == target
    assert rows[-1]["target_sparsity"] == 0.75

    path = str(tmp_path / "schedule.csv")
    write_csv(rows, SCHEDULE_COLUMNS, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "step,lr,target_sparsity"
    assert len(lines) == 1 + timeline.total_steps


# ---------------------------------------------------------------------------
# evaluation in the background: pool workers evaluate while run() trains
# (``cpus`` forces the CPU count; see conftest.py)

REAL_SHARE = models._predict_share


def slow_share(*args):
    """The pool's worker function after a pause, so that evaluations pile up
    behind training. Module level, so a forked worker finds it by name."""
    time.sleep(0.2)
    return REAL_SHARE(*args)


def recording_submit(monkeypatch) -> tuple[list, list]:
    """Record every future the pool is handed, and how many earlier ones were
    still unfinished when it was handed."""
    futures, unfinished = [], []
    real = models._submit

    def submit(*args):
        unfinished.append(sum(not f.done() for f in futures))
        futures.append(real(*args))
        return futures[-1]

    monkeypatch.setattr(models, "_submit", submit)
    return futures, unfinished


def test_background_evaluation_gives_the_bytes_of_one_cpu(data, teacher, cpus,
                                                          tmp_path):
    recipe = make_recipe(kd={"hardness": 0.5, "temperature": 5.5,
                             "scale_kl_by_t_squared": True})
    trees, rows = {}, {}
    for count in (1, 2, 3):
        cpus(count)
        out = str(tmp_path / str(count))
        rows[count] = run(recipe, data, seed=0, teacher=teacher, out_dir=out).rows
        trees[count] = read_tree(out)
        if count == 1:
            assert models._pool is None   # one CPU starts no process
    assert len(rows[1]) == len(compile_timeline(recipe, 4).eval_steps)
    assert trees[1] == trees[2] == trees[3]
    assert rows[1] == rows[2] == rows[3]


def test_pending_evaluations_never_outnumber_the_workers(data, cpus, monkeypatch):
    recipe = make_recipe()
    cpus(1)
    expected = run(recipe, data, seed=0).rows
    cpus(2)
    monkeypatch.setattr(models, "_predict_share", slow_share)
    futures, unfinished = recording_submit(monkeypatch)
    result = run(recipe, data, seed=0)
    assert len(futures) == len(expected) == 8
    # each hand-over leaves at most one earlier evaluation running beside
    # it, and the slow workers make that bound bite
    assert max(unfinished) == 1
    assert result.rows == expected


def test_a_diverged_sweep_leaves_the_pool_working(data, cpus, tmp_path):
    recipe = make_recipe(lr={"kind": "linear", "initial": 1e-3})
    trees = {}
    for count in (1, 2):
        cpus(count)
        out = str(tmp_path / str(count))
        with np.errstate(over="ignore", invalid="ignore"):
            result = sweep(recipe, "lr.initial", [1e200, 1e-3], [0], data,
                           out_dir=out)
        assert set(result.errors) == {"1e+200/0"}
        assert result.rows[1]["num_ok"] == 1
        trees[count] = read_tree(out)
    assert trees[1] == trees[2]


def test_a_run_that_stops_early_leaves_the_pool_working(data, cpus, monkeypatch):
    recipe = make_recipe()
    cpus(1)
    expected = run(recipe, data, seed=0).rows
    cpus(2)
    real_step = harness._train_step

    def stop_at_twelve(*args):
        if args[7] == 12:
            raise TrainingDiverged(12)
        return real_step(*args)

    with monkeypatch.context() as patch:
        patch.setattr(models, "_predict_share", slow_share)
        patch.setattr(harness, "_train_step", stop_at_twelve)
        futures, _ = recording_submit(patch)
        with pytest.raises(TrainingDiverged):
            run(recipe, data, seed=0)
    # seven evaluations were handed over before step 12; any not started
    # were cancelled, and none failed
    assert len(futures) == 7
    assert all(f.cancelled() or f.result().shape == (64, 3) for f in futures)
    assert run(recipe, data, seed=0).rows == expected

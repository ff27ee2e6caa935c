"""Command-line interface: exit codes, output contracts, error records."""

import json
import os
import shutil

import numpy as np
import pytest

from gradprune.cli import _task_from_args, build_parser, main
from gradprune.tasks import SyntheticTask

TASK_ARGS = ["--train-size", "320", "--val-size", "64"]


@pytest.fixture(scope="module")
def teacher_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "teacher")
    code = main(["train-teacher", "--out", out, "--epochs", "2",
                 "--seed", "100", *TASK_ARGS])
    assert code == 0
    return out


def test_train_teacher_divergence_reports_step(tmp_path, capsys):
    out = str(tmp_path / "teacher")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train-teacher", "--out", out, "--epochs", "1",
                     "--lr", "1e200", *TASK_ARGS])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "training-diverged"
    assert record["step"] >= 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "0", "epochs must be >= 1, got 0"),
    ("--epochs", "-2", "epochs must be >= 1, got -2"),
    ("--lr", "0", "lr must be > 0, got 0.0"),
], ids=["epochs=0", "epochs=-2", "lr=0"])
def test_train_teacher_that_cannot_train_is_an_error_record(tmp_path, capsys, flag,
                                                            value, message):
    out = str(tmp_path / "teacher")
    assert main(["train-teacher", "--out", out, flag, value, *TASK_ARGS]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "ValueError"
    assert record["detail"] == message
    assert not os.path.exists(out)


def test_validate_recipe_bundled_is_clean(capsys):
    assert main(["validate-recipe", "--recipe", "downstream-10ep"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True
    assert report["audited"] is True
    assert report["diffs"] == []


def test_validate_recipe_flags_edited_constants(tmp_path, capsys):
    with open(os.path.join("src", "gradprune", "data",
                           "downstream-10ep.json")) as fh:
        doc = json.load(fh)
    doc["kd"]["temperature"] = 4.0
    path = str(tmp_path / "edited.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)

    assert main(["validate-recipe", "--recipe", path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["diffs"] == [
        {"path": "kd.temperature", "expected": 5.5, "actual": 4.0}
    ]


def test_validate_recipe_rejects_malformed_file(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write('{"name": "x", "bogus": 1}')
    assert main(["validate-recipe", "--recipe", path]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "invalid-recipe"


def test_validate_recipe_rejects_an_integer_too_large_for_a_float(tmp_path, capsys):
    with open(os.path.join("src", "gradprune", "data",
                           "downstream-10ep.json")) as fh:
        doc = json.load(fh)
    doc["weight_decay"] = 10 ** 400
    path = str(tmp_path / "huge.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main(["validate-recipe", "--recipe", path]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "invalid-recipe"
    assert record["detail"].startswith("recipe.weight_decay: ")


def test_unknown_recipe_names_the_bundled_ones(capsys):
    assert main(["validate-recipe", "--recipe", "no-such-recipe"]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "invalid-recipe"
    assert "no-such-recipe" in record["detail"]
    for name in ("downstream-10ep", "downstream-30ep", "upstream-3ep",
                 "upstream-finetune-8ep"):
        assert name in record["detail"]


def test_task_flags_default_to_the_synthetic_task_defaults():
    args = build_parser().parse_args(["run", "--recipe", "downstream-10ep"])
    assert _task_from_args(args) == SyntheticTask()


def test_unknown_flag_is_rejected():
    with pytest.raises(SystemExit) as info:
        main(["run", "--recipe", "downstream-10ep", "--frobnicate", "1"])
    assert info.value.code == 2


def test_emit_schedule_stdout(capsys):
    assert main(["emit-schedule", "--recipe", "downstream-10ep",
                 "--steps-per-epoch", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,lr,target_sparsity"
    assert len(lines) == 1 + 10 * 16
    assert lines[1].startswith("0,0.0001,")


def test_run_without_teacher_reports_error(capsys):
    code = main(["run", "--recipe", "downstream-10ep", "--seed", "1",
                 *TASK_ARGS])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert "teacher" in record["detail"]


def test_run_writes_output_contract(teacher_dir, tmp_path, capsys):
    out = str(tmp_path / "r1")
    code = main(["run", "--recipe", "downstream-10ep", "--teacher", teacher_dir,
                 "--seed", "1", "--out", out, *TASK_ARGS])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["recipe"] == "downstream-10ep"
    assert summary["num_prune_events"] == 60

    names = set(os.listdir(out))
    assert names == {"metrics.csv", "summary.json", "checkpoint"}
    assert ".incomplete" not in names
    with open(os.path.join(out, "metrics.csv")) as fh:
        header = fh.readline().strip()
    assert header.startswith("step,epoch,lr,")


def test_sweep_writes_table_and_per_run_dirs(teacher_dir, tmp_path, capsys):
    out = str(tmp_path / "sw")
    code = main(["sweep", "--recipe", "downstream-10ep",
                 "--field", "kd.temperature", "--values", "5.5",
                 "--seeds", "1", "--teacher", teacher_dir, "--out", out,
                 *TASK_ARGS])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["errors"] == {}
    assert len(report["rows"]) == 1

    with open(os.path.join(out, "table.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "value,mean_accuracy,std_accuracy,num_ok,num_seeds"
    assert len(lines) == 2
    child = os.path.join(out, "value=5.5", "seed=1")
    assert os.path.exists(os.path.join(child, "metrics.csv"))
    assert not os.path.exists(os.path.join(out, ".incomplete"))


def test_teacher_stats_csv(teacher_dir, capsys):
    code = main(["teacher-stats", "--teacher", teacher_dir, "--limit", "8",
                 "--temperatures", "1.0,5.5", *TASK_ARGS])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sample_id,temperature,max_prob,entropy"
    assert len(lines) == 1 + 8 * 2
    # higher temperature rows carry higher entropy for the same sample
    by_temp = {}
    for line in lines[1:]:
        sample, temp, _, entropy = line.split(",")
        by_temp[(sample, temp)] = float(entropy)
    for s in range(8):
        assert by_temp[(str(s), "5.5")] >= by_temp[(str(s), "1")] - 1e-12


@pytest.mark.parametrize("limit", ["0", "-1", "-63", "65"])
def test_teacher_stats_limit_outside_the_split_is_an_error_record(teacher_dir, capsys,
                                                                  limit):
    # a slice would take 0 as no row, a negative as all but that many, and
    # more than the split's 64 rows as the whole split
    assert main(["teacher-stats", "--teacher", teacher_dir, "--limit", limit,
                 *TASK_ARGS]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "ValueError"
    assert record["detail"] == ("--limit must be >= 1 and at most the validation "
                                f"split's 64 rows, got {limit}")


def test_teacher_stats_on_a_malformed_checkpoint_is_an_error_record(
        teacher_dir, tmp_path, capsys):
    bad = str(tmp_path / "teacher")
    shutil.copytree(teacher_dir, bad)
    with open(os.path.join(bad, "manifest.json")) as fh:
        manifest = json.load(fh)
    name = sorted(manifest["tensors"])[0]
    manifest["tensors"][name] = {"shape": manifest["tensors"][name]}
    with open(os.path.join(bad, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    assert main(["teacher-stats", "--teacher", bad, *TASK_ARGS]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "ValueError"
    assert name in record["detail"] and "data.bin" in record["detail"]


@pytest.mark.parametrize("edit, key", [
    (lambda config: {**config, "bogus": 1}, "'bogus'"),
    (lambda config: {**config, "hidden_dim": "16"}, "config.hidden_dim"),
    (lambda config: {**config, "hidden_dim": 16.0}, "config.hidden_dim"),
    (lambda config: {**config, "num_layers": True}, "config.num_layers"),
    (lambda config: list(config.values()), "config"),
], ids=["unknown-key", "string", "float", "bool", "list"])
def test_teacher_stats_on_a_malformed_config_is_an_error_record(
        teacher_dir, tmp_path, capsys, edit, key):
    bad = str(tmp_path / "teacher")
    shutil.copytree(teacher_dir, bad)
    with open(os.path.join(bad, "manifest.json")) as fh:
        manifest = json.load(fh)
    manifest["config"] = edit(manifest["config"])
    with open(os.path.join(bad, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    assert main(["teacher-stats", "--teacher", bad, *TASK_ARGS]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "ValueError"
    assert key in record["detail"]

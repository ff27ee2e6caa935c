"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import bench
from tracing import (
    LAYER_METRICS,
    MATMUL_KINDS,
    Tracer,
    classify_matmul,
    instrument,
    layer_metrics,
    self_times,
)

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent=None):
    return [name, start, end, parent, "r", None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("harness.run", 0.0, 10.0),
        span("models.evaluate", 1.0, 4.0, parent=0),
        span("models.forward.eval", 1.5, 3.5, parent=1),
        span("optim.step", 6.0, 7.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("p", 0.0, 5.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 4.0, parent=0),
        span("c", 4.5, 6.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0 - 3.0 - 0.5)


def test_layer_metrics_sum_spans_and_derive_ratios():
    spans = [
        span("harness.run", 0.0, 10.0),
        span("distillation.teacher_logits", 0.0, 2.0, parent=0),
        span("models.forward.teacher", 0.5, 1.5, parent=1),
        span("distillation.teacher_logits", 2.0, 2.5, parent=0),
        span("models.forward.train", 3.0, 4.0, parent=0),
        span("models.evaluate", 5.0, 9.0, parent=0),
        span("models.forward.eval", 5.0, 9.0, parent=5),
    ]
    spans[2][5] = {"rows": 32}
    spans[4][5] = {"rows": 32}
    spans[6][5] = {"rows": 64}
    m = layer_metrics(spans, trace_overhead=0.05)
    assert set(m) == {name for name, _ in LAYER_METRICS}
    assert m["harness.run.s"] == 10.0
    assert m["harness.run.self_s"] == pytest.approx(10.0 - 2.5 - 1.0 - 4.0)
    assert m["distillation.teacher_logits.calls"] == 2
    assert m["distillation.teacher_cache_hit_ratio"] == 0.5
    assert m["models.eval_rows_per_train_row"] == 2.0
    assert m["models.forward.self_s"] == pytest.approx(6.0)
    assert m["harness.trace_overhead"] == 0.05


@pytest.mark.parametrize("a, b, kind", [
    ((512, 64), (64, 64), "qkvo"),
    ((32, 4, 16, 16), (32, 4, 16, 16), "attention"),
    ((512, 64), (64, 128), "ffn_expand"),
    ((512, 128), (128, 64), "ffn_reduce"),
    ((32, 64), (64, 4), "head"),
])
def test_matmul_classification_by_operand_shape(a, b, kind):
    assert classify_matmul(a, b, hidden_dim=64, ffn_dim=128) == kind


def test_matmul_classification_rejects_unknown_shapes():
    with pytest.raises(ValueError):
        classify_matmul((8, 3), (3, 5), hidden_dim=64, ffn_dim=128)


def test_instrumented_forward_sees_every_matmul_and_restores_the_package():
    from gradprune import TinyEncoder, TinyEncoderConfig, models

    config = TinyEncoderConfig()
    encoder = TinyEncoder.build(config)
    tokens = np.arange(2 * 16).reshape(2, 16) % config.vocab_size
    before = encoder.forward(tokens).data
    original = models.matmul
    tracer = Tracer()
    with instrument(tracer, config.hidden_dim, config.ffn_dim):
        during = encoder.forward(tokens).data
    assert models.matmul is original
    assert np.array_equal(before, during)
    names = [s[0] for s in tracer.spans]
    layers = config.num_layers
    expected = {"qkvo": 4 * layers, "attention": 2 * layers, "ffn_expand": layers,
                "ffn_reduce": layers, "head": 1}
    assert {k: names.count(f"tensor.matmul.{k}") for k in MATMUL_KINDS} == expected
    assert names.count("models.forward.train") == 1


def test_metric_names_and_units_match_benchmark_json():
    for name, unit in LAYER_METRICS + bench.END_TO_END:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_seed_zero_is_the_desk_setup():
    assert bench.Seeds.derive(0) == bench.Seeds(task=7, teacher=100, run=1)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_reduced_traced_run_emits_every_layer_metric(workload):
    m = bench.measure(workload, seed=0, seconds=1.0, trace=True, sizes=bench.SMOKE)
    assert (m.attempted, m.failed) == (2, 0), [u["errors"] for u in m.units]
    traced, untraced = (u["outcome"].digests for u in m.units)
    assert traced == untraced
    line = bench.result_line(m, trace=True)
    assert list(line["metrics"]) == [s["name"] for s in SPEC["per_layer"]]
    assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
    assert line["metrics"]["tensor.backward.calls"]["value"] > 0


def test_reduced_untraced_run_emits_every_end_to_end_metric():
    m = bench.measure("teacher-dense", seed=0, seconds=1.0, trace=False,
                      sizes=bench.SMOKE)
    line = bench.result_line(m, trace=False)
    assert line["correct"] and line["attempted"] >= 1
    assert list(line["metrics"]) == [s["name"] for s in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_teacher_check_rescores_the_reloaded_checkpoint(tmp_path):
    sizes = bench.SMOKE
    seeds = bench.Seeds.derive(0)
    state = bench.teacher_dense_setup(None, seeds, sizes)
    teacher = bench.teacher_dense_unit(None, seeds, sizes, state, tmp_path)
    assert bench.teacher_dense_check(teacher, state, tmp_path / "a").errors == []
    teacher.metadata["val_accuracy"] += 0.5
    errors = bench.teacher_dense_check(teacher, state, tmp_path / "b").errors
    assert len(errors) == 1 and errors[0].startswith("reloaded teacher scores")

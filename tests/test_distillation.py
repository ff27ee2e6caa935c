"""Distillation loss: CE/KL mixing, temperature softening, teacher handling."""

import numpy as np
import pytest

from gradprune.distillation import (
    DEFAULT_TEMPERATURES,
    KDConfig,
    TeacherHandle,
    cross_entropy,
    distribution_entropy,
    kd_loss_terms,
    soften,
    teacher_distribution_stats,
)
from gradprune.models import TinyEncoder, TinyEncoderConfig
from gradprune.tensor import Tape, Tensor


def rand_logits(rng, batch=8, classes=4, scale=2.0):
    return rng.normal(scale=scale, size=(batch, classes))


# ---------------------------------------------------------------------------
# hardness endpoints


def test_hardness_zero_is_bit_identical_to_cross_entropy():
    rng = np.random.default_rng(0)
    logits_data = rand_logits(rng)
    labels = rng.integers(0, 4, size=8)
    cfg = KDConfig(hardness=0.0, temperature=5.5)

    with Tape() as tape:
        a = Tensor(logits_data.copy(), requires_grad=True)
        loss_kd = kd_loss_terms(a, rand_logits(rng), labels, cfg)[0]
        tape.backward(loss_kd)
    with Tape() as tape:
        b = Tensor(logits_data.copy(), requires_grad=True)
        loss_ce = cross_entropy(b, labels)
        tape.backward(loss_ce)

    assert float(loss_kd.data) == float(loss_ce.data)
    np.testing.assert_array_equal(a.grad, b.grad)


def test_hardness_one_on_equal_logits_is_zero():
    rng = np.random.default_rng(1)
    logits = rand_logits(rng)
    labels = rng.integers(0, 4, size=8)
    for t in (0.5, 1.0, 5.5):
        cfg = KDConfig(hardness=1.0, temperature=t)
        loss = kd_loss_terms(Tensor(logits.copy()), logits.copy(), labels, cfg)[0]
        assert abs(float(loss.data)) <= 1e-12


def test_worked_kl_example():
    # KL(softmax([2,0]) || softmax([0,2])) = 2 * (e^2 - 1) / (e^2 + 1)
    cfg = KDConfig(hardness=1.0, temperature=1.0, scale_kl_by_t_squared=True)
    loss = kd_loss_terms(
        Tensor(np.array([[0.0, 2.0]])), np.array([[2.0, 0.0]]),
        np.array([0]), cfg,
    )[0]
    assert abs(float(loss.data) - 1.5232) <= 1e-3


def test_terms_sum_to_loss_and_respect_weights():
    rng = np.random.default_rng(2)
    student = Tensor(rand_logits(rng))
    teacher = rand_logits(rng)
    labels = rng.integers(0, 4, size=8)

    cfg = KDConfig(hardness=0.6, temperature=5.5)
    loss, ce_part, kl_part = kd_loss_terms(student, teacher, labels, cfg)
    assert float(loss.data) == pytest.approx(ce_part + kl_part, rel=1e-12)

    plain_ce = float(cross_entropy(student, labels).data)
    assert ce_part == pytest.approx(0.4 * plain_ce, rel=1e-12)

    # h=1 skips the CE computation entirely
    _, ce_part, kl_part = kd_loss_terms(student, teacher, labels,
                                        KDConfig(hardness=1.0, temperature=5.5))
    assert ce_part == 0.0 and kl_part > 0.0


def test_t_squared_scaling_flag():
    rng = np.random.default_rng(3)
    student = Tensor(rand_logits(rng))
    teacher = rand_logits(rng)
    labels = rng.integers(0, 4, size=8)
    scaled = kd_loss_terms(student, teacher, labels,
                           KDConfig(hardness=1.0, temperature=5.5,
                                    scale_kl_by_t_squared=True))[0]
    unscaled = kd_loss_terms(student, teacher, labels,
                             KDConfig(hardness=1.0, temperature=5.5,
                                      scale_kl_by_t_squared=False))[0]
    assert float(scaled.data) == pytest.approx(5.5**2 * float(unscaled.data), rel=1e-12)


def test_kl_term_nonnegative():
    rng = np.random.default_rng(4)
    cfg = KDConfig(hardness=1.0, temperature=2.0)
    for _ in range(50):
        loss = kd_loss_terms(Tensor(rand_logits(rng)), rand_logits(rng),
                             rng.integers(0, 4, size=8), cfg)[0]
        assert float(loss.data) >= 0.0


# ---------------------------------------------------------------------------
# gradients


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(40):
        h = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.5, 10.0))
        cfg = KDConfig(hardness=h, temperature=t)
        logits = rand_logits(rng, batch=4)
        teacher = rand_logits(rng, batch=4)
        labels = rng.integers(0, 4, size=4)

        with Tape() as tape:
            x = Tensor(logits.copy(), requires_grad=True)
            tape.backward(kd_loss_terms(x, teacher, labels, cfg)[0])
        grad = x.grad

        fd = np.zeros_like(logits)
        for idx in np.ndindex(logits.shape):
            bumped = logits.copy()
            bumped[idx] += eps
            up = float(kd_loss_terms(Tensor(bumped), teacher, labels, cfg)[0].data)
            bumped[idx] -= 2 * eps
            down = float(kd_loss_terms(Tensor(bumped), teacher, labels, cfg)[0].data)
            fd[idx] = (up - down) / (2 * eps)
        denom = max(np.abs(fd).max(), 1e-8)
        assert np.abs(grad - fd).max() / denom <= 1e-4, f"h={h} t={t}"


def test_gradient_flows_only_to_student():
    rng = np.random.default_rng(6)
    teacher = rand_logits(rng)
    cfg = KDConfig(hardness=0.5, temperature=2.0)
    with Tape() as tape:
        student = Tensor(rand_logits(rng), requires_grad=True)
        tape.backward(kd_loss_terms(student, teacher, rng.integers(0, 4, size=8), cfg)[0])
    assert student.grad is not None and np.all(np.isfinite(student.grad))


# ---------------------------------------------------------------------------
# soften / entropy


def test_soften_values():
    np.testing.assert_allclose(
        soften(np.array([2.0, 0.0]), 1.0),
        np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum(),
        rtol=0, atol=1e-15,
    )
    np.testing.assert_allclose(
        soften(np.array([2.0, 0.0]), 2.0), [0.7311, 0.2689], rtol=0, atol=1e-4)
    np.testing.assert_allclose(
        soften(np.array([2.0, 0.0]), 1e6), [0.5, 0.5], rtol=0, atol=1e-6)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            soften(np.array([2.0, bad]), 1.0)


def test_soften_sums_to_one_and_is_stable():
    rng = np.random.default_rng(7)
    logits = rng.normal(scale=500.0, size=(10, 6))
    for t in (0.5, 1.0, 5.5, 10.0):
        probs = soften(logits, t)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.all(probs >= 0.0)
    with pytest.raises(ValueError):
        soften(logits, 0.0)


def test_entropy_nondecreasing_in_temperature():
    rng = np.random.default_rng(8)
    logits = rng.normal(scale=3.0, size=(100, 5))
    grid = [0.5, 1.0, 2.0, 5.5, 8.5, 10.0]
    entropies = np.stack([distribution_entropy(soften(logits, t)) for t in grid])
    assert np.all(np.diff(entropies, axis=0) >= -1e-12)


def test_entropy_limits():
    assert distribution_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    logits = np.array([3.0, -1.0, 0.5, 2.0])
    ent = distribution_entropy(soften(logits, 1e6))
    assert abs(float(ent) - np.log(4)) <= 1e-6


# ---------------------------------------------------------------------------
# teacher stats and handle


def test_teacher_stats_rows():
    logits = np.array([[4.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
    rows = teacher_distribution_stats(logits)
    assert len(rows) == 2 * len(DEFAULT_TEMPERATURES)
    assert {r["temperature"] for r in rows} == {1.0, 2.0, 5.5}
    for i in (0, 1):
        by_t = [r for r in rows if r["sample_id"] == i]
        ents = [r["entropy"] for r in sorted(by_t, key=lambda r: r["temperature"])]
        assert ents == sorted(ents)
        for r in by_t:
            expected = soften(logits[i], r["temperature"]).max()
            assert r["max_prob"] == pytest.approx(expected, rel=1e-12)


def test_teacher_handle_is_frozen():
    cfg = TinyEncoderConfig(vocab_size=16, max_sequence_length=4, hidden_dim=8,
                            num_layers=1, num_heads=2, ffn_dim=16)
    ckpt = TinyEncoder.build(cfg).to_checkpoint()
    handle = TeacherHandle(ckpt)
    tokens = np.array([[1, 2, 3, 4], [4, 3, 2, 1]])

    with Tape() as tape:
        student = Tensor(np.zeros((2, 4)), requires_grad=True)
        first = handle.logits(tokens)
        # the teacher forward ran inside an active tape without recording
        assert len(tape) == 0
        loss = kd_loss_terms(student, first, np.array([0, 1]),
                             KDConfig(hardness=1.0, temperature=2.0))[0]
        tape.backward(loss)
    assert not np.array_equal(handle.logits(tokens[::-1].copy()), first)


# ---------------------------------------------------------------------------
# validation


def test_config_rejects_bad_ranges():
    with pytest.raises(ValueError):
        KDConfig(hardness=-0.1)
    with pytest.raises(ValueError):
        KDConfig(hardness=1.1)
    with pytest.raises(ValueError):
        KDConfig(temperature=0.0)


def test_loss_rejects_bad_inputs():
    cfg = KDConfig(hardness=0.5, temperature=2.0)
    good = np.zeros((2, 3))
    labels = np.array([0, 1])
    with pytest.raises(ValueError):
        kd_loss_terms(Tensor(good), None, labels, cfg)
    with pytest.raises(ValueError):
        kd_loss_terms(Tensor(good), np.zeros((3, 3)), labels, cfg)
    with pytest.raises(ValueError):
        kd_loss_terms(Tensor(good), good, np.array([0, 3]), cfg)
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        kd_loss_terms(Tensor(good), bad, labels, cfg)


def test_cross_entropy_shape_and_range_checks():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros(3)), np.array([0]))
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, -1]))

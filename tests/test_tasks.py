"""Synthetic task generation: determinism, balance, marker structure."""

import numpy as np
import pytest

from gradprune.tasks import (
    SyntheticTask,
    generate_task,
    iterate_batches,
    steps_per_epoch,
)


def test_same_seed_is_identical():
    a = generate_task(SyntheticTask(seed=7))
    b = generate_task(SyntheticTask(seed=7))
    np.testing.assert_array_equal(a.train.tokens, b.train.tokens)
    np.testing.assert_array_equal(a.train.labels, b.train.labels)
    np.testing.assert_array_equal(a.val.tokens, b.val.tokens)
    np.testing.assert_array_equal(a.val.labels, b.val.labels)
    c = generate_task(SyntheticTask(seed=8))
    assert not np.array_equal(a.train.tokens, c.train.tokens)


def test_class_balance_two_class_2000():
    task = SyntheticTask(num_classes=2, train_size=2000, val_size=200)
    data = generate_task(task)
    counts = np.bincount(data.train.labels, minlength=2)
    assert counts.min() >= 950 and counts.max() <= 1050


def test_class_balance_is_exact_by_construction():
    task = SyntheticTask(num_classes=4, train_size=2048, val_size=512)
    data = generate_task(task)
    assert np.bincount(data.train.labels).tolist() == [512] * 4
    assert np.bincount(data.val.labels).tolist() == [128] * 4


def test_labels_are_a_function_of_the_markers():
    task = SyntheticTask()
    data = generate_task(task)
    c = task.num_classes
    for tokens, labels in ((data.train.tokens, data.train.labels),
                           (data.val.tokens, data.val.labels)):
        first = (tokens >= 2) & (tokens < 2 + c)
        second = (tokens >= 2 + c) & (tokens < 2 + 2 * c)
        assert np.all(first.sum(axis=1) == 1)
        assert np.all(second.sum(axis=1) == 1)
        a = tokens[first] - 2
        b = tokens[second] - (2 + c)
        np.testing.assert_array_equal((a + b) % c, labels)


def test_easy_fraction_zeroes_second_marker():
    task = SyntheticTask(train_size=4096)
    data = generate_task(task)
    c = task.num_classes
    second = (data.train.tokens >= 2 + c) & (data.train.tokens < 2 + 2 * c)
    b = data.train.tokens[second] - (2 + c)
    # b = 0 from the easy half plus 1/c of the uniform half
    expected = 0.5 + 0.5 / c
    assert abs((b == 0).mean() - expected) < 0.05


def test_label_noise_changes_labels_only():
    clean = generate_task(SyntheticTask(label_noise=0.0))
    noisy = generate_task(SyntheticTask(label_noise=0.5))
    np.testing.assert_array_equal(clean.train.tokens, noisy.train.tokens)
    np.testing.assert_array_equal(clean.val.tokens, noisy.val.tokens)
    np.testing.assert_array_equal(clean.val.labels, noisy.val.labels)
    changed = (clean.train.labels != noisy.train.labels)
    assert abs(changed.mean() - 0.5) < 0.01
    # corrupted labels move to the next class, preserving balance exactly
    c = 4
    np.testing.assert_array_equal(
        noisy.train.labels[changed], (clean.train.labels[changed] + 1) % c)
    assert np.bincount(noisy.train.labels).tolist() == np.bincount(clean.train.labels).tolist()


def test_degenerate_specs_rejected():
    with pytest.raises(ValueError):
        SyntheticTask(num_classes=1)
    with pytest.raises(ValueError):
        SyntheticTask(vocab_size=8, num_classes=4)  # markers would not fit
    with pytest.raises(ValueError):
        SyntheticTask(sequence_length=1)
    with pytest.raises(ValueError):
        SyntheticTask(label_noise=1.0)
    with pytest.raises(ValueError):
        SyntheticTask(train_size=2, num_classes=4)


def test_batches_cover_one_epoch_without_partials():
    rng = np.random.default_rng(0)
    batches = list(iterate_batches(rng, 100, 32))
    assert len(batches) == 3 == steps_per_epoch(100, 32)
    seen = np.concatenate(batches)
    assert len(seen) == len(set(seen.tolist()))
    assert all(len(b) == 32 for b in batches)


def test_batches_reshuffle_each_epoch():
    rng = np.random.default_rng(0)
    first = np.concatenate(list(iterate_batches(rng, 64, 32)))
    second = np.concatenate(list(iterate_batches(rng, 64, 32)))
    assert not np.array_equal(first, second)
    with pytest.raises(ValueError):
        list(iterate_batches(rng, 64, 0))

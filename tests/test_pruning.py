"""Magnitude pruning against a brute-force sort oracle, plus mask plumbing."""

import math

import numpy as np
import pytest

from gradprune.pruning import (
    apply_masks,
    fresh_masks,
    magnitude_prune,
    mask_sparsity,
    masks_subset_of,
    sparsity_report,
    zero_masked_grads,
)


def brute_force_prune(weights, masks, target, policy):
    """Reference implementation using explicit python sorts.

    Candidates are the still-alive entries, keyed (|w|, tensor order, flat
    index) so ties resolve to the lowest flat index within a tensor and then
    to earlier tensors. Uniform prunes each tensor to round-half-up of
    target * size; global prunes the pool to floor(target * total).
    """
    names = list(weights.keys())
    out = {n: masks[n].copy() for n in names}
    if policy == "uniform":
        for n in names:
            w = weights[n].ravel()
            m = out[n].ravel()
            quota = int(math.floor(target * w.size + 0.5))
            needed = quota - int((~m).sum())
            candidates = sorted(
                (abs(w[i]), i) for i in range(w.size) if m[i]
            )
            for _, i in candidates[:max(needed, 0)]:
                m[i] = False
        return out
    pool = []
    for t_idx, n in enumerate(names):
        w = weights[n].ravel()
        m = out[n].ravel()
        for i in range(w.size):
            if m[i]:
                pool.append((abs(w[i]), t_idx, i))
    pool.sort()
    total = sum(weights[n].size for n in names)
    pruned = sum(int((~out[n]).sum()) for n in names)
    quota = int(math.floor(target * total))
    for _, t_idx, i in pool[:max(quota - pruned, 0)]:
        out[names[t_idx]].ravel()[i] = False
    return out


# ---------------------------------------------------------------------------
# worked examples


def test_uniform_prunes_two_smallest_magnitudes():
    w = {"a": np.array([3.0, -1.0, 0.5, -0.2, 4.0])}
    new = magnitude_prune(w, fresh_masks(w), 0.4, "uniform")
    assert new["a"].tolist() == [True, True, False, False, True]


def test_target_zero_is_identity():
    w = {"a": np.array([3.0, -1.0, 0.5, -0.2, 4.0])}
    masks = fresh_masks(w)
    new = magnitude_prune(w, masks, 0.0, "uniform")
    assert new["a"].all()
    assert masks["a"].all()  # input untouched


def test_global_example_spreads_unevenly():
    w = {"a": np.array([5.0, 0.1]), "b": np.array([0.2, 0.3, 4.0])}
    new = magnitude_prune(w, fresh_masks(w), 0.4, "global")
    assert new["a"].tolist() == [True, False]
    assert new["b"].tolist() == [False, True, True]
    report = sparsity_report(new)
    assert report["per_tensor"]["a"] == 0.5
    assert report["per_tensor"]["b"] == pytest.approx(1 / 3)
    assert report["aggregate"] == 0.4


def test_quota_rounding_conventions_differ():
    # five entries at target 0.5: uniform rounds 2.5 up, global floors it
    w = {"a": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}
    uniform = magnitude_prune(w, fresh_masks(w), 0.5, "uniform")
    global_ = magnitude_prune(w, fresh_masks(w), 0.5, "global")
    assert int((~uniform["a"]).sum()) == 3
    assert int((~global_["a"]).sum()) == 2


# ---------------------------------------------------------------------------
# tie breaking


def test_ties_resolve_to_lowest_flat_index():
    w = {"a": np.array([1.0, -1.0, 1.0, -1.0, 2.0])}
    new = magnitude_prune(w, fresh_masks(w), 0.4, "uniform")
    assert new["a"].tolist() == [False, False, True, True, True]


def test_global_ties_resolve_to_earlier_tensor():
    w = {"a": np.array([1.0]), "b": np.array([1.0, 2.0])}
    new = magnitude_prune(w, fresh_masks(w), 1 / 3, "global")
    assert new["a"].tolist() == [False]
    assert new["b"].tolist() == [True, True]


def test_masked_zeros_do_not_compete_in_ties():
    # once index 0 is masked, its (zeroed) magnitude must not soak up the
    # next event's quota: the next-smallest *alive* entry goes instead
    w = {"a": np.array([0.1, 5.0, 0.2, 6.0])}
    masks = magnitude_prune(w, fresh_masks(w), 0.25, "uniform")
    assert masks["a"].tolist() == [False, True, True, True]
    w["a"][0] = 0.0  # as applied in training
    masks = magnitude_prune(w, masks, 0.5, "uniform")
    assert masks["a"].tolist() == [False, True, False, True]


# ---------------------------------------------------------------------------
# oracle sweep


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for case in range(60):
        num_tensors = int(rng.integers(1, 5))
        weights = {}
        for t in range(num_tensors):
            size = int(rng.integers(1, 40))
            w = rng.normal(size=size)
            # duplicate some magnitudes to force the tie rule to matter
            if size >= 4:
                w[2] = w[1]
                w[3] = -w[1]
            weights[f"t{t}"] = w
        masks = fresh_masks(weights)
        policy = "uniform" if case % 2 == 0 else "global"
        for target in sorted(rng.uniform(0, 1, size=3)):
            expected = brute_force_prune(weights, masks, target, policy)
            got = magnitude_prune(weights, masks, target, policy)
            for n in weights:
                np.testing.assert_array_equal(got[n], expected[n], err_msg=f"{policy} {n}")
            masks = got


# ---------------------------------------------------------------------------
# cumulative behavior


def test_masks_only_gain_zeros_over_a_ramp():
    rng = np.random.default_rng(1)
    weights = {"a": rng.normal(size=(20, 10)), "b": rng.normal(size=50)}
    for policy in ("uniform", "global"):
        masks = fresh_masks(weights)
        targets = [0.97 + (0.7 - 0.97) * (1 - k / 99) ** 3 for k in range(100)]
        for target in targets:
            new = magnitude_prune(weights, masks, target, policy)
            assert masks_subset_of(masks, new)
            masks = new
        assert mask_sparsity(masks) >= 0.96


def test_previously_masked_entries_never_regrow():
    w = {"a": np.array([0.1, 1.0, 2.0, 3.0])}
    masks = magnitude_prune(w, fresh_masks(w), 0.25, "uniform")
    assert masks["a"].tolist() == [False, True, True, True]
    # even if the weight under the mask is later the largest in the tensor,
    # it stays pruned while others go
    w["a"][0] = 100.0
    masks = magnitude_prune(w, masks, 0.5, "uniform")
    assert masks["a"].tolist() == [False, False, True, True]


def test_target_below_current_sparsity_rejected():
    w = {"a": np.arange(1.0, 11.0)}
    masks = magnitude_prune(w, fresh_masks(w), 0.5, "uniform")
    with pytest.raises(ValueError):
        magnitude_prune(w, masks, 0.2, "uniform")
    with pytest.raises(ValueError):
        magnitude_prune(w, masks, 0.2, "global")


# ---------------------------------------------------------------------------
# aggregate accounting


def test_aggregate_sparsity_bounds():
    rng = np.random.default_rng(2)
    weights = {f"t{i}": rng.normal(size=int(n)) for i, n in
               enumerate(rng.integers(50, 500, size=8))}
    total = sum(w.size for w in weights.values())
    for target in (0.5, 0.9, 0.97):
        got = mask_sparsity(magnitude_prune(weights, fresh_masks(weights), target, "global"))
        assert abs(got - target) <= 1 / total
        got = mask_sparsity(magnitude_prune(weights, fresh_masks(weights), target, "uniform"))
        # each tensor's quota rounds by at most 1/2 either way
        assert abs(got - target) <= len(weights) / (2 * total) + 1e-12


def test_sparsity_report_counts():
    w = {"a": np.ones(4), "b": np.ones(6)}
    masks = fresh_masks(w)
    assert sparsity_report(masks)["aggregate"] == 0.0
    masks["a"][:2] = False
    report = sparsity_report(masks)
    assert report["aggregate"] == 0.2
    assert report["per_tensor"]["a"] == 0.5
    assert report["per_tensor"]["b"] == 0.0
    assert report["total_masked"] == 2 and report["total_prunable"] == 10
    with pytest.raises(ValueError, match="mask set is empty"):
        sparsity_report({})


# ---------------------------------------------------------------------------
# mask application


def test_apply_masks_zeroes_and_keeps():
    params = {"a": np.array([1.0, 2.0, 3.0])}
    apply_masks(params, {"a": np.array([True, False, True])})
    assert params["a"].tolist() == [1.0, 0.0, 3.0]
    apply_masks(params, {"a": np.ones(3, dtype=bool)})
    assert params["a"].tolist() == [1.0, 0.0, 3.0]


def test_apply_masks_validates_names_and_shapes():
    params = {"a": np.ones(3)}
    with pytest.raises(ValueError):
        apply_masks(params, {"missing": np.ones(3, dtype=bool)})
    with pytest.raises(ValueError):
        apply_masks(params, {"a": np.ones(4, dtype=bool)})


def test_zero_masked_grads():
    grads = {"a": np.array([0.5, 0.5, 0.5])}
    zero_masked_grads(grads, {"a": np.array([True, False, True])})
    assert grads["a"].tolist() == [0.5, 0.0, 0.5]
    with pytest.raises(ValueError, match="parameter b has no gradient"):
        zero_masked_grads(grads, {"b": np.ones(3, dtype=bool)})


def test_input_validation():
    w = {"a": np.ones(3)}
    with pytest.raises(ValueError):
        magnitude_prune(w, fresh_masks(w), 0.5, "layerwise")
    with pytest.raises(ValueError):
        magnitude_prune(w, fresh_masks(w), 1.5, "uniform")
    with pytest.raises(ValueError):
        magnitude_prune({}, {}, 0.5, "uniform")
    with pytest.raises(ValueError):
        magnitude_prune(w, {"b": np.ones(3, dtype=bool)}, 0.5, "uniform")
    with pytest.raises(ValueError):
        magnitude_prune(w, {"a": np.ones(4, dtype=bool)}, 0.5, "uniform")

"""Schedules: the cubic ramp, event placement and LR arrays, plus the rules
that guard them, which ``parse_recipe`` and ``compile_timeline`` enforce."""

import json

import numpy as np
import pytest

from gradprune.recipes import (
    RecipeError,
    compile_timeline,
    load_bundled,
    parse_recipe,
    serialize_recipe,
)
from gradprune.schedules import (
    cubic_sparsity,
    cyclic_lr,
    event_targets,
    linear_decay,
    prune_event_steps,
)


def downstream_doc(**sparsity):
    """downstream-10ep (2 head + 6 pruning + 2 tail epochs, 10 events per
    epoch) with a 0.97 final target, as a recipe dict."""
    doc = json.loads(serialize_recipe(load_bundled("downstream-10ep")))
    doc["sparsity"].update({"final": 0.97, **sparsity})
    return doc


def downstream_timeline(steps_per_epoch=16):
    return compile_timeline(parse_recipe(downstream_doc()), steps_per_epoch)


def target_at(timeline, step):
    """Target in effect at a step: the latest event's at or before it, 0.0
    before the first."""
    fired = [target for s, target in timeline.prune_events if s <= step]
    return fired[-1] if fired else 0.0


# ---------------------------------------------------------------------------
# cubic ramp


def test_cubic_endpoints_exact():
    assert cubic_sparsity(0.70, 0.97, 0, 61) == 0.70
    assert cubic_sparsity(0.70, 0.97, 60, 61) == 0.97


def test_cubic_midpoint_value():
    # 0.97 + (0.70 - 0.97) * (1 - 30/60)^3 = 0.97 - 0.27 * 0.125
    assert abs(cubic_sparsity(0.70, 0.97, 30, 61) - 0.93625) <= 1e-12


def test_cubic_matches_direct_formula():
    k = np.arange(1, 60)
    expected = 0.97 + (0.70 - 0.97) * (1.0 - k / 60.0) ** 3
    got = np.array([cubic_sparsity(0.70, 0.97, int(i), 61) for i in k])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_cubic_increments_shrink():
    targets = [cubic_sparsity(0.70, 0.97, k, 61) for k in range(61)]
    increments = np.diff(targets)
    assert np.all(increments > 0)
    assert np.all(np.diff(increments) <= 1e-15)


def test_cubic_rejects_bad_indices():
    with pytest.raises(ValueError):
        cubic_sparsity(0.7, 0.97, -1, 61)
    with pytest.raises(ValueError):
        cubic_sparsity(0.7, 0.97, 61, 61)
    with pytest.raises(ValueError):
        cubic_sparsity(0.7, 0.97, 0, 1)


# ---------------------------------------------------------------------------
# event placement


def test_downstream_event_count():
    assert len(downstream_timeline().prune_events) == 60


def test_upstream_event_count_and_final_epoch_clear():
    timeline = compile_timeline(load_bundled("upstream-3ep"), 200)
    steps = [s for s, _ in timeline.prune_events]
    assert len(steps) == 200
    # tail freeze: nothing in the last epoch
    assert max(steps) < 2 * 200


def test_events_follow_floor_rule():
    # 17 steps per epoch is not divisible by the frequency
    window_start = 2 * 17
    window_steps = 6 * 17
    expected = [window_start + (k * window_steps) // 60 for k in range(60)]
    assert prune_event_steps(window_start, window_steps, 60).tolist() == expected
    assert [s for s, _ in downstream_timeline(17).prune_events] == expected


def test_events_strictly_increasing_inside_window():
    for spe in (16, 17, 23, 160):
        steps = np.array([s for s, _ in downstream_timeline(spe).prune_events])
        assert np.all(np.diff(steps) > 0)
        assert steps[0] == 2 * spe
        assert steps[-1] < 8 * spe


def test_single_event_schedule_rejected():
    doc = downstream_doc(head_freeze_epochs=0, tail_freeze_epochs=1,
                         prune_frequency_per_epoch=1)
    doc["total_epochs"] = 2
    with pytest.raises(RecipeError, match="recipe.sparsity"):
        parse_recipe(doc)


def test_param_invariants_rejected():
    with pytest.raises(RecipeError):
        parse_recipe(downstream_doc(final=0.70))  # initial_step must stay below final
    no_epochs_left = downstream_doc()
    no_epochs_left["total_epochs"] = 4
    with pytest.raises(RecipeError, match="freeze windows"):
        parse_recipe(no_epochs_left)
    with pytest.raises(ValueError, match="cannot fit"):
        downstream_timeline(steps_per_epoch=9)  # 10 events per epoch


# ---------------------------------------------------------------------------
# target sparsity in effect at a step


def sparsity_oracle(step, spe, initial=0.70, final=0.97):
    """Independent closed-form target: latest fired event's cubic value."""
    num_events, window_start, window_steps = 60, 2 * spe, 6 * spe
    fired = -1
    for k in range(num_events):
        if window_start + (k * window_steps) // num_events <= step:
            fired = k
    if fired < 0:
        return 0.0
    frac = 1.0 - fired / (num_events - 1)
    if fired == 0:
        return initial
    if fired == num_events - 1:
        return final
    return final + (initial - final) * frac**3


def test_sparsity_at_matches_oracle_every_step():
    timeline = downstream_timeline(17)
    for step in range(timeline.total_steps):
        assert abs(target_at(timeline, step) - sparsity_oracle(step, 17)) <= 1e-12


def test_sparsity_boundary_facts():
    timeline = downstream_timeline()
    window_start = 2 * 16
    assert target_at(timeline, 0) == 0.0
    assert target_at(timeline, window_start - 1) == 0.0
    assert target_at(timeline, window_start) == 0.70
    # everything in the tail freeze already sits at the final target
    for step in range(8 * 16, 10 * 16):
        assert target_at(timeline, step) == 0.97


def test_sparsity_monotone_and_piecewise_constant():
    timeline = downstream_timeline()
    values = np.array([target_at(timeline, s) for s in range(timeline.total_steps)])
    assert np.all(np.diff(values) >= 0)
    allowed = {0.0} | set(event_targets(0.70, 0.97, 60).tolist())
    assert set(values.tolist()) <= allowed


# ---------------------------------------------------------------------------
# learning-rate cycles


def test_lr_cycle_endpoints_exact():
    lr = cyclic_lr(1e-4, 1e-6, cycle_steps=25, total_steps=125)
    for cycle in range(5):
        assert lr[cycle * 25] == 1e-4
        assert lr[cycle * 25 + 24] == 1e-6


def test_lr_mid_cycle_value():
    # position 12 of 24 is exactly half way: 1e-4 + (1e-6 - 1e-4)/2
    lr = cyclic_lr(1e-4, 1e-6, cycle_steps=25, total_steps=25)
    assert abs(lr[12] - 5.05e-5) <= 1e-18


def test_lr_strictly_decreasing_within_cycle():
    lr = cyclic_lr(1e-4, 1e-6, cycle_steps=32, total_steps=96)
    for cycle in range(3):
        assert np.all(np.diff(lr[cycle * 32:(cycle + 1) * 32]) < 0)


def test_lr_matches_linear_interpolation():
    lr = cyclic_lr(5e-4, 5e-6, cycle_steps=100, total_steps=600)
    for step in range(600):
        pos = step % 100
        expected = 5e-4 + (5e-6 - 5e-4) * pos / 99
        assert abs(lr[step] - expected) <= 1e-18


def test_lr_params_rejected():
    # parse_recipe's LR rules are in test_recipes.test_cross_field_rules;
    # these two depend on steps per epoch
    doc = downstream_doc()
    doc["sparsity"] = None
    doc["lr"]["cycle_length_epochs"] = 0.5
    recipe = parse_recipe(doc)
    with pytest.raises(ValueError, match="cycle_steps must be >= 2"):
        compile_timeline(recipe, 2)  # a 1-step cycle
    with pytest.raises(ValueError, match="whole number of steps"):
        compile_timeline(recipe, 3)  # a 1.5-step cycle


# ---------------------------------------------------------------------------
# one-shot linear decay


def test_linear_decay_values():
    lr = linear_decay(1.5e-5, 400)
    assert len(lr) == 400
    assert lr[0] == 1.5e-5
    assert abs(lr[200] - 7.5e-6) <= 1e-18
    # the decay heads for 0 at step 400, one past the last step
    assert lr[-1] == 1.5e-5 * (1.0 - 399 / 400) > 0.0


def test_linear_decay_rejects_bad_input():
    doc = json.loads(serialize_recipe(load_bundled("upstream-finetune-8ep")))
    for bad in (0.0, -1.5e-5):
        doc["lr"]["initial"] = bad
        with pytest.raises(RecipeError, match="recipe.lr.initial"):
            parse_recipe(doc)
    with pytest.raises(ValueError, match="steps_per_epoch"):
        compile_timeline(load_bundled("upstream-finetune-8ep"), 0)

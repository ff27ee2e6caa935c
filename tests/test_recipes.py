"""Recipe parsing, auditing against the reference constants, and timelines."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from gradprune.recipes import (
    RecipeError,
    audit_recipe,
    bundled_recipe_names,
    compile_timeline,
    load_bundled,
    override_field,
    parse_recipe,
    recipe_hash,
    serialize_recipe,
)

BUNDLED = ("downstream-10ep", "downstream-30ep", "upstream-3ep", "upstream-finetune-8ep")


# ---------------------------------------------------------------------------
# bundled recipes


def test_bundled_names():
    assert tuple(bundled_recipe_names()) == BUNDLED
    with pytest.raises(RecipeError):
        load_bundled("downstream-20ep")


def test_downstream_recipe_constants():
    r = load_bundled("downstream-10ep")
    assert r.stage == "downstream"
    assert r.total_epochs == 10
    assert r.lr.kind == "cyclic"
    assert r.lr.initial == 1e-4
    assert r.lr.final == 1e-6
    assert r.lr.cycle_length_epochs == 2
    assert r.sparsity.initial_step == 0.70
    assert r.sparsity.prune_frequency_per_epoch == 10
    assert r.sparsity.head_freeze_epochs == 2
    assert r.sparsity.tail_freeze_epochs == 2
    assert r.kd.hardness == 1.0
    assert r.kd.temperature == 5.5
    assert r.weight_decay == 0.0
    assert r.mask_source is None


def test_upstream_recipe_constants():
    r = load_bundled("upstream-3ep")
    assert r.total_epochs == 3
    assert r.lr.initial == 5e-4
    assert r.lr.final == 5e-6
    assert r.lr.cycle_length_epochs == 0.5
    assert r.sparsity.prune_frequency_per_epoch == 100
    assert r.sparsity.head_freeze_epochs == 0
    assert r.sparsity.tail_freeze_epochs == 1
    assert r.weight_decay == 0.01
    assert r.batch_size == 256


def test_finetune_recipe_constants():
    r = load_bundled("upstream-finetune-8ep")
    assert r.stage == "upstream-finetune"
    assert r.total_epochs == 8
    assert r.lr.kind == "linear"
    assert r.lr.initial == 1.5e-5
    assert r.sparsity is None
    assert r.mask_source == "upstream-3ep"


def test_every_bundled_recipe_audits_clean():
    for name in BUNDLED:
        assert audit_recipe(load_bundled(name)) == []


def test_edited_recipe_audits_dirty():
    edited = override_field(load_bundled("downstream-10ep"), "kd.temperature", 2.0)
    diffs = audit_recipe(edited)
    assert len(diffs) == 1
    assert diffs[0].path == "kd.temperature"
    assert diffs[0].expected == 5.5
    assert diffs[0].actual == 2.0


def test_audit_rejects_unknown_recipe_names():
    renamed = override_field(load_bundled("downstream-10ep"), "name", "custom")
    with pytest.raises(RecipeError):
        audit_recipe(renamed)


# ---------------------------------------------------------------------------
# parsing


def test_serialize_parse_round_trip_is_fixed_point():
    for name in BUNDLED:
        recipe = load_bundled(name)
        text = serialize_recipe(recipe)
        again = parse_recipe(text)
        assert again == recipe
        assert serialize_recipe(again) == text
        assert recipe_hash(again) == recipe_hash(recipe)


# sha256 of each bundled recipe's canonical text; run summaries record it, so
# a change in how recipes serialize would change every run directory
PINNED_HASHES = {
    "downstream-10ep": "a96fd2ba6799455a3b7acaab8ae92b086224b5af22edd1ccef645e84fab6d9ce",
    "downstream-30ep": "386e353c2e7658c213993efe7749f465a288295f9f47241d91c5998968a4da81",
    "upstream-3ep": "904398e004e3d6c4bc0789c82cff1cd27dab8b0e5eadf1d9d4bb77f009b7f0c5",
    "upstream-finetune-8ep": "2e74b49c53e7d1647e5fd8c085ae531fd8c5103fdc47a154834d32041d25ff0b",
}


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_serialized_text_and_hash_are_pinned(name):
    recipe = load_bundled(name)
    text = serialize_recipe(recipe).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == PINNED_HASHES[name]
    assert recipe_hash(recipe) == PINNED_HASHES[name]


def test_hash_tracks_content_not_identity():
    a = load_bundled("downstream-10ep")
    b = override_field(a, "kd.hardness", 0.6)
    assert recipe_hash(a) != recipe_hash(b)
    assert recipe_hash(override_field(b, "kd.hardness", 1.0)) == recipe_hash(a)


def base_dict():
    return json.loads(serialize_recipe(load_bundled("downstream-10ep")))


def test_unknown_keys_rejected_with_path():
    doc = base_dict()
    doc["sparsity"]["frequency"] = 10
    with pytest.raises(RecipeError, match="recipe.sparsity"):
        parse_recipe(json.dumps(doc))
    doc = base_dict()
    doc["extra"] = 1
    with pytest.raises(RecipeError, match="recipe"):
        parse_recipe(json.dumps(doc))


def test_missing_keys_rejected_with_path():
    doc = base_dict()
    del doc["kd"]["temperature"]
    with pytest.raises(RecipeError, match="recipe.kd"):
        parse_recipe(json.dumps(doc))


def test_out_of_range_fields_rejected():
    doc = base_dict()
    doc["kd"]["hardness"] = 1.5
    with pytest.raises(RecipeError, match="hardness"):
        parse_recipe(json.dumps(doc))
    doc = base_dict()
    doc["sparsity"]["initial_step"] = 0.95
    doc["sparsity"]["final"] = 0.9
    with pytest.raises(RecipeError):
        parse_recipe(json.dumps(doc))
    doc = base_dict()
    doc["total_epochs"] = True  # bools are not integers here
    with pytest.raises(RecipeError, match="total_epochs"):
        parse_recipe(json.dumps(doc))


def test_cross_field_rules():
    doc = base_dict()
    doc["lr"]["cycle_length_epochs"] = 3  # does not divide 10 epochs
    with pytest.raises(RecipeError, match="cycle"):
        parse_recipe(json.dumps(doc))

    doc = base_dict()
    doc["lr"] = {"kind": "cyclic", "initial": 1e-6, "final": 1e-4,
                 "cycle_length_epochs": 2}
    with pytest.raises(RecipeError):
        parse_recipe(json.dumps(doc))

    # a downstream recipe must not carry a mask source
    doc = base_dict()
    doc["mask_source"] = "somewhere"
    with pytest.raises(RecipeError, match="mask_source"):
        parse_recipe(json.dumps(doc))

    # finetune recipes need a mask source and must not re-prune
    doc = json.loads(serialize_recipe(load_bundled("upstream-finetune-8ep")))
    doc["mask_source"] = None
    with pytest.raises(RecipeError, match="mask_source"):
        parse_recipe(json.dumps(doc))
    doc = json.loads(serialize_recipe(load_bundled("upstream-finetune-8ep")))
    doc["sparsity"] = base_dict()["sparsity"]
    with pytest.raises(RecipeError, match="sparsity"):
        parse_recipe(json.dumps(doc))


DELETE = object()
CYCLIC_LR = {"kind": "cyclic", "initial": 1e-4, "final": 1e-6, "cycle_length_epochs": 2}

# (bundled recipe, {dotted key: new value or DELETE}, expected message prefix).
# The prefix is the JSON path of the fault and its colon; "recipe.seeds" and
# "recipe.lr" leave the colon off so that a report at the element
# ("recipe.seeds[1]") or at the key ("recipe.lr.kind") matches as well.
REJECTIONS = [
    ("downstream-10ep", {"batch_size": DELETE}, "recipe: "),
    ("downstream-10ep", {"extra": 1}, "recipe: "),
    ("downstream-10ep", {"name": ""}, "recipe.name: "),
    ("downstream-10ep", {"name": 5}, "recipe.name: "),
    ("downstream-10ep", {"stage": "midstream"}, "recipe.stage: "),
    ("downstream-10ep", {"stage": 3}, "recipe.stage: "),
    ("downstream-10ep", {"total_epochs": True}, "recipe.total_epochs: "),
    ("downstream-10ep", {"total_epochs": 2.5}, "recipe.total_epochs: "),
    ("downstream-10ep", {"total_epochs": 0}, "recipe.total_epochs: "),
    ("downstream-10ep", {"batch_size": 0}, "recipe.batch_size: "),
    ("downstream-10ep", {"weight_decay": False}, "recipe.weight_decay: "),
    ("downstream-10ep", {"weight_decay": -0.01}, "recipe.weight_decay: "),
    ("downstream-10ep", {"weight_decay": float("nan")}, "recipe.weight_decay: "),
    ("downstream-10ep", {"weight_decay": float("inf")}, "recipe.weight_decay: "),
    ("downstream-10ep", {"weight_decay": 10 ** 400}, "recipe.weight_decay: "),
    ("downstream-10ep", {"seeds": 1}, "recipe.seeds: "),
    ("downstream-10ep", {"seeds": []}, "recipe.seeds: "),
    ("downstream-10ep", {"seeds": [1, True]}, "recipe.seeds"),
    ("downstream-10ep", {"seeds": [1, 1]}, "recipe.seeds: "),
    ("downstream-10ep", {"mask_source": ""}, "recipe.mask_source: "),
    ("downstream-10ep", {"mask_source": "upstream-3ep"}, "recipe.mask_source: "),
    ("downstream-10ep", {"lr": 1}, "recipe.lr: "),
    ("downstream-10ep", {"lr.kind": DELETE}, "recipe.lr"),
    ("downstream-10ep", {"lr.kind": "step"}, "recipe.lr.kind: "),
    ("downstream-10ep", {"lr.warmup": 1}, "recipe.lr: "),
    ("downstream-10ep", {"lr.final": DELETE}, "recipe.lr: "),
    ("downstream-10ep", {"lr.cycle_length_epochs": DELETE}, "recipe.lr: "),
    ("downstream-10ep", {"lr.initial": True}, "recipe.lr.initial: "),
    ("downstream-10ep", {"lr.final": None}, "recipe.lr.final: "),
    ("downstream-10ep", {"lr.initial": 1e-7}, "recipe.lr: "),
    ("downstream-10ep", {"lr.final": 0}, "recipe.lr: "),
    ("downstream-10ep", {"lr.cycle_length_epochs": 0}, "recipe.lr.cycle_length_epochs: "),
    ("downstream-10ep", {"lr.cycle_length_epochs": 3}, "recipe.lr.cycle_length_epochs: "),
    ("upstream-finetune-8ep", {"lr.final": 1e-6}, "recipe.lr: "),
    ("upstream-finetune-8ep", {"lr.initial": 0}, "recipe.lr.initial: "),
    ("upstream-finetune-8ep", {"lr.initial": float("inf")}, "recipe.lr.initial: "),
    ("upstream-finetune-8ep", {"lr": CYCLIC_LR}, "recipe.lr.kind: "),
    ("downstream-10ep", {"sparsity": 1}, "recipe.sparsity: "),
    ("downstream-10ep", {"sparsity.policy": DELETE}, "recipe.sparsity: "),
    ("downstream-10ep", {"sparsity.frequency": 10}, "recipe.sparsity: "),
    ("downstream-10ep", {"sparsity.policy": "magnitude"}, "recipe.sparsity.policy: "),
    ("downstream-10ep", {"sparsity.policy": 7}, "recipe.sparsity.policy: "),
    ("downstream-10ep", {"sparsity.head_freeze_epochs": -1},
     "recipe.sparsity.head_freeze_epochs: "),
    ("downstream-10ep", {"sparsity.tail_freeze_epochs": 1.5},
     "recipe.sparsity.tail_freeze_epochs: "),
    ("downstream-10ep", {"sparsity.prune_frequency_per_epoch": 0},
     "recipe.sparsity.prune_frequency_per_epoch: "),
    ("downstream-10ep", {"sparsity.initial_step": -0.1}, "recipe.sparsity.initial_step: "),
    ("downstream-10ep", {"sparsity.initial_step": 1.0}, "recipe.sparsity.initial_step: "),
    ("downstream-10ep", {"sparsity.final": 0}, "recipe.sparsity.final: "),
    ("downstream-10ep", {"sparsity.final": 1.5}, "recipe.sparsity.final: "),
    ("downstream-10ep", {"sparsity.initial_step": 0.95}, "recipe.sparsity: "),
    ("downstream-10ep", {"sparsity.head_freeze_epochs": 8}, "recipe.sparsity: "),
    ("downstream-10ep", {"sparsity.head_freeze_epochs": 4, "sparsity.tail_freeze_epochs": 5,
                         "sparsity.prune_frequency_per_epoch": 1}, "recipe.sparsity: "),
    ("downstream-10ep", {"kd": 1}, "recipe.kd: "),
    ("downstream-10ep", {"kd.hardness": DELETE}, "recipe.kd: "),
    ("downstream-10ep", {"kd.alpha": 0.5}, "recipe.kd: "),
    ("downstream-10ep", {"kd.temperature": "5.5"}, "recipe.kd.temperature: "),
    ("downstream-10ep", {"kd.scale_kl_by_t_squared": 1}, "recipe.kd.scale_kl_by_t_squared: "),
    ("downstream-10ep", {"kd.hardness": 1.5}, "recipe.kd: "),
    ("downstream-10ep", {"kd.temperature": 0}, "recipe.kd: "),
    ("upstream-finetune-8ep", {"mask_source": None}, "recipe.mask_source: "),
    ("upstream-finetune-8ep", {"sparsity": load_bundled("downstream-10ep").to_dict()["sparsity"]},
     "recipe.sparsity: "),
]


@pytest.mark.parametrize("name,edits,prefix", REJECTIONS,
                         ids=[f"{n}:" + ",".join(f"{k}={'<del>' if v is DELETE else v!r}"
                                                  for k, v in e.items())
                              for n, e, _ in REJECTIONS])
def test_rejection_names_the_json_path(name, edits, prefix):
    doc = json.loads(serialize_recipe(load_bundled(name)))
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = doc
        for part in parents:
            node = node[part]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    with pytest.raises(RecipeError) as info:
        parse_recipe(json.dumps(doc))
    assert str(info.value).startswith(prefix)


@pytest.mark.parametrize("text", ["[1, 2]", "{", '"downstream-10ep"'])
def test_non_object_documents_are_rejected_at_the_root(text):
    with pytest.raises(RecipeError, match="^recipe: "):
        parse_recipe(text)


def test_override_field_validates():
    r = load_bundled("downstream-10ep")
    changed = override_field(r, "sparsity.final", 0.97)
    assert changed.sparsity.final == 0.97
    assert r.sparsity.final == 0.9  # original untouched
    with pytest.raises(RecipeError):
        override_field(r, "sparsity.missing", 1)
    with pytest.raises(RecipeError):
        override_field(r, "kd.hardness", 2.0)  # revalidated after the edit


# ---------------------------------------------------------------------------
# timeline compilation


def test_downstream_10ep_timeline():
    t = compile_timeline(load_bundled("downstream-10ep"), steps_per_epoch=16)
    assert t.num_lr_cycles == 5
    assert len(t.prune_events) == 60
    assert t.total_steps == 160
    assert len(t.lr) == 160
    assert t.lr[0] == 1e-4
    steps = [s for s, _ in t.prune_events]
    assert steps == sorted(set(steps))
    assert min(steps) == 2 * 16 and max(steps) < 8 * 16
    assert t.prune_events[0][1] == 0.70
    assert t.prune_events[-1][1] == 0.9


def test_downstream_30ep_timeline():
    t = compile_timeline(load_bundled("downstream-30ep"), steps_per_epoch=16)
    assert t.num_lr_cycles == 15
    assert len(t.prune_events) == 260


def test_upstream_timeline():
    t = compile_timeline(load_bundled("upstream-3ep"), steps_per_epoch=200)
    assert len(t.prune_events) == 200
    assert max(s for s, _ in t.prune_events) < 2 * 200
    assert t.num_lr_cycles == 6


def test_finetune_timeline_has_no_events():
    t = compile_timeline(load_bundled("upstream-finetune-8ep"), steps_per_epoch=16)
    assert t.prune_events == ()
    assert t.num_lr_cycles == 0
    assert t.lr[0] == 1.5e-5
    assert t.lr[-1] > 0


def test_timeline_lr_matches_cycle_structure():
    t = compile_timeline(load_bundled("downstream-10ep"), steps_per_epoch=16)
    cycle = 32
    for start in range(0, 160, cycle):
        assert t.lr[start] == 1e-4
        assert t.lr[start + cycle - 1] == 1e-6
        assert np.all(np.diff(t.lr[start:start + cycle]) < 0)


def test_timeline_rejects_incompatible_steps_per_epoch():
    with pytest.raises((RecipeError, ValueError)):
        compile_timeline(load_bundled("downstream-10ep"), steps_per_epoch=5)


def test_timeline_rejects_regressing_prune_targets():
    # parse_recipe keeps initial_step below final, so only a Recipe built
    # around it ramps down; run() relies on targets that never decrease
    recipe = load_bundled("downstream-10ep")
    ramp_down = replace(recipe, sparsity=replace(recipe.sparsity, initial_step=0.9,
                                                 final=0.5))
    with pytest.raises(AssertionError, match="prune targets must never decrease"):
        compile_timeline(ramp_down, steps_per_epoch=16)


def test_eval_steps_cover_epoch_ends_and_events():
    t = compile_timeline(load_bundled("downstream-10ep"), steps_per_epoch=16)
    evals = set(t.eval_steps)
    for epoch_end in range(15, 160, 16):
        assert epoch_end in evals
    for step, _ in t.prune_events:
        assert step in evals
    assert list(t.eval_steps) == sorted(evals)


def closed_form_timeline(recipe, spe):
    """(lr list, event list) from scalar formulas, or None where the recipe
    does not fit ``spe`` steps per epoch."""
    total = recipe.total_epochs * spe
    sp = recipe.sparsity
    if sp is not None and spe < sp.prune_frequency_per_epoch:
        return None
    if recipe.lr.kind == "cyclic":
        cycle = recipe.lr.cycle_length_epochs * spe
        if cycle != int(cycle) or cycle < 2:
            return None
        cycle, first, last = int(cycle), recipe.lr.initial, recipe.lr.final
        lr = []
        for s in range(total):
            pos = s % cycle
            if pos == 0:
                lr.append(first)
            elif pos == cycle - 1:
                lr.append(last)
            else:
                lr.append(first + (last - first) * (pos / (cycle - 1)))
    else:
        lr = [recipe.lr.initial * (1.0 - s / total) for s in range(total)]
    events = []
    if sp is not None:
        epochs = recipe.total_epochs - sp.head_freeze_epochs - sp.tail_freeze_epochs
        num = sp.prune_frequency_per_epoch * epochs
        for k in range(num):
            step = sp.head_freeze_epochs * spe + (k * epochs * spe) // num
            if k == 0:
                target = sp.initial_step
            elif k == num - 1:
                target = sp.final
            else:
                frac = 1.0 - k / (num - 1)
                target = sp.final + (sp.initial_step - sp.final) * frac * frac * frac
            events.append((step, target))
    return lr, events


@pytest.mark.parametrize("name", BUNDLED)
def test_timeline_is_bitwise_the_scalar_closed_form(name):
    recipe = load_bundled(name)
    compiled = 0
    for spe in (2, 4, 8, 16, 17, 200):
        expected = closed_form_timeline(recipe, spe)
        if expected is None:
            with pytest.raises(ValueError):
                compile_timeline(recipe, spe)
            continue
        lr, events = expected
        t = compile_timeline(recipe, spe)
        assert t.lr.tobytes() == np.array(lr).tobytes()
        assert list(t.prune_events) == events
        compiled += 1
    assert compiled > 0

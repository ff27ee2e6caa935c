"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The eight criteria cover, in order: schedule correctness against closed
forms, compiled event counts, magnitude-pruning equivalence with a
brute-force sort oracle, distillation-loss correctness, temperature
softening, desk-scale trend reproduction, bit-level determinism, and the
bundled-recipe constants audit. Tolerances are pinned next to each check.
"""

import bisect
import json
import math
import os
import time

import numpy as np
import pytest

from gradprune.distillation import (
    KDConfig,
    cross_entropy,
    distribution_entropy,
    kd_loss_terms,
    soften,
)
from gradprune.harness import run, train_teacher
from gradprune.models import TinyEncoderConfig
from gradprune.pruning import fresh_masks, magnitude_prune
from gradprune.recipes import (
    audit_recipe,
    bundled_recipe_names,
    compile_timeline,
    load_bundled,
    override_field,
    parse_recipe,
    serialize_recipe,
)
from gradprune.tasks import SyntheticTask, generate_task
from gradprune.tensor import Tape, Tensor

# steps-per-epoch used to lay each bundled recipe on the step axis; chosen so
# every schedule constraint (events per epoch, whole-step cycles) is satisfied
SPE = {
    "downstream-10ep": 16,
    "downstream-30ep": 16,
    "upstream-3ep": 200,
    "upstream-finetune-8ep": 16,
}


# ---------------------------------------------------------------------------
# criterion 1 — schedule oracle


def closed_form_events(sp, total_epochs, spe):
    """Event (step, target) pairs computed directly from the formulas."""
    epochs = total_epochs - sp.head_freeze_epochs - sp.tail_freeze_epochs
    num = sp.prune_frequency_per_epoch * epochs
    start = sp.head_freeze_epochs * spe
    window = epochs * spe
    steps = [start + (k * window) // num for k in range(num)]
    targets = []
    for k in range(num):
        frac = 1.0 - k / (num - 1)
        targets.append(sp.final + (sp.initial_step - sp.final) * frac**3)
    return steps, targets


def test_criterion_1_schedule_oracle(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    boundaries_ok = True
    for name in bundled_recipe_names():
        recipe = load_bundled(name)
        spe = SPE[name]
        total_steps = recipe.total_epochs * spe
        samples = rng.integers(0, total_steps, size=10_000)
        timeline = compile_timeline(recipe, spe)

        if recipe.lr.kind == "cyclic":
            cycle = int(recipe.lr.cycle_length_epochs * spe)

            def lr_oracle(s):
                pos = s % cycle
                if pos == 0:
                    return recipe.lr.initial
                if pos == cycle - 1:
                    return recipe.lr.final
                return recipe.lr.initial + (
                    recipe.lr.final - recipe.lr.initial) * (pos / (cycle - 1))

            # boundary fact: every cycle ends exactly at the final lr
            for c in range(total_steps // cycle):
                end = c * cycle + cycle - 1
                boundaries_ok &= timeline.lr[end] == recipe.lr.final
        else:
            def lr_oracle(s):
                return recipe.lr.initial * (1.0 - s / total_steps)

        sp_fn = None
        if recipe.sparsity is not None:
            sp = recipe.sparsity
            ev_steps, ev_targets = closed_form_events(
                sp, recipe.total_epochs, spe)

            def sp_oracle(s):
                i = bisect.bisect_right(ev_steps, s) - 1
                return 0.0 if i < 0 else ev_targets[i]

            # the target in effect at a step is the latest event's at or
            # before it, 0.0 before the first
            t_steps = [step for step, _ in timeline.prune_events]
            t_targets = [target for _, target in timeline.prune_events]

            def sp_fn(s):
                i = bisect.bisect_right(t_steps, s) - 1
                return 0.0 if i < 0 else t_targets[i]

            # boundary facts: first event exactly the initial step, last
            # exactly the final target
            boundaries_ok &= sp_fn(ev_steps[0]) == sp.initial_step == 0.70
            boundaries_ok &= sp_fn(ev_steps[-1]) == sp.final

        for s in samples:
            s = int(s)
            worst = max(worst, abs(timeline.lr[s] - lr_oracle(s)))
            if sp_fn is not None:
                worst = max(worst, abs(sp_fn(s) - sp_oracle(s)))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and boundaries_ok and elapsed < 1.0
    acceptance.check(
        1, "schedule oracle", ok,
        f"max |err| {worst:.2e} over 10k steps/recipe (tol 1e-12), "
        f"boundaries {'exact' if boundaries_ok else 'WRONG'}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2 — compiled event counts


def test_criterion_2_event_counts(acceptance):
    t10 = compile_timeline(load_bundled("downstream-10ep"), SPE["downstream-10ep"])
    t30 = compile_timeline(load_bundled("downstream-30ep"), SPE["downstream-30ep"])
    up = compile_timeline(load_bundled("upstream-3ep"), SPE["upstream-3ep"])
    final_epoch_start = 2 * SPE["upstream-3ep"]
    up_outside_final = all(s < final_epoch_start for s, _ in up.prune_events)
    ok = (
        len(t10.prune_events) == 60
        and t10.num_lr_cycles == 5
        and t30.num_lr_cycles == 15
        and len(up.prune_events) == 200
        and up_outside_final
    )
    acceptance.check(
        2, "event counts", ok,
        f"downstream-10ep: {len(t10.prune_events)} events / {t10.num_lr_cycles} "
        f"cycles (want 60/5); downstream-30ep: {t30.num_lr_cycles} cycles "
        f"(want 15); upstream-3ep: {len(up.prune_events)} events (want 200), "
        f"none in final epoch: {up_outside_final}",
    )


# ---------------------------------------------------------------------------
# criterion 3 — pruning vs brute-force oracle


def oracle_prune(weights, masks, target, policy):
    """Brute-force reference: full sort of (|w|, tensor order, flat index)."""
    names = list(weights)
    new = {n: masks[n].ravel().copy() for n in names}
    if policy == "uniform":
        for n in names:
            mags = np.abs(weights[n].ravel())
            alive_idx = np.flatnonzero(new[n])
            quota = int(math.floor(target * mags.size + 0.5))
            need = max(quota - (mags.size - alive_idx.size), 0)
            order = np.lexsort((alive_idx, mags[alive_idx]))
            new[n][alive_idx[order[:need]]] = False
    else:
        mags, tensor_ids, flat_ids = [], [], []
        for t, n in enumerate(names):
            idx = np.flatnonzero(new[n])
            mags.append(np.abs(weights[n].ravel())[idx])
            tensor_ids.append(np.full(idx.size, t))
            flat_ids.append(idx)
        mags = np.concatenate(mags)
        tensor_ids = np.concatenate(tensor_ids)
        flat_ids = np.concatenate(flat_ids)
        total = sum(weights[n].size for n in names)
        already = total - mags.size
        need = max(int(math.floor(target * total)) - already, 0)
        pick = np.lexsort((flat_ids, tensor_ids, mags))[:need]
        for t, n in enumerate(names):
            new[n][flat_ids[pick[tensor_ids[pick] == t]]] = False
    return {n: new[n].reshape(weights[n].shape) for n in names}


def masks_equal(a, b):
    return all(np.array_equal(a[n], b[n]) for n in a)


def random_prunable_set(rng, case_index):
    num_tensors = int(rng.integers(1, 5))
    weights = {}
    for t in range(num_tensors):
        size = int(rng.integers(16, 2001))
        if case_index % 25 == 0 and t == 0:
            size = int(rng.integers(5000, 10_001))  # up to the 1e4 cap
        # coarse quantization forces plenty of magnitude ties
        vals = rng.integers(0, 41, size=size) / 8.0
        vals *= rng.choice([-1.0, 1.0], size=size)
        vals[rng.random(size) < 0.08] = 0.0
        weights[f"t{t}"] = vals
    return weights


def test_criterion_3_pruning_oracle(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    cases = 1000
    monotone_ok = True
    oracle_ok = True
    for i in range(cases):
        weights = random_prunable_set(rng, i)
        target_a = float(rng.uniform(0.05, 0.45))
        target_b = float(rng.uniform(target_a + 0.05, 0.9))

        for policy in ("uniform", "global"):
            masks = fresh_masks(weights)
            got_a = magnitude_prune(weights, masks, target_a, policy)
            oracle_ok &= masks_equal(got_a, oracle_prune(weights, masks,
                                                         target_a, policy))
            got_b = magnitude_prune(weights, got_a, target_b, policy)
            oracle_ok &= masks_equal(got_b, oracle_prune(weights, got_a,
                                                         target_b, policy))

            # 100 sequential prune events: alive sets may only shrink
            masks = got_b
            for target in np.linspace(target_b, 1.0, 100):
                new = magnitude_prune(weights, masks, float(target), policy)
                monotone_ok &= all(np.all(new[n] <= masks[n]) for n in new)
                masks = new
            monotone_ok &= all(not m.any() for m in masks.values())  # 1.0 = all gone
        if not (oracle_ok and monotone_ok):
            break

    elapsed = time.perf_counter() - t0
    ok = oracle_ok and monotone_ok and elapsed < 30.0
    acceptance.check(
        3, "pruning oracle", ok,
        f"{cases} randomized sets x 2 policies x 2 stages match brute force: "
        f"{oracle_ok}; monotone over 100-event ramps: {monotone_ok}; "
        f"{elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# criterion 4 — distillation loss correctness


def test_criterion_4_kd_loss(acceptance):
    rng = np.random.default_rng(4)

    # h = 0 must be the cross-entropy path, bit for bit, values and grads
    logits = rng.normal(scale=2.0, size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    with Tape() as tape:
        a = Tensor(logits.copy(), requires_grad=True)
        kd = kd_loss_terms(a, rng.normal(size=(8, 4)), labels,
                           KDConfig(hardness=0.0, temperature=5.5))[0]
        tape.backward(kd)
    with Tape() as tape:
        b = Tensor(logits.copy(), requires_grad=True)
        ce = cross_entropy(b, labels)
        tape.backward(ce)
    bit_identical = (float(kd.data) == float(ce.data)
                     and np.array_equal(a.grad, b.grad))

    # equal logits leave nothing to distill
    equal_kl = 0.0
    for t in (0.5, 1.0, 5.5, 10.0):
        same = rng.normal(size=(6, 5))
        loss = kd_loss_terms(Tensor(same.copy()), same.copy(),
                             rng.integers(0, 5, size=6),
                             KDConfig(hardness=1.0, temperature=t))[0]
        equal_kl = max(equal_kl, abs(float(loss.data)))

    # worked two-class example
    worked = float(kd_loss_terms(
        Tensor(np.array([[0.0, 2.0]])), np.array([[2.0, 0.0]]), np.array([0]),
        KDConfig(hardness=1.0, temperature=1.0, scale_kl_by_t_squared=True),
    )[0].data)
    worked_err = abs(worked - 1.5232)

    # gradient vs central finite differences over 200 random (h, T)
    eps = 1e-6
    worst_rel = 0.0
    for _ in range(200):
        cfg = KDConfig(hardness=float(rng.uniform(0.0, 1.0)),
                       temperature=float(rng.uniform(0.5, 10.0)))
        x0 = rng.normal(scale=2.0, size=(3, 4))
        teacher = rng.normal(scale=2.0, size=(3, 4))
        lbl = rng.integers(0, 4, size=3)
        with Tape() as tape:
            x = Tensor(x0.copy(), requires_grad=True)
            tape.backward(kd_loss_terms(x, teacher, lbl, cfg)[0])
        fd = np.zeros_like(x0)
        for idx in np.ndindex(x0.shape):
            up, down = x0.copy(), x0.copy()
            up[idx] += eps
            down[idx] -= eps
            f_up = float(kd_loss_terms(Tensor(up), teacher, lbl, cfg)[0].data)
            f_down = float(kd_loss_terms(Tensor(down), teacher, lbl, cfg)[0].data)
            fd[idx] = (f_up - f_down) / (2 * eps)
        rel = np.max(np.abs(x.grad - fd)) / max(1.0, np.max(np.abs(fd)))
        worst_rel = max(worst_rel, rel)

    ok = (bit_identical and equal_kl <= 1e-12 and worked_err <= 1e-3
          and worst_rel <= 1e-4)
    acceptance.check(
        4, "kd loss", ok,
        f"h=0 bit-identical to CE: {bit_identical}; equal-logits KL "
        f"{equal_kl:.2e} (tol 1e-12); worked example err {worked_err:.2e} "
        f"(tol 1e-3); worst FD rel err {worst_rel:.2e} over 200 (h,T) "
        f"(tol 1e-4)",
    )


# ---------------------------------------------------------------------------
# criterion 5 — softening raises entropy


def test_criterion_5_entropy_monotone(acceptance):
    rng = np.random.default_rng(5)
    grid = (0.5, 1.0, 2.0, 5.5, 8.5, 10.0)
    violations = 0
    for _ in range(100):
        logits = rng.normal(scale=3.0, size=6)
        entropies = [float(distribution_entropy(soften(logits, t)))
                     for t in grid]
        if any(b < a - 1e-15 for a, b in zip(entropies, entropies[1:])):
            violations += 1
    acceptance.check(
        5, "entropy monotone in T", violations == 0,
        f"{violations}/100 logit vectors violated non-decreasing entropy "
        f"across T grid {grid}",
    )


# ---------------------------------------------------------------------------
# criterion 6 — desk-scale trend reproduction


@pytest.fixture(scope="module")
def desk():
    """Shared desk-scale setup; records its own start time so criterion 6
    can account for teacher training in its budget."""
    t0 = time.perf_counter()
    clean = generate_task(SyntheticTask(train_size=512, val_size=1024))
    noisy = generate_task(SyntheticTask(train_size=512, val_size=1024,
                                        label_noise=0.6))
    teacher = train_teacher(clean, TinyEncoderConfig(), epochs=40, lr=1e-3,
                            batch_size=32, seed=100)
    return {"clean": clean, "noisy": noisy, "teacher": teacher, "t0": t0}


def seed_stats(recipe, data, teacher, seeds=(0, 1, 2, 3, 4)):
    accs = np.array([
        run(recipe, data, seed=s, teacher=teacher).summary["final_val_accuracy"]
        for s in seeds
    ])
    return float(accs.mean()), float(accs.std())


def trend(label, a, b):
    """a must beat b by more than one std (ties within 1 std fail)."""
    margin = a[0] - b[0]
    bar = max(a[1], b[1])
    ok = margin > bar
    detail = (f"{label}: {a[0]:.4f}±{a[1]:.4f} vs {b[0]:.4f}±{b[1]:.4f}, "
              f"margin {margin:+.4f} vs 1-std bar {bar:.4f}")
    return ok, detail


def test_criterion_6_desk_trends(acceptance, desk):
    teacher = desk["teacher"]

    star97 = override_field(load_bundled("downstream-10ep"),
                            "sparsity.final", 0.97)
    step0_97 = override_field(star97, "sparsity.initial_step", 0.0)
    naive_doc = json.loads(serialize_recipe(star97))
    naive_doc["name"] = "naive-10ep"
    naive_doc["lr"] = {"kind": "linear", "initial": 1e-4}
    naive_doc["sparsity"]["initial_step"] = 0.0
    naive_doc["kd"]["hardness"] = 0.0
    naive97 = parse_recipe(json.dumps(naive_doc))

    h10_90 = load_bundled("downstream-10ep")          # hardness 1.0, s_f 0.90
    h06_90 = override_field(h10_90, "kd.hardness", 0.6)

    star = seed_stats(star97, desk["clean"], teacher)
    naive = seed_stats(naive97, desk["clean"], teacher)
    step0 = seed_stats(step0_97, desk["clean"], teacher)
    # the kd comparison runs on the label-noise twin of the same task; the
    # teacher saw clean labels, so pure distillation ignores the corruption
    # while the mixed loss trains partly on wrong labels
    h10 = seed_stats(h10_90, desk["noisy"], teacher)
    h06 = seed_stats(h06_90, desk["noisy"], teacher)

    ok_a, detail_a = trend("(a) tuned vs naive @0.97", star, naive)
    ok_b, detail_b = trend("(b) first step 0.70 vs 0.00 @0.97", star, step0)
    ok_c, detail_c = trend("(c) hardness 1.0 vs 0.6 @0.90", h10, h06)

    elapsed = time.perf_counter() - desk["t0"]
    in_budget = elapsed < 900.0
    ok = ok_a and ok_b and ok_c and in_budget
    acceptance.check(
        6, "desk-scale trends", ok,
        f"{detail_a}; {detail_b}; {detail_c}; 5 seeds each, "
        f"{elapsed:.0f}s (budget 900s)",
    )


# ---------------------------------------------------------------------------
# criterion 7 — bit-level determinism


def test_criterion_7_determinism(acceptance, desk, tmp_path):
    recipe = load_bundled("downstream-10ep")
    trees = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        run(recipe, desk["clean"], seed=1, teacher=desk["teacher"], out_dir=out)
        tree = {}
        for dirpath, _, filenames in os.walk(out):
            for fname in filenames:
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    tree[os.path.relpath(path, out)] = fh.read()
        trees.append(tree)
    same_names = set(trees[0]) == set(trees[1])
    same_bytes = same_names and all(
        trees[0][k] == trees[1][k] for k in trees[0])
    acceptance.check(
        7, "determinism", same_bytes,
        f"repeat run of downstream-10ep seed 1: {len(trees[0])} files "
        f"({'byte-identical' if same_bytes else 'DIFFER'}), including "
        f"metrics.csv and checkpoint payloads",
    )


# ---------------------------------------------------------------------------
# criterion 8 — bundled recipes match the embedded constants table


def test_criterion_8_recipe_audit(acceptance):
    diffs = {name: audit_recipe(load_bundled(name))
             for name in bundled_recipe_names()}
    clean = [name for name, d in diffs.items() if not d]
    ok = len(clean) == len(diffs) == 4
    acceptance.check(
        8, "recipe audit", ok,
        f"empty diffs for {len(clean)}/{len(diffs)} bundled recipes "
        f"({', '.join(sorted(diffs))})",
    )

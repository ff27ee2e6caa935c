"""Autodiff and optimizer checks against independent oracles.

Every primitive's gradient is compared with central finite differences on
small float64 tensors.
"""

import math
import weakref

import numpy as np
import pytest

from gradprune import optim
from gradprune.optim import Adam
from gradprune.tensor import (
    Tape,
    Tensor,
    add,
    embedding,
    gelu,
    layer_norm,
    log_softmax,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    reshape,
    softmax,
    transpose,
)


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued f() w.r.t. array x,
    which f reads in place."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def check_op_gradient(build, arrays, seed, rtol=1e-5, atol=1e-9):
    """build(tensors) -> output Tensor. Compares tape gradients against FD
    for every input array. The loss is a fixed random projection of the
    output so all output entries matter."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = build(*tensors)
        weights = rng.normal(size=out.shape)
        loss = mul(out, weights).sum()
    tape.backward(loss)

    def f():
        rebuilt = [Tensor(arr) for arr in arrays]
        return float(mul(build(*rebuilt), weights).sum().data)

    for t, a in zip(tensors, arrays):
        num = numeric_grad(f, a)
        np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=atol)


def test_matmul_gradient():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_op_gradient(matmul, [a, b], seed=0)


def test_matmul_batched_broadcast_gradient():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3, 3, 4))
    b = rng.normal(size=(3, 4, 2))  # broadcast over the leading axis
    check_op_gradient(matmul, [a, b], seed=1)


def test_add_mul_broadcast_gradient():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5))
    bias = rng.normal(size=(5,))
    check_op_gradient(add, [x, bias], seed=2)
    check_op_gradient(mul, [x, bias], seed=3)
    # size-1 axes sum back down too
    check_op_gradient(add, [rng.normal(size=(4, 1)), x], seed=20)
    check_op_gradient(mul, [rng.normal(size=(1, 5)), x], seed=21)


def test_gelu_gradient():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 5))
    check_op_gradient(gelu, [x], seed=5)


def test_gelu_matches_the_tanh_formula():
    # BERT's tanh form, in the op order the package computes it
    x = np.linspace(-8, 8, 65)
    t = np.tanh((x * x * x * 0.044715 + x) * np.sqrt(2.0 / np.pi))
    expected = x * ((t + 1.0) * 0.5)
    np.testing.assert_allclose(gelu(Tensor(x)).data, expected, rtol=0, atol=0)


def test_gelu_is_within_5e_4_of_exact_gelu():
    # the tanh form's largest gap to u * Phi(u) is 4.73e-4, near u = -2.70
    x = np.linspace(-8, 8, 16001)
    exact = np.array([u * 0.5 * (1.0 + math.erf(u / math.sqrt(2.0))) for u in x])
    gap = np.abs(gelu(Tensor(x)).data - exact)
    assert gap.max() <= 5e-4, (gap.max(), x[gap.argmax()])


def test_layer_norm_gradient():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 8))
    check_op_gradient(lambda t: layer_norm(t), [x], seed=6)


def test_layer_norm_values():
    x = np.array([[1.0, 2.0, 3.0]])
    out = layer_norm(Tensor(x))
    mu, sigma = 2.0, np.sqrt(2.0 / 3.0 + 1e-5)
    np.testing.assert_allclose(out.data, (x - mu) / sigma, rtol=1e-15)


def test_softmax_gradient():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 5)) * 3.0
    check_op_gradient(softmax, [x], seed=7)


def test_log_softmax_gradient():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 5)) * 3.0
    check_op_gradient(log_softmax, [x], seed=8)


def test_softmax_is_stable_for_large_logits():
    x = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
    y = softmax(x)
    assert np.all(np.isfinite(y.data))
    np.testing.assert_allclose(y.data.sum(), 1.0, rtol=1e-12)
    z = log_softmax(x)
    assert np.all(np.isfinite(z.data))


def test_reshape_transpose_gradient():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 4))

    def build(t):
        return transpose(reshape(t, (2, 12)), (1, 0))

    check_op_gradient(build, [x], seed=9)


def test_embedding_gradient():
    rng = np.random.default_rng(9)
    table = rng.normal(size=(7, 4))
    ids = np.array([[0, 3, 3], [6, 1, 0]])
    check_op_gradient(lambda t: embedding(t, ids), [table], seed=10)


def test_embedding_repeated_ids_accumulate():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    ids = np.array([1, 1, 1])
    with Tape() as tape:
        out = embedding(table, ids)
        loss = out.sum()
    tape.backward(loss)
    np.testing.assert_array_equal(table.grad[1], [3.0, 3.0])
    np.testing.assert_array_equal(table.grad[0], [0.0, 0.0])


def test_reduce_ops_gradient():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4))
    check_op_gradient(reduce_sum, [x], seed=11)
    check_op_gradient(lambda t: reduce_mean(t, axis=0), [x], seed=12)
    check_op_gradient(lambda t: reduce_mean(t, axis=1), [x], seed=13)


def test_reuse_of_tensor_accumulates_gradient():
    x = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    with Tape() as tape:
        loss = (mul(x, x) + x).sum()  # d/dx = 2x + 1
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.data + 1.0, rtol=1e-15)


def test_backward_twice_is_bitwise_identical():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    with Tape() as tape:
        loss = gelu(matmul(a, b)).sum()
    tape.backward(loss)
    ga, gb = a.grad.copy(), b.grad.copy()
    tape.backward(loss)
    assert ga.tobytes() == a.grad.tobytes()
    assert gb.tobytes() == b.grad.tobytes()


def test_a_node_the_loss_does_not_reach_gives_no_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        mul(unused, 2.0)  # recorded, but the loss never reads it
        loss = mul(x, 3.0).sum()
    tape.backward(loss)
    assert len(tape) == 3
    assert unused.grad is None
    np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])


def test_constant_inputs_get_no_gradient():
    const = Tensor(np.ones((2, 2)))
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = mul(x, const).sum()
    tape.backward(loss)
    assert const.grad is None
    assert x.grad is not None


def test_intermediates_get_no_gradient():
    x = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
    with Tape() as tape:
        h = gelu(x)
        loss = h.sum()
    tape.backward(loss)
    assert h.grad is None
    assert loss.grad is None
    assert x.grad is not None


def test_recorded_op_keeps_no_operand_its_backward_does_not_read():
    x = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
    with Tape() as tape:
        h = gelu(x)
        y = mul(h, 2.0)  # h's gradient reads only the constant 2.0
        alive = weakref.ref(h.data)
        del h
        assert alive() is None
        mul(gelu(Tensor(np.ones(3))), 2.0)  # no input needs a gradient
    assert len(tape) == 2
    assert y.requires_grad


def test_output_of_another_tape_is_a_leaf_there():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape():
        h = mul(x, 3.0)
    with Tape() as second:
        loss = mul(h, h).sum()
    second.backward(loss)
    np.testing.assert_array_equal(h.grad, 2.0 * h.data)
    assert x.grad is None  # the second tape does not see through h


def test_shape_mismatch_errors_name_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
        matmul(a, b)
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
        add(a, b)


def test_backward_requires_scalar_on_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = mul(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)
    with Tape() as other:
        z = mul(x, 2.0).sum()
    with pytest.raises(ValueError, match="not produced"):
        tape.backward(z)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError, match="already active"):
            with Tape():
                pass


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="finite"):
        Tensor(np.array([np.nan]))


def reference_adam(params, grads_per_step, lr_per_step, weight_decay):
    """Straight-line reimplementation of the update rule for the oracle."""
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    out = {n: p.copy() for n, p in params.items()}
    for t, (grads, lr) in enumerate(zip(grads_per_step, lr_per_step), start=1):
        for n in out:
            g = grads[n]
            m[n] = optim.BETA1 * m[n] + (1 - optim.BETA1) * g
            v[n] = optim.BETA2 * v[n] + (1 - optim.BETA2) * g * g
            mhat = m[n] / (1 - optim.BETA1**t)
            vhat = v[n] / (1 - optim.BETA2**t)
            update = mhat / (np.sqrt(vhat) + optim.EPS)
            if weight_decay:
                update = update + weight_decay * out[n]
            out[n] = out[n] - lr * update
    return out


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_matches_reference(weight_decay):
    rng = np.random.default_rng(12)
    init = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}
    params = {n: p.copy() for n, p in init.items()}
    opt = Adam(params, weight_decay=weight_decay)
    grads_per_step = [
        {n: rng.normal(size=p.shape) for n, p in init.items()} for _ in range(5)
    ]
    lrs = [1e-3, 5e-4, 1e-3, 2e-4, 1e-4]
    for grads, lr in zip(grads_per_step, lrs):
        opt.step(lr, {n: g.copy() for n, g in grads.items()})
    expected = reference_adam(init, grads_per_step, lrs, weight_decay)
    for n in params:
        np.testing.assert_allclose(params[n], expected[n], rtol=1e-12)


def test_adam_updates_the_arrays_it_was_given_in_place():
    w = np.array([1.0, -2.0, 0.5])
    opt = Adam({"w": w})
    opt.step(1e-3, {"w": np.array([0.3, -0.1, 2.0])})
    assert not np.array_equal(w, [1.0, -2.0, 0.5])


def test_adam_zero_lr_leaves_params_bitwise_unchanged():
    params = {"w": np.array([1.0, -2.0, 0.5])}
    before = params["w"].tobytes()
    opt = Adam(params)
    opt.step(0.0, {"w": np.array([0.3, -0.1, 2.0])})
    assert params["w"].tobytes() == before


def test_adam_missing_grad_names_parameter():
    opt = Adam({"w": np.ones(2), "stray": np.ones(2)})
    with pytest.raises(ValueError, match="stray"):
        opt.step(1e-3, {"w": np.zeros(2)})


def test_adam_missing_grad_changes_no_state():
    params = {"a": np.ones(2), "b": np.ones(2)}
    opt = Adam(params)
    grad = np.ones(2)
    with pytest.raises(ValueError, match="parameter b has no gradient"):
        opt.step(0.1, {"a": grad})
    assert params["a"].tolist() == [1.0, 1.0]
    assert grad.tolist() == [1.0, 1.0]
    assert opt._step_count == 0
    for moments in (opt._m, opt._v):
        assert all(not m.any() for m in moments.values())

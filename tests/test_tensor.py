import importlib.machinery
import warnings

import numpy as np
import pytest
from scipy import special

from dglfrm import tensor as tc
from oracles import (
    BINARY_REGISTRY,
    UNARY_REGISTRY,
    gradient_check,
    sparse_identity,
    to_dense,
    weighted_bce_with_logits_sum,
)


def test_matmul_identity():
    out = tc.matmul(tc.Tensor([[1.0, 0.0], [0.0, 1.0]]), tc.Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [4.0]])


def test_matmul_zero():
    out = tc.matmul(tc.Tensor([[1.0, 2.0]]), tc.Tensor([[0.0], [0.0]]))
    np.testing.assert_array_equal(out.data, [[0.0]])


def test_matmul_hand_expanded():
    out = tc.matmul(tc.Tensor([[1.0, 2.0], [3.0, 4.0]]), tc.Tensor([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(tc.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        tc.matmul(tc.Tensor(np.zeros((2, 3))), tc.Tensor(np.zeros((2, 2))))


def test_spmm_identity():
    s = sparse_identity(3)
    b = tc.Tensor(np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(tc.spmm(s, b).data, b.data)


def test_spmm_zero():
    s = tc.SparseMatrix.from_coo([], [], [], (3, 3))
    b = tc.Tensor(np.ones((3, 2)))
    np.testing.assert_array_equal(tc.spmm(s, b).data, np.zeros((3, 2)))


@pytest.mark.parametrize("seed", range(100))
def test_spmm_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.3)
    s = tc.SparseMatrix(dense)
    b = tc.Tensor(rng.normal(size=(5, 4)))
    np.testing.assert_allclose(tc.spmm(s, b).data, dense @ b.data, atol=1e-12)


def test_sparsetools_not_found_is_a_named_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *args, **kwargs: None)
    with pytest.raises(ImportError, match="scipy.sparse._sparsetools") as raised:
        tc._load_sparsetools()
    assert raised.value.name == "scipy.sparse._sparsetools"


def test_spmm_gradient_reaches_dense_operand_only():
    rng = np.random.default_rng(0)
    s = tc.SparseMatrix(rng.normal(size=(4, 4)) * (rng.random((4, 4)) < 0.5))
    w = tc.Parameter(rng.normal(size=(4, 3)), "w")
    with tc.Tape():
        loss = tc.spmm(s, w).sum()
        tc.backward(loss)
    np.testing.assert_allclose(w.grad, to_dense(s).T @ np.ones((4, 3)), atol=1e-12)


def test_sparse_matrix_indices_sorted_and_unique():
    s = tc.SparseMatrix.from_coo([0, 0, 0], [2, 1, 2], [1.0, 1.0, 1.0], (2, 3))
    assert list(s.indices) == [1, 2]
    np.testing.assert_array_equal(s.values, [1.0, 2.0])
    for r in range(s.shape[0]):
        row = s.indices[s.indptr[r] : s.indptr[r + 1]]
        assert np.all(np.diff(row) > 0)


def test_sigmoid_at_zero():
    assert tc.sigmoid(tc.Tensor([0.0])).data[0] == 0.5


@pytest.mark.parametrize(
    "x",
    [np.linspace(-800.0, 800.0, 200_001), np.random.default_rng(0).normal(size=100_000)],
    ids=["range-800", "normals"],
)
def test_sigmoid_np_within_four_ulp_of_scipy(x):
    want = special.expit(x)
    assert (np.abs(tc.sigmoid_np(x) - want) / np.spacing(np.abs(want))).max() <= 4.0


def test_sigmoid_np_special_values():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -710.0, -800.0])
    got = tc.sigmoid_np(x)
    np.testing.assert_array_equal(got, [0.5, 0.5, 1.0, 0.0, np.nan, 0.0, 0.0])
    np.testing.assert_array_equal(got, special.expit(x))


@pytest.mark.parametrize("over", ["warn", "raise"])
def test_sigmoid_np_overflow_is_silent_under_any_errstate(over):
    """exp(-x) overflows for x < -709; the result 0 is exact, so no warning or error."""
    with warnings.catch_warnings(), np.errstate(all=over):
        warnings.simplefilter("error")
        np.testing.assert_array_equal(tc.sigmoid_np(np.array([-710.0, -1e308])), [0.0, 0.0])
        assert np.geterr()["over"] == over


def test_sigmoid_np_writes_into_out():
    x = np.linspace(-5.0, 5.0, 11)
    out = np.empty_like(x)
    assert tc.sigmoid_np(x, out=out) is out
    np.testing.assert_array_equal(out, tc.sigmoid_np(x))
    assert tc.sigmoid_np(x, out=x) is x  # out may be x itself
    np.testing.assert_array_equal(x, out)


# 1e-4 to 1e6, and densely around psi's root near 1.46
PSI_GRID = np.concatenate([np.logspace(-4.0, 6.0, 200_001), np.linspace(0.5, 3.0, 50_001)])


def test_digamma_within_bound_of_scipy():
    want = special.digamma(PSI_GRID)
    got = tc.digamma(PSI_GRID).data
    assert (np.abs(got - want) / np.maximum(1.0, np.abs(want))).max() <= 1.8e-15


def test_digamma_gradient_is_trigamma_within_bound_of_scipy():
    # scipy's polygamma(1, x) is itself up to 9e-16 relative off 120-bit
    # values, so the two may differ by more than ours does from those
    x = tc.Parameter(PSI_GRID, "x")
    with tc.Tape():
        tc.backward(tc.digamma(x).sum())
    want = special.polygamma(1, PSI_GRID)
    assert (np.abs(x.grad - want) / want).max() <= 1.5e-15


def test_digamma_and_trigamma_against_high_precision_values():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    x = np.concatenate([np.exp(rng.uniform(np.log(1e-4), np.log(1e6), 400)), np.linspace(1.2, 1.8, 201)])
    with mpmath.workprec(120):
        psi = np.array([float(mpmath.digamma(v)) for v in x])
        trigamma = np.array([float(mpmath.polygamma(1, v)) for v in x])
    assert (np.abs(tc._polygamma_np(x, 0) - psi) / np.maximum(1.0, np.abs(psi))).max() <= 1.1e-15
    assert (np.abs(tc._polygamma_np(x, 1) - trigamma) / trigamma).max() <= 5e-16


def test_softplus_at_zero():
    assert tc.softplus(tc.Tensor([0.0])).data[0] == pytest.approx(
        np.log(2.0), abs=1e-12
    )


def test_leaky_relu_negative():
    assert tc.leaky_relu(tc.Tensor([-1.0])).data[0] == pytest.approx(-0.2)


def test_backward_sigmoid_at_zero():
    w = tc.Parameter([0.0], "w")
    with tc.Tape():
        loss = tc.sigmoid(w).sum()
        tc.backward(loss)
    assert w.grad[0] == pytest.approx(0.25, abs=1e-12)


def test_backward_sum_of_squares():
    w = tc.Parameter([1.0, 2.0], "w")
    with tc.Tape():
        loss = (w * w).sum()
        tc.backward(loss)
    np.testing.assert_allclose(w.grad, [2.0, 4.0], atol=1e-12)


def test_backward_disconnected_parameter_zero_grad():
    w = tc.Parameter([1.0], "w")
    p = tc.Parameter([5.0], "unused")
    with tc.Tape():
        loss = (w * w).sum()
        tc.backward(loss)
    np.testing.assert_array_equal(p.grad, [0.0])


def test_backward_rejects_non_scalar():
    w = tc.Parameter([1.0, 2.0], "w")
    with tc.Tape():
        y = w * w
        with pytest.raises(tc.UsageError):
            tc.backward(y)


def test_backward_requires_tape():
    w = tc.Parameter([1.0], "w")
    loss = (w * w).sum()
    with pytest.raises(tc.UsageError):
        tc.backward(loss)


def test_backward_once_per_tape():
    w = tc.Parameter([1.0], "w")
    with tc.Tape():
        loss = (w * w).sum()
        tc.backward(loss)
        with pytest.raises(tc.UsageError):
            tc.backward(loss)


def test_gradient_accumulates_across_fanout():
    w = tc.Parameter([3.0], "w")
    with tc.Tape():
        y = w * 2.0
        loss = (y + y).sum()
        tc.backward(loss)
    np.testing.assert_allclose(w.grad, [4.0])


def test_backward_linearity():
    rng = np.random.default_rng(7)
    a, b = 2.5, -1.25

    def grads(scale_f, scale_g):
        w = tc.Parameter(rng_data, "w")
        with tc.Tape():
            f = tc.sigmoid(w).sum()
            g = (w * w * w).sum()
            loss = f * scale_f + g * scale_g
            tc.backward(loss)
        return w.grad.copy()

    rng_data = rng.normal(size=(3, 2))
    gf = grads(1.0, 0.0)
    gg = grads(0.0, 1.0)
    combined = grads(a, b)
    np.testing.assert_allclose(combined, a * gf + b * gg, atol=1e-10)


def test_gradient_check_square():
    w = tc.Parameter([3.0], "w")
    assert gradient_check(lambda: (w * w).sum(), [w]) < 1e-6


def test_gradient_check_sigmoid():
    w = tc.Parameter([0.0], "w")
    err = gradient_check(lambda: tc.sigmoid(w).sum(), [w])
    assert err < 1e-7


def _sample(rng, domain, shape):
    if domain == "positive":
        return rng.random(shape) * 2.0 + 0.25
    return rng.normal(size=shape)


@pytest.mark.parametrize("name", sorted(UNARY_REGISTRY))
def test_registry_unary_gradients(name):
    fn, domain = UNARY_REGISTRY[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    w = tc.Parameter(_sample(rng, domain, (3, 2)), "w")
    assert gradient_check(lambda: fn(w).sum(), [w]) < 1e-5


@pytest.mark.parametrize("name", sorted(BINARY_REGISTRY))
def test_registry_binary_gradients(name):
    fn, dom_a, dom_b = BINARY_REGISTRY[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    a = tc.Parameter(_sample(rng, dom_a, (3, 2)), "a")
    b = tc.Parameter(_sample(rng, dom_b, (3, 2)), "b")
    assert gradient_check(lambda: fn(a, b).sum(), [a, b]) < 1e-5


@pytest.mark.parametrize("name", sorted(BINARY_REGISTRY))
def test_registry_binary_broadcast_row_gradients(name):
    fn, dom_a, dom_b = BINARY_REGISTRY[name]
    rng = np.random.default_rng(hash(name) % 2**31)
    # b's row broadcast, a's row broadcast, b of lower rank
    for shape_a, shape_b in [((4, 3), (1, 3)), ((1, 3), (4, 3)), ((4, 3), (3,))]:
        a = tc.Parameter(_sample(rng, dom_a, shape_a), "a")
        b = tc.Parameter(_sample(rng, dom_b, shape_b), "b")
        assert gradient_check(lambda: fn(a, b).sum(), [a, b]) < 1e-5
    # a constant operand gets no gradient; the parameter's is still checked
    a = tc.Parameter(_sample(rng, dom_a, (4, 3)), "a")
    const = tc.Tensor(_sample(rng, dom_b, (1, 3)))
    assert gradient_check(lambda: fn(a, const).sum(), [a]) < 1e-5
    assert const.grad is None and not const.requires_grad


def test_structural_op_gradients():
    rng = np.random.default_rng(11)
    w = tc.Parameter(rng.random((3, 4)) + 0.5, "w")
    cases = [
        lambda: tc.row_cumprod(w).sum(),
        lambda: tc.matmul(w, tc.transpose(w)).sum(),
        lambda: tc.clip(w * 2.0, 0.9, 5.0).sum(),
        lambda: tc.dropout(w, 0.5, np.random.default_rng(5)).sum(),
        lambda: tc.sum_all(w) * tc.sum_all(w * w),
    ]
    for f in cases:
        assert gradient_check(f, [w]) < 1e-5


def test_row_cumprod_values():
    out = tc.row_cumprod(tc.Tensor([[2.0, 3.0, 4.0]]))
    np.testing.assert_array_equal(out.data, [[2.0, 6.0, 24.0]])


def test_weighted_bce_values_and_gradient():
    rng = np.random.default_rng(3)
    logits = tc.Parameter(rng.normal(size=(4, 4)), "logits")
    targets = (rng.random((4, 4)) < 0.4).astype(float)

    def f():
        return weighted_bce_with_logits_sum(logits, targets, pos_weight=3.5)

    x = logits.data
    expected = (
        3.5 * targets * np.logaddexp(0, -x) + (1 - targets) * np.logaddexp(0, x)
    ).sum()
    assert f().item() == pytest.approx(expected, rel=1e-12)
    assert gradient_check(f, [logits]) < 1e-5


def test_dropout_train_and_eval():
    rng = np.random.default_rng(0)
    x = tc.Tensor(np.ones((200, 50)))
    out = tc.dropout(x, 0.5, rng)
    kept = out.data != 0.0
    assert abs(kept.mean() - 0.5) < 0.05
    np.testing.assert_allclose(out.data[kept], 2.0)


def test_adam_first_step_magnitude():
    p = tc.Parameter([1.0], "p")
    p.grad = np.array([1.0])
    tc.adam_step([p], lr=0.01)
    assert abs((1.0 - p.data[0]) - 0.01) < 1e-6
    np.testing.assert_array_equal(p.grad, [0.0])
    assert p.t == 1


def test_adam_zero_gradient_is_identity():
    p = tc.Parameter([[1.0, -2.0]], "p")
    before = p.data.copy()
    tc.adam_step([p], lr=0.5)
    np.testing.assert_array_equal(p.data, before)


def test_adam_second_step_similar_magnitude():
    p = tc.Parameter([1.0], "p")
    p.grad = np.array([1.0])
    tc.adam_step([p], lr=0.01)
    first = p.data[0]
    p.grad = np.array([1.0])
    tc.adam_step([p], lr=0.01)
    assert abs(abs(first - p.data[0]) - 0.01) < 1e-3


def test_adam_rejects_non_finite_gradient():
    p = tc.Parameter([1.0], "p")
    p.grad = np.array([np.nan])
    with pytest.raises(tc.NumericDomainError, match="p"):
        tc.adam_step([p])


def test_adam_non_finite_gradient_updates_nothing():
    first = tc.Parameter([1.0, 2.0], "first")
    second = tc.Parameter([3.0], "second")
    first.grad = np.array([0.5, -0.5])
    second.grad = np.array([np.nan])
    with pytest.raises(tc.NumericDomainError, match="second"):
        tc.adam_step([first, second])
    np.testing.assert_array_equal(first.data, [1.0, 2.0])
    np.testing.assert_array_equal(first.m, [0.0, 0.0])
    np.testing.assert_array_equal(first.v, [0.0, 0.0])
    assert first.t == 0


def test_eval_mode_records_nothing():
    w = tc.Parameter([1.0], "w")
    y = tc.sigmoid(w)
    assert y._tape is None and not y.requires_grad


def test_op_on_constants_records_no_node():
    w = tc.Parameter([1.0, 2.0], "w")
    with tc.Tape() as t:
        y = tc.exp(tc.Tensor([0.5, 1.5])) + 1.0
        loss = (w * y).sum()
    assert y._tape is None and not y.requires_grad
    assert len(t) == 2  # only the mul and the sum, which have w upstream
    assert loss._tape is t


def test_tape_clear_resets():
    w = tc.Parameter([1.0], "w")
    t = tc.Tape()
    with t:
        loss = (w * w).sum()
        tc.backward(loss)
    assert len(t) > 0
    t.clear()
    assert len(t) == 0
    with t:
        loss = (w * w).sum()
        tc.backward(loss)  # fresh pass allowed after clear
    np.testing.assert_allclose(w.grad, [4.0])


def test_backward_drops_intermediate_gradients():
    w = tc.Parameter([[1.0, 2.0], [3.0, 4.0]], "w")
    x = tc.Tensor([[0.5, -1.0]])
    with tc.Tape() as t:
        h = tc.matmul(x, w)
        y = tc.exp(h) * h
        loss = y.sum()
        tc.backward(loss)
    for node in (h, y, loss):
        assert node.grad is None and node._backward_fn is None
    h0 = x.data @ w.data
    np.testing.assert_allclose(w.grad, x.data.T @ (np.exp(h0) * (h0 + 1.0)))
    assert len(t) == 4  # the nodes stay recorded until clear()

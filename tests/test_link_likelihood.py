"""The fused link likelihood against the dense N x N grid it replaces.

`tensor.link_bce_sum` walks symmetric row blocks and never forms the logit
grid. The oracle here is the dense path: the full logit grid, the train
adjacency with the diagonal set to 1 as targets, and
`oracles.weighted_bce_with_logits_sum`. The blocks run on a thread pool
and are summed in block order, so the bits must not depend on the number
of workers. With float32 targets, as training stores them, the blocks
compute in float32; those tests judge them against the float64 oracle on
a first-order scale of float32 rounding.
"""

import itertools
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dglfrm import tensor as tc
from dglfrm import trainer
from dglfrm.graphdata import Graph, SplitSpec, normalize_adjacency
from dglfrm.tensor import Parameter, SparseMatrix
from dglfrm.trainer import TrainConfig
from oracles import NO_PAIRS, as_float32, assert_close, to_dense, weighted_bce_with_logits_sum, zero_grads

def labels_grid(positives: SparseMatrix) -> np.ndarray:
    """Dense targets: the train adjacency with the diagonal set to 1."""
    labels = to_dense(positives)
    np.fill_diagonal(labels, 1.0)
    return labels


def dense_link_bce_sum(left, right, positives, pos_weight):
    """The oracle: logit grid, then labels_grid, then the weighted BCE."""
    logits = tc.matmul(left, tc.transpose(right))
    return weighted_bce_with_logits_sum(logits, labels_grid(positives), pos_weight)


def random_positives(n: int, density: float, rng: np.random.Generator) -> SparseMatrix:
    u, v = np.nonzero(np.triu(rng.random((n, n)) < density, 1))
    return SparseMatrix.from_coo(
        np.concatenate([u, v]), np.concatenate([v, u]), np.ones(2 * u.size), (n, n)
    )


def loss_and_grads(loss_fn, z0, w0, shared, positives, pos_weight):
    """Loss and the gradients of z and w, with left is right or left = z @ w_sym."""
    z = Parameter(z0, "z")
    w = Parameter(w0, "w")
    with tc.Tape():
        if shared:
            left = right = z
        else:
            w_sym = (w + tc.transpose(w)) * 0.5
            left, right = tc.matmul(z, w_sym), z
        loss = loss_fn(left, right, positives, pos_weight)
        tc.backward(loss)
    return loss.item(), z.grad, w.grad


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 24),
    f=st.integers(1, 4),
    density=st.floats(0.0, 1.0),
    pos_weight=st.floats(0.05, 50.0),
    scale=st.floats(0.0, 3.0),
    block=st.integers(1, 600),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# one block holding every row, and a single node
@example(n=20, f=3, density=0.2, pos_weight=4.0, scale=1.0, block=tc.LINK_BLOCK_ELEMENTS,
         shared=False, seed=1)
@example(n=1, f=2, density=0.0, pos_weight=0.5, scale=2.0, block=tc.LINK_BLOCK_ELEMENTS,
         shared=True, seed=2)
# 3 rows per block over 10 rows: the last block is short
@example(n=10, f=2, density=0.3, pos_weight=7.0, scale=1.0, block=30, shared=True, seed=3)
# an empty TRAIN, and a sparse one that leaves nodes isolated
@example(n=9, f=3, density=0.0, pos_weight=8.0, scale=1.5, block=20, shared=False, seed=4)
@example(n=16, f=2, density=0.05, pos_weight=25.0, scale=1.0, block=50, shared=False, seed=5)
def test_link_bce_sum_matches_dense_oracle(n, f, density, pos_weight, scale, block, shared, seed):
    rng = np.random.default_rng(seed)
    positives = random_positives(n, density, rng)
    z0 = rng.normal(size=(n, f)) * scale
    w0 = rng.normal(size=(f, f))
    dense = loss_and_grads(dense_link_bce_sum, z0, w0, shared, positives, pos_weight)
    with mock.patch.object(tc, "LINK_BLOCK_ELEMENTS", block):
        fused = loss_and_grads(tc.link_bce_sum, z0, w0, shared, positives, pos_weight)
    for got, want in zip(fused, dense):
        assert_close(got, want)


@pytest.mark.parametrize(
    "n,density,block,shared",
    [(10, 0.3, 30, True), (10, 0.3, 30, False), (1, 0.0, 1, True), (9, 0.0, 20, False),
     (40, 0.1, 200, True)],
    ids=["short-last-block-shared", "short-last-block-bilinear", "one-node", "empty-train",
         "eight-blocks"],
)
def test_link_bce_sum_bits_do_not_depend_on_the_worker_count(n, density, block, shared):
    rng = np.random.default_rng(n)
    positives = random_positives(n, density, rng)
    z0, w0 = rng.normal(size=(n, 3)), rng.normal(size=(3, 3))
    runs = []
    for workers in (1, 2, 3):
        with mock.patch.object(tc, "LINK_BLOCK_ELEMENTS", block), \
                mock.patch.object(tc, "BLOCK_WORKERS", workers):
            runs.append(loss_and_grads(tc.link_bce_sum, z0, w0, shared, positives, 3.0))
    for run in runs[1:]:
        assert run[0] == runs[0][0]
        for got, want in zip(run[1:], runs[0][1:]):
            np.testing.assert_array_equal(got, want)


def float32_error_scales(z0, w0, shared, positives, pos_weight):
    """The scales of the float32 blocks' rounding error: the loss's, then the gradients'.

    A block's logit x is off by a few float32 epsilons of its pair's m =
    |left| @ |right|.T, which is far larger than |x| where the products
    cancel. That moves the loss by sum |G| m, with G the weighted derivative,
    and G by w sigmoid'(x) m, plus w for rounding sigmoid(x) near 1. The
    gradients are then off by a few epsilons of the same chain run on |z|
    and |w| with w (1 + sigmoid'(x) m) in place of G.
    """
    labels = labels_grid(positives)
    weights = np.where(labels == 1.0, pos_weight, 1.0)
    left = z0 if shared else z0 @ ((w0 + w0.T) * 0.5)
    s = tc.sigmoid_np(left @ z0.T)
    g, slope = weights * (s - labels), weights * s * (1.0 - s)

    def scale(left, right, positives, pos_weight):  # on |z| and |w|
        m = tc.matmul(left, tc.transpose(right))
        return tc._make("scale", np.asarray((np.abs(g) * m.data).sum()), (m, lambda up: up * (weights + slope * m.data)))

    loss, *grads = loss_and_grads(scale, np.abs(z0), np.abs(w0), shared, positives, pos_weight)
    return loss, grads


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 24),
    f=st.integers(1, 4),
    density=st.floats(0.0, 1.0),
    pos_weight=st.floats(0.05, 50.0),
    scale=st.floats(0.0, 12.0),
    block=st.integers(1, 600),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# logits beyond 88 in magnitude, where float32 exp overflows
@example(n=20, f=3, density=0.2, pos_weight=4.0, scale=10.0, block=60, shared=False, seed=1)
@example(n=12, f=4, density=0.5, pos_weight=1.0, scale=12.0, block=600, shared=True, seed=2)
# a confident target, whose float32 derivative w (sigmoid(x) - 1) is 0
@example(n=1, f=2, density=0.0, pos_weight=0.5, scale=2.0, block=1, shared=True, seed=3)
# products that cancel in the gradient of w
@example(n=3, f=1, density=0.5, pos_weight=9.0, scale=5.0, block=1, shared=False, seed=200)
def test_float32_targets_match_the_float64_oracle(n, f, density, pos_weight, scale, block, shared, seed):
    """Float32 blocks, float64 sums: within 1e-6 of the loss's scale and 1e-5 of the gradients'.

    Each scale is the largest of 1 (as in assert_close: the dense oracle's own
    float64 rounding), the oracle's result (its largest entry for a gradient)
    and the rounding error's scale from float32_error_scales.
    """
    rng = np.random.default_rng(seed)
    positives = random_positives(n, density, rng)
    z0 = rng.normal(size=(n, f)) * scale
    w0 = rng.normal(size=(f, f))
    dense = loss_and_grads(dense_link_bce_sum, z0, w0, shared, positives, pos_weight)
    with mock.patch.object(tc, "LINK_BLOCK_ELEMENTS", block):
        fused = loss_and_grads(tc.link_bce_sum, z0, w0, shared, as_float32(positives), pos_weight)
    loss_scale, grad_scales = float32_error_scales(z0, w0, shared, positives, pos_weight)
    assert abs(fused[0] - dense[0]) <= 1e-6 * max(1.0, dense[0], loss_scale)
    for got, want, grad_scale in zip(fused[1:], dense[1:], grad_scales):
        assert got.dtype == np.float64
        atol = 1e-5 * max(1.0, np.max(np.abs(want)), np.max(grad_scale))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


@pytest.mark.parametrize(
    "n,density,block,shared",
    [(10, 0.3, 30, True), (10, 0.3, 30, False), (9, 0.0, 20, False), (40, 0.1, 200, True)],
    ids=["short-last-block-shared", "short-last-block-bilinear", "empty-train", "eight-blocks"],
)
def test_float32_bits_do_not_depend_on_the_worker_count(n, density, block, shared):
    rng = np.random.default_rng(n)
    positives = as_float32(random_positives(n, density, rng))
    z0, w0 = rng.normal(size=(n, 3)) * 8.0, rng.normal(size=(3, 3))  # logits beyond 88 too
    runs = []
    for workers in (1, 2, 3):
        with mock.patch.object(tc, "LINK_BLOCK_ELEMENTS", block), \
                mock.patch.object(tc, "BLOCK_WORKERS", workers):
            runs.append(loss_and_grads(tc.link_bce_sum, z0, w0, shared, positives, 3.0))
    for run in runs[1:]:
        assert run[0] == runs[0][0]
        for got, want in zip(run[1:], runs[0][1:]):
            np.testing.assert_array_equal(got, want)


def test_a_failing_block_propagates_and_leaves_no_trace():
    """An error in the third block's sigmoid leaves no tape node, gradient or thread behind."""
    rng = np.random.default_rng(0)
    positives = random_positives(12, 0.3, rng)
    z, w = Parameter(rng.normal(size=(12, 2)), "z"), Parameter(rng.normal(size=(2, 2)), "w")
    calls, sigmoid = itertools.count(1), tc.sigmoid_np

    def failing_sigmoid(*args, **kwargs):
        if next(calls) == 3:
            raise RuntimeError("block failed")
        return sigmoid(*args, **kwargs)

    threads = threading.active_count()
    with mock.patch.object(tc, "LINK_BLOCK_ELEMENTS", 24), \
            mock.patch.object(tc, "BLOCK_WORKERS", 2), \
            mock.patch.object(tc, "sigmoid_np", failing_sigmoid), tc.Tape() as tape:
        left = tc.matmul(z, w)
        recorded = len(tape)
        with pytest.raises(RuntimeError, match="block failed"):
            tc.link_bce_sum(left, z, positives, 2.0)
        assert len(tape) == recorded
    assert threading.active_count() == threads
    assert not z.grad.any() and not w.grad.any()


def test_blocks_run_under_the_callers_errstate():
    """numpy 2 keeps np.errstate in a context variable; the worker threads must see it."""
    rng = np.random.default_rng(1)
    positives = random_positives(12, 0.3, rng)
    seen, sigmoid = [], tc.sigmoid_np

    def recording_sigmoid(*args, **kwargs):
        seen.append(np.geterr())
        return sigmoid(*args, **kwargs)

    with mock.patch.object(tc, "LINK_BLOCK_ELEMENTS", 24), \
            mock.patch.object(tc, "BLOCK_WORKERS", 2), \
            mock.patch.object(tc, "sigmoid_np", recording_sigmoid), \
            np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as the trainer sets it
        tc.link_bce_sum(rng.normal(size=(12, 2)), rng.normal(size=(12, 2)), positives, 2.0)
        want = np.geterr()
    assert len(seen) == 6
    assert all(got == want for got in seen)


@pytest.mark.parametrize(
    "shapes",
    [((4, 2), (4, 3), (4, 4)), ((4, 2), (4, 2), (5, 5)), ((4,), (4,), (4, 4))],
    ids=["left-vs-right", "positives", "not-a-matrix"],
)
def test_link_bce_sum_rejects_mismatched_shapes(shapes):
    left, right, pos = shapes
    with pytest.raises(tc.ShapeError):
        tc.link_bce_sum(np.zeros(left), np.zeros(right), SparseMatrix(np.zeros(pos)), 1.0)


def _random_graph(n, rng, with_features=True):
    pairs = {(i, (i + 1) % n) for i in range(n - 1)}
    pairs |= {tuple(sorted(p)) for p in rng.integers(0, n, size=(n, 2)) if p[0] != p[1]}
    u, v = np.array(sorted(pairs)).T
    adj = SparseMatrix.from_coo(np.r_[u, v], np.r_[v, u], np.ones(2 * u.size), (n, n))
    features = SparseMatrix((rng.random((n, 3)) < 0.5).astype(float)) if with_features else None
    return Graph(n_nodes=n, adjacency=adj, features=features)


def _elbo_setup(variant="dglfrm", structured=True):
    g = _random_graph(13, np.random.default_rng(7))
    cfg = TrainConfig(variant=variant, structured=structured, k=4, hidden=5,
                      decoder_hidden=(3,), dropout=0.0, epochs=1, seed=3)
    params = trainer.init_params(g, cfg, np.random.default_rng(cfg.seed))
    noise = trainer.draw_noise(np.random.default_rng(11), g.n_nodes, cfg.k, params)
    return g, normalize_adjacency(g), params, cfg, noise


@pytest.mark.parametrize("structured", [True, False], ids=["structured", "amortized"])
@pytest.mark.parametrize("variant", ["dglfrm", "dglfrm-b", "lfrm", "lsm", "vgae"])
def test_elbo_matches_dense_oracle(variant, structured):
    g, a_hat, params, cfg, noise = _elbo_setup(variant, structured)

    def run():
        zero_grads(params.values())
        with tc.Tape():
            loss, parts = trainer.elbo_loss(g, a_hat, params, cfg, noise)
            tc.backward(loss)
        return parts, {p.name: p.grad.copy() for p in params.values()}

    with mock.patch.object(tc, "link_bce_sum", dense_link_bce_sum):
        dense_parts, dense_grads = run()
    with mock.patch.object(tc, "LINK_BLOCK_ELEMENTS", 40):  # 3 rows per block
        parts, grads = run()
    assert_close(parts.link_nll, dense_parts.link_nll)
    assert_close(parts.total, dense_parts.total)
    assert parts.feat_nll == dense_parts.feat_nll
    for name, want in dense_grads.items():
        assert_close(grads[name], want)


def test_default_pos_weight_is_the_dense_class_ratio():
    g, a_hat, params, cfg, noise = _elbo_setup()
    seen = []
    fused = tc.link_bce_sum

    def spy(left, right, positives, pos_weight):
        seen.append(pos_weight)
        return fused(left, right, positives, pos_weight)

    with mock.patch.object(tc, "link_bce_sum", spy):
        trainer.elbo_loss(g, a_hat, params, cfg, noise)
    labels = labels_grid(g.adjacency)
    nnz = float(labels.sum())
    assert seen == [(float(labels.size) - nnz) / nnz]


def test_training_step_allocates_no_n_by_n_array():
    """One epoch of `train` at N=3000 peaks below the N x N float64 grid (72 MB)."""
    n = 3000
    g = _random_graph(n, np.random.default_rng(0), with_features=False)
    split = SplitSpec(val_pos=NO_PAIRS, val_neg=NO_PAIRS, test_pos=NO_PAIRS, test_neg=NO_PAIRS, seed=0)
    cfg = TrainConfig(variant="dglfrm", k=8, hidden=16, decoder_hidden=(8,), epochs=1, seed=0)
    tracemalloc.start()
    try:
        _, report = trainer.train(g, split, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.losses) == 1
    assert peak < n * n * 8, f"peak {peak / 2**20:.1f} MiB"

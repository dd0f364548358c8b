"""Sparse node features: the fused feature likelihood and the sparse dropout.

`tensor.feature_bce_sum` walks row blocks of z @ w and never forms the
N x D logit matrix; its oracle is the dense logits and
`weighted_bce_with_logits_sum` with positive weight 1. `tensor.sparse_dropout`
keeps the stored pattern and draws one uniform per stored entry. The feature
blocks run on a thread pool and are summed in block order, so the bits must
not depend on the number of workers.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dglfrm import tensor as tc
from dglfrm import trainer
from dglfrm.graphdata import Graph, SplitSpec
from dglfrm.tensor import Parameter, SparseMatrix
from dglfrm.trainer import TrainConfig
from oracles import assert_close, to_dense, weighted_bce_with_logits_sum


def random_targets(n, d, density, binary, rng) -> np.ndarray:
    """Dense targets with about `density` nonzeros and about a third of the rows all zero."""
    values = np.ones((n, d)) if binary else rng.uniform(-0.5, 2.0, size=(n, d))
    keep = rng.random((n, d)) < density
    keep[rng.random(n) < 0.3] = False
    return np.where(keep, values, 0.0)


def loss_and_grads(loss_fn, z0, w0, targets):
    z = Parameter(z0, "z")
    w = Parameter(w0, "w")
    with tc.Tape():
        loss = loss_fn(z, w, targets)
        tc.backward(loss)
    return loss.item(), z.grad, w.grad


def dense_feature_bce_sum(z, w, targets: SparseMatrix):
    return weighted_bce_with_logits_sum(tc.matmul(z, w), to_dense(targets), 1.0)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 4),
    d=st.integers(1, 40),
    density=st.floats(0.0, 1.0),
    binary=st.booleans(),
    scale=st.floats(0.0, 3.0),
    block=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
# one block holding every row
@example(n=9, k=3, d=20, density=0.2, binary=False, scale=1.0, block=tc.LINK_BLOCK_ELEMENTS, seed=1)
# D larger than a block: one row per block; 37 divides neither 16 nor 50
@example(n=6, k=2, d=37, density=0.3, binary=False, scale=1.0, block=16, seed=2)
@example(n=6, k=2, d=37, density=0.3, binary=True, scale=2.0, block=50, seed=3)
# 3 rows per block over 10 rows: the last block is short
@example(n=10, k=3, d=7, density=0.4, binary=False, scale=1.0, block=21, seed=4)
# no stored target at all
@example(n=5, k=2, d=4, density=0.0, binary=True, scale=1.0, block=8, seed=5)
def test_feature_bce_sum_matches_dense_oracle(n, k, d, density, binary, scale, block, seed):
    rng = np.random.default_rng(seed)
    targets = SparseMatrix(random_targets(n, d, density, binary, rng))
    z0 = rng.normal(size=(n, k)) * scale
    w0 = rng.normal(size=(k, d))
    dense = loss_and_grads(dense_feature_bce_sum, z0, w0, targets)
    with mock.patch.object(tc, "LINK_BLOCK_ELEMENTS", block):
        fused = loss_and_grads(tc.feature_bce_sum, z0, w0, targets)
    for got, want in zip(fused, dense):
        assert_close(got, want)


@pytest.mark.parametrize(
    "n,d,density,block",
    [(10, 7, 0.4, 21), (1, 5, 0.5, 5), (6, 37, 0.3, 16), (5, 4, 0.0, 8), (40, 9, 0.2, 45)],
    ids=["short-last-block", "one-row", "wider-than-a-block", "no-stored-target", "eight-blocks"],
)
def test_feature_bce_sum_bits_do_not_depend_on_the_worker_count(n, d, density, block):
    rng = np.random.default_rng(n)
    targets = SparseMatrix(random_targets(n, d, density, False, rng))
    z0, w0 = rng.normal(size=(n, 3)), rng.normal(size=(3, d))
    runs = []
    for workers in (1, 2, 3):
        with mock.patch.object(tc, "LINK_BLOCK_ELEMENTS", block), \
                mock.patch.object(tc, "BLOCK_WORKERS", workers):
            runs.append(loss_and_grads(tc.feature_bce_sum, z0, w0, targets))
    for run in runs[1:]:
        assert run[0] == runs[0][0]
        for got, want in zip(run[1:], runs[0][1:]):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "shapes",
    [((4, 2), (3, 5), (4, 5)), ((4, 2), (2, 5), (3, 5)), ((4, 2), (2, 5), (4, 6)), ((4,), (2, 5), (4, 5))],
    ids=["inner", "rows", "columns", "not-a-matrix"],
)
def test_feature_bce_sum_rejects_mismatched_shapes(shapes):
    z, w, targets = shapes
    with pytest.raises(tc.ShapeError):
        tc.feature_bce_sum(np.zeros(z), np.zeros(w), SparseMatrix(np.zeros(targets)))


@pytest.mark.parametrize(
    "shape,density,rate",
    [((50, 30), 0.2, 0.4), ((300, 40), 0.05, 0.9), ((7, 100), 0.5, 0.1), ((1, 3), 1.0, 0.5)],
    ids=["a-fifth-stored", "mostly-dropped", "mostly-kept", "one-row"],
)
def test_sparse_dropout_draws_once_per_stored_entry(shape, density, rate):
    rng = np.random.default_rng(0)
    dense = random_targets(*shape, density, False, rng)
    rows, cols = np.nonzero(dense)
    values = dense[rows, cols]
    values[::7] = 0.0  # explicit zeros, which stay stored
    x = SparseMatrix.from_coo(rows, cols, values, shape)
    drop_rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    got = tc.sparse_dropout(x, rate, drop_rng)
    assert x.nnz > 0 and got.shape == x.shape
    np.testing.assert_array_equal(got.indptr, x.indptr)
    np.testing.assert_array_equal(got.indices, x.indices)
    kept = got.values != 0.0
    np.testing.assert_allclose(got.values[kept], x.values[kept] / (1.0 - rate), rtol=1e-15, atol=0.0)
    # one uniform per stored entry, in storage order, and no other draw
    np.testing.assert_array_equal(kept, (reference.random(x.nnz) >= rate) & (x.values != 0.0))
    assert drop_rng.bit_generator.state == reference.bit_generator.state
    n = np.count_nonzero(x.values)
    assert abs(np.count_nonzero(kept) - n * (1.0 - rate)) <= 5.0 * np.sqrt(n * rate * (1.0 - rate)) + 1.0


def test_feature_training_epoch_allocates_no_n_by_d_array():
    """One epoch with the feature term at N=500, D=5000 peaks below the N x D float64 array (20 MB)."""
    n, d = 500, 5000
    rng = np.random.default_rng(0)
    ring = np.arange(n)
    adjacency = SparseMatrix.from_coo(
        np.r_[ring, (ring + 1) % n], np.r_[(ring + 1) % n, ring], np.ones(2 * n), (n, n)
    )
    cells = rng.choice(n * d, size=n * d // 100, replace=False)
    features = SparseMatrix.from_coo(cells // d, cells % d, np.ones(cells.size), (n, d))
    g = Graph(n_nodes=n, adjacency=adjacency, features=features)
    split = SplitSpec(n_nodes=n, train_adjacency=adjacency,
                      val_pos=(), val_neg=(), test_pos=(), test_neg=(), seed=0)
    cfg = TrainConfig(variant="vgae", feature_term=True, k=8, hidden=16, epochs=1, seed=0)
    tracemalloc.start()
    try:
        _, report = trainer.train(g, split, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.losses[0]["feat_nll"] > 0.0
    assert peak < n * d * 8, f"peak {peak / 2**20:.1f} MiB"

"""Test-only helpers: the dense BCE oracle, the scalar split sampler, dense
and scipy views of a sparse matrix, gradient checking and the op registries.

`weighted_bce_with_logits_sum` is the dense reference for the fused
likelihoods `tensor.link_bce_sum` and `tensor.feature_bce_sum`, which sum
the same loss without forming the logit matrix. `oracle_make_splits` is the
reference for `graphdata.make_splits`, which draws its negatives in batches.
"""

from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy import special

from dglfrm import graphdata as gd
from dglfrm import tensor as tc
from dglfrm.tensor import Parameter, SparseMatrix, Tensor


def weighted_bce_with_logits_sum(logits, targets, pos_weight: float = 1.0) -> Tensor:
    """Sum of -[w*y*log sigmoid(x) + (1-y)*log(1-sigmoid(x))], computed stably."""
    logits = tc.as_tensor(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise tc.ShapeError(f"bce: logits {logits.shape} vs targets {targets.shape}")
    x = logits.data
    sp_pos = tc._softplus_np(x)  # -log(1 - sigmoid) = softplus(x)
    sp_neg = sp_pos - x          # -log sigmoid     = softplus(-x)
    val = float((pos_weight * targets * sp_neg + (1.0 - targets) * sp_pos).sum())

    def vjp(g: np.ndarray) -> np.ndarray:
        s = special.expit(x)
        return g * (pos_weight * targets * (s - 1.0) + (1.0 - targets) * s)

    return tc._make("weighted_bce_with_logits_sum", np.asarray(val), (logits, vjp))


def assert_close(actual, expected, rtol: float = 1e-12):
    """Equal within `rtol` relative, with entries near 0 judged on the largest |expected|."""
    expected = np.asarray(expected)
    atol = rtol * max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


def sparse_identity(n: int) -> SparseMatrix:
    return SparseMatrix(np.eye(n))


def to_dense(m: SparseMatrix) -> np.ndarray:
    """The dense array of a sparse matrix: the tests' view of what it stores."""
    out = np.zeros(m.shape)
    out[m.entry_rows(), m.indices] = m.values
    return out


def as_scipy(m: SparseMatrix) -> sp.csr_matrix:
    """scipy's CSR matrix over the same arrays: the oracle for the numpy CSR code."""
    return sp.csr_matrix((m.values, m.indices, m.indptr), shape=m.shape)


def oracle_make_splits(g: gd.Graph, test_frac: float, val_frac: float, seed: int) -> gd.SplitSpec:
    """make_splits over edge tuples, drawing one node id per rng.integers call."""
    edges = sorted(map(tuple, gd._upper_pairs(g.adjacency).tolist()))
    is_edge = set(edges)
    n_test = gd._holdout_size(test_frac, len(edges))
    n_val = gd._holdout_size(val_frac, len(edges))
    n = g.n_nodes
    n_neg = n_test + n_val
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(edges))
    test_pos = tuple(edges[i] for i in order[:n_test])
    val_pos = tuple(edges[i] for i in order[n_test : n_test + n_val])
    train_edges = [edges[i] for i in order[n_test + n_val :]]
    negatives, chosen, attempts = [], set(), 0
    while len(negatives) < n_neg and attempts < 100 * n_neg + 1000:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        pair = (min(u, v), max(u, v))
        if u != v and pair not in is_edge and pair not in chosen:
            chosen.add(pair)
            negatives.append(pair)
    if len(negatives) < n_neg:
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)
                if (u, v) not in is_edge and (u, v) not in chosen]
        negatives.extend(pool[i] for i in rng.permutation(len(pool))[: n_neg - len(negatives)])
    return gd.SplitSpec(
        n_nodes=n,
        train_adjacency=gd._adjacency_from_pairs(sorted(train_edges), n),
        val_pos=val_pos,
        val_neg=tuple(negatives[n_test:]),
        test_pos=test_pos,
        test_neg=tuple(negatives[:n_test]),
        seed=seed,
    )


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


def gradient_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    h: float = 1e-5,
) -> float:
    """Compare tape gradients of scalar f() against central differences.

    Returns the max relative error |a - n| / max(1, |a| + |n|) over all
    parameter entries. f must be deterministic given the parameter values.
    """
    zero_grads(params)
    with tc.Tape():
        loss = f()
        if loss.size != 1:
            raise tc.UsageError("gradient_check: f() must return a scalar")
        tc.backward(loss)
    analytic = {id(p): np.array(p.grad, copy=True) for p in params}
    zero_grads(params)

    max_rel = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        ana = analytic[id(p)].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f().item()
            flat[i] = orig - h
            down = f().item()
            flat[i] = orig
            num = (up - down) / (2.0 * h)
            if not (np.isfinite(num) and np.isfinite(ana[i])):
                raise tc.NumericDomainError(
                    f"gradient_check: non-finite derivative for {p.name!r}[{i}]"
                )
            rel = abs(ana[i] - num) / max(1.0, abs(ana[i]) + abs(num))
            max_rel = max(max_rel, rel)
    return max_rel


# Registries drive the blanket gradient-check property test. Domain tags tell
# the test how to sample valid inputs.
UNARY_REGISTRY: dict[str, tuple[Callable[..., Tensor], str]] = {
    "sigmoid": (tc.sigmoid, "real"),
    "softplus": (tc.softplus, "real"),
    "exp": (tc.exp, "real"),
    "log": (tc.log, "positive"),
    "leaky_relu": (tc.leaky_relu, "real"),
    "negate": (tc.negate, "real"),
    "reciprocal": (tc.reciprocal, "positive"),
    "digamma": (tc.digamma, "positive"),
}

BINARY_REGISTRY: dict[str, tuple[Callable[..., Tensor], str, str]] = {
    "add": (tc.add, "real", "real"),
    "sub": (tc.sub, "real", "real"),
    "mul": (tc.mul, "real", "real"),
    "div": (tc.div, "real", "positive"),
    "pow": (tc.pow_, "positive", "real"),
    "logaddexp": (tc.logaddexp, "real", "real"),
}

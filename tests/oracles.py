"""Test-only helpers: the dense BCE oracle, gradient checking and the op registries.

`weighted_bce_with_logits_sum` is the dense reference for the fused
likelihoods `tensor.link_bce_sum` and `tensor.feature_bce_sum`, which sum
the same loss without forming the logit matrix.
"""

from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy import special

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

    def bwd(g: np.ndarray) -> None:
        if logits.requires_grad:
            s = special.expit(x)
            logits._accum(
                g * (pos_weight * targets * (s - 1.0) + (1.0 - targets) * s)
            )

    return tc._make(np.asarray(val), (logits,), bwd, "weighted_bce_with_logits_sum")


def assert_close(actual, expected, rtol: float = 1e-12):
    """Equal within `rtol` relative, with entries near 0 judged on the largest |expected|."""
    expected = np.asarray(expected)
    atol = rtol * max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


def sparse_identity(n: int) -> SparseMatrix:
    return SparseMatrix(sp.identity(n, format="csr"))


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

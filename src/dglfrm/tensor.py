"""Float64 tensors with reverse-mode autodiff, CSR sparse matrices, and Adam.

Ops record onto the innermost active :class:`Tape`; with no tape active they
just compute values, which is what evaluation paths use. Gradients accumulate
(sum) across fan-out within a single backward pass.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as _sp
from scipy import special as _special


class ShapeError(ValueError):
    """Operand shapes do not fit the operation."""


class NumericDomainError(ArithmeticError):
    """Values outside an op's numeric domain, or a non-finite result."""


class UsageError(RuntimeError):
    """The tape/op contract was violated by the caller."""


_CHECK_FINITE = os.environ.get("DGLFRM_CHECK_FINITE", "") not in ("", "0")


def set_finite_checks(enabled: bool) -> None:
    """Toggle per-op output finiteness checks (debug aid, off by default)."""
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


def _first_index(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.argwhere(mask)[0])


# ---------------------------------------------------------------------------
# Tape


class Tape:
    """Dynamic Wengert list. Creation order is a topological order.

    Use as a context manager around one forward pass; one backward pass is
    allowed per recorded forward.
    """

    def __init__(self) -> None:
        self._nodes: list[Tensor] = []
        self._used = False

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.remove(self)

    def clear(self) -> None:
        """Drop all recorded nodes so the tape can back a fresh step."""
        for node in self._nodes:
            node._backward_fn = None
            node._tape = None
        self._nodes.clear()
        self._used = False


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


# ---------------------------------------------------------------------------
# Tensor


class Tensor:
    """Dense float64 array plus an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_tape")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = False
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return negate(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def sum(self):
        return sum_all(self)

    @property
    def T(self):
        return transpose(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"


class Parameter(Tensor):
    """Trainable leaf tensor with Adam state."""

    __slots__ = ("name", "m", "v", "t")

    def __init__(self, data, name: str) -> None:
        super().__init__(np.array(data, dtype=np.float64, copy=True))
        self.name = name
        self.requires_grad = True
        self.grad = np.zeros_like(self.data)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.t = 0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, t={self.t})"


def as_tensor(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _finite_or_raise(out: np.ndarray, op: str) -> None:
    if _CHECK_FINITE and not np.all(np.isfinite(out)):
        raise NumericDomainError(f"{op}: non-finite output")


def _make(
    out_data: np.ndarray,
    parents: Sequence[Tensor],
    backward_fn: Callable[[np.ndarray], None],
    op: str,
) -> Tensor:
    _finite_or_raise(out_data, op)
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._backward_fn = backward_fn
        out._tape = tape
        tape._nodes.append(out)
    return out


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through its recording tape."""
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise UsageError("loss was not recorded on an active tape")
    if tape._used:
        raise UsageError("tape already backpropagated; record a fresh forward pass")
    tape._used = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape._nodes):
        if node.grad is not None and node._backward_fn is not None:
            node._backward_fn(node.grad)


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


# ---------------------------------------------------------------------------
# Sparse matrices


class SparseMatrix:
    """Immutable CSR float64 matrix (sorted, duplicate-free column indices)."""

    __slots__ = ("_csr", "_transpose")

    def __init__(self, matrix) -> None:
        csr = _sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        csr.sum_duplicates()
        csr.sort_indices()
        if csr.indices.size and (csr.indices.min() < 0 or csr.indices.max() >= csr.shape[1]):
            raise ShapeError("column index out of range for CSR matrix")
        self._csr = csr
        self._transpose: SparseMatrix | None = None

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: tuple[int, int]) -> "SparseMatrix":
        return cls(_sp.coo_matrix((vals, (rows, cols)), shape=shape))

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(_sp.identity(n, format="csr"))

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    @property
    def indptr(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def indices(self) -> np.ndarray:
        return self._csr.indices

    @property
    def values(self) -> np.ndarray:
        return self._csr.data

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._csr.todense(), dtype=np.float64)

    def transpose(self) -> "SparseMatrix":
        if self._transpose is None:
            self._transpose = SparseMatrix(self._csr.T)
        return self._transpose

    def scipy(self) -> _sp.csr_matrix:
        return self._csr

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.nnz))

    def __repr__(self) -> str:
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# Broadcasting helpers


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcast during the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# Binary elementwise ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), bwd, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "div")
    if np.any(b.data == 0.0):
        idx = _first_index(b.data == 0.0)
        raise NumericDomainError(f"div: zero denominator at index {idx}")

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(a.data / b.data, (a, b), bwd, "div")


def pow_(a, b) -> Tensor:
    """Elementwise a**b. Base must be strictly positive (log is taken)."""
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "pow")
    if np.any(a.data <= 0.0):
        idx = _first_index(a.data <= 0.0)
        raise NumericDomainError(f"pow: non-positive base at index {idx}")
    out = np.power(a.data, b.data)
    log_a = np.log(a.data)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data * out / a.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * out * log_a, b.shape))

    return _make(out, (a, b), bwd, "pow")


def logaddexp(a, b) -> Tensor:
    """Stable log(exp(a) + exp(b))."""
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "logaddexp")

    def bwd(g: np.ndarray) -> None:
        # d/da = sigmoid(a - b), d/db = sigmoid(b - a)
        if a.requires_grad:
            a._accum(_unbroadcast(g * _sigmoid_np(a.data - b.data), a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * _sigmoid_np(b.data - a.data), b.shape))

    return _make(np.logaddexp(a.data, b.data), (a, b), bwd, "logaddexp")


# ---------------------------------------------------------------------------
# Unary elementwise ops


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _unary(x, fwd, dfdx, op: str) -> Tensor:
    x = as_tensor(x)
    out_data = fwd(x.data)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g * dfdx(x.data, out_data))

    return _make(out_data, (x,), bwd, op)


def sigmoid(x) -> Tensor:
    return _unary(x, _sigmoid_np, lambda _, y: y * (1.0 - y), "sigmoid")


def softplus(x) -> Tensor:
    return _unary(
        x, lambda d: np.logaddexp(0.0, d), lambda d, _: _sigmoid_np(d), "softplus"
    )


def exp(x) -> Tensor:
    return _unary(x, np.exp, lambda _, y: y, "exp")


def log(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        idx = _first_index(x.data <= 0.0)
        raise NumericDomainError(f"log: non-positive input at index {idx}")
    return _unary(x, np.log, lambda d, _: 1.0 / d, "log")


def negate(x) -> Tensor:
    return _unary(x, np.negative, lambda d, _: -np.ones_like(d), "negate")


def reciprocal(x) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data == 0.0):
        idx = _first_index(x.data == 0.0)
        raise NumericDomainError(f"reciprocal: zero input at index {idx}")
    return _unary(x, lambda d: 1.0 / d, lambda _, y: -y * y, "reciprocal")


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    def fwd(d: np.ndarray) -> np.ndarray:
        return np.where(d >= 0.0, d, slope * d)

    def dfdx(d: np.ndarray, _y: np.ndarray) -> np.ndarray:
        return np.where(d >= 0.0, 1.0, slope)

    return _unary(x, fwd, dfdx, "leaky_relu")


def digamma(x) -> Tensor:
    """Digamma for strictly positive inputs. d/dx = polygamma(1, x)."""
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        idx = _first_index(x.data <= 0.0)
        raise NumericDomainError(f"digamma: non-positive input at index {idx}")
    return _unary(x, _special.digamma, lambda d, _: _special.polygamma(1, d), "digamma")


# Registries drive the blanket gradient-check property test. Domain tags tell
# the test how to sample valid inputs.
UNARY_REGISTRY: dict[str, tuple[Callable[..., Tensor], str]] = {
    "sigmoid": (sigmoid, "real"),
    "softplus": (softplus, "real"),
    "exp": (exp, "real"),
    "log": (log, "positive"),
    "leaky_relu": (leaky_relu, "real"),
    "negate": (negate, "real"),
    "reciprocal": (reciprocal, "positive"),
    "digamma": (digamma, "positive"),
}

BINARY_REGISTRY: dict[str, tuple[Callable[..., Tensor], str, str]] = {
    "add": (add, "real", "real"),
    "sub": (sub, "real", "real"),
    "mul": (mul, "real", "real"),
    "div": (div, "real", "positive"),
    "pow": (pow_, "positive", "real"),
    "logaddexp": (logaddexp, "real", "real"),
}


# ---------------------------------------------------------------------------
# Structural ops


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return _make(a.data @ b.data, (a, b), bwd, "matmul")


def spmm(s: SparseMatrix, b) -> Tensor:
    """Sparse @ dense. Gradient flows to the dense operand only."""
    if not isinstance(s, SparseMatrix):
        raise UsageError("spmm: first operand must be a SparseMatrix")
    b = as_tensor(b)
    if b.data.ndim != 2 or s.shape[1] != b.shape[0]:
        raise ShapeError(f"spmm: {s.shape} @ {b.shape}")

    def bwd(g: np.ndarray) -> None:
        if b.requires_grad:
            b._accum(s.transpose().scipy() @ g)

    return _make(np.asarray(s.scipy() @ b.data), (b,), bwd, "spmm")


def transpose(x) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: expected matrix, got shape {x.shape}")

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g.T)

    return _make(np.ascontiguousarray(x.data.T), (x,), bwd, "transpose")


def sum_all(x) -> Tensor:
    x = as_tensor(x)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(np.broadcast_to(g, x.shape).astype(np.float64))

    return _make(np.asarray(x.data.sum()), (x,), bwd, "sum_all")


def row_sum(x) -> Tensor:
    """Sum over axis 1 of a matrix; result shape (rows,)."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"row_sum: expected matrix, got shape {x.shape}")

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(np.repeat(g[:, None], x.shape[1], axis=1))

    return _make(x.data.sum(axis=1), (x,), bwd, "row_sum")


def row_cumprod(x) -> Tensor:
    """Cumulative product along axis 1. Inputs must be nonzero."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"row_cumprod: expected matrix, got shape {x.shape}")
    if np.any(x.data == 0.0):
        idx = _first_index(x.data == 0.0)
        raise NumericDomainError(f"row_cumprod: zero input at index {idx}")
    out = np.cumprod(x.data, axis=1)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            # dL/dx_j = sum_{k >= j} g_k y_k / x_j
            t = g * out
            rev = np.flip(np.cumsum(np.flip(t, axis=1), axis=1), axis=1)
            x._accum(rev / x.data)

    return _make(out, (x,), bwd, "row_cumprod")


def take_rows(x, idx) -> Tensor:
    """Gather rows by integer index; gradient scatter-adds."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    if x.data.ndim != 2:
        raise ShapeError(f"take_rows: expected matrix, got shape {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"take_rows: index out of range for {x.shape[0]} rows")

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            np.add.at(buf, idx, g)
            x._accum(buf)

    return _make(x.data[idx], (x,), bwd, "take_rows")


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only strictly inside."""
    x = as_tensor(x)
    if not lo < hi:
        raise UsageError(f"clip: lo {lo} must be < hi {hi}")
    mask = (x.data > lo) & (x.data < hi)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g * mask)

    return _make(np.clip(x.data, lo, hi), (x,), bwd, "clip")


def dropout(x, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout: zero entries w.p. rate, scale the rest by 1/(1-rate)."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise UsageError(f"dropout: rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accum(g * mask)

    return _make(x.data * mask, (x,), bwd, "dropout")


def weighted_bce_with_logits_sum(logits, targets, pos_weight: float = 1.0) -> Tensor:
    """Sum of -[w*y*log sigmoid(x) + (1-y)*log(1-sigmoid(x))], computed stably."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ShapeError(f"bce: logits {logits.shape} vs targets {targets.shape}")
    x = logits.data
    sp_pos = np.logaddexp(0.0, x)  # -log(1 - sigmoid) = softplus(x)
    sp_neg = sp_pos - x            # -log sigmoid     = softplus(-x)
    val = float((pos_weight * targets * sp_neg + (1.0 - targets) * sp_pos).sum())

    def bwd(g: np.ndarray) -> None:
        if logits.requires_grad:
            s = _sigmoid_np(x)
            logits._accum(
                g * (pos_weight * targets * (s - 1.0) + (1.0 - targets) * s)
            )

    return _make(np.asarray(val), (logits,), bwd, "weighted_bce_with_logits_sum")


# ---------------------------------------------------------------------------
# Optimizer and gradient checking


def adam_step(
    params: Iterable[Parameter],
    lr: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update per parameter; gradients are zeroed afterwards.

    Every gradient is checked before any parameter changes, so a non-finite
    gradient raises with all data and optimizer state untouched.
    """
    params = list(params)
    for p in params:
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise NumericDomainError(f"adam_step: non-finite gradient for {p.name!r}")
    for p in params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        p.t += 1
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * (g * g)
        m_hat = p.m / (1.0 - beta1**p.t)
        v_hat = p.v / (1.0 - beta2**p.t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
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
    with Tape():
        loss = f()
        if loss.size != 1:
            raise UsageError("gradient_check: f() must return a scalar")
        backward(loss)
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
                raise NumericDomainError(
                    f"gradient_check: non-finite derivative for {p.name!r}[{i}]"
                )
            rel = abs(ana[i] - num) / max(1.0, abs(ana[i]) + abs(num))
            max_rel = max(max_rel, rel)
    return max_rel

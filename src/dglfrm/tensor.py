"""Float64 tensors with reverse-mode autodiff, the sparse product, and Adam.

Every op records through `_make`: it computes its forward value and passes
one edge (parent, vjp) per operand, where vjp maps the output's gradient to
that parent's share. `_make` keeps the edges whose parent needs a gradient
and records the output on the innermost active :class:`Tape` if any are
left; with no tape active ops just compute values, which is what evaluation
paths use. In backward, `_make`'s closure sums each share over the axes
numpy broadcast and adds it to the parent's gradient, so gradients
accumulate (sum) across fan-out within a single backward pass.

Ops do not scan their inputs: a stated domain (a positive base, a nonzero
denominator) is the caller's contract. Non-finite values are caught at three
boundaries instead: the loss (`trainer.elbo_loss`), every gradient before
`adam_step` changes anything, and on the scoring path the encoder outputs
and the decoded link logits.
"""

from __future__ import annotations

import contextvars
import os
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as _sp  # the program's only scipy import: the kernel of spmm

from .graphdata import LINK_BLOCK_ELEMENTS, ShapeError, SparseMatrix, sigmoid_np


class NumericDomainError(ArithmeticError):
    """A non-finite loss, gradient, or encoder output or link logit when scoring."""
    exit_code = 3


class UsageError(RuntimeError):
    """The tape/op contract was violated by the caller."""
    exit_code = 1


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

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def sum(self):
        return sum_all(self)

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


def _operands(a, b, op: str) -> tuple[Tensor, Tensor]:
    """Both operands of a binary elementwise op as tensors whose shapes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None
    return a, b


def _make(op: str, out_data: np.ndarray, *edges: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """The op's output; on an active tape, recorded with the edges whose parent needs a gradient.

    An edge is (parent, vjp): vjp maps the output's gradient to the parent's
    share, which backward sums over the broadcast axes and adds to the
    parent's gradient, edge by edge. `op` names the op.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    live = [(p, vjp) for p, vjp in edges if p.requires_grad] if tape is not None else []
    if live:

        def backward_fn(g: np.ndarray) -> None:
            for parent, vjp in live:
                parent._accum(_unbroadcast(vjp(g), parent.shape))

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
    # creation order is topological, so once a node has propagated nothing
    # adds to its gradient again: drop it, and the closure holding its inputs
    for node in reversed(tape._nodes):
        if node.grad is not None and node._backward_fn is not None:
            node._backward_fn(node.grad)
        node.grad = None
        node._backward_fn = None


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


# ---------------------------------------------------------------------------
# Binary elementwise ops


def add(a, b) -> Tensor:
    a, b = _operands(a, b, "add")
    return _make("add", a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a, b) -> Tensor:
    a, b = _operands(a, b, "sub")
    return _make("sub", a.data - b.data, (a, lambda g: g), (b, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b, "mul")
    return _make("mul", a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def div(a, b) -> Tensor:
    """Elementwise a / b. The denominator must be nonzero."""
    a, b = _operands(a, b, "div")
    return _make(
        "div", a.data / b.data, (a, lambda g: g / b.data), (b, lambda g: -g * a.data / (b.data * b.data))
    )


def pow_(a, b) -> Tensor:
    """Elementwise a**b. Base must be strictly positive (log is taken)."""
    a, b = _operands(a, b, "pow")
    out = np.power(a.data, b.data)
    return _make(
        "pow", out, (a, lambda g: g * b.data * out / a.data), (b, lambda g: g * out * np.log(a.data))
    )


def logaddexp(a, b) -> Tensor:
    """Stable log(exp(a) + exp(b)): d/da = sigmoid(a - b), d/db = sigmoid(b - a)."""
    a, b = _operands(a, b, "logaddexp")
    return _make(
        "logaddexp",
        np.logaddexp(a.data, b.data),
        (a, lambda g: g * sigmoid_np(a.data - b.data)),
        (b, lambda g: g * sigmoid_np(b.data - a.data)),
    )


# ---------------------------------------------------------------------------
# Unary elementwise ops


def _softplus_np(x: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which cannot overflow.

    Within 5e-16 relative of np.logaddexp(0, x), at about 40% of its cost.
    `out` and `scratch`, arrays shaped like x, take the result and max(x, 0).
    """
    out = np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0, out=scratch)
    return out


def _unary(x, fwd, dfdx, op: str) -> Tensor:
    x = as_tensor(x)
    out_data = fwd(x.data)
    return _make(op, out_data, (x, lambda g: g * dfdx(x.data, out_data)))


def sigmoid(x) -> Tensor:
    return _unary(x, sigmoid_np, lambda _, y: y * (1.0 - y), "sigmoid")


def softplus(x) -> Tensor:
    return _unary(x, _softplus_np, lambda d, _: sigmoid_np(d), "softplus")


def exp(x) -> Tensor:
    return _unary(x, np.exp, lambda _, y: y, "exp")


def log(x) -> Tensor:
    """Natural log of strictly positive inputs."""
    return _unary(x, np.log, lambda d, _: 1.0 / d, "log")


def negate(x) -> Tensor:
    return _unary(x, np.negative, lambda d, _: -np.ones_like(d), "negate")


def reciprocal(x) -> Tensor:
    """1 / x for nonzero inputs."""
    return _unary(x, lambda d: 1.0 / d, lambda _, y: -y * y, "reciprocal")


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    def fwd(d: np.ndarray) -> np.ndarray:
        return np.where(d >= 0.0, d, slope * d)

    def dfdx(d: np.ndarray, _y: np.ndarray) -> np.ndarray:
        return np.where(d >= 0.0, 1.0, slope)

    return _unary(x, fwd, dfdx, "leaky_relu")


# Bernoulli numbers B_2, B_4, ..., B_16 of the asymptotic series below
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510])


def _polygamma_np(x: np.ndarray, order: int) -> np.ndarray:
    """Digamma psi (order 0) or trigamma psi' (order 1) of x > 0.

    psi(x) = psi(x + 10) - sum_k 1/(x + k) and psi'(x) = psi'(x + 10) + sum_k
    1/(x + k)**2 over k = 0..9, summed smallest term first. At y = x + 10 the
    asymptotic series in w = 1/y**2 is psi(y) = log y - 1/(2y) - sum_n
    B_2n/(2n) w**n and psi'(y) = (1 + 1/(2y) + sum_n B_2n w**n) / y.
    """
    shift = sum(1.0 / (x + float(k)) ** (order + 1) for k in range(9, -1, -1))
    y = x + 10.0
    w = 1.0 / (y * y)
    series = np.zeros_like(shift)
    for c in (_BERNOULLI / np.arange(2, 17, 2) if order == 0 else _BERNOULLI)[::-1]:
        series += c
        series *= w
    if order == 0:
        return np.log(y) - (0.5 / y + series) - shift
    return (1.0 + 0.5 / y + series) / y + shift


def digamma(x) -> Tensor:
    """Digamma for strictly positive inputs; d/dx is trigamma."""
    return _unary(x, lambda d: _polygamma_np(d, 0), lambda d, _: _polygamma_np(d, 1), "digamma")


# ---------------------------------------------------------------------------
# Structural ops


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    return _make("matmul", a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def _csr_view(s: SparseMatrix, transposed: bool = False) -> _sp.csr_matrix:
    """The compiled kernel's CSR matrix over s's arrays, or its transpose, each made once per matrix."""
    if s._spmm_view is None:
        s._spmm_view = _sp.csr_matrix((s.values, s.indices, s.indptr), shape=s.shape)
    if transposed and s._spmm_view_t is None:
        s._spmm_view_t = s._spmm_view.T.tocsr()
    return s._spmm_view_t if transposed else s._spmm_view


def spmm(s: SparseMatrix, b) -> Tensor:
    """Sparse @ dense. Gradient flows to the dense operand only.

    Backward multiplies by the sparse operand's transpose, scipy's O(nnz)
    CSR transpose of the kernel's view, cached beside it: a feature matrix
    is not symmetric.
    """
    if not isinstance(s, SparseMatrix):
        raise UsageError("spmm: first operand must be a SparseMatrix")
    b = as_tensor(b)
    if b.data.ndim != 2 or s.shape[1] != b.shape[0]:
        raise ShapeError(f"spmm: {s.shape} @ {b.shape}")
    return _make("spmm", np.asarray(_csr_view(s) @ b.data), (b, lambda g: _csr_view(s, transposed=True) @ g))


def transpose(x) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: expected matrix, got shape {x.shape}")
    return _make("transpose", np.ascontiguousarray(x.data.T), (x, lambda g: g.T))


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    return _make(
        "sum_all", np.asarray(x.data.sum()), (x, lambda g: np.broadcast_to(g, x.shape).astype(np.float64))
    )


def row_cumprod(x) -> Tensor:
    """Cumulative product along axis 1. Inputs must be nonzero."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"row_cumprod: expected matrix, got shape {x.shape}")
    out = np.cumprod(x.data, axis=1)

    def vjp(g: np.ndarray) -> np.ndarray:  # dL/dx_j = sum_{k >= j} g_k y_k / x_j
        return np.flip(np.cumsum(np.flip(g * out, axis=1), axis=1), axis=1) / x.data

    return _make("row_cumprod", out, (x, vjp))


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only strictly inside."""
    x = as_tensor(x)
    if not lo < hi:
        raise UsageError(f"clip: lo {lo} must be < hi {hi}")
    mask = (x.data > lo) & (x.data < hi)
    return _make("clip", np.clip(x.data, lo, hi), (x, lambda g: g * mask))


def dropout(x, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout: zero entries w.p. rate, scale the rest by 1/(1-rate)."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise UsageError(f"dropout: rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _make("dropout", x.data * mask, (x, lambda g: g * mask))


# Threads that run the fused likelihoods' row blocks: every CPU this process may use.
BLOCK_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _sum_blocks(n: int, rows: int, width: int, partial_shape: tuple, block) -> float:
    """Sum block(a, b, scratch, partial) over the row blocks [a, b) of n rows, `rows` at a time.

    A block returns its loss, its partial gradient (written into `partial`,
    shaped partial_shape) and the array to add that to; rows no other block
    touches it writes itself. Up to BLOCK_WORKERS blocks run at once on
    threads, each in a copy of the caller's contextvars context (np.errstate
    lives there). Their buffers (`scratch` is three of rows * width) belong to
    the calling thread: large allocations made on the workers stay in glibc's
    per-thread arenas and raise peak RSS. The calling thread adds the results
    in block order, so the bits do not depend on the worker count. A block's
    exception is raised once the blocks in flight are done.
    """
    from concurrent.futures import ThreadPoolExecutor  # only training walks blocks

    starts = range(0, n, rows)
    workers = max(1, min(BLOCK_WORKERS, len(starts)))
    scratch = np.empty((workers, 3, rows * width))
    partials = np.empty((workers, *partial_shape))
    total, in_flight = 0.0, []
    with ThreadPoolExecutor(workers) as pool:
        for i, a in enumerate(starts):
            run, slot = contextvars.copy_context().run, i % workers
            in_flight.append(pool.submit(run, block, a, min(a + rows, n), scratch[slot], partials[slot]))
            # the oldest block is added once the next needs its buffers, all after the last
            while len(in_flight) == workers or (in_flight and i == len(starts) - 1):
                loss, partial, into = in_flight.pop(0).result()
                total += loss
                into += partial
    return total


def sparse_dropout(x: SparseMatrix, rate: float, rng: np.random.Generator) -> SparseMatrix:
    """Inverted dropout of a constant sparse matrix, rate in (0, 1), with one draw per stored entry.

    A dropped entry stays stored with value 0, so the pattern is unchanged.
    """
    return x.with_values(x.values * ((rng.random(x.nnz) >= rate) / (1.0 - rate)))


def link_bce_sum(left, right, positives: SparseMatrix, pos_weight: float) -> Tensor:
    """Weighted BCE of X = left @ right.T summed over all N x N pairs, X never formed.

    A pair's loss is -[w y log sigmoid(x) + (1 - y) log(1 - sigmoid(x))],
    with w = pos_weight and targets Y the pattern of `positives` (its values
    are not read) plus the diagonal. X and `positives` must be symmetric:
    the pairs are walked in row blocks [a, b) over columns [a, N), so only
    the upper triangle and the diagonal are computed, each pair above the
    diagonal counted twice. The blocks run on BLOCK_WORKERS threads and are
    summed in block order (see _sum_blocks), so the result is deterministic
    and independent of the worker count. Memory is O(BLOCK_WORKERS *
    (LINK_BLOCK_ELEMENTS + N * F) + N * F).

    Both gradients are accumulated in the forward pass, so backward only
    scales them: left gets G @ right and right gets G.T @ left, with G the
    weighted derivative on the upper triangle and diagonal. They give
    the full-grid gradient of any parameter through which X is symmetric
    (left is right, or left = z @ S with S symmetric and right = z), not the
    gradient of left and right taken as independent inputs.
    """
    left, right = as_tensor(left), as_tensor(right)
    n = left.shape[0] if left.data.ndim == 2 else -1
    if n < 0 or left.shape != right.shape or positives.shape != (n, n):
        raise ShapeError(
            f"link_bce_sum: left {left.shape}, right {right.shape}, positives {positives.shape}"
        )
    grad_left = np.zeros_like(left.data)
    grad_right = np.zeros_like(right.data)
    indptr, indices = positives.indptr, positives.indices

    def block(a: int, b: int, scratch: np.ndarray, partial: np.ndarray):
        m, cols = b - a, n - a
        x, loss, d = (buf[: m * cols].reshape(m, cols) for buf in scratch)
        np.matmul(left.data[a:b], right.data[a:].T, out=x)
        # targets in the block: train edges above the diagonal, then the diagonal
        r = np.repeat(np.arange(m), np.diff(indptr[a : b + 1]))
        c = indices[indptr[a] : indptr[b]] - a
        above = c > r
        pr = np.concatenate([r[above], np.arange(m)])
        pc = np.concatenate([c[above], np.arange(m)])
        # pair weights in the square [a, b) x [a, b): 2 above the diagonal, 1 on it
        w = np.triu(np.full((m, m), 2.0), 1)
        np.fill_diagonal(w, 1.0)

        _softplus_np(x, out=loss, scratch=d)  # -log(1 - sigmoid(x)) for a non-edge
        loss[pr, pc] = pos_weight * _softplus_np(-x[pr, pc])  # -w log sigmoid(x)
        loss[:, :m] *= w
        block_total = float(loss[:, :m].sum()) + 2.0 * float(loss[:, m:].sum())

        sigmoid_np(x, out=d)
        d[pr, pc] = pos_weight * (d[pr, pc] - 1.0)
        d[:, :m] *= w
        d[:, m:] *= 2.0
        grad_left[a:b] += d @ right.data[a:]
        return block_total, np.matmul(d.T, left.data[a:b], out=partial[a:]), grad_right[a:]

    total = _sum_blocks(n, max(1, min(n, LINK_BLOCK_ELEMENTS // n)), n, left.shape, block)
    return _make(
        "link_bce_sum", np.asarray(total), (left, lambda g: g * grad_left), (right, lambda g: g * grad_right)
    )


def feature_bce_sum(z, w, targets: SparseMatrix) -> Tensor:
    """BCE of X = z @ w against `targets`, summed over all N x D entries, X never formed.

    An entry's loss -[y log sigmoid(x) + (1 - y) log(1 - sigmoid(x))] is
    softplus(x) - y * x for any target y, so each row block [a, b) of
    LINK_BLOCK_ELEMENTS // D rows adds the sum of softplus over its logits
    minus y * x over its stored targets. As in link_bce_sum, the blocks run on
    BLOCK_WORKERS threads and are summed in block order, memory is
    O(BLOCK_WORKERS * (LINK_BLOCK_ELEMENTS + K * D) + N * K), and both
    gradients are accumulated in the forward pass: z gets G @ w.T and w gets
    z.T @ G, with G = sigmoid(X) - Y.
    """
    z, w = as_tensor(z), as_tensor(w)
    n, d = targets.shape
    if z.data.ndim != 2 or z.shape[0] != n or w.shape != (z.shape[1], d):
        raise ShapeError(f"feature_bce_sum: z {z.shape}, w {w.shape}, targets {targets.shape}")
    grad_z = np.empty_like(z.data)
    grad_w = np.zeros_like(w.data)
    indptr, indices, values = targets.indptr, targets.indices, targets.values

    def block(a: int, b: int, scratch: np.ndarray, partial: np.ndarray):
        x, loss, g = (buf[: (b - a) * d].reshape(b - a, d) for buf in scratch)
        np.matmul(z.data[a:b], w.data, out=x)
        r = np.repeat(np.arange(b - a), np.diff(indptr[a : b + 1]))
        c = indices[indptr[a] : indptr[b]]
        y = values[indptr[a] : indptr[b]]
        block_total = float(_softplus_np(x, out=loss, scratch=g).sum()) - float(y @ x[r, c])
        sigmoid_np(x, out=g)
        g[r, c] -= y
        grad_z[a:b] = g @ w.data.T
        return block_total, np.matmul(z.data[a:b].T, g, out=partial), grad_w

    total = _sum_blocks(n, max(1, min(n, LINK_BLOCK_ELEMENTS // d)), d, w.shape, block)
    return _make("feature_bce_sum", np.asarray(total), (z, lambda g: g * grad_z), (w, lambda g: g * grad_w))


# ---------------------------------------------------------------------------
# Optimizer


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

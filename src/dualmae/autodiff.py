"""Reverse-mode automatic differentiation over dense numpy arrays.

Only the operations the encoder/decoder stack actually needs are provided.
Every forward result is checked finite so a numerical blow-up surfaces at
the op that produced it instead of as a NaN loss many steps later. The
graph is recorded implicitly: each tensor keeps references to its parents
and a closure that pushes its gradient back to them; ``backward`` walks the
graph once in reverse topological order.

``requires_grad`` is read in two places only. ``_make`` records a node
(parents plus closure) when some parent requires a gradient, and
``Tensor._accumulate`` drops any gradient handed to a tensor that does not.
So a backward closure states only its math: it computes a gradient for
every parent and hands each to ``_accumulate``. Each closure takes no
arguments, reads the output gradient from the node's own ``grad`` and is
stored in ``_backward``, which ``backward`` calls once per node; code that
times ops wraps that attribute and relies on this shape. Interior nodes
keep their ``grad`` after the sweep.

Every affine map of the model is one ``linear`` node. ``embedding_lookup``
is a general row gather: besides the token tables, it picks the loss rows
out of flattened hidden states before the vocabulary projection.

Training runs in float32; gradient checking builds the same graph in
float64. Ops never change dtype on their own beyond numpy's usual
promotion rules.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf."""


class MaskedRowError(ValueError):
    """A softmax row had every column masked out."""


class MaskFormatError(ValueError):
    """A visibility mask is not a boolean array."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block. Forward values are unchanged."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op} produced a non-finite value")


class Tensor:
    """A dense array plus the bookkeeping needed for the backward sweep."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g


def parameter(data, dtype=np.float32) -> Tensor:
    """A leaf tensor that collects gradients."""
    t = Tensor(np.array(data, dtype=dtype), requires_grad=True)
    return t


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def grad_or_zeros(t: Tensor) -> np.ndarray:
    """The accumulated gradient, or zeros if the loss never touched ``t``."""
    if t.grad is None:
        return np.zeros_like(t.data)
    return t.grad


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _scatter(like: np.ndarray, index, g: np.ndarray) -> np.ndarray:
    """Zeros shaped like ``like`` with ``g`` written at ``index``: the
    gradient of reading ``like[index]``."""
    full = np.zeros_like(like)
    full[index] = g
    return full


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo broadcasting: reduce ``g`` back to ``shape`` by summing."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Run the reverse sweep from a scalar loss.

    Visits every recorded op exactly once; gradients accumulate into the
    ``grad`` field of each tensor that requires them.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward expects a scalar, got shape {loss.data.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss._accumulate(np.ones((), dtype=loss.data.dtype))
    for node in reversed(order):
        if node._backward is not None:
            node._backward()


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def back():
        g = _out.grad
        a._accumulate(_sum_to_shape(g, a.data.shape))
        b._accumulate(_sum_to_shape(g, b.data.shape))

    _out = _make(data, (a, b), back, "add")
    return _out


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def back():
        g = _out.grad
        a._accumulate(_sum_to_shape(g * b.data, a.data.shape))
        b._accumulate(_sum_to_shape(g * a.data, b.data.shape))

    _out = _make(data, (a, b), back, "mul")
    return _out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * np.asarray(c, dtype=a.data.dtype)

    def back():
        a._accumulate(_out.grad * np.asarray(c, dtype=a.data.dtype))

    _out = _make(data, (a,), back, "scale")
    return _out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two operands of equal rank (at least 2) and equal
    leading dims, as attention's stacked per-head products are. No
    broadcasting; an affine map is ``linear``."""
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise ShapeError(f"matmul operands must share a rank of at least 2: {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul leading dims differ: {a.data.shape} @ {b.data.shape}")
    data = np.matmul(a.data, b.data)

    def back():
        g = _out.grad
        a._accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    _out = _make(data, (a, b), back, "matmul")
    return _out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map ``x @ w + b``: x is (..., d), w is (d, e), b is (e,).

    One node instead of a matmul and an add. The forward product stays
    stacked, so each sentence of a batch is multiplied on its own and a
    batched result equals the sentence computed alone, bit for bit. The
    weight gradient is one 2-D product over every row of ``x`` and the bias
    gradient one row sum.
    """
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"linear expects x with ndim >= 2 and a 2D weight, got {x.data.shape} and {w.data.shape}")
    d, e = w.data.shape
    if x.data.shape[-1] != d or b.data.shape != (e,):
        raise ShapeError(f"linear shapes do not line up: {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    data = np.matmul(x.data, w.data)
    data += b.data

    def back():
        g = _out.grad
        x._accumulate(np.matmul(g, w.data.T))
        g2 = g.reshape(-1, e)
        w._accumulate(x.data.reshape(-1, d).T @ g2)
        b._accumulate(g2.sum(axis=0))

    _out = _make(data, (x, w, b), back, "linear")
    return _out


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def back():
        a._accumulate(np.transpose(_out.grad, inverse))

    _out = _make(data, (a,), back, "transpose")
    return _out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)

    def back():
        a._accumulate(_out.grad.reshape(a.data.shape))

    _out = _make(data, (a,), back, "reshape")
    return _out


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def back():
        for p, g in zip(parts, np.split(_out.grad, splits, axis=axis)):
            p._accumulate(g)

    _out = _make(data, tuple(parts), back, "concat")
    return _out


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """A contiguous slice along one axis."""
    if start < 0 or start + length > a.data.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}] out of range for axis {axis} of {a.data.shape}"
        )
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    data = a.data[index]

    def back():
        a._accumulate(_scatter(a.data, index, _out.grad))

    _out = _make(data, (a,), back, "narrow")
    return _out


def select_index(a: Tensor, index: int, axis: int) -> Tensor:
    """Drop one axis by picking a single index along it."""
    data = np.take(a.data, index, axis=axis)
    where = [slice(None)] * a.data.ndim
    where[axis] = index

    def back():
        a._accumulate(_scatter(a.data, tuple(where), _out.grad))

    _out = _make(data, (a,), back, "select_index")
    return _out


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a (V, d) table by integer id; ids may have any shape."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding ids must be integers")
    if table.data.ndim != 2:
        raise ShapeError("embedding table must be 2D")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError("embedding id out of range")
    data = table.data[ids]

    def back():
        g = np.zeros_like(table.data)
        np.add.at(g, ids.reshape(-1), _out.grad.reshape(-1, table.data.shape[1]))
        table._accumulate(g)

    _out = _make(data, (table,), back, "embedding_lookup")
    return _out


def sum_all(a: Tensor) -> Tensor:
    data = a.data.sum()

    def back():
        a._accumulate(np.full(a.data.shape, _out.grad, dtype=a.data.dtype))

    _out = _make(np.asarray(data), (a,), back, "sum_all")
    return _out


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd / np.sqrt(2.0).astype(xd.dtype)))
    data = xd * cdf

    def back():
        pdf = np.exp(-0.5 * xd * xd) / np.sqrt(2.0 * np.pi).astype(xd.dtype)
        x._accumulate(_out.grad * (cdf + xd * pdf))

    _out = _make(data.astype(xd.dtype), (x,), back, "gelu")
    return _out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    if gain.data.shape != (x.data.shape[-1],) or bias.data.shape != (x.data.shape[-1],):
        raise ShapeError("layer_norm gain/bias must match the last axis")
    xd = x.data
    mean = xd.mean(axis=-1, keepdims=True)
    centered = xd - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=xd.dtype))
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def back():
        g = _out.grad
        gain._accumulate(np.sum(g * xhat, axis=tuple(range(g.ndim - 1))))
        bias._accumulate(np.sum(g, axis=tuple(range(g.ndim - 1))))
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        x._accumulate((gx - m1 - xhat * m2) * inv)

    _out = _make(data, (x, gain, bias), back, "layer_norm")
    return _out


# ---------------------------------------------------------------------------
# attention-specific ops


def masked_softmax(scores: Tensor, visible: np.ndarray) -> Tensor:
    """Softmax over the last axis under a boolean visibility mask.

    ``visible`` is plain bool data, broadcastable to ``scores``; True marks
    a column the row may read. Any other dtype raises MaskFormatError, so an
    additive {0, -inf} mask is never mistaken for "everything visible".
    Blocked positions get probability exactly 0. A row with every column
    blocked raises MaskedRowError rather than returning NaN.
    """
    visible = np.asarray(visible)
    if visible.dtype != np.bool_:
        raise MaskFormatError(f"visibility mask must be bool, got {visible.dtype}")
    try:
        visible = np.broadcast_to(visible, scores.data.shape)
    except ValueError as e:
        raise ShapeError(f"mask shape {visible.shape} does not broadcast to {scores.data.shape}") from e
    if not visible.any(axis=-1).all():
        raise MaskedRowError("softmax row with all columns masked")
    sd = scores.data
    neg = np.asarray(-np.inf, dtype=sd.dtype)
    rowmax = np.max(np.where(visible, sd, neg), axis=-1, keepdims=True)
    # exp only where visible: a blocked column may hold an arbitrarily large
    # score and must not overflow on the discarded branch
    shifted = np.where(visible, sd - rowmax, np.asarray(0.0, dtype=sd.dtype))
    expd = np.exp(shifted) * visible
    denom = expd.sum(axis=-1, keepdims=True)
    data = expd / denom

    def back():
        g = _out.grad
        inner = np.sum(g * data, axis=-1, keepdims=True)
        scores._accumulate(data * (g - inner))

    _out = _make(data, (scores,), back, "masked_softmax")
    return _out


def cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over weight-1 rows.

    ``logits`` is (T, V); ``targets`` and ``weights`` have length T, weights
    in {0, 1}. Rows with weight 0 contribute nothing and receive an exactly
    zero gradient. All-zero weights are a caller error, not a silent 0.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2D logits, got {logits.data.shape}")
    targets = np.asarray(targets)
    weights = np.asarray(weights)
    T, V = logits.data.shape
    if targets.shape != (T,) or weights.shape != (T,):
        raise ShapeError("targets and weights must each have one entry per logit row")
    if not np.all((weights == 0) | (weights == 1)):
        raise ValueError("weights must be 0 or 1")
    rows = np.flatnonzero(weights)
    if rows.size == 0:
        raise ValueError("cross_entropy needs at least one weight-1 position")
    picked = targets[rows]
    if picked.min() < 0 or picked.max() >= V:
        raise ValueError("weighted target id outside the vocabulary")
    z = logits.data[rows]
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    logz = np.log(np.sum(np.exp(shifted), axis=-1)) + zmax[:, 0]
    nll = logz - z[np.arange(rows.size), picked]
    data = np.asarray(nll.mean(), dtype=logits.data.dtype)

    def back():
        soft = np.exp(shifted - (logz - zmax[:, 0])[:, None])
        soft[np.arange(rows.size), picked] -= 1.0
        logits._accumulate(_scatter(logits.data, rows, soft * (_out.grad / rows.size)))

    _out = _make(data, (logits,), back, "cross_entropy")
    return _out

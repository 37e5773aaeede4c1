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
So a backward closure states only its math: it takes the output
gradient, computes a gradient for every parent and hands each to
``_accumulate``. ``_make`` stores in ``_backward`` a callable with no
arguments that reads the node's own ``grad`` and hands it to the closure;
``backward`` calls it once per node, and code that times ops wraps that
attribute and relies on this shape. Interior nodes keep their ``grad``
after the sweep.

Gradient ownership: an interior node takes the first gradient it is
handed as its ``grad``, without a copy or a zero-fill, and a later one is
added into a new array (``grad = grad + g``). A parameter (a leaf that
requires a gradient) copies the first gradient it is handed, so it always
owns its ``grad``. Nothing writes into a ``grad`` in place except
``optim.clip_global_norm``, which scales parameter gradients only, so no
write can reach another tensor's gradient. Every handed-over gradient must
match its tensor's shape and dtype exactly.

A closure holds its parents but never its output: ``_backward`` reaches
the node through a ``weakref``, so references only point from a node
towards the leaves and a graph holds no reference cycle. Reference
counting frees it, activations and gradients alike, the moment its last
outside reference goes: when the caller drops the loss, or when an
exception that abandoned the graph halfway is discarded. The cyclic
collector never has to run for it.

Every affine map of the model is one ``linear`` node. ``embedding_lookup``
gathers rows that may repeat, the token and position tables' case, and
accumulates its gradient with ``np.add.at``. ``gather_rows`` and
``scatter_rows`` move rows between a packed (N, d) stream and a (B, L)
grid by unique flat index, so their backward is a plain assignment into
one fresh buffer: they carry the real rows past the pads, narrow a stream
to the rows a block's queries or a loss read, and lay queries, keys and
values out for attention's per-sentence products.

Training runs in float32; gradient checking builds the same graph in
float64. Dtype promotion is not supported: every tensor an op records as
a parent that requires a gradient has the output's dtype, and ``_make``
raises ``TypeError`` at the op that would promote, so a gradient never
has to change dtype on its way back.
"""

from __future__ import annotations

import contextlib
import math
import weakref
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-5  # the one epsilon of every layer norm, encoder and decoder alike


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
    """Disable graph recording inside the block. Forward values are unchanged.

    Only ``_make`` reads the switch: a parameter created inside the block
    still requires a gradient and collects one once it is used outside.
    """
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced a non-finite value")


class Tensor:
    """A dense array plus the bookkeeping needed for the backward sweep."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
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
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {self.data.shape}")
        if g.dtype != self.data.dtype:
            raise TypeError(f"gradient of dtype {g.dtype} for a tensor of dtype {self.data.dtype}")
        if self.grad is None:
            self.grad = np.array(g) if self._backward is None else g
        else:
            self.grad = self.grad + g


def parameter(data, dtype=np.float32) -> Tensor:
    """A leaf tensor that collects gradients."""
    t = Tensor(np.array(data, dtype=dtype), requires_grad=True)
    return t


def grad_or_zeros(t: Tensor) -> np.ndarray:
    """The accumulated gradient, or zeros if the loss never touched ``t``."""
    if t.grad is None:
        return np.zeros_like(t.data)
    return t.grad


def _make(
    data: np.ndarray, parents: Sequence[Tensor], backward_fn: Callable[[np.ndarray], None], op: str
) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        for p in parents:
            if p.requires_grad and p.data.dtype != data.dtype:
                raise TypeError(f"{op} turns a {p.data.dtype} operand into {data.dtype}")
        out.requires_grad = True
        out._parents = tuple(parents)
        ref = weakref.ref(out)
        out._backward = lambda: backward_fn(ref().grad)
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

    def back(g):
        a._accumulate(_sum_to_shape(g, a.data.shape))
        b._accumulate(_sum_to_shape(g, b.data.shape))

    return _make(data, (a, b), back, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def back(g):
        a._accumulate(_sum_to_shape(g * b.data, a.data.shape))
        b._accumulate(_sum_to_shape(g * a.data, b.data.shape))

    return _make(data, (a, b), back, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * np.asarray(c, dtype=a.data.dtype)

    def back(g):
        a._accumulate(g * np.asarray(c, dtype=a.data.dtype))

    return _make(data, (a,), back, "scale")


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

    def back(g):
        a._accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(data, (a, b), back, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map ``x @ w + b``: x is (..., d), w is (d, e), b is (e,).

    One node instead of a matmul and an add. The forward is one 2-D
    product over ``x`` read as (n, d) rows, and a 1-row product runs as a
    2-row one on the row repeated, the copy dropped after. With OpenBLAS
    (checked on 0.3.31 at the desk widths) a row's bits in a product of two
    or more rows do not depend on how many rows share it, so a row's bits
    never depend on its row count or on how its rows are stacked, packed
    (n, d) or on a (B, L, d) grid: a sentence's rows get the same bits
    alone as in a batch. The weight gradient is one 2-D product over every
    row of ``x`` and the bias gradient one row sum.
    """
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"linear expects x with ndim >= 2 and a 2D weight, got {x.data.shape} and {w.data.shape}")
    d, e = w.data.shape
    if x.data.shape[-1] != d or b.data.shape != (e,):
        raise ShapeError(f"linear shapes do not line up: {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    rows = x.data.reshape(-1, d)
    n = rows.shape[0]
    # a 1-row product would take the matrix-vector path, which rounds differently
    data = ((np.repeat(rows, 2, axis=0) if n == 1 else rows) @ w.data)[:n]
    data += b.data
    data = data.reshape(*x.data.shape[:-1], e)

    def back(g):
        x._accumulate(np.matmul(g, w.data.T))
        g2 = g.reshape(-1, e)
        w._accumulate(x.data.reshape(-1, d).T @ g2)
        b._accumulate(g2.sum(axis=0))

    return _make(data, (x, w, b), back, "linear")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(a.data, axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def back(g):
        a._accumulate(np.transpose(g, inverse))

    return _make(data, (a,), back, "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)

    def back(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(data, (a,), back, "reshape")


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def back(g):
        for p, part in zip(parts, np.split(g, splits, axis=axis)):
            p._accumulate(part)

    return _make(data, tuple(parts), back, "concat")


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

    def back(g):
        a._accumulate(_scatter(a.data, index, g))

    return _make(data, (a,), back, "narrow")


def select_index(a: Tensor, index: int, axis: int) -> Tensor:
    """Drop one axis by picking a single index along it."""
    data = np.take(a.data, index, axis=axis)
    where = [slice(None)] * a.data.ndim
    where[axis] = index

    def back(g):
        a._accumulate(_scatter(a.data, tuple(where), g))

    return _make(data, (a,), back, "select_index")


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

    def back(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        table._accumulate(full)

    return _make(data, (table,), back, "embedding_lookup")


def _row_index(rows, count: int, op: str) -> np.ndarray:
    """``rows`` checked as strictly ascending, so unique, integer indices
    into ``count`` rows."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ShapeError(f"{op} rows must be a 1-D integer array, got {rows.dtype} of shape {rows.shape}")
    if rows.size and (rows[0] < 0 or rows[-1] >= count):
        raise ShapeError(f"{op} row index out of range for {count} rows")
    if not (rows[1:] > rows[:-1]).all():
        raise ShapeError(f"{op} rows must be strictly ascending: no index may repeat")
    return rows


def gather_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """Rows of ``a`` picked by flat index: the (n, d) array ``A[rows]``.

    ``a`` is (..., d) and ``A`` is it read as a stack of its last axis, one
    row per entry of the leading axes, so an index into a (B, L, d) tensor
    names a cell of its (B, L) grid. The indices must be strictly
    ascending, so none repeats, and backward writes each gradient row to
    its place in one fresh buffer.
    """
    d = a.data.shape[-1]
    flat = a.data.reshape(-1, d)
    count = flat.shape[0]
    rows = _row_index(rows, count, "gather_rows")
    data = flat[rows]

    def back(g):
        full = np.zeros((count, d), dtype=a.data.dtype)
        full[rows] = g
        a._accumulate(full.reshape(a.data.shape))

    return _make(data, (a,), back, "gather_rows")


def scatter_rows(a: Tensor, rows: np.ndarray, shape: tuple[int, ...]) -> Tensor:
    """The inverse placement: an array of ``shape`` that, read in C order
    as rows of the (n, d) ``a``'s width, holds row i of ``a`` at row
    ``rows[i]`` and exact zeros everywhere else. So ``shape`` may be a
    (B, L) grid plus (d,), or plus any split of d such as attention's
    (heads, head_dim). The indices must be strictly ascending."""
    if a.data.ndim != 2:
        raise ShapeError(f"scatter_rows expects (n, d) rows, got {a.data.shape}")
    n, d = a.data.shape
    count, rest = divmod(math.prod(shape), d)
    if rest:
        raise ShapeError(f"scatter_rows cannot lay rows of width {d} into shape {shape}")
    rows = _row_index(rows, count, "scatter_rows")
    if rows.size != n:
        raise ShapeError(f"scatter_rows got {rows.size} indices for {n} rows")
    full = np.zeros((count, d), dtype=a.data.dtype)
    full[rows] = a.data

    def back(g):
        a._accumulate(g.reshape(count, d)[rows])

    return _make(full.reshape(shape), (a,), back, "scatter_rows")


def sum_all(a: Tensor) -> Tensor:
    data = a.data.sum()

    def back(g):
        a._accumulate(np.full(a.data.shape, g, dtype=a.data.dtype))

    return _make(np.asarray(data), (a,), back, "sum_all")


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd / np.sqrt(2.0).astype(xd.dtype)))
    data = xd * cdf

    def back(g):
        pdf = np.exp(-0.5 * xd * xd) / np.sqrt(2.0 * np.pi).astype(xd.dtype)
        x._accumulate(g * (cdf + xd * pdf))

    return _make(data, (x,), back, "gelu")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (with
    ``LAYER_NORM_EPS`` added to the variance), then affine."""
    if gain.data.shape != (x.data.shape[-1],) or bias.data.shape != (x.data.shape[-1],):
        raise ShapeError("layer_norm gain/bias must match the last axis")
    xd = x.data
    mean = xd.mean(axis=-1, keepdims=True)
    centered = xd - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(LAYER_NORM_EPS, dtype=xd.dtype))
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def back(g):
        gain._accumulate(np.sum(g * xhat, axis=tuple(range(g.ndim - 1))))
        bias._accumulate(np.sum(g, axis=tuple(range(g.ndim - 1))))
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        x._accumulate((gx - m1 - xhat * m2) * inv)

    return _make(data, (x, gain, bias), back, "layer_norm")


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
    sd = scores.data
    try:
        fits = np.broadcast_shapes(visible.shape, sd.shape) == sd.shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"mask shape {visible.shape} does not broadcast to {sd.shape}")
    # each row of the broadcast mask is a row of the mask itself, so the
    # check runs on the mask's own shape
    visible = np.atleast_1d(visible)
    if not visible.any(axis=-1).all():
        raise MaskedRowError("softmax row with all columns masked")
    # a blocked column reads -inf, whose exp is exactly 0: however large its
    # score, it can neither set the row max nor overflow
    data = np.where(visible, sd, np.asarray(-np.inf, dtype=sd.dtype))
    data -= data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def back(g):
        inner = np.sum(g * data, axis=-1, keepdims=True)
        scores._accumulate(data * (g - inner))

    return _make(data, (scores,), back, "masked_softmax")


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
    keep = weights == 1
    n = int(np.count_nonzero(keep))
    if n == 0:
        raise ValueError("cross_entropy needs at least one weight-1 position")
    picked = targets[keep]
    if picked.min() < 0 or picked.max() >= V:
        raise ValueError("weighted target id outside the vocabulary")
    # every row is reduced on its own, so a weight-1 row gets the bits it
    # would get alone and all-one weights copy no rows; weight-0 rows read
    # target 0, drop out of the mean and get gradient rows of exactly 0
    every = np.arange(T)
    safe = np.where(keep, targets, 0)
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    logz = np.log(np.sum(np.exp(shifted), axis=-1)) + zmax[:, 0]
    nll = logz - z[every, safe]
    data = np.asarray(nll[keep].mean(), dtype=logits.data.dtype)

    def back(g):
        soft = np.exp(shifted - (logz - zmax[:, 0])[:, None])
        soft[every, safe] -= 1.0
        soft[~keep] = 0.0
        soft *= g / n
        logits._accumulate(soft)

    return _make(data, (logits,), back, "cross_entropy")

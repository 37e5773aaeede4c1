"""Model configuration, parameter store, and shared transformer blocks.

Both the deep encoder and the shallow reconstruction decoder are built
from the same post-layer-norm block: attention, add & normalize, GELU
feed-forward, add & normalize. The block takes a query stream and a
key/value stream (the same tensor for self-attention) and a boolean
visibility mask. The word-embedding table is shared between
the encoder input, the decoder input, and the output projection; position
tables are separate per side.

A stream is packed: (N, d), the rows of the (B, L) grid cells a ``Rows``
names, with no pad rows at all. A block runs its position-wise work
(projections, residuals, layer norms, feed-forward) on the rows it is
given. Only attention's per-sentence products (the scores, the masked
softmax and ``weights @ v``) need a grid: the projected keys and values
are scattered into the (B, L) grid, with exact zeros in the cells the
stream lacks, and the projected queries into a (B, Lq) slot grid that
holds each sentence's query rows in order, Lq being the most query rows
of one sentence (at least 2). Each operand is scattered once and
transposed once into its per-head layout, and the attended context is
gathered back to the query rows right after ``weights @ v``. A key/value
stream must therefore hold every cell that the mask lets a query read,
and the query stream may hold fewer: the last block of the encoder
queries position 0 and the cells whose states a caller reads, the last
decoder layer its loss rows, and their scores, softmax and
``weights @ v`` run on those rows alone. A block returns its query rows,
still packed, and that is what the encoder and the decoders hand on: no
state goes back to the grid. ``linear`` gives a row the same
bits whatever its row count, and at the desk widths attention's batched
products do the same for a query row whatever its slot count (see
``attention``), so narrowing the query rows changes no bit of theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_STD = 0.02


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 12
    hidden_dim: int = 768
    heads: int = 12
    ffn_dim: int = 3072
    max_len: int = 512
    vocab_size: int = 30522

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("encoder needs at least one layer")
        for name in ("hidden_dim", "heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.hidden_dim % self.heads != 0:
            raise ValueError("hidden_dim must divide evenly across heads")
        if self.vocab_size < 6:
            raise ValueError("vocabulary must hold the reserved ids plus content")
        if self.max_len < 3:
            raise ValueError("max_len too small for [CLS] content [SEP]")


@dataclass(frozen=True)
class DecoderConfig:
    mode: str = "enhanced"
    layers: int = 1
    heads: int = 12

    def __post_init__(self):
        if self.mode not in ("basic", "enhanced"):
            raise ValueError(f"unknown decoding mode: {self.mode!r}")
        if self.layers < 1:
            raise ValueError("decoder needs at least one layer")
        if self.heads < 1:
            raise ValueError(f"decoder heads must be at least 1, got {self.heads}")
        if self.mode == "enhanced" and self.layers != 1:
            raise ValueError("enhanced mode uses exactly one decoder layer")


def _truncated_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    """Normal(0, std) redrawn until every sample lies within two deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


# named parameter tensors, in ``param_shapes`` order: the checkpoint payload's order
ModelParams = dict[str, Tensor]


def _block_param_shapes(prefix: str, d: int, ffn: int) -> list[tuple[str, tuple[int, ...]]]:
    return [
        (f"{prefix}.attn.wq", (d, d)),
        (f"{prefix}.attn.bq", (d,)),
        (f"{prefix}.attn.wk", (d, d)),
        (f"{prefix}.attn.bk", (d,)),
        (f"{prefix}.attn.wv", (d, d)),
        (f"{prefix}.attn.bv", (d,)),
        (f"{prefix}.attn.wo", (d, d)),
        (f"{prefix}.attn.bo", (d,)),
        (f"{prefix}.ln1.gain", (d,)),
        (f"{prefix}.ln1.bias", (d,)),
        (f"{prefix}.ffn.w1", (d, ffn)),
        (f"{prefix}.ffn.b1", (ffn,)),
        (f"{prefix}.ffn.w2", (ffn, d)),
        (f"{prefix}.ffn.b2", (d,)),
        (f"{prefix}.ln2.gain", (d,)),
        (f"{prefix}.ln2.bias", (d,)),
    ]


def param_shapes(enc: EncoderConfig, dec: DecoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    d, ffn = enc.hidden_dim, enc.ffn_dim
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("word_emb", (enc.vocab_size, d)),
        ("enc_pos", (enc.max_len, d)),
        ("dec_pos", (enc.max_len, d)),
        ("enc_emb_ln.gain", (d,)),
        ("enc_emb_ln.bias", (d,)),
    ]
    for i in range(enc.layers):
        shapes.extend(_block_param_shapes(f"enc{i}", d, ffn))
    for i in range(dec.layers):
        shapes.extend(_block_param_shapes(f"dec{i}", d, ffn))
    shapes.append(("out_bias", (enc.vocab_size,)))
    return shapes


def init_params(
    enc: EncoderConfig,
    dec: DecoderConfig,
    rng: np.random.Generator,
    dtype=np.float32,
) -> ModelParams:
    """Truncated-normal weights, zero biases, unit layer-norm gains."""
    tensors: ModelParams = {}
    for name, shape in param_shapes(enc, dec):
        if name.endswith(".gain"):
            data = np.ones(shape, dtype=dtype)
        elif name.endswith(("bias", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = _truncated_normal(rng, shape, INIT_STD, dtype)
        tensors[name] = ad.parameter(data, dtype=dtype)
    return tensors


class Rows:
    """The cells of a (B, L) grid that a packed (N, d) stream holds, in
    row-major order: row i of the stream is cell ``index[i]`` of the
    flattened grid, and ``held`` is the (B, L) bool array of those cells."""

    __slots__ = ("held", "index")

    def __init__(self, held: np.ndarray):
        self.held = np.asarray(held, dtype=bool)
        self.index = np.flatnonzero(self.held)

    @property
    def grid(self) -> tuple[int, int]:
        return self.held.shape

    def locate(self, cells: np.ndarray) -> np.ndarray:
        """The stream rows that hold the given flat cells."""
        if not self.held.reshape(-1)[cells].all():
            raise ad.ShapeError("a requested cell is not among the packed rows")
        return np.searchsorted(self.index, cells)


def _projected(params: ModelParams, prefix: str, name: str, x: Tensor, rows: Rows, heads: int) -> Tensor:
    """The ``name`` (q, k or v) projection of ``x``, taken on its packed
    rows and scattered straight into ``rows``' (B, G) grid, split into
    (B, G, heads, head_dim)."""
    y = ad.linear(x, params[f"{prefix}.attn.w{name}"], params[f"{prefix}.attn.b{name}"])
    return ad.scatter_rows(y, rows.index, (*rows.grid, heads, y.shape[-1] // heads))


def _query_slots(rows: Rows, visible: np.ndarray) -> tuple[Rows, np.ndarray]:
    """The (B, Lq) slot grid of ``rows``, a sentence's k-th row in slot k,
    Lq = max(2, most rows of one sentence), and ``visible`` narrowed to it.
    A key-row mask fits any query count as it is; a per-row mask keeps the
    rows of the query cells, and a free slot reads column 0 alone. When
    each sentence's rows are its first cells and Lq = L, as in a block
    that queries every real row, the slot grid is ``rows`` cell for cell."""
    B, L = rows.grid
    counts = rows.held.sum(axis=1)
    width = max(2, int(counts.max()))
    slots = Rows(np.arange(width) < counts[:, None])
    if visible.shape[-2] == 1:
        return slots, visible
    narrow = np.zeros((B, 1, width, L), dtype=visible.dtype)
    narrow[..., 0] = True
    cell_rows = np.broadcast_to(visible, (B, 1, L, L)).reshape(B * L, L)
    narrow.reshape(B * width, L)[slots.index] = cell_rows[rows.index]
    return slots, narrow


def attention(
    params: ModelParams,
    prefix: str,
    query_in: Tensor,
    keyvalue_in: Tensor,
    visible: np.ndarray,
    heads: int,
    *,
    rows: Rows,
    kv_rows: Rows,
) -> Tensor:
    """Multi-head scaled dot-product attention under a visibility mask.

    ``visible`` is a bool array that broadcasts against the (B, heads, L, L)
    score tensor; row i of it lists the key positions query i may read.
    It is either a key-row mask, (B, 1, 1, L), or a per-row mask whose
    heads axis is 1, (B, 1, L, L); either may have a batch axis of 1,
    shared by every sentence. ``query_in`` is packed at ``rows`` and
    ``keyvalue_in`` at ``kv_rows``, which must hold every cell ``visible``
    opens (``ShapeError`` otherwise; this covers the whole mask). The
    output is packed at ``rows``, (N, d). Only the mask rows of query
    cells are read, whatever the batch shape: a per-row mask row at a
    cell ``rows`` does not hold is never checked, even with every column
    blocked, and ``MaskedRowError`` is raised for a query row only.

    The scores, the masked softmax and ``weights @ v`` run on the query
    rows alone, laid out on the (B, Lq) slot grid of ``_query_slots``; Lq
    is at least 2 because a 1-row product takes another BLAS path
    (``linear``'s rule). A free slot's output is never gathered, so it
    sends back a zero gradient. With OpenBLAS (checked on 0.3.31) a query
    row keeps its bits on the slot grid at the desk and gradcheck head
    widths (16 in float32, 4 in float64): in the score and ``weights @ v``
    products, and in the key and value gradients, whose products lose only
    all-zero query rows. At head_dim 32 and 64 the scores differed for
    small query counts, so this exactness, like ``linear``'s row rule,
    holds at the desk widths only (``TestQuerySlotRule`` in the tests).
    """
    if (visible & ~kv_rows.held[:, None, None, :]).any():
        raise ad.ShapeError("the mask lets a query read a cell the key/value stream does not hold")
    slots, visible = _query_slots(rows, visible)
    q = ad.transpose(_projected(params, prefix, "q", query_in, slots, heads), (0, 2, 1, 3))
    k = ad.transpose(_projected(params, prefix, "k", keyvalue_in, kv_rows, heads), (0, 2, 3, 1))
    v = ad.transpose(_projected(params, prefix, "v", keyvalue_in, kv_rows, heads), (0, 2, 1, 3))
    scores = ad.scale(ad.matmul(q, k), 1.0 / np.sqrt(q.shape[-1]))
    weights = ad.masked_softmax(scores, visible)
    context = ad.reshape(ad.transpose(ad.matmul(weights, v), (0, 2, 1, 3)), (*slots.grid, -1))
    context = ad.gather_rows(context, slots.index)
    return ad.linear(context, params[f"{prefix}.attn.wo"], params[f"{prefix}.attn.bo"])


def feed_forward(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    h = ad.gelu(ad.linear(x, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"]))
    return ad.linear(h, params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])


def transformer_block(
    params: ModelParams,
    prefix: str,
    x: Tensor,
    keyvalue_in: Tensor,
    visible: np.ndarray,
    heads: int,
    *,
    rows: Rows,
    kv_rows: Rows,
) -> Tensor:
    """Post-layer-norm: normalize after each residual add.

    Queries and the residual come from ``x``, packed at ``rows``, keys and
    values from ``keyvalue_in``, packed at ``kv_rows``; self-attention
    passes the same tensor and rows twice. ``visible`` and both packings
    are handed to ``attention``, and the block returns ``x``'s rows.
    """
    attn_out = attention(params, prefix, x, keyvalue_in, visible, heads, rows=rows, kv_rows=kv_rows)
    x = ad.layer_norm(ad.add(x, attn_out), params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"])
    ffn_out = feed_forward(params, prefix, x)
    return ad.layer_norm(ad.add(x, ffn_out), params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"])


def output_logits(params: ModelParams, hidden: Tensor) -> Tensor:
    """Project onto the vocabulary through the shared embedding table.

    ``hidden`` is (..., d); training hands it only the rows the loss reads.
    """
    return ad.linear(hidden, ad.transpose(params["word_emb"], (1, 0)), params["out_bias"])

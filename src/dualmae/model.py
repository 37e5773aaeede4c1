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
softmax and ``weights @ v``) need the grid: the projected queries, keys
and values are scattered into it, with exact zeros in the cells the
stream lacks, and the attended context is gathered back to the query rows
right after ``weights @ v``. A key/value stream must therefore hold every
cell that the mask lets a query read, and the query stream may hold
fewer: the last block of the encoder queries position 0 and the cells
whose states a caller reads, the last decoder layer its loss rows. A block
returns its query rows, still packed, and that is what the encoder and the
decoders hand on: no state goes back to the grid. ``linear`` gives a row
the same bits whatever its row count, so narrowing the query rows changes
no bit of theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LAYER_NORM_EPS = 1e-5
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

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.heads


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
        elif name.endswith(("bias", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")) or name == "out_bias":
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
    rows and scattered straight into the (B, heads, L, head_dim) layout."""
    y = ad.linear(x, params[f"{prefix}.attn.w{name}"], params[f"{prefix}.attn.b{name}"])
    d = y.shape[-1]
    return ad.transpose(ad.scatter_rows(y, rows.index, (*rows.grid, heads, d // heads)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    B, h, L, hd = x.shape
    x = ad.transpose(x, (0, 2, 1, 3))
    return ad.reshape(x, (B, L, h * hd))


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
    ``query_in`` is packed at ``rows`` and ``keyvalue_in`` at ``kv_rows``,
    which must hold every cell ``visible`` opens (``ShapeError``
    otherwise). The output is packed at ``rows``, (N, d).
    """
    if (visible & ~kv_rows.held[:, None, None, :]).any():
        raise ad.ShapeError("the mask lets a query read a cell the key/value stream does not hold")
    q = _projected(params, prefix, "q", query_in, rows, heads)
    k = _projected(params, prefix, "k", keyvalue_in, kv_rows, heads)
    v = _projected(params, prefix, "v", keyvalue_in, kv_rows, heads)
    head_dim = q.shape[-1]
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(head_dim))
    weights = ad.masked_softmax(scores, visible)
    context = ad.gather_rows(_merge_heads(ad.matmul(weights, v)), rows.index)
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
    x = ad.layer_norm(ad.add(x, attn_out), params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"], LAYER_NORM_EPS)
    ffn_out = feed_forward(params, prefix, x)
    return ad.layer_norm(ad.add(x, ffn_out), params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"], LAYER_NORM_EPS)


def output_logits(params: ModelParams, hidden: Tensor) -> Tensor:
    """Project onto the vocabulary through the shared embedding table.

    ``hidden`` is (..., d); training hands it only the rows the loss reads.
    """
    return ad.linear(hidden, ad.transpose(params["word_emb"], (1, 0)), params["out_bias"])

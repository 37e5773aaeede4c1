"""Model configuration, parameter store, and shared transformer blocks.

Both the deep encoder and the shallow reconstruction decoder are built
from the same post-layer-norm block: attention, add & normalize, GELU
feed-forward, add & normalize. The block takes a query stream and a
key/value stream (the same tensor for self-attention) and a boolean
visibility mask. The word-embedding table is shared between
the encoder input, the decoder input, and the output projection; position
tables are separate per side.
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


# named parameter tensors, in the serialization-stable order of ``param_shapes``
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


def _split_heads(x: Tensor, heads: int) -> Tensor:
    B, L, d = x.shape
    x = ad.reshape(x, (B, L, heads, d // heads))
    return ad.transpose(x, (0, 2, 1, 3))


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
) -> Tensor:
    """Multi-head scaled dot-product attention under a visibility mask.

    ``visible`` is a bool array that broadcasts against the (B, heads, L, L)
    score tensor; row i of it lists the key positions query i may read.
    """
    q = _split_heads(ad.linear(query_in, params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.bq"]), heads)
    k = _split_heads(ad.linear(keyvalue_in, params[f"{prefix}.attn.wk"], params[f"{prefix}.attn.bk"]), heads)
    v = _split_heads(ad.linear(keyvalue_in, params[f"{prefix}.attn.wv"], params[f"{prefix}.attn.bv"]), heads)
    head_dim = q.shape[-1]
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(head_dim))
    weights = ad.masked_softmax(scores, visible)
    context = _merge_heads(ad.matmul(weights, v))
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
) -> Tensor:
    """Post-layer-norm: normalize after each residual add.

    Queries and the residual come from ``x``, keys and values from
    ``keyvalue_in``; self-attention passes the same tensor twice. ``visible``
    is the bool mask handed to ``attention``.
    """
    attn_out = attention(params, prefix, x, keyvalue_in, visible, heads)
    x = ad.layer_norm(ad.add(x, attn_out), params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"], LAYER_NORM_EPS)
    ffn_out = feed_forward(params, prefix, x)
    return ad.layer_norm(ad.add(x, ffn_out), params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"], LAYER_NORM_EPS)


def output_logits(params: ModelParams, hidden: Tensor) -> Tensor:
    """Project onto the vocabulary through the shared embedding table.

    ``hidden`` is (..., d); training hands it only the rows the loss reads.
    """
    return ad.linear(hidden, ad.transpose(params["word_emb"], (1, 0)), params["out_bias"])

"""The one-layer reconstruction decoder, in both decoding modes.

Basic mode rebuilds a heavily polluted copy of the sentence from a normal
self-attention stack whose position 0 carries the sentence embedding.
Enhanced mode runs the same post-LN block with two streams: queries (and
the residual) come from the sentence embedding broadcast over positions,
keys and values from the clean token embeddings, and a per-row boolean
visibility matrix (True = may read) decides which tokens each position
sees. Every real token then yields a training signal from its own sampled
context, and no token can copy itself because its own column is blocked
and the residual path carries the query stream.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .masking import MaskedBatch
# attention and feed_forward stay imported: perfbench/tracer.py swaps decoder.attention/feed_forward by name
from .model import DecoderConfig, ModelParams, attention, feed_forward, output_logits, transformer_block  # noqa: F401


def _reconstruction_loss(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    B, L, V = logits.shape
    flat = ad.reshape(logits, (B * L, V))
    return ad.cross_entropy(flat, targets.reshape(-1), weights.reshape(-1).astype(np.int64))


def decode_basic(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    mbatch: MaskedBatch,
) -> tuple[Tensor, Tensor]:
    """Reconstruct the decoder-masked positions of the batch.

    Returns (logits, loss); the loss covers exactly the [M] positions of
    the decoder-side pollution.
    """
    if mbatch.dec_ids is None or mbatch.dec_masked is None:
        raise ValueError("basic decoding needs a decoder-masked batch")
    if not mbatch.dec_masked.any():
        raise ValueError("no masked positions to reconstruct")
    B, L = mbatch.dec_ids.shape
    tail = ad.embedding_lookup(params["word_emb"], mbatch.dec_ids[:, 1:])
    head = ad.reshape(sentence, (B, 1, sentence.shape[-1]))
    x = ad.add(ad.concat([head, tail], axis=1), ad.narrow(params["dec_pos"], 0, 0, L))
    visible = mbatch.real[:, None, None, :]
    for i in range(dec_config.layers):
        x = transformer_block(params, f"dec{i}", x, x, visible, dec_config.heads)
    logits = output_logits(params, x)
    loss = _reconstruction_loss(logits, mbatch.ids, mbatch.dec_masked)
    return logits, loss


def enhanced_logits(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    token_embeddings: Tensor,
    attention_masks: np.ndarray,
) -> Tensor:
    """The two-stream layer, from already looked-up token embeddings.

    The query stream is the sentence embedding at every position; the
    key/value stream carries the token embeddings with position 0 swapped
    for the sentence embedding. ``attention_masks`` is the (B, L, L) bool
    visibility, shared by every head. Exposed separately so tests can
    perturb individual token embeddings without touching the shared table.
    """
    B, L, d = token_embeddings.shape
    positions = ad.narrow(params["dec_pos"], 0, 0, L)
    head = ad.reshape(sentence, (B, 1, d))
    h1 = ad.add(head, positions)
    h2 = ad.add(ad.concat([head, ad.narrow(token_embeddings, 1, 1, L - 1)], axis=1), positions)
    x = transformer_block(params, "dec0", h1, h2, attention_masks[:, None], dec_config.heads)
    return output_logits(params, x)


def decode_enhanced(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    mbatch: MaskedBatch,
) -> tuple[Tensor, Tensor]:
    """Reconstruct every real token from its own sampled context.

    Returns (logits, loss); the loss covers all real positions beyond 0,
    pads excluded.
    """
    if dec_config.mode != "enhanced":
        raise ValueError(f"enhanced decoding called with a {dec_config.mode!r} decoder config")
    if mbatch.attention_masks is None:
        raise ValueError("enhanced decoding needs per-sentence visibility matrices")
    token_embeddings = ad.embedding_lookup(params["word_emb"], mbatch.ids)
    logits = enhanced_logits(params, dec_config, sentence, token_embeddings, mbatch.attention_masks)
    weights = mbatch.real.copy()
    weights[:, 0] = False
    loss = _reconstruction_loss(logits, mbatch.ids, weights)
    return logits, loss


def reconstruction_accuracy(logits: np.ndarray, targets: np.ndarray, positions: np.ndarray) -> float:
    """Fraction of selected positions whose argmax equals the target."""
    logits = np.asarray(logits)
    positions = np.asarray(positions, dtype=bool)
    if not positions.any():
        raise ValueError("accuracy over an empty position set is undefined")
    pred = logits.argmax(axis=-1)
    hits = (pred == targets) & positions
    return float(hits.sum() / positions.sum())

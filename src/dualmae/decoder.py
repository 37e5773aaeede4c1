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

Both decoders return their final hidden states with the loss. The loss
projects onto the vocabulary only the rows it reads (BERT's masked-position
gather): ``reconstruction_loss`` picks the weight-1 rows of the flattened
states, then runs the output projection and the cross-entropy on those
alone. Evaluation that needs every position's logits calls
``output_logits`` on the returned states.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .masking import MaskedBatch
# attention and feed_forward stay imported: perfbench/tracer.py swaps decoder.attention/feed_forward by name
from .model import DecoderConfig, ModelParams, attention, feed_forward, output_logits, transformer_block  # noqa: F401


def reconstruction_loss(params: ModelParams, states: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Mean cross-entropy of ``targets`` over the weight-1 positions.

    ``states`` is (B, L, d); ``targets`` and the 0/1 ``weights`` are (B, L).
    Only the weight-1 rows are projected onto the vocabulary, so a position
    outside the loss costs nothing and its state gets an exactly zero
    gradient. The value equals the cross-entropy over the full (B·L, V)
    logits under the same weights.
    """
    B, L, d = states.shape
    weights = np.asarray(weights)
    if weights.shape != (B, L) or np.shape(targets) != (B, L):
        raise ad.ShapeError(f"targets and weights must be {(B, L)}, got {np.shape(targets)} and {weights.shape}")
    if not np.isin(weights, (0, 1)).all():
        raise ValueError("weights must be 0 or 1")
    rows = np.flatnonzero(weights)
    picked = ad.embedding_lookup(ad.reshape(states, (B * L, d)), rows)
    logits = output_logits(params, picked)
    return ad.cross_entropy(logits, np.asarray(targets).reshape(-1)[rows], np.ones(rows.size, dtype=np.int64))


def decode_basic(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    mbatch: MaskedBatch,
) -> tuple[Tensor, Tensor]:
    """Reconstruct the decoder-masked positions of the batch.

    Returns (states, loss): the (B, L, d) final hidden states, and the loss
    over exactly the [M] positions of the decoder-side pollution.
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
    return x, reconstruction_loss(params, x, mbatch.ids, mbatch.dec_masked)


def _enhanced_states(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    token_embeddings: Tensor,
    attention_masks: np.ndarray,
) -> Tensor:
    """The two-stream layer's (B, L, d) output.

    The query stream is the sentence embedding at every position; the
    key/value stream carries the token embeddings with position 0 swapped
    for the sentence embedding. ``attention_masks`` is the (B, L, L) bool
    visibility, shared by every head.
    """
    B, L, d = token_embeddings.shape
    positions = ad.narrow(params["dec_pos"], 0, 0, L)
    head = ad.reshape(sentence, (B, 1, d))
    h1 = ad.add(head, positions)
    h2 = ad.add(ad.concat([head, ad.narrow(token_embeddings, 1, 1, L - 1)], axis=1), positions)
    return transformer_block(params, "dec0", h1, h2, attention_masks[:, None], dec_config.heads)


def enhanced_logits(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    token_embeddings: Tensor,
    attention_masks: np.ndarray,
) -> Tensor:
    """Full (B, L, V) logits of the two-stream layer, from already looked-up
    token embeddings. Exposed separately so tests can perturb individual
    token embeddings without touching the shared table.
    """
    return output_logits(params, _enhanced_states(params, dec_config, sentence, token_embeddings, attention_masks))


def decode_enhanced(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    mbatch: MaskedBatch,
) -> tuple[Tensor, Tensor]:
    """Reconstruct every real token from its own sampled context.

    Returns (states, loss): the (B, L, d) final hidden states, and the loss
    over all real positions beyond 0, pads excluded.
    """
    if dec_config.mode != "enhanced":
        raise ValueError(f"enhanced decoding called with a {dec_config.mode!r} decoder config")
    if mbatch.attention_masks is None:
        raise ValueError("enhanced decoding needs per-sentence visibility matrices")
    token_embeddings = ad.embedding_lookup(params["word_emb"], mbatch.ids)
    x = _enhanced_states(params, dec_config, sentence, token_embeddings, mbatch.attention_masks)
    weights = mbatch.real.copy()
    weights[:, 0] = False
    return x, reconstruction_loss(params, x, mbatch.ids, weights)


def reconstruction_accuracy(logits: np.ndarray, targets: np.ndarray, positions: np.ndarray) -> float:
    """Fraction of selected positions whose argmax equals the target."""
    logits = np.asarray(logits)
    positions = np.asarray(positions, dtype=bool)
    if not positions.any():
        raise ValueError("accuracy over an empty position set is undefined")
    pred = logits.argmax(axis=-1)
    hits = (pred == targets) & positions
    return float(hits.sum() / positions.sum())

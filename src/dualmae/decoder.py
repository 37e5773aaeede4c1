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

``masking.mask_batch`` decides per mode what each decoder reads and
reconstructs, so both decoders run the same steps on the same fields: embed
``dec_ids`` after position 0 behind the sentence embedding, attend under
``dec_visible`` and take the loss on ``dec_targets``.

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


def _check_mode(mode: str, dec_config: DecoderConfig, mbatch: MaskedBatch) -> None:
    if dec_config.mode != mode or mbatch.mode != mode:
        raise ValueError(
            f"{mode} decoding called with a {dec_config.mode!r} decoder config and a {mbatch.mode!r} batch"
        )


def _token_stream(params: ModelParams, sentence: Tensor, tail: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """(head, positions, stream) of a decoder over L positions.

    ``tail`` is the (B, L - 1, d) token embeddings of positions 1.., so
    whatever id sits at position 0 never reaches the decoder. ``head`` is
    the (B, 1, d) sentence embedding, ``positions`` the first L rows of
    ``dec_pos``, and ``stream`` the sentence embedding followed by
    ``tail``, plus positions.
    """
    B, n, d = tail.shape
    head = ad.reshape(sentence, (B, 1, d))
    positions = ad.narrow(params["dec_pos"], 0, 0, n + 1)
    return head, positions, ad.add(ad.concat([head, tail], axis=1), positions)


def decode_basic(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    mbatch: MaskedBatch,
) -> tuple[Tensor, Tensor]:
    """Reconstruct the decoder-masked positions of the batch.

    Returns (states, loss): the (B, L, d) final hidden states, and the loss
    over ``mbatch.dec_targets``, the [M] positions of the decoder-side
    pollution.
    """
    _check_mode("basic", dec_config, mbatch)
    if not mbatch.dec_targets.any():
        raise ValueError("no masked positions to reconstruct")
    _, _, x = _token_stream(params, sentence, ad.embedding_lookup(params["word_emb"], mbatch.dec_ids[:, 1:]))
    for i in range(dec_config.layers):
        x = transformer_block(params, f"dec{i}", x, x, mbatch.dec_visible[:, None], dec_config.heads)
    return x, reconstruction_loss(params, x, mbatch.ids, mbatch.dec_targets)


def _enhanced_states(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    token_embeddings: Tensor,
    visible: np.ndarray,
) -> Tensor:
    """The two-stream layer's (B, L, d) output.

    The query stream is the sentence embedding at every position; the
    key/value stream is ``_token_stream`` over positions 1.. of the
    (B, L, d) ``token_embeddings``, whose position 0 is never read.
    ``visible`` is the (B, L, L) bool visibility, shared by every head.
    """
    L = token_embeddings.shape[1]
    head, positions, stream = _token_stream(params, sentence, ad.narrow(token_embeddings, 1, 1, L - 1))
    return transformer_block(params, "dec0", ad.add(head, positions), stream, visible[:, None], dec_config.heads)


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
    over ``mbatch.dec_targets``, all real positions beyond 0.
    """
    _check_mode("enhanced", dec_config, mbatch)
    # position 0 is looked up and narrowed away: looking up dec_ids[:, 1:]
    # instead saves a node but moves when the cyclic collector frees step
    # graphs, which raised peak RSS by 20% on the retrieve benchmark
    token_embeddings = ad.embedding_lookup(params["word_emb"], mbatch.dec_ids)
    x = _enhanced_states(params, dec_config, sentence, token_embeddings, mbatch.dec_visible)
    return x, reconstruction_loss(params, x, mbatch.ids, mbatch.dec_targets)


def reconstruction_accuracy(logits: np.ndarray, targets: np.ndarray, positions: np.ndarray) -> float:
    """Fraction of selected positions whose argmax equals the target."""
    logits = np.asarray(logits)
    positions = np.asarray(positions, dtype=bool)
    if not positions.any():
        raise ValueError("accuracy over an empty position set is undefined")
    pred = logits.argmax(axis=-1)
    hits = (pred == targets) & positions
    return float(hits.sum() / positions.sum())

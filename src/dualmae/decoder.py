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
reconstructs, so both modes run one body on the same fields:

1. embed ``dec_ids`` after position 0 behind the sentence embedding and
   add ``dec_pos``: the key/value stream;
2. pack that stream at the batch's real rows (``model`` explains packing),
   exactly the columns ``dec_visible`` opens;
3. run every layer but the last as self-attention on those rows (basic
   only: enhanced mode has one layer);
4. run the last layer with its keys and values at the real rows and its
   queries at the loss rows ``dec_targets`` alone;
5. take ``reconstruction_loss`` on that layer's output as it is.

The modes differ only in the last layer's queries: the stream's own rows
at the loss cells (basic) or the sentence embedding plus positions there
(enhanced). The last layer's scores, softmax and ``weights @ v`` run on
those query rows alone, on ``attention``'s slot grid, the rule the
encoder's last block follows for position 0; in basic mode that is about
half the real rows. Pad columns are blocked in every attention and no
loss reads a row outside ``dec_targets``, so this loses nothing
observable.

Both decoders return their final hidden states with the loss, packed: one
(N, d) row per ``dec_targets`` cell in row-major order, the rows the loss
reads. The loss projects onto the vocabulary only those rows (BERT's
masked-position gather), so no (B, L, d) grid is built past the last
attention.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .masking import MaskedBatch
# attention and feed_forward stay imported: perfbench/tracer.py swaps decoder.attention/feed_forward by name
from .model import DecoderConfig, ModelParams, Rows, attention, feed_forward, output_logits, transformer_block  # noqa: F401


def reconstruction_loss(params: ModelParams, states: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of ``targets`` over the packed ``states``.

    ``states`` is (N, d), one row per reconstructed position, and
    ``targets`` holds the N matching ids. Only these rows are projected
    onto the vocabulary, so a position outside the loss costs nothing.
    """
    return ad.cross_entropy(output_logits(params, states), targets, np.ones(np.shape(targets), dtype=np.int64))


def _check_mode(mode: str, dec_config: DecoderConfig, mbatch: MaskedBatch) -> None:
    if dec_config.mode != mode or mbatch.mode != mode:
        raise ValueError(
            f"{mode} decoding called with a {dec_config.mode!r} decoder config and a {mbatch.mode!r} batch"
        )


def _decode(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    mbatch: MaskedBatch,
) -> tuple[Tensor, Tensor]:
    """The decode body both modes share; see the module docstring."""
    if not mbatch.dec_targets.any():
        raise ValueError("no positions to reconstruct")
    B, L = mbatch.ids.shape
    head = ad.reshape(sentence, (B, 1, sentence.shape[-1]))
    positions = ad.narrow(params["dec_pos"], 0, 0, L)
    tail = ad.embedding_lookup(params["word_emb"], mbatch.dec_ids[:, 1:])
    stream = ad.add(ad.concat([head, tail], axis=1), positions)
    kv_rows, rows, visible = Rows(mbatch.real), Rows(mbatch.dec_targets), mbatch.dec_visible[:, None]
    x = ad.gather_rows(stream, kv_rows.index)
    last = dec_config.layers - 1
    for i in range(last):
        x = transformer_block(params, f"dec{i}", x, x, visible, dec_config.heads, rows=kv_rows, kv_rows=kv_rows)
    if dec_config.mode == "basic":
        queries = ad.gather_rows(x, kv_rows.locate(rows.index))
    else:
        queries = ad.gather_rows(ad.add(head, positions), rows.index)
    out = transformer_block(params, f"dec{last}", queries, x, visible, dec_config.heads, rows=rows, kv_rows=kv_rows)
    return out, reconstruction_loss(params, out, mbatch.ids[mbatch.dec_targets])


def decode_basic(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    mbatch: MaskedBatch,
) -> tuple[Tensor, Tensor]:
    """Reconstruct the decoder-masked positions of the batch.

    Returns (states, loss): the final hidden states at
    ``mbatch.dec_targets``, the [M] positions of the decoder-side
    pollution, packed (N, d) in row-major order, and the loss over those
    positions.
    """
    _check_mode("basic", dec_config, mbatch)
    return _decode(params, dec_config, sentence, mbatch)


def decode_enhanced(
    params: ModelParams,
    dec_config: DecoderConfig,
    sentence: Tensor,
    mbatch: MaskedBatch,
) -> tuple[Tensor, Tensor]:
    """Reconstruct every real token from its own sampled context.

    Returns (states, loss): the final hidden states at
    ``mbatch.dec_targets`` (all real positions beyond 0), packed (N, d) in
    row-major order, and the loss over those positions.
    """
    _check_mode("enhanced", dec_config, mbatch)
    return _decode(params, dec_config, sentence, mbatch)

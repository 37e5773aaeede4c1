"""The full-depth encoder: polluted sentence in, one dense vector out.

The sentence embedding is the final hidden state at position 0. Pad
columns are blocked in every attention layer, so what a sentence's
embedding sees never depends on how much padding the batch carries.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import (
    LAYER_NORM_EPS,
    EncoderConfig,
    ModelParams,
    transformer_block,
)


def encode(
    params: ModelParams,
    config: EncoderConfig,
    ids: np.ndarray,
    real: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """Run the encoder stack.

    ``ids`` is the (B, L) polluted input (or clean input at inference) and
    ``real`` the matching pad mask, True at token positions. Returns the
    (B, d) sentence embeddings and the (B, L, d) final hidden states.
    """
    ids = np.asarray(ids)
    real = np.asarray(real, dtype=bool)
    if ids.ndim != 2 or ids.shape != real.shape:
        raise ValueError("ids and real must share a (B, L) shape")
    B, L = ids.shape
    if L > config.max_len:
        raise ValueError(f"sequence length {L} exceeds max_len {config.max_len}")
    if not real[:, 0].all():
        raise ValueError("position 0 must be a real token")

    tokens = ad.embedding_lookup(params["word_emb"], ids)
    positions = ad.narrow(params["enc_pos"], 0, 0, L)
    x = ad.layer_norm(
        ad.add(tokens, positions),
        params["enc_emb_ln.gain"],
        params["enc_emb_ln.bias"],
        LAYER_NORM_EPS,
    )
    visible = real[:, None, None, :]
    for i in range(config.layers):
        x = transformer_block(params, f"enc{i}", x, x, visible, config.heads)
    sentence = ad.select_index(x, 0, axis=1)
    return sentence, x

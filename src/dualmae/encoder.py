"""The full-depth encoder: polluted sentence in, one dense vector out.

The sentence embedding is the final hidden state at position 0. Pad
columns are blocked in every attention layer, so what a sentence's
embedding sees never depends on how much padding the batch carries.

Pad rows feed nothing, so the stack carries none. The token and position
embeddings are added on the (B, L) grid, where the position gradient is
one sum over the batch axis (looked up per packed row it would take an
``np.add.at`` over N rows, which costs more than the pad rows save), and
the batch's real rows are gathered once into a packed (N, d) stream.
Every block then runs its
projections, residuals, layer norms and feed-forward on those N rows, and
only attention's per-sentence products see a grid (``model`` explains
the packing). A packed product gives each real row the bits the stacked
one gives it, so no forward value changes.

The decoder and retrieval read nothing but that vector, so the last block
queries position 0 alone: its keys and values are every real row, its
scores, softmax and ``weights @ v`` run on two query slots per sentence
(the product floor) instead of L, and its output projection, residuals,
layer norms and feed-forward run on one row per sentence, the (B, d)
sentence vectors. A caller that reads other
final states (the encoder-side MLM loss) names their cells with
``states_at``, and the last block queries those cells as well. Either way
the sentence vector takes the same bits.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import EncoderConfig, ModelParams, Rows, transformer_block


def encode(
    params: ModelParams,
    config: EncoderConfig,
    ids: np.ndarray,
    real: np.ndarray,
    *,
    states_at: np.ndarray | None = None,
) -> tuple[Tensor, Tensor | None]:
    """Run the encoder stack.

    ``ids`` is the (B, L) polluted input (or clean input at inference) and
    ``real`` the matching pad mask, True at token positions. Returns the
    (B, d) sentence embeddings and the final hidden states of the (B, L)
    cells ``states_at`` is True at, packed (N, d) in row-major order;
    without ``states_at``, None in their place. A cell outside ``real``
    raises ``ShapeError``.
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
    if states_at is not None and np.shape(states_at) != (B, L):
        raise ValueError("states_at must share the (B, L) shape of ids")

    tokens = ad.embedding_lookup(params["word_emb"], ids)
    positions = ad.narrow(params["enc_pos"], 0, 0, L)
    rows = Rows(real)
    x = ad.gather_rows(ad.add(tokens, positions), rows.index)
    x = ad.layer_norm(x, params["enc_emb_ln.gain"], params["enc_emb_ln.bias"])
    visible = real[:, None, None, :]
    last = config.layers - 1
    for i in range(last):
        x = transformer_block(params, f"enc{i}", x, x, visible, config.heads, rows=rows, kv_rows=rows)
    first = np.broadcast_to(np.arange(L) == 0, (B, L))
    out_rows = Rows(first if states_at is None else first | states_at)
    queries = ad.gather_rows(x, rows.locate(out_rows.index))
    x = transformer_block(params, f"enc{last}", queries, x, visible, config.heads, rows=out_rows, kv_rows=rows)
    if states_at is None:
        return x, None
    sentence = ad.gather_rows(x, out_rows.locate(np.arange(B) * L))
    return sentence, ad.gather_rows(x, out_rows.locate(np.flatnonzero(states_at)))

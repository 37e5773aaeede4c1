"""Packed rows against the full-width forward they replaced.

The encoder and both decoders run their position-wise work on a batch's
real rows (or, past the decoders' last attention, their loss rows) alone.
``reference_step_loss`` below is the full-width forward they replaced,
kept as the oracle: every block runs on the whole (B, L, d) grid, pads
included, and the loss reads its rows through ``embedding_lookup``.
Packing must not change a forward bit at desk widths in float32, where
training runs, and may change gradients only by the summation order of
their weight products. The packed forward returns states only at the rows
it computes, and each equals the oracle's state at its cell.
"""

import dataclasses

import numpy as np
import pytest

from dualmae import autodiff as ad
from dualmae.config import TrainConfig
from dualmae.decoder import decode_basic, decode_enhanced
from dualmae.encoder import encode
from dualmae.gradcheck import tiny_setup
from dualmae.masking import mask_batch
from dualmae.model import DecoderConfig, EncoderConfig, init_params, output_logits
from dualmae.text import CLS_ID, SEP_ID, TokenSequence, make_batch
from dualmae.training import step_loss

# ---------------------------------------------------------------------------
# the full-width reference


def _split_heads(x, heads):
    B, L, d = x.shape
    return ad.transpose(ad.reshape(x, (B, L, heads, d // heads)), (0, 2, 1, 3))


def _merge_heads(x):
    B, h, L, hd = x.shape
    return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (B, L, h * hd))


def _attention(params, prefix, query_in, keyvalue_in, visible, heads):
    def proj(x, name):
        return _split_heads(ad.linear(x, params[f"{prefix}.attn.w{name}"], params[f"{prefix}.attn.b{name}"]), heads)

    q, k, v = proj(query_in, "q"), proj(keyvalue_in, "k"), proj(keyvalue_in, "v")
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(q.shape[-1]))
    context = ad.matmul(ad.masked_softmax(scores, visible), v)
    return ad.linear(_merge_heads(context), params[f"{prefix}.attn.wo"], params[f"{prefix}.attn.bo"])


def _block(params, prefix, x, keyvalue_in, visible, heads):
    attn_out = _attention(params, prefix, x, keyvalue_in, visible, heads)
    x = ad.layer_norm(ad.add(x, attn_out), params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"])
    h = ad.gelu(ad.linear(x, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"]))
    ffn_out = ad.linear(h, params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])
    return ad.layer_norm(ad.add(x, ffn_out), params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"])


def reference_encode(params, config, ids, real, states=False):
    L = ids.shape[1]
    x = ad.add(ad.embedding_lookup(params["word_emb"], ids), ad.narrow(params["enc_pos"], 0, 0, L))
    x = ad.layer_norm(x, params["enc_emb_ln.gain"], params["enc_emb_ln.bias"])
    for i in range(config.layers):
        x = _block(params, f"enc{i}", x, x, real[:, None, None, :], config.heads)
    return ad.select_index(x, 0, axis=1), (x if states else None)


def _reference_loss(params, states, targets, weights):
    B, L, d = states.shape
    rows = np.flatnonzero(weights)
    picked = ad.embedding_lookup(ad.reshape(states, (B * L, d)), rows)
    return ad.cross_entropy(
        output_logits(params, picked), targets.reshape(-1)[rows], np.ones(rows.size, dtype=np.int64)
    )


def _reference_decode(params, dec, sentence, mbatch):
    B, L = mbatch.ids.shape
    d = sentence.shape[-1]
    head = ad.reshape(sentence, (B, 1, d))
    tail = ad.embedding_lookup(params["word_emb"], mbatch.dec_ids[:, 1:])
    positions = ad.narrow(params["dec_pos"], 0, 0, L)
    stream = ad.add(ad.concat([head, tail], axis=1), positions)
    visible = mbatch.dec_visible[:, None]
    if dec.mode == "basic":
        x = stream
        for i in range(dec.layers):
            x = _block(params, f"dec{i}", x, x, visible, dec.heads)
    else:
        x = _block(params, "dec0", ad.add(head, positions), stream, visible, dec.heads)
    return x, _reference_loss(params, x, mbatch.ids, mbatch.dec_targets)


def reference_step_loss(params, train, enc, dec, mbatch):
    with_mlm = train.encoder_mlm_weight > 0.0
    sentence, hidden = reference_encode(params, enc, mbatch.enc_ids, mbatch.real, states=with_mlm)
    _, loss = _reference_decode(params, dec, sentence, mbatch)
    if with_mlm:
        aux = _reference_loss(params, hidden, mbatch.ids, mbatch.enc_masked)
        loss = ad.add(loss, ad.scale(aux, train.encoder_mlm_weight))
    return loss


# ---------------------------------------------------------------------------

DESK = EncoderConfig(layers=2, hidden_dim=64, heads=4, ffn_dim=256, max_len=64, vocab_size=512)
# (mode, encoder MLM weight, decoder layers)
MODES = [
    pytest.param("enhanced", 0.0, 1, id="enhanced-0.0"),
    pytest.param("enhanced", 0.5, 1, id="enhanced-0.5"),
    pytest.param("basic", 0.0, 1, id="basic-0.0"),
    pytest.param("basic", 0.5, 1, id="basic-0.5"),
    pytest.param("basic", 0.0, 2, id="basic-0.0-2layers"),
    pytest.param("basic", 0.5, 2, id="basic-0.5-2layers"),
]


def _desk_batch(seed, count=24):
    """A padded batch: lengths from 3 up to the full width of 64."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, DESK.max_len - 1, size=count)
    lengths[0] = DESK.max_len - 2
    seqs = [TokenSequence(np.concatenate([[CLS_ID], rng.integers(5, 512, size=n), [SEP_ID]])) for n in lengths]
    return make_batch(seqs)


def _desk_setup(mode, mlm_weight, seed, layers=1):
    dec = DecoderConfig(mode=mode, layers=layers, heads=4)
    train = TrainConfig(encoder_mlm_weight=mlm_weight)
    params = init_params(DESK, dec, np.random.default_rng([seed, 0]))
    batch = _desk_batch(seed)
    assert not batch.real.all()
    mbatch = mask_batch(batch, mode, train.mask_ratio_encoder, train.mask_ratio_decoder, np.random.default_rng(seed))
    return params, train, dec, mbatch


class TestPackedForward:
    @pytest.mark.parametrize("mode, mlm_weight, layers", MODES)
    def test_step_loss_equals_the_full_width_forward_bit_for_bit(self, mode, mlm_weight, layers):
        for seed in (0, 1):
            params, train, dec, mbatch = _desk_setup(mode, mlm_weight, seed, layers)
            with ad.no_grad():
                packed = step_loss(params, train, DESK, dec, mbatch).data
                full = reference_step_loss(params, train, DESK, dec, mbatch).data
            assert packed.dtype == np.float32
            assert packed.tobytes() == full.tobytes(), (seed, float(packed), float(full))

    @pytest.mark.parametrize("states", [False, True])
    def test_sentence_vectors_and_real_states_equal_the_full_width_forward(self, states):
        params, _, _, mbatch = _desk_setup("enhanced", 0.0, 2)
        real = mbatch.real
        with ad.no_grad():
            sentence, hidden = encode(params, DESK, mbatch.enc_ids, real, states_at=real if states else None)
            ref_sentence, ref_hidden = reference_encode(params, DESK, mbatch.enc_ids, real, states=states)
        assert sentence.data.tobytes() == ref_sentence.data.tobytes()
        if states:
            assert hidden.shape == (int(real.sum()), DESK.hidden_dim)
            assert hidden.data.tobytes() == ref_hidden.data[real].tobytes()

    def test_states_at_the_masked_cells_equal_the_full_width_forward(self):
        for seed in range(3):
            params, _, _, mbatch = _desk_setup("enhanced", 0.5, seed)
            masked = mbatch.enc_masked
            assert masked.any() and not (masked | ~mbatch.real).all()
            with ad.no_grad():
                _, hidden = encode(params, DESK, mbatch.enc_ids, mbatch.real, states_at=masked)
                _, ref_hidden = reference_encode(params, DESK, mbatch.enc_ids, mbatch.real, states=True)
            assert hidden.shape == (int(masked.sum()), DESK.hidden_dim)
            assert hidden.data.tobytes() == ref_hidden.data[masked].tobytes(), seed

    def test_sentence_vectors_take_the_same_bits_with_or_without_states(self):
        # without states the last block queries position 0 alone; with them
        # it runs on every real row, and the vectors must not tell
        for seed in range(5):
            params, _, _, mbatch = _desk_setup("enhanced", 0.0, seed)
            with ad.no_grad():
                alone, _ = encode(params, DESK, mbatch.enc_ids, mbatch.real)
                with_states, _ = encode(params, DESK, mbatch.enc_ids, mbatch.real, states_at=mbatch.real)
            assert alone.shape == (mbatch.ids.shape[0], DESK.hidden_dim)
            assert alone.data.tobytes() == with_states.data.tobytes(), seed

    @pytest.mark.parametrize("mode, layers, seed", [("enhanced", 1, 3), ("basic", 1, 4), ("basic", 2, 4)])
    def test_decoder_states_are_the_loss_rows(self, mode, layers, seed):
        params, _, dec, mbatch = _desk_setup(mode, 0.0, seed, layers)
        decode = decode_basic if mode == "basic" else decode_enhanced
        with ad.no_grad():
            sentence, _ = encode(params, DESK, mbatch.enc_ids, mbatch.real)
            states, _ = decode(params, dec, sentence, mbatch)
            ref_states, _ = _reference_decode(params, dec, sentence, mbatch)
        rows = mbatch.dec_targets
        assert states.shape == (int(rows.sum()), DESK.hidden_dim)
        assert states.data.tobytes() == ref_states.data[rows].tobytes()


class TestPackedGradients:
    @pytest.mark.parametrize("mode, mlm_weight, layers", MODES)
    def test_every_parameter_gradient_matches_the_full_width_forward(self, mode, mlm_weight, layers):
        _, train, enc, dec, mbatch = tiny_setup(mode, seed=17)
        assert not mbatch.real.all()
        train = dataclasses.replace(train, encoder_mlm_weight=mlm_weight)
        dec = dataclasses.replace(dec, layers=layers)
        params = init_params(enc, dec, np.random.default_rng([17, 0]), dtype=np.float64)
        results = []
        for loss_fn in (step_loss, reference_step_loss):
            for t in params.values():
                t.grad = None
            loss = loss_fn(params, train, enc, dec, mbatch)
            ad.backward(loss)
            results.append((float(loss.data), {name: ad.grad_or_zeros(t).copy() for name, t in params.items()}))
        (packed, grads), (full, full_grads) = results
        assert packed == pytest.approx(full, rel=1e-12)
        for name in params:
            np.testing.assert_allclose(grads[name], full_grads[name], rtol=1e-9, atol=1e-13, err_msg=name)

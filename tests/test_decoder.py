"""Reconstruction decoding in both modes.

The perturbation tests pin down the information flow: which inputs can
reach which logits. Bitwise equality is the right bar there, because the
claim is structural (a blocked path contributes nothing at all), not
numerical.
"""

import dataclasses

import numpy as np
import pytest

from dualmae import autodiff as ad
from dualmae.decoder import decode_basic, decode_enhanced
from dualmae.encoder import encode
from dualmae.masking import MaskedBatch, mask_batch
from dualmae.model import DecoderConfig, EncoderConfig, init_params, output_logits
from dualmae.text import CLS_ID, SEP_ID, TokenSequence, make_batch

from reconstruction import reconstruction_accuracy

ENC = EncoderConfig(layers=1, hidden_dim=16, heads=4, ffn_dim=32, max_len=8, vocab_size=30)
L, D = 8, 16


def _setup(mode, seed=0):
    dec = DecoderConfig(mode=mode, layers=1, heads=4)
    params = init_params(ENC, dec, np.random.default_rng(seed), dtype=np.float64)
    rng = np.random.default_rng(seed + 100)
    seqs = [
        TokenSequence(np.concatenate([[CLS_ID], rng.integers(5, 30, size=6), [SEP_ID]])),
        TokenSequence(np.concatenate([[CLS_ID], rng.integers(5, 30, size=4), [SEP_ID]])),
    ]
    batch = make_batch(seqs)
    mbatch = mask_batch(batch, mode, 0.15, 0.5, rng)
    return params, dec, mbatch


def _sentence(params, mbatch):
    sentence, _ = encode(params, ENC, mbatch.enc_ids, mbatch.real)
    return sentence


def _basic_logits(params, dec, sentence, mbatch):
    states, _ = decode_basic(params, dec, sentence, mbatch)
    return output_logits(params, states)


class TestBasicDecoding:
    def test_loss_covers_exactly_the_masked_positions(self):
        params, dec, mbatch = _setup("basic")
        # one state row per masked position, and the loss reads every one
        states, loss = decode_basic(params, dec, _sentence(params, mbatch), mbatch)
        ad.backward(loss)
        assert states.shape == (int(mbatch.dec_targets.sum()), D)
        assert np.all(np.abs(states.grad).max(axis=-1) > 0)

    def test_position_zero_input_is_the_sentence_embedding(self):
        # whatever id sits at dec_ids[:, 0] is never embedded; the slot is
        # filled by the encoder output instead
        params, dec, mbatch = _setup("basic")
        sentence = _sentence(params, mbatch)
        with ad.no_grad():
            base = _basic_logits(params, dec, sentence, mbatch)
            poked = dataclasses.replace(mbatch, dec_ids=np.where(
                np.arange(L) == 0, 7, mbatch.dec_ids))
            after = _basic_logits(params, dec, sentence, poked)
        np.testing.assert_array_equal(base.data, after.data)

    def test_sentence_embedding_reaches_every_logit(self):
        # every masked position's logits read the sentence vector; the
        # last layer runs on the loss rows alone, one row per masked position
        params, dec, mbatch = _setup("basic")
        sentence = _sentence(params, mbatch)
        targets = mbatch.dec_targets
        assert not (targets | ~mbatch.real).all()
        with ad.no_grad():
            states, _ = decode_basic(params, dec, sentence, mbatch)
            base = _basic_logits(params, dec, sentence, mbatch)
            shifted = ad.Tensor(sentence.data + 0.25)
            after = _basic_logits(params, dec, shifted, mbatch)
        assert states.shape == (int(targets.sum()), D)
        assert np.all(base.data != after.data)

    def test_stacked_decoder_layers_change_the_output(self):
        params1, dec1, mbatch = _setup("basic")
        dec2 = DecoderConfig(mode="basic", layers=2, heads=4)
        params2 = init_params(ENC, dec2, np.random.default_rng(0), dtype=np.float64)
        sentence = _sentence(params1, mbatch)
        with ad.no_grad():
            one = _basic_logits(params1, dec1, sentence, mbatch)
            two = _basic_logits(params2, dec2, sentence, mbatch)
        assert not np.array_equal(one.data, two.data)

    def test_needs_decoder_mask(self):
        params, dec, mbatch = _setup("enhanced")
        bdec = DecoderConfig(mode="basic", layers=1, heads=4)
        with pytest.raises(ValueError):
            decode_basic(params, bdec, _sentence(params, mbatch), mbatch)


class TestEnhancedDecoding:
    def test_loss_covers_real_positions_beyond_zero(self):
        params, dec, mbatch = _setup("enhanced")
        states, loss = decode_enhanced(params, dec, _sentence(params, mbatch), mbatch)
        ad.backward(loss)
        expected = mbatch.real.copy()
        expected[:, 0] = False
        np.testing.assert_array_equal(mbatch.dec_targets, expected)
        assert states.shape == (int(expected.sum()), D)
        assert np.all(np.abs(states.grad).max(axis=-1) > 0)

    def test_rejects_wrong_config(self):
        params, _, mbatch = _setup("enhanced")
        sentence = _sentence(params, mbatch)
        with pytest.raises(ValueError):
            decode_enhanced(params, DecoderConfig(mode="basic", layers=1, heads=4), sentence, mbatch)

    def test_rejects_missing_matrices(self):
        params, dec, _ = _setup("enhanced")
        _, _, basic_batch = _setup("basic")
        with pytest.raises(ValueError):
            decode_enhanced(params, dec, _sentence(params, basic_batch), basic_batch)


@pytest.mark.parametrize("mode", ["basic", "enhanced"])
def test_a_batch_without_loss_rows_is_rejected(mode):
    params, dec, mbatch = _setup(mode)
    empty = dataclasses.replace(mbatch, dec_targets=np.zeros_like(mbatch.dec_targets))
    decode = decode_basic if mode == "basic" else decode_enhanced
    with pytest.raises(ValueError, match="no positions to reconstruct"):
        decode(params, dec, _sentence(params, mbatch), empty)


def _manual_masks(bottleneck_row=None):
    """Full cross-visibility except the diagonal; optionally one row that
    sees nothing but the sentence embedding."""
    m = np.ones((1, L, L), dtype=bool)
    for i in range(1, L):
        m[0, i, i] = False
    if bottleneck_row is not None:
        m[0, bottleneck_row, 1:] = False
    return m


def _two_stream_logits(params, dec, sentence, embeddings, masks):
    """Every position's (B, L, V) logits of the two-stream layer over the
    token embeddings ``embeddings`` and the hand-built visibility ``masks``.

    Each cell gets its own id, whose row of a copy of the table holds the
    cell's embedding, and every cell is a loss row, so the layer computes
    every position. Logits are read through ``params``' own table, which
    the output projection shares.
    """
    B, L, _ = embeddings.shape
    ids = np.arange(5, 5 + B * L).reshape(B, L)
    table = params["word_emb"].data.copy()
    table[ids] = embeddings
    every = np.ones((B, L), dtype=bool)
    mbatch = MaskedBatch(
        mode="enhanced", ids=ids, real=every, enc_ids=ids, enc_masked=~every,
        dec_ids=ids, dec_targets=every, dec_visible=masks,
    )
    with ad.no_grad():
        states, _ = decode_enhanced({**params, "word_emb": ad.Tensor(table)}, dec, sentence, mbatch)
        return output_logits(params, states).data.reshape(B, L, -1)


class TestEnhancedInformationFlow:
    def _pieces(self, seed=1):
        dec = DecoderConfig(mode="enhanced", layers=1, heads=4)
        params = init_params(ENC, dec, np.random.default_rng(seed), dtype=np.float64)
        rng = np.random.default_rng(seed + 50)
        sentence = ad.Tensor(rng.standard_normal((1, D)))
        embeddings = rng.standard_normal((1, L, D))
        return dec, params, sentence, embeddings

    def test_no_token_sees_itself(self):
        dec, params, sentence, emb = self._pieces()
        masks = _manual_masks()
        base = _two_stream_logits(params, dec, sentence, emb, masks)
        for i in range(1, L):
            zeroed = emb.copy()
            zeroed[0, i] = 0.0
            got = _two_stream_logits(params, dec, sentence, zeroed, masks)
            # position i is untouched; its neighbors saw the change
            np.testing.assert_array_equal(got[0, i], base[0, i])
            assert not np.array_equal(got[0, (i % (L - 1)) + 1], base[0, (i % (L - 1)) + 1])

    def test_bottleneck_row_depends_only_on_the_sentence(self):
        row = 3
        dec, params, sentence, emb = self._pieces()
        masks = _manual_masks(bottleneck_row=row)
        base = _two_stream_logits(params, dec, sentence, emb, masks)
        for j in range(1, L):
            poked = emb.copy()
            poked[0, j] += 1.0
            got = _two_stream_logits(params, dec, sentence, poked, masks)
            np.testing.assert_array_equal(got[0, row], base[0, row])
        moved = ad.Tensor(sentence.data + 0.25)
        got = _two_stream_logits(params, dec, moved, emb, masks)
        assert np.all(got[0, row] != base[0, row])

    def test_position_zero_key_carries_the_sentence_not_cls(self):
        # H2 starts with the sentence embedding: changing the embedding at
        # position 0 of the token stream must be invisible everywhere
        dec, params, sentence, emb = self._pieces()
        masks = _manual_masks()
        base = _two_stream_logits(params, dec, sentence, emb, masks)
        poked = emb.copy()
        poked[0, 0] += 5.0
        got = _two_stream_logits(params, dec, sentence, poked, masks)
        np.testing.assert_array_equal(got, base)


class TestReconstructionAccuracy:
    def test_hand_case(self):
        logits = np.zeros((1, 3, 4))
        logits[0, 0, 2] = 1.0  # right
        logits[0, 1, 0] = 1.0  # wrong
        logits[0, 2, 1] = 1.0  # right but unselected
        targets = np.array([[2, 3, 1]])
        positions = np.array([[True, True, False]])
        assert reconstruction_accuracy(logits[positions], targets[positions]) == 0.5

    def test_perfect_logits(self):
        rng = np.random.default_rng(0)
        targets = rng.integers(0, 6, size=10)
        logits = np.eye(6)[targets] * 3.0
        assert reconstruction_accuracy(logits, targets) == 1.0

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            reconstruction_accuracy(np.zeros((0, 3)), np.zeros(0))

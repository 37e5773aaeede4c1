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
from dualmae.decoder import (
    decode_basic,
    decode_enhanced,
    enhanced_logits,
    reconstruction_accuracy,
)
from dualmae.encoder import encode
from dualmae.masking import mask_batch
from dualmae.model import DecoderConfig, EncoderConfig, init_params, output_logits
from dualmae.text import CLS_ID, SEP_ID, TokenSequence, make_batch

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
        # each state row feeds only its own logit row, so the states' grad
        # shows which positions the loss reads
        states, loss = decode_basic(params, dec, _sentence(params, mbatch), mbatch)
        ad.backward(loss)
        grad = states.grad
        assert np.all(grad[~mbatch.dec_targets] == 0.0)
        assert np.all(np.abs(grad[mbatch.dec_targets]).max(axis=-1) > 0)

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
        params, dec, mbatch = _setup("basic")
        sentence = _sentence(params, mbatch)
        with ad.no_grad():
            base = _basic_logits(params, dec, sentence, mbatch)
            shifted = ad.constant(sentence.data + 0.25)
            after = _basic_logits(params, dec, shifted, mbatch)
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
        grad = states.grad
        expected = mbatch.real.copy()
        expected[:, 0] = False
        assert np.all(grad[~expected] == 0.0)
        assert np.all(np.abs(grad[expected]).max(axis=-1) > 0)

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


def _manual_masks(bottleneck_row=None):
    """Full cross-visibility except the diagonal; optionally one row that
    sees nothing but the sentence embedding."""
    m = np.ones((1, L, L), dtype=bool)
    for i in range(1, L):
        m[0, i, i] = False
    if bottleneck_row is not None:
        m[0, bottleneck_row, 1:] = False
    return m


class TestEnhancedInformationFlow:
    def _pieces(self, seed=1):
        dec = DecoderConfig(mode="enhanced", layers=1, heads=4)
        params = init_params(ENC, dec, np.random.default_rng(seed), dtype=np.float64)
        rng = np.random.default_rng(seed + 50)
        sentence = ad.constant(rng.standard_normal((1, D)))
        embeddings = rng.standard_normal((1, L, D))
        return dec, params, sentence, embeddings

    def test_no_token_sees_itself(self):
        dec, params, sentence, emb = self._pieces()
        masks = _manual_masks()
        with ad.no_grad():
            base = enhanced_logits(params, dec, sentence, ad.constant(emb), masks).data
            for i in range(1, L):
                zeroed = emb.copy()
                zeroed[0, i] = 0.0
                got = enhanced_logits(params, dec, sentence, ad.constant(zeroed), masks).data
                # position i is untouched; its neighbors saw the change
                np.testing.assert_array_equal(got[0, i], base[0, i])
                assert not np.array_equal(got[0, (i % (L - 1)) + 1], base[0, (i % (L - 1)) + 1])

    def test_bottleneck_row_depends_only_on_the_sentence(self):
        row = 3
        dec, params, sentence, emb = self._pieces()
        masks = _manual_masks(bottleneck_row=row)
        with ad.no_grad():
            base = enhanced_logits(params, dec, sentence, ad.constant(emb), masks).data
            for j in range(1, L):
                poked = emb.copy()
                poked[0, j] += 1.0
                got = enhanced_logits(params, dec, sentence, ad.constant(poked), masks).data
                np.testing.assert_array_equal(got[0, row], base[0, row])
            moved = ad.constant(sentence.data + 0.25)
            got = enhanced_logits(params, dec, moved, ad.constant(emb), masks).data
            assert np.all(got[0, row] != base[0, row])

    def test_position_zero_key_carries_the_sentence_not_cls(self):
        # H2 starts with the sentence embedding: changing the embedding at
        # position 0 of the token stream must be invisible everywhere
        dec, params, sentence, emb = self._pieces()
        masks = _manual_masks()
        with ad.no_grad():
            base = enhanced_logits(params, dec, sentence, ad.constant(emb), masks).data
            poked = emb.copy()
            poked[0, 0] += 5.0
            got = enhanced_logits(params, dec, sentence, ad.constant(poked), masks).data
        np.testing.assert_array_equal(got, base)


class TestReconstructionAccuracy:
    def test_hand_case(self):
        logits = np.zeros((1, 3, 4))
        logits[0, 0, 2] = 1.0  # right
        logits[0, 1, 0] = 1.0  # wrong
        logits[0, 2, 1] = 1.0  # right but unselected
        targets = np.array([[2, 3, 1]])
        positions = np.array([[True, True, False]])
        assert reconstruction_accuracy(logits, targets, positions) == 0.5

    def test_perfect_logits(self):
        rng = np.random.default_rng(0)
        targets = rng.integers(0, 6, size=(2, 5))
        logits = np.eye(6)[targets] * 3.0
        positions = np.ones((2, 5), dtype=bool)
        assert reconstruction_accuracy(logits, targets, positions) == 1.0

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            reconstruction_accuracy(np.zeros((1, 2, 3)), np.zeros((1, 2)), np.zeros((1, 2), dtype=bool))

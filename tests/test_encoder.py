"""Encoder forward-pass behavior.

The load-bearing properties: the sentence vector is the final hidden
state at position 0, padding never leaks into it, and the encoder path is
byte-for-byte the same regardless of which decoding mode will consume it.
"""

import numpy as np
import pytest

from dualmae import autodiff as ad
from dualmae.encoder import encode
from dualmae.model import DecoderConfig, EncoderConfig, LAYER_NORM_EPS, init_params
from dualmae.text import CLS_ID, SEP_ID, TokenSequence, make_batch

ENC = EncoderConfig(layers=2, hidden_dim=16, heads=4, ffn_dim=64, max_len=12, vocab_size=50)
DEC = DecoderConfig(mode="enhanced", layers=1, heads=4)


def _params(seed=0, dtype=np.float64):
    return init_params(ENC, DEC, np.random.default_rng(seed), dtype=dtype)


def _seq(content):
    return TokenSequence(np.concatenate([[CLS_ID], content, [SEP_ID]]))


class TestEncode:
    def test_sentence_is_position_zero(self):
        params = _params()
        batch = make_batch([_seq([9, 8, 7]), _seq([6, 5])])
        with ad.no_grad():
            sentence, hidden = encode(params, ENC, batch.ids, batch.real)
        assert sentence.shape == (2, 16)
        assert hidden.shape == (2, 5, 16)
        np.testing.assert_array_equal(sentence.data, hidden.data[:, 0])

    def test_deterministic(self):
        params = _params()
        batch = make_batch([_seq([9, 8, 7])])
        with ad.no_grad():
            a, _ = encode(params, ENC, batch.ids, batch.real)
            b, _ = encode(params, ENC, batch.ids, batch.real)
        np.testing.assert_array_equal(a.data, b.data)

    def test_padding_width_does_not_change_the_vector(self):
        # widening a batch adds pad columns whose attention weight is an
        # exact zero; only summation order can move, so the tolerance is
        # a few ulp rather than bitwise
        params = _params()
        seq = _seq([9, 8, 7, 6])
        narrow = make_batch([seq])
        wide = make_batch([seq], pad_to=12)
        with ad.no_grad():
            a, _ = encode(params, ENC, narrow.ids, narrow.real)
            b, _ = encode(params, ENC, wide.ids, wide.real)
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)

    def test_batch_companions_do_not_change_the_vector(self):
        params = _params()
        target = _seq([9, 8, 7])
        alone = make_batch([target], pad_to=8)
        crowd = make_batch([target, _seq([5, 6, 7, 8, 9, 10]), _seq([11])], pad_to=8)
        with ad.no_grad():
            a, _ = encode(params, ENC, alone.ids, alone.real)
            b, _ = encode(params, ENC, crowd.ids, crowd.real)
        np.testing.assert_array_equal(a.data, b.data[:1])

    def test_neutral_weights_reduce_to_norm_chain(self):
        # with all attention and FFN weights zeroed the blocks pass their
        # input through two layer norms, so the whole encoder collapses to
        # a closed form we can compute with plain numpy
        params = _params()
        for name, tensor in params.items():
            if ".attn." in name or ".ffn." in name:
                tensor.data = np.zeros_like(tensor.data)
        batch = make_batch([_seq([9, 8, 7])])
        with ad.no_grad():
            _, hidden = encode(params, ENC, batch.ids, batch.real)

        def norm(x, gain, bias):
            mu = x.mean(axis=-1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
            return (x - mu) / np.sqrt(var + LAYER_NORM_EPS) * gain + bias

        x = params["word_emb"].data[batch.ids] + params["enc_pos"].data[:5]
        x = norm(x, params["enc_emb_ln.gain"].data, params["enc_emb_ln.bias"].data)
        for i in range(2):
            x = norm(x, params[f"enc{i}.ln1.gain"].data, params[f"enc{i}.ln1.bias"].data)
            x = norm(x, params[f"enc{i}.ln2.gain"].data, params[f"enc{i}.ln2.bias"].data)
        np.testing.assert_allclose(hidden.data, x, rtol=0, atol=1e-12)

    def test_decoding_mode_never_touches_the_encoder(self):
        # parameter draws are ordered encoder-first, so both modes start
        # from identical encoder weights under the same seed, and encode()
        # takes no mode argument at all
        basic = init_params(ENC, DecoderConfig(mode="basic", layers=1, heads=4),
                            np.random.default_rng(4), dtype=np.float64)
        enhanced = init_params(ENC, DecoderConfig(mode="enhanced", layers=1, heads=4),
                               np.random.default_rng(4), dtype=np.float64)
        for name in basic:
            if not name.startswith("dec"):
                np.testing.assert_array_equal(basic[name].data, enhanced[name].data, err_msg=name)
        batch = make_batch([_seq([9, 8, 7])])
        with ad.no_grad():
            a, _ = encode(basic, ENC, batch.ids, batch.real)
            b, _ = encode(enhanced, ENC, batch.ids, batch.real)
        np.testing.assert_array_equal(a.data, b.data)


class TestEncodeValidation:
    def test_length_capped_by_config(self):
        params = _params()
        ids = np.full((1, 13), 5)
        ids[0, 0], ids[0, -1] = CLS_ID, SEP_ID
        with pytest.raises(ValueError):
            encode(params, ENC, ids, np.ones((1, 13), dtype=bool))

    def test_position_zero_must_be_real(self):
        params = _params()
        batch = make_batch([_seq([9])], pad_to=4)
        real = batch.real.copy()
        real[0, 0] = False
        with pytest.raises(ValueError):
            encode(params, ENC, batch.ids, real)

    def test_shapes_must_agree(self):
        params = _params()
        batch = make_batch([_seq([9])])
        with pytest.raises(ValueError):
            encode(params, ENC, batch.ids, batch.real[:, :2])

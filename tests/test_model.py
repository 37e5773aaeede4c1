"""Parameter store, initialization, and the attention building blocks."""

import numpy as np
import pytest

from dualmae import autodiff as ad
from dualmae.model import (
    INIT_STD,
    DecoderConfig,
    EncoderConfig,
    attention,
    init_params,
    output_logits,
    param_shapes,
)

TINY = EncoderConfig(layers=2, hidden_dim=16, heads=4, ffn_dim=64, max_len=8, vocab_size=50)
DEC = DecoderConfig(mode="enhanced", layers=1, heads=4)


class TestConfigs:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            EncoderConfig(layers=1, hidden_dim=10, heads=3, ffn_dim=16, max_len=8, vocab_size=50)

    def test_head_dim(self):
        assert TINY.head_dim == 4

    def test_encoder_floors(self):
        with pytest.raises(ValueError):
            EncoderConfig(layers=0, hidden_dim=16, heads=4, ffn_dim=64, max_len=8, vocab_size=50)
        with pytest.raises(ValueError):
            EncoderConfig(layers=1, hidden_dim=16, heads=4, ffn_dim=64, max_len=2, vocab_size=50)
        with pytest.raises(ValueError):
            EncoderConfig(layers=1, hidden_dim=16, heads=4, ffn_dim=64, max_len=8, vocab_size=5)

    def test_decoder_mode_validated(self):
        with pytest.raises(ValueError):
            DecoderConfig(mode="fancy", layers=1, heads=4)

    def test_enhanced_decoder_is_single_layer(self):
        with pytest.raises(ValueError):
            DecoderConfig(mode="enhanced", layers=2, heads=4)
        DecoderConfig(mode="basic", layers=2, heads=4)  # fine


class TestInit:
    def test_shapes_match_declaration(self):
        params = init_params(TINY, DEC, np.random.default_rng(0))
        declared = dict(param_shapes(TINY, DEC))
        assert list(params) == list(declared)
        for name, tensor in params.items():
            assert tensor.shape == declared[name], name

    def test_same_seed_same_bits(self):
        a = init_params(TINY, DEC, np.random.default_rng([3, 0]))
        b = init_params(TINY, DEC, np.random.default_rng([3, 0]))
        for (name, ta), (_, tb) in zip(a.items(), b.items()):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=name)

    def test_weights_are_truncated(self):
        params = init_params(TINY, DEC, np.random.default_rng(1))
        w = params["enc0.attn.wq"].data
        assert np.abs(w).max() <= 2.0 * INIT_STD
        assert w.std() > 0.5 * INIT_STD

    def test_norms_and_biases_start_neutral(self):
        params = init_params(TINY, DEC, np.random.default_rng(2))
        np.testing.assert_array_equal(params["enc0.ln1.gain"].data, np.ones(16, dtype=np.float32))
        np.testing.assert_array_equal(params["enc0.attn.bq"].data, np.zeros(16, dtype=np.float32))
        np.testing.assert_array_equal(params["out_bias"].data, np.zeros(50, dtype=np.float32))

    def test_basic_decoder_gets_stacked_layers(self):
        two = DecoderConfig(mode="basic", layers=2, heads=4)
        params = init_params(TINY, two, np.random.default_rng(3))
        assert "dec1.attn.wq" in params
        assert "dec2.attn.wq" not in params

    def test_requested_dtype_is_respected(self):
        params = init_params(TINY, DEC, np.random.default_rng(4), dtype=np.float64)
        assert all(t.data.dtype == np.float64 for t in params.values())

    def test_zero_grads_clears(self):
        params = init_params(TINY, DEC, np.random.default_rng(5))
        ad.backward(ad.sum_all(params["out_bias"]))
        assert params["out_bias"].grad is not None
        for t in params.values():
            t.grad = None
        assert all(t.grad is None for t in params.values())


class TestAttention:
    def test_single_head_matches_numpy_oracle(self):
        cfg = EncoderConfig(layers=1, hidden_dim=6, heads=1, ffn_dim=12, max_len=5, vocab_size=50)
        params = init_params(cfg, DecoderConfig(mode="basic", layers=1, heads=1),
                             np.random.default_rng(7), dtype=np.float64)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 6))
        real = np.array([[True] * 4, [True, True, True, False]])
        visible = real[:, None, None, :]

        with ad.no_grad():
            got = attention(params, "enc0", ad.constant(x), ad.constant(x), visible, heads=1).data

        def lin(name, b):
            return x @ params[f"enc0.attn.{name}"].data + params[f"enc0.attn.{b}"].data

        q, k, v = lin("wq", "bq"), lin("wk", "bk"), lin("wv", "bv")
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(6.0) + np.where(visible[:, 0], 0.0, -np.inf)
        weights = np.zeros_like(scores)
        for bi in range(2):
            for i in range(4):
                vis = scores[bi, i] > -np.inf
                e = np.exp(scores[bi, i][vis] - scores[bi, i][vis].max())
                weights[bi, i][vis] = e / e.sum()
        expected = (weights @ v) @ params["enc0.attn.wo"].data + params["enc0.attn.bo"].data
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_multi_head_differs_from_single_head_mixing(self):
        # same parameters, different head count: the split changes which
        # dimensions may interact, so outputs must differ
        params = init_params(TINY, DEC, np.random.default_rng(9), dtype=np.float64)
        rng = np.random.default_rng(10)
        x = ad.constant(rng.standard_normal((1, 5, 16)))
        visible = np.ones((1, 1, 1, 5), dtype=bool)
        with ad.no_grad():
            four = attention(params, "enc0", x, x, visible, heads=4).data
            one = attention(params, "enc0", x, x, visible, heads=1).data
        assert not np.allclose(four, one)


class TestOutputLogits:
    def test_projection_is_tied_to_the_embedding(self):
        params = init_params(TINY, DEC, np.random.default_rng(11), dtype=np.float64)
        rng = np.random.default_rng(12)
        hidden = rng.standard_normal((2, 4, 16))
        with ad.no_grad():
            got = output_logits(params, ad.constant(hidden)).data
        expected = hidden @ params["word_emb"].data.T + params["out_bias"].data
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_embedding_gradient_flows_from_both_ends(self):
        # the table is read at the input and at the output head; training
        # must accumulate both contributions
        params = init_params(TINY, DEC, np.random.default_rng(13), dtype=np.float64)
        emb = params["word_emb"]
        ids = np.array([[2, 7, 3]])
        hidden = ad.embedding_lookup(emb, ids)
        loss = ad.sum_all(output_logits(params, hidden))
        ad.backward(loss)
        # the head contribution reaches every vocabulary row; the input
        # contribution only the looked-up rows, so rows outside ids must
        # still be nonzero
        assert emb.grad is not None
        untouched = np.setdiff1d(np.arange(50), ids.reshape(-1))
        assert np.abs(emb.grad[untouched]).max() > 0

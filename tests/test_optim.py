"""AdamW arithmetic, gradient clipping, and warmup."""

import numpy as np
import pytest

from dualmae import autodiff as ad
from dualmae.model import DecoderConfig, EncoderConfig, init_params
from dualmae.optim import (
    AdamW,
    adamw_update,
    clip_global_norm,
    global_grad_norm,
    warmup_scale,
)


class TestAdamWUpdate:
    def test_first_step_hand_computed(self):
        p = np.array([1.0])
        g = np.array([0.5])
        m0 = np.zeros(1)
        v0 = np.zeros(1)
        new, m, v = adamw_update(p, g, m0, v0, step=1, lr=0.1, weight_decay=0.01)
        assert m[0] == pytest.approx(0.05, abs=1e-15)
        assert v[0] == pytest.approx(0.00025, abs=1e-15)
        # bias correction at step 1 recovers the raw gradient direction
        m_hat, v_hat = 0.5, 0.25
        expected = 1.0 - 0.1 * 0.01 * 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert new[0] == pytest.approx(expected, abs=1e-15)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal(6)
        m = np.zeros(6)
        v = np.zeros(6)
        rp, rm, rv = p.copy(), m.copy(), v.copy()
        lr, b1, b2, eps, wd = 3e-3, 0.9, 0.999, 1e-8, 0.05
        for step in range(1, 6):
            g = rng.standard_normal(6)
            p, m, v = adamw_update(p, g, m, v, step, lr, wd)
            rm = b1 * rm + (1 - b1) * g
            rv = b2 * rv + (1 - b2) * g * g
            mh = rm / (1 - b1**step)
            vh = rv / (1 - b2**step)
            rp = rp - lr * wd * rp - lr * mh / (np.sqrt(vh) + eps)
            np.testing.assert_allclose(p, rp, atol=1e-14)
            np.testing.assert_allclose(m, rm, atol=1e-14)
            np.testing.assert_allclose(v, rv, atol=1e-14)

    def test_decay_is_decoupled_from_the_moments(self):
        # zero gradient: the moments stay zero and the update is exactly
        # the decay term
        p = np.array([2.0, -3.0])
        new, m, v = adamw_update(p, np.zeros(2), np.zeros(2), np.zeros(2),
                                 step=1, lr=0.1, weight_decay=0.01)
        np.testing.assert_array_equal(m, np.zeros(2))
        np.testing.assert_array_equal(v, np.zeros(2))
        np.testing.assert_array_equal(new, p - 0.1 * 0.01 * p)

    def test_zero_learning_rate_is_a_bit_exact_no_op(self):
        rng = np.random.default_rng(1)
        p = rng.standard_normal(5).astype(np.float32)
        g = rng.standard_normal(5).astype(np.float32)
        new, _, _ = adamw_update(p, g, np.zeros(5, np.float32), np.zeros(5, np.float32),
                                 step=1, lr=0.0, weight_decay=0.01)
        np.testing.assert_array_equal(new, p)

    def test_dtype_is_preserved(self):
        p = np.ones(3, dtype=np.float32)
        new, m, v = adamw_update(p, np.ones(3, np.float32), np.zeros(3, np.float32),
                                 np.zeros(3, np.float32), step=1, lr=0.01, weight_decay=0.01)
        assert new.dtype == m.dtype == v.dtype == np.float32

    def test_step_is_one_based(self):
        with pytest.raises(ValueError):
            adamw_update(np.ones(1), np.ones(1), np.zeros(1), np.zeros(1), step=0, lr=0.1, weight_decay=0.01)


class TestClipping:
    def test_norm_matches_numpy(self):
        rng = np.random.default_rng(2)
        grads = [rng.standard_normal((3, 4)), rng.standard_normal(7)]
        expected = np.sqrt(sum(float((g**2).sum()) for g in grads))
        assert global_grad_norm(grads) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("magnitude", [1e-6, 1e-3, 1.0, 10.0])
    def test_norm_equals_the_two_copy_formula_bit_for_bit(self, magnitude):
        # the formula the norm used before it squared its float64 copy in
        # place; the clip factor, and so every trained byte, hangs on it
        def two_copies(grads):
            total = 0.0
            for g in grads:
                total += float(np.sum(g.astype(np.float64) ** 2))
            return float(np.sqrt(total))

        enc = EncoderConfig(layers=2, hidden_dim=64, heads=4, ffn_dim=256, max_len=128, vocab_size=2048)
        params = init_params(enc, DecoderConfig(mode="enhanced", layers=1, heads=4), np.random.default_rng(0))
        rng = np.random.default_rng(int(-np.log10(magnitude)) + 20)
        for _ in range(3):
            grads = [(rng.standard_normal(t.shape) * magnitude).astype(np.float32) for t in params.values()]
            assert global_grad_norm(grads) == two_copies(grads)

    def test_under_the_limit_is_untouched(self):
        grads = [np.array([0.3, 0.4])]  # norm 0.5
        before = [g.copy() for g in grads]
        returned = clip_global_norm(grads, 1.0)
        assert returned == pytest.approx(0.5)
        np.testing.assert_array_equal(grads[0], before[0])

    def test_over_the_limit_scales_in_place(self):
        grads = [np.array([3.0, 4.0]), np.array([12.0])]  # norm 13
        returned = clip_global_norm(grads, 1.0)
        assert returned == pytest.approx(13.0)
        assert global_grad_norm(grads) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(grads[0], [3.0 / 13.0, 4.0 / 13.0], rtol=1e-12)

    def test_non_finite_norm_leaves_gradients_alone(self):
        for bad in (np.inf, np.nan):
            grads = [np.array([bad, 4.0]), np.array([12.0])]
            before = [g.copy() for g in grads]
            with np.errstate(all="raise"):
                returned = clip_global_norm(grads, 1.0)
            assert not np.isfinite(returned)
            for g, b in zip(grads, before):
                np.testing.assert_array_equal(g, b)


class TestWarmup:
    def test_disabled_when_zero(self):
        assert warmup_scale(1, 0) == 1.0

    def test_linear_ramp(self):
        assert warmup_scale(3, 10) == pytest.approx(0.3)
        assert warmup_scale(10, 10) == 1.0
        assert warmup_scale(25, 10) == 1.0


class TestOptimizerWrapper:
    def _params(self):
        enc = EncoderConfig(layers=1, hidden_dim=8, heads=2, ffn_dim=16, max_len=6, vocab_size=10)
        dec = DecoderConfig(mode="enhanced", layers=1, heads=2)
        return init_params(enc, dec, np.random.default_rng(3))

    def test_one_step_matches_the_pure_function(self):
        params = self._params()
        target = params["out_bias"]
        ad.backward(ad.sum_all(ad.mul(target, target)))
        grad = target.grad.copy()
        before = target.data.copy()
        opt = AdamW()
        opt.step(params, 1, 0.01, 0.02)
        expected, _, _ = adamw_update(before, grad, np.zeros_like(before),
                                      np.zeros_like(before), step=1, lr=0.01, weight_decay=0.02)
        np.testing.assert_array_equal(target.data, expected)

    def test_the_given_step_sets_the_bias_correction(self):
        params = self._params()
        target = params["word_emb"]
        ad.backward(ad.sum_all(ad.mul(target, target)))
        grad = target.grad.copy()
        before = target.data.copy()
        AdamW().step(params, 5, 0.01, 0.02)
        zeros = np.zeros_like(before)
        expected, _, _ = adamw_update(before, grad, zeros, zeros, step=5, lr=0.01, weight_decay=0.02)
        first, _, _ = adamw_update(before, grad, zeros, zeros, step=1, lr=0.01, weight_decay=0.02)
        np.testing.assert_array_equal(target.data, expected)
        assert not np.array_equal(target.data, first)

    def test_step_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            AdamW().step(self._params(), 0, 0.01, 0.01)

    def test_untouched_parameters_still_decay(self):
        params = self._params()
        before = params["enc0.attn.wq"].data.copy()
        opt = AdamW()
        opt.step(params, 1, 0.1, 0.5)  # no gradients anywhere
        np.testing.assert_array_equal(
            params["enc0.attn.wq"].data, before - np.float32(0.1 * 0.5) * before
        )

    def test_a_zero_lr_step_leaves_the_parameters_bit_exact(self):
        # warmup scales the learning rate the caller passes; at zero, even
        # the decay term vanishes
        params = self._params()
        before = params["out_bias"].data.copy()
        AdamW().step(params, 1, 0.0, 0.5)
        np.testing.assert_array_equal(params["out_bias"].data, before)

    def test_the_moments_are_the_whole_state(self):
        # the learning rate and decay live in TrainConfig alone, so a saved
        # and loaded optimizer cannot carry a second, different copy
        opt = AdamW()
        opt.step(self._params(), 1, 0.01, 0.01)
        assert list(vars(opt)) == ["moments"]

    def test_moments_persist_across_steps(self):
        params = self._params()
        opt = AdamW()
        opt.step(params, 1, 0.01, 0.01)
        m1, v1 = opt.moments["out_bias"]
        p1 = params["out_bias"].data.copy()
        opt.step(params, 2, 0.01, 0.01)
        m2, _ = opt.moments["out_bias"]
        # the second update starts from the first one's moments, at step 2
        expected, _, _ = adamw_update(p1, np.zeros_like(p1), m1, v1, step=2, lr=0.01, weight_decay=0.01)
        np.testing.assert_array_equal(params["out_bias"].data, expected)
        np.testing.assert_allclose(m2, 0.9 * m1, atol=1e-12)
        assert v1.shape == params["out_bias"].shape

"""Unit checks for the array autodiff core.

Every differentiable op is verified against central finite differences in
float64. The masked softmax and the weighted cross entropy also get
closed-form oracles, since those two carry the numerical tricks the rest
of the model leans on: exact zeros at blocked attention entries and exact
zero gradients at unweighted loss rows.
"""

import math

import numpy as np
import pytest

from dualmae import autodiff as ad
from dualmae.autodiff import MaskedRowError, MaskFormatError, NonFiniteError, ShapeError

from conftest import assert_grads_match, leaf, scalar_probe


class TestBackwardMechanics:
    def test_sum_all_spreads_ones(self):
        x = leaf(np.random.default_rng(0), 3, 4)
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_shared_input_accumulates(self):
        x = leaf(np.random.default_rng(1), 5)
        ad.backward(ad.sum_all(ad.add(x, x)))
        np.testing.assert_array_equal(x.grad, np.full(5, 2.0))

    def test_product_rule_through_square(self):
        x = leaf(np.random.default_rng(2), 4)
        ad.backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=0, atol=0)

    def test_constants_collect_no_gradient(self):
        # (op, input shapes, which inputs are constants): the constants get no
        # gradient and the parameters get exactly what an all-parameter graph gives
        cases = [
            (lambda t: ad.mul(*t), [(3,), (3,)], {1}),
            (lambda t: ad.mul(*t), [(3,), (3,)], {0}),
            (lambda t: ad.add(*t), [(3,), (3,)], {0}),
            (lambda t: ad.add(*t), [(2, 3), (3,)], {1}),
            (lambda t: ad.matmul(*t), [(2, 3), (3, 4)], {0}),
            (lambda t: ad.matmul(*t), [(2, 3), (3, 4)], {1}),
            (lambda t: ad.concat(t, axis=0), [(2, 3), (1, 3), (2, 3)], {1}),
            (lambda t: ad.concat(t, axis=1), [(2, 3), (2, 1)], {0}),
            (lambda t: ad.layer_norm(*t), [(2, 4), (4,), (4,)], {1, 2}),
            (lambda t: ad.layer_norm(*t), [(2, 4), (4,), (4,)], {1}),
            (lambda t: ad.layer_norm(*t), [(2, 4), (4,), (4,)], {2}),
        ]
        rng = np.random.default_rng(3)
        for case, (op, shapes, consts) in enumerate(cases):
            data = [rng.standard_normal(shape) for shape in shapes]
            weights = rng.standard_normal(op([ad.constant(d) for d in data]).shape)

            def inputs_after_backward(constant_at):
                ts = [ad.constant(d) if i in constant_at else ad.parameter(d, dtype=np.float64)
                      for i, d in enumerate(data)]
                ad.backward(scalar_probe(op(ts), weights))
                return ts

            mixed = inputs_after_backward(consts)
            full = inputs_after_backward(set())
            for i, (m, f) in enumerate(zip(mixed, full)):
                if i in consts:
                    assert m.grad is None, (case, i)
                else:
                    assert m.grad is not None, (case, i)
                    np.testing.assert_array_equal(m.grad, f.grad, err_msg=f"case {case}, input {i}")

    def test_backward_rejects_non_scalar(self):
        x = leaf(np.random.default_rng(4), 3)
        with pytest.raises(ShapeError):
            ad.backward(ad.add(x, x))

    def test_no_grad_suppresses_recording(self):
        x = leaf(np.random.default_rng(5), 3)
        with ad.no_grad():
            out = ad.sum_all(ad.mul(x, x))
        assert not out.requires_grad
        assert out._parents == ()

    def test_gradients_accumulate_across_graphs(self):
        # two independent graphs over the same leaf add up; callers reset
        # with zero_grads / grad = None between steps
        x = leaf(np.random.default_rng(6), 3)
        ad.backward(ad.sum_all(x))
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_diamond_graph_visits_each_op_once(self):
        x = leaf(np.random.default_rng(7), 3)
        y = ad.mul(x, x)
        loss = ad.sum_all(ad.add(y, y))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 4.0 * x.data, rtol=0, atol=0)

    def test_overflow_is_reported_not_propagated(self):
        x = ad.parameter(np.array([1e300]), dtype=np.float64)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ad.scale(x, 1e300)


class TestElementwiseGradients:
    def test_add_with_broadcast(self):
        rng = np.random.default_rng(10)
        a, b = leaf(rng, 3, 4), leaf(rng, 4)
        w = rng.standard_normal((3, 4))
        assert_grads_match(lambda: scalar_probe(ad.add(a, b), w), [a, b])

    def test_mul_with_broadcast(self):
        rng = np.random.default_rng(11)
        a, b = leaf(rng, 3, 4), leaf(rng, 3, 1)
        w = rng.standard_normal((3, 4))
        assert_grads_match(lambda: scalar_probe(ad.mul(a, b), w), [a, b])

    def test_scale(self):
        rng = np.random.default_rng(12)
        a = leaf(rng, 5)
        w = rng.standard_normal(5)
        assert_grads_match(lambda: scalar_probe(ad.scale(a, -1.7), w), [a])

    def test_gelu_values(self):
        x = ad.constant(np.array([0.0, 6.0, -6.0]))
        y = ad.gelu(x).data
        assert y[0] == 0.0
        assert abs(y[1] - 6.0) < 1e-8
        assert abs(y[2]) < 1e-8

    def test_gelu_grad(self):
        rng = np.random.default_rng(13)
        a = leaf(rng, 7)
        w = rng.standard_normal(7)
        assert_grads_match(lambda: scalar_probe(ad.gelu(a), w), [a])

    def test_matmul_2d(self):
        rng = np.random.default_rng(14)
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        w = rng.standard_normal((3, 2))
        assert_grads_match(lambda: scalar_probe(ad.matmul(a, b), w), [a, b])

    def test_matmul_stacked(self):
        rng = np.random.default_rng(15)
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 2)
        w = rng.standard_normal((2, 3, 2))
        assert_grads_match(lambda: scalar_probe(ad.matmul(a, b), w), [a, b])

    def test_matmul_stacked_by_2d(self):
        rng = np.random.default_rng(16)
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 2)
        w = rng.standard_normal((2, 3, 2))
        assert_grads_match(lambda: scalar_probe(ad.matmul(a, b), w), [a, b])

    def test_transpose(self):
        rng = np.random.default_rng(17)
        a = leaf(rng, 2, 3, 4)
        w = rng.standard_normal((2, 4, 3))
        assert_grads_match(lambda: scalar_probe(ad.transpose(a, (0, 2, 1)), w), [a])

    def test_reshape(self):
        rng = np.random.default_rng(18)
        a = leaf(rng, 3, 4)
        w = rng.standard_normal((2, 6))
        assert_grads_match(lambda: scalar_probe(ad.reshape(a, (2, 6)), w), [a])

    def test_concat(self):
        rng = np.random.default_rng(19)
        parts = [leaf(rng, 2, 1, 3), leaf(rng, 2, 2, 3), leaf(rng, 2, 1, 3)]
        w = rng.standard_normal((2, 4, 3))
        assert_grads_match(lambda: scalar_probe(ad.concat(parts, axis=1), w), parts)

    def test_narrow(self):
        rng = np.random.default_rng(20)
        a = leaf(rng, 2, 5, 3)
        w = rng.standard_normal((2, 3, 3))
        assert_grads_match(lambda: scalar_probe(ad.narrow(a, 1, 1, 3), w), [a])

    def test_select_index(self):
        rng = np.random.default_rng(21)
        a = leaf(rng, 2, 5, 3)
        w = rng.standard_normal((2, 3))
        assert_grads_match(lambda: scalar_probe(ad.select_index(a, 0, axis=1), w), [a])

    def test_embedding_lookup_accumulates_repeats(self):
        rng = np.random.default_rng(22)
        table = leaf(rng, 6, 3)
        ids = np.array([[1, 1, 4]])
        w = rng.standard_normal((1, 3, 3))
        assert_grads_match(lambda: scalar_probe(ad.embedding_lookup(table, ids), w), [table])
        # row 1 was looked up twice: its gradient is the sum of both slots
        table.grad = None
        ad.backward(scalar_probe(ad.embedding_lookup(table, ids), w))
        np.testing.assert_array_equal(table.grad[1], w[0, 0] + w[0, 1])
        np.testing.assert_array_equal(table.grad[0], np.zeros(3))


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        rng = np.random.default_rng(30)
        x = ad.constant(rng.standard_normal((4, 16)) * 3.0 + 1.0)
        gain = ad.constant(np.ones(16))
        bias = ad.constant(np.zeros(16))
        y = ad.layer_norm(x, gain, bias).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(31)
        x, gain, bias = leaf(rng, 3, 8), leaf(rng, 8), leaf(rng, 8)
        w = rng.standard_normal((3, 8))
        assert_grads_match(
            lambda: scalar_probe(ad.layer_norm(x, gain, bias), w), [x, gain, bias], tol=1e-5
        )

    def test_constant_row_stays_finite(self):
        x = ad.constant(np.full((1, 8), 2.5))
        gain = ad.constant(np.ones(8))
        bias = ad.constant(np.zeros(8))
        y = ad.layer_norm(x, gain, bias).data
        np.testing.assert_array_equal(y, np.zeros((1, 8)))


def _dense_softmax_oracle(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(scores)
    flat_s = scores.reshape(-1, scores.shape[-1])
    flat_m = np.broadcast_to(mask, scores.shape).reshape(-1, scores.shape[-1])
    flat_o = out.reshape(-1, scores.shape[-1])
    for r in range(flat_s.shape[0]):
        vis = flat_m[r] == True
        e = np.exp(flat_s[r][vis] - flat_s[r][vis].max())
        flat_o[r][vis] = e / e.sum()
    return out


def _random_mask(rng: np.random.Generator, shape) -> np.ndarray:
    mask = np.where(rng.random(shape) < 0.4, False, True)
    mask[..., 0] = True  # keep every row non-empty
    return mask


class TestMaskedSoftmax:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(40)
        scores = rng.standard_normal((2, 3, 5, 5))
        mask = _random_mask(rng, (2, 3, 5, 5))
        got = ad.masked_softmax(ad.constant(scores), mask).data
        np.testing.assert_allclose(got, _dense_softmax_oracle(scores, mask), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(41)
        scores = rng.standard_normal((4, 6, 6))
        mask = _random_mask(rng, (4, 6, 6))
        got = ad.masked_softmax(ad.constant(scores), mask).data
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)

    def test_blocked_entries_are_exactly_zero(self):
        rng = np.random.default_rng(42)
        scores = rng.standard_normal((3, 5, 5))
        mask = _random_mask(rng, (3, 5, 5))
        got = ad.masked_softmax(ad.constant(scores), mask).data
        assert np.all(got[mask == False] == 0.0)

    def test_mask_broadcasts_over_heads(self):
        rng = np.random.default_rng(43)
        scores = rng.standard_normal((2, 4, 5, 5))
        mask = _random_mask(rng, (2, 1, 5, 5))
        tiled = np.broadcast_to(mask, scores.shape).copy()
        a = ad.masked_softmax(ad.constant(scores), mask).data
        b = ad.masked_softmax(ad.constant(scores), tiled).data
        np.testing.assert_array_equal(a, b)

    def test_extreme_scores_stay_finite(self):
        scores = np.array([[1e4, -1e4, 0.0], [3e4, 3e4, 3e4]])
        mask = np.full((2, 3), True)
        got = ad.masked_softmax(ad.constant(scores), mask).data
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)

    def test_fully_masked_row_rejected(self):
        scores = ad.constant(np.zeros((2, 3)))
        mask = np.full((2, 3), True)
        mask[1, :] = False
        with pytest.raises(MaskedRowError):
            ad.masked_softmax(scores, mask)

    def test_mask_entries_validated(self):
        scores = ad.constant(np.zeros((2, 3)))
        mask = np.zeros((2, 3))
        mask[0, 1] = -1.0
        with pytest.raises(ValueError):
            ad.masked_softmax(scores, mask)

    def test_additive_float_mask_is_rejected_by_name(self):
        # an old {0, -inf} mask must not read as "everything visible"
        scores = ad.constant(np.zeros((2, 3)))
        additive = np.where(np.eye(2, 3, dtype=bool), 0.0, -np.inf)
        for mask in (np.zeros((2, 3)), additive, np.ones((2, 3), dtype=np.int64)):
            with pytest.raises(MaskFormatError, match="visibility mask must be bool"):
                ad.masked_softmax(scores, mask)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(44)
        scores = leaf(rng, 2, 4, 4)
        mask = _random_mask(rng, (2, 4, 4))
        w = rng.standard_normal((2, 4, 4))
        assert_grads_match(
            lambda: scalar_probe(ad.masked_softmax(scores, mask), w), [scores], tol=1e-5
        )

    def test_blocked_entries_get_zero_grad(self):
        rng = np.random.default_rng(45)
        scores = leaf(rng, 3, 5, 5)
        mask = _random_mask(rng, (3, 5, 5))
        w = rng.standard_normal((3, 5, 5))
        ad.backward(scalar_probe(ad.masked_softmax(scores, mask), w))
        assert np.all(scores.grad[mask == False] == 0.0)


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        logits = ad.constant(np.zeros((6, 37)))
        loss = ad.cross_entropy(logits, np.zeros(6, dtype=np.int64), np.ones(6, dtype=np.int64))
        assert abs(float(loss.data) - math.log(37)) < 1e-12

    def test_hand_computed_case(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 10.0]])
        loss = ad.cross_entropy(
            ad.constant(logits), np.array([2, 0]), np.ones(2, dtype=np.int64)
        )
        nll0 = math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 3.0
        nll1 = math.log(1 + 1 + math.exp(10)) - 0.0
        assert abs(float(loss.data) - (nll0 + nll1) / 2.0) < 1e-12

    def test_zero_weight_rows_are_invisible(self):
        rng = np.random.default_rng(50)
        logits = rng.standard_normal((5, 7))
        targets = rng.integers(0, 7, size=5)
        weights = np.array([1, 0, 1, 0, 0])
        full = ad.cross_entropy(ad.constant(logits), targets, weights)
        sub = ad.cross_entropy(
            ad.constant(logits[weights == 1]), targets[weights == 1], np.ones(2, dtype=np.int64)
        )
        assert float(full.data) == float(sub.data)
        # and changing an unweighted row cannot move the loss
        logits[1] += 100.0
        again = ad.cross_entropy(ad.constant(logits), targets, weights)
        assert float(again.data) == float(full.data)

    def test_zero_weight_rows_get_exactly_zero_grad(self):
        rng = np.random.default_rng(51)
        logits = leaf(rng, 5, 7)
        targets = rng.integers(0, 7, size=5)
        weights = np.array([0, 1, 0, 1, 1])
        ad.backward(ad.cross_entropy(logits, targets, weights))
        assert np.all(logits.grad[weights == 0] == 0.0)
        assert np.any(logits.grad[weights == 1] != 0.0)

    def test_grad_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(52)
        logits = leaf(rng, 4, 6)
        targets = rng.integers(0, 6, size=4)
        ad.backward(ad.cross_entropy(logits, targets, np.ones(4, dtype=np.int64)))
        z = logits.data - logits.data.max(axis=-1, keepdims=True)
        soft = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        soft[np.arange(4), targets] -= 1.0
        np.testing.assert_allclose(logits.grad, soft / 4.0, atol=1e-12)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(53)
        logits = leaf(rng, 6, 5)
        targets = rng.integers(0, 5, size=6)
        weights = np.array([1, 1, 0, 1, 0, 1])
        assert_grads_match(
            lambda: ad.cross_entropy(logits, targets, weights), [logits], tol=1e-6
        )

    def test_all_zero_weights_rejected(self):
        logits = ad.constant(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            ad.cross_entropy(logits, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))

    def test_out_of_vocab_target_rejected_only_when_weighted(self):
        logits = ad.constant(np.zeros((2, 4)))
        targets = np.array([0, 9])
        with pytest.raises(ValueError):
            ad.cross_entropy(logits, targets, np.array([1, 1]))
        # the same bad id is fine on a row the loss never reads
        ad.cross_entropy(logits, targets, np.array([1, 0]))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy(ad.constant(np.zeros((2, 3, 4))), np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            ad.cross_entropy(ad.constant(np.zeros((2, 3))), np.zeros(3), np.ones(3))

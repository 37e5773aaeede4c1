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

from gradients import assert_grads_match, leaf, scalar_probe


class TestBackwardMechanics:
    def test_sum_all_spreads_ones(self):
        x = leaf(np.random.default_rng(0), 3, 4)
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_shared_input_accumulates(self):
        x = leaf(np.random.default_rng(1), 5)
        out = ad.add(x, x)
        ad.backward(ad.sum_all(out))
        np.testing.assert_array_equal(x.grad, np.full(5, 2.0))
        # the parameter's sum lives in its own array, not in add's gradient
        np.testing.assert_array_equal(out.grad, np.ones(5))
        assert not np.shares_memory(x.grad, out.grad)

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
            (lambda t: ad.linear(*t), [(2, 3, 4), (4, 5), (5,)], {0}),
            (lambda t: ad.linear(*t), [(2, 3, 4), (4, 5), (5,)], {1}),
            (lambda t: ad.linear(*t), [(2, 3, 4), (4, 5), (5,)], {2}),
            (lambda t: ad.concat(t, axis=0), [(2, 3), (1, 3), (2, 3)], {1}),
            (lambda t: ad.concat(t, axis=1), [(2, 3), (2, 1)], {0}),
            (lambda t: ad.layer_norm(*t), [(2, 4), (4,), (4,)], {1, 2}),
            (lambda t: ad.layer_norm(*t), [(2, 4), (4,), (4,)], {1}),
            (lambda t: ad.layer_norm(*t), [(2, 4), (4,), (4,)], {2}),
        ]
        rng = np.random.default_rng(3)
        for case, (op, shapes, consts) in enumerate(cases):
            data = [rng.standard_normal(shape) for shape in shapes]
            weights = rng.standard_normal(op([ad.Tensor(d) for d in data]).shape)

            def inputs_after_backward(constant_at):
                ts = [ad.Tensor(d) if i in constant_at else ad.parameter(d, dtype=np.float64)
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

    def test_parameter_made_under_no_grad_still_learns(self):
        # no_grad stops recording, not the parameter: used outside the block
        # it collects its gradient like any other
        with ad.no_grad():
            p = ad.parameter(np.ones(3), dtype=np.float64)
        assert p.requires_grad
        ad.backward(ad.sum_all(ad.mul(p, p)))
        np.testing.assert_array_equal(p.grad, np.full(3, 2.0))

    def test_gradients_accumulate_across_graphs(self):
        # two independent graphs over the same leaf add up; callers reset
        # with grad = None between steps
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


class TestGradientOwnership:
    def test_add_gives_each_parameter_its_own_gradient(self):
        # add hands the same array to both inputs; each parameter copies it
        rng = np.random.default_rng(8)
        p, q = leaf(rng, 3), leaf(rng, 3)
        w = rng.standard_normal(3)
        out = ad.add(p, q)
        ad.backward(scalar_probe(out, w))
        for g in (p.grad, q.grad):
            np.testing.assert_array_equal(g, w)
            assert g.flags.writeable
            assert not np.shares_memory(g, out.grad)
        assert not np.shares_memory(p.grad, q.grad)
        p.grad *= 2.0
        np.testing.assert_array_equal(q.grad, w)
        np.testing.assert_array_equal(out.grad, w)

    def test_interior_nodes_take_the_gradient_they_are_handed(self):
        # reshape hands its input a view of its own gradient: no copy
        rng = np.random.default_rng(10)
        p = leaf(rng, 2, 3)
        inner = ad.mul(p, p)
        flat = ad.reshape(inner, (6,))
        ad.backward(scalar_probe(flat, rng.standard_normal(6)))
        assert np.shares_memory(inner.grad, flat.grad)
        assert not np.shares_memory(p.grad, inner.grad)

    def test_a_second_gradient_is_added_into_a_new_array(self):
        # the first gradient x receives is y's own; the sum must not write into it
        rng = np.random.default_rng(11)
        x = ad.mul(leaf(rng, 3), ad.Tensor(np.ones(3)))
        y = ad.reshape(x, (3,))
        w = rng.standard_normal(3)
        ad.backward(scalar_probe(ad.add(y, x), w))
        np.testing.assert_array_equal(y.grad, w)
        np.testing.assert_array_equal(x.grad, 2.0 * w)

    def test_gradient_shape_and_dtype_are_checked(self):
        p = ad.parameter(np.zeros((2, 3)), dtype=np.float32)
        with pytest.raises(ShapeError, match=r"gradient of shape \(3,\)"):
            p._accumulate(np.ones(3, dtype=np.float32))
        with pytest.raises(TypeError, match="gradient of dtype float64"):
            p._accumulate(np.ones((2, 3)))
        assert p.grad is None

    def test_an_op_that_would_promote_is_refused_at_the_op(self):
        p = ad.parameter(np.ones(3), dtype=np.float32)
        with pytest.raises(TypeError, match="mul turns a float32 operand into float64"):
            ad.mul(p, ad.Tensor(np.ones(3)))
        with ad.no_grad():
            assert ad.mul(p, ad.Tensor(np.ones(3))).dtype == np.float64
        assert ad.mul(p, ad.Tensor(np.ones(3), dtype=np.float32)).dtype == np.float32


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
        x = ad.Tensor(np.array([0.0, 6.0, -6.0]))
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

    def test_matmul_shape_validation(self):
        # equal ranks and equal leading dims only; an affine map is linear
        rng = np.random.default_rng(16)
        for a, b in [
            ((2, 3, 4), (4, 2)),  # stacked by 2-D
            ((3, 4), (2, 4, 2)),
            ((2, 3, 4), (3, 4, 2)),
            ((3, 4), (3, 2)),
            ((4,), (4, 2)),
        ]:
            with pytest.raises(ShapeError):
                ad.matmul(leaf(rng, *a), leaf(rng, *b))

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


class TestRowOps:
    """``gather_rows``/``scatter_rows``: a packed (N, d) stream and its
    (B, L, d) grid, by unique ascending flat cell index."""

    CELLS = np.array([0, 1, 2, 5, 6, 9])  # of a (2, 5) grid

    def test_gather_rows_gradient(self):
        rng = np.random.default_rng(23)
        grid = leaf(rng, 2, 5, 3)
        w = rng.standard_normal((6, 3))
        assert_grads_match(lambda: scalar_probe(ad.gather_rows(grid, self.CELLS), w), [grid])

    def test_scatter_rows_gradient(self):
        rng = np.random.default_rng(24)
        packed = leaf(rng, 6, 3)
        w = rng.standard_normal((2, 5, 3))
        assert_grads_match(lambda: scalar_probe(ad.scatter_rows(packed, self.CELLS, (2, 5, 3)), w), [packed])

    def test_scatter_then_gather_is_the_identity_with_zero_elsewhere(self):
        rng = np.random.default_rng(25)
        packed = leaf(rng, 6, 3)
        grid = ad.scatter_rows(packed, self.CELLS, (2, 5, 3))
        assert grid.shape == (2, 5, 3)
        np.testing.assert_array_equal(grid.data.reshape(10, 3)[self.CELLS], packed.data)
        assert np.all(np.delete(grid.data.reshape(10, 3), self.CELLS, axis=0) == 0.0)
        back = ad.gather_rows(grid, self.CELLS)
        np.testing.assert_array_equal(back.data, packed.data)
        ad.backward(scalar_probe(back, np.ones((6, 3))))
        np.testing.assert_array_equal(packed.grad, np.ones((6, 3)))

    @pytest.mark.parametrize("op", ["gather", "scatter"])
    @pytest.mark.parametrize("cells, match", [
        (np.array([0, 2, 2, 5, 6, 9]), "ascending"),  # a repeat
        (np.array([0, 1, 5, 2, 6, 9]), "ascending"),
        (np.array([0, 1, 2, 5, 6, 10]), "out of range"),
        (np.array([-1, 1, 2, 5, 6, 9]), "out of range"),
        (np.array([0.0, 1, 2, 5, 6, 9]), "integer"),
        (np.array([[0, 1, 2], [5, 6, 9]]), "1-D"),
    ])
    def test_bad_indices_are_rejected(self, op, cells, match):
        rng = np.random.default_rng(26)
        with pytest.raises(ShapeError, match=match):
            if op == "gather":
                ad.gather_rows(leaf(rng, 2, 5, 3), cells)
            else:
                ad.scatter_rows(leaf(rng, 6, 3), cells, (2, 5, 3))

    def test_scatter_needs_one_index_per_row(self):
        with pytest.raises(ShapeError, match="indices for"):
            ad.scatter_rows(leaf(np.random.default_rng(27), 5, 3), self.CELLS, (2, 5, 3))

    def test_scatter_lays_a_row_across_split_trailing_axes(self):
        # attention scatters (N, d) projections straight into (B, L, heads, head_dim)
        rng = np.random.default_rng(28)
        packed = leaf(rng, 6, 4)
        split = ad.scatter_rows(packed, self.CELLS, (2, 5, 2, 2))
        flat = ad.scatter_rows(packed, self.CELLS, (2, 5, 4))
        np.testing.assert_array_equal(split.data, flat.data.reshape(2, 5, 2, 2))
        w = rng.standard_normal((2, 5, 2, 2))
        assert_grads_match(lambda: scalar_probe(ad.scatter_rows(packed, self.CELLS, (2, 5, 2, 2)), w), [packed])
        with pytest.raises(ShapeError, match="width"):
            ad.scatter_rows(packed, self.CELLS, (2, 5, 3))


class TestLinear:
    """``linear`` against the matmul-and-add graph it replaces, in float64."""

    @pytest.mark.parametrize("x_shape, transposed", [
        ((5, 4), False),
        ((2, 3, 4), False),
        ((2, 3, 4), True),  # the output projection's word_emb.T view
    ])
    def test_matches_add_of_matmul(self, x_shape, transposed):
        rng = np.random.default_rng(30)
        x_data = rng.standard_normal(x_shape)
        w_data = rng.standard_normal((6, 4) if transposed else (4, 6))
        b_data = rng.standard_normal(6)
        probe = rng.standard_normal(x_shape[:-1] + (6,))

        def run(affine):
            x, w, b = (ad.parameter(d, dtype=np.float64) for d in (x_data, w_data, b_data))
            weight = ad.transpose(w, (1, 0)) if transposed else w
            out = affine(x, weight, b)
            ad.backward(scalar_probe(out, probe))
            return out.data, x.grad, w.grad, b.grad

        fused = run(ad.linear)

        def matmul_add(x, w, b):
            # matmul takes equal ranks only, so stacked rows go through flat
            rows = ad.matmul(ad.reshape(x, (-1, x.shape[-1])), w)
            return ad.reshape(ad.add(rows, b), x.shape[:-1] + (w.shape[-1],))

        pair = run(matmul_add)
        for name, got, want in zip(("value", "dx", "dw", "db"), fused, pair):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(31)
        x, w, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 2), leaf(rng, 2)
        probe = rng.standard_normal((2, 3, 2))
        assert_grads_match(lambda: scalar_probe(ad.linear(x, w, b), probe), [x, w, b])

    def test_batched_rows_equal_each_sentence_alone(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((3, 5, 8)).astype(np.float32)
        w = ad.Tensor(rng.standard_normal((8, 16)).astype(np.float32))
        b = ad.Tensor(rng.standard_normal(16).astype(np.float32))
        batched = ad.linear(ad.Tensor(x), w, b).data
        for i in range(3):
            alone = ad.linear(ad.Tensor(x[i : i + 1]), w, b).data
            assert alone.tobytes() == batched[i : i + 1].tobytes(), i

    # the desk model's widths: attention projections, the feed-forward's two
    # maps and the output projection onto a 2,048-token vocabulary
    @pytest.mark.parametrize("d, e", [(64, 64), (64, 256), (256, 64), (64, 2048)])
    def test_a_row_gets_the_same_bits_at_any_row_count(self, d, e):
        rng = np.random.default_rng([34, d, e])
        B, L = 5, 7
        x = rng.standard_normal((B, L, d)).astype(np.float32)
        w = ad.Tensor((rng.standard_normal((d, e)) / math.sqrt(d)).astype(np.float32))
        b = ad.Tensor(rng.standard_normal(e).astype(np.float32))
        grid = ad.linear(ad.Tensor(x), w, b).data
        packed = ad.linear(ad.Tensor(x.reshape(-1, d)[::3]), w, b).data
        firsts = ad.linear(ad.Tensor(x[:, :1]), w, b).data
        assert grid.dtype == np.float32
        for i in range(B):
            cell = grid[i, 0].tobytes()
            assert ad.linear(ad.Tensor(x[i, :1]), w, b).data.tobytes() == cell, ("one row", i)
            assert firsts[i, 0].tobytes() == cell, ("stacked (B, 1, d)", i)
        assert packed.tobytes() == grid.reshape(-1, e)[::3].tobytes(), "packed"

    def test_shape_validation(self):
        rng = np.random.default_rng(33)
        with pytest.raises(ShapeError):
            ad.linear(leaf(rng, 2, 4), leaf(rng, 3, 2), leaf(rng, 2))
        with pytest.raises(ShapeError):
            ad.linear(leaf(rng, 2, 4), leaf(rng, 4, 2), leaf(rng, 3))
        with pytest.raises(ShapeError):
            ad.linear(leaf(rng, 4), leaf(rng, 4, 2), leaf(rng, 2))


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        rng = np.random.default_rng(30)
        x = ad.Tensor(rng.standard_normal((4, 16)) * 3.0 + 1.0)
        gain = ad.Tensor(np.ones(16))
        bias = ad.Tensor(np.zeros(16))
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
        x = ad.Tensor(np.full((1, 8), 2.5))
        gain = ad.Tensor(np.ones(8))
        bias = ad.Tensor(np.zeros(8))
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


def _two_pass_softmax(scores: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """The formula masked_softmax computed before it became one pass."""
    visible = np.broadcast_to(visible, scores.shape)
    rowmax = np.max(np.where(visible, scores, np.asarray(-np.inf, dtype=scores.dtype)), axis=-1, keepdims=True)
    shifted = np.where(visible, scores - rowmax, np.asarray(0.0, dtype=scores.dtype))
    expd = np.exp(shifted) * visible
    return expd / expd.sum(axis=-1, keepdims=True)


class TestMaskedSoftmax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mask_shape", [(3, 1, 1, 7), (3, 1, 7, 7)])
    def test_equals_the_two_pass_formula_bit_for_bit(self, dtype, mask_shape):
        rng = np.random.default_rng(46)
        data = (rng.standard_normal((3, 4, 7, 7)) * 4.0).astype(dtype)
        mask = _random_mask(rng, mask_shape)
        # blocked columns hold scores that would overflow exp or win the max
        blocked = ~np.broadcast_to(mask, data.shape)
        huge = np.finfo(dtype).max / 4
        data[blocked] = np.where(rng.random(blocked.sum()) < 0.5, huge, -huge)
        scores = ad.parameter(data, dtype=dtype)
        w = rng.standard_normal(data.shape).astype(dtype)
        out = ad.masked_softmax(scores, mask)
        expected = _two_pass_softmax(data, mask)
        np.testing.assert_array_equal(out.data, expected)
        assert np.all(out.data[blocked] == 0.0)
        ad.backward(scalar_probe(out, w))
        np.testing.assert_array_equal(scores.grad, expected * (w - np.sum(w * expected, axis=-1, keepdims=True)))

    def test_blocked_row_found_on_a_size_one_last_axis(self):
        scores = ad.Tensor(np.zeros((2, 3, 4)))
        mask = np.ones((2, 3, 1), dtype=bool)
        ad.masked_softmax(scores, mask)
        mask[1, 2, 0] = False
        with pytest.raises(MaskedRowError):
            ad.masked_softmax(scores, mask)
        with pytest.raises(MaskedRowError):
            ad.masked_softmax(scores, np.zeros((2, 1, 1), dtype=bool))

    def test_mask_may_not_enlarge_the_scores(self):
        for scores_shape, mask_shape in [((2, 3, 4), (5, 2, 3, 4)), ((2, 1, 4), (2, 3, 4)), ((2, 3, 4), (2, 3, 5))]:
            with pytest.raises(ShapeError, match="does not broadcast"):
                ad.masked_softmax(ad.Tensor(np.zeros(scores_shape)), np.ones(mask_shape, dtype=bool))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(40)
        scores = rng.standard_normal((2, 3, 5, 5))
        mask = _random_mask(rng, (2, 3, 5, 5))
        got = ad.masked_softmax(ad.Tensor(scores), mask).data
        np.testing.assert_allclose(got, _dense_softmax_oracle(scores, mask), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(41)
        scores = rng.standard_normal((4, 6, 6))
        mask = _random_mask(rng, (4, 6, 6))
        got = ad.masked_softmax(ad.Tensor(scores), mask).data
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)

    def test_blocked_entries_are_exactly_zero(self):
        rng = np.random.default_rng(42)
        scores = rng.standard_normal((3, 5, 5))
        mask = _random_mask(rng, (3, 5, 5))
        got = ad.masked_softmax(ad.Tensor(scores), mask).data
        assert np.all(got[mask == False] == 0.0)

    def test_mask_broadcasts_over_heads(self):
        rng = np.random.default_rng(43)
        scores = rng.standard_normal((2, 4, 5, 5))
        mask = _random_mask(rng, (2, 1, 5, 5))
        tiled = np.broadcast_to(mask, scores.shape).copy()
        a = ad.masked_softmax(ad.Tensor(scores), mask).data
        b = ad.masked_softmax(ad.Tensor(scores), tiled).data
        np.testing.assert_array_equal(a, b)

    def test_extreme_scores_stay_finite(self):
        scores = np.array([[1e4, -1e4, 0.0], [3e4, 3e4, 3e4]])
        mask = np.full((2, 3), True)
        got = ad.masked_softmax(ad.Tensor(scores), mask).data
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)

    def test_fully_masked_row_rejected(self):
        scores = ad.Tensor(np.zeros((2, 3)))
        mask = np.full((2, 3), True)
        mask[1, :] = False
        with pytest.raises(MaskedRowError):
            ad.masked_softmax(scores, mask)

    def test_mask_entries_validated(self):
        scores = ad.Tensor(np.zeros((2, 3)))
        mask = np.zeros((2, 3))
        mask[0, 1] = -1.0
        with pytest.raises(ValueError):
            ad.masked_softmax(scores, mask)

    def test_additive_float_mask_is_rejected_by_name(self):
        # an old {0, -inf} mask must not read as "everything visible"
        scores = ad.Tensor(np.zeros((2, 3)))
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
        logits = ad.Tensor(np.zeros((6, 37)))
        loss = ad.cross_entropy(logits, np.zeros(6, dtype=np.int64), np.ones(6, dtype=np.int64))
        assert abs(float(loss.data) - math.log(37)) < 1e-12

    def test_hand_computed_case(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 10.0]])
        loss = ad.cross_entropy(
            ad.Tensor(logits), np.array([2, 0]), np.ones(2, dtype=np.int64)
        )
        nll0 = math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 3.0
        nll1 = math.log(1 + 1 + math.exp(10)) - 0.0
        assert abs(float(loss.data) - (nll0 + nll1) / 2.0) < 1e-12

    def test_zero_weight_rows_are_invisible(self):
        rng = np.random.default_rng(50)
        logits = rng.standard_normal((5, 7))
        targets = rng.integers(0, 7, size=5)
        weights = np.array([1, 0, 1, 0, 0])
        # each row is reduced on its own, so the rows kept under 0/1 weights
        # give the same value and gradient, bit for bit, as those rows alone
        for dtype in (np.float32, np.float64):
            full = ad.parameter(logits, dtype=dtype)
            sub = ad.parameter(logits[weights == 1], dtype=dtype)
            full_loss = ad.cross_entropy(full, targets, weights)
            sub_loss = ad.cross_entropy(sub, targets[weights == 1], np.ones(2, dtype=np.int64))
            np.testing.assert_array_equal(sub_loss.data, full_loss.data)
            ad.backward(full_loss)
            ad.backward(sub_loss)
            np.testing.assert_array_equal(sub.grad, full.grad[weights == 1])
            assert np.all(full.grad[weights == 0] == 0.0)
        full = ad.cross_entropy(ad.Tensor(logits), targets, weights)
        sub = ad.cross_entropy(
            ad.Tensor(logits[weights == 1]), targets[weights == 1], np.ones(2, dtype=np.int64)
        )
        assert float(full.data) == float(sub.data)
        # and changing an unweighted row cannot move the loss
        logits[1] += 100.0
        again = ad.cross_entropy(ad.Tensor(logits), targets, weights)
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
        logits = ad.Tensor(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            ad.cross_entropy(logits, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))

    def test_out_of_vocab_target_rejected_only_when_weighted(self):
        logits = ad.Tensor(np.zeros((2, 4)))
        targets = np.array([0, 9])
        with pytest.raises(ValueError):
            ad.cross_entropy(logits, targets, np.array([1, 1]))
        # the same bad id is fine on a row the loss never reads
        ad.cross_entropy(logits, targets, np.array([1, 0]))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy(ad.Tensor(np.zeros((2, 3, 4))), np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            ad.cross_entropy(ad.Tensor(np.zeros((2, 3))), np.zeros(3), np.ones(3))

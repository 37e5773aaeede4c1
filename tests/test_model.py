"""Parameter store, initialization, and the attention building blocks."""

import numpy as np
import pytest

from dualmae import autodiff as ad
from dualmae.model import (
    INIT_STD,
    DecoderConfig,
    EncoderConfig,
    Rows,
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

    def test_head_dim(self, monkeypatch):
        # attention splits the width evenly: each of the 4 heads of a
        # 16-wide model reads a 4-wide slice of q, k and v
        layouts = []
        real_scatter = ad.scatter_rows

        def recording_scatter(a, rows, shape):
            layouts.append(shape[-2:])
            return real_scatter(a, rows, shape)

        monkeypatch.setattr(ad, "scatter_rows", recording_scatter)
        params = init_params(TINY, DEC, np.random.default_rng(0))
        x = ad.Tensor(np.random.default_rng(1).standard_normal((3, 16)).astype(np.float32))
        rows = Rows(np.ones((1, 3), dtype=bool))
        with ad.no_grad():
            attention(params, "enc0", x, x, np.ones((1, 1, 1, 3), dtype=bool), TINY.heads, rows=rows, kv_rows=rows)
        assert layouts == [(4, 4)] * 3

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


def _oracle_attention(params, query_in, keyvalue_in, visible):
    """Single-head attention of ``enc0`` in plain NumPy on the (B, L, d) grid."""

    def lin(x, name, b):
        return x @ params[f"enc0.attn.{name}"].data + params[f"enc0.attn.{b}"].data

    q, k, v = lin(query_in, "wq", "bq"), lin(keyvalue_in, "wk", "bk"), lin(keyvalue_in, "wv", "bv")
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(q.shape[-1]) + np.where(visible[:, 0], 0.0, -np.inf)
    weights = np.zeros_like(scores)
    B, L = scores.shape[:2]
    for bi in range(B):
        for i in range(L):
            vis = scores[bi, i] > -np.inf
            e = np.exp(scores[bi, i][vis] - scores[bi, i][vis].max())
            weights[bi, i][vis] = e / e.sum()
    return (weights @ v) @ params["enc0.attn.wo"].data + params["enc0.attn.bo"].data


def _one_head_params():
    cfg = EncoderConfig(layers=1, hidden_dim=6, heads=1, ffn_dim=12, max_len=5, vocab_size=50)
    return init_params(cfg, DecoderConfig(mode="basic", layers=1, heads=1),
                       np.random.default_rng(7), dtype=np.float64)


class TestAttention:
    def test_single_head_matches_numpy_oracle(self):
        params = _one_head_params()
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 6))
        real = np.array([[True] * 4, [True, True, True, False]])
        visible = real[:, None, None, :]
        rows = Rows(real)

        packed = ad.Tensor(x[real])
        with ad.no_grad():
            got = attention(params, "enc0", packed, packed, visible, heads=1, rows=rows, kv_rows=rows).data

        np.testing.assert_allclose(got, _oracle_attention(params, x, x, visible)[real], atol=1e-12)

    @pytest.mark.parametrize("mask", ["per-row", "key-row", "per-row-shared-by-the-batch"])
    @pytest.mark.parametrize("layout", [
        # the enhanced decoder's: the real rows past position 0
        [[False, True, True, True, True], [False, True, True, False, False]],
        # a sentence with no query rows
        [[False, True, True, True, True], [False] * 5],
        # a sentence whose only query is its last real cell
        [[False, True, True, True, False], [False, False, True, False, False]],
        # one query per sentence: the slot grid's floor of two rows
        [[False, False, False, False, True], [True, False, False, False, False]],
    ], ids=["past-position-0", "a-sentence-without-queries", "only-the-last-real-cell", "one-per-sentence"])
    def test_queries_on_a_strict_subset_of_the_key_rows_match_numpy_oracle(self, layout, mask):
        # keys and values at every real row, queries from another stream
        # at a subset of them, each under its own visibility row, under one
        # set of rows shared by the batch, or under the key-row mask the
        # encoder and the basic decoder use
        params = _one_head_params()
        rng = np.random.default_rng(14)
        queries_in = rng.standard_normal((2, 5, 6))
        keys_in = rng.standard_normal((2, 5, 6))
        real = np.array([[True] * 5, [True, True, True, False, False]])
        queries = np.array(layout)
        if mask == "per-row":
            visible = (rng.random((2, 5, 5)) < 0.6) & real[:, None, :]
            visible[..., 0] = True
            visible = visible[:, None]
        elif mask == "key-row":
            visible = real[:, None, None, :]
        else:
            visible = (rng.random((1, 1, 5, 5)) < 0.6) & real.all(axis=0)
            visible[..., 0] = True
        rows, kv_rows = Rows(queries), Rows(real)

        with ad.no_grad():
            got = attention(params, "enc0", ad.Tensor(queries_in[queries]), ad.Tensor(keys_in[real]),
                            visible, heads=1, rows=rows, kv_rows=kv_rows).data

        assert got.shape == (int(queries.sum()), 6)
        expected = _oracle_attention(params, queries_in, keys_in, visible)[queries]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("queries", [
        [[True] * 5, [True, True, True, False, False]],
        [[True, True, True, True, False], [True, True, True, False, False]],
    ], ids=["every-real-cell", "all-but-the-last-of-the-longest"])
    def test_a_mask_row_nothing_queries_is_never_checked(self, queries):
        # the per-row mask blocks every column of pad row (1, 4); whether the
        # queries fill the (B, L) grid or not, no query reads that row
        params = _one_head_params()
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 5, 6))
        real = np.array([[True] * 5, [True, True, True, False, False]])
        visible = (rng.random((2, 5, 5)) < 0.6) & real[:, None, :]
        visible[..., 0] = True
        blocked = visible.copy()
        blocked[1, 4] = False
        queries = np.array(queries)
        rows, kv_rows = Rows(queries), Rows(real)

        with ad.no_grad():
            got = attention(params, "enc0", ad.Tensor(x[queries]), ad.Tensor(x[real]),
                            blocked[:, None], heads=1, rows=rows, kv_rows=kv_rows).data

        np.testing.assert_allclose(got, _oracle_attention(params, x, x, visible[:, None])[queries], atol=1e-12)

    def test_the_containment_check_covers_mask_rows_nothing_queries(self):
        params = _one_head_params()
        real = np.array([[True, True, True, False]])
        visible = np.tril(np.ones((4, 4), dtype=bool)) & real
        visible[3, 3] = True  # a pad row, not queried, opens a pad cell
        x = ad.Tensor(np.random.default_rng(17).standard_normal((3, 6)))
        with pytest.raises(ad.ShapeError):
            attention(params, "enc0", x, x, visible[None, None], heads=1, rows=Rows(real), kv_rows=Rows(real))

    def test_a_mask_that_opens_a_cell_the_key_rows_lack_is_refused(self):
        params = _one_head_params()
        real = np.array([[True, True, True, False]])
        rows = Rows(real)
        x = ad.Tensor(np.random.default_rng(15).standard_normal((3, 6)))
        with pytest.raises(ad.ShapeError):
            attention(params, "enc0", x, x, np.ones((1, 1, 1, 4), dtype=bool), heads=1, rows=rows, kv_rows=rows)

    def test_multi_head_differs_from_single_head_mixing(self):
        # same parameters, different head count: the split changes which
        # dimensions may interact, so outputs must differ
        params = init_params(TINY, DEC, np.random.default_rng(9), dtype=np.float64)
        rng = np.random.default_rng(10)
        x = ad.Tensor(rng.standard_normal((5, 16)))
        visible = np.ones((1, 1, 1, 5), dtype=bool)
        rows = Rows(np.ones((1, 5), dtype=bool))
        with ad.no_grad():
            four = attention(params, "enc0", x, x, visible, heads=4, rows=rows, kv_rows=rows).data
            one = attention(params, "enc0", x, x, visible, heads=1, rows=rows, kv_rows=rows).data
        assert not np.allclose(four, one)


def _laid_out(packed, cells, grid, heads):
    """Packed (n, d) rows at flat ``cells`` of a zero (B, G) grid, viewed
    as attention's (B, heads, G, head_dim) per-head layout."""
    B, G = grid
    full = np.zeros((B * G, packed.shape[1]), dtype=packed.dtype)
    full[cells] = packed
    return full.reshape(B, G, heads, -1).transpose(0, 2, 1, 3)


def _query_rows(x, cells):
    """The rows of a (B, heads, G, w) product at flat ``cells`` of its (B, G) grid."""
    B, heads, G, w = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B * G, heads * w)[cells]


class TestQuerySlotRule:
    """The batched-product rule ``attention``'s query slot grid relies on,
    pinned as ``linear``'s row rule is. A (B, L) grid's query rows are laid
    out on a (B, Lq) slot grid, Lq = max(2, most query rows of a sentence),
    and every other query cell holds zeros and gets a zero gradient. On
    OpenBLAS 0.3.31, in float32 at head_dim 16 (desk) and float64 at
    head_dim 4 (gradcheck), a query row then keeps its bits in the score
    and ``weights @ v`` products and in the query and weight gradients, and
    the key and value gradients, whose products only lose all-zero query
    rows, keep theirs. This is a property of the widths: in float32 at
    head_dim 32 and 64 the scores (and the weight gradients, the same inner
    width) differed for small query counts at L in {40, 62, 128}."""

    @pytest.mark.parametrize("dtype, head_dim", [(np.float32, 16), (np.float64, 4)], ids=["desk", "gradcheck"])
    @pytest.mark.parametrize("L", [8, 40, 62, 128])
    def test_a_query_row_keeps_its_bits_on_the_slot_grid(self, dtype, head_dim, L):
        rng = np.random.default_rng([43, head_dim, L])
        B, heads = 4, 4
        d = heads * head_dim
        k = _laid_out(rng.standard_normal((B * L, d)).astype(dtype), np.arange(B * L), (B, L), heads)
        v = _laid_out(rng.standard_normal((B * L, d)).astype(dtype), np.arange(B * L), (B, L), heads)
        for most in [*range(1, min(L, 12)), L // 2, L - 1]:
            counts = np.concatenate([[most], rng.integers(0, most + 1, size=B - 1)])
            held = np.zeros((B, L), dtype=bool)
            for b, n in enumerate(counts):
                held[b, rng.choice(L, size=n, replace=False)] = True
            slots = Rows(np.arange(max(2, most)) < counts[:, None])
            cells = Rows(held).index
            n = cells.size

            def both(packed):
                # the packed rows on the full grid and on the slot grid
                return (_laid_out(packed, cells, (B, L), heads),
                        _laid_out(packed, slots.index, slots.grid, heads))

            def by_row(full_rows, free_slot):
                # softmax-side arrays: contiguous (B, heads, rows, L), one
                # (heads, L) block per grid row; a query cell's block moves to
                # its slot, and a free slot holds ``free_slot``
                free = np.broadcast_to(free_slot, (B * slots.grid[1], heads, L)).copy()
                free[slots.index] = full_rows[cells]
                return (np.ascontiguousarray(full_rows.reshape(B, L, heads, L).transpose(0, 2, 1, 3)),
                        np.ascontiguousarray(free.reshape(B, -1, heads, L).transpose(0, 2, 1, 3)))

            q_full, q_slots = both(rng.standard_normal((n, d)).astype(dtype))
            dcontext_full, dcontext_slots = both(rng.standard_normal((n, d)).astype(dtype))
            # every grid row holds weights, a free slot reads column 0 alone
            w_full, w_slots = by_row(rng.random((B * L, heads, L)).astype(dtype), np.eye(1, L, dtype=dtype))
            # only a query row gets a score gradient
            dscores = np.zeros((B * L, heads, L), dtype=dtype)
            dscores[cells] = rng.standard_normal((n, heads, L))
            dscores_full, dscores_slots = by_row(dscores, np.zeros(L, dtype=dtype))
            kt = np.swapaxes(k, -1, -2)
            vt = np.swapaxes(v, -1, -2)
            for name, full, narrow in [
                ("scores", q_full @ kt, q_slots @ kt),
                ("weights @ v", w_full @ v, w_slots @ v),
                ("query gradient", dscores_full @ k, dscores_slots @ k),
                ("weight gradient", dcontext_full @ vt, dcontext_slots @ vt),
            ]:
                assert _query_rows(full, cells).tobytes() == _query_rows(narrow, slots.index).tobytes(), (name, most)
            for name, full, narrow in [
                ("key gradient", np.swapaxes(q_full, -1, -2) @ dscores_full,
                 np.swapaxes(q_slots, -1, -2) @ dscores_slots),
                ("value gradient", np.swapaxes(w_full, -1, -2) @ dcontext_full,
                 np.swapaxes(w_slots, -1, -2) @ dcontext_slots),
            ]:
                assert full.tobytes() == narrow.tobytes(), (name, most)


class TestRows:
    def test_locate_refuses_a_cell_that_is_not_held(self):
        rows = Rows(np.array([[True, True, False], [True, False, True]]))
        np.testing.assert_array_equal(rows.locate(np.array([0, 3, 5])), [0, 2, 3])
        with pytest.raises(ad.ShapeError):
            rows.locate(np.array([0, 2]))


class TestOutputLogits:
    def test_projection_is_tied_to_the_embedding(self):
        params = init_params(TINY, DEC, np.random.default_rng(11), dtype=np.float64)
        rng = np.random.default_rng(12)
        hidden = rng.standard_normal((2, 4, 16))
        with ad.no_grad():
            got = output_logits(params, ad.Tensor(hidden)).data
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

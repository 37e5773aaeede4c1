"""Training-step wiring and the end-to-end pretraining loop.

The resume test is the strictest one here: a run interrupted mid-epoch
and continued from its checkpoint must land on a byte-identical
checkpoint and loss log, which only works if parameters, optimizer
moments, mask generator state, and batch order all restore exactly.
"""

import builtins
import dataclasses
import errno
import gc
import io
import math
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from dualmae import autodiff as ad
from dualmae import text, training
from dualmae.checkpoint import load_checkpoint, save_checkpoint
from dualmae.config import TrainConfig, resolve_configs
from dualmae.decoder import decode_basic, decode_enhanced, reconstruction_loss
from dualmae.encoder import encode
from dualmae.gradcheck import finite_difference_grad, max_rel_error, tiny_setup
from dualmae.masking import mask_batch
from dualmae.model import DecoderConfig, EncoderConfig, feed_forward, init_params, output_logits
from dualmae.optim import AdamW, clip_global_norm
from dualmae.text import CLS_ID, SEP_ID, TokenSequence, make_batch
from dualmae.training import (
    TrainingDiverged,
    batch_coverage,
    run_pretraining,
    step_loss,
    train_step,
)


class TestStepLoss:
    @pytest.mark.parametrize("mode", ["enhanced", "basic"])
    def test_initial_loss_is_near_log_vocab(self, mode):
        params, train, enc, dec, mbatch = tiny_setup(mode, seed=3)
        with ad.no_grad():
            loss = float(step_loss(params, train, enc, dec, mbatch).data)
        assert abs(loss - math.log(enc.vocab_size)) < 0.1 * math.log(enc.vocab_size)

    def test_auxiliary_encoder_loss_is_additive(self):
        params, train, enc, dec, mbatch = tiny_setup("enhanced", seed=4)
        weighted = dataclasses.replace(train, encoder_mlm_weight=0.7)
        with ad.no_grad():
            base = float(step_loss(params, train, enc, dec, mbatch).data)
            combined = float(step_loss(params, weighted, enc, dec, mbatch).data)
            real = mbatch.real
            sentence, hidden = encode(params, enc, mbatch.enc_ids, real, states_at=real)
            aux = float(ad.cross_entropy(
                output_logits(params, hidden), mbatch.ids[real], mbatch.enc_masked[real].astype(np.int64)
            ).data)
        assert combined == pytest.approx(base + 0.7 * aux, abs=1e-12)

    def test_auxiliary_loss_changes_the_gradients(self):
        params, train, enc, dec, mbatch = tiny_setup("enhanced", seed=5)
        for t in params.values():
            t.grad = None
        ad.backward(step_loss(params, train, enc, dec, mbatch))
        plain = params["word_emb"].grad.copy()
        for t in params.values():
            t.grad = None
        weighted = dataclasses.replace(train, encoder_mlm_weight=0.7)
        ad.backward(step_loss(params, weighted, enc, dec, mbatch))
        assert not np.array_equal(params["word_emb"].grad, plain)

    def test_auxiliary_gradient_matches_finite_differences(self):
        params, train, enc, dec, mbatch = tiny_setup("enhanced", seed=6)
        train = dataclasses.replace(train, encoder_mlm_weight=0.5)
        for t in params.values():
            t.grad = None
        ad.backward(step_loss(params, train, enc, dec, mbatch))
        analytic = params["out_bias"].grad.copy()

        def value():
            with ad.no_grad():
                return float(step_loss(params, train, enc, dec, mbatch).data)

        fd = finite_difference_grad(value, params["out_bias"], 1e-4)
        assert max_rel_error(analytic, fd) < 1e-4


def _three_sentences(rng):
    seqs = [TokenSequence(np.concatenate([[CLS_ID], rng.integers(5, 50, size=n), [SEP_ID]])) for n in (6, 3, 5)]
    return make_batch(seqs)


def _full_logit_loss(params, states, held, targets, weights):
    """The loss over every position's logits, weighted 0/1: what
    ``reconstruction_loss`` computes from the loss rows alone. ``states``
    is packed at the (B, L) cells ``held`` and goes back to the grid with
    zero rows elsewhere."""
    B, L = held.shape
    grid = ad.scatter_rows(states, np.flatnonzero(held), (B * L, states.shape[-1]))
    return ad.cross_entropy(output_logits(params, grid), targets.reshape(-1), weights.reshape(-1).astype(np.int64))


def _full_logit_step_loss(params, train, enc, dec, mbatch):
    sentence, hidden = encode(params, enc, mbatch.enc_ids, mbatch.real, states_at=mbatch.real)
    if dec.mode == "basic":
        states, _ = decode_basic(params, dec, sentence, mbatch)
        weights = mbatch.dec_targets
    else:
        states, _ = decode_enhanced(params, dec, sentence, mbatch)
        weights = mbatch.real.copy()
        weights[:, 0] = False
    loss = _full_logit_loss(params, states, mbatch.dec_targets, mbatch.ids, weights)
    aux = _full_logit_loss(params, hidden, mbatch.real, mbatch.ids, mbatch.enc_masked)
    return ad.add(loss, ad.scale(aux, train.encoder_mlm_weight))


class TestReconstructionLoss:
    @pytest.mark.parametrize("mode", ["enhanced", "basic"])
    def test_equals_the_full_logit_loss_and_gradients(self, mode):
        params, train, enc, dec, mbatch = tiny_setup(mode, seed=12)
        train = dataclasses.replace(train, encoder_mlm_weight=0.5)
        results = []
        for loss_fn in (step_loss, _full_logit_step_loss):
            for t in params.values():
                t.grad = None
            loss = loss_fn(params, train, enc, dec, mbatch)
            ad.backward(loss)
            results.append((float(loss.data), {name: ad.grad_or_zeros(t).copy() for name, t in params.items()}))
        (gathered, grads), (full, full_grads) = results
        assert gathered == pytest.approx(full, rel=1e-12)
        for name in params:
            np.testing.assert_allclose(grads[name], full_grads[name], rtol=1e-9, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("mode, mlm_weight", [("basic", 0.0), ("enhanced", 0.0), ("basic", 0.5)])
    def test_a_step_projects_only_the_loss_rows(self, mode, mlm_weight, monkeypatch):
        params, train, enc, dec, _ = tiny_setup(mode, seed=13, dtype=np.float32)
        train = dataclasses.replace(train, encoder_mlm_weight=mlm_weight)
        rng = np.random.default_rng(3)
        batch = _three_sentences(rng)
        masked, rows = [], []

        def recording_mask_batch(*args):
            masked.append(mask_batch(*args))
            return masked[-1]

        def recording_output_logits(params, hidden):
            rows.append(hidden.data.size // hidden.shape[-1])
            return output_logits(params, hidden)

        monkeypatch.setattr("dualmae.training.mask_batch", recording_mask_batch)
        monkeypatch.setattr("dualmae.decoder.output_logits", recording_output_logits)
        train_step(params, AdamW(), train, enc, dec, batch, rng, step=1)
        (mbatch,) = masked
        if mode == "basic":
            decoder_rows = int(mbatch.dec_targets.sum())
        else:
            decoder_rows = int(mbatch.real[:, 1:].sum())
        expected = [decoder_rows] + ([int(mbatch.enc_masked.sum())] if mlm_weight > 0 else [])
        assert rows == expected

    def test_all_zero_weights_are_rejected(self):
        params, _, enc, dec, mbatch = tiny_setup("enhanced", seed=14)
        zeros = np.zeros(mbatch.ids.shape, dtype=bool)
        _, hidden = encode(params, enc, mbatch.enc_ids, mbatch.real, states_at=zeros)
        assert hidden.shape == (0, enc.hidden_dim)
        with pytest.raises(ValueError, match="cross_entropy needs at least one weight-1 position"):
            reconstruction_loss(params, hidden, mbatch.ids[zeros])


def _full_last_block_step_loss(params, train, enc, dec, mbatch):
    """``step_loss`` at encoder MLM weight 0, with the encoder's last block
    run at every position instead of at position 0 alone."""
    sentence, _ = encode(params, enc, mbatch.enc_ids, mbatch.real, states_at=mbatch.real)
    decode = decode_basic if dec.mode == "basic" else decode_enhanced
    _, loss = decode(params, dec, sentence, mbatch)
    return loss


class TestSentenceOnlyLastBlock:
    @pytest.mark.parametrize("mode", ["enhanced", "basic"])
    def test_equals_the_full_last_block(self, mode):
        params, train, enc, dec, mbatch = tiny_setup(mode, seed=15)
        assert train.encoder_mlm_weight == 0.0
        with ad.no_grad():
            pruned, states = encode(params, enc, mbatch.enc_ids, mbatch.real)
            full, _ = encode(params, enc, mbatch.enc_ids, mbatch.real, states_at=mbatch.real)
        assert states is None
        np.testing.assert_allclose(pruned.data, full.data, rtol=1e-9, atol=1e-13)
        results = []
        for loss_fn in (step_loss, _full_last_block_step_loss):
            for t in params.values():
                t.grad = None
            loss = loss_fn(params, train, enc, dec, mbatch)
            ad.backward(loss)
            results.append((float(loss.data), {name: ad.grad_or_zeros(t).copy() for name, t in params.items()}))
        (pruned_loss, grads), (full_loss, full_grads) = results
        assert pruned_loss == pytest.approx(full_loss, rel=1e-12)
        for name in params:
            np.testing.assert_allclose(grads[name], full_grads[name], rtol=1e-9, atol=1e-13, err_msg=name)

    def test_a_step_runs_the_last_feed_forward_where_the_loss_reads(self, monkeypatch):
        _, train, enc, _, _ = tiny_setup("enhanced", seed=16, dtype=np.float32)
        rng = np.random.default_rng(4)
        batch = _three_sentences(rng)
        B = batch.ids.shape[0]
        real = (int(batch.real.sum()),)
        # the encoder's last block runs at position 0 and, with the MLM
        # loss, at the encoder-masked positions; each decoder's last layer
        # runs where its loss reads (every real position beyond 0 in
        # enhanced mode, the [M] positions in basic mode); an earlier basic
        # layer runs on the real rows
        masked, rows = [], {}

        def recording_mask_batch(*args):
            masked.append(mask_batch(*args))
            return masked[-1]

        def recording_feed_forward(params, prefix, x):
            rows[prefix] = x.shape[:-1]
            return feed_forward(params, prefix, x)

        monkeypatch.setattr("dualmae.training.mask_batch", recording_mask_batch)
        monkeypatch.setattr("dualmae.model.feed_forward", recording_feed_forward)
        for mode, layers in [("enhanced", 1), ("basic", 1), ("basic", 2)]:
            dec = DecoderConfig(mode=mode, layers=layers, heads=4)
            params = init_params(enc, dec, np.random.default_rng([16, 0]))
            opt = AdamW()
            for step, mlm_weight in enumerate([0.0, 0.5], start=1):
                masked.clear()
                rows.clear()
                weighted = dataclasses.replace(train, encoder_mlm_weight=mlm_weight)
                train_step(params, opt, weighted, enc, dec, batch, rng, step=step)
                (mbatch,) = masked
                last_rows = (B + int(mbatch.enc_masked.sum()),) if mlm_weight > 0 else (B,)
                assert not mbatch.enc_masked[:, 0].any() and last_rows < real
                loss_rows = (int(mbatch.dec_targets.sum()),)
                assert loss_rows < real
                if mode == "enhanced":
                    assert loss_rows == (int(batch.real[:, 1:].sum()),)
                expected_dec = {f"dec{i}": real for i in range(layers - 1)} | {f"dec{layers - 1}": loss_rows}
                assert rows == {"enc0": real, "enc1": last_rows, **expected_dec}, (mode, layers, mlm_weight)


class TestBatchCoverage:
    def test_enhanced_covers_all_content(self):
        _, train, _, _, mbatch = tiny_setup("enhanced", seed=7)
        assert batch_coverage(mbatch) == 1.0

    def test_basic_covers_the_masked_fraction(self):
        _, _, _, _, mbatch = tiny_setup("basic", seed=8)
        content = 6 + 4
        assert batch_coverage(mbatch) == mbatch.dec_targets.sum() / content


def _desk_step_setup(mode, layers, mlm_weight):
    """Desk configs, fresh parameters and a padded batch of eight sentences
    of 5 to 41 tokens, with the generator the step draws its masks from."""
    overrides = {"mode": mode, "decoder_layers": layers, "encoder_mlm_weight": mlm_weight}
    train, enc, dec = resolve_configs(preset="desk", overrides=overrides, env={})
    params = init_params(enc, dec, np.random.default_rng([train.seed, 0]))
    rng = np.random.default_rng(7)
    seqs = [TokenSequence(np.concatenate([[CLS_ID], rng.integers(5, enc.vocab_size, size=n), [SEP_ID]]))
            for n in rng.integers(3, 40, size=8)]
    return params, train, enc, dec, make_batch(seqs), rng


class TestTrainStep:
    def test_updates_parameters(self):
        params, train, enc, dec, _ = tiny_setup("enhanced", seed=9)
        rng = np.random.default_rng(1)
        seq = TokenSequence(np.concatenate([[CLS_ID], rng.integers(5, 50, size=6), [SEP_ID]]))
        batch = make_batch([seq])
        opt = AdamW()
        before = params["word_emb"].data.copy()
        loss, coverage = train_step(params, opt, train, enc, dec, batch, rng, step=1)
        assert math.isfinite(loss)
        assert coverage == 1.0
        assert not np.array_equal(params["word_emb"].data, before)

    def test_the_update_takes_its_rate_and_decay_from_the_config(self, monkeypatch):
        # the optimizer holds neither: each step hands it the config's
        # learning rate, scaled by warmup, and the config's weight decay
        params, train, enc, dec, _ = tiny_setup("enhanced", seed=9, dtype=np.float32)
        train = dataclasses.replace(train, learning_rate=3e-3, weight_decay=0.5, warmup_steps=4)
        rng = np.random.default_rng(1)
        batch = _three_sentences(rng)
        calls = []
        real_step = AdamW.step

        def recording_step(self, params, step, lr, weight_decay):
            calls.append((step, lr, weight_decay))
            return real_step(self, params, step, lr, weight_decay)

        monkeypatch.setattr(AdamW, "step", recording_step)
        opt = AdamW()
        for step in (1, 6):
            train_step(params, opt, train, enc, dec, batch, rng, step=step)
        assert calls == [(1, 3e-3 * 0.25, 0.5), (6, 3e-3, 0.5)]

    def test_divergence_is_reported_with_the_step(self):
        params, train, enc, dec, _ = tiny_setup("enhanced", seed=10, dtype=np.float32)
        # blown-up projections make the attention scores overflow float32
        g = np.random.default_rng(0)
        params["enc0.attn.wq"].data = (g.standard_normal((16, 16)) * 1e20).astype(np.float32)
        params["enc0.attn.wk"].data = (g.standard_normal((16, 16)) * 1e20).astype(np.float32)
        rng = np.random.default_rng(2)
        seq = TokenSequence(np.concatenate([[CLS_ID], rng.integers(5, 50, size=6), [SEP_ID]]))
        batch = make_batch([seq])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="step 17"):
                train_step(params, AdamW(), train, enc, dec, batch, rng, step=17)


    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch):
        params, train, enc, dec, _ = tiny_setup("enhanced", seed=9)
        rng = np.random.default_rng(1)
        seq = TokenSequence(np.concatenate([[CLS_ID], rng.integers(5, 50, size=6), [SEP_ID]]))
        batch = make_batch([seq])
        opt = AdamW()
        train_step(params, opt, train, enc, dec, batch, rng, step=1)
        before = {name: t.data.copy() for name, t in params.items()}
        moments = {name: (m.copy(), v.copy()) for name, (m, v) in opt.moments.items()}

        real_backward = ad.backward

        def inf_gradient(loss):
            real_backward(loss)
            params["dec0.ffn.b2"].grad[0] = np.inf

        monkeypatch.setattr(ad, "backward", inf_gradient)
        with pytest.raises(TrainingDiverged, match=r"^step 2: non-finite gradient norm$"):
            train_step(params, opt, train, enc, dec, batch, rng, step=2)
        # the moments are AdamW's whole state; the step comes from the caller
        for name, tensor in params.items():
            np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)
            np.testing.assert_array_equal(opt.moments[name][0], moments[name][0], err_msg=name)
            np.testing.assert_array_equal(opt.moments[name][1], moments[name][1], err_msg=name)

    @pytest.mark.parametrize("mode", ["enhanced", "basic"])
    def test_parameter_gradients_are_owned_and_clipped_once(self, mode, monkeypatch):
        # the clip scales gradients in place, so no parameter's gradient may
        # share memory with another's: each must be scaled exactly once
        params, train, enc, dec, _ = tiny_setup(mode, seed=9, dtype=np.float32)
        rng = np.random.default_rng(1)
        batch = _three_sentences(rng)
        clipped = {}

        def recording_clip(grads, max_norm):
            clipped["before"] = [g.copy() for g in grads]
            norm = clip_global_norm(grads, max_norm)
            clipped["after"] = [g.copy() for g in grads]
            return norm

        monkeypatch.setattr(training, "clip_global_norm", recording_clip)
        monkeypatch.setattr(training, "GRAD_CLIP_NORM", 1e-3)
        train_step(params, AdamW(), train, enc, dec, batch, rng, step=1)
        names = list(params)
        grads = [params[name].grad for name in names]
        for i, (name, g) in enumerate(zip(names, grads)):
            assert g is not None, name
            assert g.flags.writeable, name
            assert (g.shape, g.dtype) == (params[name].shape, params[name].dtype), name
            for other, h in zip(names[i + 1:], grads[i + 1:]):
                assert not np.shares_memory(g, h), (name, other)
        reference = [g.copy() for g in clipped["before"]]
        assert clip_global_norm(reference, 1e-3) > 1e-3
        for name, g, after, ref in zip(names, grads, clipped["after"], reference):
            np.testing.assert_array_equal(after, ref, err_msg=name)
            np.testing.assert_array_equal(g, ref, err_msg=name)

    @pytest.mark.parametrize("mode", ["enhanced", "basic"])
    def test_a_step_graph_is_freed_by_reference_counting(self, mode):
        params, train, enc, dec, mbatch = tiny_setup(mode, seed=9)
        gc.collect()
        gc.disable()
        try:
            loss = step_loss(params, train, enc, dec, mbatch)
            ad.backward(loss)
            interior = loss._parents[0]
            assert interior._backward is not None and interior.grad is not None
            refs = [weakref.ref(loss), weakref.ref(interior)]
            del loss, interior
            assert [r() for r in refs] == [None, None]
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_graph_tensor_outlives_a_step(self, monkeypatch):
        # every graph node is recorded through a weak reference; with the
        # cyclic collector off, only reference counting can free them
        params, train, enc, dec, _ = tiny_setup("enhanced", seed=9)
        rng = np.random.default_rng(1)
        batch = _three_sentences(rng)
        opt = AdamW()
        made = []
        real_make = ad._make

        def recording_make(*args):
            out = real_make(*args)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(ad, "_make", recording_make)
        gc.disable()
        try:
            train_step(params, opt, train, enc, dec, batch, rng, step=1)
            assert made
            assert [r for r in made if r() is not None] == []

            made.clear()
            # the decoder's feed-forward overflows: the encoder and the
            # decoder's attention are already recorded when the step raises
            params["dec0.ffn.w2"].data[0, 0] = np.inf
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    train_step(params, opt, train, enc, dec, batch, rng, step=2)
                except TrainingDiverged:
                    pass
                else:
                    pytest.fail("a non-finite weight did not stop the step")
            assert len(made) > 20
            assert [r for r in made if r() is not None] == []
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode, layers, mlm_weight, nodes, transposes", [
        ("enhanced", 1, 0.0, 89, 13),
        ("basic", 1, 0.0, 88, 13),
        ("basic", 2, 0.0, 112, 17),
        ("enhanced", 1, 0.5, 96, 14),
        ("basic", 1, 0.5, 95, 14),
    ])
    def test_a_desk_step_scatters_only_into_attention(self, mode, layers, mlm_weight, nodes, transposes, monkeypatch):
        # states stay packed up to the loss: the only grids scattered into
        # are attention's (B, rows, heads, head_dim) queries, keys and values;
        # an attention transposes each of them and its context once, and each
        # vocabulary head transposes the embedding table
        params, train, enc, dec, batch, rng = _desk_step_setup(mode, layers, mlm_weight)
        made = []
        real_make = ad._make

        def recording_make(data, parents, backward_fn, op):
            made.append((op, data.ndim))
            return real_make(data, parents, backward_fn, op)

        monkeypatch.setattr(ad, "_make", recording_make)
        train_step(params, AdamW(), train, enc, dec, batch, rng, step=1)
        assert len(made) == nodes
        scatters = [ndim for op, ndim in made if op == "scatter_rows"]
        assert scatters and set(scatters) == {4}
        assert sum(op == "transpose" for op, _ in made) == transposes

    @pytest.mark.parametrize("mode, layers", [("enhanced", 1), ("basic", 1), ("basic", 2)])
    def test_attention_scores_only_the_query_rows_a_block_returns(self, mode, layers, monkeypatch):
        # the encoder's last block and the last decoder layer score their
        # query rows on a (B, max(2, most query rows of one sentence)) slot
        # grid; every other block queries every cell of the (B, L) grid
        params, train, enc, dec, batch, rng = _desk_step_setup(mode, layers, 0.0)
        drawn, shapes = [], []
        real_mask_batch, real_softmax = training.mask_batch, ad.masked_softmax
        monkeypatch.setattr(training, "mask_batch", lambda *args: drawn.append(real_mask_batch(*args)) or drawn[-1])
        monkeypatch.setattr(ad, "masked_softmax",
                            lambda scores, visible: shapes.append(scores.shape) or real_softmax(scores, visible))
        train_step(params, AdamW(), train, enc, dec, batch, rng, step=1)
        B, L = batch.ids.shape
        last = max(2, int(drawn[0].dec_targets.sum(axis=1).max()))
        assert last < L
        assert shapes == [(B, 4, rows, L) for rows in [L, 2, *[L] * (layers - 1), last]]


WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
]


def _write_corpus(path, n=20, seed=0):
    rng = np.random.default_rng(seed)
    lines = [
        " ".join(rng.choice(WORDS, size=rng.integers(3, 7)))
        for _ in range(n)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def _micro_configs():
    train = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3, seed=5)
    enc = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=32, max_len=10, vocab_size=64)
    dec = DecoderConfig(mode="enhanced", layers=1, heads=2)
    return train, enc, dec


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestRunPretraining:
    def test_leaves_checkpoint_vocab_and_log(self, tmp_path):
        corpus = _write_corpus(tmp_path / "corpus.txt")
        train, enc, dec = _micro_configs()
        ckpt = run_pretraining(corpus, tmp_path / "run", train, enc, dec)
        assert ckpt == tmp_path / "run" / "model.ckpt"
        assert (tmp_path / "run" / "vocab.txt").is_file()
        log_lines = (tmp_path / "run" / "loss_log.tsv").read_text().splitlines()
        # 20 sentences / batch 8 -> 3 batches per epoch, 2 epochs
        assert len(log_lines) == 6
        steps, losses, coverages = zip(*(line.split("\t") for line in log_lines))
        assert list(steps) == [str(i) for i in range(1, 7)]
        assert all(math.isfinite(float(x)) for x in losses)
        assert set(coverages) == {"1.000000"}
        loaded = load_checkpoint(ckpt)
        assert loaded.progress == 6
        # the global step is the one progress count: the epoch (2), the batch
        # offset (0) and AdamW's bias-correction step all follow from it
        header, _, rest = ckpt.read_bytes().partition(b"\n")
        manifest = rest[: int(header.split()[1])].decode()
        assert [line for line in manifest.splitlines() if line.startswith(("progress.", "optimizer."))] == [
            "progress.step = 6"
        ]
        assert loaded.encoder.vocab_size == len(WORDS) + 5  # capped by the real corpus

    def test_a_fresh_run_tokenizes_each_sentence_once(self, tmp_path, monkeypatch):
        corpus = _write_corpus(tmp_path / "corpus.txt")
        tokenized = []
        tokenize = text.tokenize
        monkeypatch.setattr(text, "tokenize", lambda line: tokenized.append(line) or tokenize(line))
        run_pretraining(corpus, tmp_path / "run", *_micro_configs(), stop_after_steps=1)
        assert sorted(tokenized) == sorted(corpus.read_text().splitlines())

    @pytest.mark.parametrize("stop_at", [2, 3, 4])  # 3 is the end of epoch 0
    def test_interrupt_and_resume_reproduce_the_straight_run(self, tmp_path, stop_at):
        corpus = _write_corpus(tmp_path / "corpus.txt")
        train, enc, dec = _micro_configs()
        straight = run_pretraining(corpus, tmp_path / "a", train, enc, dec)

        interrupted = run_pretraining(
            corpus, tmp_path / "b", train, enc, dec, stop_after_steps=stop_at
        )
        assert load_checkpoint(interrupted).progress == stop_at
        resumed = run_pretraining(
            corpus, tmp_path / "b", train, enc, dec, resume_from=interrupted
        )
        assert resumed.read_bytes() == straight.read_bytes()
        assert (tmp_path / "b" / "loss_log.tsv").read_text() == (
            tmp_path / "a" / "loss_log.tsv"
        ).read_text()

    def test_a_failed_vocabulary_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        # every start rewrites vocab.txt, resumes included; a write that
        # fails partway must not leave a truncated vocabulary beside the
        # checkpoint, which the next resume could not load
        corpus = _write_corpus(tmp_path / "corpus.txt")
        train, enc, dec = _micro_configs()
        straight = run_pretraining(corpus, tmp_path / "a", train, enc, dec)
        interrupted = run_pretraining(corpus, tmp_path / "b", train, enc, dec, stop_after_steps=2)
        vocab = tmp_path / "b" / "vocab.txt"
        before = vocab.read_bytes()

        class HalfWritten:
            """A file that takes half of its first write, then runs out of space."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = builtins.open

        def full_disk_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return HalfWritten(f) if "w" in mode and Path(file).name.startswith("vocab.txt") else f

        # builtins.open serves the package's own opens, io.open pathlib's
        monkeypatch.setattr(builtins, "open", full_disk_open)
        monkeypatch.setattr(io, "open", full_disk_open)
        with pytest.raises(OSError, match="No space left on device"):
            run_pretraining(corpus, tmp_path / "b", train, enc, dec, resume_from=interrupted)
        monkeypatch.undo()

        assert vocab.read_bytes() == before
        resumed = run_pretraining(corpus, tmp_path / "b", train, enc, dec, resume_from=interrupted)
        assert resumed.read_bytes() == straight.read_bytes()
        assert vocab.read_bytes() == (tmp_path / "a" / "vocab.txt").read_bytes()
        assert (tmp_path / "b" / "loss_log.tsv").read_text() == (tmp_path / "a" / "loss_log.tsv").read_text()

    def test_one_step_has_one_checkpoint_whichever_save_wrote_it(self, tmp_path, monkeypatch):
        # 3 batches per epoch: a run stopped at step 3 and a run killed during
        # step 4, which keeps its end-of-epoch save, hold the same state
        corpus = _write_corpus(tmp_path / "corpus.txt")
        train, enc, dec = _micro_configs()
        stopped = run_pretraining(corpus, tmp_path / "a", train, enc, dec, stop_after_steps=3)

        class Killed(Exception):
            pass

        def dies_at_step_4(*args):
            if args[-1] == 4:
                raise Killed
            return train_step(*args)

        monkeypatch.setattr("dualmae.training.train_step", dies_at_step_4)
        with pytest.raises(Killed):
            run_pretraining(corpus, tmp_path / "b", train, enc, dec)
        monkeypatch.undo()
        killed = tmp_path / "b" / "model.ckpt"
        assert load_checkpoint(killed).progress == 3
        assert killed.read_bytes() == stopped.read_bytes()

    def test_resume_after_a_crash_cuts_the_log_back_to_the_checkpoint(self, tmp_path, monkeypatch):
        corpus = _write_corpus(tmp_path / "corpus.txt", n=48)  # 6 batches per epoch, 2 epochs
        train, enc, dec = _micro_configs()
        straight = run_pretraining(corpus, tmp_path / "a", train, enc, dec, checkpoint_every=3)

        class Killed(Exception):
            pass

        def dies_at_step_6(*args):
            if args[-1] == 6:
                raise Killed
            return train_step(*args)

        monkeypatch.setattr("dualmae.training.train_step", dies_at_step_6)
        with pytest.raises(Killed):
            run_pretraining(corpus, tmp_path / "b", train, enc, dec, checkpoint_every=3)
        monkeypatch.undo()
        log = tmp_path / "b" / "loss_log.tsv"
        assert [line.split("\t")[0] for line in log.read_text().splitlines()] == ["1", "2", "3", "4", "5"]
        ckpt = tmp_path / "b" / "model.ckpt"
        assert load_checkpoint(ckpt).progress == 3

        resumed = run_pretraining(corpus, tmp_path / "b", train, enc, dec, resume_from=ckpt, checkpoint_every=3)
        assert log.read_bytes() == (tmp_path / "a" / "loss_log.tsv").read_bytes()
        assert [line.split("\t")[0] for line in log.read_text().splitlines()] == [str(i) for i in range(1, 13)]
        assert resumed.read_bytes() == straight.read_bytes()

    def test_fresh_run_into_an_old_run_directory_starts_a_new_log(self, tmp_path):
        corpus = _write_corpus(tmp_path / "corpus.txt")
        train, enc, dec = _micro_configs()
        straight = run_pretraining(corpus, tmp_path / "a", train, enc, dec, stop_after_steps=3)
        run_pretraining(corpus, tmp_path / "b", train, enc, dec)
        again = run_pretraining(corpus, tmp_path / "b", train, enc, dec, stop_after_steps=3)
        log = (tmp_path / "b" / "loss_log.tsv").read_text()
        assert [line.split("\t")[0] for line in log.splitlines()] == ["1", "2", "3"]
        assert log == (tmp_path / "a" / "loss_log.tsv").read_text()
        assert again.read_bytes() == straight.read_bytes()

    def test_a_fresh_run_leaves_no_older_checkpoint_beside_its_vocabulary(self, tmp_path, monkeypatch):
        """A fresh run on another corpus into an old run's directory, killed
        at its first step, must not leave the old weights beside the new
        vocabulary; a left-over temporary checkpoint goes too."""
        train, enc, dec = _micro_configs()
        old = tmp_path / "old.txt"
        old.write_text("\n".join(" ".join(WORDS[i : i + 4]) for i in range(0, 8)) + "\n")
        new = tmp_path / "new.txt"
        new.write_text("\n".join(f"fresh{i} word{i} token{i}" for i in range(8)) + "\n")
        run_dir = tmp_path / "run"
        run_pretraining(old, run_dir, train, enc, dec)
        (run_dir / "model.ckpt.tmp").write_bytes(b"left by a killed save")

        class Killed(Exception):
            pass

        def killed(*args):
            raise Killed

        monkeypatch.setattr(training, "train_step", killed)
        with pytest.raises(Killed):
            run_pretraining(new, run_dir, train, enc, dec)
        assert sorted(p.name for p in run_dir.iterdir()) == ["loss_log.tsv", "vocab.txt"]
        assert "fresh0" in (run_dir / "vocab.txt").read_text()
        assert (run_dir / "loss_log.tsv").read_text() == ""

    def test_training_bytes_do_not_depend_on_a_blas_thread_variable(self, tmp_path):
        """``dualmae pretrain`` writes the same checkpoint with no thread
        variable set as with ``OPENBLAS_NUM_THREADS=1``, because importing
        the package pins one thread. A desk batch of 32 sentences of 25-40
        words passes about 1,000 rows to each weight gradient, past the 464
        rows from which OpenBLAS splits that sum differently at two threads.
        On a one-CPU host OpenBLAS may start no second thread, and then this
        test cannot show the defect."""
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(300)]
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "\n".join(" ".join(rng.choice(words, size=int(rng.integers(25, 41)))) for _ in range(64)) + "\n"
        )
        src = str(Path(training.__file__).resolve().parents[1])
        checkpoints = []
        for name, threads in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            out = tmp_path / name
            done = subprocess.run(
                [sys.executable, "-m", "dualmae.cli", "pretrain", "--preset", "desk", "--corpus", str(corpus),
                 "--out", str(out), "--stop-after-steps", "1"],
                env=env | threads, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            checkpoints.append((out / "model.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    @pytest.mark.parametrize("seed", [1])
    def test_runs_killed_at_seeded_moments_resume_onto_the_straight_run(self, tmp_path, seed):
        """Real kills. ``dualmae pretrain`` on a tiny model, checkpointing
        every step, runs in a subprocess that gets SIGKILL after a seeded
        delay; the next one resumes from whatever ``model.ckpt`` is left,
        or starts afresh when there is none, until a run ends (after
        ``kills`` kills the last one runs to its end). The final checkpoint and
        log must equal the straight run's. The second directory first holds
        a finished run on another corpus: there a kill may leave that run's
        checkpoint only beside that run's vocabulary, and a fresh start
        follows. Where a kill lands is not reproducible, so the assertions
        must hold at every kill point; a failure names the seed and the
        delays. Start-up (the numpy and scipy imports) is about half of
        each run, so some kills land before any training."""
        kills = 5
        rng = np.random.default_rng(seed)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "\n".join(" ".join(rng.choice(WORDS, size=int(rng.integers(3, 9)))) for _ in range(64)) + "\n"
        )
        other = tmp_path / "other.txt"
        other.write_text("\n".join(f"old{i} word{i} token{i}" for i in range(16)) + "\n")
        src = str(Path(training.__file__).resolve().parents[1])
        env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        tiny = [f"--set={key}" for key in ("layers=1", "hidden_dim=16", "heads=2", "decoder_heads=2", "ffn_dim=32",
                                           "vocab_size=64", "batch_size=4", "epochs=8")]

        def start(out, text, resume=None):
            args = ["--resume", str(resume)] if resume else []
            return subprocess.Popen(
                [sys.executable, "-m", "dualmae.cli", "pretrain", "--preset", "desk", *tiny, "--corpus", str(text),
                 "--out", str(out), "--checkpoint-every", "1", *args],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )

        def finish(proc, note=""):
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, (note, err)

        began = time.perf_counter()
        finish(start(tmp_path / "straight", corpus))
        span = time.perf_counter() - began
        finish(start(tmp_path / "old", other))
        old_checkpoint = (tmp_path / "old" / "model.ckpt").read_bytes()
        old_vocab = (tmp_path / "old" / "vocab.txt").read_bytes()

        for name in ("new", "old"):
            out = tmp_path / name
            ckpt = out / "model.ckpt"
            delays = []
            while True:
                note = f"{name} directory, seed {seed}, delays {delays}"
                resume = ckpt if ckpt.exists() else None
                if resume and ckpt.read_bytes() == old_checkpoint:
                    # the fresh run was killed before it replaced anything
                    assert (out / "vocab.txt").read_bytes() == old_vocab, note
                    resume = None
                proc = start(out, corpus, resume)
                if len(delays) == kills:
                    finish(proc, note)
                    break
                delays.append(round(float(rng.uniform(0.0, span)), 3))
                try:
                    proc.wait(timeout=delays[-1])
                except subprocess.TimeoutExpired:
                    proc.kill()
                _, err = proc.communicate(timeout=120)
                if proc.returncode == 0:
                    break
                assert proc.returncode == -signal.SIGKILL, (note, err)

            note = f"{name} directory, seed {seed}, delays {delays}"
            assert ckpt.read_bytes() == (tmp_path / "straight" / "model.ckpt").read_bytes(), note
            assert (out / "loss_log.tsv").read_bytes() == (tmp_path / "straight" / "loss_log.tsv").read_bytes(), note

    def test_periodic_checkpoints(self, tmp_path):
        corpus = _write_corpus(tmp_path / "corpus.txt")
        train, enc, dec = _micro_configs()
        ckpt = run_pretraining(
            corpus, tmp_path / "run", train, enc, dec, stop_after_steps=3, checkpoint_every=2
        )
        assert load_checkpoint(ckpt).progress == 3

    def test_each_step_is_checkpointed_at_most_once(self, tmp_path, monkeypatch):
        corpus = _write_corpus(tmp_path / "corpus.txt", n=16)  # 2 batches per epoch, 2 epochs
        train, enc, dec = _micro_configs()
        saved = []

        def recording_save(*args):
            saved.append(args[7])  # the global step
            save_checkpoint(*args)

        monkeypatch.setattr(training, "save_checkpoint", recording_save)
        done = run_pretraining(corpus, tmp_path / "a", train, enc, dec, checkpoint_every=2)
        assert saved == [2, 4]
        saved.clear()
        run_pretraining(corpus, tmp_path / "b", train, enc, dec, stop_after_steps=2, checkpoint_every=2)
        assert saved == [2]
        saved.clear()
        run_pretraining(corpus, tmp_path / "c", train, enc, dec, resume_from=done)
        assert saved == [4]

    def test_resuming_a_finished_run_is_a_no_op(self, tmp_path):
        corpus = _write_corpus(tmp_path / "corpus.txt")
        train, enc, dec = _micro_configs()
        done = run_pretraining(corpus, tmp_path / "a", train, enc, dec)
        again = run_pretraining(corpus, tmp_path / "b", train, enc, dec, resume_from=done)
        assert again.read_bytes() == done.read_bytes()
        assert (tmp_path / "b" / "loss_log.tsv").read_text() == ""

    def test_losses_fall_on_a_memorizable_corpus(self, tmp_path):
        # 8 fixed sentences, enough steps to see the loss clearly move
        corpus = tmp_path / "corpus.txt"
        rng = np.random.default_rng(3)
        corpus.write_text(
            "\n".join(" ".join(rng.choice(WORDS, size=5)) for _ in range(8)) + "\n"
        )
        train = TrainConfig(epochs=200, batch_size=8, learning_rate=1e-3, seed=5)
        _, enc, dec = _micro_configs()
        run_pretraining(corpus, tmp_path / "run", train, enc, dec)
        log = (tmp_path / "run" / "loss_log.tsv").read_text().splitlines()
        losses = [float(line.split("\t")[1]) for line in log]
        assert np.mean(losses[-5:]) < 0.75 * np.mean(losses[:5])

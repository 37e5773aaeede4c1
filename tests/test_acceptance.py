"""The acceptance suite: one test per shipping criterion.

These are the end-to-end checks the package must pass before a release:
gradient exactness, mask-matrix structure at scale, loss-coverage
accounting, information-flow guarantees of the two-stream decoder, a
desk-scale memorization run, the head-to-head between decoding modes,
metric oracles, and bit-level reproducibility of training itself.

Each test finishes by printing ``criterion N (...): PASS``; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they land.
Budget a few minutes: two tests train real (small) models.
"""

import itertools
import time

import numpy as np
import pytest

from dualmae import autodiff as ad
from dualmae.cli import main
from dualmae.config import TrainConfig
from dualmae.decoder import decode_basic, decode_enhanced
from dualmae.encoder import encode
from dualmae.masking import MaskedBatch, build_attention_mask, mask_batch, round_half_up
from dualmae.model import DecoderConfig, EncoderConfig, init_params, output_logits
from dualmae.optim import AdamW
from dualmae.retrieval import EmbeddingStore, RankingRun, mrr_at_k, ndcg_at_k, recall_at_k, search_run
from dualmae.text import TokenSequence, batch_iter, make_batch
from dualmae.training import train_step

from reconstruction import reconstruction_accuracy


def test_criterion_1_analytic_gradients_match_finite_differences(capsys):
    started = time.monotonic()
    code = main(["gradcheck"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    assert "pass = true" in out
    assert "tolerance = 1.0e-04" in out
    assert elapsed < 120.0
    print("criterion 1 (gradient check): PASS")


def test_criterion_2_mask_matrix_structure_over_random_configs():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        length = int(rng.integers(2, 25))
        ratio = float(rng.uniform(0.05, 0.95))
        # pads land at the high end of the grid, never everywhere
        n_pads = int(rng.integers(0, length - 1))
        pads = list(range(length - n_pads, length))
        seed = [int(rng.integers(0, 2**31)), trial]

        real = np.ones((1, length), dtype=bool)
        real[0, pads] = False
        m = build_attention_mask(real, ratio, np.random.default_rng(seed))[0]
        assert m.shape == (length, length)
        assert np.isin(m, [True, False]).all()

        # the sentence column is open to every row
        assert (m[:, 0] == True).all()
        # no content row attends to its own token
        for i in range(1, length):
            assert m[i, i] == False
        # pad columns leak nothing, pad rows request nothing
        for p in pads:
            assert (m[:, p] == False).all()
            assert (m[p, 1:] == False).all()

        maskable = length - 1 - len(pads)
        expected = round_half_up((1.0 - ratio) * maskable)
        for i in range(length):
            if i in pads:
                continue
            others = maskable if i == 0 else maskable - 1
            visible = int(np.count_nonzero(m[i, 1:] == True))
            if others == 0:
                assert visible == 0
            else:
                assert visible == min(max(1, expected), others)
                if 1 <= expected <= others:
                    assert visible == expected

        again = build_attention_mask(real, ratio, np.random.default_rng(seed))[0]
        assert m.tobytes() == again.tobytes()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print("criterion 2 (mask-matrix structure, 1000 configs): PASS")


def test_criterion_3_coverage_accounting_on_a_synthetic_corpus(tmp_path, capsys):
    pool = itertools.cycle(f"w{i:03d}" for i in range(300))
    lines = [" ".join(next(pool) for _ in range(20 if i % 2 == 0 else 40))
             for i in range(1000)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n")

    code = main(["maskstats", "--preset", "desk", "--corpus", str(corpus)])
    out = capsys.readouterr().out
    assert code == 0
    assert "enhanced.coverage = 1.000000" in out
    assert "basic.coverage = 0.500000" in out
    mlm15 = next(float(line.split("=")[1]) for line in out.splitlines()
                 if line.startswith("mlm15.coverage"))
    assert abs(mlm15 - 0.15) <= 0.01
    print("criterion 3 (loss coverage accounting): PASS")


def _two_stream_setup(bottleneck_row=None):
    """Random double-precision decoder inputs with hand-built visibility."""
    enc = EncoderConfig(layers=1, hidden_dim=16, heads=4, ffn_dim=32, max_len=12, vocab_size=40)
    dec = DecoderConfig(mode="enhanced", layers=1, heads=4)
    rng = np.random.default_rng(404)
    params = init_params(enc, dec, rng, dtype=np.float64)
    B, L, d = 2, 7, 16
    sentence = ad.constant(rng.standard_normal((B, d)))
    tokens = rng.standard_normal((B, L, d))
    masks = np.full((B, L, L), False)
    masks[:, :, 0] = True
    for i in range(1, L):
        for j in range(1, L):
            if i != j:
                masks[:, i, j] = True
    if bottleneck_row is not None:
        masks[:, bottleneck_row, 1:] = False
    return params, dec, sentence, tokens, masks


def _logits(params, dec, sentence, tokens, masks):
    """Every position's logits of the two-stream layer over the token
    embeddings ``tokens``: each cell gets its own id, whose row of a copy
    of the table holds the cell's embedding, and every cell is a loss row.
    Logits are read through ``params``' own table, which the output
    projection shares."""
    B, L, _ = tokens.shape
    ids = np.arange(5, 5 + B * L).reshape(B, L)
    table = params["word_emb"].data.copy()
    table[ids] = tokens
    every = np.ones((B, L), dtype=bool)
    mb = MaskedBatch(
        mode="enhanced", ids=ids, real=every, enc_ids=ids, enc_masked=~every,
        dec_ids=ids, dec_targets=every, dec_visible=masks,
    )
    with ad.no_grad():
        states, _ = decode_enhanced({**params, "word_emb": ad.constant(table)}, dec, sentence, mb)
        return output_logits(params, states).data.reshape(B, L, -1)


def test_criterion_4_information_flow_in_the_two_stream_decoder():
    row = 3
    params, dec, sentence, tokens, masks = _two_stream_setup(bottleneck_row=row)
    base = _logits(params, dec, sentence, tokens, masks)

    # 4a: a row that sees only the sentence ignores every token embedding
    for j in range(1, tokens.shape[1]):
        poked = tokens.copy()
        poked[:, j] += 1.0
        moved = _logits(params, dec, sentence, poked, masks)
        assert moved[:, row].tobytes() == base[:, row].tobytes(), j
    shifted = ad.constant(sentence.data + 0.5)
    assert (_logits(params, dec, shifted, tokens, masks)[:, row] != base[:, row]).all()

    # 4b: under full cross-visibility a token never informs its own logits
    params, dec, sentence, tokens, masks = _two_stream_setup()
    base = _logits(params, dec, sentence, tokens, masks)
    for j in range(1, tokens.shape[1]):
        zeroed = tokens.copy()
        zeroed[:, j] = 0.0
        out = _logits(params, dec, sentence, zeroed, masks)
        assert out[:, j].tobytes() == base[:, j].tobytes(), j
        neighbor = 1 + (j % (tokens.shape[1] - 1))
        assert (out[:, neighbor] != base[:, neighbor]).any()
    print("criterion 4 (decoder information flow): PASS")


def _synthetic_sentences(count, vocab_size, rng):
    sents = []
    for _ in range(count):
        n = int(rng.integers(8, 15))
        ids = np.concatenate([[2], rng.integers(5, vocab_size, size=n), [3]])
        sents.append(TokenSequence(ids))
    return sents


DESK_ENC = EncoderConfig(layers=2, hidden_dim=64, heads=4, ffn_dim=256, max_len=18, vocab_size=512)


def _natural_accuracy(params, enc, dec, mode, sents, limit=256):
    """Reconstruction accuracy under a fixed evaluation masking, scored on
    the batch's decoder targets: the masked positions in basic mode, every
    real position after 0 in enhanced mode."""
    batch = make_batch(sents[:limit])
    mb = mask_batch(batch, mode, 0.15, 0.5, np.random.default_rng(123))
    with ad.no_grad():
        h, _ = encode(params, enc, mb.enc_ids, mb.real)
        if mode == "basic":
            states, _ = decode_basic(params, dec, h, mb)
        else:
            states, _ = decode_enhanced(params, dec, h, mb)
        logits = output_logits(params, states)
    return reconstruction_accuracy(logits.data, mb.ids[mb.dec_targets]), h, mb, mb.dec_targets


def _train_until(sents, mode, dec_layers, threshold, max_steps, eval_every=50):
    dec = DecoderConfig(mode=mode, layers=dec_layers, heads=4)
    train = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=32, seed=0)
    params = init_params(DESK_ENC, dec, np.random.default_rng([0, 0]))
    opt = AdamW(lr=train.learning_rate, weight_decay=train.weight_decay)
    mask_rng = np.random.default_rng([0, 1])
    step = 0
    losses = []
    for epoch in itertools.count():
        for batch in batch_iter(sents, train.batch_size, [0, 2, epoch]):
            step += 1
            loss, _ = train_step(params, opt, train, DESK_ENC, dec, batch, mask_rng, step)
            losses.append(loss)
            if step % eval_every == 0:
                acc, *_ = _natural_accuracy(params, DESK_ENC, dec, mode, sents)
                if acc >= threshold:
                    return step, params, dec, losses
            if step >= max_steps:
                return None, params, dec, losses


def test_criterion_5_desk_overfit_run_depends_on_the_sentence_vector():
    started = time.monotonic()
    sents = _synthetic_sentences(64, 512, np.random.default_rng(11))
    reached, params, dec, _ = _train_until(sents, "enhanced", 1, 0.95, max_steps=2000)
    assert reached is not None, "accuracy 0.95 not reached within 2000 steps"

    acc, h, mb, positions = _natural_accuracy(params, DESK_ENC, dec, "enhanced", sents)
    assert acc >= 0.95
    # reconstruct each sentence from its neighbor's vector instead of its own
    rolled = ad.constant(np.roll(h.data, 1, axis=0))
    with ad.no_grad():
        states, _ = decode_enhanced(params, dec, rolled, mb)
        logits = output_logits(params, states)
    swapped = reconstruction_accuracy(logits.data, mb.ids[positions])
    assert acc - swapped >= 0.30
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    print(f"criterion 5 (desk overfit, acc {acc:.3f} vs swapped {swapped:.3f}, "
          f"step {reached}, {elapsed:.0f}s): PASS")


def test_criterion_6_enhanced_decoding_learns_faster_than_basic():
    sents = _synthetic_sentences(512, 512, np.random.default_rng(11))
    threshold = 0.30
    steps_enhanced, *_ = _train_until(sents, "enhanced", 1, threshold, max_steps=3000)
    steps_basic, *_ = _train_until(sents, "basic", 1, threshold, max_steps=3000)
    assert steps_enhanced is not None, "enhanced never reached the threshold"
    assert steps_basic is not None, "basic never reached the threshold"
    assert steps_enhanced < steps_basic

    # a deeper basic decoder must also train without blowing up
    _, _, _, losses = _train_until(sents, "basic", 2, threshold=2.0, max_steps=300)
    losses = np.array(losses)
    assert np.isfinite(losses).all()
    assert losses[-20:].mean() < losses[:20].mean()
    print(f"criterion 6 (mode head-to-head, enhanced {steps_enhanced} < "
          f"basic {steps_basic} steps to {threshold}): PASS")


def _definition_mrr(candidates, labels, k):
    total = 0.0
    for q in candidates:
        for rank, (doc, _) in enumerate(candidates[q][:k], start=1):
            if labels.get(q, {}).get(doc, 0) > 0:
                total += 1.0 / rank
                break
    return total / len(candidates)


def _definition_recall(candidates, labels, k):
    per_query = []
    for q in candidates:
        relevant = {doc for doc, r in labels.get(q, {}).items() if r > 0}
        if relevant:
            hits = {doc for doc, _ in candidates[q][:k]} & relevant
            per_query.append(len(hits) / len(relevant))
    if not per_query:
        raise ValueError
    return sum(per_query) / len(per_query)


def _definition_ndcg(candidates, labels, k):
    per_query = []
    for q in candidates:
        judged = labels.get(q, {})
        ideal = sorted(judged.values(), reverse=True)
        idcg = sum((2.0**r - 1.0) / np.log2(i + 2.0) for i, r in enumerate(ideal[:k]))
        if idcg > 0.0:
            dcg = sum((2.0 ** judged.get(doc, 0) - 1.0) / np.log2(i + 2.0)
                      for i, (doc, _) in enumerate(candidates[q][:k]))
            per_query.append(dcg / idcg)
    if not per_query:
        raise ValueError
    return sum(per_query) / len(per_query)


def test_criterion_7_metrics_and_search_match_definitional_oracles():
    rng = np.random.default_rng(909)
    for _ in range(100):
        candidates = {}
        labels = {}
        for qi in range(int(rng.integers(1, 7))):
            q = f"q{qi}"
            n = int(rng.integers(1, 15))
            scores = np.sort(np.round(rng.standard_normal(n), 1))[::-1]
            candidates[q] = [(f"d{j}", float(s)) for j, s in enumerate(scores)]
            judged = {f"d{j}": int(rng.integers(0, 4)) for j in range(n) if rng.random() < 0.6}
            if rng.random() < 0.4:
                judged[f"gone{qi}"] = int(rng.integers(0, 4))
            if judged:
                labels[q] = judged
        run = RankingRun(candidates=candidates, labels=labels)
        k = int(rng.integers(1, 10))
        assert abs(mrr_at_k(run, k) - _definition_mrr(candidates, labels, k)) < 1e-12
        for library, oracle in ((recall_at_k, _definition_recall),
                                (ndcg_at_k, _definition_ndcg)):
            try:
                expected = oracle(candidates, labels, k)
            except ValueError:
                with pytest.raises(ValueError):
                    library(run, k)
            else:
                assert abs(library(run, k) - expected) < 1e-12

    for _ in range(1000):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 6))
        matrix = np.round(rng.standard_normal((n, d)), 1).astype(np.float32)
        ids = [f"doc{i:03d}" for i in rng.permutation(n)]
        store = EmbeddingStore(ids=ids, matrix=matrix)
        query = np.round(rng.standard_normal(d), 1)
        k = int(rng.integers(1, n + 1))
        scores = matrix.astype(np.float64) @ query
        order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
        got = search_run(EmbeddingStore(ids=["q"], matrix=query[None, :]), store, k).candidates["q"]
        assert got == [(ids[i], float(scores[i])) for i in order[:k]]
    print("criterion 7 (metric and search oracles): PASS")


def test_criterion_8_training_is_byte_reproducible(tmp_path):
    words = "alfa bravo charlie delta echo foxtrot golf hotel india juliett".split()
    rng = np.random.default_rng(3)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(" ".join(rng.choice(words, size=6)) for _ in range(16)) + "\n")
    args = ["pretrain", "--preset", "desk", "--corpus", str(corpus),
            "--set", "layers=1", "--set", "hidden_dim=16", "--set", "heads=2",
            "--set", "ffn_dim=32", "--set", "max_len=12", "--set", "vocab_size=32",
            "--set", "epochs=2", "--set", "batch_size=8"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("model.ckpt", "loss_log.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    print("criterion 8 (byte-reproducible training): PASS")

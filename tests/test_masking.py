"""Token masks, the per-row visibility matrix, and signal coverage.

The statistical checks (inclusion rates, encoder/decoder independence)
use fixed seeds and tolerances wide enough that they cannot flake; the
structural checks are exact.
"""

import numpy as np
import pytest
from scipy import stats

from dualmae.masking import coverage_counts, mask_batch, round_half_up, signal_coverage_stats
from dualmae.text import CLS_ID, MASK_ID, PAD_ID, SEP_ID, Batch, TokenSequence, make_batch


def _seq(content_len: int, start: int = 5) -> TokenSequence:
    ids = np.concatenate([[CLS_ID], np.arange(start, start + content_len), [SEP_ID]])
    return TokenSequence(ids)


def _matrix(length, ratio, pads, rng, first=CLS_ID):
    """The visibility matrix that ``mask_batch`` draws for one sentence
    whose ``pads`` positions are padding, ``first`` at position 0 and a
    content id at every other real position."""
    real = np.ones((1, length), dtype=bool)
    real[0, list(pads)] = False
    ids = np.where(real, np.concatenate([[first], np.arange(6, 5 + length)]), PAD_ID)
    return mask_batch(Batch(ids=ids), "enhanced", 0.15, ratio, rng).dec_visible[0]


class TestRoundHalfUp:
    def test_halves_round_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.5) == 3

    def test_plain_rounding(self):
        assert round_half_up(2.4) == 2
        assert round_half_up(2.6) == 3
        assert round_half_up(0.0) == 0
        np.testing.assert_array_equal(round_half_up(np.array([0.5, 1.5, 2.4, 2.6, 0.0])), [1, 2, 2, 3, 0])


class TestTokenMasks:
    def test_maskable_excludes_structure(self):
        # ratio 0.9 of three content tokens masks round(2.7) = 3, i.e. every candidate
        batch = make_batch([_seq(3)], pad_to=7)
        mb = mask_batch(batch, "basic", 0.9, 0.9, np.random.default_rng(0))
        np.testing.assert_array_equal(np.flatnonzero(mb.enc_masked[0]), [1, 2, 3])

    def test_exact_mask_counts(self):
        rng = np.random.default_rng(0)
        assert mask_batch(make_batch([_seq(20)]), "enhanced", 0.15, 0.5, rng).enc_masked.sum() == 3
        assert mask_batch(make_batch([_seq(20)]), "enhanced", 0.5, 0.5, rng).enc_masked.sum() == 10
        mb = mask_batch(make_batch([_seq(20)]), "basic", 0.15, 0.5, rng)
        assert mb.enc_masked[0].sum() == 3
        assert mb.dec_targets[0].sum() == 10

    def test_at_least_one_position_masked(self):
        rng = np.random.default_rng(1)
        assert mask_batch(make_batch([_seq(1)]), "enhanced", 0.15, 0.5, rng).enc_masked.sum() == 1
        mb = mask_batch(make_batch([_seq(1)]), "basic", 0.15, 0.15, rng)
        assert mb.enc_masked[0].sum() == 1 and mb.dec_targets[0].sum() == 1

    def test_mask_token_written_in_place(self):
        rng = np.random.default_rng(2)
        batch = make_batch([_seq(10)])
        original = batch.ids.copy()
        mb = mask_batch(batch, "basic", 0.3, 0.5, rng)
        np.testing.assert_array_equal(batch.ids, original)  # original untouched
        for ids, masked in ((mb.enc_ids, mb.enc_masked), (mb.dec_ids, mb.dec_targets)):
            assert (ids[masked] == MASK_ID).all()
            assert (original[masked] != MASK_ID).all()
            np.testing.assert_array_equal(ids[~masked], original[~masked])

    def test_structure_never_masked(self):
        rng = np.random.default_rng(3)
        # the second row is padded, so [PAD] positions are exercised too
        batch = make_batch([_seq(4), _seq(2)])
        structure = np.isin(batch.ids, [CLS_ID, SEP_ID, PAD_ID])
        assert (batch.ids == PAD_ID).any()
        for _ in range(50):
            mb = mask_batch(batch, "basic", 0.9, 0.9, rng)
            assert not (mb.enc_masked & structure).any()
            assert not (mb.dec_targets & structure).any()
            np.testing.assert_array_equal(mb.dec_ids[structure], batch.ids[structure])
            np.testing.assert_array_equal(mb.enc_ids[structure], batch.ids[structure])

    def test_ratio_bounds(self):
        rng = np.random.default_rng(4)
        batch = make_batch([_seq(5)])
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                mask_batch(batch, "enhanced", ratio, 0.5, rng)
            with pytest.raises(ValueError):
                mask_batch(batch, "enhanced", 0.15, ratio, rng)
            with pytest.raises(ValueError):
                mask_batch(batch, "basic", ratio, 0.5, rng)
            with pytest.raises(ValueError):
                mask_batch(batch, "basic", 0.15, ratio, rng)

    def test_no_content_rejected(self):
        rng = np.random.default_rng(5)
        bare = TokenSequence(np.array([CLS_ID, SEP_ID]))
        with pytest.raises(ValueError, match="no maskable positions"):
            mask_batch(make_batch([bare]), "enhanced", 0.15, 0.5, rng)
        with pytest.raises(ValueError, match="no maskable positions"):
            mask_batch(make_batch([bare]), "basic", 0.15, 0.5, rng)

    def test_inclusion_rate_matches_ratio(self):
        # 10 content tokens at ratio 0.3 puts each position in the mask
        # with probability exactly 0.3; check the empirical rate over one
        # batch of independent copies
        rng = np.random.default_rng(6)
        seq = _seq(10)
        trials = 10000
        hits = mask_batch(make_batch([seq] * trials), "basic", 0.3, 0.5, rng).enc_masked.sum(axis=0)
        rates = hits[1:11] / trials
        assert np.all(np.abs(rates - 0.3) < 0.02)

    def test_encoder_and_decoder_masks_independent(self):
        rng = np.random.default_rng(0)
        batch = make_batch([_seq(10)])
        table = np.zeros((2, 2), dtype=int)
        for _ in range(4000):
            mb = mask_batch(batch, "basic", 0.3, 0.5, rng)
            table[int(mb.enc_masked[0, 3]), int(mb.dec_targets[0, 3])] += 1
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.01


class TestMaskMatrix:
    def test_small_case_enumerated(self):
        # L=4, no pads, ratio 0.5: maskable = 3, visible = round(1.5) = 2.
        # Every row i >= 1 has exactly two non-self candidates, so its
        # visible set is forced; only row 0 actually samples.
        m = _matrix(4, 0.5, [], np.random.default_rng(0))
        for i in (1, 2, 3):
            assert m[i, i] == False
            others = [j for j in (1, 2, 3) if j != i]
            assert all(m[i, j] == True for j in others)
        assert (m[:, 0] == True).all()
        assert np.count_nonzero(m[0] == True) == 3  # column 0 plus two sampled

    def test_pad_rows_and_columns(self):
        m = _matrix(6, 0.5, [3, 4], np.random.default_rng(1))
        for pad in (3, 4):
            np.testing.assert_array_equal(m[pad], [True] + [False] * 5)
            assert (m[1:, pad] == False).all()

    def test_lone_content_row_keeps_only_the_embedding(self):
        m = _matrix(2, 0.5, [], np.random.default_rng(2))
        np.testing.assert_array_equal(m[1], [True, False])

    def test_randomized_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            L = int(rng.integers(2, 20))
            ratio = float(rng.uniform(0.05, 0.95))
            n_pads = int(rng.integers(0, L - 1))
            pads = set(int(p) for p in rng.choice(np.arange(1, L), size=n_pads, replace=False))
            seed = int(rng.integers(0, 2**31))
            m = _matrix(L, ratio, pads, np.random.default_rng(seed))

            again = _matrix(L, ratio, pads, np.random.default_rng(seed))
            np.testing.assert_array_equal(m, again)

            assert set(np.unique(m)) <= {True, False}
            assert (m[:, 0] == True).all()
            content = [i for i in range(1, L) if i not in pads]
            maskable = len(content)
            expected = round_half_up((1.0 - ratio) * maskable)
            for i in range(1, L):
                assert m[i, i] == False
                visible = np.flatnonzero(m[i] == True)
                if i in pads:
                    np.testing.assert_array_equal(visible, [0])
                    continue
                others = maskable - 1
                if others == 0:
                    assert visible.size == 1
                else:
                    assert visible.size == 1 + min(max(1, expected), others)
                if 1 <= expected <= others:
                    assert visible.size == 1 + expected
            for pad in pads:
                assert (m[1:, pad] == False).all()
            row0 = np.flatnonzero(m[0] == True)
            assert row0.size == 1 + min(max(1, expected), maskable)

    def test_degenerate_shapes_rejected(self):
        rng = np.random.default_rng(5)
        # a content id at position 0 keeps the encoder's token request legal,
        # so the visibility request's own checks are the ones that fire
        with pytest.raises(ValueError, match="at least two positions"):
            _matrix(1, 0.5, [], rng, first=5)
        with pytest.raises(ValueError, match="cannot be pad"):
            _matrix(4, 0.5, [0], rng)
        with pytest.raises(ValueError, match="every position beyond 0 is pad"):
            _matrix(4, 0.5, [1, 2, 3], rng, first=5)

    def test_inclusion_rate_matches_ratio(self):
        # L=8, all real, ratio 0.5: 7 candidates, round(3.5) = 4 visible.
        # Rows 1..7 pick 4 of their 6 other columns, row 0 picks 4 of 7.
        trials = 10000
        batch = make_batch([_seq(6)] * trials)  # [CLS], six content ids, [SEP]
        rates = mask_batch(batch, "enhanced", 0.15, 0.5, np.random.default_rng(8)).dec_visible.mean(axis=0)
        np.testing.assert_array_equal(rates[:, 0], 1.0)
        assert np.all(np.abs(rates[0, 1:] - 4 / 7) < 0.02)
        for i in range(1, 8):
            assert rates[i, i] == 0.0
            others = [j for j in range(1, 8) if j != i]
            assert np.all(np.abs(rates[i, others] - 4 / 6) < 0.02)


class TestMaskBatch:
    def test_basic_mode_fields(self):
        rng = np.random.default_rng(10)
        batch = make_batch([_seq(8), _seq(5)])
        mb = mask_batch(batch, "basic", 0.15, 0.5, rng)
        assert mb.mode == "basic"
        np.testing.assert_array_equal(mb.dec_visible, batch.real[:, None, :])  # pads blocked, nothing sampled
        assert mb.dec_ids is not None and mb.dec_targets is not None
        np.testing.assert_array_equal(mb.ids, batch.ids)  # originals preserved
        assert (mb.dec_ids[mb.dec_targets] == MASK_ID).all()
        assert (mb.enc_ids[mb.enc_masked] == MASK_ID).all()
        assert mb.dec_targets[0].sum() == 4  # round(0.5 * 8)
        assert mb.enc_masked[1].sum() == 1  # max(1, round(0.15 * 5))

    def test_enhanced_mode_fields(self):
        rng = np.random.default_rng(11)
        batch = make_batch([_seq(8), _seq(5)])
        mb = mask_batch(batch, "enhanced", 0.15, 0.5, rng)
        assert mb.mode == "enhanced"
        np.testing.assert_array_equal(mb.dec_ids, batch.ids)  # clean ids, no decoder-side [M]
        np.testing.assert_array_equal(mb.dec_targets, batch.real & (np.arange(10) > 0))
        assert mb.dec_visible.shape == (2, 10, 10)
        # row 1 of the batch has pads past position 6
        assert (mb.dec_visible[1][1:, 7:] == False).all()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mask_batch(make_batch([_seq(4)]), "mlm", 0.15, 0.5, np.random.default_rng(0))

    def test_fixed_seed_fixes_the_batch(self):
        batch = make_batch([_seq(8), _seq(5)])
        for mode in ("basic", "enhanced"):
            a = mask_batch(batch, mode, 0.15, 0.5, np.random.default_rng(12))
            b = mask_batch(batch, mode, 0.15, 0.5, np.random.default_rng(12))
            np.testing.assert_array_equal(a.enc_ids, b.enc_ids)
            if mode == "basic":
                np.testing.assert_array_equal(a.dec_ids, b.dec_ids)
            else:
                np.testing.assert_array_equal(a.dec_visible, b.dec_visible)

    def test_rows_consume_the_generator_in_order(self):
        batch = make_batch([_seq(8), _seq(8)])
        for mode in ("basic", "enhanced"):
            full = mask_batch(batch, mode, 0.15, 0.5, np.random.default_rng(13))
            solo = mask_batch(make_batch([_seq(8)]), mode, 0.15, 0.5, np.random.default_rng(13))
            np.testing.assert_array_equal(full.enc_ids[0], solo.enc_ids[0])
            if mode == "basic":
                np.testing.assert_array_equal(full.dec_ids[0], solo.dec_ids[0])
            else:
                np.testing.assert_array_equal(full.dec_visible[0], solo.dec_visible[0])


# (content lengths per batch, decoder ratio). The even corpus divides
# exactly at 0.15 and 0.5; 1..41 tokens exercise round-half-up's slack.
_EVEN = ([20, 20], [40])
_UNEVEN = (list(range(1, 21)), list(range(21, 42)))
_INPUTS = [(_EVEN, 0.5), (_UNEVEN, 0.5), (_UNEVEN, 0.7)]


def _report(mode, lengths, ratio, seed=0):
    batches = [make_batch([_seq(n) for n in row]) for row in lengths]
    return signal_coverage_stats(mode, batches, ratio, np.random.default_rng(seed))


def _per_sentence_counts(lengths, ratio):
    """The sum of every sentence's max(1, round_half_up(ratio * n))."""
    return sum(max(1, int(round_half_up(ratio * n))) for row in lengths for n in row)


class TestSignalCoverage:
    def test_enhanced_covers_everything(self):
        report = _report("enhanced", _EVEN, 0.5)
        assert report.coverage == 1.0
        assert report.content_tokens == 80
        assert report.contexts_per_sentence == pytest.approx(80 / 3)
        for lengths, ratio in _INPUTS:
            report = _report("enhanced", lengths, ratio)
            content = sum(map(sum, lengths))
            assert report.coverage == 1.0
            assert report.content_tokens == content
            assert report.contexts_per_sentence == pytest.approx(content / sum(map(len, lengths)))

    def test_basic_covers_the_decoder_ratio(self):
        # content lengths divide evenly at ratio 0.5, so no rounding slack
        report = _report("basic", _EVEN, 0.5)
        assert report.coverage == 0.5
        assert report.contexts_total == 3
        for lengths, ratio in _INPUTS:
            report = _report("basic", lengths, ratio)
            assert report.covered_tokens == _per_sentence_counts(lengths, ratio)
            assert report.contexts_total == sum(map(len, lengths))

    def test_mlm_covers_fifteen_percent(self):
        assert _report("mlm15", _EVEN, 0.5).coverage == 0.15
        for lengths, ratio in _INPUTS:
            assert _report("mlm15", lengths, ratio).covered_tokens == _per_sentence_counts(lengths, 0.15)

    def test_report_does_not_depend_on_the_seed(self):
        for lengths, ratio in _INPUTS:
            for mode in ("mlm15", "basic", "enhanced"):
                assert _report(mode, lengths, ratio, seed=0) == _report(mode, lengths, ratio, seed=1)

    def test_report_lines_format(self):
        lines = _report("enhanced", _EVEN, 0.5).lines()
        assert "enhanced.coverage = 1.000000" in lines
        assert "enhanced.content_tokens = 80" in lines

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            _report("mlm", _EVEN, 0.5)

    def test_counts_match_the_per_row_definition(self):
        batch = make_batch([_seq(7), _seq(3), _seq(1)])
        structure = (CLS_ID, SEP_ID, PAD_ID)
        per_row = sum(int(np.count_nonzero(~np.isin(batch.ids[r], structure))) for r in range(batch.size))
        assert coverage_counts(batch.ids, batch.real) == (11, 11)
        mb = mask_batch(batch, "basic", 0.15, 0.5, np.random.default_rng(6))
        assert coverage_counts(batch.ids, mb.dec_targets) == (per_row, 4 + 2 + 1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            signal_coverage_stats("basic", [], 0.5, np.random.default_rng(0))

"""Dual asymmetric masking and the position-specific attention mask.

The same sentence is polluted twice: a moderate mask for the encoder input
and, depending on the decoding mode, either an aggressive token mask
(basic) or a per-row visibility matrix (enhanced) for the reconstruction
side. [CLS], [SEP] and [PAD] are never maskable. Mask counts use
round-half-up with a floor of one so every sentence always contributes at
least one reconstruction target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .text import Batch, CLS_ID, MASK_ID, PAD_ID, SEP_ID


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _is_content(ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(ids)
    return (ids != CLS_ID) & (ids != SEP_ID) & (ids != PAD_ID)


def maskable_positions(ids: np.ndarray) -> np.ndarray:
    """Indices eligible for masking: real content tokens only."""
    return np.flatnonzero(_is_content(ids))


def coverage_counts(ids: np.ndarray, targets: np.ndarray | None) -> tuple[int, int]:
    """(content tokens, content tokens the loss covers) over a batch.

    ``targets`` marks the reconstructed positions; None means the loss
    covers every content token, as enhanced decoding does.
    """
    content = int(np.count_nonzero(_is_content(ids)))
    covered = content if targets is None else int(np.count_nonzero(targets))
    return content, covered


def _check_ratio(ratio: float) -> None:
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"mask ratio must lie strictly inside (0, 1), got {ratio}")


def _sample_mask(ids: np.ndarray, ratio: float, rng: np.random.Generator) -> np.ndarray:
    _check_ratio(ratio)
    cand = maskable_positions(ids)
    if cand.size == 0:
        raise ValueError("sequence has no maskable positions")
    count = max(1, round_half_up(ratio * cand.size))
    picked = rng.choice(cand, size=min(count, cand.size), replace=False)
    return np.sort(picked)


@dataclass(frozen=True)
class AttentionMaskMatrix:
    """An (L, L) additive mask over {0, -inf} for enhanced decoding.

    Row i lists what position i may attend to. Position 0 (the sentence
    embedding slot) is visible to every row; the diagonal is blocked for
    every row but 0 so no token can condition on itself; pad columns are
    blocked everywhere.
    """

    matrix: np.ndarray


def build_attention_mask(
    length: int,
    ratio: float,
    pad_positions: Iterable[int],
    rng: np.random.Generator,
) -> AttentionMaskMatrix:
    """Sample the per-row visibility matrix.

    Each non-pad row i >= 1 sees column 0 plus round((1 - ratio) * maskable)
    sampled non-pad columns other than itself, where maskable counts the
    non-pad positions in 1..L-1. Row 0 sees column 0 plus a sample of the
    same size. The visible count is clamped to at least 1 and at most the
    candidate-set size. Pad rows see only column 0.
    """
    _check_ratio(ratio)
    if length < 2:
        raise ValueError("mask matrix needs at least two positions")
    pads = set(int(p) for p in pad_positions)
    if 0 in pads:
        raise ValueError("position 0 holds the sentence embedding, it cannot be pad")
    candidates = np.array([j for j in range(1, length) if j not in pads], dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("every position beyond 0 is pad")
    n_visible = max(1, round_half_up((1.0 - ratio) * candidates.size))

    m = np.full((length, length), -np.inf, dtype=np.float64)
    m[:, 0] = 0.0
    pick0 = rng.choice(candidates, size=min(n_visible, candidates.size), replace=False)
    m[0, pick0] = 0.0
    for i in range(1, length):
        if i in pads:
            continue
        others = candidates[candidates != i]
        if others.size == 0:
            continue  # L == 2: the lone content row keeps only column 0
        take = min(n_visible, others.size)
        picked = rng.choice(others, size=take, replace=False)
        m[i, picked] = 0.0
    return AttentionMaskMatrix(matrix=m)


@dataclass(frozen=True)
class MaskedBatch:
    """Everything a training step needs about one polluted batch.

    ``enc_ids`` always carries the encoder-side [M] pollution. In basic
    mode ``dec_ids``/``dec_masked`` describe the reconstruction input and
    its targets; in enhanced mode ``attention_masks`` holds one visibility
    matrix per sentence instead.
    """

    ids: np.ndarray
    real: np.ndarray
    enc_ids: np.ndarray
    enc_masked: np.ndarray
    dec_ids: np.ndarray | None = None
    dec_masked: np.ndarray | None = None
    attention_masks: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    @property
    def length(self) -> int:
        return self.ids.shape[1]


def mask_batch(
    batch: Batch,
    mode: str,
    ratio_encoder: float,
    ratio_decoder: float,
    rng: np.random.Generator,
) -> MaskedBatch:
    """Draw all per-sentence masks for one step.

    Draws consume ``rng`` sequentially row by row, so a fixed generator
    state fixes the whole batch bit for bit.
    """
    if mode not in ("basic", "enhanced"):
        raise ValueError(f"unknown decoding mode: {mode!r}")
    B, L = batch.ids.shape
    enc_ids = batch.ids.copy()
    enc_masked = np.zeros((B, L), dtype=bool)
    dec_ids = batch.ids.copy() if mode == "basic" else None
    dec_masked = np.zeros((B, L), dtype=bool) if mode == "basic" else None
    attn = np.empty((B, L, L), dtype=np.float64) if mode == "enhanced" else None

    for row in range(B):
        seq_ids = batch.ids[row]
        enc_pos = _sample_mask(seq_ids, ratio_encoder, rng)
        enc_ids[row, enc_pos] = MASK_ID
        enc_masked[row, enc_pos] = True
        if mode == "basic":
            dec_pos = _sample_mask(seq_ids, ratio_decoder, rng)
            dec_ids[row, dec_pos] = MASK_ID
            dec_masked[row, dec_pos] = True
        else:
            pads = np.flatnonzero(~batch.real[row])
            attn[row] = build_attention_mask(L, ratio_decoder, pads, rng).matrix
    return MaskedBatch(
        ids=batch.ids,
        real=batch.real,
        enc_ids=enc_ids,
        enc_masked=enc_masked,
        dec_ids=dec_ids,
        dec_masked=dec_masked,
        attention_masks=attn,
    )


@dataclass(frozen=True)
class CoverageReport:
    """How much of the corpus a mode's loss actually touches."""

    mode: str
    content_tokens: int
    covered_tokens: int
    contexts_total: int
    sentences: int

    @property
    def coverage(self) -> float:
        return self.covered_tokens / self.content_tokens

    @property
    def contexts_per_sentence(self) -> float:
        return self.contexts_total / self.sentences

    def lines(self) -> list[str]:
        return [
            f"{self.mode}.content_tokens = {self.content_tokens}",
            f"{self.mode}.covered_tokens = {self.covered_tokens}",
            f"{self.mode}.coverage = {self.coverage:.6f}",
            f"{self.mode}.contexts_per_sentence = {self.contexts_per_sentence:.6f}",
        ]


def signal_coverage_stats(
    mode: str,
    batches: Iterable[Batch],
    ratio_decoder: float,
    rng: np.random.Generator,
) -> CoverageReport:
    """Measure loss coverage over content tokens for one mode.

    ``mlm15`` draws a plain 15% token mask and reconstructs only those
    positions from a single shared context. ``basic`` covers the decoder
    mask. ``enhanced`` covers every content token, each from its own
    sampled context.
    """
    if mode not in ("mlm15", "basic", "enhanced"):
        raise ValueError(f"unknown coverage mode: {mode!r}")
    content = 0
    covered = 0
    contexts = 0
    sentences = 0
    for batch in batches:
        targets = None
        if mode != "enhanced":
            ratio = 0.15 if mode == "mlm15" else ratio_decoder
            targets = np.zeros(batch.ids.shape, dtype=bool)
            for row in range(batch.size):
                targets[row, _sample_mask(batch.ids[row], ratio, rng)] = True
        batch_content, batch_covered = coverage_counts(batch.ids, targets)
        content += batch_content
        covered += batch_covered
        # enhanced: one context per content token; otherwise one per sentence
        contexts += batch_content if targets is None else batch.size
        sentences += batch.size
    if sentences == 0:
        raise ValueError("coverage stats need at least one sentence")
    return CoverageReport(
        mode=mode,
        content_tokens=content,
        covered_tokens=covered,
        contexts_total=contexts,
        sentences=sentences,
    )

"""Dual asymmetric masking and the position-specific visibility mask.

The same sentence is polluted twice: a moderate mask for the encoder input
and, depending on the decoding mode, either an aggressive token mask
(basic) or a per-row visibility matrix (enhanced) for the reconstruction
side. [CLS], [SEP] and [PAD] are never maskable. Mask counts use
round-half-up with a floor of one so every sentence always contributes at
least one reconstruction target.

Every mask comes from one key-draw rule: given a bool candidate array
``(..., L)`` and a count per row, draw one uniform key per entry in a
single ``rng.random`` call (C order, so row by row) and keep, in each row,
the ``count`` candidates with the smallest keys. That is a uniformly
random subset of exactly ``count`` candidates per row, clamped to the
candidates the row has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .text import Batch, CLS_ID, MASK_ID, PAD_ID, SEP_ID


def round_half_up(x) -> np.ndarray:
    """Round halves up, elementwise: the one rounding rule of mask counts."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5).astype(np.int64)


def _is_content(ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(ids)
    return (ids != CLS_ID) & (ids != SEP_ID) & (ids != PAD_ID)


def coverage_counts(ids: np.ndarray, targets: np.ndarray) -> tuple[int, int]:
    """(content tokens, content tokens among ``targets``) over a batch.

    ``targets`` is a (B, L) bool array of the positions a loss reads, such
    as ``MaskedBatch.dec_targets``. Only content tokens count, so the
    [SEP] that enhanced decoding also reconstructs adds nothing.
    """
    content = _is_content(ids)
    return int(np.count_nonzero(content)), int(np.count_nonzero(content & targets))


def _check_ratio(ratio: float) -> None:
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"mask ratio must lie strictly inside (0, 1), got {ratio}")


def _draw(candidates: np.ndarray, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Keep the ``counts`` smallest-keyed candidates of each row of ``candidates``."""
    keys = np.where(candidates, rng.random(candidates.shape), np.inf)
    order = np.argsort(keys, axis=-1, kind="stable")
    counts = np.minimum(counts, np.count_nonzero(candidates, axis=-1))
    picked = np.empty(candidates.shape, dtype=bool)
    np.put_along_axis(picked, order, np.arange(candidates.shape[-1]) < counts[..., None], axis=-1)
    return picked


def _token_request(ids: np.ndarray, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidates and counts of a token mask over ``(B, L)`` ids."""
    _check_ratio(ratio)
    content = _is_content(ids)
    n = np.count_nonzero(content, axis=-1)
    if not n.all():
        raise ValueError("sequence has no maskable positions")
    return content, np.maximum(1, round_half_up(ratio * n))


def _visibility_request(real: np.ndarray, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidates ``(B, L, L)`` and counts ``(B, L)`` of the visibility rows."""
    _check_ratio(ratio)
    B, L = real.shape
    if L < 2:
        raise ValueError("mask matrix needs at least two positions")
    if not real[:, 0].all():
        raise ValueError("position 0 holds the sentence embedding, it cannot be pad")
    columns = real.copy()
    columns[:, 0] = False
    n = np.count_nonzero(columns, axis=-1)
    if not n.all():
        raise ValueError("every position beyond 0 is pad")
    candidates = real[:, :, None] & columns[:, None, :] & ~np.eye(L, dtype=bool)
    counts = np.maximum(1, round_half_up((1.0 - ratio) * n))
    return candidates, np.broadcast_to(counts[:, None], (B, L))


def build_attention_mask(real: np.ndarray, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Sample the ``(B, L, L)`` bool visibility matrices for enhanced decoding.

    ``real`` is the batch's ``(B, L)`` non-pad mask. Row i of a matrix lists
    what position i may attend to (True = visible). Column 0, the sentence
    embedding slot, is visible to every row. Each non-pad row i >= 1 also
    sees round((1 - ratio) * maskable) sampled non-pad columns other than
    itself, where maskable counts the non-pad positions in 1..L-1, so no
    token can condition on itself. Row 0 sees column 0 plus a sample of
    the same size. The visible count is clamped to at least 1 and at most
    the candidate-set size. Pad columns are blocked everywhere and pad rows
    see only column 0.

    The sampled columns come from the module's key-draw rule, one key per
    (sentence, row, column) in a single draw.
    """
    visible = _draw(*_visibility_request(real, ratio), rng)
    visible[..., 0] = True
    return visible


@dataclass(frozen=True)
class MaskedBatch:
    """Everything a training step needs about one polluted batch.

    ``enc_ids`` carries the encoder-side [M] pollution, marked by
    ``enc_masked``. The ``dec_*`` fields are filled in both modes:

    - ``dec_ids``, what the decoder reads: the [M]-polluted ids (basic) or
      the clean ids (enhanced);
    - ``dec_targets``, the (B, L) bool positions its loss reconstructs: the
      [M] positions (basic) or every real position after 0 (enhanced);
    - ``dec_visible``, the bool attention mask, True where a row may read:
      the (B, 1, L) pad row shared by every position (basic) or one sampled
      (L, L) visibility matrix per sentence (enhanced).
    """

    mode: str
    ids: np.ndarray
    real: np.ndarray
    enc_ids: np.ndarray
    enc_masked: np.ndarray
    dec_ids: np.ndarray
    dec_targets: np.ndarray
    dec_visible: np.ndarray


def mask_batch(
    batch: Batch,
    mode: str,
    ratio_encoder: float,
    ratio_decoder: float,
    rng: np.random.Generator,
) -> MaskedBatch:
    """Draw all per-sentence masks for one step and fill every decoder field.

    Each sentence contributes its encoder token mask followed by its
    decoder request (one token mask in basic mode, L visibility rows in
    enhanced mode), and the whole batch is one draw of the module's
    key-draw rule. Keys are laid out sentence by sentence, so a fixed
    generator state fixes the batch bit for bit, and a sentence's masks
    depend only on the keys drawn before the next sentence's. This is the
    one place that decides, per mode, what the decoder reads and which
    positions its loss covers (see ``MaskedBatch``).
    """
    if mode not in ("basic", "enhanced"):
        raise ValueError(f"unknown decoding mode: {mode!r}")
    enc_candidates, enc_counts = _token_request(batch.ids, ratio_encoder)
    if mode == "basic":
        dec_candidates, dec_counts = _token_request(batch.ids, ratio_decoder)
        dec_candidates, dec_counts = dec_candidates[:, None], dec_counts[:, None]
    else:
        dec_candidates, dec_counts = _visibility_request(batch.real, ratio_decoder)
    picked = _draw(
        np.concatenate([enc_candidates[:, None], dec_candidates], axis=1),
        np.concatenate([enc_counts[:, None], dec_counts], axis=1),
        rng,
    )
    enc_masked = picked[:, 0]
    enc_ids = np.where(enc_masked, MASK_ID, batch.ids)
    if mode == "basic":
        dec_targets = picked[:, 1]
        dec_ids = np.where(dec_targets, MASK_ID, batch.ids)
        dec_visible = batch.real[:, None, :]
    else:
        dec_targets = batch.real.copy()
        dec_targets[:, 0] = False
        dec_ids = batch.ids
        dec_visible = picked[:, 1:]
        dec_visible[..., 0] = True
    return MaskedBatch(
        mode=mode,
        ids=batch.ids,
        real=batch.real,
        enc_ids=enc_ids,
        enc_masked=enc_masked,
        dec_ids=dec_ids,
        dec_targets=dec_targets,
        dec_visible=dec_visible,
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


def signal_coverage_stats(mode: str, batches: Iterable[Batch], ratio_decoder: float) -> CoverageReport:
    """Measure loss coverage over content tokens for one mode.

    ``mlm15`` masks a plain 15% of each sentence's content tokens and
    reconstructs only those positions from a single shared context.
    ``basic`` covers the decoder mask. ``enhanced`` covers every content
    token, each from its own sampled context. A drawn token mask holds
    exactly its request's count, which never exceeds the sentence's
    content tokens, so the figures follow from the counts and no mask is
    drawn here.
    """
    if mode not in ("mlm15", "basic", "enhanced"):
        raise ValueError(f"unknown coverage mode: {mode!r}")
    content = 0
    covered = 0
    contexts = 0
    sentences = 0
    for batch in batches:
        batch_content = int(np.count_nonzero(_is_content(batch.ids)))
        content += batch_content
        sentences += batch.size
        if mode == "enhanced":
            # one context per content token
            covered += batch_content
            contexts += batch_content
        else:
            # one context per sentence
            ratio = 0.15 if mode == "mlm15" else ratio_decoder
            covered += int(_token_request(batch.ids, ratio)[1].sum())
            contexts += batch.size
    if sentences == 0:
        raise ValueError("coverage stats need at least one sentence")
    return CoverageReport(
        mode=mode,
        content_tokens=content,
        covered_tokens=covered,
        contexts_total=contexts,
        sentences=sentences,
    )

"""Embedding store, exact top-k search, and ranking metrics.

Search is exhaustive and exact; scores are computed in double precision
and ties are broken by ascending document id, so a ranking is a pure
function of the store. ``search_run`` is the one search, with one scoring
path and one sort. A float32 matrix product over a block of queries is
only a filter: with an error bound that holds in any summation order, it
keeps for each query every row whose exact score can reach the k-th best.
Those rows alone (every row, when the filter cannot decide) are converted
to float64 and scored by a matrix-vector product laid out so that each
score equals, bit for bit, the one a product over the whole float64 store
gives; a blocked matrix-matrix product could round differently in the last
bits and so reorder near-ties, which is why it never scores. A partition
then finds the k-th best score and only the rows that reach it are sorted
on (score descending, id ascending), the key of the tests' full sort.

Embedding pads each sentence to a width that depends only on its own
length, so a vector never depends on the rest of its batch. Metrics follow
their textbook definitions; the test suite holds an independently coded
oracle for each one. Embedding, run and label files hold one tab-separated
record per non-empty line, read by ``text.read_lines``; a record that
cannot be used is a ``RunFormatError`` naming ``path:line``.
"""

from __future__ import annotations

import logging
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .encoder import encode
from .model import EncoderConfig, ModelParams
from .text import Vocabulary, encode_tokens, make_batch, read_lines, tokenize

logger = logging.getLogger(__name__)

EMBED_BATCH_SIZE = 32  # sentences per encoder call within one width bucket
QUERY_BLOCK = 32  # queries per float32 filter product in search_run
NORM_CHUNK = 4096  # store rows converted to float64 at a time for their norms
_U = 2.0**-24  # float32 unit roundoff
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_COSINE_MARGIN = 2.0**-48  # float64 rounding of a cosine and of its filter value, with room
# a tab or line break splits an embedding-file record; UTF-8 cannot encode a lone surrogate
_UNWRITABLE_ID = re.compile("[\t\n\r\ud800-\udfff]")


class RunFormatError(ValueError):
    """An embedding, run or label file that cannot be used."""


def _records(path: str | Path, layout: str) -> Iterator[tuple[str, list[str]]]:
    """``path:line`` and the tab-separated fields of each non-empty line of
    a text file; a line with another field count than ``layout`` names is
    refused."""
    names = layout.split()
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(names):
            raise RunFormatError(f"{path}:{lineno}: expected '{'<TAB>'.join(names)}'")
        yield f"{path}:{lineno}", fields


def _check_grade(grade: int, where: str) -> None:
    """A relevance grade is non-negative and small enough that its gain
    2^grade - 1 is a finite float64."""
    if grade < 0:
        raise RunFormatError(f"{where}: relevance cannot be negative")
    if grade >= sys.float_info.max_exp:
        raise RunFormatError(f"{where}: relevance {grade} is too large, its gain 2^{grade} - 1 overflows")


@dataclass
class EmbeddingStore:
    """Document ids alongside their (n, d) vectors."""

    ids: list[str]
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2 or len(self.ids) != self.matrix.shape[0]:
            raise ValueError("store needs one id per matrix row")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate document id in store")
        finite = np.isfinite(self.matrix).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite vector for id {self.ids[int(np.argmin(finite))]!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def embed_corpus(
    sentences: Sequence[str],
    params: ModelParams,
    enc_config: EncoderConfig,
    vocab: Vocabulary,
    ids: Sequence[str] | None = None,
) -> EmbeddingStore:
    """Encode clean sentences (no masking at inference). Only the sentence
    vectors are read, so the encoder's last block runs at position 0 alone.

    Each sentence is padded to its bucket width: the smallest power of two
    that holds its tokens, at least 16 and at most the model's max_len.
    Sentences are batched within a bucket, ``EMBED_BATCH_SIZE`` at a time,
    and their vectors are put back in input order. The width depends only
    on the sentence, so a vector never depends on what else shared its
    batch. Pad columns are blocked in attention, so a vector also matches
    the one the sentence gets at width max_len; at the desk shape the tests
    check that the two are equal bit for bit. At some other shapes the BLAS
    can pick a different kernel for the narrower products, and the two may
    differ in the last bit.
    """
    if ids is None:
        ids = [str(i) for i in range(len(sentences))]
    if len(ids) != len(sentences):
        raise ValueError("need exactly one id per sentence")
    seqs = [encode_tokens(tokenize(s), vocab, enc_config.max_len) for s in sentences]
    widths = np.array([_bucket_width(len(s), enc_config.max_len) for s in seqs], dtype=np.int64)
    matrix = np.empty((len(seqs), enc_config.hidden_dim), dtype=np.float32)
    with ad.no_grad():
        for width in np.unique(widths):
            rows = np.flatnonzero(widths == width)
            for start in range(0, len(rows), EMBED_BATCH_SIZE):
                chunk = rows[start : start + EMBED_BATCH_SIZE]
                batch = make_batch([seqs[i] for i in chunk], pad_to=int(width))
                sentence_vecs, _ = encode(params, enc_config, batch.ids, batch.real)
                matrix[chunk] = sentence_vecs.data
    return EmbeddingStore(ids=list(ids), matrix=matrix)


def _bucket_width(length: int, max_len: int) -> int:
    """Smallest power of two >= length, at least 16 and at most max_len.

    The floor puts the shortest sentences into one bucket, so they fill
    whole batches.
    """
    return min(max(16, 1 << (length - 1).bit_length()), max_len)


def save_embeddings(path: str | Path, store: EmbeddingStore) -> None:
    """One line per vector: id, tab, space-separated components.

    Components are written with enough digits that reading them back
    reproduces the float32 values bit for bit. An id that ``load_embeddings``
    would read back otherwise, or cannot write at all, is refused before
    the file is opened: one holding a tab, a line break or a lone surrogate
    (which UTF-8 cannot encode), or a first id starting with a byte-order
    mark, which the reader drops.
    """
    for i, doc_id in enumerate(store.ids):
        if _UNWRITABLE_ID.search(doc_id) or (i == 0 and doc_id.startswith("\ufeff")):
            raise ValueError(f"id {doc_id!r} cannot be read back from an embedding file")
    with open(path, "w", encoding="utf-8") as f:
        for doc_id, row in zip(store.ids, store.matrix):
            f.write(doc_id + "\t" + " ".join(map("{:.8e}".format, row.tolist())) + "\n")


def load_embeddings(path: str | Path) -> EmbeddingStore:
    vectors: dict[str, np.ndarray] = {}
    for where, (doc_id, rest) in _records(path, "id components"):
        try:
            # a component beyond float32's range becomes inf, refused below
            with np.errstate(over="ignore"):
                row = np.array(rest.split(), dtype=np.float32)
        except ValueError:
            raise RunFormatError(f"{where}: bad vector component") from None
        if not row.size:
            raise RunFormatError(f"{where}: vector has no components")
        width = len(next(iter(vectors.values()), row))  # the first vector's
        if len(row) != width:
            raise RunFormatError(f"{where}: expected {width} components, got {len(row)}")
        if not np.isfinite(row).all():
            raise RunFormatError(f"{where}: non-finite vector component")
        if doc_id in vectors:
            raise RunFormatError(f"{where}: duplicate document id {doc_id!r}")
        vectors[doc_id] = row
    if not vectors:
        raise RunFormatError(f"{path}: no vectors found")
    return EmbeddingStore(ids=list(vectors), matrix=np.stack(list(vectors.values())))


@dataclass
class RankingRun:
    """Ranked candidates per query plus relevance labels."""

    candidates: dict[str, list[tuple[str, float]]]
    labels: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self):
        for q, ranked in self.candidates.items():
            seen = set()
            prev = None
            for doc, score in ranked:
                if doc in seen:
                    raise RunFormatError(f"query {q!r}: duplicate candidate {doc!r}")
                seen.add(doc)
                if prev is not None and score > prev:
                    raise RunFormatError(f"query {q!r}: scores increase along the ranking")
                prev = score
        for q, judged in self.labels.items():
            for doc, grade in judged.items():
                _check_grade(grade, f"query {q!r}, document {doc!r}")


def search_run(
    queries: EmbeddingStore, docs: EmbeddingStore, k: int, metric: str = "dot",
    labels: dict[str, dict[str, int]] | None = None,
) -> RankingRun:
    """The k best documents for every query, highest score first, ties by
    ascending id.

    Scores are float64: ``dot`` is ``docs @ q`` with the store converted to
    float64, and ``cosine`` divides that by the query's norm and then by
    each row's norm; a zero query or a zero row scores 0. The cosine row
    norms are taken once for the whole run.

    For each block of ``QUERY_BLOCK`` queries one float32 matrix product
    filters the store (see ``_Filter``): per query it keeps every row whose
    exact score can reach the k-th best. ``_rescore`` gives those rows the
    float64 scores the full matrix-vector product would give, bit for bit;
    it scores every row when ``k`` is at least the store's size or when the
    query's filter values or bound are not finite (vectors so large that
    float32 overflows). A zero query under ``cosine`` scores every row 0
    without a product. A partition then finds the k-th best score, and only
    rows scoring at least that much are sorted, on (score descending, id
    ascending) as Python orders the pairs. Every row tied with the k-th
    score survives the filter, so a tie at the cut is broken by id, as a
    full sort would.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if queries.dim != docs.dim:
        raise ValueError(f"query dim {queries.dim} does not match document dim {docs.dim}")
    if metric not in ("dot", "cosine"):
        raise ValueError(f"unknown similarity metric {metric!r}")
    n = len(docs.ids)
    every_row = np.arange(n)
    if metric == "cosine":
        norms = _row_norms(docs.matrix)
        zero_rows = norms == 0.0
        divisors = np.where(zero_rows, 1.0, norms)
    filt = _Filter(docs.matrix, metric, k) if k < n else None
    candidates = {}
    for start in range(0, len(queries.ids), QUERY_BLOCK):
        block = queries.matrix[start : start + QUERY_BLOCK]
        products = filt.products(block) if filt is not None else None
        for i, (qid, query) in enumerate(zip(queries.ids[start : start + QUERY_BLOCK], block)):
            q = query.astype(np.float64)
            qn = float(np.linalg.norm(q))
            if metric == "cosine" and not qn:
                rows, scores = every_row, np.zeros(n)
            else:
                rows = filt.survivors(products[i], qn) if filt is not None else None
                if rows is None:
                    rows = every_row
                scores = _rescore(docs.matrix, rows, q)
                if metric == "cosine":
                    scores = scores / qn / divisors[rows]
                    scores[zero_rows[rows]] = 0.0
            if k < len(rows):
                kth = np.partition(scores, len(rows) - k)[len(rows) - k]
                reach = np.flatnonzero(scores >= kth)
                rows, scores = rows[reach], scores[reach]
            ranked = sorted(zip((-scores).tolist(), [docs.ids[r] for r in rows.tolist()]))[:k]
            candidates[qid] = [(doc_id, -negated) for negated, doc_id in ranked]
    return RankingRun(candidates=candidates, labels=labels or {})


class _Filter:
    """The float32 filter in front of the exact float64 scores.

    ``products`` computes ``S = Q32 @ D32.T`` for a block of queries. Each
    cell differs from the float64 score by at most ``E = c*|q|*|d| + t*|d| +
    t*(|q| + 1)``, where ``c = 2*(gamma_{dim+2} + dim*2^-53)`` with
    ``gamma_m = m*u/(1 - m*u)`` and ``u = 2^-24``, and ``t = dim*2^-140``.
    ``gamma_{dim+2}`` covers the float32 product in any summation order,
    with or without fused multiply-adds (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 3.1), and the rounding of float64 inputs to
    float32; ``dim*2^-53`` covers the float64 product's own error; the ``t``
    terms cover float32 underflow; the factor 2 covers the rounding of the
    norms and of the bound itself. ``survivors`` takes the k-th largest
    ``S - E`` of a query's row as a floor under its k-th best exact score
    and keeps every row with ``S + E`` at or above it, so the rows tied at
    the cut are kept too. Under ``cosine`` both sides are divided by
    ``|q|*|d|``, the row term is bounded by the store's smallest non-zero
    norm, and a margin covers the float64 divisions.
    """

    def __init__(self, matrix: np.ndarray, metric: str, k: int):
        dim = matrix.shape[1]
        self.metric, self.k = metric, k
        m = (dim + 2) * _U
        self.c = 2.0 * (m / (1.0 - m) + dim * 2.0**-53) if m < 0.5 else math.inf
        self.t = dim * 2.0**-140
        # a row beyond float32's range overflows its products, and then
        # each query rescores every row
        with np.errstate(over="ignore"):
            self.matrix = matrix.astype(np.float32, copy=False)
            norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))
            if metric == "dot":
                # rounded up, so no float32 norm is below the float64 one
                self.norms = np.nextafter(norms.astype(np.float32), np.float32(np.inf))
        if metric == "cosine":
            self.inverse_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms != 0.0)
            self.largest_inverse = float(self.inverse_norms.max())

    def products(self, block: np.ndarray) -> np.ndarray:
        """The float32 products of a block of queries with every row."""
        with np.errstate(over="ignore", invalid="ignore"):
            return block.astype(np.float32) @ self.matrix.T

    def survivors(self, s: np.ndarray, qn: float) -> np.ndarray | None:
        """The rows whose exact score can reach the k-th best, given a
        query's products ``s`` and its float64 norm ``qn``; None when a
        filter value or the bound is not finite."""
        cut = len(s) - self.k
        with np.errstate(over="ignore"):
            if self.metric == "dot":
                f = self.c * qn + self.t
                if not (f <= _FLOAT32_MAX and np.isfinite(s).all()):
                    return None
                bound = self.norms * np.float32(f)
                bound += np.float32(self.t * (qn + 1.0))
                lower = s - bound
                upper = np.add(s, bound, out=bound)
            else:
                e = self.c + _COSINE_MARGIN + self.t / qn * (1.0 + self.largest_inverse) + self.t * self.largest_inverse
                if not math.isfinite(e):
                    return None
                x = s.astype(np.float64)
                x /= qn
                x *= self.inverse_norms
                if not np.isfinite(x).all():
                    return None
                lower = x - e
                upper = x + e
        lower.partition(cut)
        return np.flatnonzero(upper >= lower[cut])


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(matrix.astype(np.float64), axis=1)`` bit for bit,
    converting ``NORM_CHUNK`` rows at a time."""
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), NORM_CHUNK):
        chunk = matrix[start : start + NORM_CHUNK].astype(np.float64)
        norms[start : start + NORM_CHUNK] = np.linalg.norm(chunk, axis=1)
    return norms


def _rescore(matrix: np.ndarray, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``(matrix.astype(np.float64) @ q)[rows]`` bit for bit, converting only
    the rows it scores.

    OpenBLAS's matrix-vector product (0.3.31) scores rows in blocks of four
    and the last ``n mod 4`` rows on a path of their own, and a row's bits
    depend only on which path scores it. So rows before the store's last
    ``n mod 4`` are gathered and padded to a multiple of four by repeating
    one, and rows among the last ``n mod 4`` are scored from the store's
    last ``4 + n mod 4`` rows, which lie out like the full store's tail.
    """
    n = len(matrix)
    head_end = n - n % 4
    head = rows < head_end
    scores = np.empty(len(rows))
    if head.any():
        picked = rows[head]
        padded = np.concatenate([picked, np.repeat(picked[:1], -len(picked) % 4)])
        scores[head] = (matrix[padded].astype(np.float64) @ q)[: len(picked)]
    if not head.all():
        start = max(0, head_end - 4)
        scores[~head] = (matrix[start:].astype(np.float64) @ q)[rows[~head] - start]
    return scores


def load_run(path: str | Path, labels: dict[str, dict[str, int]] | None = None) -> RankingRun:
    candidates: dict[str, list[tuple[str, float]]] = {}
    expected_rank: dict[str, int] = {}
    for where, (qid, doc, rank_s, score_s) in _records(path, "query_id doc_id rank score"):
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise RunFormatError(f"{where}: bad rank or score") from None
        if not math.isfinite(score):
            raise RunFormatError(f"{where}: score {score_s!r} is not finite")
        expected = expected_rank.get(qid, 0) + 1
        if rank != expected:
            raise RunFormatError(f"{where}: rank {rank} out of order for query {qid!r} (expected {expected})")
        expected_rank[qid] = rank
        candidates.setdefault(qid, []).append((doc, score))
    if not candidates:
        raise RunFormatError(f"{path}: no ranking lines found")
    try:
        return RankingRun(candidates=candidates, labels=labels or {})
    except RunFormatError as e:
        raise RunFormatError(f"{path}: {e}") from None


def load_labels(path: str | Path) -> dict[str, dict[str, int]]:
    """query_id, doc_id, graded relevance; one judgment per line."""
    labels: dict[str, dict[str, int]] = {}
    for where, (qid, doc, rel_s) in _records(path, "query_id doc_id relevance"):
        try:
            rel = int(rel_s)
        except ValueError:
            raise RunFormatError(f"{where}: relevance must be an integer") from None
        _check_grade(rel, where)
        judged = labels.setdefault(qid, {})
        if doc in judged:
            raise RunFormatError(f"{where}: duplicate judgment for query {qid!r}, document {doc!r}")
        judged[doc] = rel
    if not labels:
        raise RunFormatError(f"{path}: no label lines found")
    return labels


def _require_queries(run: RankingRun) -> list[str]:
    if not run.candidates:
        raise ValueError("metrics over an empty query set are undefined")
    return sorted(run.candidates)


def mrr_at_k(run: RankingRun, k: int) -> float:
    """Mean reciprocal rank of the first relevant hit within the top k.

    A query with no relevant document in its top k contributes zero; no
    query is excluded.
    """
    queries = _require_queries(run)
    total = 0.0
    for qid in queries:
        rel = run.labels.get(qid, {})
        for rank, (doc, _) in enumerate(run.candidates[qid][:k], start=1):
            if rel.get(doc, 0) > 0:
                total += 1.0 / rank
                break
    return total / len(queries)


def recall_at_k(run: RankingRun, k: int) -> float:
    """Mean fraction of each query's relevant documents found in the top k.

    Queries with no relevant documents are excluded (with a warning),
    since their recall is undefined.
    """
    queries = _require_queries(run)
    kept = 0
    total = 0.0
    skipped = 0
    for qid in queries:
        relevant = {d for d, r in run.labels.get(qid, {}).items() if r > 0}
        if not relevant:
            skipped += 1
            continue
        top = {doc for doc, _ in run.candidates[qid][:k]}
        total += len(top & relevant) / len(relevant)
        kept += 1
    if skipped:
        logger.warning("recall@%d: excluded %d of %d queries with no relevant documents", k, skipped, len(queries))
    if kept == 0:
        raise ValueError("recall is undefined: no query has a relevant document")
    return total / kept


def ndcg_at_k(run: RankingRun, k: int) -> float:
    """Mean normalized discounted cumulative gain with graded labels.

    Gain is 2^rel - 1 discounted by log2(rank + 1); the ideal ranking uses
    every judged document for the query, not only the retrieved ones.
    Queries whose labels are all zero are excluded with a warning, and a
    query whose gains overflow float64 is a ``ValueError``.
    """
    queries = _require_queries(run)
    kept = 0
    total = 0.0
    skipped = 0
    for qid in queries:
        rel = run.labels.get(qid, {})
        ideal = sorted(rel.values(), reverse=True)[:k]
        idcg = sum((2.0**r - 1.0) / np.log2(rank + 1.0) for rank, r in enumerate(ideal, start=1))
        if idcg == 0.0:
            skipped += 1
            continue
        dcg = sum(
            (2.0 ** rel.get(doc, 0) - 1.0) / np.log2(rank + 1.0)
            for rank, (doc, _) in enumerate(run.candidates[qid][:k], start=1)
        )
        if not (math.isfinite(dcg) and math.isfinite(idcg)):
            raise ValueError(f"ndcg@{k}: the gains of query {qid!r} overflow float64")
        total += dcg / idcg
        kept += 1
    if skipped:
        logger.warning("ndcg@%d: excluded %d of %d queries with no positive labels", k, skipped, len(queries))
    if kept == 0:
        raise ValueError("ndcg is undefined: no query has a positive label")
    return total / kept

"""Embedding store, exact top-k search, and ranking metrics.

Search is exhaustive and exact; scores are computed in double precision
and ties are broken by ascending document id, so a ranking is a pure
function of the store. ``search_run`` is the one search: it converts the
document matrix to float64 once per run (with row norms cached for
cosine) and ranks the ids once, then scores each query with one
matrix-vector product, finds the k-th best score with a partition and
sorts only the rows that reach it, ties by id rank. Each query keeps its
own matrix-vector product because a blocked matrix-matrix product can
round differently in the last bits and so reorder near-ties. The tests
check every list against a full sort on (score, id string).

Embedding pads each sentence to a width that depends only on its own
length, so a vector never depends on the rest of its batch. Metrics follow
their textbook definitions; the test suite holds an independently coded
oracle for each one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .encoder import encode
from .model import EncoderConfig, ModelParams
from .text import Vocabulary, encode_text, make_batch

logger = logging.getLogger(__name__)

EMBED_BATCH_SIZE = 32  # sentences per encoder call within one width bucket


class RunFormatError(ValueError):
    """An embedding, run or label file that cannot be used."""


def _text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 text file with its number, newline stripped.

    A byte that is not UTF-8 raises ``RunFormatError`` naming the file.
    """
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as e:
            raise RunFormatError(f"{path}: not UTF-8 text ({e.reason})") from None


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
    seqs = [encode_text(s, vocab, enc_config.max_len) for s in sentences]
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
    reproduces the float32 values bit for bit.
    """
    with open(path, "w", encoding="utf-8") as f:
        for doc_id, row in zip(store.ids, store.matrix):
            f.write(doc_id + "\t" + " ".join(f"{x:.8e}" for x in row) + "\n")


def load_embeddings(path: str | Path) -> EmbeddingStore:
    ids: list[str] = []
    rows: list[np.ndarray] = []
    for lineno, line in _text_lines(path):
        if not line:
            continue
        doc_id, tab, rest = line.partition("\t")
        if not tab:
            raise RunFormatError(f"{path}:{lineno}: expected 'id<TAB>components'")
        try:
            row = np.array([np.float32(x) for x in rest.split()], dtype=np.float32)
        except ValueError:
            raise RunFormatError(f"{path}:{lineno}: bad vector component") from None
        if not row.size:
            raise RunFormatError(f"{path}:{lineno}: vector has no components")
        if rows and len(row) != len(rows[0]):
            raise RunFormatError(f"{path}:{lineno}: expected {len(rows[0])} components, got {len(row)}")
        if not np.isfinite(row).all():
            raise RunFormatError(f"{path}:{lineno}: non-finite vector component")
        rows.append(row)
        ids.append(doc_id)
    if not rows:
        raise RunFormatError(f"{path}: no vectors found")
    return EmbeddingStore(ids=ids, matrix=np.stack(rows))


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


def search_run(
    queries: EmbeddingStore, docs: EmbeddingStore, k: int, metric: str = "dot",
    labels: dict[str, dict[str, int]] | None = None,
) -> RankingRun:
    """The k best documents for every query, highest score first, ties by
    ascending id.

    Scores are float64: ``dot`` is ``docs @ q``, and ``cosine`` divides
    that by the query's norm and then by each row's norm; a zero query or a
    zero row scores 0. The store is converted to float64, its cosine row
    norms taken and its ids ranked once for the whole run. Per query, one
    matrix-vector product gives the scores, a partition finds the k-th
    best, and only rows scoring at least that much are sorted, by score
    descending and then by the rank of their id. Every row tied with the
    k-th score is a candidate, so a tie at the cut is broken by id, as a
    full sort would.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if queries.dim != docs.dim:
        raise ValueError(f"query dim {queries.dim} does not match document dim {docs.dim}")
    if metric not in ("dot", "cosine"):
        raise ValueError(f"unknown similarity metric {metric!r}")
    matrix = docs.matrix.astype(np.float64)
    if metric == "cosine":
        norms = np.linalg.norm(matrix, axis=1)
        zero_rows = norms == 0.0
        divisors = np.where(zero_rows, 1.0, norms)
    n = len(docs.ids)
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[np.argsort(np.array(docs.ids))] = np.arange(n)
    candidates = {}
    for qid, query in zip(queries.ids, queries.matrix):
        q = query.astype(np.float64)
        scores = matrix @ q
        if metric == "cosine":
            qn = float(np.linalg.norm(q))
            scores = scores / qn / divisors if qn else np.zeros(n)
            scores[zero_rows] = 0.0
        if k < n:
            kth = np.partition(scores, n - k)[n - k]
            rows = np.flatnonzero(scores >= kth)
        else:
            rows = np.arange(n)
        top = rows[np.lexsort((id_rank[rows], -scores[rows]))[:k]]
        candidates[qid] = [(docs.ids[i], float(scores[i])) for i in top]
    return RankingRun(candidates=candidates, labels=labels or {})


def load_run(path: str | Path, labels: dict[str, dict[str, int]] | None = None) -> RankingRun:
    candidates: dict[str, list[tuple[str, float]]] = {}
    expected_rank: dict[str, int] = {}
    for lineno, line in _text_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise RunFormatError(
                f"{path}:{lineno}: expected 'query_id<TAB>doc_id<TAB>rank<TAB>score'"
            )
        qid, doc, rank_s, score_s = parts
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise RunFormatError(f"{path}:{lineno}: bad rank or score") from None
        expected = expected_rank.get(qid, 0) + 1
        if rank != expected:
            raise RunFormatError(
                f"{path}:{lineno}: rank {rank} out of order for query {qid!r} (expected {expected})"
            )
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
    for lineno, line in _text_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise RunFormatError(
                f"{path}:{lineno}: expected 'query_id<TAB>doc_id<TAB>relevance'"
            )
        qid, doc, rel_s = parts
        try:
            rel = int(rel_s)
        except ValueError:
            raise RunFormatError(f"{path}:{lineno}: relevance must be an integer") from None
        if rel < 0:
            raise RunFormatError(f"{path}:{lineno}: relevance cannot be negative")
        judged = labels.setdefault(qid, {})
        if doc in judged:
            raise RunFormatError(f"{path}:{lineno}: duplicate judgment for query {qid!r}, document {doc!r}")
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
    Queries whose labels are all zero are excluded with a warning.
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
        total += dcg / idcg
        kept += 1
    if skipped:
        logger.warning("ndcg@%d: excluded %d of %d queries with no positive labels", k, skipped, len(queries))
    if kept == 0:
        raise ValueError("ndcg is undefined: no query has a positive label")
    return total / kept

"""The benchmark's workloads and the inputs they feed the package.

Every input is made here, in-process, from the workload seed: no data file
is read. Each generator is a pure function of its seed, so two runs with
one seed hand the package byte-identical inputs.

Every workload runs the same user pipeline, pretrain then retrieve with the
checkpoint it wrote, so that each one reports every end-to-end metric. The
workloads differ in which phase dominates the run and, for pretraining, in
the decoding mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
WORD_TYPES = 6000
ZIPF_EXPONENT = 1.05
CORPUS_SENTENCES = 2000
TRAIN_WORDS = (4, 60)  # content words per pretraining sentence, inclusive
PASSAGE_WORDS = (10, 60)
QUERY_WORDS = (3, 12)
STORE_ROWS = 20000
EMBED_DIM = 64  # hidden_dim of the desk preset
TOP_K = 10
CHECKPOINT_EVERY = 5  # steps between periodic checkpoints while pretraining


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # decoding mode of the pretraining phase
    train_share: float  # share of --seconds spent pretraining; the rest retrieves
    segment_steps: int  # steps per pretraining segment; every segment starts from scratch
    round_queries: int  # queries per retrieval round, with as many passages


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-enhanced", "enhanced", 0.65, 20, 64),
        Workload("train-basic", "basic", 0.65, 20, 64),
        Workload("retrieve", "enhanced", 0.3, 10, 256),
    )
}


def _word_list(rng: np.random.Generator) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < WORD_TYPES:
        word = "".join(rng.choice(LETTERS, size=int(rng.integers(2, 9))))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Zipf:
    """Draws sentences whose word frequencies follow a Zipf law."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.words = _word_list(rng)
        weights = 1.0 / np.arange(1, WORD_TYPES + 1) ** ZIPF_EXPONENT
        self.probs = weights / weights.sum()

    def words_of(self, n: int) -> list[str]:
        picks = self.rng.choice(WORD_TYPES, size=n, p=self.probs)
        return [self.words[i] for i in picks]

    def sentence(self, bounds: tuple[int, int]) -> list[str]:
        return self.words_of(int(self.rng.integers(bounds[0], bounds[1] + 1)))


def training_corpus(seed: int) -> list[str]:
    """One sentence per line, 4 to 60 words each."""
    zipf = _Zipf(np.random.default_rng([seed, 0]))
    return [" ".join(zipf.sentence(TRAIN_WORDS)) for _ in range(CORPUS_SENTENCES)]


@dataclass(frozen=True)
class RetrievalInputs:
    """One retrieval round's inputs.

    Query i is a contiguous span of passage i. The document store holds
    every passage twice, under two ids, plus filler rows up to STORE_ROWS,
    so exact score ties are common near the top of a ranking. Ids are the
    decimal strings of a shuffled 0..STORE_ROWS-1, so their string order
    differs from their numeric order.
    """

    queries: list[str]
    passages: list[str]
    query_ids: list[str]
    passage_ids: list[str]
    copy_ids: list[str]
    filler_ids: list[str]
    filler: np.ndarray  # (STORE_ROWS - 2 * passages, EMBED_DIM) float32
    labels: dict[str, dict[str, int]]


def retrieval_inputs(seed: int, queries: int) -> RetrievalInputs:
    rng = np.random.default_rng([seed, 1])
    zipf = _Zipf(rng)
    passages_words = [zipf.sentence(PASSAGE_WORDS) for _ in range(queries)]
    query_texts = []
    for words in passages_words:
        n = int(rng.integers(QUERY_WORDS[0], min(QUERY_WORDS[1], len(words)) + 1))
        start = int(rng.integers(0, len(words) - n + 1))
        query_texts.append(" ".join(words[start : start + n]))
    ids = [str(i) for i in rng.permutation(STORE_ROWS)]
    passage_ids = ids[:queries]
    copy_ids = ids[queries : 2 * queries]
    filler_ids = ids[2 * queries :]
    filler = rng.standard_normal((len(filler_ids), EMBED_DIM)).astype(np.float32)
    labels: dict[str, dict[str, int]] = {}
    query_ids = [f"q{i}" for i in range(queries)]
    for i, qid in enumerate(query_ids):
        judged = {passage_ids[i]: 2, copy_ids[i]: 1}
        for j in rng.choice(len(filler_ids), size=2, replace=False):
            judged[filler_ids[j]] = int(rng.integers(0, 2))
        labels[qid] = judged
    return RetrievalInputs(
        queries=query_texts,
        passages=[" ".join(w) for w in passages_words],
        query_ids=query_ids,
        passage_ids=passage_ids,
        copy_ids=copy_ids,
        filler_ids=filler_ids,
        filler=filler,
        labels=labels,
    )

"""Corpus handling: vocabulary, tokenization, sequence encoding, batching.

One input line is one sentence. Tokenization splits on whitespace and
punctuation with no further normalization; the vocabulary is frequency
ranked with lexicographic tie-breaking so two builds over the same corpus
are identical.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
MASK_ID = 4
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[M]")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Split into word and single-punctuation tokens."""
    return _TOKEN_RE.findall(text)


class Vocabulary:
    """Token/id mapping with five reserved ids at the front."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the reserved tokens")
        if len(tokens) != len(set(tokens)):
            raise ValueError("duplicate token in vocabulary")
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_for(self, idx: int) -> str:
        return self.id_to_token[idx]

    def save(self, path: str | Path) -> None:
        # one token per line; the line number is the id
        Path(path).write_text("\n".join(self.id_to_token) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(lines)


def build_vocabulary(lines: Iterable[str], max_size: int) -> Vocabulary:
    """Frequency-ranked vocabulary capped at ``max_size`` ids total.

    The cap includes the five reserved ids. Ties in frequency are broken
    lexicographically so the result is a pure function of the corpus.
    """
    if max_size < len(RESERVED_TOKENS) + 1:
        raise ValueError(f"max_size must be at least {len(RESERVED_TOKENS) + 1}")
    counts: Counter[str] = Counter()
    for line in lines:
        counts.update(tokenize(line))
    if not counts:
        raise ValueError("corpus produced no tokens")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(RESERVED_TOKENS)]]
    return Vocabulary(list(RESERVED_TOKENS) + keep)


@dataclass(frozen=True)
class TokenSequence:
    """An encoded sentence: [CLS] content... [SEP], no padding."""

    ids: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        object.__setattr__(self, "ids", ids)
        if ids.ndim != 1 or ids.size < 2:
            raise ValueError("a sequence is 1D and holds at least [CLS] and [SEP]")
        if ids[0] != CLS_ID or ids[-1] != SEP_ID:
            raise ValueError("a sequence starts with [CLS] and ends with [SEP]")
        if np.any(ids == PAD_ID):
            raise ValueError("padding does not belong inside a sequence")

    def __len__(self) -> int:
        return int(self.ids.size)


def encode_text(text: str, vocab: Vocabulary, max_len: int) -> TokenSequence:
    """Tokenize and wrap with [CLS]/[SEP], truncating content to fit max_len."""
    if max_len < 3:
        raise ValueError("max_len must leave room for [CLS], [SEP] and a token")
    content = [vocab.id_for(t) for t in tokenize(text)[: max_len - 2]]
    return TokenSequence(np.array([CLS_ID] + content + [SEP_ID], dtype=np.int64))


@dataclass(frozen=True)
class Batch:
    """Sequences padded to a common length.

    ``ids`` is (B, L) with [PAD] at unused tail positions; ``real`` is the
    matching (B, L) mask, True where a position holds an actual token.
    """

    ids: np.ndarray
    real: np.ndarray

    def __post_init__(self):
        if self.ids.shape != self.real.shape or self.ids.ndim != 2:
            raise ValueError("ids and real mask must share a (B, L) shape")
        if np.any((self.ids == PAD_ID) & self.real):
            raise ValueError("a real position cannot hold [PAD]")
        if np.any((self.ids != PAD_ID) & ~self.real):
            raise ValueError("a pad position must hold [PAD]")

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    @property
    def length(self) -> int:
        return self.ids.shape[1]


def make_batch(seqs: Sequence[TokenSequence], pad_to: int | None = None) -> Batch:
    if not seqs:
        raise ValueError("empty batch")
    longest = max(len(s) for s in seqs)
    width = longest if pad_to is None else pad_to
    if width < longest:
        raise ValueError(f"pad_to={pad_to} shorter than longest sequence ({longest})")
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    real = np.zeros((len(seqs), width), dtype=bool)
    for row, s in enumerate(seqs):
        ids[row, : len(s)] = s.ids
        real[row, : len(s)] = True
    return Batch(ids=ids, real=real)


def batch_iter(
    seqs: Sequence[TokenSequence],
    batch_size: int,
    seed: int | Sequence[int],
) -> Iterator[Batch]:
    """One shuffled epoch. Order is a pure function of the seed; the final
    short batch is yielded rather than dropped."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = np.random.default_rng(seed).permutation(len(seqs))
    for start in range(0, len(seqs), batch_size):
        chunk = [seqs[i] for i in order[start : start + batch_size]]
        yield make_batch(chunk)


def load_corpus(path: str | Path, vocab: Vocabulary, max_len: int) -> list[TokenSequence]:
    """Encode every non-empty line of a text file, as ``corpus_lines`` reads it."""
    seqs = [encode_text(line, vocab, max_len) for line in corpus_lines(path)]
    if not seqs:
        raise ValueError(f"no sentences found in {path}")
    return seqs


def corpus_lines(path: str | Path) -> list[str]:
    """The stripped non-empty lines of a UTF-8 text file."""
    try:
        with open(path, encoding="utf-8") as f:
            return [line.strip() for line in f if line.strip()]
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None

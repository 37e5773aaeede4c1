"""Corpus handling: text files, vocabulary, tokenization, encoding, batching.

``read_lines`` reads every text input of the package. Only ``\\n``,
``\\r\\n`` and ``\\r`` end a line, a leading UTF-8 byte-order mark is
dropped, and a byte that is not UTF-8 is a ``ValueError`` naming the file;
``write_atomically`` writes every output that a run resumes from. One
corpus line is one sentence, and ``load_corpus`` is the one pass that reads
and tokenizes a corpus file: the vocabulary is counted from its token
lists and each sentence is encoded from them, so no sentence is tokenized
twice. Tokenization splits on whitespace and punctuation with no further
normalization; the vocabulary is frequency ranked with lexicographic
tie-breaking so two builds over the same corpus are identical. A batch
holds only its padded ids; its pad mask ``real`` is derived from them.
"""

from __future__ import annotations

import os
import re
import sys
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

    def save(self, path: str | Path) -> None:
        # one token per line; the line number is the id
        write_atomically(path, [("\n".join(self.id_to_token) + "\n").encode("utf-8")])

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """The vocabulary ``save`` wrote; a refusal names the file."""
        lines = read_lines(path)
        try:
            return cls(lines)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def build_vocabulary(sentences: Iterable[Sequence[str]], max_size: int) -> Vocabulary:
    """Frequency-ranked vocabulary over tokenized sentences, capped at
    ``max_size`` ids total.

    The cap includes the five reserved ids. Ties in frequency are broken
    lexicographically so the result is a pure function of the corpus. A
    sentence is its list of tokens; a plain string, whose tokens would be
    its characters, is a ``TypeError``.
    """
    if max_size < len(RESERVED_TOKENS) + 1:
        raise ValueError(f"max_size must be at least {len(RESERVED_TOKENS) + 1}")
    counts: Counter[str] = Counter()
    for tokens in sentences:
        if isinstance(tokens, str):
            raise TypeError("build_vocabulary counts tokenized sentences, not text")
        counts.update(tokens)
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


def encode_tokens(tokens: Sequence[str], vocab: Vocabulary, max_len: int) -> TokenSequence:
    """A sentence's tokens as ids wrapped with [CLS]/[SEP], its content
    truncated to fit max_len."""
    if max_len < 3:
        raise ValueError("max_len must leave room for [CLS], [SEP] and a token")
    content = [vocab.id_for(t) for t in tokens[: max_len - 2]]
    return TokenSequence(np.array([CLS_ID] + content + [SEP_ID], dtype=np.int64))


@dataclass(frozen=True)
class Batch:
    """Sequences padded to a common length.

    ``ids`` is (B, L) with [PAD] at unused tail positions. The pad mask
    follows from it: ``real`` is True where a position holds an actual
    token, which is wherever the id is not [PAD].
    """

    ids: np.ndarray

    def __post_init__(self):
        if self.ids.ndim != 2:
            raise ValueError("ids must be a (B, L) array")

    @property
    def real(self) -> np.ndarray:
        return self.ids != PAD_ID

    @property
    def size(self) -> int:
        return self.ids.shape[0]


def make_batch(seqs: Sequence[TokenSequence], pad_to: int | None = None) -> Batch:
    if not seqs:
        raise ValueError("empty batch")
    longest = max(len(s) for s in seqs)
    width = longest if pad_to is None else pad_to
    if width < longest:
        raise ValueError(f"pad_to={pad_to} shorter than longest sequence ({longest})")
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    for row, s in enumerate(seqs):
        ids[row, : len(s)] = s.ids
    return Batch(ids=ids)


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


def load_corpus(path: str | Path) -> list[list[str]]:
    """The tokens of every sentence of a text file, as ``corpus_lines``
    reads it."""
    # equal tokens share one interned string, so the token lists of a
    # 2,000-sentence, 65,000-token corpus hold 1.0 MB, not 4.2 MB
    return [[sys.intern(t) for t in tokenize(line)] for line in corpus_lines(path)]


def corpus_lines(path: str | Path) -> list[str]:
    """The stripped non-empty lines of a UTF-8 text file; a file with none
    is a ``ValueError`` naming it."""
    lines = [line.strip() for line in read_lines(path) if line.strip()]
    if not lines:
        raise ValueError(f"no sentences found in {path}")
    return lines


def read_lines(path: str | Path) -> list[str]:
    """Every line of a UTF-8 text file, its line end and a leading
    byte-order mark stripped."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return [line.rstrip("\n") for line in f]
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None


def write_atomically(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, then rename it
    over ``path``: a write that fails or is killed partway leaves the
    previous file intact. A write that fails removes its temporary file
    and re-raises; one killed leaves it for the next write to replace."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

"""Text files, vocabulary, tokenization, sequence encoding, and batching."""

import re

import numpy as np
import pytest

from dualmae.config import parse_config_file
from dualmae.retrieval import load_embeddings, load_labels
from dualmae.text import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    RESERVED_TOKENS,
    SEP_ID,
    UNK_ID,
    Batch,
    TokenSequence,
    Vocabulary,
    batch_iter,
    build_vocabulary,
    corpus_lines,
    encode_tokens,
    load_corpus,
    make_batch,
    read_lines,
    tokenize,
    write_atomically,
)


class TestTokenize:
    def test_words_and_punctuation_split(self):
        assert tokenize("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_punctuation_is_single_characters(self):
        assert tokenize("wait...") == ["wait", ".", ".", "."]

    def test_unicode_words_stay_whole(self):
        assert tokenize("naïve café") == ["naïve", "café"]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []


class TestVocabulary:
    def test_reserved_ids_are_pinned(self):
        vocab = build_vocabulary(map(tokenize, ["a a b"]), max_size=8)
        assert vocab.id_to_token[:5] == list(RESERVED_TOKENS)
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3, 4)

    def test_frequency_ranking(self):
        vocab = build_vocabulary(map(tokenize, ["b b b a a c"]), max_size=10)
        assert vocab.id_to_token[5:] == ["b", "a", "c"]

    def test_frequency_ties_break_lexicographically(self):
        vocab = build_vocabulary(map(tokenize, ["b a", "a b"]), max_size=10)
        assert vocab.id_to_token[5:] == ["a", "b"]

    def test_cap_includes_reserved_ids(self):
        lines = [" ".join(f"w{i:03d}" for _ in range(100 - i)) for i in range(100)]
        vocab = build_vocabulary(map(tokenize, lines), max_size=55)
        assert len(vocab) == 55
        assert vocab.id_for("w000") == 5
        assert vocab.id_for("w049") == 54
        assert vocab.id_for("w050") == UNK_ID

    def test_unknown_token_maps_to_unk(self):
        vocab = build_vocabulary(map(tokenize, ["a"]), max_size=6)
        assert vocab.id_for("zzz") == UNK_ID

    def test_too_small_cap_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(map(tokenize, ["a"]), max_size=5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(map(tokenize, ["", "   "]), max_size=10)

    def test_a_text_sentence_is_refused(self):
        # a string iterates over its characters, which would be counted as tokens
        for sentences in (["a b"], [["a"], "b c"]):
            with pytest.raises(TypeError, match="tokenized sentences, not text"):
                build_vocabulary(sentences, max_size=10)

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary(map(tokenize, ["the quick brown fox", "the lazy dog"]), max_size=20)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.id_to_token == vocab.id_to_token

    def test_round_trip_over_line_separator_characters(self, tmp_path):
        # form feed, NEL, U+2028 and the file separator are whitespace to the
        # tokenizer, so no saved token holds one; \r ends a line in the corpus
        vocab = build_vocabulary(map(tokenize, ["a\x0cb c\x85d", "e\u2028f\x1cg", "h\ri"]), max_size=20)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert Vocabulary.load(path).id_to_token == vocab.id_to_token == list(RESERVED_TOKENS) + list("abcdefghi")

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(RESERVED_TOKENS + ("a", "a")) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: duplicate token in vocabulary$"):
            Vocabulary.load(path)
        path.write_bytes("\n".join(RESERVED_TOKENS).encode() + b"\ncaf\xe9\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8 text \(invalid continuation byte\)$"):
            Vocabulary.load(path)

    def test_line_number_is_the_id(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(RESERVED_TOKENS + ("alpha", "beta")) + "\n")
        vocab = Vocabulary.load(path)
        assert vocab.id_for("alpha") == 5
        assert vocab.id_to_token[6] == "beta"

    def test_reserved_prefix_enforced(self):
        with pytest.raises(ValueError):
            Vocabulary(["[PAD]", "[UNK]", "a"])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(list(RESERVED_TOKENS) + ["a", "a"])


class TestEncodeTokens:
    def test_wraps_with_cls_and_sep(self):
        vocab = build_vocabulary(map(tokenize, ["a b"]), max_size=10)
        seq = encode_tokens(["a", "b"], vocab, max_len=8)
        assert seq.ids[0] == CLS_ID and seq.ids[-1] == SEP_ID
        assert len(seq) == 4

    def test_truncates_content_to_fit(self):
        vocab = build_vocabulary(map(tokenize, ["a b c d e"]), max_size=12)
        seq = encode_tokens(["a", "b", "c", "d", "e"], vocab, max_len=4)
        assert len(seq) == 4  # [CLS] a b [SEP]
        assert [vocab.id_to_token[i] for i in seq.ids[1:-1]] == ["a", "b"]

    def test_unknown_words_become_unk(self):
        vocab = build_vocabulary(map(tokenize, ["a"]), max_size=6)
        seq = encode_tokens(["a", "mystery"], vocab, max_len=8)
        assert list(seq.ids) == [CLS_ID, vocab.id_for("a"), UNK_ID, SEP_ID]

    def test_max_len_floor(self):
        vocab = build_vocabulary(map(tokenize, ["a"]), max_size=6)
        with pytest.raises(ValueError):
            encode_tokens(["a"], vocab, max_len=2)

    def test_id_to_token_maps_reserved_and_content_ids(self):
        vocab = build_vocabulary(map(tokenize, ["a b"]), max_size=10)
        tokens = [vocab.id_to_token[i] for i in (CLS_ID, 5, MASK_ID, 6, SEP_ID, PAD_ID)]
        assert tokens == ["[CLS]", "a", "[M]", "b", "[SEP]", "[PAD]"]


class TestTokenSequence:
    def test_structure_enforced(self):
        with pytest.raises(ValueError):
            TokenSequence(np.array([5, 6, SEP_ID]))
        with pytest.raises(ValueError):
            TokenSequence(np.array([CLS_ID, 5, 6]))
        with pytest.raises(ValueError):
            TokenSequence(np.array([CLS_ID, PAD_ID, SEP_ID]))
        with pytest.raises(ValueError):
            TokenSequence(np.array([CLS_ID]))


class TestBatch:
    def test_make_batch_pads_to_longest(self):
        a = TokenSequence(np.array([CLS_ID, 5, 6, SEP_ID]))
        b = TokenSequence(np.array([CLS_ID, 7, SEP_ID]))
        batch = make_batch([a, b])
        assert batch.ids.shape == (2, 4)
        assert batch.ids[1, 3] == PAD_ID
        assert not batch.real[1, 3]
        assert batch.real[:, 0].all()

    def test_pad_to_widens(self):
        a = TokenSequence(np.array([CLS_ID, 5, SEP_ID]))
        batch = make_batch([a], pad_to=6)
        assert batch.ids.shape == (1, 6)
        assert batch.real.tolist() == [[True, True, True, False, False, False]]
        assert (batch.ids[0, 3:] == PAD_ID).all()

    def test_pad_to_cannot_truncate(self):
        a = TokenSequence(np.array([CLS_ID, 5, 6, SEP_ID]))
        with pytest.raises(ValueError):
            make_batch([a], pad_to=3)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            make_batch([])

    def test_real_is_derived_from_the_ids(self):
        ids = np.array([[CLS_ID, 5, SEP_ID, PAD_ID], [CLS_ID, SEP_ID, PAD_ID, PAD_ID]])
        np.testing.assert_array_equal(Batch(ids=ids).real, ids != PAD_ID)
        with pytest.raises(ValueError, match=r"\(B, L\)"):
            Batch(ids=ids[0])


def _corpus(n):
    rng = np.random.default_rng(99)
    return [
        TokenSequence(np.concatenate([[CLS_ID], rng.integers(5, 20, size=rng.integers(1, 6)), [SEP_ID]]))
        for _ in range(n)
    ]


class TestBatchIter:
    def test_epoch_covers_every_sequence_once(self):
        seqs = _corpus(17)
        seen = []
        for batch in batch_iter(seqs, 5, seed=0):
            for row in range(batch.size):
                seen.append(tuple(batch.ids[row][batch.real[row]]))
        assert sorted(seen) == sorted(tuple(s.ids) for s in seqs)

    def test_same_seed_same_batches(self):
        seqs = _corpus(17)
        a = list(batch_iter(seqs, 5, seed=[7, 2, 0]))
        b = list(batch_iter(seqs, 5, seed=[7, 2, 0]))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.ids, y.ids)

    def test_epoch_seeds_reshuffle(self):
        seqs = _corpus(16)
        a = np.concatenate([b.ids.reshape(-1) for b in batch_iter(seqs, 4, seed=[7, 2, 0])])
        b = np.concatenate([b.ids.reshape(-1) for b in batch_iter(seqs, 4, seed=[7, 2, 1])])
        assert not np.array_equal(a, b)

    def test_final_short_batch_is_yielded(self):
        seqs = _corpus(10)
        sizes = [b.size for b in batch_iter(seqs, 4, seed=0)]
        assert sizes == [4, 4, 2]

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            next(batch_iter(_corpus(3), 0, seed=0))


class TestCorpusFiles:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b\n\n  \nc d\n")
        assert corpus_lines(path) == ["a b", "c d"]
        sentences = load_corpus(path)
        assert sentences == [["a", "b"], ["c", "d"]]
        vocab = build_vocabulary(sentences, max_size=12)
        seqs = [encode_tokens(tokens, vocab, max_len=8) for tokens in sentences]
        assert len(seqs) == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            load_corpus(path)

    @pytest.mark.parametrize("text", ["", "\n\n", " \t\r\n\x0c\n"])
    def test_file_without_sentences_is_named(self, tmp_path, text):
        path = tmp_path / "corpus.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ValueError, match=rf"^no sentences found in {re.escape(str(path))}$"):
            corpus_lines(path)


class TestReadLines:
    def test_line_ends_stripped(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"a\n\nb\r\nc\rd")
        assert read_lines(path) == ["a", "", "b", "c", "d"]
        path.write_bytes(b"")
        assert read_lines(path) == []

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes("\ufeffa\n\ufeffb\n".encode("utf-8"))
        assert read_lines(path) == ["a", "\ufeffb"]

    def test_a_config_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes("\ufeffheads = 3\n".encode("utf-8"))
        assert parse_config_file(path) == {"heads": 3}

    def test_an_embedding_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_bytes("\ufeffq1\t1.0 2.0\n".encode("utf-8"))
        store = load_embeddings(path)
        assert store.ids == ["q1"]
        np.testing.assert_array_equal(store.matrix, [[1.0, 2.0]])

    def test_a_labels_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_bytes("\ufeffq1\td1\t1\n".encode("utf-8"))
        assert load_labels(path) == {"q1": {"d1": 1}}

    def test_a_byte_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8 text \(invalid start byte\)$"):
            read_lines(path)

    def test_one_line_rule_for_every_reader(self, tmp_path):
        """Only \\n, \\r\\n and \\r end a line. Form feed, NEL and U+2028,
        which ``str.splitlines`` also splits at, stay inside their line for
        every reader."""
        inner = ("\x0c", "\x85", "\u2028")

        def write(name, lines):
            path = tmp_path / name
            path.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
            return path

        sentences = [f"w{i}{c}x{i}" for i, c in enumerate(inner)]
        path = write("corpus.txt", sentences)
        assert read_lines(path) == corpus_lines(path) == sentences

        # a separator inside a comment must not start a setting
        settings = [f"# off{c}heads = 3" for c in inner] + ["seed = 7"]
        path = write("run.cfg", settings)
        assert read_lines(path) == settings
        assert parse_config_file(path) == {"seed": 7}

        judgments = [f"q{i}\td{c}{i}\t{i}" for i, c in enumerate(inner)]
        path = write("labels.tsv", judgments)
        assert read_lines(path) == judgments
        assert load_labels(path) == {f"q{i}": {f"d{c}{i}": i} for i, c in enumerate(inner)}


class TestWriteAtomically:
    def test_a_failed_write_removes_its_temporary_file(self, tmp_path):
        path = tmp_path / "wa.txt"
        write_atomically(path, [b"kept\n"])

        def chunks():
            yield b"lost"
            raise OSError("write failed")

        with pytest.raises(OSError, match="write failed"):
            write_atomically(path, chunks())
        assert path.read_bytes() == b"kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["wa.txt"]

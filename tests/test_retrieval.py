"""Embedding store, top-k search, run files, and ranking metrics.

Each metric is checked against an oracle coded here from its definition,
with no shared helpers between the two implementations; search is checked
against the full sort in ``ranking.py``.
"""

import logging
import re

import numpy as np
import pytest

from dualmae import retrieval
from dualmae.autodiff import no_grad
from dualmae.encoder import encode
from dualmae.model import DecoderConfig, EncoderConfig, init_params
from dualmae.retrieval import (
    EmbeddingStore,
    RankingRun,
    RunFormatError,
    _bucket_width,
    _rescore,
    _row_norms,
    embed_corpus,
    load_embeddings,
    load_labels,
    load_run,
    mrr_at_k,
    ndcg_at_k,
    recall_at_k,
    save_embeddings,
    search_run,
)
from dualmae.text import build_vocabulary, encode_tokens, make_batch, tokenize

from ranking import full_sort_topk


class TestEmbeddingStore:
    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingStore(ids=["a", "a"], matrix=np.zeros((2, 3), dtype=np.float32))

    def test_id_count_must_match_rows(self):
        with pytest.raises(ValueError):
            EmbeddingStore(ids=["a"], matrix=np.zeros((2, 3), dtype=np.float32))

    def test_matrix_must_be_2d(self):
        with pytest.raises(ValueError):
            EmbeddingStore(ids=["a"], matrix=np.zeros(3, dtype=np.float32))

    def test_dim(self):
        store = EmbeddingStore(ids=["a"], matrix=np.zeros((1, 7), dtype=np.float32))
        assert store.dim == 7

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected_by_id(self, bad):
        mat = np.ones((3, 2), dtype=np.float32)
        mat[1, 1] = bad
        mat[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite vector for id 'b'"):
            EmbeddingStore(ids=["a", "b", "c"], matrix=mat)


class TestEmbeddingFiles:
    def test_float32_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        # include awkward magnitudes; %.8e must reproduce every float32
        mat = np.concatenate([
            rng.standard_normal((5, 8)).astype(np.float32) * np.float32(1e-7),
            rng.standard_normal((5, 8)).astype(np.float32) * np.float32(1e6),
            np.zeros((1, 8), dtype=np.float32),
        ])
        store = EmbeddingStore(ids=[f"doc{i}" for i in range(11)], matrix=mat)
        path = tmp_path / "emb.tsv"
        save_embeddings(path, store)
        loaded = load_embeddings(path)
        assert loaded.ids == store.ids
        assert loaded.matrix.dtype == np.float32
        np.testing.assert_array_equal(loaded.matrix, store.matrix)

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("doc0 1.0 2.0\n")
        with pytest.raises(RunFormatError, match=":1:"):
            load_embeddings(path)

    def test_bad_component(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("doc0\t1.0 banana\n")
        with pytest.raises(RunFormatError, match=":1:"):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("\n\n")
        with pytest.raises(RunFormatError, match="no vectors"):
            load_embeddings(path)

    def test_vector_without_components_names_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("doc0\t\n")
        with pytest.raises(RunFormatError, match=r"emb\.tsv:1: vector has no components$"):
            load_embeddings(path)

    def test_ragged_row_names_line_and_widths(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("doc0\t1.0 2.0 3.0\ndoc1\t1.0 2.0 3.0\ndoc2\t1.0 2.0\n")
        with pytest.raises(RunFormatError, match=r"emb\.tsv:3: expected 3 components, got 2$"):
            load_embeddings(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_component_names_line(self, tmp_path, bad):
        path = tmp_path / "emb.tsv"
        path.write_text(f"doc0\t1.0 2.0\ndoc1\t{bad} 2.0\n")
        with pytest.raises(RunFormatError, match=r"emb\.tsv:2: non-finite"):
            load_embeddings(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("doc0\t1.0 2.0\ndoc1\t3.0 4.0\ndoc0\t5.0 6.0\n")
        with pytest.raises(RunFormatError, match=r"emb\.tsv:3: duplicate document id 'doc0'$"):
            load_embeddings(path)

    def test_second_tab_is_refused_like_run_and_label_lines(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("doc0\t1.0\t2.0\n")
        with pytest.raises(RunFormatError, match=r"emb\.tsv:1: expected 'id<TAB>components'$"):
            load_embeddings(path)

    # strings numpy's float32 scalar and array parsers both take or both refuse
    @pytest.mark.parametrize("text", ["1_0", "+1.5", "\u0661.\u0665", "0x10", "1e999", "infinity", "1,5", "1d5"])
    def test_a_component_parses_as_a_float32_scalar_would(self, tmp_path, text):
        path = tmp_path / "emb.tsv"
        path.write_text(f"doc0\t{text} 2.0\n", encoding="utf-8")
        try:
            expected = np.float32(text)
        except ValueError:
            with pytest.raises(RunFormatError, match=r"emb\.tsv:1: bad vector component$"):
                load_embeddings(path)
            return
        if not np.isfinite(expected):
            with pytest.raises(RunFormatError, match=r"emb\.tsv:1: non-finite vector component$"):
                load_embeddings(path)
            return
        assert load_embeddings(path).matrix[0, 0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["1e39", "-3.5e38"])
    def test_a_component_beyond_float32_is_refused_without_a_warning(self, tmp_path, text):
        # finite as a float64, infinite once cast; the suite turns warnings
        # into errors, so numpy's overflow warning would escape ahead of this
        path = tmp_path / "emb.tsv"
        path.write_text(f"d\t{text} 1.0\n", encoding="utf-8")
        with pytest.raises(RunFormatError, match=r"emb\.tsv:1: non-finite vector component$"):
            load_embeddings(path)

    @pytest.mark.parametrize("ids, bad", [
        (["a", "b\tc"], "b\tc"),
        (["a\nb", "c"], "a\nb"),
        (["a", "b\rc"], "b\rc"),
        (["\ufeffa", "b"], "\ufeffa"),
        (["a", "\ud800"], "\ud800"),
        (["a", "b\udfffc"], "b\udfffc"),
    ])
    def test_an_id_the_loader_cannot_read_back_is_refused_before_writing(self, tmp_path, ids, bad):
        store = EmbeddingStore(ids=ids, matrix=np.ones((2, 3), dtype=np.float32))
        path = tmp_path / "emb.tsv"
        with pytest.raises(ValueError, match=f"^id {re.escape(repr(bad))} cannot be read back"):
            save_embeddings(path, store)
        assert not path.exists()

    def test_a_byte_order_mark_after_the_first_id_reads_back(self, tmp_path):
        store = EmbeddingStore(ids=["a", "\ufeffb"], matrix=np.eye(2, dtype=np.float32))
        path = tmp_path / "emb.tsv"
        save_embeddings(path, store)
        assert load_embeddings(path).ids == store.ids

    def test_components_are_written_as_the_scalar_format_writes_them(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = np.concatenate([
            rng.standard_normal((4, 6)).astype(np.float32) * np.float32(scale)
            for scale in (1e-42, 1e-7, 1.0, 1e6, 1e37)
        ])
        mat[0, :3] = [0.0, -0.0, np.finfo(np.float32).max]
        store = EmbeddingStore(ids=[f"d{i}" for i in range(len(mat))], matrix=mat)
        path = tmp_path / "emb.tsv"
        save_embeddings(path, store)
        expected = "".join(f"d{i}\t" + " ".join(f"{x:.8e}" for x in row) + "\n" for i, row in enumerate(mat))
        assert path.read_text(encoding="utf-8") == expected
        assert load_embeddings(path).matrix.tobytes() == mat.tobytes()


def _search_one(query, store, k, metric="dot"):
    """search_run's list for one query."""
    queries = EmbeddingStore(ids=["q"], matrix=np.asarray(query)[None, :])
    return search_run(queries, store, k, metric).candidates["q"]


def _scores(query, store, metric):
    """Every score search_run gives ``query``, in store order."""
    scored = dict(_search_one(query, store, len(store.ids), metric))
    return np.array([scored[doc] for doc in store.ids])


class TestScoring:
    def _store(self, rng, n=12, d=5):
        mat = rng.standard_normal((n, d)).astype(np.float32)
        return EmbeddingStore(ids=[f"d{i:02d}" for i in range(n)], matrix=mat)

    def test_dot_matches_manual(self):
        rng = np.random.default_rng(1)
        store = self._store(rng)
        q = rng.standard_normal(5)
        expected = store.matrix.astype(np.float64) @ q
        got = _scores(q, store, "dot")
        # bit for bit the float64 product; float32 scoring would round apart
        assert got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(got, expected)

    def test_cosine_matches_manual(self):
        rng = np.random.default_rng(2)
        store = self._store(rng)
        q = rng.standard_normal(5)
        docs = store.matrix.astype(np.float64)
        expected = docs @ q / (np.linalg.norm(q) * np.linalg.norm(docs, axis=1))
        np.testing.assert_allclose(_scores(q, store, "cosine"), expected, rtol=1e-12)

    def test_cosine_zero_query_scores_zero(self):
        store = self._store(np.random.default_rng(3))
        np.testing.assert_array_equal(_scores(np.zeros(5), store, "cosine"), np.zeros(12))

    def test_cosine_zero_document_scores_zero(self):
        mat = np.ones((3, 4), dtype=np.float32)
        mat[1] = 0.0
        store = EmbeddingStore(ids=["a", "b", "c"], matrix=mat)
        scores = _scores(np.ones(4), store, "cosine")
        assert scores[1] == 0.0
        np.testing.assert_allclose(scores[[0, 2]], 1.0, rtol=1e-12)

    def test_unknown_metric(self):
        store = self._store(np.random.default_rng(4))
        for n_queries in (1, 0):  # refused before the first query is scored
            queries = EmbeddingStore(ids=["q"][:n_queries], matrix=np.zeros((n_queries, 5), dtype=np.float32))
            with pytest.raises(ValueError, match="euclidean"):
                search_run(queries, store, 1, "euclidean")


class TestTopK:
    def test_tie_broken_by_ascending_id(self):
        mat = np.array([[1.0], [1.0], [2.0]], dtype=np.float32)
        store = EmbeddingStore(ids=["zz", "aa", "mm"], matrix=mat)
        got = _search_one(np.ones(1), store, 3)
        assert [doc for doc, _ in got] == ["mm", "aa", "zz"]

    def test_k_beyond_store_returns_everything(self):
        store = EmbeddingStore(ids=["a", "b"], matrix=np.eye(2, dtype=np.float32))
        assert len(_search_one(np.ones(2), store, 10)) == 2

    def test_k_must_be_positive(self):
        store = EmbeddingStore(ids=["a"], matrix=np.ones((1, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            _search_one(np.ones(1), store, 0)

    def test_matches_full_sort_oracle(self):
        """Quantized scores force frequent ties; the ranking must still be
        the unique (score desc, id asc) order."""
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 6))
            mat = np.round(rng.standard_normal((n, d)), 1).astype(np.float32)
            ids = [f"doc{i:03d}" for i in rng.permutation(n)]
            store = EmbeddingStore(ids=ids, matrix=mat)
            q = np.round(rng.standard_normal(d), 1)
            k = int(rng.integers(1, n + 1))
            scores = mat.astype(np.float64) @ q
            order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
            expected = [(ids[i], float(scores[i])) for i in order[:k]]
            assert _search_one(q, store, k) == expected


class TestRunFiles:
    def _run(self):
        return RankingRun(
            candidates={
                "q1": [("d3", 0.9), ("d1", 0.5), ("d2", 0.5)],
                "q0": [("d2", 1.0 / 3.0)],
            },
            labels={"q1": {"d1": 2}},
        )

    def test_duplicate_candidate_rejected(self):
        with pytest.raises(RunFormatError, match="duplicate"):
            RankingRun(candidates={"q": [("d", 1.0), ("d", 0.5)]})

    def test_increasing_scores_rejected(self):
        with pytest.raises(RunFormatError, match="increase"):
            RankingRun(candidates={"q": [("a", 0.5), ("b", 0.9)]})

    @pytest.mark.parametrize("grade, message", [
        (-1, "relevance cannot be negative"),
        (1024, "relevance 1024 is too large, its gain 2^1024 - 1 overflows"),
    ])
    def test_grade_outside_the_gain_range_rejected(self, grade, message):
        with pytest.raises(RunFormatError, match=rf"^query 'q', document 'a': {re.escape(message)}$"):
            RankingRun(candidates={"q": [("a", 1.0)]}, labels={"q": {"a": grade}})
        run = RankingRun(candidates={"q": [("a", 1.0)]}, labels={"q": {"a": 1023}})
        assert ndcg_at_k(run, 1) == 1.0

    def test_round_trip_preserves_scores_exactly(self, tmp_path):
        run = self._run()
        path = tmp_path / "run.tsv"
        # scores written with %.17g, enough digits to round-trip a float64
        path.write_text(
            "q1\td3\t1\t0.90000000000000002\n"
            "q1\td1\t2\t0.5\n"
            "q1\td2\t3\t0.5\n"
            "q0\td2\t1\t0.33333333333333331\n"
        )
        loaded = load_run(path, labels=run.labels)
        assert loaded.candidates == run.candidates
        assert loaded.labels == run.labels

    def test_interleaved_queries_accepted(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q0\ta\t1\t2.0\nq1\tb\t1\t3.0\nq0\tc\t2\t1.0\n")
        loaded = load_run(path)
        assert loaded.candidates == {"q0": [("a", 2.0), ("c", 1.0)], "q1": [("b", 3.0)]}

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q0\ta\t1\t2.0\nq0\tb\t2\n")
        with pytest.raises(RunFormatError, match=":2:"):
            load_run(path)

    def test_rank_gap_names_line(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q0\ta\t1\t2.0\nq0\tb\t3\t1.0\n")
        with pytest.raises(RunFormatError, match=":2:.*expected 2"):
            load_run(path)

    def test_rank_must_start_at_one(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q0\ta\t2\t2.0\n")
        with pytest.raises(RunFormatError, match=":1:"):
            load_run(path)

    def test_empty_run_file(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("")
        with pytest.raises(RunFormatError, match="no ranking lines"):
            load_run(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_a_score_that_is_not_finite_names_line(self, tmp_path, bad):
        # a nan between 1.0 and 5.0 would hide the rise that 1.0, 5.0 shows
        path = tmp_path / "run.tsv"
        path.write_text(f"q0\ta\t1\t1.0\nq0\tb\t2\t{bad}\nq0\tc\t3\t5.0\n")
        with pytest.raises(RunFormatError, match=rf"run\.tsv:2: score '{bad}' is not finite$"):
            load_run(path)

    def test_increasing_scores_caught_on_load(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q0\ta\t1\t1.0\nq0\tb\t2\t5.0\n")
        with pytest.raises(RunFormatError, match="run.tsv"):
            load_run(path)


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("q0\td1\t2\nq0\td2\t0\nq1\td1\t1\n")
        assert load_labels(path) == {"q0": {"d1": 2, "d2": 0}, "q1": {"d1": 1}}

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("q0\td1\n")
        with pytest.raises(RunFormatError, match=":1:"):
            load_labels(path)

    def test_relevance_must_be_integer(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("q0\td1\thigh\n")
        with pytest.raises(RunFormatError, match="integer"):
            load_labels(path)

    def test_relevance_cannot_be_negative(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("q0\td1\t-1\n")
        with pytest.raises(RunFormatError, match="negative"):
            load_labels(path)

    def test_duplicate_judgment_rejected(self, tmp_path):
        # a repeated pair would otherwise let the later line win silently
        path = tmp_path / "labels.tsv"
        path.write_text("q1\td0\t2\nq1\td1\t1\nq1\td1\t0\n")
        with pytest.raises(RunFormatError, match=r"labels.tsv:3: duplicate judgment for query 'q1', document 'd1'"):
            load_labels(path)

    def test_empty_label_file(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("\n")
        with pytest.raises(RunFormatError, match="no label"):
            load_labels(path)


class TestMetricHandCases:
    def test_mrr_counts_barren_queries_in_the_mean(self):
        run = RankingRun(
            candidates={
                "q0": [("a", 3.0), ("b", 2.0), ("c", 1.0)],  # hit at rank 2
                "q1": [("a", 3.0), ("b", 2.0)],              # no relevant at all
            },
            labels={"q0": {"b": 1}},
        )
        assert mrr_at_k(run, 3) == pytest.approx(0.25, abs=1e-12)

    def test_mrr_respects_the_cutoff(self):
        run = RankingRun(
            candidates={"q0": [("a", 3.0), ("b", 2.0), ("c", 1.0)]},
            labels={"q0": {"c": 1}},
        )
        assert mrr_at_k(run, 2) == 0.0
        assert mrr_at_k(run, 3) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_recall_hand_case(self):
        run = RankingRun(
            candidates={"q0": [("a", 3.0), ("b", 2.0), ("c", 1.0)]},
            labels={"q0": {"a": 1, "c": 2, "zzz": 1}},
        )
        # top-2 finds a but not c or the unretrieved zzz
        assert recall_at_k(run, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_recall_excludes_barren_queries_with_warning(self, caplog):
        run = RankingRun(
            candidates={"q0": [("a", 1.0)], "q1": [("a", 1.0)]},
            labels={"q0": {"a": 1}, "q1": {"a": 0}},
        )
        with caplog.at_level(logging.WARNING, logger="dualmae.retrieval"):
            value = recall_at_k(run, 1)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert any("excluded 1 of 2" in rec.getMessage() for rec in caplog.records)

    def test_recall_with_no_judged_queries_is_an_error(self):
        run = RankingRun(candidates={"q0": [("a", 1.0)]}, labels={})
        with pytest.raises(ValueError, match="undefined"):
            recall_at_k(run, 1)

    def test_ndcg_hand_case(self):
        run = RankingRun(
            candidates={"q0": [("a", 3.0), ("b", 2.0), ("c", 1.0)]},
            labels={"q0": {"a": 1, "b": 0, "c": 2}},
        )
        dcg = 1.0 / np.log2(2.0) + 0.0 + 3.0 / np.log2(4.0)
        idcg = 3.0 / np.log2(2.0) + 1.0 / np.log2(3.0)
        assert ndcg_at_k(run, 3) == pytest.approx(dcg / idcg, abs=1e-12)

    def test_ndcg_ideal_uses_unretrieved_judgments(self):
        # retrieved docs in perfect order, but a rel-3 judged doc was missed,
        # so the score must fall short of 1
        run = RankingRun(
            candidates={"q0": [("a", 2.0), ("b", 1.0)]},
            labels={"q0": {"a": 2, "b": 1, "missing": 3}},
        )
        value = ndcg_at_k(run, 2)
        assert 0.0 < value < 1.0
        dcg = 3.0 / np.log2(2.0) + 1.0 / np.log2(3.0)
        idcg = 7.0 / np.log2(2.0) + 3.0 / np.log2(3.0)
        assert value == pytest.approx(dcg / idcg, abs=1e-12)

    def test_ndcg_with_only_zero_labels_is_an_error(self):
        run = RankingRun(candidates={"q0": [("a", 1.0)]}, labels={"q0": {"a": 0}})
        with pytest.raises(ValueError, match="undefined"):
            ndcg_at_k(run, 1)

    def test_empty_run_is_an_error(self):
        run = RankingRun(candidates={})
        for metric in (mrr_at_k, recall_at_k, ndcg_at_k):
            with pytest.raises(ValueError):
                metric(run, 5)


def _oracle_mrr(cands, labels, k):
    values = []
    for q in sorted(cands):
        rr = 0.0
        for i, (doc, _) in enumerate(cands[q][:k]):
            if labels.get(q, {}).get(doc, 0) > 0:
                rr = 1.0 / (i + 1)
                break
        values.append(rr)
    return sum(values) / len(values)


def _oracle_recall(cands, labels, k):
    values = []
    for q in sorted(cands):
        relevant = {d for d, r in labels.get(q, {}).items() if r > 0}
        if not relevant:
            continue
        found = sum(1 for doc, _ in cands[q][:k] if doc in relevant)
        values.append(found / len(relevant))
    if not values:
        raise ValueError
    return sum(values) / len(values)


def _oracle_ndcg(cands, labels, k):
    values = []
    for q in sorted(cands):
        judged = labels.get(q, {})
        idcg = 0.0
        for i, r in enumerate(sorted(judged.values(), reverse=True)[:k]):
            idcg += (2.0**r - 1.0) / np.log2(i + 2.0)
        if idcg == 0.0:
            continue
        dcg = 0.0
        for i, (doc, _) in enumerate(cands[q][:k]):
            dcg += (2.0 ** judged.get(doc, 0) - 1.0) / np.log2(i + 2.0)
        values.append(dcg / idcg)
    if not values:
        raise ValueError
    return sum(values) / len(values)


class TestMetricOracles:
    def test_random_runs_match_definitions(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            cands = {}
            labels = {}
            for qi in range(int(rng.integers(1, 6))):
                q = f"q{qi}"
                n_docs = int(rng.integers(1, 12))
                scores = np.sort(np.round(rng.standard_normal(n_docs), 1))[::-1]
                cands[q] = [(f"d{j}", float(s)) for j, s in enumerate(scores)]
                judged = {f"d{j}": int(rng.integers(0, 3)) for j in range(n_docs)
                          if rng.random() < 0.7}
                if rng.random() < 0.5:
                    judged[f"extra{qi}"] = int(rng.integers(0, 4))
                if judged:
                    labels[q] = judged
            run = RankingRun(candidates=cands, labels=labels)
            k = int(rng.integers(1, 8))
            assert mrr_at_k(run, k) == pytest.approx(_oracle_mrr(cands, labels, k), abs=1e-12)
            for library, oracle in ((recall_at_k, _oracle_recall), (ndcg_at_k, _oracle_ndcg)):
                try:
                    expected = oracle(cands, labels, k)
                except ValueError:
                    with pytest.raises(ValueError):
                        library(run, k)
                else:
                    assert library(run, k) == pytest.approx(expected, abs=1e-12)


class TestEmbedCorpus:
    SENTENCES = [
        "alpha bravo charlie",
        "delta echo",
        "alpha delta golf hotel india",
        "bravo bravo charlie delta",
        "echo foxtrot golf",
        "hotel india juliett kilo",
        "alpha",
    ]

    def _setup(self):
        config = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=32,
                               max_len=8, vocab_size=30)
        vocab = build_vocabulary(map(tokenize, self.SENTENCES), max_size=30)
        dec = DecoderConfig(mode="enhanced", layers=1, heads=2)
        params = init_params(config, dec, np.random.default_rng(0))
        return config, vocab, params

    def test_batch_size_never_changes_vectors(self, monkeypatch):
        config, vocab, params = self._setup()
        stores = []
        for bs in (1, 3, 32):
            monkeypatch.setattr("dualmae.retrieval.EMBED_BATCH_SIZE", bs)
            stores.append(embed_corpus(self.SENTENCES, params, config, vocab))
        for store in stores[1:]:
            assert store.ids == stores[0].ids
            np.testing.assert_array_equal(store.matrix, stores[0].matrix)

    def test_vectors_are_float32_with_model_width(self):
        config, vocab, params = self._setup()
        store = embed_corpus(self.SENTENCES, params, config, vocab)
        assert store.matrix.shape == (7, 16)
        assert store.matrix.dtype == np.float32

    def test_explicit_ids(self):
        config, vocab, params = self._setup()
        ids = [f"s{i}" for i in range(7)]
        assert embed_corpus(self.SENTENCES, params, config, vocab, ids=ids).ids == ids

    def test_id_count_mismatch(self):
        config, vocab, params = self._setup()
        with pytest.raises(ValueError):
            embed_corpus(self.SENTENCES, params, config, vocab, ids=["only-one"])


class TestEmbedBuckets:
    """Length-bucketed embedding against encoding each sentence alone at
    max_len, at the desk model shape."""

    MAX_LEN = 128
    # token counts ([CLS] and [SEP] included) at and one past each bucket
    # edge, a short one, and one truncated at max_len; interleaved so that
    # neighbours in the input land in different buckets
    LENGTHS = [17, 3, 64, 33, 16, 128, 65, 32, 200, 15, 129]

    def _setup(self):
        words = [f"w{i:02d}" for i in range(40)]
        rng = np.random.default_rng(5)
        sentences = [" ".join(rng.choice(words, n - 2)) for n in self.LENGTHS]
        config = EncoderConfig(layers=2, hidden_dim=64, heads=4, ffn_dim=256,
                               max_len=self.MAX_LEN, vocab_size=48)
        vocab = build_vocabulary(map(tokenize, sentences), max_size=48)
        dec = DecoderConfig(mode="enhanced", layers=1, heads=4)
        params = init_params(config, dec, np.random.default_rng(0))
        return sentences, config, vocab, params

    def test_bucket_widths(self):
        widths = [_bucket_width(n, self.MAX_LEN) for n in self.LENGTHS]
        assert widths == [32, 16, 64, 64, 16, 128, 128, 32, 128, 16, 128]
        assert _bucket_width(20, 24) == 24

    def test_vectors_equal_encoding_alone_at_max_len(self, monkeypatch):
        sentences, config, vocab, params = self._setup()
        seqs = [encode_tokens(tokenize(text), vocab, self.MAX_LEN) for text in sentences]
        assert [len(s) for s in seqs] == [min(n, self.MAX_LEN) for n in self.LENGTHS]
        reference = []
        with no_grad():
            for seq in seqs:
                batch = make_batch([seq], pad_to=self.MAX_LEN)
                vec, _ = encode(params, config, batch.ids, batch.real)
                reference.append(vec.data[0].astype(np.float32))
        reference = np.stack(reference)
        for bs in (1, 3, 32):
            monkeypatch.setattr("dualmae.retrieval.EMBED_BATCH_SIZE", bs)
            store = embed_corpus(sentences, params, config, vocab)
            assert store.matrix.tobytes() == reference.tobytes()

    def test_a_sentence_alone_equals_its_vector_in_a_mixed_batch(self):
        # the encoder packs a batch's real rows into one product, so a
        # sentence alone shares its products with no other sentence; the
        # empty text gives the shortest input, [CLS] [SEP]
        sentences, config, vocab, params = self._setup()
        mixed = [""] + sentences + [s[: len(s) // 2] for s in sentences]
        seqs = [encode_tokens(tokenize(text), vocab, self.MAX_LEN) for text in mixed]
        assert min(len(s) for s in seqs) == 2
        widths = {_bucket_width(len(s), self.MAX_LEN) for s in seqs}
        assert widths == {16, 32, 64, 128}
        batched = embed_corpus(mixed, params, config, vocab).matrix
        for i, text in enumerate(mixed):
            alone = embed_corpus([text], params, config, vocab).matrix[0]
            assert alone.tobytes() == batched[i].tobytes(), (i, len(seqs[i]))


class TestSearchRun:
    def test_search_run_ranks_every_query(self):
        rng = np.random.default_rng(8)
        docs = EmbeddingStore(
            ids=[f"d{i}" for i in range(6)],
            matrix=rng.standard_normal((6, 4)).astype(np.float32),
        )
        queries = EmbeddingStore(
            ids=["qa", "qb"], matrix=rng.standard_normal((2, 4)).astype(np.float32)
        )
        run = search_run(queries, docs, k=3)
        assert set(run.candidates) == {"qa", "qb"}
        for qid, i in (("qa", 0), ("qb", 1)):
            assert run.candidates[qid] == full_sort_topk(queries.matrix[i], docs.ids, docs.matrix, 3)

    def test_matches_full_sort_exactly(self):
        """search_run's selection must give the full sort's lists exactly,
        ties at the cut included. Quantized values make exact ties common, some
        rows repeat under a second id, some are zero (cosine scores them 0),
        and the ids are decimal strings whose string order is not their
        numeric order."""
        rng = np.random.default_rng(31)
        ties_at_cut = 0
        for trial in range(120):
            # the first trials use a one-row store
            n_base = 1 if trial < 5 else int(rng.integers(2, 30))
            n_repeats = 0 if trial < 5 else int(rng.integers(0, n_base + 1))
            d = int(rng.integers(1, 6))
            base = np.round(rng.standard_normal((n_base, d)), 1)
            base[rng.random(n_base) < 0.15] = 0.0
            repeats = base[rng.integers(0, n_base, size=n_repeats)]
            mat = np.concatenate([base, repeats]).astype(np.float32)
            n = len(mat)
            docs = EmbeddingStore(ids=[str(i) for i in rng.permutation(n) * 7], matrix=mat)
            qmat = np.round(rng.standard_normal((4, d)), 1).astype(np.float32)
            qmat[3] = mat[int(rng.integers(n))]
            queries = EmbeddingStore(ids=["q0", "q1", "q2", "q3"], matrix=qmat)
            for metric in ("dot", "cosine"):
                for k in sorted({1, int(rng.integers(1, n + 1)), n, n + 3}):
                    run = search_run(queries, docs, k, metric)
                    for i, qid in enumerate(queries.ids):
                        expected = full_sort_topk(qmat[i], docs.ids, mat, k, metric)
                        assert run.candidates[qid] == expected
                        full = full_sort_topk(qmat[i], docs.ids, mat, n, metric)
                        ties_at_cut += k < n and full[k - 1][1] == full[k][1]
        assert ties_at_cut > 100

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    @pytest.mark.parametrize("tied", [["a", "a\x00"], ["a\x00", "a"]])
    def test_ids_that_differ_by_a_trailing_nul_keep_the_full_sort_order(self, tied, metric, monkeypatch):
        """Rows tied under "a" and "a\\x00" come back "a" first, as Python
        orders the strings, in either store order, through the filter and
        with k at least the store's size."""
        mat = np.array([[2, 1], [2, 1], [1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.float32)
        ids = tied + ["b", "c", "d", "e"]
        docs = EmbeddingStore(ids=ids, matrix=mat)
        queries = EmbeddingStore(ids=["q"], matrix=np.array([[2, 1]], dtype=np.float32))
        rescored = _count_rescored_rows(monkeypatch)
        for k in (1, 2, 3, 6, 9):
            rescored.clear()
            got = search_run(queries, docs, k, metric).candidates["q"]
            assert got == full_sort_topk(queries.matrix[0], ids, mat, k, metric), k
            assert [doc for doc, _ in got][:2] == ["a", "a\x00"][:k], k
            assert (rescored[0] < len(ids)) == (k < len(ids)), "the filter narrows k < n, k >= n rescores every row"

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_empty_store_gives_every_query_an_empty_list(self, metric):
        docs = EmbeddingStore(ids=[], matrix=np.zeros((0, 3), dtype=np.float32))
        queries = EmbeddingStore(ids=["q0", "q1"], matrix=np.array([[1, 0, 2], [0, 0, 0]], dtype=np.float32))
        for k in (1, 5):
            run = search_run(queries, docs, k, metric)
            assert run.candidates == {
                qid: full_sort_topk(q, docs.ids, docs.matrix, k, metric) for qid, q in zip(queries.ids, queries.matrix)
            }
            assert run.candidates == {"q0": [], "q1": []}

    def test_k_must_be_positive_even_without_queries(self):
        docs = EmbeddingStore(ids=["a"], matrix=np.ones((1, 2), dtype=np.float32))
        queries = EmbeddingStore(ids=[], matrix=np.zeros((0, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="k must be positive"):
            search_run(queries, docs, k=0)

    def test_dimension_mismatch_is_named(self):
        docs = EmbeddingStore(ids=["a"], matrix=np.ones((1, 3), dtype=np.float32))
        queries = EmbeddingStore(ids=["q"], matrix=np.ones((1, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="^query dim 2 does not match document dim 3$"):
            search_run(queries, docs, k=1)


class TestGemvRowRule:
    """The float64 matrix-vector product rule that ``_rescore`` relies on,
    pinned as ``linear``'s row rule is. On OpenBLAS 0.3.31 the kernel scores
    rows in blocks of four and the last ``n mod 4`` rows on a path of their
    own, and a row's bits depend only on which path scores it. So a gathered
    subset padded to a multiple of four by repeating a row, and the last
    ``4 + n mod 4`` rows, give the full product's bits."""

    @pytest.mark.parametrize("d", [16, 64, 256, 768])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_a_row_keeps_its_bits_in_a_padded_subset_and_in_the_tail(self, d, r):
        rng = np.random.default_rng([41, d, r])
        n = 200 + r
        matrix = rng.standard_normal((n, d)).astype(np.float32)
        wide = matrix.astype(np.float64)
        head = n - r
        for q in rng.standard_normal((3, d)):
            full = wide @ q
            for size in range(1, 10):
                rows = rng.choice(head, size=size, replace=False)
                padded = np.concatenate([rows, np.repeat(rows[:1], -size % 4)])
                assert (wide[padded] @ q)[:size].tobytes() == full[rows].tobytes(), ("subset", size)
            assert (wide[head - 4 :] @ q)[4:].tobytes() == full[head:].tobytes(), "tail"
            rows = rng.permutation(n)[:37]
            assert _rescore(matrix, rows, q).tobytes() == full[rows].tobytes(), "_rescore"


def test_row_norms_taken_in_chunks_equal_the_whole_store_norms():
    """The cosine divisors are the norms of the whole float64 store, bit for
    bit, although ``_row_norms`` converts the store a chunk at a time."""
    rng = np.random.default_rng(42)
    matrix = rng.standard_normal((retrieval.NORM_CHUNK * 2 + 3, 64)).astype(np.float32)
    expected = np.linalg.norm(matrix.astype(np.float64), axis=1)
    assert _row_norms(matrix).tobytes() == expected.tobytes()


def _count_rescored_rows(monkeypatch):
    """The row count of every ``_rescore`` call search_run makes from now on."""
    counts = []
    monkeypatch.setattr(retrieval, "_rescore", lambda m, rows, q: counts.append(len(rows)) or _rescore(m, rows, q))
    return counts


class TestSearchLargeStore:
    """search_run against the full sort on stores where the float32 filter
    does the work, at a preset width and the widest, at every ``n mod 4``.
    The rounded store holds exact ties (rows repeated under second ids,
    values on a 0.1 grid, zero rows) and rows so large that a query's
    float32 products overflow and it takes the full product; the tiny
    store's values are float32 subnormals, whose products underflow; the
    queries include copies of store rows, a zero query and a float64 query
    store."""

    @staticmethod
    def _stores(rng, d, n):
        gaussian = rng.standard_normal((n, d)).astype(np.float32)
        base = np.round(rng.standard_normal((n - n // 4, d)), 1)
        base[rng.random(len(base)) < 0.05] = 0.0
        huge = np.float32(np.finfo(np.float32).max / d)
        base[0], base[1] = huge, -huge
        rounded = np.concatenate([base, base[rng.integers(0, len(base), size=n // 4)]]).astype(np.float32)
        tiny = (rng.integers(-3, 4, size=(n, d)) * 2.0**-149).astype(np.float32)  # the smallest subnormals
        return {"gaussian": gaussian, "rounded": rounded, "tiny": tiny}

    @staticmethod
    def _queries(rng, mat):
        d = mat.shape[1]
        # rows 0 and 1 of the rounded store are its huge rows
        picked = mat[np.concatenate([[0], rng.choice(np.arange(2, len(mat)), size=2, replace=False)])]
        rows = np.concatenate([rng.standard_normal((4, d)).astype(np.float32), picked])
        wide = rng.standard_normal((3, d))  # float64 values that float32 cannot hold
        return {
            "float32": EmbeddingStore(ids=[f"q{i}" for i in range(len(rows))], matrix=rows),
            "zero": EmbeddingStore(ids=["zero"], matrix=np.zeros((1, d), dtype=np.float32)),
            "float64": EmbeddingStore(ids=[f"w{i}" for i in range(len(wide))], matrix=wide),
        }

    @pytest.mark.parametrize("d, n_base", [(64, 600), (768, 152)])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_matches_full_sort_exactly(self, d, n_base, r, monkeypatch):
        rng = np.random.default_rng([43, d, r])
        n = n_base + r
        rescored = _count_rescored_rows(monkeypatch)
        ties_at_cut = 0
        for name, mat in self._stores(rng, d, n).items():
            docs = EmbeddingStore(ids=[str(i) for i in rng.permutation(n) * 7], matrix=mat)
            for kind, queries in self._queries(rng, mat).items():
                for metric in ("dot", "cosine"):
                    full = {
                        qid: full_sort_topk(q, docs.ids, mat, n, metric) for qid, q in zip(queries.ids, queries.matrix)
                    }
                    for k in (1, 10, n - 1, n, n + 3):
                        rescored.clear()
                        run = search_run(queries, docs, k, metric)
                        for qid, expected in full.items():
                            assert run.candidates[qid] == expected[:k], (name, metric, k, qid)
                            ties_at_cut += k < n and expected[k - 1][1] == expected[k][1]
                        if name == "gaussian" and kind != "zero" and k <= 10:
                            # every query went through the filter, which
                            # rescored fewer rows than the store holds
                            assert len(rescored) == len(queries.ids) and max(rescored) < n, (kind, metric, k)
                        if name == "rounded" and kind == "float32" and metric == "dot" and k < n:
                            # the copy of a huge row (q4) took the full product:
                            # it rescored every row, and at k <= 10 each Gaussian
                            # query fewer (a copy of a zero row keeps them all)
                            assert len(rescored) == len(queries.ids) and rescored[4] == n, (metric, k)
                            assert k > 10 or max(rescored[:4]) < n, (metric, k)
        assert ties_at_cut > 0

    def test_a_query_whose_products_overflow_takes_the_full_product(self, monkeypatch):
        rng = np.random.default_rng(44)
        d, n = 64, 101
        mat = np.round(rng.standard_normal((n, d)), 1).astype(np.float32)
        mat[7] = np.finfo(np.float32).max / d * np.resize([1, -1], d)
        docs = EmbeddingStore(ids=[f"d{i:03d}" for i in range(n)], matrix=mat)
        # products of row 7 overflow to inf, and to inf - inf for "mixed"
        rows = np.stack([mat[7], np.abs(mat[7]), mat[8]])
        queries = EmbeddingStore(ids=["huge", "mixed", "plain"], matrix=rows)
        rescored = _count_rescored_rows(monkeypatch)
        for metric in ("dot", "cosine"):
            run = search_run(queries, docs, 3, metric)
            for i, qid in enumerate(queries.ids):
                assert run.candidates[qid] == full_sort_topk(rows[i], docs.ids, mat, 3, metric)
        # huge and mixed rescore every row, for each metric
        assert [count == n for count in rescored] == [True, True, False] * 2, "only the plain query goes through the filter"

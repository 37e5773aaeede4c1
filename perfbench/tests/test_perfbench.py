"""Tests of the benchmark itself: its inputs, its tracer and its oracle."""

import json
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import phases
import run
import tracer
from dualmae import autodiff as ad
from dualmae import decoder, encoder, model, optim, retrieval, text, training
from dualmae.retrieval import EmbeddingStore, search_run
from tracer import STEP, Spans, trace_package
from workloads import (
    CORPUS_SENTENCES,
    STORE_ROWS,
    TRAIN_WORDS,
    WORKLOADS,
    retrieval_inputs,
    training_corpus,
)

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class TestInputs:
    def test_training_corpus_is_a_pure_function_of_the_seed(self):
        a = training_corpus(3)
        assert a == training_corpus(3)
        assert a != training_corpus(4)
        assert len(a) == CORPUS_SENTENCES
        lengths = [len(line.split()) for line in a]
        assert min(lengths) >= TRAIN_WORDS[0] and max(lengths) <= TRAIN_WORDS[1]

    def test_retrieval_inputs_are_a_pure_function_of_the_seed(self):
        a, b, c = retrieval_inputs(3, 16), retrieval_inputs(3, 16), retrieval_inputs(4, 16)
        for field in ("queries", "passages", "query_ids", "passage_ids", "copy_ids", "filler_ids", "labels"):
            assert getattr(a, field) == getattr(b, field)
        assert a.filler.tobytes() == b.filler.tobytes()
        assert a.queries != c.queries and a.filler.tobytes() != c.filler.tobytes()

    def test_store_ids_order_differently_as_strings_and_numbers(self):
        inputs = retrieval_inputs(0, 16)
        ids = inputs.passage_ids + inputs.copy_ids + inputs.filler_ids
        assert len(set(ids)) == len(ids) == STORE_ROWS
        assert sorted(ids) != sorted(ids, key=int)

    def test_each_query_is_a_span_of_its_passage(self):
        inputs = retrieval_inputs(0, 16)
        for query, passage in zip(inputs.queries, inputs.passages):
            assert f" {query} " in f" {passage} "


def _package_namespaces():
    owners = (ad, decoder, encoder, model, retrieval, text, training, optim.AdamW)
    return {owner: dict(vars(owner)) for owner in owners}


def _assert_restored(before):
    for owner, names in before.items():
        now = vars(owner)
        assert now.keys() == names.keys()
        for name, value in names.items():
            assert now[name] is value, f"{owner}.{name} was not restored"


class TestPatches:
    def test_trace_package_restores_every_original(self):
        before = _package_namespaces()
        patches = trace_package(Spans())
        assert training.train_step is not before[training]["train_step"]
        assert ad.matmul is not before[ad]["matmul"]
        assert optim.AdamW.step is not before[optim.AdamW]["step"]
        assert patches.restore() == []
        _assert_restored(before)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TestSelfTime:
    def test_self_time_is_duration_minus_direct_children(self):
        # step [0, 100] holds a [10, 30] and b [40, 90]; b holds c [50, 60]
        spans = Spans(clock=FakeClock([0, 10, 30, 40, 50, 60, 90, 100]))
        spans.enter(STEP)
        spans.enter("a")
        spans.leave()
        spans.enter("b")
        spans.enter("c")
        spans.leave()
        spans.leave()
        spans.leave()
        assert spans.total_ns == Counter({STEP: 100, "a": 20, "b": 50, "c": 10})
        assert spans.self_ns == Counter({STEP: 30, "a": 20, "b": 40, "c": 10})
        assert spans.samples[STEP] == [100]

    def test_backward_is_charged_to_the_op_and_the_block_that_recorded_it(self):
        spans = Spans()
        matmul = spans.timed_op("matmul", ad.matmul)
        a = ad.parameter(np.ones((2, 3)))
        b = ad.parameter(np.ones((3, 2)))
        assert matmul(a, b)._backward is not None  # outside a step: not counted
        assert spans.calls["op.matmul.fwd"] == 0
        spans.enter(STEP)
        spans.enter("block.enc0.attn")
        out = matmul(a, b)
        spans.leave()
        ad.backward(ad.sum_all(out))
        spans.leave()
        assert spans.calls["op.matmul.fwd"] == 1
        assert spans.calls["op.matmul.bwd"] == 1
        assert spans.counts["autodiff.nodes"] == 1
        assert spans.total_ns["block.enc0.attn.bwd"] == spans.total_ns["op.matmul.bwd"] > 0
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))


class TestOracle:
    def _store(self):
        # rows 0 and 1 are equal, so "10" and "9" tie; numerically 9 comes
        # first, as strings "10" does
        matrix = np.array([[1, 0], [1, 0], [0.5, 0], [0, 1]], dtype=np.float32)
        return EmbeddingStore(ids=["9", "10", "2", "100"], matrix=matrix)

    def test_oracle_breaks_ties_by_string_id_and_matches_search(self):
        store = self._store()
        query = np.array([2, 0], dtype=np.float32)
        expected = phases.oracle_topk(query, np.array(store.ids), store.matrix.astype(np.float64), 3)
        assert [doc for doc, _ in expected] == ["10", "9", "2"]
        queries = EmbeddingStore(ids=["q"], matrix=query[None, :])
        assert search_run(queries, store, 3).candidates["q"] == expected



@pytest.fixture
def tiny(monkeypatch):
    """A workload small enough to run both phases in a few seconds."""
    monkeypatch.setattr(phases, "MIN_SEGMENTS", 2)
    return replace(WORKLOADS["train-basic"], segment_steps=2, round_queries=16)


class TestPhases:
    def test_traced_run_passes_every_check_and_reports_every_metric(self, tiny, tmp_path):
        tally = phases.Tally()
        spans = Spans()
        before = _package_namespaces()
        pre, ret = phases.run(tiny, 5, 0.1, tmp_path, spans, tally)
        assert tally.failed == 0, tally.problems
        _assert_restored(before)
        # odd-numbered segments and rounds are traced
        assert pre.traced == [i % 2 == 1 for i in range(pre.count)]
        assert ret.traced == [i % 2 == 1 for i in range(ret.count)]
        assert spans.calls[STEP] == tiny.segment_steps * (pre.count // 2) > 0
        # every segment and round is followed by set-up probes of both phases
        units = pre.count + ret.count
        assert len(pre.setup_ns) == pre.count + phases.SETUP_PROBES * units
        assert len(ret.setup_ns) == ret.count + phases.SETUP_PROBES * units
        layers = run.per_layer(spans, pre, ret)
        assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
        assert layers["autodiff.nodes_per_step"] == int(layers["autodiff.nodes_per_step"])
        assert set(run.end_to_end(pre, ret)) == {m["name"] for m in SPEC["end_to_end"]}

    def test_a_nondeterministic_step_is_caught(self, tiny, tmp_path, monkeypatch):
        real = training.train_step
        calls = []

        def drifting(*args, **kwargs):
            loss, coverage = real(*args, **kwargs)
            calls.append(loss)
            return loss + (1e-3 if len(calls) > tiny.segment_steps else 0.0), coverage

        monkeypatch.setattr(training, "train_step", drifting)
        tally = phases.Tally()
        pre, _ = phases.run(tiny, 5, 0.1, tmp_path, None, tally)
        # every drifted loss, and each loss log they were written to
        assert tally.failed == (tiny.segment_steps + 1) * (pre.count - 1)
        assert "losses differ" in tally.problems[0] and "loss_log.tsv differs" in tally.problems[1]

    def test_a_tie_swapped_in_a_ranking_is_caught_by_the_oracle(self, tiny, tmp_path, monkeypatch):
        real = retrieval.search_run
        swapped = []

        def swapping(*args, **kwargs):
            ranking = real(*args, **kwargs)
            for qid, got in ranking.candidates.items():
                tie = next((i for i in range(len(got) - 1) if got[i][1] == got[i + 1][1]), None)
                if tie is not None:
                    got[tie], got[tie + 1] = got[tie + 1], got[tie]
                    swapped.append(qid)
            return ranking

        monkeypatch.setattr(retrieval, "search_run", swapping)
        tally = phases.Tally()
        phases.run(tiny, 5, 0.1, tmp_path, None, tally)
        # the same swaps every round, so only the oracle's queries can tell
        query_ids = [f"q{i}" for i in range(tiny.round_queries)]
        checked = set(query_ids[:: max(1, len(query_ids) // phases.ORACLE_QUERIES)])
        caught = sum(qid in checked for qid in swapped)
        assert caught > 0
        assert tally.failed == caught
        assert all("disagree with the oracle" in problem for problem in tally.problems)

    def test_traced_steps_that_disagree_with_the_outside_clock_are_caught(self, tiny, tmp_path):
        tally = phases.Tally()
        spans = Spans(clock=lambda: 2 * time.perf_counter_ns())  # a tracer clock running double speed
        pre, _ = phases.run(tiny, 5, 0.1, tmp_path, spans, tally)
        assert tally.failed == sum(pre.traced) > 0
        assert all("the outside clock" in problem for problem in tally.problems)

    def test_step_time_outside_every_traced_child_is_caught(self, tiny, tmp_path, monkeypatch):
        real = training.train_step

        def stalling(*args, **kwargs):
            time.sleep(0.05)  # work inside the step that no traced child covers
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "train_step", stalling)
        tally = phases.Tally()
        pre, _ = phases.run(tiny, 5, 0.1, tmp_path, Spans(), tally)
        assert tally.failed == sum(pre.traced) > 0
        assert all("outside every traced child" in problem for problem in tally.problems)

    def test_a_raising_step_is_counted_and_ends_the_phase(self, tiny, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise FloatingPointError("boom")

        monkeypatch.setattr(training, "train_step", broken)
        tally = phases.Tally()
        pre, ret = phases.run(tiny, 5, 0.1, tmp_path, None, tally)
        assert (tally.attempted, tally.failed) == (1, 1)
        assert pre.count == 0 and ret is None
        assert "FloatingPointError: boom" in tally.problems[0]


def test_tracing_overhead_pairs_each_traced_unit_with_the_untraced_one_before():
    # units 1 and 3 are traced: 110 against 100, 240 against 200
    times = [100.0, 110.0, 200.0, 240.0, 150.0]
    traced = [False, True, False, True, False]
    assert phases.paired_overhead_pct(times, traced) == pytest.approx(15.0)
    assert np.isnan(phases.paired_overhead_pct(times, [False] * 5))


def test_every_reported_op_is_traced():
    assert set(tracer.REPORTED_OPS) <= set(tracer.OPS)
    assert all(callable(getattr(ad, op)) for op in tracer.OPS)

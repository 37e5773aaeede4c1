"""The two phases every workload runs, interleaved, with their checks.

Pretraining runs ``run_pretraining`` in segments of a fixed step count,
each from scratch in a fresh directory with the same seed. Every segment
is therefore a set-up sample and a replay of the first: its losses, loss
log and checkpoint must match the first segment's byte for byte.

Retrieval loads the checkpoint the first segment wrote and, in rounds over
the same inputs, embeds queries and passages, round-trips both through the
embedding text files, searches a store of about 20k rows and scores the
ranking. Every round must repeat the first exactly.

Segments and rounds interleave, each phase getting its workload's share of
the run, so that both sample the whole run: the speed of a shared host
drifts within seconds. Rates are medians over segments or rounds. After
every segment or round, each phase's set-up is also timed on its own a few
times, so that set-up time is a median of many samples. With tracing on,
each phase alternates between untraced and traced units, so that each
traced unit can be compared with the untraced one just before it.
"""

from __future__ import annotations

import gc
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import STEP, Patches, Spans, trace_package
from workloads import CHECKPOINT_EVERY, TOP_K, Workload, retrieval_inputs, training_corpus

MIN_SEGMENTS = 3
MIN_ROUNDS = 2
STEP1_LOSS_TOLERANCE = 0.1  # |loss at step 1 - ln V|, in nats
ORACLE_QUERIES = 8  # queries per round checked against the NumPy oracle
PROBE_SENTENCES = 2  # sentences of round 0 re-embedded alone
SETUP_PROBES = 2  # set-ups timed per phase after every segment or round
STEP_CLOCK_TOLERANCE = 0.01  # traced step time may exceed the outside clock's by this share
MAX_STEP_SELF_SHARE = 0.02  # share of traced step time outside every traced child


def now() -> int:
    return time.perf_counter_ns()


@dataclass
class Tally:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ops(self, count: int, bad: int = 0, what: str = "") -> None:
        self.attempted += count
        if bad:
            self.fail(what, bad)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)

    def crashed(self, what: str, attempted: int) -> None:
        """Count the operation that raised, with its traceback on stderr."""
        traceback.print_exc()
        error = sys.exc_info()[1]
        self.ops(attempted, 1, f"{what}: {type(error).__name__}: {error}")


def _restore(patches: Patches, tally: Tally) -> None:
    stale = patches.restore()
    if stale:
        tally.fail(f"wrappers not restored: {', '.join(stale)}")


def paired_overhead_pct(times: list[float], traced: list[bool]) -> float:
    """Median, over traced units, of a traced unit's time against the
    untraced unit just before it, as a percentage above 1."""
    ratios = [times[i] / times[i - 1] for i in range(1, len(times)) if traced[i] and not traced[i - 1]]
    return 100.0 * (statistics.median(ratios) - 1.0) if ratios else math.nan


class _SetUpDone(Exception):
    """Raised in place of the first training step: set-up is over."""


class StepClock:
    """Times each ``train_step`` call from the outside; tracing stays off."""

    def __init__(self):
        self.first_start: int | None = None
        self.durations: list[int] = []
        self.losses: list[float] = []
        self.tokens = 0

    def wrap(self, train_step):
        def timed_step(*args, **kwargs):
            start = now()
            if self.first_start is None:
                self.first_start = start
            loss, coverage = train_step(*args, **kwargs)
            self.durations.append(now() - start)
            self.losses.append(loss)
            batch = args[5] if len(args) > 5 else kwargs["batch"]
            self.tokens += int(batch.real.sum()) - 2 * batch.size  # [CLS] and [SEP] are not content
            return loss, coverage

        return timed_step


@dataclass
class Pretrain:
    count: int = 0  # segments run
    setup_ns: list[int] = field(default_factory=list)  # segments' and probes' set-ups
    step_ns: list[int] = field(default_factory=list)  # untraced segments
    traced: list[bool] = field(default_factory=list)  # per segment
    segment_step_ns: list[float] = field(default_factory=list)  # median step per segment
    token_rates: list[float] = field(default_factory=list)  # per untraced segment, first step to return
    losses: list[float] = field(default_factory=list)
    checkpoint_load_ns: list[int] = field(default_factory=list)
    checkpoint_bytes: int = 0

    @property
    def loss_at_end(self) -> float:
        tail = self.losses[-max(1, len(self.losses) // 4) :]
        return float(np.mean(tail))


class Pretraining:
    """Runs one pretraining segment at a time."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, spans: Spans | None, tally: Tally):
        from dualmae.config import resolve_configs

        self.workload, self.workdir, self.spans, self.tally = workload, workdir, spans, tally
        self.corpus = workdir / "corpus.txt"
        self.corpus.write_text("\n".join(training_corpus(seed)) + "\n", encoding="utf-8")
        self.configs = resolve_configs("desk", overrides={"mode": workload.mode}, env={})
        self.model_dir = workdir / "model"  # segment 0's checkpoint and vocabulary
        self.first: dict[str, bytes] = {}
        self.out = Pretrain()

    def run_once(self) -> bool:
        """One segment; False when it raised and the phase cannot go on."""
        from dualmae import training

        segment, out, tally = self.out.count, self.out, self.tally
        traced = self.spans is not None and segment % 2 == 1
        seg_dir = self.workdir / f"segment{segment}"
        clock = StepClock()
        patches = Patches()
        patches.swap(training, "train_step", clock.wrap)
        tracing = trace_package(self.spans) if traced else None
        if traced:
            first_span, self_before = len(self.spans.samples[STEP]), self.spans.self_ns[STEP]
        called = now()
        try:
            ckpt = training.run_pretraining(
                self.corpus, seg_dir, *self.configs,
                stop_after_steps=self.workload.segment_steps, checkpoint_every=CHECKPOINT_EVERY,
            )
            returned = now()
        except Exception:  # a failed step ends the phase; the result reports it
            tally.crashed(f"segment {segment}", len(clock.losses) + 1)
            return False
        finally:
            if tracing is not None:
                _restore(tracing, tally)
            _restore(patches, tally)

        out.traced.append(traced)
        out.segment_step_ns.append(statistics.median(clock.durations))
        if traced:
            self._check_step_spans(segment, clock, first_span, self_before)
        else:
            out.step_ns += clock.durations
            out.token_rates.append(clock.tokens / ((returned - clock.first_start) / 1e9))
        out.setup_ns.append(clock.first_start - called)
        self._check_losses(segment, clock.losses, seg_dir)
        try:
            self._check_checkpoint(segment, ckpt)
        except Exception:  # same: the result reports it
            tally.crashed(f"segment {segment}: checkpoint round trip", 1)
            return False
        if segment == 0:
            self.model_dir.mkdir()
            for name in ("model.ckpt", "vocab.txt"):
                shutil.copy(seg_dir / name, self.model_dir / name)
        shutil.rmtree(seg_dir)
        out.count += 1
        return True

    def probe_setup(self) -> None:
        """Time one ``run_pretraining`` set-up: from the call to the first
        step, which is not run."""
        from dualmae import training

        probe_dir = self.workdir / "probe"
        reached: list[int] = []

        def first_step(*args, **kwargs):
            reached.append(now())
            raise _SetUpDone

        patches = Patches()
        patches.swap(training, "train_step", lambda _: first_step)
        called = now()
        try:
            training.run_pretraining(self.corpus, probe_dir, *self.configs, stop_after_steps=1)
        except _SetUpDone:
            pass
        finally:
            _restore(patches, self.tally)
        vocab = (probe_dir / "vocab.txt", self.model_dir / "vocab.txt")
        same = bool(reached) and vocab[0].read_bytes() == vocab[1].read_bytes()
        self.tally.ops(1, int(not same), "set-up probe: no first step, or a vocabulary unlike segment 0's")
        if reached:
            self.out.setup_ns.append(reached[0] - called)
        shutil.rmtree(probe_dir)

    def _check_step_spans(self, segment: int, clock: StepClock, first_span: int, self_before: int) -> None:
        """The tracer's step spans against the clock that timed the same
        steps from outside them, and their self time against their length."""
        spans = self.spans
        traced = sum(spans.samples[STEP][first_span:])
        timed = sum(clock.durations)
        if not timed <= traced <= timed * (1 + STEP_CLOCK_TOLERANCE):
            self.tally.fail(f"segment {segment}: traced steps took {traced} ns, the outside clock {timed} ns")
        untraced = spans.self_ns[STEP] - self_before
        if untraced > MAX_STEP_SELF_SHARE * traced:
            self.tally.fail(
                f"segment {segment}: {untraced} of {traced} ns of train_step lie outside every traced child"
            )

    def _check_losses(self, segment: int, losses: list[float], seg_dir: Path) -> None:
        from dualmae.text import Vocabulary

        out, tally, steps = self.out, self.tally, self.workload.segment_steps
        bad = sum(not math.isfinite(x) for x in losses) + max(0, steps - len(losses))
        tally.ops(steps, bad, f"segment {segment}: {bad} steps missing or with a non-finite loss")
        files = {name: (seg_dir / name).read_bytes() for name in ("loss_log.tsv", "model.ckpt")}
        if segment == 0:
            out.losses = losses
            self.first.update(files)
            vocab_size = len(Vocabulary.load(seg_dir / "vocab.txt"))
            if not abs(losses[0] - math.log(vocab_size)) < STEP1_LOSS_TOLERANCE:
                tally.fail(f"step-1 loss {losses[0]} is not near ln V = {math.log(vocab_size)}")
            if not out.loss_at_end < losses[0]:
                tally.fail(f"loss did not fall: {losses[0]} at step 1, {out.loss_at_end} at the end")
            return
        differ = sum(a != b for a, b in zip(losses, out.losses))
        if differ:
            tally.fail(f"segment {segment}: {differ} losses differ from segment 0 with the same seed", differ)
        for name, blob in files.items():
            if blob != self.first[name]:
                tally.fail(f"segment {segment}: {name} differs from segment 0 with the same seed")

    def _check_checkpoint(self, segment: int, ckpt: Path) -> None:
        from dualmae.checkpoint import load_checkpoint, save_checkpoint

        t = now()
        loaded = load_checkpoint(ckpt)
        self.out.checkpoint_load_ns.append(now() - t)
        resaved = ckpt.with_name("resaved.ckpt")
        save_checkpoint(
            resaved, loaded.params, loaded.train, loaded.encoder, loaded.decoder,
            loaded.optimizer, loaded.rng, loaded.progress, loaded.vocab_file,
        )
        blob = ckpt.read_bytes()
        self.tally.ops(2, int(resaved.read_bytes() != blob), f"segment {segment}: save-load-save changed the checkpoint")
        self.out.checkpoint_bytes = len(blob)


@dataclass
class Retrieve:
    count: int = 0  # rounds run
    sentences: int = 0  # embedded per round
    queries: int = 0  # searched per round
    setup_ns: list[int] = field(default_factory=list)  # rounds' and probes' set-ups
    traced: list[bool] = field(default_factory=list)  # per round
    embed_ns: list[int] = field(default_factory=list)  # per round
    search_ns: list[int] = field(default_factory=list)  # per round
    save_embeddings_ns: list[int] = field(default_factory=list)
    load_embeddings_ns: list[int] = field(default_factory=list)
    metrics_ns: list[int] = field(default_factory=list)
    ties: int = 0


def oracle_topk(query: np.ndarray, ids: np.ndarray, matrix64: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by float64 dot product, ties broken by ascending string id."""
    scores = matrix64 @ np.asarray(query, dtype=np.float64)
    order = np.lexsort((ids, -scores))[:k]
    return [(str(ids[i]), float(scores[i])) for i in order]


class Retrieval:
    """Runs one retrieval round at a time, always over the same inputs."""

    def __init__(
        self, workload: Workload, seed: int, workdir: Path, model_dir: Path, spans: Spans | None, tally: Tally
    ):
        self.workdir, self.model_dir, self.spans, self.tally = workdir, model_dir, spans, tally
        self.inputs = retrieval_inputs(seed, workload.round_queries)
        rng = np.random.default_rng([seed, 2])
        self.probes = rng.choice(2 * workload.round_queries, PROBE_SENTENCES, replace=False)
        self.sentences = self.inputs.queries + self.inputs.passages
        self.doc_ids = np.array(self.inputs.passage_ids + self.inputs.copy_ids + self.inputs.filler_ids)
        self.reference: dict[str, object] = {}
        self.out = Retrieve(sentences=len(self.sentences), queries=len(self.inputs.queries))

    def run_once(self) -> bool:
        """One round; False when a call raised and the phase cannot go on."""
        from dualmae.retrieval import (
            EmbeddingStore, embed_corpus, load_embeddings, mrr_at_k, ndcg_at_k, recall_at_k,
            save_embeddings, search_run,
        )

        rnd, out, tally, inputs = self.out.count, self.out, self.tally, self.inputs
        traced = self.spans is not None and rnd % 2 == 1
        tracing = trace_package(self.spans) if traced else None
        try:
            loaded, vocab = self.load_model()

            embed_ns = 0
            stores = []
            for texts, ids in ((inputs.queries, inputs.query_ids), (inputs.passages, inputs.passage_ids)):
                t = now()
                stores.append(embed_corpus(texts, loaded.params, loaded.encoder, vocab, ids=ids))
                embed_ns += now() - t
            self._check_embeddings(rnd, np.concatenate([s.matrix for s in stores]), loaded, vocab)

            trips = []
            for name, store in zip(("queries", "passages"), stores):
                path = self.workdir / f"{name}.emb"
                t = now()
                save_embeddings(path, store)
                out.save_embeddings_ns.append(now() - t)
                t = now()
                back = load_embeddings(path)
                out.load_embeddings_ns.append(now() - t)
                if back.ids != store.ids or back.matrix.tobytes() != store.matrix.tobytes():
                    tally.fail(f"round {rnd}: {name} embedding file round trip is not bit-exact", len(store.ids))
                trips.append(back)
            queries, passages = trips

            docs = EmbeddingStore(
                ids=list(self.doc_ids),
                matrix=np.concatenate([passages.matrix, passages.matrix, inputs.filler]),
            )
            t = now()
            run = search_run(queries, docs, TOP_K, labels=inputs.labels)
            search_ns = now() - t
            self._check_search(rnd, run, queries, docs)

            t = now()
            scores = (mrr_at_k(run, TOP_K), recall_at_k(run, TOP_K), ndcg_at_k(run, TOP_K))
            out.metrics_ns.append(now() - t)
            again = (mrr_at_k(run, TOP_K), recall_at_k(run, TOP_K), ndcg_at_k(run, TOP_K))
            first = self.reference.setdefault("scores", scores)
            bad = sum(not (0.0 <= s <= 1.0) or s != a or s != f for s, a, f in zip(scores, again, first))
            tally.ops(3, bad, f"round {rnd}: ranking metrics {scores} out of [0, 1] or not repeatable")
        except Exception:  # a failed call ends the phase; the result reports it
            tally.crashed(f"round {rnd}", 1)
            return False
        finally:
            if tracing is not None:
                _restore(tracing, tally)

        out.traced.append(traced)
        out.embed_ns.append(embed_ns)
        out.search_ns.append(search_ns)
        out.count += 1
        return True

    def load_model(self):
        """Retrieval set-up: load the checkpoint and its vocabulary, timed."""
        from dualmae.checkpoint import load_checkpoint
        from dualmae.text import Vocabulary

        t = now()
        loaded = load_checkpoint(self.model_dir / "model.ckpt")
        vocab = Vocabulary.load(self.model_dir / loaded.vocab_file)
        self.out.setup_ns.append(now() - t)
        self.tally.ops(1)
        return loaded, vocab

    def probe_setup(self) -> None:
        self.load_model()

    def finish(self) -> None:
        if self.out.ties == 0:
            self.tally.fail("no exact score tie reached a checked top-k list")

    def _check_embeddings(self, rnd, matrix, loaded, vocab) -> None:
        from dualmae.retrieval import embed_corpus

        bad = ~np.isfinite(matrix).all(axis=1)
        first = self.reference.setdefault("embeddings", matrix)
        bad |= (matrix != first).any(axis=1)
        # later rounds must equal round 0, so probing round 0 covers them; it
        # is never traced, which keeps the probes out of the per-batch figures
        for i in self.probes if rnd == 0 else ():
            alone = embed_corpus([self.sentences[i]], loaded.params, loaded.encoder, vocab).matrix[0]
            bad[i] |= alone.tobytes() != matrix[i].tobytes()
        self.tally.ops(len(self.sentences), int(bad.sum()), f"round {rnd}: {int(bad.sum())} embeddings "
                       "non-finite, batch-dependent or different from round 0")

    def _check_search(self, rnd, run, queries, docs) -> None:
        matrix64 = docs.matrix.astype(np.float64)
        first = self.reference.setdefault("candidates", run.candidates)
        bad = 0
        checked = set(queries.ids[:: max(1, len(queries.ids) // ORACLE_QUERIES)])
        for i, qid in enumerate(queries.ids):
            got = run.candidates[qid]
            wrong = got != first[qid] or len(got) != TOP_K
            if qid in checked:
                expected = oracle_topk(queries.matrix[i], self.doc_ids, matrix64, TOP_K)
                wrong |= got != expected
                self.out.ties += sum(a[1] == b[1] for a, b in zip(expected, expected[1:]))
            bad += wrong
        self.tally.ops(len(queries.ids), bad, f"round {rnd}: {bad} queries disagree with the oracle or round 0")


def run(
    workload: Workload, seed: int, seconds: float, workdir: Path, spans: Spans | None, tally: Tally
) -> tuple[Pretrain, Retrieve | None]:
    """Interleave segments and rounds for about ``seconds``, each phase kept
    to its share of the time spent, until both have run their minimum."""
    units: dict[str, Pretraining | Retrieval] = {"pre": Pretraining(workload, seed, workdir, spans, tally)}
    spent = {"pre": 0, "ret": 0}
    start = now()

    def next_phase() -> str:
        behind = spent["pre"] <= workload.train_share * (spent["pre"] + spent["ret"])
        return "pre" if "ret" not in units or behind else "ret"

    while True:
        gc.collect()  # every unit starts without the cyclic autodiff graphs of the last
        phase = next_phase()
        t = now()
        ok = units[phase].run_once()
        spent[phase] += now() - t
        if not ok:
            break
        if "ret" not in units:
            units["ret"] = Retrieval(workload, seed, workdir, units["pre"].model_dir, spans, tally)
        try:
            for _ in range(SETUP_PROBES):
                units["pre"].probe_setup()
                units["ret"].probe_setup()
        except Exception:  # same: the result reports it
            tally.crashed("set-up probe", 1)
            break
        if units["pre"].out.count >= MIN_SEGMENTS and units["ret"].out.count >= MIN_ROUNDS:
            following = next_phase()
            if (now() - start + spent[following] / units[following].out.count) / 1e9 > seconds:
                units["ret"].finish()
                break
    return units["pre"].out, units["ret"].out if "ret" in units else None

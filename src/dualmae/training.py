"""The pre-training loop: mask twice, encode once, reconstruct, update.

One step works on one batch: pollute the encoder input moderately, squeeze
the sentence through the embedding bottleneck, then ask the shallow
decoder to rebuild the sentence under its own aggressive masking. All
randomness flows from two generator streams derived from the config seed
(one for parameter init, one for mask draws), so a fixed seed fixes the
whole run, and a checkpoint carries enough state to resume mid-run on the
exact trajectory the uninterrupted run would have taken.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from .checkpoint import LoadedCheckpoint, load_checkpoint, load_checkpoint_vocabulary, save_checkpoint
from .config import TrainConfig
from .decoder import decode_basic, decode_enhanced, reconstruction_loss
from .encoder import encode
from .masking import MaskedBatch, coverage_counts, mask_batch
# output_logits stays imported: perfbench/tracer.py swaps training.output_logits by name
from .model import DecoderConfig, EncoderConfig, ModelParams, init_params, output_logits  # noqa: F401
from .optim import AdamW, clip_global_norm, warmup_scale
from .text import Batch, batch_iter, build_vocabulary, encode_tokens, load_corpus

GRAD_CLIP_NORM = 1.0
CHECKPOINT_NAME = "model.ckpt"
VOCAB_NAME = "vocab.txt"
LOG_NAME = "loss_log.tsv"


class TrainingDiverged(RuntimeError):
    """The loss or the gradient stopped being finite."""


def batch_coverage(mbatch: MaskedBatch) -> float:
    """Fraction of content tokens this step's decoder loss touches."""
    content, covered = coverage_counts(mbatch.ids, mbatch.dec_targets)
    return covered / content


def step_loss(
    params: ModelParams,
    train: TrainConfig,
    enc_config: EncoderConfig,
    dec_config: DecoderConfig,
    mbatch: MaskedBatch,
) -> Tensor:
    """Forward pass for one already-masked batch, returning the scalar loss.

    The encoder's final states are computed at the encoder-masked
    positions only when the encoder MLM loss reads them.
    """
    with_mlm = train.encoder_mlm_weight > 0.0
    sentence, hidden = encode(
        params, enc_config, mbatch.enc_ids, mbatch.real, states_at=mbatch.enc_masked if with_mlm else None
    )
    if dec_config.mode == "basic":
        _, loss = decode_basic(params, dec_config, sentence, mbatch)
    else:
        _, loss = decode_enhanced(params, dec_config, sentence, mbatch)
    if with_mlm:
        aux = reconstruction_loss(params, hidden, mbatch.ids[mbatch.enc_masked])
        loss = ad.add(loss, ad.scale(aux, train.encoder_mlm_weight))
    return loss


def train_step(
    params: ModelParams,
    optimizer: AdamW,
    train: TrainConfig,
    enc_config: EncoderConfig,
    dec_config: DecoderConfig,
    batch: Batch,
    rng: np.random.Generator,
    step: int,
) -> tuple[float, float]:
    """One full update. Returns (loss, coverage) for the log."""
    mbatch = mask_batch(batch, dec_config.mode, train.mask_ratio_encoder, train.mask_ratio_decoder, rng)
    try:
        loss = step_loss(params, train, enc_config, dec_config, mbatch)
        for t in params.values():
            t.grad = None
        ad.backward(loss)
    except NonFiniteError as e:
        raise TrainingDiverged(f"step {step}: {e}") from e
    grads = [ad.grad_or_zeros(t) for t in params.values()]
    if not np.isfinite(clip_global_norm(grads, GRAD_CLIP_NORM)):
        # raised before the update, so parameters and moments stay as they were
        raise TrainingDiverged(f"step {step}: non-finite gradient norm")
    lr = train.learning_rate * warmup_scale(step, train.warmup_steps)
    optimizer.step(params, step, lr, train.weight_decay)
    # The step's graph holds no reference cycle, so it dies by reference
    # counting when this returns and drops ``loss``. Releasing it here,
    # after the update, and not right after backward is deliberate. Freed
    # before AdamW allocates its temporaries, the graph's memory went back
    # to the OS and was faulted in again on every step: over 60 desk steps
    # on one core that took 13-16 times the minor page faults and made the
    # median step 18-27% slower.
    return float(loss.data), batch_coverage(mbatch)


def _epoch_seed(base_seed: int, epoch: int) -> list[int]:
    return [base_seed, 2, epoch]


def _cut_log(path: Path, last_step: int) -> None:
    """Keep the leading complete lines of the loss log up to ``last_step``.

    A run killed after its last checkpoint logged steps the resumed run
    will take again; they go, so the log reads as one uninterrupted run.
    A fresh run passes step 0 and so starts an empty log.
    """
    if not path.exists():
        return
    keep = 0
    with open(path, "rb") as f:
        for line in f:
            step = line.split(b"\t", 1)[0]
            if not (line.endswith(b"\n") and step.isdigit() and int(step) <= last_step):
                break
            keep += len(line)
    os.truncate(path, keep)


def run_pretraining(
    corpus_path: str | Path,
    out_dir: str | Path,
    train: TrainConfig,
    enc_config: EncoderConfig,
    dec_config: DecoderConfig,
    resume_from: str | Path | None = None,
    stop_after_steps: int | None = None,
    checkpoint_every: int = 0,
) -> Path:
    """Train over the corpus and leave a checkpoint, vocabulary, and loss
    log in ``out_dir``. Returns the checkpoint path.

    ``resume_from`` picks up an earlier checkpoint and continues on the
    exact trajectory; ``stop_after_steps`` ends the run early after that
    global step count, which is how an interruption is simulated. A step
    argument the run cannot honour raises ValueError before anything is
    trained or written. The global step is the only progress a checkpoint
    records: the epoch and the batch offset in it are ``divmod(step,
    batches_per_epoch)``.
    """
    if stop_after_steps is not None and stop_after_steps < 1:
        raise ValueError(f"stop_after_steps must be at least 1, got {stop_after_steps}")
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be 0 (off) or positive, got {checkpoint_every}")
    corpus_path = Path(corpus_path)
    out_dir = Path(out_dir)
    ckpt_path = out_dir / CHECKPOINT_NAME

    if resume_from is not None:
        loaded: LoadedCheckpoint = load_checkpoint(resume_from)
        params = loaded.params
        train, enc_config, dec_config = loaded.train, loaded.encoder, loaded.decoder
        optimizer = loaded.optimizer
        mask_rng = loaded.rng
        step = loaded.progress
        if stop_after_steps is not None and stop_after_steps <= step:
            raise ValueError(f"stop_after_steps {stop_after_steps} is not past the checkpoint's step {step}")
        vocab = load_checkpoint_vocabulary(resume_from, loaded)
        sentences = load_corpus(corpus_path)
    else:
        sentences = load_corpus(corpus_path)
        vocab = build_vocabulary(sentences, enc_config.vocab_size)
        # the parameter table matches the vocabulary actually built, which
        # may come in under the configured cap on a small corpus
        enc_config = dataclasses.replace(enc_config, vocab_size=len(vocab))
        params = init_params(enc_config, dec_config, np.random.default_rng([train.seed, 0]))
        optimizer = AdamW()
        mask_rng = np.random.default_rng([train.seed, 1])
        step = 0
    out_dir.mkdir(parents=True, exist_ok=True)
    if resume_from is None:
        # an older run's checkpoint would not match the vocabulary written
        # next, so it goes first: a kill before this run's first save leaves
        # no checkpoint at all
        ckpt_path.unlink(missing_ok=True)
        ckpt_path.with_name(ckpt_path.name + ".tmp").unlink(missing_ok=True)
    vocab.save(out_dir / VOCAB_NAME)
    _cut_log(out_dir / LOG_NAME, step)

    seqs = [encode_tokens(tokens, vocab, enc_config.max_len) for tokens in sentences]
    del sentences  # the token lists are not kept through training
    batches_per_epoch = -(-len(seqs) // train.batch_size)  # as many as batch_iter yields

    saved_step = None

    def save() -> None:
        """Checkpoint the state after the current ``step``, once per step."""
        nonlocal saved_step
        if step == saved_step:
            return
        log.flush()  # the log never trails the checkpoint it goes with
        save_checkpoint(ckpt_path, params, train, enc_config, dec_config, optimizer, mask_rng, step, VOCAB_NAME)
        saved_step = step

    with open(out_dir / LOG_NAME, "a", encoding="utf-8") as log:
        first_epoch, skip = divmod(step, batches_per_epoch)
        for epoch in range(first_epoch, train.epochs):
            batches = batch_iter(seqs, train.batch_size, _epoch_seed(train.seed, epoch))
            for batch in itertools.islice(batches, skip if epoch == first_epoch else 0, None):
                step += 1
                loss, coverage = train_step(
                    params, optimizer, train, enc_config, dec_config, batch, mask_rng, step
                )
                log.write(f"{step}\t{loss:.8f}\t{coverage:.6f}\n")
                if checkpoint_every and step % checkpoint_every == 0:
                    save()
                if stop_after_steps is not None and step >= stop_after_steps:
                    save()
                    return ckpt_path
            save()
        save()
    return ckpt_path

"""Spans timed from outside the package, by swapping module-level names.

The package looks its collaborators up at call time (``ad.matmul``,
``mask_batch`` inside ``dualmae.training``, ``attention`` inside
``dualmae.model`` ...). Replacing such a module attribute with a timed
wrapper sees every call without editing the package; ``Patches`` remembers
each swap and puts the originals back.

A span's self time is its duration minus the durations of the spans opened
directly inside it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable

STEP = "training.step"


class Patches:
    """Swaps attributes of modules or classes and restores them in reverse."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def swap(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Put every original back; return the names that still differ."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if getattr(owner, attr) is not original
        ]
        self._saved.clear()
        return stale


class Spans:
    """Nested timed spans, aggregated by name as they close."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self._stack: list[list] = []  # open spans: [name, start_ns, child_ns]
        self._open: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[int]] = defaultdict(list)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])
        self._open[name] += 1

    def leave(self) -> int:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self._open[name] -= 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        self.calls[name] += 1
        if name == STEP:
            self.samples[name].append(dur)
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def innermost_block(self) -> str | None:
        for name, _, _ in reversed(self._stack):
            if name.startswith("block."):
                return name
        return None

    def timed(
        self,
        name: str | Callable[[tuple, dict], str],
        fn: Callable,
        count: Callable[[Counter, tuple, dict, object], None] | None = None,
        step_only: bool = False,
    ) -> Callable:
        """``fn`` wrapped in a span; ``name`` may be derived from the arguments.
        With ``step_only``, calls outside a training step are not timed."""

        def wrapper(*args, **kwargs):
            if step_only and not self._open[STEP]:
                return fn(*args, **kwargs)
            self.enter(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def timed_op(self, op: str, fn: Callable, count=None) -> Callable:
        """An autodiff op, timed forward and, through its node's backward
        closure, backward. Only calls inside a training step are counted;
        backward time is charged to the op and to the block open when the
        node was recorded."""
        fwd, bwd = f"op.{op}.fwd", f"op.{op}.bwd"

        def wrapper(*args, **kwargs):
            if not self._open[STEP]:
                return fn(*args, **kwargs)
            self.enter(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave()
            if count is not None:
                count(self.counts, args, kwargs, out)
            back = out._backward
            if back is not None:
                block = self.innermost_block()

                def timed_back():
                    self.enter(bwd)
                    try:
                        back()
                    finally:
                        dur = self.leave()
                    self.counts["autodiff.nodes"] += 1
                    if block is not None:
                        self.total_ns[f"{block}.bwd"] += dur

                out._backward = timed_back
            return out

        return wrapper


OPS = (
    "matmul", "add", "cross_entropy", "gelu", "masked_softmax", "layer_norm",
    "embedding_lookup", "transpose", "reshape",
    "mul", "scale", "concat", "narrow", "select_index", "sum_all",
)
REPORTED_OPS = OPS[:9]


def _prefix(args: tuple, kwargs: dict) -> str:
    return args[1] if len(args) > 1 else kwargs["prefix"]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_rows(counts, args, kwargs, _result) -> None:
    # per sentence: one encoder mask, then one decoder token mask (basic)
    # or one visibility row per non-pad position (enhanced)
    b = _arg(args, kwargs, 0, "batch")
    mode = _arg(args, kwargs, 1, "mode")
    counts["masking.rows"] += b.size + (b.size if mode == "basic" else int(b.real.sum()))


def _count_real(key: str):
    def count(counts, args, kwargs, _result) -> None:
        real = _arg(args, kwargs, 3, "real")
        counts[f"{key}.real"] += int(real.sum())
        counts[f"{key}.positions"] += int(real.size)

    return count


def _count_logit_rows(counts, _args, _kwargs, logits) -> None:
    counts["model.logit_rows"] += logits.data.size // logits.shape[-1]


def _count_loss_rows(counts, args, kwargs, _out) -> None:
    weights = _arg(args, kwargs, 2, "weights")
    counts["loss.rows"] += int(weights.sum())
    counts["loss.logit_rows"] += len(weights)


def trace_package(spans: Spans) -> Patches:
    """Wrap every traced name of the package; the caller restores them."""
    from dualmae import autodiff, decoder, encoder, model, optim, retrieval, text, training

    patches = Patches()

    def wrap(owner, attr, name, count=None, step_only=False):
        patches.swap(owner, attr, lambda fn: spans.timed(name, fn, count, step_only))

    block = lambda args, kwargs: f"block.{_prefix(args, kwargs)}"  # noqa: E731
    attn = lambda args, kwargs: f"block.{_prefix(args, kwargs)}.attn"  # noqa: E731
    ffn = lambda args, kwargs: f"block.{_prefix(args, kwargs)}.ffn"  # noqa: E731

    wrap(training, "train_step", STEP)
    wrap(training, "mask_batch", "masking.mask_batch", _count_rows)
    wrap(training, "step_loss", "training.step_loss")
    wrap(autodiff, "backward", "autodiff.backward")
    wrap(training, "clip_global_norm", "optim.clip")
    wrap(optim.AdamW, "step", "optim.adamw")
    wrap(training, "batch_coverage", "training.coverage")
    wrap(training, "encode", "encoder.encode", _count_real("encoder"))
    wrap(training, "decode_basic", "decoder.decode")
    wrap(training, "decode_enhanced", "decoder.decode")
    wrap(training, "output_logits", "model.output_logits", _count_logit_rows)
    wrap(decoder, "output_logits", "model.output_logits", _count_logit_rows)
    # the embedding pass runs the same blocks; only training steps count here
    wrap(encoder, "transformer_block", block, step_only=True)
    wrap(decoder, "transformer_block", block, step_only=True)
    wrap(model, "attention", attn, step_only=True)
    wrap(model, "feed_forward", ffn, step_only=True)
    wrap(decoder, "attention", attn, step_only=True)
    wrap(decoder, "feed_forward", ffn, step_only=True)
    wrap(training, "build_vocabulary", "text.build_vocabulary")
    wrap(training, "load_corpus", "text.load_corpus")
    wrap(text, "make_batch", "text.batch")
    wrap(training, "save_checkpoint", "checkpoint.save")
    wrap(retrieval, "encode", "retrieval.encode", _count_real("retrieval"))
    for op in OPS:
        count = _count_loss_rows if op == "cross_entropy" else None
        patches.swap(autodiff, op, lambda fn, op=op, count=count: spans.timed_op(op, fn, count))
    return patches

"""Command-line front end.

Results go to stdout as flat ``key = value`` lines; anything diagnostic
goes to stderr. Exit codes: 0 on success, 1 when a run fails underway
(divergence), 2 for unusable input (missing file, bad config, malformed
run file, a checkpoint that fails validation, a model whose forward pass
overflows outside training) and for an output path that cannot be
written. An exit-2 message names the file or flag at fault, or the
failing op.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .autodiff import NonFiniteError
from .checkpoint import load_checkpoint, load_checkpoint_vocabulary
from .config import (
    PRESETS,
    SEED_ENV_VAR,
    ConfigError,
    parse_config_file,
    parse_overrides,
    resolve_configs,
)
from .gradcheck import model_gradient_errors
from .masking import signal_coverage_stats
from .retrieval import (
    RunFormatError,
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
from .text import build_vocabulary, corpus_lines, encode_tokens, load_corpus, make_batch
from .training import TrainingDiverged, run_pretraining


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _configs_from_args(args: argparse.Namespace):
    file_values = parse_config_file(_require_file(args.config, "config file")) if args.config else None
    overrides = parse_overrides(args.set or [])
    try:
        return resolve_configs(preset=args.preset, file_values=file_values, overrides=overrides)
    except ConfigError as e:
        # name the source the refusal stops at: the file if the preset and the
        # file alone are refused, else --set, else the seed variable
        source = SEED_ENV_VAR
        for name, layer in (("--set", overrides), (args.config, None)):
            try:
                resolve_configs(preset=args.preset, file_values=file_values, overrides=layer, env={})
            except ConfigError:
                source = name
        # a seed variable that is no integer is refused under its own name already
        raise ConfigError(str(e) if str(e).startswith(source) else f"{source}: {e}") from None


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--preset", default="full", choices=sorted(PRESETS), help="base configuration")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")


def cmd_pretrain(args: argparse.Namespace) -> int:
    if args.resume:
        # a resumed run retraces the original trajectory with the settings in
        # its checkpoint: --config/--set are neither read nor validated, and
        # the preset fills arguments that run_pretraining then ignores
        configs = resolve_configs(preset=args.preset, env={})
        if args.config or args.set:
            print(
                "note: --resume takes every setting from the checkpoint; "
                "--config/--set are ignored",
                file=sys.stderr,
            )
    else:
        configs = _configs_from_args(args)
    corpus = _require_file(args.corpus, "corpus file")
    ckpt = run_pretraining(
        corpus,
        args.out,
        *configs,
        resume_from=args.resume,
        stop_after_steps=args.stop_after_steps,
        checkpoint_every=args.checkpoint_every,
    )
    print(f"checkpoint = {ckpt}")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    input_path = _require_file(args.input, "input file")
    loaded = load_checkpoint(ckpt_path)
    vocab = load_checkpoint_vocabulary(ckpt_path, loaded)
    store = embed_corpus(corpus_lines(input_path), loaded.params, loaded.encoder, vocab)
    save_embeddings(args.output, store)
    print(f"embedded = {len(store.ids)}")
    print(f"dim = {store.dim}")
    return 0


def _parse_k_list(raw: str) -> list[int]:
    try:
        ks = [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise ConfigError(f"--k expects comma-separated integers, got {raw!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise ConfigError("--k values must be positive")
    return ks


def cmd_eval(args: argparse.Namespace) -> int:
    ks = _parse_k_list(args.k)
    labels = load_labels(_require_file(args.labels, "labels file"))
    if args.run:
        run = load_run(_require_file(args.run, "run file"), labels=labels)
    else:
        queries = load_embeddings(_require_file(args.queries, "query embeddings"))
        docs = load_embeddings(_require_file(args.docs, "document embeddings"))
        if queries.dim != docs.dim:
            raise RunFormatError(f"{args.queries}, {args.docs}: query dim {queries.dim} "
                                 f"does not match document dim {docs.dim}")
        run = search_run(queries, docs, k=max(ks), metric=args.metric, labels=labels)
    metrics = (("mrr", mrr_at_k), ("recall", recall_at_k), ("ndcg", ndcg_at_k))
    try:
        lines = [f"{name}@{k} = {metric(run, k):.6f}" for k in ks for name, metric in metrics]
    except ValueError as e:
        # a metric fails on its labels: none relevant, none positive, or gains that overflow
        raise ValueError(f"{args.labels}: {e}") from None
    print("\n".join(lines))
    return 0


def cmd_maskstats(args: argparse.Namespace) -> int:
    train, enc, _ = _configs_from_args(args)
    corpus = _require_file(args.corpus, "corpus file")
    sentences = load_corpus(corpus)
    vocab = build_vocabulary(sentences, enc.vocab_size)
    seqs = [encode_tokens(tokens, vocab, enc.max_len) for tokens in sentences]
    batches = [make_batch(seqs[i : i + train.batch_size]) for i in range(0, len(seqs), train.batch_size)]
    for mode in ("mlm15", "basic", "enhanced"):
        report = signal_coverage_stats(mode, batches, train.mask_ratio_decoder, np.random.default_rng(train.seed))
        for line in report.lines():
            print(line)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0.0):
        raise ConfigError(f"--tolerance must be a finite positive number, got {args.tolerance}")
    worst = 0.0
    for mode in ("enhanced", "basic"):
        errors = model_gradient_errors(mode, seed=args.seed)
        for name, err in errors.items():
            print(f"{mode}.{name} = {err:.3e}")
        mode_max = max(errors.values())
        worst = max(worst, mode_max)
        print(f"{mode}.max = {mode_max:.3e}")
    ok = worst < args.tolerance
    print(f"tolerance = {args.tolerance:.1e}")
    print(f"pass = {'true' if ok else 'false'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmae",
        description="Masked auto-encoder pre-training for sentence embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train on a one-sentence-per-line corpus")
    _add_config_options(p)
    p.add_argument("--corpus", required=True, help="training corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--stop-after-steps", type=int, default=None, help="end the run early at this global step")
    p.add_argument("--checkpoint-every", type=int, default=0, help="also checkpoint every N steps")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("embed", help="embed sentences with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="sentences, one per line")
    p.add_argument("--output", required=True, help="where to write the vectors")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="score a ranking against relevance labels")
    p.add_argument("--run", help="existing ranking file")
    p.add_argument("--queries", help="query embeddings (used when no --run is given)")
    p.add_argument("--docs", help="document embeddings (used when no --run is given)")
    p.add_argument("--labels", required=True)
    p.add_argument("--k", default="10", help="comma-separated cutoffs, e.g. 10,100")
    p.add_argument("--metric", default="dot", choices=["dot", "cosine"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("maskstats", help="report loss coverage per decoding mode")
    _add_config_options(p)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_maskstats)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and not args.run and not (args.queries and args.docs):
        print("eval needs either --run or both --queries and --docs", file=sys.stderr)
        return 2
    try:
        # every op checks its output and names itself, so numpy's own overflow
        # warnings would only print ahead of that message
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except OSError as e:
        print(str(e), file=sys.stderr)
        return 2
    except TrainingDiverged as e:
        print(str(e), file=sys.stderr)
        return 1
    except NonFiniteError as e:
        # training turns this into TrainingDiverged; elsewhere the input is at fault
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

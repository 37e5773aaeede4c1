"""Benchmark for dualmae: pretraining and retrieval, measured from outside the package.

    python3 perfbench/run.py --workload train-enhanced --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, with BLAS pinned to one thread. Inputs are
generated from ``--seed``. Every output is checked; a failed check counts
in ``failed`` and makes the exit code 1. The last line of standard output
is one JSON object with the result: with ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics
from a traced run. The lines before it name each metric with its unit and
record the environment.
"""

import os

# pinned before numpy is first imported, by this file or the package
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _import_package():
    if not (SRC / "dualmae" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'dualmae'}; run from a dualmae checkout")
    sys.path.insert(0, str(SRC))
    import dualmae

    if Path(dualmae.__file__).resolve().parent != (SRC / "dualmae").resolve():
        raise SetupError(f"imported dualmae from {dualmae.__file__}, not from {SRC}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _ms(ns: float) -> float:
    return ns / 1e6


def _per(total: float, n: int) -> float:
    return total / n if n else float("nan")


def _untraced(values: list, traced: list[bool]) -> list:
    return [v for v, t in zip(values, traced) if not t]


def _traced(values: list, traced: list[bool]) -> list:
    return [v for v, t in zip(values, traced) if t]


def end_to_end(pre, ret) -> dict[str, float]:
    embed_ns, search_ns = _untraced(ret.embed_ns, ret.traced), _untraced(ret.search_ns, ret.traced)
    return {
        "setup_s": (statistics.median(pre.setup_ns) + statistics.median(ret.setup_ns)) / 1e9,
        "train_tokens_per_s": statistics.median(pre.token_rates),
        "train_step_ms_p50": _ms(statistics.median(pre.step_ns)),
        "loss_at_end": pre.loss_at_end,
        "embed_sentences_per_s": statistics.median([ret.sentences / (ns / 1e9) for ns in embed_ns]),
        "search_queries_per_s": statistics.median([ret.queries / (ns / 1e9) for ns in search_ns]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spans, pre, ret) -> dict[str, float]:
    from phases import paired_overhead_pct
    from tracer import REPORTED_OPS, STEP

    steps = spans.calls[STEP]
    total, calls, counts = spans.total_ns, spans.calls, spans.counts

    def per_step(name: str) -> float:
        return _ms(_per(total[name], steps))

    def per_call(name: str) -> float:
        return _ms(_per(total[name], calls[name]))

    step_ns = sorted(spans.samples[STEP])
    deciles = statistics.quantiles(step_ns, n=10) if len(step_ns) > 1 else [float("nan")] * 9
    m = {
        "masking.mask_batch_ms": per_step("masking.mask_batch"),
        "masking.rows_drawn": _per(counts["masking.rows"], steps),
        "model.output_logits_ms": per_step("model.output_logits"),
        "model.logit_rows": _per(counts["model.logit_rows"], steps),
        "decoder.decode_ms": per_step("decoder.decode"),
        "decoder.loss_row_share": _per(counts["loss.rows"], counts["loss.logit_rows"]),
        "encoder.encode_ms": per_step("encoder.encode"),
        "encoder.real_token_share": _per(counts["encoder.real"], counts["encoder.positions"]),
    }
    for block in ("enc0", "enc1", "dec0"):
        for part in ("attn", "ffn"):
            name = f"block.{block}.{part}"
            m[f"{name}.fwd_ms"] = per_step(name)
            m[f"{name}.bwd_ms"] = per_step(f"{name}.bwd")
    m["autodiff.backward_ms"] = per_step("autodiff.backward")
    m["autodiff.nodes_per_step"] = _per(counts["autodiff.nodes"], steps)
    for op in REPORTED_OPS:
        m[f"op.{op}.fwd_ms"] = per_step(f"op.{op}.fwd")
        m[f"op.{op}.bwd_ms"] = per_step(f"op.{op}.bwd")
        m[f"op.{op}.calls"] = _per(calls[f"op.{op}.fwd"], steps)
    m.update({
        "optim.clip_ms": per_step("optim.clip"),
        "optim.adamw_ms": per_step("optim.adamw"),
        "training.forward_ms": per_step("training.step_loss"),
        "training.coverage_ms": per_step("training.coverage"),
        "training.step_self_ms": _ms(_per(spans.self_ns[STEP], steps)),
        "training.step_ms_p50": _ms(statistics.median(step_ns)),
        "training.step_ms_p90": _ms(deciles[8]),
        "training.step_samples": steps,
        "text.build_vocabulary_ms": per_call("text.build_vocabulary"),
        "text.load_corpus_ms": per_call("text.load_corpus"),
        "text.batch_ms": per_call("text.batch"),
        "checkpoint.save_ms": per_call("checkpoint.save"),
        "checkpoint.load_ms": _ms(statistics.median(pre.checkpoint_load_ns)),
        "checkpoint.bytes": pre.checkpoint_bytes,
        "retrieval.embed_batch_ms": _ms(
            _per(sum(_traced(ret.embed_ns, ret.traced)), calls["retrieval.encode"])
        ),
        "retrieval.encode_ms": per_call("retrieval.encode"),
        "retrieval.real_token_share": _per(counts["retrieval.real"], counts["retrieval.positions"]),
        "retrieval.search_ms_per_query": _ms(
            _per(sum(_traced(ret.search_ns, ret.traced)), ret.queries * sum(ret.traced))
        ),
        "retrieval.save_embeddings_ms": _ms(statistics.median(ret.save_embeddings_ns)),
        "retrieval.load_embeddings_ms": _ms(statistics.median(ret.load_embeddings_ns)),
        "retrieval.metrics_ms": _ms(statistics.median(ret.metrics_ns)),
        # tracing overhead: each traced unit against the untraced one before it
        "trace.step_overhead_pct": paired_overhead_pct(pre.segment_step_ns, pre.traced),
        "trace.embed_overhead_pct": paired_overhead_pct(ret.embed_ns, ret.traced),
        "trace.search_overhead_pct": paired_overhead_pct(ret.search_ns, ret.traced),
    })
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    _import_package()
    import phases
    from tracer import Spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = phases.Tally()
    spans = Spans() if trace else None
    try:
        pre, ret = phases.run(workload, seed, seconds, workdir, spans, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics: dict[str, float] = {}
    if tally.failed == 0:
        metrics = per_layer(spans, pre, ret) if trace else end_to_end(pre, ret)
        for key in [k for k, v in metrics.items() if not math.isfinite(v)]:
            tally.fail(f"metric {key} is {metrics.pop(key)}: the run did not exercise it")
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if tally.failed == 0 and set(metrics) != set(units):
        raise SetupError(f"metrics produced differ from BENCHMARK.json {kind}: {sorted(set(metrics) ^ set(units))}")
    if tally.failed:
        metrics = {}

    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{name} {key} = {value} {units[key]}")
    print("env " + json.dumps(environment(name, seed, int(trace)), sort_keys=True))
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
        code = max(code, proc.returncode)
    print(json.dumps(merged))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not SPEC.is_file():
            raise SetupError(f"{SPEC} is missing")
        spec = json.loads(SPEC.read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            return run_all(args, spec)
        if args.workload not in names:
            raise SetupError(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
        if args.seed < 0 or args.seconds <= 0:
            raise SetupError("--seed must be non-negative and --seconds positive")
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

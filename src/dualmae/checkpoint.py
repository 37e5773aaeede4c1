"""Checkpoint container: a text manifest plus one raw float32 payload.

The file starts with one ASCII header line naming the format
(``dualmae-ckpt-v3``) and the manifest's byte length, followed by the UTF-8
manifest and then the payload. The manifest holds the config, the global
step, the vocabulary file name and the random-generator state; its last
line is the sha256 of the manifest lines above it and the payload, in file
order. The step is the only progress counter: the epoch, the batch offset
in it and AdamW's bias-correction step all follow from it.

The config alone fixes the payload's layout: every parameter in
``param_shapes`` order, then each parameter's two AdamW moments
(``opt.m.<name>``, ``opt.v.<name>``), all little-endian float32 back to
back. Without the moments a resumed run could not retrace the
uninterrupted loss curve exactly. Serialization is canonical: saving a
loaded checkpoint reproduces the input byte for byte, and two saves of the
same state write the same bytes.

Loading is all or nothing. The header must name this format; a file of
another format (v1 and v2 included) is refused, not converted. The
``config.*`` lines must hold exactly the flat config keys, and every other
line save writes must be present, the digest last. The payload must be
exactly as long as the config's layout and match the digest before any
array is built, and every tensor must be finite. Anything else raises
``CheckpointError`` naming the item. Saving refuses any tensor that is not
float32 in the config's shape, and writes a temporary file beside the
target and renames it over the target, so a killed save leaves the
previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import ConfigError, TrainConfig, config_as_flat_dict, configs_from_flat_dict
from .model import DecoderConfig, EncoderConfig, ModelParams, param_shapes
from .optim import AdamW
from .text import Vocabulary, write_atomically

MAGIC = "dualmae-ckpt-v3"

_FLOAT32 = np.dtype("<f4")

# every manifest line besides config.*; all are required, the digest last
_SCALARS = (
    "progress.step",
    "vocab.file",
    "rng.state",
    "sha256",
)


class CheckpointError(ValueError):
    """The file is not a readable checkpoint."""


@dataclass
class LoadedCheckpoint:
    params: ModelParams
    train: TrainConfig
    encoder: EncoderConfig
    decoder: DecoderConfig
    optimizer: AdamW
    rng: np.random.Generator
    progress: int  # the global step: optimizer updates taken so far
    vocab_file: str


def _layout(encoder: EncoderConfig, decoder: DecoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The payload's tensors in order: every parameter, then each one's two moments."""
    shapes = param_shapes(encoder, decoder)
    return shapes + [(f"opt.{side}.{name}", shape) for name, shape in shapes for side in ("m", "v")]


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    train: TrainConfig,
    encoder: EncoderConfig,
    decoder: DecoderConfig,
    optimizer: AdamW,
    rng: np.random.Generator,
    progress: int,
    vocab_file: str,
) -> None:
    arrays = {name: tensor.data for name, tensor in params.items()}
    for name, tensor in params.items():
        zeros = np.zeros_like(tensor.data)
        arrays[f"opt.m.{name}"], arrays[f"opt.v.{name}"] = optimizer.moments.get(name, (zeros, zeros))
    payloads: list[bytes] = []
    for name, shape in _layout(encoder, decoder):
        arr = arrays.pop(name, None)
        if arr is None:
            raise CheckpointError(f"cannot save: no tensor {name!r}, which the config needs")
        if arr.dtype != _FLOAT32 or arr.shape != shape:
            raise CheckpointError(
                f"cannot save tensor {name!r}: it is {arr.dtype} {arr.shape}, the config needs float32 {shape}"
            )
        payloads.append(arr.tobytes())
    if arrays:
        raise CheckpointError(f"cannot save tensor {next(iter(arrays))!r}: the config has no such parameter")

    lines = [f"config.{key} = {value}" for key, value in config_as_flat_dict(train, encoder, decoder).items()]
    lines += [
        f"progress.step = {progress}",
        f"vocab.file = {vocab_file}",
        f"rng.state = {json.dumps(rng.bit_generator.state, sort_keys=True)}",
    ]
    signed = "".join(line + "\n" for line in lines).encode("utf-8")
    digest = hashlib.sha256(signed)
    for raw in payloads:
        digest.update(raw)
    manifest_bytes = signed + f"sha256 = {digest.hexdigest()}\n".encode("ascii")
    write_atomically(path, [f"{MAGIC} {len(manifest_bytes)}\n".encode("ascii"), manifest_bytes, *payloads])


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    blob = Path(path).read_bytes()
    newline = blob.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: not a checkpoint")
    header = blob[:newline].decode("ascii", errors="replace").split()
    if header and header[0].startswith("dualmae-ckpt-") and header[0] != MAGIC:
        raise CheckpointError(f"{path}: checkpoint format {header[0]!r} is not readable, expected {MAGIC!r}")
    if len(header) != 2 or header[0] != MAGIC or not header[1].isdigit():
        raise CheckpointError(f"{path}: bad header, expected '{MAGIC} <manifest-bytes>'")
    manifest_start = newline + 1
    payload_start = manifest_start + int(header[1])
    manifest_bytes = blob[manifest_start:payload_start]
    try:
        manifest = manifest_bytes.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: manifest is not UTF-8") from None
    payload = blob[payload_start:]

    config_values: dict[str, str] = {}
    scalars: dict[str, str] = {}
    lines = manifest.splitlines()
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        key, _, value = line.partition(" = ")
        if not value:
            raise CheckpointError(f"{path}:{lineno}: malformed manifest line")
        if key.startswith("config."):
            config_values[key[len("config.") :]] = value
        elif key in _SCALARS:
            scalars[key] = value
        else:
            raise CheckpointError(f"{path}:{lineno}: unknown manifest line {key!r}")
    for name in _SCALARS:
        if name not in scalars:
            raise CheckpointError(f"{path}: missing manifest line {name!r}")

    try:
        train, encoder, decoder = configs_from_flat_dict(config_values)
    except ConfigError as e:
        raise CheckpointError(f"{path}: {e}") from None

    def scalar(name, parse):
        try:
            return parse(scalars[name])
        except (ValueError, TypeError, KeyError, OverflowError):
            raise CheckpointError(f"{path}: unreadable manifest line {name!r}") from None

    step = scalar("progress.step", int)
    if step < 0:
        raise CheckpointError(f"{path}: manifest line 'progress.step' is negative: {step}")
    rng = scalar("rng.state", _generator)

    # the config fixes the payload: its tensors back to back, and nothing more
    layout = _layout(encoder, decoder)
    need = _FLOAT32.itemsize * sum(math.prod(shape) for _, shape in layout)
    if len(payload) < need:
        raise CheckpointError(f"{path}: payload truncated: {len(payload)} bytes, the config needs {need}")
    if len(payload) > need:
        raise CheckpointError(f"{path}: {len(payload) - need} bytes after the last tensor")
    # the digest covers every manifest line above it, so nothing may follow it
    if not lines[-1].startswith("sha256 = "):
        raise CheckpointError(f"{path}: manifest line 'sha256' is not the last line")
    digest = hashlib.sha256(manifest_bytes[: manifest_bytes.rindex(b"sha256 = ")])
    digest.update(payload)
    if digest.hexdigest() != scalars["sha256"]:
        raise CheckpointError(f"{path}: manifest and payload do not match their sha256; the file is damaged")

    flat = np.frombuffer(payload, dtype=_FLOAT32)
    arrays: dict[str, np.ndarray] = {}
    at = 0
    for name, shape in layout:
        n = math.prod(shape)
        arrays[name] = flat[at : at + n].reshape(shape).copy()
        at += n
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")

    params = {name: ad.parameter(arrays[name]) for name, _ in param_shapes(encoder, decoder)}
    optimizer = AdamW()
    optimizer.moments = {name: (arrays[f"opt.m.{name}"], arrays[f"opt.v.{name}"]) for name in params}
    return LoadedCheckpoint(
        params=params,
        train=train,
        encoder=encoder,
        decoder=decoder,
        optimizer=optimizer,
        rng=rng,
        progress=step,
        vocab_file=scalars["vocab.file"],
    )


def load_checkpoint_vocabulary(path: str | Path, loaded: LoadedCheckpoint) -> Vocabulary:
    """The vocabulary saved next to checkpoint ``path``; it must be readable
    and have one token per ``word_emb`` row."""
    vocab_path = Path(path).parent / loaded.vocab_file
    vocab = Vocabulary.load(vocab_path)
    if len(vocab) != loaded.encoder.vocab_size:
        raise CheckpointError(
            f"{vocab_path} has {len(vocab)} tokens, but {path} has {loaded.encoder.vocab_size} word_emb rows"
        )
    return vocab


def _generator(state_json: str) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = json.loads(state_json)
    return rng

"""Checkpoint container: a text manifest plus raw little-endian payloads.

The file starts with one ASCII header line naming the format and the
manifest's byte length, followed by the UTF-8 manifest and then the tensor
bytes. The manifest lists config, progress counters, the random-generator
state, the vocabulary file name, and one line per tensor with dtype,
shape, offset, and size. Serialization is canonical: saving a loaded
checkpoint reproduces the input byte for byte.

Optimizer moments ride along as ``opt.m.<name>`` / ``opt.v.<name>``
tensors; without them a resumed run could not retrace the uninterrupted
loss curve exactly.

Loading is all or nothing. The ``config.*`` lines must hold exactly the
flat config keys, every other line save writes must be present, and the
tensor set and shapes must be exactly the config's parameters plus their
two moments, and the payload must hold exactly those tensors back to back;
anything else raises ``CheckpointError`` naming the item. Saving writes a
temporary file beside the target and renames it over the target, so a
killed save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import ConfigError, TrainConfig, config_as_flat_dict, configs_from_flat_dict
from .model import DecoderConfig, EncoderConfig, ModelParams, param_shapes
from .optim import AdamW
from .text import Vocabulary

MAGIC = "dualmae-ckpt-v1"

_DTYPES = {"f4": "<f4", "f8": "<f8"}

# every manifest line besides config.* and tensor lines; all are required
_SCALARS = (
    "progress.step",
    "progress.epoch",
    "progress.step_in_epoch",
    "optimizer.steps",
    "vocab.file",
    "rng.state",
)


class CheckpointError(ValueError):
    """The file is not a readable checkpoint."""


@dataclass
class Progress:
    step: int = 0
    epoch: int = 0
    step_in_epoch: int = 0


@dataclass
class LoadedCheckpoint:
    params: ModelParams
    train: TrainConfig
    encoder: EncoderConfig
    decoder: DecoderConfig
    optimizer: AdamW
    rng: np.random.Generator
    progress: Progress
    vocab_file: str


def _dtype_tag(dtype: np.dtype) -> str:
    for tag, np_name in _DTYPES.items():
        if np.dtype(np_name) == np.dtype(dtype).newbyteorder("<"):
            return tag
    raise CheckpointError(f"unsupported tensor dtype {dtype}")


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    train: TrainConfig,
    encoder: EncoderConfig,
    decoder: DecoderConfig,
    optimizer: AdamW,
    rng: np.random.Generator,
    progress: Progress,
    vocab_file: str,
) -> None:
    entries: list[tuple[str, np.ndarray]] = []
    for name, tensor in params.items():
        entries.append((name, tensor.data))
    for name, _ in params.items():
        m, v = optimizer.moments.get(
            name, (np.zeros_like(params[name].data), np.zeros_like(params[name].data))
        )
        entries.append((f"opt.m.{name}", m))
        entries.append((f"opt.v.{name}", v))

    manifest_lines: list[str] = []
    for key, value in config_as_flat_dict(train, encoder, decoder).items():
        manifest_lines.append(f"config.{key} = {value}")
    manifest_lines.append(f"progress.step = {progress.step}")
    manifest_lines.append(f"progress.epoch = {progress.epoch}")
    manifest_lines.append(f"progress.step_in_epoch = {progress.step_in_epoch}")
    manifest_lines.append(f"optimizer.steps = {optimizer.step_count}")
    manifest_lines.append(f"vocab.file = {vocab_file}")
    manifest_lines.append(f"rng.state = {json.dumps(rng.bit_generator.state, sort_keys=True)}")

    payloads: list[bytes] = []
    offset = 0
    for name, arr in entries:
        tag = _dtype_tag(arr.dtype)
        raw = np.ascontiguousarray(arr).astype(_DTYPES[tag], copy=False).tobytes()
        dims = "x".join(str(n) for n in arr.shape) if arr.shape else "scalar"
        manifest_lines.append(f"tensor = {name} {tag} {dims} {offset} {len(raw)}")
        payloads.append(raw)
        offset += len(raw)

    manifest = "\n".join(manifest_lines) + "\n"
    manifest_bytes = manifest.encode("utf-8")
    # a kill mid-write leaves the previous checkpoint in place
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(f"{MAGIC} {len(manifest_bytes)}\n".encode("ascii"))
        f.write(manifest_bytes)
        for raw in payloads:
            f.write(raw)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    blob = Path(path).read_bytes()
    newline = blob.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: not a checkpoint")
    header = blob[:newline].decode("ascii", errors="replace").split()
    if len(header) != 2 or header[0] != MAGIC or not header[1].isdigit():
        raise CheckpointError(f"{path}: bad header, expected '{MAGIC} <manifest-bytes>'")
    manifest_len = int(header[1])
    manifest_start = newline + 1
    try:
        manifest = blob[manifest_start : manifest_start + manifest_len].decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: manifest is not UTF-8") from None
    payload = blob[manifest_start + manifest_len :]

    config_values: dict[str, str] = {}
    scalars: dict[str, str] = {}
    tensors: dict[str, tuple[str, tuple[int, ...], int, int]] = {}  # name -> tag, shape, offset, bytes
    for lineno, line in enumerate(manifest.splitlines(), start=2):
        if not line.strip():
            continue
        key, _, value = line.partition(" = ")
        if not value:
            raise CheckpointError(f"{path}:{lineno}: malformed manifest line")
        if key == "tensor":
            parts = value.split()
            if len(parts) != 5 or not (parts[3].isdecimal() and parts[4].isdecimal()):
                raise CheckpointError(f"{path}:{lineno}: malformed tensor line")
            name, tag, dims = parts[:3]
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate tensor {name!r}")
            if tag not in _DTYPES:
                raise CheckpointError(f"{path}: unknown dtype tag {tag!r} for {name}")
            if dims != "scalar" and not all(n.isdecimal() for n in dims.split("x")):
                raise CheckpointError(f"{path}:{lineno}: bad shape field {dims!r} for tensor {name}")
            shape = () if dims == "scalar" else tuple(int(n) for n in dims.split("x"))
            tensors[name] = (tag, shape, int(parts[3]), int(parts[4]))
        elif key.startswith("config."):
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

    # the tensor set is exactly the config's parameters plus two moments each
    shapes = dict(param_shapes(encoder, decoder))
    expected: dict[str, tuple[int, ...]] = {}
    for name, shape in shapes.items():
        expected[name] = expected[f"opt.m.{name}"] = expected[f"opt.v.{name}"] = shape
    for name in tensors:
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}; the config has no such parameter")
    for name, shape in expected.items():
        if name not in tensors:
            what = "optimizer state" if name.startswith("opt.") else "parameter"
            raise CheckpointError(f"{path}: missing {what} {name!r}")
        if tensors[name][1] != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {tensors[name][1]}, the config expects {shape}"
            )

    # the payload is the tensors back to back in manifest order, and nothing more
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for name, (tag, shape, offset, nbytes) in tensors.items():
        dtype = np.dtype(_DTYPES[tag])
        need = math.prod(shape) * dtype.itemsize
        if nbytes != need:
            raise CheckpointError(f"{path}: tensor {name!r} has {nbytes} bytes, its shape {shape} needs {need}")
        if offset != end:
            raise CheckpointError(f"{path}: tensor {name!r} starts at payload byte {offset}, expected {end}")
        end += nbytes
        if end > len(payload):
            raise CheckpointError(f"{path}: payload truncated at tensor {name}")
        arrays[name] = np.frombuffer(payload[offset:end], dtype=dtype).reshape(shape).copy()
    if end != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - end} bytes after the last tensor")

    params = {name: ad.parameter(arrays[name], dtype=arrays[name].dtype) for name in shapes}
    optimizer = AdamW(lr=train.learning_rate, weight_decay=train.weight_decay)
    for name in shapes:
        optimizer.moments[name] = (arrays[f"opt.m.{name}"], arrays[f"opt.v.{name}"])

    def scalar(name, parse):
        try:
            return parse(scalars[name])
        except (ValueError, TypeError, KeyError, OverflowError):
            raise CheckpointError(f"{path}: unreadable manifest line {name!r}") from None

    optimizer.step_count = scalar("optimizer.steps", int)
    progress = Progress(
        step=scalar("progress.step", int),
        epoch=scalar("progress.epoch", int),
        step_in_epoch=scalar("progress.step_in_epoch", int),
    )
    return LoadedCheckpoint(
        params=params,
        train=train,
        encoder=encoder,
        decoder=decoder,
        optimizer=optimizer,
        rng=scalar("rng.state", _generator),
        progress=progress,
        vocab_file=scalars["vocab.file"],
    )


def load_checkpoint_vocabulary(path: str | Path, loaded: LoadedCheckpoint) -> Vocabulary:
    """The vocabulary saved next to checkpoint ``path``; it must be readable
    and have one token per ``word_emb`` row."""
    vocab_path = Path(path).parent / loaded.vocab_file
    try:
        vocab = Vocabulary.load(vocab_path)
    except ValueError as e:
        raise CheckpointError(f"{vocab_path}: {e}") from None
    if len(vocab) != loaded.encoder.vocab_size:
        raise CheckpointError(
            f"{vocab_path} has {len(vocab)} tokens, but {path} has {loaded.encoder.vocab_size} word_emb rows"
        )
    return vocab


def _generator(state_json: str) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = json.loads(state_json)
    return rng

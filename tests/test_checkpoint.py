"""Checkpoint serialization.

The canonical-bytes property does the heavy lifting: save(load(f)) must
reproduce f exactly, which pins the manifest ordering, float formatting,
and payload layout all at once.
"""

import re

import numpy as np
import pytest

from dualmae.checkpoint import (
    CheckpointError,
    MAGIC,
    Progress,
    load_checkpoint,
    save_checkpoint,
)
from dualmae.cli import main
from dualmae.config import TrainConfig, config_as_flat_dict, resolve_configs
from dualmae.masking import mask_batch
from dualmae.model import DecoderConfig, EncoderConfig, init_params, param_shapes
from dualmae.optim import AdamW
from dualmae.text import CLS_ID, SEP_ID, TokenSequence, make_batch
from dualmae.training import train_step

ENC = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=32, max_len=8, vocab_size=40)
DEC = DecoderConfig(mode="enhanced", layers=1, heads=2)


def _trained_state(steps=2):
    """A model that has actually taken optimizer steps, so moments and the
    mask generator are away from their initial states."""
    train = TrainConfig(learning_rate=1e-3, seed=9, epochs=1)
    params = init_params(ENC, DEC, np.random.default_rng([9, 0]))
    opt = AdamW(lr=train.learning_rate, weight_decay=train.weight_decay)
    rng = np.random.default_rng([9, 1])
    gen = np.random.default_rng(5)
    seq = TokenSequence(np.concatenate([[CLS_ID], gen.integers(5, 40, size=5), [SEP_ID]]))
    batch = make_batch([seq])
    for step in range(1, steps + 1):
        train_step(params, opt, train, ENC, DEC, batch, rng, step)
    progress = Progress(step=steps, epoch=0, step_in_epoch=steps)
    return params, train, opt, rng, progress


class TestRoundTrip:
    def test_everything_restores(self, tmp_path):
        params, train, opt, rng, progress = _trained_state()
        path = tmp_path / "model.ckpt"
        rng_preview = rng.bit_generator.state
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, progress, "vocab.txt")
        loaded = load_checkpoint(path)

        assert loaded.train == train
        assert loaded.encoder == ENC
        assert loaded.decoder == DEC
        assert loaded.progress == progress
        assert loaded.vocab_file == "vocab.txt"
        assert loaded.optimizer.step_count == opt.step_count
        for name, tensor in params.items():
            np.testing.assert_array_equal(loaded.params[name].data, tensor.data, err_msg=name)
            for side in (0, 1):
                np.testing.assert_array_equal(
                    loaded.optimizer.moments[name][side], opt.moments[name][side]
                )
        # the restored generator continues the exact stream
        fresh = np.random.default_rng()
        fresh.bit_generator.state = rng_preview
        np.testing.assert_array_equal(loaded.rng.integers(0, 1000, 8), fresh.integers(0, 1000, 8))

    def test_save_load_save_is_byte_identical(self, tmp_path):
        params, train, opt, rng, progress = _trained_state()
        first = tmp_path / "a.ckpt"
        save_checkpoint(first, params, train, ENC, DEC, opt, rng, progress, "vocab.txt")
        loaded = load_checkpoint(first)
        second = tmp_path / "b.ckpt"
        save_checkpoint(
            second, loaded.params, loaded.train, loaded.encoder, loaded.decoder,
            loaded.optimizer, loaded.rng, loaded.progress, loaded.vocab_file,
        )
        assert first.read_bytes() == second.read_bytes()

    def test_awkward_floats_survive(self, tmp_path):
        params, train, opt, rng, progress = _trained_state()
        import dataclasses
        train = dataclasses.replace(train, learning_rate=1.0 / 3.0, weight_decay=0.1 + 0.2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, progress, "vocab.txt")
        loaded = load_checkpoint(path)
        assert loaded.train.learning_rate == 1.0 / 3.0
        assert loaded.train.weight_decay == 0.1 + 0.2

    def test_stacked_basic_decoder_keeps_its_depth(self, tmp_path):
        dec = DecoderConfig(mode="basic", layers=2, heads=2)
        params = init_params(ENC, dec, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TrainConfig(), ENC, dec, AdamW(lr=1e-4),
                        np.random.default_rng(1), Progress(), "vocab.txt")
        loaded = load_checkpoint(path)
        assert loaded.decoder == dec
        assert "dec1.ffn.w2" in loaded.params

    def test_desk_config_lines_are_pinned(self, tmp_path):
        # key order and value text of the manifest; changing either breaks
        # byte-identical checkpoints
        train, enc, dec = resolve_configs(preset="desk", env={})
        params = init_params(enc, dec, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, enc, dec, AdamW(lr=train.learning_rate),
                        np.random.default_rng(1), Progress(), "vocab.txt")
        lines = [line for line in _manifest(path).splitlines() if line.startswith("config.")]
        assert lines == [
            "config.layers = 2",
            "config.hidden_dim = 64",
            "config.heads = 4",
            "config.ffn_dim = 256",
            "config.max_len = 128",
            "config.vocab_size = 2048",
            "config.decoder_heads = 4",
            "config.mode = enhanced",
            "config.mask_ratio_encoder = 0.15",
            "config.mask_ratio_decoder = 0.5",
            "config.decoder_layers = 1",
            "config.epochs = 8",
            "config.batch_size = 32",
            "config.learning_rate = 0.001",
            "config.weight_decay = 0.01",
            "config.warmup_steps = 0",
            "config.seed = 42",
            "config.encoder_mlm_weight = 0.0",
        ]

    def test_fresh_optimizer_saves_zero_moments(self, tmp_path):
        params = init_params(ENC, DEC, np.random.default_rng(0))
        train = TrainConfig()
        opt = AdamW(lr=1e-4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, ENC, DEC, opt, np.random.default_rng(1),
                        Progress(), "vocab.txt")
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(
            loaded.optimizer.moments["word_emb"][0], np.zeros((40, 16), dtype=np.float32)
        )


def _manifest(path):
    blob = path.read_bytes()
    newline = blob.index(b"\n")
    return blob[newline + 1 : newline + 1 + int(blob[:newline].split()[1])].decode()


def _rewrite_manifest(path, mutate):
    blob = path.read_bytes()
    newline = blob.index(b"\n")
    manifest_len = int(blob[:newline].split()[1])
    manifest = blob[newline + 1 : newline + 1 + manifest_len].decode()
    payload = blob[newline + 1 + manifest_len :]
    manifest = mutate(manifest)
    raw = manifest.encode()
    path.write_bytes(f"{MAGIC} {len(raw)}\n".encode() + raw + payload)


class TestCorruption:
    def _saved(self, tmp_path):
        params, train, opt, rng, progress = _trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, progress, "vocab.txt")
        return path

    def test_wrong_magic(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"x" + blob[1:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_a_checkpoint_at_all(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"hello world\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_missing_optimizer_state(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: "\n".join(
            line for line in m.splitlines() if not line.startswith("tensor = opt.m.word_emb ")
        ) + "\n")
        with pytest.raises(CheckpointError, match="missing optimizer state"):
            load_checkpoint(path)

    def test_unknown_dtype_tag(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m.replace("tensor = word_emb f4", "tensor = word_emb f2", 1))
        with pytest.raises(CheckpointError, match="dtype"):
            load_checkpoint(path)


def _drop_line(name):
    """Drop the manifest line ``name = ...``, or the row of tensor ``name``."""
    def mutate(manifest):
        lines = manifest.splitlines(keepends=True)
        return "".join(line for line in lines if not line.startswith((f"{name} = ", f"tensor = {name} ")))
    return mutate


def _add_second_decoder_bias(manifest):
    """A ``dec1.attn.bq`` row pointing at ``dec0.attn.bq``'s bytes."""
    row = next(line for line in manifest.splitlines() if line.startswith("tensor = dec0.attn.bq "))
    return manifest + row.replace("dec0.", "dec1.") + "\n"


CONFIG_LINES = [f"config.{key}" for key in config_as_flat_dict(TrainConfig(), ENC, DEC)]
SCALAR_LINES = ["progress.step", "progress.epoch", "progress.step_in_epoch",
                "optimizer.steps", "vocab.file", "rng.state"]


class TestManifestValidation:
    """Every manifest line save_checkpoint writes is required; nothing is
    filled in from defaults."""

    def _saved(self, tmp_path):
        params, train, opt, rng, progress = _trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, progress, "vocab.txt")
        return path

    @pytest.mark.parametrize("line", CONFIG_LINES)
    def test_missing_config_line(self, tmp_path, line):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, _drop_line(line))
        key = line[len("config."):]
        with pytest.raises(CheckpointError, match=f"missing config key '{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line", SCALAR_LINES)
    def test_missing_scalar_line(self, tmp_path, line):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, _drop_line(line))
        with pytest.raises(CheckpointError, match=f"missing manifest line '{line}'"):
            load_checkpoint(path)

    def test_every_written_line_is_covered(self, tmp_path):
        names = [line.split(" = ")[0] for line in _manifest(self._saved(tmp_path)).splitlines()]
        assert [n for n in names if n != "tensor"] == CONFIG_LINES + SCALAR_LINES

    def test_unknown_config_key(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m + "config.colour = red\n")
        with pytest.raises(CheckpointError, match="unknown config key 'colour'"):
            load_checkpoint(path)

    def test_unknown_manifest_line(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m + "progress.lap = 3\n")
        with pytest.raises(CheckpointError, match="unknown manifest line 'progress.lap'"):
            load_checkpoint(path)

    def test_extra_decoder_layer_tensor(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, _add_second_decoder_bias)
        with pytest.raises(CheckpointError, match="unexpected tensor 'dec1.attn.bq'"):
            load_checkpoint(path)

    def test_missing_parameter_tensor(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, _drop_line("out_bias"))
        with pytest.raises(CheckpointError, match="missing parameter 'out_bias'"):
            load_checkpoint(path)

    def test_shape_disagreeing_with_config(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m.replace("config.max_len = 8\n", "config.max_len = 16\n"))
        with pytest.raises(CheckpointError, match=r"'enc_pos' has shape \(8, 16\), the config expects \(16, 16\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line, bad, message", [
        ("config.heads = 2", "config.heads = 0", "heads must be at least 1"),
        ("config.decoder_heads = 2", "config.decoder_heads = 3", "must divide evenly across decoder_heads 3"),
    ])
    def test_unusable_head_count(self, tmp_path, line, bad, message):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m.replace(line + "\n", bad + "\n", 1))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_non_finite_weight(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m.replace("config.encoder_mlm_weight = 0.0\n", "config.encoder_mlm_weight = nan\n", 1))
        with pytest.raises(CheckpointError, match="encoder_mlm_weight must be finite and non-negative, got nan"):
            load_checkpoint(path)

    def test_non_numeric_tensor_offset(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m.replace("tensor = word_emb f4 40x16 0 ", "tensor = word_emb f4 40x16 zero ", 1))
        with pytest.raises(CheckpointError, match="malformed tensor line"):
            load_checkpoint(path)

    def test_unreadable_rng_state(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m.replace("rng.state = {", "rng.state = {{", 1))
        with pytest.raises(CheckpointError, match="unreadable manifest line 'rng.state'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate, named", [
        (_drop_line("rng.state"), "rng.state"),
        (_drop_line("config.max_len"), "max_len"),
        (_drop_line("opt.v.enc_pos"), "opt.v.enc_pos"),
        (_add_second_decoder_bias, "dec1.attn.bq"),
        (lambda m: m.replace("config.decoder_layers = 1", "config.decoder_layers = 2"), "one decoder layer"),
    ])
    def test_embed_exits_2_without_traceback(self, tmp_path, capsys, mutate, named):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, mutate)
        sentences = tmp_path / "in.txt"
        sentences.write_text("a b c\n")
        code = main(["embed", "--checkpoint", str(path), "--input", str(sentences),
                     "--output", str(tmp_path / "out.emb")])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "Traceback" not in err


def _set_tensor_field(name, field, value):
    """Rewrite one field (2 shape, 3 offset, 4 byte count) of tensor ``name``'s row."""
    def mutate(manifest):
        lines = manifest.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if line.startswith(f"tensor = {name} "):
                parts = line.split()
                parts[2 + field] = value
                lines[i] = " ".join(parts) + "\n"
        return "".join(lines)
    return mutate


def _append_garbage(path):
    path.write_bytes(path.read_bytes() + b"garbage")


def _non_utf8_manifest(path):
    # same byte length, so the header's manifest size still matches
    blob = path.read_bytes()
    assert blob.count(b"vocab.txt") == 1
    path.write_bytes(blob.replace(b"vocab.txt", b"vocab\xff.tx"))


def _in_manifest(mutate):
    return lambda path: _rewrite_manifest(path, mutate)


# enc_pos follows word_emb (40x16 float32, 2560 bytes) in the payload
LAYOUT_DAMAGE = [
    pytest.param(_append_garbage, "7 bytes after the last tensor", id="trailing-bytes"),
    pytest.param(_in_manifest(_set_tensor_field("enc_pos", 3, "0")),
                 "'enc_pos' starts at payload byte 0, expected 2560", id="overlapping-offset"),
    pytest.param(_in_manifest(_set_tensor_field("enc_pos", 3, "2564")),
                 "'enc_pos' starts at payload byte 2564, expected 2560", id="gap-before-tensor"),
    pytest.param(_in_manifest(_set_tensor_field("enc_pos", 2, "8xsixteen")),
                 "bad shape field '8xsixteen' for tensor enc_pos", id="non-numeric-shape"),
    pytest.param(_in_manifest(_set_tensor_field("enc_pos", 4, "508")),
                 "'enc_pos' has 508 bytes, its shape (8, 16) needs 512", id="shape-disagrees-with-bytes"),
    pytest.param(_non_utf8_manifest, "manifest is not UTF-8", id="manifest-not-utf8"),
]


class TestPayloadLayout:
    """The payload holds exactly the manifest's tensors, back to back."""

    def _saved(self, tmp_path):
        params, train, opt, rng, progress = _trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, progress, "vocab.txt")
        return path

    @pytest.mark.parametrize("damage, message", LAYOUT_DAMAGE)
    def test_load_names_the_fault(self, tmp_path, damage, message):
        path = self._saved(tmp_path)
        damage(path)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, message", LAYOUT_DAMAGE)
    def test_embed_exits_2_without_traceback(self, tmp_path, capsys, damage, message):
        path = self._saved(tmp_path)
        damage(path)
        sentences = tmp_path / "in.txt"
        sentences.write_text("a b c\n")
        code = main(["embed", "--checkpoint", str(path), "--input", str(sentences),
                     "--output", str(tmp_path / "out.emb")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err


class _DiesMidWrite:
    """A file whose third write raises, like a process killed mid-save."""

    def __init__(self, f):
        self.f = f
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError("killed mid-write")
        return self.f.write(data)


class TestAtomicSave:
    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        params, train, opt, rng, progress = _trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, progress, "vocab.txt")
        before = path.read_bytes()

        params["word_emb"].data += 1.0
        monkeypatch.setattr("dualmae.checkpoint.open", lambda p, mode: _DiesMidWrite(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="killed mid-write"):
            save_checkpoint(path, params, train, ENC, DEC, opt, rng, Progress(step=3), "vocab.txt")
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert load_checkpoint(path).progress == progress
        # the next save replaces the half-written temporary file
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, Progress(step=3), "vocab.txt")
        assert load_checkpoint(path).progress.step == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_damaged_files_only_ever_raise_checkpoint_error(tmp_path):
    """Cut the file at every offset of its header and manifest (and at a
    stride through the payload), and overwrite every manifest byte with a
    digit or a non-UTF-8 byte: each result loads or raises CheckpointError."""
    enc = EncoderConfig(layers=1, hidden_dim=4, heads=1, ffn_dim=4, max_len=3, vocab_size=6)
    dec = DecoderConfig(mode="basic", layers=1, heads=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(enc, dec, np.random.default_rng(0)), TrainConfig(), enc, dec,
                    AdamW(lr=1e-3), np.random.default_rng(1), Progress(), "vocab.txt")
    blob = path.read_bytes()
    payload_start = len(blob) - 3 * 4 * sum(int(np.prod(s)) for _, s in param_shapes(enc, dec))

    def damaged():
        for cut in [*range(payload_start + 8), *range(payload_start + 8, len(blob), 61)]:
            yield blob[:cut]
        for i in range(payload_start):
            for byte in (b"9", b"\xff"):
                if blob[i:i + 1] != byte:
                    yield blob[:i] + byte + blob[i + 1:]

    probe = tmp_path / "probe.ckpt"
    for data in damaged():
        probe.write_bytes(data)
        try:
            load_checkpoint(probe)
        except CheckpointError:
            pass

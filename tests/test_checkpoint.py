"""Checkpoint serialization.

The canonical-bytes property does the heavy lifting: save(load(f)) must
reproduce f exactly, which pins the manifest ordering, float formatting,
and payload layout all at once.
"""

import hashlib
import re

import numpy as np
import pytest

from dualmae.checkpoint import (
    CheckpointError,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from dualmae.cli import main
from dualmae.config import TrainConfig, config_as_flat_dict, configs_from_flat_dict, resolve_configs
from dualmae.masking import mask_batch
from dualmae.model import DecoderConfig, EncoderConfig, init_params, param_shapes
from dualmae.optim import AdamW
from dualmae.text import CLS_ID, SEP_ID, TokenSequence, make_batch
from dualmae.training import train_step

ENC = EncoderConfig(layers=1, hidden_dim=16, heads=2, ffn_dim=32, max_len=8, vocab_size=40)
DEC = DecoderConfig(mode="enhanced", layers=1, heads=2)


def _batch():
    gen = np.random.default_rng(5)
    return make_batch([TokenSequence(np.concatenate([[CLS_ID], gen.integers(5, 40, size=5), [SEP_ID]]))])


def _trained_state(steps=2):
    """A model that has actually taken optimizer steps, so moments and the
    mask generator are away from their initial states. The last element is
    the global step, the checkpoint's one progress count."""
    train = TrainConfig(learning_rate=1e-3, seed=9, epochs=1)
    params = init_params(ENC, DEC, np.random.default_rng([9, 0]))
    opt = AdamW()
    rng = np.random.default_rng([9, 1])
    batch = _batch()
    for step in range(1, steps + 1):
        train_step(params, opt, train, ENC, DEC, batch, rng, step)
    return params, train, opt, rng, steps


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
        assert loaded.progress == progress == 2
        assert loaded.vocab_file == "vocab.txt"
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

    def test_the_next_step_continues_the_run(self, tmp_path):
        # step 3 from the loaded state, bias correction included, equals the
        # step the uninterrupted run takes
        params, train, opt, rng, progress = _trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, progress, "vocab.txt")
        loaded = load_checkpoint(path)
        batch = _batch()
        straight = train_step(params, opt, train, ENC, DEC, batch, rng, progress + 1)
        resumed = train_step(loaded.params, loaded.optimizer, loaded.train, loaded.encoder, loaded.decoder,
                             batch, loaded.rng, loaded.progress + 1)
        assert resumed == straight
        for name, tensor in params.items():
            np.testing.assert_array_equal(loaded.params[name].data, tensor.data, err_msg=name)

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
        save_checkpoint(path, params, TrainConfig(), ENC, dec, AdamW(),
                        np.random.default_rng(1), 0, "vocab.txt")
        loaded = load_checkpoint(path)
        assert loaded.decoder == dec
        assert "dec1.ffn.w2" in loaded.params

    def test_desk_config_lines_are_pinned(self, tmp_path):
        # key order and value text of the manifest; changing either breaks
        # byte-identical checkpoints
        train, enc, dec = resolve_configs(preset="desk", env={})
        params = init_params(enc, dec, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, enc, dec, AdamW(),
                        np.random.default_rng(1), 0, "vocab.txt")
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
        opt = AdamW()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, ENC, DEC, opt, np.random.default_rng(1),
                        0, "vocab.txt")
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


def _drop_line(name):
    """Drop the manifest line ``name = ...``."""
    def mutate(manifest):
        lines = manifest.splitlines(keepends=True)
        return "".join(line for line in lines if not line.startswith(f"{name} = "))
    return mutate


def _set_lines(values):
    """Set each manifest line ``name = ...`` to ``values[name]``."""
    def mutate(manifest):
        lines = manifest.splitlines(keepends=True)
        for name, value in values.items():
            lines = [f"{name} = {value}\n" if line.startswith(f"{name} = ") else line for line in lines]
        return "".join(lines)
    return mutate


def _set_line(name, value):
    """Set the manifest line ``name = ...`` to ``value``."""
    return _set_lines({name: value})


def _payload_bytes(enc, dec):
    """Every parameter and its two moments, as float32."""
    return 3 * 4 * sum(int(np.prod(shape)) for _, shape in param_shapes(enc, dec))


CONFIG_LINES = [f"config.{key}" for key in config_as_flat_dict(TrainConfig(), ENC, DEC)]
SCALAR_LINES = ["progress.step", "vocab.file", "rng.state", "sha256"]


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
        assert names == CONFIG_LINES + SCALAR_LINES

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

    def test_shape_disagreeing_with_config(self, tmp_path):
        # two position tables of 8 more rows each: 2 * 8 * 16 float32 values
        # for the parameters and as many for each moment
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m.replace("config.max_len = 8\n", "config.max_len = 16\n"))
        need = _payload_bytes(ENC, DEC) + 3 * 4 * 2 * 8 * 16
        with pytest.raises(CheckpointError, match=f"payload truncated: {_payload_bytes(ENC, DEC)} bytes, "
                                                  f"the config needs {need}"):
            load_checkpoint(path)

    def test_a_line_after_the_digest_is_refused(self, tmp_path):
        # the digest covers the lines above it; a line below it would not be
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m + "progress.step = 5\n")
        with pytest.raises(CheckpointError, match="manifest line 'sha256' is not the last line"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate", [
        pytest.param(_set_line("config.learning_rate", "0.002"), id="learning-rate"),
        # at hidden_dim 16, 17 more rows in each position table and 32 fewer
        # words in word_emb and out_bias keep the payload's size: the
        # parameters would be cut at the wrong boundaries
        pytest.param(_set_lines({"config.max_len": "25", "config.vocab_size": "8"}), id="size-preserving-shape"),
    ])
    def test_a_valid_config_edit_is_refused(self, tmp_path, mutate):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, mutate)
        train, enc, dec = configs_from_flat_dict({
            line.split(" = ")[0][len("config."):]: line.split(" = ")[1]
            for line in _manifest(path).splitlines() if line.startswith("config.")
        })
        assert _payload_bytes(enc, dec) == _payload_bytes(ENC, DEC)
        with pytest.raises(CheckpointError, match="manifest and payload do not match their sha256"):
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

    def test_unreadable_rng_state(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m.replace("rng.state = {", "rng.state = {{", 1))
        with pytest.raises(CheckpointError, match="unreadable manifest line 'rng.state'"):
            load_checkpoint(path)

    def test_negative_step(self, tmp_path):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, _set_line("progress.step", "-2"))
        with pytest.raises(CheckpointError, match="manifest line 'progress.step' is negative: -2"):
            load_checkpoint(path)

    def test_resume_from_a_negative_step_is_exit_2(self, tmp_path, capsys):
        path = self._saved(tmp_path)
        _rewrite_manifest(path, _set_line("progress.step", "-5"))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c\n")
        out = tmp_path / "resumed"
        code = main(["pretrain", "--corpus", str(corpus), "--out", str(out), "--resume", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'progress.step' is negative: -5" in err and "Traceback" not in err
        assert not (out / "loss_log.tsv").exists()

    @pytest.mark.parametrize("line", ["progress.epoch", "progress.step_in_epoch", "optimizer.steps"])
    def test_a_second_progress_counter_is_refused(self, tmp_path, line):
        # the step is the one progress count; a counter that could disagree
        # with it is not part of the format
        path = self._saved(tmp_path)
        _rewrite_manifest(path, lambda m: m + f"{line} = 100\n")
        with pytest.raises(CheckpointError, match=f"unknown manifest line '{line}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate, named", [
        (_drop_line("rng.state"), "rng.state"),
        (_drop_line("config.max_len"), "max_len"),
        pytest.param(_set_line("config.learning_rate", "0.002"), "sha256", id="learning-rate-edit"),
        pytest.param(_set_lines({"config.max_len": "25", "config.vocab_size": "8"}), "sha256",
                     id="size-preserving-edit"),
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


def _append_garbage(path):
    path.write_bytes(path.read_bytes() + b"garbage")


def _non_utf8_manifest(path):
    # same byte length, so the header's manifest size still matches
    blob = path.read_bytes()
    assert blob.count(b"vocab.txt") == 1
    path.write_bytes(blob.replace(b"vocab.txt", b"vocab\xff.tx"))


def _in_manifest(mutate):
    return lambda path: _rewrite_manifest(path, mutate)


def _cut_last_byte(path):
    path.write_bytes(path.read_bytes()[:-1])


LAYOUT_DAMAGE = [
    pytest.param(_append_garbage, "7 bytes after the last tensor", id="trailing-bytes"),
    pytest.param(_cut_last_byte, f"payload truncated: {_payload_bytes(ENC, DEC) - 1} bytes, "
                                 f"the config needs {_payload_bytes(ENC, DEC)}", id="truncated"),
    pytest.param(_in_manifest(_set_line("config.max_len", "7")),
                 f"{3 * 4 * 2 * 16} bytes after the last tensor", id="config-disagrees-with-payload"),
    pytest.param(_non_utf8_manifest, "manifest is not UTF-8", id="manifest-not-utf8"),
]


class TestPayloadLayout:
    """The payload holds exactly the config's tensors, back to back."""

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
        monkeypatch.setattr("dualmae.text.open", lambda p, mode: _DiesMidWrite(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="killed mid-write"):
            save_checkpoint(path, params, train, ENC, DEC, opt, rng, 3, "vocab.txt")
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert load_checkpoint(path).progress == progress
        # the failed save removed its temporary file, and the next save succeeds
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, 3, "vocab.txt")
        assert load_checkpoint(path).progress == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


class TestSaveRefuses:
    """Save writes only what the config's layout can hold: float32 tensors
    of the config's shapes, no more and no fewer."""

    def _state(self):
        params = init_params(ENC, DEC, np.random.default_rng(0))
        return params, TrainConfig(), AdamW(), np.random.default_rng(1)

    def test_float64_parameters(self, tmp_path):
        params = init_params(ENC, DEC, np.random.default_rng(0), dtype=np.float64)
        with pytest.raises(CheckpointError, match=re.escape(
                "cannot save tensor 'word_emb': it is float64 (40, 16), the config needs float32 (40, 16)")):
            save_checkpoint(tmp_path / "model.ckpt", params, TrainConfig(), ENC, DEC, AdamW(),
                            np.random.default_rng(1), 0, "vocab.txt")
        assert not list(tmp_path.iterdir())

    def test_a_moment_of_the_wrong_shape(self, tmp_path):
        params, train, opt, rng = self._state()
        opt.moments["enc_pos"] = (np.zeros((8, 16), np.float32), np.zeros((9, 16), np.float32))
        with pytest.raises(CheckpointError, match=re.escape(
                "cannot save tensor 'opt.v.enc_pos': it is float32 (9, 16), the config needs float32 (8, 16)")):
            save_checkpoint(tmp_path / "model.ckpt", params, train, ENC, DEC, opt, rng, 0, "vocab.txt")

    def test_a_missing_parameter(self, tmp_path):
        params, train, opt, rng = self._state()
        del params["out_bias"]
        with pytest.raises(CheckpointError, match="no tensor 'out_bias', which the config needs"):
            save_checkpoint(tmp_path / "model.ckpt", params, train, ENC, DEC, opt, rng, 0, "vocab.txt")

    def test_a_parameter_the_config_lacks(self, tmp_path):
        params, train, opt, rng = self._state()
        params["dec1.attn.bq"] = params["dec0.attn.bq"]
        with pytest.raises(CheckpointError, match="tensor 'dec1.attn.bq': the config has no such parameter"):
            save_checkpoint(tmp_path / "model.ckpt", params, train, ENC, DEC, opt, rng, 0, "vocab.txt")


def _payload_start(blob):
    newline = blob.index(b"\n")
    return newline + 1 + int(blob[:newline].split()[1])


def _signed(blob):
    """``blob`` with its ``sha256`` line set to the digest of the manifest
    lines above it and the payload, as if the damage had been saved that way."""
    start, end = blob.index(b"\n") + 1, _payload_start(blob)
    line = blob.rindex(b"\nsha256 = ", start, end) + 1
    at = line + len(b"sha256 = ")
    digest = hashlib.sha256(blob[start:line] + blob[end:]).hexdigest().encode()
    return blob[:at] + digest + blob[at + 64:]


# the payload's tensors in order, all float32: every parameter in
# param_shapes order, then each one's two moments
LAYOUT = param_shapes(ENC, DEC) + [
    (f"opt.{side}.{name}", shape) for name, shape in param_shapes(ENC, DEC) for side in ("m", "v")
]


def _tensor_offset(path, name):
    """Where tensor ``name`` starts in the file."""
    names = [n for n, _ in LAYOUT]
    before = sum(int(np.prod(shape)) for _, shape in LAYOUT[: names.index(name)])
    return _payload_start(path.read_bytes()) + 4 * before


def _write_value(name, value, sign):
    """Overwrite the first float32 of tensor ``name``; re-sign the digest or not."""
    def damage(path):
        at = _tensor_offset(path, name)
        blob = path.read_bytes()
        blob = blob[:at] + np.float32(value).tobytes() + blob[at + 4:]
        path.write_bytes(_signed(blob) if sign else blob)
    return damage


def _flip_bit(name):
    """Flip the lowest mantissa bit of tensor ``name``'s first value: still a
    finite number, just a different one."""
    def damage(path):
        at = _tensor_offset(path, name)
        blob = bytearray(path.read_bytes())
        blob[at] ^= 1
        path.write_bytes(bytes(blob))
    return damage


def _as_v1(path):
    """Rewrite a saved checkpoint the way format v1 wrote it: four progress
    counters, no digest."""
    def mutate(manifest):
        lines = [line for line in manifest.splitlines() if not line.startswith("sha256 = ")]
        at = next(i for i, line in enumerate(lines) if line.startswith("progress.step = ")) + 1
        lines[at:at] = ["progress.epoch = 0", "progress.step_in_epoch = 2", "optimizer.steps = 2"]
        return "\n".join(lines) + "\n"
    _rewrite_manifest(path, mutate)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(MAGIC.encode(), b"dualmae-ckpt-v1", 1))


def _as_v2(path):
    """Rewrite a saved checkpoint the way format v2 wrote it: a table of
    tensor lines and a digest of the payload alone."""
    blob = path.read_bytes()
    payload = blob[_payload_start(blob):]

    def mutate(manifest):
        lines = [line for line in manifest.splitlines() if not line.startswith("sha256 = ")]
        offset = 0
        for name, shape in LAYOUT:
            nbytes = 4 * int(np.prod(shape))
            lines.append(f"tensor = {name} f4 {'x'.join(map(str, shape))} {offset} {nbytes}")
            offset += nbytes
        lines.append(f"payload.sha256 = {hashlib.sha256(payload).hexdigest()}")
        return "\n".join(lines) + "\n"
    _rewrite_manifest(path, mutate)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(MAGIC.encode(), b"dualmae-ckpt-v2", 1))


DIGEST_MISMATCH = "manifest and payload do not match their sha256"

PAYLOAD_DAMAGE = [
    pytest.param(_flip_bit("enc_pos"), DIGEST_MISMATCH, id="flipped-bit"),
    pytest.param(_write_value("enc_pos", 0.5, sign=False), DIGEST_MISMATCH, id="rewritten-value"),
    pytest.param(_write_value("word_emb", np.nan, sign=True), "tensor 'word_emb' holds a non-finite value",
                 id="signed-nan-parameter"),
    pytest.param(_write_value("opt.v.dec0.ffn.b2", np.inf, sign=True),
                 "tensor 'opt.v.dec0.ffn.b2' holds a non-finite value", id="signed-inf-moment"),
    pytest.param(_as_v1, "checkpoint format 'dualmae-ckpt-v1' is not readable, expected 'dualmae-ckpt-v3'",
                 id="format-v1"),
    pytest.param(_as_v2, "checkpoint format 'dualmae-ckpt-v2' is not readable, expected 'dualmae-ckpt-v3'",
                 id="format-v2"),
]


class TestPayloadIntegrity:
    """The payload matches its digest and holds finite values, and the file
    is of this format; no damaged or foreign file loads."""

    def _saved(self, tmp_path):
        params, train, opt, rng, progress = _trained_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, train, ENC, DEC, opt, rng, progress, "vocab.txt")
        return path

    def test_the_digest_covers_manifest_and_payload(self, tmp_path):
        path = self._saved(tmp_path)
        assert _signed(path.read_bytes()) == path.read_bytes()

    @pytest.mark.parametrize("damage, message", PAYLOAD_DAMAGE)
    def test_load_names_the_fault(self, tmp_path, damage, message):
        path = self._saved(tmp_path)
        damage(path)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, message", PAYLOAD_DAMAGE)
    def test_embed_and_resume_exit_2_without_traceback(self, tmp_path, capsys, damage, message):
        path = self._saved(tmp_path)
        damage(path)
        sentences = tmp_path / "in.txt"
        sentences.write_text("a b c\n")
        code = main(["embed", "--checkpoint", str(path), "--input", str(sentences),
                     "--output", str(tmp_path / "out.emb")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err
        out = tmp_path / "resumed"
        code = main(["pretrain", "--corpus", str(sentences), "--out", str(out), "--resume", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not out.exists()


def test_damaged_files_only_ever_raise_checkpoint_error(tmp_path):
    """Cut the file at every offset of its header and manifest (and at a
    stride through the payload), overwrite every manifest byte with a digit
    or a non-UTF-8 byte, and overwrite payload bytes at a stride, once with
    the old digest and once with a digest that matches the damage: each
    result loads or raises CheckpointError."""
    enc = EncoderConfig(layers=1, hidden_dim=4, heads=1, ffn_dim=4, max_len=3, vocab_size=6)
    dec = DecoderConfig(mode="basic", layers=1, heads=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(enc, dec, np.random.default_rng(0)), TrainConfig(), enc, dec,
                    AdamW(), np.random.default_rng(1), 0, "vocab.txt")
    blob = path.read_bytes()
    payload_start = len(blob) - _payload_bytes(enc, dec)

    def damaged():
        for cut in [*range(payload_start + 8), *range(payload_start + 8, len(blob), 61)]:
            yield blob[:cut]
        for i in range(payload_start):
            for byte in (b"9", b"\xff"):
                if blob[i:i + 1] != byte:
                    yield blob[:i] + byte + blob[i + 1:]
        for i in range(payload_start, len(blob), 13):
            for byte in (b"9", b"\xff"):
                if blob[i:i + 1] != byte:
                    yield blob[:i] + byte + blob[i + 1:]
                    yield _signed(blob[:i] + byte + blob[i + 1:])

    probe = tmp_path / "probe.ckpt"
    for data in damaged():
        probe.write_bytes(data)
        try:
            load_checkpoint(probe)
        except CheckpointError:
            pass

"""Config resolution and the command-line front end.

CLI tests call main() in-process and assert on exit codes, stdout
contracts, and the artifacts left on disk.
"""

import dataclasses
import shutil
import warnings

import numpy as np
import pytest

from dualmae.checkpoint import load_checkpoint, save_checkpoint
from dualmae.cli import main
from dualmae.config import (
    ConfigError,
    PRESETS,
    config_as_flat_dict,
    configs_from_flat_dict,
    parse_config_file,
    parse_overrides,
    resolve_configs,
)
from dualmae.retrieval import load_embeddings, load_labels, load_run, mrr_at_k, ndcg_at_k, recall_at_k, search_run


class TestConfigFile:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nlayers = 3\n  hidden_dim=48  \n# tail\n")
        assert parse_config_file(path) == {"layers": 3, "hidden_dim": 48}

    def test_types_follow_the_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate = 5e-4\nmode = basic\nepochs = 3\n")
        values = parse_config_file(path)
        assert values == {"learning_rate": 5e-4, "mode": "basic", "epochs": 3}
        assert isinstance(values["epochs"], int)

    def test_unknown_key_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("layers = 2\nhiddendim = 64\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*hiddendim"):
            parse_config_file(path)

    def test_bad_value_names_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = a few\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1"):
            parse_config_file(path)

    def test_line_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("layers 2\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)


class TestOverrides:
    def test_parse(self):
        assert parse_overrides(["epochs=3", "mode = basic"]) == {"epochs": 3, "mode": "basic"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_overrides(["epochs"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="banana"):
            parse_overrides(["banana=1"])

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_overrides(["epochs=two"])


class TestResolve:
    def test_desk_preset(self):
        train, enc, dec = resolve_configs(preset="desk", env={})
        assert (enc.layers, enc.hidden_dim, enc.heads, enc.ffn_dim) == (2, 64, 4, 256)
        assert (enc.max_len, enc.vocab_size) == (128, 2048)
        assert train.learning_rate == 1e-3
        assert dec.mode == "enhanced"
        assert dec.layers == 1 and dec.heads == 4

    def test_precedence_file_then_overrides_then_env(self):
        train, _, _ = resolve_configs(
            preset="desk",
            file_values={"seed": 100, "epochs": 5},
            overrides={"seed": 200},
            env={"DUALMAE_SEED": "300"},
        )
        assert train.seed == 300
        assert train.epochs == 5

    def test_overrides_beat_file(self):
        train, _, _ = resolve_configs(
            preset="desk", file_values={"epochs": 5}, overrides={"epochs": 9}, env={}
        )
        assert train.epochs == 9

    def test_env_read_from_process_when_not_given(self, monkeypatch):
        monkeypatch.setenv("DUALMAE_SEED", "1234")
        train, _, _ = resolve_configs(preset="desk")
        assert train.seed == 1234

    def test_bad_env_seed(self):
        with pytest.raises(ConfigError, match="DUALMAE_SEED"):
            resolve_configs(preset="desk", env={"DUALMAE_SEED": "soon"})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="pocket"):
            resolve_configs(preset="pocket")

    def test_cross_field_validation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError, match="one decoder layer"):
            resolve_configs(preset="desk", overrides={"decoder_layers": 2}, env={})

    def test_encoder_validation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            resolve_configs(preset="desk", overrides={"hidden_dim": 30}, env={})

    def test_flat_dict_is_an_inverse(self):
        train, enc, dec = resolve_configs(
            preset="desk", overrides={"mode": "basic", "decoder_layers": 3, "seed": 7}, env={}
        )
        flat = config_as_flat_dict(train, enc, dec)
        assert set(flat) == set(PRESETS["desk"])
        assert configs_from_flat_dict(flat) == (train, enc, dec)

    def test_unknown_key_in_programmatic_overrides(self):
        with pytest.raises(ConfigError, match="unknown config key 'colour'"):
            resolve_configs(preset="desk", overrides={"colour": "red"}, env={})


def _fields(configs):
    return {(type(c).__name__, f.name): getattr(c, f.name) for c in configs for f in dataclasses.fields(c)}


class TestFlatKeys:
    # a canonical text value for every flat key, each unlike the base below
    ALTERED = {
        "layers": "3",
        "hidden_dim": "32",
        "heads": "8",
        "ffn_dim": "100",
        "max_len": "40",
        "vocab_size": "99",
        "decoder_heads": "2",
        "mode": "enhanced",
        "mask_ratio_encoder": "0.3333333333333333",
        "mask_ratio_decoder": "0.30000000000000004",
        "decoder_layers": "2",
        "epochs": "3",
        "batch_size": "7",
        "learning_rate": "1e-05",
        "weight_decay": "0.1",
        "warmup_steps": "11",
        "seed": "12345",
        "encoder_mlm_weight": "0.25",
    }
    BASE = resolve_configs(preset="desk", overrides={"mode": "basic"}, env={})

    def test_one_key_per_settable_field(self):
        flat = config_as_flat_dict(*self.BASE)
        assert list(flat) == list(PRESETS["desk"]) == list(self.ALTERED)
        assert len(_fields(self.BASE)) == len(flat) == 18

    @pytest.mark.parametrize("key", list(ALTERED))
    def test_round_trip_through_each_key(self, key):
        flat = config_as_flat_dict(*self.BASE)
        assert configs_from_flat_dict(flat) == self.BASE
        changed_flat = {**flat, key: self.ALTERED[key]}
        changed = configs_from_flat_dict(changed_flat)
        assert config_as_flat_dict(*changed) == changed_flat
        before, after = _fields(self.BASE), _fields(changed)
        assert len([f for f in before if before[f] != after[f]]) == 1

    def test_decoder_keys_configure_the_decoder(self):
        flat = {**config_as_flat_dict(*self.BASE), "decoder_layers": "2", "decoder_heads": "2"}
        _, _, dec = configs_from_flat_dict(flat)
        assert (dec.mode, dec.layers, dec.heads) == ("basic", 2, 2)

    def test_inverse_requires_exactly_the_key_set(self):
        flat = config_as_flat_dict(*self.BASE)
        with pytest.raises(ConfigError, match="missing config key 'seed'"):
            configs_from_flat_dict({k: v for k, v in flat.items() if k != "seed"})
        with pytest.raises(ConfigError, match="unknown config key 'colour'"):
            configs_from_flat_dict({**flat, "colour": "red"})
        with pytest.raises(ConfigError, match="bad value for 'epochs' in flat config"):
            configs_from_flat_dict({**flat, "epochs": "a few"})

    def test_one_layer_rule_applies_to_the_inverse(self):
        flat = {**config_as_flat_dict(*self.BASE), "mode": "enhanced", "decoder_layers": "2"}
        with pytest.raises(ConfigError, match="one decoder layer"):
            configs_from_flat_dict(flat)


WORDS = (
    "alfa bravo charlie delta echo foxtrot golf hotel india juliett kilo lima"
).split()

TINY_SET = [
    "--set", "layers=1", "--set", "hidden_dim=16", "--set", "heads=2",
    "--set", "ffn_dim=32", "--set", "max_len=12", "--set", "vocab_size=64",
    "--set", "epochs=1", "--set", "batch_size=8",
]


def _write_corpus(path, n=16, seed=0):
    rng = np.random.default_rng(seed)
    lines = [" ".join(rng.choice(WORDS, size=6)) for _ in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One tiny pretraining run shared by the embed and determinism tests."""
    root = tmp_path_factory.mktemp("cli_run")
    corpus = _write_corpus(root / "corpus.txt")
    out = root / "run"
    code = main(["pretrain", "--preset", "desk", "--corpus", str(corpus),
                 "--out", str(out)] + TINY_SET)
    assert code == 0
    return {"root": root, "corpus": corpus, "out": out}


class TestPretrainCli:
    def test_artifacts_and_stdout(self, trained_run, capsys):
        # the fixture already ran; rerun to capture stdout for this test
        out2 = trained_run["root"] / "again"
        code = main(["pretrain", "--preset", "desk", "--corpus",
                     str(trained_run["corpus"]), "--out", str(out2)] + TINY_SET)
        captured = capsys.readouterr()
        assert code == 0
        assert f"checkpoint = {out2 / 'model.ckpt'}" in captured.out
        for name in ("model.ckpt", "vocab.txt", "loss_log.tsv"):
            assert (out2 / name).is_file()

    def test_repeat_runs_are_byte_identical(self, trained_run):
        first = trained_run["out"]
        second = trained_run["root"] / "again"
        assert (first / "model.ckpt").read_bytes() == (second / "model.ckpt").read_bytes()
        assert (first / "loss_log.tsv").read_bytes() == (second / "loss_log.tsv").read_bytes()

    def test_missing_corpus_is_exit_2(self, tmp_path, capsys):
        code = main(["pretrain", "--preset", "desk", "--corpus",
                     str(tmp_path / "nope.txt"), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_invalid_override_is_exit_2(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "c.txt")
        code = main(["pretrain", "--preset", "desk", "--corpus", str(corpus),
                     "--out", str(tmp_path / "run"), "--set", "banana=1"])
        assert code == 2
        assert "banana" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("heads", 0, "heads must be at least 1"),
        ("decoder_heads", 0, "decoder heads must be at least 1"),
        ("decoder_heads", 3, "must divide evenly across decoder_heads 3"),
        ("hidden_dim", 0, "hidden_dim must be at least 1"),
        ("ffn_dim", 0, "ffn_dim must be at least 1"),
    ])
    def test_bad_head_count_or_size_is_exit_2(self, tmp_path, capsys, key, value, message):
        corpus = _write_corpus(tmp_path / "c.txt", n=8)
        code = main(["pretrain", "--preset", "desk", "--corpus", str(corpus),
                     "--out", str(tmp_path / "run"), "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run" / "loss_log.tsv").exists()

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"),
        ("weight_decay", "inf"),
        ("encoder_mlm_weight", "nan"),
        ("encoder_mlm_weight", "-inf"),
    ])
    def test_non_finite_rate_or_weight_is_exit_2(self, tmp_path, capsys, key, value):
        corpus = _write_corpus(tmp_path / "c.txt", n=8)
        out = tmp_path / "run"
        code = main(["pretrain", "--preset", "desk", "--corpus", str(corpus),
                     "--out", str(out), "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{key} must be finite and non-negative, got {value}" in err and "Traceback" not in err
        assert not out.exists()

    def test_out_path_that_is_a_file_is_exit_2(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "c.txt", n=8)
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        code = main(["pretrain", "--preset", "desk", "--corpus", str(corpus),
                     "--out", str(out)] + TINY_SET)
        err = capsys.readouterr().err
        assert code == 2
        assert str(out) in err and "Traceback" not in err

    def test_env_seed_reaches_the_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALMAE_SEED", "7")
        corpus = _write_corpus(tmp_path / "c.txt", n=8)
        out = tmp_path / "run"
        code = main(["pretrain", "--preset", "desk", "--corpus", str(corpus),
                     "--out", str(out)] + TINY_SET)
        assert code == 0
        assert load_checkpoint(out / "model.ckpt").train.seed == 7

    def test_divergence_is_exit_1(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "c.txt")
        with np.errstate(over="ignore"):
            code = main(["pretrain", "--preset", "desk", "--corpus", str(corpus),
                         "--out", str(tmp_path / "run")] + TINY_SET
                        + ["--set", "learning_rate=1e25"])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_resume_warns_that_overrides_are_ignored(self, trained_run, tmp_path, capsys):
        code = main(["pretrain", "--preset", "desk", "--corpus", str(trained_run["corpus"]),
                     "--out", str(tmp_path / "resumed"),
                     "--resume", str(trained_run["out"] / "model.ckpt")]
                    + TINY_SET + ["--set", "epochs=2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "every setting from the checkpoint" in captured.err

    def _assert_refused_untouched(self, argv, out, capsys):
        before = {name: (out / name).read_bytes() for name in ("model.ckpt", "loss_log.tsv", "vocab.txt")}
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert {name: (out / name).read_bytes() for name in before} == before
        return err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_stop_after_fewer_than_one_step_is_exit_2(self, trained_run, tmp_path, capsys, steps):
        out = tmp_path / "run"
        shutil.copytree(trained_run["out"], out)
        err = self._assert_refused_untouched(
            ["pretrain", "--preset", "desk", "--corpus", str(trained_run["corpus"]), "--out", str(out),
             "--stop-after-steps", steps] + TINY_SET, out, capsys)
        assert "stop_after_steps must be at least 1" in err

    def test_negative_checkpoint_interval_is_exit_2(self, trained_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(trained_run["out"], out)
        err = self._assert_refused_untouched(
            ["pretrain", "--preset", "desk", "--corpus", str(trained_run["corpus"]), "--out", str(out),
             "--checkpoint-every", "-2"] + TINY_SET, out, capsys)
        assert "checkpoint_every must be 0 (off) or positive" in err

    def test_resume_with_a_stop_not_past_the_checkpoint_is_exit_2(self, trained_run, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["pretrain", "--preset", "desk", "--corpus", str(trained_run["corpus"]),
                     "--out", str(out), "--stop-after-steps", "4"] + TINY_SET + ["--set", "epochs=3"])
        assert code == 0
        assert load_checkpoint(out / "model.ckpt").progress == 4
        capsys.readouterr()
        err = self._assert_refused_untouched(
            ["pretrain", "--corpus", str(trained_run["corpus"]), "--out", str(out),
             "--resume", str(out / "model.ckpt"), "--stop-after-steps", "2"], out, capsys)
        assert "not past the checkpoint's step 4" in err

    def test_config_file_feeds_the_run(self, tmp_path):
        corpus = _write_corpus(tmp_path / "c.txt", n=8)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "layers = 1\nhidden_dim = 16\nheads = 2\nffn_dim = 32\n"
            "max_len = 12\nvocab_size = 64\nepochs = 1\nbatch_size = 8\nseed = 11\n"
        )
        out = tmp_path / "run"
        code = main(["pretrain", "--preset", "desk", "--config", str(cfg),
                     "--corpus", str(corpus), "--out", str(out)])
        assert code == 0
        loaded = load_checkpoint(out / "model.ckpt")
        assert loaded.encoder.hidden_dim == 16
        assert loaded.train.seed == 11


class TestAblationSweep:
    def test_four_variants_from_the_same_corpus(self, tmp_path):
        corpus = _write_corpus(tmp_path / "c.txt", n=8)
        variants = {
            "enh": [],
            "enh_h2": ["--set", "decoder_heads=2"],
            "bas1": ["--set", "mode=basic"],
            "bas2": ["--set", "mode=basic", "--set", "decoder_layers=2"],
        }
        for name, extra in variants.items():
            code = main(["pretrain", "--preset", "desk", "--corpus", str(corpus),
                         "--out", str(tmp_path / name)] + TINY_SET + extra)
            assert code == 0, name
        dec = {name: load_checkpoint(tmp_path / name / "model.ckpt").decoder
               for name in variants}
        assert (dec["enh"].mode, dec["enh"].layers, dec["enh"].heads) == ("enhanced", 1, 4)
        assert dec["enh_h2"].heads == 2
        assert (dec["bas1"].mode, dec["bas1"].layers) == ("basic", 1)
        assert (dec["bas2"].mode, dec["bas2"].layers) == ("basic", 2)


class TestEmbedCli:
    def test_embed_writes_vectors(self, trained_run, capsys):
        out = trained_run["root"] / "emb.tsv"
        code = main(["embed", "--checkpoint", str(trained_run["out"] / "model.ckpt"),
                     "--input", str(trained_run["corpus"]), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "embedded = 16" in captured.out
        assert "dim = 16" in captured.out
        store = load_embeddings(out)
        assert store.matrix.shape == (16, 16)

    def test_output_path_that_is_a_directory_is_exit_2(self, trained_run, tmp_path, capsys):
        out = tmp_path / "vectors"
        out.mkdir()
        code = main(["embed", "--checkpoint", str(trained_run["out"] / "model.ckpt"),
                     "--input", str(trained_run["corpus"]), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(out) in err and "Traceback" not in err

    def test_reembedding_is_byte_identical(self, trained_run):
        a = trained_run["root"] / "emb_a.tsv"
        b = trained_run["root"] / "emb_b.tsv"
        ckpt = str(trained_run["out"] / "model.ckpt")
        corpus = str(trained_run["corpus"])
        assert main(["embed", "--checkpoint", ckpt, "--input", corpus, "--output", str(a)]) == 0
        assert main(["embed", "--checkpoint", ckpt, "--input", corpus, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_vocabulary_longer_than_word_emb_is_exit_2(self, trained_run, tmp_path, capsys, monkeypatch):
        for name in ("model.ckpt", "vocab.txt"):
            (tmp_path / name).write_bytes((trained_run["out"] / name).read_bytes())
        with open(tmp_path / "vocab.txt", "a", encoding="utf-8") as f:
            f.write("zulu\nyankee\n")
        rows = load_checkpoint(tmp_path / "model.ckpt").encoder.vocab_size

        def never(*args, **kwargs):
            raise AssertionError("embedding started")

        monkeypatch.setattr("dualmae.cli.embed_corpus", never)
        out = tmp_path / "emb.tsv"
        code = main(["embed", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--input", str(trained_run["corpus"]), "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"{tmp_path / 'vocab.txt'} has {rows + 2} tokens, "
                       f"but {tmp_path / 'model.ckpt'} has {rows} word_emb rows\n")
        assert not out.exists()

        code = main(["pretrain", "--preset", "desk", "--corpus", str(trained_run["corpus"]),
                     "--out", str(tmp_path / "resumed"), "--resume", str(tmp_path / "model.ckpt")])
        assert code == 2
        assert "word_emb rows" in capsys.readouterr().err

    def test_malformed_vocabulary_is_named(self, trained_run, tmp_path, capsys):
        for name in ("model.ckpt", "vocab.txt"):
            (tmp_path / name).write_bytes((trained_run["out"] / name).read_bytes())
        lines = (tmp_path / "vocab.txt").read_text().splitlines()
        (tmp_path / "vocab.txt").write_text("\n".join(["bogus"] + lines[1:]) + "\n")
        code = main(["embed", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--input", str(trained_run["corpus"]), "--output", str(tmp_path / "emb.tsv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"{tmp_path / 'vocab.txt'}: vocabulary must start with the reserved tokens\n")

    def test_weights_that_overflow_the_forward_pass_are_exit_2(self, trained_run, tmp_path, capsys):
        # finite weights, so the checkpoint loads; the forward pass overflows float32
        loaded = load_checkpoint(trained_run["out"] / "model.ckpt")
        loaded.params["word_emb"].data[:] = np.float32(3e38)
        save_checkpoint(tmp_path / "model.ckpt", loaded.params, loaded.train, loaded.encoder, loaded.decoder,
                        loaded.optimizer, loaded.rng, loaded.progress, loaded.vocab_file)
        shutil.copy(trained_run["out"] / "vocab.txt", tmp_path / "vocab.txt")
        out = tmp_path / "emb.tsv"
        # the named error is the whole report: no numpy warning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", "--checkpoint", str(tmp_path / "model.ckpt"),
                         "--input", str(trained_run["corpus"]), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "embed: layer_norm produced a non-finite value\n"
        assert not out.exists()

    def test_missing_checkpoint_is_exit_2(self, trained_run, tmp_path, capsys):
        code = main(["embed", "--checkpoint", str(tmp_path / "ghost.ckpt"),
                     "--input", str(trained_run["corpus"]),
                     "--output", str(tmp_path / "emb.tsv")])
        assert code == 2
        assert "ghost.ckpt" in capsys.readouterr().err


def _self_labels(path, n):
    path.write_text("".join(f"{i}\t{i}\t1\n" for i in range(n)))
    return path


class TestEvalCli:
    @pytest.fixture
    def embeddings(self, trained_run):
        out = trained_run["root"] / "eval_emb.tsv"
        if not out.exists():
            code = main(["embed", "--checkpoint", str(trained_run["out"] / "model.ckpt"),
                         "--input", str(trained_run["corpus"]), "--output", str(out)])
            assert code == 0
        return out

    def test_search_path_matches_library(self, embeddings, tmp_path, capsys):
        labels_path = _self_labels(tmp_path / "labels.tsv", 16)
        code = main(["eval", "--queries", str(embeddings), "--docs", str(embeddings),
                     "--labels", str(labels_path), "--k", "1,5"])
        captured = capsys.readouterr()
        assert code == 0

        store = load_embeddings(embeddings)
        run = search_run(store, store, k=5, labels=load_labels(labels_path))
        for k in (1, 5):
            assert f"mrr@{k} = {mrr_at_k(run, k):.6f}" in captured.out
            assert f"recall@{k} = {recall_at_k(run, k):.6f}" in captured.out
            assert f"ndcg@{k} = {ndcg_at_k(run, k):.6f}" in captured.out

    def test_run_file_path_matches_library(self, embeddings, tmp_path, capsys):
        labels_path = _self_labels(tmp_path / "labels.tsv", 16)
        labels = load_labels(labels_path)
        store = load_embeddings(embeddings)
        run = search_run(store, store, k=3, labels=labels)
        run_path = tmp_path / "run.tsv"
        run_path.write_text("".join(
            f"{qid}\t{doc}\t{rank}\t{score:.17g}\n"
            for qid, candidates in run.candidates.items()
            for rank, (doc, score) in enumerate(candidates, start=1)
        ))

        code = main(["eval", "--run", str(run_path), "--labels", str(labels_path), "--k", "3"])
        captured = capsys.readouterr()
        assert code == 0
        reloaded = load_run(run_path, labels=labels)
        assert f"mrr@3 = {mrr_at_k(reloaded, 3):.6f}" in captured.out

    def test_needs_run_or_both_stores(self, tmp_path, capsys):
        labels_path = _self_labels(tmp_path / "labels.tsv", 2)
        code = main(["eval", "--labels", str(labels_path)])
        assert code == 2
        assert "either --run" in capsys.readouterr().err

    def test_nonpositive_k_is_exit_2(self, embeddings, tmp_path, capsys):
        labels_path = _self_labels(tmp_path / "labels.tsv", 16)
        code = main(["eval", "--queries", str(embeddings), "--docs", str(embeddings),
                     "--labels", str(labels_path), "--k", "0"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_unparseable_k_is_exit_2(self, embeddings, tmp_path, capsys):
        labels_path = _self_labels(tmp_path / "labels.tsv", 16)
        code = main(["eval", "--queries", str(embeddings), "--docs", str(embeddings),
                     "--labels", str(labels_path), "--k", "ten"])
        assert code == 2

    def test_ragged_embedding_file_is_exit_2(self, tmp_path, capsys):
        labels_path = _self_labels(tmp_path / "labels.tsv", 2)
        emb = tmp_path / "emb.tsv"
        emb.write_text("0\t1.0 2.0 3.0\n1\t1.0 2.0\n")
        code = main(["eval", "--queries", str(emb), "--docs", str(emb), "--labels", str(labels_path)])
        assert code == 2
        assert "emb.tsv:2: expected 3 components, got 2" in capsys.readouterr().err

    def test_vector_without_components_is_exit_2(self, tmp_path, capsys):
        labels_path = _self_labels(tmp_path / "labels.tsv", 2)
        emb = tmp_path / "emb.tsv"
        emb.write_text("0\t\n1\t\n")
        code = main(["eval", "--queries", str(emb), "--docs", str(emb), "--labels", str(labels_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "emb.tsv:1: vector has no components" in captured.err

    def test_dimension_mismatch_is_exit_2(self, tmp_path, capsys):
        labels_path = _self_labels(tmp_path / "labels.tsv", 2)
        queries = tmp_path / "queries.tsv"
        queries.write_text("0\t1.0 2.0\n")
        docs = tmp_path / "docs.tsv"
        docs.write_text("0\t1.0 2.0 3.0\n1\t3.0 2.0 1.0\n")
        code = main(["eval", "--queries", str(queries), "--docs", str(docs), "--labels", str(labels_path)])
        assert code == 2
        assert "query dim 2 does not match document dim 3" in capsys.readouterr().err

    def test_malformed_run_file_is_exit_2(self, tmp_path, capsys):
        labels_path = _self_labels(tmp_path / "labels.tsv", 2)
        run_path = tmp_path / "run.tsv"
        run_path.write_text("q0\ta\t5\t1.0\n")
        code = main(["eval", "--run", str(run_path), "--labels", str(labels_path)])
        assert code == 2
        assert "run.tsv" in capsys.readouterr().err


    def test_duplicate_judgment_is_exit_2(self, tmp_path, capsys):
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("q0\ta\t1\nq0\ta\t0\n")
        run_path = tmp_path / "run.tsv"
        run_path.write_text("q0\ta\t1\t1.0\n")
        code = main(["eval", "--run", str(run_path), "--labels", str(labels_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "labels.tsv:2: duplicate judgment for query 'q0', document 'a'" in err and "Traceback" not in err


class TestNonUtf8Input:
    @pytest.mark.parametrize("command, flag", [
        ("pretrain", "--corpus"),
        ("pretrain", "--config"),
        ("maskstats", "--corpus"),
        ("embed", "--input"),
        ("eval", "--queries"),
        ("eval", "--docs"),
        ("eval", "--labels"),
        ("eval", "--run"),
    ])
    def test_exit_2_names_the_file(self, trained_run, tmp_path, capsys, command, flag):
        corpus = str(trained_run["corpus"])
        emb = tmp_path / "emb.tsv"
        emb.write_text("0\t1.0 2.0\n")
        labels = _self_labels(tmp_path / "labels.tsv", 1)
        argv = {
            "pretrain": ["pretrain", "--preset", "desk", "--corpus", corpus, "--out", str(tmp_path / "run")],
            "maskstats": ["maskstats", "--preset", "desk", "--corpus", corpus],
            "embed": ["embed", "--checkpoint", str(trained_run["out"] / "model.ckpt"),
                      "--input", corpus, "--output", str(tmp_path / "vectors.tsv")],
            "eval": ["eval", "--queries", str(emb), "--docs", str(emb), "--labels", str(labels)],
        }[command]
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("0\t1.0 2.0\ncaf\u00e9\n".encode("latin-1"))
        if flag in argv:
            argv[argv.index(flag) + 1] = str(bad)
        else:
            argv += [flag, str(bad)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err


class TestMaskstatsCli:
    def test_exact_coverage_on_uniform_sentences(self, tmp_path, capsys):
        # three sentences of twenty distinct content words each
        words = iter(f"w{i:02d}" for i in range(60))
        lines = [" ".join(next(words) for _ in range(20)) for _ in range(3)]
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(lines) + "\n")
        code = main(["maskstats", "--preset", "desk", "--corpus", str(corpus)])
        captured = capsys.readouterr()
        assert code == 0
        assert "mlm15.coverage = 0.150000" in captured.out
        assert "basic.coverage = 0.500000" in captured.out
        assert "enhanced.coverage = 1.000000" in captured.out

    def test_missing_corpus_is_exit_2(self, tmp_path, capsys):
        code = main(["maskstats", "--preset", "desk", "--corpus", str(tmp_path / "no.txt")])
        assert code == 2


class TestGradcheckCli:
    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "0", "-1e-4"])
    def test_unusable_tolerance_is_exit_2_before_the_sweep(self, tolerance, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("dualmae.cli.model_gradient_errors", no_sweep)
        code = main(["gradcheck", f"--tolerance={tolerance}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--tolerance must be a finite positive number" in captured.err

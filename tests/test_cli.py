import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from midilstm import cli
from midilstm.cli import build_parser, main
from midilstm.corpus import load_corpus
from midilstm.midi_io import parse_midi
from midilstm.numerics import Rng
from midilstm.score import events_to_piece
from midilstm.trainer import load_checkpoint, save_checkpoint

TRAIN_FLAGS = ["--epochs", "2", "--hidden", "16", "--batch-size", "8",
               "--dropout", "0", "--checkpoint-every", "0"]

# one value for every config key, as a config file or flag would spell it
SETTINGS = {
    "epochs": "3", "batch_size": "4", "lr": "0.5", "optimizer": "sgd", "clip_norm": "2.5",
    "checkpoint_every": "2", "holdout": "0.25", "hidden": "4,4", "dropout": "0.1",
    "window_len": "12", "grid": "6", "max_dur": "20", "length": "9", "temperature": "0.7",
    "mode": "argmax", "repeat_cap": "3", "count": "2",
}


@pytest.fixture
def pipeline(tmp_path, midi_dir):
    """Ingested corpus plus a trained checkpoint in tmp_path/run."""
    d, _ = midi_dir
    run = tmp_path / "run"
    assert main(["ingest", "--midi-dir", str(d), "--out", str(run),
                 "--window-len", "10", "--seed", "7"]) == 0
    assert main(["train", "--corpus", str(run / "corpus.txt"), "--out", str(run),
                 "--seed", "7", *TRAIN_FLAGS]) == 0
    return run


def non_finite_checkpoint(run, value):
    """The pipeline's checkpoint with one parameter set to ``value``."""
    ckpt = load_checkpoint(run / "checkpoint.bin")
    ckpt.params.w_dur[0, 0] = value
    path = run / "non_finite.bin"
    save_checkpoint(path, ckpt.params, ckpt.config, ckpt.note_vocab, ckpt.dur_vocab,
                    ckpt.epoch, ckpt.final_loss)
    return path


class TestIngest:
    def test_writes_corpus_and_manifest(self, tmp_path, midi_dir, capsys):
        d, pieces = midi_dir
        out = tmp_path / "o"
        assert main(["ingest", "--midi-dir", str(d), "--out", str(out),
                     "--window-len", "10"]) == 0
        corpus = load_corpus(out / "corpus.txt")
        assert len(corpus.songs) == len(pieces)
        assert corpus.window_len == 10
        manifest = json.loads((out / "ingest_manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert len(manifest["inputs"]) == len(pieces)
        assert "songs: 3" in capsys.readouterr().out

    def test_corrupt_file_skipped_with_warning(self, tmp_path, midi_dir, capsys):
        d, pieces = midi_dir
        (d / "broken.mid").write_bytes(b"MThd\x00\x00")
        out = tmp_path / "o"
        assert main(["ingest", "--midi-dir", str(d), "--out", str(out)]) == 0
        assert "skipping broken.mid" in capsys.readouterr().err
        assert len(load_corpus(out / "corpus.txt").songs) == len(pieces)

    def test_empty_dir_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["ingest", "--midi-dir", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_unreadable_entry_skipped_with_warning(self, tmp_path, midi_dir, capsys):
        d, pieces = midi_dir
        (d / "odd.mid").mkdir()  # a MIDI suffix, but reading it raises OSError
        (d / "broken.mid").write_bytes(b"MThd\x00\x00")
        out = tmp_path / "o"
        assert main(["ingest", "--midi-dir", str(d), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "skipping odd.mid" in err and "skipping broken.mid" in err
        assert len(load_corpus(out / "corpus.txt").songs) == len(pieces)
        manifest = json.loads((out / "ingest_manifest.json").read_text())
        assert manifest["skipped_files"] == 2
        assert len(manifest["inputs"]) == len(pieces)

    def test_nondefault_grid_recorded(self, tmp_path, midi_dir):
        d, _ = midi_dir
        out = tmp_path / "o"
        assert main(["ingest", "--midi-dir", str(d), "--out", str(out), "--grid", "4"]) == 0
        assert load_corpus(out / "corpus.txt").grid == 4


class TestTrain:
    def test_outputs(self, pipeline):
        assert (pipeline / "checkpoint.bin").exists()
        lines = (pipeline / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,note_acc,dur_acc,note_ppl"
        assert len(lines) == 3
        manifest = json.loads((pipeline / "train_manifest.json").read_text())
        assert manifest["seeds"]["master"] == 7
        assert {"init", "shuffle", "dropout"} <= manifest["seeds"].keys()

    def test_deterministic_across_runs(self, tmp_path, midi_dir):
        d, _ = midi_dir
        blobs = []
        for sub in ("r1", "r2"):
            run = tmp_path / sub
            main(["ingest", "--midi-dir", str(d), "--out", str(run), "--window-len", "10"])
            main(["train", "--corpus", str(run / "corpus.txt"), "--out", str(run),
                  "--seed", "7", *TRAIN_FLAGS])
            blobs.append((run / "checkpoint.bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert main(["train", "--corpus", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)]) == 2

    def test_directory_as_corpus_or_config_is_data_error(self, pipeline, tmp_path):
        assert main(["train", "--corpus", str(pipeline), "--out", str(tmp_path)]) == 2
        assert main(["train", "--corpus", str(pipeline / "corpus.txt"), "--out", str(tmp_path),
                     "--config", str(pipeline)]) == 2

    def test_non_utf8_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"#grid=12 L=10 max_dur=48\n60:3 \xff\xfe:3\n")
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path)]) == 2
        assert "BadCorpusFile" in capsys.readouterr().err

    def test_grid_mismatch_is_data_error(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("grid = 4\n")
        assert main(["train", "--corpus", str(pipeline / "corpus.txt"),
                     "--out", str(tmp_path), "--config", str(cfg)]) == 2

    def test_config_file_and_flag_precedence(self, tmp_path, midi_dir):
        d, _ = midi_dir
        run = tmp_path / "run"
        main(["ingest", "--midi-dir", str(d), "--out", str(run), "--window-len", "10"])
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 1\nhidden = 8\ndropout = 0\nbatch_size = 8\n"
                       "checkpoint_every = 0\n")
        assert main(["train", "--corpus", str(run / "corpus.txt"), "--out", str(run),
                     "--config", str(cfg), "--epochs", "2"]) == 0
        manifest = json.loads((run / "train_manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2  # flag beats file
        assert manifest["config"]["hidden"] == [8]  # file beats default
        assert len((run / "metrics.csv").read_text().splitlines()) == 3

    def test_non_utf8_config_is_data_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"lr = 0.01\nhidden = \xff\n")
        assert main(["train", "--corpus", str(pipeline / "corpus.txt"),
                     "--out", str(tmp_path / "t"), "--config", str(cfg)]) == 2
        assert "BadCorpusFile" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, pipeline, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        assert main(["train", "--corpus", str(pipeline / "corpus.txt"),
                     "--out", str(tmp_path), "--config", str(cfg)]) == 1


class TestGenerate:
    def test_count_and_length(self, pipeline):
        out = pipeline / "gen"
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                     "--count", "3", "--length", "20", "--seed", "7"]) == 0
        files = sorted(out.glob("out_*.mid"))
        assert [f.name for f in files] == ["out_000.mid", "out_001.mid", "out_002.mid"]
        piece, _ = events_to_piece(parse_midi(files[0].read_bytes()), grid=12)
        assert len(piece.events) >= 1
        manifest = json.loads((out / "generate_manifest.json").read_text())
        assert manifest["seed_window"]["source"] == "random"

    def test_deterministic(self, pipeline):
        blobs = []
        for sub in ("g1", "g2"):
            out = pipeline / sub
            main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                  "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                  "--length", "25", "--seed", "11"])
            blobs.append((out / "out_000.mid").read_bytes())
        assert blobs[0] == blobs[1]

    def test_song_does_not_depend_on_count(self, pipeline):
        songs = []
        for count in ("1", "3"):
            out = pipeline / f"count{count}"
            assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                         "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                         "--count", count, "--length", "25", "--seed", "11"]) == 0
            songs.append((out / "out_000.mid").read_bytes())
        assert songs[0] == songs[1]

    def test_manifest_lists_song_stats(self, pipeline):
        out = pipeline / "gen"
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                     "--count", "2", "--length", "30", "--mode", "argmax",
                     "--repeat-cap", "2", "--tokens"]) == 0
        songs = json.loads((out / "generate_manifest.json").read_text())["songs"]
        assert [s["file"] for s in songs] == ["out_000.mid", "out_001.mid"]
        for song in songs:
            notes = [t.rpartition(":")[0] for t in
                     (out / song["file"]).with_suffix(".tokens").read_text().split()]
            runs = [1]
            for a, b in zip(notes, notes[1:]):
                runs.append(runs[-1] + 1 if a == b else 1)
            assert song["longest_run"] == max(runs) <= 2
            assert song["distinct_note_ratio"] == len(set(notes)) / 30
            assert song["guard_triggers"] >= song["guard_saturations"] == 0

    def test_count_below_one_is_usage_error(self, pipeline):
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(pipeline / "g"),
                     "--count", "0"]) == 1
        assert not (pipeline / "g").exists()

    def test_explicit_seed_window(self, pipeline):
        out = pipeline / "gen"
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                     "--length", "10", "--seed-window", "0:3"]) == 0
        manifest = json.loads((out / "generate_manifest.json").read_text())
        assert manifest["seed_window"] == {"source": "explicit", "song": 0, "offset": 3}

    def test_seed_file(self, pipeline, tmp_path):
        out = pipeline / "gen"
        corpus_lines = (pipeline / "corpus.txt").read_text().splitlines()
        seed_path = tmp_path / "seed.txt"
        seed_path.write_text(corpus_lines[1] + "\n")  # first song as seed material
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                     "--length", "10", "--seed-file", str(seed_path)]) == 0
        manifest = json.loads((out / "generate_manifest.json").read_text())
        assert manifest["seed_window"]["source"] == "file"

    def test_seed_window_with_seed_file_is_usage_error(self, pipeline, tmp_path):
        seed_path = tmp_path / "seed.txt"
        seed_path.write_text((pipeline / "corpus.txt").read_text().splitlines()[1] + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                  "--corpus", str(pipeline / "corpus.txt"), "--out", str(pipeline / "gen"),
                  "--seed-window", "0:3", "--seed-file", str(seed_path)])
        assert exc.value.code == 1

    def test_non_utf8_seed_file_is_data_error(self, pipeline, tmp_path, capsys):
        seed_path = tmp_path / "seed.txt"
        seed_path.write_bytes(b"60:3 \xff:3\n")
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"),
                     "--out", str(pipeline / "gen"), "--seed-file", str(seed_path)]) == 2
        assert "BadCorpusFile" in capsys.readouterr().err

    def test_short_seed_file_is_data_error(self, pipeline, tmp_path):
        seed_path = tmp_path / "seed.txt"
        seed_path.write_text("60:3 62:3\n")
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"),
                     "--out", str(pipeline / "gen"), "--seed-file", str(seed_path)]) == 2

    def test_token_output(self, pipeline):
        out = pipeline / "gen"
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                     "--length", "12", "--tokens"]) == 0
        tokens = (out / "out_000.tokens").read_text().split()
        assert len(tokens) == 12
        assert all(":" in t for t in tokens)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_checkpoint_is_data_error(self, pipeline, value, capsys):
        out = pipeline / "gen"
        assert main(["generate", "--checkpoint", str(non_finite_checkpoint(pipeline, value)),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(out)]) == 2
        assert "BadCheckpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_mismatch_is_data_error(self, pipeline, tmp_path):
        other = tmp_path / "other.txt"
        other.write_text("#grid=12 L=10 max_dur=48\n60:3 61:3 62:3\n")
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(other), "--out", str(tmp_path)]) == 2


class TestEval:
    def test_prints_metrics_row(self, pipeline, capsys):
        assert main(["eval", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "epoch,loss,note_acc,dur_acc,note_ppl"
        assert out[1].startswith("2,")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_checkpoint_is_data_error(self, pipeline, value, capsys):
        assert main(["eval", "--checkpoint", str(non_finite_checkpoint(pipeline, value)),
                     "--corpus", str(pipeline / "corpus.txt")]) == 2
        captured = capsys.readouterr()
        assert "BadCheckpoint" in captured.err
        assert captured.out == ""


class TestVariants:
    def test_two_variants(self, pipeline):
        out = pipeline / "var"
        assert main(["variants", "--corpus", str(pipeline / "corpus.txt"),
                     "--out", str(out), "--seed", "7", "--epochs", "1",
                     "--hidden", "8", "--dropout", "0", "--batch-size", "8",
                     "--count", "2", "--length", "15", "--checkpoint-every", "0",
                     "--variant", "a:lr=0.001", "--variant", "b:lr=0.01"]) == 0
        manifest = json.loads((out / "variants_manifest.json").read_text())
        assert set(manifest["variants"]) == {"a", "b"}
        mids = sorted(out.glob("*/song_*.mid"))
        assert len(mids) == 4
        windows = {json.dumps(v["seed_window"]) for v in manifest["variants"].values()}
        assert len(windows) == 1

    def variants(self, pipeline, out, *flags):
        return main(["variants", "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                     "--seed", "7", *TRAIN_FLAGS, *flags])

    def test_identical_variants_produce_identical_files(self, pipeline):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--count", "2", "--length", "15",
                             "--variant", "x:", "--variant", "y:") == 0
        for i in range(2):
            assert (out / "x" / f"song_{i:03d}.mid").read_bytes() == \
                (out / "y" / f"song_{i:03d}.mid").read_bytes()

    def test_songs_within_variant_differ(self, pipeline):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--count", "3", "--length", "40",
                             "--mode", "sample", "--variant", "v:") == 0
        assert len({(out / "v" / f"song_{i:03d}.mid").read_bytes() for i in range(3)}) == 3

    def test_variant_songs_match_train_then_generate(self, pipeline):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--count", "3", "--length", "15",
                             "--variant", "a:") == 0
        gen = pipeline / "gen"
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(gen),
                     "--count", "3", "--length", "15", "--seed", "7"]) == 0
        for i in range(3):
            assert (out / "a" / f"song_{i:03d}.mid").read_bytes() == \
                (gen / f"out_{i:03d}.mid").read_bytes()
        manifests = [json.loads(p.read_text()) for p in (out / "variants_manifest.json",
                                                          gen / "generate_manifest.json")]
        assert manifests[0]["seed_window"] == \
            {k: v for k, v in manifests[1]["seed_window"].items() if k != "source"}
        stats = [[{k: v for k, v in song.items() if k != "file"} for song in songs]
                 for songs in (manifests[0]["variants"]["a"]["songs"], manifests[1]["songs"])]
        assert stats[0] == stats[1]

    def test_count_below_one_is_usage_error(self, pipeline):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--count", "0", "--variant", "a:") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["length", "temperature", "mode", "repeat_cap", "count"])
    def test_generation_key_in_override_is_usage_error(self, pipeline, key):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--variant", f"a:{key}={SETTINGS[key]}") == 1
        assert not out.exists()

    def test_duplicate_variant_name_is_usage_error(self, pipeline):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--variant", "a:lr=0.001",
                             "--variant", "a:lr=0.1") == 1
        assert not out.exists()

    def test_no_variant_flag_is_usage_error(self, pipeline):
        assert main(["variants", "--corpus", str(pipeline / "corpus.txt"),
                     "--out", str(pipeline / "var")]) == 1

    def test_bad_override_is_usage_error(self, pipeline):
        assert main(["variants", "--corpus", str(pipeline / "corpus.txt"),
                     "--out", str(pipeline / "var"), "--variant", "a:bogus=1"]) == 1


class TestChecks:
    def test_gradcheck_passes(self, tmp_path, capsys):
        assert main(["gradcheck", "--hidden", "8", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_gradcheck_impossible_tolerance_fails(self, tmp_path, capsys):
        assert main(["gradcheck", "--hidden", "8", "--tolerance", "0",
                     "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().out.startswith("FAIL")

    def test_roundtrip_passes_on_valid_files(self, midi_dir, tmp_path, capsys):
        d, _ = midi_dir
        files = [str(p) for p in sorted(d.glob("*.mid"))]
        assert main(["roundtrip", *files, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(files)

    def test_roundtrip_reports_truncated_file(self, midi_dir, tmp_path, capsys):
        d, _ = midi_dir
        valid = sorted(d.glob("*.mid"))[0]
        broken = tmp_path / "broken.mid"
        broken.write_bytes(valid.read_bytes()[:-5])
        assert main(["roundtrip", str(broken), "--out", str(tmp_path)]) == 2
        assert "ERROR" in capsys.readouterr().out


class TestUsage:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["conduct"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 1

    def test_unparseable_hidden_exits_one(self, pipeline):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", str(pipeline / "corpus.txt"),
                  "--out", str(pipeline), "--hidden", "bogus"])
        assert exc.value.code == 1

    def test_bad_numeric_value_is_usage_error(self, pipeline):
        out = pipeline / "t"
        for flag, value in [("--epochs", "-1"), ("--lr", "nan"), ("--lr", "inf"),
                            ("--clip-norm", "nan"), ("--dropout", "1.0")]:
            assert main(["train", "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                         *TRAIN_FLAGS, flag, value]) == 1, (flag, value)
        assert not out.exists()  # no checkpoint

    @pytest.mark.parametrize("command, required, defaults", [
        ("ingest", ["--midi-dir", "d"], cli._INGEST_DEFAULTS),
        ("train", ["--corpus", "c"], cli._TRAIN_DEFAULTS),
        ("generate", ["--checkpoint", "k", "--corpus", "c"], cli._GEN_DEFAULTS),
        ("variants", ["--corpus", "c"], cli._VARIANT_DEFAULTS),
    ])
    def test_every_config_key_has_a_flag(self, command, required, defaults):
        for key in defaults:
            flag = "--" + key.replace("_", "-")
            args = build_parser().parse_args([command, *required, flag, SETTINGS[key]])
            assert getattr(args, key) == cli.CONFIG_KEYS[key](SETTINGS[key])

    @pytest.mark.parametrize("command, defaults", [
        ("ingest", cli._INGEST_DEFAULTS),
        ("train", cli._TRAIN_DEFAULTS),
        ("generate", cli._GEN_DEFAULTS),
    ])
    def test_manifest_config_holds_only_the_commands_keys(self, pipeline, midi_dir, tmp_path,
                                                          capsys, command, defaults):
        inputs = {"ingest": ["--midi-dir", str(midi_dir[0])],
                  "train": ["--corpus", str(pipeline / "corpus.txt")],
                  "generate": ["--checkpoint", str(pipeline / "checkpoint.bin"),
                               "--corpus", str(pipeline / "corpus.txt")]}[command]
        # every config key, with values that fit the pipeline's corpus
        settings = SETTINGS | {"grid": "12", "window_len": "10", "epochs": "0"}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        out = tmp_path / "o"
        capsys.readouterr()
        assert main([command, *inputs, "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        assert manifest["config"].keys() == defaults.keys()
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("note: ")]
        assert notes == [f"note: {cfg}: {command} ignores {key!r}"
                         for key in settings if key not in defaults]

    @pytest.mark.parametrize("flag", ["--mode", "--optimizer"])
    def test_unknown_choice_is_usage_error(self, pipeline, flag):
        with pytest.raises(SystemExit) as exc:
            main(["variants", "--corpus", str(pipeline / "corpus.txt"),
                  "--out", str(pipeline / "var"), "--variant", "a:", flag, "bogus"])
        assert exc.value.code == 1
        cfg = pipeline / "bad.cfg"
        cfg.write_text(f"{flag[2:]} = bogus\n")
        assert main(["variants", "--corpus", str(pipeline / "corpus.txt"),
                     "--out", str(pipeline / "var"), "--variant", "a:",
                     "--config", str(cfg)]) == 1
        assert not (pipeline / "var").exists()  # rejected before any training

    def test_bad_temperature_is_usage_error(self, pipeline):
        for value in ("0", "nan", "inf"):
            assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                         "--corpus", str(pipeline / "corpus.txt"),
                         "--out", str(pipeline / "g"), "--temperature", value]) == 1, value
        assert not (pipeline / "g").exists()  # no song

    def test_value_error_inside_a_command_propagates(self, pipeline, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "evaluate", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["eval", "--checkpoint", str(pipeline / "checkpoint.bin"),
                  "--corpus", str(pipeline / "corpus.txt")])


@pytest.mark.parametrize("batch_size", [
    "48",  # 3 batches of 480 product rows (window x batch) and one of 360
    pytest.param("52", marks=pytest.mark.xfail(
        reason="the README's limit: OpenBLAS splits a weight-gradient product of 520 rows "
               "(not a multiple of 32, above 384) differently at 2 threads")),
])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, midi_dir, batch_size):
    """ingest -> train (odd hidden sizes, dropout, several batches per
    epoch) -> generate (longer than a window, so the wavefront runs
    products of 1 to L rows) -> eval, each in a child process at 1 and at
    2 BLAS threads: every output byte and all stdout must match."""
    src = Path(cli.__file__).parent.parent
    steps = [["ingest", "--midi-dir", str(midi_dir[0]), "--out", "run", "--window-len", "10"],
             ["train", "--corpus", "run/corpus.txt", "--out", "run", "--hidden", "24,16",
              "--dropout", "0.2", "--epochs", "2", "--batch-size", batch_size,
              "--checkpoint-every", "1"],
             ["generate", "--checkpoint", "run/checkpoint.bin", "--corpus", "run/corpus.txt",
              "--out", "gen", "--count", "2", "--length", "25", "--tokens"],
             ["eval", "--checkpoint", "run/checkpoint.bin", "--corpus", "run/corpus.txt"]]
    trees = []
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        stdout = []
        for argv in steps:
            proc = subprocess.run([sys.executable, "-m", "midilstm.cli", *argv], cwd=root,
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout.replace(str(root), "<root>"))
        files = {str(p.relative_to(root)): p.read_bytes()
                 for p in sorted(root.rglob("*")) if p.is_file()}
        trees.append((stdout, files))
    assert len(trees[0][1]) == 12  # corpus, 3 checkpoints, metrics, 4 song files, 3 manifests
    assert trees[0] == trees[1]


def test_no_module_reads_the_environment():
    # every behaviour must be set by flags or config, which the manifest
    # records, so a run stays reproducible from its manifest
    package = Path(cli.__file__).parent
    readers = [f"{path.name}:{lineno}: {line.strip()}"
               for path in sorted(package.glob("*.py"))
               for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if re.search(r"environ|getenv", line)]
    assert readers == []


class TestFuzz:
    """Seeded single-byte mutants of each text input, run through ``main``
    as in the MIDI and checkpoint fuzz tests. Every mutant ends in success
    or a typed data error, or for a config file also in a usage error;
    no exception escapes."""

    def run_mutants(self, golden: bytes, path, argv, seed: int) -> set[int]:
        rng = Rng(seed)
        codes = set()
        for _ in range(200):
            data = bytearray(golden)
            data[rng.randint(len(data))] = rng.randint(256)
            path.write_bytes(bytes(data))
            code = main(argv)
            codes.add(code)
            assert code in (0, 1, 2), bytes(data)
        return codes

    def test_mutated_corpus(self, pipeline, tmp_path):
        path = tmp_path / "corpus.txt"
        codes = self.run_mutants((pipeline / "corpus.txt").read_bytes(), path,
                                 ["train", "--corpus", str(path), "--out", str(tmp_path / "o"),
                                  "--epochs", "0", "--hidden", "4"], seed=1)
        assert codes == {0, 2}

    def test_mutated_seed_file(self, pipeline, tmp_path):
        path = tmp_path / "seed.txt"
        song = (pipeline / "corpus.txt").read_text().splitlines()[1]
        codes = self.run_mutants(song.encode() + b"\n", path,
                                 ["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                                  "--corpus", str(pipeline / "corpus.txt"), "--seed-file",
                                  str(path), "--length", "2", "--out", str(tmp_path / "o")],
                                 seed=2)
        assert codes == {0, 2}

    def test_mutated_config_file(self, pipeline, tmp_path):
        path = tmp_path / "train.cfg"
        golden = (b"# every training key but epochs\nbatch_size = 8\nlr = 0.01\n"
                  b"optimizer = sgd\nclip_norm = 2.5\ncheckpoint_every = 1\n"
                  b"holdout = 0.25\nhidden = 4,4\ndropout = 0.1\nwindow_len = 10\ngrid = 12\n")
        codes = self.run_mutants(golden, path,
                                 ["train", "--corpus", str(pipeline / "corpus.txt"),
                                  "--config", str(path), "--epochs", "0",
                                  "--out", str(tmp_path / "o")], seed=3)
        assert codes == {0, 1, 2}

import argparse
import itertools
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import looped_song
from midilstm import cli
from midilstm import corpus as corpus_module
from midilstm.cli import build_parser, main
from midilstm.corpus import CorpusFile, Vocabulary, load_corpus, save_corpus
from midilstm.midi_io import (
    EndOfTrack,
    MidiEvent,
    MidiFile,
    MidiFormat,
    NoteOff,
    NoteOn,
    parse_midi,
    write_midi,
)
from midilstm.numerics import Rng
from midilstm.score import events_to_piece
from midilstm.trainer import load_checkpoint, save_checkpoint

TRACK_END = b"MTrk" + struct.pack(">I", 4) + b"\x00\xff\x2f\x00"
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

    @pytest.mark.parametrize("setting", ["grid=0", "window_len=0", "max_dur=0", "max_dur=-3",
                                         "config:grid=0", "config:max_dur=0"])
    def test_setting_below_one_is_usage_error(self, tmp_path, midi_dir, capsys, setting):
        d, _ = midi_dir
        out = tmp_path / "o"
        via, _, text = setting.rpartition(":")
        key, value = text.split("=")
        if via:
            config = tmp_path / "ingest.cfg"
            config.write_text(f"{key} = {value}\n")
            flags = ["--config", str(config)]
        else:
            flags = ["--" + key.replace("_", "-"), value]
        assert main(["ingest", "--midi-dir", str(d), "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert f"{key} {value} must be >= 1" in err
        assert "warning" not in err  # no MIDI file was read
        assert not out.exists()

    def test_dangling_note_on_warned_and_counted(self, tmp_path, midi_dir, capsys):
        d, pieces = midi_dir
        track = [MidiEvent(0, NoteOn(0, 60, 64)), MidiEvent(480, NoteOff(0, 60, 0)),
                 MidiEvent(0, NoteOn(0, 62, 64)), MidiEvent(240, EndOfTrack())]
        (d / "dangling.mid").write_bytes(write_midi(MidiFile(MidiFormat.SINGLE, 480, [track])))
        out = tmp_path / "o"
        assert main(["ingest", "--midi-dir", str(d), "--out", str(out)]) == 0
        assert "warning: dangling.mid: 1 unmatched note-on(s) closed at end of track" \
            in capsys.readouterr().err
        manifest = json.loads((out / "ingest_manifest.json").read_text())
        assert manifest["dangling_note_ons"] == 1
        assert len(load_corpus(out / "corpus.txt").songs) == len(pieces) + 1

    def test_midi_dir_that_is_a_file_is_data_error(self, tmp_path, midi_dir, capsys):
        d, _ = midi_dir
        out = tmp_path / "o"
        assert main(["ingest", "--midi-dir", str(d / "song0.mid"), "--out", str(out)]) == 2
        assert "NoUsableFiles" in capsys.readouterr().err
        assert not out.exists()

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

    def test_holdout_that_leaves_no_windows_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"  # songs of L + 1 tokens: one window each
        save_corpus(corpus, CorpusFile(12, 10, 48, [(["60"] * 11, [3] * 11)] * 2))
        out = tmp_path / "o"
        assert main(["train", "--corpus", str(corpus), "--out", str(out), *TRAIN_FLAGS,
                     "--holdout", "0.1"]) == 2
        assert "EmptyDataset: holdout fraction left no training windows" in capsys.readouterr().err
        assert not out.exists()

    def test_holdout_of_one_is_usage_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                     *TRAIN_FLAGS, "--holdout", "1"]) == 1
        assert "holdout 1.0 outside [0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_header_field_without_equals_is_data_error(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "corpus.txt").read_text().splitlines()
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join([lines[0] + " extra", *lines[1:]]) + "\n")
        out = tmp_path / "o"
        assert main(["train", "--corpus", str(corpus), "--out", str(out), *TRAIN_FLAGS]) == 2
        assert "BadCorpusFile: bad header field 'extra'" in capsys.readouterr().err
        assert not out.exists()

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

    def test_grid_and_window_len_come_from_the_corpus_header(self, pipeline, tmp_path, capsys):
        corpus, out = str(pipeline / "corpus.txt"), tmp_path / "t"
        for command in ("train", "variants"):
            for flag in ("--grid", "--window-len"):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--corpus", corpus, "--out", str(out), flag, "4"])
                assert exc.value.code == 1
        assert not out.exists()
        cfg = tmp_path / "cfg"
        cfg.write_text("grid = 4\nwindow_len = 7\n")
        assert main(["train", "--corpus", corpus, "--out", str(out), "--config", str(cfg),
                     *TRAIN_FLAGS]) == 0
        assert load_checkpoint(out / "checkpoint.bin").config.model.window_len == 10
        notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note")]
        assert notes == [f"note: {cfg}: train ignores 'grid'",
                         f"note: {cfg}: train ignores 'window_len'"]

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

    @pytest.mark.parametrize("source", ["flag", "config", "variant"])
    def test_model_too_large_for_memory_is_data_error(self, pipeline, tmp_path, capsys, source):
        out = tmp_path / "big"
        cfg = tmp_path / "big.cfg"
        cfg.write_text("hidden = 10000000\n")
        argv = {"flag": ["train", "--hidden", "10000000"],
                "config": ["train", "--config", str(cfg)],
                "variant": ["variants", "--variant", "a:hidden=10000000", "--count", "1"]}[source]
        assert main([*argv, "--corpus", str(pipeline / "corpus.txt"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("window, code", [("3", 1), ("a:1", 1), ("0:99999", 2),
                                              ("5:0", 2), ("0:-1", 2)])
    def test_bad_seed_window(self, pipeline, capsys, window, code):
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(pipeline / "g"),
                     "--length", "10", "--seed-window", window]) == code
        err = capsys.readouterr().err
        assert ("wants SONG:OFFSET" if code == 1 else f"seed window {window} out of range") in err
        assert not (pipeline / "g").exists()

    def test_negative_repeat_cap_is_usage_error(self, pipeline, capsys):
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(pipeline / "g"),
                     "--repeat-cap", "-1"]) == 1
        assert "repeat_cap -1 must be >= 0" in capsys.readouterr().err
        assert not (pipeline / "g").exists()

    @pytest.mark.parametrize("source", ["random", "explicit", "file"])
    def test_manifest_lists_seedwin_for_a_random_window_only(self, pipeline, tmp_path, source):
        seed_path = tmp_path / "seed.txt"
        seed_path.write_text((pipeline / "corpus.txt").read_text().splitlines()[1] + "\n")
        window = {"random": [], "explicit": ["--seed-window", "0:3"],
                  "file": ["--seed-file", str(seed_path)]}[source]
        out = pipeline / "gen"
        assert main(["generate", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "corpus.txt"), "--out", str(out),
                     "--count", "2", "--length", "5", *window]) == 0
        manifest = json.loads((out / "generate_manifest.json").read_text())
        assert manifest["seed_window"]["source"] == source
        assert set(manifest["seeds"]) == {"master", "sampling.0", "sampling.1"} | \
            ({"seedwin"} if source == "random" else set())

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

    def test_corpus_of_songs_no_longer_than_a_window_is_data_error(self, pipeline, capsys):
        corpus = load_corpus(pipeline / "corpus.txt")  # the same tokens, cut into L-token songs
        L = corpus.window_len
        corpus.songs = [(notes[i:i + L], durs[i:i + L])
                        for notes, durs in corpus.songs for i in range(0, len(notes), L)]
        save_corpus(pipeline / "short.txt", corpus)
        assert main(["eval", "--checkpoint", str(pipeline / "checkpoint.bin"),
                     "--corpus", str(pipeline / "short.txt")]) == 2
        captured = capsys.readouterr()
        assert "EmptyDataset: no windows to evaluate" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["layer0.forget.b", "head_note.w"])
    def test_parameter_of_the_wrong_shape_is_data_error(self, pipeline, capsys, name):
        data = bytearray((pipeline / "checkpoint.bin").read_bytes())
        at = data.index(struct.pack("<H", len(name)) + name.encode()) + 2 + len(name)
        rows, cols = struct.unpack_from("<II", data, at)
        struct.pack_into("<II", data, at, cols, rows)  # the same values, transposed
        path = pipeline / "transposed.bin"
        path.write_bytes(data)
        assert main(["eval", "--checkpoint", str(path),
                     "--corpus", str(pipeline / "corpus.txt")]) == 2
        captured = capsys.readouterr()
        assert f"BadCheckpoint: parameter {name!r} has shape ({cols}, {rows})" in captured.err
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

    @pytest.mark.parametrize("override, named", [
        ("max_dur=5", "max_dur"), ("grid=3", "grid"), ("window_len=5", "window_len"),
        ("window_len=5,lr=0.01,max_dur=5,length=5", "length, max_dur, window_len"),
    ], ids=["max_dur", "grid", "window_len", "mixed"])
    def test_override_of_a_key_variants_does_not_train_with_is_usage_error(
            self, pipeline, capsys, override, named):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--variant", f"a:{override}") == 1
        assert not out.exists()
        assert capsys.readouterr().err.endswith(f"settings only, not {named}\n")

    def test_manifest_lists_holdout_metrics(self, pipeline, capsys):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--count", "1", "--length", "5", "--holdout", "0.3",
                             "--variant", "a:", "--variant", "b:holdout=0") == 0
        entries = json.loads((out / "variants_manifest.json").read_text())["variants"]
        assert "holdout" not in entries["b"]
        held = entries["a"]["holdout"]
        assert held["epoch"] == 2
        # the same numbers a train run with a's config prints
        assert main(["train", "--corpus", str(pipeline / "corpus.txt"), "--out", str(out / "t"),
                     "--seed", "7", *TRAIN_FLAGS, "--holdout", "0.3"]) == 0
        assert (f"holdout: loss {held['loss']:.4f}  note_acc {held['note_acc']:.3f}  "
                f"dur_acc {held['dur_acc']:.3f}  note_ppl {held['note_ppl']:.2f}"
                ) in capsys.readouterr().out.splitlines()

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

    def test_override_sets_a_multi_layer_stack(self, pipeline):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--count", "1", "--length", "5",
                             "--variant", "deep:hidden=8,8,lr=0.01") == 0
        config = json.loads((out / "variants_manifest.json").read_text())["variants"]["deep"]
        assert config["config"]["model"]["hidden_sizes"] == [8, 8]
        assert config["config"]["lr"] == 0.01

    @pytest.mark.parametrize("variant", [
        "a:8,hidden=4",  # a bare leading item
        "a:hidden=8,,lr=1", "a:lr=1,,hidden=8", "a:,lr=1", "a:hidden=8,",  # an empty item
        "..:", ".:", "a/b:", "{pipeline}/abs:",  # a name that is not one directory inside --out
    ])
    def test_malformed_variant_is_usage_error(self, pipeline, variant):
        out = pipeline / "var"
        assert self.variants(pipeline, out, "--variant", variant.format(pipeline=pipeline)) == 1
        assert not out.exists()


class TestChecks:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--hidden", "8"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_gradcheck_impossible_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--hidden", "8", "--tolerance", "0"]) == 3
        assert capsys.readouterr().out.startswith("FAIL")

    def test_roundtrip_passes_on_valid_files(self, midi_dir, capsys):
        d, _ = midi_dir
        files = [str(p) for p in sorted(d.glob("*.mid"))]
        assert main(["roundtrip", *files]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(files)

    def test_roundtrip_reports_truncated_file(self, midi_dir, tmp_path, capsys):
        d, _ = midi_dir
        valid = sorted(d.glob("*.mid"))[0]
        broken = tmp_path / "broken.mid"
        broken.write_bytes(valid.read_bytes()[:-5])
        assert main(["roundtrip", str(broken)]) == 2
        assert "ERROR" in capsys.readouterr().out

    @pytest.mark.parametrize("data, error", [
        (b"MThd" + struct.pack(">IHHH", 5, 0, 1, 96) + b"\x00" + TRACK_END, "BadHeader"),
        (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 0) + TRACK_END, "BadHeader"),
        (b"MThd" + struct.pack(">IHHH", 6, 1, 0, 96), "BadHeader"),
        (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 96)  # a tempo meta event of 0
         + b"MTrk" + struct.pack(">I", 11) + b"\x00\xff\x51\x03\x00\x00\x00\x00\xff\x2f\x00",
         "BadEvent"),
    ], ids=["header-length-5", "division-0", "format-1-no-tracks", "tempo-0"])
    def test_roundtrip_reports_a_bad_header_or_event(self, tmp_path, capsys, data, error):
        path = tmp_path / "bad.mid"
        path.write_bytes(data)
        assert main(["roundtrip", str(path)]) == 2
        assert f"ERROR {path}: {error}" in capsys.readouterr().out

    @pytest.mark.parametrize("writer, reason", [
        (lambda mf: write_midi(replace(mf, division=mf.division + 1)),
         "reparse is not event-equivalent"),
        (lambda mf, calls=itertools.count(): write_midi(mf)  # a chunk after the tracks,
         + b"XTRA" + struct.pack(">I", 1) + bytes([next(calls)]),  # which parsing skips
         "canonical form is not a write fixed point"),
    ], ids=["not-equivalent", "not-a-fixed-point"])
    def test_roundtrip_fails_on_a_writer_that_is_not_a_fixed_point(self, midi_dir, monkeypatch,
                                                                   capsys, writer, reason):
        path = sorted(midi_dir[0].glob("*.mid"))[0]
        monkeypatch.setattr(cli, "write_midi", writer)
        assert main(["roundtrip", str(path)]) == 3
        assert capsys.readouterr().out == f"FAIL {path}: {reason}\n"


# each command's flags: the four that resolve a config take --seed, --config,
# --out and one flag per config key they read
_CONFIG_FLAGS = {"--seed", "--config", "--out"}
_TRAIN_KEY_FLAGS = {"--epochs", "--batch-size", "--lr", "--optimizer", "--clip-norm",
                    "--checkpoint-every", "--holdout", "--hidden", "--dropout"}
_GEN_KEY_FLAGS = {"--count", "--length", "--temperature", "--mode", "--repeat-cap"}
COMMAND_FLAGS = {
    "ingest": _CONFIG_FLAGS | {"--grid", "--window-len", "--max-dur", "--midi-dir"},
    "train": _CONFIG_FLAGS | _TRAIN_KEY_FLAGS | {"--corpus"},
    "generate": _CONFIG_FLAGS | _GEN_KEY_FLAGS | {"--checkpoint", "--corpus", "--seed-window",
                                                  "--seed-file", "--tokens"},
    "eval": {"--checkpoint", "--corpus"},
    "variants": _CONFIG_FLAGS | _TRAIN_KEY_FLAGS | _GEN_KEY_FLAGS | {"--corpus", "--variant"},
    "gradcheck": {"--hidden", "--seed", "--tolerance"},
    "roundtrip": {"files"},
}


class TestUsage:
    def test_each_command_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: {a.option_strings[0] if a.option_strings else a.dest
                        for a in p._actions if not isinstance(a, argparse._HelpAction)}
                 for name, p in sub.choices.items()}
        assert flags == COMMAND_FLAGS
        assert sum(map(len, flags.values())) == 58

    @pytest.mark.parametrize("command, extra", [
        (["eval", "--checkpoint", "k.bin", "--corpus", "c.txt"], ["--out", "o"]),
        (["eval", "--checkpoint", "k.bin", "--corpus", "c.txt"], ["--config", "k.cfg"]),
        (["eval", "--checkpoint", "k.bin", "--corpus", "c.txt"], ["--seed", "1"]),
        (["roundtrip", "a.mid"], ["--out", "o"]),
        (["roundtrip", "a.mid"], ["--config", "k.cfg"]),
        (["roundtrip", "a.mid"], ["--seed", "1"]),
        (["gradcheck", "--hidden", "4"], ["--out", "o"]),
        (["gradcheck", "--hidden", "4"], ["--config", "k.cfg"]),
    ])
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, monkeypatch,
                                                           command, extra):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k.cfg").write_text("hidden = 8\n")
        with pytest.raises(SystemExit) as exc:
            main([*command, *extra])
        assert exc.value.code == 1
        assert [p.name for p in tmp_path.iterdir()] == ["k.cfg"]  # created nothing

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
        for value in ("0", "nan", "inf", "1e-320", "5e-324"):
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


ARTIFACTS = ["corpus.txt", "ingest_manifest.json", "checkpoint_ep0001.bin", "checkpoint.bin",
             "metrics.csv", "train_manifest.json", "out_000.mid", "out_000.tokens",
             "generate_manifest.json"]


def write_artifacts(midi_dir, out, inputs) -> list[int]:
    """Exit codes of ingest, train and generate into ``out``, the last two
    reading the corpus and checkpoint in ``inputs``."""
    return [main(["ingest", "--midi-dir", str(midi_dir), "--out", str(out), "--window-len", "10"]),
            main(["train", "--corpus", str(inputs / "corpus.txt"), "--out", str(out),
                  "--epochs", "1", "--hidden", "8", "--batch-size", "8",
                  "--checkpoint-every", "1"]),
            main(["generate", "--checkpoint", str(inputs / "checkpoint.bin"),
                  "--corpus", str(inputs / "corpus.txt"), "--out", str(out),
                  "--length", "20", "--tokens"])]


class CutFile:
    """A write handle that writes its first ``budget`` bytes, then raises."""

    def __init__(self, fh, budget: int):
        self.fh, self.left = fh, budget

    def write(self, data):
        if len(data) > self.left:  # every text artifact is ASCII: a character is a byte
            self.fh.write(data[:self.left])
            self.fh.flush()
            raise OSError("injected: write cut")
        self.left -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("name", ARTIFACTS)
def test_a_write_cut_after_k_bytes_leaves_the_artifact_as_it_was(tmp_path, midi_dir,
                                                                  monkeypatch, capsys, name):
    """Every artifact of ingest, train and generate is written through a
    sibling temp file: with the write of ``name`` cut after k bytes, for
    several k, ``name`` is absent or holds its previous bytes, every other
    artifact is that or whole, and no temp file is left behind."""
    real_open, opened, cut = open, [], {}

    def cutting_open(file, mode="r", **kwargs):
        fh = real_open(file, mode, **kwargs)
        if "w" not in mode:
            return fh
        opened.append(Path(file).name)
        return CutFile(fh, cut.get(Path(file).name, math.inf))

    monkeypatch.setattr(corpus_module, "open", cutting_open, raising=False)
    clean = tmp_path / "clean"
    assert write_artifacts(midi_dir[0], clean, clean) == [0, 0, 0]
    assert sorted(opened) == sorted(f"{a}.tmp" for a in ARTIFACTS)
    assert sorted(os.listdir(clean)) == sorted(ARTIFACTS)
    whole = {a: (clean / a).read_bytes() for a in ARTIFACTS}

    size = len(whole[name])
    for k, previous in [(0, None), (size // 2, None), (1, b"previous\n"),
                        (size // 2, b"previous\n"), (size - 1, b"previous\n")]:
        cut[f"{name}.tmp"] = k
        out = tmp_path / f"cut{k}{previous is None}"
        if previous is not None:
            out.mkdir()
            for a in ARTIFACTS:
                (out / a).write_bytes(previous)
        assert sorted(write_artifacts(midi_dir[0], out, clean)) == [0, 0, 2]
        assert "injected: write cut" in capsys.readouterr().err
        left = sorted(os.listdir(out))
        assert set(left) <= set(ARTIFACTS), left  # no temp file
        for a in ARTIFACTS:
            data = (out / a).read_bytes() if a in left else None
            assert data in ((previous,) if a == name else (previous, whole[a])), (k, a)


@pytest.mark.parametrize("batch_size", [
    "48",  # 3 batches of 480 product rows (window x batch) and one of 360
    "52",  # weight-gradient products over 520 rows: above 384, not a multiple of 32
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


@pytest.mark.xfail(len(os.sched_getaffinity(0)) >= 2, strict=True, raises=AssertionError,
                   reason="a hidden width above 384 and not a multiple of 32 meets OpenBLAS's "
                          "threaded K split in the recurrent and input products")
def test_checkpoint_at_hidden_500_does_not_depend_on_the_blas_thread_count(tmp_path):
    """One batch of 52 windows through a 500,500 model, trained in a child
    process at 1 and at 2 BLAS threads: the checkpoints must match."""
    src = Path(cli.__file__).parent.parent
    song = looped_song(31, n_tokens=62)
    save_corpus(tmp_path / "corpus.txt", CorpusFile(12, 10, 48, [song]))
    blobs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "midilstm.cli", "train", "--corpus",
                               "corpus.txt", "--out", f"threads{threads}", "--hidden", "500,500",
                               "--dropout", "0", "--epochs", "1", "--batch-size", "52",
                               "--checkpoint-every", "0"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        blobs.append((tmp_path / f"threads{threads}" / "checkpoint.bin").read_bytes())
    assert blobs[0] == blobs[1]


def test_import_starts_no_thread():
    # the lane pool, and concurrent.futures with it, start with the first
    # batch pass that splits: importing the CLI pays for neither
    src = Path(cli.__file__).parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, threading, midilstm.cli; "
                           "print('concurrent.futures' in sys.modules, threading.active_count())"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["False", "1"]


def test_no_module_reads_the_environment():
    # every behaviour must be set by flags or config, which the manifest
    # records, so a run stays reproducible from its manifest
    package = Path(cli.__file__).parent
    readers = [f"{path.name}:{lineno}: {line.strip()}"
               for path in sorted(package.glob("*.py"))
               for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if re.search(r"environ|getenv", line)]
    assert readers == []


def header_vocab_checkpoint(run, change):
    """The pipeline's checkpoint and a corpus whose note vocabulary equals
    the header's, with the header's note list changed; the model's note
    head keeps its width. For ``L=14``, the pipeline's checkpoint, trained
    at L=10, and its corpus with the header's window length changed."""
    ckpt = load_checkpoint(run / "checkpoint.bin")
    corpus = load_corpus(run / "corpus.txt")
    if change == "L=14":
        corpus.window_len = 14
        save_corpus(run / "header_corpus.txt", corpus)
        return run / "checkpoint.bin", run / "header_corpus.txt"
    tokens = list(ckpt.note_vocab.tokens)
    if change.startswith("+"):  # MIDI keys 0, 1, ... are not in the test corpus
        new = [str(k) for k in range(int(change))]
        corpus.songs.append((new, [ckpt.dur_vocab.tokens[0]] * len(new)))
        header = tokens + new
    else:  # the last token is gone from the corpus, or listed as the first again
        gone = tokens[-1]
        corpus.songs = [([tokens[0] if t == gone else t for t in notes], durs)
                        for notes, durs in corpus.songs]
        header = tokens[:-1] + ([tokens[0]] if change == "repeated" else [])
    path, corpus_path = run / "header.bin", run / "header_corpus.txt"
    # save_checkpoint writes the note list as given, so a repeat reaches the file
    listed = Vocabulary(header)
    listed.tokens = tuple(header)
    save_checkpoint(path, ckpt.params, ckpt.config, listed, ckpt.dur_vocab, ckpt.epoch,
                    ckpt.final_loss)
    save_corpus(corpus_path, corpus)
    return path, corpus_path


@pytest.mark.parametrize("command", ["generate", "eval"])
@pytest.mark.parametrize("change", ["+1", "+8", "-1", "repeated", "L=14"])
def test_header_vocabulary_that_does_not_fit_the_model_is_data_error(pipeline, capsys,
                                                                     command, change):
    ckpt, corpus = header_vocab_checkpoint(pipeline, change)
    out = pipeline / "gen"
    argv = [command, "--checkpoint", str(ckpt), "--corpus", str(corpus)]
    assert main(argv + (["--out", str(out)] if command == "generate" else [])) == 2
    captured = capsys.readouterr()
    assert ("VocabMismatch" if change == "L=14" else "BadCheckpoint") in captured.err
    assert captured.out == ""
    assert not out.exists()


def header_int_fields(node, path):
    """Key paths of every integer in a checkpoint header's config."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from header_int_fields(value, path + (key,))
        elif isinstance(value, int) and not isinstance(value, bool):
            yield path + (key,)


def test_structured_checkpoint_header_fuzz(pipeline, tmp_path):
    """Each integer header field set to each of a few sizes and types: eval
    and generate exit 0 or 2, allocating nothing the header declares
    before checking that the file holds it."""
    golden = (pipeline / "checkpoint.bin").read_bytes()
    hlen = int.from_bytes(golden[12:16], "little")
    header = json.loads(golden[16:16 + hlen])
    fields = [("epoch",), *header_int_fields(header["config"], ("config",))]
    assert {f[2] for f in fields if f[1:2] == ("model",)} == {
        "hidden_sizes", "note_vocab_size", "dur_vocab_size", "window_len"}
    path, out = tmp_path / "fuzz.bin", tmp_path / "gen"
    codes = set()
    for field in fields:
        for value in (0, -1, 2 ** 31, 10 ** 7, 2.5, "12", None):
            header = json.loads(golden[16:16 + hlen])
            *parents, last = field
            target = header
            for key in parents:
                target = target[key]
            target[last] = value
            blob = json.dumps(header).encode()
            path.write_bytes(golden[:12] + len(blob).to_bytes(4, "little") + blob
                             + golden[16 + hlen:])
            for argv in (["eval"], ["generate", "--length", "2", "--out", str(out)]):
                code = main([*argv, "--checkpoint", str(path),
                             "--corpus", str(pipeline / "corpus.txt")])
                assert code in (0, 2), (field, value, argv[0])
                codes.add(code)
    assert codes == {0, 2}


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

    def test_mutated_variant_override(self, pipeline, tmp_path):
        golden = b"a:hidden=4,4,lr=0.01,dropout=0.1"
        out = tmp_path / "o"
        rng = Rng(4)
        codes = set()
        for _ in range(200):
            data = bytearray(golden)
            data[rng.randint(len(data))] = 1 + rng.randint(255)  # argv holds no NUL
            override = os.fsdecode(bytes(data))  # as the interpreter decodes argv
            shutil.rmtree(out, ignore_errors=True)
            try:  # --variant= keeps a leading '-' from reading as a flag
                code = main(["variants", "--corpus", str(pipeline / "corpus.txt"),
                             "--out", str(out), "--epochs", "0", "--hidden", "4",
                             "--count", "1", "--length", "2", f"--variant={override}"])
            except SystemExit as exc:
                code = exc.code
            codes.add(code)
            assert code in (0, 1, 2), bytes(data)
            assert code != 1 or not out.exists(), bytes(data)
        assert codes == {0, 1}

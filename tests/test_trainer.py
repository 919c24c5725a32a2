import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import looped_song, song_dataset
from midilstm import cli, numerics, trainer
from midilstm.corpus import CorpusFile, Vocabulary, save_corpus
from midilstm.errors import (BadCheckpoint, EmptyDataset, TrainingDiverged, UsageError,
                             VocabMismatch)
from midilstm.lstm import ModelConfig, ModelParams
from midilstm.numerics import Rng, derive_seed
from midilstm.trainer import (
    CHECKPOINT_MAGIC,
    MetricsRow,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    split_holdout,
    train,
    write_metrics,
)
from midilstm.corpus import make_windows


def tiny_setup(n_tokens=80, window_len=10, hidden=(16,), seed=5, **overrides):
    notes, durs = looped_song(seed, n_tokens=n_tokens, period=13, n_pitches=6)
    note_vocab, dur_vocab, dataset = song_dataset([(notes, durs)], window_len)
    defaults = dict(epochs=2, batch_size=16, lr=1e-3, optimizer="adam", seed=9,
                    checkpoint_every=0)
    defaults.update(overrides)
    config = TrainConfig(
        model=ModelConfig(len(note_vocab), len(dur_vocab), hidden_sizes=hidden,
                          dropout=0.0, window_len=window_len),
        **defaults)
    return dataset, config, note_vocab, dur_vocab


class TestTrain:
    def test_zero_lr_keeps_params(self):
        dataset, config, nv, dv = tiny_setup(epochs=1, lr=0.0)
        before = ModelParams.init(config.model, Rng(derive_seed(config.seed, "init")))
        result = train(dataset, config, nv, dv)
        for (_, a), (_, b) in zip(before.named_params(), result.params.named_params()):
            assert np.array_equal(a, b)

    def test_deterministic_checkpoints(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            dataset, config, nv, dv = tiny_setup(epochs=2)
            train(dataset, config, nv, dv, out_dir=tmp_path / sub)
        a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert a == b

    def test_loss_decreases_on_overfit_corpus(self):
        dataset, config, nv, dv = tiny_setup(epochs=6)
        result = train(dataset, config, nv, dv)
        losses = [m.loss for m in result.metrics]
        non_increasing = sum(1 for x, y in zip(losses, losses[1:]) if y <= x)
        assert non_increasing >= 4

    def test_memorizes_tiny_song(self):
        dataset, config, nv, dv = tiny_setup(epochs=60, hidden=(32,))
        result = train(dataset, config, nv, dv)
        row = evaluate(result.params, dataset, nv, dv)
        assert row.note_acc >= 0.9
        assert row.dur_acc >= 0.9

    def test_sgd_also_trains(self):
        dataset, config, nv, dv = tiny_setup(epochs=3, optimizer="sgd", lr=0.5)
        result = train(dataset, config, nv, dv)
        assert result.metrics[-1].loss < result.metrics[0].loss

    def test_checkpoint_bytes_do_not_depend_on_the_lane_count(self, tmp_path, monkeypatch):
        # 190 windows in batches of 64, 64 and 62, with dropout; the
        # recurrences and products run on 2 or 3 lanes
        blobs = []
        for lanes in (1, 2, 3):
            monkeypatch.setattr(numerics, "lanes", lambda: lanes)
            dataset, config, nv, dv = tiny_setup(n_tokens=200, hidden=(288, 256), epochs=1,
                                                 batch_size=64)
            config.model.dropout = 0.3
            out = tmp_path / str(lanes)
            train(dataset, config, nv, dv, out_dir=out)
            blobs.append((out / "checkpoint.bin").read_bytes())
        assert numerics.product_lanes(62, 4 * 256, 256) == 3
        assert blobs[1] == blobs[0] and blobs[2] == blobs[0]

    def test_batch_size_clamped_to_window_count(self):
        dataset, config, nv, dv = tiny_setup(epochs=1, batch_size=100_000)
        train(dataset, config, nv, dv)  # must not raise

    @pytest.mark.parametrize("field, value, message", [
        ("optimizer", "rmsprop", "unknown optimizer 'rmsprop'"),
        ("clip_norm", float("inf"), "clip_norm inf must be finite"),
    ])
    def test_bad_config_is_usage_error(self, field, value, message):
        _, config, _, _ = tiny_setup(**{field: value})
        with pytest.raises(UsageError, match=message):
            config.validate()

    def test_empty_dataset(self):
        dataset, config, nv, dv = tiny_setup(n_tokens=10, window_len=10)
        with pytest.raises(EmptyDataset):
            train(dataset, config, nv, dv)

    def test_vocab_mismatch(self):
        dataset, config, nv, dv = tiny_setup()
        wrong = Vocabulary(list(nv.tokens) + ["999"])
        with pytest.raises(VocabMismatch):
            train(dataset, config, wrong, dv)

    def test_checkpoint_cadence(self, tmp_path):
        dataset, config, nv, dv = tiny_setup(epochs=4, checkpoint_every=2)
        result = train(dataset, config, nv, dv, out_dir=tmp_path)
        names = sorted(p.split("/")[-1] for p in result.checkpoint_paths)
        assert names == ["checkpoint.bin", "checkpoint_ep0002.bin", "checkpoint_ep0004.bin"]

    def test_epoch_callback(self):
        dataset, config, nv, dv = tiny_setup(epochs=3)
        seen = []
        train(dataset, config, nv, dv, on_epoch=lambda row: seen.append(row.epoch))
        assert seen == [1, 2, 3]


class TestDivergence:
    def test_nan_parameter_stops_before_any_checkpoint(self, tmp_path, monkeypatch):
        real_init = ModelParams.init

        def nan_init(config, rng):
            params = real_init(config, rng)
            params.w_note[0, 0] = np.nan
            return params

        monkeypatch.setattr(trainer.ModelParams, "init", nan_init)
        dataset, config, nv, dv = tiny_setup(epochs=1)
        with pytest.raises(TrainingDiverged):
            train(dataset, config, nv, dv, out_dir=tmp_path)
        assert not (tmp_path / "checkpoint.bin").exists()

        corpus = tmp_path / "corpus.txt"
        save_corpus(corpus, CorpusFile(12, 10, 48, [looped_song(5, n_tokens=80)]))
        run = tmp_path / "run"
        assert cli.main(["train", "--corpus", str(corpus), "--out", str(run), "--epochs", "1",
                         "--hidden", "8", "--checkpoint-every", "0"]) == 2
        assert not (run / "checkpoint.bin").exists()


class TestHoldout:
    def test_split_reserves_trailing_windows(self):
        dataset, config, nv, dv = tiny_setup()
        windows, _ = make_windows(dataset)
        train_w, held_w = split_holdout(dataset, windows, 0.25)
        assert len(train_w) + len(held_w) == len(windows)
        assert held_w
        assert max(off for _, off in train_w) < min(off for _, off in held_w)

    def test_train_reports_holdout_metrics(self):
        dataset, config, nv, dv = tiny_setup(epochs=1, holdout=0.2)
        result = train(dataset, config, nv, dv)
        assert result.holdout_metrics is not None
        assert 0.0 <= result.holdout_metrics.note_acc <= 1.0


class TestEvaluate:
    def test_fresh_model_note_perplexity_near_vocab_size(self):
        dataset, config, nv, dv = tiny_setup(hidden=(32,))
        params = ModelParams.init(config.model, Rng(1))
        row = evaluate(params, dataset, nv, dv)
        n = len(nv)
        assert abs(row.note_ppl - n) / n < 0.2

    def test_deterministic(self):
        dataset, config, nv, dv = tiny_setup()
        params = ModelParams.init(config.model, Rng(2))
        assert evaluate(params, dataset, nv, dv) == \
            evaluate(params, dataset, nv, dv)

    def test_single_window_accuracy_is_zero_or_one(self):
        notes, durs = looped_song(3, n_tokens=11, period=5, n_pitches=4)
        nv, dv, dataset = song_dataset([(notes, durs)], 10)
        config = ModelConfig(len(nv), len(dv), hidden_sizes=(8,), dropout=0.0, window_len=10)
        row = evaluate(ModelParams.init(config, Rng(3)), dataset, nv, dv)
        assert row.note_acc in (0.0, 1.0)
        assert row.dur_acc in (0.0, 1.0)


class TestMetricsCsv:
    def test_format(self, tmp_path):
        rows = [MetricsRow(1, 2.5, 0.25, 0.5, 12.125)]
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows)
        assert path.read_text() == (
            "epoch,loss,note_acc,dur_acc,note_ppl\n"
            "1,2.500000,0.250000,0.500000,12.125000\n"
        )


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        dataset, config, nv, dv = tiny_setup(epochs=1)
        result = train(dataset, config, nv, dv)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, result.params, config, nv, dv, epoch=1, final_loss=1.25)
        loaded = load_checkpoint(path)
        for (name_a, a), (name_b, b) in zip(result.params.named_params(),
                                            loaded.params.named_params()):
            assert name_a == name_b
            assert a.tobytes() == b.tobytes()
        assert loaded.note_vocab == nv
        assert loaded.dur_vocab == dv
        assert loaded.epoch == 1
        assert loaded.final_loss == 1.25
        assert asdict(loaded.config) == asdict(config)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        dataset, config, nv, dv = tiny_setup(epochs=0)
        params = ModelParams.init(config.model, Rng(0))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, config, nv, dv, 0, 0.0)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    def tiny_checkpoint(self, tmp_path):
        dataset, config, nv, dv = tiny_setup(epochs=0, hidden=(4,))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, ModelParams.init(config.model, Rng(0)), config, nv, dv, 0, 0.5)
        return path

    def rewrite_header(self, path, edit):
        data = path.read_bytes()
        hlen = int.from_bytes(data[12:16], "little")
        header = json.loads(data[16:16 + hlen])
        edit(header)
        blob = json.dumps(header).encode()
        path.write_bytes(data[:12] + len(blob).to_bytes(4, "little") + blob + data[16 + hlen:])

    @pytest.mark.parametrize("key", ["note_vocab", "dur_vocab", "epoch", "final_loss"])
    def test_missing_header_key(self, tmp_path, key):
        path = self.tiny_checkpoint(tmp_path)
        self.rewrite_header(path, lambda h: h.pop(key))
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("hidden_sizes", ["4"]), ("hidden_sizes", 4),
                                              ("note_vocab_size", "6"), ("dropout", None)])
    def test_wrong_header_type(self, tmp_path, field, value):
        path = self.tiny_checkpoint(tmp_path)
        self.rewrite_header(path, lambda h: h["config"]["model"].update({field: value}))
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [lambda c: c.pop("epochs"),
                                      lambda c: c["model"].pop("window_len"),
                                      lambda c: c.update(warp_speed=9),
                                      lambda c: c["model"].update(warp_speed=9)])
    def test_config_keys_must_match_fields(self, tmp_path, edit):
        path = self.tiny_checkpoint(tmp_path)
        self.rewrite_header(path, lambda h: edit(h["config"]))
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    def test_non_utf8_parameter_name(self, tmp_path):
        path = self.tiny_checkpoint(tmp_path)
        data = path.read_bytes()
        at = data.index(b"layer0.forget.w")
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)
        corpus = tmp_path / "corpus.txt"
        save_corpus(corpus, CorpusFile(12, 10, 48, [looped_song(5, n_tokens=80)]))
        assert cli.main(["eval", "--checkpoint", str(path), "--corpus", str(corpus)]) == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter(self, tmp_path, value):
        dataset, config, nv, dv = tiny_setup(epochs=0, hidden=(4,))
        params = ModelParams.init(config.model, Rng(0))
        path = tmp_path / "ckpt.bin"
        # `train --epochs 0` records a NaN final loss; only parameters are checked
        save_checkpoint(path, params, config, nv, dv, 0, float("nan"))
        assert np.isnan(load_checkpoint(path).final_loss)
        params.layers[0].w[5, 3] = value
        save_checkpoint(path, params, config, nv, dv, 0, 0.5)
        with pytest.raises(BadCheckpoint, match="layer0"):
            load_checkpoint(path)

    def test_mutated_checkpoint_loads_or_raises_bad_checkpoint(self, tmp_path):
        golden = self.tiny_checkpoint(tmp_path).read_bytes()
        rng = Rng(6)
        path = tmp_path / "mutant.bin"
        for _ in range(400):
            data = bytearray(golden)
            data[rng.randint(len(data))] = rng.randint(256)
            path.write_bytes(bytes(data))
            try:
                load_checkpoint(path)
            except BadCheckpoint:
                pass

    def test_magic_constant(self):
        assert CHECKPOINT_MAGIC == b"LSTMCMP1"

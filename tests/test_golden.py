"""Parity with fixtures written by the per-gate LSTM code that preceded the
fused-gate core.

A tiny 2-layer model with dropout pins the Xavier draw order, the dropout
stream order, the backward pass and Adam:

- ``golden_init.bin``: the v1 checkpoint of a freshly initialised model;
- ``golden_probs.npz``: its head probabilities on ``WINDOW``;
- ``golden_trained.bin``: the checkpoint of a 1-epoch ``train`` run;
- ``golden_song.tokens``: one song per ``GOLDEN_SONGS`` entry, generated
  from ``golden_trained.bin`` by the per-token loop that re-ran each window
  through ``model_forward``, before the wavefront generator.

Rewrite them with ``PYTHONPATH=src:tests python tests/test_golden.py`` only
when a change is meant to alter what the model computes.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import looped_song, song_dataset
from midilstm.corpus import format_song
from midilstm.generator import GenConfig, generate
from midilstm.lstm import ModelConfig, ModelParams, model_forward
from midilstm.numerics import Rng, derive_seed
from midilstm.trainer import TrainConfig, load_checkpoint, save_checkpoint, train

DATA = Path(__file__).parent / "data"
WINDOW = ([[0, 1, 2, 3, 4, 0], [4, 3, 3, 1, 0, 2]], [[0, 1, 2, 0, 1, 2], [2, 2, 1, 0, 0, 1]])
# (generation config, sampling seed) of each line of golden_song.tokens
GOLDEN_SONGS = ((GenConfig(length=40, temperature=0.9, mode="sample"), 3),
                (GenConfig(length=40, mode="argmax", repeat_cap=2), 4))


def golden_setup():
    songs = [looped_song(3, n_tokens=60, period=11, n_pitches=5),
             looped_song(4, n_tokens=48, period=7, n_pitches=5)]
    note_vocab, dur_vocab, dataset = song_dataset(songs, window_len=6)
    config = TrainConfig(
        model=ModelConfig(len(note_vocab), len(dur_vocab), hidden_sizes=(6, 5),
                          dropout=0.3, window_len=6),
        epochs=1, batch_size=16, lr=1e-2, seed=11, checkpoint_every=0)
    return dataset, config, note_vocab, dur_vocab


def golden_songs(checkpoint_path):
    """The ``GOLDEN_SONGS`` results of a checkpoint, seeded with the first
    window of the first training song."""
    ckpt = load_checkpoint(checkpoint_path)
    notes, durs = looped_song(3, n_tokens=60, period=11, n_pitches=5)
    L = ckpt.config.model.window_len
    return [generate(ckpt.params, ckpt.config.model, ckpt.note_vocab, ckpt.dur_vocab,
                     notes[:L], durs[:L], gen_config, Rng(seed))
            for gen_config, seed in GOLDEN_SONGS]


def write_fixtures(out: Path) -> None:
    dataset, config, nv, dv = golden_setup()
    init_dir, trained_dir = out / "init", out / "trained"
    init_dir.mkdir(parents=True)
    trained_dir.mkdir()
    train(dataset, replace(config, epochs=0), nv, dv, out_dir=init_dir)
    (init_dir / "checkpoint.bin").rename(out / "golden_init.bin")
    train(dataset, config, nv, dv, out_dir=trained_dir)
    (trained_dir / "checkpoint.bin").rename(out / "golden_trained.bin")
    init_dir.rmdir()
    trained_dir.rmdir()
    params = load_checkpoint(out / "golden_init.bin").params
    note_probs, dur_probs, _ = model_forward(np.array(WINDOW[0]), np.array(WINDOW[1]),
                                             params, config.model)
    np.savez(out / "golden_probs.npz", note=note_probs, dur=dur_probs)
    (out / "golden_song.tokens").write_text(
        "".join(format_song(r.notes, r.durs) + "\n" for r in golden_songs(out / "golden_trained.bin")),
        encoding="utf-8")


def test_init_checkpoint_resaves_to_identical_bytes(tmp_path):
    ckpt = load_checkpoint(DATA / "golden_init.bin")
    path = tmp_path / "resaved.bin"
    save_checkpoint(path, ckpt.params, ckpt.config, ckpt.note_vocab, ckpt.dur_vocab,
                    ckpt.epoch, ckpt.final_loss)
    assert path.read_bytes() == (DATA / "golden_init.bin").read_bytes()


def test_same_seed_initialises_same_weights():
    _, config, _, _ = golden_setup()
    fresh = ModelParams.init(config.model, Rng(derive_seed(config.seed, "init")))
    loaded = load_checkpoint(DATA / "golden_init.bin").params
    for (name, a), (_, b) in zip(fresh.named_params(), loaded.named_params()):
        assert np.array_equal(a, b), name


def test_head_probabilities_match():
    ckpt = load_checkpoint(DATA / "golden_init.bin")
    note_probs, dur_probs, _ = model_forward(np.array(WINDOW[0]), np.array(WINDOW[1]),
                                             ckpt.params, ckpt.config.model)
    golden = np.load(DATA / "golden_probs.npz")
    assert np.max(np.abs(note_probs - golden["note"])) < 1e-12
    assert np.max(np.abs(dur_probs - golden["dur"])) < 1e-12


def test_one_epoch_training_matches(tmp_path):
    dataset, config, nv, dv = golden_setup()
    result = train(dataset, config, nv, dv)
    golden = load_checkpoint(DATA / "golden_trained.bin")
    assert abs(result.metrics[-1].loss - golden.final_loss) < 1e-9
    for (name, a), (_, b) in zip(result.params.named_params(), golden.params.named_params()):
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), name


def test_generated_songs_match():
    lines = (DATA / "golden_song.tokens").read_text(encoding="utf-8").splitlines()
    songs = golden_songs(DATA / "golden_trained.bin")
    assert [format_song(r.notes, r.durs) for r in songs] == lines


def test_generated_song_stats():
    sample, argmax = (r.stats() for r in golden_songs(DATA / "golden_trained.bin"))
    assert sample == {"guard_triggers": 0, "guard_saturations": 0, "longest_run": 3,
                      "distinct_note_ratio": 5 / 40}
    # the argmax song hits the repeat cap of 2 again and again
    assert argmax == {"guard_triggers": 13, "guard_saturations": 0, "longest_run": 2,
                      "distinct_note_ratio": 3 / 40}


if __name__ == "__main__":
    write_fixtures(DATA)

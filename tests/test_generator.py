import numpy as np
import pytest

from conftest import looped_song, song_dataset
from midilstm import generator
from midilstm.errors import BadToken, CorpusTooShort, OovSeedToken
from midilstm.generator import GenConfig, GenResult, emit, generate, pick_seed
from midilstm.lstm import ModelConfig, ModelParams, heads, model_forward
from midilstm.numerics import Rng
from midilstm.score import NoteEvent


def setup_model(seed=7, window_len=10, n_pitches=6, hidden=(16,)):
    notes, durs = looped_song(seed, n_tokens=60, period=9, n_pitches=n_pitches)
    note_vocab, dur_vocab, dataset = song_dataset([(notes, durs)], window_len)
    config = ModelConfig(len(note_vocab), len(dur_vocab), hidden_sizes=hidden,
                         dropout=0.0, window_len=window_len)
    params = ModelParams.init(config, Rng(seed))
    seed_notes, seed_durs = notes[:window_len], durs[:window_len]
    return params, config, note_vocab, dur_vocab, seed_notes, seed_durs, dataset


def rig_note_head(params, note_id, bias=50.0):
    """Force the note head to put (almost) all mass on one token."""
    params.w_note[...] = 0.0
    params.b_note[...] = 0.0
    params.b_note[0, note_id] = bias


class TestPickSeed:
    def test_single_window_forced(self):
        notes, durs = looped_song(1, n_tokens=10, period=5)
        _, _, dataset = song_dataset([(notes, durs)], 10)
        assert pick_seed(dataset, Rng(0)) == (0, 0)

    def test_deterministic(self):
        notes, durs = looped_song(2, n_tokens=40, period=7)
        _, _, dataset = song_dataset([(notes, durs)], 10)
        assert pick_seed(dataset, Rng(9)) == pick_seed(dataset, Rng(9))

    def test_all_songs_too_short(self):
        notes, durs = looped_song(3, n_tokens=9, period=5)
        _, _, dataset = song_dataset([(notes, durs)], 10)
        with pytest.raises(CorpusTooShort):
            pick_seed(dataset, Rng(0))

    def test_uniform_over_songs_and_offsets(self):
        songs = [looped_song(s, n_tokens=n, period=5) for s, n in ((1, 12), (2, 15))]
        _, _, dataset = song_dataset(songs, 10)
        # valid windows: song0 has 3 offsets, song1 has 6
        seen = {pick_seed(dataset, Rng(k)) for k in range(300)}
        assert seen == {(0, 0), (0, 1), (0, 2)} | {(1, o) for o in range(6)}


class TestGenerate:
    def test_exact_output_length(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        result = generate(params, config, nv, dv, sn, sd, GenConfig(length=37), Rng(1))
        assert len(result.notes) == 37
        assert len(result.durs) == 37

    def test_every_token_in_vocabulary(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        result = generate(params, config, nv, dv, sn, sd, GenConfig(length=50), Rng(2))
        assert all(t in nv for t in result.notes)
        assert all(d in dv for d in result.durs)

    def test_deterministic(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        cfg = GenConfig(length=30)
        a = generate(params, config, nv, dv, sn, sd, cfg, Rng(3))
        b = generate(params, config, nv, dv, sn, sd, cfg, Rng(3))
        assert a == b

    def test_argmax_ignores_temperature(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        outs = [generate(params, config, nv, dv, sn, sd,
                         GenConfig(length=25, mode="argmax", temperature=t), Rng(4))
                for t in (0.01, 1.0, 50.0)]
        assert outs[0] == outs[1] == outs[2]

    def test_tiny_temperature_converges_to_argmax(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        cold = generate(params, config, nv, dv, sn, sd,
                        GenConfig(length=30, mode="sample", temperature=1e-6), Rng(5))
        greedy = generate(params, config, nv, dv, sn, sd,
                          GenConfig(length=30, mode="argmax"), Rng(5))
        assert cold.notes == greedy.notes
        assert cold.durs == greedy.durs

    def test_oov_seed_token(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        with pytest.raises(OovSeedToken):
            generate(params, config, nv, dv, ["999"] + sn[1:], sd, GenConfig(length=5), Rng(6))

    def test_mismatched_seed_streams(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        with pytest.raises(OovSeedToken):
            generate(params, config, nv, dv, sn, sd[:-1], GenConfig(length=5), Rng(6))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(length=0).validate()
        with pytest.raises(ValueError):
            GenConfig(temperature=0.0).validate()
        with pytest.raises(ValueError):
            GenConfig(mode="beam").validate()


class TestWavefront:
    @pytest.mark.parametrize("length", [4, 10, 23])  # below, at and above the window
    def test_head_rows_match_model_forward_on_each_window(self, monkeypatch, length):
        params, config, nv, dv, sn, sd, _ = setup_model(hidden=(16, 12))
        rows = []

        def recorded(h_top, params):
            rows.append(heads(h_top, params))
            return rows[-1]

        monkeypatch.setattr(generator, "heads", recorded)
        result = generate(params, config, nv, dv, sn, sd, GenConfig(length=length), Rng(12))
        notes = [nv.encode(t) for t in sn + result.notes]
        durs = [dv.encode(d) for d in sd + result.durs]
        L = len(sn)
        assert len(rows) == length
        for u, got in enumerate(rows):  # the window of token u + L
            want = model_forward(np.array(notes[u:u + L]), np.array(durs[u:u + L]),
                                 params, config)[:2]
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_stats(self):
        result = GenResult(["60", "60", "62", "60", "60", "60"], [3] * 6,
                           guard_saturations=1, guard_triggers=2)
        assert result.stats() == {"guard_triggers": 2, "guard_saturations": 1,
                                  "longest_run": 3, "distinct_note_ratio": 2 / 6}


def longest_run(tokens):
    best = cur = 1
    for a, b in zip(tokens, tokens[1:]):
        cur = cur + 1 if a == b else 1
        best = max(best, cur)
    return best


class TestRepetitionGuard:
    def test_rigged_head_capped_at_two(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        rig_note_head(params, note_id=0)
        result = generate(params, config, nv, dv, sn, sd,
                          GenConfig(length=60, mode="argmax", repeat_cap=2), Rng(7))
        assert result.guard_saturations == 0
        assert result.guard_triggers > 0
        assert longest_run(result.notes) <= 2
        assert result.notes.count(nv.decode(0)) > 0

    def test_rigged_head_capped_in_sample_mode(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        rig_note_head(params, note_id=1)
        result = generate(params, config, nv, dv, sn, sd,
                          GenConfig(length=60, mode="sample", repeat_cap=3), Rng(8))
        assert longest_run(result.notes) <= 3

    def test_guard_disabled_lets_run_fill_output(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        rig_note_head(params, note_id=0)
        result = generate(params, config, nv, dv, sn, sd,
                          GenConfig(length=60, mode="argmax", repeat_cap=0), Rng(9))
        assert longest_run(result.notes) == 60

    def test_saturated_distribution_warns_and_emits(self):
        # a bias this large underflows every other probability to exactly 0,
        # so exclusion has nothing left to renormalize
        params, config, nv, dv, sn, sd, _ = setup_model()
        rig_note_head(params, note_id=0, bias=800.0)
        result = generate(params, config, nv, dv, sn, sd,
                          GenConfig(length=20, mode="argmax", repeat_cap=4), Rng(10))
        assert result.guard_saturations > 0
        assert result.guard_triggers == result.guard_saturations
        assert longest_run(result.notes) == 20

    def test_unrigged_model_rarely_triggers(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        result = generate(params, config, nv, dv, sn, sd,
                          GenConfig(length=80, mode="sample", repeat_cap=8), Rng(11))
        assert result.guard_saturations == 0
        assert longest_run(result.notes) <= 8


class TestEmit:
    def test_cumulative_onsets(self):
        piece = emit(["60", "R", "60.64"], [12, 12, 6], grid=12)
        assert piece.events == [
            NoteEvent(0, 12, (60,)),
            NoteEvent(12, 12, ()),
            NoteEvent(24, 6, (60, 64)),
        ]

    def test_empty(self):
        piece = emit([], [], grid=12)
        assert piece.events == []

    def test_non_canonical_token_rejected(self):
        with pytest.raises(BadToken):
            emit(["64.60"], [6], grid=12)

    def test_bad_duration_rejected(self):
        with pytest.raises(BadToken):
            emit(["60"], [0], grid=12)

    def test_emitted_piece_renders_to_midi(self):
        from midilstm.midi_io import parse_midi, write_midi
        from midilstm.score import events_to_piece, piece_to_midi
        piece = emit(["60", "62.65", "R", "48"], [3, 6, 3, 12], grid=12)
        back, _ = events_to_piece(parse_midi(write_midi(piece_to_midi(piece))), grid=12)
        assert back.events == piece.events

import threading
import time

import numpy as np
import pytest

from conftest import looped_song, song_dataset
from midilstm import generator, lstm, numerics
from midilstm.corpus import Vocabulary
from midilstm.errors import BadToken, CorpusTooShort, VocabMismatch
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


def recorded_heads(monkeypatch, tops=None) -> list:
    """The (note, duration) rows of every ``heads`` call ``generate`` makes
    from here on; each call's top h goes to ``tops`` too when given."""
    rows = []

    def recorded(h_top, params):
        if tops is not None:
            tops.append(h_top.copy())
        rows.append(heads(h_top, params))
        return rows[-1]

    monkeypatch.setattr(generator, "heads", recorded)
    return rows


def product_threads(monkeypatch) -> set:
    """The names of the threads that run ``numerics.matmul`` from here on."""
    names, original = set(), numerics.matmul

    def recorded(a, b, **kwargs):
        names.add(threading.current_thread().name)
        return original(a, b, **kwargs)

    monkeypatch.setattr(numerics, "matmul", recorded)
    monkeypatch.setattr(lstm, "matmul", recorded)
    return names


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
        result = generate(params, nv, dv, sn, sd, GenConfig(length=37), Rng(1))
        assert len(result.notes) == 37
        assert len(result.durs) == 37

    def test_every_token_in_vocabulary(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        result = generate(params, nv, dv, sn, sd, GenConfig(length=50), Rng(2))
        assert all(t in nv.tokens for t in result.notes)
        assert all(d in dv.tokens for d in result.durs)

    @pytest.mark.parametrize("which", ["note", "duration"])
    def test_vocabulary_that_does_not_fit_the_heads(self, which):
        params, config, nv, dv, sn, sd, _ = setup_model()
        if which == "note":
            nv = Vocabulary([*nv.tokens, "0"])  # key 0 is not in the song
        else:
            dv = Vocabulary(dv.tokens[:-1])
        with pytest.raises(VocabMismatch):
            generate(params, nv, dv, sn, sd, GenConfig(length=5), Rng(1))

    def test_deterministic(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        cfg = GenConfig(length=30)
        a = generate(params, nv, dv, sn, sd, cfg, Rng(3))
        b = generate(params, nv, dv, sn, sd, cfg, Rng(3))
        assert a == b

    def test_argmax_ignores_temperature(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        outs = [generate(params, nv, dv, sn, sd,
                         GenConfig(length=25, mode="argmax", temperature=t), Rng(4))
                for t in (0.01, 1.0, 50.0)]
        assert outs[0] == outs[1] == outs[2]

    def test_tiny_temperature_converges_to_argmax(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        cold = generate(params, nv, dv, sn, sd,
                        GenConfig(length=30, mode="sample", temperature=1e-6), Rng(5))
        greedy = generate(params, nv, dv, sn, sd,
                          GenConfig(length=30, mode="argmax"), Rng(5))
        assert cold.notes == greedy.notes
        assert cold.durs == greedy.durs

    def test_oov_seed_token(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        with pytest.raises(BadToken):
            generate(params, nv, dv, ["999"] + sn[1:], sd, GenConfig(length=5), Rng(6))

    def test_mismatched_seed_streams(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        with pytest.raises(BadToken):
            generate(params, nv, dv, sn, sd[:-1], GenConfig(length=5), Rng(6))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(length=0).validate()
        with pytest.raises(ValueError):
            GenConfig(temperature=0.0).validate()
        with pytest.raises(ValueError):
            GenConfig(mode="beam").validate()


class TestWavefront:
    @pytest.mark.parametrize("hidden", [(16,), (16, 12), (16, 12, 8)], ids=["1x", "2x", "3x"])
    @pytest.mark.parametrize("length", [4, 10, 23])  # below, at and above the window
    def test_head_rows_match_model_forward_on_each_window(self, monkeypatch, length, hidden):
        """Each window's head rows match its own ``model_forward``, and its top
        h is bit for bit the one a batched ``model_forward`` over all windows
        computes, but in the first and the last window: only they pass through
        a one-row product, which rounds differently."""
        params, config, nv, dv, sn, sd, _ = setup_model(hidden=hidden)
        tops = []
        rows = recorded_heads(monkeypatch, tops)
        result = generate(params, nv, dv, sn, sd, GenConfig(length=length), Rng(12))
        notes = [nv.encode(t) for t in sn + result.notes]
        durs = [dv.encode(d) for d in sd + result.durs]
        L = len(sn)
        assert len(rows) == length
        for u, got in enumerate(rows):  # the window of token u + L
            want = model_forward(np.array([notes[u:u + L]]), np.array([durs[u:u + L]]),
                                 params)[:2]
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
        windows = [np.array([ids[u:u + L] for u in range(length)]) for ids in (notes, durs)]
        batched = model_forward(*windows, params)[2].h_final
        for u in range(1, length - 1):
            assert np.array_equal(tops[u][0], batched[u]), u

    @pytest.mark.parametrize("mode, hidden", [
        pytest.param(mode, hidden, id=mode + name)
        for name, hidden in (("", (256, 256)), ("-3x256", (256, 256, 256)), ("-1x256", (256,)))
        for mode in ("sample", "argmax")])
    def test_generation_does_not_depend_on_the_lane_count(self, monkeypatch, mode, hidden):
        L = 16
        params, config, nv, dv, sn, sd, _ = setup_model(window_len=L, hidden=hidden)
        rows = recorded_heads(monkeypatch)
        threads = product_threads(monkeypatch)
        results, probs = [], []
        for lanes in (1, 2, 3):
            monkeypatch.setattr(numerics, "lanes", lambda: lanes)
            threads.clear()
            result = generate(params, nv, dv, sn, sd,
                              GenConfig(length=60, mode=mode, repeat_cap=2), Rng(13))
            assert (threads == {"MainThread"}) == (lanes == 1), threads  # inline at 1 lane
            results.append((result.notes, result.durs, result.guard_triggers,
                            result.guard_saturations))
            probs.append(np.concatenate([p for row in rows for p in row], axis=1))
            rows.clear()
        assert results[0][2] > 0  # the guard acted, so its counts are compared too
        for lanes in (2, 3):
            assert results[lanes - 1] == results[0], lanes
            assert np.array_equal(probs[lanes - 1], probs[0]), lanes  # bit for bit

    @pytest.mark.parametrize("hidden", [(256, 256), (256,)])
    @pytest.mark.parametrize("k", [0, 7])
    def test_no_product_outlives_a_failed_generation(self, monkeypatch, hidden, k):
        """``heads`` raises at token k: no product is still running when the
        error leaves ``generate``, and the next call gives a fresh run's song."""
        params, config, nv, dv, sn, sd, _ = setup_model(window_len=16, hidden=hidden)
        monkeypatch.setattr(numerics, "lanes", lambda: 2)
        fresh = generate(params, nv, dv, sn, sd, GenConfig(length=20), Rng(3))
        started, running, original = [], [], numerics.matmul

        def slow(a, b, **kwargs):  # long enough to be in flight when heads raises
            started.append(a.shape)
            running.append(a.shape)
            time.sleep(0.005)
            out = original(a, b, **kwargs)
            running.remove(a.shape)
            return out

        monkeypatch.setattr(numerics, "matmul", slow)
        monkeypatch.setattr(lstm, "matmul", slow)
        calls = []

        def failing(h_top, params):
            calls.append(h_top)
            if len(calls) > k:
                raise RuntimeError("heads failed")
            return heads(h_top, params)

        monkeypatch.setattr(generator, "heads", failing)
        with pytest.raises(RuntimeError, match="heads failed"):
            generate(params, nv, dv, sn, sd, GenConfig(length=20), Rng(3))
        assert running == []
        count = len(started)
        time.sleep(0.02)
        assert len(started) == count  # nothing was left queued either
        monkeypatch.setattr(generator, "heads", heads)
        again = generate(params, nv, dv, sn, sd, GenConfig(length=20), Rng(3))
        assert (again.notes, again.durs) == (fresh.notes, fresh.durs)

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
        result = generate(params, nv, dv, sn, sd,
                          GenConfig(length=60, mode="argmax", repeat_cap=2), Rng(7))
        assert result.guard_saturations == 0
        assert result.guard_triggers > 0
        assert longest_run(result.notes) <= 2
        assert result.notes.count(nv.decode(0)) > 0

    def test_rigged_head_capped_in_sample_mode(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        rig_note_head(params, note_id=1)
        result = generate(params, nv, dv, sn, sd,
                          GenConfig(length=60, mode="sample", repeat_cap=3), Rng(8))
        assert longest_run(result.notes) <= 3

    @pytest.mark.parametrize("cap", [2, 3])
    @pytest.mark.parametrize("mode, temperature", [("argmax", 1.0), ("sample", 1.0),
                                                   ("sample", 1e-3), ("sample", 1e-300)])
    def test_only_emitted_notes_count_and_exclusion_comes_before_temperature(
            self, mode, temperature, cap):
        params, config, nv, dv, sn, sd, _ = setup_model()
        rig_note_head(params, note_id=0)
        rigged = nv.decode(0)
        sn = sn[:-cap] + [rigged] * cap  # the seed ends in a full run of the note
        result = generate(params, nv, dv, sn, sd,
                          GenConfig(length=60, mode=mode, temperature=temperature,
                                    repeat_cap=cap), Rng(14))
        assert result.notes[:cap] == [rigged] * cap  # seed notes do not count
        assert result.guard_triggers == 60 // (cap + 1)  # once after each run of cap
        assert result.guard_saturations == 0  # the rest of the row survives tempering

    def test_guard_disabled_lets_run_fill_output(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        rig_note_head(params, note_id=0)
        result = generate(params, nv, dv, sn, sd,
                          GenConfig(length=60, mode="argmax", repeat_cap=0), Rng(9))
        assert longest_run(result.notes) == 60

    def test_saturated_distribution_warns_and_emits(self):
        # a bias this large underflows every other probability to exactly 0,
        # so exclusion has nothing left to renormalize
        params, config, nv, dv, sn, sd, _ = setup_model()
        rig_note_head(params, note_id=0, bias=800.0)
        result = generate(params, nv, dv, sn, sd,
                          GenConfig(length=20, mode="argmax", repeat_cap=4), Rng(10))
        assert result.guard_saturations > 0
        assert result.guard_triggers == result.guard_saturations
        assert longest_run(result.notes) == 20

    def test_unrigged_model_rarely_triggers(self):
        params, config, nv, dv, sn, sd, _ = setup_model()
        result = generate(params, nv, dv, sn, sd,
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

    @pytest.mark.parametrize("notes, durs", [(["60"], []), (["60", "62"], [3])])
    def test_streams_of_different_lengths_rejected(self, notes, durs):
        with pytest.raises(BadToken, match="differ in length"):
            emit(notes, durs, grid=12)

    def test_emitted_piece_renders_to_midi(self):
        from midilstm.midi_io import parse_midi, write_midi
        from midilstm.score import events_to_piece, piece_to_midi
        piece = emit(["60", "62.65", "R", "48"], [3, 6, 3, 12], grid=12)
        back, _ = events_to_piece(parse_midi(write_midi(piece_to_midi(piece))), grid=12)
        assert back.events == piece.events

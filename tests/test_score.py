import pytest

from conftest import random_piece
from midilstm.errors import InvariantViolation, NoNotes
from midilstm.midi_io import (
    EndOfTrack,
    MidiEvent,
    MidiFile,
    MidiFormat,
    NoteOff,
    NoteOn,
    Tempo,
    parse_midi,
    write_midi,
)
from midilstm.numerics import Rng
from midilstm.score import NoteEvent, Piece, events_to_piece, piece_to_midi


def track_file(events, division=480):
    track = [MidiEvent(0, Tempo(500_000))] + events + [MidiEvent(0, EndOfTrack())]
    return MidiFile(MidiFormat.SINGLE, division, [track])


def on(key, delta=0, velocity=64):
    return MidiEvent(delta, NoteOn(0, key, velocity))


def off(key, delta=0):
    return MidiEvent(delta, NoteOff(0, key, 0))


class TestExtract:
    def test_simultaneous_onsets_merge_to_chord(self):
        mf = track_file([on(60), on(64), off(60, 480), off(64)])
        piece, dangling = events_to_piece(mf, grid=12)
        assert dangling == 0
        assert piece.events == [NoteEvent(0, 12, (60, 64))]

    def test_gap_becomes_rest(self):
        mf = track_file([on(60), off(60, 480), on(62, 480), off(62, 480)])
        piece, _ = events_to_piece(mf, grid=12)
        assert piece.events == [
            NoteEvent(0, 12, (60,)),
            NoteEvent(12, 12, ()),
            NoteEvent(24, 12, (62,)),
        ]

    def test_no_notes(self):
        with pytest.raises(NoNotes):
            events_to_piece(track_file([]), grid=12)

    def test_tempo_carried_through(self):
        mf = track_file([on(60), off(60, 480)])
        mf.tracks[0][0] = MidiEvent(0, Tempo(400_000))
        piece, _ = events_to_piece(mf, grid=12)
        assert piece.tempo == 400_000

    def test_quantization_tie_rounds_down(self):
        # 20 ticks at division 480, grid 12 is exactly 0.5 grid units
        mf = track_file([on(60, 20), off(60, 480)])
        piece, _ = events_to_piece(mf, grid=12)
        assert piece.events[0].onset == 0

    def test_zero_duration_clamped(self):
        # 10 ticks quantizes to 0 units; duration clamps to 1
        mf = track_file([on(60), off(60, 10)])
        piece, _ = events_to_piece(mf, grid=12)
        assert piece.events[0].duration == 1

    def test_dangling_note_on_counted_and_closed(self):
        mf = track_file([on(60), off(60, 480), on(62)])
        piece, dangling = events_to_piece(mf, grid=12)
        assert dangling == 1
        # the unmatched 62 closes at end of track (tick 480), clamped to 1 unit
        assert piece.events == [NoteEvent(0, 12, (60,)), NoteEvent(12, 1, (62,))]

    def test_note_on_velocity_zero_acts_as_release(self):
        mf = track_file([on(60), on(60, 480, velocity=0)])
        piece, dangling = events_to_piece(mf, grid=12)
        assert dangling == 0
        assert piece.events == [NoteEvent(0, 12, (60,))]

    def test_same_key_retrigger_fifo(self):
        mf = track_file([on(60), on(60, 240), off(60, 240), off(60, 240)])
        piece, dangling = events_to_piece(mf, grid=12)
        assert dangling == 0
        assert piece.events == [
            NoteEvent(0, 12, (60,)),
            NoteEvent(6, 12, (60,)),
        ]

    def test_overlapping_keys_keep_independent_durations(self):
        mf = track_file([on(60), on(62, 240), off(62, 480), off(60, 240)])
        piece, _ = events_to_piece(mf, grid=12)
        assert piece.events == [
            NoteEvent(0, 24, (60,)),
            NoteEvent(6, 12, (62,)),
        ]

    def test_multi_track_streams_merge(self):
        melody = [on(72), off(72, 960), MidiEvent(0, EndOfTrack())]
        bass = [on(48), off(48, 960), MidiEvent(0, EndOfTrack())]
        mf = MidiFile(MidiFormat.MULTI_TRACK, 480, [melody, bass])
        piece, _ = events_to_piece(mf, grid=12)
        assert piece.events == [NoteEvent(0, 24, (48, 72))]


class TestEmit:
    def test_empty_piece(self):
        mf = piece_to_midi(Piece(grid=12, events=[]))
        assert mf.tracks == [[MidiEvent(0, Tempo(500_000)), MidiEvent(0, EndOfTrack())]]

    def test_single_note_round_trip(self):
        piece = Piece(grid=12, events=[NoteEvent(0, 12, (60,))])
        back, dangling = events_to_piece(piece_to_midi(piece), grid=12)
        assert dangling == 0
        assert back.events == piece.events

    def test_chord_event_counts_and_deltas(self):
        # by hand: 3 ons at tick 0, 3 offs at tick 24 (6 units x 4 ticks)
        piece = Piece(grid=12, events=[NoteEvent(0, 6, (60, 64, 67))])
        mf = piece_to_midi(piece)
        assert mf.division == 48
        kinds = [ev.kind for ev in mf.tracks[0]]
        assert kinds == [
            Tempo(500_000),
            NoteOn(0, 60, 64), NoteOn(0, 64, 64), NoteOn(0, 67, 64),
            NoteOff(0, 60, 0), NoteOff(0, 64, 0), NoteOff(0, 67, 0),
            EndOfTrack(),
        ]
        assert [ev.delta for ev in mf.tracks[0]] == [0, 0, 0, 0, 24, 0, 0, 0]

    def test_rest_is_pure_delta(self):
        piece = Piece(grid=12, events=[
            NoteEvent(0, 12, (60,)), NoteEvent(12, 12, ()), NoteEvent(24, 12, (62,)),
        ])
        mf = piece_to_midi(piece)
        deltas = [ev.delta for ev in mf.tracks[0]]
        # tempo, on60, off60, then the 12-unit rest rides on on62's delta
        assert deltas == [0, 0, 48, 48, 48, 0]

    def test_invariant_violations(self):
        with pytest.raises(InvariantViolation):
            piece_to_midi(Piece(grid=0, events=[]))
        with pytest.raises(InvariantViolation):
            piece_to_midi(Piece(grid=12, events=[NoteEvent(0, 0, (60,))]))
        with pytest.raises(InvariantViolation):
            piece_to_midi(Piece(grid=12, events=[NoteEvent(0, 1, (64, 60))]))
        with pytest.raises(InvariantViolation):
            piece_to_midi(Piece(grid=12, events=[
                NoteEvent(12, 1, (60,)), NoteEvent(0, 1, (62,)),
            ]))


    @pytest.mark.parametrize("convert, message", [
        (lambda: events_to_piece(MidiFile(MidiFormat.SINGLE, 480, [[MidiEvent(0, EndOfTrack())]]),
                                 grid=0), "grid must be >= 1"),
        (lambda: piece_to_midi(Piece(grid=12, events=[], tempo=0)), "tempo 0 out of range"),
        (lambda: piece_to_midi(Piece(grid=12, events=[NoteEvent(0, 1, (128,))])),
         "pitch out of range"),
    ], ids=["grid-0", "tempo-0", "pitch-128"])
    def test_bad_input_is_invariant_violation(self, convert, message):
        with pytest.raises(InvariantViolation, match=message):
            convert()


class TestRoundTrip:
    def test_random_pieces(self):
        rng = Rng(7)
        for _ in range(30):
            piece = random_piece(rng, 1 + rng.randint(60))
            back, dangling = events_to_piece(piece_to_midi(piece), grid=piece.grid)
            assert dangling == 0
            assert back.events == piece.events
            assert back.grid == piece.grid
            assert back.tempo == piece.tempo

    def test_round_trip_through_bytes(self):
        rng = Rng(8)
        for _ in range(10):
            piece = random_piece(rng, 40)
            data = write_midi(piece_to_midi(piece))
            back, _ = events_to_piece(parse_midi(data), grid=piece.grid)
            assert back.events == piece.events

    def test_trailing_rest_preserved(self):
        piece = Piece(grid=12, events=[NoteEvent(0, 6, (60,)), NoteEvent(6, 6, ())])
        back, _ = events_to_piece(piece_to_midi(piece), grid=12)
        assert back.events == piece.events

    def test_nonzero_first_onset_preserved(self):
        piece = Piece(grid=12, events=[NoteEvent(5, 6, (60,))])
        back, _ = events_to_piece(piece_to_midi(piece), grid=12)
        assert back.events == piece.events

    def test_extraction_output_satisfies_piece_invariants(self):
        rng = Rng(9)
        from conftest import random_midi_file
        checked = 0
        for _ in range(60):
            mf = random_midi_file(rng)
            try:
                piece, _ = events_to_piece(mf, grid=12)
            except NoNotes:
                continue
            checked += 1
            piece_to_midi(piece)  # validates every invariant
            onsets = [ev.onset for ev in piece.events]
            assert onsets == sorted(onsets)
            assert all(ev.duration >= 1 for ev in piece.events)
        assert checked > 20

    def test_monophonic_duration_sum_matches_span(self):
        # back-to-back notes at arbitrary (unaligned) ticks: the sum of the
        # extracted durations stays within one grid unit per note of the
        # quantized span
        rng = Rng(10)
        for _ in range(20):
            events = []
            tick = 0
            n = 10 + rng.randint(20)
            bounds = [tick]
            key = 60
            for _ in range(n):
                dur = 30 + rng.randint(900)
                events.append(on(key, 0))
                events.append(off(key, dur))
                tick += dur
                bounds.append(tick)
            mf = track_file(events)
            piece, _ = events_to_piece(mf, grid=12)
            assert all(ev.pitches for ev in piece.events)
            total = sum(ev.duration for ev in piece.events)
            span = (2 * tick * 12 + 480 - 1) // 960
            assert abs(total - span) <= n

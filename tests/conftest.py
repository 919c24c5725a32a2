"""Shared builders for tests: canonical pieces, fuzzed MIDI files, corpora."""

import pytest

from midilstm.corpus import Vocabulary, encode_songs
from midilstm.midi_io import (
    EndOfTrack,
    MidiEvent,
    MidiFile,
    MidiFormat,
    NoteOff,
    NoteOn,
    Opaque,
    Tempo,
    encode_vlq,
    write_midi,
)
from midilstm.numerics import Rng
from midilstm.score import NoteEvent, Piece, piece_to_midi

PITCHES = list(range(48, 72))
DURATIONS = [1, 2, 3, 4, 6, 8, 12, 16, 24]


def random_piece(rng: Rng, n_events: int, grid: int = 12, allow_rests: bool = True,
                 allow_chords: bool = True) -> Piece:
    """Sequential piece on a cumulative timeline, in the canonical form the
    extractor itself produces (no adjacent rests, chords sorted)."""
    events = []
    onset = 0
    prev_rest = True  # a leading rest is indistinguishable from a late first onset
    for _ in range(n_events):
        dur = DURATIONS[rng.randint(len(DURATIONS))]
        make_rest = allow_rests and not prev_rest and rng.randint(5) == 0
        if make_rest:
            pitches = ()
        elif allow_chords and rng.randint(4) == 0:
            size = 2 + rng.randint(3)
            pitches = tuple(sorted({PITCHES[rng.randint(len(PITCHES))] for _ in range(size)}))
        else:
            pitches = (PITCHES[rng.randint(len(PITCHES))],)
        events.append(NoteEvent(onset, dur, pitches))
        onset += dur
        prev_rest = make_rest
    return Piece(grid=grid, events=events)


def random_midi_file(rng: Rng) -> MidiFile:
    """A structurally valid MidiFile mixing notes, tempo, and opaque events."""
    n_tracks = 1 + rng.randint(3)
    fmt = MidiFormat.SINGLE if n_tracks == 1 else MidiFormat.MULTI_TRACK
    division = 24 * (1 + rng.randint(40))
    tracks = []
    for _ in range(n_tracks):
        events = [MidiEvent(0, Tempo(500_000))] if rng.randint(2) else []
        for _ in range(rng.randint(30)):
            delta = rng.randint(2 * division)
            roll = rng.randint(6)
            if roll < 3:
                kind = NoteOn(rng.randint(16), rng.randint(128), rng.randint(128))
            elif roll < 5:
                kind = NoteOff(rng.randint(16), rng.randint(128), rng.randint(128))
            elif roll == 5 and rng.randint(2):
                kind = Opaque(0xB0 | rng.randint(16), bytes([rng.randint(128), rng.randint(128)]))
            else:
                kind = Opaque(0xFF, bytes([0x01]) + bytes(rng.randint(128) for _ in range(rng.randint(6))))
            events.append(MidiEvent(delta, kind))
        events.append(MidiEvent(rng.randint(division), EndOfTrack()))
        tracks.append(events)
    return MidiFile(fmt, division, tracks)


def one_track_file(body: bytes) -> bytes:
    """SMF bytes of a format-0 file, 480 ticks a quarter, whose one track
    chunk holds ``body``."""
    return (b"MThd" + (6).to_bytes(4, "big") + bytes.fromhex("0000" "0001" "01e0")
            + b"MTrk" + len(body).to_bytes(4, "big") + body)


def delta_file(deltas) -> bytes:
    """A one-track file with a NoteOn at each delta, written as its VLQ, then
    an end of track: parsing it decodes every VLQ of ``deltas``."""
    return one_track_file(b"".join(encode_vlq(d) + b"\x90\x3c\x40" for d in deltas)
                          + b"\x00\xff\x2f\x00")


def looped_song(seed: int, n_tokens: int = 200, period: int = 25,
                n_pitches: int = 12) -> tuple[list[str], list[int]]:
    """Deterministic periodic token streams; easy to memorize, small vocab."""
    rng = Rng(seed)
    base_notes = [str(48 + 2 * rng.randint(n_pitches)) for _ in range(period)]
    base_durs = [[3, 6, 12][rng.randint(3)] for _ in range(period)]
    notes = [base_notes[i % period] for i in range(n_tokens)]
    durs = [base_durs[i % period] for i in range(n_tokens)]
    return notes, durs


def song_dataset(songs, window_len):
    note_vocab = Vocabulary(t for s in songs for t in s[0])
    dur_vocab = Vocabulary(d for s in songs for d in s[1])
    return note_vocab, dur_vocab, encode_songs(songs, note_vocab, dur_vocab, window_len)


@pytest.fixture
def midi_dir(tmp_path):
    """Directory of small generated MIDI files plus the pieces behind them."""
    rng = Rng(4242)
    d = tmp_path / "midi"
    d.mkdir()
    pieces = []
    for i in range(3):
        piece = random_piece(rng, 70)
        (d / f"song{i}.mid").write_bytes(write_midi(piece_to_midi(piece)))
        pieces.append(piece)
    return d, pieces

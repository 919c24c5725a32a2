"""Seeded input builders for the benchmark.

Everything here uses only the standard library, so the inputs do not depend
on the code under test: the same seed gives the same bytes whatever the
program does. Corpora are written in the documented text format; MIDI files
are encoded directly as Standard MIDI File bytes.
"""

from __future__ import annotations

import random
import struct

GRID = 12
MAX_DUR = 48
SINGLE_PITCHES = range(21, 109)  # the 88 piano keys


def note_token(pitches) -> str:
    return ".".join(str(p) for p in pitches) if pitches else "R"


def note_vocab(rng: random.Random, size: int, rests: bool) -> list[str]:
    """``size`` distinct note tokens: the rest token (optional), single keys,
    then seeded chords."""
    tokens = (["R"] if rests else []) + [str(p) for p in SINGLE_PITCHES]
    chords: set[str] = set()
    while len(tokens) + len(chords) < size:
        pitches = sorted({36 + rng.randrange(48) for _ in range(2 + rng.randrange(3))})
        if len(pitches) > 1:
            chords.add(note_token(pitches))
    return (tokens + sorted(chords))[:size]


def corpus_songs(rng: random.Random, n_notes: int, n_durs: int, lengths: list[int],
                 rests_per_song: int = 0) -> list[tuple[list[str], list[int]]]:
    """Songs of the given lengths that together use exactly ``n_notes`` note
    tokens and ``n_durs`` durations, so vocabulary sizes (and hence model
    shapes) do not depend on the seed. With ``rests_per_song`` > 0 the rest
    token is one of the notes; rests are never first in a song nor adjacent,
    the canonical form MIDI extraction produces, so the songs survive a
    MIDI round trip token for token."""
    notes = note_vocab(rng, n_notes, rests_per_song > 0)
    pitched = [t for t in notes if t != "R"]
    durs = rng.sample(range(1, MAX_DUR + 1), n_durs)
    sizes = [n - rests_per_song for n in lengths]
    if sum(sizes) < len(pitched):
        raise ValueError(f"{sum(sizes)} tokens cannot hold {len(pitched)} distinct notes")
    note_stream = pitched + [rng.choice(pitched) for _ in range(sum(sizes) - len(pitched))]
    dur_stream = durs + [rng.choice(durs) for _ in range(sum(lengths) - len(durs))]
    rng.shuffle(note_stream)
    rng.shuffle(dur_stream)
    songs = []
    for n, size in zip(lengths, sizes):
        song, note_stream = note_stream[:size], note_stream[size:]
        for pos in sorted(rng.sample(range(1, size + 1), rests_per_song), reverse=True):
            song.insert(pos, "R")
        songs.append((song, dur_stream[:n]))
        dur_stream = dur_stream[n:]
    return songs


def corpus_text(songs, window_len: int) -> str:
    lines = [f"#grid={GRID} L={window_len} max_dur={MAX_DUR}"]
    lines += [" ".join(f"{n}:{d}" for n, d in zip(notes, durs)) for notes, durs in songs]
    return "\n".join(lines) + "\n"


# --- MIDI files ---

def song_events(notes: list[str], durs: list[int]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(onset, duration, pitches) events of a token song on a sequential
    grid timeline; a rest is an event without pitches."""
    events = []
    onset = 0
    for note, dur in zip(notes, durs):
        pitches = () if note == "R" else tuple(int(p) for p in note.split("."))
        events.append((onset, dur, pitches))
        onset += dur
    return events


def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def smf_bytes(rng: random.Random, events) -> bytes:
    """Encode song_events as a 1-4 track SMF with per-note timing jitter below
    half a grid unit, tempo changes, control/program changes, text and sysex
    events, both note-off encodings and (in some tracks) running status."""
    n_tracks = 1 + rng.randrange(4)
    division = rng.choice([96, 120, 192, 480])
    per_unit = division // GRID
    jitter = per_unit // 2 - 1
    tracks: list[list[tuple[int, int, bytes]]] = [[] for _ in range(n_tracks)]
    tracks[0].append((0, 1, b"\xff\x51\x03" + rng.randrange(300_000, 900_000).to_bytes(3, "big")))
    tracks[0].append((0, 1, b"\xff\x03\x05bench"))
    piece_end = 0
    for onset, dur, pitches in events:
        piece_end = onset + dur
        for key in pitches:
            t = rng.randrange(n_tracks)
            ch = t
            on = onset * per_unit + rng.randint(0 if onset == 0 else -jitter, jitter)
            off = piece_end * per_unit + rng.randint(-jitter, jitter)
            tracks[t].append((on, 2, bytes([0x90 | ch, key, 1 + rng.randrange(127)])))
            if rng.randrange(2):
                tracks[t].append((off, 0, bytes([0x80 | ch, key, rng.randrange(128)])))
            else:
                tracks[t].append((off, 0, bytes([0x90 | ch, key, 0])))
        roll = rng.randrange(20)
        t = rng.randrange(n_tracks)
        tick = onset * per_unit
        if roll == 0:
            tracks[t].append((tick, 1, bytes([0xB0 | t, rng.randrange(120), rng.randrange(128)])))
        elif roll == 1:
            tracks[t].append((tick, 1, bytes([0xC0 | t, rng.randrange(128)])))
        elif roll == 2:
            tracks[t].append((tick, 1, b"\xff\x01\x04note"))
        elif roll == 3:
            tracks[t].append((tick, 1, b"\xf0\x04\x7e\x7f\x09\xf7"))
        elif roll == 4:
            tracks[0].append((tick, 1, b"\xff\x51\x03" + rng.randrange(300_000, 900_000).to_bytes(3, "big")))

    out = bytearray(b"MThd" + struct.pack(">IHHH", 6, 0 if n_tracks == 1 else 1, n_tracks, division))
    for t, track in enumerate(tracks):
        track.sort(key=lambda e: (e[0], e[1]))
        running = rng.randrange(2) == 1
        body = bytearray()
        cursor = 0
        status = None
        for tick, _, msg in track:
            body += _vlq(tick - cursor)
            cursor = tick
            if running and msg[0] < 0xF0 and msg[0] == status:
                body += msg[1:]
            else:
                body += msg
            status = msg[0] if msg[0] < 0xF0 else None
        end = max(cursor, piece_end * per_unit) if t == 0 else cursor
        body += _vlq(end - cursor) + b"\xff\x2f\x00"
        out += b"MTrk" + struct.pack(">I", len(body)) + body
    return bytes(out)


def midi_set(rng: random.Random, songs, n_bad: int) -> list[tuple[str, bytes, tuple | None]]:
    """(file name, bytes, expected tokens or None) for every song plus
    ``n_bad`` malformed files (a bad header tag, or a file cut short inside
    its chunks), in a seeded order."""
    files = [(smf_bytes(rng, song_events(*song)), song) for song in songs]
    for _ in range(n_bad):
        data = smf_bytes(rng, song_events(*rng.choice(songs)))
        data = b"RIFF" + data[4:] if rng.randrange(2) else data[:rng.randint(14, len(data) - 1)]
        files.append((data, None))
    rng.shuffle(files)
    return [(f"song_{i:04d}.mid", data, song) for i, (data, song) in enumerate(files)]

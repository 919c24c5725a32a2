"""Note-level view of a MIDI file: pitch set, rest flag, duration on a
fixed time grid.

``events_to_piece`` flattens a MidiFile into a single ordered stream of
NoteEvents: note on/off pairs are matched FIFO per key across all tracks,
onsets are snapped to the grid (ties round down), notes starting on the same
grid point merge into one chord, and silent gaps become explicit rests.
``piece_to_midi`` renders the stream back out as a format-0 file; the two
are exact inverses for pieces produced here.

The grid default of 12 divisions per quarter represents both sixteenths
(3 units) and eighth-note triplets (4 units) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolation, NoNotes
from .midi_io import (
    DIVISION_MAX,
    EndOfTrack,
    MidiEvent,
    MidiFile,
    MidiFormat,
    NoteOff,
    NoteOn,
    Tempo,
)

DEFAULT_GRID = 12
DEFAULT_TEMPO = 500_000  # microseconds per quarter = 120 BPM
EMIT_VELOCITY = 64
MAX_GRID = DIVISION_MAX // 4  # piece_to_midi writes 4 ticks per grid unit


@dataclass(frozen=True)
class NoteEvent:
    """One musical unit: a chord, single note, or rest (empty pitch set)."""

    onset: int
    duration: int
    pitches: tuple[int, ...]

    @property
    def end(self) -> int:
        return self.onset + self.duration


@dataclass
class Piece:
    grid: int = DEFAULT_GRID
    events: list[NoteEvent] = field(default_factory=list)
    tempo: int = DEFAULT_TEMPO


def _quantize(ticks: int, grid: int, division: int) -> int:
    """Round ticks to nearest grid unit; exact halves round down."""
    return (2 * ticks * grid + division - 1) // (2 * division)


def _absolute_events(mf: MidiFile) -> list[tuple[int, int, MidiEvent]]:
    """All events across tracks as (abs_tick, track_index, event), time-sorted.

    Sort is stable on (tick, track), preserving each track's internal order.
    """
    merged = []
    for t, track in enumerate(mf.tracks):
        tick = 0
        for ev in track:
            tick += ev.delta
            merged.append((tick, t, ev))
    merged.sort(key=lambda item: (item[0], item[1]))
    return merged


def events_to_piece(mf: MidiFile, grid: int = DEFAULT_GRID) -> tuple[Piece, int]:
    """Extract the note stream from a MidiFile.

    Returns (piece, dangling) where ``dangling`` counts NoteOns that never
    saw a release and were closed at the end of their track.
    """
    if grid < 1:
        raise InvariantViolation(f"grid must be >= 1, got {grid}")

    merged = _absolute_events(mf)
    tempo = next((ev.kind.us_per_quarter for _, _, ev in merged if isinstance(ev.kind, Tempo)),
                 DEFAULT_TEMPO)

    active: dict[int, list[int]] = {}  # key -> FIFO of onset ticks
    intervals: list[tuple[int, int, int]] = []  # (start_tick, end_tick, key)
    end_tick = 0
    for tick, _, ev in merged:
        end_tick = max(end_tick, tick)
        kind = ev.kind
        if isinstance(kind, NoteOn) and kind.velocity > 0:
            active.setdefault(kind.key, []).append(tick)
        elif isinstance(kind, NoteOff) or (isinstance(kind, NoteOn) and kind.velocity == 0):
            queue = active.get(kind.key)
            if queue:
                intervals.append((queue.pop(0), tick, kind.key))
    dangling = sum(len(q) for q in active.values())
    for key, queue in active.items():
        for start in queue:
            intervals.append((start, end_tick, key))

    if not intervals:
        raise NoNotes("file contains no notes")

    # quantize both endpoints; zero-length notes get the minimum duration
    by_onset: dict[int, list[tuple[int, int]]] = {}  # onset -> [(duration, key)]
    for start, end, key in intervals:
        q_start = _quantize(start, grid, mf.division)
        q_dur = max(1, _quantize(end, grid, mf.division) - q_start)
        by_onset.setdefault(q_start, []).append((q_dur, key))

    events: list[NoteEvent] = []
    covered = None  # furthest end of sound so far
    for onset in sorted(by_onset):
        group = by_onset[onset]
        if covered is not None and onset > covered:
            events.append(NoteEvent(covered, onset - covered, ()))
        duration = max(d for d, _ in group)
        pitches = tuple(sorted({k for _, k in group}))
        events.append(NoteEvent(onset, duration, pitches))
        covered = max(covered, onset + duration) if covered is not None else onset + duration

    # trailing silence before end of track becomes a final rest
    q_end = _quantize(end_tick, grid, mf.division)
    if q_end > covered:
        events.append(NoteEvent(covered, q_end - covered, ()))

    return Piece(grid=grid, events=events, tempo=tempo), dangling


def piece_to_midi(piece: Piece) -> MidiFile:
    """Render a Piece as a format-0 MidiFile at 4 ticks per grid unit."""
    if piece.grid < 1:
        raise InvariantViolation(f"grid must be >= 1, got {piece.grid}")
    if not 1 <= piece.tempo <= 0xFFFFFF:
        raise InvariantViolation(f"tempo {piece.tempo} out of range")
    ticks_per_unit = 4

    # (tick, order, pitch, kind) with note offs before ons at equal ticks
    timed: list[tuple[int, int, int, NoteOn | NoteOff]] = []
    span_end = prev_onset = 0
    for ev in piece.events:
        if ev.onset < 0 or ev.duration < 1:
            raise InvariantViolation(f"bad event timing: {ev}")
        if ev.onset < prev_onset:
            raise InvariantViolation("events not sorted by onset")
        if list(ev.pitches) != sorted(set(ev.pitches)):
            raise InvariantViolation(f"pitches not strictly ascending: {ev.pitches}")
        if any(not 0 <= p <= 127 for p in ev.pitches):
            raise InvariantViolation(f"pitch out of range: {ev.pitches}")
        prev_onset = ev.onset
        span_end = max(span_end, ev.end)
        on_tick = ev.onset * ticks_per_unit
        off_tick = ev.end * ticks_per_unit
        for p in ev.pitches:
            timed.append((on_tick, 1, p, NoteOn(0, p, EMIT_VELOCITY)))
            timed.append((off_tick, 0, p, NoteOff(0, p, 0)))
    timed.sort(key=lambda item: item[:3])

    track = [MidiEvent(0, Tempo(piece.tempo))]
    cursor = 0
    for tick, _, _, kind in timed:
        track.append(MidiEvent(tick - cursor, kind))
        cursor = tick
    track.append(MidiEvent(span_end * ticks_per_unit - cursor, EndOfTrack()))
    return MidiFile(MidiFormat.SINGLE, ticks_per_unit * piece.grid, [track])

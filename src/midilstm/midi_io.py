"""Standard MIDI File (SMF) reader and writer.

Supports format 0 and format 1 files with ticks-per-quarter timing. Reading
is lenient where real-world files are sloppy (running status, unknown meta
and sysex events, missing end-of-track); writing is canonical: explicit
status on every event, minimal variable-length deltas, exact chunk lengths.
Unknown events survive a parse/write cycle untouched via ``Opaque``.

NoteOn with velocity 0 is kept as a NoteOn here; interpreting it as a
release is the score layer's job. That keeps parse -> write byte-faithful.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from .errors import (
    BadEvent,
    BadHeader,
    InvariantViolation,
    TruncatedChunk,
    UnsupportedFormat,
    UnterminatedVlq,
)

VLQ_MAX = (1 << 28) - 1
DELTA_MAX = VLQ_MAX
DIVISION_MAX = 32767


# --- variable-length quantities ---

def decode_vlq(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one VLQ starting at ``offset``. Returns (value, bytes consumed)."""
    r = _Reader(data, offset)
    return r.vlq(), r.pos - offset


def encode_vlq(value: int) -> bytes:
    """Minimal-length VLQ encoding of ``value`` (inverse of decode_vlq)."""
    if not 0 <= value <= VLQ_MAX:
        raise InvariantViolation(f"VLQ value {value} outside [0, {VLQ_MAX}]")
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


# --- event model ---

class MidiFormat(enum.Enum):
    SINGLE = 0
    MULTI_TRACK = 1


@dataclass(frozen=True)
class NoteOn:
    channel: int
    key: int
    velocity: int


@dataclass(frozen=True)
class NoteOff:
    channel: int
    key: int
    velocity: int


@dataclass(frozen=True)
class Tempo:
    us_per_quarter: int


@dataclass(frozen=True)
class EndOfTrack:
    pass


@dataclass(frozen=True)
class Opaque:
    """Any event we carry but do not model. For meta events ``data`` starts
    with the meta type byte; length prefixes are recomputed on write."""

    status: int
    data: bytes


EventKind = NoteOn | NoteOff | Tempo | EndOfTrack | Opaque


@dataclass(frozen=True)
class MidiEvent:
    delta: int
    kind: EventKind


Track = list[MidiEvent]


@dataclass
class MidiFile:
    format: MidiFormat
    division: int
    tracks: list[Track] = field(default_factory=list)


def events_equivalent(a: MidiFile, b: MidiFile) -> bool:
    """Same format, division, and per-track event sequences."""
    return a.format == b.format and a.division == b.division and a.tracks == b.tracks


# --- parsing ---

class _Reader:
    """Bounds-checked cursor over a byte window."""

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

    def remaining(self) -> int:
        return self.end - self.pos

    def u8(self) -> int:
        if self.pos >= self.end:
            raise TruncatedChunk("unexpected end of chunk")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise TruncatedChunk(f"need {n} bytes, have {self.remaining()}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def vlq(self) -> int:
        if self.pos >= self.end:
            raise TruncatedChunk("no bytes available for VLQ")
        value = 0
        for _ in range(4):
            if self.pos >= self.end:
                raise UnterminatedVlq("stream ended inside VLQ")
            b = self.data[self.pos]
            self.pos += 1
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise UnterminatedVlq("more than 4 continuation bytes in VLQ")


_CHANNEL_DATA_LEN = {0x8: 2, 0x9: 2, 0xA: 2, 0xB: 2, 0xC: 1, 0xD: 1, 0xE: 2}


def _parse_track(r: _Reader) -> Track:
    events: Track = []
    running_status: int | None = None
    while r.remaining() > 0:
        delta = r.vlq()
        b = r.u8()
        if b >= 0x80:
            status = b
        else:
            if running_status is None:
                raise BadEvent(f"data byte 0x{b:02X} with no running status")
            status = running_status
            r.pos -= 1

        if status == 0xFF:
            running_status = None
            meta_type = r.u8()
            length = r.vlq()
            payload = r.take(length)
            if meta_type == 0x2F:
                events.append(MidiEvent(delta, EndOfTrack()))
                return events
            if meta_type == 0x51 and length == 3:
                us = int.from_bytes(payload, "big")
                if us <= 0:
                    raise BadEvent("tempo of 0 microseconds per quarter")
                events.append(MidiEvent(delta, Tempo(us)))
            else:
                events.append(MidiEvent(delta, Opaque(0xFF, bytes([meta_type]) + payload)))
        elif status in (0xF0, 0xF7):
            running_status = None
            length = r.vlq()
            events.append(MidiEvent(delta, Opaque(status, r.take(length))))
        elif 0x80 <= status < 0xF0:
            running_status = status
            kind_nibble = status >> 4
            channel = status & 0x0F
            data = r.take(_CHANNEL_DATA_LEN[kind_nibble])
            if any(d >= 0x80 for d in data):
                raise BadEvent(f"data byte >= 0x80 in event 0x{status:02X}")
            if kind_nibble == 0x9:
                events.append(MidiEvent(delta, NoteOn(channel, data[0], data[1])))
            elif kind_nibble == 0x8:
                events.append(MidiEvent(delta, NoteOff(channel, data[0], data[1])))
            else:
                events.append(MidiEvent(delta, Opaque(status, data)))
        else:
            raise BadEvent(f"unexpected status byte 0x{status:02X} in track")
    # chunk exhausted without an end-of-track marker: normalize
    events.append(MidiEvent(0, EndOfTrack()))
    return events


def parse_midi(data: bytes) -> MidiFile:
    """Parse SMF bytes into a MidiFile, or raise a typed MidiError."""
    if len(data) < 4 or data[:4] != b"MThd":
        raise BadHeader("missing MThd chunk tag")
    if len(data) < 14:
        raise BadHeader("header chunk truncated")
    (header_len,) = struct.unpack(">I", data[4:8])
    if header_len < 6:
        raise BadHeader(f"header length {header_len} < 6")
    if len(data) < 8 + header_len:
        raise BadHeader("header chunk truncated")
    fmt, ntracks, division = struct.unpack(">HHH", data[8:14])
    if fmt not in (0, 1):
        raise UnsupportedFormat(f"SMF format {fmt} not supported")
    if division & 0x8000:
        raise UnsupportedFormat("SMPTE division not supported")
    if division == 0:
        raise BadHeader("division of 0 ticks per quarter")
    if fmt == 0 and ntracks != 1:
        raise BadHeader(f"format 0 declares {ntracks} tracks")
    if ntracks == 0:
        raise BadHeader("no tracks declared")

    tracks: list[Track] = []
    pos = 8 + header_len
    while len(tracks) < ntracks:
        if pos + 8 > len(data):
            raise TruncatedChunk(f"expected {ntracks} tracks, found {len(tracks)}")
        tag = data[pos:pos + 4]
        (length,) = struct.unpack(">I", data[pos + 4:pos + 8])
        body_start = pos + 8
        if body_start + length > len(data):
            raise TruncatedChunk(f"chunk {tag!r} runs past end of file")
        if tag == b"MTrk":
            tracks.append(_parse_track(_Reader(data, body_start, body_start + length)))
        # unknown chunk types are skipped, per the SMF spec
        pos = body_start + length

    return MidiFile(MidiFormat.SINGLE if fmt == 0 else MidiFormat.MULTI_TRACK, division, tracks)


# --- writing ---

def _validate(mf: MidiFile) -> None:
    if not mf.tracks:
        raise InvariantViolation("MidiFile has no tracks")
    if mf.format == MidiFormat.SINGLE and len(mf.tracks) != 1:
        raise InvariantViolation(f"format 0 requires 1 track, got {len(mf.tracks)}")
    if not 1 <= mf.division <= DIVISION_MAX:
        raise InvariantViolation(f"division {mf.division} outside [1, {DIVISION_MAX}]")
    for t, track in enumerate(mf.tracks):
        if not track or not isinstance(track[-1].kind, EndOfTrack):
            raise InvariantViolation(f"track {t} does not end with EndOfTrack")
        for ev in track:
            if not 0 <= ev.delta <= DELTA_MAX:
                raise InvariantViolation(f"track {t}: delta {ev.delta} out of range")
            if isinstance(ev.kind, EndOfTrack) and ev is not track[-1]:
                raise InvariantViolation(f"track {t}: EndOfTrack before final event")
            if isinstance(ev.kind, (NoteOn, NoteOff)):
                k = ev.kind
                if not (0 <= k.channel <= 15 and 0 <= k.key <= 127 and 0 <= k.velocity <= 127):
                    raise InvariantViolation(f"track {t}: note field out of range: {k}")
            elif isinstance(ev.kind, Tempo):
                if not 1 <= ev.kind.us_per_quarter <= 0xFFFFFF:
                    raise InvariantViolation(f"track {t}: tempo {ev.kind.us_per_quarter} out of range")
            elif isinstance(ev.kind, Opaque):
                k = ev.kind
                if not 0x80 <= k.status <= 0xFF:
                    raise InvariantViolation(f"track {t}: opaque status 0x{k.status:02X} invalid")
                if k.status == 0xFF and len(k.data) < 1:
                    raise InvariantViolation(f"track {t}: meta event with no type byte")


def _encode_event(ev: MidiEvent) -> bytes:
    out = bytearray(encode_vlq(ev.delta))
    k = ev.kind
    if isinstance(k, NoteOn):
        out += bytes([0x90 | k.channel, k.key, k.velocity])
    elif isinstance(k, NoteOff):
        out += bytes([0x80 | k.channel, k.key, k.velocity])
    elif isinstance(k, Tempo):
        out += b"\xff\x51\x03" + k.us_per_quarter.to_bytes(3, "big")
    elif isinstance(k, EndOfTrack):
        out += b"\xff\x2f\x00"
    elif isinstance(k, Opaque):
        if k.status == 0xFF:
            out += bytes([0xFF, k.data[0]]) + encode_vlq(len(k.data) - 1) + k.data[1:]
        elif k.status in (0xF0, 0xF7):
            out += bytes([k.status]) + encode_vlq(len(k.data)) + k.data
        else:
            out += bytes([k.status]) + k.data
    else:
        raise InvariantViolation(f"unknown event kind {k!r}")
    return bytes(out)


def write_midi(mf: MidiFile) -> bytes:
    """Serialize to canonical SMF bytes (explicit status, minimal VLQs)."""
    _validate(mf)
    fmt = 0 if mf.format == MidiFormat.SINGLE else 1
    out = bytearray(b"MThd")
    out += struct.pack(">IHHH", 6, fmt, len(mf.tracks), mf.division)
    for track in mf.tracks:
        body = b"".join(_encode_event(ev) for ev in track)
        out += b"MTrk" + struct.pack(">I", len(body)) + body
    return bytes(out)

import pytest

from conftest import random_midi_file
from midilstm.errors import (
    BadHeader,
    DataError,
    InvariantViolation,
    TruncatedChunk,
    UnsupportedFormat,
    UnterminatedVlq,
)
from midilstm.midi_io import (
    EndOfTrack,
    MidiEvent,
    MidiFile,
    MidiFormat,
    NoteOff,
    NoteOn,
    Opaque,
    Tempo,
    decode_vlq,
    encode_vlq,
    events_equivalent,
    parse_midi,
    write_midi,
)
from midilstm.numerics import Rng

# format 0, division 480, one track: tempo 500000, NoteOn k=60 v=64 at 0,
# NoteOff k=60 v=0 480 ticks later, end of track. Assembled by hand from the
# SMF chunk layout.
GOLDEN = bytes.fromhex(
    "4d546864" "00000006" "0000" "0001" "01e0"
    "4d54726b" "00000014"
    "00" "ff510307a120"
    "00" "903c40"
    "8360" "803c00"
    "00" "ff2f00"
)


class TestVlq:
    def test_decode_zero(self):
        assert decode_vlq(bytes([0x00])) == (0, 1)

    def test_decode_single_byte_max(self):
        assert decode_vlq(bytes([0x7F])) == (127, 1)

    def test_decode_two_bytes(self):
        assert decode_vlq(bytes([0x81, 0x00])) == (128, 2)

    def test_decode_offset(self):
        assert decode_vlq(bytes([0x00, 0x81, 0x00]), offset=1) == (128, 2)

    def test_encode_zero(self):
        assert encode_vlq(0) == bytes([0x00])

    def test_encode_128(self):
        assert encode_vlq(128) == bytes([0x81, 0x00])

    def test_encode_max(self):
        assert encode_vlq(0x0FFFFFFF) == bytes([0xFF, 0xFF, 0xFF, 0x7F])
        assert decode_vlq(bytes([0xFF, 0xFF, 0xFF, 0x7F])) == (0x0FFFFFFF, 4)

    def test_empty_stream(self):
        with pytest.raises(TruncatedChunk):
            decode_vlq(b"")

    def test_unterminated(self):
        with pytest.raises(UnterminatedVlq):
            decode_vlq(bytes([0x80, 0x80, 0x80, 0x80, 0x00]))
        with pytest.raises(UnterminatedVlq):
            decode_vlq(bytes([0x80]))

    def test_out_of_range(self):
        with pytest.raises(InvariantViolation):
            encode_vlq(-1)
        with pytest.raises(InvariantViolation):
            encode_vlq(1 << 28)

    def test_round_trip_low_range(self):
        # acceptance covers the full 2^21 sweep; keep the unit test quick
        for n in range(1 << 16):
            enc = encode_vlq(n)
            assert decode_vlq(enc) == (n, len(enc))

    def test_round_trip_boundaries(self):
        for n in (127, 128, (1 << 14) - 1, 1 << 14, (1 << 21) - 1, 1 << 21, (1 << 28) - 1):
            enc = encode_vlq(n)
            assert decode_vlq(enc) == (n, len(enc))


class TestParse:
    def test_golden_file(self):
        mf = parse_midi(GOLDEN)
        assert mf.format == MidiFormat.SINGLE
        assert mf.division == 480
        assert mf.tracks == [[
            MidiEvent(0, Tempo(500_000)),
            MidiEvent(0, NoteOn(0, 60, 64)),
            MidiEvent(480, NoteOff(0, 60, 0)),
            MidiEvent(0, EndOfTrack()),
        ]]

    def test_golden_write_is_byte_identical(self):
        assert write_midi(parse_midi(GOLDEN)) == GOLDEN

    def test_empty_input(self):
        with pytest.raises(BadHeader):
            parse_midi(b"")

    def test_format_2_rejected(self):
        data = bytearray(GOLDEN)
        data[9] = 2
        with pytest.raises(UnsupportedFormat):
            parse_midi(bytes(data))

    def test_smpte_division_rejected(self):
        data = bytearray(GOLDEN)
        data[12] = 0xE7  # -25 frames/sec
        with pytest.raises(UnsupportedFormat):
            parse_midi(bytes(data))

    def test_truncated_track(self):
        with pytest.raises(TruncatedChunk):
            parse_midi(GOLDEN[:-6])

    def test_missing_track_chunk(self):
        with pytest.raises(TruncatedChunk):
            parse_midi(GOLDEN[:14])

    def test_running_status_expanded(self):
        # NoteOn 60, then a bare data pair reusing the 0x90 status
        body = bytes.fromhex("00903c40" "103c00" "00ff2f00")
        data = (b"MThd" + (6).to_bytes(4, "big") + bytes.fromhex("0000" "0001" "01e0")
                + b"MTrk" + len(body).to_bytes(4, "big") + body)
        mf = parse_midi(data)
        assert mf.tracks[0][:2] == [
            MidiEvent(0, NoteOn(0, 60, 64)),
            MidiEvent(0x10, NoteOn(0, 60, 0)),  # velocity 0 stays a NoteOn
        ]
        # canonical output restates the status byte
        rewritten = write_midi(mf)
        assert bytes.fromhex("903c40") in rewritten
        assert bytes.fromhex("10903c00") in rewritten

    def test_unknown_meta_preserved(self):
        body = bytes.fromhex("00ff03044e616d65" "00903c40" "00803c00" "00ff2f00")
        data = (b"MThd" + (6).to_bytes(4, "big") + bytes.fromhex("0000" "0001" "00c0")
                + b"MTrk" + len(body).to_bytes(4, "big") + body)
        mf = parse_midi(data)
        assert mf.tracks[0][0] == MidiEvent(0, Opaque(0xFF, bytes([0x03]) + b"Name"))
        assert write_midi(mf) == data

    def test_sysex_and_escape_preserved(self):
        # a sysex (0xF0) and an escape (0xF7) event, each with a length and
        # payload, between two notes; running status does not carry across them
        body = bytes.fromhex("00f005411042127f" "00903c40" "10f70243f7" "00803c00" "00ff2f00")
        data = (b"MThd" + (6).to_bytes(4, "big") + bytes.fromhex("0000" "0001" "00c0")
                + b"MTrk" + len(body).to_bytes(4, "big") + body)
        mf = parse_midi(data)
        assert mf.tracks[0][0] == MidiEvent(0, Opaque(0xF0, bytes.fromhex("411042127f")))
        assert mf.tracks[0][2] == MidiEvent(0x10, Opaque(0xF7, bytes.fromhex("43f7")))
        assert write_midi(mf) == data

    def test_oversized_header_length_skipped(self):
        # MThd declaring 8 bytes: the two extras must be ignored
        data = (b"MThd" + (8).to_bytes(4, "big")
                + bytes.fromhex("0000" "0001" "01e0" "beef") + GOLDEN[14:])
        mf = parse_midi(data)
        assert mf.division == 480
        assert len(mf.tracks[0]) == 4

    def test_missing_end_of_track_normalized(self):
        body = bytes.fromhex("00903c40")
        data = (b"MThd" + (6).to_bytes(4, "big") + bytes.fromhex("0000" "0001" "00c0")
                + b"MTrk" + len(body).to_bytes(4, "big") + body)
        mf = parse_midi(data)
        assert mf.tracks[0][-1] == MidiEvent(0, EndOfTrack())


class TestWrite:
    def test_no_tracks(self):
        with pytest.raises(InvariantViolation):
            write_midi(MidiFile(MidiFormat.MULTI_TRACK, 480, []))

    def test_single_format_needs_one_track(self):
        track = [MidiEvent(0, EndOfTrack())]
        with pytest.raises(InvariantViolation):
            write_midi(MidiFile(MidiFormat.SINGLE, 480, [track, track]))

    def test_track_must_end_with_end_of_track(self):
        with pytest.raises(InvariantViolation):
            write_midi(MidiFile(MidiFormat.SINGLE, 480, [[MidiEvent(0, NoteOn(0, 60, 64))]]))

    def test_bad_division(self):
        track = [MidiEvent(0, EndOfTrack())]
        for division in (0, -1, 40000):
            with pytest.raises(InvariantViolation):
                write_midi(MidiFile(MidiFormat.SINGLE, division, [track]))

    def test_bad_note_fields(self):
        track = [MidiEvent(0, NoteOn(0, 200, 64)), MidiEvent(0, EndOfTrack())]
        with pytest.raises(InvariantViolation):
            write_midi(MidiFile(MidiFormat.SINGLE, 480, [track]))

    def test_delta_out_of_range(self):
        track = [MidiEvent(1 << 28, NoteOn(0, 60, 64)), MidiEvent(0, EndOfTrack())]
        with pytest.raises(InvariantViolation):
            write_midi(MidiFile(MidiFormat.SINGLE, 480, [track]))

    @pytest.mark.parametrize("kind, message", [
        (EndOfTrack(), "EndOfTrack before final event"),
        (Tempo(0), "tempo 0 out of range"),
        (Opaque(0x40, b"\x00"), "opaque status 0x40 invalid"),
        (Opaque(0xFF, b""), "meta event with no type byte"),
        ("a text", "unknown event kind"),
    ], ids=["early-end", "tempo-0", "data-byte-status", "meta-without-type", "unknown-kind"])
    def test_bad_event_is_invariant_violation(self, kind, message):
        track = [MidiEvent(0, kind), MidiEvent(0, EndOfTrack())]
        with pytest.raises(InvariantViolation, match=message):
            write_midi(MidiFile(MidiFormat.SINGLE, 480, [track]))


class TestRoundTrip:
    def test_random_files_event_equivalent(self):
        rng = Rng(1)
        for _ in range(40):
            mf = random_midi_file(rng)
            reparsed = parse_midi(write_midi(mf))
            assert events_equivalent(mf, reparsed)

    def test_canonical_idempotence(self):
        rng = Rng(2)
        for _ in range(40):
            data = write_midi(random_midi_file(rng))
            assert write_midi(parse_midi(data)) == data

    def test_arbitrary_bytes_never_crash(self):
        rng = Rng(3)
        for _ in range(400):
            n = rng.randint(200)
            blob = bytes(rng.randint(256) for _ in range(n))
            if rng.randint(2):
                blob = b"MThd" + blob
            try:
                parse_midi(blob)
            except DataError:
                pass

    def test_mutated_golden_never_crashes(self):
        rng = Rng(4)
        for _ in range(400):
            data = bytearray(GOLDEN)
            for _ in range(1 + rng.randint(4)):
                data[rng.randint(len(data))] = rng.randint(256)
            try:
                parse_midi(bytes(data))
            except DataError:
                pass

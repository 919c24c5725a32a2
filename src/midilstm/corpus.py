"""Token streams, vocabularies, and training windows.

A Piece becomes two parallel streams: note tokens ("R" for a rest, else
dot-joined ascending MIDI keys such as "60.64.67" -- chords are atomic
tokens) and integer duration tokens in grid units, clamped to ``max_dur``.
Vocabularies are sorted and deduplicated, so the token<->index mapping is
identical no matter how the corpus was ordered.

Corpus file format (one song per line, whitespace-separated NOTE:DUR
fields, header first):

    #grid=12 L=50 max_dur=48
    60.64.67:6 R:12 62:3 ...
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadCorpusFile, BadToken, IndexOutOfRange
from .score import Piece

REST_TOKEN = "R"
DEFAULT_WINDOW = 50
DEFAULT_MAX_DUR = 48


def note_token(pitches: tuple[int, ...]) -> str:
    """Canonical token for a pitch set; empty set is the rest token."""
    return ".".join(str(p) for p in pitches) if pitches else REST_TOKEN


def parse_note_token(text: str) -> tuple[int, ...]:
    """Inverse of note_token. Rejects anything non-canonical."""
    if text == REST_TOKEN:
        return ()
    parts = text.split(".")
    try:
        pitches = tuple(int(p) for p in parts)
    except ValueError:
        raise BadToken(f"unparseable note token {text!r}") from None
    if any(not 0 <= p <= 127 for p in pitches):
        raise BadToken(f"pitch out of range in token {text!r}")
    if list(pitches) != sorted(set(pitches)):
        raise BadToken(f"pitches not strictly ascending in token {text!r}")
    if any(str(p) != part for p, part in zip(pitches, parts)):
        raise BadToken(f"non-canonical pitch spelling in token {text!r}")
    return pitches


def tokenize(piece: Piece, max_dur: int = DEFAULT_MAX_DUR) -> tuple[list[str], list[int]]:
    """Parallel (note tokens, duration tokens) for one piece."""
    notes = [note_token(ev.pitches) for ev in piece.events]
    durs = [min(ev.duration, max_dur) for ev in piece.events]
    return notes, durs


class Vocabulary:
    """Deterministic bijection between tokens and dense indices.

    Tokens are sorted (lexicographically for strings, numerically for
    ints), so the same token set always yields the same mapping.
    """

    def __init__(self, tokens):
        self.tokens = tuple(sorted(set(tokens)))
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def encode(self, token) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise BadToken(f"token {token!r} not in vocabulary") from None

    def decode(self, idx: int):
        if not 0 <= idx < len(self.tokens):
            raise IndexOutOfRange(f"index {idx} outside [0, {len(self.tokens)})")
        return self.tokens[idx]


def build_vocab(tokens) -> Vocabulary:
    """Vocabulary over a flat iterable of tokens."""
    seen = set(tokens)
    if not seen:
        raise BadCorpusFile("no tokens to build a vocabulary from")
    return Vocabulary(seen)


@dataclass
class Dataset:
    """Per-song id streams plus the window length that cuts them."""

    window_len: int
    note_ids: list[np.ndarray]
    dur_ids: list[np.ndarray]


def make_windows(dataset: Dataset) -> tuple[list[tuple[int, int]], int]:
    """All stride-1 (song, offset) training windows.

    A window at offset i covers tokens [i, i+L) with token i+L as target, so
    a song of N tokens yields max(0, N - L) windows. Returns the window list
    and the number of songs too short to yield any.
    """
    L = dataset.window_len
    windows: list[tuple[int, int]] = []
    skipped = 0
    for song, ids in enumerate(dataset.note_ids):
        n = len(ids) - L
        if n <= 0:
            skipped += 1
            continue
        windows.extend((song, off) for off in range(n))
    return windows, skipped


def encode_songs(songs, note_vocab: Vocabulary, dur_vocab: Vocabulary,
                 window_len: int = DEFAULT_WINDOW) -> Dataset:
    """Map token streams to id arrays under the given vocabularies."""
    note_ids = []
    dur_ids = []
    for notes, durs in songs:
        if len(notes) != len(durs):
            raise BadCorpusFile("note and duration streams differ in length")
        note_ids.append(np.array([note_vocab.encode(t) for t in notes], dtype=np.int64))
        dur_ids.append(np.array([dur_vocab.encode(d) for d in durs], dtype=np.int64))
    return Dataset(window_len, note_ids, dur_ids)


# --- corpus file ---

@dataclass
class CorpusFile:
    grid: int
    window_len: int
    max_dur: int
    songs: list[tuple[list[str], list[int]]] = field(default_factory=list)

    def build_vocabs(self) -> tuple[Vocabulary, Vocabulary]:
        notes = build_vocab(tok for s in self.songs for tok in s[0])
        durs = build_vocab(d for s in self.songs for d in s[1])
        return notes, durs

    def to_dataset(self, note_vocab: Vocabulary, dur_vocab: Vocabulary) -> Dataset:
        return encode_songs(self.songs, note_vocab, dur_vocab, self.window_len)


def format_song(notes: list[str], durs: list[int]) -> str:
    return " ".join(f"{n}:{d}" for n, d in zip(notes, durs))


def parse_song_line(line: str, accepted: set | None = None) -> tuple[list[str], list[int]]:
    """NOTE:DUR fields of one line; note tokens in ``accepted`` (which
    gains each new valid one) skip validation."""
    accepted = set() if accepted is None else accepted
    notes: list[str] = []
    durs: list[int] = []
    for field_text in line.split():
        token, sep, dur_text = field_text.rpartition(":")
        if not sep:
            raise BadCorpusFile(f"field {field_text!r} has no ':' separator")
        if token not in accepted:
            parse_note_token(token)
            accepted.add(token)
        try:
            dur = int(dur_text)
        except ValueError:
            raise BadCorpusFile(f"bad duration in field {field_text!r}") from None
        if dur < 1:
            raise BadCorpusFile(f"duration < 1 in field {field_text!r}")
        notes.append(token)
        durs.append(dur)
    return notes, durs


def save_corpus(path, corpus: CorpusFile) -> None:
    lines = [f"#grid={corpus.grid} L={corpus.window_len} max_dur={corpus.max_dur}"]
    lines.extend(format_song(notes, durs) for notes, durs in corpus.songs)
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A UTF-8 text (``"w"``) or bytes (``"wb"``) handle on a sibling temp
    file that replaces ``path`` once the block ends and its bytes are on
    disk, so ``path`` holds its old bytes, or none, until then."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:  # the temp file goes, and the exception propagates
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path) -> list[str]:
    """Lines of a UTF-8 token-text file (a corpus or a seed file)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise BadCorpusFile(f"{path} is not UTF-8 text: {exc}") from None


def load_corpus(path) -> CorpusFile:
    lines = read_lines(path)
    if not lines or not lines[0].startswith("#"):
        raise BadCorpusFile("missing '#grid=... L=... max_dur=...' header line")
    header: dict[str, int] = {}
    for part in lines[0][1:].split():
        key, sep, value = part.partition("=")
        if not sep:
            raise BadCorpusFile(f"bad header field {part!r}")
        try:
            header[key] = int(value)
        except ValueError:
            raise BadCorpusFile(f"bad header field {part!r}") from None
    for key in ("grid", "L", "max_dur"):
        if key not in header:
            raise BadCorpusFile(f"header missing {key!r}")
        if header[key] < 1:
            raise BadCorpusFile(f"header {key}={header[key]} must be >= 1")
    accepted: set[str] = set()  # each distinct note token is validated once
    songs = [parse_song_line(line, accepted) for line in lines[1:] if line.strip()]
    for notes, durs in songs:
        if any(d > header["max_dur"] for d in durs):
            raise BadCorpusFile(f"duration beyond max_dur={header['max_dur']}")
    return CorpusFile(header["grid"], header["L"], header["max_dur"], songs)

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

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadCorpusFile, BadToken, IndexOutOfRange
from .score import MAX_GRID, Piece

REST_TOKEN = "R"
DEFAULT_WINDOW = 50
DEFAULT_MAX_DUR = 48


def note_token(pitches: tuple[int, ...]) -> str:
    """Canonical token for a pitch set; empty set is the rest token."""
    return ".".join(str(p) for p in pitches) if pitches else REST_TOKEN


def _canonical_int(text: str) -> int:
    """The integer ``text`` spells the way ``str`` spells it (no sign, zero
    padding, separators or non-ASCII digits), else ValueError."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"non-canonical integer {text!r}")
    return value


def parse_note_token(text: str) -> tuple[int, ...]:
    """Inverse of note_token. Rejects anything non-canonical."""
    if text == REST_TOKEN:
        return ()
    try:
        pitches = tuple(_canonical_int(p) for p in text.split("."))
    except ValueError as exc:
        raise BadToken(f"unparseable note token {text!r}: {exc}") from None
    if any(not 0 <= p <= 127 for p in pitches):
        raise BadToken(f"pitch out of range in token {text!r}")
    if list(pitches) != sorted(set(pitches)):
        raise BadToken(f"pitches not strictly ascending in token {text!r}")
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


def make_windows(dataset: Dataset, holdout: float = 0.0
                 ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """All stride-1 (song, offset) windows, as (training, held-out) lists in
    song and offset order.

    A window at offset i covers tokens [i, i+L) with token i+L as target, so
    a song of N tokens yields n = max(0, N - L) windows, of which the last
    ceil(n * holdout) are held out (``holdout`` is in [0, 1)).
    """
    L = dataset.window_len
    windows, held = [], []
    for song, ids in enumerate(dataset.note_ids):
        n = len(ids) - L
        if n <= 0:
            continue
        cut = n - math.ceil(n * holdout)
        windows.extend((song, off) for off in range(cut))
        held.extend((song, off) for off in range(cut, n))
    return windows, held


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
            dur = _canonical_int(dur_text)
        except ValueError:
            raise BadCorpusFile(f"bad duration in field {field_text!r}") from None
        if dur < 1:
            raise BadCorpusFile(f"duration < 1 in field {field_text!r}")
        notes.append(token)
        durs.append(dur)
    return notes, durs


def header_problem(grid: int, window_len: int, max_dur: int) -> str | None:
    """The first corpus-header bound the values break, as text such as
    "L=0 must be >= 1", else None: grid is 1..MAX_GRID, L and max_dur >= 1."""
    for key, value in (("grid", grid), ("L", window_len), ("max_dur", max_dur)):
        if value < 1:
            return f"{key}={value} must be >= 1"
    return f"grid={grid} must be <= {MAX_GRID}" if grid > MAX_GRID else None


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
        if not sep or key not in ("grid", "L", "max_dur") or key in header:
            raise BadCorpusFile(f"bad header field {part!r} (want grid, L, max_dur, once each)")
        try:
            header[key] = _canonical_int(value)
        except ValueError:
            raise BadCorpusFile(f"bad header field {part!r}") from None
    for key in ("grid", "L", "max_dur"):
        if key not in header:
            raise BadCorpusFile(f"header missing {key!r}")
    problem = header_problem(header["grid"], header["L"], header["max_dur"])
    if problem:
        raise BadCorpusFile(f"header {problem}")
    accepted: set[str] = set()  # each distinct note token is validated once
    songs = [parse_song_line(line, accepted) for line in lines[1:] if line.strip()]
    for notes, durs in songs:
        if any(d > header["max_dur"] for d in durs):
            raise BadCorpusFile(f"duration beyond max_dur={header['max_dur']}")
    return CorpusFile(header["grid"], header["L"], header["max_dur"], songs)

"""Autoregressive generation: slide a fixed-length context window over the
model, sample the next (note, duration) pair from the two heads, repeat.

Every window runs through the stack from zero state over its own L tokens,
as in training. Window u covers tokens u-L .. u-1 and yields token u, so up
to L windows are in flight at once and all of them consume the same token
at the same step. They advance together as the rows of one batch, oldest
first: at step t a window with zero state joins for the window that starts
at token t, every row consumes token t (one batched product and one cell
step per layer), and once the oldest row has consumed its L tokens its top
h feeds the heads, the next token is sampled and the row leaves. The work
per token is that of one full window, grouped into L-row products instead
of L single-row ones.

Temperature divides the head logits before the softmax (applied here to
log-probabilities, which is algebraically identical). The repetition guard
breaks the failure mode where a model locks onto one note: once the last
``repeat_cap`` emitted notes are identical, that note id is excluded from
the selection and the rest of the distribution is renormalized. If nothing
else has any probability mass the note is emitted anyway and counted as a
guard saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, Vocabulary, parse_note_token
from .errors import BadToken, CorpusTooShort, UsageError
from .lstm import ModelParams, heads, step_rows
from .numerics import Rng, softmax
from .score import NoteEvent, Piece

MIN_TEMPERATURE = 1e-300  # below ~4.2e-306, log(5e-324) / T overflows to -inf


@dataclass
class GenConfig:
    length: int = 500
    temperature: float = 1.0
    mode: str = "sample"  # or "argmax"
    repeat_cap: int = 8  # 0 disables the guard

    def validate(self) -> None:
        if self.length < 1:
            raise UsageError(f"length {self.length} must be >= 1")
        if not MIN_TEMPERATURE <= self.temperature < math.inf:  # also rejects NaN
            raise UsageError(f"temperature {self.temperature} outside [{MIN_TEMPERATURE}, inf)")
        if self.mode not in ("sample", "argmax"):
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.repeat_cap < 0:
            raise UsageError(f"repeat_cap {self.repeat_cap} must be >= 0")


def pick_seed(dataset: Dataset, rng: Rng) -> tuple[int, int]:
    """Uniformly random (song, offset) of a full-length seed window."""
    L = dataset.window_len
    counts = [max(0, len(ids) - L + 1) for ids in dataset.note_ids]
    total = sum(counts)
    if total == 0:
        raise CorpusTooShort(f"no song has {L} tokens")
    pick = rng.randint(total)
    for song, count in enumerate(counts):
        if pick < count:
            return song, pick
        pick -= count


def _tempered(probs: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(logits / T) recovered from the probability row."""
    if temperature == 1.0:
        return probs
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    return softmax(logp / temperature)


def _select(probs: np.ndarray, mode: str, rng: Rng) -> int:
    if mode == "argmax":
        return int(np.argmax(probs))
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, rng.uniform() * cum[-1], side="right"))
    return min(idx, probs.shape[0] - 1)


@dataclass
class GenResult:
    notes: list[str]
    durs: list[int]
    guard_saturations: int = 0
    guard_triggers: int = 0  # notes the guard excluded, saturations included

    def stats(self) -> dict:
        """The song's repetition facts, as the manifest records them."""
        longest = run = 0
        for i, note in enumerate(self.notes):
            run = run + 1 if i and note == self.notes[i - 1] else 1
            longest = max(longest, run)
        return {"guard_triggers": self.guard_triggers,
                "guard_saturations": self.guard_saturations,
                "longest_run": longest,
                "distinct_note_ratio": len(set(self.notes)) / len(self.notes)}


def _open_row(states: list[np.ndarray]) -> list[np.ndarray]:
    """``states`` with one more row of zero state at the end."""
    return [np.concatenate([s, np.zeros((1, s.shape[1]))]) for s in states]


def generate(params: ModelParams, note_vocab: Vocabulary, dur_vocab: Vocabulary,
             seed_notes, seed_durs, config: GenConfig, rng: Rng) -> GenResult:
    """Generate exactly ``config.length`` (note, duration) pairs from a seed
    window, sliding the context by one token per step (see the module
    docstring for how the windows are batched)."""
    config.validate()
    params.check_vocabs(note_vocab, dur_vocab)
    if len(seed_notes) != len(seed_durs) or not seed_notes:
        raise BadToken("seed streams must be equal-length and non-empty")
    note_ids = [note_vocab.encode(tok) for tok in seed_notes]
    dur_ids = [dur_vocab.encode(tok) for tok in seed_durs]
    L, n = len(note_ids), config.length

    out_notes: list[str] = []
    out_durs: list[int] = []
    saturations = triggers = 0
    run_id = -1
    run_len = 0
    h = [np.zeros((0, layer.hidden_size)) for layer in params.layers]
    c = list(h)

    for t in range(L + n - 1):
        if t < n:  # the window that yields token t + L starts at token t
            h, c = _open_row(h), _open_row(c)
        step_rows(params, h, c, note_ids[t], dur_ids[t])
        if t < L - 1:
            continue
        # the oldest window has consumed its L tokens: it yields token t + 1
        note_probs, dur_probs = heads(h[-1][:1], params)
        h, c = [s[1:] for s in h], [s[1:] for s in c]
        note_base = note_probs[0]
        if config.mode == "argmax":
            note_p = note_base
            dur_p = dur_probs[0]
        else:
            note_p = _tempered(note_base, config.temperature)
            dur_p = _tempered(dur_probs[0], config.temperature)

        note_id = _select(note_p, config.mode, rng)
        if config.repeat_cap > 0 and run_len >= config.repeat_cap and note_id == run_id:
            # exclude from the raw head distribution and re-apply temperature:
            # tempering after the exclusion is the same distribution but does
            # not underflow at small temperatures
            triggers += 1
            masked = note_base.copy()
            masked[note_id] = 0.0
            total = masked.sum()
            if total > 0.0:
                masked /= total
                if config.mode != "argmax":
                    masked = _tempered(masked, config.temperature)
                note_id = _select(masked, config.mode, rng)
            else:
                saturations += 1
        dur_id = _select(dur_p, config.mode, rng)

        if note_id == run_id:
            run_len += 1
        else:
            run_id = note_id
            run_len = 1

        out_notes.append(note_vocab.decode(note_id))
        out_durs.append(dur_vocab.decode(dur_id))
        note_ids.append(note_id)
        dur_ids.append(dur_id)

    return GenResult(out_notes, out_durs, saturations, triggers)


def emit(notes, durs, grid: int) -> Piece:
    """Lay generated tokens onto a sequential timeline: each event starts
    where the previous one ended; rest tokens become rest events."""
    if len(notes) != len(durs):
        raise BadToken("note and duration streams differ in length")
    events = []
    onset = 0
    for tok, dur in zip(notes, durs):
        pitches = parse_note_token(tok)
        dur = int(dur)
        if dur < 1:
            raise BadToken(f"duration {dur} must be >= 1")
        events.append(NoteEvent(onset, dur, pitches))
        onset += dur
    return Piece(grid=grid, events=events)

"""Autoregressive generation: slide a fixed-length context window over the
model, sample the next (note, duration) pair from the two heads, repeat.

Every window runs through the stack from zero state over its own L tokens,
as in training. Window u covers tokens u-L .. u-1 and yields token u, so up
to L windows are in flight, and all of them consume the same token at the
same step. They advance together as the rows of one ``lstm.Wavefront``,
oldest first: at step t the window that starts at token t joins, every row
consumes token t, and once the oldest row has consumed its L tokens its top
h feeds the heads, the next token is drawn and the row leaves. Per token
this is one full window's work, in L-row products. The recurrent products
run a step ahead, off the drawn token's path, and skip each window's first
one, whose h is zero.

``_select`` is the one place that applies the mode and the temperature.
Temperature divides the head logits before the softmax (applied there to
log-probabilities, which is algebraically identical). The repetition guard
breaks the failure mode where a model locks onto one note: when the drawn
note equals each of the last ``repeat_cap`` emitted notes, that note id is
excluded from the head distribution, the rest is renormalized and drawn
from again. Seed notes never count towards the cap. If nothing else has any
probability mass the note is emitted anyway and counted as a guard
saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, Vocabulary, parse_note_token
from .errors import BadToken, CorpusTooShort, UsageError
from .lstm import ModelParams, Wavefront, heads
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


def _select(probs: np.ndarray, config: GenConfig, rng: Rng) -> int:
    """The id the mode picks from a probability row: its argmax, or a draw
    from softmax(log(probs) / T), the row's logits over the temperature."""
    if config.mode == "argmax":
        return int(np.argmax(probs))
    if config.temperature != 1.0:
        with np.errstate(divide="ignore"):
            probs = softmax(np.log(probs) / config.temperature)
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
    L, n, cap = len(note_ids), config.length, config.repeat_cap
    saturations = triggers = 0
    rows = Wavefront(params)  # the window that yields token t + L starts at token t
    try:
        for t in range(L + n - 1):
            top = rows.step(note_ids[t], dur_ids[t], leave=t >= L - 1, join=t + 1 < n)
            if t < L - 1:
                continue
            # the oldest window has consumed its L tokens: it yields token t + 1
            note_probs, dur_probs = heads(top[:1], params)
            note_id = _select(note_probs[0], config, rng)
            if cap and len(note_ids) >= L + cap and note_ids[-cap:] == [note_id] * cap:
                # exclude from the head distribution, then temper: tempering
                # after the exclusion does not underflow at small temperatures
                triggers += 1
                masked = note_probs[0].copy()
                masked[note_id] = 0.0
                total = masked.sum()
                if total > 0.0:
                    note_id = _select(masked / total, config, rng)
                else:
                    saturations += 1
            note_ids.append(note_id)
            dur_ids.append(_select(dur_probs[0], config, rng))
    finally:
        rows.close()

    return GenResult([note_vocab.decode(i) for i in note_ids[L:]],
                     [dur_vocab.decode(i) for i in dur_ids[L:]], saturations, triggers)


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

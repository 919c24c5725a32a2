"""Mini-batch training, evaluation, and binary checkpoints.

Training is deterministic end to end: window shuffling, dropout, and
parameter init all draw from named sub-seeds of one master seed, and batch
gradients are reduced in fixed window order, so identical configs produce
byte-identical checkpoints.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import Dataset, Vocabulary, make_windows
from .errors import (
    BadCheckpoint,
    DataError,
    EmptyDataset,
    TrainingDiverged,
    UsageError,
    VocabMismatch,
)
from .lstm import ModelConfig, ModelParams, model_backward, model_forward
from .numerics import (
    CE_FLOOR,
    AdamState,
    Rng,
    adam_step,
    derive_seed,
    global_norm,
)

CHECKPOINT_MAGIC = b"LSTMCMP1"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    model: ModelConfig
    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    clip_norm: float = 5.0
    checkpoint_every: int = 10
    holdout: float = 0.0

    def validate(self) -> None:
        self.model.validate()
        if self.epochs < 0 or self.batch_size < 1 or not 0 <= self.lr < math.inf:
            raise UsageError("epochs, batch_size, lr must be non-negative/positive and finite")
        if not math.isfinite(self.clip_norm):
            raise UsageError(f"clip_norm {self.clip_norm} must be finite")
        if self.optimizer not in ("adam", "sgd"):
            raise UsageError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.holdout < 1.0:
            raise UsageError(f"holdout {self.holdout} outside [0, 1)")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of ``dataclasses.asdict``; a missing or unknown key raises
        KeyError."""
        model = _from_fields(ModelConfig, {**d["model"],
                                           "hidden_sizes": tuple(d["model"]["hidden_sizes"])})
        return _from_fields(cls, {**d, "model": model})


def _from_fields(cls, values: dict):
    names = {f.name for f in fields(cls)}
    if values.keys() != names:
        raise KeyError(f"{cls.__name__} keys {sorted(values)} != {sorted(names)}")
    return cls(**values)


@dataclass
class MetricsRow:
    epoch: int
    loss: float
    note_acc: float
    dur_acc: float
    note_ppl: float

    CSV_HEADER = "epoch,loss,note_acc,dur_acc,note_ppl"

    @classmethod
    def from_totals(cls, epoch: int, totals: list, n: int) -> "MetricsRow":
        """Row from summed (CE note, CE dur, note hits, dur hits) over n windows."""
        ce_note, ce_dur, note_hits, dur_hits = totals
        return cls(epoch, (ce_note + ce_dur) / n, note_hits / n, dur_hits / n,
                   float(np.exp(ce_note / n)))

    def csv_line(self) -> str:
        return (f"{self.epoch},{self.loss:.6f},{self.note_acc:.6f},"
                f"{self.dur_acc:.6f},{self.note_ppl:.6f}")


def write_metrics(path, rows: list[MetricsRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MetricsRow.CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")


@dataclass
class TrainResult:
    params: ModelParams
    metrics: list[MetricsRow]
    checkpoint_paths: list[str]
    holdout_metrics: MetricsRow | None = None


def _check_vocabs(config: ModelConfig, note_vocab: Vocabulary, dur_vocab: Vocabulary) -> None:
    if len(note_vocab) != config.note_vocab_size or len(dur_vocab) != config.dur_vocab_size:
        raise VocabMismatch(
            f"model expects vocab sizes {config.note_vocab_size}/{config.dur_vocab_size}, "
            f"corpus has {len(note_vocab)}/{len(dur_vocab)}")


def _gather(dataset: Dataset, windows: list[tuple[int, int]]):
    """Stack windows into (B, L) id arrays plus (B,) targets."""
    L = dataset.window_len
    note_w = np.stack([dataset.note_ids[s][o:o + L] for s, o in windows])
    dur_w = np.stack([dataset.dur_ids[s][o:o + L] for s, o in windows])
    note_t = np.array([dataset.note_ids[s][o + L] for s, o in windows], dtype=np.int64)
    dur_t = np.array([dataset.dur_ids[s][o + L] for s, o in windows], dtype=np.int64)
    return note_w, dur_w, note_t, dur_t


def _add_batch_stats(totals: list, note_probs, dur_probs, note_t, dur_t) -> float:
    """Add one batch's summed CE (note, dur) and correct-prediction counts
    to ``totals`` in place; returns the batch's summed loss."""
    rows = np.arange(note_t.shape[0])
    ce_note = float(-np.log(note_probs[rows, note_t] + CE_FLOOR).sum())
    ce_dur = float(-np.log(dur_probs[rows, dur_t] + CE_FLOOR).sum())
    note_hits = int(np.sum(note_probs.argmax(axis=1) == note_t))
    dur_hits = int(np.sum(dur_probs.argmax(axis=1) == dur_t))
    totals[:] = [t + s for t, s in zip(totals, (ce_note, ce_dur, note_hits, dur_hits))]
    return ce_note + ce_dur


def split_holdout(dataset: Dataset, windows: list[tuple[int, int]],
                  fraction: float) -> tuple[list, list]:
    """Reserve the trailing ``fraction`` of each song's windows for eval."""
    if fraction <= 0.0:
        return windows, []
    by_song: dict[int, list] = {}
    for w in windows:
        by_song.setdefault(w[0], []).append(w)
    train_w, held_w = [], []
    for song in sorted(by_song):
        ws = sorted(by_song[song], key=lambda w: w[1])
        n_held = int(np.ceil(len(ws) * fraction))
        train_w.extend(ws[:len(ws) - n_held])
        held_w.extend(ws[len(ws) - n_held:])
    return train_w, held_w


def train(dataset: Dataset, config: TrainConfig, note_vocab: Vocabulary,
          dur_vocab: Vocabulary, out_dir=None, on_epoch=None) -> TrainResult:
    """Run the full training loop.

    Batch gradients are means over the batch; the global gradient norm is
    clipped to ``clip_norm`` before each optimizer step. A non-finite batch
    loss or gradient norm raises ``TrainingDiverged`` before that step, so
    no NaN reaches the parameters or a checkpoint. A batch size larger
    than the window count is clamped down to it. Checkpoints are written
    every ``checkpoint_every`` epochs plus a final ``checkpoint.bin`` when
    ``out_dir`` is given. ``on_epoch`` is called with each MetricsRow.
    """
    config.validate()
    _check_vocabs(config.model, note_vocab, dur_vocab)
    windows, _ = make_windows(dataset)
    if not windows:
        raise EmptyDataset("no training windows (songs shorter than window + 1?)")
    windows, held = split_holdout(dataset, windows, config.holdout)
    if not windows:
        raise EmptyDataset("holdout fraction left no training windows")
    batch_size = min(config.batch_size, len(windows))

    init_rng = Rng(derive_seed(config.seed, "init"))
    shuffle_rng = Rng(derive_seed(config.seed, "shuffle"))
    dropout_rng = Rng(derive_seed(config.seed, "dropout"))
    params = ModelParams.init(config.model, init_rng)
    grads = params.zeros_like()
    adam = AdamState(np.zeros(params.flat.size), np.zeros(params.flat.size))

    metrics: list[MetricsRow] = []
    checkpoint_paths: list[str] = []

    def save(path, epoch, loss_value):
        save_checkpoint(path, params, config, note_vocab, dur_vocab, epoch, loss_value)
        checkpoint_paths.append(str(path))

    mean_loss = float("nan")
    for epoch in range(1, config.epochs + 1):
        order = list(windows)
        shuffle_rng.shuffle(order)
        totals = [0.0, 0.0, 0, 0]
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            note_w, dur_w, note_t, dur_t = _gather(dataset, batch)
            note_probs, dur_probs, cache = model_forward(
                note_w, dur_w, params, config.model, train=True, rng=dropout_rng)
            loss = _add_batch_stats(totals, note_probs, dur_probs, note_t, dur_t)

            named = model_backward(cache, note_t, dur_t, params, grads)
            grads.flat *= 1.0 / len(batch)
            norm = global_norm(named.values())
            if not np.isfinite(loss + norm):
                raise TrainingDiverged(f"epoch {epoch}, window {start}: loss {loss}, "
                                       f"gradient norm {norm}")
            if config.clip_norm > 0 and norm > config.clip_norm:
                grads.flat *= config.clip_norm / norm
            if config.optimizer == "adam":
                adam_step(params.flat, grads.flat, adam, config.lr)
            else:
                grads.flat *= config.lr
                params.flat -= grads.flat

        metrics.append(MetricsRow.from_totals(epoch, totals, len(order)))
        mean_loss = metrics[-1].loss
        if on_epoch is not None:
            on_epoch(metrics[-1])
        if out_dir is not None and config.checkpoint_every > 0 and epoch % config.checkpoint_every == 0:
            save(f"{out_dir}/checkpoint_ep{epoch:04d}.bin", epoch, mean_loss)

    if out_dir is not None:
        save(f"{out_dir}/checkpoint.bin", config.epochs, mean_loss)

    holdout_row = None
    if held:
        holdout_row = _evaluate_windows(params, config.model, dataset, held, config.epochs)
    return TrainResult(params, metrics, checkpoint_paths, holdout_row)


def _evaluate_windows(params: ModelParams, model_config: ModelConfig, dataset: Dataset,
                      windows: list[tuple[int, int]], epoch: int,
                      batch_size: int = 256) -> MetricsRow:
    totals = [0.0, 0.0, 0, 0]
    for start in range(0, len(windows), batch_size):
        batch = windows[start:start + batch_size]
        note_w, dur_w, note_t, dur_t = _gather(dataset, batch)
        note_probs, dur_probs, _ = model_forward(note_w, dur_w, params, model_config)
        _add_batch_stats(totals, note_probs, dur_probs, note_t, dur_t)
    return MetricsRow.from_totals(epoch, totals, len(windows))


def evaluate(params: ModelParams, model_config: ModelConfig, dataset: Dataset,
             note_vocab: Vocabulary, dur_vocab: Vocabulary, epoch: int = 0) -> MetricsRow:
    """Teacher-forced next-token accuracy and note perplexity, infer mode."""
    _check_vocabs(model_config, note_vocab, dur_vocab)
    windows, _ = make_windows(dataset)
    if not windows:
        raise EmptyDataset("no windows to evaluate")
    return _evaluate_windows(params, model_config, dataset, windows, epoch)


# --- checkpoint format ---
#
#   magic "LSTMCMP1" | u32 version | u32 header_len | header JSON (utf-8)
#   u32 n_params | per param: u16 name_len, name, u32 rows, u32 cols,
#   rows*cols float64 little-endian
#
# The JSON header carries the train config, both vocab listings, the final
# epoch, and the final loss, so a checkpoint loads with no external config.

def save_checkpoint(path, params: ModelParams, config: TrainConfig,
                    note_vocab: Vocabulary, dur_vocab: Vocabulary,
                    epoch: int, final_loss: float) -> None:
    header = {
        "config": asdict(config),
        "note_vocab": list(note_vocab.tokens),
        "dur_vocab": list(dur_vocab.tokens),
        "epoch": epoch,
        "final_loss": final_loss,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    named = params.named_params()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(named)))
        for name, arr in named:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(arr.astype("<f8").tobytes())


@dataclass
class Checkpoint:
    config: TrainConfig
    params: ModelParams
    note_vocab: Vocabulary
    dur_vocab: Vocabulary
    epoch: int
    final_loss: float


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()

    def take(offset, n):
        if offset + n > len(data):
            raise BadCheckpoint("checkpoint truncated")
        return data[offset:offset + n], offset + n

    chunk, pos = take(0, len(CHECKPOINT_MAGIC))
    if chunk != CHECKPOINT_MAGIC:
        raise BadCheckpoint(f"bad magic {chunk!r}")
    chunk, pos = take(pos, 4)
    (version,) = struct.unpack("<I", chunk)
    if version != CHECKPOINT_VERSION:
        raise BadCheckpoint(f"unsupported checkpoint version {version}")
    chunk, pos = take(pos, 4)
    (hlen,) = struct.unpack("<I", chunk)
    blob, pos = take(pos, hlen)
    try:
        header = json.loads(blob.decode("utf-8"))
        config = TrainConfig.from_dict(header["config"])
        params = ModelParams.zeros(config.model)
        note_vocab = Vocabulary(header["note_vocab"])
        dur_vocab = Vocabulary(header["dur_vocab"])
        epoch, final_loss = header["epoch"], header["final_loss"]
    except (ValueError, KeyError, TypeError, DataError) as exc:
        raise BadCheckpoint(f"bad checkpoint header: {exc!r}") from None

    chunk, pos = take(pos, 4)
    (n_params,) = struct.unpack("<I", chunk)
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        chunk, pos = take(pos, 2)
        (name_len,) = struct.unpack("<H", chunk)
        chunk, pos = take(pos, name_len)
        try:
            name = chunk.decode("utf-8")
        except UnicodeDecodeError:
            raise BadCheckpoint(f"parameter name {chunk!r} is not UTF-8") from None
        chunk, pos = take(pos, 8)
        rows, cols = struct.unpack("<II", chunk)
        chunk, pos = take(pos, rows * cols * 8)
        arrays[name] = np.frombuffer(chunk, dtype="<f8").reshape(rows, cols)  # copied below

    for name, arr in params.named_params():  # gate entries write through to the fused arrays
        if name not in arrays:
            raise BadCheckpoint(f"checkpoint missing parameter {name!r}")
        if arrays[name].shape != arr.shape:
            raise BadCheckpoint(f"parameter {name!r} has shape {arrays[name].shape}, "
                                f"expected {arr.shape}")
        if not np.isfinite(arrays[name]).all():
            raise BadCheckpoint(f"parameter {name!r} holds NaN or infinite values")
        arr[...] = arrays[name]

    return Checkpoint(config=config, params=params, note_vocab=note_vocab,
                      dur_vocab=dur_vocab, epoch=epoch, final_loss=final_loss)

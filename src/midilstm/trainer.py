"""Mini-batch training, evaluation, and binary checkpoints.

Training is deterministic end to end: window shuffling, dropout, and
parameter init all draw from named sub-seeds of one master seed, and batch
gradients are reduced in fixed window order, so identical configs produce
byte-identical checkpoints.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import Dataset, Vocabulary, atomic_write, make_windows
from .errors import (
    BadCheckpoint,
    DataError,
    EmptyDataset,
    TrainingDiverged,
    UsageError,
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
# windows per infer-mode forward pass of evaluation
EVAL_BATCH = 256
# the master seed's sub-seeds that train draws: parameter init, window order, dropout masks
TRAIN_SUB_SEEDS = ("init", "shuffle", "dropout")


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
    with atomic_write(path) as fh:
        fh.write(MetricsRow.CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")


@dataclass
class TrainResult:
    params: ModelParams
    metrics: list[MetricsRow]
    checkpoint_paths: list[str]
    holdout_metrics: MetricsRow | None = None


def _gather(dataset: Dataset, windows: list[tuple[int, int]]):
    """Stack windows into (B, L) id arrays plus (B,) targets: a window is
    its L tokens and the token after them."""
    L = dataset.window_len
    notes = np.stack([dataset.note_ids[s][o:o + L + 1] for s, o in windows])
    durs = np.stack([dataset.dur_ids[s][o:o + L + 1] for s, o in windows])
    return notes[:, :L], durs[:, :L], notes[:, L], durs[:, L]


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


def train(dataset: Dataset, config: TrainConfig, note_vocab: Vocabulary,
          dur_vocab: Vocabulary, out_dir=None, on_epoch=None) -> TrainResult:
    """Run the full training loop.

    Batch gradients are means over the batch; the global gradient norm is
    clipped to ``clip_norm`` before each optimizer step. A non-finite batch
    loss or gradient norm raises ``TrainingDiverged`` before that step, so
    no NaN reaches the parameters or a checkpoint. Checkpoints are written
    every ``checkpoint_every`` epochs plus a final ``checkpoint.bin`` when
    ``out_dir`` is given; it is made once the model is allocated, so a model
    too large for memory leaves none. ``on_epoch`` is called with each
    MetricsRow.
    """
    config.validate()
    windows, held = make_windows(dataset, config.holdout)
    if not windows:
        raise EmptyDataset("holdout fraction left no training windows" if held
                           else "no training windows (songs shorter than window + 1?)")

    init_rng, shuffle_rng, dropout_rng = (Rng(derive_seed(config.seed, label))
                                          for label in TRAIN_SUB_SEEDS)
    params = ModelParams.init(config.model, init_rng)
    params.check_vocabs(note_vocab, dur_vocab)
    grads = params.zeros_like()
    adam = AdamState(np.zeros(params.flat.size), np.zeros(params.flat.size))
    if out_dir is not None:  # once the model fits in memory
        Path(out_dir).mkdir(parents=True, exist_ok=True)

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
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            note_w, dur_w, note_t, dur_t = _gather(dataset, batch)
            note_probs, dur_probs, cache = model_forward(
                note_w, dur_w, params, train=True, rng=dropout_rng, dropout=config.model.dropout)
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
        holdout_row = _evaluate_windows(params, dataset, held, config.epochs)
    return TrainResult(params, metrics, checkpoint_paths, holdout_row)


def _evaluate_windows(params: ModelParams, dataset: Dataset,
                      windows: list[tuple[int, int]], epoch: int) -> MetricsRow:
    totals = [0.0, 0.0, 0, 0]
    for start in range(0, len(windows), EVAL_BATCH):
        batch = windows[start:start + EVAL_BATCH]
        note_w, dur_w, note_t, dur_t = _gather(dataset, batch)
        note_probs, dur_probs, _ = model_forward(note_w, dur_w, params)
        _add_batch_stats(totals, note_probs, dur_probs, note_t, dur_t)
    return MetricsRow.from_totals(epoch, totals, len(windows))


def evaluate(params: ModelParams, dataset: Dataset, note_vocab: Vocabulary,
             dur_vocab: Vocabulary, epoch: int = 0) -> MetricsRow:
    """Teacher-forced next-token accuracy and note perplexity, infer mode."""
    params.check_vocabs(note_vocab, dur_vocab)
    windows, _ = make_windows(dataset)
    if not windows:
        raise EmptyDataset("no windows to evaluate")
    return _evaluate_windows(params, dataset, windows, epoch)


# --- checkpoint format ---
#
#   magic "LSTMCMP1" | u32 version | u32 header_len | header JSON (utf-8)
#   u32 n_params | per param: u16 name_len, name, u32 rows, u32 cols,
#   rows*cols float64 little-endian
#
# The JSON header carries the train config, both vocab listings, the final
# epoch, and the final loss, so a checkpoint loads with no external config.
# The records are ``named_params()``, once each, in its order, and nothing
# follows them; a loader reads exactly those, one record at a time through
# one buffer the size of the largest parameter.

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
    with atomic_write(path, "wb") as fh:
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
        size = os.fstat(fh.fileno()).st_size

        def left(n):  # before reading or allocating n bytes
            if n > size - fh.tell():
                raise BadCheckpoint("checkpoint truncated")

        def take(n):
            left(n)
            return fh.read(n)

        magic = take(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise BadCheckpoint(f"bad magic {magic!r}")
        (version,) = struct.unpack("<I", take(4))
        if version != CHECKPOINT_VERSION:
            raise BadCheckpoint(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<I", take(4))
        blob = take(hlen)
        try:
            header = json.loads(blob.decode("utf-8"))
            config = TrainConfig.from_dict(header["config"])
            config.validate()
            values = sum((rows + 1) * cols for rows, cols in config.model.weight_shapes())
            if 8 * values > size - fh.tell():  # before allocating what the header declares
                raise BadCheckpoint(f"header declares {values} parameter values, "
                                    f"the file holds {size - fh.tell()} bytes after it")
            params = ModelParams.zeros(config.model)
            note_vocab = Vocabulary(header["note_vocab"])
            dur_vocab = Vocabulary(header["dur_vocab"])
            params.check_vocabs(note_vocab, dur_vocab)
            epoch, final_loss = header["epoch"], header["final_loss"]
            if type(epoch) is not int or epoch < 0:
                raise BadCheckpoint(f"epoch {epoch!r} is not an integer >= 0")
            if type(final_loss) not in (int, float):  # NaN after `train --epochs 0`
                raise BadCheckpoint(f"final_loss {final_loss!r} is not a number")
        except (ValueError, KeyError, TypeError, DataError) as exc:
            raise BadCheckpoint(f"bad checkpoint header: {exc!r}") from None

        named = params.named_params()
        (n_params,) = struct.unpack("<I", take(4))
        if n_params != len(named):
            raise BadCheckpoint(f"checkpoint holds {n_params} parameters, "
                                f"the model has {len(named)}")
        buf = np.empty(max(arr.size for _, arr in named), dtype="<f8")
        for expected, arr in named:  # gate entries write through to the fused arrays
            (name_len,) = struct.unpack("<H", take(2))
            chunk = take(name_len)
            try:
                name = chunk.decode("utf-8")
            except UnicodeDecodeError:
                raise BadCheckpoint(f"parameter name {chunk!r} is not UTF-8") from None
            if name != expected:
                raise BadCheckpoint(f"checkpoint has parameter {name!r} "
                                    f"where {expected!r} belongs")
            shape = struct.unpack("<II", take(8))
            if shape != arr.shape:
                raise BadCheckpoint(f"parameter {name!r} has shape {shape}, "
                                    f"expected {arr.shape}")
            view = buf[:arr.size]
            left(view.nbytes)
            fh.readinto(view)
            if not np.isfinite(view).all():
                raise BadCheckpoint(f"parameter {name!r} holds NaN or infinite values")
            arr[...] = view.reshape(arr.shape)
        if fh.tell() != size:
            raise BadCheckpoint(f"{size - fh.tell()} bytes follow the last parameter")

    return Checkpoint(config=config, params=params, note_vocab=note_vocab,
                      dur_vocab=dur_vocab, epoch=epoch, final_loss=final_loss)

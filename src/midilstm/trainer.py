"""Mini-batch training, evaluation, binary checkpoints, and the
multi-variant comparison harness.

Training is deterministic end to end: window shuffling, dropout, and
parameter init all draw from named sub-seeds of one master seed, and batch
gradients are reduced in fixed window order, so identical configs produce
byte-identical checkpoints.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import CorpusFile, Dataset, Vocabulary, make_windows
from .errors import BadCheckpoint, DataError, EmptyDataset, TrainingDiverged, VocabMismatch
from .lstm import ModelConfig, ModelParams, model_backward, model_forward
from .numerics import (
    CE_FLOOR,
    AdamState,
    Rng,
    adam_step,
    check_finite,
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
        if self.epochs < 0 or self.batch_size < 1 or self.lr < 0:
            raise ValueError("epochs, batch_size, lr must be non-negative/positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.holdout < 1.0:
            raise ValueError(f"holdout {self.holdout} outside [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        m = d["model"]
        model = ModelConfig(
            note_vocab_size=m["note_vocab_size"],
            dur_vocab_size=m["dur_vocab_size"],
            hidden_sizes=tuple(m["hidden_sizes"]),
            dropout=m["dropout"],
            window_len=m["window_len"],
        )
        return cls(model=model, **{k: d[k] for k in (
            "epochs", "batch_size", "lr", "optimizer", "seed",
            "clip_norm", "checkpoint_every", "holdout")})


@dataclass
class MetricsRow:
    epoch: int
    loss: float
    note_acc: float
    dur_acc: float
    note_ppl: float

    CSV_HEADER = "epoch,loss,note_acc,dur_acc,note_ppl"

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


def _batch_stats(note_probs, dur_probs, note_t, dur_t):
    """Summed CE (note, dur) and correct-prediction counts for one batch."""
    rows = np.arange(note_t.shape[0])
    ce_note = -np.log(note_probs[rows, note_t] + CE_FLOOR)
    ce_dur = -np.log(dur_probs[rows, dur_t] + CE_FLOOR)
    note_hits = int(np.sum(note_probs.argmax(axis=1) == note_t))
    dur_hits = int(np.sum(dur_probs.argmax(axis=1) == dur_t))
    return float(ce_note.sum()), float(ce_dur.sum()), note_hits, dur_hits


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
    opt_state = {name: AdamState.for_param(arr) for name, arr in params.named_params()}

    metrics: list[MetricsRow] = []
    checkpoint_paths: list[str] = []

    def save(path, epoch, loss_value):
        save_checkpoint(path, params, config, note_vocab, dur_vocab, epoch, loss_value)
        checkpoint_paths.append(str(path))

    mean_loss = float("nan")
    for epoch in range(1, config.epochs + 1):
        order = list(windows)
        shuffle_rng.shuffle(order)
        ce_note_total = ce_dur_total = 0.0
        note_hits = dur_hits = 0
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            note_w, dur_w, note_t, dur_t = _gather(dataset, batch)
            note_probs, dur_probs, cache = model_forward(
                note_w, dur_w, params, config.model, train=True, rng=dropout_rng)
            cn, cd, hn, hd = _batch_stats(note_probs, dur_probs, note_t, dur_t)
            ce_note_total += cn
            ce_dur_total += cd
            note_hits += hn
            dur_hits += hd

            grads = model_backward(cache, note_t, dur_t, params)
            inv_b = 1.0 / len(batch)
            names = [name for name, _ in params.named_params()]
            for name in names:
                grads[name] *= inv_b
            norm = global_norm(grads[name] for name in names)
            if not np.isfinite(cn + cd + norm):
                raise TrainingDiverged(f"epoch {epoch}, window {start}: loss {cn + cd}, "
                                       f"gradient norm {norm}")
            if config.clip_norm > 0 and norm > config.clip_norm:
                scale = config.clip_norm / norm
                for name in names:
                    grads[name] *= scale
            for name, arr in params.named_params():
                if config.optimizer == "adam":
                    arr[...] = adam_step(arr, grads[name], opt_state[name], config.lr)
                else:
                    arr -= config.lr * grads[name]
                check_finite(name, arr)

        n = len(order)
        mean_loss = (ce_note_total + ce_dur_total) / n
        metrics.append(MetricsRow(
            epoch=epoch,
            loss=mean_loss,
            note_acc=note_hits / n,
            dur_acc=dur_hits / n,
            note_ppl=float(np.exp(ce_note_total / n)),
        ))
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
    ce_note_total = ce_dur_total = 0.0
    note_hits = dur_hits = 0
    for start in range(0, len(windows), batch_size):
        batch = windows[start:start + batch_size]
        note_w, dur_w, note_t, dur_t = _gather(dataset, batch)
        note_probs, dur_probs, _ = model_forward(note_w, dur_w, params, model_config)
        cn, cd, hn, hd = _batch_stats(note_probs, dur_probs, note_t, dur_t)
        ce_note_total += cn
        ce_dur_total += cd
        note_hits += hn
        dur_hits += hd
    n = len(windows)
    return MetricsRow(
        epoch=epoch,
        loss=(ce_note_total + ce_dur_total) / n,
        note_acc=note_hits / n,
        dur_acc=dur_hits / n,
        note_ppl=float(np.exp(ce_note_total / n)),
    )


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
        "config": config.to_dict(),
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
        arr[...] = arrays[name]

    return Checkpoint(config=config, params=params, note_vocab=note_vocab,
                      dur_vocab=dur_vocab, epoch=epoch, final_loss=final_loss)


def run_variants(base: TrainConfig, variants: list[tuple[str, TrainConfig]],
                 corpus: CorpusFile, out_dir, n_songs: int = 5,
                 gen_config=None) -> dict:
    """Train every variant and generate ``n_songs`` per variant, all starting
    from one shared seed window so the outputs are directly comparable.

    The seed window is drawn once from the base seed; per-song sampling
    streams are derived from the song index only, so two variants with
    identical configs produce identical songs. Writes MIDI files under
    ``out_dir/<variant>/song_NNN.mid`` plus ``variants_manifest.json``;
    returns the manifest dict.
    """
    from pathlib import Path

    from .generator import GenConfig, emit, generate, pick_seed
    from .midi_io import write_midi
    from .score import piece_to_midi

    if not variants:
        raise ValueError("variant list is empty")
    gen_config = gen_config or GenConfig()
    note_vocab, dur_vocab = corpus.build_vocabs()
    dataset = corpus.to_dataset(note_vocab, dur_vocab)

    seed_rng = Rng(derive_seed(base.seed, "seedwin"))
    song_idx, offset = pick_seed(dataset, seed_rng)
    L = dataset.window_len
    seed_notes = corpus.songs[song_idx][0][offset:offset + L]
    seed_durs = corpus.songs[song_idx][1][offset:offset + L]

    out_dir = Path(out_dir)
    manifest = {
        "seed_window": {"song": song_idx, "offset": offset},
        "n_songs": n_songs,
        "variants": {},
    }
    for name, cfg in variants:
        vdir = out_dir / name
        vdir.mkdir(parents=True, exist_ok=True)
        result = train(dataset, cfg, note_vocab, dur_vocab, out_dir=vdir)
        files = []
        for i in range(n_songs):
            sample_rng = Rng(derive_seed(base.seed, f"sampling.{i}"))
            gen = generate(result.params, cfg.model, note_vocab, dur_vocab,
                           seed_notes, seed_durs, gen_config, sample_rng)
            piece = emit(gen.notes, gen.durs, corpus.grid)
            path = vdir / f"song_{i:03d}.mid"
            path.write_bytes(write_midi(piece_to_midi(piece)))
            files.append(f"{name}/{path.name}")  # relative to out_dir
        write_metrics(vdir / "metrics.csv", result.metrics)
        manifest["variants"][name] = {
            "config": cfg.to_dict(),
            "seed_window": {"song": song_idx, "offset": offset},
            "files": files,
            "final_loss": result.metrics[-1].loss if result.metrics else None,
        }
    with open(out_dir / "variants_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest

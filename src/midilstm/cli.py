"""Command-line entry point.

Commands: ingest, train, generate, eval, variants, gradcheck, roundtrip.
Every run is reproducible from its manifest: one --seed flag fans out to
named sub-seeds (init, shuffle, dropout, sampling.N, seedwin) by a fixed
derivation, resolved configuration is echoed into the manifest, and inputs
are recorded by content hash. Exit codes: 0 success, 1 usage error, 2 data
error, 3 check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__
from .corpus import (
    DEFAULT_MAX_DUR,
    DEFAULT_WINDOW,
    CorpusFile,
    atomic_write,
    format_song,
    load_corpus,
    parse_song_line,
    read_lines,
    save_corpus,
    tokenize,
)
from .errors import CorpusTooShort, DataError, NoUsableFiles, UsageError, VocabMismatch
from .generator import GenConfig, emit, generate, pick_seed
from .lstm import ModelConfig, grad_check, reference_check_config
from .midi_io import events_equivalent, parse_midi, write_midi
from .numerics import Rng, derive_seed
from .score import DEFAULT_GRID, events_to_piece, piece_to_midi
from .trainer import TrainConfig, evaluate, load_checkpoint, train, write_metrics

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

MIDI_SUFFIXES = (".mid", ".midi")


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad hidden sizes {text!r} (want e.g. 512,512,512)") from None
    if any(s < 1 for s in sizes):
        raise UsageError(f"bad hidden sizes {text!r}")
    return sizes


def _one_of(*choices: str):
    def choice(text: str) -> str:
        if text not in choices:
            raise UsageError(f"{text!r} is not one of {', '.join(choices)}")
        return text
    return choice


# every key a config file may carry, with its parser; each is also the
# command-line flag --key-name of every command whose defaults hold the key
CONFIG_KEYS = {
    "epochs": int,
    "batch_size": int,
    "lr": float,
    "optimizer": _one_of("adam", "sgd"),
    "clip_norm": float,
    "checkpoint_every": int,
    "holdout": float,
    "hidden": _parse_hidden,
    "dropout": float,
    "window_len": int,
    "grid": int,
    "max_dur": int,
    "length": int,
    "temperature": float,
    "mode": _one_of("sample", "argmax"),
    "repeat_cap": int,
    "count": int,
}


def _parse_setting(text: str, where: str) -> tuple[str, object]:
    """One ``key = value`` setting, parsed by CONFIG_KEYS; errors name ``where``."""
    key, sep, value = text.partition("=")
    key, value = key.strip(), value.strip()
    if not sep or not key:
        raise UsageError(f"{where}: expected 'key = value', got {text!r}")
    if key not in CONFIG_KEYS:
        raise UsageError(f"{where}: unknown config key {key!r}")
    try:
        return key, CONFIG_KEYS[key](value)
    except ValueError:
        raise UsageError(f"{where}: bad value for {key!r}: {value!r}") from None


def load_config_file(path) -> dict:
    """Flat ``key = value`` file; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _parse_setting(line, f"{path}:{lineno}")
            values[key] = value
    return values


def resolve_config(args, defaults: dict) -> dict:
    """defaults < config file < explicit CLI flags. A config-file key the
    command does not use is left out, with a note on stderr."""
    resolved = dict(defaults)
    if args.config:
        for key, value in load_config_file(args.config).items():
            if key in defaults:
                resolved[key] = value
            else:
                print(f"note: {args.config}: {args.command} ignores {key!r}", file=sys.stderr)
    for key in defaults:
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_dir, command: str, config: dict, inputs, outputs,
                   seed: int, sub_seeds, extra: dict | None = None) -> Path:
    """Reproducibility record; deliberately contains no timestamps or
    absolute paths, so identical runs write identical manifests."""
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "inputs": [{"name": Path(p).name, "sha256": _sha256(p)} for p in inputs],
        "outputs": [str(Path(p).relative_to(out_dir)) for p in outputs],
        "seeds": {"master": seed, **{label: derive_seed(seed, label) for label in sub_seeds}},
    }
    if extra:
        manifest.update(extra)
    path = Path(out_dir) / f"{command}_manifest.json"
    with atomic_write(path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- commands ---

_INGEST_DEFAULTS = {"grid": DEFAULT_GRID, "window_len": DEFAULT_WINDOW, "max_dur": DEFAULT_MAX_DUR}


def cmd_ingest(args) -> int:
    cfg = resolve_config(args, _INGEST_DEFAULTS)
    for key in _INGEST_DEFAULTS:  # the bounds load_corpus enforces on the header
        if cfg[key] < 1:
            raise UsageError(f"{key} {cfg[key]} must be >= 1")
    midi_dir = Path(args.midi_dir)
    if not midi_dir.is_dir():
        raise NoUsableFiles(f"{midi_dir} is not a directory")
    paths = sorted(p for p in midi_dir.iterdir() if p.suffix.lower() in MIDI_SUFFIXES)

    corpus = CorpusFile(cfg["grid"], cfg["window_len"], cfg["max_dur"])
    used = []
    skipped = 0
    dangling_total = 0
    for path in paths:
        try:
            piece, dangling = events_to_piece(parse_midi(path.read_bytes()), cfg["grid"])
        except (DataError, OSError) as exc:  # malformed, or unreadable (a directory)
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        if dangling:
            print(f"warning: {path.name}: {dangling} unmatched note-on(s) closed at "
                  f"end of track", file=sys.stderr)
            dangling_total += dangling
        corpus.songs.append(tokenize(piece, cfg["max_dur"]))
        used.append(path)
    if not corpus.songs:
        raise NoUsableFiles(f"no parseable MIDI files in {midi_dir}")

    out = _out_dir(args)
    corpus_path = out / "corpus.txt"
    save_corpus(corpus_path, corpus)
    note_vocab, dur_vocab = corpus.build_vocabs()
    n_tokens = sum(len(s[0]) for s in corpus.songs)
    print(f"songs: {len(corpus.songs)}  skipped: {skipped}  tokens: {n_tokens}  "
          f"note vocab: {len(note_vocab)}  duration vocab: {len(dur_vocab)}")
    write_manifest(out, "ingest", cfg, used, [corpus_path], args.seed, [],
                   extra={"skipped_files": skipped, "dangling_note_ons": dangling_total})
    return EXIT_OK


def _train_config_from(cfg: dict, corpus: CorpusFile, note_vocab, dur_vocab,
                       seed: int) -> TrainConfig:
    model = ModelConfig(
        note_vocab_size=len(note_vocab),
        dur_vocab_size=len(dur_vocab),
        hidden_sizes=cfg["hidden"],
        dropout=cfg["dropout"],
        window_len=corpus.window_len,
    )
    config = TrainConfig(model=model, seed=seed,
                         **{f.name: cfg[f.name] for f in fields(TrainConfig) if f.name in cfg})
    config.validate()
    return config


# the library's defaults; grid and window_len are the corpus header's
_TRAIN_DEFAULTS = {
    **{f.name: f.default for f in fields(TrainConfig) if f.name not in ("model", "seed")},
    "hidden": ModelConfig.hidden_sizes, "dropout": ModelConfig.dropout,
}


def cmd_train(args) -> int:
    cfg = resolve_config(args, _TRAIN_DEFAULTS)
    corpus = load_corpus(args.corpus)
    note_vocab, dur_vocab = corpus.build_vocabs()
    dataset = corpus.to_dataset(note_vocab, dur_vocab)
    train_config = _train_config_from(cfg, corpus, note_vocab, dur_vocab, args.seed)

    out = Path(args.out)  # train makes it once the model is allocated
    result = train(dataset, train_config, note_vocab, dur_vocab, out_dir=out,
                   on_epoch=lambda row: print(
                       f"epoch {row.epoch}: loss {row.loss:.4f}  "
                       f"note_acc {row.note_acc:.3f}  dur_acc {row.dur_acc:.3f}"))
    metrics_path = out / "metrics.csv"
    write_metrics(metrics_path, result.metrics)
    if result.holdout_metrics is not None:
        h = result.holdout_metrics
        print(f"holdout: loss {h.loss:.4f}  note_acc {h.note_acc:.3f}  "
              f"dur_acc {h.dur_acc:.3f}  note_ppl {h.note_ppl:.2f}")
    outputs = [metrics_path, *result.checkpoint_paths]
    write_manifest(out, "train", cfg, [args.corpus], outputs, args.seed,
                   ["init", "shuffle", "dropout"])
    print(f"checkpoint: {out / 'checkpoint.bin'}")
    return EXIT_OK


_GEN_DEFAULTS = {"count": 1, **{f.name: f.default for f in fields(GenConfig)}}
_VARIANT_DEFAULTS = _TRAIN_DEFAULTS | _GEN_DEFAULTS | {"count": 5}


def _gen_config(cfg: dict) -> GenConfig:
    """The validated GenConfig of a resolved config; rejects ``count`` < 1."""
    if cfg["count"] < 1:
        raise UsageError(f"count {cfg['count']} must be >= 1")
    gen_config = GenConfig(**{f.name: cfg[f.name] for f in fields(GenConfig)})
    gen_config.validate()
    return gen_config


def _random_seed_window(dataset, seed: int) -> dict:
    """The window drawn from sub-seed ``seedwin``, as {"song", "offset"}."""
    song, offset = pick_seed(dataset, Rng(derive_seed(seed, "seedwin")))
    return {"song": song, "offset": offset}


def _window_tokens(corpus: CorpusFile, window: dict):
    L, song, offset = corpus.window_len, window["song"], window["offset"]
    return corpus.songs[song][0][offset:offset + L], corpus.songs[song][1][offset:offset + L]


def _resolve_seed_window(args, corpus: CorpusFile, dataset, seed: int):
    """Returns (seed_notes, seed_durs, description dict)."""
    L = corpus.window_len
    if args.seed_file:
        notes, durs = [], []
        for line in read_lines(args.seed_file):
            if line.strip() and not line.startswith("#"):
                n, d = parse_song_line(line)
                notes.extend(n)
                durs.extend(d)
        if len(notes) < L:
            raise CorpusTooShort(f"seed file has {len(notes)} tokens, need {L}")
        return notes[-L:], durs[-L:], {"source": "file", "name": Path(args.seed_file).name}
    if args.seed_window:
        song_text, sep, off_text = args.seed_window.partition(":")
        try:
            song, offset = int(song_text), int(off_text)
        except ValueError:
            sep = ""
        if not sep:
            raise UsageError("--seed-window wants SONG:OFFSET")
        if not 0 <= song < len(corpus.songs) or offset < 0 \
                or offset + L > len(corpus.songs[song][0]):
            raise DataError(f"seed window {song}:{offset} out of range")
        window = {"source": "explicit", "song": song, "offset": offset}
    else:
        window = {"source": "random", **_random_seed_window(dataset, seed)}
    return *_window_tokens(corpus, window), window


def _write_songs(out_dir: Path, stem: str, params, note_vocab, dur_vocab,
                 seed_notes, seed_durs, grid: int, gen_config: GenConfig, count: int,
                 seed: int, tokens: bool = False) -> tuple[list[Path], list[dict]]:
    """Generate ``count`` songs from one seed window into
    ``out_dir/<stem>_NNN.mid`` (plus ``.tokens`` text when asked). Returns
    the written paths and, per song, its MIDI file name and repetition
    stats for the manifest. Song i samples from sub-seed ``sampling.i``
    alone, so it does not depend on ``count``."""
    files, songs = [], []
    saturations = 0
    for i in range(count):
        rng = Rng(derive_seed(seed, f"sampling.{i}"))
        result = generate(params, note_vocab, dur_vocab, seed_notes, seed_durs, gen_config, rng)
        saturations += result.guard_saturations
        piece = emit(result.notes, result.durs, grid)
        path = out_dir / f"{stem}_{i:03d}.mid"
        with atomic_write(path, "wb") as fh:
            fh.write(write_midi(piece_to_midi(piece)))
        if tokens:
            token_path = path.with_suffix(".tokens")
            with atomic_write(token_path) as fh:
                fh.write(format_song(result.notes, result.durs) + "\n")
            files.append(token_path)
        files.append(path)
        songs.append({"file": path.name, **result.stats()})
    if saturations:
        print(f"warning: repetition guard saturated {saturations} time(s)", file=sys.stderr)
    return files, songs


def _load_model_and_corpus(args):
    """Checkpoint, corpus and encoded dataset, checked to share vocabularies
    and the window length."""
    ckpt = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus)
    if corpus.build_vocabs() != (ckpt.note_vocab, ckpt.dur_vocab):
        raise VocabMismatch("corpus vocabularies differ from the checkpoint's")
    if corpus.window_len != ckpt.config.model.window_len:
        raise VocabMismatch(f"corpus L {corpus.window_len} != checkpoint window_len "
                            f"{ckpt.config.model.window_len}")
    return ckpt, corpus, corpus.to_dataset(ckpt.note_vocab, ckpt.dur_vocab)


def cmd_generate(args) -> int:
    cfg = resolve_config(args, _GEN_DEFAULTS)
    gen_config = _gen_config(cfg)
    ckpt, corpus, dataset = _load_model_and_corpus(args)
    seed_notes, seed_durs, window_info = _resolve_seed_window(args, corpus, dataset, args.seed)
    out = _out_dir(args)
    files, songs = _write_songs(out, "out", ckpt.params, ckpt.note_vocab, ckpt.dur_vocab,
                                seed_notes, seed_durs, corpus.grid, gen_config, cfg["count"],
                                args.seed, args.tokens)
    for path in files:
        if path.suffix == ".mid":
            print(f"wrote {path} ({gen_config.length} events)")
    write_manifest(out, "generate", cfg, [args.checkpoint, args.corpus], files, args.seed,
                   (["seedwin"] if window_info["source"] == "random" else [])
                   + [f"sampling.{i}" for i in range(cfg["count"])],
                   extra={"seed_window": window_info, "songs": songs})
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt, _, dataset = _load_model_and_corpus(args)
    row = evaluate(ckpt.params, dataset, ckpt.note_vocab, ckpt.dur_vocab, epoch=ckpt.epoch)
    print(row.CSV_HEADER)
    print(row.csv_line())
    return EXIT_OK


def cmd_variants(args) -> int:
    """Train every variant, then write ``count`` songs per variant under
    ``<out>/<variant>/`` from one shared seed window, so the songs of two
    variants differ only by what training made of their configs."""
    cfg = resolve_config(args, _VARIANT_DEFAULTS)
    if not args.variant:
        raise UsageError("need at least one --variant NAME:key=value,...")
    gen_config = _gen_config(cfg)
    corpus = load_corpus(args.corpus)
    note_vocab, dur_vocab = corpus.build_vocabs()
    dataset = corpus.to_dataset(note_vocab, dur_vocab)

    variants = []
    for variant_text in args.variant:
        name, sep, overrides_text = variant_text.partition(":")
        if not sep or name in ("", ".", "..") or "/" in name:  # NAME is a directory in --out
            raise UsageError(f"bad --variant {variant_text!r} (want NAME:key=value,...)")
        # a comma starts a new item only before a key=, so hidden=8,8 is one item
        items = re.split(r",(?=[^,=]*=)", overrides_text) if overrides_text else []
        overrides = dict(_parse_setting(item, f"--variant {variant_text!r}") for item in items)
        untrained = sorted(overrides.keys() - _TRAIN_DEFAULTS.keys())
        if untrained:
            raise UsageError(f"--variant {variant_text!r}: a variant overrides training "
                             f"settings only, not {', '.join(untrained)}")
        if any(name == other for other, _ in variants):
            raise UsageError(f"variant name {name!r} given twice")
        variants.append((name, _train_config_from(cfg | overrides, corpus, note_vocab,
                                                  dur_vocab, args.seed)))

    window = _random_seed_window(dataset, args.seed)
    seed_notes, seed_durs = _window_tokens(corpus, window)
    out = Path(args.out)  # train makes each variant's directory once its model is allocated
    entries = {}
    for name, train_config in variants:
        vdir = out / name
        result = train(dataset, train_config, note_vocab, dur_vocab, out_dir=vdir)
        files, songs = _write_songs(vdir, "song", result.params, note_vocab, dur_vocab,
                                    seed_notes, seed_durs, corpus.grid, gen_config,
                                    cfg["count"], args.seed)
        write_metrics(vdir / "metrics.csv", result.metrics)
        entries[name] = {
            "config": asdict(train_config),
            "seed_window": window,
            "files": [f"{name}/{path.name}" for path in files],
            "songs": songs,
            "final_loss": result.metrics[-1].loss if result.metrics else None,
        }
        if result.holdout_metrics is not None:
            entries[name]["holdout"] = asdict(result.holdout_metrics)
    for name, entry in sorted(entries.items()):
        loss = entry["final_loss"]
        loss_text = f"{loss:.4f}" if loss is not None else "n/a"
        print(f"{name}: final loss {loss_text}  {len(entry['files'])} song(s)")
    write_manifest(out, "variants", cfg, [args.corpus],
                   [out / f for entry in entries.values() for f in entry["files"]], args.seed,
                   ["seedwin"] + [f"sampling.{i}" for i in range(cfg["count"])],
                   extra={"seed_window": window, "n_songs": cfg["count"], "variants": entries})
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    config = reference_check_config()
    if args.hidden:
        config = replace(config, hidden_sizes=args.hidden)
    report = grad_check(config, Rng(derive_seed(args.seed, "init")),
                        tolerance=args.tolerance)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: max relative error {report.max_rel_err:.3e} over "
          f"{report.n_params} parameters (tolerance {report.tolerance:.0e}, "
          f"worst {report.worst_param})")
    return EXIT_OK if report.passed else EXIT_CHECK


def cmd_roundtrip(args) -> int:
    failures = 0
    for path in args.files:
        data = Path(path).read_bytes()
        try:
            parsed = parse_midi(data)
            canonical = write_midi(parsed)
            reparsed = parse_midi(canonical)
            if not events_equivalent(parsed, reparsed):
                print(f"FAIL {path}: reparse is not event-equivalent")
                failures += 1
                continue
            if write_midi(reparsed) != canonical:
                print(f"FAIL {path}: canonical form is not a write fixed point")
                failures += 1
                continue
            print(f"PASS {path}")
        except DataError as exc:
            print(f"ERROR {path}: {type(exc).__name__}: {exc}")
            return EXIT_DATA
    return EXIT_CHECK if failures else EXIT_OK


# --- argument plumbing ---

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_command(sub, name: str, func, summary: str,
                 defaults: dict | None = None) -> argparse.ArgumentParser:
    """Subcommand. One that resolves a config from ``defaults`` also takes one
    --key-name flag per key, --seed, --config and --out."""
    p = sub.add_parser(name, help=summary)
    if defaults is not None:
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=CONFIG_KEYS[key])
        p.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", default="out", help="output directory (default ./out)")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="midilstm", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "ingest", cmd_ingest,
                     "convert a directory of MIDI files to a corpus file", _INGEST_DEFAULTS)
    p.add_argument("--midi-dir", required=True)

    p = _add_command(sub, "train", cmd_train, "train a model on a corpus file", _TRAIN_DEFAULTS)
    p.add_argument("--corpus", required=True)

    p = _add_command(sub, "generate", cmd_generate, "sample MIDI files from a checkpoint",
                     _GEN_DEFAULTS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True, help="corpus file providing seed windows")
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed-window", help="explicit SONG:OFFSET seed window")
    seed.add_argument("--seed-file", help="token-text file supplying the seed window")
    p.add_argument("--tokens", action="store_true",
                   help="also write generated token text next to each MIDI file")

    p = _add_command(sub, "eval", cmd_eval, "teacher-forced metrics for a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)

    p = _add_command(sub, "variants", cmd_variants,
                     "train config variants and generate comparable songs", _VARIANT_DEFAULTS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--variant", action="append", default=[],
                   metavar="NAME:key=value,...",
                   help="variant name plus config overrides (repeatable)")

    p = _add_command(sub, "gradcheck", cmd_gradcheck, "verify BPTT against finite differences")
    p.add_argument("--hidden", type=_parse_hidden)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = _add_command(sub, "roundtrip", cmd_roundtrip,
                     "verify parse/write round trips on MIDI files")
    p.add_argument("files", nargs="+")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, MemoryError) as exc:  # a bad path, or a model too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

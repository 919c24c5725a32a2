"""The benchmark workloads and the closed loop that runs them.

One client in one process issues each operation only after the previous one
returned. Each workload builds its inputs from the seed (untimed), times its
set-up several times, then repeats one operation until the run's time is
used (at least twice, so outputs can be compared byte for byte).
A traced run alternates untraced and traced operations: the per-layer numbers
come from the traced ones and the tracing overhead from the difference.

End-to-end timings come from the run's fastest operation. On a shared
machine other tenants only ever add time, in bursts of seconds; the fastest
of many operations varies least from run to run. Every operation's timings
are kept in the run's record.

Operations drive the public entry points in process: ``midilstm.cli.main``
with an argv, plus the library calls the commands wrap.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import spans
from midilstm import cli, corpus, lstm, midi_io, numerics, score, trainer

SCALES = {
    # paper: the paper's 3x512 training config, the README's 2x256 generator
    "paper": dict(window_len=50, notes=200, durs=20, songs=4, windows_per_song=16,
                  short_songs=400, short_len=(20, 50), bad_files=50, rests_per_song=2,
                  train_hidden="512,512,512", batch=64, gen_hidden="256,256",
                  gen_count=2, gen_length=500),
    # tiny: the same code paths in well under a second per operation
    "tiny": dict(window_len=8, notes=24, durs=6, songs=2, windows_per_song=8,
                 short_songs=12, short_len=(3, 8), bad_files=2, rests_per_song=1,
                 train_hidden="16,16", batch=8, gen_hidden="8,8",
                 gen_count=2, gen_length=40),
}
SETUP_REPEATS = 7
MIN_OPS = 2  # so every run can compare outputs byte for byte
CLIP_NORM = 5.0
MODULES = sorted({t.split(".")[0] for t in spans.TARGETS})


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> tuple[float, str]:
    """Run one command in process; returns (seconds, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    seconds = time.perf_counter() - t0
    check(code == 0, f"midilstm {argv[0]} exited {code}: {err.getvalue().strip()[-400:]}")
    return seconds, out.getvalue()


def tree_digest(directory: Path, extra: str = "") -> str:
    h = hashlib.sha256(extra.encode())
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_stats(notes: list[str]) -> tuple[int, float]:
    """(longest run of one note, distinct notes / notes) for one song."""
    longest = run = 0
    for i, note in enumerate(notes):
        run = run + 1 if i and note == notes[i - 1] else 1
        longest = max(longest, run)
    return longest, len(set(notes)) / len(notes)


@dataclass
class Op:
    wall: float = 0.0
    parts: dict = field(default_factory=dict)  # named timings of this operation
    digest: str = ""
    songs: list = field(default_factory=list)  # (longest run, distinct ratio) per song
    traced: bool = False
    layers: dict = field(default_factory=dict)  # per-layer metrics, traced ops only
    error: str = ""


class Workload:
    """Inputs, set-up, one timed operation and its output checks.

    ``op`` does only the timed work (and is what a traced operation traces);
    ``check`` verifies its outputs afterwards, untimed and untraced.
    """

    def __init__(self, work: Path, seed: int, scale: dict):
        self.work, self.seed, self.s = work, seed, scale

    def long_songs(self) -> list[int]:
        """Lengths of the songs that yield the training windows."""
        return [self.s["window_len"] + self.s["windows_per_song"]] * self.s["songs"]

    def load_dataset(self, path: Path):
        """The corpus read path every command starts with."""
        data = corpus.load_corpus(path)
        note_vocab, dur_vocab = data.build_vocabs()
        dataset = data.to_dataset(note_vocab, dur_vocab)
        windows, _ = corpus.make_windows(dataset)
        return data, note_vocab, dur_vocab, windows


class Train(Workload):
    """`midilstm ingest` of a directory of MIDI files, `midilstm train` at the
    paper config on the corpus it wrote, then `midilstm eval` on the
    checkpoint."""

    def build(self) -> None:
        s = self.s
        rng = random.Random(self.seed)
        # short songs add MIDI reading but no training windows (they are
        # shorter than a window plus its target)
        lengths = self.long_songs() + [rng.randint(*s["short_len"]) for _ in range(s["short_songs"])]
        songs = inputs.corpus_songs(rng, s["notes"], s["durs"], lengths, s["rests_per_song"])
        files = inputs.midi_set(rng, songs, s["bad_files"])
        self.midi_dir = self.work / "midi"
        self.midi_dir.mkdir()
        for name, data, _ in files:
            (self.midi_dir / name).write_bytes(data)
        self.n_files = len(files)
        self.valid = [name for name, _, song in files if song is not None]
        self.expected = [song for _, _, song in files if song is not None]
        self.expected_corpus = self.work / "expected.txt"
        self.expected_corpus.write_text(inputs.corpus_text(self.expected, s["window_len"]),
                                        encoding="utf-8")
        self.windows = s["songs"] * s["windows_per_song"]

    def setup(self) -> None:
        data, note_vocab, dur_vocab, _ = self.load_dataset(self.expected_corpus)
        hidden = tuple(int(h) for h in self.s["train_hidden"].split(","))
        config = lstm.ModelConfig(len(note_vocab), len(dur_vocab), hidden, 0.3, data.window_len)
        lstm.ModelParams.init(config, numerics.Rng(numerics.derive_seed(self.seed, "init")))

    def op(self, out: Path, result: Op) -> None:
        result.parts["ingest_s"], _ = run_cli([
            "ingest", "--midi-dir", self.midi_dir, "--out", out, "--seed", self.seed,
            "--window-len", self.s["window_len"]])
        corpus_path = out / "corpus.txt"
        result.parts["train_s"], _ = run_cli([
            "train", "--corpus", corpus_path, "--out", out, "--seed", self.seed,
            "--epochs", 1, "--batch-size", self.s["batch"], "--lr", 0.001,
            "--clip-norm", CLIP_NORM, "--hidden", self.s["train_hidden"], "--dropout", 0.3,
            "--checkpoint-every", 0])
        result.parts["eval_s"], self.eval_text = run_cli(
            ["eval", "--checkpoint", out / "checkpoint.bin", "--corpus", corpus_path])

    def check(self, out: Path, result: Op, first: bool) -> None:
        result.digest = tree_digest(out, self.eval_text)
        check(corpus.load_corpus(out / "corpus.txt").songs == self.expected,
              "corpus differs from the tokens of the planted valid files")
        manifest = json.loads((out / "ingest_manifest.json").read_text(encoding="utf-8"))
        check(manifest["skipped_files"] == self.s["bad_files"]
              and [i["name"] for i in manifest["inputs"]] == self.valid,
              f"skipped {manifest['skipped_files']} files, expected exactly the "
              f"{self.s['bad_files']} malformed ones")

        rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
        check(len(rows) == 2, f"metrics.csv has {len(rows) - 1} epoch rows, expected 1")
        result.parts["train_loss"] = float(rows[1].split(",")[1])
        check(math.isfinite(result.parts["train_loss"]), "training loss is not finite")
        eval_loss = float(self.eval_text.splitlines()[1].split(",")[1])
        check(math.isfinite(eval_loss), "eval loss is not finite")
        if first:
            ckpt = out / "checkpoint.bin"
            loaded = trainer.load_checkpoint(ckpt)
            copy = self.work / "resaved.bin"
            trainer.save_checkpoint(copy, loaded.params, loaded.config, loaded.note_vocab,
                                    loaded.dur_vocab, loaded.epoch, loaded.final_loss)
            check(copy.read_bytes() == ckpt.read_bytes(), "checkpoint does not reload equal")
            copy.unlink()

    def e2e(self, ops: list[Op]) -> tuple[float, float, dict]:
        rate = self.windows / min(o.parts["train_s"] for o in ops)
        eval_s = min(o.parts["eval_s"] for o in ops)
        named = {"ingest_files_per_s": (self.n_files / min(o.parts["ingest_s"] for o in ops), "1/s"),
                 "train_windows_per_s": (rate, "1/s"),
                 "eval_windows_per_s": (self.windows / eval_s, "1/s"),
                 "train_loss": (ops[0].parts["train_loss"], "nats")}
        return rate, eval_s, named


class Generate(Workload):
    """`midilstm generate --count N --length 500` from a 2x256 checkpoint
    written during set-up."""

    def build(self) -> None:
        # no rest tokens: adjacent rests would merge on the MIDI round trip,
        # and every song must re-parse to exactly --length events
        songs = inputs.corpus_songs(random.Random(self.seed), self.s["notes"], self.s["durs"],
                                    self.long_songs())
        self.corpus = self.work / "corpus.txt"
        self.corpus.write_text(inputs.corpus_text(songs, self.s["window_len"]), encoding="utf-8")
        model = self.work / "model"
        # --epochs 0 only initialises and saves the parameters: no forward
        # pass, so the process's peak RSS is that of generation
        run_cli(["train", "--corpus", self.corpus, "--out", model, "--seed", self.seed,
                 "--epochs", 0, "--hidden", self.s["gen_hidden"], "--dropout", 0.2,
                 "--checkpoint-every", 0])
        self.checkpoint = model / "checkpoint.bin"

    def setup(self) -> None:
        self.load_dataset(self.corpus)
        trainer.load_checkpoint(self.checkpoint)

    def op(self, out: Path, result: Op) -> None:
        written: list[float] = []
        with spans.Patch(["midi_io.write_midi"], spans.end_times(written)):
            t0 = time.perf_counter()
            result.parts["command_s"], _ = run_cli([
                "generate", "--checkpoint", self.checkpoint, "--corpus", self.corpus,
                "--out", out, "--seed", self.seed, "--count", self.s["gen_count"],
                "--length", self.s["gen_length"], "--mode", "sample", "--tokens"])
        result.parts["song_s"] = [t - t0 for t in written]

    def check(self, out: Path, result: Op, first: bool) -> None:
        count, length = self.s["gen_count"], self.s["gen_length"]
        check(len(result.parts["song_s"]) == count,
              f"{len(result.parts['song_s'])} MIDI files written, expected {count}")
        result.digest = tree_digest(out)
        for i in range(count):
            fields = (out / f"out_{i:03d}.tokens").read_text(encoding="utf-8").split()
            check(len(fields) == length, f"song {i} has {len(fields)} tokens, expected {length}")
            result.songs.append(run_stats([f.rpartition(":")[0] for f in fields]))
            data = (out / f"out_{i:03d}.mid").read_bytes()
            parsed = midi_io.parse_midi(data)
            check(midi_io.write_midi(parsed) == data, f"song {i}: write_midi is not a fixed point")
            piece, _ = score.events_to_piece(parsed)
            check(len(piece.events) == length,
                  f"song {i} re-parses to {len(piece.events)} events, expected {length}")

    def e2e(self, ops: list[Op]) -> tuple[float, float, dict]:
        tokens = self.s["gen_count"] * self.s["gen_length"]
        rate = tokens / min(o.parts["command_s"] for o in ops)
        song_s = min(statistics.median(o.parts["song_s"]) for o in ops)
        return rate, song_s, {"gen_tokens_per_s": (rate, "1/s"), "song_s": (song_s, "s")}


WORKLOADS = {"train": Train, "generate": Generate}


# --- per-layer metrics ---

def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for target in spans.TARGETS:
        specs += [(f"{target}.calls", "count", "lower"), (f"{target}.s", "s", "lower"),
                  (f"{target}.self_s", "s", "lower")]
    specs += [
        ("numerics.matmul.gflop", "gflop", "lower"),
        ("numerics.matmul.gb_computed", "GB", "lower"),
        ("numerics.matmul.gflop_per_s", "gflop/s", "higher"),
        ("lstm.model_forward.rows", "count", "lower"),
        ("lstm.forward_cache_mb", "MB", "lower"),
        ("trainer.train_loss", "nats", "lower"),
        ("trainer.clip_fraction", "ratio", "lower"),
        ("trainer.save_checkpoint.mb", "MB", "lower"),
        ("midi_io.write_midi.mb", "MB", "lower"),
        ("midi_io.parse_midi.mb", "MB", "lower"),
        ("generator.forward_share", "ratio", "lower"),
        ("generator.guard_saturations", "count", "lower"),
        ("generator.longest_run", "count", "lower"),
        ("generator.distinct_note_ratio", "ratio", "higher"),
        ("cli.src_lines", "lines", "lower"),
    ]
    specs += [(f"{m}.self_share", "ratio", "lower") for m in MODULES]
    specs += [("trace.coverage", "ratio", "higher"), ("trace.spans", "count", "lower"),
              ("trace.overhead_s", "s", "lower"), ("trace.overhead_share", "ratio", "lower")]
    return specs


# counts that must repeat exactly from one traced operation (and run) to the next
EXACT = {name for name, unit, _ in layer_metric_specs()
         if unit in ("count", "gflop", "GB", "MB", "nats")
         or name in ("trainer.clip_fraction", "generator.distinct_note_ratio")}


def src_lines() -> int:
    package = Path(cli.__file__).parent
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in package.glob("*.py"))


def layer_metrics(tr: spans.Tracer, wall: float, n_spans: int) -> dict:
    m: dict[str, float] = {}
    for target in spans.TARGETS:
        m[f"{target}.calls"] = tr.calls[target]
        m[f"{target}.s"] = tr.total[target]
        m[f"{target}.self_s"] = tr.self_time[target]
    mm_s = tr.total["numerics.matmul"]
    gen_s = tr.total["generator.generate"]
    songs = [(r.guard_saturations, *run_stats(r.notes)) for r in tr.songs]
    m.update({
        "numerics.matmul.gflop": tr.counters["matmul.flop"] / 1e9,
        "numerics.matmul.gb_computed": tr.counters["matmul.bytes"] / 1e9,
        "numerics.matmul.gflop_per_s": tr.counters["matmul.flop"] / 1e9 / mm_s if mm_s else 0.0,
        "lstm.model_forward.rows": tr.counters["model_forward.rows"],
        "lstm.forward_cache_mb": tr.peaks["forward_cache_mb"],
        "trainer.train_loss": tr.counters["train_loss"],
        "trainer.clip_fraction": (sum(n > CLIP_NORM for n in tr.norms) / len(tr.norms)
                                  if tr.norms else 0.0),
        "trainer.save_checkpoint.mb": tr.counters["save_checkpoint.bytes"] / 1e6,
        "midi_io.write_midi.mb": tr.counters["write_midi.bytes"] / 1e6,
        "midi_io.parse_midi.mb": tr.counters["parse_midi.bytes"] / 1e6,
        "generator.forward_share": (tr.under[("generator.generate", "lstm.model_forward")] / gen_s
                                    if gen_s else 0.0),
        "generator.guard_saturations": sum(s[0] for s in songs),
        "generator.longest_run": max((s[1] for s in songs), default=0),
        "generator.distinct_note_ratio": (statistics.fmean(s[2] for s in songs)
                                          if songs else 0.0),
        "cli.src_lines": src_lines(),
        "trace.coverage": sum(tr.self_time.values()) / wall,
        "trace.spans": n_spans,
    })
    for module in MODULES:
        m[f"{module}.self_share"] = sum(v for k, v in tr.self_time.items()
                                        if k.split(".")[0] == module) / wall
    return m


# --- the closed loop ---

def run(name: str, seed: int, seconds: float, trace: bool, scale: str, work: Path,
        import_s: float) -> dict:
    """Run one workload in ``work``; returns its metrics and the checks' verdict."""
    wl = WORKLOADS[name](work, seed, SCALES[scale])
    wl.build()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    tracer = spans.Tracer() if trace else None
    missing: set[str] = set()  # traced targets the program no longer has
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        k = len(ops)
        traced = tracer is not None and k % 2 == 1
        out = work / f"op{k}"
        result = Op(traced=traced)
        try:
            if traced:
                first_span, first_mismatch = len(tracer.span_start), len(tracer.unit_mismatches)
                tracer.reset()
                with tracer.patch() as patch:
                    wl.op(out, result)
                missing.update(patch.missing)
            else:
                wl.op(out, result)
            # the operation's wall time is the sum of its timed parts
            result.wall = sum(v for key, v in result.parts.items()
                              if key.endswith("_s") and isinstance(v, float))
            wl.check(out, result, first=k == 0)
            if traced:
                result.layers = layer_metrics(tracer, result.wall,
                                              len(tracer.span_start) - first_span)
                check(len(tracer.unit_mismatches) == first_mismatch,
                      "; ".join(tracer.unit_mismatches[first_mismatch:][:3]))
                check(result.songs == [run_stats(r.notes) for r in tracer.songs],
                      "generator counts in the files differ from the returned results")
        except Exception as exc:  # a failed operation is counted and the run goes on
            result.error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, CheckFailed):
                traceback.print_exc()
        shutil.rmtree(out, ignore_errors=True)
        ops.append(result)
        if k + 1 >= MIN_OPS and (time.perf_counter() - start
                                  + statistics.median(o.wall for o in ops) > seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    good = [o for o in ops if not o.error]
    for o in good[1:]:
        if o.digest != good[0].digest:
            o.error = "outputs differ from the first operation's"
    traced_ops = [o for o in ops if o.traced and not o.error]
    for o in traced_ops[1:]:
        changed = sorted(k for k in EXACT if o.layers[k] != traced_ops[0].layers[k])
        if changed:
            o.error = f"exact counts changed between operations: {changed}"

    failed = sum(1 for o in ops if o.error)
    plain = [o for o in ops if not o.traced and not o.error]
    traced_ops = [o for o in ops if o.traced and not o.error]
    result = {"attempted": len(ops), "failed": failed,
              "errors": [o.error for o in ops if o.error],
              "digest": good[0].digest if good else "",
              "op_wall_s": [o.wall for o in ops], "setup_times_s": setup_times,
              "op_parts": [o.parts for o in ops]}
    if plain:
        rate, latency, named = wl.e2e(plain)
        result["e2e"] = {"rate_per_s": (rate, "1/s"), "latency_s": (latency, "s"),
                         "setup_s": (import_s + statistics.median(setup_times), "s"),
                         "peak_rss_mb": (peak_rss_mb, "MB")}
        result["named"] = named
    if traced_ops and plain:
        layers = {k: statistics.fmean(o.layers[k] for o in traced_ops) for k in traced_ops[0].layers}
        untraced_s = statistics.median(o.wall for o in plain)
        layers["trace.overhead_s"] = statistics.median(o.wall for o in traced_ops) - untraced_s
        layers["trace.overhead_share"] = layers["trace.overhead_s"] / untraced_s
        result["layers"] = layers
        result["exact"] = {k: layers[k] for k in sorted(EXACT)}
        result["tracer"] = tracer
        result["trace_missing"] = sorted(missing)
    return result

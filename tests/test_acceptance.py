"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Criteria with runtime bounds measure and enforce them.
"""

import json
import time

from conftest import looped_song, random_piece, song_dataset
from midilstm.cli import main
from midilstm.corpus import CorpusFile, save_corpus
from midilstm.generator import GenConfig, emit, generate, pick_seed
from midilstm.lstm import ModelConfig, ModelParams, grad_check, reference_check_config
from midilstm.midi_io import (
    decode_vlq,
    encode_vlq,
    events_equivalent,
    parse_midi,
    write_midi,
)
from midilstm.numerics import Rng
from midilstm.score import events_to_piece, piece_to_midi
from midilstm.trainer import TrainConfig, evaluate, train


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n{status} criterion {criterion}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


def restless_corpus(seed: int, n_songs: int = 2, n_tokens: int = 120,
                    window_len: int = 50) -> CorpusFile:
    """Corpus without rest tokens, so silent gaps can never merge events on
    the MIDI round trip."""
    rng = Rng(seed)
    songs = []
    for _ in range(n_songs):
        notes = [str(50 + rng.randint(16)) for _ in range(n_tokens)]
        durs = [[3, 6, 12][rng.randint(3)] for _ in range(n_tokens)]
        songs.append((notes, durs))
    return CorpusFile(12, window_len, 48, songs)


def test_criterion_1_gradient_correctness():
    start = time.time()
    config = reference_check_config()
    assert config.hidden_sizes == (16, 16)
    assert (config.note_vocab_size, config.dur_vocab_size) == (12, 6)
    assert config.window_len == 8
    rep = grad_check(config, Rng(20240601), tolerance=1e-4, step=1e-5)
    elapsed = time.time() - start
    report(1, "BPTT matches central finite differences on the reference config",
           rep.passed and elapsed < 60.0,
           f"max rel err {rep.max_rel_err:.2e} over {rep.n_params} params, {elapsed:.1f}s")


def test_criterion_2_overfit_memorization():
    start = time.time()
    notes, durs = looped_song(2024, n_tokens=200, period=25, n_pitches=12)
    note_vocab, dur_vocab, dataset = song_dataset([(notes, durs)], 50)
    assert len(note_vocab) <= 30
    config = TrainConfig(
        model=ModelConfig(len(note_vocab), len(dur_vocab), hidden_sizes=(64,),
                          dropout=0.0, window_len=50),
        epochs=120, batch_size=16, lr=1e-3, optimizer="adam", seed=11,
        checkpoint_every=0)
    result = train(dataset, config, note_vocab, dur_vocab)
    row = evaluate(result.params, config.model, dataset, note_vocab, dur_vocab)
    elapsed = time.time() - start
    report(2, "single-song memorization reaches 95% on both heads",
           row.note_acc >= 0.95 and row.dur_acc >= 0.95 and elapsed < 600.0,
           f"note {row.note_acc:.3f}, duration {row.dur_acc:.3f}, "
           f"{config.epochs} epochs, {elapsed:.0f}s")


def test_criterion_3_generation_protocol():
    corpus = restless_corpus(31)
    note_vocab, dur_vocab = corpus.build_vocabs()
    dataset = corpus.to_dataset(note_vocab, dur_vocab)
    config = ModelConfig(len(note_vocab), len(dur_vocab), hidden_sizes=(16,),
                         dropout=0.0, window_len=50)
    params = ModelParams.init(config, Rng(5))

    song, offset = pick_seed(dataset, Rng(6))
    seed_notes = corpus.songs[song][0][offset:offset + 50]
    seed_durs = corpus.songs[song][1][offset:offset + 50]
    assert len(seed_notes) == 50

    result = generate(params, note_vocab, dur_vocab, seed_notes, seed_durs,
                      GenConfig(length=500, mode="sample"), Rng(7))
    pairs_ok = len(result.notes) == 500 and len(result.durs) == 500

    piece = emit(result.notes, result.durs, corpus.grid)
    reparsed, _ = events_to_piece(parse_midi(write_midi(piece_to_midi(piece))),
                                  grid=corpus.grid)
    report(3, "50-token seed yields exactly 500 pairs and 500 re-parsed events",
           pairs_ok and len(reparsed.events) == 500,
           f"{len(result.notes)} pairs, {len(reparsed.events)} events")


def test_criterion_4_five_songs_harness(tmp_path):
    corpus_path = tmp_path / "corpus.txt"
    save_corpus(corpus_path, restless_corpus(41, n_songs=2, n_tokens=80, window_len=20))
    out = tmp_path / "variants"
    code = main(["variants", "--corpus", str(corpus_path), "--out", str(out),
                 "--seed", "7", "--epochs", "1", "--hidden", "8", "--dropout", "0",
                 "--batch-size", "16", "--checkpoint-every", "0",
                 "--count", "5", "--length", "60", "--mode", "sample",
                 "--variant", "a:lr=0.001", "--variant", "b:hidden=12"])
    assert code == 0
    mids = sorted(out.glob("*/song_*.mid"))
    manifest = json.loads((out / "variants_manifest.json").read_text())
    windows = [v["seed_window"] for v in manifest["variants"].values()]
    per_variant_distinct = all(
        len({p.read_bytes() for p in out.glob(f"{name}/song_*.mid")}) == 5
        for name in ("a", "b"))
    report(4, "two variants emit 10 MIDI files, distinct songs, shared seed window",
           len(mids) == 10 and per_variant_distinct
           and len(windows) == 2 and windows[0] == windows[1],
           f"{len(mids)} files, seed window {windows[0]}")


def test_criterion_5_midi_round_trip(tmp_path):
    start = time.time()
    rng = Rng(51)
    ok = True
    for i in range(4):
        data = write_midi(piece_to_midi(random_piece(rng, 80)))
        first = parse_midi(data)
        canonical = write_midi(first)
        ok &= events_equivalent(first, parse_midi(canonical))
        ok &= write_midi(parse_midi(canonical)) == canonical
    for n in range(2 ** 21 + 1):
        enc = encode_vlq(n)
        if decode_vlq(enc) != (n, len(enc)):
            ok = False
            break
    top = (1 << 28) - 1
    ok &= decode_vlq(encode_vlq(top)) == (top, 4)
    elapsed = time.time() - start
    report(5, "MIDI round trips and exhaustive VLQ codec check",
           ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_6_repetition_guard():
    corpus = restless_corpus(61)
    note_vocab, dur_vocab = corpus.build_vocabs()
    config = ModelConfig(len(note_vocab), len(dur_vocab), hidden_sizes=(16,),
                         dropout=0.0, window_len=50)
    params = ModelParams.init(config, Rng(8))
    params.w_note[...] = 0.0
    params.b_note[...] = 0.0
    params.b_note[0, 3] = 50.0  # head now always prefers one token
    seed_notes = corpus.songs[0][0][:50]
    seed_durs = corpus.songs[0][1][:50]

    def longest_run(tokens):
        best = cur = 1
        for a, b in zip(tokens, tokens[1:]):
            cur = cur + 1 if a == b else 1
            best = max(best, cur)
        return best

    guarded = generate(params, note_vocab, dur_vocab, seed_notes, seed_durs,
                       GenConfig(length=500, mode="argmax", repeat_cap=8), Rng(9))
    unguarded = generate(params, note_vocab, dur_vocab, seed_notes, seed_durs,
                         GenConfig(length=500, mode="argmax", repeat_cap=0), Rng(9))
    report(6, "repeat cap 8 bounds runs; cap 0 reproduces the collapse",
           longest_run(guarded.notes) <= 8 and guarded.guard_saturations == 0
           and longest_run(unguarded.notes) == 500,
           f"guarded max run {longest_run(guarded.notes)}, "
           f"unguarded run {longest_run(unguarded.notes)}")


def test_criterion_7_pipeline_determinism(tmp_path, midi_dir):
    d, _ = midi_dir
    artifacts = []
    for name in ("run1", "run2"):
        run = tmp_path / name
        assert main(["ingest", "--midi-dir", str(d), "--out", str(run),
                     "--window-len", "10", "--seed", "7"]) == 0
        assert main(["train", "--corpus", str(run / "corpus.txt"), "--out", str(run),
                     "--seed", "7", "--epochs", "3", "--hidden", "16",
                     "--batch-size", "8", "--dropout", "0",
                     "--checkpoint-every", "0"]) == 0
        assert main(["generate", "--checkpoint", str(run / "checkpoint.bin"),
                     "--corpus", str(run / "corpus.txt"), "--out", str(run),
                     "--seed", "7", "--count", "2", "--length", "50"]) == 0
        artifacts.append((
            (run / "checkpoint.bin").read_bytes(),
            (run / "out_000.mid").read_bytes(),
            (run / "out_001.mid").read_bytes(),
            (run / "corpus.txt").read_bytes(),
            (run / "ingest_manifest.json").read_bytes(),
            (run / "train_manifest.json").read_bytes(),
            (run / "generate_manifest.json").read_bytes(),
        ))
    report(7, "seeded ingest+train+generate reruns are byte-identical",
           artifacts[0] == artifacts[1])


def test_criterion_8_untrained_perplexity(midi_dir, tmp_path):
    d, _ = midi_dir
    run = tmp_path / "run"
    assert main(["ingest", "--midi-dir", str(d), "--out", str(run),
                 "--window-len", "10"]) == 0
    from midilstm.corpus import load_corpus
    corpus = load_corpus(run / "corpus.txt")
    note_vocab, dur_vocab = corpus.build_vocabs()
    dataset = corpus.to_dataset(note_vocab, dur_vocab)
    config = ModelConfig(len(note_vocab), len(dur_vocab), hidden_sizes=(64, 64),
                         dropout=0.0, window_len=10)
    params = ModelParams.init(config, Rng(80))
    row = evaluate(params, config, dataset, note_vocab, dur_vocab)
    n = len(note_vocab)
    report(8, "fresh model note perplexity sits within 20% of note vocab size",
           abs(row.note_ppl - n) / n < 0.2,
           f"perplexity {row.note_ppl:.2f} vs vocab {n}")

"""Single-track symbolic music toolkit: a from-scratch stacked LSTM that
learns next-note and next-duration prediction from MIDI corpora and
generates new MIDI files autoregressively."""

__version__ = "0.1.0"

from .corpus import (
    CorpusFile,
    Dataset,
    Vocabulary,
    build_vocab,
    load_corpus,
    make_windows,
    save_corpus,
    tokenize,
)
from .generator import GenConfig, GenResult, emit, generate, pick_seed
from .lstm import (
    ModelConfig,
    ModelParams,
    grad_check,
    model_backward,
    model_forward,
)
from .midi_io import MidiFile, MidiFormat, encode_vlq, parse_midi, write_midi
from .numerics import Rng, adam_step, derive_seed, softmax, xavier_init
from .score import NoteEvent, Piece, events_to_piece, piece_to_midi
from .trainer import (
    Checkpoint,
    MetricsRow,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

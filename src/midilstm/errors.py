"""Exception hierarchy shared across the toolkit.

Every data-level failure raises a subclass of ``DataError`` so the CLI can
map them to a single exit code, and every bad flag, config key or value
raises ``UsageError``; check-style failures (gradient check, round-trip
verification) are reported through return values instead.
"""


class UsageError(ValueError):
    """Bad flags, config keys, or values. Subclasses ValueError so argparse
    turns it into a normal usage failure when raised from a type= parser."""


class DataError(Exception):
    """Base class for all typed data errors raised by this package."""


# --- MIDI file format ---

class MidiError(DataError):
    """Base class for Standard MIDI File read/write errors."""


class UnterminatedVlq(MidiError):
    pass


class BadHeader(MidiError):
    pass


class TruncatedChunk(MidiError):
    pass


class UnsupportedFormat(MidiError):
    pass


class BadEvent(MidiError):
    pass


class InvariantViolation(MidiError):
    pass


# --- score extraction ---

class NoNotes(DataError):
    pass


# --- corpus / tokens ---

class BadToken(DataError):
    pass


class BadCorpusFile(DataError):
    pass


class IndexOutOfRange(DataError):
    pass


# --- numerics / model ---

class ShapeMismatch(DataError):
    pass


class StaleCache(DataError):
    pass


# --- training / generation ---

class EmptyDataset(DataError):
    pass


class VocabMismatch(DataError):
    pass


class BadCheckpoint(DataError):
    pass


class TrainingDiverged(DataError):
    """The batch loss or gradient norm went non-finite during training."""


class CorpusTooShort(DataError):
    pass


# --- CLI ---

class NoUsableFiles(DataError):
    pass

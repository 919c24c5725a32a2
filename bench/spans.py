"""In-process tracing: wrap the program's public functions from outside and
record one span per call.

``Patch`` swaps a function for a wrapper on its defining module and on every
``midilstm`` module that imported the same object under any name (so
``lstm.matmul``, ``trainer.model_forward`` and ``generator.model_forward``
are all caught), and puts the originals back on exit. A target that does not
exist is skipped, so the harness keeps working when a function is removed;
its metrics then read 0, and its name is kept in ``Patch.missing`` so that
the run's record and output can tell it apart from zero work.

``Tracer`` keeps spans (name, start, end, parent) in memory, plus per-name
call counts, total and self time (duration minus the time covered by direct
child spans), time under each parent name, and counters filled by hooks.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "midilstm"

# every traced function, as "module.attr" or "module.Class.attr"
TARGETS = (
    "numerics.matmul", "numerics.sigmoid", "numerics.softmax", "numerics.adam_step",
    "numerics.global_norm", "numerics.Rng.uniform_array",
    "lstm.model_forward", "lstm.cell_forward", "lstm.model_backward",
    "trainer.train", "trainer.evaluate", "trainer.save_checkpoint", "trainer.load_checkpoint",
    "generator.generate", "generator.emit",
    "score.piece_to_midi", "score.events_to_piece",
    "midi_io.write_midi", "midi_io.parse_midi",
    "corpus.tokenize", "corpus.save_corpus", "corpus.load_corpus", "corpus.encode_songs",
    "corpus.make_windows", "corpus.build_vocab",
    "cli.write_manifest", "cli.main",
    "cli.cmd_ingest", "cli.cmd_train", "cli.cmd_eval", "cli.cmd_generate",
)


class Patch:
    """Context manager replacing each target with ``make(name, original)``."""

    def __init__(self, names, make):
        self.names = names
        self.make = make
        self.undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name in self.names:
            *owner_path, attr = name.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{owner_path[0]}")
            for part in owner_path[1:]:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.make(name, original)
            holders = [owner] if len(owner_path) > 1 else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self.undo.append((holder, key, value))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self.undo):
            setattr(holder, key, value)
        self.undo.clear()


def end_times(times: list):
    """Patch factory that only appends each call's return time to ``times``."""
    def make(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            times.append(time.perf_counter())
            return out
        return wrapper
    return make


def array_bytes(obj, seen: set) -> int:
    """Bytes of every distinct ndarray reachable from ``obj``."""
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(x, seen) for x in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(array_bytes(x, seen) for x in vars(obj).values())
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name ids index this list
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.unit_work: dict[tuple, tuple] = {}
        self.unit_mismatches: list[str] = []
        self.stack: list[int] = []  # indices of the open spans
        self.child: list[float] = []  # time covered by children, per open span
        self.reset()

    def reset(self) -> None:
        """Clear the aggregates (spans are kept until written)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.under: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.norms: list[float] = []
        self.songs: list = []

    def patch(self) -> Patch:
        return Patch(TARGETS, self._wrap)

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = name.split(".")[-1]
        enter = getattr(self, "_enter_" + hook, None)
        leave = getattr(self, "_leave_" + hook, None)
        names, starts, ends, parents = self.names, self.span_start, self.span_end, self.span_parent
        span_name = self.span_name
        stack, child = self.stack, self.child
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            span_name.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            token = enter(args, kwargs) if enter is not None else None
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                covered = child.pop()
                starts[idx] = t0
                ends[idx] = t1
                d = t1 - t0
                tracer.calls[name] += 1
                tracer.total[name] += d
                tracer.self_time[name] += d - covered
                if stack:
                    child[-1] += d
                    tracer.under[(names[span_name[stack[-1]]], name)] += d
            if leave is not None:
                leave(args, kwargs, out, token)
                if child:
                    # hook time is left out of the parent's self time
                    child[-1] += perf() - t1
            return out
        return wrapper

    # --- hooks: counts computed from arguments and results ---

    def _leave_matmul(self, args, kwargs, out, token):
        a, b = args[0], args[1]
        m, k = a.shape
        n = b.shape[1]
        self.counters["matmul.flop"] += 2.0 * m * k * n
        self.counters["matmul.bytes"] += 8.0 * (m * k + k * n + m * n)

    def _work(self, args, kwargs):
        return self.counters["matmul.flop"], self.counters["matmul.bytes"]

    _enter_model_forward = _enter_model_backward = _enter_generate = _work

    def _check_unit(self, name, args, kwargs, token):
        """Calls with equal argument shapes must do equal matmul work."""
        key = (name, tuple(np.shape(a) for a in args if isinstance(a, np.ndarray)),
               tuple(sorted((k, v) for k, v in kwargs.items() if isinstance(v, (bool, int)))))
        work = (self.counters["matmul.flop"] - token[0], self.counters["matmul.bytes"] - token[1])
        first = self.unit_work.setdefault(key, work)
        if first != work:
            self.unit_mismatches.append(f"{key}: matmul work {work} != {first}")

    def _leave_model_forward(self, args, kwargs, out, token):
        self._check_unit("lstm.model_forward", args, kwargs, token)
        ids = np.asarray(args[0])
        self.counters["model_forward.rows"] += ids.shape[0] if ids.ndim == 2 else 1
        mb = array_bytes(out[2], set()) / 1e6
        self.peaks["forward_cache_mb"] = max(self.peaks["forward_cache_mb"], mb)

    def _leave_model_backward(self, args, kwargs, out, token):
        self._check_unit("lstm.model_backward", args, kwargs, token)

    def _leave_global_norm(self, args, kwargs, out, token):
        self.norms.append(float(out))

    def _leave_save_checkpoint(self, args, kwargs, out, token):
        self.counters["save_checkpoint.bytes"] += os.path.getsize(args[0])

    def _leave_write_midi(self, args, kwargs, out, token):
        self.counters["write_midi.bytes"] += len(out)

    def _enter_parse_midi(self, args, kwargs):
        self.counters["parse_midi.bytes"] += len(args[0])

    def _leave_generate(self, args, kwargs, out, token):
        self._check_unit("generator.generate", args, kwargs, token)
        self.songs.append(out)

    def _leave_train(self, args, kwargs, out, token):
        if out.metrics:
            self.counters["train_loss"] = out.metrics[-1].loss

    # --- output ---

    def write(self, path) -> None:
        n = len(self.span_start)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32, n),
            start=np.frombuffer(self.span_start, np.float64, n),
            end=np.frombuffer(self.span_end, np.float64, n),
            parent=np.frombuffer(self.span_parent, np.int32, n))

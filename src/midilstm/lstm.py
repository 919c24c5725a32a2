"""Stacked LSTM over (note, duration) token inputs with two softmax heads,
plus the full backward pass through time.

Cell equations, with z = [h_prev, x] and elementwise products:

    f = sigmoid(W_f z + b_f)          forget gate
    i = sigmoid(W_i z + b_i)          input gate
    g = tanh(W_g z + b_g)             candidate cell values
    c = f * c_prev + i * g
    o = sigmoid(W_o z + b_o)          output gate
    h = o * tanh(c)

Each layer stores its gates fused: one weight ``w`` of shape (H+in, 4H),
rows [h; x] (so ``w[:H]`` is recurrent and ``w[H:]`` the input weight),
columns in gate blocks of ``COLUMNS`` order, sigmoid gates first and the
candidate last; and one bias ``b`` of shape (1, 4H). A step is then one
``h @ w[:H]`` plus one ``cell_forward``. The checkpoint names
``layerK.<gate>.w`` (H, H+in) and ``layerK.<gate>.b`` (1, H), in ``GATES``
order, are transposed views of these arrays, so checkpoints, the optimizer
and the gradient check read and write the fused arrays through them and
the file format does not depend on the layout.

The input at each step is the concatenated one-hot of the two ids, so
layer 0's input term is the sum of two rows of ``w[H:]``: the note rows
gathered for all L steps at once, the duration rows step by step. Upper
layers' input terms are one product over all L*B rows, and the backward
pass forms each layer's weight gradients from all timesteps at once: only
the h -> h recurrence runs step by step. The train-mode cache holds each
layer's activated gates and dropout keep mask, but no cell or hidden
states: the backward pass rebuilds one layer's c, and then its h, at a time
from its gates, and releases each layer's cache once it has passed it.
``Wavefront`` is the other way through the same cell; both end in ``heads``.
It steps the generator's windows in flight, rows that all read one token.
Each layer's recurrent product of the next step, ``h @ w[:H]``, is queued
on the lanes' pool (``product_ahead``) once the cell has written h, while
the calling thread runs the token's path: each layer's input term plus its
bias, the cells, and in the generator the heads and the draw. A step adds
the terms as ``model_forward`` does, (input term + bias) + recurrent term,
so a window's h is the batch forward's bit for bit unless it went through
a one-row product, which OpenBLAS runs as a GEMV and rounds differently.
A joining row's recurrent term is a zero row; a leaving row is not queued.

Inverted dropout is applied to each layer's h on the way up to the next
layer (train mode only); the recurrent h -> h_next connection and the head
input are never dropped. Only the final timestep feeds the heads, and the
training loss is the sum of the two head cross-entropies.

``model_backward`` returns gradients of the loss summed over the batch;
callers that want batch means divide by the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, ShapeMismatch, StaleCache, UsageError, VocabMismatch
from .numerics import (CE_FLOOR, Rng, lane_product, matmul, product_ahead, product_lanes,
                       run_lanes, sigmoid, softmax, xavier_init)

GATES = ("forget", "input", "cand", "output")  # checkpoint and init order
COLUMNS = ("forget", "input", "output", "cand")  # gate blocks along w's columns
FORGET_BIAS_INIT = 1.0


@dataclass
class ModelConfig:
    note_vocab_size: int
    dur_vocab_size: int
    hidden_sizes: tuple[int, ...] = (512, 512, 512)
    dropout: float = 0.3
    window_len: int = 50

    @property
    def input_width(self) -> int:
        return self.note_vocab_size + self.dur_vocab_size

    def validate(self) -> None:
        if self.note_vocab_size < 1 or self.dur_vocab_size < 1:
            raise UsageError("vocabulary sizes must be positive")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise UsageError(f"bad hidden sizes {self.hidden_sizes}")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError(f"dropout {self.dropout} outside [0, 1)")
        if self.window_len < 1:
            raise UsageError(f"window_len {self.window_len} must be >= 1")

    def weight_shapes(self) -> list[tuple[int, int]]:
        """(rows, cols) of each fused weight, layers then heads; each has
        one more row, its bias, in the parameter arena."""
        self.validate()
        ins = [self.input_width, *self.hidden_sizes[:-1]]
        top = self.hidden_sizes[-1]
        return ([(h + i, 4 * h) for i, h in zip(ins, self.hidden_sizes)]
                + [(top, self.note_vocab_size), (top, self.dur_vocab_size)])


@dataclass
class LstmLayerParams:
    """One layer's fused gates: ``w`` is (hidden+in, 4*hidden), ``b`` is
    (1, 4*hidden); see the module docstring for the layout."""

    w: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.b.shape[1] // 4

    def gates(self):
        """(gate, weight view (hidden, hidden+in), bias view (1, hidden))
        for each gate in ``GATES`` order."""
        H = self.hidden_size
        for gate in GATES:
            k = COLUMNS.index(gate) * H
            yield gate, self.w[:, k:k + H].T, self.b[:, k:k + H]


@dataclass
class ModelParams:
    """Every array is a view of one flat arena, ``flat``: each layer's w
    with its b as one more row, then each head's likewise. The heads'
    widths are the vocabulary sizes, and everything that runs the model
    reads its shape from here."""

    layers: list[LstmLayerParams]
    w_note: np.ndarray
    b_note: np.ndarray
    w_dur: np.ndarray
    b_dur: np.ndarray
    flat: np.ndarray

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ModelParams":
        """All-zero parameters of the configured shapes."""
        return cls._carve(config.weight_shapes())

    @classmethod
    def _carve(cls, w_shapes) -> "ModelParams":
        flat = np.zeros(sum((rows + 1) * cols for rows, cols in w_shapes))
        pairs, end = [], 0
        for rows, cols in w_shapes:
            block = flat[end:end + (rows + 1) * cols].reshape(rows + 1, cols)
            pairs.append((block[:-1], block[-1:]))
            end += block.size
        *layers, (w_note, b_note), (w_dur, b_dur) = pairs
        return cls([LstmLayerParams(w, b) for w, b in layers], w_note, b_note, w_dur, b_dur, flat)

    def zeros_like(self) -> "ModelParams":
        """A zero twin arena of the same layout, for gradients."""
        return self._carve([a.w.shape for a in self.layers] + [self.w_note.shape, self.w_dur.shape])

    @classmethod
    def init(cls, config: ModelConfig, rng: Rng) -> "ModelParams":
        """Xavier weights drawn layer by layer in ``GATES`` order, then for
        the note and duration heads; zero biases but the forget gates'."""
        params = cls.zeros(config)
        for layer in params.layers:
            for gate, w, b in layer.gates():
                w[...] = xavier_init(*w.shape, rng)
                if gate == "forget":
                    b += FORGET_BIAS_INIT
        for w in (params.w_note, params.w_dur):
            w[...] = xavier_init(*w.shape, rng)
        return params

    def check_vocabs(self, note_vocab, dur_vocab) -> None:
        """Raise ``VocabMismatch`` unless the vocabularies fit the heads."""
        nv, dv = self.w_note.shape[1], self.w_dur.shape[1]
        if (len(note_vocab), len(dur_vocab)) != (nv, dv):
            raise VocabMismatch(f"model has vocab sizes {nv}/{dv}, "
                                f"vocabularies have {len(note_vocab)}/{len(dur_vocab)}")

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        """Canonical (name, array) ordering used by the optimizer,
        checkpoints, and the gradient check. Gate entries are views."""
        out = []
        for i, layer in enumerate(self.layers):
            for gate, w, b in layer.gates():
                out += [(f"layer{i}.{gate}.w", w), (f"layer{i}.{gate}.b", b)]
        return out + [("head_note.w", self.w_note), ("head_note.b", self.b_note),
                      ("head_dur.w", self.w_dur), ("head_dur.b", self.b_dur)]


@dataclass
class LayerCache:  # no c or h: the backward pass rebuilds both from the gates
    acts: np.ndarray  # (L, B, 4H) activated gates, COLUMNS order
    keep: np.ndarray | None  # (L, B, H) dropout keep mask on h, None if not dropped


@dataclass
class ForwardCache:
    dropout: float  # the rate applied, 0.0 in infer mode
    note_ids: np.ndarray
    dur_ids: np.ndarray
    layers: list[LayerCache]  # empty in infer mode and from the start of backward
    h_final: np.ndarray
    note_probs: np.ndarray
    dur_probs: np.ndarray


def cell_forward(a: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell step for a batch of rows. Activates the (B, 4H)
    pre-activations ``a`` in place and returns the new (h, c)."""
    B, H = c_prev.shape
    if a.shape != (B, 4 * H):
        raise ShapeMismatch(f"pre-activations {a.shape} do not fit cell state {c_prev.shape}")
    sigmoid(a[:, :3 * H], out=a[:, :3 * H])
    np.tanh(a[:, 3 * H:], out=a[:, 3 * H:])
    c = a[:, :H] * c_prev + a[:, H:2 * H] * a[:, 3 * H:]
    h = a[:, 2 * H:3 * H] * np.tanh(c)
    return h, c


def _check_range(ids: np.ndarray, size: int, what: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise IndexOutOfRange(f"{what} outside [0, {size})")


def _check_ids(ids: np.ndarray, size: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or not ids.shape[1]:
        raise ShapeMismatch(f"{what} ids must be (B, L) with L >= 1, got {ids.shape}")
    _check_range(ids, size, f"{what} id")
    return ids


def _drop(x: np.ndarray, keep: np.ndarray | None, drop: float) -> None:
    """Inverted dropout of ``x`` in place with a boolean keep mask."""
    if keep is not None:
        x *= keep
        x *= 1.0 / (1.0 - drop)


def model_forward(note_ids: np.ndarray, dur_ids: np.ndarray, params: ModelParams,
                  train: bool = False, rng: Rng | None = None, dropout: float = 0.0,
                  ) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Run a batch of windows through the stack from zero initial state.

    ``note_ids``/``dur_ids`` are (B, L) integer arrays of ids below the
    widths of the note and duration heads. Returns softmax rows from both
    heads, computed on the top layer's final-step h, plus the cache the
    backward pass needs.

    The stack runs layer by layer, each over all L steps, and each layer's
    recurrence on lanes of batch rows. Train mode drops each layer's h at
    rate ``dropout`` on its way up. Its keep masks are drawn from ``rng``
    before the stack runs, one step at a time: ``B * H`` uniforms per
    dropped layer, layers in order, compared straight into boolean masks.
    Either mode keeps one layer's h and a rolling c at a time; train mode
    caches the gates.
    """
    nv, dv = params.w_note.shape[1], params.w_dur.shape[1]
    note_ids = _check_ids(note_ids, nv, "note")
    dur_ids = _check_ids(dur_ids, dv, "duration")
    if note_ids.shape != dur_ids.shape:
        raise ShapeMismatch(f"id streams differ: {note_ids.shape} vs {dur_ids.shape}")
    B, L = note_ids.shape
    sizes = [layer.hidden_size for layer in params.layers]
    drop = dropout if train else 0.0
    keeps: list[np.ndarray | None] = [None] * len(sizes)
    if drop > 0.0 and len(sizes) > 1:
        if rng is None:
            raise ShapeMismatch("train-mode dropout needs an rng")
        keeps[:-1] = [np.empty((L, B, H), dtype=bool) for H in sizes[:-1]]
        ends = np.cumsum([B * H for H in sizes[:-1]])[:-1]
        for t in range(L):  # one step's uniforms at a time, layer by layer
            for keep, u in zip(keeps[:-1], np.split(rng.uniform_array(B * sum(sizes[:-1])), ends)):
                np.greater_equal(u.reshape(B, -1), drop, out=keep[t])

    layers: list[LayerCache] = []
    h = keep_below = None
    for layer, H, keep in zip(params.layers, sizes, keeps):
        w_h, w_x = layer.w[:H], layer.w[H:]
        if h is None:  # layer 0: the one-hot product is a row gather, the
            # duration rows a step at a time so no second (L, B, 4H) gather lives
            acts = w_x[note_ids.T]
            for t in range(L):
                acts[t] += w_x[nv + dur_ids[:, t]]
        else:  # one product over all L*B rows of the layer below's h, dropped in place
            _drop(h[1:], keep_below, drop)
            x = h[1:].reshape(L * B, -1)
            acts = lane_product(x, w_x, np.empty((L * B, 4 * H))).reshape(L, B, 4 * H)
        acts += layer.b
        x = h = None  # x views h: free it, backward rebuilds it from the gates
        h = np.zeros((L + 1, B, H))

        def recur(lo: int, hi: int) -> None:  # batch rows [lo, hi), all L steps
            c = np.zeros((hi - lo, H))
            for t in range(L):
                a = acts[t, lo:hi]
                if t:
                    a += matmul(h[t, lo:hi], w_h)
                h[t + 1, lo:hi], c = cell_forward(a, c)

        run_lanes(recur, B, product_lanes(B, *w_h.shape))
        keep_below = keep
        if train:
            layers.append(LayerCache(acts=acts, keep=keep))
        acts = None  # and this layer's pre-activations, before the next layer's

    h_top = h[-1].copy()  # a view would pin all of h
    note_probs, dur_probs = heads(h_top, params)
    cache = ForwardCache(dropout=drop, note_ids=note_ids, dur_ids=dur_ids,
                         layers=layers, h_final=h_top, note_probs=note_probs,
                         dur_probs=dur_probs)
    return note_probs, dur_probs, cache


def heads(h_top: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Note and duration softmax rows for top-layer hidden states (B, H)."""
    return (softmax(matmul(h_top, params.w_note) + params.b_note),
            softmax(matmul(h_top, params.w_dur) + params.b_dur))


class Wavefront:
    """Generation's windows in flight, as rows oldest first (see above). Per
    row, a step is the one ``model_forward`` takes, in the same order."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.c = [np.zeros((1, layer.hidden_size)) for layer in params.layers]
        # each layer's recurrent term of the next step, queued
        self.ahead = [product_ahead(c[:0], layer.w[:c.shape[1]], 1)
                      for c, layer in zip(self.c, params.layers)]

    def step(self, note_id: int, dur_id: int, leave: bool, join: bool) -> np.ndarray:
        """Advance every row by the token (note_id, dur_id) and return the
        top layer's new h, a row a window. Then the oldest row leaves if
        ``leave``, and a row joins for the next step if ``join``."""
        c, nv, x = self.c, self.params.w_note.shape[1], None
        for k, layer in enumerate(self.params.layers):
            H, w = layer.hidden_size, layer.w
            # input term plus bias, while the queued recurrent product may still run
            a = w[H + note_id] + w[H + nv + dur_id] if x is None else matmul(x, w[H:])
            a += layer.b[0]
            p = self.ahead[k].result()
            p += a  # model_forward's sum: (input term + bias) + recurrent term
            x, c[k] = cell_forward(p, c[k])
            if rows := len(x) - leave + join:  # the last step queues nothing
                self.ahead[k] = product_ahead(x[leave:], w[:H], rows)
            c[k] = np.concatenate([c[k][leave:], np.zeros((int(join), H))])
        return x

    def close(self) -> None:
        """Wait for the queued products: none outlives the generation."""
        for future in self.ahead:
            future.exception()


def model_backward(cache: ForwardCache, note_targets: np.ndarray,
                   dur_targets: np.ndarray, params: ModelParams,
                   grads: ModelParams | None = None) -> dict[str, np.ndarray]:
    """Full BPTT from the two head losses. Returns {param name: gradient}
    for the batch-summed loss CE_note + CE_dur as views of ``grads``, which
    the pass overwrites (a new ``params.zeros_like()`` when not given).

    Targets outside their head's width raise ``IndexOutOfRange`` and leave
    the cache unused. Otherwise the pass consumes the cache, so it backs
    exactly one pass, failed or not: it empties ``cache.layers`` before any
    work, rebuilds each layer's cell states from its gates in
    ``cell_forward``'s operation order (so bit for bit), writes each h into
    its c's slot once the sweep back has spent that c, overwrites the gates
    with their gradients, rebuilds the layer's input from the gates of the
    layer below, and releases the layer once its weight gradients and input
    gradient are done. Each layer's recurrence runs on lanes of batch rows;
    each product over all rows that follows it is one ``lane_product``.
    """
    if not cache.layers:
        raise StaleCache("backward needs the unused cache of a train-mode forward pass")
    note_targets = np.asarray(note_targets, dtype=np.int64).reshape(-1)
    dur_targets = np.asarray(dur_targets, dtype=np.int64).reshape(-1)
    B = cache.h_final.shape[0]
    if note_targets.shape[0] != B or dur_targets.shape[0] != B:
        raise ShapeMismatch("target count does not match batch size")
    nv = params.w_note.shape[1]
    _check_range(note_targets, nv, "note target")
    _check_range(dur_targets, params.w_dur.shape[1], "duration target")
    layers, cache.layers = cache.layers, []
    rows = np.arange(B)
    L = cache.note_ids.shape[1]

    # softmax + cross-entropy: dlogits = probs - onehot(target)
    dlog_note = cache.note_probs.copy()
    dlog_note[rows, note_targets] -= 1.0
    dlog_dur = cache.dur_probs.copy()
    dlog_dur[rows, dur_targets] -= 1.0
    grads = params.zeros_like() if grads is None else grads
    grads.w_note[...] = matmul(cache.h_final.T, dlog_note)
    grads.b_note[...] = dlog_note.sum(axis=0, keepdims=True)
    grads.w_dur[...] = matmul(cache.h_final.T, dlog_dur)
    grads.b_dur[...] = dlog_dur.sum(axis=0, keepdims=True)

    # gradient on a layer's h from above: the heads at the top layer's last
    # step, the layer above's input gradient (L, B, H) below it
    dh_head = matmul(dlog_note, params.w_note.T) + matmul(dlog_dur, params.w_dur.T)
    dh_in = None
    for li in range(len(params.layers) - 1, -1, -1):
        layer, lc, grad = params.layers[li], layers[li], grads.layers[li]
        H = layer.hidden_size
        w_h, w_x = layer.w[:H], layer.w[H:]

        # c[t], rebuilt; each c[t] once spent holds h[t] (h[0] = c[0] = 0).
        # Allocated here, as for lane_product
        hc = np.zeros((L + 1, B, H))

        def bptt(lo: int, hi: int) -> None:  # batch rows [lo, hi), all L steps
            acts, c = lc.acts[:, lo:hi], hc[:, lo:hi]
            for t in range(L):  # c = f * c_prev + i * g, as in cell_forward
                np.multiply(acts[t, :, :H], c[t], out=c[t + 1])
                c[t + 1] += acts[t, :, H:2 * H] * acts[t, :, 3 * H:]
            dh = dh_head[lo:hi] if dh_in is None else np.zeros((hi - lo, H))
            dc = np.zeros((hi - lo, H))
            for t in range(L - 1, -1, -1):
                if dh_in is not None:
                    dh += dh_in[t, lo:hi]
                a = acts[t]
                f, i, o, g = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
                tanh_c = np.tanh(c[t + 1])
                np.multiply(o, tanh_c, out=c[t + 1])  # h, as in cell_forward
                dc += dh * o * (1.0 - tanh_c ** 2)
                d_f = dc * c[t] * f * (1.0 - f)
                d_i = dc * g * i * (1.0 - i)
                d_o = dh * tanh_c * o * (1.0 - o)
                d_g = dc * i * (1.0 - g ** 2)
                dc *= f
                a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:] = d_f, d_i, d_o, d_g
                if t:
                    dh = matmul(a, w_h.T)

        run_lanes(bptt, B, product_lanes(B, *w_h.T.shape))
        dh_in = None  # spent by the sweep
        d_acts = lc.acts.reshape(L * B, 4 * H)
        lane_product(hc[:-1].reshape(L * B, H).T, d_acts, grad.w[:H])
        hc = None
        grad.b[...] = d_acts.sum(axis=0, keepdims=True)
        if li == 0:  # scatter-add at the ids, the transpose of the row gather
            # (a row loop: np.add.at is about 8x slower on 2-D rows)
            grad_x = grad.w[H:]
            grad_x[...] = 0.0
            for n, d, row in zip(cache.note_ids.T.ravel().tolist(),
                                 cache.dur_ids.T.ravel().tolist(), d_acts):
                grad_x[n] += row
                grad_x[nv + d] += row
            break
        # the layer's input: the layer below's dropped h, rebuilt from its
        # gates with a rolling c, as in cell_forward
        below, Hb = layers[li - 1], w_x.shape[0]
        x, c = np.empty((L, B, Hb)), np.zeros((B, Hb))
        for t, a in enumerate(below.acts):
            c = a[:, :Hb] * c + a[:, Hb:2 * Hb] * a[:, 3 * Hb:]
            np.multiply(a[:, 2 * Hb:3 * Hb], np.tanh(c), out=x[t])
        _drop(x, below.keep, cache.dropout)
        lane_product(x.reshape(L * B, Hb).T, d_acts, grad.w[H:])
        x = None  # before allocating the next dh_in
        dh_in = lane_product(d_acts, w_x.T, np.empty((L * B, Hb))).reshape(L, B, Hb)
        _drop(dh_in, below.keep, cache.dropout)
        layers[li] = lc = d_acts = None  # release

    return dict(grads.named_params())


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    tolerance: float
    n_params: int
    passed: bool


def reference_check_config() -> ModelConfig:
    """Small fixed configuration for fast full-coverage gradient checks."""
    return ModelConfig(note_vocab_size=12, dur_vocab_size=6,
                       hidden_sizes=(16, 16), dropout=0.0, window_len=8)


def grad_check(config: ModelConfig, rng: Rng, tolerance: float = 1e-4,
               step: float = 1e-5) -> GradCheckReport:
    """Compare BPTT gradients against central finite differences for every
    parameter. Dropout is disabled for the check; the relative error uses an
    absolute floor of 1e-6 in the denominator."""
    params = ModelParams.init(config, rng)
    L = config.window_len
    note_ids = np.array([[rng.randint(config.note_vocab_size) for _ in range(L)]])
    dur_ids = np.array([[rng.randint(config.dur_vocab_size) for _ in range(L)]])
    note_target = np.array([rng.randint(config.note_vocab_size)])
    dur_target = np.array([rng.randint(config.dur_vocab_size)])

    def loss() -> float:
        note_probs, dur_probs, _ = model_forward(
            note_ids, dur_ids, params, train=True)
        return (-np.log(note_probs[0, note_target[0]] + CE_FLOOR)
                - np.log(dur_probs[0, dur_target[0]] + CE_FLOOR))

    _, _, cache = model_forward(note_ids, dur_ids, params, train=True)
    analytic = model_backward(cache, note_target, dur_target, params)

    max_rel = 0.0
    worst = ""
    n_params = 0
    for name, arr in params.named_params():
        flat = arr.flat  # gate weights are views, reshape(-1) would copy
        a_flat = analytic[name].reshape(-1)
        n_params += arr.size
        for k in range(arr.size):
            orig = flat[k]
            flat[k] = orig + step
            up = loss()
            flat[k] = orig - step
            down = loss()
            flat[k] = orig
            fd = (up - down) / (2.0 * step)
            rel = abs(a_flat[k] - fd) / max(abs(a_flat[k]) + abs(fd), 1e-6)
            if rel > max_rel:
                max_rel = rel
                worst = f"{name}[{k}]"
    return GradCheckReport(max_rel_err=float(max_rel), worst_param=worst,
                           tolerance=tolerance, n_params=n_params,
                           passed=max_rel < tolerance)

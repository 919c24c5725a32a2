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
the h -> h recurrence runs step by step.
``step_rows`` is the other way through the same cell: it advances a batch
of windows that all read the same token by one step, which is how the
generator runs its windows in flight; both paths end in ``heads``.

Inverted dropout is applied to each layer's h on the way up to the next
layer (train mode only); the recurrent h -> h_next connection and the head
input are never dropped. Only the final timestep feeds the heads, and the
training loss is the sum of the two head cross-entropies.

``model_backward`` returns gradients of the loss summed over the batch;
callers that want batch means divide by the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IndexOutOfRange, ShapeMismatch, StaleCache, UsageError
from .numerics import Rng, matmul, sigmoid, softmax, xavier_init

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
    with its b as one more row, then each head's likewise."""

    layers: list[LstmLayerParams]
    w_note: np.ndarray
    b_note: np.ndarray
    w_dur: np.ndarray
    b_dur: np.ndarray
    flat: np.ndarray

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ModelParams":
        """All-zero parameters of the configured shapes."""
        config.validate()
        ins = [config.input_width, *config.hidden_sizes[:-1]]
        top = config.hidden_sizes[-1]
        return cls._carve([(h + i, 4 * h) for i, h in zip(ins, config.hidden_sizes)]
                          + [(top, config.note_vocab_size), (top, config.dur_vocab_size)])

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
class LayerCache:
    acts: np.ndarray  # (L, B, 4H) activated gates, COLUMNS order
    h: np.ndarray  # (L+1, B, H) hidden states, h[0] = 0
    c: np.ndarray  # (L+1, B, H) cell states, c[0] = 0
    keep: np.ndarray | None  # (L, B, H) dropout keep mask on h, None if not dropped


@dataclass
class ForwardCache:
    train: bool
    dropout: float  # the rate applied, 0.0 in infer mode
    note_ids: np.ndarray
    dur_ids: np.ndarray
    layers: list[LayerCache]  # empty in infer mode and once backward has run
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


def _check_ids(ids: np.ndarray, size: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise ShapeMismatch(f"{what} ids must be 1-D or 2-D, got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise IndexOutOfRange(f"{what} id outside [0, {size})")
    return ids


def _dropped(x: np.ndarray, keep: np.ndarray | None, drop: float) -> np.ndarray:
    """Inverted dropout of ``x`` with a boolean keep mask."""
    if keep is None:
        return x
    out = x * keep
    out *= 1.0 / (1.0 - drop)
    return out


def model_forward(note_ids: np.ndarray, dur_ids: np.ndarray, params: ModelParams,
                  config: ModelConfig, train: bool = False, rng: Rng | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Run a batch of windows through the stack from zero initial state.

    ``note_ids``/``dur_ids`` are (B, L) integer arrays (a single 1-D window
    is promoted to B=1). Returns softmax rows from both heads, computed on
    the top layer's final-step h, plus the cache the backward pass needs.

    The stack runs layer by layer, each over all L steps. Train-mode
    dropout draws ``B * H`` uniforms per step and per dropped layer, in
    step-major order, as one block from ``rng``. Infer mode keeps one
    layer's h and a rolling c, and no cache.
    """
    nv, dv = config.note_vocab_size, config.dur_vocab_size
    note_ids = _check_ids(note_ids, nv, "note")
    dur_ids = _check_ids(dur_ids, dv, "duration")
    if note_ids.shape != dur_ids.shape:
        raise ShapeMismatch(f"id streams differ: {note_ids.shape} vs {dur_ids.shape}")
    B, L = note_ids.shape
    sizes = [layer.hidden_size for layer in params.layers]
    drop = config.dropout if train else 0.0
    keeps: list[np.ndarray | None] = [None] * len(sizes)
    if drop > 0.0 and len(sizes) > 1:
        if rng is None:
            raise ShapeMismatch("train-mode dropout needs an rng")
        widths = [B * H for H in sizes[:-1]]
        block = rng.uniform_array(L * sum(widths)).reshape(L, -1)
        splits = np.split(block, np.cumsum(widths)[:-1], axis=1)
        keeps[:-1] = [u.reshape(L, B, -1) >= drop for u in splits]

    layers: list[LayerCache] = []
    x = None
    for layer, H, keep in zip(params.layers, sizes, keeps):
        w_h, w_x = layer.w[:H], layer.w[H:]
        first = x is None
        if first:  # layer 0: the one-hot product is a row gather; the
            # duration rows and the bias join step by step below
            acts = w_x[note_ids.T]
        else:
            acts = matmul(x.reshape(L * B, -1), w_x).reshape(L, B, 4 * H)
            acts += layer.b
        x = h = None  # unless the cache holds them, free the layer below's h
        h = np.zeros((L + 1, B, H))
        c = np.zeros((B, H))
        c_all = np.zeros((L + 1, B, H)) if train else None
        for t in range(L):
            if first:
                acts[t] += w_x[nv + dur_ids[:, t]]
                acts[t] += layer.b
            if t:
                acts[t] += matmul(h[t], w_h)
            h[t + 1], c = cell_forward(acts[t], c)
            if train:
                c_all[t + 1] = c
        x = _dropped(h[1:], keep, drop)
        if train:
            layers.append(LayerCache(acts=acts, h=h, c=c_all, keep=keep))
        acts = None  # and this layer's pre-activations, before the next layer's

    h_top = x[-1].copy()  # a view would pin all of h
    note_probs, dur_probs = heads(h_top, params)
    cache = ForwardCache(train=train, dropout=drop, note_ids=note_ids, dur_ids=dur_ids,
                         layers=layers, h_final=h_top, note_probs=note_probs,
                         dur_probs=dur_probs)
    return note_probs, dur_probs, cache


def heads(h_top: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Note and duration softmax rows for top-layer hidden states (B, H)."""
    return (softmax(matmul(h_top, params.w_note) + params.b_note),
            softmax(matmul(h_top, params.w_dur) + params.b_dur))


def step_rows(params: ModelParams, h: list[np.ndarray], c: list[np.ndarray],
              note_id: int, dur_id: int) -> None:
    """Advance a batch of windows that all consume the token (note_id,
    dur_id) by one step. ``h[k]`` and ``c[k]`` are layer k's (rows, H)
    states and are replaced by the new ones. Per row this is the step
    ``model_forward`` takes, up to the rounding of the batched products."""
    nv = params.w_note.shape[1]
    x = None
    for k, layer in enumerate(params.layers):
        H = layer.hidden_size
        if x is None:  # layer 0: one gathered input row, shared by all rows
            a = matmul(h[k], layer.w[:H])
            a += layer.w[H + note_id] + layer.w[H + nv + dur_id] + layer.b[0]
        else:
            a = matmul(np.hstack([h[k], x]), layer.w)
            a += layer.b
        h[k], c[k] = cell_forward(a, c[k])
        x = h[k]


def model_backward(cache: ForwardCache, note_targets: np.ndarray,
                   dur_targets: np.ndarray, params: ModelParams,
                   grads: ModelParams | None = None) -> dict[str, np.ndarray]:
    """Full BPTT from the two head losses. Returns {param name: gradient}
    for the batch-summed loss CE_note + CE_dur as views of ``grads``, which
    the pass overwrites (a new ``params.zeros_like()`` when not given).

    The pass consumes the cache: each layer's gate activations are
    overwritten with their gradients, and the cache is emptied at the end,
    so it backs exactly one backward pass.
    """
    if not cache.train or not cache.layers:
        raise StaleCache("backward needs the unused cache of a train-mode forward pass")
    note_targets = np.asarray(note_targets, dtype=np.int64).reshape(-1)
    dur_targets = np.asarray(dur_targets, dtype=np.int64).reshape(-1)
    B = cache.h_final.shape[0]
    if note_targets.shape[0] != B or dur_targets.shape[0] != B:
        raise ShapeMismatch("target count does not match batch size")
    rows = np.arange(B)
    L = cache.note_ids.shape[1]
    nv = params.w_note.shape[1]

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
        layer, lc, grad = params.layers[li], cache.layers[li], grads.layers[li]
        H = layer.hidden_size
        w_h, w_x = layer.w[:H], layer.w[H:]
        dh = dh_head if dh_in is None else np.zeros((B, H))
        dc = np.zeros((B, H))
        for t in range(L - 1, -1, -1):
            if dh_in is not None:
                dh += dh_in[t]
            a = lc.acts[t]
            f, i, o, g = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
            tanh_c = np.tanh(lc.c[t + 1])
            dc += dh * o * (1.0 - tanh_c ** 2)
            d_f = dc * lc.c[t] * f * (1.0 - f)
            d_i = dc * g * i * (1.0 - i)
            d_o = dh * tanh_c * o * (1.0 - o)
            d_g = dc * i * (1.0 - g ** 2)
            dc *= f
            a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:] = d_f, d_i, d_o, d_g
            if t:
                dh = matmul(a, w_h.T)

        d_acts = lc.acts.reshape(L * B, 4 * H)
        grad.w[:H] = matmul(lc.h[:-1].reshape(L * B, H).T, d_acts)
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
        below = cache.layers[li - 1]
        x = _dropped(below.h[1:], below.keep, cache.dropout)
        grad.w[H:] = matmul(x.reshape(L * B, -1).T, d_acts)
        x = dh_in = None  # free both before allocating the next dh_in
        dh_in = matmul(d_acts, w_x.T).reshape(L, B, -1)
        if below.keep is not None:
            dh_in *= below.keep
            dh_in *= 1.0 / (1.0 - cache.dropout)

    cache.layers = []
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
    config = replace(config, dropout=0.0)
    params = ModelParams.init(config, rng)
    L = config.window_len
    note_ids = np.array([[rng.randint(config.note_vocab_size) for _ in range(L)]])
    dur_ids = np.array([[rng.randint(config.dur_vocab_size) for _ in range(L)]])
    note_target = np.array([rng.randint(config.note_vocab_size)])
    dur_target = np.array([rng.randint(config.dur_vocab_size)])

    def loss() -> float:
        note_probs, dur_probs, _ = model_forward(
            note_ids, dur_ids, params, config, train=True)
        return (-np.log(note_probs[0, note_target[0]] + 1e-12)
                - np.log(dur_probs[0, dur_target[0]] + 1e-12))

    _, _, cache = model_forward(note_ids, dur_ids, params, config, train=True)
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

import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from midilstm import lstm, numerics
from midilstm.errors import IndexOutOfRange, ShapeMismatch, StaleCache, UsageError
from midilstm.lstm import (
    LstmLayerParams,
    ModelConfig,
    ModelParams,
    cell_forward,
    grad_check,
    heads,
    model_backward,
    model_forward,
    reference_check_config,
)
from midilstm.numerics import Rng


def zero_layer(input_size: int, hidden: int) -> LstmLayerParams:
    return LstmLayerParams(w=np.zeros((hidden + input_size, 4 * hidden)),
                           b=np.zeros((1, 4 * hidden)))


def pre_activations(layer: LstmLayerParams, x, h_prev) -> np.ndarray:
    return np.concatenate([h_prev, x], axis=1) @ layer.w + layer.b


def small_config(**overrides) -> ModelConfig:
    base = dict(note_vocab_size=6, dur_vocab_size=4, hidden_sizes=(8,),
                dropout=0.0, window_len=4)
    base.update(overrides)
    return ModelConfig(**base)


def random_inputs(config: ModelConfig, rng: Rng, batch: int = 1):
    L = config.window_len
    note = np.array([[rng.randint(config.note_vocab_size) for _ in range(L)]
                     for _ in range(batch)])
    dur = np.array([[rng.randint(config.dur_vocab_size) for _ in range(L)]
                    for _ in range(batch)])
    note_t = np.array([rng.randint(config.note_vocab_size) for _ in range(batch)])
    dur_t = np.array([rng.randint(config.dur_vocab_size) for _ in range(batch)])
    return note, dur, note_t, dur_t


def full_buffer_infer(note, dur, params, config):
    """The infer pass as it was before it kept only one layer alive: whole
    window gathers, and full h and c buffers for every layer."""
    nv = config.note_vocab_size
    B, L = note.shape
    x = None
    for layer in params.layers:
        H = layer.hidden_size
        w_h, w_x = layer.w[:H], layer.w[H:]
        if x is None:
            acts = w_x[note.T]
            acts += w_x[nv + dur.T]
        else:
            acts = (x.reshape(L * B, -1) @ w_x).reshape(L, B, 4 * H)
        acts += layer.b
        h, c = np.zeros((L + 1, B, H)), np.zeros((L + 1, B, H))
        for t in range(L):
            if t:
                acts[t] += h[t] @ w_h
            h[t + 1], c[t + 1] = cell_forward(acts[t], c[t])
        x = h[1:]
    return heads(x[-1].copy(), params)


class TestCellForward:
    def test_all_zero_params_zero_state(self):
        layer = zero_layer(3, 4)
        x = np.array([[1.0, 0.0, 0.0]])
        h, c = cell_forward(pre_activations(layer, x, np.zeros((1, 4))), np.zeros((1, 4)))
        assert np.array_equal(h, np.zeros((1, 4)))
        assert np.array_equal(c, np.zeros((1, 4)))

    def test_zero_params_halve_cell_state(self):
        # sigma(0) = 0.5 everywhere, candidate tanh(0) = 0:
        # c' = 0.5 c, h = 0.5 tanh(0.5 c)
        layer = zero_layer(2, 3)
        c_prev = np.array([[0.4, -1.2, 2.0]])
        x = np.zeros((1, 2))
        h, c = cell_forward(pre_activations(layer, x, np.zeros((1, 3))), c_prev)
        assert np.allclose(c, 0.5 * c_prev)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev))

    def test_saturated_forget_gate_keeps_cell_state(self):
        # large forget bias drives f -> 1, so c' -> c_prev + i*g (= c_prev
        # with zero weights making g = 0); the forget block is columns [0, H)
        layer = zero_layer(2, 3)
        layer.b[:, :3] += 50.0
        c_prev = np.array([[0.7, -0.3, 1.1]])
        a = pre_activations(layer, np.zeros((1, 2)), np.zeros((1, 3)))
        h, c = cell_forward(a, c_prev)
        assert np.max(np.abs(c - c_prev)) < 1e-9
        assert np.allclose(h, 0.5 * np.tanh(c_prev))

    def test_gate_ranges(self):
        rng = Rng(41)
        config = small_config(hidden_sizes=(8, 8))
        params = ModelParams.init(config, rng)
        note, dur, _, _ = random_inputs(config, rng)
        _, _, cache = model_forward(note, dur, params, train=True, dropout=config.dropout)
        assert len(cache.layers) == 2
        for layer in cache.layers:
            # columns: forget, input, output (sigmoid), then candidate (tanh)
            assert np.all((layer.acts[..., :24] > 0) & (layer.acts[..., :24] < 1))
            assert np.all(np.abs(layer.acts[..., 24:]) < 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):  # batch
            cell_forward(np.zeros((1, 12)), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):  # width
            cell_forward(np.zeros((2, 8)), np.zeros((2, 3)))


class TestModelForward:
    def test_infer_deterministic(self):
        rng = Rng(43)
        config = small_config(hidden_sizes=(8, 8), dropout=0.3)
        params = ModelParams.init(config, rng)
        note, dur, _, _ = random_inputs(config, rng)
        a = model_forward(note, dur, params)
        b = model_forward(note, dur, params)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_zero_dropout_train_equals_infer(self):
        rng = Rng(47)
        config = small_config(hidden_sizes=(8, 8), dropout=0.0)
        params = ModelParams.init(config, rng)
        note, dur, _, _ = random_inputs(config, rng)
        train_out = model_forward(note, dur, params, train=True, rng=Rng(1), dropout=config.dropout)
        infer_out = model_forward(note, dur, params)
        assert np.array_equal(train_out[0], infer_out[0])
        assert np.array_equal(train_out[1], infer_out[1])

    def test_infer_equals_full_buffer_pass_bitwise(self):
        rng = Rng(59)
        config = small_config(hidden_sizes=(8, 12, 8), window_len=7)
        params = ModelParams.init(config, rng)
        note, dur, _, _ = random_inputs(config, rng, batch=16)
        got = model_forward(note, dur, params)
        for g, w in zip(got, full_buffer_infer(note, dur, params, config)):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_infer_peak_memory_is_one_layer(self, monkeypatch, lanes):
        L, B, H = 20, 64, 64
        monkeypatch.setattr(numerics, "lanes", lambda: lanes)
        assert numerics.product_lanes(L * B, H, 4 * H) == lanes  # the upper input products
        config = small_config(note_vocab_size=30, dur_vocab_size=10, hidden_sizes=(H, H, H),
                              window_len=L)
        params = ModelParams.init(config, Rng(61))
        note, dur, _, _ = random_inputs(config, Rng(62), batch=B)
        model_forward(note, dur, params)  # starts the lane pool outside the traced pass
        tracemalloc.start()
        try:
            model_forward(note, dur, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one layer's (L, B, 4H) pre-activations and (L+1, B, H) hidden
        # states, plus a few per-step (B, H) arrays; keeping every layer's c
        # and a second whole-window gather took about twice this
        assert peak <= 8 * B * H * (4 * L + (L + 1) + 8)

    def test_dropout_changes_train_output(self):
        rng = Rng(53)
        config = small_config(hidden_sizes=(8, 8), dropout=0.5)
        params = ModelParams.init(config, rng)
        note, dur, _, _ = random_inputs(config, rng)
        a = model_forward(note, dur, params, train=True, rng=Rng(1), dropout=config.dropout)
        b = model_forward(note, dur, params)
        assert not np.array_equal(a[0], b[0])

    def test_output_rows_sum_to_one(self):
        rng = Rng(59)
        config = small_config(hidden_sizes=(8,))
        params = ModelParams.init(config, rng)
        note, dur, _, _ = random_inputs(config, rng, batch=5)
        note_probs, dur_probs, _ = model_forward(note, dur, params)
        assert note_probs.shape == (5, config.note_vocab_size)
        assert dur_probs.shape == (5, config.dur_vocab_size)
        assert np.max(np.abs(note_probs.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(dur_probs.sum(axis=1) - 1.0)) < 1e-12

    def test_id_out_of_range(self):
        rng = Rng(61)
        config = small_config()
        params = ModelParams.init(config, rng)
        note = np.array([[0, 1, 2, config.note_vocab_size]])
        dur = np.array([[0, 1, 2, 3]])
        with pytest.raises(IndexOutOfRange):
            model_forward(note, dur, params)

    def test_empty_window_is_shape_mismatch(self):
        params = ModelParams.init(small_config(), Rng(61))
        empty = np.zeros((2, 0), dtype=int)
        with pytest.raises(ShapeMismatch):
            model_forward(empty, empty, params)
        no_rows = np.zeros((0, 4), dtype=int)  # an empty batch of full windows still runs
        note_probs, dur_probs, _ = model_forward(no_rows, no_rows, params)
        assert note_probs.shape == (0, 6) and dur_probs.shape == (0, 4)

    @pytest.mark.parametrize("case", ["streams-differ", "dropout-without-rng",
                                      "target-count"])
    def test_bad_call_is_shape_mismatch(self, case):
        config = small_config(hidden_sizes=(8, 6), dropout=0.3)
        params = ModelParams.init(config, Rng(71))
        note, dur, note_t, dur_t = random_inputs(config, Rng(73), batch=2)
        if case == "streams-differ":
            with pytest.raises(ShapeMismatch, match="id streams differ"):
                model_forward(note, dur[:, 1:], params)
        elif case == "dropout-without-rng":
            with pytest.raises(ShapeMismatch, match="dropout needs an rng"):
                model_forward(note, dur, params, train=True, dropout=config.dropout)
        else:
            _, _, cache = model_forward(note, dur, params, train=True, rng=Rng(5),
                                        dropout=config.dropout)
            with pytest.raises(ShapeMismatch, match="target count"):
                model_backward(cache, note_t[:1], dur_t, params)

    def test_keep_masks_are_drawn_step_by_step_from_one_stream(self):
        L, B, sizes, drop = 5, 3, (8, 6, 4), 0.3
        config = small_config(hidden_sizes=sizes, dropout=drop, window_len=L)
        params = ModelParams.init(config, Rng(107))
        note, dur, _, _ = random_inputs(config, Rng(109), batch=B)
        rng, twin = Rng(5), Rng(5)
        _, _, cache = model_forward(note, dur, params, train=True, rng=rng, dropout=drop)
        # the same masks cut from one step-major block of L * B * sum(H) uniforms
        widths = [B * H for H in sizes[:-1]]
        block = twin.uniform_array(L * sum(widths)).reshape(L, -1)
        for lc, u in zip(cache.layers, np.split(block, np.cumsum(widths)[:-1], axis=1)):
            assert np.array_equal(lc.keep, u.reshape(L, B, -1) >= drop)
        assert cache.layers[-1].keep is None
        assert rng.next_u64() == twin.next_u64()

    def test_forget_bias_initialized_to_one(self):
        params = ModelParams.init(small_config(), Rng(67))
        named = dict(params.named_params())
        assert np.all(named["layer0.forget.b"] == 1.0)
        assert np.all(named["layer0.input.b"] == 0.0)


def finite_diff_grads(params, config, note, dur, note_t, dur_t, step=1e-5):
    def loss():
        np_, dp_, _ = model_forward(note, dur, params, train=True, dropout=config.dropout)
        rows = np.arange(note_t.shape[0])
        return float(np.sum(-np.log(np_[rows, note_t] + 1e-12)
                            - np.log(dp_[rows, dur_t] + 1e-12)))

    out = {}
    for name, arr in params.named_params():
        flat = arr.flat  # gate weights are views, reshape(-1) would copy
        grad = np.zeros(arr.size)
        for k in range(arr.size):
            orig = flat[k]
            flat[k] = orig + step
            up = loss()
            flat[k] = orig - step
            down = loss()
            flat[k] = orig
            grad[k] = (up - down) / (2 * step)
        out[name] = grad.reshape(arr.shape)
    return out


class TestBackward:
    def assert_matches_fd(self, config, seed, batch=1):
        rng = Rng(seed)
        params = ModelParams.init(config, rng)
        note, dur, note_t, dur_t = random_inputs(config, rng, batch=batch)
        _, _, cache = model_forward(note, dur, params, train=True, dropout=config.dropout)
        analytic = model_backward(cache, note_t, dur_t, params)
        numeric = finite_diff_grads(params, config, note, dur, note_t, dur_t)
        for name, _ in params.named_params():
            a, n = analytic[name], numeric[name]
            rel = np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-6)
            assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.2e}"

    def test_single_layer_matches_finite_differences(self):
        self.assert_matches_fd(small_config(), seed=71)

    def test_two_layers_match_finite_differences(self):
        self.assert_matches_fd(small_config(hidden_sizes=(8, 6), window_len=3), seed=73)

    def test_batch_matches_finite_differences(self):
        self.assert_matches_fd(small_config(window_len=3), seed=79, batch=3)

    def test_peaked_heads_give_zero_head_bias_grads(self):
        rng = Rng(83)
        config = small_config()
        params = ModelParams.init(config, rng)
        note, dur, note_t, dur_t = random_inputs(config, rng)
        params.w_note[...] = 0.0
        params.w_dur[...] = 0.0
        params.b_note[...] = 0.0
        params.b_dur[...] = 0.0
        params.b_note[0, note_t[0]] = 50.0
        params.b_dur[0, dur_t[0]] = 50.0
        _, _, cache = model_forward(note, dur, params, train=True, dropout=config.dropout)
        grads = model_backward(cache, note_t, dur_t, params)
        assert np.max(np.abs(grads["head_note.b"])) < 1e-9
        assert np.max(np.abs(grads["head_dur.b"])) < 1e-9

    def test_duplicated_sample_doubles_gradients(self):
        rng = Rng(89)
        config = small_config()
        params = ModelParams.init(config, rng)
        note, dur, note_t, dur_t = random_inputs(config, rng)
        _, _, cache1 = model_forward(note, dur, params, train=True, dropout=config.dropout)
        g1 = model_backward(cache1, note_t, dur_t, params)
        note2 = np.vstack([note, note])
        dur2 = np.vstack([dur, dur])
        _, _, cache2 = model_forward(note2, dur2, params, train=True, dropout=config.dropout)
        g2 = model_backward(cache2, np.repeat(note_t, 2), np.repeat(dur_t, 2), params)
        for name, _ in params.named_params():
            assert np.allclose(g2[name], 2.0 * g1[name], rtol=1e-12, atol=1e-12)

    def test_head_grads_independent_of_other_target(self):
        rng = Rng(93)
        config = small_config()
        params = ModelParams.init(config, rng)
        note, dur, note_t, dur_t = random_inputs(config, rng)
        _, _, cache = model_forward(note, dur, params, train=True, dropout=config.dropout)
        g1 = model_backward(cache, note_t, dur_t, params)
        other_dur_t = (dur_t + 1) % config.dur_vocab_size
        _, _, cache = model_forward(note, dur, params, train=True, dropout=config.dropout)
        g2 = model_backward(cache, note_t, other_dur_t, params)
        assert np.array_equal(g1["head_note.w"], g2["head_note.w"])
        assert np.array_equal(g1["head_note.b"], g2["head_note.b"])
        assert not np.array_equal(g1["head_dur.b"], g2["head_dur.b"])
        # trunk gradients do differ: the heads share it through the summed
        # backward signal
        assert not np.array_equal(g1["layer0.forget.w"], g2["layer0.forget.w"])

    @pytest.mark.parametrize("bad", [-1, "width"])
    @pytest.mark.parametrize("head", ["note", "duration"])
    def test_target_outside_its_head_is_index_out_of_range(self, head, bad):
        config = small_config(hidden_sizes=(8, 6), dropout=0.3)
        params = ModelParams.init(config, Rng(151))
        note, dur, note_t, dur_t = random_inputs(config, Rng(157), batch=3)
        targets = {"note": note_t.copy(), "duration": dur_t.copy()}
        width = {"note": config.note_vocab_size, "duration": config.dur_vocab_size}[head]
        targets[head][1] = width if bad == "width" else -1

        def fresh_cache():
            return model_forward(note, dur, params, train=True, rng=Rng(5),
                                 dropout=config.dropout)[2]

        cache = fresh_cache()
        with pytest.raises(IndexOutOfRange, match=rf"{head} target outside \[0, {width}\)"):
            model_backward(cache, targets["note"], targets["duration"], params)
        got = model_backward(cache, note_t, dur_t, params)  # the cache was left unused
        want = model_backward(fresh_cache(), note_t, dur_t, params)
        assert all(np.array_equal(got[name], w) for name, w in want.items())

    def test_infer_cache_is_stale(self):
        rng = Rng(97)
        config = small_config()
        params = ModelParams.init(config, rng)
        note, dur, note_t, dur_t = random_inputs(config, rng)
        _, _, cache = model_forward(note, dur, params, train=False)
        with pytest.raises(StaleCache):
            model_backward(cache, note_t, dur_t, params)

    def test_cache_backs_one_backward_pass(self):
        rng = Rng(99)
        config = small_config(hidden_sizes=(8, 6))
        params = ModelParams.init(config, rng)
        note, dur, note_t, dur_t = random_inputs(config, rng)
        _, _, cache = model_forward(note, dur, params, train=False)
        assert cache.layers == []  # infer mode keeps no per-step state
        _, _, cache = model_forward(note, dur, params, train=True, dropout=config.dropout)
        model_backward(cache, note_t, dur_t, params)
        with pytest.raises(StaleCache):
            model_backward(cache, note_t, dur_t, params)

    @pytest.mark.parametrize("fail_at", ["third", "next_to_last"])
    def test_backward_that_fails_part_way_leaves_a_stale_cache(self, monkeypatch, fail_at):
        rng = Rng(103)
        config = small_config(hidden_sizes=(8, 6))
        params = ModelParams.init(config, rng)
        note, dur, note_t, dur_t = random_inputs(config, rng)
        _, _, spare = model_forward(note, dur, params, train=True, dropout=config.dropout)
        _, _, cache = model_forward(note, dur, params, train=True, dropout=config.dropout)
        calls = []
        real = lstm.matmul

        def counting(a, b, **kwargs):
            calls.append(None)
            if len(calls) == stop:
                raise RuntimeError("injected failure")
            return real(a, b, **kwargs)

        stop = 0
        monkeypatch.setattr(lstm, "matmul", counting)
        model_backward(spare, note_t, dur_t, params)
        # the next-to-last call is a recurrent product of layer 0, after
        # layer 1's entry has been released
        stop = {"third": 3, "next_to_last": len(calls) - 1}[fail_at]
        calls.clear()
        with pytest.raises(RuntimeError):
            model_backward(cache, note_t, dur_t, params)
        assert len(calls) == stop
        with pytest.raises(StaleCache):
            model_backward(cache, note_t, dur_t, params)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_backward_releases_each_layer_once_past_it(self, monkeypatch, lanes):
        # distinct, so a recurrent product's weight names its layer, and
        # large enough that every layer's recurrence runs on both lanes
        sizes = (288, 272, 256)
        monkeypatch.setattr(numerics, "lanes", lambda: lanes)
        assert numerics.product_lanes(8, 4 * sizes[-1], sizes[-1]) == lanes
        config = small_config(hidden_sizes=sizes, dropout=0.3)
        rng = Rng(113)
        params = ModelParams.init(config, rng)
        note, dur, note_t, dur_t = random_inputs(config, rng, batch=8)
        _, _, cache = model_forward(note, dur, params, train=True, rng=Rng(5),
                                    dropout=config.dropout)

        def owner(a):  # the array that owns the memory, which any view keeps alive
            while a.base is not None:
                a = a.base
            return weakref.ref(a)

        refs = [owner(lc.acts) for lc in cache.layers]
        turns = []
        real = lstm.matmul

        def watching(a, b, **kwargs):
            for k, H in enumerate(sizes):
                if b.shape == (4 * H, H):  # layer k's recurrent product
                    turns.append((k, [r() is not None for r in refs]))
            return real(a, b, **kwargs)

        monkeypatch.setattr(lstm, "matmul", watching)
        model_backward(cache, note_t, dur_t, params)
        assert {k for k, _ in turns} == {0, 1, 2}
        for k, alive in turns:  # the gates of each layer at and below k, none above
            assert alive == [j <= k for j in range(len(sizes))], (k, alive)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_backward_rebuilds_the_forward_hidden_states_bitwise(self, monkeypatch, lanes):
        L, B, sizes, drop = 4, 8, (288, 272, 256), 0.3  # as above: both lanes run
        monkeypatch.setattr(numerics, "lanes", lambda: lanes)
        assert numerics.product_lanes(B, 4 * sizes[-1], sizes[-1]) == lanes
        config = small_config(hidden_sizes=sizes, dropout=drop, window_len=L)
        params = ModelParams.init(config, Rng(163))
        note, dur, note_t, dur_t = random_inputs(config, Rng(167), batch=B)
        h = {H: np.zeros((L + 1, B, H)) for H in sizes}  # each layer's forward h, h[0] = 0
        operands = []  # (a, b.shape) of each lane_product
        real_cell, real_product = lstm.cell_forward, lstm.lane_product

        def recording_cell(a, c_prev):  # a is the step's rows of an (L, B, 4H) array
            h_new, c = real_cell(a, c_prev)
            rows, H = c_prev.shape
            t, lo = divmod((a.ctypes.data - a.base.ctypes.data) // (8 * 4 * H), B)
            h[H][t + 1, lo:lo + rows] = h_new
            return h_new, c

        def recording_product(a, b, out):
            operands.append((a.copy(), b.shape))
            return real_product(a, b, out)

        monkeypatch.setattr(lstm, "cell_forward", recording_cell)
        monkeypatch.setattr(lstm, "lane_product", recording_product)
        _, _, cache = model_forward(note, dur, params, train=True, rng=Rng(5), dropout=drop)
        # the upper layers' inputs: each lower layer's dropped h, by its width
        dropped = {b[0]: a.reshape(L, B, -1) for a, b in operands}
        assert sorted(dropped) == sorted(sizes[:-1])
        operands.clear()
        model_backward(cache, note_t, dur_t, params)
        # the weight-gradient operands: a layer's h[0..L-1] (spent-slot h)
        # against its own gates, the layer below's dropped h against the next
        own, inputs = [], []
        for a, b in operands:
            if b[0] == L * B:
                (own if 4 * a.shape[0] == b[1] else inputs).append(a.T.reshape(L, B, -1))
        assert len(own) == len(sizes) and len(inputs) == len(sizes) - 1
        for got in own:
            assert np.array_equal(got, h[got.shape[2]][:-1])
        for got in inputs:
            assert np.array_equal(got, dropped[got.shape[2]])

    def test_train_cache_holds_gates_and_keep_mask_only(self):
        L, B, sizes = 5, 3, (8, 6, 4)
        config = small_config(hidden_sizes=sizes, dropout=0.3, window_len=L)
        params = ModelParams.init(config, Rng(107))
        note, dur, _, _ = random_inputs(config, Rng(109), batch=B)
        _, _, cache = model_forward(note, dur, params, train=True, rng=Rng(5),
                                    dropout=config.dropout)
        for k, (lc, H) in enumerate(zip(cache.layers, sizes)):
            assert sorted(vars(lc)) == ["acts", "keep"]
            keep = L * B * H if k < len(sizes) - 1 else 0  # a byte per flag; top h is not dropped
            arrays = [v for v in vars(lc).values() if isinstance(v, np.ndarray)]
            assert sum(a.nbytes for a in arrays) == 8 * L * B * 4 * H + keep

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_train_step_peak_memory(self, monkeypatch, lanes, dropout):
        L, B, H = 20, 64, 128  # H large enough for a recurrence on two lanes
        monkeypatch.setattr(numerics, "lanes", lambda: lanes)
        assert numerics.product_lanes(B, 4 * H, H) == lanes
        config = small_config(note_vocab_size=30, dur_vocab_size=10, hidden_sizes=(H, H, H),
                              window_len=L)
        params = ModelParams.init(config, Rng(61))
        grads = params.zeros_like()
        note, dur, note_t, dur_t = random_inputs(config, Rng(62), batch=B)
        tracemalloc.start()
        try:
            _, _, cache = model_forward(note, dur, params, train=True, rng=Rng(5),
                                        dropout=dropout)
            model_backward(cache, note_t, dur_t, params, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every layer's (L, B, 4H) gates, two (L+1, B, H) arrays (hidden or
        # cell states, an input gradient) and a few per-step (B, H) arrays;
        # caching every layer's h as well peaked above this
        assert peak <= 8 * B * H * (3 * 4 * L + 2 * (L + 1) + 16)

    def test_dropout_backward_matches_finite_differences(self):
        # freeze one dropout pattern by replaying the same rng stream
        config = small_config(hidden_sizes=(8, 6), dropout=0.4, window_len=3)
        rng = Rng(101)
        params = ModelParams.init(config, rng)
        note, dur, note_t, dur_t = random_inputs(config, rng)
        _, _, cache = model_forward(note, dur, params, train=True, rng=Rng(5), dropout=config.dropout)
        analytic = model_backward(cache, note_t, dur_t, params)

        def loss():
            np_, dp_, _ = model_forward(note, dur, params, train=True, rng=Rng(5),
                                        dropout=config.dropout)
            return float(-np.log(np_[0, note_t[0]] + 1e-12) - np.log(dp_[0, dur_t[0]] + 1e-12))

        step = 1e-5
        for name, arr in params.named_params():
            flat = arr.flat
            a_flat = analytic[name].reshape(-1)
            for k in range(0, arr.size, 7):  # sample every 7th entry for speed
                orig = flat[k]
                flat[k] = orig + step
                up = loss()
                flat[k] = orig - step
                down = loss()
                flat[k] = orig
                fd = (up - down) / (2 * step)
                rel = abs(a_flat[k] - fd) / max(abs(a_flat[k]) + abs(fd), 1e-6)
                assert rel < 1e-4, f"{name}[{k}]: rel err {rel:.2e}"


LANE_SIZES = (384, 256)  # a 2-row slice of layer 0's recurrence is a blocked-kernel product


def lane_pass(monkeypatch, lanes: int, batch: int, sizes=LANE_SIZES) -> list[np.ndarray]:
    """Infer-mode and train-mode probabilities, every layer's gates and keep
    mask, and every gradient of one batch, with the lane count forced to
    ``lanes``."""
    monkeypatch.setattr(numerics, "lanes", lambda: lanes)
    config = small_config(note_vocab_size=30, dur_vocab_size=10, hidden_sizes=sizes,
                          dropout=0.3, window_len=6)
    params = ModelParams.init(config, Rng(131))
    note, dur, note_t, dur_t = random_inputs(config, Rng(137), batch=batch)
    out = list(model_forward(note, dur, params)[:2])
    *probs, cache = model_forward(note, dur, params, train=True, rng=Rng(5),
                                  dropout=config.dropout)
    out += probs  # the gates are copied: backward overwrites them with their gradients
    out += [a.copy() for lc in cache.layers for a in (lc.acts, lc.keep) if a is not None]
    return out + list(model_backward(cache, note_t, dur_t, params).values())


class TestLanes:
    def test_split_rule(self, monkeypatch):
        monkeypatch.setattr(numerics, "lanes", lambda: 3)
        H = LANE_SIZES[0]
        assert [numerics.product_lanes(b, 4 * H, H) for b in (1, 2, 3, 4, 5, 6, 64)] == \
            [1, 1, 1, 2, 2, 3, 3]  # at least 2 rows a lane
        assert numerics.product_lanes(64, 4 * 64, 64) == 1  # 21 rows, a small-kernel product
        assert numerics.product_lanes(64, 4 * 128, 128) == 3
        assert numerics.product_lanes(64, 4 * 500, 500) == 1  # columns not a multiple of 8
        assert numerics.product_lanes(64, 500, 4 * 500) == 3
        monkeypatch.setattr(numerics, "lanes", lambda: 1)
        assert numerics.product_lanes(64, 4 * H, H) == 1

    # (384, 250): layer 1's backward products have 250 columns, which no
    # lane may split, while its forward and weight-gradient products split
    @pytest.mark.parametrize("sizes", [LANE_SIZES, (384, 250)])
    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 64])
    def test_forward_and_backward_do_not_depend_on_the_lane_count(self, monkeypatch, batch,
                                                                  sizes):
        want = lane_pass(monkeypatch, 1, batch, sizes)
        for lanes in (2, 3):
            got = lane_pass(monkeypatch, lanes, batch, sizes)
            assert len(got) == len(want)
            for k, (g, w) in enumerate(zip(got, want)):
                assert np.array_equal(g, w), (lanes, k)

    @pytest.mark.parametrize("stage", ["forward", "backward"])
    def test_a_lane_that_raises(self, monkeypatch, stage):
        monkeypatch.setattr(numerics, "lanes", lambda: 2)
        config = small_config(note_vocab_size=30, dur_vocab_size=10, hidden_sizes=LANE_SIZES,
                              dropout=0.3, window_len=6)
        params = ModelParams.init(config, Rng(139))
        note, dur, note_t, dur_t = random_inputs(config, Rng(149), batch=8)

        def step():
            *_, cache = model_forward(note, dur, params, train=True, rng=Rng(5),
                                      dropout=config.dropout)
            return cache, lambda: model_backward(cache, note_t, dur_t, params)

        want = step()[1]()
        real = lstm.matmul
        lane_calls, running = [], []

        def failing(a, b, **kwargs):  # the third product a lane thread runs raises
            if threading.current_thread().name.startswith("lane"):
                lane_calls.append(None)
                if len(lane_calls) == 3:
                    raise RuntimeError("injected lane failure")
            running.append(None)
            try:
                return real(a, b, **kwargs)
            finally:
                running.pop()

        if stage == "forward":
            monkeypatch.setattr(lstm, "matmul", failing)
            with pytest.raises(RuntimeError, match="injected"):
                step()
        else:
            cache, backward = step()
            monkeypatch.setattr(lstm, "matmul", failing)
            with pytest.raises(RuntimeError, match="injected"):
                backward()
            with pytest.raises(StaleCache):
                backward()
        assert len(lane_calls) >= 3 and running == []  # no product outlives the call
        monkeypatch.setattr(lstm, "matmul", real)
        got = step()[1]()
        assert all(np.array_equal(got[name], w) for name, w in want.items())


class TestGradCheck:
    def test_reference_config_passes(self):
        report = grad_check(reference_check_config(), Rng(42))
        assert report.passed
        assert report.max_rel_err < 1e-4
        assert report.n_params == 4658

    def test_impossible_tolerance_fails(self):
        report = grad_check(small_config(window_len=2), Rng(42), tolerance=0.0)
        assert not report.passed

    def test_deterministic(self):
        a = grad_check(small_config(window_len=2), Rng(7))
        b = grad_check(small_config(window_len=2), Rng(7))
        assert a == b


class TestParams:
    def test_named_params_order_stable(self):
        params = ModelParams.init(small_config(hidden_sizes=(8, 6)), Rng(3))
        names = [n for n, _ in params.named_params()]
        assert names[:4] == ["layer0.forget.w", "layer0.forget.b",
                             "layer0.input.w", "layer0.input.b"]
        assert names[-4:] == ["head_note.w", "head_note.b", "head_dur.w", "head_dur.b"]

    def test_param_count(self):
        config = reference_check_config()
        params = ModelParams.init(config, Rng(0))
        # layer0: 4*(16*(16+18)+16), layer1: 4*(16*32+16), heads: 16*12+12+16*6+6
        assert params.flat.size == 4 * (16 * 34 + 16) + 4 * (16 * 32 + 16) + 204 + 102

    def test_bad_config_rejected(self):
        with pytest.raises(UsageError):
            ModelConfig(0, 4).validate()
        with pytest.raises(UsageError):
            ModelConfig(4, 4, hidden_sizes=()).validate()
        with pytest.raises(UsageError):
            ModelConfig(4, 4, dropout=1.0).validate()

import ctypes
import functools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from midilstm import numerics
from midilstm.errors import ShapeMismatch
from midilstm.numerics import (
    BLOCK,
    AdamState,
    Rng,
    adam_step,
    derive_seed,
    global_norm,
    lane_product,
    matmul,
    product_lanes,
    run_lanes,
    sigmoid,
    softmax,
    xavier_init,
)

# first three outputs of the reference splitmix64 stream for seed 1234567
SPLITMIX_SEED = 1234567
SPLITMIX_REF = [6457827717110365317, 3203168211198807973, 9817491932198370423]


class TestRng:
    def test_reference_stream(self):
        rng = Rng(SPLITMIX_SEED)
        assert [rng.next_u64() for _ in range(3)] == SPLITMIX_REF

    def test_vector_path_matches_scalar(self):
        a, b = Rng(99), Rng(99)
        scalar = [a.uniform() for _ in range(100)]
        vector = b.uniform_array(100).tolist()
        assert scalar == vector
        # interleaving keeps the streams in sync too
        assert a.uniform() == b.uniform_array(1)[0]

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_blocked_fill_matches_whole_array_and_scalar(self, n):
        def whole_array(rng, n):
            """The unblocked fill: all n states at once, then the mix."""
            idx = np.arange(1, n + 1, dtype=np.uint64)
            z = np.uint64(rng._state) + np.uint64(0x9E3779B97F4A7C15) * idx
            rng._state = int(z[-1]) if n else rng._state
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
            return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

        blocked, whole, scalar = Rng(2**64 - 5), Rng(2**64 - 5), Rng(2**64 - 5)
        got = blocked.uniform_array(n)
        assert got.shape == (n,)
        assert got.tobytes() == whole_array(whole, n).tobytes()
        assert got.tolist() == [scalar.uniform() for _ in range(n)]
        assert blocked._state == whole._state == scalar._state
        assert blocked.next_u64() == scalar.next_u64()

    def test_same_seed_same_stream(self):
        assert [Rng(7).uniform() for _ in range(5)] == [Rng(7).uniform() for _ in range(5)]

    def test_uniform_range(self):
        rng = Rng(3)
        xs = rng.uniform_array(10_000)
        assert xs.min() >= 0.0
        assert xs.max() < 1.0

    def test_randint_range(self):
        rng = Rng(5)
        draws = [rng.randint(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_randint_bad_n(self):
        with pytest.raises(ValueError):
            Rng(0).randint(0)

    def test_shuffle_is_permutation(self):
        rng = Rng(11)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items

    def test_shuffle_deterministic(self):
        a, b = list(range(20)), list(range(20))
        Rng(1).shuffle(a)
        Rng(1).shuffle(b)
        assert a == b

    def test_derive_seed_labels_differ(self):
        seeds = {derive_seed(7, label) for label in ("shuffle", "dropout", "sampling.0",
                                                     "sampling.1", "seedwin", "init")}
        assert len(seeds) == 6

    def test_derive_seed_stable(self):
        assert derive_seed(7, "shuffle") == derive_seed(7, "shuffle")
        assert derive_seed(7, "shuffle") != derive_seed(8, "shuffle")


class TestMatmul:
    def test_identity(self):
        a = np.arange(9, dtype=np.float64).reshape(3, 3)
        assert np.array_equal(matmul(np.eye(3), a), a)

    def test_hand_case(self):
        assert matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])).tolist() == [[11.0]]

    def test_associativity(self):
        rng = Rng(13)
        for _ in range(20):
            a = rng.uniform_array(12).reshape(3, 4)
            b = rng.uniform_array(20).reshape(4, 5)
            c = rng.uniform_array(10).reshape(5, 2)
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.max(np.abs(left - right)) <= 1e-9 * max(1.0, np.max(np.abs(left)))


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array([[0.0]]))[0, 0] == 0.5

    def test_sigmoid_saturation_stays_finite(self):
        out = sigmoid(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-300)
        assert out[0, 1] == pytest.approx(1.0)

    def test_ranges(self):
        # strict bounds hold until float64 rounds onto the asymptote
        x = np.linspace(-18, 18, 201).reshape(1, -1)
        s = sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        # saturated values clamp to the closed interval, never beyond
        far = np.array([[-1e6, 1e6]])
        assert np.all((sigmoid(far) >= 0.0) & (sigmoid(far) <= 1.0))


class TestSoftmax:
    def test_uniform(self):
        assert softmax(np.array([3.0, 3.0, 3.0, 3.0])).tolist() == [0.25] * 4

    def test_analytic(self):
        out = softmax(np.array([math.log(2.0), 0.0]))
        assert out[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert out[1] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_large_logits_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_rows_sum_to_one(self):
        rng = Rng(17)
        logits = (rng.uniform_array(50).reshape(5, 10) - 0.5) * 20
        out = softmax(logits)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12

    def test_shift_invariance(self):
        rng = Rng(19)
        logits = (rng.uniform_array(16) - 0.5) * 8
        a = softmax(logits)
        b = softmax(logits + 123.456)
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12


class TestXavier:
    def test_deterministic(self):
        a = xavier_init(7, 5, Rng(23))
        b = xavier_init(7, 5, Rng(23))
        assert np.array_equal(a, b)

    def test_bound(self):
        rows, cols = 30, 20
        bound = math.sqrt(6.0 / (rows + cols))
        w = xavier_init(rows, cols, Rng(29))
        assert np.all(np.abs(w) <= bound)

    def test_sample_mean_within_3_sigma(self):
        rows, cols = 250, 400  # 1e5 draws
        n = rows * cols
        bound = math.sqrt(6.0 / (rows + cols))
        sigma_mean = bound / math.sqrt(3.0) / math.sqrt(n)
        w = xavier_init(rows, cols, Rng(31))
        assert abs(w.mean()) < 3.0 * sigma_mean

    def test_bad_dims(self):
        with pytest.raises(ShapeMismatch):
            xavier_init(0, 3, Rng(0))


def adam_reference(x0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Plain scalar transcription of the bias-corrected update rule."""
    x, m, v = x0, 0.0, 0.0
    history = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        history.append(x)
    return history


class TestAdam:
    def test_first_step_moves_by_lr(self):
        param = np.zeros((1, 1))
        state = AdamState(np.zeros_like(param), np.zeros_like(param))
        adam_step(param, np.array([[0.5]]), state, lr=0.01)
        assert param[0, 0] == pytest.approx(-0.01, rel=1e-7)
        assert state.t == 1

    def test_zero_grad_keeps_param(self):
        param = np.full((2, 2), 3.0)
        state = AdamState(np.zeros_like(param), np.zeros_like(param))
        adam_step(param, np.zeros((2, 2)), state, lr=0.1)
        assert np.array_equal(param, np.full((2, 2), 3.0))
        assert state.t == 1

    def test_matches_scalar_reference(self):
        rng = Rng(37)
        grads = [(u - 0.5) * 4 for u in rng.uniform_array(100)]
        expected = adam_reference(1.5, grads, lr=0.05)
        param = np.array([[1.5]])
        state = AdamState(np.zeros_like(param), np.zeros_like(param))
        for g, want in zip(grads, expected):
            adam_step(param, np.array([[g]]), state, lr=0.05)
            assert param[0, 0] == pytest.approx(want, rel=1e-12)

    def test_constant_grad_moves_monotonically(self):
        param = np.array([[0.0]])
        state = AdamState(np.zeros_like(param), np.zeros_like(param))
        values = []
        for _ in range(100):
            adam_step(param, np.array([[0.5]]), state, lr=0.01)
            values.append(param[0, 0])
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_shape_mismatch(self):
        param = np.zeros((2, 2))
        state = AdamState(np.zeros_like(param), np.zeros_like(param))
        with pytest.raises(ShapeMismatch):
            adam_step(param, np.zeros((2, 3)), state, lr=0.1)

    def test_non_contiguous_view_rejected(self):
        param = np.zeros((4, 4))[:, :2]  # an in-place update through a copy would be lost
        state = AdamState(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch):
            adam_step(param, np.zeros((4, 2)), state, lr=0.1)

    def test_blocked_update_matches_out_of_place_formula(self):
        n, lr = 2 * BLOCK + 3, 1e-3
        rng = Rng(41)
        param = rng.uniform_array(n) - 0.5
        state = AdamState(np.zeros_like(param), np.zeros_like(param))
        p, m, v = param.copy(), np.zeros(n), np.zeros(n)
        for t in (1, 2, 3):
            g = (rng.uniform_array(n) - 0.5) * 8.0
            if t == 2:  # a clipped step, scaled as the trainer scales it
                g *= 0.5 / float(np.sqrt(np.sum(g * g)))
            adam_step(param, g, state, lr)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            p = p - lr * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
            assert state.t == t
            assert param.tobytes() == p.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


def test_global_norm():
    grads = [np.array([[3.0]]), np.array([[4.0]])]
    assert global_norm(grads) == pytest.approx(5.0)


class TestLanes:
    @pytest.mark.parametrize("library", ["numpy", "plain-openblas", "no-setter", "no-library"])
    def test_lanes_take_every_core_once_blas_is_pinned(self, monkeypatch, library):
        real, pinned = ctypes.CDLL, []

        def setter(n):
            pinned.append(n)

        def cdll(path):  # numpy's own library, a stub, or none
            if library == "no-library":
                raise OSError(path)
            if library == "plain-openblas":  # exports only the unprefixed name
                return SimpleNamespace(openblas_set_num_threads=setter)
            return real(path) if library == "numpy" else object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(numerics, "_pin_blas", functools.cache(numerics._pin_blas.__wrapped__))
        cores = len(os.sched_getaffinity(0))
        assert numerics.lanes() == (1 if library.startswith("no-") else cores)
        assert pinned == ([1] if library == "plain-openblas" else [])

    def test_lanes_at_the_blas_default_and_at_one_blas_thread(self):
        # OPENBLAS_NUM_THREADS unset, at 1 and at 2: in each child, importing
        # numerics sets OpenBLAS to one thread, as its own getter reads back,
        # and the lanes take every usable core
        src = str(Path(numerics.__file__).parent.parent)
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        script = ("import ctypes, numpy as np\n"
                  "from midilstm.numerics import lanes\n"
                  "lib = ctypes.CDLL(np._core._multiarray_umath.__file__)\n"
                  "get = [getattr(lib, name) for name in ('scipy_openblas_get_num_threads64_',"
                  " 'openblas_get_num_threads') if hasattr(lib, name)][0]\n"
                  "print(lanes(), get())\n")
        cores = len(os.sched_getaffinity(0))
        for threads in (None, "1", "2"):
            child = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script], env=child,
                                  capture_output=True, text=True, timeout=60, check=True)
            assert proc.stdout.split() == [str(cores), "1"], threads

    def test_run_lanes_covers_the_range_once(self, monkeypatch):
        seen = []
        run_lanes(lambda lo, hi: seen.append((lo, hi)), 10, 3)
        assert sorted(seen) == [(0, 3), (3, 6), (6, 10)]
        seen.clear()
        run_lanes(lambda lo, hi: run_lanes(lambda a, b: seen.append((a, b)), hi - lo, 2), 8, 2)
        assert sorted(seen) == [(0, 4), (0, 4)]  # a lane's own pass runs on one slice

    def test_run_lanes_raises_a_lane_exception_after_every_lane_is_done(self):
        done = []

        def work(lo, hi):
            if lo == 4:
                raise RuntimeError("lane failure")
            done.append(lo)

        with pytest.raises(RuntimeError, match="lane failure"):
            run_lanes(work, 12, 3)
        assert sorted(done) == [0, 8]
        done.clear()
        run_lanes(lambda lo, hi: done.append(lo), 12, 3)  # nothing stale is raised
        assert sorted(done) == [0, 4, 8]

    def test_concurrent_callers_each_cover_their_range_once(self):
        # more lanes than cores, two caller threads and a short switch
        # interval: a lost or doubled slice would break the coverage
        seen = {0: [], 1: []}
        errors = []

        def caller(who):
            try:
                for _ in range(200):
                    got = []
                    run_lanes(lambda lo, hi: got.append((lo, hi)), 12, 4)
                    seen[who].append(sorted(got))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(w,)) for w in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        whole, split = [(0, 12)], [(0, 3), (3, 6), (6, 9), (9, 12)]
        for who in (0, 1):  # a caller that finds the lanes busy runs one slice
            assert len(seen[who]) == 200 and all(s in (whole, split) for s in seen[who])

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_adam_step_does_not_depend_on_the_lane_count(self, monkeypatch, lanes):
        n = 3 * BLOCK + 5
        rng = Rng(43)
        start, grads = rng.uniform_array(n) - 0.5, [rng.uniform_array(n) - 0.5 for _ in range(2)]
        results = []
        for count in (1, lanes):
            monkeypatch.setattr(numerics, "lanes", lambda: count)
            param, state = start.copy(), AdamState(np.zeros(n), np.zeros(n))
            for g in grads:
                adam_step(param, g, state, 1e-3)
            assert state.t == 2
            results.append((param.tobytes(), state.m.tobytes(), state.v.tobytes()))
        assert results[0] == results[1]

    # (a rows, inner, b cols, transposed a, lanes at 3): the edges of the split rule
    @pytest.mark.parametrize("m, k, n, transposed, split", [
        (1, 512, 512, False, 1),  # one row is a GEMV
        (2, 512, 2048, False, 1),  # at least 2 rows a lane
        (4, 1536, 384, False, 2),
        (64, 512, 500, False, 1),  # columns not a multiple of 8
        (64, 64, 64, False, 1),  # a small-kernel product
        (64, 512, 512, False, 3),
        (256, 300, 1024, True, 3),  # a weight gradient's x.T
    ])
    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_lane_product_equals_the_whole_product(self, monkeypatch, lanes, m, k, n,
                                                   transposed, split):
        monkeypatch.setattr(numerics, "lanes", lambda: lanes)
        assert product_lanes(m, k, n) == min(split, lanes)
        rng = Rng(47)
        a = rng.uniform_array(m * k).reshape((k, m) if transposed else (m, k)) - 0.5
        a = a.T if transposed else a
        b = rng.uniform_array(k * n).reshape(k, n) - 0.5
        out = np.empty((m, n))
        assert lane_product(a, b, out) is out
        assert np.array_equal(out, a @ b)

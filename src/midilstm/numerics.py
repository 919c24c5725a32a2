"""Dense float64 linear algebra, activations, init, Adam, and a
portable seeded RNG.

All numeric state lives in row-major ``numpy.float64`` arrays: 2-D for the
model code, 1-D for the whole-arena passes. Operations are deterministic:
identical inputs (and RNG seed) reproduce bit-identical outputs on the same
machine, which is what makes checkpoints and generated files reproducible.

The batch passes run on lanes: contiguous row slices of one batch, the
first on the calling thread and the others on one standard-library thread
pool, started by the first pass that splits (``run_lanes``). There are as
many lanes as the cores BLAS leaves idle (``lanes``), and a product is
split only where each slice rounds exactly as the whole does
(``product_lanes``), so the bytes do not depend on the lane count. A
product over all rows of a batch splits through ``lane_product``.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# loss floor so -log never sees an exact zero
CE_FLOOR = 1e-12
# values per pass of the whole-array kernels: their temporaries stay in cache
BLOCK = 1 << 16
# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
# OpenBLAS GEMM facts the lane and K splits keep the bytes through: products
# of at most SMALL_GEMM multiply-adds may take the small-matrix kernels
# (SkylakeX), which neither block K nor thread and round differently from the
# blocked kernels; those sum K in blocks of at most GEMM_Q rows, and round a
# slice's last rows differently from the whole's unless the product's column
# count is a multiple of GEMM_COLS
SMALL_GEMM = 100 ** 3
GEMM_Q = 384
GEMM_COLS = 8


def _mix64(z: int) -> int:
    """splitmix64 finalizer: xorshift-multiply mix of a 64-bit word."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, label: str) -> int:
    """Fan a master seed out to a named sub-seed (fixed FNV-1a + mix derivation)."""
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return _mix64((master ^ h) & _MASK64)


class Rng:
    """splitmix64 generator: 64-bit state advanced by a fixed odd constant,
    output is a xorshift-multiply mix of the state (Steele et al. 2014).

    The state being a plain counter makes the stream vectorizable, and the
    algorithm is integer-exact, so identical seeds give identical streams on
    every platform.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """One float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_array(self, n: int) -> np.ndarray:
        """The next ``n`` values of uniform(), and the same end state, mixed
        in place ``BLOCK`` states at a time (the state is a counter)."""
        out = np.empty(n)
        steps = np.arange(1, min(n, BLOCK) + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z, tmp = np.empty_like(steps), np.empty_like(steps)
        for start in range(0, n, BLOCK):
            zk, tk = z[:n - start], tmp[:n - start]
            self._state = int(np.add(steps[:zk.size], np.uint64(self._state), out=zk)[-1])
            for shift, mult in ((30, _MIX1), (27, _MIX2)):
                zk ^= np.right_shift(zk, np.uint64(shift), out=tk)
                zk *= np.uint64(mult)
            zk ^= np.right_shift(zk, np.uint64(31), out=tk)
            zk >>= np.uint64(11)
            np.multiply(zk, 2.0 ** -53, out=out[start:start + zk.size])
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n) via the multiply-shift range mapping."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def matmul(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Standard (m,k)x(k,n) product, written into ``out`` when given. Every
    model GEMM goes through this one named function so the benchmark's
    tracer can count GEMM calls and FLOPs by hooking it; numpy's ``matmul``
    itself rejects mismatched shapes."""
    return np.matmul(a, b, out=out)


def k_blocks(k: int, outputs: int) -> list[int]:
    """Bounds of the blocks in which OpenBLAS's serial driver sums a product
    over its ``k`` inner rows, for a product of ``outputs`` entries: GEMM_Q
    rows while at least 2*GEMM_Q remain, then a remainder r above GEMM_Q as
    roundup16(r/2) + rest. Threaded, the driver splits that remainder as
    ceil(r/2) + rest, so summing the blocks as separate products keeps the
    bytes at any thread count. One block, ``[0, k]``, where both drivers
    agree: k at most GEMM_Q or a multiple of 32, or a small-kernel product."""
    if k <= GEMM_Q or k % 32 == 0 or k * outputs <= SMALL_GEMM:
        return [0, k]
    bounds = [0]
    while k - bounds[-1] >= 2 * GEMM_Q:
        bounds.append(bounds[-1] + GEMM_Q)
    if k - bounds[-1] > GEMM_Q:
        bounds.append(bounds[-1] + ((k - bounds[-1]) // 2 + 15) // 16 * 16)
    return bounds + [k]


@functools.cache
def _blas_thread_probe():
    """OpenBLAS's get-num-threads function in numpy's own build, None when
    no probe answers."""
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        probe = getattr(lib, name, None)
        if probe is not None:
            probe.argtypes, probe.restype = [], ctypes.c_int
            return probe
    return None


def lanes() -> int:
    """How many lanes the batch passes may use: the usable cores divided by
    BLAS's own thread count, so lanes only fill cores BLAS leaves idle; 1
    when that count cannot be read."""
    probe = _blas_thread_probe()
    blas = probe() if probe is not None else 0
    if blas < 1:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cores or 1) // blas)


def product_lanes(rows: int, inner: int, cols: int) -> int:
    """Lanes for a (rows, inner) x (inner, cols) product split by its rows,
    such that each lane's slice rounds as the same rows of the whole do: at
    most ``lanes()``; 1 unless ``cols`` is a multiple of GEMM_COLS; at least
    2 rows a lane (a 1-row product is a GEMV); and more than SMALL_GEMM
    multiply-adds a lane, so that every slice, like the whole, takes the
    blocked kernels."""
    k = max(1, min(lanes(), rows // 2)) if cols % GEMM_COLS == 0 else 1
    while k > 1 and rows // k * inner * cols <= SMALL_GEMM:
        k -= 1
    return k


_pool = None  # runs the lanes after the first, started by the first pass that splits
_lanes_busy = threading.Lock()


def run_lanes(fn, n: int, k: int) -> None:
    """Run ``fn(lo, hi)`` on ``k`` contiguous slices of ``range(n)``, the
    first on the calling thread and the others on one thread pool. Returns
    once every lane is done, also when the caller's own slice raises, and
    then raises the first exception a lane raised. While another pass holds
    the lanes (a second caller thread, or a lane itself), ``fn`` runs on one
    slice, so no lane waits on itself. The bytes do not depend on the lane
    count."""
    global _pool
    if k <= 1 or not _lanes_busy.acquire(blocking=False):
        fn(0, n)
        return
    try:
        if _pool is None:  # imported here: it would add to every command's start-up
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(thread_name_prefix="lane")
        bounds = [n * i // k for i in range(k + 1)]
        futures = [_pool.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
        try:
            fn(bounds[0], bounds[1])
        finally:
            errors = [f.exception() for f in futures]  # no lane outlives the call
        for error in errors:
            if error is not None:
                raise error
    finally:
        _lanes_busy.release()


def lane_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = a @ b`` on lanes of a's rows (``product_lanes``); returns
    ``out``, which the caller allocates: an array a lane allocated would
    stay in its thread's malloc arena."""
    run_lanes(lambda lo, hi: matmul(a[lo:hi], b, out=out[lo:hi]),
              a.shape[0], product_lanes(a.shape[0], *b.shape))
    return out


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic as 0.5 * (1 + tanh(x / 2)): no overflow for
    large |x| and no branches. ``out`` may be ``x`` itself."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction. Accepts (n,) or (B, n)."""
    x = np.asarray(logits, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return out[0] if squeeze else out


def xavier_init(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """Uniform Glorot init on [-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))]."""
    if rows <= 0 or cols <= 0:
        raise ShapeMismatch(f"xavier_init needs positive dims, got {rows}x{cols}")
    u = rng.uniform_array(rows * cols)
    u *= 2.0
    u -= 1.0
    u *= np.sqrt(6.0 / (rows + cols))
    return u.reshape(rows, cols)


@dataclass
class AdamState:
    """First/second moment estimates for one parameter array, shaped like it."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of C-contiguous ``param``, in place,
    ``BLOCK`` values at a time, each lane over its own run of blocks:
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), each in that order."""
    arrays = (param, grad, state.m, state.v)
    if any(a.shape != param.shape or not a.flags.c_contiguous for a in arrays):
        raise ShapeMismatch(f"adam_step needs four C-contiguous {param.shape} arrays")
    state.t += 1
    b1, b2 = ADAM_B1, ADAM_B2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    p, g, m, v = (a.reshape(-1) for a in arrays)

    def update(first: int, last: int) -> None:  # blocks [first, last)
        buf1, buf2 = np.empty(min(p.size, BLOCK)), np.empty(min(p.size, BLOCK))
        for s in range(first * BLOCK, last * BLOCK, BLOCK):
            gs, ms, vs = g[s:s + BLOCK], m[s:s + BLOCK], v[s:s + BLOCK]
            t1, t2 = buf1[:gs.size], buf2[:gs.size]
            ms *= b1
            ms += np.multiply(gs, 1.0 - b1, out=t1)
            vs *= b2
            vs += np.multiply(np.multiply(gs, 1.0 - b2, out=t1), gs, out=t1)
            np.multiply(np.divide(ms, c1, out=t1), lr, out=t1)
            np.sqrt(np.divide(vs, c2, out=t2), out=t2)
            t2 += ADAM_EPS
            p[s:s + BLOCK] -= np.divide(t1, t2, out=t1)

    blocks = -(-p.size // BLOCK)
    run_lanes(update, blocks, min(lanes(), blocks))


def global_norm(grads) -> float:
    """L2 norm over a collection of arrays, accumulated in a fixed order."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    return float(np.sqrt(total))

"""Dense float64 linear algebra, activations, init, Adam, and a
portable seeded RNG.

All numeric state lives in row-major ``numpy.float64`` arrays: 2-D for the
model code, 1-D for the whole-arena passes. Operations are deterministic:
identical inputs (and RNG seed) reproduce bit-identical outputs on the same
machine, which is what makes checkpoints and generated files reproducible.
"""

from __future__ import annotations

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


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard (m,k)x(k,n) product. Every model GEMM goes through this one
    named function so the benchmark's tracer can count GEMM calls and FLOPs
    by hooking it; numpy's ``@`` itself rejects mismatched shapes."""
    return a @ b


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of C-contiguous ``param``, in place,
    ``BLOCK`` values at a time: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), each in that order."""
    arrays = (param, grad, state.m, state.v)
    if any(a.shape != param.shape or not a.flags.c_contiguous for a in arrays):
        raise ShapeMismatch(f"adam_step needs four C-contiguous {param.shape} arrays")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    p, g, m, v = (a.reshape(-1) for a in arrays)
    buf1, buf2 = np.empty(min(p.size, BLOCK)), np.empty(min(p.size, BLOCK))
    for s in range(0, p.size, BLOCK):
        gs, ms, vs = g[s:s + BLOCK], m[s:s + BLOCK], v[s:s + BLOCK]
        t1, t2 = buf1[:gs.size], buf2[:gs.size]
        ms *= b1
        ms += np.multiply(gs, 1.0 - b1, out=t1)
        vs *= b2
        vs += np.multiply(np.multiply(gs, 1.0 - b2, out=t1), gs, out=t1)
        np.multiply(np.divide(ms, c1, out=t1), lr, out=t1)
        np.sqrt(np.divide(vs, c2, out=t2), out=t2)
        t2 += state.eps
        p[s:s + BLOCK] -= np.divide(t1, t2, out=t1)


def global_norm(grads) -> float:
    """L2 norm over a collection of arrays, accumulated in a fixed order."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    return float(np.sqrt(total))

"""Dense float64 linear algebra, activations, init, Adam, and a
portable seeded RNG.

All numeric state lives in 2-D row-major ``numpy.float64`` arrays; these are
the only containers the model code uses. Operations are deterministic:
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

    def u64_array(self, n: int) -> np.ndarray:
        """Next ``n`` outputs as uint64, identical to ``n`` next_u64() calls."""
        idx = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self._state) + np.uint64(_GAMMA) * idx
        self._state = int(states[-1]) if n else self._state
        z = states
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform(self) -> float:
        """One float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_array(self, n: int) -> np.ndarray:
        return (self.u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

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


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.float64)


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
    bound = np.sqrt(6.0 / (rows + cols))
    u = rng.uniform_array(rows * cols)
    return ((u * 2.0 - 1.0) * bound).reshape(rows, cols)


@dataclass
class AdamState:
    """First/second moment estimates for one parameter matrix."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One bias-corrected Adam update. Mutates ``state``; returns the new param."""
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ShapeMismatch(
            f"adam_step shapes differ: param {param.shape}, grad {grad.shape}, m {state.m.shape}"
        )
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    return param - lr * m_hat / (np.sqrt(v_hat) + state.eps)


def global_norm(grads) -> float:
    """L2 norm over a collection of arrays, accumulated in a fixed order."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    return float(np.sqrt(total))

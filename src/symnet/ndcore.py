"""Dense float64 tensor helpers and a deterministic, splittable random source.

Every value flowing through the library is a C-order float64 ``numpy.ndarray``
(shape plus row-major flat data).  Randomness comes from a self-contained
xoshiro256** generator seeded through splitmix64, so identically seeded
draws reproduce bit for bit across runs, platforms and numpy versions.
Gradients are hand-derived per layer; there is no autodiff and no
broadcasting beyond what the fixed layer shapes need.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
INIT_HALF_WIDTH = 0.5  # weights start uniform in [-0.5, 0.5]


class ShapeError(ValueError):
    """Raised when tensor shapes do not satisfy an operation's contract."""


def tensor(data) -> np.ndarray:
    """Build a validated float64 array: C-order, finite everywhere."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("tensor: non-finite values")
    return arr


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function 1 / (1 + exp(-x)).

    Computed on the branch that never overflows, so large-magnitude inputs
    saturate cleanly to 0.0 / 1.0 instead of producing NaN.
    """
    arr = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(arr))
    return np.where(arr < 0.0, e / (1.0 + e), 1.0 / (1.0 + e))


def softmax(logits) -> np.ndarray:
    """Probability vector exp(x_i) / sum exp(x_j) over the last axis, max-subtracted for stability."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.shape == () or arr.shape[-1] < 1:
        raise ShapeError(f"softmax needs at least one logit along the last axis, got {arr.shape}")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)  # a row holding nan or +inf gives nan, not an error


def _mix64(x: int) -> int:
    """One splitmix64 output step; the core 64-bit avalanche mixer."""
    z = (x + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *parts: Union[int, str]) -> int:
    """Deterministically mix a master seed with labels into a child seed.

    Child streams derived with distinct part tuples are pairwise independent
    for practical purposes and identical across platforms.  Strings are
    absorbed as length-prefixed UTF-8 so that adjacent parts cannot alias.
    """
    h = _mix64(master_seed & _MASK64)
    for part in parts:
        if isinstance(part, str):
            raw = part.encode("utf-8")
            h = _mix64(h ^ len(raw))
            for i in range(0, len(raw), 8):
                chunk = int.from_bytes(raw[i : i + 8], "little")
                h = _mix64(h ^ chunk)
        else:
            h = _mix64(h ^ (int(part) & _MASK64))
    return h


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class SeededRng:
    """xoshiro256** stream, fully specified here for cross-platform stability.

    One instance per training run; never share an instance between runs or
    threads.  The four state words are expanded from the 64-bit seed with
    splitmix64, per the generator authors' seeding recommendation.
    """

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        # _mix64 is a bijection and these four inputs are distinct, so at most
        # one word is 0 and the state is never the all-zero one xoshiro forbids
        self._s = [_mix64((seed + i * _SPLITMIX_GAMMA) & _MASK64) for i in range(4)]

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Next double in [0, 1): the top 53 bits scaled by 2**-53."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16


def init_uniform(rng: SeededRng, shape: Sequence[int]) -> np.ndarray:
    """Tensor of i.i.d. uniform draws in [-INIT_HALF_WIDTH, +INIT_HALF_WIDTH].

    Consumes one rng draw per element in row-major order, so a given seed
    always yields the same tensor.
    """
    shape = tuple(int(d) for d in shape)
    n = math.prod(shape)
    values = np.fromiter((rng.uniform() for _ in range(n)), dtype=np.float64, count=n)
    return (2.0 * INIT_HALF_WIDTH * values - INIT_HALF_WIDTH).reshape(shape)

"""Deterministic float64 vector kernels and seeded randomness.

Every vector that crosses a module boundary in this package is a "Vec64":
a one-dimensional, C-contiguous numpy array of float64. Kernels never
mutate their inputs and always return fresh arrays, so results are safe to
share across threads.

Determinism contract: for a fixed build of numpy on a fixed platform, every
kernel here produces bit-identical output for bit-identical input. Reductions
(dot, l2_norm) use numpy's float64 kernels, whose accumulation order is fixed
for a given vector length; the same order applies to both argument positions
of dot, so dot(a, b) == dot(b, a) exactly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Prng", "as_vec64", "axpy", "dot", "gaussian", "l2_norm", "zeros"]


def as_vec64(data) -> np.ndarray:
    """Coerce a sequence of reals into a Vec64 (1-D contiguous float64)."""
    vec = np.ascontiguousarray(data, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"Vec64 must be one-dimensional, got shape {vec.shape}")
    return vec


def _is_int(value) -> bool:
    """An int that is not a bool: the only held_out that names one domain,
    the only value an integer config field takes, and the only domain index."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(ok: bool, name: str, expected: str, value) -> None:
    """Refuse value unless ok, by a ValueError "<name> must be <expected>, got
    <value>": how each config dataclass checks its fields' types. The config
    reader names the field by its key path instead: "optimizer.eta0: expected ..."."""
    if not ok:
        raise ValueError(f"{name} must be {expected}, got {value!r}")


def _as_float(value, name: str) -> float:
    """A float field's value as a float: an int or a float, not a bool, nor an
    int too large for a float. A NaN or infinity is left to the field's range check."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _as_tuple(value, name: str) -> tuple:
    """A sequence field's value, a list or a tuple, as a tuple."""
    _expect(isinstance(value, (list, tuple)), name, "a list", value)
    return tuple(value)


def _as_ints(values, name: str) -> np.ndarray:
    """values as int64: an integer or bool array as it is, with no reduction;
    any other must hold whole numbers in int64's range, or is refused by name."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return np.asarray(values, dtype=np.int64)
    floats = np.asarray(values, dtype=np.float64)
    whole = (floats == np.trunc(floats)) & (np.abs(floats) < 2.0**63)
    if not whole.all():
        raise ValueError(f"{name} must be whole numbers, got {float(floats[~whole].flat[0])}")
    return floats.astype(np.int64)


def zeros(n: int) -> np.ndarray:
    if n < 0:
        raise ValueError(f"vector length must be >= 0, got {n}")
    return np.zeros(n, dtype=np.float64)


def _check_equal_lengths(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: length mismatch {a.shape[0]} vs {b.shape[0]}")


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product sum(a[i] * b[i]) in float64.

    The accumulation order is the fixed order of numpy's dot kernel and is
    independent of argument position (elementwise products commute), so the
    result is symmetric in (a, b) bit-for-bit.
    """
    _check_equal_lengths(a, b, "dot")
    return float(np.dot(a, b))


def l2_norm(a: np.ndarray) -> float:
    """Euclidean norm computed as sqrt(dot(a, a)); 0.0 for the zero vector."""
    return math.sqrt(dot(a, a))


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Return alpha * x + y elementwise as a fresh Vec64."""
    _check_equal_lengths(x, y, "axpy")
    return alpha * x + y


class Prng:
    """Seeded 64-bit pseudo-random stream.

    Backed by numpy's PCG64 generator keyed through SeedSequence. Identical
    (seed, stream_id) always reproduces the identical draw sequence within
    one build of numpy; cross-version bit-equality is not promised and not
    needed. A Prng is single-owner mutable state: never share one instance
    across threads; give each worker its own (seed, stream_id) instead.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            _expect(_is_int(value) and value >= 0, f"Prng {name}", "a non-negative integer", value)
        self.seed, self.stream_id = seed, stream_id
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Prng(seed={self.seed}, stream_id={self.stream_id})"


def gaussian(prng: Prng, n: int) -> np.ndarray:
    """n standard-normal draws (numpy's ziggurat transform over PCG64 output).

    Advances the stream deterministically; n = 0 yields an empty Vec64.
    """
    if n < 0:
        raise ValueError(f"draw count must be >= 0, got {n}")
    return prng.generator.standard_normal(n)

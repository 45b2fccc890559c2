"""Truncated Fourier loops on the circle.

A `Loop` holds the Fourier coefficients of a map S^1 -> C^m truncated to
modes |n| <= n_max.  It is the finite-dimensional stand-in for a Sobolev
space of boundary loops: the norm is a weighted coefficient sum, and the
Hardy projections split strictly positive and strictly negative modes.

The one pointwise read, the sup norm of `extension.vprime_membership`,
samples on ``8*(n_max+1)`` points, `default_grid_size`, by plain FFT
synthesis (`_samples`), and keeps it in range through `_at_scale`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Loop",
    "sobolev_norm",
    "hardy_project",
    "default_grid_size",
]


@dataclass(frozen=True)
class Loop:
    """Truncated Fourier series of a map S^1 -> C^m.

    Attributes
    ----------
    m: int
        Target dimension (number of complex components).
    n_max: int
        Truncation order N; modes n = -N..N are stored.
    coeffs: ndarray of complex, shape (2*n_max+1, m)
        Row ``j`` holds the coefficient of ``exp(i*(j - n_max)*theta)``.
    """

    m: int
    n_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"target dimension m must be positive, got {self.m}")
        if self.n_max < 0:
            raise ValueError(f"truncation order must be nonnegative, got {self.n_max}")
        c = np.array(self.coeffs, dtype=complex)
        expect = (2 * self.n_max + 1, self.m)
        if c.shape != expect:
            raise ValueError(f"coefficient array has shape {c.shape}, expected {expect}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite (no NaN/Inf)")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def modes(self) -> np.ndarray:
        """Mode indices -n_max..n_max, aligned with the rows of ``coeffs``."""
        return np.arange(-self.n_max, self.n_max + 1)

    def mode(self, n: int) -> np.ndarray:
        """Coefficient vector of the mode ``n`` (zeros outside the truncation)."""
        if abs(n) > self.n_max:
            return np.zeros(self.m, dtype=complex)
        return self.coeffs[n + self.n_max]

    @classmethod
    def zeros(cls, m: int, n_max: int) -> "Loop":
        return cls(m, n_max, np.zeros((2 * n_max + 1, m), dtype=complex))

    @classmethod
    def from_modes(cls, m: int, n_max: int, entries: dict) -> "Loop":
        """Build a loop from a ``{mode: coefficient}`` dict.

        Scalar coefficients are broadcast to ``(m,)`` only when ``m == 1``.
        """
        c = np.zeros((2 * n_max + 1, m), dtype=complex)
        for n, v in entries.items():
            if abs(n) > n_max:
                raise ValueError(f"mode {n} outside truncation order {n_max}")
            v = np.atleast_1d(np.asarray(v, dtype=complex))
            if v.shape != (m,):
                raise ValueError(f"coefficient for mode {n} has shape {v.shape}, expected ({m},)")
            c[n + n_max] = v
        return cls(m, n_max, c)

    def with_coeffs(self, coeffs: np.ndarray) -> "Loop":
        return Loop(self.m, self.n_max, coeffs)


def default_grid_size(n_max: int) -> int:
    """Uniform sampling grid size for a loop of order ``n_max``, past the
    ``2*n_max + 1`` points that resolve it."""
    return 8 * (n_max + 1)


def sobolev_norm(loop: Loop, s: float) -> float:
    """Weighted-coefficient Sobolev norm ``sqrt(sum_n (1+|n|)^(2s) |c_n|^2)``
    of a loop over its stored modes, ``|c_n|`` the Euclidean norm in C^m and
    the smoothness exponent ``s >= 0``.  Zero iff all coefficients vanish;
    inf where the norm is past the float range."""
    if s < 0:
        raise ValueError(f"Sobolev exponent must be nonnegative, got {s}")
    return float(_sobolev_norms(loop.coeffs[None], s)[0])


def _sobolev_norms(stack: np.ndarray, s: float) -> np.ndarray:
    """`sobolev_norm` of each row of a stack, shape (T, 2N+1, m) -> (T,)."""
    return _ldexp(*_norm_pairs(stack, s))


def _norm_pairs(stack: np.ndarray, s: float, shift=None) -> tuple:
    """The Sobolev norms of the rows of ``stack * 2**shift`` as `_at_scale`
    pairs.  ``np.vecdot`` sums each row on its own, by the same BLAS dot
    as ``np.dot`` of that row with the weights, so a row's norm has the
    bits of that row's norm alone (a matmul over the stack would not)."""
    weights = _sobolev_weights(stack.shape[1] // 2, s)
    return _at_scale(lambda rows: np.sqrt(np.vecdot(_mode_power(rows), weights)), stack, shift)


_SMALL = 2.0 ** -480  # below this a row may hold a subnormal |c|^2


@np.errstate(over="ignore", invalid="ignore")
def _at_scale(plain, stack: np.ndarray, shift=None) -> tuple:
    """The one scale rule for norms: ``plain`` of each row of ``stack *
    2**shift`` as a pair ``(values, exps)`` for ``values * 2**exps``.

    ``plain`` maps a complex stack (T, ...) to one float per row and is
    homogeneous of degree one; ``shift`` holds integer exponents broadcast
    against ``stack``, with its leading axis.  A row that reads inf, nan or
    below ``_SMALL`` is taken again divided, exactly, by the power of two
    at its largest real or imaginary part (`_top_exponents`) and carries
    that exponent.  ``exps`` is None where no row was taken again.
    """
    values = plain(stack if shift is None else _ldexp(stack, shift))
    scan = values.tolist()  # Python's min and sum are the cheaper at T = 1; a nan row makes the sum nan
    if _SMALL <= min(scan) and sum(scan) < math.inf or not stack.any():
        return values, None
    odd = np.flatnonzero(~((_SMALL <= values) & (values < np.inf)))
    shift = 0 if shift is None else shift[odd]
    exps = np.zeros(len(values), dtype=int)
    rows = np.ascontiguousarray(stack[odd])  # the float views below need a contiguous last axis
    exps[odd] = top = _top_exponents(rows, shift)
    values[odd] = plain(_ldexp(rows, shift - top.reshape((-1,) + (1,) * (stack.ndim - 1))))
    return values, exps


def _top_exponents(rows: np.ndarray, shift=0) -> np.ndarray:
    """Per row of ``rows * 2**shift`` (complex, (T, ...)), the `np.frexp`
    exponent of its largest real or imaginary part; -2^20 for a zero row."""
    parts = rows.view(float)
    e = np.frexp(parts)[1] + np.asarray(shift, dtype=np.int32)
    return np.where(parts != 0, e, -(2 ** 20)).reshape(len(rows), -1).max(axis=1)


def _ldexp(x: np.ndarray, e) -> np.ndarray:
    """``x * 2**e`` (``x`` where ``e`` is None), a complex ``x`` part by
    part: exact in the normal float range, inf past it."""
    if e is None:
        return x
    with np.errstate(over="ignore"):
        return np.ldexp(x.view(float), e).view(x.dtype)


def _l2_rows(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a stack, with its rounding: the dot
    products of the flattened real and imaginary parts, row by row; a real
    stack has no imaginary part to add."""
    flat = stack.reshape(len(stack), -1)
    if flat.dtype == np.float64:
        return np.sqrt(np.vecdot(flat, flat))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


@functools.lru_cache(maxsize=64)
def _sobolev_weights(n_max: int, s: float) -> np.ndarray:
    """``(1 + |n|)^(2s)`` for n = -n_max..n_max (read-only, shared)."""
    weights = (1.0 + np.abs(np.arange(-n_max, n_max + 1))) ** (2.0 * s)
    weights.flags.writeable = False
    return weights


def _mode_power(coeffs: np.ndarray) -> np.ndarray:
    """Sums of |c|^2 over the last axis, inf past the float range (the
    callers silence the overflow).

    Below 8 terms the columns are added left to right, one ufunc add each,
    which is numpy's pairwise sum of so few terms bit for bit, without a
    reduction's overhead on every row; from 8 terms on, ``np.sum`` itself.
    The adds keep the stack's layout, so a column-major stack's sums are
    column-major too and each row's dot in `_norm_pairs` keeps its stride."""
    power = np.abs(coeffs) ** 2
    if power.shape[-1] >= 8:
        return np.sum(power, axis=-1)
    total = power[..., 0]
    for k in range(1, power.shape[-1]):
        total = total + power[..., k]
    return total


def _relative(parts, refs) -> np.ndarray:
    """``|parts|_s / (1 + max |refs|_s)`` for each row, from the `_norm_pairs`
    pairs taken of the parts and the references.

    ``|parts|_s`` is the root sum of squares of the norms of the parts.  The
    ratio is formed from the norms as floats, as `sobolev_norm` rounds them,
    so a row has the bits of the ratio of `sobolev_norm` values.  Where a
    norm or the ratio is past the float range, it is formed from the pairs:
    the parts at their largest exponent, the references at theirs (at least
    0, where the 1 counts), the quotient scaled back, and read as the
    largest float past the range, a lower bound failing every tolerance.
    """
    norms, exps = zip(*parts, *refs)
    k = len(parts)
    if all(e is None for e in exps):
        return functools.reduce(np.hypot, norms[:k]) / (1.0 + functools.reduce(np.maximum, norms[k:]))
    with np.errstate(over="ignore", invalid="ignore"):
        floats = [v if e is None else np.ldexp(v, e) for v, e in zip(norms, exps)]
        top = functools.reduce(np.maximum, floats[k:])
        ratio = functools.reduce(np.hypot, floats[:k]) / (1.0 + top)
    if np.isfinite(ratio).all() and np.isfinite(top).all():
        return ratio
    exps = [0 if e is None else e for e in exps]
    num_e, top_e = functools.reduce(np.maximum, exps[:k]), functools.reduce(np.maximum, exps[k:], 0)
    num = functools.reduce(np.hypot, [np.ldexp(v, e - num_e) for v, e in zip(norms[:k], exps[:k])])
    top_at = functools.reduce(np.maximum, [np.ldexp(v, e - top_e) for v, e in zip(norms[k:], exps[k:])])
    scaled = np.minimum(_ldexp(num / (np.ldexp(1.0, -top_e) + top_at), num_e - top_e), np.finfo(float).max)
    return np.where(np.isfinite(ratio) & np.isfinite(top), ratio, scaled)


def hardy_project(loop: Loop, side: str):
    """Hardy projection of a loop.

    ``side="plus"`` keeps modes n > 0, ``side="minus"`` keeps modes n < 0
    (each returning a `Loop`), and ``side="constant"`` returns the zeroth
    coefficient as a vector in C^m.  plus + constant + minus reassembles
    the input exactly.
    """
    N = loop.n_max
    if side == "constant":
        return loop.coeffs[N].copy()
    c = np.array(loop.coeffs)
    if side == "plus":
        c[: N + 1] = 0.0
    elif side == "minus":
        c[N:] = 0.0
    else:
        raise ValueError(f"side must be 'plus', 'minus' or 'constant', got {side!r}")
    return loop.with_coeffs(c)


def _samples(stack: np.ndarray, P: int) -> np.ndarray:
    """Each row of a stack (T, 2N+1, m) sampled at ``P >= 2N+1`` uniform
    angles ``theta_j = 2*pi*j/P`` (FFT synthesis), shape (T, P, m).

    A sample past the float range reads inf or NaN; the caller, the sup
    in `extension.vprime_membership`, scales through `_at_scale`."""
    spread = np.zeros((len(stack), P, stack.shape[2]), dtype=complex)
    spread[:, np.arange(-(stack.shape[1] // 2), stack.shape[1] // 2 + 1) % P] = stack
    return np.fft.ifft(spread, axis=1) * P


"""Truncated Fourier loops on the circle.

A `Loop` holds the Fourier coefficients of a map S^1 -> C^m truncated to
modes |n| <= n_max.  It is the finite-dimensional stand-in for a Sobolev
space of boundary loops: the norm is a weighted coefficient sum, the Hardy
projections split strictly positive and strictly negative modes, evaluation
off the unit circle is a truncated Laurent sum, and a winding number is
the count of zeros of ``x^N f(x)`` inside the unit disk minus N, checked
against the argument increments on an adaptively refined sample grid.

Pointwise reads (the winding number's argument count, the extension
tests' sup norm) sample on ``8*(n_max+1)`` points, `default_grid_size`,
by plain FFT synthesis (`_samples`); each caller keeps it in range.
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
    "laurent_eval",
    "winding_number",
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
    products of the flattened real and imaginary parts, row by row."""
    flat = stack.reshape(len(stack), -1)
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


def _relative(parts, refs, s: float | None = None) -> np.ndarray:
    """``|parts|_s / (1 + max |refs|_s)`` for each row of coefficient stacks,
    or, with ``s`` None, of the `_norm_pairs` pairs already taken of them.

    ``|parts|_s`` is the root sum of squares of the norms of the parts.
    Where a norm was
    taken at scale, the ratio is formed from the pairs: the parts at their
    largest exponent, the references at theirs (at least 0, where the 1
    counts), the quotient scaled back.  A ratio past the float range reads
    as the largest float, a lower bound failing every tolerance.
    """
    if s is not None:
        parts, refs = ([_norm_pairs(c, s) for c in group] for group in (parts, refs))
    norms, exps = zip(*parts, *refs)
    k = len(parts)
    if all(e is None for e in exps):
        return functools.reduce(np.hypot, norms[:k]) / (1.0 + functools.reduce(np.maximum, norms[k:]))
    exps = [0 if e is None else e for e in exps]
    num_e, top_e = functools.reduce(np.maximum, exps[:k]), functools.reduce(np.maximum, exps[k:], 0)
    num = functools.reduce(np.hypot, [np.ldexp(v, e - num_e) for v, e in zip(norms[:k], exps[:k])])
    top = functools.reduce(np.maximum, [np.ldexp(v, e - top_e) for v, e in zip(norms[k:], exps[k:])])
    return np.minimum(_ldexp(num / (np.ldexp(1.0, -top_e) + top), num_e - top_e), np.finfo(float).max)


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


def laurent_eval(loop: Loop, point: complex, r_in: float = 0.0, r_out: float = 1.0) -> np.ndarray:
    """Evaluate the truncated Laurent sum ``sum_n c_n x^n`` at ``x = point``.

    The point must lie in the closed annulus ``r_in <= |x| <= r_out`` with
    ``0 <= r_in < r_out <= 1``.  Evaluation at 0 requires all negative
    modes to vanish.
    """
    if not (0.0 <= r_in < r_out <= 1.0):
        raise ValueError(f"annulus radii must satisfy 0 <= r_in < r_out <= 1, got ({r_in}, {r_out})")
    x = complex(point)
    r = abs(x)
    if r < r_in or r > r_out:
        raise ValueError(f"point with |x|={r:.6g} outside annulus [{r_in}, {r_out}]")
    if x == 0:
        if np.any(loop.coeffs[: loop.n_max] != 0):
            raise ValueError("cannot evaluate negative modes at x=0")
        return loop.coeffs[loop.n_max].copy()
    powers = np.power(x, loop.modes)
    return powers @ loop.coeffs


def _samples(stack: np.ndarray, P: int) -> np.ndarray:
    """Each row of a stack (T, 2N+1, m) sampled at ``P >= 2N+1`` uniform
    angles ``theta_j = 2*pi*j/P`` (FFT synthesis), shape (T, P, m).

    A sample past the float range reads inf or NaN; the callers scale
    (`winding_number` by its top power of two, the sup in
    `extension.vprime_membership` through `_at_scale`)."""
    spread = np.zeros((len(stack), P, stack.shape[2]), dtype=complex)
    spread[:, np.arange(-(stack.shape[1] // 2), stack.shape[1] // 2 + 1) % P] = stack
    return np.fft.ifft(spread, axis=1) * P


def winding_number(loop: Loop, tol: float = 1e-9) -> int:
    """Winding number of a scalar loop about the origin: the number of
    roots of the polynomial ``x^N f(x)`` inside the unit disk (companion
    matrix eigenvalues, `np.roots`) minus N.  A root within ``tol`` of the
    circle, where it is not defined, a sample within ``tol`` of 0 and a
    count the argument principle (`_argument_count`) does not confirm are
    ValueErrors.  A loop with a part of modulus 1 or more is counted
    divided, exactly, by the power of two at its largest part: the roots
    and the argument are the same, and no sample, ratio or Horner sum
    passes the float range."""
    if loop.m != 1:
        raise ValueError("winding number requires a scalar loop (m=1)")
    top = max(int(_top_exponents(loop.coeffs[None])[0]), 0)
    f = _ldexp(loop.coeffs[:, 0], -top)
    roots = np.roots(f[::-1])
    if np.any(np.abs(np.abs(roots) - 1.0) <= tol):
        raise ValueError(f"loop has a zero within {tol} of the circle; winding number undefined")
    count = int(np.sum(np.abs(roots) < 1.0)) - loop.n_max
    vals = _samples(f[None, :, None], default_grid_size(loop.n_max))[0, :, 0]
    if np.min(np.abs(vals)) <= math.ldexp(tol, -top):
        raise ValueError(f"loop passes within {tol} of the origin; winding number undefined")
    by_argument = _argument_count(f, vals, roots)
    if count != by_argument:
        raise ValueError(f"zero count {count} disagrees with the argument principle ({by_argument})")
    return count


def _argument_count(f: np.ndarray, vals: np.ndarray, roots: np.ndarray) -> int:
    """The argument principle: the argument increments of the scalar loop
    with coefficients ``f`` (modes -N..N) between samples, summed and
    divided by 2*pi.  The samples start as ``vals`` on the uniform grid.
    On the circle ``|d arg f / d theta| <= N + sum_j 1/|x - r_j|`` over the
    ``roots`` of ``x^N f(x)``; an interval where that bound times its width
    is pi/2 or more is bisected (at most 64 times, past float resolution)
    until it is below, so each principal increment is the true one."""
    n_max = len(f) // 2
    edges = 2.0 * np.pi * np.arange(len(vals) + 1) / len(vals)
    left, right, f_left, f_right = edges[:-1], edges[1:], vals, np.roll(vals, -1)
    off_circle = np.abs(1.0 - np.abs(roots))
    total = 0.0
    for _ in range(64):
        mid = 0.5 * (left + right)
        x = np.exp(1j * mid)
        near = np.maximum(np.abs(x[:, None] - roots) - 0.5 * (right - left)[:, None], off_circle)
        sure = (right - left) * (n_max + np.sum(1.0 / near, axis=1)) < np.pi / 2
        total += float(np.sum(np.angle(f_right[sure] / f_left[sure])))
        if sure.all():
            return int(round(total / (2.0 * np.pi)))
        left, right, f_left, f_right, mid, x = (v[~sure] for v in (left, right, f_left, f_right, mid, x))
        f_mid = np.polyval(f[::-1], x) * x ** -n_max
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])
        f_left, f_right = np.concatenate([f_left, f_mid]), np.concatenate([f_mid, f_right])
    raise ValueError("argument increments not resolved after 64 bisections")

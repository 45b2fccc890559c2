"""Truncated Fourier loops on the circle.

A `Loop` holds the Fourier coefficients of a map S^1 -> C^m truncated to
modes |n| <= n_max.  It is the finite-dimensional stand-in for a Sobolev
space of boundary loops: the norm is a weighted coefficient sum, the Hardy
projections split strictly positive and strictly negative modes, evaluation
off the unit circle is a truncated Laurent sum, and winding numbers are
computed by argument increments on a uniform sample grid.

Pointwise operations (sampling, products, winding) use a grid of
``8*(n_max+1)`` points so that products of two loops of order n_max are
alias-free up to order 2*n_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Loop",
    "sobolev_norm",
    "hardy_project",
    "laurent_eval",
    "winding_number",
    "sample_values",
    "loop_from_samples",
    "multiply_loops",
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
    """Uniform sampling grid size; alias-free for products up to order 2*n_max."""
    return 8 * (n_max + 1)


def sobolev_norm(loop: Loop, s: float) -> float:
    """Weighted-coefficient Sobolev norm of a loop.

    Computes ``sqrt(sum_n (1+|n|)^(2s) |c_n|^2)`` over the stored modes,
    with ``|c_n|`` the Euclidean norm of the coefficient vector in C^m.

    Parameters
    ----------
    loop: Loop
    s: float
        Smoothness exponent, must be >= 0.

    Returns
    -------
    float
        The norm; zero iff all coefficients vanish.
    """
    if s < 0:
        raise ValueError(f"Sobolev exponent must be nonnegative, got {s}")
    weights = (1.0 + np.abs(loop.modes)) ** (2.0 * s)
    norm = float(np.sqrt(np.dot(weights, _mode_power(loop.coeffs))))
    if norm == np.inf:
        # |c|^2 overflowed (|c| >~ 1e154): rescale by the largest modulus,
        # as LAPACK nrm2 does, and take the norm of the scaled coefficients
        big = float(np.max(np.abs(loop.coeffs)))
        norm = big * float(np.sqrt(np.dot(weights, _mode_power(loop.coeffs / big))))
    return norm


# The decorator form costs less per call than a `with np.errstate(...)`
# block, and `sobolev_norm` runs hundreds of times per node-check job.
@np.errstate(over="ignore")
def _mode_power(coeffs: np.ndarray) -> np.ndarray:
    """Row sums of |c|^2.  A row past the float range reads inf, with no
    overflow warning; `sobolev_norm` then rescales."""
    return np.sum(np.abs(coeffs) ** 2, axis=1)


def _ratio_past_overflow(parts, refs, s: float) -> float:
    """``|parts|_s / (1 + max |refs|_s)`` when ``max |refs|_s`` is past the
    float range.

    There ``1 + max |refs|_s`` rounds to ``max |refs|_s``, and both norms
    scale alike, so the ratio is taken after dividing every loop by the
    largest coefficient modulus among them, where no reference norm
    overflows.  ``|parts|_s`` is the root sum of squares of the parts'
    norms.  Without this a finite defect over an infinite scale would read
    as residual 0.
    """
    big = max(float(np.max(np.abs(loop.coeffs))) for loop in (*parts, *refs))

    def norm(loop):
        return sobolev_norm(loop.with_coeffs(loop.coeffs / big), s)

    return float(np.hypot.reduce([norm(p) for p in parts]) / max(norm(r) for r in refs))


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


def sample_values(loop: Loop, n_points: int | None = None) -> np.ndarray:
    """Sample the loop at ``n_points`` uniform angles (FFT synthesis).

    Returns an array of shape ``(n_points, m)`` with values at
    ``theta_j = 2*pi*j/n_points``.  Requires ``n_points >= 2*n_max+1``.
    """
    P = default_grid_size(loop.n_max) if n_points is None else int(n_points)
    if P < 2 * loop.n_max + 1:
        raise ValueError(f"need at least {2 * loop.n_max + 1} samples, got {P}")
    spread = np.zeros((P, loop.m), dtype=complex)
    spread[loop.modes % P] = loop.coeffs
    return np.fft.ifft(spread, axis=0) * P


def loop_from_samples(values: np.ndarray, n_max: int) -> Loop:
    """Fit a loop of order ``n_max`` from uniform samples (exact if alias-free)."""
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    P, m = values.shape
    if P < 2 * n_max + 1:
        raise ValueError(f"need at least {2 * n_max + 1} samples to fit order {n_max}, got {P}")
    spectrum = np.fft.fft(values, axis=0) / P
    return Loop(m, n_max, spectrum[np.arange(-n_max, n_max + 1) % P])


def multiply_loops(a: Loop, b: Loop) -> Loop:
    """Pointwise product of two scalar loops, re-fit to order ``a.n_max + b.n_max``."""
    if a.m != 1 or b.m != 1:
        raise ValueError("pointwise products are defined for scalar loops (m=1)")
    order = a.n_max + b.n_max
    P = default_grid_size(order)
    va = sample_values(a, P)
    vb = sample_values(b, P)
    return loop_from_samples(va * vb, order)


def winding_number(loop: Loop, tol: float = 1e-9) -> int:
    """Winding number of a scalar loop about the origin.

    Sums argument increments over a uniform grid of ``8*(n_max+1)`` points
    and divides by 2*pi.  Rejects loops whose sampled modulus comes within
    ``tol`` of zero, where the winding number is not defined.
    """
    if loop.m != 1:
        raise ValueError("winding number requires a scalar loop (m=1)")
    vals = sample_values(loop)[:, 0]
    if np.min(np.abs(vals)) <= tol:
        raise ValueError(f"loop passes within {tol} of the origin; winding number undefined")
    increments = np.angle(np.roll(vals, -1) / vals)
    total = float(np.sum(increments)) / (2.0 * np.pi)
    return int(round(total))

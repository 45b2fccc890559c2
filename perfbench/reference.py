"""A fixed reference kernel that measures the machine's current speed.

The benchmark host shares its cores with other tenants; their load changes
how fast the same code runs by 20-50% within seconds to minutes, and it
slows this kernel by the same factor as the jobs around it (measured on
node-check jobs: window-to-window variation of 27% in job time, 3% in job
time over the bracketing reference time).  The kernel mixes what the
program spends its time on: per-mode Python loops over small numpy rows,
weighted norms, array validation, small complex SVDs, outer-product
accumulation and JSON parsing.  It never imports hardyglue, so a change to
the program cannot change it.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np


class Reference:
    """Inputs built once; `sample()` runs the kernel and returns seconds."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.n = 128
        self.coeffs = rng.standard_normal((2 * self.n + 1, 2)) + 1j * rng.standard_normal((2 * self.n + 1, 2))
        self.matrix = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
        self.text = json.dumps([[[float(v.real), float(v.imag)] for v in row] for row in self.coeffs])
        self.x = 0.7 * np.exp(2j * np.pi * np.arange(64) / 64)

    def sample(self) -> float:
        start = perf_counter()
        for _ in range(3):
            self._kernel()
        return perf_counter() - start

    def _kernel(self) -> None:
        n, c, z = self.n, self.coeffs, 0.6 + 0.3j
        defect = np.zeros_like(c)
        for k in range(1, n + 1):
            defect[n - k] = c[n - k] - z**k * c[n + k]
        weights = (1.0 + np.abs(np.arange(-n, n + 1))) ** 3.0
        float(np.sqrt(np.dot(weights, np.sum(np.abs(defect) ** 2, axis=1))))
        for row in c[:64]:
            checked = np.array(row, dtype=complex)
            bool(np.all(np.isfinite(checked)))
        for _ in range(3):
            np.linalg.svd(self.matrix, compute_uv=False)
        deriv = np.zeros((64, 2), dtype=complex)
        for k in range(1, 9):
            deriv += np.outer(k * self.x ** (k - 1), c[n + k])
        np.array(json.loads(self.text))

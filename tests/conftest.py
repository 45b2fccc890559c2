"""Tier-1 runs BLAS on one thread, as the benchmark does (see perfbench/README.md).

Where a machine's CPU quota is below the core count BLAS sees, a
multi-threaded LAPACK call can wait on a descheduled worker thread: on a
2-core shared VM the 42 SVDs of `cli.suite_index` took about 1.1 s instead
of 0.1 s in fresh processes started after an idle spell, past the 1.0 s
budget of acceptance criteria 1 and 2.  The variables take effect only if
they are set before numpy is first imported, which is why they live here.

The `term_by_term` fixture is the reference definition of a
`NodePolynomial`'s values, shared by the node and CLI tests.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402  (numpy reads the variables above on import)
import pytest  # noqa: E402


def _term_by_term(poly, x, y):
    """The definition of ``v(x, y)`` at one point, term by term: numpy-scalar
    powers ``x ** (i + 1)``, summed ``c``, then each row of ``a``, then each
    row of ``b``.  `NodePolynomial.__call__` must reproduce it bit for bit."""
    x, y = np.complex128(x), np.complex128(y)
    val = np.array(poly.c, dtype=complex)
    for i, row in enumerate(poly.a):
        val = val + row * x ** (i + 1)
    for j, row in enumerate(poly.b):
        val = val + row * y ** (j + 1)
    return val


@pytest.fixture
def term_by_term():
    """`_term_by_term`, the independent reference of a polynomial's values."""
    return _term_by_term

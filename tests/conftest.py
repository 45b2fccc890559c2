"""Tier-1 runs BLAS on one thread, as the benchmark does (see perfbench/README.md).

Where a machine's CPU quota is below the core count BLAS sees, a
multi-threaded LAPACK call can wait on a descheduled worker thread: on a
2-core shared VM the 42 SVDs of `cli.suite_index` took about 1.1 s instead
of 0.1 s in fresh processes started after an idle spell, past the 1.0 s
budget of acceptance criteria 1 and 2.  The variables take effect only if
they are set before numpy is first imported, which is why they live here.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

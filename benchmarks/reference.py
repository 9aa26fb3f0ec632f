"""A fixed reference kernel that gauges the host's speed during a run.

The kernel is owned by the benchmark and does not touch entqfi, so no
change to the program can move it.  It mixes the two kinds of work the
program does: six L-BFGS-B solves whose objective diagonalizes a 4x4
Hermitian matrix (Python- and scipy-bound, like the REE solver), and one
vectorized comparison over 245k pairs (numpy-bound, like the census).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

# The kernel's 10th-percentile time on an idle 2-core x86 VM (Python 3.11,
# numpy 2.4, scipy 1.17), the speed that reported times are scaled to.
NOMINAL_S = 0.006

_RNG = np.random.default_rng(20150428)
_A = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_H = _A + _A.conj().T
_STARTS = _RNG.standard_normal((6, 4))
_VALUES = _RNG.random(700)
_FIRST, _SECOND = np.triu_indices(len(_VALUES), k=1)


def _objective(x):
    """Top eigenvalue of H + diag(x) plus |x|^2/2, with its gradient."""
    vals, vecs = np.linalg.eigh(_H + np.diag(x))
    return float(vals[-1] + 0.5 * x @ x), np.abs(vecs[:, -1]) ** 2 + x


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    started = time.perf_counter()
    for start in _STARTS:
        minimize(_objective, start, jac=True, method="L-BFGS-B", options={"maxiter": 40})
    first, second = _VALUES[_FIRST], _VALUES[_SECOND]
    codes = np.where(np.abs(first - second) <= 1e-3, 1, np.where(first > second, 0, 2))
    np.bincount(codes, minlength=3)
    return time.perf_counter() - started

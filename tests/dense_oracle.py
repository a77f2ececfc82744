"""The independent reference for the tridiagonal solver's tests.

``dense_solve`` densifies the matrix and defers to LAPACK's pivoted Gaussian
elimination, a route that shares no code with the cyclic reduction it
checks.  It lives with the tests because no package path needs it.
"""

import numpy as np

from obstring.trisolve import Tridiagonal


def dense_solve(m: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Dense Gaussian-elimination reference solution (LAPACK, pivoted)."""
    return np.linalg.solve(m.dense(), np.asarray(rhs, float))

"""The scheme's step equation, evaluated on stored frames.

``scheme_residual`` substitutes a stride-1 run's frames back into the
step equation of ``obstring.fd_solver``; acceptance criterion 2 and the
solver's unit tests bound what is left.  It lives with the tests because no
package path needs it.
"""

import numpy as np

from obstring.core import FieldSeries, SimConfig


def scheme_residual(series: FieldSeries, cfg: SimConfig) -> np.ndarray:
    """Substitute stored frames back into the step equation.

    Requires consecutively stored frames (stride 1).  Returns the interior
    residual matrix for time levels i = 1..S-2: row k corresponds to level
    i = k+1 and should vanish up to the linear-solve rounding floor.
    """
    times = series.times
    dt = cfg.time.dt
    if not np.allclose(np.diff(times), dt, rtol=1e-12, atol=0.0):
        raise ValueError("scheme_residual needs stride-1 storage")
    eta = series.fields["eta"]
    force = series.penalty_force
    dx = cfg.grid.dx
    alpha = cfg.physics.alpha

    prev, curr, nxt = eta[:-2], eta[1:-1], eta[2:]

    def lap(mat):
        return (mat[:, 2:] - 2.0 * mat[:, 1:-1] + mat[:, :-2]) / dx**2

    return (
        (nxt[:, 1:-1] - 2.0 * curr[:, 1:-1] + prev[:, 1:-1]) / dt**2
        - (alpha / dt) * (lap(nxt) - lap(curr))
        - lap(nxt)
        - force[1:-1, 1:-1]
    )

"""The plain modal right-hand side that the spectral solver's kernel is checked against.

``modal_rhs`` is the textbook formula, term by term: two cutoff calls, one
per switch, and the state derivative joined by ``np.concatenate``.  The RK4
references of tests/test_galerkin.py step it, and a test holds the fused
kernel that ``galerkin.integrate`` calls to it.  It lives with the tests
because no package path needs it.
"""

import numpy as np

from obstring.galerkin import SmoothCutoff


def modal_rhs(y: np.ndarray, lam: np.ndarray, alam: np.ndarray, offset_h: float,
              shapes_q: np.ndarray, force_scale: float, cut_eta: SmoothCutoff,
              cut_vel: SmoothCutoff) -> np.ndarray:
    """y' = (qdot, qddot) at y = (q, qdot).

    alam = alpha * lam, shapes_q are the modes on the quadrature midpoints
    and force_scale = 2 / (quad_nodes * eps).  The force is skipped when
    sum |q_k| <= h, where it vanishes identically.
    """
    n = lam.size
    q, qdot = y[:n], y[n:]
    qddot = -alam * qdot - lam * q
    if float(np.sum(np.abs(q))) > offset_h:
        eta_q = offset_h + q @ shapes_q
        v_q = qdot @ shapes_q
        active = cut_eta(eta_q) * cut_vel(v_q) * v_q
        qddot -= force_scale * (shapes_q @ active)
    return np.concatenate((qdot, qddot))

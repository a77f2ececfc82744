"""Implicit finite-difference time stepping for the penalized string.

Interior nodes j = 1..N-1 advance through

    (eta^{i+1} - eta^i - dt v^i) / dt^2
        - (alpha/dt) * [(L eta^{i+1})_j - (L eta^i)_j]
        - (L eta^{i+1})_j  =  F^i_j,

    (L u)_j = (u_{j+1} - 2 u_j + u_{j-1}) / dx^2,
    F^i_j   = (1/eps) * [eta^i_j < 0] * max(0, -v^i_j),

with v^0 = v0 and the endpoints pinned to the initial displacement's
boundary values.  Subtracting the step matrix applied to eta^i leaves an
equation for the increment w = eta^{i+1} - eta^i = dt v^{i+1},

    A w = F^i + v^i/dt + L eta^i,        A = I/dt^2 - (alpha/dt + 1) L,

and w vanishes at the pinned ends, so no boundary value enters the
right-hand side.  Each step solves for the velocity v^{i+1} = w/dt and sets
eta^{i+1} = eta^i + dt v^{i+1}: the solve computes a small correction, not
a large total, so eta carries no cancellation of terms of size eta/dt^2.
The damped-wave left-hand side is implicit, so the linear part is
unconditionally stable and A is constant in time; the penalty force is
explicit in (eta^i, v^i).  Each step is one tridiagonal solve that reuses a
cyclic-reduction factorization computed once per run
(``trisolve.ThomasFactorization``).

``run`` is the one time loop; a run with ``output_stride = 1`` stores every
frame.
"""

from __future__ import annotations

import logging

import numpy as np

from .core import (
    FieldSeries,
    NumericBlowupError,
    SimConfig,
    evaluate_initial,
    penalty_force,
    stored_levels,
)
from .diagnostics import EnergyLedger
from .trisolve import ThomasFactorization, assemble_step_matrix

log = logging.getLogger(__name__)


def run(cfg: SimConfig) -> tuple[FieldSeries, EnergyLedger]:
    """Execute the configured experiment.

    The loop walks the time levels i = 0..M carrying (eta^i, v^i), with
    v^0 = v0.  At each level F^i = penalty_force(eta^i, v^i) is evaluated
    once and drives the step i -> i+1; the series derives it again.  Step
    0 -> 1 is the kinematic start-up v^1 = v0 on the interior and zero at
    the pinned ends (first order, like the scheme); every later step solves
    A (dt v^{i+1}) = F^i + v^i/dt + L eta^i for v^{i+1}.  Either way
    eta^{i+1} = eta^i + dt v^{i+1}, so the ends keep eta^0's values and each
    new level's velocity feeds its stored row, its force, the ledger and the
    next right-hand side.

    The loop steps on buffers allocated before it: two rolling (eta, v)
    levels, whose velocity ends stay +0.0, the force, and the right-hand
    side and Laplacian, each formed in place by the operations, in the
    order, of the plain expressions above, so every stored bit is theirs.
    A step still makes one penalty_force call, one solve (whose result is
    a new array) and one append_step.

    Fields are stored at core.stored_levels (every cfg.stride steps
    plus the final step), into arrays preallocated for them; the
    energy ledger gets one append_step per time step regardless of the
    stride, and its residual() closes to rounding.  A non-finite frame
    aborts with the offending step index.
    """
    grid, tgrid, physics = cfg.grid, cfg.time, cfg.physics
    dt, dx = tgrid.dt, grid.dx
    steps_m = tgrid.steps_m
    eta0, v0 = evaluate_initial(cfg.init, grid)

    factorization = ThomasFactorization(*assemble_step_matrix(grid, tgrid, physics))
    ledger = EnergyLedger(eta0, v0, cfg)

    levels = stored_levels(cfg)
    eta = np.empty((levels.size, eta0.size))
    velocity = np.empty_like(eta)

    log.info(
        "run: N=%d M=%d dt=%g alpha=%g eps=%g stride=%d",
        grid.cells_n, steps_m, dt, physics.alpha, physics.epsilon, cfg.stride,
    )

    # level i+1 goes into the pair that level i does not hold; eta0 is free
    # once stored and booked in the ledger, v0 (whose ends need not be 0)
    # is never written
    eta_levels = (eta0, np.empty_like(eta0))
    v_levels = (np.zeros_like(v0), np.zeros_like(v0))
    force = np.empty_like(eta0)
    rhs, lap = np.empty(eta0.size - 2), np.empty(eta0.size - 2)
    finite = np.empty(eta0.size, dtype=bool)
    dx2 = dx**2

    curr, v = eta0, v0
    row = 0
    for i in range(steps_m + 1):
        penalty_force(curr, v, physics.epsilon, out=force)
        if i == levels[row]:
            eta[row] = curr
            velocity[row] = v
            row += 1
        if i == steps_m:
            break

        nxt, v_next = eta_levels[(i + 1) % 2], v_levels[i % 2]
        if i == 0:
            v_next[1:-1] = v0[1:-1]
        else:
            # force + v/dt + (curr[2:] - 2 curr + curr[:-2]) / dx^2
            np.multiply(2.0, curr[1:-1], out=lap)
            np.subtract(curr[2:], lap, out=lap)
            lap += curr[:-2]
            lap /= dx2
            np.divide(v[1:-1], dt, out=rhs)
            np.add(force[1:-1], rhs, out=rhs)
            rhs += lap
            np.divide(factorization.solve(rhs), dt, out=v_next[1:-1])
        np.multiply(dt, v_next, out=nxt)
        np.add(curr, nxt, out=nxt)
        if not np.isfinite(nxt, out=finite).all():
            raise NumericBlowupError(i + 1)
        ledger.append_step(nxt, v_next, v, force)
        curr, v = nxt, v_next

    state = {"eta": eta, "velocity": velocity}
    return FieldSeries(levels * dt, grid.nodes(), state, physics.epsilon), ledger

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
import math

import numpy as np

from .core import (
    FieldSeries,
    NumericBlowupError,
    SimConfig,
    evaluate_initial,
    validate_config,
)
from .diagnostics import EnergyLedger
from .trisolve import ThomasFactorization, assemble_step_matrix

log = logging.getLogger(__name__)


def penalty_force(
    eta: np.ndarray, velocity: np.ndarray, epsilon: float
) -> np.ndarray:
    """Velocity-penalty force field F >= 0, zero at the boundary nodes.

    F_j = (1/epsilon) * [eta_j < 0] * max(0, -velocity_j), the paper's
    (1/eps) chi{eta < 0} (d_t eta)^-, at one time level (shape (nodes,))
    or at a stack of levels (shape (frames, nodes)), row by row the same
    bits.  Beside the returned array only the boolean indicator is
    allocated.

    The indicator is strict (nodes at exactly zero feel no force) and only
    downward motion is penalized, so the force is repulsive everywhere;
    every zero in it is +0.0.
    """
    # numpy would silently broadcast a length-1 velocity
    if np.shape(eta) != np.shape(velocity):
        raise ValueError("displacement and velocity have mismatched shapes")
    # 0 - v is -v, except that either signed zero gives +0.0 (np.negative
    # would give -0.0 for +0.0, and np.maximum may keep it)
    force = np.subtract(0.0, velocity)
    np.maximum(0.0, force, out=force)
    force /= epsilon
    force *= eta < 0.0
    force[..., 0] = force[..., -1] = 0.0
    return force


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
    force = series.fields["penalty_force"]
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


def run(cfg: SimConfig) -> tuple[FieldSeries, EnergyLedger]:
    """Execute the configured experiment.

    The loop walks the time levels i = 0..M carrying (eta^i, v^i), with
    v^0 = v0.  At each level F^i = penalty_force(eta^i, v^i) is evaluated
    once: it is stored with the level and drives the step i -> i+1.  Step
    0 -> 1 is the kinematic start-up v^1 = v0 on the interior and zero at
    the pinned ends (first order, like the scheme); every later step solves
    A (dt v^{i+1}) = F^i + v^i/dt + L eta^i for v^{i+1}.  Either way
    eta^{i+1} = eta^i + dt v^{i+1}, so the ends keep eta^0's values and each
    new level's velocity feeds its stored row, its force, the ledger and the
    next right-hand side.

    Fields are stored every output_stride steps plus step 0 and the final
    step, into arrays preallocated for 1 + ceil(M / stride) frames; the
    energy ledger gets one append_step per time step regardless of the
    stride, and its residual() closes to rounding.  A non-finite frame
    aborts with the offending step index.
    """
    cfg = validate_config(cfg)
    grid, tgrid, physics = cfg.grid, cfg.time, cfg.physics
    dt, dx = tgrid.dt, grid.dx
    steps_m, stride = tgrid.steps_m, cfg.output_stride
    eta0, v0 = evaluate_initial(cfg.init, grid)

    factorization = ThomasFactorization(*assemble_step_matrix(grid, tgrid, physics))
    ledger = EnergyLedger.open(eta0, v0, cfg)

    frames = 1 + math.ceil(steps_m / stride)
    times = np.empty(frames)
    eta = np.empty((frames, eta0.size))
    velocity = np.empty_like(eta)
    penalty = np.empty_like(eta)

    log.info(
        "run: N=%d M=%d dt=%g alpha=%g eps=%g stride=%d",
        grid.cells_n, steps_m, dt, physics.alpha, physics.epsilon, stride,
    )

    curr, v = eta0, v0
    row = 0
    for i in range(steps_m + 1):
        force = penalty_force(curr, v, physics.epsilon)
        if i % stride == 0 or i == steps_m:
            times[row] = i * dt
            eta[row] = curr
            velocity[row] = v
            penalty[row] = force
            row += 1
        if i == steps_m:
            break

        v_next = np.zeros_like(curr)
        if i == 0:
            v_next[1:-1] = v0[1:-1]
        else:
            rhs = (
                force[1:-1]
                + v[1:-1] / dt
                + (curr[2:] - 2.0 * curr[1:-1] + curr[:-2]) / dx**2
            )
            np.divide(factorization.solve(rhs), dt, out=v_next[1:-1])
        nxt = curr + dt * v_next
        if not np.all(np.isfinite(nxt)):
            raise NumericBlowupError(i + 1)
        ledger.append_step(nxt, v_next, v, force)
        curr, v = nxt, v_next

    fields = {"eta": eta, "velocity": velocity, "penalty_force": penalty}
    return FieldSeries(times=times, xs=grid.nodes(), fields=fields), ledger

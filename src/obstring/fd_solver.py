"""Implicit finite-difference time stepping for the penalized string.

Interior nodes j = 1..N-1 advance through

    (eta^{i+1} - 2 eta^i + eta^{i-1}) / dt^2
        - (alpha/dt) * [(L eta^{i+1})_j - (L eta^i)_j]
        - (L eta^{i+1})_j  =  F^i_j,

    (L u)_j = (u_{j+1} - 2 u_j + u_{j-1}) / dx^2,
    F^i_j   = (1/eps) * [eta^i_j < 0] * max(0, -(eta^i_j - eta^{i-1}_j)/dt),

with the endpoints pinned to the initial displacement's boundary values.
The damped-wave left-hand side is implicit, so the linear part is
unconditionally stable and the system matrix is constant in time; the
penalty force is explicit from the previous level.  Each step is one
tridiagonal solve with a factorization computed once per run.

``run`` is the one time loop and there is no single-step API
(``core.StringState``, ``first_step`` and ``step`` were removed); a run with
``output_stride = 1`` stores every frame.
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
    eta_curr: np.ndarray, eta_prev: np.ndarray, dt: float, epsilon: float
) -> np.ndarray:
    """Velocity-penalty force field F >= 0, zero at the boundary nodes.

    F_j = (1/epsilon) * [eta_curr_j < 0] * max(0, -(eta_curr_j - eta_prev_j)/dt).

    The indicator is strict (nodes at exactly zero feel no force) and only
    downward motion is penalized, so the force is repulsive everywhere.
    """
    if len(eta_curr) != len(eta_prev):
        raise ValueError("displacement frames have mismatched lengths")
    v = (eta_curr - eta_prev) / dt
    force = np.where(eta_curr < 0.0, np.maximum(0.0, -v) / epsilon, 0.0)
    force[0] = 0.0
    force[-1] = 0.0
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

    The loop walks the time levels i = 0..M holding two frames, prev and
    curr.  At each level F^i = penalty_force(curr, prev) is evaluated once:
    it is stored with the level and drives the step i -> i+1.  Level 0
    pairs eta0 with the synthetic previous frame eta0 - dt*v0, so its
    stored force carries (v0)^-.  Step 0 -> 1 is the kinematic start-up
    eta^1 = eta^0 + dt*v0 with the endpoints pinned (first order, like the
    scheme); every later step is one tridiagonal solve.

    Fields are stored every output_stride steps plus step 0 and the final
    step, into arrays preallocated for 1 + ceil(M / stride) frames; the
    energy ledger gets one append_step per time step regardless of the
    stride, and its residual() closes to rounding.  A non-finite frame
    aborts with the offending step index.
    """
    cfg = validate_config(cfg)
    grid, tgrid, physics = cfg.grid, cfg.time, cfg.physics
    dt, dx, alpha = tgrid.dt, grid.dx, physics.alpha
    steps_m, stride = tgrid.steps_m, cfg.output_stride
    eta0, v0 = evaluate_initial(cfg.init, grid)

    factorization = ThomasFactorization(assemble_step_matrix(grid, tgrid, physics))
    ledger = EnergyLedger.open(eta0, v0, cfg)
    coupling = (alpha / dt + 1.0) / dx**2

    frames = 1 + math.ceil(steps_m / stride)
    times = np.empty(frames)
    eta = np.empty((frames, eta0.size))
    velocity = np.empty_like(eta)
    penalty = np.empty_like(eta)

    log.info(
        "run: N=%d M=%d dt=%g alpha=%g eps=%g stride=%d",
        grid.cells_n, steps_m, dt, alpha, physics.epsilon, stride,
    )

    prev, curr = eta0 - dt * v0, eta0
    row = 0
    for i in range(steps_m + 1):
        force = penalty_force(curr, prev, dt, physics.epsilon)
        if i % stride == 0 or i == steps_m:
            times[row] = i * dt
            eta[row] = curr
            velocity[row] = v0 if i == 0 else (curr - prev) / dt
            penalty[row] = force
            row += 1
        if i == steps_m:
            break

        nxt = np.empty_like(curr)
        nxt[0], nxt[-1] = eta0[0], eta0[-1]
        if i == 0:
            nxt[1:-1] = eta0[1:-1] + dt * v0[1:-1]
        else:
            rhs = (
                force[1:-1]
                + (2.0 * curr[1:-1] - prev[1:-1]) / dt**2
                - (alpha / dt) * ((curr[2:] - 2.0 * curr[1:-1] + curr[:-2]) / dx**2)
            )
            rhs[0] += coupling * eta0[0]
            rhs[-1] += coupling * eta0[-1]
            nxt[1:-1] = factorization.solve(rhs)
        if not np.all(np.isfinite(nxt)):
            raise NumericBlowupError(i + 1)
        ledger.append_step(curr, nxt, force)
        prev, curr = curr, nxt

    fields = {"eta": eta, "velocity": velocity, "penalty_force": penalty}
    return FieldSeries(times=times, xs=grid.nodes(), fields=fields), ledger

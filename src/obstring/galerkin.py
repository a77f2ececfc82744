"""Sine-mode spectral solver used to cross-check the finite-difference scheme.

The displacement is expanded as eta(t, x) = h + sum_k q_k(t) sin(k pi x / l)
over the first n modes, which pins eta = h at both ends exactly.  Projecting
the damped wave equation onto the modes gives

    qddot_k = -alpha * lam_k * qdot_k - lam_k * q_k + f_k,
    lam_k   = (k pi / l)^2,

where f_k is the modal projection of a smoothed velocity penalty

    f(x) = -(1/eps) * cut_eta(eta(x)) * cut_vel(v(x)) * v(x),

with one-sided C^2 cutoffs that switch on only for negative displacement
and negative velocity.  Without the penalty the modes decouple into damped
oscillators with a closed-form 2x2 flow map.  Each reporting step starts
with a certificate: with alpha >= 0 the free modal energy
qdot_k^2 + lam_k q_k^2 never grows, so if sum_k sqrt(q_k^2 + qdot_k^2/lam_k)
<= h the displacement stays nonnegative for the whole step, the penalty is
identically zero and the flow map takes the step exactly.  Every other step
is taken by an error-controlled Dormand-Prince 5(4) pair (rtol = atol =
1e-8 on the largest scaled component of (q, qdot)), which puts its substeps
where the penalty switches on; its last substep lands exactly on the end of
the reporting step, and its last stage is reused as the first stage of the
next step (FSAL) while consecutive steps stay uncertified.  The modal
force integral uses composite midpoint quadrature, under which the sine
modes are exactly orthogonal, so projection and reconstruction round-trip
exactly.

This solver shares no code with the finite-difference path on purpose:
agreement between the two is used as evidence that both discretize the
same dynamics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    FieldSeries,
    NumericBlowupError,
    SimConfig,
    initial_callables,
    validate_config,
)

log = logging.getLogger(__name__)

__all__ = ["SmoothCutoff", "integrate"]


@dataclass(frozen=True)
class SmoothCutoff:
    """One-sided C^2 switch: 1 for x <= -a, 0 for x >= 0.

    The transition on (-a, 0) is the quintic smoothstep
    S(s) = s^3 (10 - 15 s + 6 s^2) evaluated at s = -x/a, which has two
    vanishing derivatives at both ends of the ramp.
    """

    a: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("cutoff width must be positive")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        s = np.clip(-np.asarray(x, dtype=float) / self.a, 0.0, 1.0)
        return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def _frequencies(n_modes: int, length_l: float) -> np.ndarray:
    k = np.arange(1, n_modes + 1)
    return (k * math.pi / length_l) ** 2


def _mode_matrix(n_modes: int, length_l: float, xs: np.ndarray) -> np.ndarray:
    k = np.arange(1, n_modes + 1)[:, None]
    shapes = np.sin(k * math.pi * xs[None, :] / length_l)
    # sin(k*pi) rounds to ~1e-16, not 0; pin the ends so reconstruction
    # honors eta(0) = eta(l) = offset_h exactly
    shapes[:, (xs == 0.0) | (xs == length_l)] = 0.0
    return shapes


def _midpoints(quad_nodes: int, length_l: float) -> np.ndarray:
    return (np.arange(quad_nodes) + 0.5) * (length_l / quad_nodes)


def _modal_accel(
    q: np.ndarray,
    qdot: np.ndarray,
    lam: np.ndarray,
    alam: np.ndarray,
    offset_h: float,
    shapes_q: np.ndarray,
    force_scale: float,
    cutoff_eta: SmoothCutoff,
    cutoff_vel: SmoothCutoff,
) -> np.ndarray:
    """qddot of the modal system from invariants hoisted by the caller.

    alam = alpha * lam, shapes_q are the modes on the quadrature midpoints
    and force_scale = 2 / (quad_nodes * eps).  When sum |q_k| <= h the
    displacement cannot be negative anywhere and the force vanishes
    identically, which is detected without quadrature.
    """
    dqdot = -alam * qdot - lam * q
    if float(np.sum(np.abs(q))) > offset_h:
        eta_q = offset_h + q @ shapes_q
        v_q = qdot @ shapes_q
        active = cutoff_eta(eta_q) * cutoff_vel(v_q) * v_q
        dqdot -= force_scale * (shapes_q @ active)
    return dqdot


def _project(values: np.ndarray, shapes: np.ndarray, quad_nodes: int) -> np.ndarray:
    return (2.0 / quad_nodes) * (shapes @ values)


def _mode_flow(lam: float, alam: float, h: float) -> tuple[float, float, float, float]:
    """Entries (p11, p12, p21, p22) of exp(h [[0, 1], [-lam, -alam]]).

    With tau = -alam / 2 and s = sqrt(tau^2 - lam) the eigenvalues are
    tau +- s and exp(h A) = e^{tau h} [cosh(s h) I + sinh(s h) / s (A - tau I)].
    """
    tau = -0.5 * alam
    disc = tau * tau - lam
    z = h * math.sqrt(abs(disc))
    if disc < 0.0 or z <= 1.0:
        # underdamped (cos, sin) or near critical (cosh, sinh with z <= 1):
        # nothing overflows and sin(z)/z, sinh(z)/z lose no digits
        if z == 0.0:
            c, sinc = 1.0, 1.0
        elif disc < 0.0:
            c, sinc = math.cos(z), math.sin(z) / z
        else:
            c, sinc = math.cosh(z), math.sinh(z) / z
        decay = math.exp(tau * h)
        ch = decay * c
        sh = decay * h * sinc  # e^{tau h} sinh(s h) / s
        return ch - tau * sh, sh, -lam * sh, ch + tau * sh
    # overdamped with s h > 1: e^{tau h} cosh(s h) is 0 * inf for stiff
    # modes, so combine the two decaying exponentials directly.  tau - s
    # has no cancellation; the slow root follows from mu_fast * mu_slow = lam.
    mu_fast = tau - math.sqrt(disc)
    mu_slow = lam / mu_fast
    e_fast = math.exp(mu_fast * h)
    e_slow = math.exp(mu_slow * h)
    gap = mu_slow - mu_fast
    p12 = (e_slow - e_fast) / gap
    return ((mu_slow * e_fast - mu_fast * e_slow) / gap, p12, -lam * p12,
            (mu_slow * e_slow - mu_fast * e_fast) / gap)


def _free_propagator(lam: np.ndarray, alam: np.ndarray, h: float) -> np.ndarray:
    """Exact penalty-free flow over time h, shape (4, n_modes).

    Rows are p11, p12, p21, p22: q(h) = p11 q + p12 qdot and
    qdot(h) = p21 q + p22 qdot, mode by mode.
    """
    return np.array([_mode_flow(float(lk), float(ak), h) for lk, ak in zip(lam, alam)]).T


def _free_amplitude_bound(q: np.ndarray, qdot: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Bound on |q_k(t)| for all later t of the penalty-free flow.

    With alpha >= 0 the modal energy qdot^2 + lam q^2 never grows, so
    lam q_k(t)^2 <= qdot_k^2 + lam q_k^2.
    """
    return np.hypot(q, qdot / np.sqrt(lam))


# Dormand & Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2).  Row j gives the weights of stages 1..j+1 for stage j+2;
# the last row is the fifth-order solution, whose right-hand side is the
# seventh stage and the first stage of the next step (FSAL).
_DP_A = np.array([
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
# fifth- minus fourth-order weights over all seven stages
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
# relative and absolute tolerance of the mixed error norm, the largest
# scaled component over (q, qdot)
_TOL = 1e-8
# step-size controller: safety factor and the clamps on one change of h
_SAFETY, _GROW, _SHRINK = 0.9, 5.0, 0.2
# a trial step below this fraction of the span means the solution blew up
_MIN_STEP = 1e-12


class _DormandPrince:
    """Error-controlled Dormand-Prince 5(4) integrator of y' = f(y).

    The trial step size h and the right-hand side k1 at the last accepted
    state carry over from one advance() to the next; whoever moves the
    state by other means sets k1 to None.
    """

    def __init__(self, f, h: float):
        self.f = f
        self.h = h
        self.k1: np.ndarray | None = None
        self.accepted = 0
        self.rejected = 0

    def advance(self, y: np.ndarray, span: float, index: int) -> np.ndarray:
        """The state a time span after y; the last step lands on span exactly.

        A non-finite error estimate or a step below _MIN_STEP * span raises
        NumericBlowupError(index).
        """
        k = np.empty((7, y.size))
        k[0] = self.f(y) if self.k1 is None else self.k1
        done = 0.0
        while done < span:
            # stretch by up to 1 % rather than leave a sliver of a step
            landing = 1.01 * self.h >= span - done
            step = span - done if landing else self.h
            if step < _MIN_STEP * span:
                raise NumericBlowupError(index)
            for j in range(6):
                y_new = y + step * (_DP_A[j, : j + 1] @ k[: j + 1])
                k[j + 1] = self.f(y_new)
            scale = _TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
            err = float(np.max(np.abs(step * (_DP_E @ k)) / scale))
            if not math.isfinite(err):
                raise NumericBlowupError(index)
            if err <= 1.0:
                self.accepted += 1
                done = span if landing else done + step
                y = y_new
                k[0] = k[6]
            else:
                self.rejected += 1
            if err <= (_SAFETY / _GROW) ** 5:
                self.h = _GROW * step
            else:
                self.h = max(_SHRINK, _SAFETY * err ** -0.2) * step
        self.k1 = k[0]
        return y


def integrate(cfg: SimConfig, n_modes: int) -> FieldSeries:
    """Integrate the modal system and sample fields on the reference grid.

    The config is validated as fd_solver.run validates it, and frames are
    stored at its output_stride (plus the final step), so the two solvers
    report the same instants.  Initial data must take the same value at
    both ends (the expansion cannot represent unequal pinned boundaries).
    The penalty integral uses 4*n_modes midpoints and a velocity cutoff of
    width 1/n_modes.  A reporting step dt whose start certifies
    sum_k sqrt(q_k^2 + qdot_k^2 / lam_k) <= h cannot reach the penalty
    and is taken exactly by the closed-form free propagator; any other
    step is taken by error-controlled Dormand-Prince 5(4) substeps at the
    module tolerance _TOL, the last one clipped to land on (i + 1) dt.  The
    trial substep and the last stage carry over between consecutive such
    steps.  A non-finite state or error estimate, or a substep that
    underflows, raises NumericBlowupError with the reporting step.  The
    counts of exact and adaptive steps are logged at INFO.
    """
    if n_modes < 1:
        raise ConfigurationError("need at least one mode")
    cfg = validate_config(cfg)
    grid, time, physics = cfg.grid, cfg.time, cfg.physics

    l = grid.length_l
    eta_fn, v_fn = initial_callables(cfg.init, grid)
    ends = np.asarray(eta_fn(np.array([0.0, l])), dtype=float)
    scale = max(1.0, abs(ends[0]))
    if abs(ends[1] - ends[0]) > 1e-12 * scale:
        raise ConfigurationError(
            f"boundary values differ ({ends[0]:g} vs {ends[1]:g}); "
            "the spectral solver needs equal pinned ends"
        )
    offset_h = float(ends[0])

    quad_nodes = 4 * n_modes
    xq = _midpoints(quad_nodes, l)
    shapes_q = _mode_matrix(n_modes, l, xq)
    q = _project(np.asarray(eta_fn(xq), float) - offset_h, shapes_q, quad_nodes)
    qdot = _project(np.asarray(v_fn(xq), float), shapes_q, quad_nodes)

    lam = _frequencies(n_modes, l)
    alam = physics.alpha * lam
    force_scale = 2.0 / (quad_nodes * physics.epsilon)
    cut_eta = SmoothCutoff(physics.epsilon)
    cut_vel = SmoothCutoff(1.0 / n_modes)

    def rhs(y: np.ndarray) -> np.ndarray:
        q, qdot = y[:n_modes], y[n_modes:]
        return np.concatenate((qdot, _modal_accel(q, qdot, lam, alam, offset_h,
                                                  shapes_q, force_scale, cut_eta,
                                                  cut_vel)))

    dt = time.dt
    p11, p12, p21, p22 = _free_propagator(lam, alam, dt)
    stepper = _DormandPrince(rhs, dt)

    xs = grid.nodes()
    shapes_x = _mode_matrix(n_modes, l, xs)
    stride = cfg.output_stride
    frames = 1 + math.ceil(time.steps_m / stride)
    stored_times = np.empty(frames)
    stored_eta = np.empty((frames, xs.size))
    stored_vel = np.empty((frames, xs.size))
    stored_force = np.empty((frames, xs.size))

    def sample(row: int, index: int):
        eta = offset_h + q @ shapes_x
        vel = qdot @ shapes_x
        stored_times[row] = index * dt
        stored_eta[row] = eta
        stored_vel[row] = vel
        stored_force[row] = -(cut_eta(eta) * cut_vel(vel) * vel) / physics.epsilon

    sample(0, 0)
    row = 1
    free_steps = 0
    for i in range(time.steps_m):
        if float(np.sum(_free_amplitude_bound(q, qdot, lam))) <= offset_h:
            q, qdot = p11 * q + p12 * qdot, p21 * q + p22 * qdot
            stepper.k1 = None
            free_steps += 1
        else:
            y = stepper.advance(np.concatenate((q, qdot)), dt, i + 1)
            q, qdot = y[:n_modes], y[n_modes:]
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
            raise NumericBlowupError(i + 1)
        if (i + 1) % stride == 0 or (i + 1) == time.steps_m:
            sample(row, i + 1)
            row += 1
    log.info("integrate: %d exact free steps, %d accepted and %d rejected "
             "adaptive steps", free_steps, stepper.accepted, stepper.rejected)

    return FieldSeries(
        times=stored_times,
        xs=xs,
        fields={"eta": stored_eta, "velocity": stored_vel, "penalty_force": stored_force},
    )

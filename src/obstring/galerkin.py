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
where the penalty switches on and grows no step right after a rejection;
its last substep lands on the end of the reporting step, and its last
stage is the next step's first (FSAL) while steps stay uncertified.  The
modal force integral uses composite midpoint quadrature, under which the
sine modes are exactly orthogonal, so projection and reconstruction
round-trip exactly; one product gives eta and v on the midpoints, and one
cutoff call on the width-scaled pair switches both.

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
        # a fresh array, also for scalar x; maximum(0.0, s) is np.clip's, bit for bit
        s = np.asarray(np.asarray(x, dtype=float) / -self.a)
        np.maximum(0.0, s, out=s)
        np.minimum(s, 1.0, out=s)
        ramp = s * 6.0
        ramp += -15.0
        ramp *= s
        ramp += 10.0
        ramp *= s * s * s
        return ramp


# both cutoffs of the penalty run as this one on width-scaled arguments
_UNIT_CUTOFF = SmoothCutoff(1.0)


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


def _modal_accel(y: np.ndarray, out: np.ndarray, rates: np.ndarray, offset_h: float,
                 shapes_q: np.ndarray, load_q: np.ndarray, widths: np.ndarray) -> None:
    """Write y' = (qdot, qddot) of the modal system at y = (q, qdot) into out.

    From invariants hoisted by the caller: rates = -(lam, alpha lam),
    shapes_q the modes on the midpoints, load_q = 2 / (quad_nodes eps)
    shapes_q and widths the column of cutoff widths.  When sum |q_k| <= h
    the displacement cannot be negative and the force vanishes identically.
    """
    state, slope = y.reshape(2, -1), out.reshape(2, -1)
    slope[0] = state[1]
    np.add.reduce(rates * state, axis=0, out=slope[1])
    if np.add.reduce(np.abs(state[0])) > offset_h:
        eta_v = state @ shapes_q
        eta_v[0] += offset_h
        active = np.multiply.reduce(_UNIT_CUTOFF(eta_v / widths))
        active *= eta_v[1]
        slope[1] -= load_q @ active


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


def _free_amplitude_bound(q: np.ndarray, qdot: np.ndarray, root_lam: np.ndarray) -> np.ndarray:
    """Bound on |q_k(t)| for all later t of the penalty-free flow.

    With alpha >= 0 the modal energy qdot^2 + lam q^2 never grows, so
    lam q_k(t)^2 <= qdot_k^2 + lam q_k^2; root_lam = sqrt(lam).
    """
    return np.hypot(q, qdot / root_lam)


# Dormand & Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2) as weights over a buffer of rows y, k1..k7.  Row j weighs
# k1..k(j+1) into stage j+2's argument (y's weight 1 is set per step); row 5
# is the fifth-order solution, whose right-hand side k7 is the next step's
# k1 (FSAL); the last row is the fifth- minus fourth-order weights.
_DP_W = np.array([
    [0, 1 / 5, 0, 0, 0, 0, 0, 0],
    [0, 3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [0, 44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [0, 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [0, 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [0, 35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    [0, 71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
])
# relative and absolute tolerance of the mixed error norm, the largest
# scaled component over (q, qdot)
_TOL = 1e-8
# step-size controller: safety factor and the clamps on one change of h
_SAFETY, _GROW, _SHRINK = 0.9, 5.0, 0.2
# a trial step below this fraction of the span means the solution blew up
_MIN_STEP = 1e-12


class _DormandPrince:
    """Error-controlled Dormand-Prince 5(4) integrator of y' = f(y).

    f(y, out) writes y' into out.  The trial step size h and the
    right-hand side k1 at the last accepted state carry over from one
    advance() to the next; whoever moves the state by other means sets k1
    to None.  As Hairer, Norsett & Wanner advise (Section II.4), the step
    after a rejected one may not grow.
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
        # rows y, k1..k7; stages not yet computed are finite and weigh 0,
        # because a non-finite stage makes the error estimate non-finite
        buf = np.zeros((8, y.size))
        buf[0] = y
        if self.k1 is None:
            self.f(y, buf[1])
        else:
            buf[1] = self.k1
        y, y_new = buf[0], np.empty_like(y)
        done, retry = 0.0, False
        while done < span:
            # stretch by up to 1 % rather than leave a sliver of a step
            landing = 1.01 * self.h >= span - done
            step = span - done if landing else self.h
            if step < _MIN_STEP * span:
                raise NumericBlowupError(index)
            weights = step * _DP_W
            weights[:6, 0] = 1.0
            for w, k in zip(weights[:6], buf[2:]):
                np.dot(w, buf, out=y_new)
                self.f(y_new, k)
            scale = _TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
            err = float((np.abs(weights[6] @ buf) / scale).max())
            if not math.isfinite(err):
                raise NumericBlowupError(index)
            grow = 1.0 if retry or err > 1.0 else _GROW
            retry = err > 1.0
            if retry:
                self.rejected += 1
            else:
                self.accepted += 1
                done = span if landing else done + step
                y[:] = y_new
                buf[1] = buf[7]
            # err = 0 takes the first branch, never err ** -0.2
            self.h = step * (grow if err <= (_SAFETY / grow) ** 5
                             else max(_SHRINK, _SAFETY * err ** -0.2))
        self.k1 = buf[1]
        return y


def _pinned_offset(cfg: SimConfig) -> float:
    """The value h that the initial displacement takes at both ends.

    The sine expansion cannot represent unequal pinned ends, so ends that
    differ are a ConfigurationError; a run that asks for the oracle checks
    this before it solves or writes anything.
    """
    eta_fn, _ = initial_callables(cfg.init, cfg.grid)
    ends = np.asarray(eta_fn(np.array([0.0, cfg.grid.length_l])), dtype=float)
    scale = max(1.0, abs(ends[0]))
    if abs(ends[1] - ends[0]) > 1e-12 * scale:
        raise ConfigurationError(f"boundary values differ ({ends[0]:g} vs {ends[1]:g}); "
                                 "the spectral solver needs equal pinned ends")
    return float(ends[0])


def integrate(cfg: SimConfig, n_modes: int) -> FieldSeries:
    """Integrate the modal system and sample its state on the reference grid.

    The config is validated as fd_solver.run validates it, and frames are
    stored at its output_stride (plus the final step), so the two solvers
    report the same instants.  Initial data must take the same value at
    both ends (see _pinned_offset).
    The penalty integral uses 4*n_modes midpoints and a velocity cutoff of
    width 1/n_modes, in one pass per evaluation (see _modal_accel).  A
    reporting step dt whose start certifies sum_k sqrt(q_k^2 + qdot_k^2 /
    lam_k) <= h cannot reach the penalty and is taken exactly by the
    closed-form free propagator; any other step is taken by error-controlled
    Dormand-Prince 5(4) substeps at the module tolerance _TOL, none larger
    than a rejected one just before it, the last clipped to land on
    (i + 1) dt.  The trial substep and the last stage carry over between
    consecutive such steps.  A non-finite state or error estimate, or a
    substep that underflows, raises NumericBlowupError with the reporting
    step.  The counts of exact and adaptive steps are logged at INFO.
    """
    if n_modes < 1:
        raise ConfigurationError("need at least one mode")
    cfg = validate_config(cfg)
    grid, time, physics = cfg.grid, cfg.time, cfg.physics

    l = grid.length_l
    offset_h = _pinned_offset(cfg)
    eta_fn, v_fn = initial_callables(cfg.init, grid)

    quad_nodes = 4 * n_modes
    xq = _midpoints(quad_nodes, l)
    shapes_q = _mode_matrix(n_modes, l, xq)
    # y = (q, qdot), projected by midpoint quadrature
    y = (2.0 / quad_nodes) * np.concatenate((shapes_q @ (eta_fn(xq) - offset_h),
                                             shapes_q @ v_fn(xq)))

    lam = _frequencies(n_modes, l)
    root_lam = np.sqrt(lam)
    alam = physics.alpha * lam
    rates = -np.stack((lam, alam))
    load_q = (2.0 / (quad_nodes * physics.epsilon)) * shapes_q
    widths = np.array([[physics.epsilon], [1.0 / n_modes]])

    def rhs(y: np.ndarray, out: np.ndarray) -> None:
        _modal_accel(y, out, rates, offset_h, shapes_q, load_q, widths)

    dt = time.dt
    # rows (p11, p12) and (p21, p22): one product and one sum per free step
    flow = _free_propagator(lam, alam, dt).reshape(2, 2, n_modes)
    stepper = _DormandPrince(rhs, dt)

    xs = grid.nodes()
    shapes_x = _mode_matrix(n_modes, l, xs)
    stride, steps = cfg.output_stride, time.steps_m
    frames = 1 + math.ceil(steps / stride)
    stored = np.empty((2, frames, xs.size))  # eta - h and v
    stored[:, 0] = y.reshape(2, n_modes) @ shapes_x
    free_steps = 0
    for i in range(steps):
        if _free_amplitude_bound(*y.reshape(2, n_modes), root_lam).sum() <= offset_h:
            y = np.add.reduce(flow * y.reshape(2, n_modes), axis=1).reshape(-1)
            stepper.k1 = None
            free_steps += 1
        else:
            y = stepper.advance(y, dt, i + 1)
        if not np.isfinite(y).all():
            raise NumericBlowupError(i + 1)
        if (i + 1) % stride == 0 or (i + 1) == steps:
            stored[:, math.ceil((i + 1) / stride)] = y.reshape(2, n_modes) @ shapes_x
    log.info("integrate: %d exact free steps, %d accepted and %d rejected "
             "adaptive steps", free_steps, stepper.accepted, stepper.rejected)

    eta, vel = stored
    eta += offset_h
    return FieldSeries(
        times=np.minimum(np.arange(frames) * stride, steps) * dt,
        xs=xs,
        fields={"eta": eta, "velocity": vel},
        epsilon=physics.epsilon,
    )

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
is taken by classical RK4 on a fixed substep.  The modal force integral
uses composite midpoint quadrature, under which the sine modes are exactly
orthogonal, so projection and reconstruction round-trip exactly.

This solver shares no code with the finite-difference path on purpose:
agreement between the two is used as evidence that both discretize the
same dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    FieldSeries,
    Grid1D,
    InitialData,
    NumericBlowupError,
    Physics,
    TimeGrid,
    initial_callables,
)

__all__ = [
    "ModalState",
    "SmoothCutoff",
    "integrate",
    "modal_energy",
    "modal_rhs",
    "reconstruct",
]


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


@dataclass
class ModalState:
    """Amplitudes and rates of the sine expansion around the offset h."""

    n_modes: int
    q: np.ndarray
    qdot: np.ndarray
    offset_h: float
    length_l: float

    def frequencies(self) -> np.ndarray:
        return _frequencies(self.n_modes, self.length_l)


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


def reconstruct(state: ModalState, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Displacement and velocity fields of a modal state at the given nodes."""
    shapes = _mode_matrix(state.n_modes, state.length_l, xs)
    return state.offset_h + state.q @ shapes, state.qdot @ shapes


def modal_energy(state: ModalState) -> float:
    """Kinetic + elastic energy of the expansion, (l/4) sum(qdot^2 + lam q^2)."""
    lam = state.frequencies()
    return 0.25 * state.length_l * float(np.sum(state.qdot**2 + lam * state.q**2))


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


def modal_rhs(
    state: ModalState,
    physics: Physics,
    cutoff_eta: SmoothCutoff,
    cutoff_vel: SmoothCutoff,
    quad_nodes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dq, dqdot) of the modal system.

    The penalty projection integral is evaluated on quad_nodes uniform
    midpoints; quad_nodes must be at least 4 * n_modes so the highest
    mode is resolved.
    """
    if quad_nodes < 4 * state.n_modes:
        raise ValueError("quad_nodes must be at least 4 * n_modes")
    lam = state.frequencies()
    shapes = _mode_matrix(
        state.n_modes, state.length_l, _midpoints(quad_nodes, state.length_l)
    )
    dqdot = _modal_accel(
        state.q, state.qdot, lam, physics.alpha * lam, state.offset_h, shapes,
        2.0 / (quad_nodes * physics.epsilon), cutoff_eta, cutoff_vel,
    )
    return state.qdot.copy(), dqdot


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


def integrate(
    init: InitialData,
    grid: Grid1D,
    time: TimeGrid,
    physics: Physics,
    n_modes: int,
    output_stride: int = 1,
) -> FieldSeries:
    """Integrate the modal system and sample fields on the reference grid.

    Initial data must take the same value at both ends (the expansion
    cannot represent unequal pinned boundaries).  The penalty integral
    uses 4*n_modes midpoints and a velocity cutoff of width 1/n_modes.  A
    reporting step dt whose start certifies
    sum_k sqrt(q_k^2 + qdot_k^2 / lam_k) <= h cannot reach the penalty
    and is taken exactly by the closed-form free propagator; any other
    step takes fixed RK4 substeps of min(dt, eps/10, 0.1/lam_max),
    shortened so that they divide dt evenly.
    """
    if n_modes < 1:
        raise ConfigurationError("need at least one mode")
    grid.validate()
    time.validate()
    physics.validate()
    init.validate(grid)

    l = grid.length_l
    eta_fn, v_fn = initial_callables(init, grid)
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

    def rhs(q: np.ndarray, qdot: np.ndarray):
        return qdot, _modal_accel(q, qdot, lam, alam, offset_h, shapes_q,
                                  force_scale, cut_eta, cut_vel)

    dt = time.dt
    cap = min(dt, physics.epsilon / 10.0, 0.1 / lam[-1])
    n_sub = max(1, int(math.ceil(dt / cap - 1e-12)))
    h_sub = dt / n_sub
    p11, p12, p21, p22 = _free_propagator(lam, alam, dt)

    xs = grid.nodes()
    shapes_x = _mode_matrix(n_modes, l, xs)
    stride = max(1, output_stride)
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
    for i in range(time.steps_m):
        if float(np.sum(_free_amplitude_bound(q, qdot, lam))) <= offset_h:
            q, qdot = p11 * q + p12 * qdot, p21 * q + p22 * qdot
        else:
            for _ in range(n_sub):
                k1q, k1v = rhs(q, qdot)
                k2q, k2v = rhs(q + 0.5 * h_sub * k1q, qdot + 0.5 * h_sub * k1v)
                k3q, k3v = rhs(q + 0.5 * h_sub * k2q, qdot + 0.5 * h_sub * k2v)
                k4q, k4v = rhs(q + h_sub * k3q, qdot + h_sub * k3v)
                q = q + (h_sub / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
                qdot = qdot + (h_sub / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
            raise NumericBlowupError(i + 1)
        if (i + 1) % stride == 0 or (i + 1) == time.steps_m:
            sample(row, i + 1)
            row += 1

    series = FieldSeries(
        times=stored_times,
        xs=xs,
        fields={"eta": stored_eta, "velocity": stored_vel, "penalty_force": stored_force},
    )
    series.validate()
    return series

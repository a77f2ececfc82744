"""Spectral sine-mode solver: cutoffs, modal dynamics, and integration."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from modal_reference import modal_rhs

from obstring import galerkin
from obstring.core import (
    ConfigurationError,
    Grid1D,
    InitialData,
    NumericBlowupError,
    Physics,
    SimConfig,
    TimeGrid,
    penalty_force,
)
from obstring.galerkin import (
    SmoothCutoff,
    _DormandPrince,
    _free_amplitude_bound,
    _free_propagator,
    _frequencies,
    _midpoints,
    _modal_accel,
    _mode_matrix,
    integrate,
)


def test_cutoff_endpoint_values():
    c = SmoothCutoff(a=0.05)
    assert c(-0.1) == 1.0        # saturated region x <= -a
    assert c(0.1) == 0.0         # off region x >= 0
    assert c(0.0) == 0.0
    assert c(-0.025) == 0.5      # quintic smoothstep at s = 1/2


def test_cutoff_monotone_and_bounded():
    c = SmoothCutoff(a=0.3)
    xs = np.linspace(-1.0, 1.0, 2001)
    vals = c(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 1e-15)


def test_cutoff_requires_positive_width():
    with pytest.raises(ValueError):
        SmoothCutoff(a=0.0)


def _clip_cutoff(a, x):
    """The cutoff as np.clip writes it."""
    s = np.clip(-np.asarray(x, dtype=float) / a, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


@pytest.mark.parametrize("a", [1.0, 0.002, 1.0 / 24])
def test_cutoff_matches_the_clip_formula_bit_for_bit(a):
    # every non-NaN value bit for bit, -0.0 included, and NaN for NaN: a
    # NaN state must reach the error estimate (NumericBlowupError), not
    # vanish in the clamps
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, -a, a, -0.5 * a,
               5e-324, -5e-324]
    xs = np.concatenate((special, np.linspace(-2.0 * a, a, 1001)))
    cutoff = SmoothCutoff(a)
    for x in (xs, np.stack((xs, xs[::-1]))):
        got, want = cutoff(x), _clip_cutoff(a, x)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        numbers = ~np.isnan(want)
        assert np.array_equal(got[numbers].view(np.int64), want[numbers].view(np.int64))
    assert np.isnan(cutoff(np.nan))


def _modal_kernel(n_modes, phys, offset_h):
    """qddot(q, qdot) of the modal system on l = 1, and the frequencies lam.

    The invariants are the ones integrate hoists: 4 * n_modes midpoints, a
    displacement cutoff of width eps and a velocity cutoff of width
    1 / n_modes.  The formula is the plain one in tests/modal_reference.py,
    not the fused kernel that integrate calls.
    """
    quad = 4 * n_modes
    lam = _frequencies(n_modes, 1.0)
    shapes = _mode_matrix(n_modes, 1.0, _midpoints(quad, 1.0))
    cut_eta, cut_vel = SmoothCutoff(phys.epsilon), SmoothCutoff(1.0 / n_modes)

    def accel(q, qdot):
        y = np.concatenate((q, qdot))
        return modal_rhs(y, lam, phys.alpha * lam, offset_h, shapes,
                         2.0 / (quad * phys.epsilon), cut_eta, cut_vel)[n_modes:]

    return accel, lam


def test_mode_frequencies():
    assert np.allclose(_frequencies(3, 2.0), [(np.pi / 2) ** 2,
                                              np.pi**2,
                                              (3 * np.pi / 2) ** 2])


def test_reconstruct_pins_endpoints_exactly():
    # a constant v0 and a mode-3 datum excite many modes; the stored fields
    # still sit exactly on the pinned ends at every frame
    init = InitialData("single_mode", amplitude=0.3, mode=3, offset=1.5, v0=0.7)
    series = integrate(SimConfig(Grid1D(1.0, 16), TimeGrid(0.05, 10), Physics(1.0, 0.01),
                                 init, output_stride=1), 6)
    eta, vel = series.fields["eta"], series.fields["velocity"]
    assert np.any(vel[:, 1:-1] != 0.0)
    assert np.all(eta[:, [0, -1]] == 1.5)
    assert np.all(vel[:, [0, -1]] == 0.0)


def test_modal_rhs_single_mode_closed_form():
    # no contact, alpha = 1, l = 1: qddot = -pi^2 (qdot + q)
    accel, _ = _modal_kernel(1, Physics(alpha=1.0, epsilon=0.002), 1.0)
    assert np.allclose(accel(np.array([0.3]), np.array([0.2])), [-np.pi**2 * 0.5],
                       rtol=1e-12)


def test_modal_rhs_no_contact_shortcut_is_linear():
    rng = np.random.default_rng(5)
    q = 0.05 * rng.standard_normal(6)          # sum |q| < offset 1.0
    qdot = rng.standard_normal(6)
    accel, lam = _modal_kernel(6, Physics(alpha=0.7, epsilon=0.002), 1.0)
    assert np.allclose(accel(q, qdot), -0.7 * lam * qdot - lam * q, rtol=1e-14)


def test_modal_rhs_penalty_opposes_downward_motion():
    # displacement and velocity both negative mid-span: force pushes up
    q = np.array([-0.5])
    accel, lam = _modal_kernel(1, Physics(alpha=0.0, epsilon=0.01), 0.0)
    assert accel(q, np.array([-1.0]))[0] > -lam[0] * q[0]  # strictly repulsive


@pytest.mark.parametrize("offset_h, contact", [(1.0, False), (0.2, True)],
                         ids=["free", "contact"])
def test_fused_kernel_matches_the_plain_formula(offset_h, contact):
    n_modes, quad = 24, 96
    phys = Physics(alpha=0.01, epsilon=0.002)
    lam = _frequencies(n_modes, 1.0)
    alam = phys.alpha * lam
    shapes = _mode_matrix(n_modes, 1.0, _midpoints(quad, 1.0))
    force_scale = 2.0 / (quad * phys.epsilon)
    rates = -np.stack((lam, alam))
    widths = np.array([[phys.epsilon], [1.0 / n_modes]])
    cuts = SmoothCutoff(phys.epsilon), SmoothCutoff(1.0 / n_modes)
    rng = np.random.default_rng(31)
    pushed = 0
    for _ in range(50):
        q = rng.standard_normal(n_modes) / np.arange(1, n_modes + 1)
        if not contact:
            q *= 0.99 * offset_h / np.sum(np.abs(q))
        y = np.concatenate((q, 3.0 * rng.standard_normal(n_modes)))
        want = modal_rhs(y, lam, alam, offset_h, shapes, force_scale, *cuts)
        got = np.empty_like(y)
        _modal_accel(y, got, rates, offset_h, shapes, force_scale * shapes, widths)
        # normwise: the fused product sums eta and v on the midpoints in
        # another order, and the eps-wide cutoff's slope 1/eps spreads that
        # rounding over every mode, so a small cancelling component may move
        # by more than 1e-13 of itself
        assert np.array_equal(got[:n_modes], y[n_modes:])
        qddot = want[n_modes:]
        assert np.max(np.abs(got[n_modes:] - qddot)) <= 1e-13 * np.max(np.abs(qddot))
        force = qddot - (-alam * y[n_modes:] - lam * q)
        pushed += np.max(np.abs(force)) > 1e-12 * np.max(np.abs(qddot))
    assert (pushed > 25) == contact  # the contact states do switch the force on


def test_projection_round_trip_on_midpoints():
    # midpoint quadrature keeps the sine modes exactly orthogonal
    n_modes, quad = 8, 64
    rng = np.random.default_rng(17)
    q = rng.standard_normal(n_modes)
    xq = _midpoints(quad, 1.0)
    eta = 2.0 + q @ _mode_matrix(n_modes, 1.0, xq)
    shapes = np.sin(np.arange(1, n_modes + 1)[:, None] * np.pi * xq[None, :])
    q_back = (2.0 / quad) * (shapes @ (eta - 2.0))
    assert np.max(np.abs(q_back - q)) <= 1e-10


def _rk4_trajectory(accel, q, qdot, h, steps):
    """Classical RK4 on q' = qdot, qdot' = accel(q, qdot); yields (q, qdot)
    after each step."""
    for _ in range(steps):
        k1q, k1v = qdot, accel(q, qdot)
        k2q = qdot + 0.5 * h * k1v
        k2v = accel(q + 0.5 * h * k1q, k2q)
        k3q = qdot + 0.5 * h * k2v
        k3v = accel(q + 0.5 * h * k2q, k3q)
        k4q = qdot + h * k3v
        k4v = accel(q + h * k3q, k4q)
        q = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        qdot = qdot + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        yield q, qdot


def test_modal_energy_non_increasing_without_contact():
    # the modal energy (l/4) sum(qdot^2 + lam q^2) on l = 1
    rng = np.random.default_rng(23)
    q0 = 0.1 * rng.standard_normal(4)
    accel, lam = _modal_kernel(4, Physics(alpha=1.0, epsilon=0.002), 1.0)
    e_prev = 0.25 * float(np.sum(lam * q0**2))
    e0 = e_prev
    for q, qdot in _rk4_trajectory(accel, q0, np.zeros(4), h=5e-4, steps=200):
        e = 0.25 * float(np.sum(qdot**2 + lam * q**2))
        assert e <= e_prev + 1e-8 * e0
        e_prev = e
    assert e_prev < 0.9 * e0  # damping has real effect over the window


def test_modes_stay_decoupled_without_contact():
    q0 = np.zeros(8)
    q0[2] = 0.2  # mode 3 only, well above the obstacle
    accel, _ = _modal_kernel(8, Physics(alpha=1.0, epsilon=0.002), 1.0)
    *_, (q, _) = _rk4_trajectory(accel, q0, np.zeros(8), h=2e-4, steps=50)
    others = np.delete(np.abs(q), 2)
    assert np.all(others <= 1e-15)
    assert abs(q[2] - 0.2) > 1e-6  # the excited mode did evolve


def test_integrate_requires_equal_endpoints():
    grid = Grid1D(1.0, 16)
    ramp = tuple(np.linspace(0.0, 1.0, 17).tolist())
    init = InitialData("tabulated", eta0_table=ramp, v0_table=(0.0,) * 17)
    cfg = SimConfig(grid, TimeGrid(0.1, 10), Physics(1.0, 0.01), init)
    with pytest.raises(ConfigurationError, match="equal"):
        integrate(cfg, 4)


def test_integrate_validates_its_config():
    short = InitialData("tabulated", eta0_table=(1.0,) * 10, v0_table=(0.0,) * 10)
    with pytest.raises(ConfigurationError, match="expected cells_n"):
        SimConfig(Grid1D(1.0, 16), TimeGrid(0.1, 10), Physics(1.0, 0.01), short)
    cfg = SimConfig(Grid1D(1.0, 9), TimeGrid(0.1, 10), Physics(1.0, 0.01), short)
    with pytest.raises(ConfigurationError, match="at least one mode"):
        integrate(cfg, 0)


def test_integrate_constant_datum_stays_constant():
    init = InitialData("single_mode", amplitude=0.0, offset=1.0)
    series = integrate(
        SimConfig(Grid1D(1.0, 20), TimeGrid(0.2, 20), Physics(1.0, 0.01), init,
                  output_stride=1),
        4,
    )
    assert np.allclose(series.fields["eta"], 1.0, atol=1e-12)
    assert np.allclose(series.fields["velocity"], 0.0, atol=1e-12)


def test_integrate_matches_damped_mode_closed_form():
    # q'' + pi^2 q' + pi^2 q = 0, q(0) = 0.5, q'(0) = 0 away from contact
    init = InitialData("single_mode", amplitude=0.5, mode=1, offset=1.0)
    grid = Grid1D(1.0, 100)
    tgrid = TimeGrid(0.3, 300)
    series = integrate(SimConfig(grid, tgrid, Physics(1.0, 0.002), init,
                                 output_stride=30), 4)

    disc = np.pi * np.sqrt(np.pi**2 - 4.0)
    mu1 = (-np.pi**2 + disc) / 2.0
    mu2 = (-np.pi**2 - disc) / 2.0
    c1 = -mu2 * 0.5 / (mu1 - mu2)
    c2 = mu1 * 0.5 / (mu1 - mu2)
    t = series.times[:, None]
    exact = 1.0 + (c1 * np.exp(mu1 * t) + c2 * np.exp(mu2 * t)) * np.sin(
        np.pi * series.xs[None, :]
    )
    assert np.max(np.abs(series.fields["eta"] - exact)) <= 1e-12


def test_integrate_respects_output_stride():
    init = InitialData("single_mode", amplitude=0.2, offset=1.0)
    series = integrate(
        SimConfig(Grid1D(1.0, 10), TimeGrid(0.1, 10), Physics(1.0, 0.01), init,
                  output_stride=4),
        2,
    )
    assert np.allclose(series.times, [0.0, 0.04, 0.08, 0.1], atol=1e-15)


def _closed_form_flow(lam, alpha, h):
    """exp(h [[0, 1], [-lam, -alpha lam]]) from the textbook solutions.

    Columns are (q(h), qdot(h)) started from (1, 0) and from (0, 1).
    """
    tau = -0.5 * alpha * lam
    disc = tau * tau - lam
    decay = math.exp(tau * h)
    if abs(disc) <= 1e-12 * lam:
        # critical: q = e^{tau t} (q0 + (qdot0 - tau q0) t)
        return decay * np.array([[1.0 - tau * h, h],
                                 [-tau * tau * h, 1.0 + tau * h]])
    if disc < 0.0:
        # underdamped: q = e^{tau t} (q0 cos wt + (qdot0 - tau q0) sin(wt) / w)
        w = math.sqrt(-disc)
        c, s = math.cos(w * h), math.sin(w * h)
        return decay * np.array([[c - tau * s / w, s / w],
                                 [-lam * s / w, c + tau * s / w]])
    # overdamped: q = c_f e^{mu_f t} + c_s e^{mu_s t}
    mu_f = tau - math.sqrt(disc)
    mu_s = lam / mu_f
    e_f, e_s = math.exp(mu_f * h), math.exp(mu_s * h)
    return np.array([[mu_f * e_s - mu_s * e_f, e_f - e_s],
                     [mu_f * mu_s * (e_s - e_f), mu_f * e_f - mu_s * e_s]]) / (mu_f - mu_s)


@pytest.mark.parametrize(
    "n_modes, alpha, h",
    [
        (8, 0.01, 0.05),         # underdamped
        (1, 2.0 / np.pi, 0.3),   # critical: alpha lam = 2 sqrt(lam) for lam = pi^2
        (256, 1.0, 0.1),         # stiff overdamped: e^{tau h} cosh(s h) is 0 * inf
    ],
    ids=["underdamped", "critical", "stiff"],
)
def test_free_propagator_matches_closed_form(n_modes, alpha, h):
    lam = (np.arange(1, n_modes + 1) * np.pi) ** 2
    blocks = _free_propagator(lam, alpha * lam, h).T.reshape(n_modes, 2, 2)
    assert np.all(np.isfinite(blocks))
    for k in range(n_modes):
        ref = _closed_form_flow(lam[k], alpha, h)
        # energy scaling: sqrt(lam) q and qdot are of one size
        scale = np.array([[1.0, 1.0 / np.sqrt(lam[k])], [np.sqrt(lam[k]), 1.0]])
        assert np.max(np.abs(blocks[k] - ref) / scale) <= 1e-13


@settings(max_examples=300, deadline=None)
@given(
    q=st.floats(-1e3, 1e3),
    qdot=st.floats(-1e3, 1e3),
    alpha=st.floats(0.0, 100.0),
    mode=st.integers(1, 256),
    h=st.floats(1e-6, 1.0),
)
def test_free_propagator_respects_amplitude_certificate(q, qdot, alpha, mode, h):
    lam = np.array([(mode * np.pi) ** 2])
    p11, p12, _, _ = _free_propagator(lam, alpha * lam, h)
    bound = _free_amplitude_bound(np.array([q]), np.array([qdot]), np.sqrt(lam))[0]
    assert abs(p11[0] * q + p12[0] * qdot) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "offset, v0, contact, steps, refine, stride, tol_eta, tol_vel",
    [(1.0, 0.2, False, 20, 1, 1, 1e-11, 1e-11),
     (0.2, -2.0, True, 8, 10, 3, 3e-9, 1e-6)],
    ids=["free", "contact"],
)
def test_integrate_matches_rk4_trajectory(offset, v0, contact, steps, refine, stride,
                                          tol_eta, tol_vel):
    # free: v0 excites every odd mode, but the certificate holds from the
    # start, so integrate steps exactly while the reference takes RK4
    # substeps of 0.1/lam_max.  contact: the certificate fails from the
    # start, integrate takes error-controlled steps and the string reaches
    # the obstacle at step 6.  The reference takes RK4 substeps ten times
    # finer, within 1.5e-10 of one twice as fine.  integrate misses it by
    # 1.1e-9 in eta and 1.6e-7 in velocity (7.3e-10 and 2.6e-7 with step
    # growth allowed right after a rejection), inside bounds set with a 4x
    # margin on the latter; RK4 substeps of 0.1/lam_max miss it by 6.3e-9
    # and 2.5e-6.
    n_modes, quad = 8, 32
    init = InitialData("single_mode", amplitude=0.15, mode=2, offset=offset, v0=v0)
    grid, tgrid = Grid1D(1.0, 40), TimeGrid(0.005 * steps, steps)
    phys = Physics(alpha=0.01, epsilon=0.002)
    series = integrate(SimConfig(grid, tgrid, phys, init, output_stride=stride), n_modes)
    assert (series.fields["eta"].min() < 0.0) == contact
    # the oracle's series derives the grid solver's force from its own state
    assert series.epsilon == phys.epsilon
    assert series.penalty_force.tobytes() == penalty_force(
        series.fields["eta"], series.fields["velocity"], phys.epsilon).tobytes()
    assert (series.penalty_force.max() > 0.0) == contact
    rows = [*range(0, steps, stride), steps]
    assert np.array_equal(series.times, np.array(rows) * tgrid.dt)

    xq = (np.arange(quad) + 0.5) / quad
    shapes = np.sin(np.arange(1, n_modes + 1)[:, None] * np.pi * xq[None, :])
    q0 = (2.0 / quad) * (shapes @ (0.15 * np.sin(2 * np.pi * xq)))
    qdot0 = (2.0 / quad) * (shapes @ np.full(quad, v0))
    accel, lam = _modal_kernel(n_modes, phys, offset)
    certified = np.sum(_free_amplitude_bound(q0, qdot0, np.sqrt(lam))) <= offset
    assert certified != contact
    n_sub = refine * math.ceil(tgrid.dt / (0.1 / (n_modes * np.pi) ** 2))
    trajectory = list(_rk4_trajectory(accel, q0, qdot0, h=tgrid.dt / n_sub,
                                      steps=steps * n_sub))
    shapes_x = _mode_matrix(n_modes, 1.0, grid.nodes())
    for frame, i in enumerate(rows[1:], start=1):
        q, qdot = trajectory[i * n_sub - 1]
        eta, vel = offset + q @ shapes_x, qdot @ shapes_x
        assert np.max(np.abs(series.fields["eta"][frame] - eta)) <= tol_eta
        assert np.max(np.abs(series.fields["velocity"][frame] - vel)) <= tol_vel


def test_integrate_stiff_contact_is_fast_and_matches_rk4():
    # alpha lam_max = 4.0e4, so explicit steps are stability-bound before
    # contact, and the string reaches the obstacle at t = 0.0205.  On a
    # 2 vCPU host integrate takes 0.2 s here (RK4 substeps of 0.1/lam_max
    # took 1.8 s) and misses RK4 at h = dt/100 by 2.2e-8, which is that
    # reference's own distance from RK4 at h = dt/400; bounded with a 4x
    # margin.
    n_modes, quad, per = 64, 256, 100
    grid, tgrid = Grid1D(1.0, 100), TimeGrid(0.025, 25)
    phys = Physics(alpha=1.0, epsilon=0.002)
    t0 = time.perf_counter()
    series = integrate(
        SimConfig(grid, tgrid, phys, InitialData("example1"), output_stride=1), n_modes
    )
    assert time.perf_counter() - t0 < 1.2
    eta = series.fields["eta"]
    assert np.all(np.isfinite(eta)) and eta.min() < 0.0

    xq = (np.arange(quad) + 0.5) / quad
    shapes = np.sin(np.arange(1, n_modes + 1)[:, None] * np.pi * xq[None, :])
    q0 = (2.0 / quad) * (shapes @ (0.5 * np.sin(10 * np.pi * xq) ** 2))
    qdot0 = (2.0 / quad) * (shapes @ np.full(quad, -50.0))
    accel, _ = _modal_kernel(n_modes, phys, 1.0)
    trajectory = list(_rk4_trajectory(accel, q0, qdot0, h=tgrid.dt / per, steps=25 * per))
    shapes_x = _mode_matrix(n_modes, 1.0, grid.nodes())
    ref = [1.0 + trajectory[i * per - 1][0] @ shapes_x for i in range(1, 26)]
    assert np.max(np.abs(eta[1:] - np.array(ref))) <= 1e-7


def test_integrate_raises_on_nan_state_in_contact(monkeypatch):
    # NaN error estimates compare False against the tolerance, so an
    # integrator that only tests for acceptance would retry forever
    monkeypatch.setattr(galerkin, "_modal_accel",
                        lambda y, out, *args: out.fill(np.nan))
    init = InitialData("single_mode", amplitude=0.15, mode=2, offset=0.2, v0=-2.0)
    with pytest.raises(NumericBlowupError) as info:
        integrate(SimConfig(Grid1D(1.0, 40), TimeGrid(0.04, 8), Physics(0.01, 0.002),
                            init), 8)
    assert info.value.step_index == 1


def test_adaptive_steps_raise_at_finite_time_blowup():
    # y' = y^2 from y = 1 blows up at t = 1: the steps shrink until they underflow
    stepper = _DormandPrince(lambda y, out: np.multiply(y, y, out=out), 0.1)
    with pytest.raises(NumericBlowupError) as info:
        stepper.advance(np.ones(2), 2.0, 7)
    assert info.value.step_index == 7

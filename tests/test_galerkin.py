"""Spectral sine-mode solver: cutoffs, modal dynamics, and integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstring.core import (
    ConfigurationError,
    Grid1D,
    InitialData,
    Physics,
    TimeGrid,
)
from obstring.galerkin import (
    ModalState,
    SmoothCutoff,
    _free_amplitude_bound,
    _free_propagator,
    integrate,
    modal_energy,
    modal_rhs,
    reconstruct,
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


def test_mode_frequencies():
    state = ModalState(3, np.zeros(3), np.zeros(3), 1.0, 2.0)
    assert np.allclose(state.frequencies(), [(np.pi / 2) ** 2,
                                             np.pi**2,
                                             (3 * np.pi / 2) ** 2])


def test_reconstruct_pins_endpoints_exactly():
    rng = np.random.default_rng(3)
    state = ModalState(6, rng.standard_normal(6), rng.standard_normal(6), 1.5, 1.0)
    eta, vel = reconstruct(state, np.array([0.0, 0.25, 1.0]))
    assert eta[0] == 1.5 and eta[-1] == 1.5
    assert abs(vel[0]) < 1e-12 and abs(vel[-1]) < 1e-12


def test_modal_rhs_single_mode_closed_form():
    # no contact, alpha = 1, l = 1: qddot = -pi^2 (qdot + q)
    state = ModalState(1, np.array([0.3]), np.array([0.2]), 1.0, 1.0)
    dq, dqdot = modal_rhs(
        state, Physics(alpha=1.0, epsilon=0.002),
        SmoothCutoff(0.002), SmoothCutoff(0.25), quad_nodes=8,
    )
    assert np.allclose(dq, [0.2], rtol=1e-15)
    assert np.allclose(dqdot, [-np.pi**2 * 0.5], rtol=1e-12)


def test_modal_rhs_no_contact_shortcut_is_linear():
    rng = np.random.default_rng(5)
    q = 0.05 * rng.standard_normal(6)          # sum |q| < offset 1.0
    qdot = rng.standard_normal(6)
    state = ModalState(6, q, qdot, 1.0, 1.0)
    phys = Physics(alpha=0.7, epsilon=0.002)
    dq, dqdot = modal_rhs(state, phys, SmoothCutoff(0.002), SmoothCutoff(0.1), 24)
    lam = state.frequencies()
    assert np.array_equal(dq, qdot)
    assert np.allclose(dqdot, -0.7 * lam * qdot - lam * q, rtol=1e-14)


def test_modal_rhs_penalty_opposes_downward_motion():
    # displacement and velocity both negative mid-span: force pushes up
    state = ModalState(1, np.array([-0.5]), np.array([-1.0]), 0.0, 1.0)
    phys = Physics(alpha=0.0, epsilon=0.01)
    _, dqdot = modal_rhs(state, phys, SmoothCutoff(0.01), SmoothCutoff(0.5), 16)
    lam = state.frequencies()
    linear = -lam * state.q
    assert dqdot[0] > linear[0]  # strictly repulsive contribution


def test_modal_rhs_quadrature_resolution_contract():
    state = ModalState(4, np.zeros(4), np.zeros(4), 1.0, 1.0)
    with pytest.raises(ValueError):
        modal_rhs(state, Physics(1.0, 0.01), SmoothCutoff(0.01),
                  SmoothCutoff(0.25), quad_nodes=15)


def test_projection_round_trip_on_midpoints():
    # midpoint quadrature keeps the sine modes exactly orthogonal
    n_modes, quad = 8, 64
    rng = np.random.default_rng(17)
    q = rng.standard_normal(n_modes)
    state = ModalState(n_modes, q, np.zeros(n_modes), 2.0, 1.0)
    xq = (np.arange(quad) + 0.5) / quad
    eta, _ = reconstruct(state, xq)
    shapes = np.sin(np.arange(1, n_modes + 1)[:, None] * np.pi * xq[None, :])
    q_back = (2.0 / quad) * (shapes @ (eta - 2.0))
    assert np.max(np.abs(q_back - q)) <= 1e-10


def _rk4_trajectory(state, phys, cut_eta, cut_vel, quad, h, steps):
    """Drive modal_rhs with classical RK4; yields the state each step."""
    q, qdot = state.q.copy(), state.qdot.copy()
    for _ in range(steps):
        def f(qq, vv):
            s = ModalState(state.n_modes, qq, vv, state.offset_h, state.length_l)
            return modal_rhs(s, phys, cut_eta, cut_vel, quad)

        k1q, k1v = f(q, qdot)
        k2q, k2v = f(q + 0.5 * h * k1q, qdot + 0.5 * h * k1v)
        k3q, k3v = f(q + 0.5 * h * k2q, qdot + 0.5 * h * k2v)
        k4q, k4v = f(q + h * k3q, qdot + h * k3v)
        q = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        qdot = qdot + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        yield ModalState(state.n_modes, q, qdot, state.offset_h, state.length_l)


def test_modal_energy_non_increasing_without_contact():
    rng = np.random.default_rng(23)
    q0 = 0.1 * rng.standard_normal(4)
    state = ModalState(4, q0, np.zeros(4), 1.0, 1.0)
    phys = Physics(alpha=1.0, epsilon=0.002)
    e_prev = modal_energy(state)
    e0 = e_prev
    for s in _rk4_trajectory(state, phys, SmoothCutoff(0.002),
                             SmoothCutoff(0.25), 16, h=5e-4, steps=200):
        e = modal_energy(s)
        assert e <= e_prev + 1e-8 * e0
        e_prev = e
    assert e_prev < 0.9 * e0  # damping has real effect over the window


def test_modes_stay_decoupled_without_contact():
    q0 = np.zeros(8)
    q0[2] = 0.2  # mode 3 only, well above the obstacle
    state = ModalState(8, q0, np.zeros(8), 1.0, 1.0)
    phys = Physics(alpha=1.0, epsilon=0.002)
    last = None
    for s in _rk4_trajectory(state, phys, SmoothCutoff(0.002),
                             SmoothCutoff(0.125), 32, h=2e-4, steps=50):
        last = s
    others = np.delete(np.abs(last.q), 2)
    assert np.all(others <= 1e-15)
    assert abs(last.q[2] - 0.2) > 1e-6  # the excited mode did evolve


def test_integrate_requires_equal_endpoints():
    grid = Grid1D(1.0, 16)
    ramp = tuple(np.linspace(0.0, 1.0, 17).tolist())
    init = InitialData("tabulated", eta0_table=ramp, v0_table=(0.0,) * 17)
    with pytest.raises(ConfigurationError, match="equal"):
        integrate(init, grid, TimeGrid(0.1, 10), Physics(1.0, 0.01), n_modes=4)


def test_integrate_constant_datum_stays_constant():
    init = InitialData("single_mode", amplitude=0.0, offset=1.0)
    series = integrate(
        init, Grid1D(1.0, 20), TimeGrid(0.2, 20), Physics(1.0, 0.01), n_modes=4
    )
    assert np.allclose(series.fields["eta"], 1.0, atol=1e-12)
    assert np.allclose(series.fields["velocity"], 0.0, atol=1e-12)


def test_integrate_matches_damped_mode_closed_form():
    # q'' + pi^2 q' + pi^2 q = 0, q(0) = 0.5, q'(0) = 0 away from contact
    init = InitialData("single_mode", amplitude=0.5, mode=1, offset=1.0)
    grid = Grid1D(1.0, 100)
    tgrid = TimeGrid(0.3, 300)
    series = integrate(init, grid, tgrid, Physics(1.0, 0.002), n_modes=4,
                       output_stride=30)

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
        init, Grid1D(1.0, 10), TimeGrid(0.1, 10), Physics(1.0, 0.01),
        n_modes=2, output_stride=4,
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
    bound = _free_amplitude_bound(np.array([q]), np.array([qdot]), lam)[0]
    assert abs(p11[0] * q + p12[0] * qdot) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "offset, v0, contact",
    [(1.0, 0.2, False), (0.2, -2.0, True)],
    ids=["free", "contact"],
)
def test_integrate_matches_rk4_trajectory(offset, v0, contact):
    # free: v0 excites every odd mode, but the certificate holds from the
    # start, so integrate steps exactly while the reference takes RK4
    # substeps.  contact: the string falls onto the obstacle, the
    # certificate fails and both take the same RK4 substeps.
    n_modes, quad = 8, 32
    init = InitialData("single_mode", amplitude=0.15, mode=2, offset=offset, v0=v0)
    grid, tgrid = Grid1D(1.0, 40), TimeGrid(0.1, 20)
    phys = Physics(alpha=0.01, epsilon=0.002)
    series = integrate(init, grid, tgrid, phys, n_modes=n_modes)
    assert np.any(series.fields["penalty_force"] > 0.0) == contact

    xq = (np.arange(quad) + 0.5) / quad
    shapes = np.sin(np.arange(1, n_modes + 1)[:, None] * np.pi * xq[None, :])
    q0 = (2.0 / quad) * (shapes @ (0.15 * np.sin(2 * np.pi * xq)))
    qdot0 = (2.0 / quad) * (shapes @ np.full(quad, v0))
    state = ModalState(n_modes, q0, qdot0, offset, 1.0)
    certified = np.sum(_free_amplitude_bound(q0, qdot0, state.frequencies())) <= offset
    assert certified != contact
    n_sub = math.ceil(tgrid.dt / (0.1 / (n_modes * np.pi) ** 2))
    trajectory = list(_rk4_trajectory(state, phys, SmoothCutoff(0.002),
                                      SmoothCutoff(1.0 / n_modes), quad,
                                      h=tgrid.dt / n_sub, steps=20 * n_sub))
    for i in range(1, 21):
        eta, vel = reconstruct(trajectory[i * n_sub - 1], grid.nodes())
        assert np.max(np.abs(series.fields["eta"][i] - eta)) <= 1e-11
        assert np.max(np.abs(series.fields["velocity"][i] - vel)) <= 1e-11

"""Finite-difference stepping: penalty force, start-up, stepping, and runs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference
from conftest import log_uniform
from dense_oracle import Tridiagonal, thomas_sweep
from scheme_residual import scheme_residual
from obstring.core import (
    Grid1D,
    InitialData,
    NumericBlowupError,
    Physics,
    SimConfig,
    TimeGrid,
    evaluate_initial,
    example1_config,
    single_mode_config,
    validate_config,
)
from obstring.fd_solver import penalty_force, run


# ---------------------------------------------------------------------------
# penalty force


def test_penalty_active_on_downward_penetration():
    # depth 0.001 moving down at 2: F = (1/eps) * 2 = 4000 for eps = 5e-4
    eta = np.array([0.0, -0.001, -0.001, 0.0])
    force = penalty_force(eta, np.full(4, -2.0), epsilon=5e-4)
    assert force[0] == 0.0 and force[-1] == 0.0
    assert np.allclose(force[1:-1], 4000.0, rtol=1e-12)


def test_penalty_inactive_above_obstacle():
    eta = np.full(5, 0.5)
    velocity = np.full(5, -10.0)  # moving down, but not penetrating
    assert np.all(penalty_force(eta, velocity, 1e-3) == 0.0)


def test_penalty_inactive_on_upward_motion():
    eta = np.array([0.0, -0.2, 0.0])
    velocity = np.array([0.0, 100.0, 0.0])  # below, but rebounding
    assert np.all(penalty_force(eta, velocity, 1e-3) == 0.0)


def test_penalty_indicator_is_strict_at_zero():
    eta = np.array([0.0, 0.0, 0.0])
    velocity = np.array([0.0, -500.0, 0.0])
    assert np.all(penalty_force(eta, velocity, 1e-3) == 0.0)


def test_penalty_rejects_mismatched_frames():
    with pytest.raises(ValueError):
        penalty_force(np.zeros(4), np.zeros(5), 1e-3)
    # a length-1 velocity would broadcast silently
    with pytest.raises(ValueError):
        penalty_force(-np.ones(4), -np.ones(1), 1e-3)
    # so would one row of velocities against a stack of levels
    with pytest.raises(ValueError):
        penalty_force(-np.ones((3, 4)), -np.ones((1, 4)), 1e-3)


def test_penalty_on_a_stack_of_levels_is_bitwise_row_by_row():
    rng = np.random.default_rng(7)
    eta = rng.normal(size=(6, 9))
    velocity = rng.normal(size=(6, 9))
    # signed zeros in both fields, and a node at exactly zero depth
    velocity[0, 3], velocity[1, 4], velocity[4, 6] = -0.0, 0.0, 0.0
    eta[2, 5], eta[3, 2], eta[4, 6] = -0.0, 0.0, -1.0
    velocity[2, 5] = velocity[3, 2] = -1.0
    stack = penalty_force(eta, velocity, 0.003)
    rows = np.stack([penalty_force(e, v, 0.003) for e, v in zip(eta, velocity)])
    assert stack.tobytes() == rows.tobytes()
    assert not np.signbit(stack).any()  # every zero is +0.0
    assert (stack > 0.0).any() and not stack[:, [0, -1]].any()
    reference = np.where(eta < 0.0, np.maximum(0.0, -velocity) / 0.003, 0.0)
    reference[:, [0, -1]] = 0.0
    assert np.array_equal(stack, reference)


def test_penalty_into_a_buffer_is_the_allocating_call():
    rng = np.random.default_rng(11)
    eta = rng.normal(size=(5, 8))
    velocity = rng.normal(size=(5, 8))
    velocity[0, 2], velocity[1, 3], eta[2, 4] = -0.0, 0.0, -0.0
    velocity[2, 4] = -1.0
    for e, v in ((eta[1], velocity[1]), (eta, velocity)):  # one level, a stack
        buf = np.full(e.shape, np.nan)
        force = penalty_force(e, v, 0.004, out=buf)
        assert force is buf
        assert buf.tobytes() == penalty_force(e, v, 0.004).tobytes()
        assert not np.signbit(buf).any()  # every zero is +0.0
    assert (buf > 0.0).any()
    with pytest.raises(ValueError):  # numpy would broadcast into it
        penalty_force(eta[0], velocity[0], 0.004, out=np.empty((2, 8)))


# ---------------------------------------------------------------------------
# start-up step and stepping, seen through stride-1 runs


def _tabulated(eta0, v0, horizon_T, steps_m, alpha=0.5, epsilon=0.01):
    """A stride-1 config on the unit rod starting from node tables."""
    return SimConfig(
        grid=Grid1D(1.0, len(eta0) - 1),
        time=TimeGrid(horizon_T, steps_m),
        physics=Physics(alpha=alpha, epsilon=epsilon),
        init=InitialData(
            "tabulated", eta0_table=tuple(eta0), v0_table=tuple(v0)
        ),
        output_stride=1,
    )


def test_first_step_zero_velocity_keeps_datum():
    eta0 = np.linspace(1.0, 2.0, 11)
    series, _ = run(_tabulated(eta0, np.zeros(11), horizon_T=0.02, steps_m=2))
    assert np.array_equal(series.fields["eta"][1], eta0)
    assert np.array_equal(series.fields["velocity"][1], np.zeros(11))


def test_first_step_reference_drop_value():
    # oscillatory preset at the reference step: peak node 1.5 drops by 50*dt;
    # one step of the reference dt keeps the 1/5000 grid cheap
    cfg = example1_config(resolution=5000, output_stride=1)
    dt = cfg.time.dt
    cfg = replace(cfg, time=TimeGrid(dt, 1))
    series, ledger = run(cfg)
    eta = series.fields["eta"]
    assert eta.shape == (2, 5001) and len(ledger.rows) == 2
    j = 250  # x = 0.05, a crest of sin^2(10 pi x)
    assert abs(eta[0, j] - 1.5) < 1e-12
    assert abs(eta[1, j] - 1.49) < 1e-12
    velocity = series.fields["velocity"]
    assert np.array_equal(eta[1], eta[0] + dt * velocity[1])
    _, v0 = evaluate_initial(cfg.init, cfg.grid)
    assert np.array_equal(velocity[1, 1:-1], v0[1:-1])


def test_first_step_pins_boundaries():
    eta0 = np.linspace(1.0, 2.0, 11)
    series, _ = run(_tabulated(eta0, np.full(11, -50.0), horizon_T=0.01, steps_m=1))
    eta1 = series.fields["eta"][1]
    assert eta1[0] == eta0[0]
    assert eta1[-1] == eta0[-1]
    assert np.all(eta1[1:-1] < eta0[1:-1])


def test_steady_state_is_a_fixed_point():
    cfg = single_mode_config(
        resolution=50, amplitude=0.0, offset=1.0, horizon_T=0.2, output_stride=1
    )
    series, _ = run(cfg)
    assert len(series.times) == 11
    assert np.allclose(series.fields["eta"], 1.0, rtol=0.0, atol=1e-12)


def test_symmetric_data_stays_symmetric():
    cfg = example1_config(resolution=200, epsilon=0.002, output_stride=1)
    series, _ = run(cfg)
    eta = series.fields["eta"][:42]  # the start-up step and 40 implicit steps
    sym_err = np.max(np.abs(eta - eta[:, ::-1]), axis=1)
    assert np.all(sym_err <= 1e-12 * np.max(np.abs(eta), axis=1))


@pytest.mark.parametrize(
    "steps_m, v0",
    [(1, 0.0), (1, -50.0), (20, 0.0), (20, -50.0)],
    ids=["one-step-free", "one-step-contact", "free", "contact"],
)
def test_one_interior_node(steps_m, v0):
    # cells_n = 2: a single interior node, so every solve is 1 x 1
    eta0 = np.array([0.0, 0.3, 0.0])
    cfg = _tabulated(eta0, np.array([0.0, v0, 0.0]), horizon_T=0.2, steps_m=steps_m)
    series, ledger = run(cfg)
    eta, force = series.fields["eta"], series.penalty_force
    assert eta.shape == (steps_m + 1, 3) and len(ledger.rows) == steps_m + 1
    assert all(series.fields[k].shape == eta.shape for k in series.fields)
    assert np.all(eta[:, 0] == 0.0) and np.all(eta[:, -1] == 0.0)
    assert eta[1, 1] == 0.3 + cfg.time.dt * v0
    # v0 = -50 takes the node below the obstacle in the first step
    assert (force.max() > 0.0) == (v0 < 0.0)
    dt, dx = cfg.time.dt, cfg.grid.dx
    res = scheme_residual(series, validate_config(cfg))
    assert res.shape == (steps_m - 1, 1)
    scale = (1.0 / dt**2 + 4.0 * (0.5 / dt + 1.0) / dx**2) * np.abs(eta).max()
    assert np.abs(res).max(initial=0.0) <= 64 * np.finfo(float).eps * (scale + force.max())


def test_run_constant_datum_gives_constant_series():
    cfg = single_mode_config(
        resolution=40, amplitude=0.0, offset=2.0, horizon_T=0.5
    )
    series, ledger = run(cfg)
    assert np.allclose(series.fields["eta"], 2.0, rtol=0.0, atol=1e-12)
    assert np.allclose(series.fields["velocity"], 0.0, atol=1e-12)
    assert np.all(series.penalty_force == 0.0)
    assert np.allclose(ledger.rows[:, 1] + ledger.rows[:, 2], 0.0, atol=1e-20)


def test_run_stores_requested_stride_and_endpoints():
    cfg = single_mode_config(resolution=100, horizon_T=0.1, output_stride=7)
    series, ledger = run(cfg)
    # steps 0 and 7 plus the forced final step 10 (dt = 0.01)
    assert np.allclose(series.times, [0.0, 0.07, 0.1], atol=1e-15)
    assert len(ledger.rows) == 11  # ledger keeps every step regardless of stride


def test_scheme_residual_vanishes_without_contact():
    # single interior perturbation, no damping, string far above the obstacle
    table = np.full(33, 5.0)
    table[16] = 5.5
    cfg = _tabulated(table, np.zeros(33), horizon_T=0.1, steps_m=32, alpha=0.0)
    series, _ = run(cfg)
    res = scheme_residual(series, validate_config(cfg))
    scale = (1.0 / cfg.time.dt**2) * np.abs(series.fields["eta"]).max()
    assert np.abs(res).max() <= 1e-10 * scale


def test_scheme_residual_requires_consecutive_frames():
    cfg = single_mode_config(resolution=100, horizon_T=0.1, output_stride=5)
    series, _ = run(cfg)
    with pytest.raises(ValueError, match="stride-1"):
        scheme_residual(series, validate_config(cfg))


def test_penalty_positivity_and_support_on_stored_run(desk_ex1):
    _, series, _ = desk_ex1
    force = series.penalty_force
    eta = series.fields["eta"]
    assert np.all(force >= 0.0)
    assert np.all(force[eta >= 0.0] == 0.0)
    assert np.all(force[:, 0] == 0.0) and np.all(force[:, -1] == 0.0)
    assert force.max() > 0.0  # the drop does reach the obstacle


def test_run_symmetry_of_symmetric_preset(desk_ex1):
    _, series, _ = desk_ex1
    eta = series.fields["eta"]
    sym_err = np.max(np.abs(eta - eta[:, ::-1]))
    assert sym_err <= 1e-10


def test_stored_levels_advance_by_their_velocity(desk_ex1):
    # each step solves for v^{i+1} and sets eta^{i+1} = eta^i + dt v^{i+1};
    # the ends never move
    cfg, series, _ = desk_ex1
    eta, velocity = series.fields["eta"], series.fields["velocity"]
    assert np.array_equal(eta[1:], eta[:-1] + cfg.time.dt * velocity[1:])
    assert np.all(eta[:, 0] == eta[0, 0]) and np.all(eta[:, -1] == eta[0, -1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cells_n=st.integers(2, 600),
    steps_m=st.integers(1, 200),
    length=log_uniform(1e-2, 1e2),
    horizon=log_uniform(1e-2, 1e2),
    alpha=st.one_of(st.just(0.0), log_uniform(1e-4, 10.0)),
    ratio=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1e-3, 2.0)),  # dt / eps
    reach=log_uniform(0.3, 30.0),  # how far the string falls in T, in units of its height
    kind=st.sampled_from(["tabulated", "mirrored", "single_mode"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_valid_config_keeps_the_discrete_energy_theorem(
    cells_n, steps_m, length, horizon, alpha, ratio, reach, kind, seed
):
    # At a node in contact (eta^i < 0, v^i = b < 0) F^i = -b/eps, so with
    # a = v^{i+1} and r = dt/eps the ledger's jump minus the penalty work is
    # a^2/2 + b^2/2 - (1 - r) a b >= 0 for every a when 0 <= r <= 2, and off
    # contact F = 0.  With the ledger's identity K + E cannot rise from row 1.
    # Each bound keeps a margin of 4x or more over the worst of 3800 random
    # configs drawn like these (1200 more mirrored ones for the last): the
    # loss reached -1.7 ulp of a^2 + b^2, a K + E rise 8.6e-17 of its
    # largest value, and the ledger drifted by 9.7e-14 of kappa times its
    # largest term, kappa = dt^2 times the step matrix's diagonal, which
    # sizes the solve's rounding (the raw drift reached 9.7e-12).  Mirrored
    # tables lost symmetry by up to 9.2e-13 of max |eta|.
    rng = np.random.default_rng(seed)
    speed = reach / horizon
    if kind == "single_mode":
        amplitude = rng.uniform(0.0, 1.0)
        init = InitialData("single_mode", amplitude=amplitude,
                           mode=int(rng.integers(1, 6)),
                           offset=amplitude + rng.uniform(0.01, 1.0), v0=-speed)
    else:
        eta0 = rng.uniform(0.05, 1.0, cells_n + 1)
        eta0[[0, -1]] = rng.uniform(0.0, 1.0, 2)
        v0 = -speed * rng.uniform(-0.3, 1.0, cells_n + 1)
        if kind == "mirrored":
            half = np.arange(cells_n // 2 + 1)
            eta0[cells_n - half], v0[cells_n - half] = eta0[half], v0[half]
        init = InitialData("tabulated", eta0_table=tuple(eta0), v0_table=tuple(v0))
    dt = horizon / steps_m
    cfg = SimConfig(Grid1D(length, cells_n), TimeGrid(horizon, steps_m),
                    Physics(alpha, dt / ratio), init, output_stride=1)
    series, ledger = run(cfg)

    v, force = series.fields["velocity"], series.penalty_force
    after, before, on = v[1:], v[:-1], force[:-1] > 0.0
    loss = 0.5 * (after - before) ** 2 - dt * force[:-1] * after
    ulp = np.finfo(float).eps
    assert np.all(loss[on] >= -8.0 * ulp * (after * after + before * before)[on])

    total = ledger.rows[:, 1] + ledger.rows[:, 2]
    assert np.all(np.diff(total[1:]) <= 1e-14 * total.max())

    largest = max(np.abs(column).max() for name, column in ledger.as_columns().items()
                  if name != "time")
    kappa = 1.0 + 2.0 * dt * (dt + alpha) / cfg.grid.dx**2
    assert np.abs(ledger.residual()).max() <= 1e-12 * kappa * largest

    if kind == "mirrored":
        eta = series.fields["eta"]
        assert np.abs(eta - eta[:, ::-1]).max() <= 4e-12 * np.abs(eta).max()


def _assert_reference_loop_bits(cfg: SimConfig, series, ledger) -> None:
    """series and ledger, run's result for cfg, hold the reference loop's bits."""
    ref_series, ref_ledger = loop_reference.run(cfg)
    assert series.times.tobytes() == ref_series.times.tobytes()
    for name in ("eta", "velocity"):  # tobytes compares signbits too
        assert series.fields[name].tobytes() == ref_series.fields[name].tobytes()
    ref_columns = ref_ledger.as_columns()
    columns = ledger.as_columns()
    assert list(columns) == list(ref_columns) and len(columns) == 6
    for name, column in columns.items():
        assert column.tobytes() == ref_columns[name].tobytes(), name


@pytest.mark.parametrize("run_name", ["desk_ex1", "desk_ex2"])
def test_preset_runs_keep_the_reference_loop_bits(run_name, request):
    cfg, series, ledger = request.getfixturevalue(run_name)
    assert series.penalty_force.max() > 0.0
    _assert_reference_loop_bits(cfg, series, ledger)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cells_n=st.integers(2, 600),
    steps_m=st.integers(1, 120),
    stride=st.integers(0, 7),
    horizon=log_uniform(1e-2, 1.0),
    alpha=st.one_of(st.just(0.0), log_uniform(1e-4, 10.0)),
    ratio=st.floats(1e-3, 2.0),  # dt / eps
    reach=log_uniform(0.3, 30.0),  # how far the string falls in T, in heights
    kind=st.sampled_from(["tabulated", "single_mode"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_valid_config_keeps_the_reference_loop_bits(
    cells_n, steps_m, stride, horizon, alpha, ratio, reach, kind, seed
):
    # run steps on rolling buffers; the reference allocates every level anew
    rng = np.random.default_rng(seed)
    speed = reach / horizon
    if kind == "single_mode":
        amplitude = rng.uniform(0.0, 1.0)
        init = InitialData("single_mode", amplitude=amplitude,
                           mode=int(rng.integers(1, 6)),
                           offset=amplitude + rng.uniform(0.01, 1.0), v0=-speed)
    else:
        eta0 = rng.uniform(0.05, 1.0, cells_n + 1)
        eta0[[0, -1]] = rng.uniform(0.0, 1.0, 2)
        v0 = -speed * rng.uniform(-0.3, 1.0, cells_n + 1)
        init = InitialData("tabulated", eta0_table=tuple(eta0), v0_table=tuple(v0))
    dt = horizon / steps_m
    cfg = SimConfig(Grid1D(1.0, cells_n), TimeGrid(horizon, steps_m),
                    Physics(alpha, dt / ratio), init, output_stride=stride)
    series, ledger = run(cfg)
    _assert_reference_loop_bits(cfg, series, ledger)


def _extended_precision_eta(cfg: SimConfig) -> np.ndarray:
    """Every level of cfg's scheme in np.longdouble, from cfg's float64 inputs.

    The literal step equation: solved for eta^{i+1} with the pinned ends
    folded into the right-hand side, v^i the difference quotient, and each
    solve a scalar Thomas sweep, so no line is shared with ``run``.
    """
    ld = np.longdouble
    dt, dx = ld(cfg.time.dt), ld(cfg.grid.dx)
    alpha, eps = ld(cfg.physics.alpha), ld(cfg.physics.epsilon)
    eta0, v0 = (np.asarray(u, ld) for u in evaluate_initial(cfg.init, cfg.grid))
    coupling = (alpha / dt + 1) / dx**2
    off = np.full(eta0.size - 3, -coupling)
    m = Tridiagonal(off, np.full(eta0.size - 2, 1 / dt**2 + 2 * coupling), off)
    prev, curr = eta0, eta0.copy()
    curr[1:-1] += dt * v0[1:-1]
    levels = [prev, curr]
    for _ in range(cfg.time.steps_m - 1):
        v = (curr - prev) / dt
        force = np.where(curr < 0, np.maximum(0, -v) / eps, 0)
        rhs = (
            force[1:-1]
            + (curr[1:-1] + dt * v[1:-1]) / dt**2
            - (alpha / dt) * (curr[2:] - 2 * curr[1:-1] + curr[:-2]) / dx**2
        )
        rhs[0] += coupling * eta0[0]
        rhs[-1] += coupling * eta0[-1]
        prev, curr = curr, eta0.copy()
        curr[1:-1] = thomas_sweep(m, rhs, ld)
        levels.append(curr)
    return np.array(levels)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 here",
)
def test_run_matches_extended_precision_scheme(desk_ex1):
    # the same scheme in 64-bit-mantissa arithmetic, so what is left is
    # run's own rounding, about 3e-14; a step that solved for eta^{i+1}
    # itself would lose about 1e-12 to cancelling terms of size eta/dt^2
    cfg, series, _ = desk_ex1
    ref = _extended_precision_eta(cfg)
    assert ref.shape == series.fields["eta"].shape
    assert np.max(np.abs(series.fields["eta"] - ref)) <= 2e-13


def test_penetration_mass_scales_with_epsilon():
    # max_t of int (eta)^- dx stays <= C*eps with one C across the sweep
    sweep = (0.002, 0.001, 0.0005)
    masses = []
    for eps in sweep:
        cfg = example1_config(resolution=500, epsilon=eps)
        series, _ = run(cfg)
        neg = np.maximum(-series.fields["eta"], 0.0)
        masses.append(float((neg.sum(axis=1) * series.dx).max()))
    assert masses[0] > masses[1] > masses[2] > 0.0
    constants = [m / e for m, e in zip(masses, sweep)]
    assert max(constants) <= 2.0 * min(constants)


def test_run_blowup_reports_step_index():
    # subnormal epsilon makes the first penalty kick overflow to inf
    cfg = SimConfig(
        grid=Grid1D(1.0, 32),
        time=TimeGrid(10.0, 20),
        physics=Physics(alpha=0.0, epsilon=1e-320),
        init=InitialData("single_mode", amplitude=0.0, offset=0.5, v0=-10.0),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericBlowupError) as info:
            run(cfg)
    assert info.value.step_index == 2
    assert "step" in str(info.value)

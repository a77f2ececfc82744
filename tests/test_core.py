"""Configuration types, initial-data evaluation, validation rules, exports."""

import math
from dataclasses import replace

import numpy as np
import pytest

import obstring
from obstring import diagnostics, fd_solver, galerkin
from obstring.core import (
    ConfigurationError,
    FieldSeries,
    Grid1D,
    InitialData,
    Physics,
    SimConfig,
    TimeGrid,
    evaluate_initial,
    example1_config,
    example2_config,
    initial_callables,
    penalty_force,
    single_mode_config,
    validate_config,
)


def test_grid_spacing_and_nodes():
    grid = Grid1D(2.0, 8)
    assert grid.dx == 0.25
    xs = grid.nodes()
    assert len(xs) == 9
    assert xs[0] == 0.0 and xs[-1] == 2.0


# (length_l, cells_n) pairs
@pytest.mark.parametrize(
    "grid", [(1.0, 1), (1.0, 0), (0.0, 10), (-1.0, 10), (float("inf"), 10)]
)
def test_bad_grids_rejected(grid):
    with pytest.raises(ConfigurationError):
        Grid1D(*grid)
    with pytest.raises(ConfigurationError):
        replace(Grid1D(1.0, 10), length_l=grid[0], cells_n=grid[1])


# (horizon_T, steps_m) pairs
@pytest.mark.parametrize("tgrid", [(1.0, 0), (0.0, 10), (float("nan"), 10)])
def test_bad_time_grids_rejected(tgrid):
    with pytest.raises(ConfigurationError):
        TimeGrid(*tgrid)
    with pytest.raises(ConfigurationError):
        replace(TimeGrid(1.0, 10), horizon_T=tgrid[0], steps_m=tgrid[1])


def test_epsilon_must_be_positive():
    with pytest.raises(ConfigurationError):
        Physics(alpha=1.0, epsilon=0.0)
    with pytest.raises(ConfigurationError):
        Physics(alpha=-0.5, epsilon=0.1)
    ok = Physics(alpha=0.0, epsilon=1e-6)
    with pytest.raises(ConfigurationError):
        replace(ok, epsilon=-1.0)


def test_preset_configs_validate():
    for builder in (example1_config, example2_config):
        cfg = validate_config(builder(resolution=200))
        assert cfg.output_stride >= 1
        eta0, _ = evaluate_initial(cfg.init, cfg.grid)
        eta = fd_solver.run(cfg)[0].fields["eta"]
        assert np.all(eta[:, 0] == eta0[0]) and np.all(eta[:, -1] == eta0[-1])


def test_auto_stride_targets_about_300_frames():
    cfg = validate_config(example1_config(resolution=5000))
    assert cfg.time.steps_m == 1500
    assert cfg.output_stride == 5
    cfg = validate_config(example2_config(resolution=5000))
    assert cfg.output_stride == 8
    # short runs store every step
    cfg = validate_config(example1_config(resolution=1000))
    assert cfg.output_stride == 1


def test_example1_initial_values():
    cfg = example1_config(resolution=1000)
    eta0, v0 = evaluate_initial(cfg.init, cfg.grid)
    # 1 + 0.5 sin^2(10 pi x): value 1.5 at x = 0.05, value 1 at x = 0.1
    assert abs(eta0[50] - 1.5) < 1e-12
    assert abs(eta0[100] - 1.0) < 1e-12
    assert np.all(v0 == -50.0)


def test_example1_symmetry_is_bitwise():
    grid = Grid1D(1.0, 1000)
    eta0, _ = evaluate_initial(InitialData("example1"), grid)
    assert np.array_equal(eta0, eta0[::-1])


def test_example2_initial_values():
    grid = Grid1D(1.0, 1000)
    eta0, v0 = evaluate_initial(InitialData("example2"), grid)
    xs = grid.nodes()
    assert eta0[0] == 0.0
    assert abs(eta0[100] - 0.1) < 1e-12           # ramp x on [0, 0.2)
    assert abs(eta0[350] - 1.0) < 1e-12           # sin(pi*(0.35-0.2)/0.3) = 1
    assert abs(eta0[650] + 1.0) < 1e-12           # the sine piece dips below 0
    assert abs(eta0[900] - 1.1) < 1e-12           # 2 - x on [0.8, 1]
    assert abs(eta0[-1] - 1.0) < 1e-12
    # two-speed drop switches at x = 0.6
    assert np.all(v0[xs < 0.6] == -50.0)
    assert np.all(v0[xs >= 0.6] == -0.5)


def test_evaluate_initial_is_deterministic():
    grid = Grid1D(1.0, 333)
    a = evaluate_initial(InitialData("example2"), grid)
    b = evaluate_initial(InitialData("example2"), grid)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_single_mode_callables():
    grid = Grid1D(1.0, 100)
    init = InitialData("single_mode", amplitude=0.5, mode=2, offset=1.0, v0=-3.0)
    eta_fn, v_fn = initial_callables(init, grid)
    xs = grid.nodes()
    assert np.allclose(eta_fn(xs), 1.0 + 0.5 * np.sin(2 * np.pi * xs), atol=1e-14)
    assert np.all(v_fn(xs) == -3.0)


def test_single_mode_touching_obstacle_rejected():
    grid = Grid1D(1.0, 100)
    bad = InitialData("single_mode", amplitude=-1.5, mode=1, offset=1.0)
    with pytest.raises(ConfigurationError):
        evaluate_initial(bad, grid)
    ok = InitialData("single_mode", amplitude=0.99, mode=1, offset=1.0)
    evaluate_initial(ok, grid)


def test_single_mode_below_obstacle_at_the_ends_rejected():
    # positive inside, but pinned at -0.01: refused like the same table
    grid = Grid1D(1.0, 10)
    init = InitialData("single_mode", amplitude=1.0, mode=1, offset=-0.01)
    eta0 = initial_callables(init, grid)[0](grid.nodes())
    assert eta0[0] < 0.0 and np.all(eta0[1:-1] > 0.0)
    with pytest.raises(ConfigurationError, match="negative at node 0"):
        evaluate_initial(init, grid)
    table = InitialData("tabulated", eta0_table=tuple(eta0), v0_table=(0.0,) * 11)
    with pytest.raises(ConfigurationError, match="negative at node 0"):
        evaluate_initial(table, grid)


def test_unknown_init_kind_rejected():
    with pytest.raises(ConfigurationError):
        InitialData("weird")
    with pytest.raises(ConfigurationError):
        replace(InitialData("example1"), kind="weird")


@pytest.mark.parametrize(
    "params", [{"mode": 0}, {"mode": 1.5}, {"amplitude": float("nan")},
               {"offset": float("inf")}, {"v0": float("-inf")}],
)
def test_bad_single_mode_parameters_rejected(params):
    with pytest.raises(ConfigurationError):
        InitialData("single_mode", **{"offset": 1.0, **params})


def test_tabulated_requires_both_tables():
    with pytest.raises(ConfigurationError, match="v0 table is required"):
        InitialData("tabulated", eta0_table=(1.0,) * 11)


def test_tabulated_requires_matching_length():
    grid = Grid1D(1.0, 10)
    short = InitialData(
        "tabulated", eta0_table=tuple([1.0] * 5), v0_table=tuple([0.0] * 5)
    )
    with pytest.raises(ConfigurationError, match="expected cells_n"):
        evaluate_initial(short, grid)
    cfg = replace(single_mode_config(resolution=10), init=short)
    with pytest.raises(ConfigurationError, match="expected cells_n"):
        validate_config(cfg)


def test_tabulated_negative_datum_rejected():
    grid = Grid1D(1.0, 4)
    init = InitialData(
        "tabulated",
        eta0_table=(1.0, 1.0, -0.5, 1.0, 1.0),
        v0_table=(0.0,) * 5,
    )
    with pytest.raises(ConfigurationError, match="negative"):
        evaluate_initial(init, grid)


def test_tabulated_interior_zero_rejected_endpoint_zero_allowed():
    grid = Grid1D(1.0, 4)
    interior_zero = InitialData(
        "tabulated", eta0_table=(1.0, 1.0, 0.0, 1.0, 1.0), v0_table=(0.0,) * 5
    )
    with pytest.raises(ConfigurationError, match="interior"):
        evaluate_initial(interior_zero, grid)
    pinned_zero = InitialData(
        "tabulated", eta0_table=(0.0, 1.0, 1.0, 1.0, 0.0), v0_table=(0.0,) * 5
    )
    eta0, _ = evaluate_initial(pinned_zero, grid)
    assert eta0[0] == 0.0 and eta0[-1] == 0.0


def test_validate_config_snaps_boundaries():
    # every stored frame keeps the initial displacement's end values
    series, _ = fd_solver.run(single_mode_config(resolution=100, offset=2.0))
    assert np.all(series.fields["eta"][:, [0, -1]] == 2.0)


def test_validate_config_rejects_bad_stride():
    cfg = single_mode_config(resolution=100)
    with pytest.raises(ConfigurationError):
        validate_config(SimConfig(
            grid=cfg.grid, time=cfg.time, physics=cfg.physics, init=cfg.init,
            output_stride=-3,
        ))


@pytest.mark.parametrize("stride", [None, 2.5, "3"])
def test_sim_config_checks_its_stride(stride):
    # None is not the auto stride (0 is); nothing but an int gets through
    with pytest.raises(ConfigurationError, match="output_stride"):
        replace(single_mode_config(resolution=100), output_stride=stride)


def test_field_series_validation_and_lookup():
    times = np.array([0.0, 0.1, 0.2])
    xs = np.linspace(0.0, 1.0, 5)
    fields = {"eta": np.zeros((3, 5)), "velocity": np.zeros((3, 5))}
    series = FieldSeries(times=times, xs=xs, fields=fields, epsilon=0.5)
    assert series.dx == 0.25
    assert series.index_at_time(0.11) == 1
    assert series.index_at_time(1e9) == 2

    with pytest.raises(ValueError, match="shape"):
        FieldSeries(times=times, xs=xs, fields={"eta": np.zeros((2, 5))}, epsilon=0.5)
    with pytest.raises(ValueError, match="strictly increasing"):
        FieldSeries(times=np.array([0.0, 0.2, 0.1]), xs=xs,
                    fields={"eta": np.zeros((3, 5))}, epsilon=0.5)
    with pytest.raises(ValueError, match="strictly increasing"):
        replace(series, times=np.zeros(3))
    for epsilon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            replace(series, epsilon=epsilon)


def test_field_series_derives_the_penalty_force_once():
    # penalty_force of the whole stack, formed on first read and kept
    rng = np.random.default_rng(5)
    eta, velocity = rng.standard_normal((2, 4, 9))
    series = FieldSeries(np.arange(4.0), np.linspace(0.0, 1.0, 9),
                         {"eta": eta, "velocity": velocity}, 0.25)
    force = series.penalty_force
    assert force.tobytes() == penalty_force(eta, velocity, 0.25).tobytes()
    assert force.max() > 0.0
    assert series.penalty_force is force
    assert set(series.fields) == {"eta", "velocity"}
    # one definition, under every name it was ever exported by
    assert fd_solver.penalty_force is obstring.penalty_force is penalty_force


@pytest.mark.parametrize("module", [obstring, diagnostics, galerkin],
                         ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []

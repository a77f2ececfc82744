"""Domain types, grids, initial-data presets and configuration validation.

The model is a string of length ``l`` pinned at both endpoints, falling onto
the flat obstacle ``y = 0``.  The displacement ``eta(t, x)`` obeys the damped
wave equation

    d_tt eta - alpha * d_txx eta - d_xx eta = F,

where ``F`` is a contact force that is approximated by a velocity penalty:
``F = (1/epsilon) * [eta < 0] * (d_t eta)^-`` (``penalty_force`` below).
Everything downstream — the finite-difference solver, the spectral oracle and
the diagnostics — shares the types defined here.  Each config type checks its
own invariants once, when it is constructed (``dataclasses.replace`` checks
again), so a Grid1D, TimeGrid, Physics or InitialData that exists is valid;
``validate_config`` adds only the checks that span parts: the node tables
against the grid, and one nonnegativity screen of the initial displacement
for every kind other than the two presets.  All config types are immutable
and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

PRESET_KINDS = ("example1", "example2")
INIT_KINDS = PRESET_KINDS + ("single_mode", "tabulated")


class ConfigurationError(ValueError):
    """A simulation configuration violates its contract."""


class NumericBlowupError(RuntimeError):
    """A solver produced a non-finite state; carries the offending step."""

    def __init__(self, step_index: int, message: str | None = None):
        self.step_index = step_index
        super().__init__(
            message or f"non-finite state detected at step {step_index}"
        )


class ProbeContractError(ValueError):
    """A diagnostic probe was invoked outside its contract."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid: nodes x_j = j*dx, j = 0..cells_n."""

    length_l: float
    cells_n: int

    @property
    def dx(self) -> float:
        return self.length_l / self.cells_n

    def nodes(self) -> np.ndarray:
        # linspace pins the last node to length_l exactly
        return np.linspace(0.0, self.length_l, self.cells_n + 1)

    def __post_init__(self) -> None:
        if not (isinstance(self.cells_n, int) and self.cells_n >= 2):
            raise ConfigurationError(
                f"grid.cells_n must be an integer >= 2, got {self.cells_n!r}"
            )
        if not (np.isfinite(self.length_l) and self.length_l > 0):
            raise ConfigurationError(
                f"grid.length_l must be positive and finite, got {self.length_l!r}"
            )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: t_i = i*dt, i = 0..steps_m."""

    horizon_T: float
    steps_m: int

    @property
    def dt(self) -> float:
        return self.horizon_T / self.steps_m

    def __post_init__(self) -> None:
        if not (isinstance(self.steps_m, int) and self.steps_m >= 1):
            raise ConfigurationError(
                f"time.steps_m must be an integer >= 1, got {self.steps_m!r}"
            )
        if not (np.isfinite(self.horizon_T) and self.horizon_T > 0):
            raise ConfigurationError(
                f"time.horizon_T must be positive and finite, got {self.horizon_T!r}"
            )


@dataclass(frozen=True)
class Physics:
    """Material parameters: viscoelastic coefficient and penalty strength."""

    alpha: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(
                f"physics.alpha must be >= 0, got {self.alpha!r}"
            )
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigurationError(
                f"physics.epsilon must be > 0, got {self.epsilon!r}"
            )


@dataclass(frozen=True)
class InitialData:
    """Initial displacement/velocity selector.

    kind = "example1"    eta0 = 1 + sin^2(10 pi x)/2,  v0 = -50
    kind = "example2"    piecewise ramp/sine/ramp datum with a two-level
                         downward velocity (-50 left of x=0.6, -0.5 right)
    kind = "single_mode" eta0 = offset + amplitude*sin(mode*pi*x/l), v0 const
    kind = "tabulated"   explicit node tables (length cells_n + 1)

    The kind, the single_mode parameters and the presence and finiteness of
    both tables are checked at construction.  The table lengths, which need
    the grid, are checked by evaluate_initial, and so is the one
    nonnegativity screen that every kind except the two presets must pass.  The presets are
    evaluated verbatim, including Example 2's sign-changing sine plateau.
    """

    kind: str
    amplitude: float = 0.0
    mode: int = 1
    offset: float = 0.0
    v0: float = 0.0
    eta0_table: Optional[tuple[float, ...]] = None
    v0_table: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in INIT_KINDS:
            raise ConfigurationError(
                f"init.kind must be one of {INIT_KINDS}, got {self.kind!r}"
            )
        if self.kind == "single_mode":
            if not (isinstance(self.mode, int) and self.mode >= 1):
                raise ConfigurationError(
                    f"init.mode must be an integer >= 1, got {self.mode!r}"
                )
            for name in ("amplitude", "offset", "v0"):
                if not np.isfinite(getattr(self, name)):
                    raise ConfigurationError(f"init.{name} must be finite")
        if self.kind == "tabulated":
            for name, table in (("eta0", self.eta0_table), ("v0", self.v0_table)):
                if table is None:
                    raise ConfigurationError(f"init.{name} table is required")
                bad = np.flatnonzero(~np.isfinite(table))
                if bad.size:
                    raise ConfigurationError(
                        f"init.{name} table must be finite, got {table[bad[0]]} "
                        f"at node {bad[0]}"
                    )


@dataclass(frozen=True)
class SimConfig:
    """Full experiment description; validate_config resolves its stride."""

    grid: Grid1D
    time: TimeGrid
    physics: Physics
    init: InitialData
    output_stride: int = 0  # 0 = auto: max(1, steps_m // 300)

    def __post_init__(self) -> None:
        if not (isinstance(self.output_stride, int) and self.output_stride >= 0):
            raise ConfigurationError(
                f"output_stride must be an integer >= 0 (0 = auto), "
                f"got {self.output_stride!r}"
            )


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


@dataclass
class FieldSeries:
    """Strided space-time storage of the state and the penalty parameter.

    fields maps "eta" and "velocity" to arrays of shape (stored_steps,
    nodes), one time level per row; times is strictly increasing, epsilon
    > 0, and penalty_force of the whole stack is formed on first read.
    """

    times: np.ndarray
    xs: np.ndarray
    fields: dict[str, np.ndarray]
    epsilon: float

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @cached_property
    def penalty_force(self) -> np.ndarray:
        return penalty_force(self.fields["eta"], self.fields["velocity"], self.epsilon)

    def __post_init__(self) -> None:
        shape = (len(self.times), len(self.xs))
        for name, mat in self.fields.items():
            if mat.shape != shape:
                raise ValueError(
                    f"field {name!r} has shape {mat.shape}, expected {shape}"
                )
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon!r}")

    def index_at_time(self, t: float) -> int:
        """Index of the stored step nearest to t."""
        return int(np.argmin(np.abs(self.times - t)))


def initial_callables(
    init: InitialData, grid: Grid1D
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Vectorized x -> eta0(x), x -> v0(x) evaluators for any init kind.

    Used by evaluate_initial on the solver nodes and by the spectral oracle
    on its quadrature points (tabulated data is interpolated linearly).
    """
    if init.kind == "example1":

        def eta_fn(x):
            return 1.0 + 0.5 * np.sin(10.0 * np.pi * np.asarray(x, float)) ** 2

        def v_fn(x):
            return np.full_like(np.asarray(x, float), -50.0)

    elif init.kind == "example2":

        def eta_fn(x):
            x = np.asarray(x, float)
            return np.select(
                [x < 0.2, x < 0.8],
                [x, np.sin(np.pi * (x - 0.2) / 0.3)],
                default=2.0 - x,
            )

        def v_fn(x):
            x = np.asarray(x, float)
            return np.where(x < 0.6, -50.0, -0.5)

    elif init.kind == "single_mode":
        k = init.mode
        length = grid.length_l

        def eta_fn(x):
            x = np.asarray(x, float)
            return init.offset + init.amplitude * np.sin(k * np.pi * x / length)

        def v_fn(x):
            return np.full_like(np.asarray(x, float), init.v0)

    elif init.kind == "tabulated":
        nodes = grid.nodes()
        eta_tab = np.asarray(init.eta0_table, float)
        v_tab = np.asarray(init.v0_table, float)

        def eta_fn(x):
            return np.interp(np.asarray(x, float), nodes, eta_tab)

        def v_fn(x):
            return np.interp(np.asarray(x, float), nodes, v_tab)

    else:  # pragma: no cover - InitialData refuses other kinds
        raise ConfigurationError(f"unknown init kind {init.kind!r}")

    return eta_fn, v_fn


def evaluate_initial(
    init: InitialData, grid: Grid1D
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the initial displacement and velocity on the grid nodes.

    Deterministic and pure.  Node tables must have cells_n + 1 entries;
    np.interp at the nodes returns them bitwise.  For the symmetric preset
    (example1) the upper half of the vector is mirrored from the lower half
    so that eta0[j] == eta0[N-j] holds bitwise, which the solver's symmetry
    preservation checks rely on; mirrored values agree with direct
    evaluation to ~1 ulp.  Every kind except the two presets must start on
    or above the obstacle: no value below 0, and no interior value <= 0.
    """
    if init.kind == "tabulated":
        want = grid.cells_n + 1
        for name, table in (("eta0", init.eta0_table), ("v0", init.v0_table)):
            if len(table) != want:
                raise ConfigurationError(
                    f"init.{name} table has length {len(table)}, "
                    f"expected cells_n + 1 = {want}"
                )
    x = grid.nodes()
    eta_fn, v_fn = initial_callables(init, grid)
    eta0 = np.asarray(eta_fn(x), float).copy()
    v0 = np.asarray(v_fn(x), float).copy()

    if init.kind == "example1":
        n = grid.cells_n
        half = np.arange(0, n // 2 + 1)
        eta0[n - half] = eta0[half]
    elif init.kind not in PRESET_KINDS:
        if np.any(eta0 < 0):
            j = int(np.argmin(eta0))
            raise ConfigurationError(
                f"init.eta0 is negative at node {j} ({eta0[j]}); the string "
                "must start on or above the obstacle"
            )
        if np.any(eta0[1:-1] <= 0):
            j = 1 + int(np.argmin(eta0[1:-1]))
            raise ConfigurationError(
                f"init.eta0 touches the obstacle at interior node {j}; zeros "
                "are permitted at the endpoints only"
            )

    return eta0, v0


def validate_config(cfg: SimConfig) -> SimConfig:
    """Check the invariants that span parts of the config.

    The parts checked themselves when they were built; this evaluates the
    initial data on the grid (evaluate_initial's table lengths and
    nonnegativity screen) and returns a new SimConfig with output_stride
    resolved.
    """
    evaluate_initial(cfg.init, cfg.grid)

    stride = cfg.output_stride or max(1, cfg.time.steps_m // 300)
    return replace(cfg, output_stride=stride)


def example1_config(
    resolution: int = 5000, epsilon: float = 0.0005, alpha: float = 0.01,
    output_stride: int = 0,
) -> SimConfig:
    """Oscillatory symmetric datum dropped at speed 50; T = 0.3, l = 1.

    resolution sets dt = dx = 1/resolution (the reference runs use 5000).
    """
    steps = int(round(0.3 * resolution))
    return SimConfig(
        grid=Grid1D(1.0, resolution),
        time=TimeGrid(0.3, steps),
        physics=Physics(alpha, epsilon),
        init=InitialData("example1"),
        output_stride=output_stride,
    )


def example2_config(
    resolution: int = 5000, epsilon: float = 0.0005, alpha: float = 0.01,
    output_stride: int = 0,
) -> SimConfig:
    """Piecewise ramp/sine datum with a two-level velocity; T = 0.5, l = 1."""
    steps = int(round(0.5 * resolution))
    return SimConfig(
        grid=Grid1D(1.0, resolution),
        time=TimeGrid(0.5, steps),
        physics=Physics(alpha, epsilon),
        init=InitialData("example2"),
        output_stride=output_stride,
    )


def single_mode_config(
    resolution: int = 1000, amplitude: float = 0.5, mode: int = 1,
    offset: float = 1.0, v0: float = 0.0, alpha: float = 1.0,
    epsilon: float = 0.002, horizon_T: float = 0.3, output_stride: int = 0,
) -> SimConfig:
    """Single sine mode over a constant offset; stays off the obstacle when
    offset > |amplitude|, which makes it the analytic cross-check datum."""
    steps = int(round(horizon_T * resolution))
    return SimConfig(
        grid=Grid1D(1.0, resolution),
        time=TimeGrid(horizon_T, steps),
        physics=Physics(alpha, epsilon),
        init=InitialData(
            "single_mode", amplitude=amplitude, mode=mode, offset=offset, v0=v0
        ),
        output_stride=output_stride,
    )

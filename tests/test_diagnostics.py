"""Energy ledger, contact geometry, mollification, and theorem probes."""

import math

import numpy as np
import pytest

from obstring import diagnostics
from obstring.core import (
    FieldSeries,
    Grid1D,
    InitialData,
    Physics,
    ProbeContractError,
    SimConfig,
    TimeGrid,
    single_mode_config,
    stored_levels,
)
from obstring.diagnostics import (
    BumpTestFunction,
    EnergyLedger,
    MollifierKernel,
    builtin_test_functions,
    dissipation_estimate,
    extract_contact,
    local_energy_residual,
    mollify,
    penetration_metrics,
    renormalized_residual,
    stress_jump_probe,
    time_weights,
    velocity_jump_probe,
    weak_momentum_residual,
)
from obstring.fd_solver import run
import probe_reference


def _series(times, xs, eta=None, velocity=None, epsilon=1.0):
    """A series of the given state; its force is positive where eta < 0
    and velocity < 0, as (-velocity) / epsilon."""
    shape = (len(times), len(xs))
    fields = {
        "eta": np.ones(shape) if eta is None else np.asarray(eta, float),
        "velocity": np.zeros(shape) if velocity is None else np.asarray(velocity, float),
    }
    return FieldSeries(times=np.asarray(times, float), xs=np.asarray(xs, float),
                       fields=fields, epsilon=epsilon)


@pytest.fixture(scope="module")
def flat_run():
    """Constant string at height 2: every field identically trivial."""
    cfg = single_mode_config(resolution=50, amplitude=0.0, offset=2.0,
                             horizon_T=0.5)
    series, ledger = run(cfg)
    return cfg, series, ledger


# ---------------------------------------------------------------------------
# quadrature weights and the energy ledger


def test_time_weights_trapezoid():
    w = time_weights(np.array([0.0, 0.1, 0.2, 0.3]))
    assert np.allclose(w, [0.05, 0.1, 0.1, 0.05])
    assert abs(w.sum() - 0.3) < 1e-15


def test_time_weights_contracts():
    with pytest.raises(ValueError):
        time_weights(np.array([0.0]))
    with pytest.raises(ValueError):
        time_weights(np.array([0.0, 0.2, 0.1]))


def test_ledger_hand_case():
    cfg = SimConfig(
        grid=Grid1D(1.0, 2),
        time=TimeGrid(0.1, 1),
        physics=Physics(alpha=1.0, epsilon=0.01),
        init=InitialData("single_mode", amplitude=0.0, offset=1.0),
    )
    eta0 = np.zeros(3)
    v0 = np.array([0.0, 1.0, 0.0])
    ledger = EnergyLedger(eta0, v0, cfg)
    cols = ledger.as_columns()  # views of ledger.rows, so they see each step
    assert cols["kinetic"][0] == pytest.approx(0.25)  # 0.5 * 1 * dx
    assert cols["elastic"][0] == 0.0

    eta1 = np.array([0.0, 0.1, 0.0])
    ledger.append_step(eta1, (eta1 - eta0) / 0.1, v0, np.zeros(3))
    # v_new = (0,1,0) = v0; forward slopes of eta: (0.2, -0.2)
    assert cols["kinetic"][1] == pytest.approx(0.25)
    assert cols["elastic"][1] == pytest.approx(0.5 * (0.04 + 0.04) * 0.5)
    # forward slopes of v: (2, -2), so ||Dv||^2 = 8 * 0.5 = 4 -> visc = 1 * 0.1 * 4
    assert cols["visc_cum"][1] == pytest.approx(0.4)
    # v did not change, so only (dt^2/2) * ||Dv||^2 = 0.005 * 4 is numerical
    assert cols["num_cum"][1] == pytest.approx(0.02)
    assert cols["work_cum"][1] == 0.0
    assert cols["time"].tolist() == [0.0, 0.1]
    assert list(cols) == ["time", "kinetic", "elastic", "visc_cum", "num_cum", "work_cum"]


def test_ledger_invariants_on_stored_run(desk_ex1):
    _, _, ledger = desk_ex1
    cols = ledger.as_columns()
    assert np.all(cols["kinetic"] >= 0.0)
    assert np.all(cols["elastic"] >= 0.0)
    assert np.all(np.diff(cols["visc_cum"]) >= 0.0)
    assert np.all(np.diff(cols["num_cum"]) >= 0.0)
    assert len(ledger.residual()) == len(ledger.rows) - 1 and ledger.residual()[0] == 0.0
    # the drop hits the obstacle, so the penalty extracts energy
    assert cols["work_cum"][-1] < 0.0


def test_ledger_rows_carry_the_stored_frames_times(desk_ex1):
    # both record level i at i*dt, so energy.csv and fields.npz agree bitwise
    cfg, series, ledger = desk_ex1
    times = ledger.as_columns()["time"][stored_levels(cfg)]
    assert times.size == series.times.size == 301
    assert times.tobytes() == series.times.tobytes()


@pytest.mark.parametrize("fixture", ["desk_ex1", "desk_ex2"])
def test_ledger_closes_the_discrete_identity(fixture, request):
    _, _, ledger = request.getfixturevalue(fixture)
    e0 = ledger.rows[0, 1] + ledger.rows[0, 2]
    assert np.abs(ledger.residual()).max() <= 1e-11 * e0


# ---------------------------------------------------------------------------
# penetration and contact geometry


def test_penetration_hand_case():
    xs = np.linspace(0.0, 1.0, 101)  # dx = 0.01
    eta = np.ones((2, 101))
    eta[1, 30] = -0.001
    m = penetration_metrics(_series([0.0, 1.0], xs, eta=eta))
    assert m["depth_max"] == pytest.approx(0.001)
    assert m["l1_max"] == pytest.approx(1e-5)
    assert m["first_penetration_time"] == 1.0
    assert m["depth_final"] == pytest.approx(0.001)


def test_penetration_clean_run_is_zero(flat_run):
    _, series, _ = flat_run
    m = penetration_metrics(series)
    assert m["depth_max"] == 0.0 and m["l1_max"] == 0.0
    assert m["first_penetration_time"] is None


def test_extract_contact_no_contact(flat_run):
    _, series, _ = flat_run
    report = extract_contact(series)
    assert not report.mask.any()
    assert report.first_contact_time is None
    assert report.max_components == 0
    assert report.total_penalty_impulse == 0.0
    assert report.boundary_graphs == []


def test_extract_contact_two_components():
    xs = np.linspace(0.0, 1.0, 21)
    times = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    eta = np.ones((5, 21))
    eta[1:, 5:8] = -0.01            # first dip from t = 0.1
    eta[2:, 13:16] = -0.01          # second dip from t = 0.2
    series = _series(times, xs, eta=eta)
    report = extract_contact(series)
    assert report.first_contact_time == pytest.approx(0.1)
    assert report.components_per_time.tolist() == [0, 1, 2, 2, 2]
    assert report.max_components == 2
    # one left and one right edge per component
    assert sorted(report.graph_sides) == ["left", "left", "right", "right"]
    longest = report.boundary_graphs[0]
    assert longest.shape == (4, 2)  # the first dip lives four frames
    assert longest[0, 0] == pytest.approx(0.1)


def _fresh(series):
    """A new series of the same state, with nothing derived from it yet."""
    return FieldSeries(times=series.times, xs=series.xs, fields=dict(series.fields),
                       epsilon=series.epsilon)


@pytest.mark.parametrize("run_name", ["desk_ex1", "desk_ex2"])
def test_reading_the_mask_forms_nothing_else(run_name, request, monkeypatch):
    _, stored, _ = request.getfixturevalue(run_name)
    runs = []
    mask_runs = diagnostics._mask_runs
    monkeypatch.setattr(diagnostics, "_mask_runs",
                        lambda row: runs.append(row) or mask_runs(row))
    series = _fresh(stored)
    report = extract_contact(series)
    assert report.mask.any() and report.first_contact_time is not None
    assert "penalty_force" not in vars(series)
    assert runs == []
    # the values formed on read do not depend on the order they are read in
    names = ("total_penalty_impulse", "components_per_time", "boundary_graphs",
             "graph_sides")
    first, second = extract_contact(_fresh(stored)), extract_contact(_fresh(stored))
    a = {name: getattr(first, name) for name in names}
    b = {name: getattr(second, name) for name in reversed(names)}
    assert runs and a["total_penalty_impulse"] > 0.0
    assert a["total_penalty_impulse"].hex() == b["total_penalty_impulse"].hex()
    assert a["components_per_time"].tobytes() == b["components_per_time"].tobytes()
    assert [g.tobytes() for g in a["boundary_graphs"]] == [
        g.tobytes() for g in b["boundary_graphs"]]
    assert a["boundary_graphs"] and a["graph_sides"] == b["graph_sides"]


def test_contact_reports_compare_by_identity(desk_ex1):
    # a dataclass __eq__ would compare the masks, and their elementwise
    # comparison has no truth value
    _, series, _ = desk_ex1
    report = extract_contact(series)
    other = extract_contact(series)
    assert report == report
    assert report != other and not report == other
    assert report.mask.tobytes() == other.mask.tobytes()


@pytest.mark.parametrize("run_name", ["desk_ex1", "desk_ex2", "desk_ex2_stiff"])
def test_contact_mask_matches_definition(run_name, request):
    # the force is positive only where eta < 0, so {eta <= 0} alone is the
    # old two-term mask
    _, series, _ = request.getfixturevalue(run_name)
    report = extract_contact(series)
    eta = series.fields["eta"]
    force = series.penalty_force
    expected = (eta <= 0.0) | (force > 0.0)
    expected[:, 0] = False
    expected[:, -1] = False
    assert np.array_equal(report.mask, expected)
    interior = eta <= 0.0
    interior[:, [0, -1]] = False
    assert np.array_equal(report.mask, interior)
    assert report.total_penalty_impulse > 0.0


# ---------------------------------------------------------------------------
# mollification and dissipation


def test_mollifier_width_contract():
    with pytest.raises(ProbeContractError):
        MollifierKernel.build(0.015, dt=0.01, dx=0.01, shape=(10, 10))
    MollifierKernel.build(0.02, dt=0.01, dx=0.01, shape=(10, 10))


def test_mollify_preserves_constants_in_the_interior():
    field = np.ones((40, 60))
    kernel = MollifierKernel.build(0.05, dt=0.01, dx=0.01, shape=field.shape)
    smooth = mollify(field, kernel)
    r_t = (len(kernel.taps_t) - 1) // 2
    r_x = (len(kernel.taps_x) - 1) // 2
    inner = smooth[r_t:-r_t, r_x:-r_x]
    assert np.allclose(inner, 1.0, rtol=0.0, atol=1e-12)
    # zero extension damps the edges
    assert smooth[0, 0] < 1.0


def test_mollify_preserves_mass():
    field = np.zeros((30, 30))
    kernel = MollifierKernel.build(0.04, dt=0.01, dx=0.01, shape=field.shape)
    field[15, 15] = 3.0
    smooth = mollify(field, kernel)
    assert smooth.sum() == pytest.approx(3.0, rel=1e-12)
    assert smooth.min() >= 0.0


def test_mollify_stripe_support():
    field = np.zeros((9, 40))
    kernel = MollifierKernel.build(0.03, dt=0.01, dx=0.01, shape=field.shape)
    field[:, 20] = 1.0
    smooth = mollify(field, kernel)
    r_x = (len(kernel.taps_x) - 1) // 2
    assert np.all(smooth[:, : 20 - r_x] == 0.0)
    assert np.all(smooth[:, 21 + r_x:] == 0.0)


def test_mollify_field_shorter_than_kernel():
    # 17 taps per axis, built for a 30 x 30 field and applied to a 5-row window
    kernel = MollifierKernel.build(0.09, dt=0.01, dx=0.01, shape=(30, 30))
    field = np.random.default_rng(0).standard_normal((5, 30))
    smooth = mollify(field, kernel)

    def direct(mat, taps, axis):  # zero-extended convolution, centre slice
        r = (len(taps) - 1) // 2
        return np.apply_along_axis(
            lambda col: np.convolve(col, taps)[r:r + len(col)], axis, mat
        )

    expected = direct(direct(field, kernel.taps_t, 0), kernel.taps_x, 1)
    assert smooth.shape == field.shape
    assert np.allclose(smooth, expected, rtol=0.0, atol=8 * np.finfo(float).eps)


def test_mollifier_keeps_only_the_taps_that_can_touch_the_field():
    # 0.3 / 0.01: 59 taps an axis wherever the field holds 30 samples or more
    full = MollifierKernel.build(0.3, 0.01, 0.01, shape=(30, 30))
    assert len(full.taps_t) == len(full.taps_x) == 59
    roomy = MollifierKernel.build(0.3, 0.01, 0.01, shape=(10**9, 10**9))
    assert np.array_equal(roomy.taps_t, full.taps_t)
    clipped = MollifierKernel.build(0.3, 0.01, 0.01, shape=(12, 40))
    assert len(clipped.taps_t) == 23 and np.array_equal(clipped.taps_x, full.taps_x)
    assert clipped.taps_t.sum() == pytest.approx(1.0, rel=1e-15)
    # dt far below dx: 2e11 time taps unclipped, 201 on 101 frames
    tiny_dt = MollifierKernel.build(1.0, 1e-11, 0.25, shape=(101, 5))
    assert len(tiny_dt.taps_t) == 201 and len(tiny_dt.taps_x) == 7
    assert tiny_dt.taps_t.sum() == pytest.approx(1.0, rel=1e-15)


def test_dissipation_trivial_without_contact(flat_run):
    _, series, _ = flat_run
    kernel = MollifierKernel.build(
        4 * series.dx, float(np.diff(series.times).min()), series.dx,
        series.penalty_force.shape)
    est = dissipation_estimate(series, kernel)
    assert est["total"] == 0.0
    assert est["negative_fraction"] == 0.0
    assert not est["density"].any()


def test_dissipation_negative_fraction_is_plus_zero_without_negative_cells():
    # force on a few cells, velocity downward everywhere: the density is
    # positive where the force is and +0.0 elsewhere, so no cell is negative
    times, xs = np.linspace(0.0, 0.1, 11), np.linspace(0.0, 1.0, 21)
    eta = np.ones((11, 21))
    eta[3:8, 8:13] = -0.01
    series = _series(times, xs, eta=eta, velocity=np.full((11, 21), -1.0), epsilon=0.5)
    assert np.array_equal(series.penalty_force, 2.0 * (eta < 0.0))
    est = dissipation_estimate(series, MollifierKernel.build(0.2, 0.01, 0.05, eta.shape))
    assert est["total"] > 0.0
    fraction = est["negative_fraction"]
    assert fraction == 0.0 and math.copysign(1.0, fraction) == 1.0


def test_dissipation_converges_to_unsmoothed_total(desk_ex1):
    _, series, _ = desk_ex1
    dt = float(np.diff(series.times).min())
    raw = float(
        (series.penalty_force * (-series.fields["velocity"])
         * time_weights(series.times)[:, None] * series.dx).sum()
    )
    gaps = []
    for cells in (8, 4, 2):
        kernel = MollifierKernel.build(cells * series.dx, dt, series.dx,
                                       series.penalty_force.shape)
        est = dissipation_estimate(series, kernel)
        assert 0.0 <= est["negative_fraction"] <= 1.0
        assert est["total"] > 0.0
        gaps.append(abs(est["total"] - raw))
    # the smoothed total approaches the raw one as the kernel narrows
    assert gaps[0] > gaps[1] > gaps[2]


def _assert_matches_whole_field(series, kernel):
    """The windowed estimate is the whole-field one bitwise on {F > 0}, +0.0
    off it, and its sums agree (a zero total may differ in sign)."""
    got = dissipation_estimate(series, kernel)
    ref = probe_reference.dissipation_estimate(series, kernel)
    on = series.penalty_force > 0.0
    assert got["density"][on].tobytes() == ref["density"][on].tobytes()
    assert np.array_equal(got["density"], ref["density"])
    assert not np.signbit(got["density"][~on]).any()
    assert got["total"] == ref["total"]
    assert got["negative_fraction"] == ref["negative_fraction"]
    return got


@pytest.mark.parametrize("cells", [8, 4, 2])
@pytest.mark.parametrize("run_name", ["desk_ex1", "desk_ex2"])
def test_windowed_dissipation_is_the_whole_field_estimate(request, run_name, cells):
    _, series, _ = request.getfixturevalue(run_name)
    dt = float(np.diff(series.times).min())
    est = _assert_matches_whole_field(
        series, MollifierKernel.build(cells * series.dx, dt, series.dx,
                                      series.penalty_force.shape))
    assert est["total"] > 0.0


@pytest.mark.parametrize("cells", [
    [],                                # no positive cell
    [(0, 7), (6, 30)],                 # frame 0 and an interior cell
    [(0, 1), (11, 38)],                # first and last frame, next to both rod ends
    [(6, 20)],                         # one cell: the kernel outgrows its window
])
def test_windowed_dissipation_at_the_edges_of_the_field(cells):
    rng = np.random.default_rng(23)
    times, xs = np.linspace(0.0, 0.11, 12), np.linspace(0.0, 1.0, 40)
    eta, velocity = np.ones((12, 40)), rng.standard_normal((12, 40))
    for cell in cells:  # a force in (0.5, 2.0) on each chosen cell, none elsewhere
        eta[cell], velocity[cell] = -0.01, -rng.uniform(0.5, 2.0)
    series = _series(times, xs, eta=eta, velocity=velocity)
    assert np.count_nonzero(series.penalty_force) == len(cells)
    dx = float(xs[1] - xs[0])
    for omega in (2.5 * dx, 0.3):  # 0.3 spans more frames and nodes than the field
        est = _assert_matches_whole_field(
            series, MollifierKernel.build(omega, 0.01, dx, eta.shape))
        assert (est["total"] != 0.0) == bool(cells)


# ---------------------------------------------------------------------------
# weak-form residual probes


def test_builtin_test_functions_cover_the_box():
    bumps = builtin_test_functions(0.3, 1.0)
    assert set(bumps) == {"early", "mid_left", "late_right", "wide", "narrow"}
    times = np.linspace(0.0, 0.3, 61)
    xs = np.linspace(0.0, 1.0, 101)
    for bump in bumps.values():
        a, _, b, _ = bump.profiles(times, xs)
        p = np.outer(a, b)
        assert p.min() >= 0.0 and p.max() > 0.0
        assert np.all(p[-1] == 0.0)            # off at the final time
        assert np.all(p[:, 0] == 0.0) and np.all(p[:, -1] == 0.0)


def test_bump_derivative_grids_match_finite_differences():
    bump = BumpTestFunction(0.5, 0.3, 0.4, 0.25, amplitude=2.0)
    times = np.linspace(0.1, 0.9, 2001)
    xs = np.linspace(0.1, 0.7, 1501)
    a, a_t, b, b_x = bump.profiles(times, xs)
    assert np.allclose(a_t[1:-1], np.gradient(a, times)[1:-1], atol=1e-3)
    assert np.allclose(b_x[1:-1], np.gradient(b, xs)[1:-1], atol=1e-3)


def _grid_rule_terms(series, cfg, phi):
    """Every weak-form term by the 2-D rule: dense test-function grids
    summed cell by cell against trapezoid weights (the reference rule)."""
    tau = (series.times - phi.t_center) / phi.t_width
    xi = (series.xs - phi.x_center) / phi.x_width

    def g(s):
        return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3, 0.0)

    def dg(s):
        return np.where(np.abs(s) < 1.0, -6.0 * s * (1.0 - s * s) ** 2, 0.0)

    p = phi.amplitude * np.outer(g(tau), g(xi))
    p_t = (phi.amplitude / phi.t_width) * np.outer(dg(tau), g(xi))
    p_x = (phi.amplitude / phi.x_width) * np.outer(g(tau), dg(xi))
    w_t, dx = time_weights(series.times), series.dx

    def ii(G, q):
        return float(np.sum(G * q * w_t[:, None]) * dx)

    def i0(row):
        return float(np.sum(row * p[0]) * dx)

    v, eta = series.fields["velocity"], series.fields["eta"]
    force, alpha = series.penalty_force, cfg.physics.alpha
    w = np.maximum(v, 0.0)
    dxv, dxw, dxeta = (np.gradient(f, dx, axis=1) for f in (v, w, eta))
    return {
        weak_momentum_residual: {
            "transport": ii(v, p_t), "viscous": -alpha * ii(dxv, p_x),
            "elastic": -ii(dxeta, p_x), "initial": i0(v[0]), "forcing": ii(force, p),
        },
        local_energy_residual: {
            "kinetic_transport": -0.5 * ii(v * v, p_t),
            "elastic_transport": -0.5 * ii(dxeta * dxeta, p_t),
            "viscous": alpha * ii(dxv * dxv, p),
            "contact": ii(force * np.maximum(-v, 0.0), p),
            "viscous_flux": alpha * ii(dxv * v, p_x),
            "elastic_flux": ii(dxeta * v, p_x),
            "rhs": i0(0.5 * v[0] ** 2 + 0.5 * dxeta[0] ** 2),
        },
        renormalized_residual: {
            "transport": ii(w * w, p_t),
            "viscous_flux": -alpha * ii(dxv * 2.0 * w, p_x),
            "viscous_bulk": -alpha * ii(dxw * dxw * 2.0, p),
            "elastic_flux": -ii(dxeta * 2.0 * w, p_x),
            "elastic_bulk": -ii(dxeta * 2.0 * dxw, p),
            "initial": i0(w[0] ** 2),
        },
    }


WEAK_FORMS = (weak_momentum_residual, local_energy_residual, renormalized_residual)


@pytest.mark.parametrize("run_name", ["desk_ex1", "desk_ex2"])
def test_weak_form_terms_match_the_grid_rule(run_name, request):
    cfg, series, _ = request.getfixturevalue(run_name)
    T, L = float(series.times[-1]), cfg.grid.length_l
    block = diagnostics.FRAME_BLOCK * float(series.times[1] - series.times[0])
    bumps = {
        **builtin_test_functions(T, L),
        # x-support (0, 0.4 l): the window starts at the rod end, with no halo
        "rod_end": BumpTestFunction(0.0, 0.4 * T, 0.2 * L, 0.2 * L),
        # t-support starts at 0.3 T: the window holds no initial frame
        "late_start": BumpTestFunction(0.6 * T, 0.3 * T, 0.5 * L, 0.3 * L),
        # five nodes inside the x-support
        "few_nodes": BumpTestFunction(0.3 * T, 0.2 * T, 0.55 * L, 2.5 * series.dx),
        # t-support shorter than one frame block
        "short": BumpTestFunction(0.5 * T, 0.4 * block, 0.4 * L, 0.2 * L),
        # t-support of two and a half frame blocks
        "ragged": BumpTestFunction(0.25 * T, 1.25 * block, 0.6 * L, 0.3 * L),
    }
    expected = {name: _grid_rule_terms(series, cfg, phi) for name, phi in bumps.items()}
    # every bump in one call, then each of the last five alone, so that its
    # edge case sets the window: the rod end, no initial frame, a window a
    # few nodes wide, a walk of less than one block, one that ends on a
    # partial block
    alone = ("rod_end", "late_start", "few_nodes", "short", "ragged")
    for chosen in (bumps, *({name: bumps[name]} for name in alone)):
        for probe in WEAK_FORMS:
            out = probe(series, cfg, chosen)
            assert list(out) == list(chosen)
            for name, terms in out.items():
                assert terms["scale"] > 0.0
                for term, value in expected[name][probe].items():
                    assert abs(terms[term] - value) <= 1e-13 * terms["scale"], (
                        probe.__name__, name, term)


def _poisoned(series, window):
    """series with NaN in eta and velocity wherever window is False."""
    assert not window.all()
    return FieldSeries(
        times=series.times, xs=series.xs,
        fields={k: np.where(window, f, np.nan) for k, f in series.fields.items()},
        epsilon=series.epsilon,
    )


def _support_window(series, bumps):
    """The frames where some a or a' is nonzero, by the nodes where some b or
    b' is nonzero plus one on each side."""
    on_t = np.zeros(len(series.times), dtype=bool)
    on_x = np.zeros(len(series.xs), dtype=bool)
    for phi in bumps.values():
        a, a_t, b, b_x = phi.profiles(series.times, series.xs)
        on_t |= (a != 0.0) | (a_t != 0.0)
        on_x |= (b != 0.0) | (b_x != 0.0)
    rows, cols = np.flatnonzero(on_t), np.flatnonzero(on_x)
    window = np.zeros((len(series.times), len(series.xs)), dtype=bool)
    window[rows[0]:rows[-1] + 1, max(cols[0] - 1, 0):cols[-1] + 2] = True
    return window


def test_weak_form_probes_read_only_the_support_window(desk_ex2):
    # NaN outside the window of the bumps in the call must not reach a term:
    # each bump alone, then the five together on the union of their windows
    cfg, series, _ = desk_ex2
    bumps = builtin_test_functions(float(series.times[-1]), cfg.grid.length_l)
    for chosen in [*({name: phi} for name, phi in bumps.items()), bumps]:
        poisoned = _poisoned(series, _support_window(series, chosen))
        for probe in WEAK_FORMS:
            out = probe(poisoned, cfg, chosen)
            for name, terms in out.items():
                assert all(np.isfinite(list(terms.values()))), (probe.__name__, name)
            assert out == probe(series, cfg, chosen), (probe.__name__, list(chosen))


def test_weak_forms_vanish_for_a_bump_between_grid_points(desk_ex1):
    # no node (or no stored frame) inside the support: an empty window alone,
    # and zero profiles inside the other bump's window together
    cfg, series, _ = desk_ex1
    dx, dt = series.dx, float(series.times[1] - series.times[0])
    bumps = {"between_nodes": BumpTestFunction(0.1, 0.05, 0.5 + 0.5 * dx, 0.4 * dx),
             "between_frames": BumpTestFunction(0.1 + 0.5 * dt, 0.4 * dt, 0.5, 0.2)}
    for chosen in [*({name: phi} for name, phi in bumps.items()), bumps]:
        for probe in WEAK_FORMS:
            for name, terms in probe(series, cfg, chosen).items():
                assert terms["scale"] == 0.0, (probe.__name__, name, terms)


def test_probe_rejects_unsupported_test_function(desk_ex1):
    cfg, series, _ = desk_ex1
    builtin = builtin_test_functions(float(series.times[-1]), cfg.grid.length_l)
    late = BumpTestFunction(0.3, 0.1, 0.5, 0.2)  # still on at t = T
    wide = BumpTestFunction(0.1, 0.05, 0.5, 0.8)  # spills over the rod ends
    for bad in (late, wide):
        for chosen in ({"bad": bad}, {**builtin, "bad": bad}):
            with pytest.raises(ProbeContractError):
                weak_momentum_residual(series, cfg, chosen)


def test_renorm_rejects_negative_test_function(desk_ex1):
    cfg, series, _ = desk_ex1
    builtin = builtin_test_functions(float(series.times[-1]), cfg.grid.length_l)
    bad = BumpTestFunction(0.1, 0.05, 0.5, 0.2, amplitude=-1.0)
    for probe in (local_energy_residual, renormalized_residual):
        for chosen in ({"bad": bad}, {**builtin, "bad": bad}):
            with pytest.raises(ProbeContractError):
                probe(series, cfg, chosen)
    weak_momentum_residual(series, cfg, {"bad": bad})  # takes any sign


def _precontact_run(resolution, v0=0.0):
    cfg = single_mode_config(resolution=resolution, horizon_T=0.3, v0=v0)
    series, _ = run(cfg)
    return cfg, series


def test_momentum_residual_shrinks_under_refinement():
    bump = builtin_test_functions(0.3, 1.0)["mid_left"]
    res = {}
    for resolution in (250, 500):
        cfg, series = _precontact_run(resolution)
        out = weak_momentum_residual(series, cfg, {"mid_left": bump})["mid_left"]
        res[resolution] = abs(out["residual"])
        assert out["scale"] > 0.1
    assert res[500] < 0.65 * res[250]  # first-order refinement
    assert res[500] < 1e-3


def test_energy_residual_shrinks_under_refinement():
    bump = builtin_test_functions(0.3, 1.0)["mid_left"]
    slacks = {}
    for resolution in (250, 500):
        cfg, series = _precontact_run(resolution)
        out = local_energy_residual(series, cfg, {"mid_left": bump})["mid_left"]
        slacks[resolution] = abs(out["slack"])
    assert slacks[500] < 0.65 * slacks[250]
    assert slacks[500] < 1e-3


def test_renorm_slack_shrinks_under_refinement():
    bump = builtin_test_functions(0.3, 1.0)["mid_left"]
    slacks = {}
    for resolution in (250, 500):
        cfg, series = _precontact_run(resolution, v0=1.0)
        out = renormalized_residual(series, cfg, {"mid_left": bump})["mid_left"]
        slacks[resolution] = abs(out["slack"])
    assert slacks[500] < 0.65 * slacks[250]
    assert slacks[500] < 1e-3


def test_renorm_zero_when_velocity_never_positive():
    cfg, series = _precontact_run(250)
    assert np.all(series.fields["velocity"] <= 1e-15)
    bumps = {"mid_left": builtin_test_functions(0.3, 1.0)["mid_left"]}
    out = renormalized_residual(series, cfg, bumps)["mid_left"]
    assert out["slack"] == 0.0 and out["scale"] == 0.0


# ---------------------------------------------------------------------------
# contact-boundary probes


def test_stress_probe_trivial_on_no_contact(flat_run):
    cfg, series, _ = flat_run
    graph = np.array([[0.1, 0.5], [0.4, 0.5]])
    out = stress_jump_probe(series, cfg, graph, delta=0.1)
    # the resting state carries ~1e-13 solver rounding noise in the fields
    assert out["jump_total"] == pytest.approx(0.0, abs=1e-9)
    assert out["penalty_mass"] == 0.0
    assert out["time_span"] == pytest.approx(0.3)


def test_stress_probe_contracts(flat_run):
    cfg, series, _ = flat_run
    graph = np.array([[0.1, 0.5], [0.4, 0.5]])
    with pytest.raises(ProbeContractError, match="two cells"):
        stress_jump_probe(series, cfg, graph, delta=0.5 * series.dx)
    with pytest.raises(ProbeContractError, match="leave the domain"):
        stress_jump_probe(series, cfg, graph, delta=0.6)
    with pytest.raises(ProbeContractError, match="polyline"):
        stress_jump_probe(series, cfg, np.array([[0.1, 0.5]]), delta=0.1)
    backwards = np.array([[0.4, 0.5], [0.1, 0.5]])
    with pytest.raises(ProbeContractError, match="increasing"):
        stress_jump_probe(series, cfg, backwards, delta=0.1)


def test_windowed_stress_jump_matches_whole_field(desk_ex2, desk_ex2_stiff):
    # every candidate criterion 10 scores: the strip values are the
    # whole-field ones bitwise, and only BLAS row sums over fewer columns may
    # round differently (OpenBLAS 0.3.31: 12 of 336 values, 2.2e-15 relative)
    worst, checked = 0.0, 0
    for cfg, series, _ in (desk_ex2, desk_ex2_stiff):
        report = extract_contact(series)
        length = cfg.grid.length_l
        for graph in report.boundary_graphs:
            if len(graph) < 3:
                continue
            if graph[:, 1].min() <= 0.05 * length or graph[:, 1].max() >= 0.95 * length:
                continue
            for delta in np.arange(0.006, 0.0501, 0.004):
                try:
                    got = stress_jump_probe(series, cfg, graph, float(delta))
                except ProbeContractError:
                    continue
                ref = probe_reference.stress_jump_probe(series, cfg, graph, float(delta))
                assert (got["delta"], got["time_span"]) == (ref["delta"], ref["time_span"])
                for key in ("jump_total", "penalty_mass"):
                    gap = abs(got[key] - ref[key])
                    worst = max(worst, gap / abs(ref[key]) if gap else 0.0)
                checked += 1
    assert checked > 100
    assert worst <= 1e-12


def test_windowed_stress_jump_strips_reaching_both_rod_ends():
    rng = np.random.default_rng(7)
    times, xs = np.linspace(0.0, 0.2, 21), np.linspace(0.0, 1.0, 41)
    shape = (21, 41)
    series = _series(times, xs, eta=rng.standard_normal(shape),
                     velocity=rng.standard_normal(shape), epsilon=0.5)
    cfg = single_mode_config(resolution=40, horizon_T=0.2)
    for graph, delta in (
        (np.array([[0.02, 0.5], [0.17, 0.5]]), 0.5),    # the whole rod
        (np.array([[0.0, 0.1], [0.2, 0.9]]), 0.1),      # from end to end
        (np.array([[0.05, 0.42], [0.15, 0.47]]), 0.07),  # an interior window
    ):
        got = stress_jump_probe(series, cfg, graph, delta)
        ref = probe_reference.stress_jump_probe(series, cfg, graph, delta)
        for key in ref:
            assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0)


def test_velocity_probe_trivial_on_resting_string(flat_run):
    _, series, _ = flat_run
    out = velocity_jump_probe(series, t1=0.24, x0=0.4, x1=0.6,
                              deltas=[0.08, 0.04, 0.02])
    assert np.allclose(out["before"], 0.0, atol=1e-10)
    assert np.allclose(out["after"], 0.0, atol=1e-10)
    assert np.allclose(out["jump"], 0.0, atol=1e-10)
    assert out["node_count"] == 11
    assert np.all(np.diff(out["deltas"]) < 0)  # reported largest first


def test_velocity_probe_contracts(flat_run):
    _, series, _ = flat_run
    with pytest.raises(ProbeContractError):
        velocity_jump_probe(series, 0.25, 0.6, 0.4, deltas=[0.02])
    with pytest.raises(ProbeContractError):
        velocity_jump_probe(series, 0.25, 0.4, 0.6, deltas=[0.02, -0.01])
    with pytest.raises(ProbeContractError):
        velocity_jump_probe(series, 0.01, 0.4, 0.6, deltas=[0.08])


def test_velocity_probe_window_must_span_stored_frames():
    cfg = single_mode_config(resolution=100, amplitude=0.0, offset=2.0,
                             horizon_T=0.5, output_stride=10)
    series, _ = run(cfg)
    with pytest.raises(ProbeContractError, match="stride"):
        velocity_jump_probe(series, 0.25, 0.4, 0.6, deltas=[0.05, 0.01])


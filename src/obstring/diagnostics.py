"""Verification probes for penalized-string runs.

The energy ledger books the scheme's own discrete energy step by step (see
EnergyLedger).  The probes consume a FieldSeries (displacement, the velocity
each step solves for, and the penalty force it derives from them) and
produce scalar or tabular diagnostics: penetration metrics, contact-set
geometry, mollified dissipation estimates, and residuals of the weak-form
identities the solution is expected to satisfy (momentum balance, localized
energy decay, a renormalization identity for the positive velocity part,
and jump identities across the contact boundary).  extract_contact forms
only the contact set {eta <= 0} and its first instant; the report forms
the penalty impulse and the contact boundary graphs on first read, so a
caller that draws only the mask derives no force and links no edge.

Every space-time integral uses one rule: cell sums in x and trapezoidal
weights over the stored instants in t (time_weights), so probes stay
meaningful on strided output.  Test functions are separable polynomial
bumps phi = a(t) b(x) and enter only through their 1-D profiles, so the
rule applied to II[f phi] is the bilinear form (w_t dx a) . f . b; the
weak forms stack k bumps' b as a (nodes x k) B, so one f @ B serves all k,
and dissipation_estimate and velocity_jump_probe apply the rule directly.

A probe whose integrand vanishes outside a known set slices the stored
fields to a window around it before any derivative or product is formed,
and every value it forms on that set is the whole-field one bitwise:

- the weak-form residuals: the union of the bumps' supports (plus one node
  on each side for the x-derivatives), walked FRAME_BLOCK frames at a time;
- dissipation_estimate: the bounding box of the penalty force's support
  {F > 0}, widened on each axis by the mollifier's radius;
- stress_jump_probe: the frames its boundary graph covers, and the strip
  columns [min f - delta, max f + delta] plus one node on each side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import FieldSeries, ProbeContractError, SimConfig

__all__ = [
    "BumpTestFunction",
    "ContactReport",
    "EnergyLedger",
    "MollifierKernel",
    "builtin_test_functions",
    "dissipation_estimate",
    "extract_contact",
    "local_energy_residual",
    "mollify",
    "penetration_metrics",
    "renormalized_residual",
    "stress_jump_probe",
    "time_weights",
    "velocity_jump_probe",
    "weak_momentum_residual",
]


def time_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights for a sorted sequence of instants."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need at least two instants for time quadrature")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("instants must be strictly increasing")
    w = np.empty_like(times)
    w[0] = (times[1] - times[0]) / 2.0
    w[-1] = (times[-1] - times[-2]) / 2.0
    w[1:-1] = (times[2:] - times[:-2]) / 2.0
    return w


def _form(field2d: np.ndarray, wa: np.ndarray, b: np.ndarray) -> float:
    """II[field * a(t) b(x)], with wa = trapezoid weight * dx * a(t).

    field, wa and b may all be restricted to the same window of frames and
    nodes; where a(t) b(x) vanishes outside it, the sum is the same.
    """
    return float(wa @ (field2d @ b))


def _span(mask: np.ndarray, halo: int) -> slice:
    """Indices from the first to the last True entry of mask, widened by halo
    on each side and clipped to the array.  A mask with no True entry spans
    index 0 and its halo, where the caller's integrand vanishes."""
    on = np.flatnonzero(mask)
    first, last = (on[0], on[-1]) if len(on) else (0, 0)
    return slice(max(first - halo, 0), min(last + 1 + halo, len(mask)))


# ---------------------------------------------------------------------------
# energy accounting


class EnergyLedger:
    """Per-step energy bookkeeping in the scheme's own discrete energy.

    With D the forward difference, ||u||^2 = sum(u^2)*dx, v^{i+1} the
    velocity each step solves for (eta^{i+1} = eta^i + dt v^{i+1}) and
    E = ||v||^2/2 + ||D eta||^2/2, every implicit step satisfies exactly

        E^{i+1} - E^i + ||v^{i+1} - v^i||^2/2
            + (dt^2/2 + alpha*dt) * ||D v^{i+1}||^2  =  dt * <F^i, v^{i+1}>.

    Row i of rows, one (steps_m + 1) x 6 array under COLUMNS, records time
    i*dt (the rule of FieldSeries.times), kinetic and elastic energy, and
    running sums of the viscous term alpha*dt*||Dv||^2, of the scheme's
    numerical dissipation (the rest of the left side) and of the penalty
    work.  Row 0 holds the initial datum; step 0 -> 1, the kinematic
    start-up, lies outside the identity, so residual() measures closure
    from row 1.

    The penalty's work has no sign, but with r = dt/epsilon the step's
    loss at each node, (v^{i+1} - v^i)^2/2 - dt F^i v^{i+1}, is >= 0 for
    0 <= r <= 2.  Off contact F = 0; at a node in contact (eta^i < 0,
    b = v^i < 0, F = -b/epsilon) it is a^2/2 + b^2/2 - (1 - r) a b with
    a = v^{i+1}, which is >= 0 for every a exactly when |1 - r| <= 1.  So
    for dt <= 2 epsilon K + E cannot rise from row 1 on.  Braking alone maps
    b to (1 - r) b: for r <= 1 the penalty never reverses a velocity.

    append_step forms its three differences (the velocity jump and the two
    slopes) in scratch arrays sized for the grid's nodes when the ledger is
    made, so a step allocates no array.
    """

    COLUMNS = ("time", "kinetic", "elastic", "visc_cum", "num_cum", "work_cum")

    def __init__(self, eta0: np.ndarray, v0: np.ndarray, cfg: SimConfig):
        self.dt, self.dx, self.alpha = cfg.time.dt, cfg.grid.dx, cfg.physics.alpha
        # jump, slope, slope_v
        self._scratch = (np.empty(eta0.size), np.empty(eta0.size - 1),
                         np.empty(eta0.size - 1))
        levels = cfg.time.steps_m + 1
        self.rows = np.zeros((levels, len(self.COLUMNS)))
        self.rows[:, 0] = np.arange(levels) * self.dt
        slope = np.diff(eta0)
        self.rows[0, 1] = 0.5 * float(v0 @ v0) * self.dx
        self.rows[0, 2] = 0.5 * float(slope @ slope) / self.dx
        self._level = 0

    def append_step(
        self, eta_new: np.ndarray, v_new: np.ndarray, v: np.ndarray,
        force: np.ndarray,
    ) -> None:
        """Account for one step from velocity v to (eta_new, v_new) under force."""
        dt, dx, rows = self.dt, self.dx, self.rows
        jump, slope, slope_v = self._scratch
        np.subtract(v_new, v, out=jump)
        np.subtract(eta_new[1:], eta_new[:-1], out=slope)  # np.diff, in place
        np.subtract(v_new[1:], v_new[:-1], out=slope_v)
        dv_sq = float(slope_v @ slope_v) / dx  # ||Dv||^2
        self._level = i = self._level + 1
        rows[i, 1] = 0.5 * float(v_new @ v_new) * dx
        rows[i, 2] = 0.5 * float(slope @ slope) / dx
        rows[i, 3] = rows[i - 1, 3] + self.alpha * dt * dv_sq
        rows[i, 4] = (rows[i - 1, 4] + 0.5 * float(jump @ jump) * dx
                      + 0.5 * dt * dt * dv_sq)
        rows[i, 5] = rows[i - 1, 5] + dt * float(force @ v_new) * dx

    def residual(self) -> np.ndarray:
        """Drift of K + E + visc_cum + num_cum - work_cum from its row-1 value.

        One entry per row from row 1 on; zero up to rounding.
        """
        _, kinetic, elastic, visc_cum, num_cum, work_cum = self.rows.T
        budget = kinetic + elastic + visc_cum + num_cum - work_cum
        return budget[1:] - budget[1:2]

    def as_columns(self) -> dict[str, np.ndarray]:
        return dict(zip(self.COLUMNS, self.rows.T))


# ---------------------------------------------------------------------------
# penetration and contact geometry


def penetration_metrics(series: FieldSeries) -> dict[str, float | None]:
    """Size of the negative displacement excursion over the stored frames.

    Returns the worst pointwise depth, the largest L1 mass of the negative
    part at any stored instant, the final-frame values of both, and the
    first stored time with any penetration (None when the string never
    dips below the obstacle, so probes.json holds null, as for
    ContactReport.first_contact_time).
    """
    eta = series.fields["eta"]
    dx = series.dx
    neg = np.maximum(-eta, 0.0)
    per_time_l1 = neg.sum(axis=1) * dx
    per_time_depth = neg.max(axis=1)
    hit = np.nonzero(per_time_depth > 0.0)[0]
    return {
        "depth_max": float(per_time_depth.max()),
        "l1_max": float(per_time_l1.max()),
        "depth_final": float(per_time_depth[-1]),
        "l1_final": float(per_time_l1[-1]),
        "first_penetration_time": float(series.times[hit[0]]) if len(hit) else None,
    }


@dataclass(eq=False)
class ContactReport:
    """Contact-set geometry of a stored series.

    extract_contact forms mask and first_contact_time; every other value is
    formed from the kept series on first read and cached, so a caller that
    reads only the mask never derives the penalty force or links an edge.
    The linking pass reads mask when it runs, so a caller that writes to the
    mask writes to a copy.  A report equals only itself (comparing masks
    elementwise has no single truth value).

    mask
        Boolean (frames x nodes) array; a node is in contact when its
        displacement is <= 0, which covers every node where the penalty
        force is positive (its indicator is eta < 0).  Boundary nodes are
        exempt (they are pinned, not in contact).
    first_contact_time
        The first stored instant with a node in contact, or None.
    total_penalty_impulse
        II[F], the penalty force integrated over the stored frames.
    components_per_time, boundary_graphs, graph_sides
        One pass links the edges of contact components frame to frame, each
        to the nearest edge of the same side within link_cells grid cells,
        and drops chains shorter than MIN_CHAIN_FRAMES frames.  It gives the
        component count of each frame, and the polylines (k, 2) of
        (time, x) tracing the kept chains, longest-lived first, with the
        side ("left" or "right") each traces.
    """

    mask: np.ndarray
    first_contact_time: float | None
    series: FieldSeries = field(repr=False)
    link_cells: int = field(default=12, repr=False)

    @functools.cached_property
    def total_penalty_impulse(self) -> float:
        series = self.series
        return _form(series.penalty_force, time_weights(series.times) * series.dx,
                     np.ones_like(series.xs))

    @functools.cached_property
    def _links(self) -> tuple[np.ndarray, list[np.ndarray], list[str]]:
        """(components_per_time, boundary_graphs, graph_sides), one pass."""
        mask, xs, times = self.mask, self.series.xs, self.series.times
        in_contact = mask.any(axis=1)
        tol = self.link_cells * self.series.dx
        chains: list[tuple[str, list]] = []  # (side, points), in creation order
        live: dict[str, list[list]] = {"left": [], "right": []}
        components = np.zeros(len(times), dtype=int)

        for s in range(len(times)):
            if not in_contact[s]:  # no edge to link: every chain ends here
                live = {"left": [], "right": []}
                continue
            t = float(times[s])
            runs = _mask_runs(mask[s])
            components[s] = len(runs)
            for side, pos in (("left", 0), ("right", 1)):
                edges = [float(xs[r[pos]]) for r in runs]
                taken = [False] * len(edges)
                linked = []
                for pts in live[side]:
                    best, best_d = -1, tol
                    for k, x in enumerate(edges):
                        d = abs(x - pts[-1][1])
                        if not taken[k] and d <= best_d:
                            best, best_d = k, d
                    if best >= 0:
                        taken[best] = True
                        pts.append((t, edges[best]))
                        linked.append(pts)
                for k, x in enumerate(edges):
                    if not taken[k]:
                        chains.append((side, [(t, x)]))
                        linked.append(chains[-1][1])
                live[side] = linked

        kept = [c for c in chains if len(c[1]) >= MIN_CHAIN_FRAMES]
        kept.sort(key=lambda c: len(c[1]), reverse=True)
        return components, [np.array(pts) for _, pts in kept], [side for side, _ in kept]

    @property
    def components_per_time(self) -> np.ndarray:
        return self._links[0]

    @property
    def boundary_graphs(self) -> list[np.ndarray]:
        return self._links[1]

    @property
    def graph_sides(self) -> list[str]:
        return self._links[2]

    @property
    def max_components(self) -> int:
        return int(self.components_per_time.max()) if len(self.components_per_time) else 0


def _mask_runs(row: np.ndarray) -> list[tuple[int, int]]:
    """Inclusive (start, stop) index pairs of the True runs of a 1-D mask."""
    idx = np.nonzero(row)[0]
    if len(idx) == 0:
        return []
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate(([idx[0]], idx[breaks + 1]))
    stops = np.concatenate((idx[breaks], [idx[-1]]))
    return list(zip(starts.tolist(), stops.tolist()))


# a boundary graph needs two instants to be a polyline
MIN_CHAIN_FRAMES = 2


def extract_contact(series: FieldSeries, link_cells: int = 12) -> ContactReport:
    """Locate the contact set of series and its first instant.

    The report keeps series and link_cells, from which it forms the penalty
    impulse and links the component edges on first read (see ContactReport).
    """
    mask = series.fields["eta"] <= 0.0
    mask[:, 0] = False
    mask[:, -1] = False
    any_contact = np.flatnonzero(mask.any(axis=1))
    first_time = float(series.times[any_contact[0]]) if len(any_contact) else None
    return ContactReport(mask, first_time, series, link_cells)


# ---------------------------------------------------------------------------
# mollification and dissipation


@dataclass(frozen=True)
class MollifierKernel:
    """Separable compactly supported smoothing kernel of radius omega.

    Per-axis taps are samples of exp(-1/(1 - s^2)) on |s| < 1, scaled so
    that discrete convolution approximates the unit-mass integral
    (weights already include the cell size).  Fields are extended by
    zero outside their domain, which is the intended behavior for
    quantities supported in the interior.  So on an axis of count samples
    no tap beyond count - 1 samples from the centre can touch the field:
    the kernel is built for a field's (frames, nodes) shape and keeps only
    the taps that can, normalized over the taps kept.
    """

    omega: float
    taps_t: np.ndarray
    taps_x: np.ndarray

    @staticmethod
    def _axis_taps(omega: float, delta: float, count: int) -> np.ndarray:
        radius = int(math.ceil(min(omega / delta, count))) - 1
        offsets = np.arange(-radius, radius + 1) * delta
        s = offsets / omega
        weights = np.exp(-1.0 / (1.0 - s * s))
        weights /= weights.sum() * delta
        return weights * delta

    @classmethod
    def build(cls, omega: float, dt: float, dx: float,
              shape: tuple[int, int]) -> "MollifierKernel":
        if omega < 2.0 * max(dt, dx):
            raise ProbeContractError(
                f"mollifier width {omega:g} below twice the grid spacing "
                f"max(dt={dt:g}, dx={dx:g})"
            )
        return cls(
            omega=omega,
            taps_t=cls._axis_taps(omega, dt, shape[0]),
            taps_x=cls._axis_taps(omega, dx, shape[1]),
        )


def _smooth_frames(field2d: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Centred convolution along axis 0 with zero extension, same shape.

    out[i] = sum_k taps[k] * field[i + r - k] with r = (len(taps) - 1) // 2:
    one shifted add per tap, each clipped to the field, so any field length
    works, also one shorter than the kernel.
    """
    n, r = len(field2d), (len(taps) - 1) // 2
    out = np.zeros_like(field2d)
    for k, weight in enumerate(taps):
        shift = r - k
        if abs(shift) < n:
            out[max(0, -shift):n - max(0, shift)] += (
                weight * field2d[max(0, shift):n + min(0, shift)]
            )
    return out


def mollify(field2d: np.ndarray, kernel: MollifierKernel) -> np.ndarray:
    """Smooth a (frames x nodes) field along both axes (zero extension)."""
    smooth_t = _smooth_frames(np.asarray(field2d, float), kernel.taps_t)
    return _smooth_frames(smooth_t.T, kernel.taps_x).T


def dissipation_estimate(series: FieldSeries, kernel: MollifierKernel) -> dict:
    """Contact dissipation density force * (-smoothed velocity).

    The unsmoothed product is nonnegative by construction of the penalty;
    smoothing the velocity leaks sign changes into the density.  The
    negative_fraction entry reports how much of the total mass (in
    absolute value) the negative cells carry — it should shrink as the
    kernel width does.

    The force F >= 0 confines the density to {F > 0}.  The velocity is
    mollified only on that set's bounding box widened by the kernel radius
    on each axis: the taps of a cell with F > 0 read no value outside it,
    so the density there is the whole-field product bitwise.  It is +0.0
    wherever F is not positive.
    """
    force = series.penalty_force
    on = force > 0.0
    window = (_span(on.any(axis=1), halo=(len(kernel.taps_t) - 1) // 2),
              _span(on.any(axis=0), halo=(len(kernel.taps_x) - 1) // 2))
    density = np.zeros_like(force)
    np.multiply(force[window], -mollify(series.fields["velocity"][window], kernel),
                out=density[window], where=on[window])
    weighted = density * time_weights(series.times)[:, None] * series.dx
    total_abs = float(np.abs(weighted).sum())
    # 0 - sum: with no negative cell the empty sum gives +0.0, not -0.0
    negative = 0.0 - float(weighted[weighted < 0.0].sum())
    return {
        "omega": kernel.omega,
        "total": float(weighted.sum()),
        "negative_fraction": negative / total_abs if total_abs > 0.0 else 0.0,
        "density": density,
    }


# ---------------------------------------------------------------------------
# compactly supported test functions


@dataclass(frozen=True)
class BumpTestFunction:
    """Separable C^2 bump amp * g((t-tc)/tw) * g((x-xc)/xw), g(s)=(1-s^2)^3.

    Nonnegative, compactly supported in the open rectangle
    (tc - tw, tc + tw) x (xc - xw, xc + xw), with analytic first
    derivatives.  Builders are expected to keep the spatial support inside
    the open rod and the temporal support away from the final time; the
    initial time may be inside the support.
    """

    t_center: float
    t_width: float
    x_center: float
    x_width: float
    amplitude: float = 1.0
    name: str = "bump"

    @staticmethod
    def _g(s: np.ndarray) -> np.ndarray:
        inside = np.abs(s) < 1.0
        return np.where(inside, (1.0 - s * s) ** 3, 0.0)

    @staticmethod
    def _dg(s: np.ndarray) -> np.ndarray:
        inside = np.abs(s) < 1.0
        return np.where(inside, -6.0 * s * (1.0 - s * s) ** 2, 0.0)

    def profiles(self, times: np.ndarray, xs: np.ndarray):
        """The 1-D factors (a, a', b, b') of phi(t, x) = a(t) * b(x); a carries amp."""
        tau = (np.asarray(times, float) - self.t_center) / self.t_width
        xi = (np.asarray(xs, float) - self.x_center) / self.x_width
        return (
            self.amplitude * self._g(tau),
            (self.amplitude / self.t_width) * self._dg(tau),
            self._g(xi),
            self._dg(xi) / self.x_width,
        )


def builtin_test_functions(horizon_T: float, length_l: float) -> dict[str, BumpTestFunction]:
    """Five bumps covering the space-time box; 'early' is active at t=0."""
    T, L = horizon_T, length_l
    bumps = [
        BumpTestFunction(0.0, 0.40 * T, 0.50 * L, 0.45 * L, name="early"),
        BumpTestFunction(0.45 * T, 0.40 * T, 0.30 * L, 0.25 * L, name="mid_left"),
        BumpTestFunction(0.70 * T, 0.28 * T, 0.70 * L, 0.25 * L, name="late_right"),
        BumpTestFunction(0.35 * T, 0.34 * T, 0.50 * L, 0.48 * L, name="wide"),
        BumpTestFunction(0.20 * T, 0.18 * T, 0.55 * L, 0.12 * L, name="narrow"),
    ]
    return {b.name: b for b in bumps}


# ---------------------------------------------------------------------------
# weak-form residuals


# frames per block of the weak-form walk: at 1/5000, faster than 16, 64 or one pass
FRAME_BLOCK = 32


def _weak_terms(series: FieldSeries, bumps: dict[str, BumpTestFunction], integrands,
                require_nonneg: bool = False) -> dict[str, dict[str, float]]:
    """{bump name: {term: coefficient * II[field * factor]}} for every bump at once.

    The walk covers the frames where some a or a' is nonzero and the nodes
    where some b or b' is, plus one node on each side (clipped to the rod),
    so np.gradient along x is the whole-field one wherever b or b' is not 0.
    integrands(eta, v, force, dx) gets FRAME_BLOCK frames of it at a time and
    returns {term: (factor, coefficient, field)}: "p", "p_t" or "p_x" is one
    field @ B with the bumps' b or b' stacked as (nodes x k) B, and "p0" is
    I[field p(0, .)] from the walk's first frame, 0.0 unless it is frame 0.
    """
    profiles = [phi.profiles(series.times, series.xs) for phi in bumps.values()]
    a, a_t, b, b_x = (np.column_stack(p) for p in zip(*profiles))
    if np.abs(a[-1] * b).max() > 0.0 or np.abs(a[:, None] * b[[0, -1]]).max() > 0.0:
        raise ProbeContractError(
            "test function must vanish at the final time and at both rod ends"
        )
    # the extremes of a(t) b(x) are products of the extremes of a and of b
    if require_nonneg and (np.array([a.min(0), a.max(0)])[:, None]
                           * [b.min(0), b.max(0)]).min() < 0.0:
        raise ProbeContractError("test function must be nonnegative")
    rows = _span(((a != 0.0) | (a_t != 0.0)).any(axis=1), halo=0)
    cols = _span(((b != 0.0) | (b_x != 0.0)).any(axis=1), halo=1)
    w = time_weights(series.times)[rows, None] * series.dx
    against = {"p": (w * a[rows], b[cols]), "p_t": (w * a_t[rows], b[cols]),
               "p_x": (w * a[rows], b_x[cols])}
    a0 = a[0] * series.dx if rows.start == 0 else np.zeros(len(bumps))
    eta, v = series.fields["eta"][rows, cols], series.fields["velocity"][rows, cols]
    force = series.penalty_force[rows, cols]
    sums: dict[str, np.ndarray] = {}
    for start in range(0, len(eta), FRAME_BLOCK):
        block = slice(start, start + FRAME_BLOCK)
        for term, (factor, coefficient, f) in integrands(
                eta[block], v[block], force[block], series.dx).items():
            if factor == "p0":
                part = a0 * (f[0] @ b[cols]) if start == 0 else 0.0
            else:
                wa, bb = against[factor]
                part = np.einsum("fk,fk->k", wa[block], f @ bb)
            sums[term] = sums.get(term, 0.0) + coefficient * part
    return {name: {term: float(total[j]) for term, total in sums.items()}
            for j, name in enumerate(bumps)}


def _tally(terms: dict[str, float], total: str) -> dict[str, float]:
    """{total: their sum, "scale": the sum of their magnitudes, **terms}.  + 0.0
    makes a zero term +0.0 (-alpha * 0.0 is -0.0) and keeps every other's bits."""
    terms = {name: t + 0.0 for name, t in terms.items()}
    return {total: sum(terms.values()), "scale": sum(abs(t) for t in terms.values()),
            **terms}


def weak_momentum_residual(
    series: FieldSeries, cfg: SimConfig, bumps: dict[str, BumpTestFunction]
) -> dict[str, dict[str, float]]:
    """Residual of the weak momentum balance against each test function.

    For a solution, transport + viscous + elastic terms balance the
    initial-velocity term and the penalty-force mass:

        II[v p_t - a (d_x v) p_x - (d_x eta) p_x] + I[v0 p(0,.)] + II[F p] = 0.

    Returns, per name of bumps, the residual, the individual terms, and
    scale = sum of their magnitudes for relative comparison.
    """
    alpha = cfg.physics.alpha

    def integrands(eta, v, force, dx):
        return {"transport": ("p_t", 1.0, v),
                "viscous": ("p_x", -alpha, np.gradient(v, dx, axis=1)),
                "elastic": ("p_x", -1.0, np.gradient(eta, dx, axis=1)),
                "initial": ("p0", 1.0, v[:1]), "forcing": ("p", 1.0, force)}

    return {name: _tally(terms, "residual")
            for name, terms in _weak_terms(series, bumps, integrands).items()}


def local_energy_residual(
    series: FieldSeries, cfg: SimConfig, bumps: dict[str, BumpTestFunction]
) -> dict[str, dict[str, float]]:
    """Slack of the localized energy inequality per (nonnegative) test function.

    lhs collects the transported energy density, viscous dissipation,
    contact dissipation (density F * (-v)^+), and the flux terms; rhs is
    the initial energy weighted by phi(0, .).  For a dissipative solution
    lhs <= rhs, so slack = rhs - lhs should not be significantly negative.
    """
    alpha = cfg.physics.alpha

    def integrands(eta, v, force, dx):
        dxv, dxeta = np.gradient(v, dx, axis=1), np.gradient(eta, dx, axis=1)
        kinetic, elastic = v * v, dxeta * dxeta
        return {"kinetic_transport": ("p_t", -0.5, kinetic),
                "elastic_transport": ("p_t", -0.5, elastic),
                "viscous": ("p", alpha, dxv * dxv),
                "contact": ("p", 1.0, force * np.maximum(-v, 0.0)),
                "viscous_flux": ("p_x", alpha, dxv * v),
                "elastic_flux": ("p_x", 1.0, dxeta * v),
                "rhs": ("p0", 1.0, 0.5 * kinetic[:1] + 0.5 * elastic[:1])}

    out = {}
    for name, terms in _weak_terms(series, bumps, integrands, require_nonneg=True).items():
        rhs, lhs = terms.pop("rhs"), _tally(terms, "lhs")
        out[name] = {"lhs": lhs["lhs"], "rhs": rhs, "slack": rhs - lhs["lhs"],
                     **lhs, "scale": abs(rhs) + lhs["scale"]}
    return out


def renormalized_residual(
    series: FieldSeries, cfg: SimConfig, bumps: dict[str, BumpTestFunction]
) -> dict[str, dict[str, float]]:
    """Slack of the renormalization identity for w = max(v, 0).

    With b(w) = w^2 the identity reads, for nonnegative phi:

        II[w^2 p_t] - a II[(d_x v) 2w p_x] - a II[|d_x w|^2 2 p]
          - II[(d_x eta) 2w p_x] - II[(d_x eta) (d_x 2w) p] + I[w0^2 p(0,.)]
          >= 0,

    with equality in the continuum because the penalty only acts where the
    velocity is negative, where b'(w) vanishes.  Returns the slack and a
    magnitude scale per name of bumps.
    """
    alpha = cfg.physics.alpha

    def integrands(eta, v, force, dx):
        w = np.maximum(v, 0.0)
        dxv, dxw, dxeta = (np.gradient(f, dx, axis=1) for f in (v, w, eta))
        return {"transport": ("p_t", 1.0, w * w),
                "viscous_flux": ("p_x", -2.0 * alpha, dxv * w),
                "viscous_bulk": ("p", -2.0 * alpha, dxw * dxw),
                "elastic_flux": ("p_x", -2.0, dxeta * w),
                "elastic_bulk": ("p", -2.0, dxeta * dxw),
                "initial": ("p0", 1.0, w[:1] * w[:1])}

    return {name: _tally(terms, "slack") for name, terms in
            _weak_terms(series, bumps, integrands, require_nonneg=True).items()}


# ---------------------------------------------------------------------------
# contact-boundary probes


def _graph_on_times(
    boundary: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stored instants covered by the graph and the interpolated positions."""
    boundary = np.asarray(boundary, dtype=float)
    if boundary.ndim != 2 or boundary.shape[1] != 2 or len(boundary) < 2:
        raise ProbeContractError("contact boundary must be a (k, 2) polyline, k >= 2")
    if np.any(np.diff(boundary[:, 0]) <= 0.0):
        raise ProbeContractError("contact boundary times must be strictly increasing")
    inside = np.nonzero((times >= boundary[0, 0]) & (times <= boundary[-1, 0]))[0]
    if len(inside) < 2:
        raise ProbeContractError("contact boundary covers fewer than two stored instants")
    f = np.interp(times[inside], boundary[:, 0], boundary[:, 1])
    return inside, f


# the narrowest stress_jump strip, in cells
MIN_STRIP_CELLS = 2


def stress_jump_probe(
    series: FieldSeries, cfg: SimConfig, boundary: np.ndarray, delta: float
) -> dict[str, float]:
    """Momentum-flux jump across a contact boundary vs. penalty mass nearby.

    The stress sigma = d_x eta + alpha * d_tx eta is integrated over strips
    of width delta on either side of the polyline x = f(t); the
    concentrated contact force carried by the graph equals

        -(1/delta) * [ II_{f<x<f+delta} sigma - II_{f-delta<x<f} sigma ]

    in the limit of small delta, and should match the penalty-force mass
    in the strip |x - f| <= delta.  Both are returned for comparison.

    Only the graph's frames and the strip columns plus one node on each
    side are read.  The stress there is the whole-field one bitwise; the
    strip sums run over the window's columns, so their last bits may
    differ from sums over every node.
    """
    if delta < MIN_STRIP_CELLS * series.dx:
        raise ProbeContractError(
            f"strip width {delta:g} must be at least two cells "
            f"({MIN_STRIP_CELLS * series.dx:g})"
        )
    rows, f = _graph_on_times(boundary, series.times)
    xs = series.xs
    if np.any(f - delta < xs[0]) or np.any(f + delta > xs[-1]):
        raise ProbeContractError(
            f"strips of width {delta:g} around the boundary, which spans "
            f"x in [{f.min():g}, {f.max():g}], leave the domain [{xs[0]:g}, {xs[-1]:g}]"
        )

    # a node in some strip has xs - max(f) <= delta and xs - min(f) >= -delta
    # (rounding is monotone); one more node on each side keeps np.gradient
    # central, hence the whole-field value, on every strip node
    cols = _span((xs - f.max() <= delta) & (xs - f.min() >= -delta), halo=1)
    dx = series.dx
    alpha = cfg.physics.alpha
    eta = series.fields["eta"][rows, cols]
    v = series.fields["velocity"][rows, cols]
    sigma = np.gradient(eta, dx, axis=1) + alpha * np.gradient(v, dx, axis=1)
    force = series.penalty_force[rows, cols]

    w = time_weights(series.times[rows]) * dx
    ones = np.ones(eta.shape[1])
    pos = xs[None, cols] - f[:, None]
    right = (pos > 0.0) & (pos <= delta)
    left = (pos >= -delta) & (pos <= 0.0)
    near = np.abs(pos) <= delta

    flux_right = _form(np.where(right, sigma, 0.0), w, ones)
    flux_left = _form(np.where(left, sigma, 0.0), w, ones)
    jump_total = -(flux_right - flux_left) / delta
    penalty_mass = _form(np.where(near, force, 0.0), w, ones)

    return {
        "jump_total": jump_total,
        "penalty_mass": penalty_mass,
        "delta": delta,
        "time_span": float(series.times[rows][-1] - series.times[rows][0]),
    }


def velocity_jump_probe(
    series: FieldSeries,
    t1: float,
    x0: float,
    x1: float,
    deltas,
) -> dict[str, np.ndarray]:
    """Short-window velocity averages before/after an instant on [x0, x1].

    For each window length delta the probe returns

        (1/delta) * int_{t1}^{t1+delta} int_{x0}^{x1} v(t,x) dx dt

    and the matching backward window over [t1 - delta, t1].  Once the
    segment has stuck to the obstacle the forward averages trend to zero as
    delta shrinks, and after - before estimates the mass of the
    concentrated contact force in the window.
    """
    xs = series.xs
    times = series.times
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    if np.any(deltas <= 0.0):
        raise ProbeContractError("window lengths must be positive")
    if not (xs[0] <= x0 < x1 <= xs[-1]):
        raise ProbeContractError(
            f"probe interval [{x0:g}, {x1:g}] must satisfy 0 <= x0 < x1 <= l = {xs[-1]:g}"
        )
    dmax = float(deltas[0])
    if t1 - dmax < times[0] - 1e-12 or t1 + dmax > times[-1] + 1e-12:
        raise ProbeContractError(
            f"windows around t1={t1:g} exceed the stored range "
            f"[{times[0]:g}, {times[-1]:g}]"
        )

    cols = np.nonzero((xs >= x0 - 1e-12) & (xs <= x1 + 1e-12))[0]
    v = series.fields["velocity"][:, cols]
    unit = v.sum(axis=1) * series.dx

    def window_mean(values: np.ndarray, lo: float, hi: float) -> float:
        rows = np.nonzero((times >= lo - 1e-12) & (times <= hi + 1e-12))[0]
        if len(rows) < 2:
            raise ProbeContractError(
                f"window [{lo:g}, {hi:g}] holds {len(rows)} stored instant(s), not the "
                f"two it needs: the storage stride is {float(np.max(np.diff(times))):g}"
            )
        w = time_weights(times[rows])
        return float(np.sum(values[rows] * w) / (hi - lo))

    before = np.array([window_mean(unit, t1 - d, t1) for d in deltas])
    after = np.array([window_mean(unit, t1, t1 + d) for d in deltas])
    return {
        "deltas": deltas,
        "before": before,
        "after": after,
        "jump": after - before,
        "node_count": len(cols),
    }


"""Whole-field references for the two probes that read only a window.

``dissipation_estimate`` and ``stress_jump_probe`` in ``obstring.diagnostics``
restrict their work to where the penalty force or the strips live.  The
versions below form every quantity on the whole (frames x nodes) field, the
plain reading of each formula, so the tests can pin the windowed probes
against them.  They live with the tests because no package path needs them.
"""

import numpy as np

from obstring.diagnostics import _form, _graph_on_times, mollify, time_weights


def dissipation_estimate(series, kernel) -> dict:
    """Density force * (-mollified velocity) on every stored cell."""
    v_smooth = mollify(series.fields["velocity"], kernel)
    density = series.penalty_force * (-v_smooth)
    weighted = density * time_weights(series.times)[:, None] * series.dx
    total_abs = float(np.abs(weighted).sum())
    negative = 0.0 - float(weighted[weighted < 0.0].sum())
    return {
        "omega": kernel.omega,
        "total": float(weighted.sum()),
        "negative_fraction": negative / total_abs if total_abs > 0.0 else 0.0,
        "density": density,
    }


def stress_jump_probe(series, cfg, boundary, delta: float) -> dict:
    """Strip fluxes of the stress and the penalty mass over every node.

    The contract checks on delta and the strips are the package's; this
    reference assumes they pass.
    """
    rows, f = _graph_on_times(boundary, series.times)
    xs, dx = series.xs, series.dx
    eta = series.fields["eta"][rows]
    v = series.fields["velocity"][rows]
    sigma = np.gradient(eta, dx, axis=1) + cfg.physics.alpha * np.gradient(v, dx, axis=1)
    force = series.penalty_force[rows]

    w = time_weights(series.times[rows]) * dx
    ones = np.ones_like(xs)
    pos = xs[None, :] - f[:, None]
    right = (pos > 0.0) & (pos <= delta)
    left = (pos >= -delta) & (pos <= 0.0)
    near = np.abs(pos) <= delta

    flux_right = _form(np.where(right, sigma, 0.0), w, ones)
    flux_left = _form(np.where(left, sigma, 0.0), w, ones)
    return {
        "jump_total": -(flux_right - flux_left) / delta,
        "penalty_mass": _form(np.where(near, force, 0.0), w, ones),
        "delta": delta,
        "time_span": float(series.times[rows][-1] - series.times[rows][0]),
    }

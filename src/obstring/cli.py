"""Command-line harness for penalized-string experiments.

Subcommands
-----------
run <config>            execute a configured experiment
example1 [--out DIR]    preset: pinned sine-squared profile dropped at speed 50
example2 [--out DIR]    preset: piecewise profile with multiple contact regions
sweep --axis A --values v1,v2,... <config>
                        rerun the base config along one parameter axis
probe <run-dir>         evaluate diagnostics over a stored run
render <run-dir>        regenerate heatmaps from the stored fields

Configs are INI-style text with sections [grid], [time], [physics], [init],
[output], [probes]; unknown sections or keys are rejected with line numbers.
Runs, sweep points included, store their fields (times, node positions,
eta, velocity, penalty force and the contact mask) once, in fields.npz,
which probe and render read back bitwise.  The csv format adds text
exports of the same fields; they, the energy ledger and the snapshots go
through one np.savetxt writer with 17 significant digits.  Then come
PPM/SVG heatmaps and a manifest.json with sha256 checksums, per-phase
wall-clock times and the energy ledger's closure (energy_residual_max).

Exit codes: 0 success, 2 configuration error, 3 numeric blowup,
4 probe-contract violation.  OBSTRING_THREADS caps the sweep worker pool.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import logging
import math
import os
import struct
import sys
import time as _time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, fd_solver, galerkin
from .core import (
    ConfigurationError,
    FieldSeries,
    Grid1D,
    InitialData,
    NumericBlowupError,
    Physics,
    ProbeContractError,
    SimConfig,
    TimeGrid,
    example1_config,
    example2_config,
    validate_config,
)

log = logging.getLogger(__name__)

EXAMPLE1_SNAPSHOTS = (0.0, 0.02, 0.04, 0.06, 0.2, 0.3)
EXAMPLE2_SNAPSHOTS = (0.0, 0.04, 0.08, 0.16, 0.28, 0.32)

KNOWN_FORMATS = ("npz", "csv", "heatmap", "snapshots")
DEFAULT_FORMATS = ("npz", "heatmap", "snapshots")
FIELD_STORE = "fields.npz"
FIELD_FILES = (
    ("eta", "eta.csv"),
    ("velocity", "velocity.csv"),
    ("penalty_force", "penalty.csv"),
)
TABLE_KEYS = ("eta0_file", "v0_file")
DEFAULT_PROBES = (
    "penetration",
    "contact",
    "momentum",
    "energy_local",
    "renorm",
    "dissipation",
)


# ---------------------------------------------------------------------------
# configuration text format


@dataclass(frozen=True)
class OutputSettings:
    dir: str | None = None
    formats: tuple[str, ...] = DEFAULT_FORMATS
    snapshots: tuple[float, ...] = ()
    oracle_modes: int = 0


@dataclass(frozen=True)
class ProbeSettings:
    enabled: tuple[str, ...] = DEFAULT_PROBES
    link_cells: int = 12
    dissipation_omega_cells: float = 4.0
    stress_delta: float = 0.0
    velocity_t1: float = -1.0
    velocity_x0: float = 0.0
    velocity_x1: float = 0.0
    velocity_deltas: tuple[float, ...] = ()


@dataclass(frozen=True)
class ParsedConfig:
    sim: SimConfig
    output: OutputSettings = OutputSettings()
    probes: ProbeSettings = ProbeSettings()
    # absolute (eta0_file, v0_file) of kind = tabulated, re-emitted verbatim
    table_files: tuple[str, str] | None = None


_SCHEMA: dict[str, dict[str, type]] = {
    "grid": {"l": float, "n": int},
    "time": {"T": float, "m": int},
    "physics": {"alpha": float, "epsilon": float},
    "init": {
        "kind": str,
        "amplitude": float,
        "mode": int,
        "offset": float,
        "v0": float,
        "eta0_file": str,
        "v0_file": str,
    },
    "output": {
        "stride": int,
        "dir": str,
        "formats": str,
        "snapshots": str,
        "oracle_modes": int,
    },
    "probes": {
        "enabled": str,
        "link_cells": int,
        "dissipation_omega_cells": float,
        "stress_delta": float,
        "velocity_t1": float,
        "velocity_x0": float,
        "velocity_x1": float,
        "velocity_deltas": str,
    },
}


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _read_column_file(path: str) -> tuple[float, ...]:
    try:
        values = np.loadtxt(path, delimiter=",", ndmin=1)
    except OSError as exc:
        raise ConfigurationError(f"cannot read table {path}: {exc}") from exc
    return tuple(np.atleast_1d(values).astype(float).tolist())


def parse_config(text: str) -> ParsedConfig:
    """Parse INI-style configuration text into run settings.

    Unknown sections or keys, repeated keys, and type errors are rejected
    with the offending line number.
    """
    values: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigurationError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigurationError(f"line {lineno}: key outside any section")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _SCHEMA[section]:
            raise ConfigurationError(f"line {lineno}: unknown key [{section}].{key}")
        if key in values[section]:
            raise ConfigurationError(f"line {lineno}: duplicate key [{section}].{key}")
        caster = _SCHEMA[section][key]
        try:
            values[section][key] = caster(val)
        except ValueError as exc:
            raise ConfigurationError(
                f"line {lineno}: bad value for [{section}].{key}: {exc}"
            ) from exc

    def require(sec: str, key: str):
        if key not in values[sec]:
            raise ConfigurationError(f"missing required key [{sec}].{key}")
        return values[sec][key]

    grid = Grid1D(length_l=float(require("grid", "l")), cells_n=int(require("grid", "n")))
    tgrid = TimeGrid(horizon_T=float(require("time", "T")), steps_m=int(require("time", "m")))
    physics = Physics(
        alpha=float(values["physics"].get("alpha", 1.0)),
        epsilon=float(require("physics", "epsilon")),
    )

    init_vals = values["init"]
    kind = str(require("init", "kind"))
    eta0_table = v0_table = table_files = None
    if kind == "tabulated":
        table_files = tuple(os.path.abspath(str(require("init", k))) for k in TABLE_KEYS)
        eta0_table, v0_table = (_read_column_file(path) for path in table_files)
    init = InitialData(
        kind=kind,
        amplitude=float(init_vals.get("amplitude", 0.0)),
        mode=int(init_vals.get("mode", 1)),
        offset=float(init_vals.get("offset", 0.0)),
        v0=float(init_vals.get("v0", 0.0)),
        eta0_table=eta0_table,
        v0_table=v0_table,
    )

    sim = SimConfig(
        grid=grid,
        time=tgrid,
        physics=physics,
        init=init,
        output_stride=int(values["output"].get("stride", 0)),
    )

    fmt_text = str(values["output"].get("formats", ",".join(DEFAULT_FORMATS)))
    if fmt_text.strip() == "none":
        formats: tuple[str, ...] = ()
    else:
        formats = tuple(tok.strip() for tok in fmt_text.split(",") if tok.strip())
        bad = [f for f in formats if f not in KNOWN_FORMATS]
        if bad:
            raise ConfigurationError(f"unknown output format(s): {', '.join(bad)}")
    output = OutputSettings(
        dir=str(values["output"]["dir"]) if "dir" in values["output"] else None,
        formats=formats,
        snapshots=_parse_float_list(str(values["output"].get("snapshots", ""))),
        oracle_modes=int(values["output"].get("oracle_modes", 0)),
    )

    probe_vals = values["probes"]
    enabled_text = str(probe_vals.get("enabled", ",".join(DEFAULT_PROBES)))
    if enabled_text.strip() == "none":
        enabled: tuple[str, ...] = ()
    elif enabled_text.strip() == "all":
        enabled = DEFAULT_PROBES
    else:
        enabled = tuple(tok.strip() for tok in enabled_text.split(",") if tok.strip())
        bad = [p for p in enabled if p not in DEFAULT_PROBES]
        if bad:
            raise ConfigurationError(f"unknown probe(s): {', '.join(bad)}")
    probes = ProbeSettings(
        enabled=enabled,
        link_cells=int(probe_vals.get("link_cells", 12)),
        dissipation_omega_cells=float(probe_vals.get("dissipation_omega_cells", 4.0)),
        stress_delta=float(probe_vals.get("stress_delta", 0.0)),
        velocity_t1=float(probe_vals.get("velocity_t1", -1.0)),
        velocity_x0=float(probe_vals.get("velocity_x0", 0.0)),
        velocity_x1=float(probe_vals.get("velocity_x1", 0.0)),
        velocity_deltas=_parse_float_list(str(probe_vals.get("velocity_deltas", ""))),
    )

    return ParsedConfig(sim=sim, output=output, probes=probes, table_files=table_files)


def emit_config(parsed: ParsedConfig) -> str:
    """Serialize settings back to config text; parse(emit(p)) == p."""
    sim, out, pr = parsed.sim, parsed.output, parsed.probes
    if sim.init.kind == "tabulated" and parsed.table_files is None:
        raise ConfigurationError("tabulated initial data needs its table files")
    lines = [
        "[grid]",
        f"l = {sim.grid.length_l:.17g}",
        f"n = {sim.grid.cells_n}",
        "[time]",
        f"T = {sim.time.horizon_T:.17g}",
        f"m = {sim.time.steps_m}",
        "[physics]",
        f"alpha = {sim.physics.alpha:.17g}",
        f"epsilon = {sim.physics.epsilon:.17g}",
        "[init]",
        f"kind = {sim.init.kind}",
        f"amplitude = {sim.init.amplitude:.17g}",
        f"mode = {sim.init.mode}",
        f"offset = {sim.init.offset:.17g}",
        f"v0 = {sim.init.v0:.17g}",
    ]
    if parsed.table_files is not None:
        lines += [f"{key} = {path}" for key, path in zip(TABLE_KEYS, parsed.table_files)]
    lines += ["[output]", f"stride = {sim.output_stride}"]
    if out.dir is not None:
        lines.append(f"dir = {out.dir}")
    lines.append(f"formats = {','.join(out.formats) if out.formats else 'none'}")
    lines.append(
        "snapshots = " + ",".join(f"{t:.17g}" for t in out.snapshots)
    )
    lines.append(f"oracle_modes = {out.oracle_modes}")
    lines += [
        "[probes]",
        f"enabled = {','.join(pr.enabled) if pr.enabled else 'none'}",
        f"link_cells = {pr.link_cells}",
        f"dissipation_omega_cells = {pr.dissipation_omega_cells:.17g}",
        f"stress_delta = {pr.stress_delta:.17g}",
        f"velocity_t1 = {pr.velocity_t1:.17g}",
        f"velocity_x0 = {pr.velocity_x0:.17g}",
        f"velocity_x1 = {pr.velocity_x1:.17g}",
        "velocity_deltas = " + ",".join(f"{d:.17g}" for d in pr.velocity_deltas),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# field store and CSV input/output


def _write_csv(path: str, labels: list, columns: list,
               fmt: str | list[str] = "%.17g") -> None:
    """Write columns side by side under one header line of labels.

    Numeric labels (a field's node positions after its "t") are printed
    with fmt like the body, so "%.17g" re-reads bitwise and "%d" writes a
    0/1 mask.  fmt may also be a list of one format per output column,
    with every label given as text.
    """
    header = ",".join(lab if isinstance(lab, str) else fmt % lab for lab in labels)
    np.savetxt(path, np.column_stack(columns), fmt=fmt, delimiter=",",
               header=header, comments="")


def _read_field_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        xs = np.array([float(tok) for tok in header[1:]])
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return body[:, 0], xs, body[:, 1:]


def series_from_run_dir(run_dir: str) -> FieldSeries:
    """Rebuild a FieldSeries from a stored run.

    Reads fields.npz when the run wrote it, else the CSV fields (csv-only
    runs, and run directories written before the binary store existed).
    """
    store = os.path.join(run_dir, FIELD_STORE)
    if os.path.exists(store):
        with np.load(store) as data:
            times, xs = data["times"], data["xs"]
            fields = {name: data[name] for name, _ in FIELD_FILES}
    else:
        fields = {}
        for name, fname in FIELD_FILES:
            path = os.path.join(run_dir, fname)
            if not os.path.exists(path):
                raise ConfigurationError(
                    f"run directory lacks {FIELD_STORE} and {fname}; "
                    "re-run with npz or csv output"
                )
            times, xs, fields[name] = _read_field_csv(path)
    series = FieldSeries(times=times, xs=xs, fields=fields)
    series.validate()
    return series


# ---------------------------------------------------------------------------
# heatmap rendering


def _downsample(matrix: np.ndarray, max_rows: int, max_cols: int) -> np.ndarray:
    r_step = max(1, int(math.ceil(matrix.shape[0] / max_rows)))
    c_step = max(1, int(math.ceil(matrix.shape[1] / max_cols)))
    return matrix[::r_step, ::c_step]


def _palette_rgb(matrix: np.ndarray, palette: str) -> np.ndarray:
    out = np.empty(matrix.shape + (3,), dtype=np.uint8)
    if palette == "binary":
        on = matrix > 0.5
        out[...] = 255
        out[on] = (40, 40, 40)
        return out
    if palette == "diverging":
        vmax = float(np.abs(matrix).max()) or 1.0
        t = np.clip(matrix / vmax, -1.0, 1.0)
        mag = np.abs(t)
        out[..., 0] = np.where(t >= 0, 255, (255 * (1.0 - mag)).astype(np.uint8))
        out[..., 1] = (255 * (1.0 - mag)).astype(np.uint8)
        out[..., 2] = np.where(t <= 0, 255, (255 * (1.0 - mag)).astype(np.uint8))
        return out
    if palette == "sequential":
        lo, hi = float(matrix.min()), float(matrix.max())
        span = hi - lo or 1.0
        t = (matrix - lo) / span
        out[..., 0] = (255 - t * (255 - 8)).astype(np.uint8)
        out[..., 1] = (255 - t * (255 - 48)).astype(np.uint8)
        out[..., 2] = (255 - t * (255 - 107)).astype(np.uint8)
        return out
    raise ValueError(f"unknown palette {palette!r}")


def _png_bytes(rgb: np.ndarray) -> bytes:
    height, width, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[r].tobytes() for r in range(height))

    def chunk(tag: bytes, data: bytes) -> bytes:
        block = tag + data
        return (
            struct.pack(">I", len(data))
            + block
            + struct.pack(">I", zlib.crc32(block) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


def render_heatmap(
    matrix: np.ndarray,
    times: np.ndarray,
    xs: np.ndarray,
    palette: str,
    path_base: str,
    title: str = "",
) -> list[str]:
    """Write a (time x node) field as heatmap.ppm and heatmap.svg.

    Time runs horizontally, x vertically with x = 0 at the bottom.  The
    PPM is the raw raster; the SVG embeds the same raster as PNG and adds
    axis labels and tick marks.  Non-finite values are a hard error.
    """
    if not np.all(np.isfinite(matrix)):
        raise ValueError("cannot render non-finite field values")
    small = _downsample(np.asarray(matrix, float), max_rows=1200, max_cols=1600)
    # stored layout is (time, x); image wants x vertical (origin bottom)
    image = _palette_rgb(small.T[::-1, :], palette)
    height, width, _ = image.shape

    ppm_path = path_base + ".ppm"
    with open(ppm_path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(image.tobytes())

    png64 = base64.b64encode(_png_bytes(image)).decode("ascii")
    margin_l, margin_b, margin_t = 64, 46, 28
    w_px, h_px = width + margin_l + 20, height + margin_b + margin_t
    tick_fmt = "%.3g"
    t_ticks = np.linspace(times[0], times[-1], 5)
    x_ticks = np.linspace(xs[0], xs[-1], 5)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'<text x="{margin_l}" y="18" font-size="13" font-family="sans-serif">{title}</text>',
        f'<image x="{margin_l}" y="{margin_t}" width="{width}" height="{height}" '
        f'preserveAspectRatio="none" href="data:image/png;base64,{png64}"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{width}" height="{height}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for i, tv in enumerate(t_ticks):
        px = margin_l + (width - 1) * i / (len(t_ticks) - 1)
        parts.append(
            f'<text x="{px:.1f}" y="{margin_t + height + 16}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{tick_fmt % tv}</text>'
        )
    for i, xv in enumerate(x_ticks):
        py = margin_t + height - (height - 1) * i / (len(x_ticks) - 1)
        parts.append(
            f'<text x="{margin_l - 6}" y="{py:.1f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end" dominant-baseline="middle">'
            f"{tick_fmt % xv}</text>"
        )
    parts.append(
        f'<text x="{margin_l + width / 2:.1f}" y="{h_px - 8}" font-size="12" '
        'font-family="sans-serif" text-anchor="middle">t</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + height / 2:.1f}" font-size="12" '
        'font-family="sans-serif" text-anchor="middle">x</text>'
    )
    parts.append("</svg>")
    svg_path = path_base + ".svg"
    with open(svg_path, "w") as fh:
        fh.write("\n".join(parts))
    return [ppm_path, svg_path]


def _render_heatmaps(out_dir: str, series: FieldSeries,
                     mask: np.ndarray | None) -> list[str]:
    """Render eta, velocity and, when given, the contact mask into out_dir."""
    paths = []
    for name, matrix, palette in (
        ("eta", series.fields["eta"], "sequential"),
        ("velocity", series.fields["velocity"], "diverging"),
        ("contact", mask, "binary"),
    ):
        if matrix is not None:
            paths += render_heatmap(matrix, series.times, series.xs, palette,
                                    os.path.join(out_dir, name), title=name)
    return paths


# ---------------------------------------------------------------------------
# run orchestration


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class RunManifest:
    solver: str
    out_dir: str
    config_text: str
    files: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    snapshots: dict = field(default_factory=dict)
    energy_residual_max: float = 0.0

    def add_file(self, path: str) -> None:
        self.files[os.path.basename(path)] = {
            "sha256": _sha256(path),
            "bytes": os.path.getsize(path),
        }

    def write(self) -> str:
        path = os.path.join(self.out_dir, "manifest.json")
        payload = {
            "solver": self.solver,
            "out_dir": self.out_dir,
            "config_text": self.config_text,
            "files": self.files,
            "phases": self.phases,
            "snapshots": self.snapshots,
            "energy_residual_max": self.energy_residual_max,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def execute_run(parsed: ParsedConfig, out_dir: str) -> RunManifest:
    """Solve the configured problem and write all requested artifacts."""
    return _solve_and_write(parsed, out_dir)[0]


def _solve_and_write(
    parsed: ParsedConfig, out_dir: str
) -> tuple[RunManifest, FieldSeries, diagnostics.EnergyLedger]:
    """execute_run, also handing back the solved series and energy ledger."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(solver="fd", out_dir=out_dir, config_text=emit_config(parsed))

    t0 = _time.perf_counter()
    series, ledger = fd_solver.run(parsed.sim)
    manifest.phases["solve"] = _time.perf_counter() - t0
    manifest.energy_residual_max = float(np.abs(ledger.residual()).max(initial=0.0))

    formats = parsed.output.formats

    def store(fname: str, labels: list, columns: list,
              fmt: str | list[str] = "%.17g") -> None:
        path = os.path.join(out_dir, fname)
        _write_csv(path, labels, columns, fmt)
        manifest.add_file(path)

    def store_npz(fname: str, **arrays: np.ndarray) -> None:
        path = os.path.join(out_dir, fname)
        np.savez(path, **arrays)
        manifest.add_file(path)

    t0 = _time.perf_counter()
    cfg_path = os.path.join(out_dir, "config.ini")
    with open(cfg_path, "w") as fh:
        fh.write(manifest.config_text)
    manifest.add_file(cfg_path)

    ledger_cols = ledger.as_columns()
    store("energy.csv", list(ledger_cols), list(ledger_cols.values()))

    mask = None
    if {"npz", "csv", "heatmap"} & set(formats):
        mask = diagnostics.extract_contact(
            series, link_cells=parsed.probes.link_cells
        ).mask
    if "npz" in formats:
        store_npz(FIELD_STORE, times=series.times, xs=series.xs,
                  **series.fields, contact=mask)
    if "csv" in formats:
        frame_labels = ["t", *("%.17g" % x for x in series.xs)]
        for name, fname in FIELD_FILES:
            store(fname, frame_labels, [series.times, series.fields[name]])
        store("contact.csv", frame_labels, [series.times, mask],
              fmt=["%.17g"] + ["%d"] * len(series.xs))

    if "snapshots" in formats:
        names = [name for name, _ in FIELD_FILES]
        for wanted in parsed.output.snapshots:
            row = series.index_at_time(wanted)
            store(
                f"snapshot_t{wanted:.6f}.csv", ["x", *names],
                [series.xs, *(series.fields[name][row] for name in names)],
            )
            manifest.snapshots[f"{wanted:.6f}"] = float(series.times[row])
    manifest.phases["write"] = _time.perf_counter() - t0

    if "heatmap" in formats:
        t0 = _time.perf_counter()
        for path in _render_heatmaps(out_dir, series, mask):
            manifest.add_file(path)
        manifest.phases["render"] = _time.perf_counter() - t0

    if parsed.output.oracle_modes > 0:
        t0 = _time.perf_counter()
        sim = validate_config(parsed.sim)
        oracle = galerkin.integrate(
            sim.init, sim.grid, sim.time, sim.physics,
            n_modes=parsed.output.oracle_modes,
            output_stride=sim.output_stride,
        )
        if "npz" in formats:
            store_npz("oracle_eta.npz", times=oracle.times, xs=oracle.xs,
                      eta=oracle.fields["eta"])
        if "csv" in formats:
            store("oracle_eta.csv", ["t", *oracle.xs],
                  [oracle.times, oracle.fields["eta"]])
        manifest.phases["oracle"] = _time.perf_counter() - t0

    manifest.add_file(manifest.write())
    return manifest, series, ledger


# ---------------------------------------------------------------------------
# probes over stored runs


def run_probes(run_dir: str, names: list[str] | None = None) -> dict:
    """Evaluate the enabled diagnostics over a stored run directory."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ConfigurationError(f"no manifest.json under {run_dir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    parsed = parse_config(manifest["config_text"])
    sim = validate_config(parsed.sim)
    settings = parsed.probes
    series = series_from_run_dir(run_dir)
    enabled = tuple(names) if names else settings.enabled

    unknown = [n for n in enabled if n not in DEFAULT_PROBES]
    if unknown:
        raise ConfigurationError(f"unknown probe(s): {', '.join(unknown)}")

    results: dict[str, object] = {}
    bumps = diagnostics.builtin_test_functions(
        float(series.times[-1]), sim.grid.length_l
    )
    if "penetration" in enabled:
        results["penetration"] = diagnostics.penetration_metrics(series)
    if "contact" in enabled:
        report = diagnostics.extract_contact(series, link_cells=settings.link_cells)
        results["contact"] = {
            "first_contact_time": report.first_contact_time,
            "max_components": report.max_components,
            "total_penalty_impulse": report.total_penalty_impulse,
            "graph_count": len(report.boundary_graphs),
        }
    if "momentum" in enabled:
        results["momentum"] = {
            name: diagnostics.weak_momentum_residual(series, sim, bump)
            for name, bump in bumps.items()
        }
    if "energy_local" in enabled:
        results["energy_local"] = {
            name: diagnostics.local_energy_residual(series, sim, bump)
            for name, bump in bumps.items()
        }
    if "renorm" in enabled:
        results["renorm"] = {
            name: diagnostics.renormalized_residual(series, sim, bump)
            for name, bump in bumps.items()
        }
    if "dissipation" in enabled:
        omega = settings.dissipation_omega_cells * series.dx
        dt_stored = float(np.min(np.diff(series.times)))
        kernel = diagnostics.MollifierKernel.build(
            max(omega, 2.0 * max(dt_stored, series.dx)), dt_stored, series.dx
        )
        est = diagnostics.dissipation_estimate(series, kernel)
        results["dissipation"] = {
            k: v for k, v in est.items() if k != "density"
        }
    if settings.stress_delta > 0.0:
        report = diagnostics.extract_contact(series, link_cells=settings.link_cells)
        interior = [
            (g, s)
            for g, s in zip(report.boundary_graphs, report.graph_sides)
            if s == "left"
            and g[:, 1].min() > 0.05 * sim.grid.length_l
            and g[:, 1].max() < 0.95 * sim.grid.length_l
        ]
        if interior:
            graph = interior[0][0]
            results["stress_jump"] = diagnostics.stress_jump_probe(
                series, sim, graph, settings.stress_delta
            )
    if settings.velocity_t1 >= 0.0 and settings.velocity_deltas:
        probe = diagnostics.velocity_jump_probe(
            series,
            settings.velocity_t1,
            settings.velocity_x0,
            settings.velocity_x1,
            settings.velocity_deltas,
        )
        results["velocity_jump"] = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in probe.items()
        }
    return results


# ---------------------------------------------------------------------------
# sweep orchestration


def _worker_count(n_jobs: int) -> int:
    cap = os.environ.get("OBSTRING_THREADS", "")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        limit = os.cpu_count() or 1
    return max(1, min(n_jobs, limit))


def _sweep_one(payload: tuple[str, float, str, str]) -> dict:
    """Worker: run one sweep point; never raises (failures are recorded)."""
    axis, value, config_text, out_dir = payload
    started = _time.perf_counter()
    try:
        parsed = parse_config(config_text)
        sim = parsed.sim
        if axis == "epsilon":
            sim = replace(sim, physics=Physics(sim.physics.alpha, float(value)))
        elif axis == "dt_dx":
            delta = float(value)
            n = int(round(sim.grid.length_l / delta))
            m = int(round(sim.time.horizon_T / delta))
            sim = replace(
                sim,
                grid=Grid1D(sim.grid.length_l, n),
                time=TimeGrid(sim.time.horizon_T, m),
            )
        elif axis != "modes":
            raise ConfigurationError(f"unknown sweep axis {axis!r}")

        if axis == "modes":
            checked = validate_config(sim)
            series = galerkin.integrate(
                checked.init, checked.grid, checked.time, checked.physics,
                n_modes=int(value), output_stride=checked.output_stride,
            )
            energy_final = math.nan
        else:
            trimmed = replace(
                parsed,
                sim=sim,
                output=replace(parsed.output, formats=("npz",), snapshots=()),
            )
            _, series, ledger = _solve_and_write(trimmed, out_dir)
            energy_final = ledger.kinetic[-1] + ledger.elastic[-1]

        pen = diagnostics.penetration_metrics(series)
        return {
            "value": float(value),
            "status": "ok",
            "l1_max": pen["l1_max"],
            "depth_max": pen["depth_max"],
            "energy_final": energy_final,
            "final_time": float(series.times[-1]),
            "final_eta_xs": series.xs.tolist(),
            "final_eta": series.fields["eta"][-1].tolist(),
            "wall_seconds": _time.perf_counter() - started,
        }
    except Exception as exc:  # noqa: BLE001 - failures become report rows
        return {
            "value": float(value),
            "status": f"error:{type(exc).__name__}",
            "error": str(exc),
            "wall_seconds": _time.perf_counter() - started,
        }


def run_sweep(parsed: ParsedConfig, axis: str, sweep_values: list[float],
              out_dir: str) -> list[dict]:
    """Run the base config at each value of one axis; write sweep.csv."""
    if axis not in ("epsilon", "dt_dx", "modes"):
        raise ConfigurationError(f"unknown sweep axis {axis!r}")
    if len(sweep_values) < 2:
        raise ConfigurationError("a sweep needs at least two values")
    ordered = sorted(sweep_values, reverse=True)
    os.makedirs(out_dir, exist_ok=True)
    config_text = emit_config(parsed)

    payloads = [
        (axis, v, config_text, os.path.join(out_dir, f"run_{i:02d}"))
        for i, v in enumerate(ordered)
    ]
    workers = _worker_count(len(payloads))
    if workers == 1:
        rows = [_sweep_one(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, payloads))

    # pairwise final-frame differences on the coarsest common grid
    ok = [r for r in rows if r["status"] == "ok"]
    coarsest = min(ok, key=lambda r: len(r["final_eta_xs"]), default=None)
    for a, b in zip(rows, rows[1:]):
        if a["status"] != "ok" or b["status"] != "ok" or coarsest is None:
            continue
        xs_ref = np.array(coarsest["final_eta_xs"])
        ya = np.interp(xs_ref, np.array(a["final_eta_xs"]), np.array(a["final_eta"]))
        yb = np.interp(xs_ref, np.array(b["final_eta_xs"]), np.array(b["final_eta"]))
        diff = ya - yb
        a["diff_linf_next"] = float(np.abs(diff).max())
        a["diff_l2_next"] = float(
            math.sqrt(np.sum(diff * diff) * (xs_ref[1] - xs_ref[0]))
        )
        if a["l1_max"] > 0.0 and b["l1_max"] > 0.0 and a["value"] != b["value"]:
            a["slope_l1_next"] = float(
                math.log(a["l1_max"] / b["l1_max"]) / math.log(a["value"] / b["value"])
            )

    columns = [
        "value", "status", "l1_max", "depth_max", "energy_final",
        "diff_linf_next", "diff_l2_next", "slope_l1_next", "wall_seconds",
    ]
    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                val = row.get(col, math.nan)
                cells.append(val if isinstance(val, str) else "%.17g" % val)
            fh.write(",".join(cells) + "\n")
    log.info("sweep report written to %s", sweep_path)
    return rows


# ---------------------------------------------------------------------------
# subcommand entry points


def _load_config_file(path: str) -> ParsedConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _preset_parsed(which: str, resolution: int, epsilon: float,
                   out_dir: str | None, stride: int) -> ParsedConfig:
    if which == "example1":
        sim = example1_config(resolution=resolution, epsilon=epsilon)
        snaps = EXAMPLE1_SNAPSHOTS
    else:
        sim = example2_config(resolution=resolution, epsilon=epsilon)
        snaps = EXAMPLE2_SNAPSHOTS
    if stride:
        sim = replace(sim, output_stride=stride)
    return ParsedConfig(
        sim=sim,
        output=OutputSettings(dir=out_dir, snapshots=snaps),
    )


def cmd_run(args: argparse.Namespace) -> int:
    parsed = _load_config_file(args.config)
    out_dir = args.out or parsed.output.dir or "run_out"
    manifest = execute_run(parsed, out_dir)
    print(f"run complete: {len(manifest.files)} files in {out_dir}")
    return 0


def cmd_example(which: str, args: argparse.Namespace) -> int:
    parsed = _preset_parsed(
        which, args.resolution, args.epsilon, args.out, args.stride
    )
    out_dir = args.out or which
    manifest = execute_run(parsed, out_dir)
    solve_s = manifest.phases.get("solve", 0.0)
    print(f"{which} complete in {solve_s:.2f} s solve; outputs in {out_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    parsed = _load_config_file(args.config)
    values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    out_dir = args.out or parsed.output.dir or "sweep_out"
    rows = run_sweep(parsed, args.axis, values, out_dir)
    failures = [r for r in rows if r["status"] != "ok"]
    for row in rows:
        print(f"  {args.axis}={row['value']:g}: {row['status']}")
    print(f"sweep complete: {len(rows) - len(failures)}/{len(rows)} ok")
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    results = run_probes(args.run_dir, args.probe or None)
    path = os.path.join(args.run_dir, "probes.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    for name, payload in results.items():
        if isinstance(payload, dict) and "residual" not in payload:
            print(f"{name}: {json.dumps(payload, default=float)[:200]}")
        else:
            print(f"{name}: {payload}")
    print(f"probe report written to {path}")
    return 0


def _stored_contact_mask(run_dir: str) -> np.ndarray | None:
    """The contact mask from the same store series_from_run_dir reads."""
    store = os.path.join(run_dir, FIELD_STORE)
    if os.path.exists(store):
        with np.load(store) as data:
            return data["contact"]
    mask_path = os.path.join(run_dir, "contact.csv")
    return _read_field_csv(mask_path)[2] if os.path.exists(mask_path) else None


def cmd_render(args: argparse.Namespace) -> int:
    series = series_from_run_dir(args.run_dir)
    _render_heatmaps(args.run_dir, series, _stored_contact_mask(args.run_dir))
    print(f"heatmaps refreshed under {args.run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstring",
        description="Penalized viscoelastic string-on-obstacle simulator",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")

    for which in ("example1", "example2"):
        p_ex = sub.add_parser(which, help=f"run the {which} preset")
        p_ex.add_argument("--out", default=None)
        p_ex.add_argument("--resolution", type=int, default=5000,
                          help="cells per unit length (and steps per unit time)")
        p_ex.add_argument("--epsilon", type=float, default=0.0005)
        p_ex.add_argument("--stride", type=int, default=0,
                          help="store every k-th step (0 = auto)")

    p_sweep = sub.add_parser("sweep", help="parameter sweep over one axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=("epsilon", "dt_dx", "modes"))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None)

    p_probe = sub.add_parser("probe", help="evaluate diagnostics on a stored run")
    p_probe.add_argument("run_dir")
    p_probe.add_argument("--probe", action="append",
                         help="probe name (repeatable; default: config selection)")

    p_render = sub.add_parser("render", help="regenerate heatmaps for a stored run")
    p_render.add_argument("run_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "example1":
            return cmd_example("example1", args)
        if args.command == "example2":
            return cmd_example("example2", args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "probe":
            return cmd_probe(args)
        if args.command == "render":
            return cmd_render(args)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ProbeContractError as exc:
        print(f"probe contract violation: {exc}", file=sys.stderr)
        return 4
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericBlowupError as exc:
        print(f"numeric blowup: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

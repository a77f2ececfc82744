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

-v/--verbose (info logging) goes before or after the subcommand.

Configs are INI-style text with sections [grid], [time], [physics], [init],
[output], [probes]; unknown sections or keys, and bad values (an unknown
format or probe name included), are rejected with line numbers.  One table,
_SCHEMA, gives each key's type and the dataclass field it fills; parse_config
and emit_config both walk it, and a key left out takes that field's default.
Like the core config types, OutputSettings and ProbeSettings check their
values through core.check when built (no nan or inf, oracle_modes and
link_cells >= 0, dissipation_omega_cells and each velocity_deltas > 0,
0 <= velocity_x0 < velocity_x1 once velocity_x1 > 0); ParsedConfig checks
the rules across parts, so a refused run, sweep or preset creates nothing.
Every run with any output format (all but formats = none), sweep points
included, stores its state once, in fields.npz: times, node positions, eta,
velocity and epsilon.  probe and render read that file only, into a
FieldSeries that derives the penalty force from the state, bit for bit the
force the solver stepped with, and the contact mask from extract_contact
where something draws it (the csv and heatmap formats, and render).  So
the npz format names the store that every such run writes, and formats =
npz alone writes nothing else.  The default is npz,heatmap.  Two text exports are opt-in:
csv writes the stored fields, and snapshots writes one snapshot_t*.csv per
[output] snapshots instant (the presets list six), each the stored row
nearest that instant.  They and the energy ledger go through one
np.savetxt writer with 17 significant digits, in a process pool when a run
writes several tables.  Then come PNG/SVG heatmaps (each PNG deflated at
zlib level 3, which the SVG links by file name) and a
manifest.json with sha256 checksums, per-phase wall-clock times, the energy
ledger's closure (energy_residual_max) and the step-to-penalty ratio
dt_over_eps; render adds the files it writes to that manifest.

Exit codes: 0 success, 2 configuration error (a fields.npz that cannot be
read or holds no valid series included), 3 numeric blowup, 4 probe-contract
violation, 5 output error (a file that cannot be written).  OBSTRING_THREADS
caps that pool, which sweep points share (unset: the CPUs this process may
run on); a value other than a whole number >= 1 is a configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import logging
import math
import os
import platform
import struct
import sys
import time as _time
import warnings
import zipfile
import zlib
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, diagnostics, fd_solver, galerkin
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
    check,
    example1_config,
    example2_config,
)

log = logging.getLogger(__name__)

EXAMPLE1_SNAPSHOTS = (0.0, 0.02, 0.04, 0.06, 0.2, 0.3)
EXAMPLE2_SNAPSHOTS = (0.0, 0.04, 0.08, 0.16, 0.28, 0.32)

KNOWN_FORMATS = ("npz", "csv", "heatmap", "snapshots")
DEFAULT_FORMATS = ("npz", "heatmap")
FIELD_STORE = "fields.npz"
# the members of FIELD_STORE: the stored levels' state and epsilon
STORE_MEMBERS = ("times", "xs", "eta", "velocity", "epsilon")
FIELD_FILES = (
    ("eta", "eta.csv"),
    ("velocity", "velocity.csv"),
    ("penalty_force", "penalty.csv"),
)
DEFAULT_PROBES = (
    "penetration",
    "contact",
    "momentum",
    "energy_local",
    "renorm",
    "dissipation",
)
# switched on by their [probes] keys rather than by enabled; --probe names them
BOUNDARY_PROBES = ("stress_jump", "velocity_jump")


# ---------------------------------------------------------------------------
# configuration text format


@dataclass(frozen=True)
class OutputSettings:
    dir: str | None = None
    formats: tuple[str, ...] = DEFAULT_FORMATS
    snapshots: tuple[float, ...] = ()
    oracle_modes: int = 0

    def __post_init__(self) -> None:
        check("output", self, ("oracle_modes", self.oracle_modes >= 0, ">= 0"))


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

    def __post_init__(self) -> None:
        check("probes", self, ("link_cells", self.link_cells >= 0, ">= 0"),
              ("dissipation_omega_cells", self.dissipation_omega_cells > 0.0, "> 0"),
              ("velocity_deltas", all(d > 0.0 for d in self.velocity_deltas), "all > 0"),
              ("velocity_x0", self.velocity_x1 <= 0.0 or 0.0 <= self.velocity_x0 < self.velocity_x1,
               f"in [0, [probes].velocity_x1 = {self.velocity_x1!r})"))


@dataclass(frozen=True)
class ParsedConfig:
    """A run's settings, checked across their parts when built."""

    sim: SimConfig
    output: OutputSettings = OutputSettings()
    probes: ProbeSettings = ProbeSettings()
    # absolute (eta0_file, v0_file) of kind = tabulated, re-emitted verbatim
    table_files: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        sim, probes = self.sim, self.probes
        if sim.init.kind == "tabulated" and self.table_files is None:
            raise ConfigurationError("tabulated initial data needs its table files")
        if self.output.oracle_modes > 0:
            galerkin._pinned_offset(sim)
        t1, reach = probes.velocity_t1, max(probes.velocity_deltas, default=0.0)
        check("probes", probes,
              ("velocity_x1", probes.velocity_x1 <= sim.grid.length_l,
               f"<= [grid].l = {sim.grid.length_l!r}"),
              # the velocity_jump window inside the stored run, with the probe's slack
              ("velocity_t1", t1 < 0.0 or not reach or -1e-12 <= t1 - reach
               and t1 + reach <= sim.time.steps_m * sim.time.dt + 1e-12,
               f"at least max [probes].velocity_deltas = {reach!r} from 0 and from "
               f"[time].T = {sim.time.horizon_T!r}"))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _names(known: tuple[str, ...], what: str, everything: tuple[str, ...] = ()):
    """Caster for a comma-separated subset of known; "none" is the empty set
    and, when everything is given, "all" stands for it."""

    def cast(text: str) -> tuple[str, ...]:
        if text.strip() == "none":
            return ()
        if everything and text.strip() == "all":
            return everything
        names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
        bad = [name for name in names if name not in known]
        if bad:
            raise ConfigurationError(f"unknown {what}(s): {', '.join(bad)}")
        return names

    return cast


_FORMAT_NAMES = _names(KNOWN_FORMATS, "output format")
_PROBE_NAMES = _names(DEFAULT_PROBES, "probe", everything=DEFAULT_PROBES)
_NAMED_PROBES = _names(DEFAULT_PROBES + BOUNDARY_PROBES, "probe",
                       everything=DEFAULT_PROBES)

# section -> key -> (caster, target, field): the key's value fills that field
# of that dataclass.  Target None marks the node-table files of
# kind = tabulated; they are read into InitialData's table of that name and
# kept, absolute, in ParsedConfig.table_files.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "grid": {"l": (float, Grid1D, "length_l"), "n": (int, Grid1D, "cells_n")},
    "time": {"T": (float, TimeGrid, "horizon_T"), "m": (int, TimeGrid, "steps_m")},
    "physics": {
        "alpha": (float, Physics, "alpha"),
        "epsilon": (float, Physics, "epsilon"),
    },
    "init": {
        "kind": (str, InitialData, "kind"),
        "amplitude": (float, InitialData, "amplitude"),
        "mode": (int, InitialData, "mode"),
        "offset": (float, InitialData, "offset"),
        "v0": (float, InitialData, "v0"),
        "eta0_file": (os.path.abspath, None, "eta0_table"),
        "v0_file": (os.path.abspath, None, "v0_table"),
    },
    "output": {
        "stride": (int, SimConfig, "output_stride"),
        "dir": (str, OutputSettings, "dir"),
        "formats": (_FORMAT_NAMES, OutputSettings, "formats"),
        "snapshots": (_floats, OutputSettings, "snapshots"),
        "oracle_modes": (int, OutputSettings, "oracle_modes"),
    },
    "probes": {
        "enabled": (_PROBE_NAMES, ProbeSettings, "enabled"),
        "link_cells": (int, ProbeSettings, "link_cells"),
        "dissipation_omega_cells": (float, ProbeSettings, "dissipation_omega_cells"),
        "stress_delta": (float, ProbeSettings, "stress_delta"),
        "velocity_t1": (float, ProbeSettings, "velocity_t1"),
        "velocity_x0": (float, ProbeSettings, "velocity_x0"),
        "velocity_x1": (float, ProbeSettings, "velocity_x1"),
        "velocity_deltas": (_floats, ProbeSettings, "velocity_deltas"),
    },
}


# caster -> value-to-text; the rest print with str
_TEXT = {
    float: "{:.17g}".format,
    _floats: lambda values: ",".join(map("{:.17g}".format, values)),
    _FORMAT_NAMES: lambda names: ",".join(names) or "none",
    _PROBE_NAMES: lambda names: ",".join(names) or "none",
}


# core.check's section.field -> the name a user wrote: the config key, or
# the preset command's flag
_KEY_NAMES = {f"{section}.{name}": f"[{section}].{key}"
              for section, keys in _SCHEMA.items()
              for key, (_, _, name) in keys.items()}
_FLAG_NAMES = {"physics.epsilon": "--epsilon", "grid.cells_n": "--resolution",
               "output.output_stride": "--stride"}


@contextlib.contextmanager
def _naming(names: dict[str, str]):
    """Re-raise a core.check refusal of section.field under its entry in names."""
    try:
        yield
    except ConfigurationError as exc:
        field_name, _, rest = str(exc).partition(" ")
        if field_name not in names:
            raise
        raise ConfigurationError(f"{names[field_name]} {rest}") from exc


def _read_column_file(path: str) -> tuple[float, ...]:
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a table without data rows; refused by name below
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, delimiter=",", ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read table {path}: {exc}") from exc
    if values.size == 0:
        raise ConfigurationError(f"table {path} is empty")
    if values.ndim != 1:
        raise ConfigurationError(
            f"table {path} must be one column, got {values.shape[1]} columns"
        )
    return tuple(values.tolist())


def _has_default(target: type, name: str) -> bool:
    return next(f for f in fields(target) if f.name == name).default is not MISSING


def parse_config(text: str) -> ParsedConfig:
    """Parse INI-style configuration text into run settings.

    Unknown sections or keys, repeated keys, and type errors are rejected
    with the offending line number, and a value the settings types refuse
    by its INI key ([grid].n, not grid.cells_n).  A key left out takes its
    dataclass field's default; [physics].alpha, whose field has none,
    defaults to 1.
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
        caster = _SCHEMA[section][key][0]
        try:
            values[section][key] = caster(val)
        except ValueError as exc:
            raise ConfigurationError(
                f"line {lineno}: bad value for [{section}].{key}: {exc}"
            ) from exc

    def given(section: str, key: str):
        if key not in values[section]:
            raise ConfigurationError(f"missing required key [{section}].{key}")
        return values[section][key]

    kwargs: dict[type, dict[str, object]] = defaultdict(dict)
    kwargs[Physics]["alpha"] = 1.0  # Physics.alpha has no default of its own
    tables = []
    for section, keys in _SCHEMA.items():
        for key, (_, target, name) in keys.items():
            if target is None:
                tables.append((section, key, name))
            elif key in values[section] or not (
                name in kwargs[target] or _has_default(target, name)
            ):
                kwargs[target][name] = given(section, key)

    table_files = None
    if kwargs[InitialData]["kind"] == "tabulated":
        table_files = tuple(given(section, key) for section, key, _ in tables)
        for (_, _, name), path in zip(tables, table_files):
            kwargs[InitialData][name] = _read_column_file(path)
    else:
        for section, key, _ in tables:
            if key in values[section]:
                raise ConfigurationError(
                    f"[{section}].{key} is read only when kind = tabulated"
                )

    with _naming(_KEY_NAMES):
        sim = SimConfig(
            grid=Grid1D(**kwargs[Grid1D]),
            time=TimeGrid(**kwargs[TimeGrid]),
            physics=Physics(**kwargs[Physics]),
            init=InitialData(**kwargs[InitialData]),
            **kwargs[SimConfig],
        )
        return ParsedConfig(
            sim=sim,
            output=OutputSettings(**kwargs[OutputSettings]),
            probes=ProbeSettings(**kwargs[ProbeSettings]),
            table_files=table_files,
        )


def emit_config(parsed: ParsedConfig) -> str:
    """Serialize settings back to config text; parse(emit(p)) == p.

    Every key is written in _SCHEMA order except those whose value is None
    (no [output].dir, and the table files of a kind other than tabulated).
    """
    sim = parsed.sim
    objects = {
        Grid1D: sim.grid, TimeGrid: sim.time, Physics: sim.physics,
        InitialData: sim.init, SimConfig: sim,
        OutputSettings: parsed.output, ProbeSettings: parsed.probes,
    }
    table_files = iter(parsed.table_files or ())
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (caster, target, name) in keys.items():
            if target is None:
                value = next(table_files, None)
            else:
                value = getattr(objects[target], name)
            if value is not None:
                lines.append(f"{key} = {_TEXT.get(caster, str)(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# field store and CSV exports


def _write_csv(path: str, labels: list[str], columns: list,
               fmt: str | list[str] = "%.17g") -> None:
    """Write columns side by side under one header line of text labels.

    fmt is one format for every output column or a list of one per column.
    """
    np.savetxt(path, np.column_stack(columns), fmt=fmt, delimiter=",",
               header=",".join(labels), comments="")


def _export_csv(jobs: list[tuple], manifest: RunManifest) -> None:
    """Write (path, labels, columns, fmt) jobs, through _starmap since 17-digit
    text is CPU-bound, and add each file to manifest."""
    _starmap(_write_csv, jobs)
    for path, *_ in jobs:
        manifest.add_file(path)


def series_from_run_dir(run_dir: str) -> FieldSeries:
    """Rebuild a FieldSeries from a stored run's fields.npz, its one field store.

    The series derives the penalty force from the stored state and epsilon
    as the solver's series does, bit for bit.  A store that cannot be read,
    that lacks a member (stores that kept penalty_force and contact hold no
    epsilon), whose members FieldSeries refuses (mismatched shapes, fewer
    than two instants or nodes, unordered times or xs, an epsilon that is
    not finite and > 0), or whose eta or velocity is not finite is a
    configuration error.
    """
    path = os.path.join(run_dir, FIELD_STORE)
    if not os.path.exists(path):
        raise ConfigurationError(
            f"run directory {run_dir} lacks {FIELD_STORE}; re-run its config.ini "
            "with any formats other than none to write it"
        )
    rerun = "re-run its config.ini to write it again"
    try:
        # the file is opened here, since np.load leaks its own handle when
        # the zip directory is unreadable
        with open(path, "rb") as fh, np.load(fh) as store:
            state = {name: store[name] for name in STORE_MEMBERS if name in store.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"cannot read {path} ({exc}); {rerun}") from exc
    missing = [name for name in STORE_MEMBERS if name not in state]
    if missing:
        raise ConfigurationError(f"{path} lacks {', '.join(missing)}; {rerun}")
    times, xs, eta, velocity, epsilon = (state[name] for name in STORE_MEMBERS)
    try:
        series = FieldSeries(times, xs, {"eta": eta, "velocity": velocity}, float(epsilon))
        for name, mat in series.fields.items():
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} is not finite")
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path} holds no valid run ({exc}); {rerun}") from exc
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
        grey = (255 * (1.0 - np.abs(t))).astype(np.uint8)
        out[..., 0] = np.where(t >= 0, 255, grey)
        out[..., 1] = grey
        out[..., 2] = np.where(t <= 0, 255, grey)
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
    # each scanline starts with filter type 0 (none)
    raw = np.pad(rgb.reshape(height, -1), ((0, 0), (1, 0))).tobytes()

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
        # level 3, zlib's slowest level that still deflates by its fast
        # method: less than half level 6's time, files about 40 % larger
        + chunk(b"IDAT", zlib.compress(raw, 3))
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
    """Write a (time x node) field as heatmap.png and heatmap.svg.

    Time runs horizontally, x vertically with x = 0 at the bottom.  The
    PNG is the raster; the SVG links it by file name, so it shows only
    beside that PNG, and adds axis labels and tick marks.  Non-finite
    values are a hard error.
    """
    matrix = np.asarray(matrix)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("cannot render non-finite field values")
    # only the kept cells are converted (a bool mask needs no float copy)
    small = np.asarray(_downsample(matrix, max_rows=1200, max_cols=1600), float)
    # stored layout is (time, x); image wants x vertical (origin bottom)
    image = _palette_rgb(small.T[::-1, :], palette)
    height, width, _ = image.shape

    png = _png_bytes(image)
    png_path = path_base + ".png"
    with open(png_path, "wb") as fh:
        fh.write(png)

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
        f'preserveAspectRatio="none" href="{os.path.basename(png_path)}"/>',
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
    return [png_path, svg_path]


def _render_heatmaps(out_dir: str, series: FieldSeries,
                     mask: np.ndarray) -> list[str]:
    """Render eta, velocity and the contact mask into out_dir."""
    paths = []
    for name, matrix, palette in (
        ("eta", series.fields["eta"], "sequential"),
        ("velocity", series.fields["velocity"], "diverging"),
        ("contact", mask, "binary"),
    ):
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


def _file_entry(path: str) -> dict:
    """A file's manifest entry under "files"."""
    return {"sha256": _sha256(path), "bytes": os.path.getsize(path)}


def _read_manifest(run_dir: str, key: str, kind: type) -> dict:
    """run_dir's manifest.json, refused unless it is JSON whose key holds a kind."""
    path = os.path.join(run_dir, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"no manifest.json under {run_dir}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigurationError(f"cannot read {path} ({exc})") from exc
    if not (isinstance(manifest, dict) and isinstance(manifest.get(key), kind)):
        raise ConfigurationError(f"{path} is no run manifest: it lacks {key}")
    return manifest


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


@dataclass
class RunManifest:
    solver: str
    out_dir: str
    config_text: str
    files: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    snapshots: dict = field(default_factory=dict)
    energy_residual_max: float = 0.0
    dt_over_eps: float = 0.0

    def add_file(self, path: str) -> None:
        self.files[os.path.basename(path)] = _file_entry(path)

    def write(self) -> str:
        path = os.path.join(self.out_dir, "manifest.json")
        payload = asdict(self)
        payload["versions"] = {"obstring": __version__, "numpy": np.__version__,
                               "python": platform.python_version()}
        _write_json(path, payload)
        return path


def execute_run(parsed: ParsedConfig, out_dir: str) -> RunManifest:
    """Solve the configured problem and write all requested artifacts."""
    return _solve_and_write(parsed, out_dir)[0]


def _solve_and_write(
    parsed: ParsedConfig, out_dir: str
) -> tuple[RunManifest, FieldSeries, diagnostics.EnergyLedger]:
    """execute_run, also handing back the solved series and energy ledger."""
    _worker_count(1)  # a malformed OBSTRING_THREADS fails before the solve
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(solver="fd", out_dir=out_dir, config_text=emit_config(parsed))

    t0 = _time.perf_counter()
    series, ledger = fd_solver.run(parsed.sim)
    manifest.phases["solve"] = _time.perf_counter() - t0
    manifest.energy_residual_max = float(np.abs(ledger.residual()).max(initial=0.0))
    manifest.dt_over_eps = parsed.sim.time.dt / parsed.sim.physics.epsilon

    formats = parsed.output.formats

    def csv_job(fname: str, labels: list, columns: list,
                fmt: str | list[str] = "%.17g") -> tuple:
        return os.path.join(out_dir, fname), labels, columns, fmt

    def store_npz(fname: str, **arrays: np.ndarray) -> None:
        path = os.path.join(out_dir, fname)
        np.savez(path, **arrays)
        manifest.add_file(path)

    t0 = _time.perf_counter()
    cfg_path = os.path.join(out_dir, "config.ini")
    with open(cfg_path, "w") as fh:
        fh.write(manifest.config_text)
    manifest.add_file(cfg_path)

    jobs = [csv_job("energy.csv", list(ledger.COLUMNS), [ledger.rows])]

    if formats:  # every run with any output writes the field store
        store_npz(FIELD_STORE, times=series.times, xs=series.xs,
                  eta=series.fields["eta"], velocity=series.fields["velocity"],
                  epsilon=series.epsilon)
    if "csv" in formats or "heatmap" in formats:  # the outputs that draw the mask
        mask = diagnostics.extract_contact(series).mask
    if "csv" in formats or "snapshots" in formats:  # the text exports of FIELD_FILES
        exported = {**series.fields, "penalty_force": series.penalty_force}
    if "csv" in formats:
        frame_labels = ["t", *("%.17g" % x for x in series.xs)]
        jobs += [csv_job(fname, frame_labels, [series.times, exported[name]])
                 for name, fname in FIELD_FILES]
        jobs.append(csv_job("contact.csv", frame_labels, [series.times, mask],
                            fmt=["%.17g"] + ["%d"] * len(series.xs)))

    if "snapshots" in formats:
        names = [name for name, _ in FIELD_FILES]
        for wanted in parsed.output.snapshots:
            row = series.index_at_time(wanted)
            jobs.append(csv_job(
                f"snapshot_t{wanted:.6f}.csv", ["x", *names],
                [series.xs, *(exported[name][row] for name in names)],
            ))
            manifest.snapshots[f"{wanted:.6f}"] = float(series.times[row])
    _export_csv(jobs, manifest)
    manifest.phases["write"] = _time.perf_counter() - t0

    if "heatmap" in formats:
        t0 = _time.perf_counter()
        for path in _render_heatmaps(out_dir, series, mask):
            manifest.add_file(path)
        manifest.phases["render"] = _time.perf_counter() - t0

    if parsed.output.oracle_modes > 0:
        t0 = _time.perf_counter()
        oracle = galerkin.integrate(parsed.sim, parsed.output.oracle_modes)
        if formats:
            store_npz("oracle_eta.npz", times=oracle.times, xs=oracle.xs,
                      eta=oracle.fields["eta"])
        if "csv" in formats:
            oracle_labels = ["t", *("%.17g" % x for x in oracle.xs)]
            _export_csv([csv_job("oracle_eta.csv", oracle_labels,
                                 [oracle.times, oracle.fields["eta"]])], manifest)
        manifest.phases["oracle"] = _time.perf_counter() - t0

    manifest.add_file(manifest.write())
    return manifest, series, ledger


# ---------------------------------------------------------------------------
# probes over stored runs


def _unset_keys(probe: str, settings: ProbeSettings) -> list[str]:
    """The [probes] keys a boundary probe needs that settings leave unset
    (velocity_t1 < 0 and velocity_x1 <= 0, their defaults, bound no window)."""
    if probe == "stress_jump":
        return [] if settings.stress_delta > 0.0 else ["stress_delta"]
    return ([] if settings.velocity_t1 >= 0.0 else ["velocity_t1"]) + (
        [] if settings.velocity_x1 > 0.0 else ["velocity_x1"]) + (
        [] if settings.velocity_deltas else ["velocity_deltas"])


def run_probes(run_dir: str, names: list[str] | None = None) -> dict:
    """Evaluate the enabled diagnostics over a stored run directory.

    Probe names given by the caller are checked before the fields are read,
    and then exactly those run; a named boundary probe whose [probes] keys
    are unset is a configuration error, and a named stress_jump on a run
    with no interior left contact boundary a ProbeContractError.  Without
    names the config's selection runs, plus the boundary probes whose keys
    are all set (stress_jump only where such a boundary exists).
    """
    chosen = _NAMED_PROBES(",".join(names)) if names else None
    parsed = parse_config(_read_manifest(run_dir, "config_text", str)["config_text"])
    sim, settings = parsed.sim, parsed.probes
    if chosen is None:
        enabled = settings.enabled + tuple(
            probe for probe in BOUNDARY_PROBES if not _unset_keys(probe, settings))
    else:
        enabled = chosen
        for probe in (p for p in BOUNDARY_PROBES if p in chosen):
            missing = _unset_keys(probe, settings)
            if missing:
                raise ConfigurationError(
                    f"probe {probe} needs [probes] {', '.join(missing)}")
    series = series_from_run_dir(run_dir)

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
    weak_forms = {
        "momentum": diagnostics.weak_momentum_residual,
        "energy_local": diagnostics.local_energy_residual,
        "renorm": diagnostics.renormalized_residual,
    }
    for probe, residual in weak_forms.items():
        if probe in enabled:
            results[probe] = {
                name: residual(series, sim, bump) for name, bump in bumps.items()
            }
    if "dissipation" in enabled:
        omega = settings.dissipation_omega_cells * series.dx
        dt_stored = float(np.min(np.diff(series.times)))
        kernel = diagnostics.MollifierKernel.build(
            max(omega, 2.0 * max(dt_stored, series.dx)), dt_stored, series.dx,
            series.fields["velocity"].shape)
        est = diagnostics.dissipation_estimate(series, kernel)
        results["dissipation"] = {
            k: v for k, v in est.items() if k != "density"
        }
    if "stress_jump" in enabled:
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
        elif chosen is not None:
            raise ProbeContractError(
                "probe stress_jump needs a left contact boundary inside "
                "(0.05 l, 0.95 l), and this run has none among its "
                f"{len(report.boundary_graphs)} boundary graphs")
    if "velocity_jump" in enabled:
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
# process pool and sweep orchestration


def _worker_count(n_jobs: int) -> int:
    """n_jobs capped by OBSTRING_THREADS when it is set, else by the number
    of CPUs this process may run on (a cpuset can allow fewer than the host has)."""
    cap = os.environ.get("OBSTRING_THREADS", "")
    if not cap:
        if not hasattr(os, "sched_getaffinity"):  # macOS has no affinity call
            return min(n_jobs, os.cpu_count() or 1)
        return min(n_jobs, len(os.sched_getaffinity(0)))
    if not (cap.strip().isdecimal() and int(cap) >= 1):
        raise ConfigurationError(
            f"OBSTRING_THREADS = {cap!r} is not a whole number >= 1")
    return min(n_jobs, int(cap))


def _starmap(fn, calls: list[tuple]) -> list:
    """[fn(*args) for args in calls], run here when _worker_count(len(calls))
    <= 1, else by a pool of that many processes; the arguments go by pickle
    (any start method works) and an exception fn raises is raised here."""
    workers = _worker_count(len(calls))
    if workers <= 1:
        return [fn(*args) for args in calls]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*calls)))


def _sweep_one(axis: str, value: float, parsed: ParsedConfig, out_dir: str) -> dict:
    """Worker: run one sweep point; never raises (failures are recorded)."""
    started = _time.perf_counter()
    try:
        sim = parsed.sim
        if axis == "epsilon":
            sim = replace(sim, physics=Physics(sim.physics.alpha, float(value)))
        elif axis == "dt_dx":
            if not value > 0.0:
                raise ConfigurationError(f"dt_dx value {value:g} must be positive")
            sim = replace(sim, grid=replace(sim.grid, cells_n=round(sim.grid.length_l / value)),
                          time=replace(sim.time, steps_m=round(sim.time.horizon_T / value)))

        if axis == "modes":
            if not (float(value).is_integer() and value >= 1):
                raise ConfigurationError(
                    f"mode count {value:g} must be a whole number >= 1")
            series = galerkin.integrate(sim, int(value))
            energy_final = math.nan
        else:
            trimmed = replace(parsed, sim=sim,
                              output=replace(parsed.output, formats=("npz",), snapshots=()))
            _, series, ledger = _solve_and_write(trimmed, out_dir)
            energy_final = float(ledger.rows[-1, 1] + ledger.rows[-1, 2])

        pen = diagnostics.penetration_metrics(series)
        return {
            "value": float(value),
            "status": "ok",
            "l1_max": pen["l1_max"],
            "depth_max": pen["depth_max"],
            "energy_final": energy_final,
            "final_time": float(series.times[-1]),
            "final_eta_xs": series.xs,
            "final_eta": series.fields["eta"][-1].copy(),  # not a view of every frame
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
    if not all(map(math.isfinite, sweep_values)):
        raise ConfigurationError(f"sweep values must be finite, got {sweep_values}")
    _worker_count(1)  # a malformed OBSTRING_THREADS fails before anything is written
    ordered = sorted(sweep_values, reverse=True)
    os.makedirs(out_dir, exist_ok=True)

    rows = _starmap(_sweep_one, [
        (axis, v, parsed, os.path.join(out_dir, f"run_{i:02d}"))
        for i, v in enumerate(ordered)
    ])

    # pairwise final-frame differences on the coarsest common grid
    ok = [r for r in rows if r["status"] == "ok"]
    coarsest = min(ok, key=lambda r: len(r["final_eta_xs"]), default=None)
    for a, b in zip(rows, rows[1:]):
        if a["status"] != "ok" or b["status"] != "ok" or coarsest is None:
            continue
        xs_ref = coarsest["final_eta_xs"]
        ya = np.interp(xs_ref, a["final_eta_xs"], a["final_eta"])
        yb = np.interp(xs_ref, b["final_eta_xs"], b["final_eta"])
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
    table = np.array([[row.get(col, math.nan) for col in columns] for row in rows],
                     dtype=object)
    _write_csv(sweep_path, columns, [table],
               fmt=["%s" if col == "status" else "%.17g" for col in columns])
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
    preset, snaps = ((example1_config, EXAMPLE1_SNAPSHOTS) if which == "example1"
                     else (example2_config, EXAMPLE2_SNAPSHOTS))
    with _naming(_FLAG_NAMES):
        sim = preset(resolution=resolution, epsilon=epsilon, output_stride=stride)
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


def cmd_example(args: argparse.Namespace) -> int:
    which = args.command
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
    try:
        values = list(_floats(args.values))
    except ValueError as exc:
        raise ConfigurationError(f"bad --values {args.values!r}: {exc}") from exc
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
    _write_json(path, results)
    for name, payload in results.items():
        print(f"{name}: {json.dumps(payload, default=float)[:200]}")
    print(f"probe report written to {path}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    run_dir = args.run_dir
    series = series_from_run_dir(run_dir)
    # read before anything is written, to keep its checksums true for the new files
    manifest_path = os.path.join(run_dir, "manifest.json")
    manifest = (_read_manifest(run_dir, "files", dict)
                if os.path.exists(manifest_path) else None)
    mask = diagnostics.extract_contact(series).mask  # link_cells never moves the mask
    paths = _render_heatmaps(run_dir, series, mask)
    if manifest is not None:
        for path in paths:
            manifest["files"][os.path.basename(path)] = _file_entry(path)
        _write_json(manifest_path, manifest)
    print(f"heatmaps refreshed under {run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # -v goes before or after the subcommand; SUPPRESS keeps a subcommand's
    # unset flag from overwriting one given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS, help="info logging")
    parser = argparse.ArgumentParser(
        prog="obstring",
        description="Penalized viscoelastic string-on-obstacle simulator",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common])

    p_run = add("run", help="execute a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    for which in ("example1", "example2"):
        p_ex = add(which, help=f"run the {which} preset")
        p_ex.add_argument("--out", default=None)
        p_ex.add_argument("--resolution", type=int, default=5000,
                          help="cells per unit length (and steps per unit time)")
        p_ex.add_argument("--epsilon", type=float, default=0.0005)
        p_ex.add_argument("--stride", type=int, default=0,
                          help="store every k-th step (0 = auto)")
        p_ex.set_defaults(func=cmd_example)

    p_sweep = add("sweep", help="parameter sweep over one axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=("epsilon", "dt_dx", "modes"))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_probe = add("probe", help="evaluate diagnostics on a stored run")
    p_probe.add_argument("run_dir")
    p_probe.add_argument("--probe", action="append",
                         help="probe name, one of "
                         f"{', '.join(DEFAULT_PROBES + BOUNDARY_PROBES)} or all "
                         "(repeatable; default: config selection)")
    p_probe.set_defaults(func=cmd_probe)

    p_render = add("render", help="regenerate heatmaps for a stored run")
    p_render.add_argument("run_dir")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ProbeContractError as exc:
        print(f"probe contract violation: {exc}", file=sys.stderr)
        return 4
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericBlowupError as exc:
        print(f"numeric blowup: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 5

if __name__ == "__main__":
    sys.exit(main())

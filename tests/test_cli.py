"""Config text, run artifacts, probes, sweeps, rendering, and exit codes."""

import csv
import dataclasses
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obstring
from conftest import log_uniform
from obstring import cli, diagnostics, fd_solver
from obstring.core import (
    ConfigurationError,
    Grid1D,
    InitialData,
    Physics,
    SimConfig,
    TimeGrid,
)

GOOD_CONFIG = """\
# comment lines and blanks are ignored

[grid]
l = 1.0
n = 50
[time]
T = 0.1
m = 10
[physics]
alpha = 1.0
epsilon = 0.01
[init]
kind = single_mode
amplitude = 0.4
mode = 1
offset = 1.0
v0 = 0.0
[output]
stride = 1
formats = csv,heatmap,snapshots
snapshots = 0.0,0.033
oracle_modes = 4
[probes]
enabled = penetration,contact
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One executed run shared by the artifact tests."""
    out = tmp_path_factory.mktemp("cli") / "run"
    parsed = cli.parse_config(GOOD_CONFIG)
    manifest = cli.execute_run(parsed, str(out))
    return str(out), parsed, manifest


NPZ_CONFIG = GOOD_CONFIG.replace("csv,heatmap,snapshots", "npz,heatmap,snapshots")


@pytest.fixture(scope="module")
def npz_run_dir(tmp_path_factory):
    """The same run as run_dir, storing its fields in fields.npz only."""
    out = tmp_path_factory.mktemp("cli") / "npz_run"
    parsed = cli.parse_config(NPZ_CONFIG)
    manifest = cli.execute_run(parsed, str(out))
    return str(out), parsed, manifest


# ---------------------------------------------------------------------------
# config parsing


def test_parse_round_trips_presets():
    for which in ("example1", "example2"):
        parsed = cli._preset_parsed(which, 200, 0.002, None, 0)
        assert cli.parse_config(cli.emit_config(parsed)) == parsed


EXAMPLE1_200_TEXT = """\
[grid]
l = 1
n = 200
[time]
T = 0.29999999999999999
m = 60
[physics]
alpha = 0.01
epsilon = 0.002
[init]
kind = example1
amplitude = 0
mode = 1
offset = 0
v0 = 0
[output]
stride = 0
formats = npz,heatmap
snapshots = 0,0.02,0.040000000000000001,0.059999999999999998,0.20000000000000001,0.29999999999999999
oracle_modes = 0
[probes]
enabled = penetration,contact,momentum,energy_local,renorm,dissipation
link_cells = 12
dissipation_omega_cells = 4
stress_delta = 0
velocity_t1 = -1
velocity_x0 = 0
velocity_x1 = 0
velocity_deltas = \n"""


def test_emit_config_bytes_are_pinned():
    # these bytes are every preset run's config.ini and manifest config_text
    parsed = cli._preset_parsed("example1", 200, 0.002, None, 0)
    assert cli.emit_config(parsed) == EXAMPLE1_200_TEXT


def test_every_schema_key_round_trips(tmp_path):
    xs = np.linspace(0.0, 1.0, 5)
    table_files = (str(tmp_path / "eta0.csv"), str(tmp_path / "v0.csv"))
    np.savetxt(table_files[0], 0.5 + 0.25 * np.sin(np.pi * xs))
    np.savetxt(table_files[1], -3.0 * xs * (1.0 - xs))
    sim = SimConfig(
        grid=Grid1D(2.0, 4),
        time=TimeGrid(0.25, 7),
        physics=Physics(alpha=0.5, epsilon=0.03),
        init=InitialData(
            "tabulated", amplitude=0.125, mode=3, offset=1.5, v0=-2.0,
            eta0_table=tuple(np.loadtxt(table_files[0])),
            v0_table=tuple(np.loadtxt(table_files[1])),
        ),
        output_stride=2,
    )
    parsed = cli.ParsedConfig(
        sim=sim,
        output=cli.OutputSettings(dir=str(tmp_path / "out"), formats=(),
                                  snapshots=(0.0, 0.1), oracle_modes=5),
        probes=cli.ProbeSettings(
            enabled=("renorm", "penetration"), link_cells=3,
            dissipation_omega_cells=2.5, stress_delta=1.0, velocity_t1=0.1,
            velocity_x0=0.2, velocity_x1=0.8, velocity_deltas=(0.05, 0.025),
        ),
        table_files=table_files,
    )
    objects = {Grid1D: sim.grid, TimeGrid: sim.time, Physics: sim.physics,
               InitialData: sim.init, SimConfig: sim,
               cli.OutputSettings: parsed.output, cli.ProbeSettings: parsed.probes}
    table_keys = []
    for section, keys in cli._SCHEMA.items():
        for key, (_, target, name) in keys.items():
            table_keys.append((section, key))
            if target is not None:  # every key holds a value other than its default
                default = next(f.default for f in dataclasses.fields(target)
                               if f.name == name)
                assert getattr(objects[target], name) != default, key

    text = cli.emit_config(parsed)
    assert cli.parse_config(text) == parsed
    emitted, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1]
        else:
            emitted.append((section, line.split(" = ", 1)[0]))
    assert emitted == table_keys


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parsed = cli.parse_config(block)
    assert parsed.sim.grid.cells_n == 1000
    assert parsed.output.formats == ("npz", "heatmap", "snapshots")


def test_parse_round_trips_custom_text():
    parsed = cli.parse_config(GOOD_CONFIG)
    again = cli.parse_config(cli.emit_config(parsed))
    assert again == parsed
    assert parsed.sim.grid.cells_n == 50
    assert parsed.output.snapshots == (0.0, 0.033)
    assert parsed.probes.enabled == ("penetration", "contact")


@pytest.mark.parametrize(
    "snippet,fragment",
    [
        ("[nope]\nx = 1\n", "line 1: unknown section"),
        ("[grid]\nbogus = 1\n", "line 2: unknown key"),
        ("[grid]\nn = 5\nn = 6\n", "line 3: duplicate key"),
        ("[grid]\nn = not_a_number\n", "line 2: bad value"),
        ("n = 5\n", "line 1: key outside any section"),
        ("[grid]\njust some words\n", "line 2: expected key = value"),
        ("[probes]\ntol_renorm = 1e-3\n", "line 2: unknown key"),
    ],
)
def test_parse_errors_carry_line_numbers(snippet, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        cli.parse_config(snippet)


def test_parse_missing_required_key():
    with pytest.raises(ConfigurationError, match=r"\[time\].m"):
        cli.parse_config("[grid]\nl = 1.0\nn = 10\n[time]\nT = 0.1\n")


def test_parse_rejects_unknown_format_and_probe():
    base = "[grid]\nl=1\nn=10\n[time]\nT=0.1\nm=5\n[physics]\nepsilon=0.01\n[init]\nkind=example1\n"
    with pytest.raises(ConfigurationError, match="unknown output format"):
        cli.parse_config(base + "[output]\nformats = csv,pdf\n")
    with pytest.raises(ConfigurationError, match="unknown probe"):
        cli.parse_config(base + "[probes]\nenabled = wavelets\n")


TABULATED_CONFIG = """\
[grid]
l = 1.0
n = 20
[time]
T = 0.05
m = 20
[physics]
epsilon = 0.01
[init]
kind = tabulated
eta0_file = eta0.csv
v0_file = v0.csv
[output]
stride = 1
"""


@pytest.fixture
def tabulated_dir(tmp_path, monkeypatch):
    """A 20-cell tabulated config whose tables are named relative to the cwd."""
    xs = np.linspace(0.0, 1.0, 21)
    np.savetxt(tmp_path / "eta0.csv", 0.5 + 0.3 * np.sin(np.pi * xs))
    np.savetxt(tmp_path / "v0.csv", np.where((xs > 0.0) & (xs < 1.0), -20.0, 0.0))
    (tmp_path / "tab.ini").write_text(TABULATED_CONFIG)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_tabulated_config_round_trips(tabulated_dir, monkeypatch):
    parsed = cli.parse_config(TABULATED_CONFIG)
    assert parsed.sim.init.eta0_table[10] == pytest.approx(0.8)
    assert parsed.table_files == (str(tabulated_dir / "eta0.csv"),
                                  str(tabulated_dir / "v0.csv"))
    text = cli.emit_config(parsed)
    monkeypatch.chdir(tabulated_dir.parent)  # absolute paths resolve anywhere
    assert cli.parse_config(text) == parsed

    with pytest.raises(ConfigurationError, match=r"missing required key \[init\].v0_file"):
        cli.parse_config(TABULATED_CONFIG.replace("v0_file = v0.csv\n", ""))


@pytest.mark.parametrize("key", ["eta0_file", "v0_file"])
def test_table_files_refused_unless_tabulated(key):
    text = GOOD_CONFIG.replace("v0 = 0.0\n", f"v0 = 0.0\n{key} = nowhere.csv\n")
    with pytest.raises(ConfigurationError,
                       match=rf"\[init\].{key} is read only when kind = tabulated"):
        cli.parse_config(text)


@pytest.mark.parametrize(
    "text, message",
    [("1.0\nabc\n1.0\n", "cannot read table"),
     ("1.0,1.0\n" * 21, "must be one column, got 2 columns")],
    ids=["non-numeric", "two-columns"],
)
def test_unreadable_table_exits_two(tabulated_dir, capsys, text, message):
    (tabulated_dir / "eta0.csv").write_text(text)
    assert cli.main(["run", "tab.ini", "--out", str(tabulated_dir / "out")]) == 2
    err = capsys.readouterr().err
    assert "eta0.csv" in err and message in err


def test_empty_table_exits_two_with_one_message(tabulated_dir):
    (tabulated_dir / "eta0.csv").write_text("")
    done = _fresh_python("-m", "obstring.cli", "run", "tab.ini", "--out", "out",
                         cwd=tabulated_dir)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["configuration error: table "
                                        f"{tabulated_dir / 'eta0.csv'} is empty"]


@pytest.mark.parametrize("table", ["eta0", "v0"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_table_exits_two(tabulated_dir, capsys, table, value):
    path = tabulated_dir / f"{table}.csv"
    column = np.loadtxt(path)
    column[5] = value
    np.savetxt(path, column)
    assert cli.main(["run", "tab.ini", "--out", str(tabulated_dir / "out")]) == 2
    err = capsys.readouterr().err
    assert f"[init].{table}_file must be finite, got {value} at entry 5" in err


def test_tabulated_run_probe_render(tabulated_dir, capsys):
    out = str(tabulated_dir / "out")
    assert cli.main(["run", "tab.ini", "--out", out]) == 0
    assert cli.main(["probe", out]) == 0
    assert cli.main(["render", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "probes.json")) as fh:
        assert np.isfinite(json.load(fh)["penetration"]["l1_max"])


# ---------------------------------------------------------------------------
# run artifacts


def _read_field_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A field's CSV export: stored times, node positions, frames x nodes."""
    xs = np.loadtxt(path, delimiter=",", max_rows=1, dtype=str)[1:].astype(float)
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return body[:, 0], xs, body[:, 1:]


def _svg_raster(svg: Path) -> bytes:
    """The bytes of the PNG a heatmap SVG links, which must be its sibling."""
    href = svg.read_text().split('<image ')[1].split('href="')[1].split('"')[0]
    assert href == svg.with_suffix(".png").name
    return (svg.parent / href).read_bytes()


def test_run_writes_expected_files(run_dir):
    out, _, manifest = run_dir
    expected = {
        "config.ini", "energy.csv", "eta.csv", "velocity.csv", "penalty.csv",
        "contact.csv", "oracle_eta.csv", "manifest.json",
        "fields.npz", "oracle_eta.npz",
        "eta.png", "eta.svg", "velocity.png", "velocity.svg",
        "contact.png", "contact.svg",
        "snapshot_t0.000000.csv", "snapshot_t0.033000.csv",
    }
    assert expected <= set(os.listdir(out))
    assert expected <= set(manifest.files)
    assert {"solve", "write", "render", "oracle"} <= set(manifest.phases)
    assert not any(name.endswith(".ppm") for name in os.listdir(out))
    for name in ("eta", "velocity", "contact"):
        png = Path(out, f"{name}.png").read_bytes()
        assert png.startswith(b"\x89PNG\r\n\x1a\n")
        # the SVG links the .png beside it
        assert _svg_raster(Path(out, f"{name}.svg")) == png


def test_energy_csv_holds_the_ledger(run_dir):
    out, parsed, _ = run_dir
    path = os.path.join(out, "energy.csv")
    with open(path) as fh:
        header = fh.readline()
    assert header == "time,kinetic,elastic,visc_cum,num_cum,work_cum\n"
    assert header.rstrip("\n").split(",") == list(diagnostics.EnergyLedger.COLUMNS)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    _, ledger = fd_solver.run(parsed.sim)
    # readers take kinetic and elastic by position
    assert np.array_equal(table[:, 1], ledger.as_columns()["kinetic"])
    assert np.array_equal(table[:, 2], ledger.as_columns()["elastic"])
    with open(os.path.join(out, "manifest.json")) as fh:
        closure = json.load(fh)["energy_residual_max"]
    assert closure == np.abs(ledger.residual()).max()
    assert closure <= 1e-11 * (ledger.rows[0, 1] + ledger.rows[0, 2])


def test_manifest_records_dt_over_eps(run_dir):
    out, parsed, _ = run_dir
    with open(os.path.join(out, "manifest.json")) as fh:
        ratio = json.load(fh)["dt_over_eps"]
    assert isinstance(ratio, float)
    assert ratio == parsed.sim.time.dt / parsed.sim.physics.epsilon


def test_manifest_checksums_match(run_dir, npz_run_dir):
    for out, parsed, _ in (run_dir, npz_run_dir):
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["versions"] == {"obstring": obstring.__version__,
                                        "numpy": np.__version__,
                                        "python": platform.python_version()}
        assert ("fields.npz" in manifest["files"]) == bool(parsed.output.formats)
        for name, meta in manifest["files"].items():
            if name == "manifest.json":
                continue  # hashed before the manifest itself was written
            path = os.path.join(out, name)
            assert os.path.getsize(path) == meta["bytes"]
            assert cli._sha256(path) == meta["sha256"]


def test_export_workers_write_the_same_bytes(tmp_path, monkeypatch):
    cfg = tmp_path / "good.ini"
    cfg.write_text(GOOD_CONFIG)
    # "start" sits in the stdout buffer when the export pool forks: a child
    # that flushed it again would print it twice
    script = ("import multiprocessing, sys; from obstring import cli; "
              "method = sys.argv.pop(1); "
              "method and multiprocessing.set_start_method(method); "
              "print('start'); sys.exit(cli.main(sys.argv[1:]))")
    hashes = {}
    for threads, method in (("1", ""), ("2", ""), ("2", "spawn")):
        monkeypatch.setenv("OBSTRING_THREADS", threads)
        out = tmp_path / f"threads{threads}{method}"
        done = _fresh_python("-c", script, method, "run", str(cfg), "--out", str(out))
        assert done.returncode == 0, done.stderr
        with open(out / "manifest.json") as fh:
            files = json.load(fh)["files"]
        assert done.stdout.splitlines() == [  # the count takes in manifest.json
            "start", f"run complete: {len(files) + 1} files in {out}"]
        assert sorted(name for name in files if name.endswith(".csv")) == sorted(
            name for name in os.listdir(out) if name.endswith(".csv"))
        assert {"oracle_eta.csv", "snapshot_t0.000000.csv",
                "snapshot_t0.033000.csv"} <= set(files)
        hashes[out.name] = {name: entry["sha256"] for name, entry in files.items()}
    assert hashes["threads1"] == hashes["threads2"] == hashes["threads2spawn"]


@pytest.mark.parametrize("blocked", ["velocity.csv", "eta.csv"],
                         ids=["own-share", "child-share"])
def test_unwritable_csv_fails_the_run_by_name(tmp_path, monkeypatch, blocked):
    # two pool workers write the tables, eta.csv and velocity.csv among them
    monkeypatch.setenv("OBSTRING_THREADS", "2")
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    with pytest.raises(OSError, match=blocked):
        cli.execute_run(cli.parse_config(GOOD_CONFIG), str(out))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", ["1", "2"], ids=["own-share", "child-share"])
def test_unwritable_csv_exits_five_without_a_traceback(tmp_path, monkeypatch, threads):
    # a fresh interpreter, because a pool worker's stderr bypasses capsys; at
    # two workers a pool worker writes eta.csv and its error comes back here
    monkeypatch.setenv("OBSTRING_THREADS", threads)
    cfg = tmp_path / "run.ini"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "run"
    (out / "eta.csv").mkdir(parents=True)
    done = _fresh_python("-m", "obstring.cli", "run", str(cfg), "--out", str(out))
    assert done.returncode == 5
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("output error:") and "eta.csv" in lines[0]


def _exported(series):
    """The fields the csv and snapshots exports write: the state and its force."""
    return {**series.fields, "penalty_force": series.penalty_force}


def test_csv_round_trip_is_bitwise(run_dir):
    out, parsed, _ = run_dir
    series, _ = fd_solver.run(parsed.sim)
    for name, fname in cli.FIELD_FILES:
        times, xs, values = _read_field_csv(os.path.join(out, fname))
        assert np.array_equal(times, series.times)
        assert np.array_equal(xs, series.xs)
        assert np.array_equal(values, _exported(series)[name])


def test_npz_round_trip_is_bitwise(npz_run_dir):
    out, parsed, _ = npz_run_dir
    assert not os.path.exists(os.path.join(out, "eta.csv"))
    series, _ = fd_solver.run(parsed.sim)
    stored = cli.series_from_run_dir(out)
    assert np.array_equal(stored.times, series.times)
    assert np.array_equal(stored.xs, series.xs)
    assert stored.epsilon == series.epsilon == parsed.sim.physics.epsilon
    for name in ("eta", "velocity", "penalty_force"):
        # bitwise, signed zeros included: the force is derived on read
        assert _exported(stored)[name].tobytes() == _exported(series)[name].tobytes()
    # the store holds the state; the penalty force and mask are derived
    with np.load(os.path.join(out, "fields.npz")) as data:
        assert set(data.files) == {"times", "xs", "eta", "velocity", "epsilon"}
        assert data["epsilon"].shape == ()
        assert data["epsilon"] == parsed.sim.physics.epsilon


def test_fields_npz_is_deterministic(npz_run_dir, tmp_path):
    out, parsed, manifest = npz_run_dir
    again = cli.execute_run(parsed, str(tmp_path / "again"))
    for name in ("fields.npz", "oracle_eta.npz"):
        assert again.files[name]["sha256"] == manifest.files[name]["sha256"]


@pytest.mark.parametrize(
    "formats,calls",
    [((), 0), (("snapshots",), 0), (("npz",), 0), (("csv",), 1), (("heatmap",), 1)],
)
def test_contact_extracted_only_when_stored(tmp_path, monkeypatch, formats, calls):
    seen = []
    extract = diagnostics.extract_contact

    def counting(*args, **kwargs):
        seen.append(1)
        return extract(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "extract_contact", counting)
    parsed = cli.parse_config(GOOD_CONFIG.replace("oracle_modes = 4", "oracle_modes = 0"))
    parsed = replace(parsed, output=replace(parsed.output, formats=formats))
    cli.execute_run(parsed, str(tmp_path / "out"))
    assert len(seen) == calls


_TIMES = np.array([0.0, 0.5])
_XS = np.array([0.0, 0.5, 1.0])
_FIELD = np.array([[-0.0, 1e-300, 3.0], [0.1, -2.5, 1.0 / 3.0]])


@pytest.mark.parametrize(
    "labels,columns,fmt,expected",
    [
        (  # a field: stored frames x nodes under "t" and the node positions
            ["t", *("%.17g" % x for x in _XS)], [_TIMES, _FIELD], "%.17g",
            "t,0,0.5,1\n"
            "0,-0,1e-300,3\n"
            "0.5,0.10000000000000001,-2.5,0.33333333333333331\n",
        ),
        (  # the contact mask: 17-digit times, 0/1 cells
            ["t", "0", "0.5", "1"],
            [_TIMES, np.array([[False, True, True], [True, False, False]])],
            ["%.17g", "%d", "%d", "%d"],
            "t,0,0.5,1\n"
            "0,0,1,1\n"
            "0.5,1,0,0\n",
        ),
        (  # an energy ledger
            ["time", "kinetic", "residual"],
            [np.array([0.0, 0.1]), np.array([0.25, 0.25]), np.array([0.0, -1e-17])],
            "%.17g",
            "time,kinetic,residual\n"
            "0,0.25,0\n"
            "0.10000000000000001,0.25,-1.0000000000000001e-17\n",
        ),
        (  # a sweep report: text and float columns
            ["value", "status", "wall_seconds"],
            [np.array([[0.02, "ok", 1.5], [0.01, "error:OverflowError", np.nan]],
                      dtype=object)],
            ["%.17g", "%s", "%.17g"],
            "value,status,wall_seconds\n"
            "0.02,ok,1.5\n"
            "0.01,error:OverflowError,nan\n",
        ),
        (  # a snapshot of frame 1
            ["x", "eta", "velocity", "penalty_force"],
            [_XS, _FIELD[1], -_FIELD[1], np.zeros(3)], "%.17g",
            "x,eta,velocity,penalty_force\n"
            "0,0.10000000000000001,-0.10000000000000001,0\n"
            "0.5,-2.5,2.5,0\n"
            "1,0.33333333333333331,-0.33333333333333331,0\n",
        ),
    ],
    ids=["field", "mask", "energy", "sweep", "snapshot"],
)
def test_csv_writer_bytes(tmp_path, labels, columns, fmt, expected):
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), labels, columns, fmt)
    assert path.read_bytes() == expected.encode("ascii")


def test_snapshot_targets_nearest_stored_instant(run_dir):
    out, _, manifest = run_dir
    # dt = 0.01, so the requested instant 0.033 snaps to 0.03
    assert manifest.snapshots["0.033000"] == pytest.approx(0.03)
    body = np.loadtxt(
        os.path.join(out, "snapshot_t0.033000.csv"), delimiter=",", skiprows=1
    )
    assert body.shape == (51, 4)


def test_contact_csv_is_binary(run_dir):
    out, _, _ = run_dir
    _, _, mask = _read_field_csv(os.path.join(out, "contact.csv"))
    assert set(np.unique(mask)) <= {0.0, 1.0}


def test_contact_csv_times_and_positions_are_exact(run_dir):
    out, _, _ = run_dir
    times, xs, _ = _read_field_csv(os.path.join(out, "contact.csv"))
    eta_times, eta_xs, _ = _read_field_csv(os.path.join(out, "eta.csv"))
    assert np.array_equal(times, eta_times)
    assert np.array_equal(xs, eta_xs)


def test_oracle_field_tracks_solver(run_dir, npz_run_dir):
    out, parsed, _ = run_dir
    times, xs, oracle_eta = _read_field_csv(os.path.join(out, "oracle_eta.csv"))
    stored = cli.series_from_run_dir(out)
    assert oracle_eta.shape == stored.fields["eta"].shape
    # same dynamics pre-contact: loose agreement is enough here
    assert np.max(np.abs(oracle_eta - stored.fields["eta"])) < 0.05
    # under npz the same oracle field goes to oracle_eta.npz
    with np.load(os.path.join(npz_run_dir[0], "oracle_eta.npz")) as data:
        assert np.array_equal(data["times"], times)
        assert np.array_equal(data["xs"], xs)
        assert np.array_equal(data["eta"], oracle_eta)


def test_probe_command_writes_report(run_dir, capsys):
    out, _, _ = run_dir
    assert cli.main(["probe", out]) == 0
    with open(os.path.join(out, "probes.json")) as fh:
        report = json.load(fh)
    assert set(report) == {"penetration", "contact"}  # config selection
    assert report["contact"]["first_contact_time"] is None
    capsys.readouterr()

    assert cli.main(["probe", out, "--probe", "momentum"]) == 0
    with open(os.path.join(out, "probes.json")) as fh:
        report = json.load(fh)
    assert set(report) == {"momentum"}
    assert set(report["momentum"]) == {"early", "mid_left", "late_right",
                                       "wide", "narrow"}
    capsys.readouterr()

    assert cli.main(["probe", out, "--probe", "wavelets"]) == 2
    assert "unknown probe(s): wavelets" in capsys.readouterr().err


def test_contact_free_probe_report_is_strict_json(tmp_path, capsys):
    # a run that never penetrates has no first penetration time: null, not
    # the NaN that RFC 8259 JSON cannot hold; and a zero term is 0.0, not
    # the -0.0 of -alpha * 0.0
    cfg = tmp_path / "free.ini"
    cfg.write_text(GOOD_CONFIG.replace("csv,heatmap,snapshots", "npz")
                   .replace("enabled = penetration,contact", "enabled = all"))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["probe", str(out)]) == 0
    capsys.readouterr()

    def refuse(token):
        raise ValueError(f"probes.json holds {token}")

    def number(text):
        value = float(text)
        return refuse(text) if value == 0.0 and np.signbit(value) else value

    with open(out / "probes.json") as fh:
        report = json.load(fh, parse_constant=refuse, parse_float=number)
    assert report["penetration"]["first_penetration_time"] is None
    assert report["contact"]["first_contact_time"] is None
    assert "dissipation" in report


def test_probe_names_checked_before_the_run_is_read(tmp_path, capsys):
    # a formats = none run has no field store; the bad name is reported first
    cfg = tmp_path / "none.ini"
    cfg.write_text(GOOD_CONFIG.replace("csv,heatmap,snapshots", "none")
                   .replace("oracle_modes = 4", "oracle_modes = 0"))
    out = str(tmp_path / "out")
    assert cli.main(["run", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["probe", out, "--probe", "bogus"]) == 2
    assert "unknown probe(s): bogus" in capsys.readouterr().err
    assert cli.main(["probe", str(tmp_path / "nowhere"), "--probe", "bogus"]) == 2
    assert "unknown probe(s): bogus" in capsys.readouterr().err


def test_csv_and_npz_runs_write_the_same_store_and_report(tmp_path, capsys):
    # csv is an export beside fields.npz, not a second store: both runs
    # write the same fields.npz, so their probes.json agree bytewise
    stores, reports = [], []
    for formats in ("csv", "npz"):
        cfg = tmp_path / f"{formats}.ini"
        cfg.write_text(
            GOOD_CONFIG.replace("csv,heatmap,snapshots", formats)
            .replace("oracle_modes = 4", "oracle_modes = 0")
            .replace("enabled = penetration,contact",
                     "enabled = penetration,contact,momentum,energy_local,renorm")
        )
        out = tmp_path / formats
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["probe", str(out)]) == 0
        stores.append((out / "fields.npz").read_bytes())
        reports.append((out / "probes.json").read_bytes())
    capsys.readouterr()
    assert stores[0] == stores[1]
    assert reports[0] == reports[1]


BOUNDARY_CONFIG = """\
[grid]
l = 1.0
n = 400
[time]
T = 0.5
m = 200
[physics]
alpha = 0.01
epsilon = 0.005
[init]
kind = example2
[output]
formats = npz
[probes]
stress_delta = 0.02
velocity_t1 = 0.2
velocity_x0 = 0.3
velocity_x1 = 0.4
velocity_deltas = 0.02,0.01
"""


@pytest.fixture(scope="module")
def boundary_run_dir(tmp_path_factory):
    """An example2 run whose config switches on both boundary probes."""
    out = tmp_path_factory.mktemp("cli") / "boundary"
    cli.execute_run(cli.parse_config(BOUNDARY_CONFIG), str(out))
    return str(out)


def _probe_report(out: str, *names: str, code: int = 0) -> dict:
    argv = ["probe", out] + [arg for name in names for arg in ("--probe", name)]
    assert cli.main(argv) == code
    with open(os.path.join(out, "probes.json")) as fh:
        return json.load(fh)


def test_probe_runs_the_boundary_probes_the_config_enables(boundary_run_dir, capsys):
    report = _probe_report(boundary_run_dir)
    assert set(report) == set(cli.DEFAULT_PROBES) | {"stress_jump", "velocity_jump"}
    stress = report["stress_jump"]
    assert stress and all(np.isfinite(value) for value in stress.values())
    velocity = report["velocity_jump"]
    arrays = ("deltas", "before", "after", "jump")
    assert all(isinstance(velocity[key], list) for key in arrays)
    assert velocity["deltas"] == [0.02, 0.01] and velocity["node_count"] > 0
    assert np.all(np.isfinite([velocity[key] for key in arrays]))
    out = capsys.readouterr().out
    assert "stress_jump: {" in out and "velocity_jump: {" in out


def test_named_probes_run_alone(boundary_run_dir, capsys):
    assert set(_probe_report(boundary_run_dir, "momentum")) == {"momentum"}
    assert set(_probe_report(boundary_run_dir, "penetration", "contact")) == {
        "penetration", "contact"}
    capsys.readouterr()


@pytest.mark.parametrize("name, key", [("stress_jump", "stress_delta"),
                                       ("velocity_jump", "velocity_t1")])
def test_probe_names_a_boundary_probe(boundary_run_dir, run_dir, capsys, name, key):
    assert _probe_report(boundary_run_dir, name) == {
        name: _probe_report(boundary_run_dir)[name]}
    assert set(_probe_report(boundary_run_dir, "momentum", name)) == {"momentum", name}
    capsys.readouterr()
    # GOOD_CONFIG leaves every boundary key unset
    assert cli.main(["probe", run_dir[0], "--probe", name]) == 2
    assert f"probe {name} needs [probes] {key}" in capsys.readouterr().err


def test_velocity_jump_without_an_interval_is_left_out(tmp_path, capsys):
    # velocity_x1 at its default 0 bounds no interval, like an unset t1
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(BOUNDARY_CONFIG.replace("velocity_x0 = 0.3\n", "")
                   .replace("velocity_x1 = 0.4\n", ""))
    out = str(tmp_path / "out")
    assert cli.main(["run", str(cfg), "--out", out]) == 0
    assert "velocity_jump" not in _probe_report(out)
    capsys.readouterr()
    assert cli.main(["probe", out, "--probe", "velocity_jump"]) == 2
    assert "probe velocity_jump needs [probes] velocity_x1\n" in capsys.readouterr().err


def test_named_stress_jump_without_an_interior_boundary_says_why(tmp_path, capsys):
    # GOOD_CONFIG never reaches the obstacle (offset 1, amplitude 0.4), so
    # the run has no contact boundary at all
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(GOOD_CONFIG.replace("csv,heatmap,snapshots", "npz")
                   .replace("oracle_modes = 4", "oracle_modes = 0")
                   + "stress_delta = 0.05\n")
    out = str(tmp_path / "out")
    assert cli.main(["run", str(cfg), "--out", out]) == 0
    # selected by its key or by name, it is reported as not run, and the
    # probes that can run still report
    report = _probe_report(out, code=4)
    assert set(report) == {"penetration", "contact", "stress_jump"}
    reason = report["stress_jump"]["not_run"]
    assert _probe_report(out, "stress_jump", code=4) == {"stress_jump": {"not_run": reason}}
    assert capsys.readouterr().err.splitlines() == [
        f"probe contract violation: stress_jump: {reason}"] * 2
    assert reason.startswith("needs a left contact boundary")
    assert "none among its 0 boundary graphs" in reason


def test_stress_jump_strips_that_leave_the_rod_keep_the_other_results(tmp_path, capsys):
    cfg = tmp_path / "wide.ini"
    cfg.write_text(BOUNDARY_CONFIG.replace("stress_delta = 0.02", "stress_delta = 0.45"))
    out = str(tmp_path / "out")
    assert cli.main(["run", str(cfg), "--out", out]) == 0
    report = _probe_report(out, code=4)
    assert set(report) == set(cli.PROBES)
    reason = report["stress_jump"]["not_run"]
    assert "leave the domain" in reason and "0.45" in reason
    assert all("not_run" not in payload
               for name, payload in report.items() if name != "stress_jump")
    assert _probe_report(out, "stress_jump", code=4) == {"stress_jump": {"not_run": reason}}
    assert capsys.readouterr().err.splitlines() == [
        f"probe contract violation: stress_jump: {reason}"] * 2


def _run_good_config(tmp_path, formats: str) -> str:
    """Run GOOD_CONFIG without the oracle under the given formats."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(GOOD_CONFIG.replace("csv,heatmap,snapshots", formats)
                   .replace("oracle_modes = 4", "oracle_modes = 0"))
    out = str(tmp_path / "out")
    assert cli.main(["run", str(cfg), "--out", out]) == 0
    return out


@pytest.mark.parametrize("formats", ["npz", "csv", "heatmap", "snapshots", "none"])
def test_every_run_with_outputs_can_be_probed_and_rendered(tmp_path, capsys, formats):
    out = _run_good_config(tmp_path, formats)
    with open(os.path.join(out, "manifest.json")) as fh:
        files = json.load(fh)["files"]
    capsys.readouterr()
    if formats == "none":
        assert set(files) == {"config.ini", "energy.csv"}
        for command in ("probe", "render"):
            assert cli.main([command, out]) == 2
            assert "lacks fields.npz" in capsys.readouterr().err
    else:
        assert "fields.npz" in files
        assert cli.main(["probe", out]) == 0
        assert cli.main(["render", out]) == 0
        capsys.readouterr()


def test_csv_fields_without_the_store_must_be_rerun(tmp_path, capsys):
    # a directory of CSV fields only, as formats = csv wrote before every
    # run with outputs stored fields.npz
    out = _run_good_config(tmp_path, "csv")
    os.remove(os.path.join(out, "fields.npz"))
    assert {"eta.csv", "velocity.csv", "penalty.csv", "manifest.json"} <= set(
        os.listdir(out))
    capsys.readouterr()
    for command in ("probe", "render"):
        assert cli.main([command, out]) == 2
        err = capsys.readouterr().err
        assert "lacks fields.npz" in err and "re-run its config.ini" in err


def _rewrite_store(path: str, drop: tuple[str, ...] = (), **extra) -> None:
    """Rewrite a fields.npz without the members in drop and with extra ones,
    which replace members of the same name."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files if name not in drop}
    np.savez(path, **{**arrays, **extra})


@pytest.mark.parametrize("damage", ["truncated", "not-a-zip", "no-eta", "older-store",
                                    "mismatched", "unordered", "zero-epsilon",
                                    "one-frame", "one-node", "reversed-xs", "nan-eta"])
def test_an_unreadable_store_is_refused_by_name(tmp_path, capsys, damage):
    out = _run_good_config(tmp_path, "npz")
    path = os.path.join(out, "fields.npz")
    if damage == "truncated":
        with open(path, "r+b") as fh:
            fh.truncate(1000)
    elif damage == "not-a-zip":
        Path(path).write_text("t,0,1\n0,0,0\n")
    elif damage == "no-eta":
        _rewrite_store(path, drop=("eta",))
    elif damage == "mismatched":  # velocity one column short
        with np.load(path) as data:
            _rewrite_store(path, velocity=data["velocity"][:, :-1])
    elif damage == "unordered":
        with np.load(path) as data:
            _rewrite_store(path, times=data["times"][::-1])
    elif damage == "zero-epsilon":
        _rewrite_store(path, epsilon=0.0)
    elif damage == "one-frame":
        with np.load(path) as data:
            _rewrite_store(path, **{name: data[name][:1]
                                    for name in ("times", "eta", "velocity")})
    elif damage == "one-node":
        with np.load(path) as data:
            _rewrite_store(path, xs=data["xs"][:1], eta=data["eta"][:, :1],
                           velocity=data["velocity"][:, :1])
    elif damage == "reversed-xs":
        with np.load(path) as data:
            _rewrite_store(path, xs=data["xs"][::-1])
    elif damage == "nan-eta":
        with np.load(path) as data:
            eta = data["eta"].copy()
        eta[3, 10] = np.nan
        _rewrite_store(path, eta=eta)
    else:  # as stores were written before the penalty force was derived on read
        series = cli.series_from_run_dir(out)
        _rewrite_store(path, drop=("epsilon",),
                       penalty_force=series.penalty_force,
                       contact=diagnostics.extract_contact(series).mask)
    capsys.readouterr()
    for command in ("probe", "render"):
        assert cli.main([command, out]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:")
        assert "fields.npz" in lines[0] and "re-run its config.ini" in lines[0]
    if damage == "older-store":
        assert "lacks epsilon" in lines[0]


@pytest.mark.parametrize("old, new, field, key", [
    ("n = 50", "n = 1", "grid.cells_n", "[grid].n"),
    ("T = 0.1", "T = inf", "time.horizon_T", "[time].T"),
    ("epsilon = 0.01", "epsilon = 0", "physics.epsilon", "[physics].epsilon"),
    ("oracle_modes = 4", "oracle_modes = -3", "output.oracle_modes",
     "[output].oracle_modes"),
    ("snapshots = 0.0,0.033", "snapshots = 0.0,nan", "output.snapshots",
     "[output].snapshots"),
    ("[probes]", "[probes]\nlink_cells = -4", "probes.link_cells", "[probes].link_cells"),
    ("[probes]", "[probes]\ndissipation_omega_cells = nan",
     "probes.dissipation_omega_cells", "[probes].dissipation_omega_cells"),
    ("[probes]", "[probes]\ndissipation_omega_cells = -2",
     "probes.dissipation_omega_cells", "[probes].dissipation_omega_cells"),
    ("[probes]", "[probes]\ndissipation_omega_cells = 0",
     "probes.dissipation_omega_cells", "[probes].dissipation_omega_cells"),
    ("[probes]", "[probes]\nstress_delta = inf", "probes.stress_delta",
     "[probes].stress_delta"),
    ("[probes]", "[probes]\nstress_delta = 0.03", "probes.stress_delta",
     "[probes].stress_delta"),  # under two cells (dx = 0.02)
    ("[probes]", "[probes]\nvelocity_deltas = 0.02,-inf", "probes.velocity_deltas",
     "[probes].velocity_deltas"),
    ("[probes]", "[probes]\nvelocity_deltas = 0.02,-0.01", "probes.velocity_deltas",
     "[probes].velocity_deltas"),
    ("[probes]", "[probes]\nvelocity_deltas = 0", "probes.velocity_deltas",
     "[probes].velocity_deltas"),
])
def test_bad_output_and_probe_settings_exit_two_and_write_nothing(
        tmp_path, capsys, old, new, field, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(GOOD_CONFIG.replace(old, new))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"configuration error: {key} must be")
    assert field not in lines[0]  # the INI key, not the settings field
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--epsilon", "0", "physics.epsilon"),
    ("--resolution", "1", "grid.cells_n"),
    ("--stride", "-2", "output.output_stride"),
])
def test_bad_preset_flags_are_named(tmp_path, capsys, flag, value, field):
    out = tmp_path / "out"
    assert cli.main(["example1", flag, value, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"configuration error: {flag} must be")
    assert field not in lines[0]  # the flag, not the settings field
    assert not out.exists()


def test_an_oracle_that_cannot_run_is_refused_before_the_solve(
        tmp_path, capsys, monkeypatch):
    # example2 starts at 0 on the left end and 1 on the right, which no sine
    # expansion pins
    cfg = tmp_path / "ramp.ini"
    cfg.write_text(GOOD_CONFIG.replace("kind = single_mode", "kind = example2"))
    solves = []
    monkeypatch.setattr(fd_solver, "run", lambda *args: solves.append(args))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "boundary values differ (0 vs 1)" in lines[0]
    assert not out.exists() and not solves


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("edit, message", [
    (("amplitude = 0.4", "amplitude = -2.0"), "init.eta0 is negative at node"),
    (("amplitude = 0.4\nmode = 1\noffset = 1.0", "amplitude = 0.0\nmode = 1\noffset = 0.0"),
     "init.eta0 touches the obstacle"),
    (("kind = single_mode", "kind = example2"), "boundary values differ (0 vs 1)"),
], ids=["negative", "touching", "oracle-on-example2"])
def test_a_run_or_sweep_that_cannot_start_creates_nothing(tmp_path, capsys, monkeypatch,
                                                          command, edit, message):
    monkeypatch.setenv("OBSTRING_THREADS", "1")  # keep a sweep in-process
    cfg = tmp_path / "bad.ini"
    cfg.write_text(GOOD_CONFIG.replace(*edit))
    out = tmp_path / "out"
    sweep = ["--axis", "epsilon", "--values", "0.01,0.02"] if command == "sweep" else []
    assert cli.main([command, str(cfg), *sweep, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_tables_that_miss_the_grid_create_nothing(tabulated_dir, capsys, monkeypatch,
                                                  command):
    monkeypatch.setenv("OBSTRING_THREADS", "1")
    (tabulated_dir / "tab.ini").write_text(TABULATED_CONFIG.replace("n = 20", "n = 10"))
    sweep = ["--axis", "epsilon", "--values", "0.01,0.02"] if command == "sweep" else []
    assert cli.main([command, "tab.ini", *sweep, "--out", "out"]) == 2
    assert "table has length 21, expected cells_n + 1 = 11" in capsys.readouterr().err
    assert not (tabulated_dir / "out").exists()


def test_a_tabulated_dt_dx_sweep_creates_nothing(tabulated_dir, capsys, monkeypatch):
    # a dt_dx sweep regrids, and the tables fix the grid
    monkeypatch.setenv("OBSTRING_THREADS", "1")
    assert cli.main(["sweep", "tab.ini", "--axis", "dt_dx", "--values", "0.1,0.05",
                     "--out", "out"]) == 2
    assert "a dt_dx sweep regrids" in capsys.readouterr().err
    assert not (tabulated_dir / "out").exists()


# each velocity_jump setting that obstring probe would refuse
@pytest.mark.parametrize("probes, keys", [
    ("velocity_t1 = 0.05\nvelocity_x0 = 0.5\nvelocity_x1 = 0.4\nvelocity_deltas = 0.02",
     ("[probes].velocity_x0", "[probes].velocity_x1")),
    ("velocity_t1 = 0.05\nvelocity_x0 = -0.1\nvelocity_x1 = 0.4\nvelocity_deltas = 0.02",
     ("[probes].velocity_x0", "[probes].velocity_x1")),
    ("velocity_t1 = 0.05\nvelocity_x0 = 0.3\nvelocity_x1 = 1.5\nvelocity_deltas = 0.02",
     ("[probes].velocity_x1", "[grid].l")),
    ("velocity_t1 = 0.095\nvelocity_x0 = 0.3\nvelocity_x1 = 0.4\nvelocity_deltas = 0.02",
     ("[probes].velocity_t1", "[probes].velocity_deltas", "[time].T")),
    ("velocity_t1 = 0.01\nvelocity_x0 = 0.3\nvelocity_x1 = 0.4\nvelocity_deltas = 0.02",
     ("[probes].velocity_t1", "[probes].velocity_deltas")),
], ids=["x0-past-x1", "negative-x0", "x1-past-l", "window-past-T", "window-before-0"])
def test_velocity_jump_settings_the_probe_refuses_are_refused_at_run(
        tmp_path, capsys, probes, keys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(GOOD_CONFIG.replace("oracle_modes = 4", "oracle_modes = 0")
                   + probes + "\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"configuration error: {keys[0]} must be")
    assert all(key in lines[0] for key in keys)
    assert not out.exists()


def test_the_widest_velocity_jump_window_runs_and_probes(tmp_path, capsys):
    # [0, l] and [t1 - delta, t1 + delta] = [0, T]: the edges the run accepts
    cfg = tmp_path / "edge.ini"
    cfg.write_text(GOOD_CONFIG.replace("oracle_modes = 4", "oracle_modes = 0")
                   + "velocity_t1 = 0.05\nvelocity_x0 = 0.0\nvelocity_x1 = 1.0\n"
                   + "velocity_deltas = 0.05,0.02\n")
    out = str(tmp_path / "out")
    assert cli.main(["run", str(cfg), "--out", out]) == 0
    assert cli.main(["probe", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "probes.json")) as fh:
        assert json.load(fh)["velocity_jump"]["deltas"] == [0.05, 0.02]


@pytest.mark.parametrize("command, damage", [
    ("probe", "truncated"), ("probe", "list"), ("probe", "no-config-text"),
    ("render", "truncated"), ("render", "list"), ("render", "no-files"),
])
def test_a_damaged_manifest_is_refused_by_name(tmp_path, capsys, command, damage):
    out = _run_good_config(tmp_path, "npz")
    path = Path(out, "manifest.json")
    manifest = json.loads(path.read_text())
    path.write_text({
        "truncated": path.read_text()[:100],
        "list": "[1, 2]",
        "no-config-text": json.dumps({"files": {}}),
        "no-files": json.dumps({k: v for k, v in manifest.items() if k != "files"}),
    }[damage])
    before = {name: Path(out, name).read_bytes() for name in os.listdir(out)}
    capsys.readouterr()
    assert cli.main([command, out]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:")
    assert str(path) in lines[0]
    # refused before anything is written
    assert {name: Path(out, name).read_bytes() for name in os.listdir(out)} == before


def test_render_keeps_the_manifest_true(tmp_path, capsys):
    out = _run_good_config(tmp_path, "npz")
    manifest_path = os.path.join(out, "manifest.json")
    with open(manifest_path) as fh:
        before = json.load(fh)
    assert cli.main(["render", out]) == 0
    capsys.readouterr()
    with open(manifest_path) as fh:
        after = json.load(fh)
    assert {k: v for k, v in after.items() if k != "files"} == {
        k: v for k, v in before.items() if k != "files"}
    on_disk = set(os.listdir(out)) - {"manifest.json"}
    assert {"eta.png", "velocity.svg", "contact.png"} <= on_disk
    assert set(after["files"]) == on_disk
    for name, meta in after["files"].items():
        path = os.path.join(out, name)
        assert meta == {"sha256": cli._sha256(path), "bytes": os.path.getsize(path)}


def test_render_command_refreshes_heatmaps(run_dir, npz_run_dir, capsys):
    heatmaps = [f"{field}.{ext}" for field in ("eta", "velocity", "contact")
                for ext in ("png", "svg")]
    for out, _, _ in (run_dir, npz_run_dir):
        written = {name: Path(out, name).read_bytes() for name in heatmaps}
        for name in ("eta.png", "eta.svg", "contact.png"):
            os.remove(os.path.join(out, name))
        assert cli.main(["render", out]) == 0
        png = Path(out, "eta.png").read_bytes()
        assert png.startswith(b"\x89PNG\r\n\x1a\n")
        assert _svg_raster(Path(out, "eta.svg")) == png
        # the mask derived on read draws the run's own contact.png
        assert {name: Path(out, name).read_bytes() for name in heatmaps} == written
    # both stores hold the same contact mask
    csv_mask, npz_mask = (
        Path(out, "contact.png").read_bytes() for out in (run_dir[0], npz_run_dir[0])
    )
    assert csv_mask == npz_mask
    capsys.readouterr()


def test_render_rejects_non_finite_fields(tmp_path):
    bad = np.array([[1.0, 2.0], [np.nan, 3.0]])
    with pytest.raises(ValueError, match="non-finite"):
        cli.render_heatmap(bad, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                           "sequential", str(tmp_path / "x"))


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_on_success(tmp_path, capsys):
    cfg = tmp_path / "ok.ini"
    cfg.write_text(GOOD_CONFIG.replace("csv,heatmap,snapshots", "csv"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "run complete" in capsys.readouterr().out


def test_exit_two_on_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.ini"
    assert cli.main(["run", str(missing)]) == 2
    assert "configuration error" in capsys.readouterr().err

    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nl = 1.0\nn = -4\n")
    assert cli.main(["run", str(bad)]) == 2
    capsys.readouterr()


def _fresh_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports obstring from this source tree."""
    src = os.path.dirname(os.path.dirname(obstring.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_verbose_flag_before_or_after_the_subcommand(tmp_path, before):
    cfg = tmp_path / "ok.ini"
    cfg.write_text(GOOD_CONFIG.replace("csv,heatmap,snapshots", "none")
                   .replace("oracle_modes = 4", "oracle_modes = 0"))
    command = ["run", str(cfg), "--out", str(tmp_path / "out")]
    argv = ["-v", *command] if before else [*command, "--verbose"]
    done = _fresh_python("-m", "obstring.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert "INFO obstring.fd_solver: run: N=50 M=10" in done.stderr


def test_cli_import_loads_no_scipy():
    # the declared dependencies are numpy only
    done = _fresh_python("-c", "import sys, obstring.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_exit_three_on_blowup(tmp_path, capsys):
    cfg = tmp_path / "blow.ini"
    cfg.write_text(
        "[grid]\nl = 1.0\nn = 32\n[time]\nT = 10.0\nm = 20\n"
        "[physics]\nalpha = 0.0\nepsilon = 1e-320\n"
        "[init]\nkind = single_mode\namplitude = 0.0\noffset = 0.5\nv0 = -10\n"
        "[output]\nformats = csv\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numeric blowup" in capsys.readouterr().err


def test_probe_all_on_a_run_shorter_than_the_mollifier(tmp_path, capsys):
    # 11 stored frames against a 17-tap time kernel
    cfg = tmp_path / "all.ini"
    cfg.write_text(GOOD_CONFIG.replace("penetration,contact", "all"))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["probe", str(out)]) == 0
    with open(out / "probes.json") as fh:
        report = json.load(fh)
    assert np.isfinite(report["dissipation"]["total"])
    capsys.readouterr()


def test_probe_a_run_whose_time_step_is_far_below_its_cell(tmp_path, capsys):
    # dt = 1e-11 against dx = 0.25: the mollifier's time axis would hold 2e11
    # taps if it kept those that cannot reach the 101 stored frames
    cfg = tmp_path / "tiny_dt.ini"
    cfg.write_text("[grid]\nl = 1\nn = 4\n[time]\nT = 1e-9\nm = 100\n"
                   "[physics]\nepsilon = 0.01\n[init]\nkind = example1\n"
                   "[output]\nformats = npz\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["probe", str(out)]) == 0
    with open(out / "probes.json") as fh:
        assert np.isfinite(json.load(fh)["dissipation"]["total"])
    capsys.readouterr()


def test_one_interior_node_runs_through_every_command(tmp_path, monkeypatch, capsys):
    # cells_n = 2: the one interior node falls through the obstacle
    monkeypatch.setenv("OBSTRING_THREADS", "1")  # keep the sweeps in-process
    cfg = tmp_path / "edge.ini"
    cfg.write_text("[grid]\nl = 1.0\nn = 2\n[time]\nT = 0.1\nm = 10\n"
                   "[physics]\nalpha = 0.01\nepsilon = 0.01\n"
                   "[init]\nkind = single_mode\namplitude = 0.5\nmode = 1\n"
                   "offset = 0.6\nv0 = -30\n"
                   "[output]\nstride = 1\nformats = npz,csv,heatmap,snapshots\n"
                   "snapshots = 0.0,0.05\noracle_modes = 2\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert cli.series_from_run_dir(str(out)).fields["eta"][:, 1].min() < 0.0
    assert cli.main(["probe", str(out), "--probe", "all"]) == 0
    with open(out / "probes.json") as fh:
        json.load(fh, parse_constant=lambda token: pytest.fail(f"probes.json holds {token}"))
    assert cli.main(["render", str(out)]) == 0
    for axis, values in (("epsilon", "0.02,0.01"), ("modes", "1,2")):
        assert cli.main(["sweep", str(cfg), "--axis", axis, "--values", values,
                         "--out", str(tmp_path / f"sweep_{axis}")]) == 0
        assert "2/2 ok" in capsys.readouterr().out


def test_exit_four_on_probe_contract(tmp_path, capsys):
    cfg = tmp_path / "probe.ini"
    cfg.write_text(
        GOOD_CONFIG.replace("csv,heatmap,snapshots", "csv")
        .replace("oracle_modes = 4", "oracle_modes = 0")
        + "velocity_t1 = 0.05\nvelocity_x0 = 0.4\nvelocity_x1 = 0.6\n"
        + "velocity_deltas = 0.005\n"  # window holds one stored level (dt = 0.01)
    )
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["probe", str(out)]) == 4
    assert "probe contract" in capsys.readouterr().err
    # the report is still written: the config's selection, and why velocity_jump did not run
    with open(out / "probes.json") as fh:
        report = json.load(fh)
    assert set(report) == {"penetration", "contact", "velocity_jump"}
    assert np.isfinite(report["penetration"]["l1_max"])
    reason = report["velocity_jump"]["not_run"]
    assert "stride" in reason and "[0.045, 0.05]" in reason


# ---------------------------------------------------------------------------
# sweeps


def test_worker_count_honors_environment(monkeypatch):
    monkeypatch.setenv("OBSTRING_THREADS", "2")
    assert cli._worker_count(8) == 2
    assert cli._worker_count(1) == 1
    for bad in ("not-a-number", "0", "-1", "²"):
        monkeypatch.setenv("OBSTRING_THREADS", bad)
        with pytest.raises(ConfigurationError, match=f"OBSTRING_THREADS = '{bad}'"):
            cli._worker_count(1)
    monkeypatch.delenv("OBSTRING_THREADS")
    assert cli._worker_count(3) >= 1


def test_worker_count_caps_by_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("OBSTRING_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._worker_count(4) == 1


def test_sweep_refuses_a_malformed_thread_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OBSTRING_THREADS", "two")
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(GOOD_CONFIG)
    code = cli.main(["sweep", str(cfg), "--axis", "epsilon", "--values", "0.02,0.01",
                     "--out", str(tmp_path / "s")])
    assert code == 2
    assert "OBSTRING_THREADS = 'two'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "s")


def test_run_refuses_a_malformed_thread_cap_before_solving(tmp_path, monkeypatch,
                                                          capsys):
    # the cap sizes the CSV export workers, which start after the solve
    monkeypatch.setenv("OBSTRING_THREADS", "two")
    cfg = tmp_path / "run.ini"
    cfg.write_text(GOOD_CONFIG)
    monkeypatch.setattr(fd_solver, "run", None)  # never reached
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "OBSTRING_THREADS = 'two'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "r")


def test_sweep_runs_each_value(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OBSTRING_THREADS", "1")  # keep the test in-process
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        GOOD_CONFIG.replace("csv,heatmap,snapshots", "csv")
        .replace("oracle_modes = 4", "oracle_modes = 0")
    )
    out = tmp_path / "sweep"
    assert cli.main([
        "sweep", str(cfg), "--axis", "epsilon", "--values", "0.02,0.01", "--out",
        str(out),
    ]) == 0
    assert "2/2 ok" in capsys.readouterr().out

    with open(out / "sweep.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert header == ["value", "status", "l1_max", "depth_max", "energy_final",
                      "diff_linf_next", "diff_l2_next", "slope_l1_next",
                      "wall_seconds", "error"]
    assert len(rows) == 2
    assert all(r[1] == "ok" and r[-1] == '""' for r in rows)
    assert float(rows[0][0]) == 0.02  # descending order
    point = out / "run_00"
    assert os.path.exists(point / "manifest.json")
    assert os.path.exists(point / "fields.npz")
    assert not os.path.exists(point / "eta.csv")
    assert cli.main(["probe", str(point)]) == 0
    assert cli.main(["render", str(point)]) == 0
    capsys.readouterr()


def test_sweep_in_a_process_pool_reports_the_penetration_slope(tmp_path, monkeypatch,
                                                               capsys):
    monkeypatch.setenv("OBSTRING_THREADS", "2")  # two worker processes
    cfg = tmp_path / "drop.ini"
    cfg.write_text("[grid]\nl = 1.0\nn = 100\n[time]\nT = 0.06\nm = 60\n"
                   "[physics]\nalpha = 0.01\nepsilon = 0.02\n"
                   "[init]\nkind = example1\n[output]\nformats = csv\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(cfg), "--axis", "epsilon", "--values", "0.02,0.01",
                     "--out", str(out)]) == 0
    assert "2/2 ok" in capsys.readouterr().out
    # points store fields.npz only, so a daemonic pool worker never forks exporters
    assert not os.path.exists(out / "run_00" / "eta.csv")
    with open(out / "sweep.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    assert [float(row["value"]) for row in rows] == [0.02, 0.01]
    assert all(float(row["l1_max"]) > 0.0 for row in rows)  # both reach the obstacle
    assert np.isfinite(float(rows[0]["slope_l1_next"]))


def test_sweep_reports_why_a_point_failed(tmp_path, monkeypatch, capsys):
    # stress_delta = 0.02 is two cells at dx = 0.01, but one at the coarser
    # point's dx = 0.02, which ParsedConfig refuses
    monkeypatch.setenv("OBSTRING_THREADS", "1")  # keep the test in-process
    cfg = tmp_path / "drop.ini"
    cfg.write_text("[grid]\nl = 1.0\nn = 100\n[time]\nT = 0.04\nm = 4\n"
                   "[physics]\nalpha = 0.01\nepsilon = 0.02\n"
                   "[init]\nkind = example1\n[output]\nformats = npz\n"
                   "[probes]\nstress_delta = 0.02\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(cfg), "--axis", "dt_dx", "--values", "0.01,0.02",
                     "--out", str(out)]) == 0
    reason = ("probes.stress_delta must be 0 (unset) or at least two cells, "
              "2 [grid].l / [grid].n = 0.04, got 0.02")
    printed = capsys.readouterr().out
    assert f"  dt_dx=0.02: error:ConfigurationError: {reason}\n" in printed
    assert "  dt_dx=0.01: ok\n" in printed
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["value"], row["status"], row["error"]) for row in rows] == [
        ("0.02", "error:ConfigurationError", reason), ("0.01", "ok", "")]
    assert all(None not in row for row in rows)  # no field spilled past the header


@pytest.mark.parametrize("axis, good, bad", [
    ("modes", 2.0, 2.9),   # would run 2 modes twice
    ("modes", 2.0, 0.0),
    ("dt_dx", 0.02, 0.0),  # would divide by zero
])
def test_sweep_refuses_bad_axis_value(tmp_path, monkeypatch, axis, good, bad):
    monkeypatch.setenv("OBSTRING_THREADS", "1")  # keep the test in-process
    parsed = cli.parse_config(
        GOOD_CONFIG.replace("csv,heatmap,snapshots", "csv")
        .replace("oracle_modes = 4", "oracle_modes = 0")
    )
    rows = {row["value"]: row
            for row in cli.run_sweep(parsed, axis, [good, bad], str(tmp_path / "s"))}
    assert rows[good]["status"] == "ok"
    assert rows[bad]["status"] == "error:ConfigurationError"
    assert f" {bad:g} " in rows[bad]["error"]


def test_sweep_needs_two_values(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(GOOD_CONFIG)
    code = cli.main([
        "sweep", str(cfg), "--axis", "epsilon", "--values", "0.01",
        "--out", str(tmp_path / "s"),
    ])
    assert code == 2
    capsys.readouterr()


def test_sweep_rejects_malformed_values(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(GOOD_CONFIG)
    for values, message, bad in (("0.1,abc", "bad --values", "abc"),
                                 ("0.1,nan", "sweep values must be finite", "nan"),
                                 ("inf,0.1", "sweep values must be finite", "inf")):
        code = cli.main([
            "sweep", str(cfg), "--axis", "epsilon", "--values", values,
            "--out", str(tmp_path / "s"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err and bad in err
        assert not os.path.exists(tmp_path / "s")


def test_example_subcommand_smoke(tmp_path, capsys):
    out = tmp_path / "ex1"
    code = cli.main([
        "example1", "--out", str(out), "--resolution", "60",
        "--epsilon", "0.02", "--stride", "2",
    ])
    assert code == 0
    assert "example1 complete" in capsys.readouterr().out
    assert os.path.exists(out / "fields.npz")
    assert not os.path.exists(out / "eta.csv")
    series = cli.series_from_run_dir(str(out))
    cfg = cli._preset_parsed("example1", 60, 0.02, None, 2).sim
    assert cfg.output_stride == 2
    assert len(series.times) == 10  # steps 0,2,...,18 at m = 18


def test_presets_write_snapshots_only_when_asked(tmp_path, capsys):
    out = tmp_path / "ex1"
    assert cli.main(["example1", "--out", str(out), "--resolution", "200"]) == 0
    assert not list(out.glob("snapshot_t*.csv"))
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["snapshots"] == {}
    # config.ini keeps the preset's six instants, so asking for snapshots
    # writes one table per instant: the stored row of fields.npz nearest it
    text = (out / "config.ini").read_text()
    assert "formats = npz,heatmap\n" in text
    cfg = tmp_path / "snapshots.ini"
    cfg.write_text(text.replace("formats = npz,heatmap\n",
                                "formats = npz,heatmap,snapshots\n"))
    again = tmp_path / "again"
    assert cli.main(["run", str(cfg), "--out", str(again)]) == 0
    capsys.readouterr()
    with open(again / "manifest.json") as fh:
        snapshots = json.load(fh)["snapshots"]
    assert len(snapshots) == len(cli.EXAMPLE1_SNAPSHOTS) == 6
    assert len(list(again.glob("snapshot_t*.csv"))) == 6
    series = cli.series_from_run_dir(str(again))
    for wanted, stored in snapshots.items():
        (row,) = np.flatnonzero(series.times == stored)
        expected = np.column_stack([series.xs, *(
            _exported(series)[name][row] for name in ("eta", "velocity", "penalty_force"))])
        body = np.loadtxt(again / f"snapshot_t{wanted}.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(body, expected)


# ---------------------------------------------------------------------------
# fuzz over config text


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    cells_n=st.integers(2, 50),
    steps_m=st.integers(1, 40),
    length=log_uniform(1e-6, 1e6),
    horizon=log_uniform(1e-9, 10.0),
    alpha=st.one_of(st.just(0.0), log_uniform(1e-12, 1e8)),
    epsilon=log_uniform(1e-300, 1e300),
    init=st.one_of(
        st.sampled_from(["kind = example1", "kind = example2"]),
        # offset > 0: eta0 >= offset, so the string starts above the obstacle
        st.builds("kind = single_mode\namplitude = {}\noffset = {}\nv0 = {}".format,
                  st.floats(0.0, 1.0), st.floats(0.0, 2.0, exclude_min=True),
                  st.one_of(st.floats(-100.0, 0.0), log_uniform(1e-3, 1e6).map(abs)))),
    # "none" last: hypothesis draws the first entry most often, and none
    # stores nothing to probe
    formats=st.sampled_from(["npz", "csv", "heatmap", "snapshots",
                             "npz,csv,heatmap,snapshots", "none"]),
    # the boundary keys in shares of the rod and of the horizon, stress_delta
    # in cells.  Each range crosses a limit that run refuses (under two cells,
    # velocity_x1 > l, a window past 0 or T) just past the end that
    # hypothesis favours, so a quarter of the examples are refused and most
    # of the rest reach a stored run
    probes=st.fixed_dictionaries({
        "link_cells": st.integers(0, 10**6),
        "dissipation_omega_cells": log_uniform(1e-3, 1e6),
        "stress_delta": st.one_of(st.just(0.0), log_uniform(1.9, 1e3)),
        "velocity_t1": st.one_of(st.just(-1.0), st.floats(0.0, 1.05)),
        "velocity_x0": st.floats(0.0, 0.99),  # a share of velocity_x1: in [0, x1)
        "velocity_x1": st.floats(-0.5, 1.5),
        "velocity_deltas": st.lists(log_uniform(1e-6, 2.0), max_size=3),
    }),
)
def test_no_config_ends_in_a_traceback(tmp_path_factory, cells_n, steps_m, length,
                                       horizon, alpha, epsilon, init, formats, probes):
    # oracle_modes stays 0: a stiff config can keep the oracle's substeps going
    x1 = probes["velocity_x1"] * length  # <= 0 leaves the window unset
    probes = {**probes, "stress_delta": probes["stress_delta"] * length / cells_n,
              "velocity_t1": probes["velocity_t1"] * horizon,  # -1 stays unset
              "velocity_x0": probes["velocity_x0"] * max(x1, 0.0), "velocity_x1": x1,
              "velocity_deltas": ",".join(repr(d * horizon)
                                          for d in probes["velocity_deltas"])}
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "fuzz.ini"
    cfg.write_text(
        f"[grid]\nl = {length!r}\nn = {cells_n}\n[time]\nT = {horizon!r}\nm = {steps_m}\n"
        f"[physics]\nalpha = {alpha!r}\nepsilon = {epsilon!r}\n[init]\n{init}\n"
        f"[output]\nformats = {formats}\nsnapshots = 0,{horizon / 2!r}\n[probes]\n"
        + "".join(f"{key} = {value}\n" for key, value in probes.items()))
    out = str(work / "out")
    sweep = ["sweep", str(cfg), "--axis", "epsilon", "--values",
             f"{epsilon!r},{2 * epsilon!r}", "--out", str(work / "sweep")]
    # the property is the exit code; one worker keeps the sweep in this process
    with warnings.catch_warnings(), mock.patch.dict(os.environ, {"OBSTRING_THREADS": "1"}):
        warnings.simplefilter("ignore", RuntimeWarning)
        for argv in (["run", str(cfg), "--out", out], sweep, ["probe", out],
                     ["probe", out, "--probe", "all"], ["render", out]):
            code = cli.main(argv)
            assert code in (0, 2, 3, 4, 5), argv
            if argv[0] == "run":
                stored = code == 0 and formats != "none"
            elif argv == ["probe", out] and stored:
                # a probe that cannot run is reported beside the others
                assert code in (0, 4) and os.path.exists(os.path.join(out, "probes.json"))
            if code == 2 and argv[0] in ("run", "sweep"):  # refused: nothing made
                assert not os.path.exists(argv[-1]), argv

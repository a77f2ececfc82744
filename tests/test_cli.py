"""Config text, run artifacts, probes, sweeps, rendering, and exit codes."""

import json
import os

import numpy as np
import pytest

from obstring import cli, fd_solver
from obstring.core import ConfigurationError, validate_config

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


# ---------------------------------------------------------------------------
# config parsing


def test_parse_round_trips_presets():
    for which in ("example1", "example2"):
        parsed = cli._preset_parsed(which, 200, 0.002, None, 0)
        assert cli.parse_config(cli.emit_config(parsed)) == parsed


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


def test_emit_rejects_tabulated_tables(tmp_path):
    table = tmp_path / "eta0.csv"
    table.write_text("\n".join(["1.0"] * 11))
    text = (
        "[grid]\nl=1\nn=10\n[time]\nT=0.1\nm=5\n[physics]\nepsilon=0.01\n"
        f"[init]\nkind = tabulated\neta0_file = {table}\n"
    )
    parsed = cli.parse_config(text)
    assert parsed.sim.init.eta0_table == (1.0,) * 11
    with pytest.raises(ConfigurationError, match="tabulated"):
        cli.emit_config(parsed)


# ---------------------------------------------------------------------------
# run artifacts


def test_run_writes_expected_files(run_dir):
    out, _, manifest = run_dir
    expected = {
        "config.ini", "energy.csv", "eta.csv", "velocity.csv", "penalty.csv",
        "contact.csv", "oracle_eta.csv", "manifest.json",
        "eta.ppm", "eta.svg", "velocity.ppm", "velocity.svg",
        "contact.ppm", "contact.svg",
        "snapshot_t0.000000.csv", "snapshot_t0.033000.csv",
    }
    assert expected <= set(os.listdir(out))
    assert expected <= set(manifest.files)
    assert {"solve", "write", "render", "oracle"} <= set(manifest.phases)


def test_manifest_checksums_match(run_dir):
    out, _, _ = run_dir
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    for name, meta in manifest["files"].items():
        if name == "manifest.json":
            continue  # hashed before the manifest itself was written
        path = os.path.join(out, name)
        assert os.path.getsize(path) == meta["bytes"]
        assert cli._sha256(path) == meta["sha256"]


def test_csv_round_trip_is_bitwise(run_dir):
    out, parsed, _ = run_dir
    series, _ = fd_solver.run(parsed.sim)
    stored = cli.series_from_run_dir(out)
    assert np.array_equal(stored.times, series.times)
    assert np.array_equal(stored.xs, series.xs)
    for name in ("eta", "velocity", "penalty_force"):
        assert np.array_equal(stored.fields[name], series.fields[name])


_TIMES = np.array([0.0, 0.5])
_XS = np.array([0.0, 0.5, 1.0])
_FIELD = np.array([[-0.0, 1e-300, 3.0], [0.1, -2.5, 1.0 / 3.0]])


@pytest.mark.parametrize(
    "labels,columns,fmt,expected",
    [
        (  # a field: stored frames x nodes under "t" and the node positions
            ["t", *_XS], [_TIMES, _FIELD], "%.17g",
            "t,0,0.5,1\n"
            "0,-0,1e-300,3\n"
            "0.5,0.10000000000000001,-2.5,0.33333333333333331\n",
        ),
        (  # the contact mask
            ["t", *_XS], [_TIMES, np.array([[False, True, True], [True, False, False]])],
            "%d",
            "t,0,0,1\n"
            "0,0,1,1\n"
            "0,1,0,0\n",
        ),
        (  # an energy ledger
            ["time", "kinetic", "residual"],
            [np.array([0.0, 0.1]), np.array([0.25, 0.25]), np.array([0.0, -1e-17])],
            "%.17g",
            "time,kinetic,residual\n"
            "0,0.25,0\n"
            "0.10000000000000001,0.25,-1.0000000000000001e-17\n",
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
    ids=["field", "mask", "energy", "snapshot"],
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
    _, _, mask = cli._read_field_csv(os.path.join(out, "contact.csv"))
    assert set(np.unique(mask)) <= {0.0, 1.0}


def test_oracle_field_tracks_solver(run_dir):
    out, parsed, _ = run_dir
    times, xs, oracle_eta = cli._read_field_csv(os.path.join(out, "oracle_eta.csv"))
    stored = cli.series_from_run_dir(out)
    assert oracle_eta.shape == stored.fields["eta"].shape
    # same dynamics pre-contact: loose agreement is enough here
    assert np.max(np.abs(oracle_eta - stored.fields["eta"])) < 0.05


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


def test_render_command_refreshes_heatmaps(run_dir, capsys):
    out, _, _ = run_dir
    for name in ("eta.ppm", "eta.svg"):
        os.remove(os.path.join(out, name))
    assert cli.main(["render", out]) == 0
    assert os.path.exists(os.path.join(out, "eta.ppm"))
    assert os.path.exists(os.path.join(out, "eta.svg"))
    with open(os.path.join(out, "eta.ppm"), "rb") as fh:
        assert fh.read(2) == b"P6"
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


def test_exit_four_on_probe_contract(tmp_path, capsys):
    cfg = tmp_path / "probe.ini"
    cfg.write_text(
        GOOD_CONFIG.replace("csv,heatmap,snapshots", "csv")
        .replace("oracle_modes = 4", "oracle_modes = 0")
        + "velocity_t1 = 0.05\nvelocity_x0 = 0.4\nvelocity_x1 = 0.6\n"
        + "velocity_deltas = 0.2\n"  # window leaves the stored range
    )
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["probe", str(out)]) == 4
    assert "probe contract" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps


def test_worker_count_honors_environment(monkeypatch):
    monkeypatch.setenv("OBSTRING_THREADS", "2")
    assert cli._worker_count(8) == 2
    assert cli._worker_count(1) == 1
    monkeypatch.setenv("OBSTRING_THREADS", "not-a-number")
    assert cli._worker_count(1) == 1
    monkeypatch.delenv("OBSTRING_THREADS")
    assert cli._worker_count(3) >= 1


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
                      "wall_seconds"]
    assert len(rows) == 2
    assert all(r[1] == "ok" for r in rows)
    assert float(rows[0][0]) == 0.02  # descending order
    assert os.path.exists(out / "run_00" / "manifest.json")


def test_sweep_needs_two_values(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(GOOD_CONFIG)
    code = cli.main([
        "sweep", str(cfg), "--axis", "epsilon", "--values", "0.01",
        "--out", str(tmp_path / "s"),
    ])
    assert code == 2
    capsys.readouterr()


def test_example_subcommand_smoke(tmp_path, capsys):
    out = tmp_path / "ex1"
    code = cli.main([
        "example1", "--out", str(out), "--resolution", "60",
        "--epsilon", "0.02", "--stride", "2",
    ])
    assert code == 0
    assert "example1 complete" in capsys.readouterr().out
    assert os.path.exists(out / "eta.csv")
    series = cli.series_from_run_dir(str(out))
    cfg = validate_config(cli._preset_parsed("example1", 60, 0.02, None, 2).sim)
    assert cfg.output_stride == 2
    assert len(series.times) == 10  # steps 0,2,...,18 at m = 18

"""Every layer the benchmark tracer hooks by name still exists, and the
per-run call counts its layer rows read stay pinned."""

from collections import Counter
from pathlib import Path

import numpy

from obstring import cli, core, diagnostics, fd_solver, galerkin, penalty_force, trisolve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> dict:
    # executed from its source text, so nothing is written next to it
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    return tracing


def test_every_tracer_hook_resolves():
    modules = (cli, core, diagnostics, fd_solver, galerkin, trisolve)
    targets = _tracing()["layer_targets"](modules, with_gradient=True)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))]
    assert not missing


def _counter(monkeypatch):
    """(calls, counted): counted(owner, attr) makes calls[attr] count owner.attr.

    Like the benchmark's tracer, it wraps every obstring module that binds
    the same object: replace_everywhere finds them, and each is patched
    again through monkeypatch, which restores it."""
    calls = Counter()
    tracing = _tracing()

    def counted(owner, attr):
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return inner(*args, **kwargs)

        undo = tracing["replace_everywhere"](owner, attr, wrapper)
        holders = [holder for holder, _, _ in undo]
        tracing["restore"](undo)
        for holder in holders:
            monkeypatch.setattr(holder, attr, wrapper)

    return calls, counted


def test_one_run_makes_the_pinned_layer_calls(monkeypatch):
    # one force per level, one ledger row per step, one solve per implicit step
    calls, counted = _counter(monkeypatch)
    counted(fd_solver, "penalty_force")
    counted(diagnostics.EnergyLedger, "append_step")
    counted(trisolve.ThomasFactorization, "solve")
    cfg = core.example1_config(resolution=100)  # M = 30 steps through contact
    series, ledger = fd_solver.run(cfg)
    steps_m = cfg.time.steps_m
    assert calls == {"penalty_force": steps_m + 1, "append_step": steps_m,
                     "solve": steps_m - 1}
    assert series.penalty_force.max() > 0.0
    assert len(ledger.rows) == steps_m + 1
    monkeypatch.undo()
    assert fd_solver.penalty_force is core.penalty_force is penalty_force


def test_one_drop_extracts_contact_once_for_its_heatmaps(monkeypatch, tmp_path):
    # the benchmark's drop operation: example1 with default formats, whose
    # heatmap draws the contact mask; a store-only run draws nothing.  Only
    # the solver's loop forms a penalty force: the mask needs none.
    calls, counted = _counter(monkeypatch)
    counted(diagnostics, "extract_contact")
    counted(fd_solver, "penalty_force")
    out = tmp_path / "drop"
    argv = ["example1", "--out", str(out), "--resolution", "100", "--epsilon", "0.002"]
    assert cli.main(argv) == 0
    text = (out / "config.ini").read_text()
    steps_m = cli.parse_config(text).sim.time.steps_m
    assert calls == {"extract_contact": 1, "penalty_force": steps_m + 1}
    assert "formats = npz,heatmap\n" in text
    parsed = cli.parse_config(text.replace("formats = npz,heatmap\n", "formats = npz\n"))
    cli.execute_run(parsed, str(tmp_path / "store_only"))
    assert calls == {"extract_contact": 1, "penalty_force": 2 * (steps_m + 1)}


# the benchmark's ramp_probe run at its tiny size: example2 at 1/1000 with
# every probe the [probes] keys switch on
RAMP_PROBE_CONFIG = """\
[grid]
l = 1.0
n = 1000
[time]
T = 0.5
m = 500
[physics]
alpha = 0.01
epsilon = 0.002
[init]
kind = example2
[output]
formats = npz
[probes]
enabled = all
stress_delta = 0.01
velocity_t1 = 0.2
velocity_x0 = 0.3
velocity_x1 = 0.4
velocity_deltas = 0.02,0.01,0.005
"""


def test_one_probe_makes_the_pinned_layer_calls(monkeypatch, tmp_path):
    # one call per weak form over the 5 bumps; their union window holds
    # frames 0-489 (late_right ends at 0.98 T), which the walk takes in
    # blocks of FRAME_BLOCK (16 of 32), forming 7 x-derivatives on each (2
    # for momentum, 2 for energy_local, 3 for renorm), and 2 more for
    # stress_jump; one contact extraction for contact and one for
    # stress_jump; one penalty force, derived from the stored state on read
    run_dir = str(tmp_path / "ramp")
    cli.execute_run(cli.parse_config(RAMP_PROBE_CONFIG), run_dir)
    calls, counted = _counter(monkeypatch)
    counted(numpy, "gradient")
    counted(diagnostics, "extract_contact")
    counted(fd_solver, "penalty_force")
    for name in ("weak_momentum_residual", "local_energy_residual",
                 "renormalized_residual"):
        counted(diagnostics, name)
    results = cli.run_probes(run_dir)
    assert set(results) == set(cli.DEFAULT_PROBES + cli.BOUNDARY_PROBES)
    blocks = -(-490 // diagnostics.FRAME_BLOCK)
    assert calls == {"gradient": 7 * blocks + 2, "extract_contact": 2, "penalty_force": 1,
                     "weak_momentum_residual": 1, "local_energy_residual": 1,
                     "renormalized_residual": 1}

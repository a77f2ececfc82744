"""Every layer the benchmark tracer hooks by name still exists, and the
per-run call counts its layer rows read stay pinned."""

from collections import Counter
from pathlib import Path

from obstring import cli, core, diagnostics, fd_solver, galerkin, trisolve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_hook_resolves():
    # executed from its source text, so nothing is written next to it
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    modules = (cli, core, diagnostics, fd_solver, galerkin, trisolve)
    targets = tracing["layer_targets"](modules, with_gradient=True)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))]
    assert not missing


def test_one_run_makes_the_pinned_layer_calls(monkeypatch):
    # one force per level, one ledger row per step, one solve per implicit step
    calls = Counter()

    def counted(owner, attr):
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(fd_solver, "penalty_force")
    counted(diagnostics.EnergyLedger, "append_step")
    counted(trisolve.ThomasFactorization, "solve")
    cfg = core.example1_config(resolution=100)  # M = 30 steps through contact
    series, ledger = fd_solver.run(cfg)
    steps_m = cfg.time.steps_m
    assert series.fields["penalty_force"].max() > 0.0
    assert calls == {"penalty_force": steps_m + 1, "append_step": steps_m,
                     "solve": steps_m - 1}
    assert len(ledger) == steps_m + 1

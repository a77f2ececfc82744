"""Every layer the benchmark tracer hooks by name still exists."""

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

"""Span tracing of obstring's layers, installed from outside the package.

The tracer replaces public functions and methods of the package (and
``numpy.gradient`` when asked) with wrappers that record one span per call:
name, start, end, parent span and operation id, plus an optional work
amount (bytes, node-steps).  Spans stay in memory until the run ends.  A
wrapper records nothing while no operation is open, so correctness checks
that call the same functions between operations leave no spans.

Every obstring module that imported a target by name gets the wrapper too,
because ``from .core import validate_config`` binds a second name to the
same function object.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict


def replace_everywhere(owner, attr: str, new) -> list[tuple[object, str, object]]:
    """Set owner.attr to new, and the same name in every obstring module that
    holds the same object; returns the undo list for restore()."""
    old = getattr(owner, attr)
    holders = [owner]
    if isinstance(owner, type(sys)):
        holders += [
            mod for key, mod in list(sys.modules.items())
            if mod is not owner and key.split(".")[0] == "obstring"
            and getattr(mod, attr, None) is old
        ]
    for holder in holders:
        setattr(holder, attr, new)
    return [(holder, attr, old) for holder in holders]


def restore(undo: list) -> None:
    while undo:
        holder, attr, old = undo.pop()
        setattr(holder, attr, old)


class Tracer:
    """Records spans and call counts of the callables it wraps."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, operation id, work]
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (operation id, name) -> calls
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, work=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.op, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                span[5] = float(work(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[(tracer.op, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        """targets: (owner, attr, span name, kind, work) with kind span|count."""
        for owner, attr, name, kind, work in targets:
            fn = getattr(owner, attr)
            if kind == "count":
                wrapper = self._count_wrapper(name, fn)
            else:
                wrapper = self._span_wrapper(name, fn, work)
            self._undo += replace_everywhere(owner, attr, wrapper)

    def uninstall(self) -> None:
        restore(self._undo)

    # -- reduction ----------------------------------------------------------

    def per_op(self) -> dict[str, dict[str, dict[str, float]]]:
        """op id -> span name -> {calls, total_s, self_s, work, durations}.

        Self time is a span's duration minus the time its direct children
        cover; calls are sequential in one thread, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0,
                     "durations": []}))
        for index, (name, start, end, parent, op, work) in enumerate(self.spans):
            row = table[op][name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            row["work"] += work
            row["durations"].append(end - start)
        for (op, name), calls in self.counts.items():
            table[op][name]["calls"] += calls
        return table

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op", "work"],
                "spans": self.spans,
                "counts": [[op, name, n] for (op, name), n in self.counts.items()],
            }, fh)
            fh.write("\n")


def layer_targets(obstring_modules, with_gradient: bool):
    """The layer boundaries the benchmark times, as Tracer.install targets."""
    cli, core, diagnostics, fd_solver, galerkin, trisolve = obstring_modules

    def node_steps(args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        return (cfg.grid.cells_n + 1) * cfg.time.steps_m

    def bytes_read(args, kwargs, result):
        run_dir = args[0] if args else kwargs["run_dir"]
        return sum(
            os.path.getsize(os.path.join(run_dir, f))
            for f in ("eta.csv", "velocity.csv", "penalty.csv")
        )

    def bytes_written(args, kwargs, result):
        return sum(entry["bytes"] for entry in result.files.values())

    targets = [
        (core, "validate_config", "core.validate_config", "span", None),
        (trisolve.ThomasFactorization, "__init__", "trisolve.factor", "span", None),
        (trisolve.ThomasFactorization, "solve", "trisolve.solve", "span", None),
        (fd_solver, "run", "fd_solver.run", "span", node_steps),
        (fd_solver, "penalty_force", "fd_solver.penalty_force", "span", None),
        (diagnostics.EnergyLedger, "append_step", "diagnostics.ledger_append", "span", None),
        (galerkin, "integrate", "galerkin.integrate", "span", None),
        (galerkin.SmoothCutoff, "__call__", "galerkin.penalty_evals", "count", None),
        (cli, "execute_run", "cli.execute_run", "span", bytes_written),
        (cli, "series_from_run_dir", "cli.series_from_run_dir", "span", bytes_read),
        (cli, "render_heatmap", "cli.render_heatmap", "span", None),
        (cli, "run_probes", "cli.run_probes", "span", None),
    ]
    for fn in ("penetration_metrics", "extract_contact", "weak_momentum_residual",
               "local_energy_residual", "renormalized_residual",
               "dissipation_estimate", "stress_jump_probe", "velocity_jump_probe"):
        targets.append((diagnostics, fn, f"diagnostics.{fn}", "span", None))
    if with_gradient:
        import numpy

        targets.append((numpy, "gradient", "numpy.gradient", "span", None))
    return targets


WEAK_FORM = ("diagnostics.weak_momentum_residual", "diagnostics.local_energy_residual",
             "diagnostics.renormalized_residual")
BOUNDARY = ("diagnostics.stress_jump_probe", "diagnostics.velocity_jump_probe")
MB = 1e6


def layer_metrics(op_table: dict[str, dict]) -> dict[str, float]:
    """Per-layer figures of one traced operation (see perfbench/README.md)."""

    def get(name, key):
        return op_table[name][key] if name in op_table else 0

    solve_calls = get("trisolve.solve", "calls")
    run_s = get("fd_solver.run", "total_s")
    integrate = get("galerkin.integrate", "durations") or []
    return {
        "trisolve.solve_calls": solve_calls,
        "trisolve.solve_s": get("trisolve.solve", "total_s"),
        "trisolve.solve_us_per_call":
            get("trisolve.solve", "total_s") / solve_calls * 1e6 if solve_calls else 0.0,
        "trisolve.factor_s": get("trisolve.factor", "total_s"),
        "fd_solver.run_s": run_s,
        "fd_solver.self_s": get("fd_solver.run", "self_s"),
        "fd_solver.node_steps_per_s": get("fd_solver.run", "work") / run_s if run_s else 0.0,
        "fd_solver.penalty_force_calls": get("fd_solver.penalty_force", "calls"),
        "fd_solver.penalty_force_s": get("fd_solver.penalty_force", "total_s"),
        "diagnostics.ledger_append_calls": get("diagnostics.ledger_append", "calls"),
        "diagnostics.ledger_append_s": get("diagnostics.ledger_append", "total_s"),
        "diagnostics.extract_contact_calls": get("diagnostics.extract_contact", "calls"),
        "diagnostics.extract_contact_s": get("diagnostics.extract_contact", "total_s"),
        "diagnostics.weak_form_calls": sum(get(n, "calls") for n in WEAK_FORM),
        "diagnostics.weak_form_s": sum(get(n, "total_s") for n in WEAK_FORM),
        "diagnostics.gradient_calls": get("numpy.gradient", "calls"),
        "diagnostics.dissipation_s": get("diagnostics.dissipation_estimate", "total_s"),
        "diagnostics.boundary_probes_s": sum(get(n, "total_s") for n in BOUNDARY),
        "cli.write_s": get("cli.execute_run", "self_s"),
        "cli.write_mb": get("cli.execute_run", "work") / MB,
        "cli.read_s": get("cli.series_from_run_dir", "total_s"),
        "cli.read_mb": get("cli.series_from_run_dir", "work") / MB,
        "cli.render_s": get("cli.render_heatmap", "total_s"),
        "cli.probe_self_s": get("cli.run_probes", "self_s"),
        "galerkin.integrate_s.free": integrate[0] if len(integrate) > 0 else 0.0,
        "galerkin.integrate_s.contact": integrate[1] if len(integrate) > 1 else 0.0,
        "galerkin.penalty_evals": get("galerkin.penalty_evals", "calls"),
    }


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}

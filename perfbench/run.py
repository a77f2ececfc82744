"""End-to-end and per-layer benchmark of obstring.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload drop --seed 0 --seconds 30 --trace 0

The benchmark imports the package from ``src/`` of the checkout; nothing is
installed.  Each workload runs the public CLI (``obstring.cli.main``) inside
this one driver process.  After the set-up, operations repeat until
``--seconds`` have passed and at least MIN_OPS have run; each operation's
output is checked before the next starts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced and
then traced operations and prints the per-layer metrics, the tracing
overhead among them.  The last line of standard output is one JSON object;
the environment, every sample and the spans go to ``perfbench/out/``.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, so that the driver's busy threads never exceed nproc on a
# small machine.  Set before numpy is first imported.
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("drop", "ramp_probe", "oracle")
MIN_OPS = 3          # untraced operations per --trace 0 run
MIN_TRACE_OPS = 2    # untraced and traced operations each per --trace 1 run
MB = 1e6

# Full-size inputs (the paper's reference runs) and tiny ones for the
# harness self-check.  Only the free oracle config depends on the seed.
SIZES = {
    "full": {"drop_res": 5000, "drop_eps": 5e-4, "drop_contact_t": 0.024,
             "ramp_res": 5000, "ramp_eps": 5e-4,
             "oracle_res": 1000, "free_modes": 64, "contact_modes": 24,
             "setups": 4, "ramp_setups": 2},
    "tiny": {"drop_res": 2000, "drop_eps": 5e-4, "drop_contact_t": 0.024,
             "ramp_res": 1000, "ramp_eps": 2e-3,
             "oracle_res": 500, "free_modes": 8, "contact_modes": 8,
             "setups": 2, "ramp_setups": 2},
}


def free_params(seed: int) -> dict:
    """Seed -> the contact-free oracle datum; seed 0 is criterion 4's.

    Amplitude and mode change the answer but not the work: the string
    stays above the obstacle (offset 1 > amplitude), so the spectral
    penalty quadrature is skipped on every substep.  v0 stays 0 because a
    uniform initial velocity excites every odd mode and switches that
    quadrature on.
    """
    if seed == 0:
        return {"amplitude": 0.5, "mode": 1, "v0": 0.0}
    rng = random.Random(seed)
    return {"amplitude": round(rng.uniform(0.4, 0.6), 6),
            "mode": rng.choice((1, 2)), "v0": 0.0}


def config_text(res: int, horizon: float, alpha: float, eps: float,
                init: str, output: str, probes: str = "") -> str:
    return (
        f"[grid]\nl = 1.0\nn = {res}\n"
        f"[time]\nT = {horizon}\nm = {int(round(horizon * res))}\n"
        f"[physics]\nalpha = {alpha}\nepsilon = {eps}\n"
        f"[init]\n{init}\n[output]\n{output}\n{probes}"
    )


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    return _read(os.path.join(ROOT, ".git", *head[5:].split("/")))


def environment(seed: int) -> dict:
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level, kind = _read(f"{base}/{index}/level"), _read(f"{base}/{index}/type")
        if level and kind:
            caches[f"L{level}-{kind}"] = _read(f"{base}/{index}/size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "git_sha": git_sha(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Larger of the driver's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * 1024 / MB


def _tree_state(path: str) -> dict[str, tuple[int, int]]:
    state = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            st = os.stat(full)
            state[full] = (st.st_size, st.st_mtime_ns)
    return state


def bytes_written(before: dict, after: dict) -> int:
    return sum(size for path, (size, mtime) in after.items()
               if before.get(path) != (size, mtime))


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _finite_numbers(payload) -> bool:
    if isinstance(payload, dict):
        return all(_finite_numbers(v) for v in payload.values())
    if isinstance(payload, list):
        return all(_finite_numbers(v) for v in payload)
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return math.isfinite(payload)
    return True


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One user-facing command (or pair of commands) and its output check."""

    def __init__(self, mods, work: str, size: dict, seed: int):
        self.cli, self.core, self.diagnostics = mods[0], mods[1], mods[2]
        self.fd_solver, self.galerkin = mods[3], mods[4]
        self.work = work
        self.size = size
        self.seed = seed
        self.setup_count = 0
        self.ops_done = 0
        self.figures: dict[str, float] = {}  # set by check(), kept per operation
        self.captured: list = []  # return values of captures(), for check()

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def cli_main(self, argv: list[str]) -> int:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return self.cli.main(argv)

    def configs(self) -> dict[str, str]:
        return {}

    def setup(self) -> None:
        """Build and validate every config; subclasses add stored runs."""
        for name, text in self.configs().items():
            with open(self.path(f"{name}.ini"), "w") as fh:
                fh.write(text)
            parsed = self.cli.parse_config(text)
            self.core.validate_config(parsed.sim)
        self.setup_count += 1

    def operation(self, k: int) -> str:
        raise NotImplementedError

    def check(self, k: int, out: str) -> list[str]:
        raise NotImplementedError

    def captures(self) -> list[tuple[object, str]]:
        """Functions whose return values the check needs (not timed)."""
        return []


class Drop(Workload):
    """obstring example1 at the reference size, default outputs."""

    def setup(self) -> None:
        sim = self.core.example1_config(self.size["drop_res"], self.size["drop_eps"])
        self.core.validate_config(sim)
        self.setup_count += 1

    def operation(self, k: int) -> str:
        out = self.path("op")
        self.rc = self.cli_main([
            "example1", "--out", out,
            "--resolution", str(self.size["drop_res"]),
            "--epsilon", repr(self.size["drop_eps"]),
        ])
        return out

    def check(self, k: int, out: str) -> list[str]:
        import numpy as np

        if self.rc != 0:
            return [f"exit code {self.rc}"]
        failures = []
        with open(os.path.join(out, "manifest.json")) as fh:
            files = json.load(fh)["files"]
        hashes = {}
        for name, entry in files.items():
            if name == "manifest.json":
                continue
            hashes[name] = sha256(os.path.join(out, name))
            if hashes[name] != entry["sha256"]:
                failures.append(f"{name}: sha256 differs from manifest")
        if k > 0:
            # the first operation's output was checked in full below; the
            # same inputs must give byte-identical files
            if hashes != self.reference_hashes:
                failures.append("output differs from the first operation's")
            return failures
        self.reference_hashes = hashes

        series = self.cli.series_from_run_dir(out)
        dt = 1.0 / self.size["drop_res"]
        t_hit = self.diagnostics.extract_contact(series).first_contact_time
        if t_hit is None or abs(t_hit - self.size["drop_contact_t"]) > dt:
            failures.append(f"first contact at {t_hit}")
        eta = series.fields["eta"]
        asym = float(np.max(np.abs(eta - eta[:, ::-1])))
        if not asym <= 1e-10:
            failures.append(f"mirror asymmetry {asym:.3e}")
        # K+E may not rise between stored frames (acceptance criterion 6)
        ledger = np.loadtxt(os.path.join(out, "energy.csv"), delimiter=",", skiprows=1)
        ke = ledger[:, 1] + ledger[:, 2]
        stored = np.rint(series.times / dt).astype(int)
        rise = float(np.max(np.diff(ke[stored])))
        if not rise <= 1e-8 * ke[0]:
            failures.append(f"K+E rises by {rise:.3e} between stored frames")
        return failures


class RampProbe(Workload):
    """obstring probe, all 8 probes, on a stored example2 run."""

    def configs(self) -> dict[str, str]:
        probes = (
            "[probes]\nenabled = all\nstress_delta = 0.01\n"
            "velocity_t1 = 0.2\nvelocity_x0 = 0.3\nvelocity_x1 = 0.4\n"
            "velocity_deltas = 0.02,0.01,0.005\n"
        )
        return {"ramp": config_text(self.size["ramp_res"], 0.5, 0.01,
                                    self.size["ramp_eps"], "kind = example2",
                                    "formats = csv", probes)}

    def setup(self) -> None:
        super().setup()
        run_dir = self.path(f"ramp_run_{self.setup_count}")
        rc = self.cli_main(["run", self.path("ramp.ini"), "--out", run_dir])
        if rc != 0:
            raise RuntimeError(f"obstring run exited with {rc}")
        if self.setup_count == 1:
            self.run_dir = run_dir
        else:
            shutil.rmtree(run_dir)

    def operation(self, k: int) -> str:
        self.rc = self.cli_main(["probe", self.run_dir])
        return self.run_dir

    def check(self, k: int, out: str) -> list[str]:
        if self.rc != 0:
            return [f"exit code {self.rc}"]
        with open(os.path.join(out, "probes.json")) as fh:
            probes = json.load(fh)
        failures = []
        expected = {"penetration", "contact", "momentum", "energy_local", "renorm",
                    "dissipation", "stress_jump", "velocity_jump"}
        if set(probes) != expected:
            failures.append(f"probes {sorted(probes)}")
        if not _finite_numbers(probes):
            failures.append("non-finite probe value")
        worst = min((r["slack"] / r["scale"] for r in probes.get("renorm", {}).values()),
                    default=-math.inf)
        if not worst >= -1e-3:
            failures.append(f"renorm slack/scale {worst:.3e}")
        components = probes.get("contact", {}).get("max_components", 0)
        if components < 2:
            failures.append(f"{components} simultaneous contact components")
        return failures


class Oracle(Workload):
    """obstring run with the spectral oracle: contact-free and in contact."""

    def configs(self) -> dict[str, str]:
        res = self.size["oracle_res"]
        free = free_params(self.seed)
        init = (f"kind = single_mode\namplitude = {free['amplitude']}\n"
                f"mode = {free['mode']}\noffset = 1.0\nv0 = {free['v0']}")
        return {
            "free": config_text(res, 0.3, 1.0, 0.002, init,
                                f"formats = none\noracle_modes = {self.size['free_modes']}"),
            "contact": config_text(res, 0.3, 0.01, 0.002, "kind = example1",
                                   f"formats = none\noracle_modes = {self.size['contact_modes']}"),
        }

    def captures(self):
        return [(self.fd_solver, "run"), (self.galerkin, "integrate")]

    def operation(self, k: int) -> str:
        out = self.path("op")
        self.captured.clear()
        self.rc = [self.cli_main(["run", self.path(f"{name}.ini"), "--out",
                                  os.path.join(out, name)])
                   for name in ("free", "contact")]
        return out

    def check(self, k: int, out: str) -> list[str]:
        import numpy as np

        if self.rc != [0, 0]:
            return [f"exit codes {self.rc}"]
        runs = {name: (self.captured[2 * i][0], self.captured[2 * i + 1])
                for i, name in enumerate(("free", "contact"))}
        failures = []
        gaps = {}
        for name, (grid, spectral) in runs.items():
            if not np.allclose(grid.times, spectral.times, rtol=0.0, atol=1e-12):
                failures.append(f"{name}: grid and spectral frames differ")
                continue
            gaps[name] = float(np.max(np.abs(grid.fields["eta"] - spectral.fields["eta"])))
        if not gaps.get("free", math.inf) <= 1e-3:
            failures.append(f"free gap {gaps.get('free')}")
        grid, spectral = runs["contact"]
        depth = self.diagnostics.penetration_metrics(grid)["depth_max"]
        if not (math.isfinite(gaps.get("contact", math.nan))
                and np.all(np.isfinite(spectral.fields["eta"]))
                and depth > 0.0 and float(spectral.fields["eta"].min()) < 0.0):
            failures.append(f"contact run: gap {gaps.get('contact')}, depth {depth}")
        self.figures["galerkin.oracle_gap_linf"] = gaps.get("free", math.nan)
        return failures


CLASSES = {"drop": Drop, "ramp_probe": RampProbe, "oracle": Oracle}


# ---------------------------------------------------------------------------
# measurement


def capture_results(targets, results: list) -> list:
    """Append the return values of the target functions to results, for the
    output checks; nothing is timed.  Returns the undo list."""
    from tracing import replace_everywhere

    undo = []
    for owner, attr in targets:
        fn = getattr(owner, attr)

        def wrapper(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            results.append(result)
            return result

        undo += replace_everywhere(owner, attr, wrapper)
    return undo


def import_obstring():
    if not os.path.isfile(os.path.join(SRC, "obstring", "__init__.py")):
        raise FileNotFoundError(f"no obstring sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from obstring import cli, core, diagnostics, fd_solver, galerkin, trisolve

    return cli, core, diagnostics, fd_solver, galerkin, trisolve


def timed_import() -> float:
    """Wall time of a fresh interpreter importing the CLI, as a user pays it."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import obstring.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def run_ops(wl: Workload, tracer, op_prefix: str, seconds: float, min_ops: int,
            samples: list, failures: list, after_op=lambda: False) -> None:
    """Operations until `seconds` have passed, min_ops have run and
    after_op(), called after each operation, has no more work to do."""
    start = time.perf_counter()
    k = len(samples)
    pending = True
    while (len(samples) - k < min_ops or time.perf_counter() - start < seconds
           or pending):
        index = wl.ops_done
        wl.ops_done += 1
        scan = _tree_state(wl.work)
        if tracer is not None:
            tracer.op = f"{op_prefix}{index}"
        t0 = time.perf_counter()
        out = wl.operation(index)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        written = bytes_written(scan, _tree_state(wl.work))
        wl.figures = {}
        problems = wl.check(index, out)
        samples.append({"op": index, "seconds": elapsed, "bytes": written,
                        "traced": tracer is not None, "failures": problems,
                        "figures": wl.figures})
        failures.extend(f"op {index}: {p}" for p in problems)
        if out != getattr(wl, "run_dir", None):
            shutil.rmtree(out, ignore_errors=True)
        pending = after_op()


def traced_run(wl: Workload, mods, tracer, seconds: float, samples: list,
               failures: list, record: dict) -> dict:
    """Untraced then traced operations; returns the per-layer metrics."""
    from tracing import layer_metrics, layer_targets, median_metrics

    name = record["workload"]
    plain: list[dict] = []
    run_ops(wl, None, "", seconds / 2, MIN_TRACE_OPS, plain, failures)
    plain_s = statistics.median(s["seconds"] for s in plain)
    traced: list[dict] = []
    tracer.install(layer_targets(mods, with_gradient=(name == "ramp_probe")))
    try:
        run_ops(wl, tracer, "op", seconds / 2, MIN_TRACE_OPS, traced, failures)
    finally:
        tracer.uninstall()
    samples += plain + traced

    table = tracer.per_op()
    rows = []
    for s in traced:
        row = layer_metrics(table[f"op{s['op']}"])
        # validate_config is a set-up cost: count the set-up's calls too
        for key, field in (("calls", "core.validate_config_calls"),
                           ("total_s", "core.validate_config_s")):
            row[field] = sum(table[op]["core.validate_config"][key]
                             for op in ("setup", f"op{s['op']}")
                             if "core.validate_config" in table[op])
        row["galerkin.oracle_gap_linf"] = s["figures"].get("galerkin.oracle_gap_linf", 0.0)
        rows.append(row)
    per_layer = median_metrics(rows)
    per_layer["trace.untraced_task_s"] = plain_s
    per_layer["trace.overhead_s"] = statistics.median(s["seconds"] for s in traced) - plain_s
    spans_path = os.path.join(OUT, f"{name}-seed{record['seed']}-spans.json")
    tracer.dump(spans_path)
    record["spans_file"] = os.path.relpath(spans_path, ROOT)
    return {key: (per_layer[key], unit) for key, unit in UNITS.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    from tracing import Tracer, layer_targets, restore

    mods = import_obstring()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = CLASSES[name](mods, work, SIZES[size], seed)
    uncapture = capture_results(wl.captures(), wl.captured)
    tracer = Tracer() if trace else None
    samples: list[dict] = []
    failures: list[str] = []
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "env": environment(seed)}
    try:
        setups = record["setups"] = []

        def setup() -> None:
            t0 = time.perf_counter()
            import_s = timed_import()
            wl.setup()
            setups.append({"seconds": time.perf_counter() - t0, "import_s": import_s})

        if trace:
            tracer.install(layer_targets(mods, with_gradient=False))
            tracer.op = "setup"
            setup()
            tracer.op = None
            tracer.uninstall()
            metrics = traced_run(wl, mods, tracer, seconds, samples, failures, record)
        else:
            # Repeat set-ups between operations so that their median, like
            # the operations', spans the whole run rather than its start.
            repeats = SIZES[size]["ramp_setups" if name == "ramp_probe" else "setups"]
            setup()

            def more_setups() -> bool:
                if len(setups) < repeats:
                    setup()
                return len(setups) < repeats

            run_ops(wl, None, "", seconds, MIN_OPS, samples, failures, more_setups)
            times = [s["seconds"] for s in samples]
            metrics = {
                "task_s": (statistics.median(times), "s"),
                "setup_s": (statistics.median(s["seconds"] for s in setups), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "output_mb": (statistics.median(s["bytes"] for s in samples) / MB, "MB"),
                "ok_rate": (1.0 - len([s for s in samples if s["failures"]]) / len(samples),
                            "ratio"),
            }
    finally:
        restore(uncapture)
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len([s for s in samples if s["failures"]]),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(samples=samples, failures=failures, result=result)
    return result, record


UNITS = {
    "trisolve.solve_calls": "count", "trisolve.solve_s": "s",
    "trisolve.solve_us_per_call": "us", "trisolve.factor_s": "s",
    "fd_solver.run_s": "s", "fd_solver.self_s": "s",
    "fd_solver.node_steps_per_s": "1/s", "fd_solver.penalty_force_calls": "count",
    "fd_solver.penalty_force_s": "s",
    "diagnostics.ledger_append_calls": "count", "diagnostics.ledger_append_s": "s",
    "diagnostics.extract_contact_calls": "count", "diagnostics.extract_contact_s": "s",
    "diagnostics.weak_form_calls": "count", "diagnostics.weak_form_s": "s",
    "diagnostics.gradient_calls": "count", "diagnostics.dissipation_s": "s",
    "diagnostics.boundary_probes_s": "s",
    "cli.write_s": "s", "cli.write_mb": "MB", "cli.read_s": "s", "cli.read_mb": "MB",
    "cli.render_s": "s", "cli.probe_self_s": "s",
    "galerkin.integrate_s.free": "s", "galerkin.integrate_s.contact": "s",
    "galerkin.penalty_evals": "count", "galerkin.oracle_gap_linf": "1",
    "core.validate_config_calls": "count", "core.validate_config_s": "s",
    "trace.untraced_task_s": "s", "trace.overhead_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        import_obstring()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for failure in record["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

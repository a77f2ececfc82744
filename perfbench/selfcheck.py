"""Fast self-check of the benchmark harness at tiny problem sizes.

    python3 perfbench/selfcheck.py

Checks the tracer's self-time arithmetic on a synthetic call tree, then runs
every workload once untraced and once traced at tiny sizes and checks that
each result has the shape BENCHMARK.json declares, that every output check
passed, and that the exact call counts match the problem sizes.  Takes
1-2 minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def check_tracer() -> None:
    fake = types.ModuleType("fake")

    def leaf(dt):
        time.sleep(dt)

    def outer():
        time.sleep(0.02)
        fake.leaf(0.01)
        fake.leaf(0.01)

    fake.leaf, fake.outer = leaf, outer
    tracer = Tracer()
    tracer.install([(fake, "outer", "outer", "span", None),
                    (fake, "leaf", "leaf", "count", None),
                    (fake, "leaf", "leaf_span", "span", None)])
    fake.outer()  # no operation open: nothing recorded
    assert not tracer.spans and not tracer.counts
    tracer.op = "op0"
    fake.outer()
    tracer.op = None
    tracer.uninstall()
    assert fake.leaf is leaf and fake.outer is outer
    table = tracer.per_op()["op0"]
    assert table["outer"]["calls"] == 1 and table["leaf_span"]["calls"] == 2
    assert table["leaf"]["calls"] == 2
    children = table["leaf_span"]["total_s"]
    assert math.isclose(table["outer"]["self_s"], table["outer"]["total_s"] - children,
                        rel_tol=1e-9)
    assert 0.015 <= table["outer"]["self_s"] < table["outer"]["total_s"]


def check_workloads() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"][1:] == ["perfbench/run.py"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    tiny = run.SIZES["tiny"]
    expect_counts = {
        "drop": {"trisolve.solve_calls": int(round(0.3 * tiny["drop_res"])) - 1,
                 "diagnostics.extract_contact_calls": 1, "galerkin.penalty_evals": 0},
        "ramp_probe": {"diagnostics.gradient_calls": 37, "diagnostics.weak_form_calls": 15,
                       "diagnostics.extract_contact_calls": 2, "trisolve.solve_calls": 0},
        "oracle": {"trisolve.solve_calls": 2 * (int(round(0.3 * tiny["oracle_res"])) - 1)},
    }
    for name in run.WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, record = run.run_workload(name, seed=trace, seconds=0.0,
                                              trace=bool(trace), size="tiny")
            assert result["correct"], (name, trace, record["failures"])
            assert result["failed"] == 0 and result["attempted"] >= 2
            metrics = result["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == declared[trace], name
            assert all(math.isfinite(v["value"]) for v in metrics.values()), name
            if trace:
                for key, want in expect_counts[name].items():
                    assert metrics[key]["value"] == want, (name, key, metrics[key])
            else:
                assert all(metrics[k]["value"] > 0 for k in declared[0]), name
            print(f"  {name} trace={trace}: ok in {time.perf_counter() - t0:.1f} s")


def main() -> int:
    check_tracer()
    print("tracer: ok")
    check_workloads()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

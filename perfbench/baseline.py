"""Record the benchmark's results at one seed as a committed baseline.

    python3 perfbench/baseline.py [--seed 0]

Runs every workload of BENCHMARK.json untraced and traced, each in its own
process as the benchmark command would, and writes the result lines with
the environment and the operation samples to perfbench/baseline_seed<n>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    runs = {}
    env = None
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = spec["command"] + [
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            with open(os.path.join(HERE, "out",
                                   f"{workload}-seed{args.seed}-trace{trace}.json")) as fh:
                record = json.load(fh)
            env = record["env"]
            runs[f"{workload}/trace{trace}"] = {
                "result": json.loads(proc.stdout.strip().splitlines()[-1]),
                "setups_s": [s["seconds"] for s in record["setups"]],
                "ops_s": [s["seconds"] for s in record["samples"]],
            }
            print(f"{workload} trace={trace}: done", flush=True)
    path = os.path.join(HERE, f"baseline_seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "run_seconds": spec["run_seconds"], "runs": runs},
                  fh, indent=1)
        fh.write("\n")
    print(f"baseline written to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

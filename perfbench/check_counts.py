"""Self-test: two traced runs with the same seed must report identical work counts.

    python3 perfbench/check_counts.py [--seed N] [workload ...]

Runs `run.py --trace 1` twice per workload (all of them by default) and
compares every per-layer metric whose unit is a count or a ratio of counts.
Times are expected to differ and are not compared.  Exit status 1 on any
difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

EXACT_UNITS = ("count", "ratio")


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: traced run exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in EXACT_UNITS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differing = sorted(k for k in first if first[k] != second.get(k))
        if differing or first.keys() != second.keys():
            status = 1
            for name in differing:
                print(f"FAIL {workload} {name}: {first[name]} != {second.get(name)}")
        else:
            shown = ", ".join(f"{k}={v}" for k, v in first.items() if v and "ratio" not in k)
            print(f"ok   {workload}: {len(first)} counts identical ({shown})")
    return status


if __name__ == "__main__":
    sys.exit(main())

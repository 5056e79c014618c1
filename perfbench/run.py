"""germpack benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 28 --trace 0

Workloads: census, two_block, local_sweep, germ_arith (see README.md here).
With --trace 0 it prints the end-to-end metrics of a timed run; with
--trace 1 the per-layer metrics of one traced round, plus the tracing
overhead against the same round untraced.  Times other than the per-layer
ones are scaled to a reference host speed (speed.py); the unscaled figures
are printed beside them.  Every measurement runs in a fresh interpreter
(worker.py), one operation at a time.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
Exit status 0 when every output checked out, 1 when any did not or a
measurement failed, 2 when the checkout has no germpack sources.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("census", "two_block", "local_sweep", "germ_arith")
SETUP_REPEATS = 11
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from spans import LAYER_METRICS  # noqa: E402


class MeasurementError(RuntimeError):
    pass


def _worker(args, mode: str, deadline: float, extra=()) -> tuple[float, str]:
    """Run worker.py in a fresh interpreter; return its wall time and stdout."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds), *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise MeasurementError("out of time before the " + mode + " run")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise MeasurementError(f"{mode} run did not finish in time") from None
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise MeasurementError(f"{mode} run exited with {done.returncode}")
    return wall, done.stdout


def _report(args, mode: str, deadline: float, extra=()) -> dict:
    _, stdout = _worker(args, mode, deadline, extra)
    return json.loads(stdout.strip().splitlines()[-1])


def _percentile(values: list[float], percent: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    setup_runs = [_report(args, "setup", deadline) for _ in range(SETUP_REPEATS)]
    setups = [run["setup_s"] for run in setup_runs]
    report = _report(args, "timed", deadline)
    ops = report["ops"]
    good = [op for op in ops if op[3]]
    latencies = [op[0] for op in good] or [math.nan]
    verifies = [op[1] for op in good if op[1] is not None] or [math.nan]
    percent = report["tail_percentile"]
    tail, beyond = _percentile(latencies, percent)
    failed = len(ops) - len(good)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(good) / sum(op[0] for op in ops), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "verify_p50_ms": (statistics.median(verifies) * 1e3, "ms"),
        "certified_frac": (sum(1 for op in ops if op[2]) / len(ops), "fraction"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
    }
    walls = [op[4] for op in ops]
    notes = [
        f"op_tail_ms is p{percent} with {beyond} of {len(latencies)} samples beyond it",
        f"failed_frac = {failed / len(ops):.4f} ({failed}/{len(ops)})",
        f"{report['rounds']} rounds in {report['wall_s']:.2f} s; "
        f"setup runs {', '.join(f'{s:.3f}' for s in setups)} s",
        f"unscaled wall time: {len(good) / sum(walls):.4g} ops/s, "
        f"op p50 {statistics.median(walls) * 1e3:.4g} ms, "
        f"setup {statistics.median(run['wall_s'] for run in setup_runs):.4g} s, "
        f"host at {sum(walls) / sum(op[0] for op in ops):.2f}x the reference time",
    ]
    return metrics, {"attempted": len(ops), "failed": failed}, notes


def _per_layer(args, deadline: float) -> tuple[dict, dict, list[str]]:
    plain = _report(args, "fixed", deadline)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
    traced = _report(args, "traced", deadline, ("--spans", str(spans_file)))
    if len(plain["ops"]) != len(traced["ops"]):
        raise MeasurementError("traced and untraced runs did different work")
    layers = traced["layers"]
    metrics = {name: (layers[name], unit) for name, unit in LAYER_METRICS.items()}
    overhead = sum(op[0] for op in traced["ops"]) - sum(op[0] for op in plain["ops"])
    metrics["trace.overhead_s"] = (overhead, "s")
    ops = plain["ops"] + traced["ops"]
    failed = sum(1 for op in ops if not op[3])
    notes = [
        f"untraced {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s of wall time, "
        f"overhead {overhead:.3f} s scaled; spans in {spans_file.relative_to(ROOT)}",
    ]
    return metrics, {"attempted": len(ops), "failed": failed}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "germpack" / "__init__.py").is_file():
        print(f"no germpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = _per_layer if args.trace else _end_to_end
    try:
        metrics, counts, notes = measure(args, deadline)
    except (MeasurementError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<12} {name:<40} {value:>14.6g} {unit}")
    for note in notes:
        print(f"{args.workload:<12} {note}")
    correct = counts["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

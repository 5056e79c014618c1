"""One benchmark process: import germpack from the checkout, build inputs, run.

Started by run.py in a fresh interpreter for every measurement, so nothing
is warm.  Modes:

  setup   import germpack and generate the inputs, timed from inside and
          scaled by the speed loop run just before and after, then exit
  timed   closed loop, one operation at a time, as many whole rounds
          as fit in --seconds (at least one)
  fixed   exactly one round, untraced
  traced  exactly one round with every public function wrapped in a span,
          under one root span per operation; the spans go to --spans and
          the layer metrics to stdout

Prints one JSON object on stdout: per-operation samples, wall time, peak
memory and, when traced, the layer metrics.  Each operation's time is given
both as wall time and scaled to the reference host speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TIMER_S = 0.1  # host speed sample interval during operations


def _import_germpack():
    sys.path.insert(0, str(SRC))
    import germpack

    if Path(germpack.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"germpack imported from {germpack.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="file the traced mode writes its spans to")
    args = parser.parse_args(argv)

    from speed import REFERENCE_S, Probe, time_loop

    before = statistics.median(time_loop() for _ in range(3))
    began = time.perf_counter()
    _import_germpack()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    setup_s = time.perf_counter() - began
    if args.mode == "setup":
        after = statistics.median(time_loop() for _ in range(3))
        scale = 2 * REFERENCE_S / (before + after)
        print(json.dumps({"setup_s": setup_s * scale, "wall_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    # Timer samples only in the timed mode: in a traced round they would
    # land inside spans.
    probe = Probe(TIMER_S if args.mode == "timed" else 0.0)
    done = []  # (began, wall s, time timer samples took out of it, outcome)
    errors = 0
    rounds = 0
    probe.start()
    probe.sample()
    start = time.perf_counter()
    for items in workload.rounds():
        for item in items:
            ticks = probe.ticks_s
            began = time.perf_counter()
            try:
                with tracer.span("bench.op") if tracer else nullcontext():
                    outcome = workload.run(item)
            except Exception:
                errors += 1
                if errors <= 3:
                    traceback.print_exc()
                outcome = workloads.Outcome(None, False, False)
            wall = time.perf_counter() - began
            done.append((began, wall, probe.ticks_s - ticks, outcome))
            probe.sample()
        rounds += 1
        if rounds == 1:
            # Peak memory over set-up and one round: each further round
            # raises it a little, and how many rounds fit depends on the
            # host's speed.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Another round only if one of average length still fits in the time.
        elapsed = time.perf_counter() - start
        if args.mode != "timed" or elapsed * (rounds + 1) / rounds > args.seconds:
            break
    wall = time.perf_counter() - start
    probe.stop()

    ops = []
    for began, op_wall, spent, outcome in done:
        scale = probe.scale(began, began + op_wall)
        verify = outcome.verify_s * scale if outcome.verify_s is not None else None
        ops.append([(op_wall - spent) * scale, verify, outcome.certified, outcome.ok, op_wall])
    report = {
        "ops": ops,  # [scaled s, scaled verify s or None, certified, ok, wall s]
        "rounds": rounds,
        "wall_s": wall,
        "peak_rss_kb": peak_rss_kb,
        "tail_percentile": workload.tail_percentile,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    json.dump(report, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

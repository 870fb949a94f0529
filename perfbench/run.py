"""keyhop benchmark: one process, one workload, closed loop.

    python3 perfbench/run.py --workload {analyze,honest,wire} --seed N \
        --seconds S --trace {0,1}

Run from any directory of a keyhop checkout; the package is imported from
its src/ tree. One client issues one operation at a time and waits for it;
the benchmark starts no threads or processes of its own (the wire plane's
node threads are keyhop's).

--trace 0 times the user-visible entry points (keyhop.cli.main for analyze
and wire, protocol.run for honest sweeps), checks every output, and reports
the end-to-end metrics. --trace 1 runs the layer-by-layer pass in layers.py
and reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. NOTES.md explains the workloads and the metric mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("analyze", "honest", "wire"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "keyhop", "__init__.py")):
        print(f"perfbench: no keyhop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # Set-up is the package import, which a process pays once, plus input
    # generation, which is repeated and taken at its median. It is wall
    # time: the import is mostly file reads and page faults, which the
    # reference-speed kernel (refclock.py) does not follow. Between two sets
    # of runs, the scaled set-up median rose by 18% while the wall-time
    # median of the same runs fell by 17%.
    t0 = time.perf_counter()
    import keyhop.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import common
    import workloads

    make_inputs, timed_loop = workloads.WORKLOADS[args.workload]
    gen = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inp = make_inputs(args.seed)
        gen.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(gen)

    os.makedirs(OUT_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_ROOT)
    tally = common.Tally()
    lines: list[str] = []
    try:
        if args.trace:
            import layers

            spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = layers.traced_run(args.workload, args.seed, args.seconds, work, tally, lines, spans_path)
        else:
            parts = timed_loop(inp, args.seconds, work, tally, lines)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_mb, "MiB"),
                **{name: (value, "ms") for name, value in parts.items()},
            }
            lines += [
                f"setup_s {setup_s:.6f} s (wall time; the import plus the median of"
                f" {SETUP_REPS} input generations)",
                f"peak_rss_mb {rss_mb:.3f} MiB",
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines.append(
        f"failed_share {tally.failed / max(tally.attempted, 1):.6f} ratio"
        f" ({tally.failed}/{tally.attempted} operations)"
    )
    lines += [f"failure cause {cause}: {count}" for cause, count in sorted(tally.causes.items())]
    print("\n".join(lines))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

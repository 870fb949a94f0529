"""The three end-to-end workloads, untraced.

Each function loops over operations until `seconds` have elapsed (always
finishing the pass it is in), checks every output into the tally, appends
the metrics' human-readable lines under their own names and units, and
returns the gated values part1_ms, part2_ms and part3_ms (see NOTES.md).
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import threading
import time

import common
from keyhop.protocol import run
from refclock import ReferenceClock


def p25(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_analyze(inp, seconds: float, work: str, tally: common.Tally, lines: list[str]) -> dict:
    """Passes of `keyhop analyze --grid`, the five audit commands and the
    three oracle cross-checks.

    Grid and audit commands are scaled to the reference speed by the kernel
    samples before, during and after each. Samples between commands alone
    did not do: the host's speed changes within the three seconds of the
    grid command. The oracle is numpy-bound, and the object-heavy kernel
    does not follow its speed: over ten runs its scaled time spread by
    11-12%, its wall time by 6-9%. So its wall time is reported."""
    exp = inp.expected
    clock = ReferenceClock()
    raw: dict[str, list[float]] = {"grid": [], "audit": [], "oracle": []}
    ref: dict[str, list[float]] = {"grid": [], "audit": [], "oracle": []}

    def command(part: str, argv: list[str]) -> tuple[int, str]:
        if part == "oracle":
            dt, code, stdout = common.cli_call(argv)
            raw[part][-1] += dt
            ref[part][-1] += dt
            return code, stdout
        first = len(clock.samples) - 1
        with clock.sampling_during() as spent:
            dt, code, stdout = common.cli_call(argv)
        clock.sample()
        raw[part][-1] += dt - spent[0]
        ref[part][-1] += (dt - spent[0]) * clock.factor(first)
        return code, stdout

    deadline = time.perf_counter() + seconds
    while True:
        for part in raw:
            raw[part].append(0.0)
            ref[part].append(0.0)
        out = tempfile.mkdtemp(dir=work)
        code, _ = command("grid", ["analyze", "--grid", "--output-dir", out])
        cause = "exit" if code != 0 else None
        if cause is None:
            with open(os.path.join(out, "collusion_grid.csv"), encoding="utf-8") as fh:
                cause = None if fh.read() == exp["grid_csv"] else "grid_csv"
        tally.check(cause)

        for key, layout, _ in common.AUDIT_LAYOUTS:
            code, stdout = command("audit", ["analyze", *layout, "--output-dir", out])
            if code != 0:
                cause = "exit"
            elif common.minimal_lines(stdout) != exp["minimal"][key]:
                cause = "minimal_sets"
            elif common.sha256_file(os.path.join(out, "coalitions.csv")) != exp["coalitions_sha256"][key]:
                cause = "coalitions_csv"
            else:
                cause = None
            tally.check(cause)

        for (_, layout, _), coal in zip(common.ORACLE_LAYOUTS, inp.oracle_coalitions):
            argv = ["analyze", *layout, "--coalition", coal, "--oracle", "--output-dir", out]
            code, stdout = command("oracle", argv)
            agree = "(agree)" in stdout and "DISAGREE" not in stdout
            tally.check("exit" if code != 0 else None if agree else "oracle_disagree")
        shutil.rmtree(out)
        if time.perf_counter() >= deadline:
            break

    npass = len(raw["grid"])
    what = {"grid": "the --grid command", "audit": "5 audit commands", "oracle": "3 oracle commands"}
    for part in raw:
        how = "wall time" if part == "oracle" else f"reference speed; raw {statistics.median(raw[part]):.6f} s"
        lines.append(
            f"{part}_s {statistics.median(ref[part]):.6f} s ({how}; median of {npass} passes of {what[part]})"
        )
    return {
        "part1_ms": statistics.median(ref["grid"]) * 1e3,
        "part2_ms": statistics.median(ref["audit"]) * 1e3,
        "part3_ms": statistics.median(ref["oracle"]) * 1e3,
    }


def run_honest(runs, seconds: float, work: str, tally: common.Tally, lines: list[str]) -> dict:
    """Sweeps of protocol.run over the seeded layout mix, at n=16 then at
    n=65536; only the topology build and the run are timed."""
    clock = ReferenceClock()
    sizes = (common.N_SMALL, common.N_LARGE)
    raw: dict[int, list[float]] = {n: [] for n in sizes}
    ref: dict[int, list[float]] = {n: [] for n in sizes}
    deadline = time.perf_counter() + seconds
    while True:
        for n in sizes:
            busy = 0.0
            for item in runs:
                rng = random.Random(item.seed)
                t0 = time.perf_counter()
                topo = common.build(item.spec)[0]
                trace = run(topo, item.variant, n, rng)
                busy += time.perf_counter() - t0
                tally.check(None if common.fold_ok(trace) else "nonce_fold")
            raw[n].append(busy / len(runs))
            ref[n].append(clock.scale(busy) / len(runs))
        if time.perf_counter() >= deadline:
            break

    small, large = (statistics.median(ref[n]) for n in sizes)
    both = statistics.median(a + b for a, b in zip(*ref.values())) / 2
    npass = len(ref[common.N_SMALL])
    for name, n, value in (("honest16_per_s", sizes[0], small), ("honest64k_per_s", sizes[1], large)):
        lines.append(
            f"{name} {1 / value:.3f} runs/s (reference speed; raw {1 / statistics.median(raw[n]):.3f}"
            f" runs/s; median of {npass} sweeps of {len(runs)} layouts)"
        )
    return {"part1_ms": small * 1e3, "part2_ms": large * 1e3, "part3_ms": both * 1e3}


def run_wire(inp, seconds: float, work: str, tally: common.Tally, lines: list[str]) -> dict:
    """`keyhop wire` on chain m=10: honest runs with a tampered run after
    every HONEST_PER_TAMPER of them."""
    runs, ports = inp
    clock = ReferenceClock()
    baseline = threading.active_count()
    honest: list[float] = []  # ms at reference speed
    raw: dict[bool, list[float]] = {False: [], True: []}  # tampered? -> wall ms
    stalls = timeouts = leftover = 0
    deadline = time.perf_counter() + seconds
    for item in runs:
        out = tempfile.mkdtemp(dir=work)
        cpu = time.process_time()
        dt, code, stdout = common.cli_call(common.wire_argv(item, ports.take(), out))
        tampered = item.tamper is not None
        ref_ms = clock.scale(dt) * 1e3  # its kernel sample also opens the next run's bracket
        raw[tampered].append(dt * 1e3)
        if not tampered:
            honest.append(ref_ms)
        leftover += common.wire_cool_down(baseline, cpu)
        expect = None if tampered else common.engine_key_hex(item.seed)
        ok = tally.check(common.wire_failure(item, code, stdout, out, expect))
        shutil.rmtree(out)
        stalls += tampered and dt >= common.WIRE_TIMEOUT
        timeouts += stdout.count("ABORT TIMEOUT")
        if not ok:
            lines.append(f"failed wire run seed={item.seed} tamper={item.tamper}: {stdout.strip()}")
        if time.perf_counter() >= deadline and len(honest) >= 100 and len(raw[True]) >= 4:
            break

    aborted = raw[True]
    for name, stat in (("wire_ms_p50", statistics.median), ("wire_ms_p90", p90), ("wire_ms_mean", statistics.fmean)):
        lines.append(
            f"{name} {stat(honest):.4f} ms (reference speed; raw {stat(raw[False]):.4f} ms;"
            f" {len(honest)} honest runs)"
        )
    for name, stat in (("abort_ms_p25", p25), ("abort_ms_p50", statistics.median)):
        lines.append(f"{name} {stat(aborted):.4f} ms (wall time; {len(aborted)} tampered runs)")
    lines += [
        f"abort stalls (waited out the {common.WIRE_TIMEOUT:g} s timeout) {stalls}/{len(aborted)} tampered runs",
        f"node TIMEOUT causes {timeouts}/{len(aborted)} tampered runs",
        f"threads left over after a run, summed {leftover}/{len(honest) + len(aborted)} runs",
    ]
    # Tampered runs in the fast mode are short and mostly waiting on thread
    # start-up and sockets: over ten runs their p25 spread by 6% as wall
    # time and by 8% scaled to the reference speed, so it is not scaled.
    return {
        "part1_ms": statistics.median(honest),
        "part2_ms": statistics.fmean(honest),
        "part3_ms": p25(aborted),
    }


# workload name -> (input generator taking the seed, timed loop)
WORKLOADS = {
    "analyze": (common.analyze_inputs, run_analyze),
    "honest": (common.honest_inputs, run_honest),
    "wire": (common.wire_inputs, run_wire),
}

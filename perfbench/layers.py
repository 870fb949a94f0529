"""The traced run: keyhop's public functions called one layer at a time.

Each pass calls the functions of topology, keyplan, protocol, bits,
analysis, ratemodel and wire directly, in the order the `keyhop` commands
call them, with a span around every call. Nothing inside keyhop is patched:
the spans sit at the layer boundaries, in this file. The pass also runs a
few commands through keyhop.cli.main untraced, so the command wall time
minus its layer spans gives the CLI's own time, and the honest sweep once
through protocol.run untraced, so the tracing overhead is measured against
the untraced run.

Per-pass values are reduced to medians across passes, except the wire abort
counts, which are summed together with their base (wire.abort_runs).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager
from itertools import combinations

import common

from keyhop import analysis, ratemodel, wire
from keyhop.bits import BitString
from keyhop.keyplan import Variant, plan_keys
from keyhop.topology import build_chain, build_ring6
from keyhop.protocol import compile_schedule, execute, make_store, run, trace_json, trace_text

CODEC_REPS = 200
CALL_REPS = 50
ORCHESTRATE_REPS = 5
CLI_WIRE_REPS = 10
ABORT_RUNS = 12
WIRE_LAYOUTS = (
    ("ring6", ("ring6", Variant.RING_V2)),
    ("chain10", ("chain", 10)),
    ("mp333", ("multipath", (3, 3, 3), 1)),
)
_SEND_RE = re.compile(r": SEND M\d+ -> \S+ \((\d+)B\)$")

# per-layer metric -> unit; every traced run reports all of them
UNITS = {
    "topology.build_us": "us",
    "keyplan.plan_us": "us",
    "keyplan.keys": "count",
    "protocol.compile_us": "us",
    "protocol.store_us.n16": "us",
    "protocol.store_us.n65536": "us",
    "protocol.execute_us.n16": "us",
    "protocol.execute_us.n65536": "us",
    "protocol.hops": "count",
    "protocol.xor_terms": "count",
    "bits.evaluate_us.n16": "us",
    "bits.evaluate_us.n65536": "us",
    "protocol.export_us.n16": "us",
    "protocol.export_us.n65536": "us",
    "protocol.run_ms.ring6_n16": "ms",
    "protocol.execute_ms.chain6_n65536": "ms",
    "analysis.view_us": "us",
    "analysis.decide_us": "us",
    **{f"analysis.minimal_ms.{key}": "ms" for key, _ in common.MINIMAL_LAYOUTS},
    "analysis.grid_ms": "ms",
    "analysis.subsets": "count",
    "analysis.subsets_pruned": "count",
    "analysis.minimal_sets": "count",
    "analysis.minimal_share": "ratio",
    "analysis.rows_ms": "ms",
    "analysis.coalitions": "count",
    "analysis.breaking_share": "ratio",
    "analysis.oracle_ms": "ms",
    "analysis.oracle_assignments": "count",
    "ratemodel.curves_ms": "ms",
    "ratemodel.max_range_us": "us",
    **{f"wire.orchestrate_ms.{key}": "ms" for key, _ in WIRE_LAYOUTS},
    "wire.relay_frames": "count",
    "wire.relay_bytes": "B",
    "wire.codec_us.n128": "us",
    "wire.codec_us.n65536": "us",
    "wire.abort_ms": "ms",
    "wire.abort_runs": "count",
    "wire.abort_stalls": "count",
    "wire.timeout_causes": "count",
    "wire.runs": "count",
    "wire.leftover_threads": "count",
    "cli.self_ms.grid": "ms",
    "cli.self_ms.audit": "ms",
    "cli.self_ms.wire": "ms",
    "trace.overhead_share": "ratio",
}
SUMMED = ("wire.abort_runs", "wire.abort_stalls", "wire.timeout_causes", "wire.runs", "wire.leftover_threads")


class Tracer:
    """Spans kept in memory: (span id, parent id, operation id, name, label,
    start ns, end ns). Spans of one operation share its operation id."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.op_id = 0

    def new_op(self) -> None:
        self.op_id += 1

    @contextmanager
    def span(self, name: str, label: str = ""):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.op_id, name, label, start, end)

    def durations(self, since: int, name: str, label: str | None = None) -> list[float]:
        """Durations in seconds of the named spans recorded from index `since`."""
        return [
            (s[6] - s[5]) / 1e9
            for s in self.spans[since:]
            if s[3] == name and (label is None or s[4] == label)
        ]

    def write(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "label", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def _med(values: list[float], scale: float) -> float:
    return statistics.median(values) * scale


# ------------------------------------------------------------------ honest


def _honest_layers(tr: Tracer, runs, tally: common.Tally, out: dict) -> None:
    """topology -> keyplan -> protocol -> bits, as protocol.run calls them,
    plus the export that `keyhop simulate` adds."""
    since = len(tr.spans)
    keys = hops = xor_terms = 0
    traced_s = {}
    for n in (common.N_SMALL, common.N_LARGE):
        for item in runs:
            rng = random.Random(item.seed)
            tr.new_op()
            t0 = time.perf_counter()
            with tr.span("topology.build"):
                topo = common.build(item.spec)[0]
            with tr.span("keyplan.plan_keys"):
                plan = plan_keys(topo, item.variant)
            with tr.span("protocol.compile_schedule"):
                schedule = compile_schedule(plan)
            with tr.span("protocol.make_store", f"n{n}"):
                store = make_store(schedule, n, rng)
            with tr.span("protocol.execute", f"n{n}"):
                trace = execute(schedule, store)
            traced_s[n] = traced_s.get(n, 0.0) + time.perf_counter() - t0
            with tr.span("bits.evaluate", f"n{n}"):
                symbolic_ok = all(store.evaluate(msg.expr) == msg.bits for msg in trace.messages)
            with tr.span("protocol.export", f"n{n}"):
                trace_text(trace)
                trace_json(trace)
            tally.check(None if symbolic_ok and common.fold_ok(trace) else "nonce_fold")
            if n == common.N_SMALL:
                keys += len(plan.entries)
                hops += len(schedule.hops)
                xor_terms += sum(len(hop.xor_ids) for hop in schedule.hops)

    untraced = 0.0
    for item in runs:
        rng = random.Random(item.seed)
        t0 = time.perf_counter()
        topo = common.build(item.spec)[0]
        trace = run(topo, item.variant, common.N_SMALL, rng)
        untraced += time.perf_counter() - t0
        tally.check(None if common.fold_ok(trace) else "nonce_fold")

    us = 1e6
    out["topology.build_us"] = _med(tr.durations(since, "topology.build"), us)
    out["keyplan.plan_us"] = _med(tr.durations(since, "keyplan.plan_keys"), us)
    out["protocol.compile_us"] = _med(tr.durations(since, "protocol.compile_schedule"), us)
    for n in (common.N_SMALL, common.N_LARGE):
        out[f"protocol.store_us.n{n}"] = _med(tr.durations(since, "protocol.make_store", f"n{n}"), us)
        out[f"protocol.execute_us.n{n}"] = _med(tr.durations(since, "protocol.execute", f"n{n}"), us)
        out[f"bits.evaluate_us.n{n}"] = _med(tr.durations(since, "bits.evaluate", f"n{n}"), us)
        out[f"protocol.export_us.n{n}"] = _med(tr.durations(since, "protocol.export", f"n{n}"), us)
    out["keyplan.keys"] = keys
    out["protocol.hops"] = hops
    out["protocol.xor_terms"] = xor_terms
    out["trace.overhead_share"] = (traced_s[common.N_SMALL] - untraced) / untraced


def _baseline_calls(tr: Tracer, seed: int, tally: common.Tally, out: dict) -> None:
    """The ROADMAP rows `run` ring6 n=16 and `execute` chain6 n=65536."""
    since = len(tr.spans)
    rng = random.Random(seed)
    for _ in range(CALL_REPS):
        tr.new_op()
        with tr.span("protocol.run", "ring6_n16"):
            trace = run(build_ring6(), Variant.RING_V2, 16, rng)
        tally.check(None if common.fold_ok(trace) else "nonce_fold")
    schedule = compile_schedule(plan_keys(build_chain(6), Variant.CHAIN_M))
    store = make_store(schedule, 65536, rng)
    for _ in range(CALL_REPS):
        tr.new_op()
        with tr.span("protocol.execute", "chain6_n65536"):
            trace = execute(schedule, store)
        tally.check(None if common.fold_ok(trace) else "nonce_fold")
    out["protocol.run_ms.ring6_n16"] = _med(tr.durations(since, "protocol.run", "ring6_n16"), 1e3)
    out["protocol.execute_ms.chain6_n65536"] = _med(
        tr.durations(since, "protocol.execute", "chain6_n65536"), 1e3
    )


# ---------------------------------------------------------------- analysis


def _search_counts(trace, minimal: list) -> tuple[int, int]:
    """(subsets decided, subsets pruned) by min_breaking_coalitions' sweep.

    The sweep visits subsets by size and skips every superset of a minimal
    set already found, so it decides exactly the subsets with no minimal
    breaking set strictly inside them."""
    inter = [nd.label for nd in trace.topology.intermediaries]
    index = {label: i for i, label in enumerate(inter)}
    full = 1 << len(inter)
    holds = bytearray(full)  # subset contains some minimal breaking set
    for coal in minimal:
        mask = 0
        for label in coal.labels:
            mask |= 1 << index[label]
        holds[mask] = 1
    decided = 0
    for mask in range(full):
        bits = [1 << i for i in range(len(inter)) if mask >> i & 1]
        strictly = any(holds[mask ^ b] for b in bits)
        holds[mask] = holds[mask] or strictly
        decided += not strictly
    return decided, full - decided


def _analysis_layers(tr: Tracer, inp, work: str, tally: common.Tally, out: dict, cache: dict) -> None:
    """The analyzer three ways: minimal-set search (ROADMAP rows and the
    grid), the full audit, and the truth-table oracle."""
    since = len(tr.spans)
    exp = inp.expected
    audit_keys = {key for key, _, _ in common.AUDIT_LAYOUTS}

    def minimal_search(key: str, trace) -> None:
        target = analysis.final_key_expr(trace)
        with tr.span("analysis.min_breaking_coalitions", key):
            minimal = analysis.min_breaking_coalitions(trace, target)
        tally.check(None if [c.describe() for c in minimal] == exp["minimal"][key] else "minimal_sets")
        if key not in cache:
            cache[key] = (*_search_counts(trace, minimal), len(minimal))

    for key, spec in common.MINIMAL_LAYOUTS:
        if key in audit_keys:
            continue  # searched below, inside its audit command
        tr.new_op()
        topo, variant = common.build(spec)
        with tr.span("protocol.run", key):
            trace = run(topo, variant, 16, random.Random(0))
        minimal_search(key, trace)

    tr.new_op()
    with tr.span("analysis.collusion_grid"):
        rows = analysis.collusion_grid(common.GRID_PATHS, common.GRID_REACH)
    tally.check(None if analysis.grid_csv(rows) == exp["grid_csv"] else "grid_csv")
    grid_cli, code, _ = common.cli_call(["analyze", "--grid", "--output-dir", work])
    tally.check(None if code == 0 else "exit")

    coalitions = broken = 0
    audit_cli = 0.0
    for key, layout, spec in common.AUDIT_LAYOUTS:
        tr.new_op()
        topo, variant = common.build(spec)
        with tr.span("protocol.run", key):
            trace = run(topo, variant, 16, random.Random(0))
        minimal_search(key, trace)
        target = analysis.final_key_expr(trace)
        with tr.span("analysis.coalition_rows", key):
            rows = analysis.coalition_rows(trace, target)
        with tr.span("analysis.coalition_report_csv", key):
            text = analysis.coalition_report_csv(rows)
        digest = hashlib.sha256(text.encode()).hexdigest()
        tally.check(None if digest == exp["coalitions_sha256"][key] else "coalitions_csv")

        statuses = []
        inter = trace.topology.intermediaries
        for size in range(len(inter) + 1):
            for combo in combinations(inter, size):
                coal = analysis.Coalition(frozenset(combo))
                with tr.span("analysis.view_of"):
                    view = analysis.view_of(trace, coal)
                with tr.span("analysis.is_recoverable"):
                    verdict = analysis.is_recoverable(view, target)
                statuses.append(verdict.status.value)
        tally.check(None if statuses == [row[3] for row in rows] else "decide_vs_rows")
        coalitions += len(statuses)
        broken += statuses.count("BROKEN")

        dt, code, _ = common.cli_call(["analyze", *layout, "--output-dir", work])
        tally.check(None if code == 0 else "exit")
        audit_cli += dt

    oracle_assignments = 0
    for (key, _, spec), coal_text in zip(common.ORACLE_LAYOUTS, inp.oracle_coalitions):
        tr.new_op()
        topo, variant = common.build(spec)
        with tr.span("protocol.run", key):
            trace = run(topo, variant, 16, random.Random(0))
        coal = analysis.Coalition(frozenset(topo.node(lab) for lab in coal_text.split(",")))
        target = analysis.final_key_expr(trace)
        with tr.span("analysis.is_recoverable", key):
            verdict = analysis.is_recoverable(analysis.view_of(trace, coal), target)
        with tr.span("protocol.run", f"{key}_n1"):
            check = run(topo, variant, 1, random.Random(0))
        with tr.span("analysis.brute_force_secrecy", key):
            oracle = analysis.brute_force_secrecy(check, coal, analysis.final_key_expr(check))
        tally.check(None if oracle is verdict.status else "oracle_disagree")
        oracle_assignments += 1 << len(check.store.ids())

    ms = 1e3
    for key, _ in common.MINIMAL_LAYOUTS:
        out[f"analysis.minimal_ms.{key}"] = _med(
            tr.durations(since, "analysis.min_breaking_coalitions", key), ms
        )
    grid_span = sum(tr.durations(since, "analysis.collusion_grid"))
    out["analysis.grid_ms"] = grid_span * ms
    decided = sum(c[0] for c in cache.values())
    out["analysis.subsets"] = decided
    out["analysis.subsets_pruned"] = sum(c[1] for c in cache.values())
    out["analysis.minimal_sets"] = sum(c[2] for c in cache.values())
    out["analysis.minimal_share"] = out["analysis.minimal_sets"] / decided
    out["analysis.rows_ms"] = sum(tr.durations(since, "analysis.coalition_rows")) * ms
    out["analysis.coalitions"] = coalitions
    out["analysis.breaking_share"] = broken / coalitions
    out["analysis.view_us"] = _med(tr.durations(since, "analysis.view_of"), 1e6)
    out["analysis.decide_us"] = _med(tr.durations(since, "analysis.is_recoverable", ""), 1e6)
    out["analysis.oracle_ms"] = sum(tr.durations(since, "analysis.brute_force_secrecy")) * ms
    out["analysis.oracle_assignments"] = oracle_assignments

    audit_spans = sum(
        sum(tr.durations(since, name, key))
        for key, _, _ in common.AUDIT_LAYOUTS
        for name in (
            "protocol.run", "analysis.min_breaking_coalitions",
            "analysis.coalition_rows", "analysis.coalition_report_csv",
        )
    )
    out["cli.self_ms.grid"] = (grid_cli - grid_span) * ms
    out["cli.self_ms.audit"] = (audit_cli - audit_spans) * ms


# --------------------------------------------------------------- ratemodel


def _ratemodel_layer(tr: Tracer, tally: common.Tally, out: dict, exp: dict) -> None:
    since = len(tr.spans)
    params = ratemodel.RateParams.calibrated()
    distances = [float(d) for d in range(0, 2201, 10)]
    tr.new_op()
    with tr.span("ratemodel.emit_curves"):
        text = ratemodel.curves_csv(ratemodel.emit_curves(distances, ratemodel.DEFAULT_FAMILIES, params))
    digest = hashlib.sha256(text.encode()).hexdigest()
    tally.check(None if digest == exp["curves_sha256"] else "rate_curves")
    for _ in range(CALL_REPS):
        with tr.span("ratemodel.max_range"):
            reach = ratemodel.max_range(3, params)
    tally.check(None if reach == exp["max_range_m3_km"] else "max_range")
    out["ratemodel.curves_ms"] = sum(tr.durations(since, "ratemodel.emit_curves")) * 1e3
    out["ratemodel.max_range_us"] = _med(tr.durations(since, "ratemodel.max_range"), 1e6)


# -------------------------------------------------------------------- wire


def _wire_layer(tr: Tracer, runs, ports, work: str, tally: common.Tally, out: dict) -> None:
    since = len(tr.spans)
    baseline = threading.active_count()
    seeds = iter(runs)
    leftover = nruns = frames = nbytes = 0

    def orchestrate(key: str, spec, tamper: int | None = None):
        nonlocal leftover, nruns
        topo, variant = common.build(spec)
        item = next(seeds)
        run_dir = tempfile.mkdtemp(dir=work)
        cpu = time.process_time()
        tr.new_op()
        with tr.span("wire.orchestrate", key if tamper is None else f"{key}_tamper"):
            res = wire.orchestrate(
                topo, variant, common.WIRE_N, item.seed, ports.take(), run_dir,
                tamper_index=tamper, timeout=common.WIRE_TIMEOUT,
            )
        leftover += common.wire_cool_down(baseline, cpu)
        nruns += 1
        if tamper is None:
            engine = run(topo, variant, common.WIRE_N, random.Random(item.seed)).output_a
            ok = res.code == 0 and res.output_a == res.output_b == engine
            cause = None if ok else "port_bind" if res.code == 3 else "wire_vs_engine"
        else:
            keyless = not any(name.startswith("key_") for name in os.listdir(run_dir))
            cause = None if res.code == 2 and keyless else "tamper_not_aborted"
        tally.check(cause)
        shutil.rmtree(run_dir)
        return res

    for key, spec in WIRE_LAYOUTS:
        for rep in range(ORCHESTRATE_REPS):
            res = orchestrate(key, spec)
            if rep == 0:
                sizes = [int(m.group(1)) for line in res.transcript() if (m := _SEND_RE.search(line))]
                frames += len(sizes)
                nbytes += sum(sizes)

    cli_wire = []
    for _ in range(CLI_WIRE_REPS):
        item = common.WireRun(next(seeds).seed, None)
        run_dir = tempfile.mkdtemp(dir=work)
        cpu = time.process_time()
        dt, code, stdout = common.cli_call(common.wire_argv(item, ports.take(), run_dir))
        leftover += common.wire_cool_down(baseline, cpu)
        nruns += 1
        tally.check(common.wire_failure(item, code, stdout, run_dir, common.engine_key_hex(item.seed)))
        shutil.rmtree(run_dir)
        cli_wire.append(dt)
        orchestrate("chain10", ("chain", 10))

    timeouts = 0
    chain = ("chain", common.WIRE_M)
    tampers = [item.tamper for item in runs if item.tamper is not None][:ABORT_RUNS]
    for hop in tampers:
        res = orchestrate("chain10", chain, hop)
        timeouts += sum(1 for r in res.results.values() if r.transcript and r.transcript[-1].endswith("ABORT TIMEOUT"))
    aborts = tr.durations(since, "wire.orchestrate", "chain10_tamper")
    stalls = sum(1 for d in aborts if d >= common.WIRE_TIMEOUT)

    for key, _ in WIRE_LAYOUTS:
        out[f"wire.orchestrate_ms.{key}"] = _med(tr.durations(since, "wire.orchestrate", key), 1e3)
    out["wire.relay_frames"] = frames
    out["wire.relay_bytes"] = nbytes
    out["wire.abort_ms"] = _med(aborts, 1e3)
    out["wire.abort_runs"] = len(aborts)
    out["wire.abort_stalls"] = stalls
    out["wire.timeout_causes"] = timeouts
    out["wire.runs"] = nruns
    out["wire.leftover_threads"] = leftover
    out["cli.self_ms.wire"] = (
        statistics.median(cli_wire) - statistics.median(tr.durations(since, "wire.orchestrate", "chain10"))
    ) * 1e3

    for n in (common.WIRE_N, 65536):
        frame = wire.Frame(wire.FRAME_RELAY, 3, BitString(random.Random(n).getrandbits(n), n).to_bytes())
        key = b"k" * 32
        codec = []
        for _ in range(CODEC_REPS):
            with tr.span("wire.codec", f"n{n}"):
                back = wire.decode_frame(wire.encode_frame(frame, key), key)
            codec.append(back == frame)
        tally.check(None if all(codec) else "codec")
        out[f"wire.codec_us.n{n}"] = _med(tr.durations(since, "wire.codec", f"n{n}"), 1e6)


# --------------------------------------------------------------------- run


def traced_pass(tr: Tracer, seed: int, work: str, tally: common.Tally, cache: dict) -> dict:
    out: dict = {}
    _honest_layers(tr, common.honest_inputs(seed), tally, out)
    _baseline_calls(tr, seed, tally, out)
    ain = common.analyze_inputs(seed)
    _analysis_layers(tr, ain, work, tally, out, cache)
    _ratemodel_layer(tr, tally, out, ain.expected)
    runs, ports = common.wire_inputs(seed)
    _wire_layer(tr, runs, ports, work, tally, out)
    return out


def roadmap_table(m: dict) -> list[str]:
    """The ROADMAP 'Open items' baseline table, from this run's numbers."""
    def ms(key: str) -> str:
        return f"{m[key]:.3g}" if m[key] < 1000 else f"{m[key]:.0f}"

    return [
        "| workload | time |",
        "|---|---|",
        "| `min_breaking_coalitions`, chain m=6 / 10 / 14 | "
        + " / ".join(ms(f"analysis.minimal_ms.chain{k}") for k in (6, 10, 14)) + " ms |",
        f"| `min_breaking_coalitions`, multipath (3,3,3; t=2) | {ms('analysis.minimal_ms.mp333t2')} ms |",
        f"| `min_breaking_coalitions`, multipath (4,4,4; t=3) | {ms('analysis.minimal_ms.mp444t3')} ms |",
        f"| `collusion_grid`, paths 1..3 x reach 1..3 | {ms('analysis.grid_ms')} ms |",
        f"| `run` ring6, n=16 (plan + compile + execute) | {ms('protocol.run_ms.ring6_n16')} ms |",
        f"| `execute` chain6, n=65536 | {ms('protocol.execute_ms.chain6_n65536')} ms |",
        f"| `orchestrate` ring6, n=128 | {ms('wire.orchestrate_ms.ring6')} ms |",
        f"| `orchestrate` chain m=10, n=128 | {ms('wire.orchestrate_ms.chain10')} ms |",
    ]


def traced_run(workload: str, seed: int, seconds: float, work: str, tally: common.Tally,
               lines: list[str], spans_path: str) -> dict:
    """Traced passes while another one fits in `seconds` (at least one);
    every per-layer metric, with its unit. A pass takes about 25 s."""
    tr = Tracer()
    cache: dict = {}
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        passes.append(traced_pass(tr, seed, work, tally, cache))
        if 2 * time.perf_counter() - start > deadline:
            break
    tr.write(spans_path)

    metrics = {}
    for name, unit in UNITS.items():
        values = [p[name] for p in passes]
        value = sum(values) if name in SUMMED else statistics.median(values)
        metrics[name] = (value, unit)
    lines.append(f"traced run ({workload} seed {seed}): {len(passes)} passes, {len(tr.spans)} spans -> {spans_path}")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += roadmap_table({name: value for name, (value, _) in metrics.items()})
    return metrics

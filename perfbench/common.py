"""Seeded inputs, expected outputs, output checks and call helpers shared by
workloads.py and layers.py.

A workload's inputs are a pure function of its seed; the expected artifacts
come from expected.json, which holds what the keyhop commit that introduced
this benchmark emitted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass

from keyhop import cli
from keyhop.keyplan import Variant
from keyhop.protocol import run
from keyhop.topology import build_chain, build_multipath, build_reach_chain, build_ring6

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_WAIT_S = 10.0


class Tally:
    """Operations attempted and failed, with a count per failure cause.
    A failed check is counted; it never stops the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.causes: Counter = Counter()

    def check(self, cause: str | None) -> bool:
        self.attempted += 1
        if cause is not None:
            self.failed += 1
            self.causes[cause] += 1
        return cause is None


def cli_call(argv: list[str]) -> tuple[float, int, str]:
    """Run one `keyhop` command in this process; (wall seconds, exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation, not a failed benchmark
            code = -1
            print(f"uncaught {exc!r}")
        elapsed = time.perf_counter() - t0
    return elapsed, code, buf.getvalue()


def wire_cool_down(baseline: int, cpu_at_start: float) -> int:
    """After a wire run: wait (bounded) until only `baseline` threads are
    alive, then idle for the CPU time the process spent since
    `cpu_at_start`. Returns how many extra threads were alive when the wait
    began.

    The idle period is the closed loop's think time. Back-to-back wire runs
    keep both vCPUs of a 2-vCPU VM busy, and after 1-2 s of that the VM
    slowed down: honest chain m=10 runs went from about 31 ms to 50-60 ms
    and stayed there, while idling for half the run's wall time still gave
    57 ms. Idling for the run's CPU time gave 30-33 ms over 300 runs.
    """
    excess = threading.active_count() - baseline
    deadline = time.monotonic() + THREAD_WAIT_S
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(time.process_time() - cpu_at_start)
    return max(excess, 0)


# ---------------------------------------------------------------- analyze

# (layout key, CLI layout arguments, library builder arguments)
AUDIT_LAYOUTS = (
    ("chain10", ["--shape", "chain", "--m", "10"], ("chain", 10)),
    ("reach8t3", ["--shape", "reach", "--m", "8", "--t", "3"], ("reach", 8, 3)),
    ("mp333t2", ["--shape", "multipath", "--paths", "3,3,3", "--t", "2"], ("multipath", (3, 3, 3), 2)),
    ("ring6-v1", ["--shape", "ring6", "--variant", "ring-v1"], ("ring6", Variant.RING_V1)),
    ("ring6-v2", ["--shape", "ring6", "--variant", "ring-v2"], ("ring6", Variant.RING_V2)),
)

# The three oracle layouts have 18, 18 and 21 secrets; 24-secret layouts
# cost 13-14 s per check and are left out.
ORACLE_LAYOUTS = (
    ("mp333", ["--shape", "multipath", "--paths", "3,3,3"], ("multipath", (3, 3, 3), 1)),
    ("chain15", ["--shape", "chain", "--m", "15"], ("chain", 15)),
    ("mp444", ["--shape", "multipath", "--paths", "4,4,4"], ("multipath", (4, 4, 4), 1)),
)

# The ROADMAP baseline rows for min_breaking_coalitions.
MINIMAL_LAYOUTS = (
    ("chain6", ("chain", 6)),
    ("chain10", ("chain", 10)),
    ("chain14", ("chain", 14)),
    ("mp333t2", ("multipath", (3, 3, 3), 2)),
    ("mp444t3", ("multipath", (4, 4, 4), 3)),
)

GRID_PATHS = (1, 2, 3)
GRID_REACH = (1, 2, 3)

_DEFAULT_VARIANT = {
    "ring6": Variant.RING_V2,
    "chain": Variant.CHAIN_M,
    "reach": Variant.REACH_T,
    "multipath": Variant.MULTIPATH,
}


def build(spec: tuple):
    """(topology, variant) for a builder spec as used in the tables above."""
    shape = spec[0]
    if shape == "ring6":
        return build_ring6(), spec[1]
    if shape == "chain":
        return build_chain(spec[1]), _DEFAULT_VARIANT[shape]
    if shape == "reach":
        return build_reach_chain(spec[1], spec[2]), _DEFAULT_VARIANT[shape]
    return build_multipath(spec[1], 100.0, spec[2]), _DEFAULT_VARIANT[shape]


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class AnalyzeInputs:
    oracle_coalitions: tuple[str, ...]  # one comma-separated label list per ORACLE_LAYOUTS row
    expected: dict


def analyze_inputs(seed: int) -> AnalyzeInputs:
    """The seed picks each oracle coalition among ones of equal view width,
    so the oracle's time and memory do not depend on it: one whole path of
    a multipath layout, or on chain m=15 two interior nodes an odd distance
    apart, which share no key and hold four between them."""
    rng = random.Random(seed)
    coalitions = []
    for _, _, spec in ORACLE_LAYOUTS:
        topo, _ = build(spec)
        if spec[0] == "multipath":
            members = [nd.label for nd in rng.choice(topo.paths)[1:-1]]
        else:
            i = rng.randint(2, topo.m - 1)
            j = rng.choice([k for k in range(2, topo.m) if (k - i) % 2])
            members = [f"N{i}", f"N{j}"]
        coalitions.append(",".join(sorted(members)))
    return AnalyzeInputs(tuple(coalitions), load_expected())


def minimal_lines(stdout: str) -> list[str] | None:
    """The coalitions `keyhop analyze` printed as minimal, or None when the
    block is missing."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("minimal breaking coalitions"):
        return None
    out = []
    for line in lines[1:]:
        if not line.startswith("  "):
            break
        out.append(line.strip().rsplit(" (", 1)[0])
    return out


# ----------------------------------------------------------------- honest

N_SMALL = 16
N_LARGE = 65536


@dataclass(frozen=True)
class HonestRun:
    spec: tuple  # builder spec, see build()
    variant: Variant
    seed: int


def honest_inputs(seed: int) -> tuple[HonestRun, ...]:
    """A stratified mix over all six variants: every chain size 2..12, every
    reach (t, m) with t <= 4 and m <= 12, and multipath layouts of 1..4
    paths of 2..6 intermediaries whose lengths and reach the seed draws.
    Each run gets its own key seed."""
    rng = random.Random(seed)
    specs: list[tuple[tuple, Variant]] = []
    for _ in range(11):
        specs.append((("ring6", Variant.RING_V1), Variant.RING_V1))
        specs.append((("ring6", Variant.RING_V2), Variant.RING_V2))
        specs.append((("chain", 2), Variant.CHAIN2))
    specs += [(("chain", m), Variant.CHAIN_M) for m in range(2, 13)]
    specs += [(("reach", m, t), Variant.REACH_T) for t in (2, 3, 4) for m in range(t + 1, 13)]
    for k in range(40):
        lengths = tuple(rng.randint(2, 6) for _ in range(k % 4 + 1))
        t = rng.randint(1, min(min(lengths) - 1, 2))
        specs.append((("multipath", lengths, t), Variant.MULTIPATH))
    rng.shuffle(specs)
    return tuple(HonestRun(spec, variant, rng.getrandbits(32)) for spec, variant in specs)


def fold_ok(trace) -> bool:
    """K(A) = K(B) = the XOR of the trace's nonce values."""
    fold = 0
    for nid in trace.nonce_ids:
        fold ^= trace.store[nid].value
    return trace.output_a == trace.output_b and trace.output_a.value == fold


# ------------------------------------------------------------------- wire

WIRE_M = 10
WIRE_N = 128
WIRE_TIMEOUT = 2.0
HONEST_PER_TAMPER = 4

# Ports the repository's tests (20000-27000) and the CLI default (9000)
# use stay untouched; blocks start at 10000 and end below the kernel's
# ephemeral range, where an outgoing connection could already hold a port.
_PORT_LOW = 10000
_PORT_HIGH = 20000
_BLOCK = 16


def ephemeral_floor() -> int:
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range", encoding="ascii") as fh:
            return int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 32768


class PortBlocks:
    """Hands out a fresh block of ports per wire run, cycling through the
    blocks from a seeded start."""

    def __init__(self, rng: random.Random) -> None:
        high = min(_PORT_HIGH, ephemeral_floor())
        self.blocks = list(range(_PORT_LOW, high - _BLOCK + 1, _BLOCK))
        if not self.blocks:
            raise SystemExit(f"no port block fits below the ephemeral floor {high}")
        self.next = rng.randrange(len(self.blocks))

    def take(self) -> int:
        base = self.blocks[self.next]
        self.next = (self.next + 1) % len(self.blocks)
        return base


@dataclass(frozen=True)
class WireRun:
    seed: int
    tamper: int | None


def wire_inputs(seed: int, count: int = 2000) -> tuple[tuple[WireRun, ...], PortBlocks]:
    """Runs cycle HONEST_PER_TAMPER honest runs, then one tampered run. The
    tampered hops are seeded shuffles of all WIRE_M + 1 hops of the chain,
    one after another, so every hop is tampered equally often."""
    rng = random.Random(seed)
    runs = []
    hops: list[int] = []
    for i in range(count):
        tamper = None
        if i % (HONEST_PER_TAMPER + 1) == HONEST_PER_TAMPER:
            if not hops:
                hops = rng.sample(range(WIRE_M + 1), WIRE_M + 1)
            tamper = hops.pop()
        runs.append(WireRun(rng.getrandbits(32), tamper))
    return tuple(runs), PortBlocks(rng)


def wire_argv(run: WireRun, base_port: int, out_dir: str) -> list[str]:
    argv = [
        "wire", "--shape", "chain", "--m", str(WIRE_M), "--n", str(WIRE_N),
        "--seed", str(run.seed), "--base-port", str(base_port),
        "--timeout", str(WIRE_TIMEOUT), "--output-dir", out_dir,
    ]
    if run.tamper is not None:
        argv += ["--tamper", str(run.tamper)]
    return argv


def engine_key_hex(seed: int, m: int = WIRE_M, n: int = WIRE_N) -> str:
    return run(build_chain(m), Variant.CHAIN_M, n, random.Random(seed)).output_a.to_hex()


def read_key(out_dir: str, label: str) -> str | None:
    try:
        with open(os.path.join(out_dir, f"key_{label}.hex"), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def wire_failure(run: WireRun, code: int, report: str, out_dir: str, expect_hex: str | None) -> str | None:
    """Why a wire run's outputs are wrong, or None when they are right.

    An honest run must exit 0 with both endpoint keys equal to the engine's
    key for the same seed and n; a tampered run must exit 2 and leave no key
    file. A port that cannot be bound is reported as such."""
    if "Address already in use" in report or "CONFIG" in report:
        return "port_bind"
    key_a, key_b = read_key(out_dir, "A"), read_key(out_dir, "B")
    if run.tamper is not None:
        if code != 2:
            return "tamper_exit"
        if key_a is not None or key_b is not None:
            return "tamper_key_written"
        return None
    if code != 0:
        return "honest_exit"
    if key_a != expect_hex or key_b != expect_hex:
        return "key_mismatch"
    return None

"""Smoke test of the benchmark: every workload at minimal length, plus one
traced run.

    python3 -m pytest perfbench/test_smoke.py

Asserts that every metric is emitted with its unit, that no operation
failed, and that the benchmark imports nothing beyond the standard library,
keyhop and numpy.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# The named metrics of each workload, printed by name and unit.
NAMED = {
    "analyze": [("grid_s", "s"), ("audit_s", "s"), ("oracle_s", "s")],
    "honest": [("honest16_per_s", "runs/s"), ("honest64k_per_s", "runs/s")],
    "wire": [("wire_ms_p50", "ms"), ("wire_ms_p90", "ms"), ("abort_ms_p50", "ms")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("failed_share", "ratio")]


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _assert_clean(result: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_workload_emits_every_metric(workload):
    lines, result = _bench(workload, 0)
    _assert_clean(result)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in NAMED[workload] + COMMON:
        pattern = re.compile(rf"^{re.escape(name)} [0-9.e+-]+ {re.escape(unit)}( |$)")
        assert any(pattern.match(line) for line in lines), f"{name} [{unit}] not printed"
    assert any(line.startswith("failed_share 0.000000 ratio") for line in lines)


def test_traced_run_emits_every_layer_metric():
    lines, result = _bench("analyze", 1)
    _assert_clean(result)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert any(line.startswith("trace.overhead_share ") for line in lines)
    assert any(line.startswith("| `collusion_grid`") for line in lines)


def test_imports_only_stdlib_keyhop_and_numpy():
    local = {name[:-3] for name in os.listdir(HERE) if name.endswith(".py")}
    allowed = set(sys.stdlib_module_names) | {"keyhop", "numpy", "pytest"} | local
    for name in sorted(local):
        with open(os.path.join(HERE, f"{name}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in allowed, f"{name}.py imports {root}"
                assert root != "pytest" or name == "test_smoke", f"{name}.py imports pytest"

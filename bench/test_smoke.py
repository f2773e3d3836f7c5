"""Smoke test of the benchmark: every workload at minimal size.

    python3 -m pytest -q bench/test_smoke.py

Checks that each workload, untraced and traced, exits 0 with a passing
result whose metrics are exactly the ones BENCHMARK.json declares, each
with its declared unit; that the tracer puts the engine back after an
exception; and that the benchmark refuses to run without the engine
source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_emitted_with_units(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)), name


def test_hooks_restored_after_exception():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import tracing

        targets = tracing.hooks(full=True)
        before = [getattr(owner, attr) for owner, attr, _ in targets]
        with pytest.raises(RuntimeError, match="boom"):
            with tracing.installed(tracing.Tracer(), targets):
                assert [getattr(o, a) for o, a, _ in targets] != before
                raise RuntimeError("boom")
        assert [getattr(owner, attr) for owner, attr, _ in targets] == before
    finally:
        del sys.path[:2]


def test_refuses_without_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout

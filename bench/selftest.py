"""The benchmark's own test: the smallest run of every workload.

    python3 bench/selftest.py            (or python3 -m pytest bench/selftest.py)

Checks that each workload prints every end-to-end metric (trace 0) and
every per-layer metric (trace 1) by name and unit, that no operation fails
its reference at these sizes, that a deliberately corrupted reference value
is counted as a failure, that BENCHMARK.json is the spec ``run.py`` writes,
and that a checkout without the library fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, trace: int, *extra: str, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--small", *extra],
        capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def test_every_metric_emitted():
    spec = bench.spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in bench.wl.WORKLOADS:
            result = _result(_run(workload, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            for entry in result["metrics"].values():
                assert isinstance(entry["value"], (int, float))
            assert result["correct"] and result["failed"] == 0, (workload,
                                                                  result)


def test_corrupted_reference_is_a_failure():
    for workload in bench.wl.WORKLOADS:
        result = _result(_run(workload, 0, "--corrupt-reference"))
        assert result["failed"] >= 1 and not result["correct"], workload


def test_spec_is_committed():
    committed = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert committed == bench.spec()


def test_refuses_without_library():
    bare = HERE / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = _run("kernel_point", 0, script=bare / "bench" / "run.py")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)

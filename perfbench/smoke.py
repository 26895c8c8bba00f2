"""Smoke test of the benchmark at toy sizes (about a minute on two cores).

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

It runs every workload once untraced and the traced run once, all with
``--smoke``, and asserts that every metric is printed with its unit and
that the output checks pass. It also checks the benchmark's graph oracle
against lphvg's exhaustive `build_lphvg_naive` and that the benchmark refuses to run
without the program's sources.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# End-to-end figures printed in the report lines as the per-workload breakdown.
DETAIL = {
    "evolve": {"evolve_s": "s", "fail_frac": "ratio"},
    "classify": {"discriminate_total_s": "s", "verify_s": "s", "fail_frac": "ratio"},
    "build": {"build_iid_s": "s", "build_trend_s": "s", "fail_frac": "ratio"},
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def assert_result(result: dict, spec_metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec_metrics} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_untraced_workloads_print_every_metric():
    proc = run_bench("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    results = result_lines(proc.stdout)
    assert len(results) == len(SPEC["workloads"])
    for result in results:
        assert_result(result, SPEC["end_to_end"])
    for workload, names in DETAIL.items():
        block = proc.stdout.split(f"perfbench workload={workload} ", 1)[1]
        for name, unit in names.items():
            assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$", block, re.M), name


def test_traced_run_prints_every_layer_metric():
    proc = run_bench("--workload", "evolve", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert_result(result_lines(proc.stdout)[-1], SPEC["per_layer"])


def test_oracle_matches_naive_construction():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    from checks import oracle_edge_codes
    from lphvg import build_lphvg_naive

    g = np.random.default_rng(0)
    for trial in range(100):
        n, rho = int(g.integers(2, 50)), int(g.integers(0, 5))
        x = g.integers(0, 4, n).astype(float) if trial % 2 else g.random(n)  # ties, then none
        naive = np.array(sorted(i * n + j for i, j in build_lphvg_naive(x, rho).edges()),
                         dtype=np.int64)
        assert np.array_equal(oracle_edge_codes(x, rho), naive), (trial, n, rho)


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(BENCH.parent / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
        proc = run_bench("--workload", "build", "--trace", "0", cwd=Path(tmp))
    assert proc.returncode != 0
    assert not result_lines(proc.stdout)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

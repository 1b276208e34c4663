"""Self-test of the benchmark at small sizes: every workload runs, emits
every metric named in BENCHMARK.json with its unit, and a second seed
runs too.  ``python3 -m pytest -q bench/test_smoke.py`` from the root."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(done):
    assert done.returncode == 0, done.stderr[-3000:]
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload):
    for seed, trace, table in ((1, 0, "end_to_end"), (2, 0, "end_to_end"),
                               (1, 1, "per_layer")):
        res = result(bench("--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace),
                           "--size", "smoke"))
        want = {m["name"]: m["unit"] for m in SPEC[table]}
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        assert got == want
        for name, metric in res["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        if trace == 0:
            for name in ("setup_s", "ops_per_s", "op_s_p50", "op_s_tail"):
                assert res["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_sources():
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = bench("--workload", "build", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert "metrics" not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run the benchmark on its shortest setting, so they take about half a
minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Pass, SpectrumCold  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(declared, trace, key):
    proc = _bench("--workload", "spectrum-cold", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared[key]}
    # the n = 3 blocks with k >= 12 fail at the seed; they count, and the run goes on
    assert result["correct"] is True
    passes = result["attempted"] // 20
    assert result["attempted"] == 20 * passes
    assert result["failed"] == 3 * passes
    assert "error_frac" in proc.stdout


def test_workload_names_match_benchmark_json(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_input_digest_follows_the_seed(name):
    def digest(seed):
        return WORKLOADS[name](seed, Pass(Tracer(False))).digest()

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_failing_block_is_counted_and_does_not_abort():
    p = Pass(Tracer(True))
    wl = SpectrumCold(1, p)
    p.run_item("n3.k12", lambda: wl._block(3, 12))
    p.run_item("n3.k2", lambda: wl._block(3, 2))
    assert [it["status"] for it in p.items] == ["error", "ok"]
    assert "IntegrityError" in p.items[0]["detail"]
    assert p.counts["exceptions.IntegrityError"] == 1
    assert p.counts["operator.blocks"] == 2


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("--workload", "deficit-batch", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

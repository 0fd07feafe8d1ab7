"""The benchmark's own checks.  Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import outputs  # noqa: E402

PINS = json.loads((HERE / "pins.json").read_text())
SEED = 0


def _pin(workload: str, seed: int = SEED) -> str:
    return PINS["pins"][workload][str(seed)]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    script = cwd / HERE.name / "run.py"
    return subprocess.run([sys.executable, str(script), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_dc_mp2_pin_equals_inprocess_strict_and_mp_run(tmp_path):
    runner = harness.MultiprocessRunner("dc_mp2", tmp_path)
    assert outputs.digest(runner.oracle(SEED)) == _pin("dc_mp2")
    it = harness._one_iteration(runner, SEED, False, None)
    assert it.error is None
    assert outputs.digest(it.fingerprint) == _pin("dc_mp2")


@pytest.mark.parametrize("workload", ["dc_strict", "dc_mp2", "dctcp_fluid"])
def test_traced_run_reproduces_untraced_fingerprint(workload, tmp_path):
    runner = harness.runner_for(workload, tmp_path)
    tracer = harness.spans.Tracer(harness.spans.SpanRecorder())
    plain = harness._one_iteration(runner, SEED, False, None)
    traced = harness._one_iteration(runner, SEED, True, tracer)
    assert plain.error is None and traced.error is None
    assert outputs.digest(plain.fingerprint) == _pin(workload)
    assert outputs.digest(traced.fingerprint) == _pin(workload)
    assert traced.run_spans["calls"], "no spans recorded"


def test_result_lines_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "dctcp_fluid", "--seed", str(SEED),
                      "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == declared


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "dc_strict", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

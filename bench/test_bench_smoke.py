"""Smoke test of the benchmark itself at tiny sizes (a few seconds)."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (HERE, os.path.join(ROOT, "src"))
                if p not in sys.path]

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tempex import explainers, nets  # noqa: E402


def _bench(tmp_path, workload, trace, seed=3):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)],
                        sizes=workloads.TINY, out_dir=str(tmp_path))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_reports_every_metric(tmp_path, workload):
    for trace, table in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        code, result = _bench(tmp_path, workload, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {row[0]: row[1] for row in table}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        if trace == 0:  # end-to-end metrics are never 0
            assert all(m["value"] > 0 for m in result["metrics"].values())
    # the traced run put every wrapped binding back
    assert explainers.predict_proba is nets.predict_proba
    assert nets.gru_forward.__module__ == "tempex.nets"


def test_changed_output_for_same_seed_fails(tmp_path):
    code, result = _bench(tmp_path, "learned_hmm", 0)
    assert code == 0 and result["correct"]
    record = tmp_path / "repeats.json"
    seen = json.loads(record.read_text())
    for value in seen.values():
        value["digest"] = "0" * 64
    record.write_text(json.dumps(seen))
    code, result = _bench(tmp_path, "learned_hmm", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "learned_hmm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()

"""The benchmark's own tests: wrapper coverage, tracing leaves outputs unchanged,
and BENCHMARK.json matches what run.py reports.

Run from the repository root: ``python3 -m pytest -q perfbench``.  Each
workload runs one untraced and one traced short run (~2.5 min in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from run import E2E_METRICS, WORKLOADS  # noqa: E402


def _run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """One untraced and one traced single-iteration run of a workload."""
    done = {}
    for trace in (0, 1):
        proc = _run(request.param, trace, ROOT)
        assert proc.returncode == 0, proc.stderr
        done[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return request.param, done


def _work(workload: str, trace: int) -> Path:
    return BENCH / "_work" / f"{workload}-trace{trace}"


def test_every_check_passes(runs):
    _, done = runs
    for result in done.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_every_layer_metric_records_calls_where_it_should_move(runs):
    workload, done = runs
    spans = [json.loads(line) for line in (_work(workload, 1) / "spans.jsonl").open()]
    called = {span["name"] for span in spans}
    metrics = done[1]["metrics"]
    for name, spec in tracing.LAYER_METRICS.items():
        if workload in spec.on:
            assert spec.span in called, f"{name}: no {spec.span} span on {workload}"
            assert metrics[name]["value"] > 0, name
    for name in tracing.OVERHEAD_METRICS:
        assert name in metrics


def test_traced_outputs_match_untraced(runs):
    workload, _ = runs
    untraced, traced = _work(workload, 0) / "out", _work(workload, 1) / "out"
    names = sorted(p.name for p in untraced.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for name in names:
        assert (untraced / name).read_bytes() == (traced / name).read_bytes(), name


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {name: (m.unit, m.better) for name, m in tracing.LAYER_METRICS.items()}
    expected.update({name: ("ms", "lower") for name in tracing.OVERHEAD_METRICS})
    assert layer == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("tokenizer", 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

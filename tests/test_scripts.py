"""Smoke test: the shipped scripts run from a source checkout."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_demo_scene_pipeline(tmp_path):
    work = tmp_path / "demo"
    done = run_script("demo_scene_pipeline.py", "--workdir", str(work), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads((work / "placement.json").read_text())["feasible"] is True
    for name in ("scene.vox", "walk.mseq", "object.pts", "placed.mseq", "score.json",
                 "sampled_track.mseq"):
        assert (work / name).is_file(), name


def test_run_vocab_sweep(tmp_path):
    out = tmp_path / "s.csv"
    done = run_script("run_vocab_sweep.py", "--ks", "4", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "vocab_size" and len(rows) == 2
    for cell in rows[1]:
        float(cell)

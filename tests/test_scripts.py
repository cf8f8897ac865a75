"""Smoke test: the shipped scripts and ``python -m motok`` run from a source checkout."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from motok.fileio import read_mseq
from motok.synth import make_corpus

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def load_script(name):
    """A script as a module, so a test can replace what it calls."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_scene_pipeline(tmp_path):
    work = tmp_path / "demo"
    done = run_script("demo_scene_pipeline.py", "--workdir", str(work), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads((work / "placement.json").read_text())["feasible"] is True
    for name in ("scene.vox", "walk.mseq", "object.pts", "placed.mseq", "score.json",
                 "sampled_track.mseq"):
        assert (work / name).is_file(), name


@pytest.mark.parametrize("failing, code, ran", [
    ("populate", 1, ["populate"]),
    ("score", 2, ["populate", "score"]),
    ("sample", 1, ["populate", "score", "sample"]),
])
def test_demo_stops_at_first_failed_stage(failing, code, ran, tmp_path, monkeypatch):
    demo = load_script("demo_scene_pipeline")
    real_dispatch, calls = demo.dispatch, []

    def dispatch(argv):
        calls.append(argv[0])
        return code if argv[0] == failing else real_dispatch(argv)

    monkeypatch.setattr(demo, "dispatch", dispatch)
    monkeypatch.setattr(sys, "argv", ["demo", "--workdir", str(tmp_path / "demo")])
    with pytest.raises(SystemExit) as exc:
        demo.main()
    assert exc.value.code == code
    assert calls == ran


def test_run_vocab_sweep(tmp_path):
    out = tmp_path / "s.csv"
    done = run_script("run_vocab_sweep.py", "--ks", "4,8", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["vocab_size", "final_mse", "utilization_fraction",
                       "utilization_entropy", "final_mse_noentropy",
                       "utilization_fraction_noentropy", "utilization_entropy_noentropy"]
    assert [row[0] for row in rows[1:]] == ["4", "8"]
    for row in rows[1:]:
        for cell in row:
            float(cell)  # a numpy repr such as "np.float64(0.5)" raises here


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the flags were checked")


@pytest.mark.parametrize("args, message", [
    (["--ks", "a,b"], "--ks must be a comma-separated integer list, got 'a,b'"),
    (["--ks", ","], "--ks is empty"),
    (["--ks", "64,100"], "vocab_size must be a power of two >= 2, got 100"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--out", "{missing}/s.csv"], "{missing}/s.csv: not found"),
], ids=["ks-not-integers", "ks-empty", "k-not-power-of-two", "negative-seed",
        "missing-out-directory"])
def test_run_vocab_sweep_bad_flag_exits_2_before_any_work(args, message, tmp_path,
                                                          monkeypatch, capsys):
    sweep = load_script("run_vocab_sweep")
    monkeypatch.setattr(sweep, "make_corpus", _no_work)
    monkeypatch.setattr(sweep.vae, "train", _no_work)
    missing = tmp_path / "missing"
    argv = ["--out", str(tmp_path / "s.csv"), *args]
    monkeypatch.setattr(sys, "argv", ["run_vocab_sweep.py",
                                      *(arg.format(missing=missing) for arg in argv)])
    with pytest.raises(SystemExit) as exc:
        sweep.main()
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"usage error: {message.format(missing=missing)}\n")
    assert list(tmp_path.iterdir()) == []


def test_make_synthetic_corpus(tmp_path):
    out = tmp_path / "synth"
    done = run_script("make_synthetic_corpus.py", "--out", str(out), "--sequences", "2",
                      "--frames", "16", "--seed", "5", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    paths = sorted(out.glob("*.mseq"))
    assert [p.name for p in paths] == ["synth000.mseq", "synth001.mseq"]
    expected = make_corpus(2, 16, seed=5)
    for path, seq in zip(paths, expected):
        got = read_mseq(path)
        assert got.num_frames == 16
        np.testing.assert_array_equal(got.frames, seq.frames.astype("<f4"))


def test_make_synthetic_corpus_rejects_bad_frame_count(tmp_path):
    out = tmp_path / "synth"
    done = run_script("make_synthetic_corpus.py", "--out", str(out), "--frames", "20",
                      cwd=tmp_path)
    assert done.returncode == 2
    assert "--frames" in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


def test_module_entry_point_help(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "motok", "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: motok")

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motok import fileio, metrics, motion, populate, scene, synth, vae
from motok.cli import _vae_config, build_parser, dispatch
from motok.motion import FRAME_DIM, MotionSequence
from motok.scene import CONTACT_THRESHOLD, SceneVoxelGrid, _closest_pair_distances
from motok.vae import pad_frames, reconstruction_mse
from conftest import ZERO_SEGMENTS
from test_fileio import _forge, _golden_file, _header_end
from test_metrics import _reference_frechet_distance, _reference_r_precision
from test_populate import demo_room, too_small_pocket

ROOT = Path(__file__).resolve().parents[1]


def write_corpus(tmp_path, num=3, frames=48, seed=0):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for i, seq in enumerate(synth.make_corpus(num, frames, seed=seed)):
        fileio.write_mseq(data_dir / f"seq{i:02d}.mseq", seq)
    return data_dir


def run_motok(argv, cwd):
    """``motok`` in a fresh process: its stderr is what a user sees, warnings included."""
    return subprocess.run([sys.executable, "-m", "motok", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)


def train_small_vae(tmp_path, data_dir):
    out = tmp_path / "params.vae"
    code = dispatch(["train-vae", "--data", str(data_dir), "--out", str(out),
                     "--vocab-size", "64", "--hidden-width", "8",
                     "--epochs", "30", "--learning-rate", "0.3", "--seed", "1"])
    assert code == 0
    return out


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        assert dispatch(["convert", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = dispatch(["convert", "--in",
                         str(tmp_path / "nope.mseq"), "--out", str(tmp_path / "o.mseq")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("name, reason", [("missing/x.mseq", "not found"),
                                              ("taken", "Is a directory")])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, name, reason):
        (tmp_path / "taken").mkdir()
        out = tmp_path / name
        assert dispatch(["sample", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"usage error: {out}: {reason}\n"
        # no temp file is left next to the target
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert not any((tmp_path / "taken").iterdir())

    def test_help_exits_0(self, capsys):
        assert dispatch(["--help"]) == 0
        capsys.readouterr()


class TestConvert:
    def test_round_trip_through_files(self, tmp_path, rng):
        frames = np.zeros((9, FRAME_DIM))
        frames[:, 0:3] = rng.normal(size=(9, 3))
        frames[:, 4] = rng.uniform(-1, 1, size=9)
        seq = MotionSequence(frames, is_canonical=False)
        src = tmp_path / "global.mseq"
        fileio.write_mseq(src, seq)

        canon = tmp_path / "canon.mseq"
        assert dispatch(["convert", "--in", str(src),
                         "--out", str(canon)]) == 0
        canon_seq = fileio.read_mseq(canon)
        assert canon_seq.is_canonical
        np.testing.assert_allclose(canon_seq.frames[0, [0, 2]], 0.0, atol=1e-6)

        back = tmp_path / "back.mseq"
        x0, z0 = float(seq.frames[0, 0]), float(seq.frames[0, 2])
        yaw = float(seq.frames[0, 4])
        # --root-pose=<v> form: a leading minus sign confuses argparse otherwise
        assert dispatch(["convert", "--in", str(canon),
                         "--out", str(back),
                         f"--root-pose={x0},0,{z0},0,{yaw},0"]) == 0
        back_seq = fileio.read_mseq(back)
        np.testing.assert_allclose(back_seq.frames, seq.frames, atol=1e-5)

    def test_root_pose_on_global_input_exits_2(self, tmp_path, capsys):
        src, out = tmp_path / "global.mseq", tmp_path / "out.mseq"
        walk = synth.make_walk_sequence(num_frames=9)
        fileio.write_mseq(src, MotionSequence(walk.frames, is_canonical=False))
        # a zero pose is still a pose given: it is rejected, not ignored
        assert dispatch(["convert", "--in", str(src), "--out", str(out),
                         "--root-pose=0,0,0,0,0,0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error:" in err
        assert "--root-pose applies to canonical input" in err
        assert not out.exists()

    def test_omitted_root_pose_is_the_zero_pose(self, tmp_path):
        src = tmp_path / "canon.mseq"
        fileio.write_mseq(src, synth.make_walk_sequence(num_frames=9))
        omitted, zero = tmp_path / "omitted.mseq", tmp_path / "zero.mseq"
        assert dispatch(["convert", "--in", str(src), "--out", str(omitted)]) == 0
        assert dispatch(["convert", "--in", str(src), "--out", str(zero),
                         "--root-pose=0,0,0,0,0,0"]) == 0
        assert omitted.read_bytes() == zero.read_bytes()
        assert not fileio.read_mseq(omitted).is_canonical

    def test_root_pose_beyond_float32_exits_1_without_output(self, tmp_path):
        # the placed frames are finite in float64 but not in the file's float32
        fileio.write_mseq(tmp_path / "walk.mseq", synth.make_walk_sequence(num_frames=9))
        done = run_motok(["convert", "--in", "walk.mseq", "--out", "c.mseq",
                          "--root-pose=1e300,0,0,0,0,0"], tmp_path)
        assert done.returncode == 1
        assert done.stderr == "error: frames contain values beyond float32's range\n"
        assert not (tmp_path / "c.mseq").exists()

    def test_huge_root_pose_rotation_exits_2_without_a_warning(self, tmp_path):
        # the component's square overflows float64, so its norm reads inf
        fileio.write_mseq(tmp_path / "walk.mseq", synth.make_walk_sequence(num_frames=9))
        done = run_motok(["convert", "--in", "walk.mseq", "--out", "c.mseq",
                          "--root-pose=0,0,0,1e200,0,0"], tmp_path)
        assert done.returncode == 2
        assert done.stderr.splitlines()[1:] == [
            "motok convert: error: argument --root-pose: orientation rotation magnitude "
            "must be < 2*pi, got max inf"]


class TestTokenizeRoundTrip:
    def test_tokenize_detokenize_matches_vae_reconstruction(self, tmp_path):
        data_dir = write_corpus(tmp_path)
        vae_path = train_small_vae(tmp_path, data_dir)
        src = sorted(data_dir.glob("*.mseq"))[0]

        tok = tmp_path / "a.mtok"
        out = tmp_path / "a_back.mseq"
        assert dispatch(["tokenize", "--vae", str(vae_path), "--in", str(src),
                         "--out", str(tok)]) == 0
        assert dispatch(["detokenize", "--vae", str(vae_path), "--in", str(tok),
                         "--out", str(out)]) == 0

        source = fileio.read_mseq(src)
        decoded = fileio.read_mseq(out)
        assert decoded.num_frames == 8 * ((source.num_frames + 7) // 8)

        params = fileio.read_vae(vae_path)
        padded = pad_frames(source.frames)
        mse_files = float(((decoded.frames - padded) ** 2).mean())
        mse_direct = reconstruction_mse(params, source.frames)
        assert mse_files == pytest.approx(mse_direct, rel=1e-3, abs=1e-6)

    def test_tokenize_detokenize_bytes_from_a_fixed_vae(self, tmp_path):
        # inference computes in float64 whatever precision the trainer uses,
        # and this .vae is the float64 init of a fixed corpus, which no trainer
        # wrote.  Its lat_b[0] puts the first segment's first latent at
        # -2.3e-9, inside float32 rounding of zero, so a float32 encode flips
        # that token bit; a float32 decode changes the decoded frames' bytes.
        seq = synth.make_corpus(1, 48, seed=3)[0]
        params = vae.init_params(vae.ToyVaeConfig(seed=2), vae.segment_frames(seq.frames))
        params.tensors["lat_b"][0] = np.float32(-0.039205156)
        vae_path, src = tmp_path / "p.vae", tmp_path / "s.mseq"
        fileio.write_vae(vae_path, params)
        fileio.write_mseq(src, seq)
        tok, out = tmp_path / "s.mtok", tmp_path / "s_back.mseq"
        assert dispatch(["tokenize", "--vae", str(vae_path), "--in", str(src),
                         "--out", str(tok)]) == 0
        assert dispatch(["detokenize", "--vae", str(vae_path), "--in", str(tok),
                         "--out", str(out)]) == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (tok, out)]
        assert digests == ["62f5d4a421552cfc1043f125ce9b81db6b3f041156dc79ea34555604d31b8f14",
                           "c7dd0ee03c4bafc9d855979d83f8f36c926c28489489249b363d89e9f7b01de3"]

    def test_detokenize_keeps_the_source_fps_and_representation(self, tmp_path):
        data_dir = write_corpus(tmp_path)
        vae_path = train_small_vae(tmp_path, data_dir)
        walk = tmp_path / "walk.mseq"
        fileio.write_mseq(walk, MotionSequence(synth.make_walk_sequence(num_frames=20).frames,
                                               fps=20, is_canonical=True))
        for src, fps, canonical in [(walk, 20, True), (data_dir / "seq00.mseq", 30, False)]:
            tok, out = tmp_path / f"{src.stem}.mtok", tmp_path / f"{src.stem}_back.mseq"
            assert dispatch(["tokenize", "--vae", str(vae_path), "--in", str(src),
                             "--out", str(tok)]) == 0
            assert dispatch(["detokenize", "--vae", str(vae_path), "--in", str(tok),
                             "--out", str(out)]) == 0
            decoded = fileio.read_mseq(out)
            assert (decoded.fps, decoded.is_canonical) == (fps, canonical)
        assert fileio.read_mseq(tmp_path / "walk_back.mseq").num_frames == 24
        # the decoded walk is local motion, so populate places it
        assert dispatch(["populate", "--scene", str(make_room(tmp_path)), "--motion",
                         str(tmp_path / "walk_back.mseq"), "--out", str(tmp_path / "placed.mseq"),
                         "--report", str(tmp_path / "placement.json")]) == 0
        assert not fileio.read_mseq(tmp_path / "placed.mseq").is_canonical

    def test_detokenize_matches_reconstruct_when_a_rotation_wraps(self, tmp_path):
        # a decoded root rotation of magnitude ~6.5 > 2*pi must be wrapped the
        # same way by both paths
        frames = np.zeros((16, FRAME_DIM))
        params = vae.init_params(vae.ToyVaeConfig(vocab_size=16, hidden_width=8),
                                 frames.reshape(-1, 8, FRAME_DIM))
        params.tensors["in_shift"][3] = 6.5
        vae_path, src = tmp_path / "p.vae", tmp_path / "z.mseq"
        fileio.write_vae(vae_path, params)
        fileio.write_mseq(src, MotionSequence(frames))
        tok, out = tmp_path / "z.mtok", tmp_path / "z_back.mseq"
        assert dispatch(["tokenize", "--vae", str(vae_path), "--in", str(src),
                         "--out", str(tok)]) == 0
        assert dispatch(["detokenize", "--vae", str(vae_path), "--in", str(tok),
                         "--out", str(out)]) == 0
        expected = vae.reconstruct(fileio.read_vae(vae_path), frames)[0]
        np.testing.assert_array_equal(fileio.read_mseq(out).frames,
                                      expected.astype(np.float32))

    def test_vocab_mismatch_rejected(self, tmp_path, capsys):
        data_dir = write_corpus(tmp_path)
        vae_path = train_small_vae(tmp_path, data_dir)
        stream_path = tmp_path / "w.mtok"
        from motok.lfq import TokenStream
        fileio.write_mtok(stream_path, TokenStream(indices=np.array([0, 1]),
                                                   vocab_size=128, fps=30, is_canonical=False))
        assert dispatch(["detokenize", "--vae", str(vae_path), "--in",
                         str(stream_path), "--out", str(tmp_path / "o.mseq")]) == 2
        capsys.readouterr()

    def test_version_2_mtok_rejected(self, tmp_path, capsys):
        data_dir = write_corpus(tmp_path)
        vae_path = train_small_vae(tmp_path, data_dir)
        # version 2: magic, version, vocab_size, num_tokens, u16 indices (no fps or flag)
        stream_path = tmp_path / "v2.mtok"
        stream_path.write_bytes(b"MTOK" + struct.pack("<III", 2, 64, 3)
                                + struct.pack("<3H", 0, 1, 2))
        out = tmp_path / "o.mseq"
        assert dispatch(["detokenize", "--vae", str(vae_path), "--in",
                         str(stream_path), "--out", str(out)]) == 1
        assert "unsupported MTOK version 2, expected version 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("num_tokens", [39, 200_000])
    def test_mtok_longer_than_any_motion_exits_1_before_decoding(self, tmp_path, capsys,
                                                                 monkeypatch, num_tokens):
        vae_path = _golden_file(tmp_path, ".vae")  # vocab 16
        stream_path = tmp_path / "long.mtok"
        stream_path.write_bytes(b"MTOK" + struct.pack("<IIIIB", 3, 16, num_tokens, 30, 0)
                                + bytes(2 * num_tokens))
        monkeypatch.setattr(vae, "decode", _no_work)
        out = tmp_path / "o.mseq"
        assert dispatch(["detokenize", "--vae", str(vae_path), "--in", str(stream_path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: token files hold at most 38 tokens, "
                                           f"got {num_tokens}\n")
        assert not out.exists()

    def test_zero_hidden_width_rejected(self, tmp_path, capsys):
        vae_path = tmp_path / "w0.vae"
        # write_vae refuses a width that ToyVaeParams refuses, so the file is
        # forged: each tensor's name length, name and float32 data
        _forge(vae_path, fileio._VAE, (64, 0), *[
            struct.pack("<H", len(name)) + name.encode()
            + (np.ones if name == "in_scale" else np.zeros)(shape, "<f4").tobytes()
            for name, shape in vae.tensor_shapes(64, 0).items()])
        src = tmp_path / "m.mseq"
        fileio.write_mseq(src, synth.make_corpus(1, 16, seed=1)[0])
        out = tmp_path / "t.mtok"
        assert dispatch(["tokenize", "--vae", str(vae_path), "--in", str(src),
                         "--out", str(out)]) == 1
        assert "hidden_width must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_vae_without_standardization_rejected(self, tmp_path, capsys):
        params = vae.init_params(vae.ToyVaeConfig(vocab_size=64, hidden_width=4),
                                 ZERO_SEGMENTS)
        vae_path = tmp_path / "p16.vae"
        fileio.write_vae(vae_path, params)
        # the in_shift and in_scale records end the file: a name length, the
        # name and 75 float32 values each
        record = 2 + len("in_shift") + 4 * FRAME_DIM
        vae_path.write_bytes(vae_path.read_bytes()[:-2 * record])
        src = tmp_path / "m.mseq"
        fileio.write_mseq(src, synth.make_corpus(1, 16, seed=1)[0])
        out = tmp_path / "t.mtok"
        assert dispatch(["tokenize", "--vae", str(vae_path), "--in", str(src),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: truncated file while reading name length\n"
        assert not out.exists()


class TestTrainVae:
    def test_writes_params_and_history(self, tmp_path):
        data_dir = write_corpus(tmp_path)
        out = tmp_path / "model"
        out.mkdir()
        vae_path = out / "params.vae"
        code = dispatch(["train-vae", "--data", str(data_dir), "--out", str(vae_path),
                         "--vocab-size", "16", "--hidden-width", "6",
                         "--epochs", "5", "--learning-rate", "0.1", "--seed", "0"])
        assert code == 0
        assert vae_path.exists()
        history = (out / "loss_history.csv").read_text().splitlines()
        assert history[0] == "epoch,recon,commit,entropy,total"
        assert len(history) == 6

    def test_history_columns_follow_the_trainer_rows(self, tmp_path, monkeypatch):
        data_dir = write_corpus(tmp_path, num=1, frames=16)
        rows = [{"epoch": 0, "recon": 0.5, "usage": 0.25}, {"epoch": 1, "recon": 0.125,
                                                              "usage": 1.0}]
        params = vae.init_params(vae.ToyVaeConfig(vocab_size=16, hidden_width=4),
                                 ZERO_SEGMENTS)
        monkeypatch.setattr(vae, "train", lambda config, dataset: (params, rows))
        history = tmp_path / "h.csv"
        assert dispatch(["train-vae", "--data", str(data_dir), "--out",
                         str(tmp_path / "p.vae"), "--history", str(history)]) == 0
        assert history.read_text() == "epoch,recon,usage\n0,0.5,0.25\n1,0.125,1.0\n"

    @pytest.mark.parametrize("learning_rate", ["1e5", "1e50"])
    def test_divergence_prints_one_error_line(self, tmp_path, learning_rate):
        # a fresh process: pytest would capture a numpy RuntimeWarning in-process
        data_dir = write_corpus(tmp_path, num=1, frames=32)
        done = run_motok(["train-vae", "--data", str(data_dir), "--out", str(tmp_path / "p.vae"),
                          "--learning-rate", learning_rate], cwd=tmp_path)
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: non-finite loss"), done.stderr


class TestSample:
    def test_writes_waypoint_track(self, tmp_path):
        out = tmp_path / "track.mseq"
        assert dispatch(["sample", "--steps", "20", "--seed", "5",
                         "--waypoints", "6", "--out", str(out)]) == 0
        seq = fileio.read_mseq(out)
        assert seq.num_frames == 6
        assert seq.fps == 1
        assert not seq.is_canonical
        assert np.any(seq.frames[:, 0:6] != 0)
        assert np.all(seq.frames[:, 6:69] == 0)

    def test_deterministic_per_seed(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.mseq", "b.mseq", "c.mseq"))
        for path in (a, b):
            assert dispatch(["sample", "--seed", "9", "--out", str(path)]) == 0
        assert dispatch(["sample", "--seed", "10", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_heading_guidance_changes_track(self, tmp_path):
        plain = tmp_path / "p.mseq"
        guided = tmp_path / "g.mseq"
        assert dispatch(["sample", "--seed", "4", "--out", str(plain)]) == 0
        assert dispatch(["sample", "--seed", "4", "--heading", "1.2",
                         "--cfg-scale", "2.0", "--out", str(guided)]) == 0
        assert plain.read_bytes() != guided.read_bytes()

    def test_two_pass_runs(self, tmp_path):
        out = tmp_path / "tp.mseq"
        assert dispatch(["sample", "--seed", "2", "--two-pass", "--waypoints", "8",
                         "--out", str(out)]) == 0
        assert fileio.read_mseq(out).num_frames == 8


def make_room(tmp_path, nx=16, nz=16, ny=16, occupied=()):
    occ = np.zeros((nx, nz, ny), dtype=np.uint8)
    occ[0, :, :] = occ[-1, :, :] = 1
    occ[:, 0, :] = occ[:, -1, :] = 1
    for ix, iz in occupied:
        occ[ix, iz, :] = 1
    grid = SceneVoxelGrid(occ, np.zeros(3), 0.1)
    path = tmp_path / "scene.vox"
    fileio.write_vox(path, grid)
    return path


class TestPopulate:
    def test_feasible_placement(self, tmp_path):
        scene = make_room(tmp_path)
        motion_path = tmp_path / "walk.mseq"
        fileio.write_mseq(motion_path, synth.make_walk_sequence(num_frames=10,
                                                                speed=0.3,
                                                                arm_swing=0.0))
        out = tmp_path / "placed.mseq"
        report = tmp_path / "placement.json"
        code = dispatch(["populate", "--scene", str(scene), "--motion",
                         str(motion_path), "--out", str(out), "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["feasible"] is True
        assert payload["collision"] == 0.0
        assert set(payload["offset"]) == {"x", "z", "yaw"}
        assert payload["candidates_evaluated"] > 16 * 16
        # the seed already scores 0, so the search stops after scoring it
        assert (payload["candidates_scored"], payload["candidates_pruned"]) == (1, 0)
        placed = fileio.read_mseq(out)
        assert not placed.is_canonical

    def test_scene_less_exit_code(self, tmp_path, capsys):
        occ = np.ones((4, 4, 4), dtype=np.uint8)
        scene = tmp_path / "full.vox"
        fileio.write_vox(scene, SceneVoxelGrid(occ, np.zeros(3), 0.1))
        motion_path = tmp_path / "walk.mseq"
        fileio.write_mseq(motion_path, synth.make_walk_sequence(num_frames=9))
        report = tmp_path / "placement.json"
        code = dispatch(["populate", "--scene", str(scene), "--motion",
                         str(motion_path), "--out", str(tmp_path / "p.mseq"),
                         "--report", str(report)])
        assert code == 1
        assert json.loads(report.read_text())["feasible"] is False
        capsys.readouterr()

    def test_threshold_judges_the_collision(self, tmp_path, capsys):
        scene = tmp_path / "pocket.vox"
        fileio.write_vox(scene, too_small_pocket())
        motion_path = tmp_path / "walk.mseq"
        fileio.write_mseq(motion_path, synth.make_walk_sequence(num_frames=25, arm_swing=0.0))
        out, report = tmp_path / "placed.mseq", tmp_path / "placement.json"
        argv = ["populate", "--scene", str(scene), "--motion", str(motion_path),
                "--out", str(out), "--report", str(report)]
        assert dispatch(argv) == 1
        payload = json.loads(report.read_text())
        assert payload["feasible"] is False and payload["collision"] > 1e-3
        assert "infeasible placement" in capsys.readouterr().err
        assert out.exists()
        # a threshold equal to the collision accepts the same placement
        assert dispatch([*argv, f"--threshold={payload['collision']!r}"]) == 0
        assert json.loads(report.read_text()) == {**payload, "feasible": True}


@pytest.mark.parametrize("cell", [np.inf, np.nan])
@pytest.mark.parametrize("command", ["score", "populate"])
def test_vox_cell_size_not_finite_exits_1(tmp_path, capsys, command, cell):
    scene = make_room(tmp_path)
    blob = bytearray(scene.read_bytes())
    at = _header_end(fileio._VOX) - 4  # the f32 cell size ends the header
    blob[at:at + 4] = struct.pack("<f", cell)
    scene.write_bytes(bytes(blob))
    walk = synth.make_walk_sequence(num_frames=9)
    motion_path = tmp_path / "m.mseq"
    fileio.write_mseq(motion_path, MotionSequence(walk.frames, is_canonical=command == "populate"))
    argv = {"score": ["score", "--scene", str(scene), "--motion", str(motion_path)],
            "populate": ["populate", "--scene", str(scene), "--motion", str(motion_path),
                         "--out", str(tmp_path / "p.mseq")]}[command]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cell_size must be finite and > 0") and err.count("\n") == 1


@pytest.mark.parametrize("shape, cells", [((400, 400, 400), "400 x 400 x 400"),
                                          ((10_000, 5, 5), "1e+04 x 5 x 5")],
                         ids=["400^3", "10000x5x5"])
@pytest.mark.parametrize("command", ["score", "populate"])
def test_vox_beyond_the_grid_cap_exits_1_at_once(tmp_path, capsys, command, shape, cells):
    # the header alone: the cap is checked before the payload is read
    scene = tmp_path / "big.vox"
    _forge(scene, fileio._VOX, (*shape, 0.0, 0.0, 0.0, 0.05))
    assert scene.stat().st_size == 36
    walk = synth.make_walk_sequence(num_frames=9)
    motion_path = tmp_path / "m.mseq"
    fileio.write_mseq(motion_path, MotionSequence(walk.frames, is_canonical=command == "populate"))
    argv = {"score": ["score", "--scene", str(scene), "--motion", str(motion_path)],
            "populate": ["populate", "--scene", str(scene), "--motion", str(motion_path),
                         "--out", str(tmp_path / "p.mseq")]}[command]
    start = time.perf_counter()
    assert dispatch(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (f"error: scene needs a grid of {cells} cells, "
                                       f"more than 256 on an axis\n")
    assert not (tmp_path / "p.mseq").exists()


# imports motok, then caps its own address space at what it holds plus 64 MiB
_MEMORY_CAPPED_MOTOK = """
import resource, sys
from motok.cli import dispatch
with open("/proc/self/status") as status:
    kib = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS,
                   ((kib + 64 * 1024) * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(dispatch(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_out_of_memory_exits_1_with_one_line(tmp_path):
    # a grid under the cap whose SDF needs 32 MiB float64 arrays, more than the
    # 64 MiB left hold; one OpenBLAS thread keeps the child's own buffers fixed
    occupancy = np.zeros((256, 256, 64), dtype=bool)
    occupancy[0, 0, 0] = True
    fileio.write_vox(tmp_path / "big.vox",
                     SceneVoxelGrid(occupancy=occupancy, origin=np.zeros(3), cell_size=0.05))
    walk = synth.make_walk_sequence(num_frames=9)
    fileio.write_mseq(tmp_path / "m.mseq", MotionSequence(walk.frames, is_canonical=False))
    done = subprocess.run(
        [sys.executable, "-c", _MEMORY_CAPPED_MOTOK, "score", "--scene", "big.vox",
         "--motion", "m.mseq"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("value, message", [
    (np.nan, "error: points contain non-finite values\n"),
    (np.inf, "error: points contain non-finite values\n"),
    (1e30, "error: point cloud needs a grid of"),
], ids=["nan", "inf", "1e30"])
def test_object_points_not_finite_or_too_far_exit_1(tmp_path, value, message):
    walk = synth.make_walk_sequence(num_frames=9, with_object=True)
    motion_path = tmp_path / "m.mseq"
    fileio.write_mseq(motion_path, MotionSequence(walk.frames, is_canonical=False))
    points = np.random.default_rng(0).uniform(-0.1, 0.1, (64, 3))
    points[5, 1] = value
    # write_pts refuses a non-finite point, so the file is forged
    _forge(tmp_path / "o.pts", fileio._PTS, points.shape[:1], points.astype("<f4").tobytes())
    report = tmp_path / "score.json"
    done = run_motok(["score", "--motion", str(motion_path), "--object",
                      str(tmp_path / "o.pts"), "--report", str(report)], tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith(message) and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert not report.exists()


def test_object_points_a_kilometre_apart_exit_1_at_once(tmp_path, capsys):
    walk = synth.make_walk_sequence(num_frames=9, with_object=True)
    motion_path = tmp_path / "m.mseq"
    fileio.write_mseq(motion_path, MotionSequence(walk.frames, is_canonical=False))
    fileio.write_pts(tmp_path / "o.pts", np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]]))
    start = time.perf_counter()
    code = dispatch(["score", "--motion", str(motion_path), "--object", str(tmp_path / "o.pts")])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: point cloud needs a grid of 2e+04 x 5 x 5 cells")
    assert err.count("\n") == 1


class TestScoreAndEval:
    def test_score_scene_and_object(self, tmp_path, capsys):
        scene = make_room(tmp_path)
        seq = synth.make_walk_sequence(num_frames=9, speed=0.3, arm_swing=0.0,
                                       with_object=True)
        placed = MotionSequence(seq.frames + np.r_[[0.8, 0, 0.8], np.zeros(72)],
                                fps=seq.fps, is_canonical=False)
        motion_path = tmp_path / "m.mseq"
        fileio.write_mseq(motion_path, placed)
        pts = tmp_path / "o.pts"
        fileio.write_pts(pts, np.random.default_rng(0).uniform(-0.1, 0.1, (64, 3)))
        report = tmp_path / "score.json"
        code = dispatch(["score", "--scene", str(scene), "--motion", str(motion_path),
                         "--object", str(pts), "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        for key in ("collision", "collision_scene", "contact"):
            assert key in payload
        capsys.readouterr()

    def test_score_requires_scene_or_object(self, tmp_path, capsys):
        motion_path = tmp_path / "m.mseq"
        fileio.write_mseq(motion_path, synth.make_corpus(1, 16, seed=1)[0])
        assert dispatch(["score", "--motion", str(motion_path)]) == 2
        capsys.readouterr()

    def test_score_without_scene_or_object_exits_2_before_reading(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.setattr(fileio, "read_mseq", _no_work)
        assert dispatch(["score", "--motion", str(tmp_path / "m.mseq")]) == 2
        assert ("geometry scores need --motion with --scene and/or --object"
                in capsys.readouterr().err)

    @staticmethod
    def write_features(tmp_path, real, gen, text):
        """Write the three feature files; return the ``eval`` argv that reads them."""
        for name, feats in (("real", real), ("gen", gen), ("text", text)):
            fileio.write_feat(tmp_path / f"{name}.feat", feats)
        return ["eval", "--real", str(tmp_path / "real.feat"),
                "--gen", str(tmp_path / "gen.feat"),
                "--text", str(tmp_path / "text.feat"),
                "--report", str(tmp_path / "report.json")]

    @classmethod
    def write_eval_inputs(cls, tmp_path, rng, rows):
        real = rng.normal(size=(rows, 12))
        gen = rng.normal(size=(rows, 12)) * 1.2 + 0.1
        text = gen + rng.normal(0, 0.5, size=(rows, 12))
        return real, gen, text, cls.write_features(tmp_path, real, gen, text)

    @classmethod
    def run_eval(cls, tmp_path, rng, rows):
        real, gen, _, argv = cls.write_eval_inputs(tmp_path, rng, rows)
        assert dispatch(argv) == 0
        return real, gen, json.loads((tmp_path / "report.json").read_text())

    def test_eval_report_keys(self, tmp_path, rng):
        real, gen, payload = self.run_eval(tmp_path, rng, 64)
        assert set(payload) == {"fid", "r1", "r2", "r3", "mmd", "diversity"}
        assert payload["r1"] <= payload["r2"] <= payload["r3"]
        stats_real = metrics.fit_gaussian(real)
        stats_gen = metrics.fit_gaussian(gen)
        assert payload["fid"] == pytest.approx(
            metrics.frechet_distance(stats_real, stats_gen), rel=1e-4)

    @pytest.mark.parametrize("rows", [40, 2 * metrics.DIVERSITY_PAIRS])
    def test_eval_writes_nothing_to_stderr(self, tmp_path, rng, rows):
        _, _, _, argv = self.write_eval_inputs(tmp_path, rng, rows)
        done = run_motok(argv, tmp_path)
        assert (done.returncode, done.stderr) == (0, "")

    def test_eval_r_precision_matches_per_k_reference(self, tmp_path, rng):
        _, gen, text, argv = self.write_eval_inputs(tmp_path, rng, 600)
        assert dispatch(argv + ["--seed", "4"]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        for k in (1, 2, 3):
            assert payload[f"r{k}"] == _reference_r_precision(gen, text, pool_size=32,
                                                              k=k, seed=4)

    def test_eval_fid_with_singular_real_covariance(self, tmp_path, rng, monkeypatch):
        # 40 rows of 64 features: S_real is singular, so FID takes the eigendecomposition
        gen = rng.normal(size=(40, 64)) * 1.2 + 0.1
        argv = self.write_features(tmp_path, rng.normal(size=(40, 64)), gen, gen)
        calls = []
        psd_sqrt = metrics._psd_sqrt
        monkeypatch.setattr(metrics, "_psd_sqrt",
                            lambda matrix: calls.append(matrix) or psd_sqrt(matrix))
        assert dispatch(argv) == 0
        assert len(calls) == 1
        stats_real = metrics.fit_gaussian(fileio.read_feat(tmp_path / "real.feat"))
        stats_gen = metrics.fit_gaussian(fileio.read_feat(tmp_path / "gen.feat"))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["fid"] == pytest.approx(
            _reference_frechet_distance(stats_real, stats_gen), rel=1e-9)

    def test_eval_identical_large_scale_features_fid_zero(self, tmp_path):
        # at this seed and scale the rounding of tr S_a + tr S_b - 2 tr (S_a S_b)^(1/2)
        # lands below an absolute -1e-6
        feats = np.random.default_rng(0).normal(size=(300, 40)) * 1e4
        argv = self.write_features(tmp_path, feats, feats, feats)
        assert dispatch(argv) == 0
        stats = metrics.fit_gaussian(fileio.read_feat(tmp_path / "real.feat"))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["fid"] <= 1e-12 * np.trace(stats.covariance)

    def test_eval_corrupt_feature_count_is_domain_error(self, tmp_path, rng):
        _, _, _, argv = self.write_eval_inputs(tmp_path, rng, 64)
        blob = bytearray((tmp_path / "gen.feat").read_bytes())
        blob[8:16] = struct.pack("<II", 1 << 31, 1 << 31)  # N, F after the magic and version
        (tmp_path / "gen.feat").write_bytes(bytes(blob))
        done = run_motok(argv, tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith("error: truncated file")
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_eval_text_features_not_finite_exit_1(self, tmp_path, rng, value):
        _, _, text, argv = self.write_eval_inputs(tmp_path, rng, 64)
        text[3, 2] = value
        # write_feat refuses a non-finite feature, so the file is forged
        _forge(tmp_path / "text.feat", fileio._FEAT, text.shape, text.astype("<f4").tobytes())
        done = run_motok(argv, tmp_path)
        assert done.returncode == 1
        assert done.stderr == "error: features contain non-finite values\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("flag", ["--scene", "--object"])
    def test_eval_geometry_input_without_motion_is_usage_error(self, tmp_path, rng, capsys,
                                                               flag):
        _, _, _, argv = self.write_eval_inputs(tmp_path, rng, 64)
        assert dispatch(argv + [flag, str(tmp_path / "missing.vox")]) == 2
        assert "geometry scores need --motion" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_eval_motion_without_scene_or_object_is_usage_error(self, tmp_path, rng, capsys):
        _, _, _, argv = self.write_eval_inputs(tmp_path, rng, 64)
        motion_path = tmp_path / "m.mseq"
        fileio.write_mseq(motion_path, synth.make_corpus(1, 16, seed=1)[0])
        assert dispatch(argv + ["--motion", str(motion_path)]) == 2
        assert "geometry scores need --motion" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_eval_geometry_equals_score_report(self, tmp_path, rng):
        seq = synth.make_walk_sequence(num_frames=9, speed=0.3, arm_swing=0.0,
                                       with_object=True)
        motion_path = tmp_path / "m.mseq"
        fileio.write_mseq(motion_path, MotionSequence(
            seq.frames + np.r_[[0.8, 0, 0.8], np.zeros(72)], fps=seq.fps, is_canonical=False))
        pts = tmp_path / "o.pts"
        fileio.write_pts(pts, np.random.default_rng(0).uniform(-0.6, 0.6, (256, 3)))
        geometry = ["--motion", str(motion_path), "--scene", str(make_room(tmp_path)),
                    "--object", str(pts)]
        assert dispatch(["score", *geometry, "--report", str(tmp_path / "score.json")]) == 0
        _, _, _, argv = self.write_eval_inputs(tmp_path, rng, 64)
        assert dispatch(argv + geometry) == 0
        score = json.loads((tmp_path / "score.json").read_text())
        payload = json.loads((tmp_path / "report.json").read_text())
        assert score["contact"] > 0.0
        assert {key: payload[key] for key in score} == score
        assert set(payload) - set(score) == {"fid", "r1", "r2", "r3", "mmd", "diversity"}

    def test_eval_canonical_motion_exits_2_before_feature_work(self, tmp_path, rng, capsys,
                                                              monkeypatch):
        _, _, _, argv = self.write_eval_inputs(tmp_path, rng, 64)
        motion_path = tmp_path / "m.mseq"
        fileio.write_mseq(motion_path, synth.make_walk_sequence(num_frames=9))
        pts = tmp_path / "o.pts"
        fileio.write_pts(pts, rng.uniform(-0.1, 0.1, (8, 3)))
        monkeypatch.setattr(fileio, "read_feat", _no_work)
        monkeypatch.setattr(metrics, "fit_gaussian", _no_work)
        assert dispatch(argv + ["--motion", str(motion_path), "--object", str(pts)]) == 2
        assert "geometry scoring expects a global motion" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_eval_zero_feature_columns_exit_1(self, tmp_path, rng, capsys):
        _, _, _, argv = self.write_eval_inputs(tmp_path, rng, 64)
        fileio.write_feat(tmp_path / "real.feat", np.zeros((64, 0)))
        assert dispatch(argv) == 1
        assert "need at least 1 feature column" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


def _reference_geometry(motion_path, room_path, points_path) -> dict:
    """``score``'s report from every keypoint-point pair, before contact skipped any."""
    seq = fileio.read_mseq(motion_path)
    keypoints = scene.body_keypoints(seq)
    pen, frac = scene.collision_score(keypoints, scene.build_sdf(fileio.read_vox(room_path)))
    points = fileio.read_pts(points_path)
    rot = motion.axis_angle_to_matrix(seq.frames[:, motion.OBJ_ROT])
    local = np.einsum("tba,tjb->tja", rot, keypoints - seq.frames[:, None, motion.OBJ_POS])
    obj_pen, obj_frac = scene.collision_score(
        local, scene.build_sdf(scene.voxelize_points(points, cell_size=0.05)))
    closest = _closest_pair_distances(local, points)
    return {"collision_scene": pen, "collision_scene_fraction": frac,
            "collision": obj_pen, "collision_fraction": obj_frac,
            "contact": np.count_nonzero(closest < CONTACT_THRESHOLD) / seq.num_frames}


def _reference_features(real, gen, text, seed) -> dict:
    """``eval``'s feature metrics from whole-matrix paired distances and row-by-row
    Floyd pools (``_reference_r_precision``)."""
    n = gen.shape[0]
    count = min(metrics.DIVERSITY_PAIRS, n // 2)
    first, second = np.split(np.random.default_rng(seed).permutation(n)[:2 * count], 2)
    report = {
        "fid": metrics.frechet_distance(metrics.fit_gaussian(real), metrics.fit_gaussian(gen)),
        "mmd": float(np.linalg.norm(gen - text, axis=1).mean()),
        "diversity": float(np.linalg.norm(gen[first] - gen[second], axis=1).mean()),
    }
    for k in (1, 2, 3):
        report[f"r{k}"] = _reference_r_precision(gen, text, pool_size=32, k=k, seed=seed)
    return report


def _report_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("seed, rows", [(0, 200), (1, 200), (2, 200), (3, 200), (4, 200),
                                        (0, 600)])
def test_eval_and_score_reports_equal_a_reference_byte_for_byte(tmp_path, seed, rows):
    rng = np.random.default_rng(seed)
    real = rng.normal(size=(rows, 40))
    gen = rng.normal(size=(rows, 40)) * 1.2 + 0.1
    text = gen + 3.0 * rng.normal(size=(rows, 40))
    argv = TestScoreAndEval.write_features(tmp_path, real, gen, text)
    room, clip, cloud = tmp_path / "room.vox", tmp_path / "clip.mseq", tmp_path / "object.pts"
    fileio.write_vox(room, demo_room())
    walk = synth.make_walk_sequence(num_frames=31, arm_swing=0.2, with_object=True)
    # the walk crosses the demo room's pillar, and the object by its torso slides
    # 0.3 m along x, so only some frames are in contact
    frames = motion.to_global(walk, motion.SixDof(translation=np.array([1.95, 0.0, 1.5]),
                                                  orientation=np.zeros(3))).frames.copy()
    frames[:, motion.OBJ_POS.start] += np.linspace(0.0, 0.3, frames.shape[0])
    fileio.write_mseq(clip, MotionSequence(frames, fps=walk.fps))
    center = np.array([-0.25, 0.25, -0.4]) + rng.uniform(-0.1, 0.1, 3)
    fileio.write_pts(cloud, center + rng.uniform(-0.12, 0.12, (256, 3)))
    geometry = ["--motion", str(clip), "--scene", str(room), "--object", str(cloud)]
    assert dispatch(["score", *geometry, "--report", str(tmp_path / "score.json")]) == 0
    assert dispatch([*argv, "--seed", str(seed), *geometry]) == 0
    expected = _reference_geometry(clip, room, cloud)
    assert expected["collision_scene"] > 0.0 and 0.0 < expected["contact"] < 1.0
    assert (tmp_path / "score.json").read_bytes() == _report_bytes(expected)
    expected.update(_reference_features(fileio.read_feat(tmp_path / "real.feat"),
                                        fileio.read_feat(tmp_path / "gen.feat"),
                                        fileio.read_feat(tmp_path / "text.feat"), seed))
    assert (tmp_path / "report.json").read_bytes() == _report_bytes(expected)


def test_eval_holds_at_most_four_feature_matrices(tmp_path):
    """``eval`` at the benchmark's N=1000, F=227 peaks below four (N, F) float64
    matrices: ``--real`` is fitted before ``--gen`` is read, and ``--text`` is
    read after the FID."""
    rows, dim = 1000, 227
    rng = np.random.default_rng(0)
    gen = rng.normal(size=(rows, dim))
    argv = TestScoreAndEval.write_features(tmp_path, rng.normal(size=(rows, dim)), gen,
                                           gen + 3.0 * rng.normal(size=(rows, dim)))
    del gen
    assert dispatch(argv) == 0  # imports and first-call caches stay out of the peak
    tracemalloc.start()
    try:
        assert dispatch(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * rows * dim * 8, f"peak {peak / (rows * dim * 8):.2f} feature matrices"


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Valid inputs for every command, so only the flag under test is bad."""
    root = tmp_path_factory.mktemp("inputs")
    data_dir = write_corpus(root, num=2, frames=16)
    vae_path = root / "p.vae"
    assert dispatch(["train-vae", "--data", str(data_dir), "--out", str(vae_path),
                     "--vocab-size", "16", "--hidden-width", "4", "--epochs", "1"]) == 0
    motion_path = root / "walk.mseq"
    fileio.write_mseq(motion_path, synth.make_walk_sequence(num_frames=9))
    feat_path = root / "f.feat"
    fileio.write_feat(feat_path, np.random.default_rng(0).normal(size=(64, 8)))
    return {"data": data_dir, "vae": vae_path,
            "scene": make_room(root), "motion": motion_path, "feat": feat_path}


@pytest.mark.parametrize("argv, message", [
    (["sample", "--waypoints", "0", "--out", "{out}/s.mseq"],
     "argument --waypoints: must be in [1, 304], got 0"),
    (["sample", "--waypoints", "400", "--out", "{out}/s.mseq"],
     "argument --waypoints: must be in [1, 304], got 400"),
    (["sample", "--steps", "0", "--out", "{out}/s.mseq"],
     "argument --steps: must be in [1, 1000], got 0"),
    (["sample", "--steps", "1001", "--out", "{out}/s.mseq"],
     "argument --steps: must be in [1, 1000], got 1001"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--vocab-size", "100"],
     "vocab_size must be a power of two >= 2, got 100"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--epochs", "0"],
     "epochs must be >= 1, got 0"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--vocab-size", "1"],
     "vocab_size must be a power of two >= 2, got 1"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--hidden-width", "0"],
     "hidden_width must be >= 1, got 0"),
    (["populate", "--scene", "{scene}", "--motion", "{motion}", "--out", "{out}/p.mseq",
      "--report", "{out}/r.json", "--yaw-count", "0"],
     "argument --yaw-count: must be >= 1, got 0"),
    (["populate", "--scene", "{scene}", "--motion", "{motion}", "--out", "{out}/p.mseq",
      "--report", "{out}/r.json", "--threshold", "-1"],
     "--threshold must be >= 0, got -1.0"),
    (["populate", "--scene", "{scene}", "--motion", "{motion}", "--out", "{out}/p.mseq",
      "--report", "{out}/r.json", "--threshold", "nan"],
     "argument --threshold: must be a finite number, got nan"),
    (["sample", "--cfg-scale", "nan", "--out", "{out}/s.mseq"],
     "argument --cfg-scale: must be a finite number, got nan"),
    (["sample", "--heading", "nan", "--out", "{out}/s.mseq"],
     "argument --heading: must be a finite number, got nan"),
    (["sample", "--seed", "-1", "--out", "{out}/s.mseq"],
     "argument --seed: must be >= 0, got -1"),
    (["convert", "--in", "{motion}", "--out", "{out}/c.mseq",
      "--root-pose=nan,0,0,0,0,0"],
     "argument --root-pose: must be a finite number, got nan"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--learning-rate", "nan"],
     "learning_rate must be finite, got nan"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--learning-rate", "inf"],
     "learning_rate must be finite, got inf"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--lambda-commit", "nan"],
     "lambda_commit must be finite, got nan"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--lambda-entropy", "nan"],
     "lambda_entropy must be finite, got nan"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["eval", "--real", "{feat}", "--gen", "{feat}", "--text", "{feat}",
      "--report", "{out}/e.json", "--seed", "-1"],
     "argument --seed: must be >= 0, got -1"),
    (["eval", "--real", "{feat}", "--gen", "{feat}", "--text", "{feat}",
      "--report", "{out}/e.json", "--pool-size", "2"],
     "argument --pool-size: must be >= 3, got 2"),
    (["sample", "--cfg-scale", "5", "--out", "{out}/s.mseq"],
     "--cfg-scale needs --heading"),
    (["convert", "--in", "{motion}", "--out", "{out}/c.mseq", "--root-pose=0,0,0,0,0,7"],
     "argument --root-pose: orientation rotation magnitude must be < 2*pi, got max 7.000000"),
    (["populate", "--scene", "{scene}", "--motion", "{data}/seq00.mseq", "--out", "{out}/p.mseq",
      "--report", "{out}/r.json"],
     "populate expects a canonical motion (convert first)"),
    (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--vocab-size", "131072"],
     "vocab_size must be at most 65536, got 131072"),
])
def test_bad_flag_value_is_usage_error_before_any_work(argv, message, cli_inputs, tmp_path,
                                                        capsys):
    out = tmp_path / "out"
    out.mkdir()
    code = dispatch([arg.format(out=out, **cli_inputs) for arg in argv])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the output directory was checked")


@pytest.mark.parametrize("argv", [
    ["train-vae", "--data", "{data}", "--out", "{missing}/p.vae"],
    ["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--history", "{missing}/h.csv"],
    ["populate", "--scene", "{scene}", "--motion", "{motion}", "--out", "{missing}/p.mseq"],
    ["populate", "--scene", "{scene}", "--motion", "{motion}", "--out", "{out}/p.mseq",
     "--report", "{missing}/r.json"],
    ["eval", "--real", "{feat}", "--gen", "{feat}", "--text", "{feat}",
     "--report", "{missing}/e.json"],
], ids=["train-vae", "train-vae-history", "populate", "populate-report", "eval"])
def test_missing_output_directory_exits_2_before_any_work(argv, cli_inputs, tmp_path, capsys,
                                                          monkeypatch):
    for module, name in [(fileio, "read_mseq"), (fileio, "read_vox"), (fileio, "read_feat"),
                         (vae, "train"), (populate, "optimize_placement"),
                         (metrics, "frechet_distance")]:
        monkeypatch.setattr(module, name, _no_work)
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing, out=tmp_path, **cli_inputs) for arg in argv]
    assert dispatch(argv) == 2
    (path,) = [arg for arg in argv if arg.startswith(str(missing))]
    assert capsys.readouterr().err == f"usage error: {path}: not found\n"
    assert not any(tmp_path.iterdir())


def test_import_loads_no_scipy():
    probe = "import sys, motok.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_import_builds_no_parser():
    # the parser is built on the first dispatch, so importing the CLI stays cheap
    probe = "import motok.cli; print(motok.cli.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "0\n"


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def _help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestParserReuse:
    """``dispatch`` parses every command with one parser built per process."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_valid_command_after_parse_error(self, tmp_path):
        out = tmp_path / "t.mseq"
        assert dispatch(["sample", "--steps", "0", "--out", str(out)]) == 2
        assert dispatch(["frobnicate"]) == 2
        assert dispatch(["sample", "--out", str(out)]) == 0
        assert fileio.read_mseq(out).num_frames == 10

    @pytest.mark.parametrize("given, omitted, name, default", [
        (["sample", "--two-pass", "--out", "o"], ["sample", "--out", "o"], "two_pass", False),
        (["convert", "--in", "i", "--out", "o", "--root-pose=1,2,3,0.4,0.5,0.6"],
         ["convert", "--in", "i", "--out", "o"], "root_pose", None),
    ], ids=["sample", "convert"])
    def test_flag_does_not_carry_into_next_parse(self, given, omitted, name, default):
        assert getattr(build_parser().parse_args(given), name) != default
        assert getattr(build_parser().parse_args(omitted), name) == default

    def test_dispatch_does_not_carry_yaw_count(self, monkeypatch):
        monkeypatch.setattr(fileio, "read_vox", lambda path: None)
        monkeypatch.setattr(fileio, "read_mseq", lambda path: SimpleNamespace(is_canonical=True))
        seen = []

        def record(seq, grid, yaw_count):
            seen.append(yaw_count)
            raise populate.SceneLessError("recorded")

        monkeypatch.setattr(populate, "optimize_placement", record)
        argv = ["populate", "--scene", "s.vox", "--motion", "m.mseq", "--out", "o.mseq"]
        assert dispatch([*argv, "--yaw-count", "4"]) == 1
        assert dispatch(argv) == 1
        assert seen == [4, 16]

    def test_help_matches_a_fresh_parser(self, tmp_path, capsys):
        # use the shared parser first: errors and help both print through it
        assert dispatch(["sample", "--steps", "0", "--out", str(tmp_path / "t")]) == 2
        assert dispatch(["--help"]) == 0
        capsys.readouterr()
        fresh = build_parser.__wrapped__()
        commands = _subcommands(fresh)
        assert commands == _subcommands(build_parser())
        for argv in [[], *([cmd] for cmd in commands)]:
            assert _help_text(build_parser(), argv, capsys) == _help_text(fresh, argv, capsys)


def _non_default(value):
    # doubling keeps vocab_size a power of two; a zero default becomes 1
    return value * 2 or 1


@pytest.mark.parametrize("argv, fixed", [
    (["train-vae", "--data", "d", "--out", "o.vae"], ()),
])
def test_every_trainer_setting_has_its_own_flag(argv, fixed):
    fields = [f for f in dataclasses.fields(vae.ToyVaeConfig) if f.name not in fixed]
    expected = dataclasses.asdict(vae.ToyVaeConfig())
    for f in fields:
        expected[f.name] = _non_default(f.default)
        argv = argv + [f"--{f.name.replace('_', '-')}", str(expected[f.name])]
    assert dataclasses.asdict(_vae_config(build_parser().parse_args(argv))) == expected


# Every command that reads a file, and the inputs it reads.  Each input is
# valid: test_fileio's golden motion (canonical), VAE and scene, the tokens
# ``tokenize`` makes from the first two, a global clip, a small object cloud
# and a feature table.  ``train-vae`` reads the motion from its data directory.
_READING_COMMANDS = {
    "convert": (["convert", "--in", "{motion}", "--out", "{out}/c.mseq"], ["motion"]),
    "tokenize": (["tokenize", "--vae", "{vae}", "--in", "{motion}", "--out", "{out}/t.mtok"],
                 ["vae", "motion"]),
    "detokenize": (["detokenize", "--vae", "{vae}", "--in", "{tokens}", "--out", "{out}/d.mseq"],
                   ["vae", "tokens"]),
    "train-vae": (["train-vae", "--data", "{data}", "--out", "{out}/p.vae", "--vocab-size", "16",
                   "--hidden-width", "2", "--epochs", "2"], ["motion"]),
    "populate": (["populate", "--scene", "{scene}", "--motion", "{motion}", "--out",
                  "{out}/p.mseq", "--yaw-count", "2"], ["scene", "motion"]),
    "score": (["score", "--motion", "{clip}", "--scene", "{scene}", "--object", "{object}",
               "--report", "{out}/s.json"], ["clip", "scene", "object"]),
    "eval": (["eval", "--real", "{feat}", "--gen", "{feat}", "--text", "{feat}", "--pool-size",
              "3", "--report", "{out}/e.json", "--motion", "{clip}", "--scene", "{scene}",
              "--object", "{object}"], ["feat", "clip", "scene", "object"]),
}
_INPUT_FILES = {"motion": "data/m.mseq", "vae": "p.vae", "tokens": "t.mtok", "clip": "clip.mseq",
                "scene": "s.vox", "object": "o.pts", "feat": "f.feat"}


def _run_reading_command(command, files: dict, base: Path):
    """Exit code, stderr and leaked warnings of ``command`` on the input bytes ``files``."""
    work = Path(tempfile.mkdtemp(dir=base))
    paths = {name: work / rel for name, rel in _INPUT_FILES.items()}
    for name, path in paths.items():
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(files[name])
    (work / "out").mkdir()
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch([arg.format(out=work / "out", data=work / "data", **paths)
                         for arg in _READING_COMMANDS[command][0]])
    # a warning prints lines of its own
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def valid_input_bytes(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    paths = {name: root / Path(rel).name for name, rel in _INPUT_FILES.items()}
    for name, suffix in (("motion", ".mseq"), ("vae", ".vae"), ("scene", ".vox")):
        paths[name] = _golden_file(root, suffix)
    assert dispatch(["tokenize", "--vae", str(paths["vae"]), "--in", str(paths["motion"]),
                     "--out", str(paths["tokens"])]) == 0
    walk = synth.make_walk_sequence(num_frames=9, with_object=True)
    fileio.write_mseq(paths["clip"], MotionSequence(walk.frames, is_canonical=False))
    rng = np.random.default_rng(0)
    fileio.write_pts(paths["object"], rng.uniform(-0.1, 0.1, (16, 3)))
    fileio.write_feat(paths["feat"], rng.normal(size=(4, 3)))
    files = {name: path.read_bytes() for name, path in paths.items()}
    for command in _READING_COMMANDS:  # so that a corruption is what fails a command
        assert _run_reading_command(command, files, root) == (0, "", []), command
    return files


@pytest.mark.parametrize("command", ["convert", "tokenize"])
def test_signalling_nan_frame_exits_1_with_one_line(valid_input_bytes, tmp_path, command):
    # the motion's last frame value becomes a float32 signalling NaN, which warns when cast
    motion = valid_input_bytes["motion"][:-4] + struct.pack("<I", 0x7FA00000)
    assert _run_reading_command(command, {**valid_input_bytes, "motion": motion}, tmp_path) == (
        1, "error: frames contain non-finite values\n", [])


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_corrupt_input_exits_0_1_or_2_with_at_most_one_line(valid_input_bytes,
                                                            tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(_READING_COMMANDS)), label="command")
    name = data.draw(st.sampled_from(_READING_COMMANDS[command][1]), label="input")
    blob = bytearray(valid_input_bytes[name])
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="size"):]
    else:
        blob[data.draw(st.integers(0, len(blob) - 1), label="offset")] ^= data.draw(
            st.integers(1, 255), label="mask")
    code, err, leaked = _run_reading_command(
        command, {**valid_input_bytes, name: bytes(blob)}, tmp_path_factory.getbasetemp())
    assert code in (0, 1, 2) and err.count("\n") <= 1 and not leaked, (command, name, code,
                                                                         err, leaked)

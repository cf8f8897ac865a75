"""Workload inputs, the CLI calls of one iteration, and the checks on their outputs.

Every workload runs every CLI command in each iteration, so every
end-to-end metric exists on every workload.  What a workload stresses is
set by which inputs are large: the commands it is named for get the heavy
inputs, the others get small companion inputs (see README.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from demo_scene_pipeline import build_room
from motok import fileio, lfq, motion, scene, synth, vae

# Pins the amount of training work, not the optimiser: learning rate and loss
# weights stay at their defaults so an optimiser change moves recon_mse only.
VAE_FLAGS = ["--epochs", "200", "--vocab-size", "8192", "--hidden-width", "32", "--seed", "0"]

# Walk length of each workload's populate; place_long's walk finds no
# zero-collision lattice candidate, scene_eval's seed candidate already scores 0.
WALK_FRAMES = {"tokenizer": 2, "place_long": 301, "scene_eval": 31}

# How often each command group runs per iteration (default once).  The
# result takes the median run of each group, so every group gets several
# runs spread over the whole run: on tokenizer ~7 iterations of ~4 s around
# one ~2.3 s train-vae; on scene_eval ~3-4 iterations of 7-9 s, two ~1.6 s
# populates each; on place_long one iteration, the ~20 s populate plus ~7 s
# of small groups.  Fixed counts keep the work of an iteration the same on
# every revision.
REPEATS = {
    "tokenizer": {"tokenize_s": 3, "detokenize_s": 3, "populate_s": 2, "score_s": 15,
                  "sample_s": 15, "eval_s": 2},
    "place_long": {"train_vae_s": 6, "tokenize_s": 40, "detokenize_s": 40, "score_s": 60,
                   "sample_s": 60, "eval_s": 8},
    "scene_eval": {"train_vae_s": 3, "tokenize_s": 10, "detokenize_s": 10, "populate_s": 2,
                   "score_s": 20, "sample_s": 20, "eval_s": 4},
}

# Placement report at the parent revision for each walk: offset (x, z, yaw),
# collision (m) and the number of candidates scored.
EXPECTED_PLACEMENT = {
    "tokenizer": dict(x=1.1500000171363354, z=1.1500000171363354, yaw=0.0,
                      collision=0.0, candidates=9091),
    "place_long": dict(x=1.0500000156462193, z=-0.2500000037252903, yaw=3.1415926535897927,
                       collision=0.0, candidates=9127),
    "scene_eval": dict(x=1.1500000171363354, z=1.1500000171363354, yaw=0.0,
                       collision=0.0, candidates=9091),
}

FEATURE_ROWS, FEATURE_DIM = 1000, 227
# text = gen + TEXT_NOISE * N(0, 1) puts r1 near 0.5; at 0.5 every row is retrieved
TEXT_NOISE = 3.0
# the scored clip walks through the room's pillar, so collision_scene > 0
SCORED_CLIP_ORIGIN = (1.95, 0.0, 1.5)
# object points sit against the torso of the scored clip, so contact > 0
OBJECT_CENTER = (-0.25, 0.25, -0.4)

Check = Callable[[], Optional[str]]


@dataclass
class Call:
    """One CLI invocation; ``outputs`` must be byte-identical on every repeat."""

    argv: list[str]
    outputs: list[Path]
    check: Optional[Check] = None


@dataclass
class Group:
    """The calls timed together as one end-to-end metric."""

    metric: str
    calls: list[Call]
    repeats: int


@dataclass
class Workload:
    groups: list[Group]
    corpus_paths: list[Path]
    vae_path: Path
    token_paths: list[Path]
    placement_report: Path


def write_inputs(name: str, seed: int, work: Path) -> None:
    """Write every input file of workload ``name`` under ``work``/in."""
    rng = np.random.default_rng(seed)
    inp = work / "in"
    corpus_dir = inp / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    corpus = synth.make_corpus() if name == "tokenizer" else synth.make_corpus(4, 48)
    for i, seq in enumerate(corpus):
        fileio.write_mseq(corpus_dir / f"seq{i:03d}.mseq", seq)

    fileio.write_vox(inp / "room.vox", build_room())
    fileio.write_mseq(inp / "walk.mseq", synth.make_walk_sequence(
        num_frames=WALK_FRAMES[name], arm_swing=0.2, with_object=True))
    walk = synth.make_walk_sequence(num_frames=31, arm_swing=0.2, with_object=True)
    pose = motion.SixDof(translation=np.array(SCORED_CLIP_ORIGIN), orientation=np.zeros(3))
    fileio.write_mseq(inp / "clip.mseq", motion.to_global(walk, pose))
    fileio.write_pts(inp / "object.pts",
                     rng.uniform(-0.12, 0.12, size=(256, 3)) + np.array(OBJECT_CENTER))

    gen = rng.standard_normal((FEATURE_ROWS, FEATURE_DIM))
    fileio.write_feat(inp / "real.feat", rng.standard_normal((FEATURE_ROWS, FEATURE_DIM)))
    fileio.write_feat(inp / "gen.feat", gen)
    fileio.write_feat(inp / "text.feat",
                      gen + TEXT_NOISE * rng.standard_normal((FEATURE_ROWS, FEATURE_DIM)))


def build(name: str, seed: int, work: Path) -> Workload:
    """The calls of one iteration of workload ``name``; inputs must exist."""
    inp, out = work / "in", work / "out"
    out.mkdir(parents=True, exist_ok=True)
    corpus_paths = sorted((inp / "corpus").glob("*.mseq"))
    vae_path = out / "model.vae"
    token_paths = [out / f"{p.stem}.mtok" for p in corpus_paths]
    placed, placement = out / "placed.mseq", out / "placement.json"

    train = Call(["train-vae", "--data", str(inp / "corpus"), "--out", str(vae_path),
                  "--history", str(out / "history.csv"), *VAE_FLAGS],
                 [vae_path, out / "history.csv"])
    tokenize = [Call(["tokenize", "--vae", str(vae_path), "--in", str(src), "--out", str(tok)],
                     [tok])
                for src, tok in zip(corpus_paths, token_paths)]
    detokenize = []
    for src, tok in zip(corpus_paths, token_paths):
        dst = out / f"{src.stem}.detok.mseq"
        detokenize.append(Call(["detokenize", "--vae", str(vae_path), "--in", str(tok),
                                "--out", str(dst)], [dst],
                               _detokenize_check(vae_path, src, dst)))
    populate = Call(["populate", "--scene", str(inp / "room.vox"), "--motion",
                     str(inp / "walk.mseq"), "--out", str(placed), "--report", str(placement)],
                    [placed, placement],
                    _placement_check(fileio.read_vox(inp / "room.vox"), placed, placement,
                                     EXPECTED_PLACEMENT[name]))
    geometry = ["--scene", str(inp / "room.vox"), "--object", str(inp / "object.pts")]
    score = Call(["score", "--motion", str(inp / "clip.mseq"), *geometry,
                  "--report", str(out / "score.json")], [out / "score.json"],
                 _score_check(out / "score.json"))
    sample_args = ["sample", "--steps", "20", "--seed", "0", "--waypoints", "8",
                   "--heading", "0.6", "--cfg-scale", "2.5"]
    samples = [Call([*sample_args, "--out", str(out / "track.mseq")], [out / "track.mseq"]),
               Call([*sample_args, "--two-pass", "--out", str(out / "track2.mseq")],
                    [out / "track2.mseq"])]
    evaluate = Call(["eval", "--real", str(inp / "real.feat"), "--gen", str(inp / "gen.feat"),
                     "--text", str(inp / "text.feat"), "--seed", str(seed),
                     "--motion", str(inp / "clip.mseq"), *geometry,
                     "--report", str(out / "eval.json")], [out / "eval.json"],
                    _eval_check(out / "eval.json"))

    calls = {"train_vae_s": [train], "tokenize_s": tokenize, "detokenize_s": detokenize,
             "score_s": [score], "sample_s": samples, "eval_s": [evaluate],
             "populate_s": [populate]}
    groups = [Group(metric, group_calls, REPEATS[name].get(metric, 1))
              for metric, group_calls in calls.items()]
    return Workload(groups, corpus_paths, vae_path, token_paths, placement)


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a message
# ---------------------------------------------------------------------------

def _detokenize_check(vae_path: Path, src: Path, dst: Path) -> Check:
    def check():
        params = fileio.read_vae(vae_path)
        frames = fileio.read_mseq(src).frames
        expected = vae.reconstruct(params, frames)[0]
        got = fileio.read_mseq(dst).frames
        if got.shape != expected.shape or not np.array_equal(
                got.astype(np.float32), expected.astype(np.float32)):
            return f"{dst.name} differs from vae.reconstruct of {src.name}"
        return None
    return check


def _placement_check(room, placed: Path, report_path: Path, expected: dict) -> Check:
    sdf = scene.build_sdf(room)

    def check():
        report = json.loads(report_path.read_text())
        got = dict(x=report["offset"]["x"], z=report["offset"]["z"],
                   yaw=report["offset"]["yaw"], candidates=report["candidates_evaluated"])
        want = {k: expected[k] for k in got}
        if got != want or not report["feasible"]:
            return f"placement report {got} (feasible {report['feasible']}), expected {want}"
        if abs(report["collision"] - expected["collision"]) > 1e-9:
            return f"collision {report['collision']!r}, expected {expected['collision']!r}"
        recomputed = placed_collision(fileio.read_mseq(placed), sdf)
        if abs(recomputed - report["collision"]) > 1e-9:
            return f"collision {report['collision']!r} but the placed clip scores {recomputed!r}"
        return None
    return check


def placed_collision(seq: motion.MotionSequence, sdf) -> float:
    """Mean penetration of the body keypoints plus the carried object's position."""
    points = np.concatenate([scene.body_keypoints(seq), seq.frames[:, None, motion.OBJ_POS]],
                            axis=1)
    return float(np.maximum(0.0, -scene.sample_sdf(sdf, points)).mean())


def _score_check(report_path: Path) -> Check:
    def check():
        report = json.loads(report_path.read_text())
        if not (report["collision_scene"] > 0 and report["contact"] > 0):
            return f"degenerate score report {report}"
        return None
    return check


def _eval_check(report_path: Path) -> Check:
    def check():
        report = json.loads(report_path.read_text())
        if not 0 < report["r1"] < 1:
            return f"degenerate r1 {report['r1']}"
        return None
    return check


# ---------------------------------------------------------------------------
# tokenizer quality, from the files the commands wrote
# ---------------------------------------------------------------------------

def tokenizer_quality(workload: Workload) -> dict:
    """recon_mse and usage_entropy of the trained model on the workload corpus,
    next to the MSE of predicting every frame by the per-channel corpus mean."""
    params = fileio.read_vae(workload.vae_path)
    frames = [fileio.read_mseq(p).frames for p in workload.corpus_paths]
    tokens = np.concatenate([fileio.read_mtok(p).indices for p in workload.token_paths])
    stacked = np.concatenate(frames)
    return {
        "recon_mse": float(np.mean([vae.reconstruction_mse(params, f) for f in frames])),
        "usage_entropy": lfq.codebook_utilization(tokens, params.codebook)[1],
        "mean_predictor_mse": float(((stacked - stacked.mean(axis=0)) ** 2).mean()),
    }

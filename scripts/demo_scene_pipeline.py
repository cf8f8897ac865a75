#!/usr/bin/env python3
"""End-to-end scene demo: build a room, place a walk, score it, sample waypoints.

Writes its artifacts (scene.vox, walk.mseq, placed.mseq, placement.json,
score.json, sampled_track.mseq) into --workdir and prints a short summary.
A stage that fails ends the demo with that stage's exit code.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from motok.cli import dispatch
from motok.fileio import write_mseq, write_pts, write_vox
from motok.scene import SceneVoxelGrid
from motok.synth import make_walk_sequence


def build_room(cell=0.1, nx=30, nz=30, ny=18):
    """Walled room with a pillar off-center; walls thick enough that nothing
    can poke through into out-of-grid space."""
    occ = np.zeros((nx, nz, ny), dtype=np.uint8)
    occ[:3, :, :] = occ[-3:, :, :] = 1
    occ[:, :3, :] = occ[:, -3:, :] = 1
    occ[18:21, 18:21, :] = 1
    return SceneVoxelGrid(occ, np.zeros(3), cell)


def run_stage(*argv):
    """Run one CLI stage in-process; a failed stage ends the demo with its exit code."""
    code = dispatch(list(argv))
    if code != 0:
        raise SystemExit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)

    scene_path = work / "scene.vox"
    write_vox(scene_path, build_room())
    walk_path = work / "walk.mseq"
    write_mseq(walk_path, make_walk_sequence(num_frames=31, arm_swing=0.2,
                                             with_object=True))
    object_path = work / "object.pts"
    rng = np.random.default_rng(args.seed)
    write_pts(object_path, rng.uniform(-0.12, 0.12, size=(256, 3)))

    placed = work / "placed.mseq"
    report = work / "placement.json"
    run_stage("populate", "--scene", str(scene_path), "--motion", str(walk_path),
              "--out", str(placed), "--report", str(report))
    print("placement:")
    print(report.read_text())

    score = work / "score.json"
    run_stage("score", "--scene", str(scene_path), "--motion", str(placed),
              "--object", str(object_path), "--report", str(score))
    print("geometry scores:")
    print(json.dumps(json.loads(score.read_text()), indent=2))

    track = work / "sampled_track.mseq"
    run_stage("sample", "--steps", "20", "--seed", str(args.seed), "--waypoints", "8",
              "--heading", "0.6", "--cfg-scale", "2.5", "--out", str(track))
    print("sampled waypoint track:", track)


if __name__ == "__main__":
    main()

"""Command-line entry point wiring every pipeline stage.

Exit codes: 0 success, 1 domain failure (infeasible placement, diverged
training, malformed data, out of memory), 2 usage error (bad flags, missing
files).  A flag value out of range is a usage error too, caught before any
file is read or written, and so is an output path whose directory does not
exist in the commands that work long before they write (``train-vae``,
``populate``, ``eval``).  A path that cannot be opened, read or written exits
2 as well: its ``OSError`` is caught once, in :func:`dispatch`, and the
one-line message names the path given on the command line.  Every output file
is written atomically, so a failed write leaves no file behind.

Two commands decide their outcome from their input.  ``convert`` takes its
direction from the ``.mseq`` canonical flag: a canonical motion is placed
into the world at ``--root-pose`` (zero when omitted), a global one is
re-rooted, and ``--root-pose`` given with a global one is a usage error.
``populate`` takes a canonical motion (a global one is a usage error, as a
canonical one is for ``score``), writes the best placement it finds, then
exits 1 when its collision is above ``--threshold``.

:func:`build_parser` builds the parser once per process, on the first call
(not at import), and :func:`dispatch` reuses it for every command: parsing
fills a fresh namespace and leaves the parser unchanged.  Callers must not
mutate the parser that :func:`build_parser` returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import ddim, fileio, lfq, metrics, motion, populate, scene, synth, vae

_DOMAIN_ERRORS = (ValueError, RuntimeError, MemoryError)


class UsageError(Exception):
    """Bad invocation detected after argparse (bad values, missing inputs)."""


def _check_output_dirs(*paths):
    """Exit 2 before any work when an output path's directory does not exist."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise UsageError(f"{path}: not found")


def _write_json(path, payload: dict):
    with fileio.atomic_write(path) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"))
        out.write(b"\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_convert(args) -> int:
    seq = fileio.read_mseq(args.infile)
    if seq.is_canonical:
        out = motion.to_global(seq, args.root_pose or motion.SixDof(np.zeros(3), np.zeros(3)))
    elif args.root_pose is not None:
        raise UsageError(f"--root-pose applies to canonical input; {args.infile} is global")
    else:
        out = motion.to_canonical(seq)
    fileio.write_mseq(args.outfile, out)
    return 0


def _cmd_tokenize(args) -> int:
    params = fileio.read_vae(args.vae)
    seq = fileio.read_mseq(args.infile)
    indices = vae.tokenize_frames(params, seq.frames)
    stream = lfq.TokenStream(indices, params.vocab_size, seq.fps, seq.is_canonical)
    fileio.write_mtok(args.outfile, stream)
    return 0


def _cmd_detokenize(args) -> int:
    params = fileio.read_vae(args.vae)
    stream = fileio.read_mtok(args.infile)
    if stream.vocab_size != params.vocab_size:
        raise UsageError(
            f"token vocab {stream.vocab_size} does not match VAE vocab {params.vocab_size}"
        )
    frames = vae.decode(params, lfq.indices_to_bits(stream.indices, params.codebook.num_dims))
    seq = motion.MotionSequence(frames, fps=stream.fps, is_canonical=stream.is_canonical)
    fileio.write_mseq(args.outfile, seq)
    return 0


def _load_dataset(data_dir: str) -> list[motion.MotionSequence]:
    paths = sorted(Path(data_dir).glob("*.mseq"))
    if not paths:
        raise UsageError(f"no .mseq files in {data_dir}")
    return [fileio.read_mseq(p) for p in paths]


def _vae_config(args) -> vae.ToyVaeConfig:
    """Defaults, then the trainer flags given."""
    settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(vae.ToyVaeConfig)
                if getattr(args, f.name) is not None}
    try:
        return vae.ToyVaeConfig(**settings)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_train_vae(args) -> int:
    config = _vae_config(args)
    _check_output_dirs(args.out, args.history)
    dataset = _load_dataset(args.data)
    params, history = vae.train(config, dataset)
    fileio.write_vae(args.out, params)
    fileio.write_csv(args.history or Path(args.out).parent / "loss_history.csv", history)
    return 0


def _cmd_sample(args) -> int:
    if args.heading is None and args.cfg_scale is not None:
        raise UsageError("--cfg-scale needs --heading")
    cfg_scale = None
    if args.heading is not None:
        # default guidance strength is an arbitrary starting point; sweep it
        cfg_scale = 2.5 if args.cfg_scale is None else args.cfg_scale
    sampler = ddim.two_pass_sample if args.two_pass else ddim.ddim_sample
    track = sampler(synth.toy_walk_denoiser, (args.waypoints, 12), args.steps,
                    ddim.Condition(text=args.heading), cfg_scale, args.seed)
    frames = np.zeros((args.waypoints, motion.FRAME_DIM))
    frames[:, motion.WAYPOINT_COLUMNS] = track
    # one waypoint per second of motion, hence fps = 1 for the emitted track
    seq = motion.MotionSequence(motion.normalize_rotations(frames), fps=1, is_canonical=False)
    fileio.write_mseq(args.out, seq)
    return 0


def _cmd_populate(args) -> int:
    if args.threshold < 0:
        raise UsageError(f"--threshold must be >= 0, got {args.threshold}")
    _check_output_dirs(args.out, args.report)
    seq = fileio.read_mseq(args.motion)
    if not seq.is_canonical:
        raise UsageError("populate expects a canonical motion (convert first)")
    grid = fileio.read_vox(args.scene)
    try:
        result = populate.optimize_placement(seq, grid, args.yaw_count)
    except populate.SceneLessError as exc:
        if args.report:
            _write_json(args.report, {"feasible": False, "scene_less": True,
                                      "error": str(exc)})
        print(f"scene-less: {exc}", file=sys.stderr)
        return 1
    fileio.write_mseq(args.out, result.placed)
    feasible = result.collision <= args.threshold
    if args.report:
        x, _, z = result.offset.translation
        _write_json(args.report, {
            "offset": {"x": float(x), "z": float(z), "yaw": float(result.offset.orientation[1])},
            "collision": result.collision,
            "feasible": feasible,
            "candidates_evaluated": result.candidates_evaluated,
            "candidates_scored": result.candidates_scored,
            "candidates_pruned": result.candidates_pruned,
        })
    if not feasible:
        print(f"infeasible placement: collision {result.collision:.6f} m "
              f"exceeds {args.threshold:.6f} m", file=sys.stderr)
        return 1
    return 0


def _geometry_scores(args) -> dict:
    """``--motion`` scored against ``--scene`` and/or ``--object``, for ``score`` and ``eval``."""
    if not (args.motion and (args.scene or args.object)):
        raise UsageError("geometry scores need --motion with --scene and/or --object")
    seq = fileio.read_mseq(args.motion)
    if seq.is_canonical:
        raise UsageError("geometry scoring expects a global motion (convert first)")
    keypoints = scene.body_keypoints(seq)
    report: dict = {}
    if args.scene:
        pen, frac = scene.collision_score(keypoints, scene.build_sdf(fileio.read_vox(args.scene)))
        report["collision_scene"] = pen
        report["collision_scene_fraction"] = frac
    if args.object:
        points = fileio.read_pts(args.object)
        # keypoints in the object's frame, R_t^T (k - t_t), against its static cloud
        # and one SDF of it: exact for a rigidly moving object
        rot = motion.axis_angle_to_matrix(seq.frames[:, motion.OBJ_ROT])
        local = np.einsum("tba,tjb->tja", rot, keypoints - seq.frames[:, None, motion.OBJ_POS])
        object_sdf = scene.build_sdf(scene.voxelize_points(points, cell_size=0.05))
        pen, frac = scene.collision_score(local, object_sdf)
        report["collision"] = pen
        report["collision_fraction"] = frac
        report["contact"] = scene.contact_score(local, points)
    return report


def _cmd_score(args) -> int:
    report = _geometry_scores(args)
    if args.report:
        _write_json(args.report, report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    """Geometry scores, then the feature metrics, with at most two (N, F) matrices alive.

    Geometry runs first, so that its usage errors come before any feature
    file is read.  ``--real`` is fitted before ``--gen`` is read, and
    ``--text`` is read only after the FID, so the peak holds two feature
    matrices and a fit's temporaries, not three; a bad ``--real`` statistic
    is therefore reported before ``--gen`` or ``--text`` is opened.
    """
    _check_output_dirs(args.report)
    report = _geometry_scores(args) if args.motion or args.scene or args.object else {}
    real_stats = metrics.fit_gaussian(fileio.read_feat(args.real))
    gen = fileio.read_feat(args.gen)
    report["fid"] = metrics.frechet_distance(real_stats, metrics.fit_gaussian(gen))
    text = fileio.read_feat(args.text)
    report.update({
        "mmd": metrics.multimodal_distance(gen, text),
        "diversity": metrics.diversity(gen, seed=args.seed),
    })
    top = metrics.r_precision(gen, text, pool_size=args.pool_size, top_k=3, seed=args.seed)
    for k, acc in enumerate(top, start=1):
        report[f"r{k}"] = acc
    _write_json(args.report, report)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


_finite_float.__name__ = "float"  # argparse names the type in "invalid float value"


def _parse_root_pose(text: str) -> motion.SixDof:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("root pose needs 6 comma-separated numbers")
    values = [_finite_float(p) for p in parts]
    try:
        return motion.SixDof(translation=values[:3], orientation=values[3:])
    except motion.MotionError as exc:  # a rotation of magnitude >= 2*pi
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bounded_int(low: int, high: int | None = None):
    """argparse type: an int in [low, high], or >= low when ``high`` is None."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_trainer_flags(p: argparse.ArgumentParser):
    """One flag per ToyVaeConfig field, typed by its default; unset flags stay None."""
    for f in dataclasses.fields(vae.ToyVaeConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                       type=type(f.default), default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="motok",
                                     description="motion tokenization and evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="place a canonical motion into the world at "
                                       "--root-pose, or re-root a global motion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--root-pose", dest="root_pose", type=_parse_root_pose,
                   help="x,y,z,rx,ry,rz world offset of a canonical input (zero when "
                        "omitted); a global input is re-rooted and rejects it "
                        "(use --root-pose=<v> when the first value is negative)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("tokenize", help="encode a motion into token indices")
    p.add_argument("--vae", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("detokenize", help="decode tokens to motion at the .mtok's fps and "
                                          "representation, padding kept: 8*ceil(T/8) frames")
    p.add_argument("--vae", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_detokenize)

    p = sub.add_parser("train-vae", help="train the toy tokenizer autoencoder")
    p.add_argument("--data", required=True, help="directory of .mseq files")
    p.add_argument("--out", required=True, help="output .vae params path")
    p.add_argument("--history", help="loss history CSV path (default: next to --out)")
    _add_trainer_flags(p)
    p.set_defaults(func=_cmd_train_vae)

    p = sub.add_parser("sample", help="sample a waypoint track with the toy denoiser")
    p.add_argument("--steps", type=_bounded_int(1, ddim.NUM_TRAIN_STEPS), default=20)
    p.add_argument("--cfg-scale", dest="cfg_scale", type=_finite_float,
                   help="guidance scale of --heading (default 2.5)")
    p.add_argument("--seed", type=_bounded_int(0), default=0)
    p.add_argument("--waypoints", type=_bounded_int(1, motion.MAX_FRAMES), default=10)
    p.add_argument("--heading", type=_finite_float, default=None,
                   help="condition the toy denoiser on this heading (radians)")
    p.add_argument("--two-pass", action="store_true", dest="two_pass",
                   help="coarse-to-fine: strided first pass conditions the second")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("populate", help="place a canonical motion where it collides "
                                        "least with a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--motion", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="placement report JSON path")
    p.add_argument("--threshold", type=_finite_float, default=1e-3,
                   help="max mean penetration (m) of a feasible placement; above it the "
                        "placement is still written and the exit code is 1")
    p.add_argument("--yaw-count", dest="yaw_count", type=_bounded_int(1), default=16)
    p.set_defaults(func=_cmd_populate)

    p = sub.add_parser("score", help="collision/contact scores for one motion")
    p.add_argument("--scene")
    p.add_argument("--motion", required=True)
    p.add_argument("--object")
    p.add_argument("--report", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="distribution metrics over feature files")
    p.add_argument("--real", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--report", required=True)
    # eval reports R-precision at k = 1..3, so a pool needs at least 3 rows
    p.add_argument("--pool-size", dest="pool_size", type=_bounded_int(3), default=32)
    p.add_argument("--seed", type=_bounded_int(0), default=0)
    p.add_argument("--motion", help="optional motion for geometry scores "
                                    "(needs --scene and/or --object)")
    p.add_argument("--scene", help="optional scene voxels for geometry scores")
    p.add_argument("--object", help="optional object points for geometry scores")
    p.set_defaults(func=_cmd_eval)

    return parser


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        reason = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"usage error: {exc.filename}: {reason}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return dispatch(sys.argv[1:])

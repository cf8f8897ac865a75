"""Traced runs: timing wrappers installed on motok's public functions from outside.

Each wrapper records a span (name, start, end, parent, command id, count)
in memory while a CLI call is running; spans are written out when the run
ends.  A wrapper replaces the function on every motok module that binds
it, because several modules import functions by name (``populate`` calls
its own ``sample_sdf``, ``vae`` its own ``entropy_loss``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np


def _file_size(args, kwargs):
    return os.path.getsize(args[0])


def _point_count(args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return int(np.asarray(points).size // 3)


_READERS = ("read_mseq", "read_mtok", "read_vox", "read_pts", "read_feat", "read_vae")
_WRITERS = ("write_mseq", "write_mtok", "write_vox", "write_pts", "write_feat", "write_vae")

# (module, function, span name, count taken after each call)
TARGETS = (
    [("fileio", f, "fileio.read", _file_size) for f in _READERS]
    + [("fileio", f, "fileio.write", _file_size) for f in _WRITERS]
    + [("vae", f, f"vae.{f}", None) for f in ("loss_and_grads", "encode", "decode")]
    + [("lfq", f, f"lfq.{f}", None) for f in ("entropy_loss", "entropy_loss_grad")]
    + [("scene", "sample_sdf", "scene.sample_sdf", _point_count)]
    + [("scene", f, f"scene.{f}", None) for f in ("build_sdf", "body_keypoints", "contact_score")]
    + [("populate", "find_seed_position", "populate.find_seed_position", None),
       ("populate", "optimize_placement", "populate", None)]
    + [("ddim", f, f"ddim.{f}", None) for f in ("ddim_sample", "two_pass_sample")]
    + [("metrics", f, f"metrics.{f}", None)
       for f in ("r_precision", "fit_gaussian", "frechet_distance", "diversity",
                 "multimodal_distance")]
    + [("motion", f, f"motion.{f}", None) for f in ("to_global", "normalize_rotations")]
)

ALL = ("tokenizer", "place_long", "scene_eval")
TOK, PLACE, SCENE = ("tokenizer",), ("place_long",), ("scene_eval",)
PLACEMENT = ("place_long", "scene_eval")
SMALL_CALLS = ("tokenizer", "scene_eval")


class LayerMetric(NamedTuple):
    unit: str
    better: str
    how: str  # self_ms | calls | count | count_per_s | candidates | points_per_candidate
    span: str
    on: tuple  # workloads the metric should move on
    per: str = ""  # for "calls": the command group whose runs divide the count


LAYER_METRICS = {
    "cli.self_ms": LayerMetric("ms", "lower", "self_ms", "cli", SMALL_CALLS),
    "fileio.read_ms": LayerMetric("ms", "lower", "self_ms", "fileio.read", SMALL_CALLS),
    "fileio.write_ms": LayerMetric("ms", "lower", "self_ms", "fileio.write", SMALL_CALLS),
    "fileio.read_bytes": LayerMetric("B", "lower", "count", "fileio.read", SMALL_CALLS),
    "fileio.write_bytes": LayerMetric("B", "lower", "count", "fileio.write", SMALL_CALLS),
    "vae.loss_and_grads_ms": LayerMetric("ms", "lower", "self_ms", "vae.loss_and_grads", TOK),
    "vae.loss_and_grads_calls": LayerMetric("count", "lower", "calls", "vae.loss_and_grads",
                                            TOK, "train_vae_s"),
    "vae.encode_ms": LayerMetric("ms", "lower", "self_ms", "vae.encode", TOK),
    "vae.decode_ms": LayerMetric("ms", "lower", "self_ms", "vae.decode", TOK),
    "lfq.entropy_loss_ms": LayerMetric("ms", "lower", "self_ms", "lfq.entropy_loss", TOK),
    "lfq.entropy_loss_grad_ms": LayerMetric("ms", "lower", "self_ms", "lfq.entropy_loss_grad",
                                            TOK),
    "scene.sample_sdf_ms": LayerMetric("ms", "lower", "self_ms", "scene.sample_sdf", PLACEMENT),
    "scene.sample_sdf_points": LayerMetric("count", "lower", "count", "scene.sample_sdf",
                                           PLACEMENT),
    "scene.sample_sdf_points_per_s": LayerMetric("1/s", "higher", "count_per_s",
                                                 "scene.sample_sdf", PLACEMENT),
    "scene.build_sdf_ms": LayerMetric("ms", "lower", "self_ms", "scene.build_sdf", SCENE),
    "scene.body_keypoints_ms": LayerMetric("ms", "lower", "self_ms", "scene.body_keypoints",
                                           SCENE),
    "scene.contact_score_ms": LayerMetric("ms", "lower", "self_ms", "scene.contact_score", SCENE),
    "populate.candidates_evaluated": LayerMetric("count", "lower", "candidates", "populate",
                                                 PLACEMENT),
    "populate.sdf_points_per_candidate": LayerMetric("count", "lower", "points_per_candidate",
                                                     "populate", PLACE),
    "populate.find_seed_position_ms": LayerMetric("ms", "lower", "self_ms",
                                                  "populate.find_seed_position", PLACEMENT),
    "populate.self_ms": LayerMetric("ms", "lower", "self_ms", "populate", PLACEMENT),
    "ddim.ddim_sample_ms": LayerMetric("ms", "lower", "self_ms", "ddim.ddim_sample", SCENE),
    "ddim.ddim_sample_calls": LayerMetric("count", "lower", "calls", "ddim.ddim_sample", SCENE,
                                          "sample_s"),
    "ddim.two_pass_sample_ms": LayerMetric("ms", "lower", "self_ms", "ddim.two_pass_sample",
                                           SCENE),
    "metrics.r_precision_ms": LayerMetric("ms", "lower", "self_ms", "metrics.r_precision", SCENE),
    "metrics.fit_gaussian_ms": LayerMetric("ms", "lower", "self_ms", "metrics.fit_gaussian",
                                           SCENE),
    "metrics.frechet_distance_ms": LayerMetric("ms", "lower", "self_ms",
                                               "metrics.frechet_distance", SCENE),
    "metrics.diversity_ms": LayerMetric("ms", "lower", "self_ms", "metrics.diversity", SCENE),
    "metrics.multimodal_distance_ms": LayerMetric("ms", "lower", "self_ms",
                                                  "metrics.multimodal_distance", SCENE),
    "motion.to_global_ms": LayerMetric("ms", "lower", "self_ms", "motion.to_global", ALL),
    "motion.normalize_rotations_ms": LayerMetric("ms", "lower", "self_ms",
                                                 "motion.normalize_rotations", ALL),
}

# traced wall time minus the untraced median, per end-to-end command metric
COMMAND_METRICS = ("train_vae_s", "tokenize_s", "detokenize_s", "populate_s", "score_s",
                   "sample_s", "eval_s")
OVERHEAD_METRICS = {f"overhead.{m[:-2]}_ms": m for m in COMMAND_METRICS}


class Tracer:
    """Collects spans of wrapped calls made inside :meth:`command` blocks."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, command id, count]
        self._stack: list[int] = []
        self._command = None
        self._commands = 0
        self._restore: list[tuple] = []

    @contextmanager
    def command(self, argv: list[str]):
        """Span named ``cli`` around one CLI call; wrapped calls inside nest under it."""
        self._commands += 1
        self._command = f"{self._commands}:{argv[0]}"
        try:
            with self._span("cli"):
                yield
        finally:
            self._command = None

    @contextmanager
    def _span(self, name):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                  self._command, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._command is None:
                return fn(*args, **kwargs)
            with self._span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record[5] = count(args, kwargs)
            return result
        return wrapper

    def install(self):
        """Replace every target on each motok module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "motok" or n.startswith("motok."))]
        for module_name, func, span, count in TARGETS:
            original = getattr(importlib.import_module(f"motok.{module_name}"), func)
            wrapper = self._wrap(span, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "command", "count")
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")

    def layer_metrics(self, iterations: int, runs: dict[str, int],
                      candidates: int) -> dict[str, float]:
        """Per-layer metrics of the traced iterations.

        ``_ms`` is the median self time per call (span minus its child spans).
        Counts are per iteration, except ``calls``: per run of the group named
        in ``per``, counted in ``runs``.  ``candidates`` is candidates_evaluated
        of one populate call.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_times: dict[str, list[float]] = {}
        counts: dict[str, int] = {}
        for i, (name, start, end, _, _, count) in enumerate(self.spans):
            self_times.setdefault(name, []).append(end - start - child[i])
            counts[name] = counts.get(name, 0) + count
        populate_points = sum(
            record[5] for record in self.spans
            if record[0] == "scene.sample_sdf" and record[3] >= 0
            and self.spans[record[3]][0] == "populate")

        values = {}
        for metric, spec in LAYER_METRICS.items():
            times = self_times.get(spec.span, [])
            if spec.how == "self_ms":
                values[metric] = 1000.0 * statistics.median(times) if times else 0.0
            elif spec.how == "calls":
                values[metric] = len(times) / runs[spec.per]
            elif spec.how == "count":
                values[metric] = counts.get(spec.span, 0) / iterations
            elif spec.how == "count_per_s":
                values[metric] = counts.get(spec.span, 0) / sum(times) if times else 0.0
            elif spec.how == "candidates":
                values[metric] = float(candidates)
            elif spec.how == "points_per_candidate":
                values[metric] = populate_points / (candidates * runs["populate_s"])
        return values

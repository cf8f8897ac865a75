#!/usr/bin/env python3
"""Benchmark of the motok CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload tokenizer --seed 1 --seconds 30 --trace 0

Writes the workload's inputs under perfbench/_work/, then calls
``motok.cli.dispatch`` in this process, one full iteration of CLI commands
after another, for ``--seconds`` (at least one iteration).  Every call's
exit code and outputs are checked.  With ``--trace 0`` the last stdout line
is the end-to-end result, each command timing being the median run of its
group, scaled to nominal core speed; with ``--trace 1`` half the time runs
untraced and half with timing wrappers on every layer, and the last line
holds the per-layer metrics and the tracing overhead per command.  The
line before it records the environment and the details behind the metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("tokenizer", "place_long", "scene_eval")
SETUP_REPEATS = 7
ALLOCATOR_WARMUP_BYTES = 30 * 2**20
PROBE_LOOPS = 20_000
# Probe time (the faster of two PROBE_LOOPS loops) on a full-speed core of the
# 2-vCPU x86_64 VM the bounds in BENCHMARK.json were set on.
NOMINAL_PROBE_S = 1.3e-3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_METRICS = {
    "setup_s": "s", "train_vae_s": "s", "tokenize_s": "s", "detokenize_s": "s",
    "populate_s": "s", "score_s": "s", "sample_s": "s", "eval_s": "s",
    "peak_rss_mb": "MB", "recon_mse": "1", "usage_entropy": "1",
}
# one run of a command group: (wall seconds, mean probe time of its core)
Sample = tuple[float, float]
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import motok.cli; "
                 "print(time.perf_counter() - t)")


def cap_blas_threads() -> dict:
    """Cap BLAS threads at the core count; must run before numpy is imported."""
    cores = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= cores:
            os.environ[var] = str(cores)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment(blas: dict) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": blas,
            "machine": platform.machine(), "git_commit": git_commit()}


def import_seconds() -> float:
    """Import time of motok.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def _probe_loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class CoreSpeed:
    """Puts the calling thread on the fastest allowed core and measures how
    fast that core runs, with a short pure-Python probe loop.

    On a shared host each virtual core alternates, every few seconds, between
    full speed and ~1.4x slower (another tenant on its sibling hyperthread),
    and at times the whole host is 1.5-2x slower for minutes.  Linux sees no
    difference between the cores and leaves a busy thread where it is.
    """

    def __init__(self):
        self.cores = sorted(os.sched_getaffinity(0))

    def probe(self) -> float:
        """Probe time on the current core."""
        return min(_probe_loop(), _probe_loop())

    def pick(self) -> float:
        """Move to the core with the fastest probe; return its probe time."""
        if len(self.cores) < 2:
            return self.probe()
        speeds = []
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            speeds.append((self.probe(), core))
        probe, core = min(speeds)
        os.sched_setaffinity(0, {core})
        return probe


class Runner:
    """Runs iterations of one workload and counts failed calls."""

    def __init__(self, workload, dispatch, speed: CoreSpeed):
        self.workload = workload
        self.dispatch = dispatch
        self.speed = speed
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[Path, bytes] = {}

    def call(self, call, tracer) -> float:
        self.attempted += 1
        stderr = io.StringIO()
        scope = tracer.command(call.argv) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope, contextlib.redirect_stderr(stderr):
                code = self.dispatch(call.argv)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        problem = self.check(call, code, stderr.getvalue())
        if problem:
            self.failures.append(f"{call.argv[0]}: {problem}")
        return elapsed

    def check(self, call, code, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code!r}; {stderr.strip()[-300:]}"
        try:
            for path in call.outputs:
                data = path.read_bytes()
                if self.reference.setdefault(path, data) != data:
                    return f"{path.name} differs from the first iteration's"
            return call.check() if call.check else None
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def iteration(self, tracer=None) -> dict[str, list[Sample]]:
        """Every group ``repeats`` times, its runs spread evenly over the
        iteration, so each metric samples every stretch of the run.  Each run
        starts on the fastest core and is timed with its core's speed."""
        times: dict[str, list[Sample]] = {group.metric: [] for group in self.workload.groups}
        for group in schedule(self.workload.groups):
            before = self.speed.pick()
            seconds = sum(self.call(call, tracer) for call in group.calls)
            times[group.metric].append((seconds, (before + self.speed.probe()) / 2))
        return times

    def run_for(self, seconds: float, tracer=None) -> tuple[dict[str, list[Sample]], int]:
        """Whole iterations until the next one would overrun ``seconds``."""
        samples: dict[str, list[Sample]] = {}
        start = time.perf_counter()
        iterations = 0
        while True:
            began = time.perf_counter()
            for metric, values in self.iteration(tracer).items():
                samples.setdefault(metric, []).extend(values)
            iterations += 1
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                return samples, iterations


def schedule(groups) -> list:
    """The runs of one iteration: run k of a group with r repeats sits at
    k / r.  Every group's first run comes first, in the workload's order,
    so train-vae precedes tokenize and tokenize precedes detokenize."""
    slots = [(k / group.repeats, i, group)
             for i, group in enumerate(groups) for k in range(group.repeats)]
    return [group for _, _, group in sorted(slots, key=lambda slot: slot[:2])]


def nominal(sample: Sample) -> float:
    """Wall time scaled to a core whose probe takes NOMINAL_PROBE_S."""
    seconds, probe = sample
    return seconds * NOMINAL_PROBE_S / probe


def medians(samples: dict[str, list[Sample]]) -> dict[str, float]:
    return {metric: statistics.median(map(nominal, values)) for metric, values in samples.items()}


def summary(samples: dict[str, list[Sample]]) -> dict[str, dict]:
    """Run count, unscaled wall times and median probe time of each group."""
    summaries = {}
    for metric, values in samples.items():
        walls = [seconds for seconds, _ in values]
        summaries[metric] = {
            "n": len(values), "wall_min_s": min(walls), "wall_median_s": statistics.median(walls),
            "wall_max_s": max(walls), "probe_median_s": statistics.median(p for _, p in values)}
    return summaries


def traced_metrics(runner: Runner, seconds: float, work: Path, details: dict):
    """Half the time untraced, half traced; per-layer metrics and tracing overhead."""
    import tracing

    untraced, _ = runner.run_for(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, iterations = runner.run_for(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    runs = {metric: len(values) for metric, values in traced.items()}
    report = json.loads(runner.workload.placement_report.read_text())
    metrics = tracer.layer_metrics(iterations, runs, report["candidates_evaluated"])
    base, with_trace = medians(untraced), medians(traced)
    for name, command in tracing.OVERHEAD_METRICS.items():
        metrics[name] = 1000.0 * (with_trace[command] - base[command])
    units = {name: spec.unit for name, spec in tracing.LAYER_METRICS.items()}
    units.update({name: "ms" for name in tracing.OVERHEAD_METRICS})
    tracer.dump(work / "spans.jsonl")
    details.update(untraced_s=summary(untraced), traced_s=summary(traced),
                   traced_iterations=iterations)
    return metrics, units


def end_to_end_metrics(runner: Runner, seconds: float, setup: list[Sample], details: dict):
    import workloads

    samples, iterations = runner.run_for(seconds)
    metrics = medians(samples)
    metrics["setup_s"] = statistics.median(map(nominal, setup))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = workloads.tokenizer_quality(runner.workload)
    metrics["recon_mse"] = quality["recon_mse"]
    metrics["usage_entropy"] = quality["usage_entropy"]
    placement = json.loads(runner.workload.placement_report.read_text())
    details.update(iterations=iterations, samples=summary(samples), mean_predictor_mse=quality["mean_predictor_mse"],
                   tokenizer_beats_mean_predictor=(
                       quality["recon_mse"] < quality["mean_predictor_mse"]),
                   placement_collision_m=placement["collision"],
                   candidates_evaluated=placement["candidates_evaluated"])
    return metrics, E2E_METRICS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "motok" / "__init__.py").is_file():
        print(f"error: no motok sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    blas = cap_blas_threads()
    sys.path[:0] = [str(SRC), str(ROOT / "scripts"), str(BENCH)]

    speed = CoreSpeed()
    first_probe = speed.pick()
    start = time.perf_counter()
    import motok.cli
    first_import = time.perf_counter() - start
    import numpy
    if Path(motok.cli.__file__).resolve().parent != (SRC / "motok").resolve():
        print(f"error: imported motok from {motok.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = BENCH / "_work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    setup = []
    for i in range(SETUP_REPEATS):
        # a fresh interpreter inherits the core this thread is on
        before = speed.pick() if i else first_probe
        imported = import_seconds() if i else first_import
        start = time.perf_counter()
        workloads.write_inputs(args.workload, args.seed, work)
        setup.append((imported + time.perf_counter() - start, (before + speed.probe()) / 2))
    workload = workloads.build(args.workload, args.seed, work)
    runner = Runner(workload, motok.cli.dispatch, speed)
    # Freeing one large block raises glibc's dynamic mmap threshold to its
    # ~32 MB cap, as a process's first large free does anyway.  Without this,
    # in-process calls switch between allocation modes part way through some
    # runs and not others, which shifts small-command timings by up to 50%.
    # The block is never touched, so it adds nothing to peak RSS.
    numpy.empty(ALLOCATOR_WARMUP_BYTES, dtype=numpy.uint8)

    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "setup_samples": setup}
    if args.trace:
        metrics, units = traced_metrics(runner, args.seconds, work, details)
    else:
        metrics, units = end_to_end_metrics(runner, args.seconds, setup, details)
    details["failures"] = runner.failures
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"environment": environment(blas), "details": details}
    (work / "result.json").write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

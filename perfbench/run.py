#!/usr/bin/env python3
"""Outside-in benchmark for alphaprivacy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload's passes repeat for about ``--seconds``
seconds and the end-to-end metrics are reported: medians over passes at a
fixed reference speed (see ``Reference``), and over several fresh-process
set-ups for ``setup_s``.  With ``--trace 1`` an
untraced and a traced pass run (the traced one sequential, in one process)
and the per-layer metrics are computed from the traced pass's spans.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, digests, extra rates) is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("clusters_sweep", "load_si_sweep", "exact_channel")
SETUP_REPEATS = {"full": 9, "smoke": 2}
# at least two passes per run, so every run also checks that a repeated
# pass reproduces its digest
MIN_PASSES = 2
# Reference-kernel time that defines the reference speed (about its median
# on a quiet 2-core x86-64 VM).  It only sets the scale of points_per_min,
# so that parent and change are compared at the same speed.
REFERENCE_S = 0.05
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest inputs, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_workloads():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "alphaprivacy" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no alphaprivacy package under {SRC}")
    sys.path.insert(0, str(SRC))
    import alphaprivacy

    if Path(alphaprivacy.__file__).resolve().parent != SRC / "alphaprivacy":
        raise SystemExit(f"perfbench: imported alphaprivacy from {alphaprivacy.__file__}")
    import workloads

    return workloads


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas")
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **git_state(),
    }


def git_state():
    """Commit and dirty flag of the checkout, or None when it is not a git
    work tree (the ceiling stops git from finding an enclosing repo)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd):
        try:
            proc = subprocess.run(["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status)}


class Reference:
    """A fixed NumPy kernel timed between units of work, to track the speed
    of the machine during the run.

    Its mix resembles the program's: many small matmuls, tanh and softmax
    steps on (256, 1, 16) batches (the dense nets' pattern), then large
    elementwise and einsum sweeps (the grid oracle's pattern).  It calls no
    alphaprivacy code, so a change to the program cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.random((256, 1, 6))
        self.w = rng.random((6, 16)) - 0.5
        self.b = rng.random(16)
        self.v = rng.random((16, 2)) - 0.5
        self.big = rng.random((65536, 2, 2))
        self.m = rng.random((2, 2))
        self.samples = []

    def sample(self):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(480):
            e = np.exp(np.tanh(self.x @ self.w + self.b) @ self.v)
            acc += float((e / e.sum(axis=-1, keepdims=True)).sum())
        for _ in range(12):
            acc += float(np.einsum("nwz,wz->n", self.big, self.m).sum())
            acc += float(np.log1p(self.big).sum())
        self.samples.append(time.perf_counter() - start)
        return acc


def timed_passes(wl, seconds, reference):
    """Repeat passes until the next one would overrun ``seconds``, timing
    the reference kernel before the first pass and after each segment."""
    passes = []
    start = time.perf_counter()
    reference.sample()
    while True:
        t0 = time.perf_counter()
        first = len(reference.samples) - 1
        result = wl.run_pass(tick=reference.sample)
        result.reference_samples = reference.samples[first:]
        passes.append(result)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - start) + (now - t0) > seconds:
            return passes


def reference_seconds(result):
    """Program time of a pass at the reference speed: each segment scaled by
    REFERENCE_S over the mean kernel time just before and just after it."""
    refs = result.reference_samples
    return sum(
        sum(seg.values()) * REFERENCE_S * 2.0 / (before + after)
        for seg, before, after in zip(result.segments, refs, refs[1:])
    )


def setup_seconds(args, digest):
    """Median wall time of complete set-ups, each in a fresh interpreter so
    that the import is paid every time, plus whether every fresh set-up
    produced the same inputs as this process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    walls, same = [], True
    for _ in range(SETUP_REPEATS[args.size]):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        same &= json.loads(proc.stdout.splitlines()[-1])["setup_digest"] == digest
    return statistics.median(walls), same


def peak_rss_mb(workers):
    """Peak RSS of this process, plus ``workers`` times the largest pool
    child's peak when the workload fans out (pages shared after fork are
    counted in both, so this bounds the true peak from above)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0


def run_untraced(args, wl):
    reference = Reference()
    passes = timed_passes(wl, args.seconds, reference)
    rss = peak_rss_mb(wl.workers)  # before the set-up processes add children
    setup_s, setup_same = setup_seconds(args, wl.setup_digest)
    # The speed of a shared box drifts by up to 2x over minutes, so the
    # rate is stated at a fixed reference speed.  One-process work is
    # scaled segment by segment, by the kernel timed in the same process
    # just before and after it.  A pool runs on both cores, which a kernel
    # timed between passes in this process does not follow (per-pass
    # scaling raised the pooled sweep's spread), so a pooled workload is
    # scaled by the run's median kernel time.  Medians over passes discard
    # the passes a burst of load hit.
    points = passes[0].points
    rate = statistics.median(60.0 * points / p.program_s for p in passes)
    reference_s = statistics.median(reference.samples)
    if wl.workers == 1:
        scaled = statistics.median(60.0 * points / reference_seconds(p) for p in passes)
    else:
        scaled = rate * reference_s / REFERENCE_S
    metrics = {
        "points_per_min": (scaled, "1/min"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "points_per_min_unscaled": (rate, "1/min"),
        "reference_s": (reference_s, "s"),
        "passes": (len(passes), "count"),
    }
    rates = (("measures", "measure_evals_per_s", 1.0, "1/s"),
             ("solve", "channel_solves_per_s", 1.0, "1/s"),
             ("oracle", "oracle_mcands_per_s", 1e-6, "1e6/s"))
    for phase, name, scale, unit in rates:
        if phase in passes[0].work:
            phase_s = statistics.median(p.phase_s(phase) for p in passes)
            extra[name] = (scale * passes[0].work[phase] / phase_s, unit)
    checks = {"setup_repeats": setup_same}
    return passes, metrics, extra, checks


def run_traced(args, wl):
    from tracing import Tracer, per_layer_metrics

    untraced = wl.run_pass()
    passes = [untraced]
    pool_wall = None
    if wl.workers > 1:
        # per-layer spans need one process, so the traced pass runs
        # sequentially; compare it against an untraced sequential pass
        pool_wall = untraced.program_s
        passes.append(wl.run_pass(sequential=True))
    tracer = Tracer()
    with tracer.installed():
        traced = wl.run_pass(sequential=True)
    passes.append(traced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    metrics = per_layer_metrics(
        tracer.spans, traced.program_s, passes[-2].program_s, pool_wall, wl.workers
    )
    return passes, metrics, {}, {}


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    workloads = import_workloads()
    wl = workloads.setup(args.workload, args.seed, args.size)
    if args.setup_only:
        print(json.dumps({"setup_digest": wl.setup_digest}))
        return 0

    runner = run_traced if args.trace else run_untraced
    passes, metrics, extra, checks = runner(args, wl)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes})
    checks["outputs"] = failed == 0
    checks["digest_repeats"] = len(digests) == 1
    correct = all(checks.values())
    extra["fail_ratio"] = (failed / attempted, "ratio")

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} digest = {' '.join(digests)}")
    print(f"{args.workload} checks = {checks}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "correct": correct,
        "attempted": attempted, "failed": failed, "checks": checks, "digests": digests,
        "pass_program_s": [p.program_s for p in passes],
        "pass_reference_samples": [p.reference_samples for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "environment": environment(),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

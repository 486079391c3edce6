"""The three benchmark workloads, driven only through alphaprivacy's public API.

Each workload has a set-up step (everything a user pays before the first
result: import, data generation and split, SI calibration, world
construction) and a pass (one unit of repeatable work whose outputs are
checked and hashed).  Every input is derived from the workload seed; the
program only ever sees the generated configs, worlds and joints.

Program functions are looked up through their module at call time
(``ap_channel.optimize_channel``, ``ap_sweep.sweep``) so that the traced
run's wrappers, installed on those module attributes, see the calls.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import alphaprivacy.channel as ap_channel
import alphaprivacy.measures as ap_measures
import alphaprivacy.sweep as ap_sweep
from alphaprivacy.datasets import SynthConfig
from alphaprivacy.losses import DistortionSpec
from alphaprivacy.training import HyperParams

ROOT = Path(__file__).resolve().parent.parent

# Tuned operating point of the adversarial game (the acceptance suite's
# GAME config), minus the iteration count, which the size sets.
GAME = dict(momentum=0.0, lr_releaser=0.02, lr_decay=0.002, lr_adversary=0.1,
            adversary_steps=10, batch_size=256, average_tail=0.5)

# The ten criterion-5 instances: (p0, flip, alpha, lambda).
CRITERION5 = [
    (0.5, 0.0, 2.0, 0.5), (0.5, 0.2, 2.0, 0.5), (0.6, 0.1, 2.0, 0.3),
    (0.3, 0.15, 0.5, 0.8), (0.5, 0.0, 3.0, 1.0), (0.7, 0.25, 1.0, 0.4),
    (0.45, 0.05, 0.9, 0.6), (0.55, 0.3, 2.0, 1.5), (0.5, 0.1, 1.1, 0.2),
    (0.65, 0.0, 3.0, 0.7),
]
# Worlds with a side-information axis: (p0, w_flip, y_flip, s_agree, alpha,
# lambda); W, Y and S are independent noisy views of X.
SIDE_WORLDS = [(0.5, 0.1, 0.2, 0.8, 2.0, 0.6), (0.6, 0.2, 0.1, 0.7, 0.5, 1.0)]
HAMMING = [[0.0, 1.0], [1.0, 0.0]]
MEASURE_ALPHAS = (0.5, 0.9, 1.0, 2.0, 3.0)

# Output checks that hold on any seed (the tuned acceptance thresholds hold
# only for pinned seeds, so they are not used here).
MEASURE_TOL = 1e-10
ORACLE_GAP = 1e-3

SIZES = {
    "full": {
        "clusters_sweep": dict(total=16384, iterations=50, batch_size=256),
        "load_si_sweep": dict(total=3000, num_steps=24, iterations=25, batch_size=128,
                              si_tol=0.004),
        "exact_channel": dict(joints=200, instances=len(CRITERION5), s_worlds=2,
                              max_iters=400, resolution=1001),
    },
    "smoke": {
        "clusters_sweep": dict(total=1024, iterations=4, batch_size=64),
        "load_si_sweep": dict(total=600, num_steps=6, iterations=3, batch_size=32,
                              si_tol=0.02),
        "exact_channel": dict(joints=10, instances=2, s_worlds=1, max_iters=400,
                              resolution=101),
    },
}


def _load_oracles():
    """The repository's brute-force reference measures (linear-space loops
    that share no code with the library's log-space kernels)."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sub_seeds(seed, n):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xBE7C]))
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=n)]


def digest_of(records):
    """sha256 over a JSON rendering; floats go through repr, so it is exact."""
    payload = json.dumps(records, sort_keys=True, allow_nan=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _array_digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class PassResult:
    """Outcome of one pass: ops attempted and failed, a digest of every
    output value, the trade-off points completed, the program seconds per
    phase of each segment (a pass calls ``tick`` after every segment), and
    the amount of work per phase."""

    attempted: int
    failed: int
    digest: str
    points: int
    segments: list
    work: dict = field(default_factory=dict)
    reference_samples: list = None  # kernel times around the segments

    @property
    def program_s(self):
        return sum(sum(seg.values()) for seg in self.segments)

    def phase_s(self, phase):
        return sum(seg.get(phase, 0.0) for seg in self.segments)


# --- trade-off sweeps --------------------------------------------------------


class _SweepWorkload:
    alphas: tuple
    lambdas: tuple
    workers: int
    si_enabled: bool

    def _check_point(self, point, alpha, lam):
        return (
            not point.failed
            and point.alpha == alpha
            and point.lam == lam
            and math.isfinite(point.ne)
            and point.ne >= 0.0
            and 0.0 <= point.attacker_balanced_accuracy <= 1.0
        )

    def run_pass(self, sequential=False, tick=None):
        workers = 1 if sequential else self.workers
        start = time.perf_counter()
        points = ap_sweep.sweep(
            self.base, self.lambdas, self.alphas, self.data_cfg,
            si_enabled=self.si_enabled, distortion=self.spec, workers=workers,
        )
        program_s = time.perf_counter() - start
        if tick is not None:
            tick()
        grid = [(a, l) for a in sorted(self.alphas) for l in sorted(self.lambdas)]
        failed = len(grid) - len(points)
        failed += sum(
            not self._check_point(p, a, l) for p, (a, l) in zip(points, grid)
        )
        return PassResult(
            attempted=len(grid), failed=failed,
            digest=digest_of([asdict(p) for p in points]), points=len(grid),
            segments=[{"sweep": program_s}],
        )


class ClustersSweep(_SweepWorkload):
    """Static labeled_clusters data, dense nets, the GAME operating point,
    a 2 x 3 (alpha, lambda) grid fanned out over a 2-worker process pool."""

    alphas = (0.9, 3.0)
    lambdas = (0.0, 3.0, 20.0)
    workers = 2
    si_enabled = False

    def __init__(self, seed, size):
        data_seed, hyper_seed = _sub_seeds(seed, 2)
        self.data_cfg = SynthConfig(
            generator="labeled_clusters", total=size["total"], seed=data_seed
        )
        game = dict(GAME, batch_size=size["batch_size"])
        self.base = HyperParams(seed=hyper_seed, iterations=size["iterations"], **game)
        self.spec = DistortionSpec("p_norm", p=2.0)
        train_data, eval_data = ap_sweep.train_eval_split(self.data_cfg)
        self.setup_digest = _array_digest(
            train_data.y, train_data.x, eval_data.y, eval_data.x
        )


class LoadSiSweep(_SweepWorkload):
    """Recurrent markov_load data (T steps, d_y = 1) with side information
    calibrated to a 0.578 SI-only accuracy, run sequentially."""

    alphas = (1.0, 3.0)
    lambdas = (0.0, 20.0)
    workers = 1
    si_enabled = True

    def __init__(self, seed, size):
        data_seed, hyper_seed = _sub_seeds(seed, 2)
        base_cfg = SynthConfig(
            generator="markov_load", total=size["total"], num_steps=size["num_steps"],
            d_y=1, seed=data_seed, stay_prob=0.8, occupancy_bump=1.0, load_noise=0.25,
        )
        self.data_cfg = ap_sweep.calibrate_si_correlation(
            base_cfg, target=0.578, tol=size["si_tol"]
        )
        self.base = HyperParams(
            momentum=0.0, batch_size=size["batch_size"], adversary_steps=4,
            iterations=size["iterations"], lr_releaser=0.01, lr_decay=0.002,
            average_tail=0.5, lr_adversary=0.1, num_steps=size["num_steps"],
            observed_mode="concat_xy", seed=hyper_seed,
        )
        self.spec = DistortionSpec("ts_l2")
        self.setup_digest = digest_of(
            [self.data_cfg.si_correlation, ap_sweep.measure_si_floor(self.data_cfg)]
        )


# --- exact layer -------------------------------------------------------------


def noisy_world(p0, flip):
    """X = W, Y a flip-noisy copy of X (the criterion-5 family)."""
    table = np.zeros((2, 2, 2))
    for x in range(2):
        px = p0 if x == 0 else 1.0 - p0
        for y in range(2):
            table[x, x, y] = px * (1.0 - flip if y == x else flip)
    return ap_channel.WorldModel(ap_measures.JointPmf(table, ("X", "W", "Y")), HAMMING)


def side_world(p0, w_flip, y_flip, s_agree):
    """X binary with P(X=0) = p0; W, Y and S are independent noisy copies."""
    def view(flip):
        return np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])

    table = np.einsum(
        "x,xw,xy,xs->xwys", np.array([p0, 1.0 - p0]), view(w_flip), view(y_flip),
        view(1.0 - s_agree),
    )
    return ap_channel.WorldModel(
        ap_measures.JointPmf(table / table.sum(), ("X", "W", "Y", "S")), HAMMING
    )


def grid_candidates(world, resolution):
    """Candidate channels the grid oracle scores: per-row grid points (the
    compositions of resolution - 1 into |Z| parts) to the power |W|."""
    rows = math.comb(resolution - 1 + world.num_symbols - 1, world.num_symbols - 1)
    return rows ** world.size("W")


class ExactChannel:
    """(a) measures on random joints checked against brute force,
    (b) optimize_channel on the criterion-5 worlds plus worlds with an S
    axis, (c) the resolution-grid oracle on every instance.  The worlds are
    fixed so that the work per pass barely depends on the seed, which
    drives the joints and the optimizer starts."""

    workers = 1

    def __init__(self, seed, size):
        self.oracles = _load_oracles()
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC4A7]))
        self.joints = []
        for _ in range(size["joints"]):
            shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            table = self.oracles.random_joint(rng, shape)
            self.joints.append((
                table,
                ap_measures.JointPmf(table, ("X", "Z")),
                ap_measures.Pmf(table.sum(axis=1)),
            ))
        self.instances = []
        for p0, flip, alpha, lam in CRITERION5[: size["instances"]]:
            self.instances.append((noisy_world(p0, flip), alpha, lam))
        for *params, alpha, lam in SIDE_WORLDS[: size["s_worlds"]]:
            self.instances.append((side_world(*params), alpha, lam))
        self.configs = [
            ap_channel.ChannelOptConfig(alpha=alpha, lam=lam, max_iters=size["max_iters"])
            for _, alpha, lam in self.instances
        ]
        self.opt_seeds = _sub_seeds(seed, len(self.instances))
        self.resolution = size["resolution"]
        self.setup_digest = _array_digest(
            *[t for t, _, _ in self.joints], *[w.joint.probs for w, _, _ in self.instances]
        )

    def run_pass(self, sequential=False, tick=None):
        """``tick``, when given, is called after the measure block and after
        each instance, so that the caller can sample the machine's speed
        during the pass."""
        del sequential  # single process either way
        records = []
        failed = 0

        # (a) measure API calls, timed as one block; checked afterwards
        values = []
        start = time.perf_counter()
        for _, joint, marginal in self.joints:
            for alpha in MEASURE_ALPHAS:
                values.append((
                    ap_measures.renyi_entropy(marginal, alpha),
                    ap_measures.arimoto_conditional_entropy(joint, alpha),
                    ap_measures.alpha_mutual_information(joint, alpha),
                ))
        segments = [{"measures": time.perf_counter() - start}]
        if tick is not None:
            tick()
        evals = 3 * len(values)
        k = 0
        for table, _, marginal in self.joints:
            for alpha in MEASURE_ALPHAS:
                h_x = self.oracles.renyi_entropy_direct(marginal.probs, alpha)
                h_xz = self.oracles.arimoto_conditional_direct(table, alpha)
                want = (h_x, h_xz, h_x - h_xz)
                failed += sum(
                    not abs(got - ref) <= MEASURE_TOL for got, ref in zip(values[k], want)
                )
                k += 1
        records.append([v for triple in values for v in triple])

        # (b) optimizer and (c) oracle, per instance
        cands = 0
        for (world, _, _), cfg, opt_seed in zip(self.instances, self.configs, self.opt_seeds):
            t0 = time.perf_counter()
            result = ap_channel.optimize_channel(world, cfg, opt_seed)
            t1 = time.perf_counter()
            opt_obj = ap_channel.releaser_objective(world, result.channel, cfg)
            t2 = time.perf_counter()
            grid_channel, grid_obj = ap_channel.grid_oracle(world, cfg, self.resolution)
            t3 = time.perf_counter()
            segments.append({"solve": t1 - t0, "verify": t2 - t1, "oracle": t3 - t2})
            if tick is not None:
                tick()
            cands += grid_candidates(world, self.resolution)
            trace = np.asarray(result.trace)
            ok = (
                np.all(np.isfinite(trace))
                and np.all(np.diff(trace) <= 0.0)
                and math.isfinite(opt_obj)
                and opt_obj - grid_obj <= ORACLE_GAP
            )
            failed += not ok
            records.append([
                result.channel.probs.tolist(), result.trace, result.converged,
                opt_obj, grid_channel.probs.tolist(), grid_obj,
            ])
        return PassResult(
            attempted=evals + len(self.instances),
            failed=failed,
            digest=digest_of(records),
            points=len(self.instances),
            segments=segments,
            work={"measures": evals, "solve": len(self.instances), "oracle": cands},
        )


WORKLOADS = {
    "clusters_sweep": ClustersSweep,
    "load_si_sweep": LoadSiSweep,
    "exact_channel": ExactChannel,
}


def setup(name, seed, size="full"):
    return WORKLOADS[name](seed, SIZES[size][name])

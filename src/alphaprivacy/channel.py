"""Exact release-channel optimization on small discrete alphabets.

The decision variable is a row-stochastic matrix p(Z | W).  The data law
p(X, W, Y[, S]) and a distortion table d(z, y) form a world model; the
objective is expected distortion minus lambda times the Arimoto
conditional alpha-entropy of the private variable given the release (and
side information when present), with the adversary's posterior re-derived
exactly by Bayes' rule at every step.

Everything is single-sequence-element (T = 1): exact enumeration over
sequence space is out of reach for longer horizons, which the neural
pathway covers instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError, check_count, check_real
from .fileio import read_json
from .measures import ZERO_PROB, JointPmf, _arimoto_entropy, _check_distributions

MAX_EXACT_ALPHABET = 16

# Halved steps an optimizer iteration tries before it keeps its channel:
# 14 whole ladder rounds, so that the least rung of the largest start,
# step_size * MAX_START_RATIO * 2**-(MAX_TRIALS - 1), stays far below the
# step_size * 2**-33 of a 64 cap with 40 trials.
MAX_TRIALS = 56
# A start stops once one iteration improves its objective by less than this.
TOLERANCE = 1e-10
# Halved steps scored per backtracking round.  A wider round wastes trial
# work whenever an early rung is accepted (width 8 ran the criterion-5
# worlds 45% slower, and an 8 x 8 x 8 world with an S axis 70% slower, when
# every start was the fixed step).
LADDER_WIDTH = 4
# Largest start step, in units of ``step_size``: finite, so that
# ``step_size`` still bounds every trial step (and lowering it can cure an
# overflowing step).  On 300 random worlds (the hypothesis draws of the
# grid-oracle property test) the winners took 30771 iterations with the
# fixed start, and 10802, 6221, 4891 and 4268 with caps 16, 64, 256 and
# none; the worst gaps to the grid oracle were 1.3e-5, 1.2e-5, 9.5e-6,
# 2.7e-6 and 2.1e-6.  A sweep against cap 64 on the test's 300 draws and
# on 400 seeded worlds (|X| 2-3, |W| 2-4, |Y| = |Z| 2-3, half of them
# sparse, alpha 0.3 to 5, lambda 0.05 to 2, step_size 8 to 64, 400
# iterations) took 6954 and 11262 winner iterations at 64, 4042 and 7547
# at 216, and 3031 and 6342 at 2**20.  Of 21 caps from 96 to 2**20, only
# 192 and 216 left no world of either set above its cap-64 objective by
# more than 1e-7.  From about 1536 up, a start that large can jump an
# alpha <= 1 iterate onto a face, where the kernel's zero gradient stops
# it early (up to +8.2e-5); below that, the worse worlds are alpha > 1
# runs that end elsewhere, and about as many end better.
MAX_START_RATIO = 216.0


def _check_channel_rows(probs):
    """Reject a channel, or a stack ``(..., |W|, |Z|)`` of channels, whose
    rows are not distributions."""
    return _check_distributions(probs, "ReleaseChannel", axis=-1)


class ReleaseChannel:
    """Conditional release distribution p(Z = z | W = w) as a matrix.

    ``probs[w, z]`` holds the probability of releasing symbol z on
    observation w; every row must be a valid distribution.
    """

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValidationError(
                f"ReleaseChannel: expected |W| x |Z| matrix, got shape {probs.shape}"
            )
        self.probs = _check_channel_rows(probs)

    def __repr__(self):
        return f"ReleaseChannel(shape={self.probs.shape})"


class WorldModel:
    """Data-generating law plus distortion table for the exact optimizer.

    ``joint`` carries axes ("X", "W", "Y") and optionally "S";
    ``distortion_table`` is |Z| x |Y| with non-negative entries, zero on
    the diagonal when Z and Y share an alphabet (square table).

    The marginals every objective evaluation reads are computed here, once:
    a changed law or table means building a new world.
    """

    def __init__(self, joint: JointPmf, distortion_table):
        labels = set(joint.axis_labels)
        if labels not in ({"X", "W", "Y"}, {"X", "W", "Y", "S"}):
            raise ValidationError(
                f"WorldModel: joint axes must be X, W, Y[, S], got {joint.axis_labels}"
            )
        table = np.asarray(distortion_table, dtype=np.float64)
        if table.ndim != 2:
            raise ValidationError("WorldModel: distortion table must be 2-D (|Z| x |Y|)")
        if not np.all(np.isfinite(table)) or np.any(table < 0.0):
            raise ValidationError("WorldModel: distortion entries must be finite and >= 0")
        ny = joint.probs.shape[joint.axis("Y")]
        if table.shape[1] != ny:
            raise ValidationError(
                f"WorldModel: distortion has {table.shape[1]} columns, |Y| = {ny}"
            )
        if table.shape[0] == table.shape[1] and np.any(np.diag(table) != 0.0):
            raise ValidationError(
                "WorldModel: d(z, y) must vanish at z = y for a shared alphabet"
            )
        self.joint = joint
        self.distortion_table = table
        # p(x, w, s) (a unit S axis when there is none) and
        # C[w, z] = sum_y p(w, y) d(z, y), so that E[d] = sum_{w,z} p(z|w) C[w, z]
        if "S" in labels:
            self._xws = joint.marginal(("X", "W", "S")).probs
        else:
            self._xws = joint.marginal(("X", "W")).probs[:, :, None]
        self._cost = joint.marginal(("W", "Y")).probs @ table.T

    @property
    def num_symbols(self):
        """Size of the release alphabet |Z|."""
        return self.distortion_table.shape[0]

    def size(self, label):
        return self.joint.probs.shape[self.joint.axis(label)]

    # --- JSON reader -----------------------------------------------------
    # Schema: {"axes": ["X","W","Y"(,"S")], "sizes": {axis: int, "Z": int},
    #          "joint": [row-major flat probabilities over the axes],
    #          "distortion": [[d(z,y) ...] per z]}

    @classmethod
    def from_dict(cls, doc):
        try:
            axes = tuple(doc["axes"])
            sizes = doc["sizes"]
            shape = tuple(check_count(f"sizes.{a}", sizes[a]) for a in axes)
            if "Z" in sizes:
                check_count("sizes.Z", sizes["Z"])
            flat = np.asarray(doc["joint"], dtype=np.float64)
            table = np.asarray(doc["distortion"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"world document missing/invalid field: {exc}") from exc
        if flat.size != int(np.prod(shape)):
            raise DataFormatError(
                f"world joint has {flat.size} entries, expected {int(np.prod(shape))}"
            )
        if table.ndim != 2:
            raise DataFormatError(f"world distortion must be a table, got shape {table.shape}")
        if "Z" in sizes and table.shape[0] != sizes["Z"]:
            raise DataFormatError(
                f"distortion table has {table.shape[0]} rows, sizes.Z = {sizes['Z']}"
            )
        return cls(JointPmf(flat.reshape(shape), axes), table)

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(read_json(path))


@dataclass
class ChannelOptConfig:
    """Optimizer settings; ``lam`` is the privacy weight.  ``step_size``
    scales the gradient in log units: a step multiplies each channel entry
    by ``exp(-step * gradient)`` before its row is renormalized.  It is
    the first iteration's start step, the start wherever the
    Barzilai-Borwein step is undefined, and the unit of the start's cap
    ``MAX_START_RATIO`` = 216, the largest cap of a sweep from 96 to 2**20
    that left no test world above its objective at cap 64 by more than
    1e-7 (see the comment at the constant)."""

    alpha: float = 1.0
    lam: float = 0.0
    step_size: float = 8.0
    max_iters: int = 500
    restarts: int = 4

    def __post_init__(self):
        check_real("alpha", self.alpha, 0.0, strict=True)
        check_real("lam", self.lam, 0.0)
        check_real("step_size", self.step_size, 0.0, strict=True)
        for name in ("max_iters", "restarts"):
            check_count(name, getattr(self, name))


@dataclass
class ChannelOptResult:
    channel: ReleaseChannel
    trace: list
    converged: bool


def _check_channel_shape(world: WorldModel, channel_probs: np.ndarray):
    if channel_probs.shape[0] != world.size("W"):
        raise ValidationError(
            f"channel has {channel_probs.shape[0]} rows, |W| = {world.size('W')}"
        )
    if channel_probs.shape[1] != world.num_symbols:
        raise ValidationError(
            f"channel has {channel_probs.shape[1]} columns, |Z| = {world.num_symbols}"
        )


def expected_distortion(world: WorldModel, channel: ReleaseChannel) -> float:
    """E[d(Z, Y)] under the induced joint, by exact summation."""
    _check_channel_shape(world, channel.probs)
    return float(np.sum(channel.probs * world._cost))


def releaser_objective(
    world: WorldModel, channel: ReleaseChannel, cfg: ChannelOptConfig
) -> float:
    """Expected distortion minus lambda times the adversary's residual
    alpha-entropy about X, at the exact Bayes best response (the n = 1 view
    of :func:`_batch_objective`)."""
    _check_channel_shape(world, channel.probs)
    return float(_batch_objective(world, channel.probs[None], cfg)[0])


def objective_gradient(world: WorldModel, channel: ReleaseChannel, cfg: ChannelOptConfig):
    """Analytic gradient of :func:`releaser_objective` in the channel entries,
    treating the Bayes adversary as re-solved at the current channel.
    Zero-mass joint entries contribute 0 (finite-difference cross-checks
    run on strictly positive channels).  The n = 1 view of
    :func:`_batch_objective` with ``grad``."""
    _check_channel_shape(world, channel.probs)
    return _batch_objective(world, channel.probs[None], cfg, grad=True)[1][0]


def _joint_tables(world: WorldModel, channels):
    """Induced joints of a channel stack (n, |W|, |Z|), laid out
    ``(X, cells, n)`` for the entropy kernel."""
    tables = np.einsum("xws,nwz->xzsn", world._xws, channels, order="C")
    return tables.reshape(len(tables), -1, len(channels))


def _batch_objective(world: WorldModel, channels, cfg: ChannelOptConfig, grad=False):
    """releaser_objective on a stack of channels (n, |W|, |Z|); with
    ``grad``, ``(values, gradients)`` from the same kernel call, the
    gradients being objective_gradient's."""
    values = (channels * world._cost).reshape(len(channels), -1).sum(axis=1)
    if cfg.lam == 0.0:
        return (values, np.broadcast_to(world._cost, channels.shape).copy()) if grad else values
    tables = _joint_tables(world, channels)
    if not grad:
        return values - cfg.lam * _arimoto_entropy(tables, cfg.alpha)
    entropy, dj = _arimoto_entropy(tables, cfg.alpha, grad=True)
    dj = dj.reshape(len(dj), world.num_symbols, -1, len(channels))
    return (
        values - cfg.lam * entropy,
        world._cost - cfg.lam * np.einsum("xzsn,xws->nwz", dj, world._xws, order="C"),
    )


def _check_finite_step(cfg: ChannelOptConfig, values):
    """Raise a ValidationError naming lambda and step_size unless every
    entry of ``values`` is finite: lambda times the entropy gradient, or a
    step along it, overflowed."""
    if not np.isfinite(values).all():
        raise ValidationError(
            f"lambda = {cfg.lam:g} with step_size = {cfg.step_size:g} overflows the "
            "optimizer's gradient step; lower lambda or step_size"
        )


def _start_steps(cfg: ChannelOptConfig, s, y):
    """Barzilai-Borwein start steps <s, s> / <s, y> of a stack ``(n, |W|,
    |Z|)`` of iterations, from the change ``s`` in log P and ``y`` in the
    gradient, each centred per row over the entries whose logs are finite
    and zero elsewhere, clipped to ``[step_size * 2**-MAX_TRIALS,
    step_size * MAX_START_RATIO]``; ``step_size`` where <s, y> <= 0 or the
    ratio is not finite.  Shaped ``(n, 1, 1)``.

    Each inner product sums over Z, then over W, so that a restart gets
    the same bits alone as in any stack."""
    add = np.add.reduce
    live = np.isfinite(s)
    if live.all():  # no underflowed entry: each mask below returns its input
        nz = s.shape[-1]
        s = s - add(s, axis=-1, keepdims=True) / nz
        y = y - add(y, axis=-1, keepdims=True) / nz
    else:
        count = add(live, axis=-1, keepdims=True)
        s = np.where(live, s, 0.0)
        y = np.where(live, y, 0.0)
        s = np.where(live, s - add(s, axis=-1, keepdims=True) / count, 0.0)
        y = np.where(live, y - add(y, axis=-1, keepdims=True) / count, 0.0)
    ss = add(add(s * s, axis=-1), axis=-1)
    sy = add(add(s * y, axis=-1), axis=-1)
    step = ss / sy
    step = np.where((sy > 0.0) & np.isfinite(step), step, cfg.step_size)
    step = np.minimum(np.maximum(step, cfg.step_size * 2.0**-MAX_TRIALS),
                      cfg.step_size * MAX_START_RATIO)
    return step[:, None, None]


# log 0 = -inf keeps an underflowed entry at zero; overflow is reported by
# _check_finite_step, once, without NumPy's warnings
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def optimize_channel(
    world: WorldModel, cfg: ChannelOptConfig, seed: int
) -> ChannelOptResult:
    """Exponentiated gradient (mirror) descent on the channel against the
    exact Bayes adversary.

    Rows are initialized from a flat Dirichlet; each iteration takes a
    multiplicative step with backtracking (step halved until the objective
    does not increase): each row becomes the softmax of ``log P - step *
    gradient``, a distribution with no projection, in which an entry
    reaches zero only if its exp underflows.  A start's first iteration
    halves from ``cfg.step_size``; each later one halves from the
    Barzilai-Borwein step of its last iteration (:func:`_start_steps`),
    at most ``MAX_START_RATIO`` times ``cfg.step_size``.  Runs
    ``cfg.restarts`` independent starts and keeps the best; the returned
    trace belongs to the winning start and is non-increasing.  A start
    stops once the per-iteration improvement falls below ``TOLERANCE``;
    ``converged`` is False if the winner ran out of iterations instead.
    Ties go to the lowest restart index.

    The running starts form one ``(n, |W|, |Z|)`` stack, which a start
    leaves when it stops, and their halvings a step ladder: each
    backtracking round takes the next ``LADDER_WIDTH`` halved steps
    ``start * 2**-k`` of the m starts still halving as one
    ``(LADDER_WIDTH * m, |W|, |Z|)`` stack, which gets one row update and
    one objective call, and each start keeps its first accepted step, as
    halving one step at a time would.  The objective call returns the
    gradients too, and a start's accepted trial carries its gradient into
    the next iteration, so no iteration makes a separate gradient call.
    The stack and the ladder return, bit for bit, what the restarts run
    one at a time, halving one step at a time, return.
    """
    check_count("seed", seed, 0)
    for lbl in world.joint.axis_labels:
        if world.size(lbl) > MAX_EXACT_ALPHABET:
            raise ValidationError(
                f"alphabet {lbl} larger than {MAX_EXACT_ALPHABET}: out of the exact regime"
            )
    if world.num_symbols > MAX_EXACT_ALPHABET:
        raise ValidationError("release alphabet larger than the exact regime allows")

    nw, nz = world.size("W"), world.num_symbols
    probs = np.stack([
        np.random.default_rng(np.random.SeedSequence([int(seed), r])).dirichlet(
            np.ones(nz), size=nw
        )
        for r in range(cfg.restarts)
    ])
    _check_channel_rows(probs)
    # the rungs' factors 2**-k, one row per round
    rounds = 2.0 ** -np.arange(MAX_TRIALS, dtype=np.float64).reshape(-1, LADDER_WIDTH, 1, 1, 1)
    obj, grad = _batch_objective(world, probs, cfg, grad=True)
    _check_finite_step(cfg, grad)
    logp = np.log(probs)
    start = np.full((cfg.restarts, 1, 1), cfg.step_size, dtype=np.float64)
    traces = [[value] for value in obj.tolist()]
    converged = np.zeros(cfg.restarts, dtype=bool)
    final_probs, final_obj = probs.copy(), obj.copy()
    # the running starts as a compact stack: row i of probs, logp, grad, obj
    # and start is restart ids[i]; a start that stops leaves it
    ids = np.arange(cfg.restarts)
    for _ in range(cfg.max_iters):
        next_probs, next_obj, next_grad = probs.copy(), obj.copy(), grad.copy()
        pending = np.arange(len(ids))  # rows still halving
        at = slice(None)  # indexes them: every row in the first round
        for factors in rounds:
            # rung-major: the softmax of log P - step * grad, row by row
            ladder = factors * start[at]
            trials = (logp[at] - ladder * grad[at]).reshape(-1, nw, nz)
            trials -= trials.max(axis=-1, keepdims=True)
            np.exp(trials, out=trials)
            trials /= trials.sum(axis=-1, keepdims=True)
            _check_finite_step(cfg, trials)
            values, grads = _batch_objective(world, trials, cfg, grad=True)
            accept = values.reshape(LADDER_WIDTH, -1) <= obj[at]
            hit = accept.any(axis=0)
            pick = (accept.argmax(axis=0) * len(pending) + np.arange(len(pending)))[hit]
            rows = pending[hit]
            next_probs[rows], next_obj[rows] = trials[pick], values[pick]
            next_grad[rows] = grads[pick]
            at = pending = pending[~hit]
            if not len(pending):
                break
        next_logp = np.log(next_probs)
        for r, value in zip(ids.tolist(), next_obj.tolist()):
            traces[r].append(value)
        start = _start_steps(cfg, next_logp - logp, next_grad - grad)
        done = obj - next_obj < TOLERANCE
        probs, logp, grad, obj = next_probs, next_logp, next_grad, next_obj
        if done.any():
            stopped, live = ids[done], ~done
            converged[stopped] = True
            final_probs[stopped], final_obj[stopped] = probs[done], obj[done]
            ids, probs, logp, grad, obj, start = (
                ids[live], probs[live], logp[live], grad[live], obj[live], start[live])
            if not len(ids):
                break
    final_probs[ids], final_obj[ids] = probs, obj
    _check_finite_step(cfg, final_obj)
    best = int(np.argmin(final_obj))  # the first of equal minima
    return ChannelOptResult(ReleaseChannel(final_probs[best]), traces[best], bool(converged[best]))


def free_parameter_count(world: WorldModel) -> int:
    """Free channel parameters: |W| rows with |Z| - 1 degrees each."""
    return world.size("W") * (world.num_symbols - 1)


def enumerate_grid_rows(num_symbols: int, resolution: int):
    """All grid rows of a single channel row: each of the |Z| - 1 leading
    entries ranges over ``resolution`` uniform points in [0, 1]; the last
    entry absorbs the remainder and infeasible combinations are skipped.
    Rows appear in lexicographic order of the leading entries."""
    check_count("grid resolution", resolution, 2)
    pts = np.linspace(0.0, 1.0, resolution)
    grids = np.meshgrid(*([pts] * (num_symbols - 1)), indexing="ij")
    # one symbol: a single row [1.0], whose lead is empty
    lead = np.stack([g.ravel() for g in grids], axis=1) if grids else np.zeros((1, 0))
    remainder = 1.0 - lead.sum(axis=1)
    keep = remainder >= -1e-12
    rows = np.concatenate([lead[keep], np.clip(remainder[keep], 0.0, None)[:, None]], axis=1)
    return rows


# Entries of one block's candidate tables in grid_oracle (128 KB): small
# enough that the block's buffers stay in cache and below malloc's mmap
# threshold.  One entropy-kernel call scores at most one block.
GRID_BLOCK_ENTRIES = 1 << 14
# Candidates whose distortions grid_oracle bounds at once: 65 prefixes of a
# resolution-1001 binary grid, and one prefix when the last row's grid alone
# is larger.  Only a chunk's run sums are stored whole (one per
# GRID_RUN_ROWS candidates, 64 KB), and candidates are gathered sparsely
# from the runs that may hold a winner.
GRID_CHUNK_ENTRIES = 1 << 16
# Consecutive last-row grid rows that grid_oracle bounds as one run by the
# entropy of their corner table.
GRID_RUN_ROWS = 8
# Rounding allowance of grid_oracle's lower bounds, per unit of the values'
# magnitude and of alpha / |1 - alpha|.  The entropy kernel's closed form
# divides its rounding by 1 - alpha, so its error grows like
# eps * alpha / |1 - alpha| near alpha = 1 (4.1e-5 at |alpha - 1| = 1e-11).
# Over 6000 random tables, down to 1e-11 from alpha = 1, the kernel's
# H(X | Z, S) exceeded its H(X | S) by under 0.5% of this allowance, and
# over 6000 random runs the kernel's H of a table of the run exceeded its
# H of the run's bounding corner by under 0.2% of it (2.7e-15).
GRID_BOUND_TOL = 1e-12


def _bound_slack(alpha, lam, entries, scale):
    """How far a candidate's computed lower bound, by H(X | S) or by its
    run's corner table, may exceed the incumbent with the candidate still
    able to win: the rounding of values up to ``scale`` in magnitude,
    amplified near alpha = 1, plus lam times what the kernel's dropping of
    the entries at or below ``ZERO_PROB`` of an ``entries``-entry table can
    move an entropy (-p log p at most each)."""
    amplify = 1.0 if alpha == 1.0 else 1.0 + alpha / abs(1.0 - alpha)
    dropped = entries * ZERO_PROB * (1.0 - math.log(ZERO_PROB))
    return GRID_BOUND_TOL * amplify * (1.0 + scale) + lam * dropped


def _run_corners(parts, starts, alpha):
    """The corner contribution of each run ``parts[..., starts[j]:starts[j + 1]]``
    of grid rows: entrywise least for alpha > 1, greatest for alpha <= 1.
    With any prefix added, the corner table's entropy bounds the entropy of
    every table of the run from above."""
    corner_of = np.minimum if alpha > 1.0 else np.maximum
    return corner_of.reduceat(parts, starts, axis=-1)


def grid_oracle(world: WorldModel, cfg: ChannelOptConfig, resolution: int):
    """Exhaustive grid search over the channel, for verifying the optimizer.

    Evaluates the releaser objective at every combination of per-row grid
    rows (``resolution`` points per free parameter) and returns the best
    ``(ReleaseChannel, objective)``.  Ties break to the first candidate in
    lexicographic enumeration order (first row most significant).

    A candidate's joint is the sum of its rows' contributions, so each
    row's contribution and distortion are computed once; a chunk of
    ``GRID_CHUNK_ENTRIES`` candidates (at least one prefix) decodes only
    the prefix rows 0..|W|-2 and pairs them with the last row's whole grid.

    A candidate is scored only if it can win, by two lower bounds on its
    objective (at lambda = 0 both are its distortion, exact).  Arimoto's
    entropy never exceeds H_alpha(X | S) (Minkowski's inequality), so
    ``distortion - lambda * H_alpha(X | S)`` is one.  The last row's grid
    is cut into runs of ``GRID_RUN_ROWS`` consecutive rows; with the prefix
    fixed, the tables of a run lie entrywise between its corner tables,
    prefix plus the entrywise least (or greatest) contribution of the run's
    rows.  The kernel's entropy is monotone in every table entry,
    non-increasing for alpha > 1 and non-decreasing for alpha <= 1, so the
    entropy of the least corner (alpha > 1) or of the greatest (alpha <= 1)
    bounds every table of the run, and ``distortion - lambda *
    min(H_corner, H_alpha(X | S))`` is the other.  Corners are scored only
    for runs whose least distortion passes the first bound.  A candidate
    whose bound exceeds the cutoff (the best of a coarse sub-grid, then the
    running best) by more than the kernel's rounding (:func:`_bound_slack`)
    is ruled out.  The survivors are gathered in index order into a table
    buffer and scored at most ``max(GRID_RUN_ROWS, GRID_BLOCK_ENTRIES //
    (|X| * cells))`` per kernel call.  The scoring calls alone pass the
    kernel a ``work`` buffer.  Every buffer is allocated once per call, and
    each scoring call's arrays are leading, C-contiguous parts of them, so
    the values are those of a full scan to the bit.
    """
    nfree = free_parameter_count(world)
    if nfree > 4:
        raise ValidationError(
            f"grid oracle limited to 4 free parameters, instance has {nfree}"
        )
    rows = enumerate_grid_rows(world.num_symbols, resolution)
    nr, nw = rows.shape[0], world.size("W")
    # parts[w, x, cell, r] = p(x, w[, s]) rows[r, z]; dist[w, r] = sum_z rows[r, z] C[w, z]
    parts = np.einsum("xws,rz->wxzsr", world._xws, rows).reshape(nw, len(world._xws), -1, nr)
    dist = world._cost @ rows.T
    nprefix = nr ** (nw - 1)
    nx, ncells = parts.shape[1:3]
    per = max(1, GRID_CHUNK_ENTRIES // nr)
    block = max(GRID_RUN_ROWS, GRID_BLOCK_ENTRIES // (nx * ncells))
    # every objective is at least its distortion minus floor; the best of a
    # coarse sub-grid of candidates is the first cutoff
    h_s = float(_arimoto_entropy(world._xws.sum(axis=1), cfg.alpha))
    floor = cfg.lam * h_s
    slack = _bound_slack(cfg.alpha, cfg.lam, nx * ncells, dist.max(axis=1).sum() + floor)
    side = min(nr, max(2, int(block ** (1.0 / nw))))
    pick = np.linspace(0, nr - 1, side).astype(np.int64)
    cut = float(_batch_objective(world, rows[pick[_decode(np.arange(side**nw), side, nw)]],
                                 cfg).min())
    # the last row's grid in runs: run_rows[j, t] is the distortion of run
    # j's row t (NaN past the grid), run_dist[j] the least of them
    starts = np.arange(0, nr, GRID_RUN_ROWS)
    run_rows = np.full((len(starts), GRID_RUN_ROWS), np.nan)
    run_rows.flat[:nr] = dist[-1]
    run_dist = np.minimum.reduceat(dist[-1], starts)
    corners = _run_corners(parts[-1], starts, cfg.alpha)
    table_buf, work_buf = np.empty((2, nx * ncells * block))
    group = block // GRID_RUN_ROWS  # runs whose candidates fill at most one block
    base, base_dist = np.empty((nx, ncells, per)), np.empty(per)
    best_obj, best_index = np.inf, -1
    for p0 in range(0, nprefix, per):
        prefix = _decode(np.arange(p0, min(p0 + per, nprefix)), nr, nw - 1)
        n = len(prefix)
        base[:, :, :n] = 0.0
        base_dist[:n] = 0.0
        for w in range(nw - 1):
            base[:, :, :n] += parts[w][:, :, prefix[:, w]]
            base_dist[:n] += dist[w, prefix[:, w]]
        cutoff = min(best_obj, cut) + slack
        limit = cutoff + floor
        if not math.isfinite(limit):  # an objective overflowed: no bound holds
            limit = math.inf
        # the runs that hold a candidate within the H(X | S) bound: the least
        # of a run's sums is its least distortion's sum
        run_values = (base_dist[:n, None] + run_dist).ravel()
        live = np.flatnonzero(run_values <= limit)
        limits = np.empty(len(live))
        for j0 in range(0, len(live), block):
            at, run = np.divmod(live[j0 : j0 + block], len(run_dist))
            shape = (nx, ncells, len(at))
            tables = np.take(base, at, axis=2, mode="clip",
                             out=table_buf[: nx * ncells * len(at)].reshape(shape))
            tables += np.take(corners, run, axis=2, mode="clip",
                              out=work_buf[: tables.size].reshape(shape))
            np.minimum(_arimoto_entropy(tables, cfg.alpha), h_s, out=limits[j0 : j0 + block])
        limits *= cfg.lam
        limits += cutoff
        limits[~np.isfinite(limits)] = math.inf
        hold = run_values[live] <= limits
        live, limits = live[hold], limits[hold]
        # the candidates of a block's worth of runs within their run's bound
        # (a sum is NaN past the grid), in index order
        for j0 in range(0, len(live), group):
            at, run = np.divmod(live[j0 : j0 + group], len(run_dist))
            values = run_rows[run]
            values += base_dist[at, None]
            keep = np.flatnonzero(values <= limits[j0 : j0 + len(at), None])
            if not len(keep):
                continue
            runs_at, offset = np.divmod(keep, GRID_RUN_ROWS)
            prefix_at = at[runs_at]
            last_at = GRID_RUN_ROWS * run[runs_at] + offset
            shape = (nx, ncells, len(keep))
            work = work_buf[: nx * ncells * len(keep)].reshape(shape)
            # mode="clip" writes straight to ``out`` ("raise" would buffer);
            # the last rows' parts pass through the kernel's work buffer
            tables = np.take(base, prefix_at, axis=2, mode="clip",
                             out=table_buf[: work.size].reshape(shape))
            tables += np.take(parts[-1], last_at, axis=2, mode="clip", out=work)
            scores = values.ravel()[keep]
            scores -= cfg.lam * _arimoto_entropy(tables, cfg.alpha, work=work)
            local = int(np.argmin(scores))
            if scores[local] < best_obj:
                best_obj = float(scores[local])
                best_index = (p0 + int(prefix_at[local])) * nr + int(last_at[local])
    choice = _decode(np.array([best_index]), nr, nw)[0]
    return ReleaseChannel(rows[choice]), best_obj


def _decode(index, radix, ndigits):
    """Mixed-radix digits of candidate indices, most significant first."""
    digits = np.empty((len(index), ndigits), dtype=np.int64)
    rem = index.copy()
    for d in range(ndigits - 1, -1, -1):
        digits[:, d] = rem % radix
        rem //= radix
    return digits

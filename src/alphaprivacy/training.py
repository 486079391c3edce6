"""Adversarial releaser/adversary training and the post-hoc attacker.

One training iteration runs k adversary updates (each on a fresh batch of
released data, with the releaser frozen) and then a single releaser update
(fresh batch, adversary and utility networks frozen).  The optional
utility classifier is refreshed inside the k-loop and its cross-entropy
joins the releaser objective only under the composite distortion.

Side information, when enabled, is appended to the adversary's and the
attacker's inputs; it never reaches the releaser.

The points of a trade-off curve differ only in lambda and seed, so
:func:`train_group` trains G of them as one stack of models (see
:mod:`.nets`), each with its own initial weights, batch stream and
divergence outcome; :func:`train` is its G = 1 view, and
:func:`train_attacker_group` and :func:`train_attacker` stand likewise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .datasets import BatchStream, DatasetBatch, _derive_seed
from .errors import DivergenceError, ValidationError, check_real, is_count
from .fileio import read_json, write_text_atomic
from .losses import DistortionSpec, adversary_loss, releaser_loss
from .measures import _check_alpha
from .metrics import balanced_accuracy, normalized_error
from .nets import Network, SgdMomentum, dense, recurrent

LOSS_CEILING = 1e6

OBSERVED_MODES = ("y_only", "concat_xy")

COUNT_FIELDS = (
    "batch_size", "adversary_steps", "iterations", "num_steps",
    "hidden_releaser", "hidden_adversary", "hidden_utility",
)


@dataclass
class HyperParams:
    alpha: float = 1.0
    lam: float = 0.0
    batch_size: int = 256
    adversary_steps: int = 3
    iterations: int = 500
    num_steps: int = 1
    lr_releaser: float = 0.01
    lr_adversary: float = 0.05
    lr_utility: float = 0.05
    lr_decay: float = 0.0
    average_tail: float = 0.0
    momentum: float = 0.9
    seed: int = 0
    hidden_releaser: int = 16
    hidden_adversary: int = 16
    hidden_utility: int = 16
    observed_mode: str = "y_only"
    attacker_iterations: Optional[int] = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        check_real("lam", self.lam, 0.0)
        for name in ("lr_releaser", "lr_adversary", "lr_utility"):
            check_real(name, getattr(self, name), 0.0, strict=True)
        check_real("lr_decay", self.lr_decay, 0.0)
        check_real("momentum", self.momentum, 0.0)
        for name in COUNT_FIELDS:
            value = getattr(self, name)
            if not is_count(value):
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        if self.observed_mode not in OBSERVED_MODES:
            raise ValidationError(f"observed_mode must be one of {OBSERVED_MODES}")
        if not 0.0 <= self.average_tail < 1.0:
            raise ValidationError("average_tail must lie in [0, 1)")
        attack = self.attacker_iterations
        if attack is not None and not is_count(attack):
            raise ValidationError("attacker_iterations must be None or an integer >= 1")


def assemble_observed(y, x, noise=None, si=None, mode="y_only"):
    """Build the releaser's observed input W along the feature axis.

    ``concat_xy`` appends the private labels as a float column; the noise
    stream follows when present.  Side information is accepted for call
    convenience but never becomes part of W: it belongs to the adversary
    and attacker inputs only.  Stacked batches carry a leading model axis.
    """
    if mode not in OBSERVED_MODES:
        raise ValidationError(f"unknown observed mode {mode!r}")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (3, 4):
        raise ValidationError(f"y must be (B, T, d), got {y.shape}")
    parts = [y]
    if mode == "concat_xy":
        x = np.asarray(x)
        if x.shape != y.shape[:-1]:
            raise ValidationError(f"x shape {x.shape} does not match y {y.shape[:-1]}")
        parts.append(x.astype(np.float64)[..., None])
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape[:-1] != y.shape[:-1]:
            raise ValidationError(f"noise shape {noise.shape} does not match y {y.shape[:-1]}")
        parts.append(noise)
    del si  # routed to adversary/attacker inputs, never to W
    return np.concatenate(parts, axis=-1)


def _with_side_info(z, s, si_enabled):
    """Adversary/attacker input: released features, plus SI tiled over time."""
    if not si_enabled:
        return z
    s = np.asarray(s, dtype=np.float64)
    tiled = np.repeat(s[..., None, :], z.shape[-2], axis=-2)
    return np.concatenate([z, tiled], axis=-1)


@dataclass
class TrainedSystem:
    """Outcome of one adversarial training run."""

    releaser: Network
    adversary: Network
    utility: Optional[Network]
    hyper: HyperParams
    distortion: DistortionSpec
    si_enabled: bool
    utility_enabled: bool
    num_private: int
    releaser_history: list = field(default_factory=list)
    adversary_history: list = field(default_factory=list)
    utility_history: list = field(default_factory=list)
    releaser_updates: int = 0
    adversary_updates: int = 0
    utility_updates: int = 0

    def release(self, batch: DatasetBatch):
        w = assemble_observed(
            batch.y, batch.x, batch.u, batch.s, self.hyper.observed_mode
        )
        z, _ = self.releaser.forward(w)
        return z

    # --- checkpoint bundle ----------------------------------------------

    def to_dict(self):
        return {
            "hyper": asdict(self.hyper),
            "distortion": asdict(self.distortion),
            "si_enabled": self.si_enabled,
            "utility_enabled": self.utility_enabled,
            "num_private": self.num_private,
            "releaser": self.releaser.to_dict(),
            "adversary": self.adversary.to_dict(),
            "utility": None if self.utility is None else self.utility.to_dict(),
            "releaser_history": self.releaser_history,
            "adversary_history": self.adversary_history,
            "utility_history": self.utility_history,
            "updates": {
                "releaser": self.releaser_updates,
                "adversary": self.adversary_updates,
                "utility": self.utility_updates,
            },
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(
            releaser=Network.from_dict(doc["releaser"]),
            adversary=Network.from_dict(doc["adversary"]),
            utility=None if doc["utility"] is None else Network.from_dict(doc["utility"]),
            hyper=HyperParams(**doc["hyper"]),
            distortion=DistortionSpec(**doc["distortion"]),
            si_enabled=doc["si_enabled"],
            utility_enabled=doc["utility_enabled"],
            num_private=doc["num_private"],
            releaser_history=doc["releaser_history"],
            adversary_history=doc["adversary_history"],
            utility_history=doc["utility_history"],
            releaser_updates=doc["updates"]["releaser"],
            adversary_updates=doc["updates"]["adversary"],
            utility_updates=doc["updates"]["utility"],
        )

    def to_json(self, path):
        write_text_atomic(path, json.dumps(self.to_dict()))

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(read_json(path))


def _two_layer_net(num_steps, d_in, hidden, d_out, head, seed):
    """A tanh hidden layer (dense at T = 1, the recurrent cell otherwise)
    under a dense output layer with activation ``head``: the releaser's
    shape with a linear head, every classifier's with softmax."""
    first = dense(d_in, hidden, "tanh") if num_steps == 1 else recurrent(d_in, hidden)
    return Network.build([first, dense(hidden, d_out, head)], seed)


def _guard(values, iteration, who, failed):
    """Record in ``failed`` (stack position -> error) each model whose loss
    is non-finite or beyond the ceiling; a model keeps its first error."""
    for pos, value in enumerate(values.tolist()):
        if pos not in failed and (not np.isfinite(value) or abs(value) > LOSS_CEILING):
            failed[pos] = DivergenceError(
                f"{who} loss diverged at iteration {iteration}: {value!r}", iteration
            )


def _classifier_step(opt, inputs, labels, iteration, who, failed):
    """One cross-entropy update of the softmax classifiers ``opt`` trains;
    returns their losses before the update."""
    probs, trace = opt.network.forward(inputs)
    loss = adversary_loss(probs, labels)
    _guard(loss.value, iteration, who, failed)
    grads, _ = opt.network.backward(loss.grad_posteriors, trace, input_grad=False)
    opt.step(grads)
    return loss.value


def _classifier_steps(opt, opt_u, releaser, rows, hyper, si_enabled, who, iterations,
                      failed):
    """Updates of the classifiers ``opt`` trains, and of the utility
    networks ``opt_u`` trains unless it is None, one step per entry of
    ``iterations`` on its own ``batch_size`` slice of the stacked ``rows``.
    The releaser is frozen through them, so the rows are released in one
    pass.  Returns each step's (losses, utility losses or None) per model."""
    z_rows = releaser.forward(
        assemble_observed(rows.y, rows.x, rows.u, None, hyper.observed_mode)
    )[0]
    inputs = _with_side_info(z_rows, rows.s, si_enabled)
    steps = []
    for step, iteration in enumerate(iterations):
        part = slice(step * hyper.batch_size, (step + 1) * hyper.batch_size)
        loss = _classifier_step(opt, inputs[:, part], rows.x[:, part], iteration, who, failed)
        util = None if opt_u is None else _classifier_step(
            opt_u, z_rows[:, part], rows.c[:, part, None], iteration, "utility", failed
        )
        steps.append((loss.tolist(), None if util is None else util.tolist()))
    return steps


def _releaser_step(opt_r, adversary, utility, batch, spec, lam, hyper, si_enabled):
    """One releaser update on ``batch`` with the adversary frozen, and the
    utility network too when the composite distortion needs it (else
    ``utility`` is None).  Returns the releaser losses and the release;
    the backward-pass state is dropped on return."""
    releaser = opt_r.network
    z, trace_r = releaser.forward(
        assemble_observed(batch.y, batch.x, batch.u, None, hyper.observed_mode)
    )
    probs, trace_a = adversary.forward(_with_side_info(z, batch.s, si_enabled))
    utility_value = None
    if utility is not None:
        probs_u, trace_u = utility.forward(z)
        util = adversary_loss(probs_u, batch.c[..., None])
        utility_value = util.value
    loss = releaser_loss(z, batch.y, probs, spec, lam, hyper.alpha, utility_value)
    grad_z = loss.grad_released.copy()
    _, grad_adv_in = adversary.backward(loss.grad_posteriors, trace_a)
    grad_z += grad_adv_in[..., :z.shape[-1]]
    if utility is not None:
        _, grad_util_in = utility.backward(spec.utility_weight * util.grad_posteriors, trace_u)
        grad_z += grad_util_in
    grads_r, _ = releaser.backward(grad_z, trace_r, input_grad=False)
    opt_r.step(grads_r)
    return loss.value, z


def _draw(streams, nbatch, count=1):
    """One ``draw`` from each model's stream, every field stacked along a
    leading model axis (``s`` and ``c`` stay None when the pool lacks them)."""
    batches = [stream.draw(nbatch, count=count) for stream in streams]

    def stacked(name):
        parts = [getattr(batch, name) for batch in batches]
        return None if parts[0] is None else np.stack(parts)

    return SimpleNamespace(**{name: stacked(name) for name in ("y", "x", "u", "s", "c")})


def _retire(failed, live, outcomes, holders):
    """Store each failed model's error in ``outcomes`` and drop it from the
    stacks in ``holders`` (optimizers, networks); returns the live list."""
    if not failed:
        return live
    keep = [pos not in failed for pos in range(len(live))]
    for pos, error in failed.items():
        outcomes[live[pos]] = error
    for holder in holders:
        holder.select(keep)
    return [m for m, kept in zip(live, keep) if kept]


def _check_group(hypers, streams):
    """The shared hyperparameters and training pool of a group."""
    if not hypers or len(streams) != len(hypers):
        raise ValidationError("a group needs one stream per hyperparameter set, and at least one")
    first = hypers[0]
    if any(replace(h, lam=first.lam, seed=first.seed) != first for h in hypers):
        raise ValidationError("the points of a group may differ only in lam and seed")
    pool = streams[0].data
    if any(stream.data is not pool for stream in streams):
        raise ValidationError("the streams of a group must draw from one dataset")
    return first, pool


def _sole(outcomes):
    """The one outcome of a G = 1 group, raising it if it is an error."""
    (outcome,) = outcomes
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def train(
    hyper: HyperParams,
    data: BatchStream,
    spec: DistortionSpec,
    si_enabled: bool = False,
    utility_enabled: bool = False,
    log_stream=None,
) -> TrainedSystem:
    """Run the alternating training loop to completion.

    Per iteration: ``adversary_steps`` repetitions of {fresh batch, release,
    adversary update, utility update when enabled}, then one releaser update
    on another fresh batch with the other networks frozen.  The releaser is
    frozen through the adversary steps, so their batches are drawn and
    released in one pass and each step trains on its own rows.  Emits one
    machine-parseable log line per iteration when ``log_stream`` is given.
    Fully deterministic given the hyperparameter seed and the stream;
    raises DivergenceError when a loss explodes.
    """
    return _sole(train_group([hyper], [data], spec, si_enabled, utility_enabled, log_stream))


def train_group(hypers, streams, spec, si_enabled=False, utility_enabled=False,
                log_stream=None):
    """Train G systems that differ only in ``lam`` and ``seed`` as one stack.

    Model g starts from its own seed's weights and draws from
    ``streams[g]``, which must all sample one dataset, so it follows the
    very run :func:`train` gives for ``hypers[g]``, bit for bit.  Returns
    one outcome per model: its TrainedSystem, or the DivergenceError its
    own run would raise.  A diverged model leaves the stack at the end of
    that iteration; the others go on.  ``log_stream`` gets each model's
    line per iteration, in stack order.
    """
    hyper, pool = _check_group(hypers, streams)
    if pool.num_steps != hyper.num_steps:
        raise ValidationError(
            f"data has T={pool.num_steps} but hyperparameters say T={hyper.num_steps}"
        )
    if si_enabled and pool.s is None:
        raise ValidationError("si_enabled but the dataset carries no side information")
    if utility_enabled and pool.c is None:
        raise ValidationError("utility_enabled but the dataset has no utility labels")
    if utility_enabled and hyper.num_steps != 1:
        raise ValidationError("the utility classifier supports static (T=1) data only")
    if spec.needs_utility and not utility_enabled:
        raise ValidationError("composite distortion requires the utility network")

    num_private = int(pool.x.max()) + 1
    d_y = pool.y.shape[2]
    d_w = assemble_observed(
        pool.y[:1], pool.x[:1], pool.u[:1], None, hyper.observed_mode
    ).shape[2]
    d_s = pool.s.shape[1] if si_enabled else 0

    def stacked_net(role, num_steps, d_in, hidden, d_out, head):
        return Network.stack([
            _two_layer_net(num_steps, d_in, hidden, d_out, head, _derive_seed(h.seed, role))
            for h in hypers
        ])

    releaser = stacked_net(
        "releaser", hyper.num_steps, d_w, hyper.hidden_releaser, d_y, "linear"
    )
    adversary = stacked_net(
        "adversary", hyper.num_steps, d_y + d_s, hyper.hidden_adversary, num_private,
        "softmax",
    )
    opt_r = SgdMomentum(releaser, hyper.lr_releaser, hyper.momentum)
    opt_a = SgdMomentum(adversary, hyper.lr_adversary, hyper.momentum)
    opts = [opt_r, opt_a]
    utility = opt_u = None
    if utility_enabled:
        n_classes = int(pool.c.max()) + 1
        utility = stacked_net("utility", 1, d_y, hyper.hidden_utility, n_classes, "softmax")
        opt_u = SgdMomentum(utility, hyper.lr_utility, hyper.momentum)
        opts.append(opt_u)

    outcomes = [None] * len(hypers)
    history = [{"releaser": [], "adversary": [], "utility": []} for _ in hypers]
    live = list(range(len(hypers)))

    avg_start = int(round(hyper.iterations * (1.0 - hyper.average_tail)))
    avg_params = None
    avg_count = 0

    for iteration in range(hyper.iterations):
        failed = {}
        live_streams = [streams[m] for m in live]
        # decayed releaser step damps the releaser/adversary oscillation so
        # the alternation settles instead of orbiting the equilibrium
        opt_r.learning_rate = hyper.lr_releaser / (1.0 + hyper.lr_decay * iteration)
        rows = _draw(live_streams, hyper.batch_size, count=hyper.adversary_steps)
        steps = _classifier_steps(
            opt_a, opt_u, releaser, rows, hyper, si_enabled, "adversary",
            [iteration] * hyper.adversary_steps, failed,
        )
        for adv_values, util_values in steps:
            for pos, m in enumerate(live):
                history[m]["adversary"].append(adv_values[pos])
                if utility_enabled:
                    history[m]["utility"].append(util_values[pos])

        batch = _draw(live_streams, hyper.batch_size)
        lam = np.array([hypers[m].lam for m in live])
        values, z = _releaser_step(
            opt_r, adversary, utility if spec.needs_utility else None, batch, spec, lam,
            hyper, si_enabled
        )
        _guard(values, iteration, "releaser", failed)
        for pos, m in enumerate(live):
            history[m]["releaser"].append(values[pos].item())

        if hyper.average_tail > 0.0 and iteration >= avg_start:
            # running mean of the releaser over the oscillating tail; the
            # averaged mechanism is what actually approaches the equilibrium
            avg_count += 1
            if avg_params is None:
                avg_params = [(l.w.copy(), l.b.copy()) for l in releaser.layers]
            else:
                for (aw, ab), layer in zip(avg_params, releaser.layers):
                    aw += (layer.w - aw) / avg_count
                    ab += (layer.b - ab) / avg_count

        if log_stream is not None:
            for pos in range(len(live)):
                if pos not in failed:
                    ne = normalized_error(z[pos], batch.y[pos])
                    log_stream.write(
                        f"iteration={iteration} adversary_loss={steps[-1][0][pos]:.6f} "
                        f"releaser_loss={values[pos]:.6f} ne={ne:.6f}\n"
                    )

        if failed and avg_params is not None:
            keep = [pos not in failed for pos in range(len(live))]
            avg_params = [(aw[keep], ab[keep]) for aw, ab in avg_params]
        live = _retire(failed, live, outcomes, opts)
        if not live:
            break

    if avg_params is not None:
        for layer, (aw, ab) in zip(releaser.layers, avg_params):
            layer.w[:] = aw
            layer.b[:] = ab
        releaser._version += 1

    members = zip(
        live, releaser.members(), adversary.members(),
        utility.members() if utility is not None else [None] * len(live),
    )
    for m, rel, adv, util_net in members:
        outcomes[m] = TrainedSystem(
            releaser=rel,
            adversary=adv,
            utility=util_net,
            hyper=hypers[m],
            distortion=spec,
            si_enabled=si_enabled,
            utility_enabled=utility_enabled,
            num_private=num_private,
            releaser_history=history[m]["releaser"],
            adversary_history=history[m]["adversary"],
            utility_history=history[m]["utility"],
            releaser_updates=opt_r.steps,
            adversary_updates=opt_a.steps,
            utility_updates=opt_u.steps if opt_u is not None else 0,
        )
    return outcomes


def train_attacker(
    system: TrainedSystem, data: BatchStream, si_enabled: bool, seed: int
) -> Network:
    """Train a fresh post-hoc classifier on released data.

    The attacker mirrors the adversary's layer shapes but starts from an
    independent seed; the releaser stays frozen throughout.  Raises
    DivergenceError when its loss explodes.
    """
    return _sole(train_attacker_group([system], [data], si_enabled, [seed]))


def train_attacker_group(systems, streams, si_enabled, seeds):
    """:func:`train_attacker` for the systems of one :func:`train_group`
    run at once, model g from ``seeds[g]`` on ``streams[g]``.  Returns one
    outcome per system: its attacker Network, or the DivergenceError its
    own run would raise.

    The releaser is frozen, so the batches of ``adversary_steps``
    successive iterations are drawn and released in one pass, as in
    training; a diverged model leaves the stack at the end of such a block.
    """
    hyper, pool = _check_group([s.hyper for s in systems], streams)
    if si_enabled and pool.s is None:
        raise ValidationError("si_enabled but the dataset carries no side information")
    d_s = pool.s.shape[1] if si_enabled else 0
    d_y = pool.y.shape[2]
    releaser = Network.stack([s.releaser for s in systems])
    attacker = Network.stack([
        _two_layer_net(
            hyper.num_steps, d_y + d_s, hyper.hidden_adversary,
            systems[0].num_private, "softmax", seed,
        )
        for seed in seeds
    ])
    opt = SgdMomentum(attacker, hyper.lr_adversary, hyper.momentum)
    iters = hyper.attacker_iterations
    if iters is None:
        iters = hyper.iterations
    outcomes = [None] * len(systems)
    live = list(range(len(systems)))
    for start in range(0, iters, hyper.adversary_steps):
        failed = {}
        block = range(start, min(start + hyper.adversary_steps, iters))
        rows = _draw([streams[m] for m in live], hyper.batch_size, count=len(block))
        _classifier_steps(
            opt, None, releaser, rows, hyper, si_enabled, "attacker", block, failed
        )
        live = _retire(failed, live, outcomes, [opt, releaser])
        if not live:
            break
    for m, net in zip(live, attacker.members()):
        outcomes[m] = net
    return outcomes


def classifier_predictions(net: Network, features):
    """Class predictions (argmax over the softmax output) per (b, t)."""
    probs, _ = net.forward(features)
    return probs.argmax(axis=2)


def evaluate_system(
    system: TrainedSystem, attacker: Network, batch: DatasetBatch, si_enabled: bool
):
    """Held-out metrics: NE of the release, the attacker's balanced accuracy
    on the private labels, and (when present) utility balanced accuracy."""
    z = system.release(batch)
    ne = normalized_error(z, batch.y)
    preds = classifier_predictions(attacker, _with_side_info(z, batch.s, si_enabled))
    attacker_acc = balanced_accuracy(
        preds.ravel(), batch.x.ravel(), system.num_private
    )
    utility_acc = None
    if system.utility is not None and batch.c is not None:
        upreds = classifier_predictions(system.utility, z)[:, 0]
        utility_acc = balanced_accuracy(upreds, batch.c, int(batch.c.max()) + 1)
    return {"ne": ne, "attacker_accuracy": attacker_acc, "utility_accuracy": utility_acc}

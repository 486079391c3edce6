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
from typing import Optional

import numpy as np

from .datasets import BatchStream, DatasetBatch, _derive_seed
from .errors import DivergenceError, ValidationError, check_count, check_real
from .fileio import write_text_atomic
from .losses import DistortionSpec, adversary_loss, releaser_loss
from .metrics import balanced_accuracy, normalized_error
from .nets import Layer, Network, SgdMomentum, dense, recurrent

LOSS_CEILING = 1e6

OBSERVED_MODES = ("y_only", "concat_xy")

# hidden width of every network, and the utility classifier's learning rate
HIDDEN = 16
UTILITY_LR = 0.05

# Weight precision of the recurrent (T > 1) networks.  Their time loop is
# bound by element work, which float32 makes about 3.7x cheaper per step
# (matmul, bias add and tanh at B = 128, H = 16); the losses and the
# alpha-entropies they feed stay float64.  Dense (T = 1) networks stay
# float64: their steps are bound by call overhead, so float32 gains little
# there, and it moved the saturated clusters attacker of the full-privacy
# acceptance test out of its band (0.5552 against the 0.55 bound).
RECURRENT_DTYPE = np.float32

COUNT_FIELDS = ("batch_size", "adversary_steps", "iterations", "num_steps")


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
    lr_decay: float = 0.0
    average_tail: float = 0.0
    momentum: float = 0.9
    seed: int = 0
    observed_mode: str = "y_only"

    def __post_init__(self):
        check_real("alpha", self.alpha, 0.0, strict=True)
        check_real("lam", self.lam, 0.0)
        for name in ("lr_releaser", "lr_adversary"):
            check_real(name, getattr(self, name), 0.0, strict=True)
        check_real("lr_decay", self.lr_decay, 0.0)
        check_real("momentum", self.momentum, 0.0)
        for name in COUNT_FIELDS:
            check_count(name, getattr(self, name))
        check_count("seed", self.seed, 0)
        if self.observed_mode not in OBSERVED_MODES:
            raise ValidationError(f"observed_mode must be one of {OBSERVED_MODES}")
        if not 0.0 <= check_real("average_tail", self.average_tail) < 1.0:
            raise ValidationError("average_tail must lie in [0, 1)")


def assemble_observed(y, x, noise=None, mode="y_only"):
    """Build the releaser's observed input W along the feature axis.

    ``concat_xy`` appends the private labels as a float column; the noise
    stream follows when present.  Side information never becomes part of
    W: it belongs to the adversary and attacker inputs only.  Stacked
    batches carry a leading model axis.
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
    """Outcome of one adversarial training run.

    At lambda = 0 the adversary is the seeded, untrained initial one, which
    carries the private class count (see :func:`train_group`).
    """

    releaser: Network
    adversary: Network
    utility: Optional[Network]
    hyper: HyperParams
    distortion: DistortionSpec
    si_enabled: bool
    releaser_history: list = field(default_factory=list)
    adversary_history: list = field(default_factory=list)
    utility_history: list = field(default_factory=list)

    def release(self, batch: DatasetBatch):
        return _release(self.releaser, batch, self.hyper.observed_mode)

    # --- checkpoint bundle ----------------------------------------------

    def to_dict(self):
        return {
            "hyper": asdict(self.hyper),
            "distortion": asdict(self.distortion),
            "si_enabled": self.si_enabled,
            "utility_enabled": self.utility is not None,
            "num_private": self.adversary.out_dim,
            "releaser": self.releaser.to_dict(),
            "adversary": self.adversary.to_dict(),
            "utility": None if self.utility is None else self.utility.to_dict(),
            "releaser_history": self.releaser_history,
            "adversary_history": self.adversary_history,
            "utility_history": self.utility_history,
            "updates": {
                "releaser": len(self.releaser_history),
                "adversary": len(self.adversary_history),
                "utility": len(self.utility_history),
            },
        }

    def to_json(self, path):
        write_text_atomic(path, json.dumps(self.to_dict()))


def _two_layer_net(num_steps, d_in, d_out, head, seed):
    """A tanh hidden layer of ``HIDDEN`` units under a dense output layer
    with activation ``head``: the releaser's shape with a linear head,
    every classifier's with softmax.  At T = 1 the hidden layer is dense
    and the weights float64; otherwise it is the recurrent cell, in
    ``RECURRENT_DTYPE``."""
    if num_steps == 1:
        first, dtype = dense(d_in, HIDDEN, "tanh"), np.float64
    else:
        first, dtype = recurrent(d_in, HIDDEN), RECURRENT_DTYPE
    return Network.build([first, dense(HIDDEN, d_out, head)], seed, dtype)


def _release(releaser, batch, observed_mode):
    """The releaser's output on ``batch``'s observed input W."""
    return releaser.forward(assemble_observed(batch.y, batch.x, batch.u, observed_mode))[0]


def _model_index(models):
    """An index on the model axis selecting ``models`` (ascending model
    indices): a slice, whose selections are views, when they are
    contiguous, else an index array."""
    if models and models[-1] - models[0] + 1 == len(models):
        return slice(models[0], models[-1] + 1)
    return np.array(models, dtype=np.intp)


def _substack(net, index):
    """The models ``index`` of the stack ``net`` as a stack, sharing its
    weights when ``index`` is a slice; for forward passes only."""
    return Network([Layer(l.w[index], l.b[index], l.activation, l.recurrent)
                    for l in net.layers])


def _guard(values, iteration, who, failed, models, record=None):
    """Record in ``failed`` (model index -> error) each model whose loss is
    non-finite or beyond the ceiling; a model keeps its first error.
    ``models`` holds the model index of each entry of ``values``; each
    value is also appended to its model's list in ``record``, if given."""
    for g, value in zip(models, values.tolist()):
        if record is not None:
            record[g].append(value)
        if g not in failed and (not np.isfinite(value) or abs(value) > LOSS_CEILING):
            failed[g] = DivergenceError(
                f"{who} loss diverged at iteration {iteration}: {value!r}", iteration
            )


def _classifier_steps(classifiers, iterations, batch_size, failed):
    """Cross-entropy updates of softmax classifiers, one step per entry of
    ``iterations`` on its own ``batch_size`` slice of their stacked inputs.
    ``classifiers`` holds (optimizer, who, inputs, labels, models, record)
    tuples, ``models`` giving the model index of each network the
    optimizer trains; each step's losses before the update are appended
    to ``record`` (see :func:`_guard`) unless it is None."""
    for step, iteration in enumerate(iterations):
        part = slice(step * batch_size, (step + 1) * batch_size)
        for opt, who, inputs, labels, models, record in classifiers:
            probs, trace = opt.network.forward(inputs[:, part])
            loss = adversary_loss(probs, labels[:, part])
            _guard(loss.value, iteration, who, failed, models, record)
            grads, _ = opt.network.backward(loss.grad_posteriors, trace, input_grad=False)
            opt.step(grads)


def _releaser_step(opt_r, parts, utility, batch, spec, lam, hyper, si_enabled):
    """One releaser update on ``batch`` with the other networks frozen.

    ``parts`` covers the models of the stack as (index, adversary) pairs:
    the adversary holds the models ``index`` selects, or is None, and those
    models then get the distortion alone.  ``utility`` is the utility
    network when the composite distortion needs it, else None.  Returns
    the releaser losses and the release; the backward-pass state is
    dropped on return."""
    releaser = opt_r.network
    z, trace_r = releaser.forward(
        assemble_observed(batch.y, batch.x, batch.u, hyper.observed_mode)
    )
    utility_value = None
    if utility is not None:
        probs_u, trace_u = utility.forward(z)
        util = adversary_loss(probs_u, batch.c[..., None])
        utility_value = util.value
    # the loss gradients add up in float64 whatever the release's dtype
    values, grad_z = np.empty(len(lam)), np.empty(z.shape)
    for index, adversary in parts:
        probs = None
        if adversary is not None:
            probs, trace_a = adversary.forward(_with_side_info(z, batch.s, si_enabled)[index])
        loss = releaser_loss(
            z[index], batch.y[index], probs, spec, lam[index], hyper.alpha,
            None if utility_value is None else utility_value[index],
        )
        values[index] = loss.value
        grad_z[index] = loss.grad_released
        if adversary is not None:
            _, grad_adv_in = adversary.backward(loss.grad_posteriors, trace_a)
            grad_z[index] += grad_adv_in[..., :z.shape[-1]]
    if utility is not None:
        _, grad_util_in = utility.backward(util.grad_posteriors, trace_u)
        grad_z += grad_util_in
    grads_r, _ = releaser.backward(grad_z, trace_r, input_grad=False)
    opt_r.step(grads_r)
    return values, z


def _draw(streams, nbatch, count=1, models=slice(None)):
    """One ``draw`` from each model's stream, gathered from their common
    pool as one batch whose fields carry a leading model axis (``s`` and
    ``c`` stay None when the pool lacks them): one gather per field.
    Every stream draws, so each stays on its own sequence, but only the
    rows of the models ``models`` (an index on the model axis) are
    gathered."""
    idx = np.stack([stream.draw(nbatch, count=count) for stream in streams])
    return streams[0].data.take(idx[models])


def _check_group(hypers, streams, si_enabled):
    """The shared hyperparameters and training pool of a group, and the
    classifiers' input width: the release's, plus the side information's
    when it is on."""
    if not hypers or len(streams) != len(hypers):
        raise ValidationError("a group needs one stream per hyperparameter set, and at least one")
    first = hypers[0]
    if any(replace(h, lam=first.lam, seed=first.seed) != first for h in hypers):
        raise ValidationError("the points of a group may differ only in lam and seed")
    pool = streams[0].data
    if any(stream.data is not pool for stream in streams):
        raise ValidationError("the streams of a group must draw from one dataset")
    if si_enabled and pool.s is None:
        raise ValidationError("si_enabled but the dataset carries no side information")
    return first, pool, pool.y.shape[2] + (pool.s.shape[1] if si_enabled else 0)


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
    adversary update unless ``lam`` = 0 (see :func:`train_group`), utility
    update when enabled}, then one releaser update on another fresh batch
    with the other networks frozen.  The releaser is frozen through the
    adversary steps, so their batches are drawn and released in one pass
    and each step trains on its own rows.  Emits one machine-parseable log
    line per iteration when ``log_stream`` is given.
    Fully deterministic given the hyperparameter seed and the stream;
    raises DivergenceError when a loss explodes.
    """
    return _sole(train_group([hyper], [data], spec, si_enabled, utility_enabled, log_stream))


def train_group(hypers, streams, spec, si_enabled=False, utility_enabled=False,
                log_stream=None):
    """Train G systems that differ only in ``lam`` and ``seed`` as one stack.

    Model g starts from its own seed's weights, draws from ``streams[g]``
    (they must all sample one dataset) and keeps its own loss record, so
    it follows the very run :func:`train` gives for ``hypers[g]``, bit for
    bit.  Returns one outcome per model: its TrainedSystem, or the
    DivergenceError its own run would raise.  A diverged model stays in
    the stack, unread, so the stack keeps its shape; the loop ends early
    once every model has failed.  ``log_stream`` gets each model's line
    per iteration, in stack order, until that model fails.

    A model with lam = 0 is idle: its releaser minimises the distortion
    alone and never reads its adversary, so its adversary is left out of
    the stack: it is neither trained nor run, its k-block rows are released
    only when the utility network trains on them, and its stream still
    draws the full block, so its releaser batches are those of a run that
    trains the adversary.  An idle model's TrainedSystem holds its
    untrained initial adversary and an empty adversary history, its log
    lines read ``adversary_loss=nan``, and it cannot fail through its
    adversary.
    """
    hyper, pool, d_in = _check_group(hypers, streams, si_enabled)
    if pool.num_steps != hyper.num_steps:
        raise ValidationError(
            f"data has T={pool.num_steps} but hyperparameters say T={hyper.num_steps}"
        )
    if utility_enabled and pool.c is None:
        raise ValidationError("utility_enabled but the dataset has no utility labels")
    if utility_enabled and hyper.num_steps != 1:
        raise ValidationError("the utility classifier supports static (T=1) data only")
    if spec.needs_utility and not utility_enabled:
        raise ValidationError("composite distortion requires the utility network")

    d_y = pool.y.shape[2]
    d_w = assemble_observed(pool.y[:1], pool.x[:1], pool.u[:1], hyper.observed_mode).shape[2]

    def initial_nets(role, num_steps, d_in, d_out, head):
        return [_two_layer_net(num_steps, d_in, d_out, head, _derive_seed(h.seed, role))
                for h in hypers]

    lam = np.array([h.lam for h in hypers])
    everyone = list(range(len(hypers)))
    # the models whose adversaries train, and the idle others
    adv_models = np.flatnonzero(lam).tolist()
    idle = [g for g in everyone if lam[g] == 0.0]

    releaser = Network.stack(initial_nets("releaser", hyper.num_steps, d_w, d_y, "linear"))
    # the training pool sets both class alphabets; the networks carry them
    adversaries = initial_nets("adversary", hyper.num_steps, d_in, int(pool.x.max()) + 1,
                               "softmax")
    opt_r = SgdMomentum(releaser, hyper.lr_releaser, hyper.momentum)
    adversary = opt_a = None
    if adv_models:
        adversary = Network.stack([adversaries[g] for g in adv_models])
        opt_a = SgdMomentum(adversary, hyper.lr_adversary, hyper.momentum)
    utility = opt_u = None
    if utility_enabled:
        n_classes = int(pool.c.max()) + 1
        utility = Network.stack(initial_nets("utility", 1, d_y, n_classes, "softmax"))
        opt_u = SgdMomentum(utility, UTILITY_LR, hyper.momentum)

    # the k-block feeds the adversaries, and the utility network's every model
    fed = everyone if utility_enabled else adv_models
    fed_index = _model_index(fed)
    adv_in_fed = _model_index(adv_models) if utility_enabled else slice(None)
    parts = [(_model_index(models), net)
             for models, net in ((adv_models, adversary), (idle, None)) if models]
    # each model's losses, in the order it takes them
    records = {who: [[] for _ in hypers] for who in ("releaser", "adversary", "utility")}

    def classifiers_on(rows):
        """The (optimizer, who, inputs, labels, models, record) of each
        classifier that trains on the k-block ``rows``, released in one
        pass through the releaser stack of the models the block feeds."""
        if not fed:
            return []
        z_rows = _release(_substack(releaser, fed_index), rows, hyper.observed_mode)
        classifiers = []
        if adv_models:
            inputs = _with_side_info(z_rows, rows.s, si_enabled)
            classifiers.append((opt_a, "adversary", inputs[adv_in_fed], rows.x[adv_in_fed],
                                adv_models, records["adversary"]))
        if utility_enabled:
            classifiers.append((opt_u, "utility", z_rows, rows.c[..., None], everyone,
                                records["utility"]))
        return classifiers

    failed = {}
    avg_start = int(round(hyper.iterations * (1.0 - hyper.average_tail)))
    avg_params = None

    for iteration in range(hyper.iterations):
        # decayed releaser step damps the releaser/adversary oscillation so
        # the alternation settles instead of orbiting the equilibrium
        opt_r.learning_rate = hyper.lr_releaser / (1.0 + hyper.lr_decay * iteration)
        rows = _draw(streams, hyper.batch_size, hyper.adversary_steps, fed_index)
        _classifier_steps(classifiers_on(rows), [iteration] * hyper.adversary_steps,
                          hyper.batch_size, failed)
        batch = _draw(streams, hyper.batch_size)
        values, z = _releaser_step(
            opt_r, parts, utility if spec.needs_utility else None, batch, spec, lam,
            hyper, si_enabled
        )
        _guard(values, iteration, "releaser", failed, everyone, records["releaser"])

        if iteration >= avg_start:
            # running mean of the releaser over the oscillating tail; the
            # averaged mechanism is what actually approaches the equilibrium
            if avg_params is None:
                avg_params = [(l.w.copy(), l.b.copy()) for l in releaser.layers]
            else:
                count = iteration - avg_start + 1
                for (aw, ab), layer in zip(avg_params, releaser.layers):
                    aw += (layer.w - aw) / count
                    ab += (layer.b - ab) / count

        if log_stream is not None:
            for g in everyone:
                if g not in failed:
                    ne = normalized_error(z[g], batch.y[g])
                    adv_losses = records["adversary"][g]
                    adv_loss = adv_losses[-1] if adv_losses else float("nan")
                    log_stream.write(
                        f"iteration={iteration} adversary_loss={adv_loss:.6f} "
                        f"releaser_loss={values[g]:.6f} ne={ne:.6f}\n"
                    )
        if len(failed) == len(hypers):
            break

    if avg_params is not None:
        for layer, (aw, ab) in zip(releaser.layers, avg_params):
            layer.w[:] = aw
            layer.b[:] = ab
        releaser._version += 1

    if adversary is not None:
        for g, net in zip(adv_models, adversary.members()):
            adversaries[g] = net
    members = zip(
        releaser.members(), adversaries,
        utility.members() if utility is not None else [None] * len(hypers),
    )
    return [
        failed[g] if g in failed else TrainedSystem(
            releaser=rel,
            adversary=adv,
            utility=util_net,
            hyper=hypers[g],
            distortion=spec,
            si_enabled=si_enabled,
            releaser_history=records["releaser"][g],
            adversary_history=records["adversary"][g],
            utility_history=records["utility"][g],
        )
        for g, (rel, adv, util_net) in enumerate(members)
    ]


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
    training; a diverged model stays in the stack, unread, as in
    :func:`train_group`.
    """
    hyper, _, d_in = _check_group([s.hyper for s in systems], streams, si_enabled)
    releaser = Network.stack([s.releaser for s in systems])
    attacker = Network.stack([
        _two_layer_net(hyper.num_steps, d_in, systems[0].adversary.out_dim, "softmax", seed)
        for seed in seeds
    ])
    opt = SgdMomentum(attacker, hyper.lr_adversary, hyper.momentum)
    models = range(len(systems))
    failed = {}
    for start in range(0, hyper.iterations, hyper.adversary_steps):
        block = range(start, min(start + hyper.adversary_steps, hyper.iterations))
        rows = _draw(streams, hyper.batch_size, count=len(block))
        inputs = _with_side_info(_release(releaser, rows, hyper.observed_mode), rows.s,
                                 si_enabled)
        _classifier_steps([(opt, "attacker", inputs, rows.x, models, None)], block,
                          hyper.batch_size, failed)
        if len(failed) == len(systems):
            break
    return [failed.get(g, net) for g, net in enumerate(attacker.members())]


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
    attacker_acc = balanced_accuracy(preds.ravel(), batch.x.ravel(), system.adversary.out_dim)
    utility_acc = None
    if system.utility is not None and batch.c is not None:
        upreds = classifier_predictions(system.utility, z)[:, 0]
        utility_acc = balanced_accuracy(upreds, batch.c, system.utility.out_dim)
    return {"ne": ne, "attacker_accuracy": attacker_acc, "utility_accuracy": utility_acc}

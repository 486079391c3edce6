"""Adversarial releaser/adversary training and the post-hoc attacker.

One training iteration runs k adversary updates (each on a fresh batch of
released data, with the releaser frozen) and then a single releaser update
(fresh batch, adversary and utility networks frozen).  The optional
utility classifier is refreshed inside the k-loop and its cross-entropy
joins the releaser objective only under the composite distortion.

Side information, when enabled, is appended to the adversary's and the
attacker's inputs; it never reaches the releaser.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .datasets import BatchStream, DatasetBatch, _derive_seed
from .errors import DivergenceError, ValidationError, check_real, is_count
from .fileio import write_text_atomic
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
    and attacker inputs only.
    """
    if mode not in OBSERVED_MODES:
        raise ValidationError(f"unknown observed mode {mode!r}")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 3:
        raise ValidationError(f"y must be (B, T, d), got {y.shape}")
    parts = [y]
    if mode == "concat_xy":
        x = np.asarray(x)
        if x.shape != y.shape[:2]:
            raise ValidationError(f"x shape {x.shape} does not match y {y.shape[:2]}")
        parts.append(x.astype(np.float64)[:, :, None])
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape[:2] != y.shape[:2]:
            raise ValidationError(f"noise shape {noise.shape} does not match y {y.shape[:2]}")
        parts.append(noise)
    del si  # routed to adversary/attacker inputs, never to W
    return np.concatenate(parts, axis=2)


def _with_side_info(z, s, si_enabled):
    """Adversary/attacker input: released features, plus SI tiled over time."""
    if not si_enabled:
        return z
    tiled = np.repeat(np.asarray(s, dtype=np.float64)[:, None, :], z.shape[1], axis=1)
    return np.concatenate([z, tiled], axis=2)


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
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _two_layer_net(num_steps, d_in, hidden, d_out, head, seed):
    """A tanh hidden layer (dense at T = 1, the recurrent cell otherwise)
    under a dense output layer with activation ``head``: the releaser's
    shape with a linear head, every classifier's with softmax."""
    first = dense(d_in, hidden, "tanh") if num_steps == 1 else recurrent(d_in, hidden)
    return Network.build([first, dense(hidden, d_out, head)], seed)


def _guard(value, iteration, who):
    if not np.isfinite(value) or abs(value) > LOSS_CEILING:
        raise DivergenceError(
            f"{who} loss diverged at iteration {iteration}: {value!r}", iteration
        )


def _classifier_step(opt, inputs, labels, iteration, who):
    """One cross-entropy update of the softmax classifier ``opt`` trains;
    returns the loss before the update."""
    probs, trace = opt.network.forward(inputs)
    loss = adversary_loss(probs, labels)
    _guard(loss.value, iteration, who)
    grads, _ = opt.network.backward(loss.grad_posteriors, trace)
    opt.step(grads)
    return loss.value


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
    Fully deterministic given the hyperparameter seed and the stream.
    """
    pool = data.data
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

    releaser = _two_layer_net(
        hyper.num_steps, d_w, hyper.hidden_releaser, d_y, "linear",
        _derive_seed(hyper.seed, "releaser"),
    )
    adversary = _two_layer_net(
        hyper.num_steps, d_y + d_s, hyper.hidden_adversary, num_private, "softmax",
        _derive_seed(hyper.seed, "adversary"),
    )
    utility = None
    if utility_enabled:
        n_classes = int(pool.c.max()) + 1
        utility = _two_layer_net(
            1, d_y, hyper.hidden_utility, n_classes, "softmax",
            _derive_seed(hyper.seed, "utility"),
        )

    opt_r = SgdMomentum(releaser, hyper.lr_releaser, hyper.momentum)
    opt_a = SgdMomentum(adversary, hyper.lr_adversary, hyper.momentum)
    opt_u = SgdMomentum(utility, hyper.lr_utility, hyper.momentum) if utility else None

    system = TrainedSystem(
        releaser=releaser,
        adversary=adversary,
        utility=utility,
        hyper=hyper,
        distortion=spec,
        si_enabled=si_enabled,
        utility_enabled=utility_enabled,
        num_private=num_private,
    )

    avg_start = int(round(hyper.iterations * (1.0 - hyper.average_tail)))
    avg_params = None
    avg_count = 0

    for iteration in range(hyper.iterations):
        # decayed releaser step damps the releaser/adversary oscillation so
        # the alternation settles instead of orbiting the equilibrium
        opt_r.learning_rate = hyper.lr_releaser / (1.0 + hyper.lr_decay * iteration)
        rows = data.draw(hyper.batch_size, count=hyper.adversary_steps)
        w = assemble_observed(rows.y, rows.x, rows.u, None, hyper.observed_mode)
        z_rows = releaser.forward(w)[0]
        adv_in = _with_side_info(z_rows, rows.s, si_enabled)
        for step in range(hyper.adversary_steps):
            part = slice(step * hyper.batch_size, (step + 1) * hyper.batch_size)
            adv_value = _classifier_step(
                opt_a, adv_in[part], rows.x[part], iteration, "adversary"
            )
            system.adversary_history.append(adv_value)
            if utility_enabled:
                system.utility_history.append(_classifier_step(
                    opt_u, z_rows[part], rows.c[part, None], iteration, "utility"
                ))

        # releaser step: fresh batch, adversary and utility frozen
        batch = data.draw(hyper.batch_size)
        w = assemble_observed(batch.y, batch.x, batch.u, None, hyper.observed_mode)
        z, trace_r = releaser.forward(w)
        probs, trace_a = adversary.forward(_with_side_info(z, batch.s, si_enabled))
        utility_value = None
        if spec.needs_utility:
            probs_u, trace_u = utility.forward(z)
            util = adversary_loss(probs_u, batch.c[:, None])
            utility_value = util.value
        loss = releaser_loss(
            z, batch.y, probs, spec, hyper.lam, hyper.alpha, utility_value
        )
        _guard(loss.value, iteration, "releaser")
        grad_z = loss.grad_released.copy()
        _, grad_adv_in = adversary.backward(loss.grad_posteriors, trace_a)
        grad_z += grad_adv_in[:, :, :d_y]
        if spec.needs_utility:
            _, grad_util_in = utility.backward(
                spec.utility_weight * util.grad_posteriors, trace_u
            )
            grad_z += grad_util_in
        grads_r, _ = releaser.backward(grad_z, trace_r)
        opt_r.step(grads_r)
        system.releaser_history.append(loss.value)

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
            ne = normalized_error(z, batch.y)
            log_stream.write(
                f"iteration={iteration} adversary_loss={adv_value:.6f} "
                f"releaser_loss={loss.value:.6f} ne={ne:.6f}\n"
            )

    if avg_params is not None:
        for layer, (aw, ab) in zip(releaser.layers, avg_params):
            layer.w[:] = aw
            layer.b[:] = ab
        releaser._version += 1

    system.releaser_updates = opt_r.steps
    system.adversary_updates = opt_a.steps
    system.utility_updates = opt_u.steps if opt_u else 0
    return system


def train_attacker(
    system: TrainedSystem, data: BatchStream, si_enabled: bool, seed: int
) -> Network:
    """Train a fresh post-hoc classifier on released data.

    The attacker mirrors the adversary's layer shapes but starts from an
    independent seed; the releaser stays frozen throughout.
    """
    pool = data.data
    if si_enabled and pool.s is None:
        raise ValidationError("si_enabled but the dataset carries no side information")
    d_s = pool.s.shape[1] if si_enabled else 0
    d_y = pool.y.shape[2]
    attacker = _two_layer_net(
        system.hyper.num_steps, d_y + d_s, system.hyper.hidden_adversary,
        system.num_private, "softmax", seed,
    )
    opt = SgdMomentum(attacker, system.hyper.lr_adversary, system.hyper.momentum)
    iters = system.hyper.attacker_iterations
    if iters is None:
        iters = system.hyper.iterations
    for iteration in range(iters):
        batch = data.draw(system.hyper.batch_size)
        z = system.release(batch)
        _classifier_step(
            opt, _with_side_info(z, batch.s, si_enabled), batch.x, iteration, "attacker"
        )
    return attacker


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

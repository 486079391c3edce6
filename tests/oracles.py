"""Independent brute-force implementations used as test oracles.

Everything here evaluates definitions directly in linear probability space
(plain sums, explicit loops, sequence enumeration) so it shares no code
path with the library's log-space implementations.  The exceptions are
``bayes_posterior``, the exact Bayes adversary that the optimizer's tests
read the adversary's beliefs from, which builds its joint with the
optimizer's own contraction, and ``distortion_only_releaser``, which
replays the training loop by hand from the library's networks and losses.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from alphaprivacy.channel import ReleaseChannel, WorldModel, _check_channel_shape, _joint_tables
from alphaprivacy.datasets import _derive_seed
from alphaprivacy.errors import ValidationError
from alphaprivacy.losses import releaser_loss
from alphaprivacy.measures import JointPmf
from alphaprivacy.nets import SgdMomentum
from alphaprivacy.training import _two_layer_net, assemble_observed


def shannon_direct(p):
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def renyi_entropy_direct(p, alpha):
    """alpha/(1-alpha) * log (sum p^alpha)^(1/alpha), Shannon at alpha=1."""
    p = np.asarray(p, dtype=float)
    if alpha == 1:
        return shannon_direct(p)
    return alpha / (1.0 - alpha) * np.log(np.sum(p**alpha) ** (1.0 / alpha))


def arimoto_conditional_direct(joint_xz, alpha):
    """Explicit sum over the conditioning variable of the joint (x, z) table."""
    joint_xz = np.asarray(joint_xz, dtype=float)
    pz = joint_xz.sum(axis=0)
    if alpha == 1:
        total = 0.0
        for z in range(joint_xz.shape[1]):
            if pz[z] > 0:
                total += pz[z] * shannon_direct(joint_xz[:, z] / pz[z])
        return total
    acc = 0.0
    for z in range(joint_xz.shape[1]):
        if pz[z] > 0:
            cond = joint_xz[:, z] / pz[z]
            acc += pz[z] * np.sum(cond**alpha) ** (1.0 / alpha)
    return alpha / (1.0 - alpha) * np.log(acc)


def alpha_mi_direct(joint_xz, alpha):
    joint_xz = np.asarray(joint_xz, dtype=float)
    return renyi_entropy_direct(joint_xz.sum(axis=1), alpha) - arimoto_conditional_direct(
        joint_xz, alpha
    )


def conditional_alpha_mi_direct(joint_xzs, alpha):
    """H_alpha(X|S) - H_alpha(X|Z,S) by enumerating every conditioning cell."""
    joint_xzs = np.asarray(joint_xzs, dtype=float)
    # collapse (z, s) into one conditioning axis for the second term
    nx, nz, ns = joint_xzs.shape
    x_given_zs = joint_xzs.reshape(nx, nz * ns)
    x_given_s = joint_xzs.sum(axis=1)
    return arimoto_conditional_direct(x_given_s, alpha) - arimoto_conditional_direct(
        x_given_zs, alpha
    )


def sequence_entropy_exhaustive(posteriors, alpha):
    """Sequence conditional alpha-entropy by enumerating all |X|^T sequences.

    Each batch element is one observed released sequence with empirical
    weight 1/B; the sequence posterior is the product of the per-step
    posteriors.  Normalized per time step.
    """
    post = np.asarray(posteriors, dtype=float)
    nbatch, nsteps, nsym = post.shape
    if alpha == 1:
        total = 0.0
        for b in range(nbatch):
            for xs in itertools.product(range(nsym), repeat=nsteps):
                p = 1.0
                for t, x in enumerate(xs):
                    p *= post[b, t, x]
                if p > 0:
                    total += -p * np.log(p)
        return total / nbatch / nsteps
    norms = []
    for b in range(nbatch):
        acc = 0.0
        for xs in itertools.product(range(nsym), repeat=nsteps):
            p = 1.0
            for t, x in enumerate(xs):
                p *= post[b, t, x]
            acc += p**alpha
        norms.append(acc ** (1.0 / alpha))
    return alpha / (1.0 - alpha) * np.log(np.mean(norms)) / nsteps


def random_joint(rng, shape):
    """A strictly positive random joint table of the given shape."""
    table = rng.random(shape) + 1e-3
    return table / table.sum()


def average_ranks_direct(values):
    """1-based average ranks from the definition: one plus the number of
    smaller values, plus half the number of other values equal to it."""
    values = list(values)
    return np.array([
        1 + sum(w < v for w in values) + (sum(w == v for w in values) - 1) / 2
        for v in values
    ])


def spearman_rho(a, b):
    """Spearman rank correlation with average ranks for ties: the Pearson
    correlation of the two sequences' average ranks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 2:
        raise ValidationError("need two equal-length sequences of at least 2 points")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("rank correlation needs finite values")
    ra, rb = average_ranks_direct(a), average_ranks_direct(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra**2).sum() * (rb**2).sum())
    if denom == 0.0:
        raise ValidationError("rank correlation undefined for constant sequences")
    return float((ra * rb).sum() / denom)


def si_only_rule_direct(train_s, train_x, eval_s):
    """Per-sequence SI-only predictions by counting each symbol's training
    labels in a dict; an unseen symbol gets the overall most common label
    (the smallest such label on a tie)."""
    tallies, overall = {}, {}
    for sym, labels in zip(train_s, train_x):
        for label in labels:
            tally = tallies.setdefault(sym, {})
            tally[label] = tally.get(label, 0) + 1
            overall[label] = overall.get(label, 0) + 1

    def most_common(tally):
        return min(tally, key=lambda label: (-tally[label], label))

    return np.array([most_common(tallies.get(sym, overall)) for sym in eval_s])


@dataclass
class BayesPosterior:
    """Exact adversary best response to a fixed channel.

    ``conditional[x, z(, s)]`` is p(x | z[, s]); cells with zero release
    probability are filled with the prior on X and flagged dead in
    ``support`` so downstream expectations can skip them.
    """

    joint: JointPmf
    conditional: np.ndarray
    support: np.ndarray


def bayes_posterior(world: WorldModel, channel: ReleaseChannel) -> BayesPosterior:
    """Exact posterior p(X | Z[, S]) induced by the world and the channel.

    This is the minimizer of the KL divergence from the true posterior,
    i.e. the best possible adversary for the given release mechanism.
    """
    _check_channel_shape(world, channel.probs)
    side_information = "S" in world.joint.axis_labels
    table = _joint_tables(world, channel.probs[None]).reshape(
        len(world._xws), world.num_symbols, -1
    )
    if not side_information:
        table = table[:, :, 0]
    cond_mass = table.sum(axis=0)
    support = cond_mass > 0.0
    cond = table / np.where(support, cond_mass, 1.0)
    # dead cells: fall back to the prior, flagged via `support`
    if not support.all():
        prior = world.joint.marginal(("X",)).probs.reshape((-1,) + (1,) * (table.ndim - 1))
        cond = np.where(support, cond, prior)
    labels = ("X", "Z", "S") if side_information else ("X", "Z")
    return BayesPosterior(JointPmf(table, labels), cond, support)


def distortion_only_releaser(hyper, stream, spec):
    """The releaser of a lambda = 0 run of ``hyper`` on ``stream``, replayed
    by hand: no adversary, no utility network, one lone model.

    Per iteration: the decayed learning rate, the adversary steps' k
    batches drawn and discarded, then one SGD step on the distortion alone
    of a fresh batch; the running mean over the ``average_tail`` iterations
    replaces the weights at the end.
    """
    data = stream.data
    d_w = assemble_observed(data.y[:1], data.x[:1], data.u[:1], hyper.observed_mode).shape[-1]
    releaser = _two_layer_net(hyper.num_steps, d_w, data.y.shape[-1], "linear",
                              _derive_seed(hyper.seed, "releaser"))
    opt = SgdMomentum(releaser, hyper.lr_releaser, hyper.momentum)
    avg_start = int(round(hyper.iterations * (1.0 - hyper.average_tail)))
    averages = []
    for iteration in range(hyper.iterations):
        opt.learning_rate = hyper.lr_releaser / (1.0 + hyper.lr_decay * iteration)
        for _ in range(hyper.adversary_steps):
            stream.draw(hyper.batch_size)
        batch = data.take(stream.draw(hyper.batch_size))
        z, trace = releaser.forward(
            assemble_observed(batch.y, batch.x, batch.u, hyper.observed_mode))
        loss = releaser_loss(z, batch.y, None, spec, 0.0, hyper.alpha)
        grads, _ = releaser.backward(loss.grad_released, trace, input_grad=False)
        opt.step(grads)
        if hyper.average_tail > 0.0 and iteration >= avg_start:
            count = iteration - avg_start + 1
            if count == 1:
                averages = [(l.w.copy(), l.b.copy()) for l in releaser.layers]
                continue
            for (aw, ab), layer in zip(averages, releaser.layers):
                aw += (layer.w - aw) / count
                ab += (layer.b - ab) / count
    for layer, (aw, ab) in zip(releaser.layers, averages):
        layer.w[:] = aw
        layer.b[:] = ab
    return releaser

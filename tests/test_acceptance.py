"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Numerical criteria are checked against independent brute-force oracles;
behavioral criteria (full-utility, full-privacy, trade-off shape, side
information floor) run the real training pipeline at desk scale with
pinned seeds, so every number below is reproducible bit for bit.
"""

import time
from dataclasses import asdict

import numpy as np
import pytest

from alphaprivacy.channel import (
    ChannelOptConfig,
    WorldModel,
    grid_oracle,
    optimize_channel,
    releaser_objective,
)
from alphaprivacy.datasets import BatchStream, SynthConfig, train_eval_split
from alphaprivacy.losses import DistortionSpec, adversary_loss, releaser_loss
from alphaprivacy.measures import (
    JointPmf,
    Pmf,
    PosteriorBatch,
    alpha_mutual_information,
    arimoto_conditional_entropy,
    batch_sequence_arimoto_entropy,
    renyi_entropy,
)
from alphaprivacy.metrics import normalized_error
from alphaprivacy.nets import Network, dense, recurrent
from alphaprivacy.sweep import (
    calibrate_si_correlation,
    measure_si_floor,
    sweep,
)
from alphaprivacy.training import (
    HyperParams,
    evaluate_system,
    train,
    train_attacker,
)

from oracles import (
    arimoto_conditional_direct,
    random_joint,
    renyi_entropy_direct,
    sequence_entropy_exhaustive,
    shannon_direct,
    spearman_rho,
)

HAMMING = [[0.0, 1.0], [1.0, 0.0]]

CLUSTERS = SynthConfig(generator="labeled_clusters", total=16384, seed=1)

# tuned operating point for the adversarial game: no momentum, strong
# adversary (k steps at a converged rate), decayed and tail-averaged releaser
GAME = dict(momentum=0.0, lr_releaser=0.02, lr_decay=0.002, lr_adversary=0.1,
            adversary_steps=10, iterations=3000, batch_size=256, average_tail=0.5)


def report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")


def noisy_world(p0, flip):
    table = np.zeros((2, 2, 2))
    for x in range(2):
        px = p0 if x == 0 else 1.0 - p0
        for y in range(2):
            table[x, x, y] = px * (1.0 - flip if y == x else flip)
    return WorldModel(JointPmf(table, ("X", "W", "Y")), HAMMING)


def test_criterion_1_measure_correctness():
    """Arimoto quantities match direct brute force on 1,000 random joints."""
    rng = np.random.default_rng(2024)
    alphas = (0.5, 0.9, 1.1, 2.0, 3.0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        table = random_joint(rng, shape)
        joint = JointPmf(table, ("X", "Z"))
        marginal = Pmf(table.sum(axis=1))
        for alpha in alphas:
            worst = max(worst, abs(
                renyi_entropy(marginal, alpha) - renyi_entropy_direct(marginal.probs, alpha)
            ))
            direct_cond = arimoto_conditional_direct(table, alpha)
            worst = max(worst, abs(
                arimoto_conditional_entropy(joint, alpha) - direct_cond
            ))
            worst = max(worst, abs(
                alpha_mutual_information(joint, alpha)
                - (renyi_entropy_direct(marginal.probs, alpha) - direct_cond)
            ))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, "measure correctness", ok, f"max deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_shannon_limit():
    """alpha-MI at alpha = 1 +/- 1e-4 agrees with Shannon MI within 1e-3."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(100):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        table = random_joint(rng, shape)
        joint = JointPmf(table, ("X", "Z"))
        shannon_mi = (
            shannon_direct(table.sum(axis=1))
            + shannon_direct(table.sum(axis=0))
            - shannon_direct(table.ravel())
        )
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            worst = max(worst, abs(alpha_mutual_information(joint, alpha) - shannon_mi))
    ok = worst < 1e-3
    report(2, "Shannon limit", ok, f"max deviation {worst:.2e}")
    assert worst < 1e-3


def test_criterion_3_sequence_estimator():
    """Factorized batch estimate equals exhaustive sequence enumeration."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for nsteps in (1, 2, 3, 4):
        for nbatch in (1, 4, 8):
            probs = rng.random((nbatch, nsteps, 2)) + 1e-2
            probs /= probs.sum(axis=2, keepdims=True)
            for alpha in (0.5, 0.9, 1.0, 1.1, 2.0, 3.0):
                got = batch_sequence_arimoto_entropy(PosteriorBatch(probs), alpha)
                want = sequence_entropy_exhaustive(probs, alpha)
                worst = max(worst, abs(got - want))
    ok = worst <= 1e-9
    report(3, "sequence estimator", ok, f"max deviation {worst:.2e}")
    assert worst <= 1e-9


def _fd_param_error(loss_fn, nets, analytic, h=1e-5):
    """Max relative error between analytic grads and central differences."""
    worst = 0.0
    for net, grads in zip(nets, analytic):
        for layer, (dw, db) in zip(net.layers, grads):
            for arr, g in ((layer.w, dw), (layer.b, db)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = loss_fn()
                    arr[idx] = orig - h
                    down = loss_fn()
                    arr[idx] = orig
                    fd = (up - down) / (2.0 * h)
                    rel = abs(fd - g[idx]) / max(1e-8, abs(fd) + abs(g[idx]))
                    worst = max(worst, rel)
    return worst


def test_criterion_4_gradient_fidelity():
    """Backprop matches finite differences on 100 randomized instances,
    including the full releaser objective at alpha in {0.9, 3}."""
    rng = np.random.default_rng(2027)
    worst = 0.0
    for trial in range(100):
        variant = trial % 4
        if variant in (0, 1):
            # classifier cross-entropy, dense or recurrent
            recurrent_net = variant == 1
            specs = (
                [recurrent(2, 3), dense(3, 2, "softmax")]
                if recurrent_net
                else [dense(2, 4, "tanh"), dense(4, 2, "softmax")]
            )
            net = Network.build(specs, seed=trial)
            x = rng.normal(size=(3, 3 if recurrent_net else 1, 2))
            labels = rng.integers(0, 2, size=x.shape[:2])

            def loss_fn():
                out, _ = net.forward(x)
                return adversary_loss(out, labels).value

            out, trace = net.forward(x)
            grads, _ = net.backward(adversary_loss(out, labels).grad_posteriors, trace)
            worst = max(worst, _fd_param_error(loss_fn, [net], [grads]))
        else:
            # full releaser objective through the frozen adversary
            alpha = 0.9 if variant == 2 else 3.0
            lam = float(rng.uniform(0.3, 1.5))
            nsteps = 1 if variant == 2 else 2
            rel_specs = (
                [dense(3, 4, "tanh"), dense(4, 2, "linear")]
                if nsteps == 1
                else [recurrent(3, 4), dense(4, 2, "linear")]
            )
            adv_specs = (
                [dense(2, 4, "tanh"), dense(4, 2, "softmax")]
                if nsteps == 1
                else [recurrent(2, 4), dense(4, 2, "softmax")]
            )
            rel = Network.build(rel_specs, seed=trial)
            adv = Network.build(adv_specs, seed=trial + 1)
            w = rng.normal(size=(3, nsteps, 3))
            y = rng.normal(size=(3, nsteps, 2))
            spec = DistortionSpec("ts_l2")

            def loss_fn():
                z, _ = rel.forward(w)
                probs, _ = adv.forward(z)
                return releaser_loss(z, y, probs, spec, lam, alpha).value

            z, tr = rel.forward(w)
            probs, ta = adv.forward(z)
            lv = releaser_loss(z, y, probs, spec, lam, alpha)
            gz = lv.grad_released.copy()
            _, gin = adv.backward(lv.grad_posteriors, ta)
            gz += gin
            grads, _ = rel.backward(gz, tr)
            worst = max(worst, _fd_param_error(loss_fn, [rel], [grads]))
    ok = worst < 1e-4
    report(4, "gradient fidelity", ok, f"max relative error {worst:.2e}")
    assert worst < 1e-4


def test_criterion_5_exact_optimizer_vs_oracle():
    """Exponentiated gradient matches an exhaustive resolution-1001 grid."""
    instances = [
        (0.5, 0.0, 2.0, 0.5), (0.5, 0.2, 2.0, 0.5), (0.6, 0.1, 2.0, 0.3),
        (0.3, 0.15, 0.5, 0.8), (0.5, 0.0, 3.0, 1.0), (0.7, 0.25, 1.0, 0.4),
        (0.45, 0.05, 0.9, 0.6), (0.55, 0.3, 2.0, 1.5), (0.5, 0.1, 1.1, 0.2),
        (0.65, 0.0, 3.0, 0.7),
    ]
    start = time.perf_counter()
    worst = -np.inf
    for p0, flip, alpha, lam in instances:
        world = noisy_world(p0, flip)
        cfg = ChannelOptConfig(alpha=alpha, lam=lam, max_iters=400)
        result = optimize_channel(world, cfg, seed=7)
        opt_obj = releaser_objective(world, result.channel, cfg)
        _, grid_obj = grid_oracle(world, cfg, resolution=1001)
        worst = max(worst, opt_obj - grid_obj)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 60.0
    report(5, "exact optimizer vs oracle", ok,
           f"worst objective gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_6_full_utility_limit():
    """lambda = 0 with B = 256, k = 3 reaches NE < 0.05 within 500 iterations."""
    start = time.perf_counter()
    train_data, eval_data = train_eval_split(CLUSTERS)
    hyper = HyperParams(alpha=1.0, lam=0.0, momentum=0.0, batch_size=256,
                        adversary_steps=3, iterations=500, lr_releaser=0.02,
                        lr_decay=0.005, lr_adversary=0.3, seed=11)
    system = train(hyper, BatchStream(train_data, 5), DistortionSpec("p_norm", p=2.0))
    ne = normalized_error(system.release(eval_data), eval_data.y)
    elapsed = time.perf_counter() - start
    ok = ne < 0.05 and elapsed < 300.0
    report(6, "full-utility limit", ok, f"NE {ne:.4f}, {elapsed:.1f}s")
    assert ne < 0.05
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_7_full_privacy_limit():
    """Saturated lambda confines the post-hoc attacker to chance, while the
    lambda = 0 release stays fully attackable."""
    train_data, eval_data = train_eval_split(CLUSTERS)
    spec = DistortionSpec("p_norm", p=2.0)

    open_hyper = HyperParams(alpha=1.0, lam=0.0, momentum=0.0, batch_size=256,
                             adversary_steps=3, iterations=500, lr_releaser=0.02,
                             lr_decay=0.005, lr_adversary=0.3, seed=11)
    open_system = train(open_hyper, BatchStream(train_data, 5), spec)
    open_attacker = train_attacker(open_system, BatchStream(train_data, 7), False, 99)
    open_scores = evaluate_system(open_system, open_attacker, eval_data, False)

    sat_hyper = HyperParams(alpha=1.0, lam=20.0, seed=11, **GAME)
    sat_system = train(sat_hyper, BatchStream(train_data, 200), spec)
    sat_attacker = train_attacker(sat_system, BatchStream(train_data, 300), False, 400)
    sat_scores = evaluate_system(sat_system, sat_attacker, eval_data, False)

    sat_acc = sat_scores["attacker_accuracy"]
    open_acc = open_scores["attacker_accuracy"]
    ok = 0.45 <= sat_acc <= 0.55 and open_acc > 0.9
    report(7, "full-privacy limit", ok,
           f"saturated attacker {sat_acc:.4f}, open attacker {open_acc:.4f}")
    assert 0.45 <= sat_acc <= 0.55
    assert open_acc > 0.9


@pytest.mark.slow
def test_criterion_8_tradeoff_monotonicity():
    """Six-point lambda sweeps anticorrelate NE and attacker accuracy
    (Spearman <= -0.8) at every alpha in {0.9, 1, 3}."""
    base = HyperParams(alpha=1.0, lam=0.0, seed=11, **GAME)
    grids = {
        0.9: [0.0, 1.8, 2.4, 3.5, 7.0, 20.0],
        1.0: [0.0, 1.2, 1.8, 3.0, 6.0, 20.0],
        3.0: [0.0, 2.0, 2.6, 4.0, 8.0, 20.0],
    }
    rhos = {}
    for alpha, lams in grids.items():
        points = sweep(base, lams, [alpha], CLUSTERS, workers=3)
        assert not any(p.failed for p in points)
        nes = [p.ne for p in points]
        accs = [p.attacker_balanced_accuracy for p in points]
        rhos[alpha] = spearman_rho(nes, accs)
    ok = all(rho <= -0.8 for rho in rhos.values())
    detail = ", ".join(f"alpha {a}: rho {r:.3f}" for a, r in rhos.items())
    report(8, "trade-off monotonicity", ok, detail)
    for alpha, rho in rhos.items():
        assert rho <= -0.8, f"alpha={alpha}: Spearman {rho}"


@pytest.mark.slow
def test_criterion_9_side_information_floor():
    """With SI calibrated to the 0.578 baseline, the saturated system's
    attacker-with-SI converges to that floor: distortion cannot erase
    side-information leakage."""
    base_cfg = SynthConfig(generator="markov_load", total=3000, num_steps=24,
                           d_y=1, seed=3, stay_prob=0.8, occupancy_bump=1.0,
                           load_noise=0.25)
    cfg = calibrate_si_correlation(base_cfg, target=0.578, tol=0.004)
    floor = measure_si_floor(cfg)
    train_data, eval_data = train_eval_split(cfg)
    hyper = HyperParams(alpha=1.0, lam=20.0, momentum=0.0, batch_size=128,
                        adversary_steps=4, iterations=1500, lr_releaser=0.01,
                        lr_decay=0.002, average_tail=0.5, lr_adversary=0.1,
                        num_steps=24, observed_mode="concat_xy", seed=21)
    system = train(hyper, BatchStream(train_data, 500), DistortionSpec("ts_l2"),
                   si_enabled=True)
    attacker = train_attacker(system, BatchStream(train_data, 600), True, 700)
    scores = evaluate_system(system, attacker, eval_data, True)
    acc = scores["attacker_accuracy"]
    gap = abs(acc - floor)
    ok = abs(floor - 0.578) <= 0.02 and gap <= 0.03
    report(9, "side-information floor", ok,
           f"floor {floor:.4f}, attacker-with-SI {acc:.4f}, gap {gap:.4f}")
    assert abs(floor - 0.578) <= 0.02
    assert gap <= 0.03


def test_criterion_10_reproducibility():
    """Identical configuration and seeds reproduce every TradeoffPoint
    value bit-exactly."""
    base = HyperParams(momentum=0.0, lr_releaser=0.02, lr_adversary=0.1,
                       iterations=40, batch_size=32, adversary_steps=2, seed=77)
    cfg = SynthConfig(generator="labeled_clusters", total=256, seed=9)
    first = sweep(base, [0.0, 1.0], [1.0, 3.0], cfg)
    second = sweep(base, [0.0, 1.0], [1.0, 3.0], cfg)
    identical = [asdict(p) for p in first] == [asdict(p) for p in second]
    parallel = sweep(base, [0.0, 1.0], [1.0, 3.0], cfg, workers=2)
    pool_identical = [asdict(p) for p in first] == [asdict(p) for p in parallel]
    ok = identical and pool_identical
    report(10, "reproducibility", ok,
           f"{len(first)} points, sequential and pooled reruns bit-identical")
    assert identical
    assert pool_identical

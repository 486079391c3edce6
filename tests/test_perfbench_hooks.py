"""The traced benchmark wraps package attributes by name; every name it
lists must still exist, so a rename fails here in seconds rather than in
the ``perfbench/tests`` smoke run.  The per-layer training counts also
need the sweep to keep calling through those names.

``perfbench/tracing.py`` is parsed, not imported: only the literal
``(module, class, attribute)`` head of each ``HOOKS`` entry is read.
"""

import ast
import collections
import functools
import importlib
import pathlib

import pytest

from alphaprivacy import nets, sweep, training
from alphaprivacy.datasets import SynthConfig

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def hook_targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets
        ):
            return [tuple(ast.literal_eval(e) for e in hook.elts[:3]) for hook in node.value.elts]
    raise AssertionError(f"{TRACING} defines no HOOKS list")


@pytest.mark.parametrize("module, cls, attr", hook_targets())
def test_hooked_attribute_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    # the tracer reads ``owner.__dict__[attr]``: an inherited name would not do
    assert callable(owner.__dict__.get(attr)), ".".join(filter(None, (module, cls, attr))) + " is gone"


# (owner, attribute) pairs behind perfbench's nets.* and losses.* metrics
TRAINING_HOOKS = [
    (nets.Network, "forward"), (nets.Network, "backward"), (nets.SgdMomentum, "step"),
    (training, "adversary_loss"), (training, "releaser_loss"),
]


def test_sweep_calls_every_hooked_training_layer(monkeypatch):
    calls = collections.Counter()
    for owner, attr in TRAINING_HOOKS:
        original = owner.__dict__[attr]

        def counted(*args, _original=original, _name=attr, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, functools.wraps(original)(counted))
    hyper = training.HyperParams(iterations=2, batch_size=8, adversary_steps=2, seed=3)
    data_cfg = SynthConfig(generator="labeled_clusters", total=48, seed=2)
    points = sweep.sweep(hyper, [0.0, 1.0], [1.0], data_cfg, workers=1)
    assert len(points) == 2 and not any(p.failed for p in points)
    assert all(calls[attr] > 0 for _, attr in TRAINING_HOOKS), calls

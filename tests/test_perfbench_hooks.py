"""The traced benchmark wraps package attributes by name; every name it
lists must still exist, so a rename fails here in seconds rather than in
the ``perfbench/tests`` smoke run.

``perfbench/tracing.py`` is parsed, not imported: only the literal
``(module, class, attribute)`` head of each ``HOOKS`` entry is read.
"""

import ast
import importlib
import pathlib

import pytest

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

"""Every module-level function and class of the package, and every method
and property of those classes but the dunders, is used outside its own
definition: by its own module, by another module of the package, by
``__all__``, or in a ``perfbench/*.py`` script, whose hook table names the
functions it traces as strings.  A surface that only tests reach fails, so
it gets a command that uses it or is deleted.  Likewise every oracle in
``tests/oracles.py`` is read by a test module or a ``perfbench/*.py``
script, so an oracle outlives no subject.  The modules are parsed, not
imported.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "alphaprivacy"


def referenced_names(tree, skip=None):
    """Names that ``tree`` uses outside the node ``skip``: names, attributes,
    names imported from a module, and string constants."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def surfaces(tree):
    """(qualified name, node) of each module-level function and class of
    ``tree``, and of each method and property of those classes but the
    dunders, which Python itself calls."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def unused_surfaces(modules, scripts):
    """``module.name`` of each surface (see :func:`surfaces`) in ``modules``
    (module name to source) that nothing references outside its own
    definition; ``scripts`` are the sources of other callers."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    uses = {name: referenced_names(tree) for name, tree in trees.items()}
    callers = set().union(*(referenced_names(ast.parse(source)) for source in scripts))
    unused = []
    for name, tree in trees.items():
        elsewhere = callers.union(*(used for other, used in uses.items() if other != name))
        for qualname, node in surfaces(tree):
            if node.name not in elsewhere | referenced_names(tree, skip=node):
                unused.append(f"{name}.{qualname}")
    return unused


def test_every_surface_has_a_caller():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    scripts = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unused_surfaces(modules, scripts) == []


def test_every_oracle_has_a_reader():
    tests = ROOT / "tests"
    oracles = {"oracles": (tests / "oracles.py").read_text()}
    readers = [p.read_text() for p in sorted(tests.glob("*.py")) if p.name != "oracles.py"]
    readers += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unused_surfaces(oracles, readers) == []


def test_the_check_sees_an_oracle_no_test_reads():
    oracles = {
        "oracles": "def used_direct(p):\n    return p\n\n\n"
                   "def orphan_direct(p):\n    return orphan_direct(p)\n",
    }
    readers = ["from oracles import used_direct\n\n\ndef test_it():\n    used_direct(1)\n"]
    assert unused_surfaces(oracles, readers) == ["oracles.orphan_direct"]


def test_the_check_sees_a_surface_only_tests_reach():
    modules = {
        "a": "def used():\n    pass\n\n\ndef lonely():\n    return lonely()\n\n\n"
             "class Hooked:\n    pass\n",
        "b": "from .a import used\n\n\ndef main():\n    used()\n",
    }
    scripts = ['HOOKS = [("pkg.a", "Hooked")]\n']
    assert unused_surfaces(modules, scripts) == ["a.lonely", "b.main"]


def test_the_check_sees_a_method_only_tests_reach():
    modules = {
        "a": "class Box:\n"
             "    def __len__(self):\n        return 0\n\n"
             "    @property\n    def size(self):\n        return self.size\n\n"
             "    def used(self):\n        return 1\n\n"
             "    def hooked(self):\n        pass\n\n\n"
             "def main():\n    return Box().used()\n\n\nmain()\n",
    }
    scripts = ['HOOKS = [("pkg.a", "Box", "hooked")]\n']
    assert unused_surfaces(modules, scripts) == ["a.Box.size"]

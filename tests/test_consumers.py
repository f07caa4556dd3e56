"""No code without a consumer: every public function or class in ``src/ontokit``
is referenced by something other than its own definition and the tests.

A reference is a bare name in the defining module (outside the definition
itself), an import or ``module.name`` in another module of the package
(re-exports in ``__init__`` do not count), any use in ``scripts/`` or
``bench/``, including the (module, attribute) span targets that
``bench/tracing.py`` names as strings, or a use in ``tests/test_acceptance.py``,
the acceptance gate the README points to.  A name without a consumer is
either deleted or listed in ``KEPT`` with its reason; ``KEPT`` only shrinks.
"""

import ast
import pathlib
import types

import ontokit

SRC = pathlib.Path(ontokit.__file__).parent
ROOT = SRC.parents[1]
TRACING = ROOT / "bench" / "tracing.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

KEPT = {
    "dual_state_kernel": "kernel side of the duality law (ROADMAP item 6)",
    "dual_state_quantum": "quantum side of the duality law (ROADMAP item 6)",
    "response_as_kernel": "model responses as kernels into TWO (ROADMAP item 8)",
    "identity_kernel": "kernel-side constructor: the identity kernel on a space",
    "point_mass": "kernel-side constructor: the point-mass distribution",
    "uniform": "kernel-side constructor: the uniform distribution",
    "functor_object": "the Wigner functor's object map",
    "functor_state": "the Wigner functor's state map",
    "pad_odd": "even-dimension padding, the functor's route for even endpoints",
}


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _public_definitions():
    """{name: module} for every public module-level function and class."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                assert node.name not in defs, f"{node.name} is defined twice"
                defs[node.name] = path.stem
    return defs


def _imported_module(node):
    """The ontokit module an ``ImportFrom`` reads from ("" for the package
    itself), or None when it imports from elsewhere."""
    if node.level == 1:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if node.level == 0 and head == "ontokit" else None


def _references(tree, modules):
    """(module, name) pairs a file takes from ontokit: ``from ontokit.m import
    name``, or ``m.name`` after ``from ontokit import m`` (relative forms too)."""
    refs, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _imported_module(node)) is not None:
            for alias in node.names:
                if module == "" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    refs.add((module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
    return refs


def _consumed(defs):
    trees = {path.stem: _tree(path) for path in SRC.glob("*.py")}
    consumed = set()
    for name, module in defs.items():
        others = [n for n in trees[module].body if getattr(n, "name", None) != name]
        if any(isinstance(n, ast.Name) and n.id == name for top in others for n in ast.walk(top)):
            consumed.add(name)
    outside = [*ROOT.glob("scripts/*.py"), *ROOT.glob("bench/*.py"), ACCEPTANCE]
    files = [(m, t) for m, t in trees.items() if m != "__init__"]
    files += [(None, _tree(path)) for path in outside]
    for own, tree in files:
        for module, name in _references(tree, trees):
            home = defs.get(name)
            # module "" is the package, which re-exports the name from its home
            if home is not None and home != own and module in ("", home):
                consumed.add(name)
    # executed from its source text, so nothing is written under bench/
    tracing = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    for module, attr, *_ in tracing.TARGETS:
        name = attr.split(".")[0]
        if module == f"ontokit.{defs.get(name)}":
            consumed.add(name)
    return consumed


DEFS = _public_definitions()
CONSUMED = _consumed(DEFS)


def test_every_public_definition_has_a_consumer():
    unconsumed = sorted(f"{DEFS[n]}.{n}" for n in set(DEFS) - CONSUMED - set(KEPT))
    assert unconsumed == []


def test_kept_names_exist_and_still_lack_a_consumer():
    assert sorted(set(KEPT) - set(DEFS)) == [], "a kept name no longer exists: drop it from KEPT"
    assert sorted(set(KEPT) & CONSUMED) == [], "a kept name has a consumer now: drop it from KEPT"

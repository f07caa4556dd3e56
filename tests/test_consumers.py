"""No code without a consumer: every public function or class in ``src/ontokit``,
and every public method or property of a public class, is used by something
the product runs.

The consumers are the other modules of the package (the CLI among them),
the scripts in ``scripts/`` and the benchmark checks in ``bench/checks.py``.
A module-level name is used by a bare name in its defining module (outside
the definition itself), or by an import or ``module.name`` in a consumer
(re-exports in ``__init__`` do not count).  A method or property is used by
an attribute of its name, ``x.name``, anywhere in the package or a consumer
outside its own definition; an attribute of an imported module, such as
``operator.index``, does not count.  A read of a name that several classes
define counts for each of them, so those names are pinned in ``SHARED``.
Neither the span targets that ``bench/tracing.py`` names as strings nor the
tests, ``tests/test_acceptance.py`` among them, count.

A name without a consumer is either deleted or listed in ``KEPT`` with the
open ROADMAP item that gives it one or deletes it.  ``KEPT`` only shrinks
from here on: no name is added to it.
"""

import ast
import pathlib
from collections import Counter

import ontokit

SRC = pathlib.Path(ontokit.__file__).parent
ROOT = SRC.parents[1]
CONSUMERS = [*sorted(ROOT.glob("scripts/*.py")), ROOT / "bench" / "checks.py"]

ITEM_3 = "traced by the bench only; ROADMAP item 3 deletes it with its span target"
KEPT = {
    "kcompose": ITEM_3,
    "ktensor": ITEM_3,
    "evaluate": ITEM_3,
    "antidist_quantum_check": ITEM_3,
    "dtensor": "product states of signed kernels (ROADMAP item 8)",
    "parse_kernel": "functor documents (ROADMAP item 12)",
}

# The public method names that more than one public class defines.  A read
# ``x.clean`` counts for every class with a ``clean``, so the guard cannot tell
# which one is read: each method listed here was seen to run under a call trace
# of the golden CLI rows, the scripts and the three bench streams.  A new shared
# name needs the same trace before it joins.
SHARED = {
    "clean": {"DecoherenceReport", "ModelValidation", "QuantumMeasureReport"},
    "dim": {"DensityMatrix", "ProjectiveMeasurement", "TwoOutcomeMeasurement"},
}


def _tree(path):
    return ast.parse(path.read_text(), str(path))


TREES = {path.stem: _tree(path) for path in sorted(SRC.glob("*.py"))}


def _public(nodes, kinds):
    return [n for n in nodes if isinstance(n, kinds) and not n.name.startswith("_")]


def _public_definitions():
    """{name: module} for every public module-level function and class."""
    defs = {}
    for module, tree in TREES.items():
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            assert node.name not in defs, f"{node.name} is defined twice"
            defs[node.name] = module
    return defs


def _public_methods():
    """{"Class.name": (definition node, module)} for every public method and
    property of a public class."""
    return {
        f"{cls.name}.{fn.name}": (fn, module)
        for module, tree in TREES.items()
        for cls in _public(tree.body, ast.ClassDef)
        for fn in _public(cls.body, ast.FunctionDef)
    }


def _imported_module(node):
    """The ontokit module an ``ImportFrom`` reads from ("" for the package
    itself), or None when it imports from elsewhere."""
    if node.level == 1:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if node.level == 0 and head == "ontokit" else None


def _references(tree):
    """(module, name) pairs a file takes from ontokit: ``from ontokit.m import
    name``, or ``m.name`` after ``from ontokit import m`` (relative forms too)."""
    refs, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _imported_module(node)) is not None:
            for alias in node.names:
                if module == "" and alias.name in TREES:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    refs.add((module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
    return refs


def _consumer_trees():
    """(module or None, tree) for the package modules but ``__init__``, and
    for the consumers outside the package."""
    files = [(m, t) for m, t in TREES.items() if m != "__init__"]
    return files + [(None, _tree(path)) for path in CONSUMERS]


def _consumed_definitions(defs):
    consumed = set()
    for name, module in defs.items():
        others = [n for n in TREES[module].body if getattr(n, "name", None) != name]
        if any(isinstance(n, ast.Name) and n.id == name for top in others for n in ast.walk(top)):
            consumed.add(name)
    for own, tree in _consumer_trees():
        for module, name in _references(tree):
            home = defs.get(name)
            # module "" is the package, which re-exports the name from its home
            if home is not None and home != own and module in ("", home):
                consumed.add(name)
    return consumed


def _imported_modules(tree):
    """The names under which a file imports modules (``np``, ``operator``,
    ``quantum`` after ``from ontokit import quantum``)."""
    return {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if isinstance(node, ast.Import) or (_imported_module(node) == "" and alias.name in TREES)
    }


def _attribute_reads(node, modules):
    """How often each attribute name is read under ``node``, leaving out the
    attributes of the modules in ``modules``."""
    return Counter(
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and not (isinstance(n.value, ast.Name) and n.value.id in modules)
    )


def _consumed_methods(methods):
    """The methods read more often in all the consumers together than in
    their own definitions."""
    reads = Counter()
    for _, tree in _consumer_trees():
        reads += _attribute_reads(tree, _imported_modules(tree))
    return {
        qualified for qualified, (node, module) in methods.items()
        if reads[node.name] > _attribute_reads(node, _imported_modules(TREES[module]))[node.name]
    }


DEFS = _public_definitions()
CONSUMED = _consumed_definitions(DEFS)
METHODS = _public_methods()


def test_every_public_definition_has_a_consumer():
    unconsumed = sorted(f"{DEFS[n]}.{n}" for n in set(DEFS) - CONSUMED - set(KEPT))
    assert unconsumed == []


def test_every_public_method_has_a_consumer():
    assert sorted(set(METHODS) - _consumed_methods(METHODS)) == []


def test_kept_names_exist_and_still_lack_a_consumer():
    assert sorted(set(KEPT) - set(DEFS)) == [], "a kept name no longer exists: drop it from KEPT"
    assert sorted(set(KEPT) & CONSUMED) == [], "a kept name has a consumer now: drop it from KEPT"


def test_kept_reasons_cite_a_roadmap_item():
    assert [n for n, why in KEPT.items() if "ROADMAP item" not in why] == []


def test_shared_method_names_are_pinned():
    classes = {}
    for qualified in METHODS:
        cls, name = qualified.split(".")
        classes.setdefault(name, set()).add(cls)
    assert {name: c for name, c in classes.items() if len(c) > 1} == SHARED

"""One tolerance table: ``ontokit.tolerances`` names every threshold."""

import ast
import pathlib
import re

import ontokit

SRC = pathlib.Path(ontokit.__file__).parent
TABLE = SRC / "tolerances.py"
THRESHOLD_NAME = re.compile(r"_(TOL|EPS|MARGIN)$")


def _module_names(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        yield from (t.id for t in targets if isinstance(t, ast.Name))


def _threshold_sites(path):
    """Module-level *_TOL / *_EPS / *_MARGIN names and float literals in (0, 1e-6]."""
    tree = ast.parse(path.read_text())
    sites = [name for name in _module_names(tree) if THRESHOLD_NAME.search(name)]
    sites += [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value <= 1e-6
    ]
    return sites


def test_only_the_table_names_thresholds():
    offenders = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if path != TABLE and (sites := _threshold_sites(path))
    }
    assert offenders == {}


def test_every_table_entry_is_read():
    others = "\n".join(p.read_text() for p in SRC.glob("*.py") if p != TABLE)
    names = list(_module_names(ast.parse(TABLE.read_text())))
    assert names
    assert [n for n in names if not re.search(rf"\b{n}\b", others)] == []

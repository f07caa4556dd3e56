"""One tolerance table: ``ontokit.tolerances`` names every threshold."""

import ast
import pathlib
import re

import numpy as np
import pytest

import ontokit
from ontokit.errors import OntokitError
from ontokit.kernels import TWO, Distribution, ResponseFunction, SignedKernel
from ontokit.qmeasure import DecoherenceFunctional, QuantumMeasure
from ontokit.quantum import Channel, DensityMatrix, ProjectiveMeasurement, TwoOutcomeMeasurement
from ontokit.wigner import WignerFrame, commutative_algebra

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


def test_the_readme_lists_the_table():
    """The README's tolerance bullets name every constant of the table with
    its value, and nothing else."""
    readme = (SRC.parents[1] / "README.md").read_text()
    start = readme.index("* Every threshold is named once, in `ontokit.tolerances`")
    bullets = readme[start:readme.index("\n* ", start)]
    listed = {
        name: float(value)
        for name, value in re.findall(r"`([A-Z_]+)`\s+(\d+(?:\.\d+)?(?:e[+-]?\d+)?)", bullets)
    }
    table = {}
    exec(TABLE.read_text(), table)
    assert listed == {n: table[n] for n in _module_names(ast.parse(TABLE.read_text()))}


def test_every_table_entry_is_read():
    others = "\n".join(p.read_text() for p in SRC.glob("*.py") if p != TABLE)
    names = list(_module_names(ast.parse(TABLE.read_text())))
    assert names
    assert [n for n in names if not re.search(rf"\b{n}\b", others)] == []


def _tolerance_imports(source):
    """The names a module's source imports from ``ontokit.tolerances``, or the module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if "tolerances" in (node.module or "").split("."):
                yield from (alias.name for alias in node.names)
            else:
                yield from (alias.name for alias in node.names if alias.name == "tolerances")
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if "tolerances" in a.name.split("."))


def test_the_document_layer_owns_no_threshold():
    """serialize reads structure and names fields; every numerical check on
    a document is the library's, so it imports nothing from the table."""
    assert list(_tolerance_imports((SRC / "serialize.py").read_text())) == []
    # every spelling of such an import is seen
    spellings = (
        "from .tolerances import A\nfrom ontokit.tolerances import B\n"
        "from . import tolerances\nimport ontokit.tolerances\n"
    )
    assert list(_tolerance_imports(spellings)) == ["A", "B", "tolerances", "ontokit.tolerances"]


NAN = float("nan")
NAN_DIAGONAL = [[1.0, 0.0], [0.0, NAN]]


def _nan_frame():
    ops = np.zeros((2, 2, 2))
    ops[0, 0, 0], ops[1, 1, 1] = 1.0, NAN
    return WignerFrame(commutative_algebra(2), ops, 1.0, TWO)


@pytest.mark.parametrize("build", [
    lambda: DensityMatrix(NAN_DIAGONAL),
    lambda: TwoOutcomeMeasurement(NAN_DIAGONAL),
    lambda: ProjectiveMeasurement(NAN_DIAGONAL),
    lambda: Channel((np.array(NAN_DIAGONAL),)),
    lambda: SignedKernel(TWO, TWO, NAN_DIAGONAL),
    lambda: Distribution(TWO, [1.0, NAN]),
    lambda: ResponseFunction(TWO, [1.0, NAN]),
    lambda: QuantumMeasure(TWO, [0.0, 0.5, NAN, 1.0]),
    lambda: DecoherenceFunctional(TWO, NAN_DIAGONAL),
    _nan_frame,
], ids=["density", "effect", "projective", "channel", "kernel", "distribution", "response",
        "measure", "decoherence", "frame"])
def test_validated_constructors_reject_nan(build):
    # a NaN compares false with every threshold, so each check must fail on it
    with pytest.raises((ValueError, OntokitError)):
        build()

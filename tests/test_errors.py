"""One fault vocabulary: the library raises ``OntokitError``s, a failed check
as a ``VerificationFailedError``, never a bare ``ValueError``, ``TypeError``
or ``IndexError``."""

import ast
import pathlib

import numpy as np
import pytest

import ontokit
from ontokit.antidist import AntidistProblem
from ontokit.errors import IndexOutOfRangeError, OntokitError, VerificationFailedError
from ontokit.kernels import Distribution, FiniteSpace, ResponseFunction, SignedKernel
from ontokit.ontomodel import OntModel
from ontokit.qmeasure import DecoherenceFunctional, QuantumMeasure
from ontokit.quantum import Channel, DensityMatrix, ProjectiveMeasurement, born
from ontokit.sampling import (
    random_cptp_channel, random_density, random_effect, random_ket,
    random_nonorthogonal_pair, random_unitary, rng_for,
)

SRC = pathlib.Path(ontokit.__file__).parent
BARE = {"ValueError", "TypeError", "IndexError"}
# the JSON emitter refuses what it cannot write, as json.dumps does
EMITTER = {("serialize", "_format_float"), ("serialize", "dumps_report")}


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _bare_raises(path):
    """'owner line N: Name' for each bare ValueError, TypeError or IndexError
    the module raises, owner being the module-level function or class
    around it."""
    sites = []
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", "<module>")
        if (path.stem, owner) in EMITTER:
            continue
        sites += [
            f"{owner} line {node.lineno}: {name}"
            for node in ast.walk(top)
            if isinstance(node, ast.Raise) and (name := _raised_name(node)) in BARE
        ]
    return sites


def test_library_faults_are_ontokit_errors():
    offenders = {
        path.name: sites for path in sorted(SRC.glob("*.py")) if (sites := _bare_raises(path))
    }
    assert offenders == {}


def test_a_failed_check_is_also_a_value_error():
    # callers that catch ValueError keep working
    assert issubclass(VerificationFailedError, OntokitError)
    assert issubclass(VerificationFailedError, ValueError)


def test_an_index_out_of_range_is_also_an_index_error():
    assert issubclass(IndexOutOfRangeError, OntokitError)
    assert issubclass(IndexOutOfRangeError, IndexError)
    with pytest.raises(IndexOutOfRangeError, match="outcome index 2 out of range"):
        born(DensityMatrix.from_ket([1.0, 0.0]), ProjectiveMeasurement([[1.0, 0.0], [0.0, 1.0]]), 2)
    with pytest.raises(IndexOutOfRangeError, match="target index out of range"):
        AntidistProblem((Distribution(FiniteSpace(("a",)), [1.0]),), 1)


X = FiniteSpace(("a", "b"))
LABELS = ("a", "b")


@pytest.mark.parametrize("build, message", [
    (lambda: Channel(5), "Kraus set must be of type Iterable, got int"),
    (lambda: Channel(None), "Kraus set must be of type Iterable, got NoneType"),
    (lambda: Channel([]), "channel needs at least one Kraus operator"),
    (lambda: SignedKernel(X, 5, np.eye(2)), "kernel target must be of type FiniteSpace, got int"),
    (lambda: SignedKernel(LABELS, X, np.eye(2)),
     "kernel source must be of type FiniteSpace, got tuple"),
    (lambda: Distribution(LABELS, [0.5, 0.5]),
     "distribution space must be of type FiniteSpace, got tuple"),
    (lambda: ResponseFunction(LABELS, [0.5, 0.5]),
     "response space must be of type FiniteSpace, got tuple"),
    (lambda: OntModel(LABELS, (), np.zeros((0, 2)), np.zeros((0, 2)), ()),
     "ontic space must be of type FiniteSpace, got tuple"),
    (lambda: QuantumMeasure(LABELS, np.zeros(4)),
     "measure space must be of type FiniteSpace, got tuple"),
    (lambda: DecoherenceFunctional(LABELS, np.eye(2)),
     "functional space must be of type FiniteSpace, got tuple"),
    (lambda: random_ket(rng_for(1), 0), "dimension must be a positive integer, got 0"),
    (lambda: random_ket(rng_for(1), -2), "dimension must be a positive integer, got -2"),
    (lambda: random_ket(rng_for(1), 2.0), "dimension must be a positive integer, got 2.0"),
    (lambda: random_unitary(rng_for(1), 0), "dimension must be a positive integer, got 0"),
    (lambda: random_density(rng_for(1), 0), "dimension must be a positive integer, got 0"),
    (lambda: random_effect(rng_for(1), 0), "dimension must be a positive integer, got 0"),
    (lambda: random_cptp_channel(rng_for(1), 3, 0),
     "output dimension must be a positive integer, got 0"),
    (lambda: random_cptp_channel(rng_for(1), True, 2),
     "input dimension must be a positive integer, got True"),
    (lambda: random_nonorthogonal_pair(rng_for(1), 1, 0.1, 0.5),
     "a nonorthogonal pair needs dimension at least 2, got 1: "
     "C^1 has no direction orthogonal to psi"),
    (lambda: random_nonorthogonal_pair(rng_for(1), 0, 0.1, 0.5),
     "dimension must be a positive integer, got 0"),
], ids=["channel-int", "channel-none", "channel-empty", "kernel-target-int",
        "kernel-source-labels", "distribution", "response", "model", "measure", "functional",
        "ket-zero", "ket-negative", "ket-float", "unitary-zero", "density-zero", "effect-zero",
        "channel-out-zero", "channel-in-bool", "pair-c1", "pair-zero"])
def test_a_wrong_typed_argument_is_named(build, message):
    with pytest.raises(VerificationFailedError) as info:
        build()
    assert str(info.value) == message

"""One fault vocabulary: the library raises ``OntokitError``s, a failed check
as a ``VerificationFailedError``, never a bare ``ValueError``, ``TypeError``
or ``IndexError``."""

import ast
import dataclasses
import pathlib
import re

import numpy as np
import pytest

import ontokit
from ontokit.antidist import AntidistProblem, compression_channel, pbr_demo
from ontokit.errors import (
    EvenDimensionError, IndexOutOfRangeError, OntokitError, VerificationFailedError,
)
from ontokit.kernels import Distribution, FiniteSpace, ResponseFunction, SignedKernel
from ontokit.ontomodel import (
    FunctorFragment, OntModel, check_equivariance, check_operational_model, maximal_predicates,
    validate_model,
)
from ontokit.qmeasure import (
    DecoherenceFunctional, QuantumMeasure, measure_from_decoherence, validate_decoherence,
    validate_quantum_measure,
)
from ontokit.quantum import Channel, DensityMatrix, ProjectiveMeasurement, born
from ontokit.sampling import (
    random_cptp_channel, random_density, random_effect, random_ket,
    random_nonorthogonal_pair, random_unitary, rng_for,
)
from ontokit.wigner import (
    Algebra, commutative_algebra, commutative_frame, matrix_algebra, monoidality_check,
    phase_point_operators,
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
    with pytest.raises(IndexOutOfRangeError, match="target index 1 out of range for an ensemble of 1"):
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


# ---------------------------------------------------------------------------
# one integer gate, one tolerance gate
# ---------------------------------------------------------------------------

INTEGERS = [0, -1, 1, 2, 3, 3.0, True, np.int64(3), "3", None]
PAIR = ([1.0, 0.0], [0.5, np.sqrt(0.75)])  # overlap 1/2: every power n >= 1 compresses


def _gate_admits(value, zero):
    """The admission rule, stated apart from the gate: an int or numpy
    integer, not a bool, at least 1 (at least 0 for seeds and stream keys)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= (0 if zero else 1))


# name: (call of one integer, whether 0 is admitted, whether an even value is refused
# as an even dimension)
INTEGER_ENTRIES = {
    "Algebra": (lambda v: Algebra("matrix", v), False, False),
    "matrix_algebra": (matrix_algebra, False, False),
    "commutative_algebra": (commutative_algebra, False, False),
    "phase_point_operators": (phase_point_operators, False, True),
    "commutative_frame": (commutative_frame, False, False),
    "Channel.identity": (Channel.identity, False, False),
    "random_ket": (lambda v: random_ket(rng_for(1), v), False, False),
    "random_unitary": (lambda v: random_unitary(rng_for(1), v), False, False),
    "random_density": (lambda v: random_density(rng_for(1), v), False, False),
    "random_effect": (lambda v: random_effect(rng_for(1), v), False, False),
    "random_cptp_channel.in_dim": (lambda v: random_cptp_channel(rng_for(1), v, 2), False, False),
    "random_cptp_channel.out_dim": (lambda v: random_cptp_channel(rng_for(1), 2, v), False, False),
    "compression_channel.n": (lambda v: compression_channel(*PAIR, n=v), False, False),
    "monoidality_check.m": (lambda v: monoidality_check(v, 1, 1, 0), False, True),
    "monoidality_check.n": (lambda v: monoidality_check(1, v, 1, 0), False, True),
    "monoidality_check.trials": (lambda v: monoidality_check(1, 3, v, 0), False, False),
    "monoidality_check.seed": (lambda v: monoidality_check(1, 3, 1, v), True, False),
    "rng_for.seed": (rng_for, True, False),
    "rng_for.stream": (lambda v: rng_for(1, v), True, False),
}


@pytest.mark.parametrize("value", INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
def test_every_integer_entry_admits_what_the_gate_admits(entry, value):
    call, zero, even_refused = INTEGER_ENTRIES[entry]
    # n=None asks compression_channel for the smallest power that compresses
    if not (_gate_admits(value, zero) or (entry == "compression_channel.n" and value is None)):
        kind = "non-negative" if zero else "positive"
        with pytest.raises(VerificationFailedError, match=f" must be a {kind} integer, got "):
            call(value)
    elif even_refused and value % 2 == 0:
        with pytest.raises(EvenDimensionError):
            call(value)
    else:
        call(value)


def test_only_linalg_words_the_integer_rule():
    """The admission rule for sizes, counts and seeds has one home: no other
    module builds a "positive integer" or "non-negative integer" message."""
    def docstrings(tree):
        for node in ast.walk(tree):
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
                yield body[0].value

    homes = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = {id(node) for node in docstrings(tree)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in skip
                    and ("positive integer" in node.value or "non-negative integer" in node.value)):
                homes.add(path.stem)
    assert homes == {"linalg"}


def _two_state_model():
    basis = ProjectiveMeasurement([[1.0, 0.0], [0.0, 1.0]])
    return OntModel(X, LABELS, np.eye(2), np.eye(2), ((basis, np.eye(2)),))


def _functional():
    return DecoherenceFunctional(X, np.diag([0.5, 0.5]))


NO_MORPHISMS = FunctorFragment({}, {})
TOL_ENTRIES = {
    "validate_model": lambda tol: validate_model(_two_state_model(), tol=tol),
    "maximal_predicates": lambda tol: maximal_predicates(_two_state_model(), tol=tol),
    "check_operational_model": lambda tol: check_operational_model(NO_MORPHISMS, tol=tol),
    "check_equivariance": lambda tol: check_equivariance(NO_MORPHISMS, {}, (), (), tol=tol),
    "monoidality_check": lambda tol: monoidality_check(3, 3, 1, 0, tol=tol),
    "pbr_demo": lambda tol: pbr_demo(*PAIR, tol=tol),
    "validate_quantum_measure": lambda tol: validate_quantum_measure(
        QuantumMeasure(X, [0.0, 0.5, 0.5, 1.0]), tol),
    "validate_decoherence": lambda tol: validate_decoherence(_functional(), tol),
    "measure_from_decoherence": lambda tol: measure_from_decoherence(_functional(), tol),
}


@pytest.mark.parametrize(
    "tol", [np.nan, np.inf, -np.inf, 0.0, -1e-9, True, "1e-9", None], ids=repr
)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRIES))
def test_a_report_tolerance_is_finite_and_positive(entry, tol):
    # a NaN or infinite tolerance would pass every check it bounds
    message = f"tolerance must be a finite positive number, got {re.escape(repr(tol))}"
    with pytest.raises(VerificationFailedError, match=message):
        TOL_ENTRIES[entry](tol)
    TOL_ENTRIES[entry](1e-9)
    TOL_ENTRIES[entry](np.float64(1.0))


def test_a_nan_or_infinite_tolerance_cannot_clean_a_failing_report():
    bad = dataclasses.replace(_two_state_model(), weights=[[1.0, 0.0], [0.5, 0.5]])
    assert not validate_model(bad).clean
    assert not maximal_predicates(bad).maximally_epistemic
    table = QuantumMeasure(X, [0.3, -0.5, 2.0, 0.1])
    assert not validate_quantum_measure(table).clean
    for check in (lambda: validate_model(bad, tol=np.nan),
                  lambda: maximal_predicates(bad, tol=np.nan),
                  lambda: validate_quantum_measure(table, np.inf)):
        with pytest.raises(VerificationFailedError, match="must be a finite positive number"):
            check()

"""One fault vocabulary: the library raises ``OntokitError``s, a failed check
as a ``VerificationFailedError``, never a bare ``ValueError``, ``TypeError``
or ``IndexError``."""

import ast
import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

import ontokit
from ontokit import cli, linalg
from ontokit.antidist import (
    AntidistProblem, antidist_quantum_check, compression_channel, pbr_demo,
)
from ontokit.errors import (
    DimMismatchError, EvenDimensionError, IndexOutOfRangeError, OntokitError,
    VerificationFailedError,
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
from ontokit.quantum import Channel, DensityMatrix, ProjectiveMeasurement, born, overlap
from ontokit.sampling import (
    random_cptp_channel, random_density, random_effect, random_ket,
    random_nonorthogonal_pair, random_unitary, rng_for,
)
from ontokit.tolerances import TIGHT_IDENTITY_TOL
from ontokit.wigner import (
    Algebra, commutative_algebra, commutative_frame, displacement, displacement_channel,
    displacement_permutation, epistemic_report, matrix_algebra, monoidality_check,
    phase_point_operators, random_stabilizer_pair,
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
MU = Distribution(X, [1.0, 0.0])


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
    (lambda: random_stabilizer_pair(rng_for(1), 1),
     "an orthogonal pair needs dimension at least 2, got 1: "
     "C^1 has no direction orthogonal to psi"),
    (lambda: random_stabilizer_pair(rng_for(1), 2.0),
     "dimension must be a positive integer, got 2.0"),
    (lambda: AntidistProblem((MU, "x"), 0),
     "ensemble member 1 must be of type Distribution, got str"),
    (lambda: AntidistProblem(MU, 0), "ensemble must be of type Iterable, got Distribution"),
    (lambda: AntidistProblem((MU, np.array([0.0, 1.0])), 0),
     "ensemble member 1 must be of type Distribution, got ndarray"),
    (lambda: AntidistProblem((SignedKernel(X, X, np.eye(2)), MU), 1),
     "ensemble member 0 must be of type Distribution, got SignedKernel"),
    (lambda: displacement(0, 0, 0), "n must be a positive integer, got 0"),
    (lambda: displacement(2.5, 0, 0), "n must be a positive integer, got 2.5"),
    (lambda: displacement_permutation(3, 1.5, 0),
     "residue a must be a non-negative integer, got 1.5"),
    (lambda: displacement_permutation(3, True, 0),
     "residue a must be a non-negative integer, got True"),
], ids=["channel-int", "channel-none", "channel-empty", "kernel-target-int",
        "kernel-source-labels", "distribution", "response", "model", "measure", "functional",
        "ket-zero", "ket-negative", "ket-float", "unitary-zero", "density-zero", "effect-zero",
        "channel-out-zero", "channel-in-bool", "pair-c1", "pair-zero", "stabilizer-pair-c1",
        "stabilizer-pair-float", "ensemble-member-str", "ensemble-lone-distribution",
        "ensemble-member-ndarray", "ensemble-member-kernel", "displacement-zero",
        "displacement-float", "permutation-float", "permutation-bool"])
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
    "displacement.n": (lambda v: displacement(v, 0, 0), False, False),
    "displacement_permutation.n": (lambda v: displacement_permutation(v, 0, 0), False, False),
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


# ---------------------------------------------------------------------------
# one index gate, one ket-pair rule, one tolerance rule
# ---------------------------------------------------------------------------

ZBASIS = ProjectiveMeasurement(np.eye(2))
ZERO, ONE = DensityMatrix.from_ket([1.0, 0.0]), DensityMatrix.from_ket([0.0, 1.0])


# name: (call of one index, the count it indexes)
INDEX_ENTRIES = {
    "born": (lambda k: born(ZERO, ZBASIS, k), 2),
    "AntidistProblem": (lambda k: AntidistProblem((MU, MU), k).target, 2),
    "antidist_quantum_check": (lambda k: antidist_quantum_check([ONE], ZBASIS, [k]), 2),
    "displacement.q": (lambda k: displacement(3, k, 1), 3),
    "displacement.p": (lambda k: displacement(3, 1, k), 3),
    "displacement_permutation.a": (lambda k: displacement_permutation(3, k, 2), 3),
    "displacement_permutation.b": (lambda k: displacement_permutation(3, 2, k), 3),
    "displacement_channel.a": (lambda k: displacement_channel(3, k, 0).kraus, 3),
    "displacement_channel.b": (lambda k: displacement_channel(3, 0, k).kraus, 3),
}
# each value as a function of the count it indexes
INDEX_VALUES = {
    "-1": lambda n: -1, "0": lambda n: 0, "count-1": lambda n: n - 1, "count": lambda n: n,
    "np.int64(1)": lambda n: np.int64(1), "True": lambda n: True, "np.True_": lambda n: np.True_,
    "0.5": lambda n: 0.5, "'0'": lambda n: "0", "None": lambda n: None,
}


@pytest.mark.parametrize("value", sorted(INDEX_VALUES))
@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
def test_every_index_entry_admits_what_the_gate_admits(entry, value):
    call, count = INDEX_ENTRIES[entry]
    k = INDEX_VALUES[value](count)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        with pytest.raises(VerificationFailedError,
                           match=f" must be a non-negative integer, got {re.escape(repr(k))}$"):
            call(k)
    elif not 0 <= k < count:
        with pytest.raises(IndexOutOfRangeError, match=f" {k} out of range for "):
            call(k)
    else:
        # a numpy integer reads as the Python int of the same value
        np.testing.assert_array_equal(call(k), call(int(k)))


@pytest.mark.parametrize("k", [-1, np.int64(-1)], ids=repr)
def test_a_negative_index_is_out_of_range(k):
    with pytest.raises(IndexOutOfRangeError, match="outcome index -1 out of range for a basis of 2"):
        born(ZERO, ZBASIS, k)
    with pytest.raises(IndexOutOfRangeError,
                       match="target index -1 out of range for an ensemble of 1"):
        AntidistProblem((MU,), k)
    with pytest.raises(IndexOutOfRangeError, match="residue q -1 out of range for Z_3"):
        displacement(3, k, 0)


def test_a_bool_is_no_index():
    # True once read as outcome 1 of |0><0| in the Z basis, probability 1.0 where
    # outcome 1 has 0.0, and [True, False] failed the check that [1, 0] passes
    assert born(ZERO, ZBASIS, 1) == 0.0
    assert antidist_quantum_check([ZERO, ONE], ZBASIS, [1, 0])
    for k in (True, np.True_):
        with pytest.raises(VerificationFailedError, match="outcome index must be"):
            born(ZERO, ZBASIS, k)
    with pytest.raises(VerificationFailedError, match="outcome index must be"):
        antidist_quantum_check([ZERO, ONE], ZBASIS, [True, False])


def test_a_target_is_held_as_a_python_int():
    target = AntidistProblem((MU, MU), np.int64(1)).target
    assert type(target) is int and target == 1


KET_PAIR_ENTRIES = {
    "overlap": overlap,
    "epistemic_report": epistemic_report,
    "compression_channel": compression_channel,
    "pbr_demo": pbr_demo,
}
BAD_KETS = {
    "non-unit": ([1.0, 1.0], VerificationFailedError,
                 f"ket norm {math.sqrt(2)!r} deviates from 1 beyond {TIGHT_IDENTITY_TOL}"),
    "nan": ([np.nan, 0.0], VerificationFailedError, "ket contains NaN or Inf amplitudes"),
}


@pytest.mark.parametrize("entry", sorted(KET_PAIR_ENTRIES))
def test_a_ket_pair_has_one_rule(entry):
    call = KET_PAIR_ENTRIES[entry]
    with pytest.raises(DimMismatchError) as info:
        call([1.0, 0.0], [1.0, 0.0, 0.0])
    assert str(info.value) == "kets have different dimensions"
    for bad, error, message in BAD_KETS.values():
        for pair in ((bad, [1.0, 0.0]), ([1.0, 0.0], bad)):
            with pytest.raises(error) as info:
                call(*pair)
            assert str(info.value) == message


def _calls_with_text(name, text):
    """The modules that call ``name`` with the string ``text`` as an argument."""
    homes = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == name
                    and any(isinstance(a, ast.Constant) and a.value == text for a in node.args)):
                homes.add(path.stem)
    return homes


def test_only_linalg_raises_an_index_or_a_ket_pair_fault():
    raisers = {
        path.stem for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and _raised_name(node) == "IndexOutOfRangeError"
    }
    assert raisers == {"linalg"}
    assert _calls_with_text("DimMismatchError", "kets have different dimensions") == {"linalg"}
    # a document's basis is named by the reader, as a schema fault
    assert _calls_with_text("SchemaError", "kets have different dimensions") == {"serialize"}


def _definition(module, *path):
    node = ast.parse((SRC / f"{module}.py").read_text())
    for name in path:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def test_born_and_the_antidist_problem_compare_no_index():
    def compared(node):
        return {ast.unparse(side) for c in ast.walk(node) if isinstance(c, ast.Compare)
                for side in (c.left, *c.comparators)}

    assert not {"k"} & compared(_definition("quantum", "born"))
    assert not {"self.target", "target"} & compared(
        _definition("antidist", "AntidistProblem", "__post_init__"))


def test_the_cli_makes_no_numeric_test_of_a_tolerance():
    tree = _definition("cli", "_tolerance")
    orders = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    assert not [c for c in ast.walk(tree) if isinstance(c, ast.Compare)
                and any(isinstance(op, orders) for op in c.ops)]
    source = (SRC / "cli.py").read_text()
    assert 'float("inf")' not in source and 'float("nan")' not in source


def _measure_file(tmp_path):
    """A clean one-point quantum measure document, cheap to validate."""
    path = tmp_path / "m.json"
    path.write_text('{"points": ["a"], "measure": {"0": 0.0, "1": 1.0}}')
    return str(path)


TOL_TEXTS = ["1e-9", "0.5", "2", "nan", "NaN", "inf", "-inf", "0", "-1", "1e-400", "1e999", "abc",
             "", "True"]


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("raw", TOL_TEXTS, ids=repr)
def test_every_cli_tolerance_reaches_the_library_gate(monkeypatch, capsys, tmp_path, source, raw):
    seen = []

    def spy(tol):
        seen.append(tol)
        return linalg._as_tolerance(tol)

    monkeypatch.setattr(cli, "_as_tolerance", spy)
    argv = ["qmeasure", "validate", _measure_file(tmp_path)]
    if source == "flag":
        argv.append(f"--tol={raw}")  # "-inf" alone would read as an option
    else:
        monkeypatch.setenv("ONTOKIT_TOL", raw)
    code = cli.main(argv)
    err = capsys.readouterr().err
    name = "--tol" if source == "flag" else "ONTOKIT_TOL"
    refusal = f"schema error: {name}: tolerance must be a finite positive number, got {raw!r}\n"
    try:
        parsed = float(raw)
    except ValueError:  # no number to admit
        assert (seen, code, err) == ([], 2, refusal)
        return
    assert len(seen) == 1 and (seen[0] == parsed or math.isnan(seen[0]) and math.isnan(parsed))
    assert (code, err) == ((0, "") if 0 < parsed < math.inf else (2, refusal))


def test_the_library_gate_alone_decides_a_cli_tolerance(monkeypatch, capsys, tmp_path):
    # a gate that refuses every number refuses 0.5, which the default gate admits
    def refuse(tol):
        raise VerificationFailedError("refused")

    monkeypatch.setattr(cli, "_as_tolerance", refuse)
    assert cli.main(["qmeasure", "validate", _measure_file(tmp_path), "--tol", "0.5"]) == 2
    assert capsys.readouterr().err == (
        "schema error: --tol: tolerance must be a finite positive number, got '0.5'\n")

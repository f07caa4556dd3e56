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
    AntidistCertificate, AntidistProblem, antidist_quantum_check, compression_channel, pbr_demo,
    pbr_measurement, smallest_compression_power,
)
from ontokit.errors import (
    BadOverlapError, DimMismatchError, EvenDimensionError, IndexOutOfRangeError,
    MissingMorphismError, OntokitError, SchemaError, SpaceMismatchError, VerificationFailedError,
)
from ontokit.kernels import (
    Distribution, FiniteSpace, ResponseFunction, SignedKernel, distribution_rows,
)
from ontokit.ontomodel import (
    FunctorFragment, OntModel, check_operational_model, maximal_predicates, validate_model,
)
from ontokit.qmeasure import (
    DecoherenceFunctional, QuantumMeasure, measure_from_decoherence, validate_decoherence,
    validate_quantum_measure,
)
from ontokit.quantum import (
    Channel, DensityMatrix, ProjectiveMeasurement, TwoOutcomeMeasurement, apply_channel, born,
    overlap,
)
from ontokit.sampling import (
    random_cptp_channel, random_density, random_effect, random_ket,
    random_nonorthogonal_pair, random_unitary, rng_for,
)
from ontokit.serialize import parse_model
from ontokit.tolerances import TIGHT_IDENTITY_TOL
from ontokit.wigner import (
    Algebra, WignerFrame, commutative_algebra, commutative_frame, epistemic_report, frame_for,
    functor_morphism, matrix_algebra, monoidality_check, phase_point_operators, phase_space,
    product_frame, transfer_matrix, wigner_vector,
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
    (lambda: AntidistProblem((MU, "x"), 0),
     "ensemble member 1 must be of type Distribution, got str"),
    (lambda: AntidistProblem(MU, 0), "ensemble must be of type Iterable, got Distribution"),
    (lambda: AntidistProblem((MU, np.array([0.0, 1.0])), 0),
     "ensemble member 1 must be of type Distribution, got ndarray"),
    (lambda: AntidistProblem((SignedKernel(X, X, np.eye(2)), MU), 1),
     "ensemble member 0 must be of type Distribution, got SignedKernel"),
], ids=["channel-int", "channel-none", "channel-empty", "kernel-target-int",
        "kernel-source-labels", "distribution", "response", "model", "measure", "functional",
        "ket-zero", "ket-negative", "ket-float", "unitary-zero", "density-zero", "effect-zero",
        "channel-out-zero", "channel-in-bool", "pair-c1", "pair-zero", "ensemble-member-str",
        "ensemble-lone-distribution", "ensemble-member-ndarray", "ensemble-member-kernel"])
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
    "phase_space.n": (phase_space, False, False),
    # the gate itself, in both of its forms
    "linalg.as_positive_int": (lambda v: linalg.as_positive_int(v, "n"), False, False),
    "linalg.as_positive_int.zero": (lambda v: linalg.as_positive_int(v, "seed", zero=True),
                                    True, False),
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
    "monoidality_check": lambda tol: monoidality_check(3, 3, 1, 0, tol=tol),
    "pbr_demo": lambda tol: pbr_demo(*PAIR, tol=tol),
    "validate_quantum_measure": lambda tol: validate_quantum_measure(
        QuantumMeasure(X, [0.0, 0.5, 0.5, 1.0]), tol),
    "validate_decoherence": lambda tol: validate_decoherence(_functional(), tol),
    "measure_from_decoherence": lambda tol: measure_from_decoherence(_functional(), tol),
    "linalg._as_tolerance": linalg._as_tolerance,
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
    # the gate itself, as a residue of Z_3
    "linalg._as_index": (lambda k: linalg._as_index(k, 3, "residue q", "Z_{}"), 3),
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
        linalg._as_index(k, 3, "residue q", "Z_{}")


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
    "nan": ([np.nan, 0.0], VerificationFailedError, "ket amplitudes contain NaN or Inf"),
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


# ---------------------------------------------------------------------------
# one admission rule for held arrays
# ---------------------------------------------------------------------------

FLOAT_MAX = float(np.finfo(float).max)
TWO_POINTS = FiniteSpace(("0", "1"))
HUGE_OR_NOT_FINITE = [1e308, -1e308, math.inf, -math.inf, math.nan]

# name: (call of one entry x, the entries' noun in the message, (row, part) or None)
HOLDERS = {
    "as_matrix": (lambda x: linalg.as_matrix([[1, x], [0, 1]]), "matrix entries", None),
    "hermitian_eigensystem": (lambda x: linalg.hermitian_eigensystem([[1, 0], [0, 1j * x]]),
                              "matrix entries", None),
    "DensityMatrix": (lambda x: DensityMatrix([[x, 0], [0, 1]]), "matrix entries", None),
    "TwoOutcomeMeasurement": (lambda x: TwoOutcomeMeasurement([[1, 0], [0, x]]),
                              "matrix entries", None),
    "as_ket": (lambda x: linalg.as_ket([1, x]), "ket amplitudes", (0, None)),
    "as_kets": (lambda x: linalg.as_kets([[1, 0], [0, 1j * x]]), "ket amplitudes", (1, None)),
    "OntModel.kets": (lambda x: _model([[1, 0], [x, 0]], [[1, 0], [0, 1]]),
                      "ket amplitudes", (1, "kets")),
    "Channel": (lambda x: Channel([np.eye(2), [[0, x], [0, 0]]]), "matrix entries", None),
    "ProjectiveMeasurement": (lambda x: ProjectiveMeasurement([[1, 0], [0, x]]),
                              "ket amplitudes", (1, None)),
    "SignedKernel": (lambda x: SignedKernel(TWO_POINTS, TWO_POINTS, [[1, x], [0, 1]]),
                     "kernel matrix entries", None),
    "Distribution": (lambda x: Distribution(TWO_POINTS, [x, 1]), "weights", (0, None)),
    "distribution_rows": (lambda x: distribution_rows(TWO_POINTS, [[1, 0], [0, x]]),
                          "weights", (1, None)),
    "OntModel.weights": (lambda x: _model([[1, 0], [0, 1]], [[1, 0], [x, 1]]),
                         "weights", (1, "weights")),
    "QuantumMeasure": (lambda x: QuantumMeasure(TWO_POINTS, [0, x, 0, 1]), "subset values", None),
    "DecoherenceFunctional": (lambda x: DecoherenceFunctional(TWO_POINTS, [[1, 1j * x], [0, 0]]),
                              "functional entries", None),
    "WignerFrame": (lambda x: _frame([[[1, 0], [0, 0]], [[0, 0], [0, x]]], 1.0),
                    "frame operators", None),
    "WignerFrame.norm_const": (lambda x: _frame([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], x),
                               "norm_const values", None),
}


def _model(kets, weights):
    return OntModel(TWO_POINTS, ("a", "b"), kets, weights, ())


def _frame(operators, norm_const):
    return WignerFrame(commutative_algebra(2), operators, norm_const, TWO_POINTS)


@pytest.mark.parametrize("holder, x", [
    *((holder, x) for holder in sorted(HOLDERS) for x in HUGE_OR_NOT_FINITE),
    ("as_kets", 1e200),  # finite, but its norm would overflow
], ids=repr)
def test_every_holder_refuses_a_huge_or_non_finite_entry_by_name(holder, x):
    """Under the suite's error::RuntimeWarning filter: refused by name, with
    its row where one is named, and without a numpy warning."""
    call, what, named = HOLDERS[holder]
    kind = f"too large: magnitude {abs(x):.3e} exceeds " if abs(x) < math.inf else "contain NaN or Inf"
    with pytest.raises(VerificationFailedError, match=f"^{re.escape(f'{what} {kind}')}") as info:
        call(x)
    assert type(info.value) is VerificationFailedError
    assert (info.value.row, info.value.part) == (named or (None, None))


def _bound(parts):
    return math.sqrt(FLOAT_MAX / (2 * parts))


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 2), (4, 3, 3)], ids=str)
@pytest.mark.parametrize("dtype", [float, complex])
def test_the_bound_is_the_float_range_over_twice_the_count(shape, dtype):
    """Each of M real numbers (two per complex entry) at sqrt(max / 2M) is held,
    and their squares sum without overflow; one ulp more is refused."""
    parts = math.prod(shape) * (2 if dtype is complex else 1)
    top = _bound(parts)
    arr = np.full(shape, top * (1 + 1j) if dtype is complex else top, dtype)
    assert linalg._as_held(arr, "entries") is arr
    assert np.sum(np.abs(arr) ** 2) <= FLOAT_MAX
    arr.reshape(-1)[-1] = np.nextafter(top, math.inf)
    with pytest.raises(VerificationFailedError, match="^entries too large: "):
        linalg._as_held(arr, "entries")


# name: (call of an array with every real number at ``top``, M for the hold's bound)
AT_THE_BOUND = {
    "as_kets": (lambda top: linalg.as_kets(np.full((3, 2), top * (1 + 1j))), 4),  # M per row
    "Channel": (lambda top: Channel(np.full((2, 2, 2), top * (1 + 1j))), 16),
    "DecoherenceFunctional": (lambda top: measure_from_decoherence(
        DecoherenceFunctional(TWO_POINTS, np.full((2, 2), top * (1 + 1j)))), 8),
    "DensityMatrix": (lambda top: DensityMatrix(np.full((2, 2), top * (1 + 1j))), 8),
    "ProjectiveMeasurement": (lambda top: ProjectiveMeasurement(np.full((2, 2), top * (1 + 1j))), 4),
    "SignedKernel": (lambda top: SignedKernel(TWO_POINTS, TWO_POINTS, np.full((2, 2), top)), 4),
    "Distribution": (lambda top: Distribution(TWO_POINTS, [top, top]), 2),
}


@pytest.mark.parametrize("holder", sorted(AT_THE_BOUND))
def test_a_holder_at_the_bound_fails_its_own_check_without_a_warning(holder):
    """Entries at the bound pass the hold; what the holder then computes
    stays finite, so its own check refuses them by name."""
    build, parts = AT_THE_BOUND[holder]
    with pytest.raises(OntokitError) as info:
        build(_bound(parts))
    assert "too large" not in str(info.value) and "NaN" not in str(info.value)


def test_a_held_functional_at_the_bound_validates_without_a_warning():
    top = _bound(8)
    d = DecoherenceFunctional(TWO_POINTS, [[top, -top], [-top, top]])
    report = validate_decoherence(d)
    assert not report.clean and math.isfinite(report.min_eigenvalue)
    q = QuantumMeasure(TWO_POINTS, [0.0, _bound(4), -_bound(4), 1.0])
    assert not validate_quantum_measure(q).clean


def test_no_module_but_linalg_tests_finiteness_or_silences_numpy():
    """Finiteness and the float range are decided by the one hold in linalg:
    no other module calls np.isfinite or enters np.errstate."""
    homes = {
        path.stem for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("isfinite", "errstate")
    }
    assert homes <= {"linalg"}


@pytest.mark.parametrize("norm_const, message", [
    ("1", "entries of norm_const must be numbers"),
    (None, "entries of norm_const must be numbers"),
    (1 + 1j, "norm_const has a nonzero imaginary part"),
], ids=["str", "None", "complex"])
def test_a_frame_constant_is_a_real_number(norm_const, message):
    with pytest.raises(VerificationFailedError, match=f"^{re.escape(message)}$"):
        _frame([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], norm_const)


@pytest.mark.parametrize("frames", [phase_point_operators, commutative_frame])
def test_a_numpy_integer_gets_the_frame_of_its_python_int(frames):
    assert frames(np.int64(3)) is frames(3)
    assert frames(np.int32(3)) is frames(np.uint8(3)) is frames(3)
    for value in (3.0, True, np.True_):
        with pytest.raises(VerificationFailedError, match="must be a positive integer"):
            frames(value)


# ---------------------------------------------------------------------------
# bases and frames admitted by their gates
# ---------------------------------------------------------------------------

NOT_A_POSITIVE_INT = [[3], np.array(3), {}, 3.0, True, "3", None]


@pytest.mark.parametrize("build, what", [
    (phase_point_operators, "n"), (commutative_frame, "k"), (phase_space, "n"),
], ids=["phase_point_operators", "commutative_frame", "phase_space"])
def test_a_frame_builder_admits_its_argument_before_its_cache(build, what):
    """The integer gate sees the argument first, so an unhashable one is
    refused by name, not by the cache's TypeError, and a numpy integer finds
    the frame its Python int keyed."""
    for value in NOT_A_POSITIVE_INT:
        with pytest.raises(VerificationFailedError,
                           match=f"^{what} must be a positive integer, got ") as info:
            build(value)
        assert type(info.value) is VerificationFailedError
    if build is phase_space:
        assert build(np.int64(3)) == build(3)
        return
    frame = build(np.int64(3))
    assert frame is build(3) and build.cache_info().currsize >= 1
    build.cache_clear()
    assert build.cache_info().currsize == 0
    assert build(3) is not frame


def test_neither_frame_builder_calls_itself_or_types_its_cache():
    for name in ("phase_point_operators", "commutative_frame"):
        calls = {node.func.id for node in ast.walk(_definition("wigner", name))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert name not in calls
    typed = [node for node in ast.walk(ast.parse((SRC / "wigner.py").read_text()))
             if isinstance(node, ast.keyword) and node.arg == "typed"]
    assert typed == []


@pytest.mark.parametrize("algebra, space, what", [
    ("matrix", TWO_POINTS, "frame algebra must be of type Algebra, got str"),
    (commutative_algebra(2), ("0", "1"), "frame space must be of type FiniteSpace, got tuple"),
    (commutative_algebra(2), None, "frame space must be of type FiniteSpace, got NoneType"),
], ids=["algebra", "space-tuple", "space-None"])
def test_a_frame_names_a_wrong_typed_algebra_or_space(algebra, space, what):
    with pytest.raises(VerificationFailedError, match=f"^{re.escape(what)}$"):
        WignerFrame(algebra, np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), 1.0, space)


QUTRIT = phase_point_operators(3)
MIXED = DensityMatrix(np.eye(3) / 3)
IDENTITY = Channel.identity(3)


@pytest.mark.parametrize("call, message", [
    (lambda: wigner_vector(np.eye(3) / 3, QUTRIT), "state must be of type DensityMatrix, got ndarray"),
    (lambda: wigner_vector(MIXED, 3), "frame must be of type WignerFrame, got int"),
    (lambda: frame_for(np.eye(3)), "algebra must be of type Algebra, got ndarray"),
    (lambda: functor_morphism(np.eye(3)), "channel must be of type Channel, got ndarray"),
    (lambda: functor_morphism(IDENTITY, 3), "algebra must be of type Algebra, got int"),
    (lambda: transfer_matrix(np.eye(3), QUTRIT, QUTRIT), "channel must be of type Channel, got ndarray"),
    (lambda: transfer_matrix(IDENTITY, 3, QUTRIT), "input frame must be of type WignerFrame, got int"),
    (lambda: transfer_matrix(IDENTITY, QUTRIT, QUTRIT.vectors),
     "output frame must be of type WignerFrame, got ndarray"),
    (lambda: product_frame(3, QUTRIT), "first factor frame must be of type WignerFrame, got int"),
    (lambda: product_frame(QUTRIT, QUTRIT.operators),
     "second factor frame must be of type WignerFrame, got ndarray"),
], ids=["wigner_vector-state", "wigner_vector-frame", "frame_for", "functor_morphism-channel",
        "functor_morphism-algebra", "transfer_matrix-channel", "transfer_matrix-in-frame",
        "transfer_matrix-out-frame", "product_frame-first", "product_frame-second"])
def test_a_wigner_map_names_a_wrong_typed_argument(call, message):
    # each public entry admits its arguments, not the AttributeError of their first use
    with pytest.raises(VerificationFailedError, match=f"^{re.escape(message)}$"):
        call()


LONG_BY_4E_10 = np.array([[1.0, 0.0], [0.0, 1.0 + 4e-10]])


def test_a_basis_vector_is_a_unit_ket_for_the_library_and_the_reader():
    """One rule: a basis vector of norm 1 + 4e-10, whose Gram error is within
    IDENTITY_TOL, fails the ket norm in the library and in the reader alike."""
    message = "ket norm 1.0000000004 deviates from 1 beyond 1e-10"
    with pytest.raises(VerificationFailedError, match=f"^{re.escape(message)}$") as info:
        ProjectiveMeasurement(LONG_BY_4E_10)
    assert (info.value.row, info.value.part) == (1, None)
    ket = [{"dim": 2, "amplitudes": [[x, 0.0] for x in row]} for row in LONG_BY_4E_10.tolist()]
    doc = {"ontic": ["a", "b"], "states": [{"label": "s", "ket": ket[0]}],
           "distributions": {"s": [1.0, 0.0]},
           "measurements": [{"basis": ket, "responses": [[1.0, 0.0], [0.0, 1.0]]}]}
    with pytest.raises(SchemaError, match=re.escape(f"measurements[0].basis[1].amplitudes: {message}")):
        parse_model(doc)


def test_a_basis_whose_shape_has_no_entry_is_named():
    for shape in ((0, 0), (0, 3), (3, 0)):
        with pytest.raises(VerificationFailedError, match=r"outcome vectors do not form a basis"):
            ProjectiveMeasurement(np.zeros(shape))


def test_only_linalg_quantum_and_ontomodel_call_the_ket_gate():
    """A basis is admitted by ProjectiveMeasurement alone: no reader or
    builder checks its kets or its Gram matrix beside it."""
    callers = {
        path.stem for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "as_kets"
    }
    assert callers == {"linalg", "quantum", "ontomodel"}
    assert {type(n).__name__ for n in ast.walk(_definition("antidist", "pbr_measurement"))} \
        .isdisjoint({"If", "Raise", "Compare"})
    assert pbr_measurement().n_outcomes == 4


def test_an_assignment_is_admitted_as_an_iterable():
    states = [DensityMatrix.from_ket([1.0, 0.0])]
    basis = ProjectiveMeasurement(np.eye(2))
    assert antidist_quantum_check(states, basis, iter([1])) is True
    for assignment in (5, None):
        with pytest.raises(VerificationFailedError,
                           match=f"^assignment must be of type Iterable, got {type(assignment).__name__}$"):
            antidist_quantum_check(states, basis, assignment)


@pytest.mark.parametrize("build, error, message", [
    (lambda: AntidistProblem((), 0), VerificationFailedError, "ensemble must be nonempty"),
    (lambda: AntidistProblem((MU, Distribution(FiniteSpace(("c",)), [1.0])), 0),
     SpaceMismatchError, "ensemble members live on different spaces"),
    (lambda: AntidistCertificate(ResponseFunction(X, [0.0, 1.0]), (0.5, 1.0)),
     VerificationFailedError, r"certificate residuals \(0.5, 1.0\) exceed tolerance"),
    (lambda: smallest_compression_power(1.0),
     BadOverlapError, r"overlap modulus 1.0 must be in \(0, 1\)"),
    (lambda: FiniteSpace(()), VerificationFailedError, "a finite space needs at least one point"),
    (lambda: SignedKernel(X, X, np.eye(3)),
     SpaceMismatchError, r"kernel matrix shape \(3, 3\) does not match \(2, 2\)"),
    (lambda: FunctorFragment({"f": Channel.identity(2)}, {}),
     MissingMorphismError, r"unpaired morphism names: \['f'\]"),
    (lambda: QuantumMeasure(X, np.zeros(3)),
     VerificationFailedError, "expected 4 subset values, got 3"),
    (lambda: ProjectiveMeasurement(np.ones(2)),
     DimMismatchError, r"vectors must be a 2-d array \(outcomes, dim\)"),
    (lambda: ProjectiveMeasurement([[1.0, 0.0], [0.6, 0.8]]),
     VerificationFailedError, "outcome vectors are not orthonormal: Gram error 6.000e-01"),
    (lambda: apply_channel(Channel.identity(2), DensityMatrix.from_ket([1.0, 0.0, 0.0])),
     DimMismatchError, "channel input dimension does not match state"),
    (lambda: random_nonorthogonal_pair(rng_for(1), 2, lo=0.5, hi=0.4),
     VerificationFailedError, "need 0 < lo <= hi < 1"),
    (lambda: Algebra("banana", 3), VerificationFailedError, "unknown algebra kind 'banana'"),
], ids=[
    "empty-ensemble", "ensemble-spaces", "certificate-residuals", "compression-overlap",
    "empty-space", "kernel-shape", "unpaired-morphism", "subset-value-count",
    "basis-not-2d", "basis-not-orthonormal", "channel-state-dims", "overlap-range",
    "algebra-kind",
])
def test_each_refusal_is_named(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_an_unreadable_input_exits_two(capsys, tmp_path):
    # a directory where a file is expected is an io error: one stderr line, exit 2
    code = cli.main(["antidist", str(tmp_path), "--target", "0"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"io error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

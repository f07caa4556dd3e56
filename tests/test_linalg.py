"""Linear-algebra substrate: examples, oracles, and algebraic laws."""

import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontokit import linalg
from ontokit.errors import DimMismatchError, NotHermitianError, VerificationFailedError
from ontokit.kernels import (
    TWO, Distribution, FiniteSpace, ResponseFunction, SignedKernel, distribution_rows,
)
from ontokit.ontomodel import OntModel
from ontokit.qmeasure import DecoherenceFunctional, QuantumMeasure
from ontokit.quantum import Channel, DensityMatrix, ProjectiveMeasurement, TwoOutcomeMeasurement
from ontokit.sampling import rng_for
from ontokit.tolerances import TIGHT_IDENTITY_TOL
from ontokit.wigner import WignerFrame, commutative_algebra


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def random_hermitian(rng, n):
    g = random_complex(rng, n)
    return (g + g.conj().T) / 2


def givens_unitary(rng, n):
    """Unitary assembled from complex Givens rotations."""
    u = np.eye(n, dtype=complex)
    for p in range(n - 1):
        for q in range(p + 1, n):
            theta = rng.uniform(0, 2 * np.pi)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            g = np.eye(n, dtype=complex)
            g[p, p] = np.cos(theta)
            g[q, q] = np.cos(theta)
            g[p, q] = -np.sin(theta) * phase
            g[q, p] = np.sin(theta) * phase.conjugate()
            u = u @ g
    return u


class TestHermitianEigenvalues:
    def test_diagonal(self):
        w = linalg.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1, 2, 3], atol=1e-12)

    def test_pauli_x(self):
        w = linalg.hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1, 1], atol=1e-12)

    def test_trace_identity_oracle(self):
        rng = rng_for(21)
        for _ in range(5):
            h = random_hermitian(rng, 5)
            w = linalg.hermitian_eigenvalues(h)
            assert abs(w.sum() - np.trace(h).real) < 1e-9

    def test_recovers_diagonal_under_givens_conjugation(self):
        rng = rng_for(22)
        for _ in range(5):
            d = np.sort(rng.normal(size=6))
            u = givens_unitary(rng, 6)
            w = linalg.hermitian_eigenvalues(u @ np.diag(d) @ u.conj().T)
            assert np.max(np.abs(w - d)) < 1e-8

    def test_against_numpy(self):
        rng = rng_for(23)
        for n in (2, 3, 5, 8):
            h = random_hermitian(rng, n)
            w = linalg.hermitian_eigenvalues(h)
            assert np.max(np.abs(w - np.linalg.eigvalsh(h))) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimMismatchError, match=r"^matrix must be square, got shape \(2, 3\)$"):
            linalg.hermitian_eigenvalues(np.ones((2, 3)))

    def test_eigensystem_reconstructs(self):
        rng = rng_for(24)
        h = random_hermitian(rng, 7)
        w, v = linalg.hermitian_eigensystem(h)
        assert linalg.max_abs(v @ np.diag(w) @ v.conj().T - h) < 1e-9
        assert linalg.max_abs(v.conj().T @ v - np.eye(7)) < 1e-9

    def test_eigensystem_is_read_only(self):
        w, v = linalg.hermitian_eigensystem(random_hermitian(rng_for(25), 4))
        for arr in (w, v):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def _eigh_sites(path):
    """The top-level definitions of a module that name ``eigh``."""
    tree = ast.parse(path.read_text())
    return [
        f"{path.name}:{getattr(node, 'name', node.lineno)}"
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == "eigh"
    ]


def test_only_hermitian_eigensystem_calls_eigh():
    """One decomposition for every state, effect and spectrum: no module
    but linalg calls numpy's ``eigh``, and linalg only once."""
    src = pathlib.Path(linalg.__file__).parent
    sites = [site for path in sorted(src.glob("*.py")) for site in _eigh_sites(path)]
    assert sites == ["linalg.py:hermitian_eigensystem"]


# the builders that hold an array they have just made without running the
# public constructor, each because it saves a copy, an eigh, a per-row check or
# (for a frame given by its factor form) the dense Gram product of its frame matrix
CONSTRUCTOR_BYPASSES = {
    "quantum.py:Channel._of_stack",
    "quantum.py:DensityMatrix._held",
    "kernels.py:distribution_rows",
    "wigner.py:WignerFrame._of_form",
}


def _object_new_sites(path):
    """The definitions of a module, as ``module:Class.method`` or
    ``module:function``, that call ``object.__new__``."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from walk(child, scope + [child.name])
            elif (isinstance(child, ast.Attribute) and child.attr == "__new__"
                  and isinstance(child.value, ast.Name) and child.value.id == "object"):
                yield f"{path.name}:{'.'.join(scope)}"
            else:
                yield from walk(child, scope)
    return list(walk(ast.parse(path.read_text()), []))


def test_constructor_bypasses_are_the_listed_builders():
    """Every ``object.__new__`` in the library sits in one of the listed
    builders, once: a new way round a constructor's checks is added here
    on purpose."""
    src = pathlib.Path(linalg.__file__).parent
    sites = [site for path in sorted(src.glob("*.py")) for site in _object_new_sites(path)]
    assert sorted(sites) == sorted(CONSTRUCTOR_BYPASSES)


def cubic_trace_norm_oracle(h):
    """Sum of |roots| of the characteristic cubic, solved independently."""
    c2 = np.trace(h).real
    c1 = 0.5 * (np.trace(h).real ** 2 - np.trace(h @ h).real)
    c0 = np.linalg.det(h).real
    roots = np.roots([1.0, -c2, c1, -c0])
    return float(np.sum(np.abs(roots.real)))


class TestTraceNorm:
    def test_projector_difference(self):
        d = np.diag([1.0, -1.0])
        assert abs(linalg.trace_norm(d) - 2.0) < 1e-12

    def test_zero(self):
        assert linalg.trace_norm(np.zeros((3, 3))) == 0

    def test_qutrit_cubic_oracle(self):
        rng = rng_for(31)
        for _ in range(10):
            g = random_complex(rng, 3)
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            g = random_complex(rng, 3)
            tau = g @ g.conj().T
            tau /= np.trace(tau).real
            diff = rho - tau
            assert abs(linalg.trace_norm(diff) - cubic_trace_norm_oracle(diff)) < 1e-9


# ---------------------------------------------------------------------------
# validated objects hold read-only copies
# ---------------------------------------------------------------------------

POINTS = FiniteSpace(("a", "b", "c"))


def _model(given, part):
    """A one-state model on TWO in the computational basis; ``given`` is
    its kets, weights or responses, as ``part`` says."""
    parts = {
        "kets": np.array([[1.0, 0.0]], dtype=complex),
        "weights": np.array([[1.0, 0.0]]),
        "responses": np.eye(2),
    }
    parts[part] = given
    basis = ProjectiveMeasurement(np.eye(2, dtype=complex))
    return OntModel(TWO, ("s",), parts["kets"], parts["weights"],
                    ((basis, parts["responses"]),))


# (build from the given array, the array the object holds, the given array)
HELD = {
    "ProjectiveMeasurement.vectors": (
        lambda a: ProjectiveMeasurement(a).vectors, np.eye(3, dtype=complex)),
    "SignedKernel.matrix": (
        lambda a: SignedKernel(POINTS, POINTS, a).matrix, np.eye(3)),
    "Distribution.weights": (
        lambda a: Distribution(POINTS, a).weights, np.array([0.5, 0.25, 0.25])),
    "distribution_rows": (
        lambda a: distribution_rows(POINTS, a)[1].weights, np.array([[1.0, 0, 0], [0, 0.5, 0.5]])),
    "ResponseFunction.values": (
        lambda a: ResponseFunction(POINTS, a).values, np.array([0.5, 0.25, 1.0])),
    "QuantumMeasure.values": (
        lambda a: QuantumMeasure(TWO, a).values, np.array([0.0, 0.5, 0.5, 1.0])),
    "DecoherenceFunctional.matrix": (
        lambda a: DecoherenceFunctional(TWO, a).matrix, np.eye(2, dtype=complex) / 2),
    "OntModel.kets": (lambda a: _model(a, "kets").kets, np.array([[1.0, 0.0]], dtype=complex)),
    "OntModel.weights": (lambda a: _model(a, "weights").weights, np.array([[1.0, 0.0]])),
    "OntModel.responses": (
        lambda a: _model(a, "responses").measurements[0][1], np.eye(2)),
    "Channel.kraus": (lambda a: Channel(a).kraus, np.eye(2, dtype=complex)[None]),
    "WignerFrame.operators": (
        lambda a: WignerFrame(commutative_algebra(2), a, 1.0, TWO).operators,
        np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)),
    "DensityMatrix.matrix": (lambda a: DensityMatrix(a).matrix, np.eye(2, dtype=complex) / 2),
    "TwoOutcomeMeasurement.effect": (
        lambda a: TwoOutcomeMeasurement(a).effect, np.eye(2, dtype=complex) / 2),
}


def _nested_tuple(x):
    return tuple(map(_nested_tuple, x)) if isinstance(x, list) else x


class TestValidatedObjectsHoldCopies:
    """The reproductions of a validated object that kept the caller's array:
    a write into that array after validation changed the object."""

    def test_projective_measurement_keeps_its_vectors(self):
        v = np.eye(3, dtype=complex)
        pm = ProjectiveMeasurement(v)
        v[0, 0] = 5
        assert pm.vectors[0, 0] == 1

    def test_signed_kernel_keeps_its_matrix(self):
        m = np.eye(3)
        k = SignedKernel(POINTS, POINTS, m)
        m[0, 0] = 7
        assert k.matrix[0, 0] == 1 and k.markov
        assert np.array_equal(k.matrix.sum(axis=0), np.ones(3))

    def test_quantum_measure_keeps_its_values(self):
        v = np.array([0.0, 0.5, 0.5, 1.0])
        q = QuantumMeasure(TWO, v)
        v[1] = 9.0
        assert q.values[1] == 0.5

    @pytest.mark.parametrize("form", ["list", "tuple"])
    @pytest.mark.parametrize("name", sorted(HELD))
    def test_held_array_from_nested_sequences(self, name, form):
        build, example = HELD[name]
        given = example.tolist() if form == "list" else _nested_tuple(example.tolist())
        held = build(given)
        assert held.flags.c_contiguous and not held.flags.writeable
        assert np.array_equal(held, build(example))  # what the array form holds

    @pytest.mark.parametrize("name", sorted(HELD))
    def test_strings_and_ragged_rows_are_refused_by_name(self, name):
        # numpy would read a decimal string as its number, and a ragged list
        # fails in numpy with a bare ValueError
        build, example = HELD[name]
        strings = np.vectorize(lambda z: repr(float(z.real)))(example).tolist()
        with pytest.raises(VerificationFailedError, match=r"^entries of [\w ]+ must be numbers$"):
            build(strings)
        ragged = example.tolist()
        inner = ragged
        while isinstance(inner[-1], list):
            inner = inner[-1]
        inner[-1] = [inner[-1]]
        with pytest.raises(VerificationFailedError,
                           match=r"^ragged [\w ]+: entries differ in length or depth$"):
            build(ragged)

    @pytest.mark.parametrize("name", sorted(HELD))
    def test_held_array_is_a_read_only_copy(self, name):
        build, example = HELD[name]
        given = example.copy()
        held = build(given)
        assert not np.shares_memory(held, given) and held.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            held[(0,) * held.ndim] = 0.25
        before = held.copy()
        given[...] = 0.0
        assert np.array_equal(held, before)

    def test_frozen_copies_what_the_caller_may_share(self):
        base = np.arange(6.0).reshape(2, 3)
        cplx = base.astype(complex)
        for arr, owner in [
            (base, base),  # the caller's own float64 array
            (base.T, base),  # a Fortran-ordered view
            (linalg.as_real(cplx, "x"), cplx),  # the real part of its complex array
            (np.asarray(base[None]), base),
            (np.asarray(memoryview(base)), base),  # another buffer over it
        ]:
            held = linalg.frozen(arr)
            assert held is not arr and not np.shares_memory(held, owner)
            assert held.flags.c_contiguous and not held.flags.writeable
            assert np.array_equal(held, arr) and owner.flags.writeable



# ---------------------------------------------------------------------------
# the ket gate: one rule for a ket alone and for a stack of kets
# ---------------------------------------------------------------------------

# rows the gate accepts, and rows it refuses
ACCEPTED_ROWS = ("unit", "inside")
REFUSED_ROWS = ("outside", "nan", "inf", "huge", "zero")


def _ket_row(rng, d, kind):
    """A random unit row of length ``d``, then made into a row of ``kind``."""
    row = rng.normal(size=d) + 1j * rng.normal(size=d)
    row /= np.linalg.norm(row)
    if kind in ("inside", "outside"):
        # norm 1 +- TIGHT_IDENTITY_TOL (1 -+ 1e-3): 1e-13 inside or outside the
        # band, far beyond the rounding of a norm over at most 300 amplitudes
        margin = 1e-3 if kind == "outside" else -1e-3
        row *= 1.0 + rng.choice([-1.0, 1.0]) * TIGHT_IDENTITY_TOL * (1.0 + margin)
    elif kind in ("nan", "inf"):
        bad = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
        j = rng.integers(d)
        row[j] = complex(bad, row[j].imag) if rng.random() < 0.5 else complex(row[j].real, bad)
    elif kind == "huge":
        row *= 1e200  # finite, but its squares overflow
    elif kind == "zero":
        row[:] = 0.0
    return row


def _gate(check, arg):
    """What ``check(arg)`` decides: the bytes it accepts, or what it raises."""
    try:
        return "accepted", check(arg).tobytes()
    except (DimMismatchError, VerificationFailedError) as exc:
        return type(exc).__name__, str(exc)


class TestKetGate:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=300),
        st.lists(st.sampled_from(ACCEPTED_ROWS * 3 + REFUSED_ROWS), min_size=1, max_size=50),
    )
    def test_stack_gate_decides_as_the_one_row_gate(self, seed, d, kinds):
        """A stack is refused with the error of its first row that the
        one-row gate refuses, alone or as a copy, and every prefix before it
        is accepted with its bits; pytest fails on any RuntimeWarning."""
        rng = np.random.default_rng(seed)
        stack = np.array([_ket_row(rng, d, kind) for kind in kinds])
        for i, kind in enumerate(kinds):
            alone = _gate(linalg.as_ket, stack[i])
            assert _gate(linalg.as_ket, stack[i].copy()) == alone
            assert (alone[0] == "accepted") == (kind in ACCEPTED_ROWS)
            if kind in REFUSED_ROWS:
                assert _gate(linalg.as_kets, stack) == alone
                break
            assert alone == ("accepted", stack[i].tobytes())
            assert _gate(linalg.as_kets, stack[: i + 1]) == ("accepted", stack[: i + 1].tobytes())

    @pytest.mark.parametrize("rows, row, message", [
        ([[1.1, 0.0]], 0, "ket norm 1.1 deviates from 1 beyond 1e-10"),
        ([[1.0, 0.0], [np.nan, 0.0]], 1, "ket amplitudes contain NaN or Inf"),
        # a norm that would overflow: refused by the hold, before any square is formed
        ([[1.0, 0.0], [0.0, 1j], [1e200, 0.0]], 2,
         r"ket amplitudes too large: magnitude 1\.000e\+200 exceeds 4\.740e\+153"),
        # the first row that fails, whichever check it fails
        ([[0.0, 2.0], [np.inf, 0.0]], 0, "ket norm 2.0 deviates from 1 beyond 1e-10"),
    ], ids=["long", "nan", "huge", "first-fails"])
    def test_refused_stack_names_its_first_bad_row(self, rows, row, message):
        with pytest.raises(VerificationFailedError, match=f"^{message}$") as info:
            linalg.as_kets(np.array(rows))
        assert (info.value.row, info.value.part) == (row, None)

    @pytest.mark.parametrize("rows, message", [
        (np.zeros((2, 0)), "ket must have at least one amplitude"),
        (np.ones(3), r"expected a 2-d stack of kets, got shape \(3,\)"),
        (np.ones((1, 1, 1)), r"expected a 2-d stack of kets, got shape \(1, 1, 1\)"),
    ], ids=["no-amplitudes", "one-dimensional", "three-dimensional"])
    def test_malformed_stack_is_refused(self, rows, message):
        with pytest.raises(DimMismatchError, match=f"^{message}$"):
            linalg.as_kets(rows)

    @pytest.mark.parametrize("coerce, given, message", [
        (linalg.as_ket, ["1j", "0"], "entries of ket must be numbers"),
        (linalg.as_kets, [[1, 0], [0]], "ragged kets: entries differ in length or depth"),
        (linalg.as_matrix, [[1, None]], "entries of matrix must be numbers"),
        (lambda a: linalg.as_real(a, "x"), [[1.0], 0.0], "ragged x: entries differ in length or depth"),
        (lambda a: linalg.as_real(a, "x"), ["0.5"], "entries of x must be numbers"),
    ], ids=["ket-strings", "ragged-kets", "matrix-null", "ragged-real", "real-strings"])
    def test_non_numbers_are_refused(self, coerce, given, message):
        with pytest.raises(VerificationFailedError, match=f"^{re.escape(message)}$"):
            coerce(given)

    def test_bools_are_numbers(self):
        assert linalg.as_ket([True, False]).tolist() == [1, 0]
        assert linalg.as_real(np.array([True, False]), "x").dtype == np.float64

    def test_empty_stack_and_empty_ket(self):
        assert linalg.as_kets(np.zeros((0, 3))).shape == (0, 3)
        with pytest.raises(DimMismatchError, match="^ket must have at least one amplitude$"):
            linalg.as_ket([])

"""Linear-algebra substrate: examples, oracles, and algebraic laws."""

import ast
import pathlib

import numpy as np
import pytest

from ontokit import linalg
from ontokit.errors import NotHermitianError
from ontokit.kernels import (
    TWO, Distribution, FiniteSpace, ResponseFunction, SignedKernel, distribution_rows,
)
from ontokit.ontomodel import OntModel
from ontokit.qmeasure import DecoherenceFunctional, QuantumMeasure
from ontokit.quantum import Channel, DensityMatrix, ProjectiveMeasurement, TwoOutcomeMeasurement
from ontokit.sampling import rng_for
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
        with pytest.raises(NotHermitianError):
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


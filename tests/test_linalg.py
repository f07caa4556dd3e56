"""Linear-algebra substrate: examples, oracles, and algebraic laws."""

import numpy as np
import pytest

from ontokit import linalg
from ontokit.errors import NotHermitianError
from ontokit.sampling import rng_for


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

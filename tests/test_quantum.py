"""Source-category operations: Born rule, channels, composition laws."""

import numpy as np
import pytest

from ontokit import linalg
from ontokit.antidist import pbr_measurement
from ontokit.errors import DimMismatchError, NotHermitianError
from ontokit.quantum import (
    Channel,
    DensityMatrix,
    ProjectiveMeasurement,
    TwoOutcomeMeasurement,
    apply_channel,
    born,
    compose,
    dual_state_quantum,
    measurement_channel,
    overlap,
    preparation_channel,
    tensor,
)
from ontokit.sampling import random_cptp_channel, random_density, random_ket, rng_for

Z0 = np.array([1, 0], dtype=complex)
Z1 = np.array([0, 1], dtype=complex)
PLUS = (Z0 + Z1) / np.sqrt(2)
ZBASIS = ProjectiveMeasurement(np.eye(2))


def basis_of_density_space(dim):
    """Matrix units, a spanning set of input matrix space."""
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1
            yield e


def channel_action(ch, m):
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.kraus:
        out += k @ m @ k.conj().T
    return out


@pytest.mark.parametrize("build", [DensityMatrix, TwoOutcomeMeasurement])
def test_non_hermitian_matrix_rejected(build):
    # unit trace and real spectrum {0, 1}, but m != m^dag
    with pytest.raises(NotHermitianError):
        build(np.array([[1.0, 0.5], [0.0, 0.0]]))


@pytest.mark.parametrize("build", [DensityMatrix, TwoOutcomeMeasurement])
def test_non_square_density_matrix_rejected(build):
    with pytest.raises(DimMismatchError, match="must be square"):
        build(np.ones((2, 3)) / 2)


@pytest.mark.parametrize("m, message", [
    (np.diag([0.5, 0.4]), r"trace \(0.9\+0j\) deviates from 1"),
    (np.diag([1.1, -0.1]), "negative eigenvalue -1.000e-01"),
], ids=["trace-0.9", "eigenvalue-minus-0.1"])
def test_density_matrix_faults(m, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DensityMatrix(m)


class TestProjectiveMeasurement:
    def test_incomplete_basis_rejected(self):
        with pytest.raises(ValueError, match="basis of C\\^2"):
            ProjectiveMeasurement(np.array([Z0]))

    def test_complete_basis_accepted(self):
        assert ProjectiveMeasurement(np.array([PLUS, (Z0 - Z1) / np.sqrt(2)])).n_outcomes == 2


class TestBorn:
    def test_zero_state_z_basis(self):
        assert born(DensityMatrix.from_ket(Z0), ZBASIS, 0) == 1.0

    def test_plus_state_z_basis(self):
        assert abs(born(DensityMatrix.from_ket(PLUS), ZBASIS, 0) - 0.5) < 1e-12

    def test_pbr_zero(self):
        state = DensityMatrix.from_ket(np.kron(Z0, PLUS))
        assert born(state, pbr_measurement(), 1) <= 1e-12

    def test_sums_to_one(self):
        rng = rng_for(41)
        for dim in (2, 3, 4):
            rho = random_density(rng, dim)
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, _ = np.linalg.qr(g)
            m = ProjectiveMeasurement(q.T)
            total = sum(born(rho, m, k) for k in range(dim))
            assert abs(total - 1.0) < 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            born(DensityMatrix.from_ket([1, 0, 0]), ZBASIS, 0)


class TestApply:
    def test_identity(self):
        rng = rng_for(42)
        rho = random_density(rng, 3)
        out = apply_channel(Channel.identity(3), rho)
        assert linalg.max_abs(out.matrix - rho.matrix) == 0

    def test_depolarizing(self):
        rng = rng_for(43)
        rho = random_density(rng, 3)
        # one Kraus operator |i><j| / sqrt(3) per (i, j): every input goes to I/3
        depolarizing = Channel(np.eye(9, dtype=complex).reshape(9, 3, 3) / np.sqrt(3))
        out = apply_channel(depolarizing, rho)
        assert linalg.max_abs(out.matrix - np.eye(3) / 3) < 1e-12

    def test_trace_preserved(self):
        rng = rng_for(44)
        for _ in range(5):
            ch = random_cptp_channel(rng, 3, 4)
            rho = random_density(rng, 3)
            out = apply_channel(ch, rho)
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-9


class TestCompose:
    def test_identity_neutral(self):
        rng = rng_for(45)
        f = random_cptp_channel(rng, 2, 3)
        left = compose(Channel.identity(3), f)
        right = compose(f, Channel.identity(2))
        for e in basis_of_density_space(2):
            a = channel_action(f, e)
            assert linalg.max_abs(channel_action(left, e) - a) < 1e-10
            assert linalg.max_abs(channel_action(right, e) - a) < 1e-10

    def test_unitary_product_oracle(self):
        rng = rng_for(46)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v, _ = np.linalg.qr(g)
        composite = compose(Channel((u,)), Channel((v,)))
        rho = random_density(rng, 3)
        expected = (u @ v) @ rho.matrix @ (u @ v).conj().T
        assert linalg.max_abs(channel_action(composite, rho.matrix) - expected) < 1e-12

    def test_associative_on_basis(self):
        rng = rng_for(47)
        f = random_cptp_channel(rng, 2, 2)
        g = random_cptp_channel(rng, 2, 3)
        h = random_cptp_channel(rng, 3, 2)
        a = compose(compose(h, g), f)
        b = compose(h, compose(g, f))
        for e in basis_of_density_space(2):
            assert linalg.max_abs(channel_action(a, e) - channel_action(b, e)) < 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            compose(Channel.identity(2), Channel.identity(3))


class TestTensor:
    def test_identities(self):
        t = tensor(Channel.identity(2), Channel.identity(2))
        for e in basis_of_density_space(4):
            assert linalg.max_abs(channel_action(t, e) - e) < 1e-12

    def test_product_preparation(self):
        prep = tensor(
            preparation_channel(DensityMatrix.from_ket(Z0)),
            preparation_channel(DensityMatrix.from_ket(PLUS)),
        )
        out = channel_action(prep, np.eye(1, dtype=complex))
        expected = DensityMatrix.from_ket(np.kron(Z0, PLUS)).matrix
        assert linalg.max_abs(out - expected) < 1e-12

    def test_associative_exhaustive_dims_222(self):
        rng = rng_for(48)
        chans = [random_cptp_channel(rng, 2, 2) for _ in range(3)]
        a = tensor(tensor(chans[0], chans[1]), chans[2])
        b = tensor(chans[0], tensor(chans[1], chans[2]))
        for e in basis_of_density_space(8):
            assert linalg.max_abs(channel_action(a, e) - channel_action(b, e)) < 1e-10

    def test_interchange_law(self):
        rng = rng_for(49)
        f = random_cptp_channel(rng, 2, 2)
        fp = random_cptp_channel(rng, 2, 2)
        g = random_cptp_channel(rng, 2, 3)
        gp = random_cptp_channel(rng, 3, 2)
        lhs = compose(tensor(g, f), tensor(gp, fp))
        rhs = tensor(compose(g, gp), compose(f, fp))
        for e in basis_of_density_space(6):
            assert linalg.max_abs(channel_action(lhs, e) - channel_action(rhs, e)) < 1e-9


class TestOverlap:
    def test_same_state(self):
        assert overlap(Z0, Z0) == 1

    def test_zero_plus(self):
        assert abs(overlap(Z0, PLUS) - 1 / np.sqrt(2)) < 1e-12

    def test_tensor_power_law(self):
        rng = rng_for(50)
        for n in (2, 3, 4):
            psi = random_ket(rng, 2)
            phi = random_ket(rng, 2)
            pn, fn = psi, phi
            for _ in range(n - 1):
                pn = np.kron(pn, psi)
                fn = np.kron(fn, phi)
            assert abs(abs(overlap(pn, fn)) - abs(overlap(psi, phi)) ** n) < 1e-10

    def test_conjugate_linear_first_argument(self):
        rng = rng_for(51)
        a, b = random_ket(rng, 3), random_ket(rng, 3)
        assert abs(overlap(a, b) - np.conj(overlap(b, a))) < 1e-12


def effect_probability(state, m):
    """Tr(E rho), the probability of the effect outcome."""
    return float(np.trace(m.effect @ state.matrix).real)


class TestDuality:
    def test_dual_of_zero(self):
        m = dual_state_quantum(Z0)
        assert effect_probability(DensityMatrix.from_ket(Z0), m) == 1.0
        assert effect_probability(DensityMatrix.from_ket(Z1), m) == 0.0

    def test_dual_of_plus_on_zero(self):
        m = dual_state_quantum(PLUS)
        assert abs(effect_probability(DensityMatrix.from_ket(Z0), m) - 0.5) < 1e-12


class TestMeasurementChannel:
    def test_outputs_probability_diagonal(self):
        rng = rng_for(52)
        from ontokit.sampling import random_effect

        for _ in range(5):
            effect = random_effect(rng, 3)
            ch = measurement_channel(effect)
            rho = random_density(rng, 3)
            out = apply_channel(ch, rho)
            p = float(np.trace(effect.effect @ rho.matrix).real)
            assert abs(out.matrix[0, 0].real - p) < 1e-10
            assert abs(out.matrix[1, 1].real - (1 - p)) < 1e-10
            assert abs(out.matrix[0, 1]) < 1e-12

    def test_two_outcome_validation(self):
        with pytest.raises(ValueError):
            TwoOutcomeMeasurement(np.diag([1.5, 0.0]))

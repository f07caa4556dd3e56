"""Source-category operations: Born rule, channels, composition laws."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontokit import linalg
from ontokit.antidist import pbr_measurement
from ontokit.errors import DimMismatchError, NotHermitianError, VerificationFailedError
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
from ontokit.tolerances import IDENTITY_TOL

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


@pytest.mark.parametrize("build, x", [
    (DensityMatrix, np.diag([0.25, 0.75])),
    (TwoOutcomeMeasurement, [[0.5, 0.25], [0.25, 0.5]]),
], ids=["state", "effect"])
def test_operator_is_coerced_once(build, x, monkeypatch):
    calls = []
    as_matrix = linalg.as_matrix
    monkeypatch.setattr(linalg, "as_matrix", lambda a: calls.append(a) or as_matrix(a))
    build(x)
    assert len(calls) == 1


def _checked_in_documented_order(build, x):
    """Oracle of the state and effect checks, one after another in their
    documented order: coerce, 2-d and nonempty, finite, square, Hermitian,
    then the trace and spectrum (state) or the spectrum (effect).  Returns
    the held operator and its eigensystem, or raises what the constructor
    raises; only its non-square message is worded differently."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimMismatchError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise VerificationFailedError("matrix contains NaN or Inf entries")
    if m.shape[0] != m.shape[1]:
        raise DimMismatchError("operator must be square")
    mh = m.conj().T
    dev = np.abs(m - mh).max()
    if dev > IDENTITY_TOL:
        raise NotHermitianError(f"max |a - a^dag| = {dev:.3e} exceeds {IDENTITY_TOL}")
    w, v = np.linalg.eigh((m + mh) / 2)
    if build is DensityMatrix:
        tr = m.trace()
        if abs(tr.real - 1.0) > IDENTITY_TOL or abs(tr.imag) > IDENTITY_TOL:
            raise VerificationFailedError(f"trace {complex(tr)!r} deviates from 1")
        if w[0] < -IDENTITY_TOL:
            raise VerificationFailedError(f"negative eigenvalue {w[0]:.3e}")
    elif w[0] < -IDENTITY_TOL or w[-1] > 1.0 + IDENTITY_TOL:
        raise VerificationFailedError(
            f"effect spectrum [{w[0]:.3e}, {w[-1]:.6f}] not within [0, 1]"
        )
    return m, w, v


@st.composite
def operator_inputs(draw):
    """Arrays of 0-3 dimensions, empty ones included; square ones are
    V diag(w) V^dag for a drawn spectrum, which may leave [0, 1] or miss
    unit trace, and may be made non-Hermitian or given a NaN or Inf."""
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    shape = draw(st.one_of(
        st.just((n, n)), st.just((n, n)), st.just((n, n)),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.lists(st.integers(0, 3), max_size=3).map(tuple),
    ))
    if shape == (n, n):
        w = np.array(draw(st.lists(st.sampled_from([-0.25, 0.0, 0.125, 0.25, 0.5, 1.0, 1.25]),
                                   min_size=n, max_size=n)))
        if draw(st.booleans()) and w.sum() > 0:
            w = w / w.sum()
        q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        x = (q * w) @ q.conj().T
        if draw(st.booleans()):
            x = (x + x.conj().T).real / 2
    else:
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    fault = draw(st.sampled_from(["none", "none", "skew", "nan", "inf"]))
    if fault != "none" and x.ndim == 2 and x.size:
        i, j = 0, x.shape[1] - 1
        x[i, j] = {"skew": x[i, j] + 1e-3, "nan": np.nan, "inf": np.inf}[fault]
    return x.tolist() if draw(st.booleans()) else x


@pytest.mark.parametrize("build", [DensityMatrix, TwoOutcomeMeasurement])
@settings(max_examples=200, deadline=None)
@given(x=operator_inputs())
def test_constructors_match_the_documented_order(build, x):
    try:
        want = _checked_in_documented_order(build, x)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            build(x)
        assert type(got.value) is type(exc)
        if "must be square" in str(exc):
            assert re.search("must be square", str(got.value))
        else:
            assert str(got.value) == str(exc)
        return
    obj = build(x)
    m, w, v = want
    held = obj.matrix if build is DensityMatrix else obj.effect
    assert held.dtype == m.dtype and held.shape == m.shape and held.tobytes() == m.tobytes()
    for got, exp in zip(obj.eigensystem, (w, v)):
        assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()


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


    def test_the_image_of_an_exact_state_is_held_exact(self, monkeypatch):
        # a ket's projector and its images are held without an eigendecomposition;
        # the image of a gated state passes the gate itself
        rng = rng_for(46)
        f = random_cptp_channel(rng, 3, 4)
        g = random_cptp_channel(rng, 4, 2)
        rho = random_density(rng, 3)
        calls = []
        eig = linalg.hermitian_eigensystem
        monkeypatch.setattr(linalg, "hermitian_eigensystem", lambda a: calls.append(1) or eig(a))
        out = apply_channel(g, apply_channel(f, DensityMatrix.from_ket(random_ket(rng, 3))))
        assert calls == [] and out._exact and "eigensystem" not in vars(out)
        gated = apply_channel(f, rho)
        assert calls == [1] and not gated._exact and "eigensystem" in vars(gated)

    def test_a_held_image_keeps_the_trace_check(self):
        # a Kraus sum 1 + 9e-10 on |1>: within IDENTITY_TOL as a channel, but the
        # image of a ket of norm 1 + 9e-11 there has trace 1 + 1.08e-9
        ch = Channel(np.diag([1.0, np.sqrt(1.0 + 9e-10)]).astype(complex)[None])
        ket = np.array([0.0, 1.0 + 9e-11])
        with pytest.raises(VerificationFailedError, match="^trace .* deviates from 1$"):
            apply_channel(ch, DensityMatrix.from_ket(ket))


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


class TestIdentity:
    @pytest.mark.parametrize("dim", [-1, 0, 2.5, True, np.bool_(True), "3", None])
    def test_a_dimension_that_is_no_positive_integer_is_refused(self, dim):
        message = f"dim must be a positive integer, got {dim!r}"
        with pytest.raises(VerificationFailedError, match=f"^{re.escape(message)}$"):
            Channel.identity(dim)

    @pytest.mark.parametrize("dim", [1, 3, np.int64(4), np.uint8(2)])
    def test_the_exact_stack_holds_residual_zero(self, dim):
        ch = Channel.identity(dim)
        assert ch.kraus.shape == (1, dim, dim) and not ch.kraus.flags.writeable
        assert np.array_equal(ch.kraus[0], np.eye(dim))
        # what the public constructor measures on the same stack
        assert ch.kraus_residual == Channel(ch.kraus).kraus_residual == 0.0

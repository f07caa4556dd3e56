"""The stacked Kraus set: construction errors and the stack operations
against the per-Kraus loops they replaced, kept here as oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontokit import linalg, quantum
from ontokit.antidist import compression_channel, smallest_compression_power
from ontokit.errors import DimMismatchError, VerificationFailedError
from ontokit.ontomodel import FunctorFragment, _quantum_probability, check_operational_model
from ontokit.quantum import (
    Channel,
    DensityMatrix,
    TwoOutcomeMeasurement,
    apply_channel,
    compose,
    measurement_channel,
    preparation_channel,
    tensor,
)
from ontokit.sampling import (
    random_cptp_channel, random_density, random_effect, random_ket, random_nonorthogonal_pair,
    random_unitary, rng_for,
)
from ontokit.tolerances import EIGEN_WEIGHT_EPS, IDENTITY_TOL
from ontokit.wigner import commutative_algebra, functor_morphism, pad_odd

ORACLE_TOL = 1e-15


# ---------------------------------------------------------------------------
# per-Kraus loop oracles
# ---------------------------------------------------------------------------

def compose_oracle(g, f):
    return [kg @ kf for kg in g.kraus for kf in f.kraus]


def tensor_oracle(f, g):
    return [np.kron(kf, kg) for kf in f.kraus for kg in g.kraus]


def apply_oracle(ch, m):
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.kraus:
        out += k @ m @ k.conj().T
    return out


def pad_odd_oracle(ch):
    pad_in = 1 if ch.in_dim % 2 == 0 else 0
    pad_out = 1 if ch.out_dim % 2 == 0 else 0
    new_in, new_out = ch.in_dim + pad_in, ch.out_dim + pad_out
    ops = []
    for k in ch.kraus:
        padded = np.zeros((new_out, new_in), dtype=complex)
        padded[: ch.out_dim, : ch.in_dim] = k
        ops.append(padded)
    if pad_in:
        extra = np.zeros((new_out, new_in), dtype=complex)
        extra[new_out - 1 if pad_out else 0, new_in - 1] = 1.0
        ops.append(extra)
    return ops


def quantum_probability_oracle(meas, state):
    return float(sum((k @ k.conj().T)[0, 0].real for k in compose_oracle(meas, state)))


def assert_kraus_close(ops, expected):
    assert len(ops) == len(expected)
    for k, e in zip(ops, expected):
        assert k.shape == e.shape
        assert linalg.max_abs(k - e) <= ORACLE_TOL


def kraus_channel(rng, in_dim, out_dim, count):
    """Random channel with ``count`` Kraus operators: a Gaussian set
    renormalised by the inverse square root of its Kraus sum."""
    raw = rng.normal(size=(count, out_dim, in_dim)) + 1j * rng.normal(size=(count, out_dim, in_dim))
    w, v = np.linalg.eigh((raw.conj().transpose(0, 2, 1) @ raw).sum(axis=0))
    return Channel(raw @ (v / np.sqrt(w)) @ v.conj().T)


def random_channel(rng, in_dim, out_dim):
    """Random channel with 1..9 Kraus operators, at least enough of them
    (count * out_dim >= in_dim) for the renormalisation to exist."""
    least = -(-in_dim // out_dim)
    return kraus_channel(rng, in_dim, out_dim, int(rng.integers(least, 10)))


def random_channels(seed, count=12):
    """Random channels with dimensions 1..7."""
    rng = rng_for(seed, 0)
    for _ in range(count):
        m, n = (int(x) for x in rng.integers(1, 8, size=2))
        yield rng, random_channel(rng, m, n)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _nan_operator():
    k = np.eye(2, dtype=complex)
    k[0, 1] = np.nan
    return (k,)


@pytest.mark.parametrize(
    "kraus, exc, message",
    [
        ((), VerificationFailedError, "channel needs at least one Kraus operator"),
        ((np.eye(2), np.eye(3)), DimMismatchError, "all Kraus operators must share one shape"),
        ((np.array([1.0, 0.0]),), DimMismatchError, "expected a 2-d matrix, got shape (2,)"),
        ((np.eye(2), np.array([1.0, 0.0])), DimMismatchError,
         "expected a 2-d matrix, got shape (2,)"),
        (_nan_operator(), VerificationFailedError, "matrix contains NaN or Inf entries"),
        ((np.sqrt(1.0 + 1e-6) * np.eye(2),), VerificationFailedError,
         "Kraus sum deviates from identity by 1.000e-06"),
        # a channel is trace preserving by definition: a sub-normalised set is no channel
        ((0.5 * np.eye(3), 0.5 * np.eye(3)), VerificationFailedError,
         "Kraus sum deviates from identity by 5.000e-01"),
    ],
    ids=["empty", "mixed-shapes", "one-d", "one-d-after-matrix", "nan", "sum-off-1e-6",
         "sub-normalised"],
)
def test_construction_errors(kraus, exc, message):
    with pytest.raises(exc) as info:
        Channel(kraus)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_kraus_views_share_the_stack():
    ch = kraus_channel(rng_for(5, 0), 3, 2, 4)
    # kraus is the (count, out, in) stack itself; each operator is a view into it
    assert type(ch.kraus) is np.ndarray and ch.kraus.dtype == complex
    assert ch.kraus.shape == (4, 2, 3) and ch.kraus.flags.c_contiguous
    assert len(ch.kraus) == 4
    assert all(k.shape == (2, 3) and k.base is ch.kraus for k in ch.kraus)
    assert all(ch.kraus[i].base is ch.kraus for i in range(-4, 4))
    assert (ch.in_dim, ch.out_dim) == (3, 2)


def test_checked_stack_is_read_only_and_the_given_array_is_not():
    given = np.eye(3, dtype=complex)[None].copy()
    ch = Channel(given)
    with pytest.raises(ValueError, match="read-only"):
        ch.kraus[0][0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        ch.kraus[0, 0, 0] = 2.0
    given[0, 1, 1] = 1.0  # the caller's own array stays writable
    with pytest.raises(ValueError, match="read-only"):
        Channel((np.eye(3),)).kraus[0][0, 0] = 2.0


def test_writes_through_the_given_array_do_not_reach_the_channel():
    given = np.eye(3, dtype=complex)[None].copy()
    ch = Channel(given)
    given[0, 0, 0] = 2.0
    assert ch.kraus[0, 0, 0] == 1.0
    assert not np.shares_memory(given, ch.kraus)


@pytest.mark.parametrize(
    "stack, message",
    [
        (np.array([[[1.0, np.inf], [0.0, 1.0]]], dtype=complex),
         "matrix contains NaN or Inf entries"),
        (np.array([np.eye(3), np.eye(3)], dtype=complex) / 2,
         "Kraus sum deviates from identity by 5.000e-01"),
    ],
    ids=["inf", "sub-normalised"],
)
def test_builder_path_runs_the_constructor_checks(stack, message):
    for build in (Channel, Channel._of_stack):
        with pytest.raises(VerificationFailedError, match=f"^{message}$"):
            build(stack.copy())


def test_builders_hold_the_stack_they_built(monkeypatch):
    # the public constructor copies (through _kraus_stack); the builders do not
    copies = []
    kraus_stack = quantum._kraus_stack
    monkeypatch.setattr(quantum, "_kraus_stack", lambda k: copies.append(k) or kraus_stack(k))
    rng = rng_for(7)
    stack = np.eye(3, dtype=complex)[None].copy()
    held = Channel._of_stack(stack)
    assert held.kraus is stack and not stack.flags.writeable
    f = random_cptp_channel(rng, 2, 2)
    g = random_cptp_channel(rng, 2, 3)
    built = [
        f, compose(g, f), tensor(f, g), pad_odd(f),
        preparation_channel(random_density(rng, 3)),
        measurement_channel(random_effect(rng, 3)),
        compression_channel(np.array([1.0, 0.0]), np.array([0.8, 0.6])).channel,
        Channel.identity(3),
    ]
    assert copies == []
    for ch in built:
        assert ch.kraus.flags.c_contiguous and not ch.kraus.flags.writeable
    assert not any(np.shares_memory(built[1].kraus, x.kraus) for x in (f, g))
    Channel(stack)
    assert len(copies) == 1


def test_constructor_keeps_the_given_operators():
    u = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))[0]
    ops = (u / np.sqrt(2), 1j * u / np.sqrt(2))
    ch = Channel(ops)
    assert all(np.array_equal(k, e) for k, e in zip(ch.kraus, ops))


# ---------------------------------------------------------------------------
# stack operations against the loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compose_matches_loop(seed):
    for rng, f in random_channels(seed):
        g = random_channel(rng, f.out_dim, int(rng.integers(1, 8)))
        gf = compose(g, f)
        assert_kraus_close(gf.kraus, compose_oracle(g, f))
        assert (gf.in_dim, gf.out_dim) == (f.in_dim, g.out_dim)


def test_compose_is_g_major():
    rng = rng_for(11, 0)
    g = kraus_channel(rng, 3, 2, 2)
    f = kraus_channel(rng, 4, 3, 3)
    gf = compose(g, f)
    for a in range(2):
        for b in range(3):
            assert np.array_equal(gf.kraus[a * 3 + b], g.kraus[a] @ f.kraus[b])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tensor_matches_loop(seed):
    for rng, f in random_channels(seed, count=6):
        g = random_channel(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        fg = tensor(f, g)
        assert_kraus_close(fg.kraus, tensor_oracle(f, g))
        assert (fg.in_dim, fg.out_dim) == (f.in_dim * g.in_dim, f.out_dim * g.out_dim)


def rescaled(ch, eps):
    """ch with every Kraus operator scaled by sqrt(1 + eps): its Kraus sum is
    (1 + eps) times ch's, off the identity by about eps on the diagonal."""
    return Channel(ch.kraus * np.sqrt(1.0 + eps))


def kraus_sum_rounding(ch):
    """What rounding may add to a measured Kraus-sum residual of ch's stack
    over the exact residual of the exact Kronecker products: forming each
    product rounds once, and each of the three checks sums at most
    count * out terms of mass at most 2 + e (Higham, 4.2)."""
    count, out, _ = ch.kraus.shape
    return 4 * count * out * np.finfo(float).eps * (2.0 + ch.kraus_residual)


PERTURBATION = st.floats(-IDENTITY_TOL / 3, IDENTITY_TOL / 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), PERTURBATION, PERTURBATION)
def test_tensor_bound_covers_the_measured_kraus_sum(seed, eps_f, eps_g):
    rng = rng_for(67, seed)
    dims = [int(d) for d in rng.integers(1, 6, size=4)]
    f = rescaled(random_channel(rng, *dims[:2]), eps_f)
    g = rescaled(random_channel(rng, *dims[2:]), eps_g)
    fg = tensor(f, g)
    e_f, e_g = f.kraus_residual, g.kraus_residual
    assert fg.kraus_residual == e_f + e_g + e_f * e_g
    # the public constructor measures the stack's Kraus sum afresh
    measured = Channel(fg.kraus).kraus_residual
    assert fg.kraus_residual + kraus_sum_rounding(fg) >= measured


def test_tensor_refuses_a_pair_whose_bound_exceeds_the_tolerance():
    # 6e-10 each, within IDENTITY_TOL alone; 1.2e-9 together
    f = rescaled(Channel.identity(2), 6e-10)
    g = rescaled(Channel.identity(3), 6e-10)
    assert max(f.kraus_residual, g.kraus_residual) <= IDENTITY_TOL
    with pytest.raises(VerificationFailedError, match="Kraus sum deviates from identity by 1.200e-09"):
        tensor(f, g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_apply_channel_matches_loop(seed):
    for rng, ch in random_channels(seed):
        rho = random_density(rng, ch.in_dim)
        out = apply_channel(ch, rho)
        assert linalg.max_abs(out.matrix - apply_oracle(ch, rho.matrix)) <= ORACLE_TOL


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pad_odd_matches_loop(seed):
    for _, ch in random_channels(seed):
        padded = pad_odd(ch)
        assert_kraus_close(padded.kraus, pad_odd_oracle(ch))
        assert padded.in_dim % 2 == 1 and padded.out_dim % 2 == 1


@pytest.mark.parametrize("dim", range(1, 8))
def test_quantum_probability_matches_loop(dim):
    rng = rng_for(13, dim)
    for _ in range(4):
        prep = preparation_channel(random_density(rng, dim))
        effect = random_effect(rng, dim)
        meas = measurement_channel(effect)
        p = _quantum_probability(meas, prep)
        assert abs(p - quantum_probability_oracle(meas, prep)) <= ORACLE_TOL
        rho = apply_channel(prep, DensityMatrix(np.ones((1, 1)))).matrix
        assert abs(p - np.trace(effect.effect @ rho).real) <= 1e-12


@pytest.mark.parametrize("dim", range(1, 8))
def test_quantum_probability_has_the_composite_bits(dim):
    """Outcome 0 read off the factor stacks is the value the checked composite
    channel gives, bit for bit; odd trials take a pure state and a projector
    effect, whose channels drop the eigenpairs of weight 0."""
    rng = rng_for(14, dim)
    for trial in range(8):
        if trial % 2:
            v = random_unitary(rng, dim)
            rank = trial % (dim + 1)
            state = DensityMatrix.from_ket(v[:, 0])
            effect = TwoOutcomeMeasurement(v[:, :rank] @ v[:, :rank].conj().T)
        else:
            state, effect = random_density(rng, dim), random_effect(rng, dim)
        prep, meas = preparation_channel(state), measurement_channel(effect)
        if trial % 2:
            assert len(prep.kraus) == 1 and len(meas.kraus) == dim
        first = compose(meas, prep).kraus[:, 0]
        assert _quantum_probability(meas, prep) == float(np.vdot(first, first).real)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=3))
def test_closed_form_compression_residual(seed, extra):
    """The compression channel holds |t^2 + 2 s^2 - 1|, its Kraus sum's one
    deviation from I; the public constructor's measure of the same stack lies
    within 4 ulp of 1, the scale of the sum's entries."""
    psi, phi, _ = random_nonorthogonal_pair(rng_for(71, seed), 2, 0.02, 0.98)
    n = smallest_compression_power(abs(np.vdot(psi, phi))) + extra
    res = compression_channel(psi, phi, n=n)
    measured = Channel(res.channel.kraus).kraus_residual
    assert abs(res.channel.kraus_residual - measured) <= 4 * np.spacing(1.0)


def test_a_law_check_measures_each_new_kraus_sum_once(monkeypatch):
    """A law check shaped like one functor trial measures the Kraus sums of
    f, g, each compose(g, f), the preparation and the measurement; the
    identity and the evaluation composite form none."""
    rng = rng_for(15)
    f_ops = random_cptp_channel(rng, 3, 3).kraus
    g_ops = random_cptp_channel(rng, 3, 3).kraus
    state, effect = random_density(rng, 3), random_effect(rng, 3)
    measured = []
    hold = Channel._hold

    def spy(self, stack, residual=None):
        if residual is None:
            measured.append(stack)
        return hold(self, stack, residual)

    monkeypatch.setattr(Channel, "_hold", spy)
    f, g = Channel(f_ops), Channel(g_ops)
    gf, gf_again = compose(g, f), compose(g, f)
    frag = FunctorFragment(
        channels={"f": f, "g": g, "gf": gf, "id": Channel.identity(3)},
        kernels={"f": functor_morphism(f), "g": functor_morphism(g),
                 "gf": functor_morphism(gf_again), "id": functor_morphism(Channel.identity(3))},
    )
    assert check_operational_model(frag, composition_tests=[("g", "f", "gf")],
                                   identity_names=["id"]).clean
    prep, meas = preparation_channel(state), measurement_channel(effect)
    frag = FunctorFragment(
        channels={"state": prep, "meas": meas},
        kernels={"state": functor_morphism(prep),
                 "meas": functor_morphism(meas, out_algebra=commutative_algebra(2))},
    )
    assert check_operational_model(frag, evaluation_tests=[("meas", "state")]).clean
    expected = [f, g, gf, gf_again, prep, meas]
    assert len(measured) == len(expected)
    assert all(stack is ch.kraus for stack, ch in zip(measured, expected))


# ---------------------------------------------------------------------------
# preparation and measurement channels read the validated eigensystem
# ---------------------------------------------------------------------------

def preparation_stack_oracle(state):
    """The preparation channel's Kraus stack from its own eigendecomposition."""
    w, v = linalg.hermitian_eigensystem(state.matrix)
    keep = w > EIGEN_WEIGHT_EPS
    return np.array((np.sqrt(w[keep]) * v[:, keep]).T[:, :, None], dtype=complex)


def measurement_stack_oracle(m):
    """The measurement channel's Kraus stack from its own eigendecomposition."""
    w, v = linalg.hermitian_eigensystem(m.effect)
    weights = np.stack([w, 1.0 - w])
    outcome, j = np.nonzero(weights > EIGEN_WEIGHT_EPS)
    ops = np.zeros((outcome.size, 2, m.dim), dtype=complex)
    ops[np.arange(outcome.size), outcome] = np.sqrt(weights[outcome, j])[:, None] * v[:, j].T.conj()
    return ops


def assert_bit_equal(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def projector_effect(rng, dim, rank):
    """An effect with eigenvalues exactly 0 and 1 in a random basis: E = U P U^dag."""
    u = random_unitary(rng, dim)
    return u[:, :rank] @ u[:, :rank].conj().T


@pytest.mark.parametrize("dim", range(1, 8))
def test_preparation_channel_matches_its_own_eigendecomposition(dim):
    rng = rng_for(17, dim)
    states = [random_density(rng, dim) for _ in range(3)]
    k = random_ket(rng, dim)
    # rank 1, so dim - 1 eigenpairs at 0 are dropped
    states += [DensityMatrix.from_ket(k), DensityMatrix(np.outer(k, k.conj()))]
    states += [DensityMatrix(np.eye(dim) / dim)]
    for state in states:
        assert_bit_equal(preparation_channel(state).kraus, preparation_stack_oracle(state))


@pytest.mark.parametrize("dim", range(1, 8))
def test_measurement_channel_matches_its_own_eigendecomposition(dim):
    rng = rng_for(19, dim)
    effects = [random_effect(rng, dim) for _ in range(3)]
    # eigenvalues at 0 and 1, whose pairs EIGEN_WEIGHT_EPS drops from one outcome
    effects += [TwoOutcomeMeasurement(projector_effect(rng, dim, r)) for r in range(dim + 1)]
    effects += [TwoOutcomeMeasurement(np.diag(np.arange(dim) % 2).astype(float))]
    for effect in effects:
        assert_bit_equal(measurement_channel(effect).kraus, measurement_stack_oracle(effect))


def test_one_eigendecomposition_per_state_or_effect(monkeypatch):
    rng = rng_for(23)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho_matrix = g @ g.conj().T / np.trace(g @ g.conj().T).real
    effect_matrix = projector_effect(rng, 5, 2) * 0.5 + np.eye(5) * 0.25
    psi = random_ket(rng, 5)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))

    rho = DensityMatrix(rho_matrix)
    preparation_channel(rho)
    preparation_channel(rho)
    assert len(calls) == 1
    effect = TwoOutcomeMeasurement(effect_matrix)
    measurement_channel(effect)
    assert len(calls) == 2
    pure = DensityMatrix.from_ket(psi)
    assert len(calls) == 2  # a projector of a unit ket needs no spectrum check
    preparation_channel(pure)
    preparation_channel(pure)
    assert len(calls) == 3


def test_a_validated_operator_and_its_eigensystem_are_read_only():
    # the operator is a copy, so that the kept eigensystem stays its own
    rng = rng_for(31)
    given = random_density(rng, 3).matrix.copy()
    effect_given = random_effect(rng, 3).effect.copy()
    rho, effect = DensityMatrix(given), TwoOutcomeMeasurement(effect_given)
    pure = DensityMatrix.from_ket(random_ket(rng, 3))
    for held, source in ((rho.matrix, given), (effect.effect, effect_given)):
        source[0, 0] = 0.5
        assert held[0, 0] != 0.5
    for op in (rho, effect, pure):
        held = op.effect if op is effect else op.matrix
        for a in (held, *op.eigensystem):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5

"""The stacked Kraus set: construction errors and the stack operations
against the per-Kraus loops they replaced, kept here as oracles."""

import numpy as np
import pytest

from ontokit import linalg
from ontokit.errors import DimMismatchError, VerificationFailedError
from ontokit.ontomodel import _quantum_probability
from ontokit.quantum import (
    Channel,
    DensityMatrix,
    apply_channel,
    compose,
    measurement_channel,
    preparation_channel,
    tensor,
)
from ontokit.sampling import random_density, random_effect, rng_for
from ontokit.wigner import pad_odd

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
    assert ch.stack.shape == (4, 2, 3)
    assert len(ch.kraus) == 4
    assert all(np.shares_memory(k, ch.stack) for k in ch.kraus)
    assert (ch.in_dim, ch.out_dim) == (3, 2)


def test_checked_stack_is_read_only_and_the_given_array_is_not():
    given = np.eye(3, dtype=complex)[None].copy()
    ch = Channel(given)
    with pytest.raises(ValueError, match="read-only"):
        ch.kraus[0][0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        ch.stack[0, 0, 0] = 2.0
    given[0, 1, 1] = 1.0  # the caller's own array stays writable
    with pytest.raises(ValueError, match="read-only"):
        Channel((np.eye(3),)).kraus[0][0, 0] = 2.0


def test_writes_through_the_given_array_do_not_reach_the_channel():
    given = np.eye(3, dtype=complex)[None].copy()
    ch = Channel(given)
    given[0, 0, 0] = 2.0
    assert ch.stack[0, 0, 0] == 1.0
    assert not np.shares_memory(given, ch.stack)


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

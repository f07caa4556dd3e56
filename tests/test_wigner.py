"""Phase-point frames, transfer matrices, functor laws, covariance, odd embeddings."""

import gc
import importlib.util
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontokit import linalg, quantum, sampling, wigner
from ontokit.errors import (
    DimMismatchError,
    EvenDimensionError,
    OntokitError,
    TooLargeError,
    UnrepresentableAlgebraError,
    VerificationFailedError,
)
from ontokit.kernels import TWO, UNIT_SPACE, ResponseFunction, SignedKernel, evaluate, kcompose
from ontokit.quantum import (
    Channel,
    DensityMatrix,
    ProjectiveMeasurement,
    TwoOutcomeMeasurement,
    apply_channel,
    born,
    compose,
    measurement_channel,
    preparation_channel,
    tensor,
)
from ontokit.sampling import (
    random_cptp_channel,
    random_density,
    random_effect,
    random_ket,
    random_nonorthogonal_pair,
    random_unitary,
    rng_for,
)
from ontokit.tolerances import DEGENERATE_DRAW_EPS, STRICT_MARGIN, TIGHT_IDENTITY_TOL
from ontokit.wigner import (
    FrameResiduals,
    WignerFrame,
    commutative_algebra,
    commutative_frame,
    epistemic_report,
    frame_for,
    functor_morphism,
    matrix_algebra,
    monoidality_check,
    phase_point_operators,
    phase_space,
    product_frame,
    transfer_matrix,
    wigner_vector,
)
from test_channel_stack import kraus_channel, odd_embedding, tensor_oracle

QUTRIT = phase_point_operators(3)
# the computational and the Fourier basis of C^3, which every displacement permutes up
# to phases: two states of one basis are an orthogonal pair of stabilizer states
STABILIZER_BASES = (np.eye(3, dtype=complex),
                    np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3))
# the refusal of an image off the diagonal of C^k, by the state, morphism and transfer maps
NOT_DIAGONAL = r"channel output is not diagonal; not a morphism into C\^k"


def displacement_oracle(n, q, p):
    """tau^{qp} X^q Z^p from shift and clock matrix powers."""
    om = np.exp(2j * np.pi / n)
    x = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    z = np.diag(om ** np.arange(n))
    tau = om ** ((n + 1) // 2)
    return tau ** (q * p) * np.linalg.matrix_power(x, q) @ np.linalg.matrix_power(z, p)


def displacement_permutation_oracle(n, a, b):
    """Index map pi with D(a,b) s_i D(a,b)^dag = s_pi(i): point (q, p), index
    q n + p, goes to (q + a, p + b) mod n."""
    q, p = np.divmod(np.arange(n * n), n)
    return (q + a) % n * n + (p + b) % n


def displacement_channel_oracle(n, a, b):
    return Channel([displacement_oracle(n, a, b)])


def stabilizer_kets(n):
    """The n + n^2 closed-form stabilizer kets of odd n: |k>, and
    sum_x omega^(a x^2 + b x) |x> / sqrt(n) for a, b in Z_n."""
    x = np.arange(n)
    chirps = [np.exp(2j * np.pi * ((a * x * x + b * x) % n) / n) / np.sqrt(n)
              for a in range(n) for b in range(n)]
    return [*np.eye(n, dtype=complex), *chirps]


def permutation_matrix(perm):
    """The 0/1 matrix sending basis vector j to basis vector perm[j]."""
    m = np.zeros((len(perm), len(perm)))
    m[perm, np.arange(len(perm))] = 1.0
    return m


def phase_point_oracle(n):
    """D(q,p) A0 D(q,p)^dag in q*n+p order, with A0|x> = |-x mod n>."""
    a0 = np.eye(n, dtype=complex)[(-np.arange(n)) % n]
    return np.array(
        [
            displacement_oracle(n, q, p) @ a0 @ displacement_oracle(n, q, p).conj().T
            for q in range(n)
            for p in range(n)
        ]
    )


def dense_gram_residual(frame):
    """max|F F^dag - c I| from the stored frame matrix F, the dense oracle of the Gram check."""
    vecs = frame.vectors
    return linalg.max_abs(vecs @ vecs.conj().T - frame.norm_const * np.eye(frame.n_points))


def transfer_oracle(ch, in_frame, out_frame):
    """Tr(s_i K s_j K^dag) / c summed over Kraus operators one at a time."""
    t = np.zeros((out_frame.n_points, in_frame.n_points), dtype=complex)
    for i, s_out in enumerate(out_frame.operators):
        for j, s_in in enumerate(in_frame.operators):
            for k in ch.kraus:
                t[i, j] += np.trace(s_out @ k @ s_in @ k.conj().T)
    return (t / out_frame.norm_const).real


def through_frames(ch, in_frame, out_frame):
    """wigner._through_frames of the channel's pairs matrix sum_k vec(K_k) vec(K_k)^dag:
    the real transfer, and the largest unread image entry (0 if the frame reads all)."""
    kraus = ch.kraus.reshape(len(ch.kraus), -1)
    t, unread = wigner._through_frames(kraus.T @ kraus.conj(), out_frame, in_frame)
    return t.real / out_frame.norm_const, linalg.max_abs(unread) if unread.size else 0.0


def dense_transfer(ch, in_frame, out_frame):
    """conj(F_out) S F_in^T / c_out with S = sum_k K (x) conj(K), regrouped from
    sum_k vec(K) vec(K)^dag; and the images f(s_j) = S vec(s_j) as matrices."""
    count, o, i = ch.kraus.shape
    kraus = ch.kraus.reshape(count, o * i)
    sup = (kraus.T @ kraus.conj()).reshape(o, i, o, i).transpose(0, 2, 1, 3).reshape(o * o, i * i)
    t = out_frame.vectors.conj() @ sup @ in_frame.vectors.T / out_frame.norm_const
    return t, (in_frame.vectors @ sup.T).reshape(-1, o, o)


def channel_with_at_least(rng, in_dim, out_dim, count):
    """A random channel with ``count`` Kraus operators, or with in_dim / out_dim
    (rounded up) if that is more: fewer cannot sum to the identity."""
    return kraus_channel(rng, in_dim, out_dim, max(count, -(-in_dim // out_dim)))


def assert_transfer_matches_dense(ch, in_frame, out_frame):
    """wigner._through_frames against the dense formula, to 1e-13: the real transfer,
    and the unread image entries (the off-diagonal ones into a commutative frame)."""
    t, unread = through_frames(ch, in_frame, out_frame)
    want, images = dense_transfer(ch, in_frame, out_frame)
    assert t.shape == want.shape
    assert linalg.max_abs(t - want.real) <= 1e-13
    o = ch.out_dim
    off = linalg.max_abs(images * (1.0 - np.eye(o))) if out_frame.algebra.kind == "commutative" else 0.0
    assert abs(unread - off) <= 1e-13


class TestFrames:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_conditions_hold(self, n):
        frame = phase_point_operators(n)
        ops = frame.operators
        assert ops.shape == (n * n, n, n)
        assert linalg.max_abs(ops - np.conj(np.transpose(ops, (0, 2, 1)))) <= 1e-10
        traces = np.einsum("kii->k", ops)
        assert linalg.max_abs(traces - 1.0) <= 1e-10
        for op in ops:
            assert linalg.max_abs(op @ op - np.eye(n)) <= 1e-10
        gram = np.einsum("ikl,jlk->ij", ops, ops)
        assert linalg.max_abs(gram - n * np.eye(n * n)) <= 1e-10 * max(1, n)
        assert linalg.max_abs(ops.sum(axis=0) - n * np.eye(n)) <= 1e-9

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_closed_form_matches_matrix_power_oracle(self, n):
        ops = phase_point_operators(n).operators
        assert linalg.max_abs(ops - phase_point_oracle(n)) <= 1e-12

    @pytest.mark.parametrize("n", [25, 35])
    def test_large_frames_verify_and_match_matrix_power_oracle(self, n):
        frame = phase_point_operators(n)
        assert frame.norm_const == n and frame.n_points == n * n
        assert linalg.max_abs(frame.operators - phase_point_oracle(n)) <= 1e-12

    def test_even_dimension_rejected(self):
        with pytest.raises(EvenDimensionError):
            phase_point_operators(4)

    @pytest.mark.parametrize("n", [27555, 99999999999])
    def test_frame_numpy_cannot_index_refused_before_allocation(self, n, monkeypatch):
        # 16 n^4 > 2^63 - 1 from n = 27555 on; numpy is not reached at all: the
        # build's first numpy call is np.arange, and no n^2 array comes before it
        monkeypatch.setattr(wigner.np, "arange", None)
        with pytest.raises(TooLargeError, match=f"n = {n} .* {16 * n ** 4} bytes, more than numpy"):
            phase_point_operators(n)

    @pytest.mark.parametrize("n", [5, 27553])
    def test_failed_allocation_is_too_large(self, n, monkeypatch):
        # 27553 is the largest odd n with 16 n^4 <= 2^63 - 1, so it reaches the build,
        # whose first numpy call, np.arange(n), is made to fail before any n^2 array exists
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(wigner.np, "arange", refuse)
        with pytest.raises(
            TooLargeError, match=f"n = {n} .* {16 * n ** 4} bytes, which could not be allocated"
        ):
            phase_point_operators.__wrapped__(n)  # past the cache
        assert calls == [(n,)]

    def test_dim_one_single_operator(self):
        frame = phase_point_operators(1)
        assert frame.operators.shape == (1, 1, 1)
        assert frame.operators[0, 0, 0] == 1.0

    def test_commutative_frame_distinguished_object(self):
        assert commutative_frame(2).space == TWO
        assert commutative_frame(1).space == UNIT_SPACE
        assert frame_for(commutative_algebra(4)).norm_const == 1.0

    @pytest.mark.parametrize(
        "case, message",
        [
            ("non_hermitian", "not Hermitian"),
            ("trace", "must have unit trace"),
            ("not_involutive", "not involutive"),
            ("not_idempotent", "not idempotent"),
            ("not_orthogonal", "not trace-orthogonal"),
            ("sum", r"do not sum to c\.I"),
        ],
    )
    def test_each_failed_condition_is_named(self, case, message):
        ops = QUTRIT.operators.copy()
        projectors = commutative_frame(3).operators
        algebra, const, space = matrix_algebra(3), 3.0, QUTRIT.space
        if case == "non_hermitian":
            ops[0, 0, 1] += 0.1
        elif case == "trace":
            ops[0] *= 2.0
        elif case == "not_involutive":
            # Hermitian unit-trace projectors, but P^2 = P != I
            ops, const, space = projectors, 1.0, commutative_frame(3).space
        elif case == "not_idempotent":
            # involutive phase-point operators declared commutative
            algebra = commutative_algebra(3)
        elif case == "not_orthogonal":
            ops[1] = ops[0]
        else:
            # two of the three diagonal projectors: orthonormal, but sum diag(1, 1, 0)
            ops, const, space = projectors[:2], 1.0, TWO
            algebra = commutative_algebra(3)
        with pytest.raises(VerificationFailedError, match=message):
            WignerFrame(algebra, ops, const, space)

    def test_a_commutative_frame_is_diagonal_to_the_tight_tolerance(self):
        # diag(1, 0) + E and diag(0, 1) - E, E = off (|0><1| + |1><0|), are Hermitian unit-trace
        # projectors up to off^2 that sum to I: only their off-diagonal residual grows with off
        def frame(off):
            ops = commutative_frame(2).operators + np.multiply.outer([1, -1], [[0, off], [off, 0]])
            return WignerFrame(commutative_algebra(2), ops, 1.0, TWO)

        assert frame(5e-11).n_points == 2
        with pytest.raises(VerificationFailedError, match="^frame projectors not diagonal: 2.000e-10$"):
            frame(2e-10)

    def test_a_rotated_commutative_frame_is_refused(self):
        # U P U^dag of the two diagonal projectors passes every other frame condition
        u = random_unitary(rng_for(99), 2)
        ops = u @ commutative_frame(2).operators @ u.conj().T
        off = linalg.max_abs(ops * (1.0 - np.eye(2)))
        assert off > 0.1
        with pytest.raises(VerificationFailedError, match=f"^frame projectors not diagonal: {off:.3e}$"):
            WignerFrame(commutative_algebra(2), ops, 1.0, TWO)

    @pytest.mark.parametrize(
        "build, arg", [(phase_point_operators, 3), (phase_point_operators, 5), (commutative_frame, 2)]
    )
    def test_cached_frames_are_read_only(self, build, arg):
        frame = build(arg)
        assert build(arg) is frame
        for array in (frame.operators, frame.vectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 1.0 + 1e-12
        d = frame.hilbert_dim
        if frame.algebra.kind == "commutative":
            rho = DensityMatrix(np.diag(np.arange(1.0, d + 1) / (d * (d + 1) / 2)))
        else:
            rho = random_density(rng_for(17, arg), d)
        uncached = build.__wrapped__(arg)
        assert uncached is not frame
        assert np.array_equal(wigner_vector(rho, frame).weights,
                              wigner_vector(rho, uncached).weights)

    def test_writes_through_the_given_operators_do_not_reach_the_frame(self):
        given = np.array(QUTRIT.operators)
        frame = WignerFrame(matrix_algebra(3), given, 3.0, QUTRIT.space)
        given[0, 0, 0] = 5.0
        assert np.array_equal(frame.operators, QUTRIT.operators)
        assert not np.shares_memory(given, frame.vectors)

    def test_shape_and_count_mismatch_rejected(self):
        with pytest.raises(DimMismatchError):
            WignerFrame(matrix_algebra(3), QUTRIT.operators[:, :, :2], 3.0, QUTRIT.space)
        with pytest.raises(DimMismatchError):
            WignerFrame(matrix_algebra(3), QUTRIT.operators[:8], 3.0, QUTRIT.space)

    @pytest.mark.parametrize("algebra", [matrix_algebra(5), matrix_algebra(1), commutative_algebra(2)])
    def test_an_algebra_of_another_dimension_is_refused(self, algebra):
        # valid qutrit operators, but a frame's algebra is the one they act on
        with pytest.raises(DimMismatchError, match=f"operators of 3 x 3 cannot frame an algebra "
                                                   f"of dimension {algebra.dim}"):
            WignerFrame(algebra, QUTRIT.operators, 3.0, QUTRIT.space)


def _with_anti_hermitian_part(d):
    """I/d + 5e-10 i |0><1|, within the IDENTITY_TOL Hermiticity gate of a state."""
    m = np.eye(d, dtype=complex) / d
    m[0, 1] += 5e-10j
    return m


class TestWignerVector:
    def test_maximally_mixed_uniform(self):
        v = wigner_vector(DensityMatrix(np.eye(3) / 3), QUTRIT)
        assert np.allclose(v.weights, 1.0 / 9.0, atol=1e-12)

    def test_superposition_has_negativity(self):
        psi = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
        v = wigner_vector(DensityMatrix.from_ket(psi), QUTRIT)
        assert float(np.min(v.weights)) < -1e-3

    def test_basis_state_nonnegative(self):
        # |0><0| is a stabilizer state; its Wigner vector has no negativity
        v = wigner_vector(DensityMatrix.from_ket([1, 0, 0]), QUTRIT)
        assert float(np.min(v.weights)) >= -1e-12
        assert np.isclose(v.weights.sum(), 1.0)

    def test_sums_to_one_and_reconstructs(self):
        for dim in (3, 5, 7, 9):
            frame = phase_point_operators(dim)
            rng = rng_for(81, dim)
            for _ in range(100):
                rho = random_density(rng, dim)
                v = wigner_vector(rho, frame)
                assert abs(v.weights.sum() - 1.0) < 1e-10
                recon = np.tensordot(v.weights, frame.operators, axes=(0, 0))
                assert linalg.max_abs(recon - rho.matrix) < 1e-9

    def test_commutative_frame_rejects_off_diagonal(self):
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        with pytest.raises(UnrepresentableAlgebraError, match=f"^{NOT_DIAGONAL}$") as info:
            wigner_vector(rho, commutative_frame(2))
        assert not isinstance(info.value, VerificationFailedError)

    def test_an_anti_hermitian_part_maps_as_the_preparation_does(self):
        # an anti-Hermitian part of 5e-10 passes the state's IDENTITY_TOL gate; both maps
        # read the Hermitian part, which the preparation's eigensystem is taken from
        rho = DensityMatrix(_with_anti_hermitian_part(3))
        got = wigner_vector(rho, QUTRIT).weights
        want = functor_morphism(preparation_channel(rho)).matrix[:, 0]
        assert linalg.max_abs(got - want) <= 1e-15

    def test_a_nonreal_image_is_refused(self):
        # the state's anti-Hermitian part alone as the pairs matrix: an imaginary image of
        # 1.7e-10, past TIGHT_IDENTITY_TOL
        m = _with_anti_hermitian_part(3)
        with pytest.raises(VerificationFailedError, match="^Wigner image has a nonreal component$"):
            wigner._image((m - m.conj().T) / 2, commutative_frame(1), QUTRIT)

    def test_a_state_off_the_diagonal_has_the_morphism_maps_refusal(self):
        # a random qutrit state into C^3: refused as its preparation's image is
        rho = random_density(rng_for(2), 3)
        for call in (lambda: wigner_vector(rho, commutative_frame(3)),
                     lambda: functor_morphism(preparation_channel(rho), commutative_algebra(3))):
            with pytest.raises(UnrepresentableAlgebraError, match=f"^{NOT_DIAGONAL}$"):
                call()

    def test_product_of_commutative_frames_refuses_off_diagonal_images(self):
        # the product frame of C^2 and C^3 reads the diagonal of C^6 only
        prod = product_frame(commutative_frame(2), commutative_frame(3))
        with pytest.raises(UnrepresentableAlgebraError, match=f"^{NOT_DIAGONAL}$"):
            transfer_matrix(random_cptp_channel(rng_for(1), 3, 6), QUTRIT, prod)
        with pytest.raises(UnrepresentableAlgebraError, match=f"^{NOT_DIAGONAL}$"):
            wigner_vector(random_density(rng_for(3), 6), prod)
        weights = np.arange(1.0, 7.0) / 21.0
        got = wigner_vector(DensityMatrix(np.diag(weights)), prod).weights
        assert got.tobytes() == weights.tobytes()

    def test_matches_the_dense_formula(self):
        # conj(F) vec(rho) / c, the frame matrix read densely, as an independent oracle
        rng = rng_for(98)
        frames = [*map(phase_point_operators, range(1, 27, 2)), *map(commutative_frame, (1, 2, 5)),
                  product_frame(QUTRIT, phase_point_operators(5)),
                  product_frame(commutative_frame(2), commutative_frame(3))]
        for frame in frames:
            d = frame.hilbert_dim
            states = [random_density(rng, d), DensityMatrix.from_ket(random_ket(rng, d))]
            if frame.algebra.kind == "commutative":
                states = [DensityMatrix(np.diag(rng.dirichlet(np.ones(d))))]
            for rho in states:
                want = frame.vectors.conj() @ rho.matrix.reshape(-1) / frame.norm_const
                got = wigner_vector(rho, frame).weights
                assert linalg.max_abs(got - want) <= 1e-15, (d, frame.algebra.kind)


class TestTransferMatrix:
    def test_identity_channel(self):
        t = transfer_matrix(Channel.identity(3), QUTRIT, QUTRIT)
        assert linalg.max_abs(t - np.eye(9)) < 1e-10

    def test_depolarizing_columns_uniform(self):
        # completely depolarizing: one Kraus operator |i><j| / sqrt(3) per (i, j)
        depolarizing = Channel(np.eye(9, dtype=complex).reshape(9, 3, 3) / np.sqrt(3))
        t = transfer_matrix(depolarizing, QUTRIT, QUTRIT)
        assert linalg.max_abs(t - 1.0 / 9.0) < 1e-10

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_displacement_is_permutation(self, n):
        frame = phase_point_operators(n)
        for a in range(n):
            for b in range(n):
                t = transfer_matrix(displacement_channel_oracle(n, a, b), frame, frame)
                # 0/1 entries, one 1 per column
                assert linalg.max_abs(t - np.round(t)) < 1e-9
                assert np.allclose(np.sort(t, axis=0)[-1], 1.0, atol=1e-9)
                assert np.allclose(t.sum(axis=0), 1.0, atol=1e-9)
                expected = permutation_matrix(displacement_permutation_oracle(n, a, b))
                assert linalg.max_abs(t - expected) < 1e-9

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_conjugation_permutes_frame(self, n):
        # oracle behind the permutation: D sigma_i D^dag = sigma_perm(i)
        ops = phase_point_operators(n).operators
        for a in range(n):
            for b in range(n):
                d = displacement_oracle(n, a, b)
                perm = displacement_permutation_oracle(n, a, b)
                conj = d @ ops @ d.conj().T
                assert linalg.max_abs(conj - ops[perm]) < 1e-9

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_matches_per_kraus_oracle_random(self, d):
        rng = rng_for(88, d)
        frame = phase_point_operators(d)
        for _ in range(3):
            ch = random_cptp_channel(rng, d, d)
            assert linalg.max_abs(
                transfer_matrix(ch, frame, frame) - transfer_oracle(ch, frame, frame)
            ) <= 1e-12

    def test_matches_per_kraus_oracle_padded_commutative_and_product(self):
        rng = rng_for(89)
        padded = odd_embedding(random_cptp_channel(rng, 2, 4))
        meas = measurement_channel(random_effect(rng, 3))
        pair = tensor(random_cptp_channel(rng, 3, 3), random_cptp_channel(rng, 3, 3))
        prod = product_frame(QUTRIT, QUTRIT)
        cases = (
            (padded, QUTRIT, phase_point_operators(5)),
            (meas, QUTRIT, commutative_frame(2)),
            (pair, prod, prod),
        )
        for ch, fin, fout in cases:
            assert linalg.max_abs(
                transfer_matrix(ch, fin, fout) - transfer_oracle(ch, fin, fout)
            ) <= 1e-12

    @pytest.mark.parametrize("frame, blocks, width, given", [
        (phase_point_operators(1), 1, 1, False),
        *((phase_point_operators(n), n, n, False) for n in (3, 5, 25)),
        *((commutative_frame(k), k, 1, False) for k in (2, 5)),
        (product_frame(QUTRIT, phase_point_operators(5)), 1, 225, True),
        # a commutative frame from the constructor reads its diagonal only
        (product_frame(commutative_frame(2), commutative_frame(3)), 1, 6, True),
    ], ids=["pp1", "pp3", "pp5", "pp25", "c2", "c5", "prod3x5", "prodc2xc3"])
    def test_factor_form_rebuilds_the_frame_matrix_bit_for_bit(self, frame, blocks, width, given):
        d = frame.hilbert_dim
        phi, (rows, cols), n = frame._form
        assert phi.shape == (frame.n_points // blocks, width) and n == blocks * width
        rebuilt = np.zeros_like(frame.vectors)
        read = (rows * d + cols)[:n].reshape(blocks, width)
        for b in range(blocks):
            rebuilt[b * phi.shape[0]:(b + 1) * phi.shape[0], read[b]] = phi
        assert rebuilt.tobytes() == frame.vectors.tobytes()
        # every vec entry once, read or not
        assert np.array_equal(np.sort(rows * d + cols), np.arange(d * d))
        # a builder's phi is its own copy; a frame given as operators keeps a view of vectors
        assert np.shares_memory(phi, frame.vectors) == given

    @pytest.mark.parametrize("case, message", [
        pytest.param("phi-entry-moved", "not Hermitian", id="phi-entry-moved"),
        # refused by name before the scattered operators are read (they read as not Hermitian)
        pytest.param("read-repeated", "^frame form reads a vec entry more than once$",
                     id="read-repeated"),
        pytest.param("phi-row-repeated", "^frame operators are not trace-orthogonal$",
                     id="phi-row-repeated"),
    ])
    def test_a_form_built_frame_is_checked_densely(self, case, message):
        # the form a builder states is held only once its operators pass the checks
        n = 5
        y = np.arange(n)
        q = p = y[:, None]
        read = (q + y) % n * n + (q - y) % n
        phi = np.exp(2j * np.pi * ((2 * p * y) % n) / n)
        exact = WignerFrame._of_form(matrix_algebra(n), read, phi, float(n), phase_space(n))
        assert exact.operators.tobytes() == phase_point_operators(n).operators.tobytes()
        if case == "phi-entry-moved":
            phi[2, 3] += 1e-6
        elif case == "read-repeated":
            read[0, 1] = read[0, 0]
        else:
            # every operator is still a phase-point operator, so the Gram alone fails
            phi[1] = phi[0]
        with pytest.raises(VerificationFailedError, match=message):
            WignerFrame._of_form(matrix_algebra(n), read, phi, float(n), phase_space(n))

    def test_every_frame_holds_its_form_from_construction(self):
        frames = [phase_point_operators.__wrapped__(5), commutative_frame.__wrapped__(3),
                  product_frame(QUTRIT, QUTRIT),
                  WignerFrame(matrix_algebra(3), QUTRIT.operators, 3.0, QUTRIT.space)]
        for frame in frames:
            # no transfer has run on these uncached frames
            assert "_form" in frame.__dict__ and frame._offsets == {}

    @pytest.mark.parametrize("build", [
        lambda: product_frame(QUTRIT, phase_point_operators(5)),
        lambda: product_frame(commutative_frame(2), commutative_frame(3)),
        lambda: perturbed(QUTRIT, 1e-12, rng_for(63)),
    ], ids=["prod3x5", "prodc2xc3", "perturbed3"])
    def test_the_gram_of_a_frame_given_as_operators_is_the_dense_one(self, build):
        # its one block's phi is the frame matrix, so phi phi^dag is F F^dag itself
        frame = build()
        assert frame.residuals.gram == dense_gram_residual(frame)

    @pytest.mark.parametrize("n", range(3, 27, 2))
    def test_the_gram_of_a_phase_point_form_is_the_dense_one_within_its_widening(self, n):
        # phi phi^dag sums the same d products as F F^dag, perhaps in another order
        frame = phase_point_operators(n)
        widening = frame._exact_residuals.gram - frame.residuals.gram
        assert abs(frame.residuals.gram - dense_gram_residual(frame)) <= 2 * widening

    @pytest.mark.parametrize("n", [3, 5, 7, 25])
    def test_phase_point_form_is_the_permuted_dft(self, n):
        # block q reads the entries (q + y, q - y), and phi[p, y] = omega^{2py}
        phi, (rows, cols), n_read = phase_point_operators(n)._form
        q, p, y = np.arange(n)[:, None], np.arange(n)[:, None], np.arange(n)
        assert n_read == n * n
        assert np.array_equal(rows.reshape(n, n), (q + y) % n)
        assert np.array_equal(cols.reshape(n, n), (q - y) % n)
        assert phi.tobytes() == np.exp(2j * np.pi * ((2 * p * y) % n) / n).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(range(1, 26, 2)),
           st.integers(min_value=1, max_value=4),
           st.sampled_from(["matrix", "commutative", "unit"]), st.sampled_from(["matrix", "unit"]))
    def test_routine_matches_the_dense_formula(self, seed, d, count, out_kind, in_kind):
        in_frame = phase_point_operators(d) if in_kind == "matrix" else commutative_frame(1)
        out_frame = {
            "matrix": phase_point_operators(d),
            "commutative": commutative_frame(max(d // 5, 2)),
            "unit": commutative_frame(1),
        }[out_kind]
        ch = channel_with_at_least(rng_for(seed), in_frame.hilbert_dim, out_frame.hilbert_dim, count)
        assert_transfer_matches_dense(ch, in_frame, out_frame)

    @pytest.mark.parametrize("m, n", [(3, 3), (3, 5)])
    def test_routine_matches_the_dense_formula_on_product_frames(self, m, n):
        rng = rng_for(94, m, n)
        prod = product_frame(phase_point_operators(m), phase_point_operators(n))
        for count in (1, 4):
            for in_frame, out_frame in ((prod, prod), (prod, phase_point_operators(m * n)),
                                        (commutative_frame(1), prod), (prod, commutative_frame(3))):
                ch = channel_with_at_least(rng, in_frame.hilbert_dim, out_frame.hilbert_dim, count)
                assert_transfer_matches_dense(ch, in_frame, out_frame)

    @pytest.mark.parametrize("d", [3, 5])
    def test_routine_matches_the_dense_formula_on_a_rotated_frame(self, d):
        # U s U^dag of the phase-point operators is a frame through the public
        # constructor, with dense operators and so no block structure
        rng = rng_for(95, d)
        u = random_unitary(rng, d)
        rotated = WignerFrame(matrix_algebra(d), u @ phase_point_operators(d).operators @ u.conj().T,
                              float(d), phase_space(d))
        assert np.shares_memory(rotated._form[0], rotated.vectors)
        for count in (1, 2, 4):
            for in_frame, out_frame in ((rotated, rotated), (phase_point_operators(d), rotated),
                                        (rotated, commutative_frame(2))):
                ch = channel_with_at_least(rng, d, out_frame.hilbert_dim, count)
                assert_transfer_matches_dense(ch, in_frame, out_frame)

    def test_the_public_constructor_gives_one_block_with_the_form_built_transfers(self):
        # the phase-point operators through the constructor: no form is inferred from them
        rng = rng_for(96)
        built = phase_point_operators(5)
        dense = WignerFrame(matrix_algebra(5), built.operators, 5.0, phase_space(5))
        assert np.shares_memory(dense._form[0], dense.vectors) and dense._form[2] == 25
        for count in (1, 4):
            for in_frame, out_frame in ((dense, dense), (dense, commutative_frame(2))):
                ch = channel_with_at_least(rng, 5, out_frame.hilbert_dim, count)
                t, unread = through_frames(ch, in_frame, out_frame)
                want, want_unread = through_frames(
                    ch, built, built if out_frame is dense else out_frame
                )
                assert linalg.max_abs(t - want) <= 1e-13 and abs(unread - want_unread) <= 1e-13

    def test_measurement_channel_columns_sum_to_one(self):
        rng = rng_for(82)
        effect = random_effect(rng, 3)
        ch = measurement_channel(effect)
        t = transfer_matrix(ch, QUTRIT, commutative_frame(2))
        assert t.shape == (2, 9)
        assert np.allclose(t.sum(axis=0), 1.0, atol=1e-8)


# channels of each kind from C^d to C^e, where the kind has one
AGREEMENT_CHANNELS = {
    "identity": lambda rng, d, e: Channel.identity(d) if e == d else None,
    "cptp": random_cptp_channel,
    "measurement": lambda rng, d, e: measurement_channel(random_effect(rng, d)) if e == 2 else None,
    # an even channel embedded in odd endpoints; C^1 is odd already
    "pad_odd": lambda rng, d, e: (odd_embedding(random_cptp_channel(rng, d - 1, max(e - 1, 1)))
                                  if e % 2 else None),
}
AGREEMENT_ENDPOINTS = [*map(matrix_algebra, (3, 5, 7)), *map(commutative_algebra, (1, 2, 3))]
AGREEMENT_CASES = [
    pytest.param(kind, d, algebra, id=f"{kind}-{d}-{algebra.kind[0]}{algebra.dim}")
    for kind, build in AGREEMENT_CHANNELS.items()
    for d in (3, 5, 7)
    for algebra in AGREEMENT_ENDPOINTS
    if build(rng_for(0), d, algebra.dim) is not None
]


@pytest.mark.parametrize("kind, d, algebra", AGREEMENT_CASES)
def test_transfer_matrix_is_the_functor_morphism_matrix(kind, d, algebra):
    # one checked routine behind both names: the same bytes, or the same error
    ch = AGREEMENT_CHANNELS[kind](rng_for(97, d, algebra.dim), d, algebra.dim)
    in_frame, out_frame = frame_for(matrix_algebra(d)), frame_for(algebra)
    builder = phase_point_operators if algebra.kind == "matrix" else commutative_frame
    assert (in_frame, out_frame) == (phase_point_operators(d), builder(algebra.dim))

    def outcome(call):
        try:
            return call().tobytes()
        except OntokitError as exc:
            return type(exc), str(exc)

    got = outcome(lambda: transfer_matrix(ch, in_frame, out_frame))
    assert got == outcome(lambda: functor_morphism(ch, algebra).matrix)
    # only an output off the diagonal of C^k, k >= 2, is refused
    if algebra.kind == "commutative" and algebra.dim > 1 and kind != "measurement":
        message = "channel output is not diagonal; not a morphism into C^k"
        assert got == (UnrepresentableAlgebraError, message)
    else:
        assert isinstance(got, bytes)


AGREEMENT_STATES = {
    "maximally-mixed": lambda rng, d: DensityMatrix(np.eye(d) / d),
    "diagonal": lambda rng, d: DensityMatrix(np.diag(rng.dirichlet(np.ones(d)))),
    "random": random_density,
    "ket": lambda rng, d: DensityMatrix.from_ket(random_ket(rng, d)),
    "anti-hermitian-part": lambda rng, d: DensityMatrix(
        _with_anti_hermitian_part(d) if d > 1 else np.eye(1)),
}


@pytest.mark.parametrize("kind", list(AGREEMENT_STATES))
@pytest.mark.parametrize("algebra", AGREEMENT_ENDPOINTS, ids=lambda a: f"{a.kind[0]}{a.dim}")
def test_state_map_is_the_morphism_map_of_the_preparation(kind, algebra):
    # a state is a morphism from the unit object: the same image, or the same error
    rho = AGREEMENT_STATES[kind](rng_for(100, algebra.dim), algebra.dim)

    def outcome(call):
        try:
            return call()
        except OntokitError as exc:
            return type(exc), str(exc)

    got = outcome(lambda: wigner_vector(rho, frame_for(algebra)).weights)
    want = outcome(lambda: functor_morphism(preparation_channel(rho), algebra).matrix[:, 0])
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert linalg.max_abs(got - want) < 1e-10
    # only a state off the diagonal of C^k, k >= 2, is refused
    refused = algebra.kind == "commutative" and algebra.dim > 1 and kind in ("random", "ket")
    assert isinstance(got, tuple) == refused


class TestFunctorObject:
    # the object map: an algebra goes to the point set of its frame
    def test_matrix_algebra(self):
        assert frame_for(matrix_algebra(3)).space.size == 9

    def test_distinguished_and_unit(self):
        assert frame_for(commutative_algebra(2)).space == TWO
        assert frame_for(commutative_algebra(1)).space == UNIT_SPACE

    def test_even_pads_first(self):
        # an even matrix algebra has no frame; its odd embedding has one more dimension
        message = "dimension 4 is even: embed it in an odd dimension or annotate a commutative algebra"
        with pytest.raises(UnrepresentableAlgebraError, match=f"^{message}$"):
            frame_for(matrix_algebra(4))
        assert frame_for(matrix_algebra(5)).space.size == 25


class TestFunctorMorphism:
    def test_identity_maps_to_identity_kernel(self):
        k = functor_morphism(Channel.identity(3))
        assert linalg.max_abs(k.matrix - np.eye(9)) < 1e-10

    def test_evaluation_preserves_born(self):
        rng = rng_for(83)
        for _ in range(10):
            rho = random_density(rng, 3)
            effect = random_effect(rng, 3)
            prep = preparation_channel(rho)
            meas = measurement_channel(effect)
            k_state = functor_morphism(prep)
            k_meas = functor_morphism(meas, out_algebra=commutative_algebra(2))
            composite = kcompose(k_meas, k_state)
            from ontokit.kernels import Distribution

            classical = evaluate(Distribution(TWO, composite.matrix[:, 0]))
            quantum = float(np.trace(effect.effect @ rho.matrix).real)
            assert abs(classical - quantum) < 1e-8

    def test_functoriality_random_channel_pairs(self):
        rng = rng_for(84)
        for _ in range(20):
            f = random_cptp_channel(rng, 3, 3)
            g = random_cptp_channel(rng, 3, 3)
            lhs = functor_morphism(compose(g, f)).matrix
            rhs = kcompose(functor_morphism(g), functor_morphism(f)).matrix
            assert linalg.max_abs(lhs - rhs) < 1e-8

    def test_functoriality_through_measurement(self):
        rng = rng_for(85)
        f = random_cptp_channel(rng, 3, 3)
        meas = measurement_channel(random_effect(rng, 3))
        lhs = functor_morphism(
            compose(meas, f), out_algebra=commutative_algebra(2)
        ).matrix
        rhs = kcompose(
            functor_morphism(meas, out_algebra=commutative_algebra(2)),
            functor_morphism(f),
        ).matrix
        assert linalg.max_abs(lhs - rhs) < 1e-8

    def test_state_map_is_wigner_vector(self):
        rng = rng_for(86)
        rho = random_density(rng, 3)
        k = functor_morphism(preparation_channel(rho))
        v = wigner_vector(rho, QUTRIT)
        assert linalg.max_abs(k.matrix[:, 0] - v.weights) < 1e-10

    @pytest.mark.parametrize("call, column, bound", [
        (lambda: functor_morphism(Channel.identity(3)), [1.5, -0.5], "1.0"),
        (lambda: transfer_matrix(Channel.identity(3), QUTRIT, QUTRIT), [1.5, -0.5], "1.0"),
        (lambda: functor_morphism(preparation_channel(DensityMatrix(np.eye(3) / 3))), [0.5, 0.5],
         "0.3333333333333333"),
    ], ids=["functor_morphism", "transfer_matrix", "preparation"])
    def test_entry_bound_verified(self, monkeypatch, call, column, bound):
        # |Tr(s_a F(s_b))| <= ||s_a||_inf ||s_b||_1 bounds the entries by c_in / c_out:
        # 1 for like frames, 1/3 from C into the qutrit frame
        def image(pairs, fin, fout):
            t = np.eye(fout.n_points, fin.n_points)
            t[:2, 0] = column
            return t

        monkeypatch.setattr(wigner, "_image", image)
        largest = f"{max(map(abs, column)):.6f}"
        with pytest.raises(VerificationFailedError, match=f"entry magnitude {largest} exceeds bound {bound}$"):
            call()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 2, 3, 5, 7]),
           st.integers(min_value=1, max_value=4), st.booleans())
    def test_kernel_equals_the_checked_transfer_bit_for_bit(self, seed, dim, count, commutative):
        # a d = 2 channel is embedded in d = 3; a commutative output is a measurement after it
        rng = rng_for(seed)
        ch = odd_embedding(kraus_channel(rng, dim, dim, count))
        out_algebra = matrix_algebra(ch.out_dim)
        if commutative:
            ch = compose(measurement_channel(random_effect(rng, ch.out_dim)), ch)
            out_algebra = commutative_algebra(2)
        in_frame, out_frame = frame_for(matrix_algebra(ch.in_dim)), frame_for(out_algebra)
        want = SignedKernel(in_frame.space, out_frame.space, transfer_matrix(ch, in_frame, out_frame))
        got = functor_morphism(ch, out_algebra)
        assert (got.source, got.target) == (want.source, want.target)
        assert got.matrix.shape == want.matrix.shape
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.markov == want.markov

    @pytest.mark.parametrize("drift, call, message", [
        (5e-9, functor_morphism, "column sums deviate from 1 by 5.000e-09"),  # within DERIVED_TOL
        (5e-8, functor_morphism, "column sums deviate from 1 by 5.000e-08"),  # the kernel's one gate
        (5e-8, lambda ch: transfer_matrix(ch, QUTRIT, QUTRIT), "column sums deviate from 1 by 5.000e-08"),
    ], ids=["kernel-columns", "kernel-columns-past-derived-tol", "transfer-columns"])
    def test_drifting_columns_raise_the_kernel_and_transfer_errors(self, monkeypatch, drift, call, message):
        # scaling the transfer scales every column sum by 1 + drift
        image = wigner._image
        monkeypatch.setattr(wigner, "_image",
                            lambda pairs, fin, fout: image(pairs, fin, fout) * (1.0 + drift))
        with pytest.raises(VerificationFailedError, match=f"^{message}$"):
            call(Channel.identity(3))

    def test_kernel_is_validated_once_and_held_contiguous_and_read_only(self, monkeypatch):
        rng = rng_for(87)
        post_init = SignedKernel.__post_init__
        calls = []
        monkeypatch.setattr(SignedKernel, "__post_init__",
                            lambda self: calls.append(self) or post_init(self))
        f = random_cptp_channel(rng, 5, 5)
        meas = measurement_channel(random_effect(rng, 5))
        kernels = [functor_morphism(f), functor_morphism(meas, commutative_algebra(2))]
        # one pass through the public constructor's checks per kernel
        assert calls == kernels
        for k in kernels:
            assert k.matrix.dtype == np.float64 and k.matrix.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                k.matrix[0, 0] = 0.5

    @pytest.mark.parametrize("call", [
        functor_morphism, lambda ch: transfer_matrix(ch, *[phase_point_operators(7)] * 2),
    ], ids=["functor_morphism", "transfer_matrix"])
    def test_kernel_column_failure_is_a_verification_failure(self, call):
        # K = sqrt(I + 9e-10 s) passes Channel's Kraus-sum check (error 9.0e-10),
        # but its columns sum to 1 + 6.3e-09, outside the IDENTITY_TOL of every
        # SignedKernel, which both names build
        s = phase_point_operators(7).operators[10]
        w, v = np.linalg.eigh(np.eye(7) + 9e-10 * s)
        ch = Channel(((v * np.sqrt(w)) @ v.conj().T,))
        with pytest.raises(VerificationFailedError, match="^column sums deviate from 1 by 6.300e-09$"):
            call(ch)

    def test_transfer_into_c2_refuses_an_off_diagonal_output(self):
        # the image of a random qutrit-to-qubit channel has an off-diagonal entry of 0.904
        ch = random_cptp_channel(rng_for(1), 3, 2)
        message = f"^{NOT_DIAGONAL}$"
        with pytest.raises(UnrepresentableAlgebraError, match=message):
            functor_morphism(ch, commutative_algebra(2))
        with pytest.raises(UnrepresentableAlgebraError, match=message):
            transfer_matrix(ch, QUTRIT, commutative_frame(2))
        assert through_frames(ch, QUTRIT, commutative_frame(2))[1] > 0.9

    def test_mismatched_dimensions(self):
        five = phase_point_operators(5)
        with pytest.raises(DimMismatchError, match="channel endpoints do not match the frames"):
            transfer_matrix(Channel.identity(3), five, QUTRIT)
        with pytest.raises(DimMismatchError, match="channel endpoints do not match the frames"):
            transfer_matrix(Channel.identity(3), QUTRIT, five)
        with pytest.raises(DimMismatchError, match="state dimension does not match the frame"):
            wigner_vector(DensityMatrix(np.eye(3) / 3), five)
        with pytest.raises(DimMismatchError, match="do not match the annotated algebras"):
            functor_morphism(Channel.identity(3), out_algebra=commutative_algebra(2))

    def test_rejects_even_unannotated(self):
        message = "dimension 2 is even: embed it in an odd dimension or annotate a commutative algebra"
        with pytest.raises(UnrepresentableAlgebraError, match=f"^{message}$"):
            functor_morphism(Channel.identity(2))

    def test_rejects_nondiagonal_into_commutative(self):
        # identity on M3 does not land in the diagonal subalgebra
        with pytest.raises(UnrepresentableAlgebraError):
            functor_morphism(Channel.identity(3), out_algebra=commutative_algebra(3))


def pad_density(rho):
    """A state embedded in the top-left corner of one more dimension."""
    m = np.zeros((rho.dim + 1, rho.dim + 1), dtype=complex)
    m[: rho.dim, : rho.dim] = rho.matrix
    return DensityMatrix(m)


def random_orthogonal_pair(rng, dim):
    """Haar ket plus a Haar direction of its orthocomplement."""
    psi = random_ket(rng, dim)
    raw = random_ket(rng, dim)
    perp = raw - np.vdot(psi, raw) * psi
    while np.linalg.norm(perp) < DEGENERATE_DRAW_EPS:
        raw = random_ket(rng, dim)
        perp = raw - np.vdot(psi, raw) * psi
    return psi, perp / np.linalg.norm(perp)


class TestPadding:
    def test_pad_density(self):
        padded = pad_density(DensityMatrix.from_ket([1, 0]))
        assert linalg.max_abs(padded.matrix - np.diag([1.0, 0.0, 0.0])) == 0

    def test_pad_preserves_born(self):
        rng = rng_for(87)
        for _ in range(50):
            psi = random_ket(rng, 2)
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(g)
            basis = np.zeros((3, 3), dtype=complex)
            basis[:2, :2] = q.T
            basis[2, 2] = 1.0
            m2 = ProjectiveMeasurement(q.T)
            m3 = ProjectiveMeasurement(basis)
            rho2 = DensityMatrix.from_ket(psi)
            rho3 = pad_density(rho2)
            for k in range(2):
                assert abs(born(rho2, m2, k) - born(rho3, m3, k)) < 1e-10
            assert born(rho3, m3, 2) < 1e-10

    def test_pad_commutes_with_composition(self):
        rng = rng_for(88)
        f = random_cptp_channel(rng, 2, 2)
        g = random_cptp_channel(rng, 2, 2)
        lhs = odd_embedding(compose(g, f))
        rhs = compose(odd_embedding(g), odd_embedding(f))
        for i in range(3):
            for j in range(3):
                e = np.zeros((3, 3), dtype=complex)
                e[i, j] = 1
                a = sum(k @ e @ k.conj().T for k in lhs.kraus)
                b = sum(k @ e @ k.conj().T for k in rhs.kraus)
                assert linalg.max_abs(a - b) < 1e-9

    def test_pad_intertwines_action(self):
        rng = rng_for(89)
        f = random_cptp_channel(rng, 2, 2)
        rho = random_density(rng, 2)
        lhs = pad_density(apply_channel(f, rho))
        rhs = apply_channel(odd_embedding(f), pad_density(rho))
        assert linalg.max_abs(lhs.matrix - rhs.matrix) < 1e-10

    def test_padded_functor_composes(self):
        rng = rng_for(90)
        f = random_cptp_channel(rng, 2, 2)
        g = random_cptp_channel(rng, 2, 2)
        lhs = functor_morphism(odd_embedding(compose(g, f))).matrix
        rhs = kcompose(functor_morphism(odd_embedding(g)), functor_morphism(odd_embedding(f))).matrix
        assert linalg.max_abs(lhs - rhs) < 1e-8


class TestMonoidality:
    def test_a_certified_frame_is_freed_with_its_last_reference(self, monkeypatch):
        # the certificate's bounds are kept on each factor frame, not in a cache keyed
        # by it, so a frame the frame cache has let go of is freed
        refs = []

        def build(n):
            frame = phase_point_operators.__wrapped__(n)  # uncached
            refs.append(weakref.ref(frame))
            return frame

        monkeypatch.setattr(wigner, "phase_point_operators", build)
        assert monoidality_check(9, 3).frame_ok
        gc.collect()
        assert len(refs) == 2 and [ref() for ref in refs] == [None, None]

    def test_product_frame_conditions(self):
        prod = product_frame(QUTRIT, QUTRIT)
        assert prod.operators.shape == (81, 9, 9)
        assert prod.norm_const == 9.0

    def test_identity_tensor_identity(self):
        prod = product_frame(QUTRIT, QUTRIT)
        t = transfer_matrix(
            tensor(Channel.identity(3), Channel.identity(3)), prod, prod
        )
        assert linalg.max_abs(t - np.eye(81)) < 1e-9

    def test_trials_seed_and_tolerance_decide_nothing(self):
        # they are admitted and echoed for the benchmark's reports, and that is all
        rep = monoidality_check(3, 3, trials=5, seed=13, tol=1e-300)
        assert (rep.trials, rep.seed, rep.tolerance) == (5, 13, 1e-300)
        assert rep.frame_ok == monoidality_check(3, 3).frame_ok and rep.passed
        assert rep.max_transfer_residual == 0.0

    def test_transfer_factorises_at_five_by_seven(self):
        rep = monoidality_check(5, 7, 1, seed=17)
        assert rep.frame_ok and rep.passed

    @pytest.mark.parametrize("d", range(3, 32, 2))
    def test_frame_ok_for_every_odd_dimension(self, d):
        # the certificate alone, as frame_ok decides it
        frame = phase_point_operators(d)
        wigner._check_residuals(wigner._product_residuals(frame, frame), "matrix",
                                frame.norm_const ** 2)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (3, 1), (1, 5)])
    def test_one_point_frame_is_the_tensor_unit(self, m, n):
        # F(C (x) H) = F(C) x F(H): the unit law of the monoidal functor
        rep = monoidality_check(m, n, 3, seed=23)
        assert rep.frame_ok and rep.passed
        fa, fb = phase_point_operators(m), phase_point_operators(n)
        f, g = factor_pair(fa, fb, 23)
        assert dense_residual(tensor(f, g), f, g, fa, fb) <= 1e-15

    @pytest.mark.parametrize("n", [3, 5])
    def test_unit_product_frame_is_the_other_factor(self, n):
        for prod in (product_frame(phase_point_operators(1), phase_point_operators(n)),
                     product_frame(phase_point_operators(n), phase_point_operators(1))):
            assert prod.algebra == matrix_algebra(n)
            assert prod.operators.shape == phase_point_operators(n).operators.shape
            assert prod.operators.tobytes() == phase_point_operators(n).operators.tobytes()

    def test_mixed_kinds_above_dimension_one_are_refused(self):
        with pytest.raises(UnrepresentableAlgebraError, match="cannot tensor frames of different kinds"):
            product_frame(commutative_frame(2), QUTRIT)
        with pytest.raises(UnrepresentableAlgebraError, match="cannot tensor frames of different kinds"):
            wigner._product_residuals(QUTRIT, commutative_frame(2))

    def test_product_frame_transfer_matches_per_kraus_oracle(self):
        prod = product_frame(QUTRIT, phase_point_operators(5))
        ch = random_cptp_channel(rng_for(93), 15, 15)
        assert linalg.max_abs(
            transfer_matrix(ch, prod, prod) - transfer_oracle(ch, prod, prod)
        ) <= 1e-12


def product_operators(fa, fb):
    """{s (x) t} in (a, b) point order, as one einsum of the factor stacks."""
    d = fa.hilbert_dim * fb.hilbert_dim
    return np.einsum("akl,bmn->abkmln", fa.operators, fb.operators).reshape(-1, d, d)


def perturbed(frame, size, rng):
    """The frame with every entry moved by at most ``size``, densely re-verified."""
    ops = frame.operators
    noise = rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape)
    noise *= size / np.abs(noise).max()
    return WignerFrame(frame.algebra, ops + noise, frame.norm_const, frame.space)


def assert_bounds_cover(bounds, measured):
    for f in fields(FrameResiduals):
        assert getattr(bounds, f.name) >= getattr(measured, f.name), f.name


FACTORS = {
    "3x3": lambda: (phase_point_operators(3), phase_point_operators(3)),
    "3x5": lambda: (phase_point_operators(3), phase_point_operators(5)),
    "5x5": lambda: (phase_point_operators(5), phase_point_operators(5)),
    "5x7": lambda: (phase_point_operators(5), phase_point_operators(7)),
    "c2xc3": lambda: (commutative_frame(2), commutative_frame(3)),
    # the one-point frame is the tensor unit of either kind
    "1x3": lambda: (phase_point_operators(1), phase_point_operators(3)),
    "5x1": lambda: (phase_point_operators(5), phase_point_operators(1)),
}


def hermitian_break(size):
    """The qutrit frame with the unit entry (1, 2) of A_(0,0) moved by ``size``,
    which breaks Hermiticity by ``size`` yet passes the frame checks."""
    ops = QUTRIT.operators.copy()
    ops[0, 1, 2] += size
    return WignerFrame(matrix_algebra(3), ops, 3.0, QUTRIT.space)


class TestProductFrameBounds:
    @pytest.mark.parametrize("pair", list(FACTORS))
    def test_operators_are_the_einsum_products(self, pair):
        fa, fb = FACTORS[pair]()
        prod = product_frame(fa, fb)
        einsum = product_operators(fa, fb)
        # bit-equal, signed zeros included
        assert prod.vectors.tobytes() == einsum.tobytes()
        assert prod.vectors.shape == (fa.n_points * fb.n_points, einsum.shape[1] ** 2)

    def test_bounds_of_a_product_of_products_cover_the_dense_residuals(self):
        rng = rng_for(62)
        inner = product_frame(perturbed(QUTRIT, 1e-12, rng), perturbed(QUTRIT, 1e-12, rng))
        outer_factor = perturbed(QUTRIT, 1e-12, rng)
        assert_bounds_cover(
            wigner._product_residuals(inner, outer_factor),
            product_frame(inner, outer_factor).residuals,
        )

    def test_dense_check_refuses_a_product_past_the_tolerance(self):
        # 6e-11 per factor, 1.2e-10 in the product
        factor = hermitian_break(6e-11)
        assert factor.residuals.hermitian <= TIGHT_IDENTITY_TOL
        with pytest.raises(VerificationFailedError, match="not Hermitian: 1.2"):
            product_frame(factor, factor)

    def test_certificate_refuses_what_the_dense_check_refuses(self, monkeypatch):
        factor = hermitian_break(6e-11)
        monkeypatch.setattr(wigner, "phase_point_operators", lambda n: factor)
        rep = monoidality_check(3, 3, 1, 0)
        # the layout bound reads no frame and passes: only the certificate sees the fault
        assert not rep.frame_ok and not rep.passed
        assert rep.max_transfer_residual <= rep.tolerance

    @pytest.mark.parametrize("size", [0.0, 1e-13, 1e-12, 1e-11])
    @pytest.mark.parametrize("pair", list(FACTORS))
    def test_helper_bounds_cover_the_product_frame_residuals(self, pair, size):
        # the bounds are on the exact products; product_frame measures its
        # rounded einsum products, and the bounds cover that too
        fa, fb = FACTORS[pair]()
        cases = [(fa, fb)]
        if size:
            # three draws, one at 5x7, whose dense check takes about 0.5 s
            seeds = range(1 if pair == "5x7" else 3)
            rngs = [rng_for(61, fa.n_points, fb.n_points, seed) for seed in seeds]
            cases = [(perturbed(fa, size, rng), perturbed(fb, size, rng)) for rng in rngs]
        for pa, pb in cases:
            assert_bounds_cover(wigner._product_residuals(pa, pb), product_frame(pa, pb).residuals)

    def test_product_frames_are_read_only(self):
        prod = product_frame(QUTRIT, QUTRIT)
        for array in (prod.operators, prod.vectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 2.0

    def test_transfer_factorises_at_seven_by_seven(self):
        rep = monoidality_check(7, 7, 1, seed=19)
        assert rep.frame_ok and rep.passed


class TestProductFrameTooLarge:
    def test_failed_allocation_is_too_large(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(wigner.np, "einsum", refuse)
        with pytest.raises(TooLargeError, match=(
            f"m = 3, n = 5 is 225 operators of 15 x 15 complex entries, {16 * 15 ** 4} bytes, "
            "which could not be allocated"
        )):
            product_frame(QUTRIT, phase_point_operators(5))

    def test_product_numpy_cannot_index_refused_before_allocation(self, monkeypatch):
        # 16 (n^2)^4 > 2^63 - 1 at n = 201; the factors are zero-stride views
        # standing in for frames that would not fit in memory either
        monkeypatch.setattr(wigner.np, "einsum", None)
        n = 201
        factor = object.__new__(WignerFrame)  # past the constructor, which would check them
        object.__setattr__(factor, "operators",
                           np.broadcast_to(np.zeros((), dtype=complex), (n * n, n, n)))
        with pytest.raises(TooLargeError, match=(
            f"m = {n}, n = {n} is {n ** 4} operators of {n * n} x {n * n} complex entries, "
            f"{16 * n ** 8} bytes, more than numpy can index"
        )):
            product_frame(factor, factor)


class TestTransferTooLarge:
    """numpy's MemoryError in a transfer, in its image or in its entry bound, is a
    TooLargeError naming the transfer and its bytes, from both Wigner maps."""

    QUTRIT_TRANSFER = ("^a transfer from 9 to 9 points is 9 x 9 real entries, 648 bytes, "
                       "which could not be computed in the memory available$")

    @pytest.mark.parametrize("caller", ["_image", "_kernel"])
    @pytest.mark.parametrize("transfer", [
        functor_morphism, lambda ch: transfer_matrix(ch, QUTRIT, QUTRIT),
    ], ids=["functor_morphism", "transfer_matrix"])
    def test_failed_allocation_is_too_large(self, monkeypatch, caller, transfer):
        # max_abs refuses only the calls made in `caller`: the image's imaginary-part
        # check, or the kernel's entry bound
        ch = random_cptp_channel(rng_for(71), 3, 3)
        max_abs = linalg.max_abs

        def refuse(a):
            if sys._getframe(1).f_code.co_name == caller:
                raise MemoryError("Unable to allocate")
            return max_abs(a)

        monkeypatch.setattr(wigner.linalg, "max_abs", refuse)
        with pytest.raises(TooLargeError, match=self.QUTRIT_TRANSFER) as info:
            transfer(ch)
        assert isinstance(info.value.__cause__, MemoryError)

    def test_address_space_limit_is_too_large(self):
        # a child process builds the d = 31 frame and a channel, then lowers its address
        # space to what it holds plus 4 MiB, which the transfer's 961 x 961 arrays exceed
        child = "\n".join([
            "import resource",
            "from ontokit.sampling import random_cptp_channel, rng_for",
            "from ontokit.wigner import functor_morphism, phase_point_operators",
            "functor_morphism(random_cptp_channel(rng_for(1), 3, 3))  # BLAS is warmed up",
            "phase_point_operators(31)",
            "ch = random_cptp_channel(rng_for(1), 31, 31)",
            "vm = next(int(line.split()[1]) for line in open('/proc/self/status')",
            "          if line.startswith('VmSize:'))",
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]",
            "resource.setrlimit(resource.RLIMIT_AS, ((vm + 4096) * 1024, hard))",
            "try:",
            "    functor_morphism(ch)",
            "except Exception as exc:",
            "    print(f'{type(exc).__name__}: {exc}')",
        ])
        src = pathlib.Path(wigner.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                             text=True, timeout=120)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == (
            "TooLargeError: a transfer from 961 to 961 points is 961 x 961 real entries, "
            f"{8 * 961 * 961} bytes, which could not be computed in the memory available\n"
        )


DENSE_PAIRS = ["3x3", "3x5", "5x5"]


def product_column(ch, fa, fb, a, b):
    """Column (a, b) of T(ch) on the product of fa and fb, shaped (points_a, points_b):
    Tr((s_i (x) t_j) ch(s_a (x) t_b)) / (c_a c_b), read off the factor operators
    with one einsum and no product frame."""
    da, db = fa.hilbert_dim, fb.hilbert_dim
    k = ch.kraus
    y = (k @ np.kron(fa.operators[a], fb.operators[b]) @ k.conj().transpose(0, 2, 1)).sum(axis=0)
    # Tr((s (x) t) Y) = sum s[p, q] t[r, u] Y[(q, u), (p, r)]
    column = np.einsum("ipq,jru,qupr->ij", fa.operators, fb.operators, y.reshape(da, db, da, db))
    assert linalg.max_abs(column.imag) <= 1e-12
    return column.real / (fa.norm_const * fb.norm_const)


def factor_pair(fa, fb, seed):
    """A seeded channel pair on the Hilbert spaces of fa and fb."""
    rng = rng_for(seed, 0)
    return (random_cptp_channel(rng, fa.hilbert_dim, fa.hilbert_dim),
            random_cptp_channel(rng, fb.hilbert_dim, fb.hilbert_dim))


def dense_residual(ch, f, g, fa, fb):
    """max |T(ch) - T(f) (x) T(g)| over the dense product transfer."""
    prod = product_frame(fa, fb)
    kron = np.kron(transfer_matrix(f, fa, fa), transfer_matrix(g, fb, fb))
    return linalg.max_abs(transfer_matrix(ch, prod, prod) - kron)


def kron_rows_swapped(a, b):
    """kron(a, b) with its row index read g-major: entry [(k, i), (j, l)] is a[i, j] b[k, l]."""
    return np.einsum("ij,kl->kijl", a, b).reshape(a.shape[0] * b.shape[0], -1)


def kron_columns_swapped(a, b):
    """kron(a, b) with its column index read g-major: entry [(i, k), (l, j)] is a[i, j] b[k, l]."""
    return np.einsum("ij,kl->iklj", a, b).reshape(a.shape[0] * b.shape[0], -1)


# product channels that keep every Kraus operator a valid one but break the
# f-major Kronecker layout that tensor promises
LAYOUT_MUTANTS = {
    "g-major": lambda f, g: Channel([np.kron(a, b) for b in g.kraus for a in f.kraus]),
    "rows-swapped": lambda f, g: Channel([kron_rows_swapped(a, b) for a in f.kraus for b in g.kraus]),
    "columns-swapped": lambda f, g: Channel(
        [kron_columns_swapped(a, b) for a in f.kraus for b in g.kraus]
    ),
    "f-conjugated": lambda f, g: Channel([np.kron(a.conj(), b) for a in f.kraus for b in g.kraus]),
    "factors-swapped": lambda f, g: tensor(g, f),
}


class TestMonoidalityLayout:
    """tensor's f-major Kronecker layout, against the per-Kraus oracle bit for
    bit and through the law T(f (x) g) = T(f) (x) T(g) on the dense product
    transfer; monoidality_check forms no product channel at all."""

    @pytest.mark.parametrize("pair", DENSE_PAIRS)
    def test_product_columns_equal_the_dense_product_transfer(self, pair):
        fa, fb = FACTORS[pair]()
        rng = rng_for(64, fa.hilbert_dim, fb.hilbert_dim)
        ch = tensor(
            random_cptp_channel(rng, fa.hilbert_dim, fa.hilbert_dim),
            random_cptp_channel(rng, fb.hilbert_dim, fb.hilbert_dim),
        )
        prod = product_frame(fa, fb)
        dense = transfer_matrix(ch, prod, prod)
        columns = np.array([
            product_column(ch, fa, fb, a, b).reshape(-1)
            for a in range(fa.n_points)
            for b in range(fb.n_points)
        ])
        assert linalg.max_abs(columns.T - dense) <= 1e-12

    @pytest.mark.parametrize("pair", DENSE_PAIRS)
    def test_law_holds_on_the_kronecker_stack(self, pair):
        fa, fb = FACTORS[pair]()
        f, g = factor_pair(fa, fb, 31)
        assert dense_residual(tensor(f, g), f, g, fa, fb) <= 1e-14

    @pytest.mark.parametrize("mutant", list(LAYOUT_MUTANTS))
    @pytest.mark.parametrize("pair", DENSE_PAIRS)
    def test_tensor_is_the_kronecker_oracle_and_no_mutant_is(self, pair, mutant):
        fa, fb = FACTORS[pair]()
        f, g = factor_pair(fa, fb, 31)
        oracle = np.array(tensor_oracle(f, g))
        # the stored stack is the float Kronecker products bit for bit
        assert tensor(f, g).kraus.tobytes() == oracle.tobytes()
        assert LAYOUT_MUTANTS[mutant](f, g).kraus.tobytes() != oracle.tobytes()

    @pytest.mark.parametrize("mutant", list(LAYOUT_MUTANTS))
    @pytest.mark.parametrize("pair", DENSE_PAIRS)
    def test_layout_mutant_fails_the_check(self, pair, mutant):
        fa, fb = FACTORS[pair]()
        f, g = factor_pair(fa, fb, 31)
        residual = dense_residual(LAYOUT_MUTANTS[mutant](f, g), f, g, fa, fb)
        if mutant == "g-major":
            # the same Kraus set in another order is the same channel: the law
            # holds, and only the layout is wrong
            assert residual <= 1e-14
        else:
            assert residual > 1e-3

    @pytest.mark.parametrize("seed", [0, 7])
    def test_report_script_law_line_reads_the_layout(self, seed):
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "wigner_functor_report.py"
        spec = importlib.util.spec_from_file_location("wigner_functor_report", script)
        report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(report)
        fa, fb = phase_point_operators(3), phase_point_operators(5)
        f, g = report.law_pair(seed)
        assert report.tensor_law(tensor(f, g), f, g, fa, fb) <= 1e-14
        assert report.tensor_law(tensor(g, f), f, g, fa, fb) > 1e-3

    def test_the_check_builds_no_channel_and_calls_no_tensor(self, monkeypatch):
        assert not {"tensor", "rng_for", "random_cptp_channel"} & set(vars(wigner))
        calls = []
        post_init = Channel.__post_init__

        def spy(self):
            calls.append("Channel")
            post_init(self)

        def recorded(name, call):
            def spy_call(*args, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)
            return spy_call

        monkeypatch.setattr(Channel, "__post_init__", spy)
        for module, name in [(quantum, "tensor"), (sampling, "random_cptp_channel"),
                             (sampling, "rng_for")]:
            monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
        rep = monoidality_check(3, 5, 4, 9)
        assert rep.passed
        assert calls == []

    def test_fifteen_by_fifteen_stays_small(self):
        # the dense product transfer would ask for 16 * 15^8 bytes, about 41 GB
        tracemalloc.start()
        try:
            rep = monoidality_check(15, 15, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert rep.frame_ok


class TestCertificateTransport:
    def test_orthogonal_pair_certificate_transfers_through_functor(self):
        """A quantum certificate maps to a kernel-side certificate: the image
        of the anti-distinguishing measurement evaluates to (0, 1) on the
        image states, because evaluation is preserved exactly."""
        rng = rng_for(92)
        for _ in range(10):
            psi, phi = random_orthogonal_pair(rng, 3)
            meas = measurement_channel(TwoOutcomeMeasurement(np.outer(phi, phi.conj())))
            k_meas = functor_morphism(meas, out_algebra=commutative_algebra(2))
            k_psi = functor_morphism(preparation_channel(DensityMatrix.from_ket(psi)))
            k_phi = functor_morphism(preparation_channel(DensityMatrix.from_ket(phi)))
            on_psi = float(kcompose(k_meas, k_psi).matrix[0, 0])
            on_phi = float(kcompose(k_meas, k_phi).matrix[0, 0])
            assert abs(on_psi) < 1e-8
            assert abs(on_phi - 1.0) < 1e-8


# odd dimensions, 9 the square of a prime: Z_9 x Z_9 is not a field's plane
COVARIANT_DIMS = [3, 5, 7, 9]


class TestDisplacementCovariance:
    """The phase-point frames are covariant: a displacement moves each point of
    phase space, so the functor sends it to a permutation, and every state and
    channel image is permuted alongside its displaced preimage."""

    @pytest.mark.parametrize("kind", list(AGREEMENT_STATES))
    @pytest.mark.parametrize("n", COVARIANT_DIMS)
    def test_state_image_is_permuted(self, n, kind):
        rho = AGREEMENT_STATES[kind](rng_for(108, n), n)
        frame = phase_point_operators(n)
        w = wigner_vector(rho, frame).weights
        for a in range(n):
            for b in range(n):
                d = displacement_oracle(n, a, b)
                moved = wigner_vector(DensityMatrix(d @ rho.matrix @ d.conj().T), frame).weights
                # F(D . rho) = pi_D . F(rho): the weight of point j lands on pi_D(j)
                assert linalg.max_abs(moved[displacement_permutation_oracle(n, a, b)] - w) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", COVARIANT_DIMS)
    def test_channel_image_is_conjugated_by_permutations(self, n, seed):
        rng = rng_for(109, n, seed)
        ch = random_cptp_channel(rng, n, n)
        meas = measurement_channel(random_effect(rng, n))
        k, k_meas = functor_morphism(ch).matrix, functor_morphism(meas, commutative_algebra(2)).matrix
        for _ in range(4):
            (a, b), (c, e) = rng.integers(n, size=(2, 2)).tolist()
            before, after = displacement_channel_oracle(n, a, b), displacement_channel_oracle(n, c, e)
            p_before = permutation_matrix(displacement_permutation_oracle(n, a, b))
            p_after = permutation_matrix(displacement_permutation_oracle(n, c, e))
            moved = functor_morphism(compose(after, compose(ch, before))).matrix
            assert linalg.max_abs(moved - p_after @ k @ p_before) < 1e-10
            read = functor_morphism(compose(meas, before), commutative_algebra(2)).matrix
            assert linalg.max_abs(read - k_meas @ p_before) < 1e-10

    @pytest.mark.parametrize("n", COVARIANT_DIMS)
    def test_displacements_compose_as_their_points_add(self, n):
        # D(a,b) D(c,e) is D(a+c, b+e) up to a phase, which the kernels do not see
        shifts = [(a, b) for a in range(n) for b in range(n)]
        kernels = {ab: functor_morphism(displacement_channel_oracle(n, *ab)) for ab in shifts}
        for (a, b), (c, e) in itertools.product(shifts[: 2 * n], shifts):
            product = kcompose(kernels[a, b], kernels[c, e]).matrix
            assert linalg.max_abs(product - kernels[(a + c) % n, (b + e) % n].matrix) < 1e-12

    @pytest.mark.parametrize("n", COVARIANT_DIMS)
    def test_a_wrong_permutation_breaks_covariance(self, n):
        rho = random_density(rng_for(110, n), n)
        frame = phase_point_operators(n)
        d = displacement_oracle(n, 1, 0)
        w = wigner_vector(rho, frame).weights
        moved = wigner_vector(DensityMatrix(d @ rho.matrix @ d.conj().T), frame).weights
        perm = displacement_permutation_oracle(n, 1, 0)
        assert linalg.max_abs(moved[perm] - w) < 1e-12
        perm[[0, 1]] = perm[[1, 0]]
        assert linalg.max_abs(moved[perm] - w) > 1e-3

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_stabilizer_states_have_nonnegative_images(self, n):
        # a displaced computational or Fourier basis state is uniform on n points
        fourier = np.exp(2j * np.pi * np.outer(range(n), range(n)) / n) / np.sqrt(n)
        frame = phase_point_operators(n)
        for basis in (np.eye(n, dtype=complex), fourier):
            for a, b in [(0, 0), (1, 0), (0, n - 1), (n // 2, 2)]:
                psi = displacement_oracle(n, a, b) @ basis[:, (a + b) % n]
                w = wigner_vector(DensityMatrix.from_ket(psi), frame).weights
                assert np.sort(w)[: n * n - n] == pytest.approx(0.0, abs=1e-12)
                assert np.sort(w)[n * n - n:] == pytest.approx(1.0 / n, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_every_closed_form_stabilizer_state_is_a_probability(self, n):
        # Gross's discrete Hudson theorem: their minima are rounding, about -1e-16,
        # which the sign rule's NONNEG_TOL slack reads as zero
        kets = stabilizer_kets(n)
        assert len(kets) == n + n * n
        frame = phase_point_operators(n)
        for psi in kets:
            assert wigner_vector(DensityMatrix.from_ket(psi), frame).is_probability

    def test_product_displacement_is_the_product_permutation(self):
        prod = product_frame(QUTRIT, phase_point_operators(5))
        for (a, b), (c, e) in [((0, 0), (0, 0)), ((1, 2), (0, 3)), ((2, 1), (4, 4))]:
            ch = tensor(displacement_channel_oracle(3, a, b), displacement_channel_oracle(5, c, e))
            expected = np.kron(permutation_matrix(displacement_permutation_oracle(3, a, b)),
                               permutation_matrix(displacement_permutation_oracle(5, c, e)))
            assert linalg.max_abs(transfer_matrix(ch, prod, prod) - expected) < 1e-10


class TestDualityPreservation:
    def test_functor_does_not_preserve_duality(self):
        """The image of a state's induced quantum measurement differs from
        the kernel-side measurement induced by the image state, so the
        functor is not duality preserving (it is not maximally epistemic)."""
        psi = np.array([1, 0, 0], dtype=complex)  # stabilizer: image is a
        rho = DensityMatrix.from_ket(psi)          # probability distribution
        image_state = wigner_vector(rho, QUTRIT)
        assert image_state.is_probability
        # the quantum dual of psi measures its projector; the kernel dual of a
        # probability state is its singleton evaluation, a kernel into TWO
        quantum_dual = functor_morphism(
            measurement_channel(TwoOutcomeMeasurement(np.outer(psi, psi.conj()))),
            out_algebra=commutative_algebra(2),
        )
        w = image_state.weights
        kernel_dual = SignedKernel(QUTRIT.space, TWO, np.vstack([w, 1.0 - w]))
        assert linalg.max_abs(quantum_dual.matrix - kernel_dual.matrix) > 0.5

    def test_kernel_duality_undefined_for_negative_images(self):
        # a non-stabilizer ket has a negative image weight, which no response reads
        psi = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
        v = wigner_vector(DensityMatrix.from_ket(psi), QUTRIT)
        assert not v.is_probability
        with pytest.raises(VerificationFailedError, match=r"^response values must lie in \[0, 1\]$"):
            ResponseFunction(v.space, v.weights)


class TestEpistemicReport:
    def test_each_input_ket_is_validated_once(self, monkeypatch):
        psi = np.array([1, 0, 0], dtype=complex)
        phi = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
        calls = []
        as_ket = linalg.as_ket
        monkeypatch.setattr(linalg, "as_ket", lambda v: calls.append(v) or as_ket(v))
        epistemic_report(psi, phi)
        assert len(calls) == 2

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 5), (5, 3)])
    def test_kets_of_different_dimensions_are_refused_before_a_frame(self, monkeypatch, dims):
        frames = []
        monkeypatch.setattr(wigner, "phase_point_operators", lambda n: frames.append(n))
        psi, phi = (np.eye(d, dtype=complex)[0] for d in dims)
        with pytest.raises(DimMismatchError, match="^kets have different dimensions$"):
            epistemic_report(psi, phi)
        assert frames == []

    def test_canonical_nonorthogonal_pair(self):
        psi = np.array([1, 0, 0], dtype=complex)
        phi = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
        rep = epistemic_report(psi, phi)
        assert rep.refuted_psi and rep.refuted_phi
        assert rep.epistemic_witness
        assert abs(rep.trace_distance - np.sqrt(1 - 0.5)) < 1e-10
        assert rep.bound_ok

    def test_orthogonal_basis_pair(self):
        rep = epistemic_report(
            np.array([1, 0, 0], dtype=complex), np.array([0, 1, 0], dtype=complex)
        )
        assert not rep.refuted_psi and not rep.refuted_phi
        assert abs(rep.trace_distance - 1.0) < 1e-10

    def test_identical_states(self):
        rng = rng_for(96)
        kets = [np.array([1, 0, 0], dtype=complex), *(random_ket(rng, 3) for _ in range(200))]
        for psi in kets:
            rep = epistemic_report(psi, psi.copy())
            assert rep.scaled_l1 == 0.0
            assert rep.trace_distance == 0.0
            assert rep.bound_ok

    def test_identical_and_phase_shifted_pairs_are_no_witness(self):
        # each vector refutes the other, but the pair is not distinct: its overlap,
        # read to rounding (1 - 2.2e-16 on some), is within STRICT_MARGIN of 1
        rng = rng_for(98)
        for _ in range(200):
            psi = random_ket(rng, 3)
            for phi in (psi.copy(), np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * psi):
                rep = epistemic_report(psi, phi)
                assert rep.refuted_psi and rep.refuted_phi
                assert not rep.epistemic_witness

    def test_orthogonal_pairs_are_no_witness(self):
        rng = rng_for(99)
        refuted = 0
        for _ in range(300):
            rep = epistemic_report(*random_orthogonal_pair(rng, 3))
            assert rep.overlap < STRICT_MARGIN and not rep.epistemic_witness
            refuted += rep.refuted_psi and rep.refuted_phi
        assert refuted > 0  # the signed images refute both sides of some pairs

    @pytest.mark.parametrize("overlap,strict", [
        (0.5 * STRICT_MARGIN, False),
        (2.0 * STRICT_MARGIN, True),
        (1.0 - 0.5 * STRICT_MARGIN, False),
        (1.0 - 2.0 * STRICT_MARGIN, True),
    ])
    def test_witness_needs_an_overlap_inside_by_the_margin(self, overlap, strict):
        # the rule classify_model reads a catalogue pair by, at each end
        rng = rng_for(100)
        refuted = 0
        for _ in range(40):
            psi, perp = random_orthogonal_pair(rng, 3)
            rep = epistemic_report(psi, overlap * psi + math.sqrt(1.0 - overlap ** 2) * perp)
            both = rep.refuted_psi and rep.refuted_phi
            assert rep.epistemic_witness == (both and strict)
            refuted += both
        assert refuted > 0

    @pytest.mark.parametrize("d", range(3, 16, 2))
    def test_closed_form_trace_distance_matches_eigensolver(self, d):
        """Random, near-identical (eps down to 1e-12), phase-shifted, and
        off-unit (by 5e-11, inside the ket gate) pairs."""
        rng = rng_for(95, d)
        for trial in range(48):
            kind = trial % 4
            psi, phi, _ = random_nonorthogonal_pair(rng, d, 0.01, 0.99)
            if kind == 1:
                phi = psi + 10.0 ** -(1 + trial // 4) * random_ket(rng, d)
                phi = phi / np.linalg.norm(phi)
            elif kind == 2:
                phi = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * psi
            elif kind == 3:
                psi, phi = psi * (1.0 + 5e-11), phi * (1.0 - 5e-11)
                linalg.as_kets(np.array([psi, phi]))
            want = 0.5 * linalg.trace_norm(np.outer(psi, psi.conj()) - np.outer(phi, phi.conj()))
            assert abs(wigner._pure_trace_distance(psi, phi) - want) <= 1e-15
        if d <= 5:
            rep = epistemic_report(psi, phi)
            assert rep.trace_distance == wigner._pure_trace_distance(psi, phi)

    def test_no_eigendecomposition(self, monkeypatch):
        rng = rng_for(97)
        pairs = [random_nonorthogonal_pair(rng, d, 0.05, 0.97)[:2] for d in (3, 3, 5)]
        pairs.append((STABILIZER_BASES[1][:, 0], STABILIZER_BASES[1][:, 1]))
        for d in (3, 5):
            phase_point_operators(d)
        calls = []
        eig = linalg.hermitian_eigensystem
        monkeypatch.setattr(linalg, "hermitian_eigensystem", lambda a: calls.append(1) or eig(a))
        for psi, phi in pairs:
            epistemic_report(psi, phi)
        assert calls == []

    def test_stabilizer_pairs_certified(self):
        for basis in STABILIZER_BASES:
            for j, k in itertools.permutations(range(3), 2):
                rep = epistemic_report(basis[:, j], basis[:, k])
                assert abs(rep.overlap) < 1e-9
                assert not rep.refuted_psi and not rep.refuted_phi

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_non_stabilizer_pairs_beyond_sixteen_points_match_linprog(self, n):
        from scipy.optimize import linprog

        def feasible(a, b):
            res = linprog(np.zeros(a.size), A_eq=np.vstack([a, b]), b_eq=[0.0, 1.0],
                          bounds=[(0.0, 1.0)] * a.size, method="highs")
            return res.status == 0

        rng = rng_for(92, n)
        frame = phase_point_operators(n)
        verdicts = set()
        for _ in range(8):
            psi, phi, _ = random_nonorthogonal_pair(rng, n, 0.3, 0.99)
            v_psi = wigner_vector(DensityMatrix.from_ket(psi), frame).weights
            v_phi = wigner_vector(DensityMatrix.from_ket(phi), frame).weights
            # pure states with nonnegative Wigner vectors are stabilizer states
            assert v_psi.min() < 0.0 and v_phi.min() < 0.0
            rep = epistemic_report(psi, phi)
            assert rep.refuted_psi == (not feasible(v_psi, v_phi))
            assert rep.refuted_phi == (not feasible(v_phi, v_psi))
            verdicts.add(rep.refuted_psi)
        assert verdicts == {True, False}

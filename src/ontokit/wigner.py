"""Discrete phase space: point operators, Wigner vectors, transfer matrices.

For each odd dimension n the displaced parity operators

    sigma_(q,p) = D(q,p) A0 D(q,p)^dag,   q, p in Z_n,

with A0 |x> = |-x mod n> and Weyl displacements D(q,p) = tau^{qp} X^q Z^p
(tau the odd-dimension square root of omega), form a family of n^2
Hermitian, unit-trace, involutive, pairwise trace-orthogonal matrices
summing to n.I.  Expanding states and channels in this operator frame turns
density matrices into normalised quasiprobability vectors and CPTP maps
into column-normalised signed kernels; composition becomes matrix
multiplication, so the assignment is functorial.

Frames are generalised just enough to also house commutative algebras C^k
(diagonal rank-1 projectors, frame constant 1), which realises the
distinguished object C^2 as the two-point space and makes Born evaluation
factor through the kernel side exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import linalg
from .antidist import AntidistProblem, antidist_classical
from .errors import (
    DimMismatchError,
    EvenDimensionError,
    NotTracePreservingError,
    UnrepresentableAlgebraError,
    VerificationFailedError,
)
from .kernels import TWO, UNIT_SPACE, Distribution, FiniteSpace, SignedKernel, product_space
from .quantum import Channel, DensityMatrix

FRAME_COND_TOL = 1e-10
FRAME_SUM_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-9
TRANSFER_IMAG_TOL = 1e-10
TRANSFER_COLSUM_TOL = 1e-8


@dataclass(frozen=True)
class Algebra:
    """A representable observable algebra: full matrix or commutative.

    ``matrix`` algebras must have odd dimension (pad even ones first);
    dimension-1 is canonicalised to the commutative kind, so the tensor
    unit C maps to the one-point space.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("matrix", "commutative"):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("algebra dimension must be positive")
        if self.kind == "matrix" and self.dim == 1:
            object.__setattr__(self, "kind", "commutative")


def matrix_algebra(n: int) -> Algebra:
    return Algebra("matrix", n)


def commutative_algebra(k: int) -> Algebra:
    return Algebra("commutative", k)


@dataclass(frozen=True, eq=False)
class WignerFrame:
    """Operator frame: Hermitian, unit trace, Tr(s_i s_j) = c delta_ij,
    sum_i s_i = c I.  Matrix-algebra frames are additionally involutive
    (s^2 = I); commutative frames are idempotent (s^2 = s) instead.

    The frame is stored once as its row-major frame matrix ``vectors``
    (points x d^2, row i = vec(s_i)); ``operators`` is its (points, d, d)
    view.  For Hermitian s_j, Tr(X s_j) = conj(vec(s_j)) . vec(X), so the
    Gram matrix, Wigner vectors and transfer matrices are matrix products.
    """

    algebra: Algebra
    operators: np.ndarray
    norm_const: float
    space: FiniteSpace
    hilbert_dim: int = field(init=False)
    vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = np.ascontiguousarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimMismatchError("operators must have shape (count, d, d)")
        count, d, _ = ops.shape
        if count != self.space.size:
            raise DimMismatchError("operator count does not match the point space")
        c = float(self.norm_const)
        vecs = ops.reshape(count, d * d)
        herm = linalg.max_abs(ops - np.conj(np.transpose(ops, (0, 2, 1))))
        if herm > FRAME_COND_TOL:
            raise VerificationFailedError(f"frame operators not Hermitian: {herm:.3e}")
        if linalg.max_abs(vecs[:, :: d + 1].sum(axis=1) - 1.0) > FRAME_COND_TOL:
            raise VerificationFailedError("frame operators must have unit trace")
        squares = ops @ ops
        if self.algebra.kind == "matrix":
            sq_err = linalg.max_abs(squares - np.eye(d))
            if sq_err > FRAME_COND_TOL:
                raise VerificationFailedError(f"frame operators not involutive: {sq_err:.3e}")
        else:
            sq_err = linalg.max_abs(squares - ops)
            if sq_err > FRAME_COND_TOL:
                raise VerificationFailedError(f"frame projectors not idempotent: {sq_err:.3e}")
        gram = vecs @ vecs.conj().T
        if linalg.max_abs(gram - c * np.eye(count)) > FRAME_COND_TOL * max(1.0, c):
            raise VerificationFailedError("frame operators are not trace-orthogonal")
        if linalg.max_abs(vecs.sum(axis=0) - c * np.eye(d).reshape(-1)) > FRAME_SUM_TOL:
            raise VerificationFailedError("frame operators do not sum to c.I")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "hilbert_dim", d)

    @property
    def n_points(self) -> int:
        return self.space.size


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def displacement(n: int, q: int, p: int) -> np.ndarray:
    """Weyl displacement tau^{qp} X^q Z^p, with X|x> = |x+1>, Z|x> = omega^x |x>
    and tau = omega^{(n+1)/2}: the monomial matrix |x> -> tau^{qp} omega^{px} |x+q>.
    """
    x = np.arange(n)
    d = np.zeros((n, n), dtype=complex)
    d[(x + q) % n, x] = np.exp(2j * np.pi * (((n + 1) // 2 * q * p + p * x) % n) / n)
    return d


def phase_space(n: int) -> FiniteSpace:
    return FiniteSpace(tuple(f"({q},{p})" for q in range(n) for p in range(n)))


@lru_cache(maxsize=None)
def phase_point_operators(n: int) -> WignerFrame:
    """The n^2 displaced parity operators for odd n, invariants verified."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if n % 2 == 0:
        raise EvenDimensionError(f"phase-point construction requires odd dimension, got {n}")
    if n == 1:
        return commutative_frame(1)
    # A_(q,p) = D(q,p) A0 D(q,p)^dag is the monomial map |x> -> omega^{2p(q-x)} |2q-x>
    q, p, x = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    ops = np.zeros((n, n, n, n), dtype=complex)
    ops[q, p, (2 * q - x) % n, x] = np.exp(2j * np.pi * ((2 * p * (q - x)) % n) / n)
    ops = ops.reshape(n * n, n, n)
    return WignerFrame(matrix_algebra(n), ops, float(n), phase_space(n))


@lru_cache(maxsize=None)
def commutative_frame(k: int) -> WignerFrame:
    """Diagonal rank-1 projectors; realises C^2 as the distinguished space."""
    ops = np.zeros((k, k, k), dtype=complex)
    for i in range(k):
        ops[i, i, i] = 1.0
    if k == 1:
        space = UNIT_SPACE
    elif k == 2:
        space = TWO
    else:
        space = FiniteSpace(tuple(str(i) for i in range(k)))
    return WignerFrame(commutative_algebra(k), ops, 1.0, space)


def frame_for(algebra: Algebra) -> WignerFrame:
    if algebra.kind == "commutative":
        return commutative_frame(algebra.dim)
    if algebra.dim % 2 == 0:
        raise UnrepresentableAlgebraError(
            f"dimension {algebra.dim} is even: pad with pad_odd or annotate a commutative algebra"
        )
    return phase_point_operators(algebra.dim)


def functor_object(algebra: Algebra) -> FiniteSpace:
    """Object map: matrix algebras to phase space (padding even dimensions),
    commutative algebras to their point sets."""
    if algebra.kind == "matrix" and algebra.dim % 2 == 0:
        algebra = matrix_algebra(algebra.dim + 1)
    return frame_for(algebra).space


# ---------------------------------------------------------------------------
# vectors and transfer matrices
# ---------------------------------------------------------------------------

def wigner_vector(rho: DensityMatrix, frame: WignerFrame) -> Distribution:
    """Quasiprobability vector v_i = Tr(rho s_i)/c with verified reconstruction."""
    if rho.dim != frame.hilbert_dim:
        raise DimMismatchError("state dimension does not match the frame")
    raw = frame.vectors.conj() @ rho.matrix.reshape(-1) / frame.norm_const
    if linalg.max_abs(raw.imag) > TRANSFER_IMAG_TOL:
        raise VerificationFailedError("Wigner vector has a nonreal component")
    v = raw.real
    err = linalg.max_abs(v @ frame.vectors - rho.matrix.reshape(-1))
    if err > RECONSTRUCTION_TOL:
        raise VerificationFailedError(
            f"frame reconstruction error {err:.3e}; state not representable in this frame"
        )
    return Distribution(frame.space, v)


def _superoperator(ch: Channel) -> np.ndarray:
    """sum_k K (x) conj(K), shape (out^2, in^2), mapping the row-major vec(X) to
    vec(sum_k K X K^dag): the entries of sum_k vec(K) vec(K)^dag regrouped
    from [(a, i), (b, j)] to [(a, b), (i, j)]."""
    o, i = ch.out_dim, ch.in_dim
    kraus = np.array(ch.kraus).reshape(len(ch.kraus), o * i)
    outer = kraus.T @ kraus.conj()
    return outer.reshape(o, i, o, i).transpose(0, 2, 1, 3).reshape(o * o, i * i)


def transfer_matrix(
    ch: Channel, in_frame: WignerFrame, out_frame: WignerFrame
) -> np.ndarray:
    """Real matrix t[i, j] = Tr(s_i^out f(s_j^in)) / c_out.

    The divisor is the output frame constant, which is the convention under
    which columns of trace-preserving channels sum to exactly 1 and
    composition remains matrix multiplication.
    """
    if ch.in_dim != in_frame.hilbert_dim or ch.out_dim != out_frame.hilbert_dim:
        raise DimMismatchError("channel endpoints do not match the frames")
    t = out_frame.vectors.conj() @ _superoperator(ch) @ in_frame.vectors.T / out_frame.norm_const
    if linalg.max_abs(t.imag) > TRANSFER_IMAG_TOL:
        raise VerificationFailedError("transfer matrix has a nonreal component")
    t = t.real
    if ch.trace_preserving:
        col_err = linalg.max_abs(t.sum(axis=0) - 1.0)
        if col_err > TRANSFER_COLSUM_TOL:
            raise VerificationFailedError(f"transfer columns sum error {col_err:.3e}")
    return t


def functor_morphism(
    ch: Channel,
    in_algebra: Optional[Algebra] = None,
    out_algebra: Optional[Algebra] = None,
) -> SignedKernel:
    """Morphism map: a trace-preserving channel to its signed kernel.

    Kernel entries are bounded by the ratio of frame constants c_in / c_out
    (trace-norm contraction against the involutive frame); for like frames
    this is the usual [-1, 1] range.
    """
    if not ch.trace_preserving:
        raise NotTracePreservingError("the functor is defined on trace-preserving maps")
    in_algebra = in_algebra if in_algebra is not None else matrix_algebra(ch.in_dim)
    out_algebra = out_algebra if out_algebra is not None else matrix_algebra(ch.out_dim)
    in_frame = frame_for(in_algebra)
    out_frame = frame_for(out_algebra)
    if in_frame.hilbert_dim != ch.in_dim or out_frame.hilbert_dim != ch.out_dim:
        raise DimMismatchError("channel endpoints do not match the annotated algebras")
    if out_algebra.kind == "commutative":
        images = (in_frame.vectors @ _superoperator(ch).T).reshape(-1, ch.out_dim, ch.out_dim)
        if linalg.max_abs(images * (1.0 - np.eye(ch.out_dim))) > 1e-9:
            raise UnrepresentableAlgebraError(
                "channel output is not diagonal; not a morphism into C^k"
            )
    t = transfer_matrix(ch, in_frame, out_frame)
    bound = max(1.0, in_frame.norm_const / out_frame.norm_const)
    return SignedKernel(in_frame.space, out_frame.space, t, entry_bound=bound)


def functor_state(rho: DensityMatrix, algebra: Optional[Algebra] = None) -> Distribution:
    """State map: F of a preparation, i.e. the Wigner vector."""
    algebra = algebra if algebra is not None else matrix_algebra(rho.dim)
    return wigner_vector(rho, frame_for(algebra))


# ---------------------------------------------------------------------------
# padding to odd dimension
# ---------------------------------------------------------------------------

def pad_density(rho: DensityMatrix, extra: int = 1) -> DensityMatrix:
    m = np.zeros((rho.dim + extra, rho.dim + extra), dtype=complex)
    m[: rho.dim, : rho.dim] = rho.matrix
    return DensityMatrix(m)


def pad_odd(ch: Channel) -> Channel:
    """Embed a channel into odd-dimensional endpoints (top-left corner).

    Each even endpoint gains one dimension; the new input direction is sent
    to a fixed output basis state by an extra Kraus branch so the padded
    channel is exactly trace preserving and satisfies
    pad(f(rho)) = f_pad(pad(rho)) on padded states.
    """
    pad_in = 1 if ch.in_dim % 2 == 0 else 0
    pad_out = 1 if ch.out_dim % 2 == 0 else 0
    if pad_in == 0 and pad_out == 0:
        return ch
    new_in = ch.in_dim + pad_in
    new_out = ch.out_dim + pad_out
    ops = []
    for k in ch.kraus:
        padded = np.zeros((new_out, new_in), dtype=complex)
        padded[: ch.out_dim, : ch.in_dim] = k
        ops.append(padded)
    if pad_in:
        extra = np.zeros((new_out, new_in), dtype=complex)
        extra[new_out - 1 if pad_out else 0, new_in - 1] = 1.0
        ops.append(extra)
    return Channel(tuple(ops), trace_preserving=ch.trace_preserving)


# ---------------------------------------------------------------------------
# checks and reports
# ---------------------------------------------------------------------------

@dataclass
class MonoidalityReport:
    m: int
    n: int
    trials: int
    seed: int
    frame_ok: bool
    frame_error: str
    max_transfer_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.frame_ok and self.max_transfer_residual <= self.tolerance


def product_frame(fa: WignerFrame, fb: WignerFrame) -> WignerFrame:
    """Tensor frame {s (x) t}; invariants re-verified at construction.

    Factors must share a kind: mixed products are neither involutive nor
    idempotent, so no frame conditions could hold for them.
    """
    if fa.algebra.kind != fb.algebra.kind:
        raise UnrepresentableAlgebraError("cannot tensor frames of different kinds")
    count_a, da, _ = fa.operators.shape
    count_b, db, _ = fb.operators.shape
    ops = np.einsum("akl,bmn->abkmln", fa.operators, fb.operators).reshape(
        count_a * count_b, da * db, da * db
    )
    return WignerFrame(
        Algebra(fa.algebra.kind, da * db),
        ops,
        fa.norm_const * fb.norm_const,
        product_space(fa.space, fb.space),
    )


def monoidality_check(
    m: int, n: int, trials: int, seed: int, tol: float = 1e-8
) -> MonoidalityReport:
    """Verify the tensor structure: product operators form a frame and
    transfer matrices factorise over channel tensor products."""
    from .quantum import tensor
    from .sampling import random_cptp_channel, rng_for

    fm = phase_point_operators(m)
    fn = phase_point_operators(n)
    frame_ok, frame_error = True, ""
    try:
        prod = product_frame(fm, fn)
    except VerificationFailedError as exc:
        frame_ok, frame_error, prod = False, str(exc), None
    worst = 0.0
    if prod is not None:
        for trial in range(trials):
            rng = rng_for(seed, trial)
            f1 = random_cptp_channel(rng, m, m)
            f2 = random_cptp_channel(rng, n, n)
            lhs = transfer_matrix(tensor(f1, f2), prod, prod)
            rhs = np.kron(transfer_matrix(f1, fm, fm), transfer_matrix(f2, fn, fn))
            worst = max(worst, linalg.max_abs(lhs - rhs))
    return MonoidalityReport(
        m=m, n=n, trials=trials, seed=seed,
        frame_ok=frame_ok, frame_error=frame_error,
        max_transfer_residual=float(worst), tolerance=tol,
    )


@dataclass
class EpistemicReport:
    """Anti-distinguishability and distance comparison for a state pair."""

    overlap: float
    dim: int
    refuted_psi: bool
    refuted_phi: bool
    trace_distance: float
    scaled_l1: float
    bound_ok: bool
    gap: float

    @property
    def epistemic_witness(self) -> bool:
        return self.refuted_psi and self.refuted_phi and 0.0 < self.overlap < 1.0


def epistemic_report(psi, phi, frame: Optional[WignerFrame] = None) -> EpistemicReport:
    """Compare a pair's quantum distinguishability with its Wigner image.

    Reports whether either Wigner vector is anti-distinguishable within the
    pair (REFUTED certifies epistemicity for nonorthogonal pairs), the
    trace distance, and the (n/2) l1 distance of the Wigner vectors, whose
    inequality direction is asserted: trace distance never exceeds it.
    """
    psi = linalg.as_ket(psi)
    phi = linalg.as_ket(phi)
    if frame is None:
        frame = phase_point_operators(psi.size)
    rho = DensityMatrix.from_ket(psi)
    tau = DensityMatrix.from_ket(phi)
    v_rho = wigner_vector(rho, frame)
    v_tau = wigner_vector(tau, frame)
    ensemble = (v_rho, v_tau)
    cert_psi = antidist_classical(AntidistProblem(ensemble, 0))
    cert_phi = antidist_classical(AntidistProblem(ensemble, 1))
    tdist = 0.5 * linalg.trace_norm(rho.matrix - tau.matrix)
    l1 = float(np.sum(np.abs(v_rho.weights - v_tau.weights)))
    scaled = 0.5 * frame.hilbert_dim * l1
    return EpistemicReport(
        overlap=float(abs(np.vdot(psi, phi))),
        dim=frame.hilbert_dim,
        refuted_psi=cert_psi is None,
        refuted_phi=cert_phi is None,
        trace_distance=float(tdist),
        scaled_l1=scaled,
        bound_ok=bool(tdist <= scaled + 1e-9),
        gap=float(scaled - tdist),
    )


def displacement_permutation(n: int, a: int, b: int) -> list[int]:
    """Index map pi with D(a,b) s_i D(a,b)^dag = s_pi(i) on phase space."""
    return [
        (((q + a) % n) * n + ((p + b) % n))
        for q in range(n)
        for p in range(n)
    ]


def displacement_channel(n: int, a: int, b: int) -> Channel:
    return Channel((displacement(n, a, b),))


def random_stabilizer_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal pair from a displaced computational or Fourier basis.

    These states have nonnegative Wigner vectors with disjoint supports, so
    their images stay anti-distinguishable on the kernel side.
    """
    om = np.exp(2j * np.pi / n)
    fourier = np.array([[om ** (j * k) for k in range(n)] for j in range(n)]) / np.sqrt(n)
    base = fourier if rng.integers(2) else np.eye(n, dtype=complex)
    u = displacement(n, int(rng.integers(n)), int(rng.integers(n))) @ base
    j, k = rng.choice(n, size=2, replace=False)
    return u[:, int(j)].copy(), u[:, int(k)].copy()

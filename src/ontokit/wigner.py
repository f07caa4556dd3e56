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
factor through the kernel side exactly.  A state is a morphism from the
unit C, so its Wigner vector is its preparation's image, by the same routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from typing import ClassVar, Optional

import numpy as np

from . import linalg
from .antidist import _response
from .errors import (
    DimMismatchError,
    EvenDimensionError,
    TooLargeError,
    UnrepresentableAlgebraError,
    VerificationFailedError,
)
from .kernels import TWO, UNIT_SPACE, Distribution, FiniteSpace, SignedKernel, product_space
from .quantum import Channel, DensityMatrix, _strict_overlap
from .tolerances import (
    DISTANCE_BOUND_MARGIN, FUNCTOR_TOL, IDENTITY_TOL, NONNEG_TOL, TIGHT_IDENTITY_TOL,
)


@dataclass(frozen=True)
class Algebra:
    """A representable observable algebra: full matrix or commutative.

    ``matrix`` algebras must have odd dimension to have a frame;
    dimension-1 is canonicalised to the commutative kind, so the tensor
    unit C maps to the one-point space.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("matrix", "commutative"):
            raise VerificationFailedError(f"unknown algebra kind {self.kind!r}")
        object.__setattr__(self, "dim", linalg.as_positive_int(self.dim, "algebra dimension"))
        if self.kind == "matrix" and self.dim == 1:
            object.__setattr__(self, "kind", "commutative")


def matrix_algebra(n: int) -> Algebra:
    return Algebra("matrix", n)


def commutative_algebra(k: int) -> Algebra:
    return Algebra("commutative", k)


@dataclass(frozen=True)
class FrameResiduals:
    """How far a frame is from each of its conditions, as max entry moduli.

    ``hermitian`` is max|s - s^dag|, ``trace`` max|Tr s - 1|, ``square``
    max|s^2 - I| (matrix kind) or max|s^2 - s| (commutative kind), ``gram``
    max|phi phi^dag - c.I| from the factor form, ``sum`` max|sum_i s_i - c.I|,
    and ``max_entry`` the largest entry modulus of any operator.
    """

    hermitian: float
    trace: float
    square: float
    gram: float
    sum: float
    max_entry: float


def _check_residuals(res: FrameResiduals, kind: str, norm_const: float) -> None:
    """Raise VerificationFailedError unless each residual is within its tolerance."""
    # written as not (residual <= tol), so that a NaN residual fails
    if not res.hermitian <= TIGHT_IDENTITY_TOL:
        raise VerificationFailedError(f"frame operators not Hermitian: {res.hermitian:.3e}")
    if not res.trace <= TIGHT_IDENTITY_TOL:
        raise VerificationFailedError("frame operators must have unit trace")
    if not res.square <= TIGHT_IDENTITY_TOL:
        if kind == "matrix":
            raise VerificationFailedError(f"frame operators not involutive: {res.square:.3e}")
        raise VerificationFailedError(f"frame projectors not idempotent: {res.square:.3e}")
    if not res.gram <= TIGHT_IDENTITY_TOL * max(1.0, float(norm_const)):
        raise VerificationFailedError("frame operators are not trace-orthogonal")
    if not res.sum <= IDENTITY_TOL:
        raise VerificationFailedError("frame operators do not sum to c.I")


@dataclass(frozen=True, eq=False)
class WignerFrame:
    """Operator frame: Hermitian, unit trace, Tr(s_i s_j) = c delta_ij,
    sum_i s_i = c I.  Matrix-algebra frames are additionally involutive
    (s^2 = I); commutative frames are idempotent (s^2 = s) instead.

    The frame is stored once as its row-major frame matrix ``vectors``
    (points x d^2, row i = vec(s_i)); ``operators`` is its (points, d, d)
    view.  For Hermitian s_j, Tr(X s_j) = conj(vec(s_j)) . vec(X), so the
    Gram matrix, Wigner vectors and transfer matrices are matrix products.
    Both arrays are read-only once verified: cached frames are shared by
    every caller.

    Every frame is checked and held in its factor form F = (I_B (x) phi) G by
    :meth:`_hold`: G gathers B w distinct vec entries, and each of B blocks of
    consecutive points reads its own w of them through one m x w matrix phi,
    so the Gram matrix F F^dag = I_B (x) phi phi^dag is checked from phi, and
    the Hermitian, trace, square (one batched ``ops @ ops``) and sum conditions
    on the operators; commutative operators must be diagonal too.  What was
    measured is kept as ``residuals``; each must stay within
    ``TIGHT_IDENTITY_TOL``, except the Gram residual (``TIGHT_IDENTITY_TOL *
    max(1, c)``) and the sum residual (``IDENTITY_TOL``).  A builder states its
    form (:meth:`_of_form`): a phase-point frame has B = w = d, block q reading
    the entries (q + y, q - y) with phi[p, y] = omega^{2py}; a commutative
    frame of k points has B = k and phi = [1], reading the diagonal.  A frame
    from this constructor is one block that reads every entry, phi a view of
    ``vectors`` (of its d diagonal columns once checked, if commutative, so no
    commutative frame reads an off-diagonal entry).  Every image is computed in
    this form (:func:`_through_frames`); nothing dense is stored beside ``vectors``.
    """

    algebra: Algebra
    operators: np.ndarray
    norm_const: float
    space: FiniteSpace
    hilbert_dim: int = field(init=False)
    vectors: np.ndarray = field(init=False, repr=False)
    residuals: FrameResiduals = field(init=False, repr=False)
    # (phi, entries, n_read) of the factor form, as :meth:`_hold` holds it: ``entries`` is the
    # (row, column) of the n_read vec entries G reads, block-major, then of the others
    _form: tuple = field(init=False, repr=False)
    # partner dimension -> _gather_offsets(partner)
    _offsets: dict = field(init=False, repr=False)

    def __post_init__(self):
        ops = linalg.frozen(linalg._as_array(self.operators, "frame operators", complex))
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimMismatchError("operators must have shape (count, d, d)")
        count, d, _ = linalg._as_held(ops, "frame operators").shape
        if count != linalg._of_type(self.space, FiniteSpace, "frame space").size:
            raise DimMismatchError("operator count does not match the point space")
        if d != linalg._of_type(self.algebra, Algebra, "frame algebra").dim:
            raise DimMismatchError(f"operators of {d} x {d} cannot frame an algebra of "
                                   f"dimension {self.algebra.dim}")
        c = float(linalg._as_held(linalg.as_real(self.norm_const, "norm_const"), "norm_const values"))
        self._hold(np.arange(d * d)[None], ops.reshape(count, d * d), c, ops)

    @property
    def n_points(self) -> int:
        return self.space.size

    @classmethod
    def _of_form(cls, algebra: Algebra, read, phi, norm_const: float, space: FiniteSpace):
        """The frame (I_B (x) phi) G that a builder states, block b of points reading
        the vec entries ``read[b]`` (a B x w integer array) through the m x w matrix
        ``phi``: held by :meth:`_hold` past the constructor, which reads one block."""
        frame = object.__new__(cls)
        for name, value in (("algebra", algebra), ("norm_const", norm_const), ("space", space)):
            object.__setattr__(frame, name, value)
        frame._hold(read, linalg.frozen(phi), float(norm_const))
        return frame

    def _hold(self, read: np.ndarray, phi: np.ndarray, c: float, ops: Optional[np.ndarray] = None):
        """Check the frame (I_B (x) phi) G of constant c, whose block b reads the
        vec entries ``read[b]`` through ``phi``, and hold it in that form: its
        operators are ``ops``, else scattered from the form.  Its reads must be
        distinct, so that the Gram is read off phi; a commutative form keeps its
        diagonal reads alone, every (d + 1)-th of a builder's (one read a block)
        or of the constructor's (every entry)."""
        d, kind = self.algebra.dim, self.algebra.kind
        if np.bincount(read.reshape(-1), minlength=d * d).max() > 1:
            raise VerificationFailedError("frame form reads a vec entry more than once")
        if ops is None:
            vecs = np.zeros((len(read), len(phi), d * d), dtype=complex)
            # vecs[b, p, read[b, y]] = phi[p, y]: the indexed axes (b, y) come first
            vecs[np.arange(len(read))[:, None], :, read] = phi.T
            vecs.setflags(write=False)
            ops = vecs.reshape(-1, d, d)
        vecs = ops.reshape(len(ops), d * d)
        res = FrameResiduals(
            hermitian=linalg.max_abs(ops - np.conj(np.transpose(ops, (0, 2, 1)))),
            trace=linalg.max_abs(vecs[:, :: d + 1].sum(axis=1) - 1.0),
            square=linalg.max_abs(ops @ ops - (np.eye(d) if kind == "matrix" else ops)),
            gram=linalg.max_abs(phi @ phi.conj().T - c * np.eye(len(phi))),
            sum=linalg.max_abs(vecs.sum(axis=0) - c * np.eye(d).reshape(-1)),
            max_entry=linalg.max_abs(vecs),
        )
        _check_residuals(res, kind, c)
        if kind == "commutative":
            off = linalg.max_abs(ops * ~np.eye(d, dtype=bool))
            if not off <= TIGHT_IDENTITY_TOL:
                raise VerificationFailedError(f"frame projectors not diagonal: {off:.3e}")
            read, phi = read[:, :: d + 1], phi[:, :: d + 1]
        unread = np.ones(d * d, dtype=bool)
        unread[read] = False
        entries = np.divmod(np.concatenate((read.reshape(-1), np.flatnonzero(unread))), d)
        for name, value in (("operators", ops), ("vectors", vecs), ("hilbert_dim", d),
                            ("residuals", res), ("_form", (phi, linalg.frozen(entries), read.size)),
                            ("_offsets", {})):
            object.__setattr__(self, name, value)

    @cached_property
    def _exact_residuals(self) -> FrameResiduals:
        """Bounds on the exact residuals of the stored operators: each measured
        residual widened by the rounding of the check that measured it.  Frames
        are immutable, so the bounds are computed once and kept on the frame:
        a cache keyed by the frame would keep it alive past its own cache.

        An entry that sums k nonzero terms of l1 mass M, its target among them,
        is measured to within (k - 1) eps M in any summation order (Higham,
        Accuracy and Stability of Numerical Algorithms, 4.2; eps = 2^-52, twice
        the unit roundoff, covers complex addition).  Exact zeros round nothing,
        so k and M are read from the nonzeros of ``vectors``.  The Gram and square
        checks multiply before they sum, which counts as one term more.
        """
        res, d, c = self.residuals, self.hilbert_dim, float(self.norm_const)
        m = res.max_entry
        eps = float(np.finfo(float).eps)

        def widened(residual, summands, extra_terms, scale, target) -> float:
            # row r of summands bounds the terms of one checked entry, up to scale
            k = np.count_nonzero(summands, axis=1).max() + extra_terms
            return residual + float((k - 1) * eps * (summands.sum(axis=1).max() * scale + target))

        mags = np.abs(self.vectors)
        unit = 1.0 if self.algebra.kind == "matrix" else m  # the square check's target entry
        return FrameResiduals(
            hermitian=res.hermitian + (2 - 1) * eps * 2.0 * m,  # s_kl - conj(s_lk)
            trace=widened(res.trace, mags[:, :: d + 1], 1, 1.0, 1.0),
            square=widened(res.square, mags.reshape(-1, d), 2, m, unit),
            gram=widened(res.gram, mags, 2, m, c),
            sum=widened(res.sum, mags.T, 1, 1.0, c),
            max_entry=m * (1.0 + eps),
        )

    def _gather_offsets(self, partner: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat offsets, in the pairs array of :func:`_through_frames` between this
        frame and one of dimension ``partner``, of this frame's entries: as the
        left frame (a column over all entries) and as the right frame (a row
        over the read ones).  Memoised per partner: they are index arithmetic
        that every transfer between the same dimensions repeats."""
        if partner not in self._offsets:
            d = self.hilbert_dim
            _, (a, b), n_read = self._form
            self._offsets[partner] = (
                ((a * (d * partner) + b) * partner)[:, None],
                (a * (partner * d) + b)[:n_read],
            )
        return self._offsets[partner]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def phase_space(n: int) -> FiniteSpace:
    n = linalg.as_positive_int(n, "n")
    return FiniteSpace(tuple(f"({q},{p})" for q in range(n) for p in range(n)))


def _allocate(what: str, nbytes: int, build):
    """build(), or TooLargeError naming what it builds and its nbytes, when numpy
    cannot index them (checked in integer arithmetic, before any allocation) or
    cannot allocate them."""
    if nbytes > np.iinfo(np.intp).max:
        raise TooLargeError(f"{what} complex entries, {nbytes} bytes, more than numpy can index")
    try:
        return build()
    except MemoryError as exc:
        raise TooLargeError(
            f"{what} complex entries, {nbytes} bytes, which could not be allocated"
        ) from exc


def _cached_frames(what: str):
    """A frame builder cached by its argument as the integer gate (naming it ``what``)
    admits it: a Python int, so 16 n^4 cannot wrap and a numpy integer finds its int's
    frame, while [3] or 3.0 is refused before any lookup.  ``__wrapped__`` builds uncached."""
    def decorate(build):
        cached = lru_cache(maxsize=None)(build)
        builder = wraps(build)(lambda value: cached(linalg.as_positive_int(value, what)))
        builder.cache_clear, builder.cache_info = cached.cache_clear, cached.cache_info
        return builder
    return decorate


@_cached_frames("n")
def phase_point_operators(n: int) -> WignerFrame:
    """The n^2 displaced parity operators for odd n, invariants verified."""
    if n % 2 == 0:
        raise EvenDimensionError(f"phase-point construction requires odd dimension, got {n}")
    if n == 1:
        return commutative_frame(1)

    def build() -> WignerFrame:
        # A_(q,p) = D(q,p) A0 D(q,p)^dag is the monomial map |x> -> omega^{2p(q-x)} |2q-x>, so
        # with y = q - x block q reads the vec entries (q + y, q - y) through omega^{2py}
        y = np.arange(n)
        q = p = y[:, None]
        read = (q + y) % n * n + (q - y) % n
        phi = np.exp(2j * np.pi * ((2 * p * y) % n) / n)
        return WignerFrame._of_form(matrix_algebra(n), read, phi, float(n), phase_space(n))

    return _allocate(f"a phase-point frame for n = {n} is n^2 operators of n x n", 16 * n ** 4, build)


@_cached_frames("k")
def commutative_frame(k: int) -> WignerFrame:
    """Diagonal rank-1 projectors; realises C as the unit and C^2 as the distinguished space."""
    space = {1: UNIT_SPACE, 2: TWO}.get(k) or FiniteSpace(tuple(str(i) for i in range(k)))
    return WignerFrame._of_form(commutative_algebra(k), np.arange(k)[:, None] * (k + 1),
                                np.ones((1, 1), complex), 1.0, space)


def frame_for(algebra: Algebra) -> WignerFrame:
    if linalg._of_type(algebra, Algebra, "algebra").kind == "commutative":
        return commutative_frame(algebra.dim)
    if algebra.dim % 2 == 0:
        raise UnrepresentableAlgebraError(
            f"dimension {algebra.dim} is even: embed it in an odd dimension "
            "or annotate a commutative algebra"
        )
    return phase_point_operators(algebra.dim)


# ---------------------------------------------------------------------------
# vectors and transfer matrices
# ---------------------------------------------------------------------------

def wigner_vector(rho: DensityMatrix, frame: WignerFrame) -> Distribution:
    """Quasiprobability vector v_i = Tr(rho s_i) / c: the image of rho's
    preparation C -> C^d, by :func:`_image` from the unit frame, whose pairs
    matrix is (rho + rho^dag) / 2, the operator that the preparation's
    eigensystem is read from; so a state off the diagonal of C^k is refused
    as a channel is, and the state and morphism maps agree."""
    linalg._of_type(rho, DensityMatrix, "state")
    if rho.dim != linalg._of_type(frame, WignerFrame, "frame").hilbert_dim:
        raise DimMismatchError("state dimension does not match the frame")
    m = rho.matrix
    return Distribution(frame.space, _image((m + m.conj().T) / 2, commutative_frame(1), frame))


def _through_frames(
    pairs: np.ndarray, left: WignerFrame, right: WignerFrame
) -> tuple[np.ndarray, np.ndarray]:
    """conj(F_left) M F_right^T, with M[(a, b), (k, l)] = pairs[(a, k), (b, l)],
    from the two factor forms; and the rows of M F_right^T at the vec entries
    (a, b) that left does not read.

    One gather of ``pairs`` at the entries G_left and G_right read both selects
    and regroups; then phi_right acts on the last axis in one product and
    conj(phi_left) on each row block in one batched product.
    """
    rows = left._gather_offsets(right.hilbert_dim)[0]
    cols = right._gather_offsets(left.hilbert_dim)[1]
    phi_l, _, n = left._form
    phi_r = right._form[0]
    y = pairs.take(rows + cols).reshape(-1, phi_r.shape[1]).dot(phi_r.T).reshape(len(rows), -1)
    read = np.matmul(phi_l.conj(), y[:n].reshape(-1, phi_l.shape[1], y.shape[1]))
    return read.reshape(left.n_points, -1), y[n:]


def _image(pairs: np.ndarray, in_frame: WignerFrame, out_frame: WignerFrame) -> np.ndarray:
    """The real image T = conj(F_out) S F_in^T / c_out, S[(a, b), (i, j)] = O[(a, i), (b, j)],
    of O = sum_k vec(K_k) vec(K_k)^dag (a channel) or (rho + rho^dag) / 2 (a state,
    from the unit frame): the one routine of the state, morphism and transfer maps.
    Checked in order: the imaginary part, to ``TIGHT_IDENTITY_TOL``; each entry the
    output frame does not read, off the diagonal into C^k, to ``IDENTITY_TOL``.  The
    caller checks the columns, as a kernel's or a distribution's."""
    t, unread = _through_frames(pairs, out_frame, in_frame)
    # the parts are divided by c_out one by one: a complex division costs about three real ones
    if linalg.max_abs(t.imag) / out_frame.norm_const > TIGHT_IDENTITY_TOL:
        raise VerificationFailedError("Wigner image has a nonreal component")
    if unread.size and linalg.max_abs(unread) > IDENTITY_TOL:
        raise UnrepresentableAlgebraError("channel output is not diagonal; not a morphism into C^k")
    return t.real / out_frame.norm_const


def _kernel(ch: Channel, in_frame: WignerFrame, out_frame: WignerFrame) -> SignedKernel:
    """The :func:`_image` of ch as a kernel, for both :func:`transfer_matrix` and
    :func:`functor_morphism`: its columns checked by the ``SignedKernel``
    constructor, then its entries to c_in / c_out: |Tr(s_a ch(s_b))| <=
    ||s_a||_inf ||ch(s_b)||_1 <= ||s_b||_1 by Hölder's inequality, and every
    frame the constructor admits has ||s||_inf = 1 and ||s||_1 = c.  An image or
    bound that numpy cannot allocate is a TooLargeError naming the transfer."""
    kraus = ch.kraus.reshape(len(ch.kraus), -1)
    try:
        kernel = SignedKernel(in_frame.space, out_frame.space,
                              _image(kraus.T @ kraus.conj(), in_frame, out_frame))
        largest = linalg.max_abs(kernel.matrix)
    except MemoryError as exc:
        n_in, n_out = in_frame.n_points, out_frame.n_points
        raise TooLargeError(
            f"a transfer from {n_in} to {n_out} points is {n_out} x {n_in} real entries, "
            f"{8 * n_out * n_in} bytes, which could not be computed in the memory available"
        ) from exc
    bound = in_frame.norm_const / out_frame.norm_const
    if largest > bound + NONNEG_TOL:
        raise VerificationFailedError(f"entry magnitude {largest:.6f} exceeds bound {bound}")
    return kernel


def transfer_matrix(
    ch: Channel, in_frame: WignerFrame, out_frame: WignerFrame
) -> np.ndarray:
    """Real read-only matrix t[i, j] = Tr(s_i^out f(s_j^in)) / c_out, checked
    by :func:`_kernel` once the endpoints match the frames.

    The divisor is the output frame constant, which is the convention under
    which columns of trace-preserving channels sum to exactly 1 and
    composition remains matrix multiplication.  Computed from the frames'
    factor forms (see :class:`WignerFrame`): O(d^5) for phase-point frames
    where the dense conj(F_out) S F_in^T is O(d^6).
    """
    linalg._of_type(ch, Channel, "channel")
    linalg._of_type(in_frame, WignerFrame, "input frame")
    linalg._of_type(out_frame, WignerFrame, "output frame")
    if ch.in_dim != in_frame.hilbert_dim or ch.out_dim != out_frame.hilbert_dim:
        raise DimMismatchError("channel endpoints do not match the frames")
    return _kernel(ch, in_frame, out_frame).matrix


def functor_morphism(ch: Channel, out_algebra: Optional[Algebra] = None) -> SignedKernel:
    """Morphism map: a channel to its signed kernel, :func:`_kernel` between the
    frames of ``matrix_algebra(ch.in_dim)`` and ``out_algebra`` (by default
    ``matrix_algebra(ch.out_dim)``).  A channel whose output is not diagonal
    has no image in a commutative algebra; the entries stay within
    c_in / c_out, which is [-1, 1] for like frames.
    """
    linalg._of_type(ch, Channel, "channel")
    out_algebra = out_algebra if out_algebra is not None else matrix_algebra(ch.out_dim)
    in_frame = frame_for(matrix_algebra(ch.in_dim))
    out_frame = frame_for(out_algebra)
    if out_frame.hilbert_dim != ch.out_dim:
        raise DimMismatchError("channel endpoints do not match the annotated algebras")
    # the input frame is the one for ch.in_dim, so both endpoints fit
    return _kernel(ch, in_frame, out_frame)


# ---------------------------------------------------------------------------
# checks and reports
# ---------------------------------------------------------------------------

@dataclass
class MonoidalityReport:
    """``frame_ok`` certifies the m x n product frame from its factors, and
    ``passed`` is that verdict.  ``trials``, ``seed`` and ``tolerance`` echo
    the arguments, which decide nothing, and ``max_transfer_residual`` is a
    constant 0.0: both stay only for the benchmark's reports (ROADMAP item 28)."""

    m: int
    n: int
    trials: int
    seed: int
    frame_ok: bool
    tolerance: float
    max_transfer_residual: ClassVar[float] = 0.0

    @property
    def passed(self) -> bool:
        return self.frame_ok


def _product_kind(fa: WignerFrame, fb: WignerFrame) -> str:
    """The kind of the tensor frame: a factor of Hilbert dimension 1 is the unit
    of either kind, and mixed products are neither involutive nor idempotent."""
    kinds = {f.algebra.kind for f in (fa, fb) if f.hilbert_dim > 1} or {"commutative"}
    if len(kinds) > 1:
        raise UnrepresentableAlgebraError("cannot tensor frames of different kinds")
    return kinds.pop()


def _product_residuals(fa: WignerFrame, fb: WignerFrame) -> FrameResiduals:
    """Bounds on the exact residuals of the exact products {s (x) t} of the two
    factors' stored operators.

    Each frame condition factorises: (s (x) t)^dag = s^dag (x) t^dag,
    Tr(s (x) t) = Tr s Tr t, (s (x) t)^2 = s^2 (x) t^2, the Gram matrix is
    G_a (x) G_b and the sum is (sum s) (x) (sum t).  Writing each factor
    quantity as its target plus an error bounded entrywise by the factor's
    exact residual (h, t, q, g, s from :attr:`WignerFrame._exact_residuals`, with m the
    largest entry modulus and c the frame constant) bounds the product's by

        hermitian  h_a m_b + m_a h_b
        trace      t_a + t_b + t_a t_b
        square     q_a u_b + u_a q_b + q_a q_b   (u = 1 involutive, u = m idempotent)
        gram       g_a (c_b + g_b) + c_a g_b
        sum        s_a (c_b + s_b) + c_a s_b

    and m_a m_b bounds m.  Nothing here covers the rounding of forming the
    products in floating point: that is the dense check's to measure.

    A one-dimensional factor (one 1 x 1 operator s) of a matrix product needs
    |s^2 - 1| <= |s^2 - s| + |s - 1|, its square plus its trace residual.
    """
    kind = _product_kind(fa, fb)
    a, b = fa._exact_residuals, fb._exact_residuals
    qa, qb = (r.square + (r.trace if f.algebra.kind != kind else 0.0)
              for r, f in ((a, fa), (b, fb)))
    ca, cb = float(fa.norm_const), float(fb.norm_const)
    if kind == "matrix":
        unit_a = unit_b = 1.0
    else:
        unit_a, unit_b = a.max_entry, b.max_entry
    return FrameResiduals(
        hermitian=a.hermitian * b.max_entry + a.max_entry * b.hermitian,
        trace=a.trace + b.trace + a.trace * b.trace,
        square=qa * unit_b + unit_a * qb + qa * qb,
        gram=a.gram * (cb + b.gram) + ca * b.gram,
        sum=a.sum * (cb + b.sum) + ca * b.sum,
        max_entry=a.max_entry * b.max_entry,
    )


def product_frame(fa: WignerFrame, fb: WignerFrame) -> WignerFrame:
    """Tensor frame {s (x) t} in (a, b) point order: the Kronecker products of
    the two factors' operators, checked by the constructor as one block."""
    linalg._of_type(fa, WignerFrame, "first factor frame")
    linalg._of_type(fb, WignerFrame, "second factor frame")
    na, da, _ = fa.operators.shape
    nb, db, _ = fb.operators.shape
    count, d = na * nb, da * db

    def build() -> WignerFrame:
        ops = np.einsum("akl,bmn->abkmln", fa.operators, fb.operators).reshape(count, d, d)
        return WignerFrame(
            Algebra(_product_kind(fa, fb), d), ops, fa.norm_const * fb.norm_const,
            product_space(fa.space, fb.space),
        )

    return _allocate(
        f"a product frame for m = {da}, n = {db} is {count} operators of {d} x {d}",
        16 * count * d * d, build,
    )


def monoidality_check(
    m: int, n: int, trials: int = 1, seed: int = 0, tol: float = FUNCTOR_TOL
) -> MonoidalityReport:
    """Certify the m x n product frame from the two factor frames.

    ``frame_ok``: the exact Kronecker products of the two stored factor
    frames form a frame, by the bounds of :func:`_product_residuals` held to
    the frame tolerances; no product frame, channel or transfer is formed.
    m and n must be positive integers, trials a positive and seed a
    non-negative one and tol finite and positive, else
    VerificationFailedError; the last three change nothing else.
    """
    m, n = linalg.as_positive_int(m, "m"), linalg.as_positive_int(n, "n")
    trials = linalg.as_positive_int(trials, "trials")
    seed = linalg.as_positive_int(seed, "seed", zero=True)
    tol = linalg._as_tolerance(tol)
    fm = phase_point_operators(m)
    fn = phase_point_operators(n)
    try:
        _check_residuals(_product_residuals(fm, fn), _product_kind(fm, fn),
                         fm.norm_const * fn.norm_const)
        frame_ok = True
    except VerificationFailedError:
        frame_ok = False
    return MonoidalityReport(m=m, n=n, trials=trials, seed=seed, frame_ok=frame_ok, tolerance=tol)


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
        return self.refuted_psi and self.refuted_phi and _strict_overlap(self.overlap)


def _pure_trace_distance(psi: np.ndarray, phi: np.ndarray) -> float:
    """Half the trace norm of |psi><psi| - |phi><phi|, in closed form.

    With a = |psi|^2 and b = |phi|^2 the difference has trace a - b and, on
    span{psi, phi}, determinant -(ab - |<psi|phi>|^2) = -|psi ^ phi|^2 / 2 by
    Lagrange's identity, (psi ^ phi)_ij = psi_i phi_j - psi_j phi_i.  Its two
    nonzero eigenvalues thus give sqrt(((a - b)/2)^2 + |psi ^ phi|^2 / 2).
    The wedge is taken as psi ^ (phi - psi), equal to psi ^ phi: identical
    kets read exactly 0 and near-identical ones keep their relative accuracy,
    which sqrt(1 - |<psi|phi>|^2) loses to cancellation.
    """
    wedge = psi[:, None] * (phi - psi)
    wedge = wedge - wedge.T
    half = (np.vdot(psi, psi).real - np.vdot(phi, phi).real) / 2.0
    return math.sqrt(half * half + np.vdot(wedge, wedge).real / 2.0)


def epistemic_report(psi, phi) -> EpistemicReport:
    """Compare a pair's quantum distinguishability with its Wigner image.

    Reports whether either Wigner vector is anti-distinguishable within the
    pair (REFUTED certifies epistemicity for nonorthogonal pairs), the
    trace distance, and the (n/2) l1 distance of the Wigner vectors, whose
    inequality direction is asserted: trace distance never exceeds it.
    """
    psi, phi = linalg._as_ket_pair(psi, phi)
    frame = phase_point_operators(psi.size)
    rho = DensityMatrix._projector(psi)
    tau = DensityMatrix._projector(phi)
    v_rho = wigner_vector(rho, frame)
    v_tau = wigner_vector(tau, frame)
    tdist = _pure_trace_distance(psi, phi)
    l1 = float(np.abs(v_rho.weights - v_tau.weights).sum())
    scaled = 0.5 * frame.hilbert_dim * l1
    return EpistemicReport(
        overlap=float(abs(np.vdot(psi, phi))),
        dim=frame.hilbert_dim,
        refuted_psi=_response(v_rho.weights, v_tau.weights) is None,
        refuted_phi=_response(v_tau.weights, v_rho.weights) is None,
        trace_distance=float(tdist),
        scaled_l1=scaled,
        bound_ok=bool(tdist <= scaled + DISTANCE_BOUND_MARGIN),
        gap=float(scaled - tdist),
    )

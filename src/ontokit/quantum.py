"""Finite-dimensional quantum states, channels, and measurements.

The source operational category: density matrices as states, completely
positive maps in Kraus form as morphisms, projective and two-outcome
measurements, and Born-rule evaluation.  Channels are kept in Kraus form
throughout; transfer-matrix representations live in :mod:`ontokit.wigner`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimMismatchError, VerificationFailedError
from .tolerances import EIGEN_WEIGHT_EPS, IDENTITY_TOL, STRICT_MARGIN


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix.

    ``matrix`` is a read-only copy of the given one, and
    :func:`linalg.hermitian_eigensystem` coerces it, checks its shape and
    Hermiticity and decomposes it.  ``eigensystem`` is that read-only
    ``(w, V)``, kept for :func:`preparation_channel`.  An exact state, from
    :meth:`from_ket` or :func:`apply_channel` of one, is Hermitian and positive
    semidefinite up to rounding: it skips that gate and decomposes on first read.
    """

    matrix: np.ndarray
    _exact = False  # not a field: set by _held

    def __post_init__(self):
        m = linalg.frozen(linalg._as_array(self.matrix, "density matrix", complex))
        eigensystem = linalg.hermitian_eigensystem(m)
        _unit_trace(m)
        lo = eigensystem[0][0]
        if lo < -IDENTITY_TOL:
            raise VerificationFailedError(f"negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", m)
        # fills the cached property, so it is never recomputed
        object.__setattr__(self, "eigensystem", eigensystem)

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        return linalg.hermitian_eigensystem(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_ket(cls, psi) -> "DensityMatrix":
        """Rank-1 projector of a unit vector; skips the spectrum check."""
        return cls._projector(linalg.as_ket(psi))

    @classmethod
    def _projector(cls, k: np.ndarray) -> "DensityMatrix":
        """|k><k| of a ket that :func:`linalg.as_ket` or its construction made unit."""
        return cls._held(np.outer(k, k.conj()))

    @classmethod
    def _held(cls, m: np.ndarray) -> "DensityMatrix":
        """Hold ``m``, an exact state that nothing else shares, without the eigh gate."""
        m.flags.writeable = False
        obj = object.__new__(cls)
        object.__setattr__(obj, "matrix", m)
        object.__setattr__(obj, "_exact", True)
        return obj


def _unit_trace(m: np.ndarray) -> np.ndarray:
    tr = m.trace()
    if abs(tr.real - 1.0) > IDENTITY_TOL or abs(tr.imag) > IDENTITY_TOL:
        raise VerificationFailedError(f"trace {complex(tr)!r} deviates from 1")
    return m


@dataclass(frozen=True, eq=False)
class Channel:
    """Trace-preserving completely positive map in Kraus form: the Kraus
    operators resolve the identity, sum_k K^dag K = I.

    ``kraus`` is the Kraus set as one read-only (count, out, in) complex
    array: ``kraus[k]`` is operator k, and iteration and ``len`` run over
    the operators.  The constructor, which every channel builder calls,
    takes any sequence of equal-shape matrices and holds a copy of it once
    ``linalg._as_held`` holds its entries and max|sum_k K^dag K - I| is
    measured within IDENTITY_TOL.
    """

    kraus: np.ndarray

    def __post_init__(self):
        kraus = linalg._of_type(self.kraus, Iterable, "Kraus set")
        try:
            stack = linalg.frozen(linalg._as_array(kraus, "Kraus set", complex))
        except VerificationFailedError:
            # operators of different shapes, or one that as_matrix names as malformed
            list(map(linalg.as_matrix, kraus))
            raise DimMismatchError("all Kraus operators must share one shape") from None
        if stack.shape[:1] == (0,):
            raise VerificationFailedError("channel needs at least one Kraus operator")
        if stack.ndim != 3 or 0 in stack.shape[1:]:
            raise DimMismatchError(f"expected a 2-d matrix, got shape {stack.shape[1:]}")
        count, out, inp = linalg._as_held(stack, "matrix entries").shape
        # sum_k K^dag K = flat^dag flat, flat the operators stacked row-wise
        flat = stack.reshape(count * out, inp)
        kraus_sum = flat.conj().T @ flat
        kraus_sum.reshape(-1)[:: inp + 1] -= 1.0  # minus I, on the diagonal in place
        residual = linalg.max_abs(kraus_sum)
        if residual > IDENTITY_TOL:
            raise VerificationFailedError(f"Kraus sum deviates from identity by {residual:.3e}")
        object.__setattr__(self, "kraus", stack)

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "Channel":
        """I on C^dim, one Kraus operator."""
        return cls(np.eye(linalg.as_positive_int(dim, "dim"), dtype=complex)[None])


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Orthonormal basis of outcome vectors: the rows of ``vectors``, unit kets by ``as_kets``."""

    vectors: np.ndarray

    def __post_init__(self):
        v = linalg.frozen(linalg._as_array(self.vectors, "outcome vectors", complex))
        if v.ndim != 2:
            raise DimMismatchError("vectors must be a 2-d array (outcomes, dim)")
        if not v.size or len(linalg.as_kets(v)) != v.shape[1]:
            raise VerificationFailedError("%d outcome vectors do not form a basis of C^%d" % v.shape)
        err = linalg.max_abs(v.conj() @ v.T - np.eye(len(v)))
        if err > IDENTITY_TOL:
            raise VerificationFailedError(f"outcome vectors are not orthonormal: Gram error {err:.3e}")
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class TwoOutcomeMeasurement:
    """Effect operator E with 0 <= E <= I; outcome 0 fires with Tr(E rho).

    ``effect`` is a read-only copy of the given one, and
    :func:`linalg.hermitian_eigensystem` coerces it, checks its shape and
    Hermiticity and decomposes it.  ``eigensystem`` is that read-only
    ``(w, V)``, kept for :func:`measurement_channel`.
    """

    effect: np.ndarray
    eigensystem: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        e = linalg.frozen(linalg._as_array(self.effect, "effect", complex))
        eigensystem = linalg.hermitian_eigensystem(e)
        w = eigensystem[0]
        if w[0] < -IDENTITY_TOL or w[-1] > 1.0 + IDENTITY_TOL:
            raise VerificationFailedError(
                f"effect spectrum [{w[0]:.3e}, {w[-1]:.6f}] not within [0, 1]"
            )
        object.__setattr__(self, "effect", e)
        object.__setattr__(self, "eigensystem", eigensystem)

    @property
    def dim(self) -> int:
        return self.effect.shape[0]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def overlap(psi, phi) -> complex:
    """Inner product <psi|phi>, conjugate-linear in the first argument."""
    return complex(np.vdot(*linalg._as_ket_pair(psi, phi)))


def _strict_overlap(modulus):
    """The strict-overlap rule, elementwise: whether |<psi|phi>| lies inside (0, 1)
    by STRICT_MARGIN at each end, so the pair is nonorthogonal and distinct."""
    return (modulus > STRICT_MARGIN) & (modulus < 1.0 - STRICT_MARGIN)


def born(state: DensityMatrix, m: ProjectiveMeasurement, k: int) -> float:
    """Probability of outcome ``k`` (0-based), clamped to [0, 1]."""
    if state.dim != m.dim:
        raise DimMismatchError("state and measurement dimensions differ")
    v = m.vectors[linalg._as_index(k, m.n_outcomes, "outcome index", "a basis of {}")]
    p = float(np.real(np.vdot(v, state.matrix @ v)))
    if p < -IDENTITY_TOL or p > 1.0 + IDENTITY_TOL:
        raise VerificationFailedError(f"Born probability {p!r} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def apply_channel(ch: Channel, state: DensityMatrix) -> DensityMatrix:
    """Kraus action.  A Kraus map's image of an exact state (see
    :class:`DensityMatrix`) is exact too, so only its trace, which the Kraus
    sum's residual can move, is checked.  Any other image is gated again: a
    channel can widen a deviation that the gate tolerated."""
    if ch.in_dim != state.dim:
        raise DimMismatchError("channel input dimension does not match state")
    k = ch.kraus
    # summed from zero, as a running total would be, so no entry is -0.0
    m = (k @ state.matrix @ k.conj().transpose(0, 2, 1)).sum(axis=0, initial=0)
    return DensityMatrix._held(_unit_trace(m)) if state._exact else DensityMatrix(m)


def compose(g: Channel, f: Channel) -> Channel:
    """Sequential composition g after f; Kraus sets multiply pairwise,
    g-major: operator a * len(f.kraus) + b is g.kraus[a] @ f.kraus[b]."""
    if f.out_dim != g.in_dim:
        raise DimMismatchError(
            f"cannot compose: f outputs dim {f.out_dim}, g expects {g.in_dim}"
        )
    ops = (g.kraus[:, None] @ f.kraus[None]).reshape(-1, g.out_dim, f.in_dim)
    return Channel(ops)


def tensor(f: Channel, g: Channel) -> Channel:
    """Parallel composition; Kraus sets combine by Kronecker product, f-major."""
    a, b = f.kraus, g.kraus
    # kron(A, B)[(i, k), (j, l)] = A[i, j] B[k, l]
    ops = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    ops = ops.reshape(len(a) * len(b), f.out_dim * g.out_dim, f.in_dim * g.in_dim)
    return Channel(ops)


def preparation_channel(state: DensityMatrix) -> Channel:
    """State as a channel from the trivial system C: one Kraus column
    sqrt(p) v per eigenpair (p, v) with p > EIGEN_WEIGHT_EPS, read off the
    eigensystem that validating the state computed."""
    w, v = state.eigensystem
    keep = w > EIGEN_WEIGHT_EPS
    return Channel((np.sqrt(w[keep]) * v[:, keep]).T[:, :, None])


def measurement_channel(m: TwoOutcomeMeasurement) -> Channel:
    """Two-outcome measurement as a channel into the diagonal 2x2 algebra.

    Output is always diagonal: diag(Tr(E rho), Tr((I-E) rho)).  E = V w V^dag
    and I - E = V (1 - w) V^dag share the eigenbasis V, so outcome r gets
    one Kraus operator sqrt(p) |r><v| per eigenpair with weight p > EIGEN_WEIGHT_EPS,
    read off the eigensystem that validating the effect computed.
    """
    w, v = m.eigensystem
    weights = np.array([w, 1.0 - w])
    outcome, j = np.nonzero(weights > EIGEN_WEIGHT_EPS)
    ops = np.zeros((outcome.size, 2, m.dim), dtype=complex)
    ops[np.arange(outcome.size), outcome] = np.sqrt(weights[outcome, j])[:, None] * v[:, j].T.conj()
    return Channel(ops)

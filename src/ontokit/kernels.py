"""Finite measurable spaces with Markov and signed Markov kernels.

Spaces are finite label lists carrying the full power set as sigma-algebra.
A kernel is stored column-stochastic: entry ``(i, j)`` is the signed mass
the kernel sends from source point ``j`` to target point ``i``, so kernel
composition is a plain matrix product acting on the left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    SignedUnsupportedError, SpaceMismatchError, VerificationFailedError, WrongSpaceError,
)
from .tolerances import IDENTITY_TOL, NONNEG_TOL, SUPPORT_EPS


@dataclass(frozen=True)
class FiniteSpace:
    """Finite set of distinct string point labels; sigma-algebra is the power set."""

    points: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", _labels(self.points, "point"))
        if not self.points:
            raise VerificationFailedError("a finite space needs at least one point")

    @property
    def size(self) -> int:
        return len(self.points)


def _labels(labels, kind: str) -> tuple[str, ...]:
    """``labels`` as a tuple of distinct strings; str() would make 1 and "1"
    collide, and a bare string would be read as its characters."""
    if isinstance(labels, (str, bytes)) or not hasattr(labels, "__iter__"):
        raise VerificationFailedError(
            f"{kind} labels must be a collection of strings, got {labels!r}"
        )
    labels = tuple(labels)
    for label in labels:
        if not isinstance(label, str):
            raise VerificationFailedError(f"{kind} label {label!r} is not a string")
    if len(set(labels)) != len(labels):
        raise VerificationFailedError(f"{kind} labels must be distinct")
    return labels


UNIT_SPACE = FiniteSpace(("*",))
TWO = FiniteSpace(("0", "1"))


def product_space(x: FiniteSpace, y: FiniteSpace) -> FiniteSpace:
    """Cartesian product, left factor major (lexicographic)."""
    return FiniteSpace(tuple(f"({a},{b})" for a in x.points for b in y.points))


@dataclass(frozen=True, eq=False)
class SignedKernel:
    """Signed Markov kernel between finite spaces.

    ``matrix`` has shape ``(|target|, |source|)``; every column sums to 1.
    Entries may have any sign and size: kernels composed from signed ones
    leave [-1, 1], and so do images of channels between frames of different
    constants (:func:`ontokit.wigner.functor_morphism` bounds those).

    ``matrix`` is a C-contiguous, read-only float64 copy of the given one,
    held once its entries pass ``linalg._as_held`` and its column sums are
    within IDENTITY_TOL of 1.
    """

    source: FiniteSpace
    target: FiniteSpace
    matrix: np.ndarray
    markov: bool = field(init=False)

    def __post_init__(self):
        linalg._of_type(self.source, FiniteSpace, "kernel source")
        linalg._of_type(self.target, FiniteSpace, "kernel target")
        m = linalg.frozen(linalg.as_real(self.matrix, "kernel matrix"))
        if m.shape != (self.target.size, self.source.size):
            raise SpaceMismatchError(
                f"kernel matrix shape {m.shape} does not match "
                f"({self.target.size}, {self.source.size})"
            )
        col_err = linalg.max_abs(linalg._as_held(m, "kernel matrix entries").sum(axis=0) - 1.0)
        if col_err > IDENTITY_TOL:
            raise VerificationFailedError(f"column sums deviate from 1 by {col_err:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "markov", not _signed(m))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Normalised signed weight vector over a finite space."""

    space: FiniteSpace
    weights: np.ndarray

    def __post_init__(self):
        w = linalg.frozen(linalg.as_real(self.weights, "weight vector")).reshape(-1)
        _check_weight_rows(linalg._of_type(self.space, FiniteSpace, "distribution space"), w[None])
        object.__setattr__(self, "weights", w)

    @property
    def is_probability(self) -> bool:
        return not _signed(self.weights)


@dataclass(frozen=True, eq=False)
class ResponseFunction:
    """Measurable function into [0, 1]: one measurement outcome's response."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        v = linalg.frozen(linalg.as_real(self.values, "response")).reshape(-1)
        _check_response_rows(linalg._of_type(self.space, FiniteSpace, "response space"), v[None])
        object.__setattr__(self, "values", v)


def _check_weight_rows(space: FiniteSpace, w: np.ndarray, part: str | None = None) -> None:
    """The Distribution checks on each row of a (rows x points) matrix; the
    first row that fails raises its error, with its index as ``row``."""
    if w.ndim != 2 or w.shape[1] != space.size:
        raise SpaceMismatchError("weight vector length does not match space")
    linalg._as_held(w, "weights", part, lambda head, part: _check_weight_rows(space, head, part))
    for i, total in enumerate(w.sum(axis=1).tolist()):
        if abs(total - 1.0) > IDENTITY_TOL:
            raise VerificationFailedError(f"weights sum to {total!r}, expected 1", i, part)


def _signed(w: np.ndarray, axis=None):
    """The sign rule of SignedKernel.markov, Distribution.is_probability and a
    model's weight rows: whether ``w`` (along ``axis``) has an entry below -NONNEG_TOL."""
    return w.min(axis=axis) < -NONNEG_TOL


def _check_response_rows(space: FiniteSpace, v: np.ndarray, part: str | None = None) -> None:
    """The ResponseFunction checks on each row of a (rows x points) matrix;
    the error names the first row that fails."""
    if v.ndim != 2 or v.shape[1] != space.size:
        raise SpaceMismatchError("response length does not match space")
    # min and max propagate a NaN, which fails both comparisons
    if not (v.min(initial=0.0) >= -NONNEG_TOL and v.max(initial=1.0) <= 1.0 + NONNEG_TOL):
        row = int(((v < -NONNEG_TOL) | ~(v <= 1.0 + NONNEG_TOL)).any(axis=1).argmax())
        raise VerificationFailedError("response values must lie in [0, 1]", row, part)


def distribution_rows(space: FiniteSpace, weights) -> list[Distribution]:
    """One Distribution per row of a (rows x points) weight matrix, checked
    once as a whole; each Distribution's weights are a read-only row of one
    copy of it."""
    w = linalg.frozen(linalg.as_real(weights, "weight matrix"))
    _check_weight_rows(space, w)
    rows = []
    for row in w:
        mu = object.__new__(Distribution)
        object.__setattr__(mu, "space", space)
        object.__setattr__(mu, "weights", row)
        rows.append(mu)
    return rows


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def kcompose(g: SignedKernel, f: SignedKernel) -> SignedKernel:
    """Kernel composition by integration: plain matrix product."""
    if f.target != g.source:
        raise SpaceMismatchError("codomain of f must equal domain of g")
    return SignedKernel(f.source, g.target, g.matrix @ f.matrix)


def ktensor(f: SignedKernel, g: SignedKernel) -> SignedKernel:
    """Monoidal product: Kronecker product on matrices, product spaces."""
    return SignedKernel(
        product_space(f.source, g.source),
        product_space(f.target, g.target),
        np.kron(f.matrix, g.matrix),
    )


def dtensor(mu: Distribution, nu: Distribution) -> Distribution:
    """Product distribution on the product space."""
    return Distribution(product_space(mu.space, nu.space), np.kron(mu.weights, nu.weights))


def evaluate(p: Distribution) -> float:
    """Evaluation of an abstract probability: weight of the point '0'."""
    if p.space != TWO:
        raise WrongSpaceError(f"evaluation requires the space {TWO.points}, got {p.space.points}")
    return float(p.weights[0])


def variational_distance(mu: Distribution, nu: Distribution) -> float:
    """sup over events of |mu(U) - nu(U)|.

    For normalised weight vectors the difference sums to zero, so the sup
    equals both the total positive part and the total negative part.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("distributions live on different spaces")
    diff = mu.weights - nu.weights
    return float(max(np.maximum(diff, 0.0).sum(), np.maximum(-diff, 0.0).sum()))


def support_mask(mu: Distribution) -> np.ndarray:
    """Which points carry mass above ``SUPPORT_EPS``; probability distributions only."""
    if not mu.is_probability:
        raise SignedUnsupportedError("support of a signed distribution is not defined")
    return mu.weights > SUPPORT_EPS

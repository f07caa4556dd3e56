"""Quantum measures and decoherence functionals on finite spaces.

Quantum measures relax Kolmogorov additivity to the three-set sum rule
while keeping positivity and normalisation; decoherence functionals are
Hermitian, bi-additive, strongly positive set functions whose diagonal is
always a quantum measure.  Only validators and the diagonal construction
are provided: composition of quantum-measure-valued kernels is left alone
on purpose, since no sound integration theory backs it.

A measure obeys the sum rule iff its Möbius coefficients vanish on the
empty set and on every set of three or more points.  For a measure read as
a table, one O(n 2^n) transform decides it at every size.  A measure derived
from a decoherence functional is a quadratic form in the indicator of a set,
so it is 2-additive by construction and skips the transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import linalg
from .errors import InvalidFunctionalError, TooLargeError, VerificationFailedError
from .kernels import FiniteSpace
from .tolerances import QMEASURE_TOL

MAX_POINTS = 16


def check_size(n: int) -> None:
    if n > MAX_POINTS:
        raise TooLargeError(
            f"at most {MAX_POINTS} points supported, got {n}: a measure on n points "
            "is a table of 2^n subset values"
        )


@dataclass(frozen=True, eq=False)
class QuantumMeasure:
    """Set function on the power set, indexed by bitmask over the points.

    A measure that :func:`measure_from_decoherence` builds is 2-additive by
    construction, and only that function sets ``_two_additive``: a measure
    from the constructor or ``dataclasses.replace`` is checked in full."""

    space: FiniteSpace
    values: np.ndarray
    _two_additive = False  # not a field: set by measure_from_decoherence

    def __post_init__(self):
        check_size(linalg._of_type(self.space, FiniteSpace, "measure space").size)
        v = linalg.frozen(linalg.as_real(self.values, "subset values")).reshape(-1)
        if v.size != 2 ** self.space.size:
            raise VerificationFailedError(
                f"expected {2 ** self.space.size} subset values, got {v.size}"
            )
        if not np.isfinite(v).all():
            raise VerificationFailedError("subset values contain NaN or Inf")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class DecoherenceFunctional:
    """Two-argument set function, stored on singletons and extended
    bi-additively: D(U, V) = sum over x in U, y in V of the matrix entry."""

    space: FiniteSpace
    matrix: np.ndarray

    def __post_init__(self):
        check_size(linalg._of_type(self.space, FiniteSpace, "functional space").size)
        m = linalg.frozen(linalg._as_array(self.matrix, "functional", complex))
        if m.shape != (self.space.size, self.space.size):
            raise VerificationFailedError("singleton matrix shape must match the space")
        if not np.all(np.isfinite(m.view(float))):
            raise VerificationFailedError("functional contains NaN or Inf")
        with np.errstate(over="ignore"):
            mass = 2.0 * np.abs(m).sum()
        if not np.isfinite(mass):
            # then m + m^dag, the total and the spectrum all stay finite
            raise VerificationFailedError(
                "functional entries too large: twice their total modulus overflows"
            )
        object.__setattr__(self, "matrix", m)

    @cached_property
    def _residuals(self) -> tuple[float, float, float]:
        """max |m - m^dag|, |sum of m - 1| and the least eigenvalue of the
        Hermitian part (m + m^dag) / 2, in the order of ``DecoherenceReport``'s
        fields: the numbers each report judges, computed once."""
        m = self.matrix
        mh = m.conj().T
        return (
            linalg.max_abs(m - mh),
            abs(complex(m.sum()) - 1.0),
            float(linalg.hermitian_eigenvalues((m + mh) / 2)[0]),
        )


@dataclass
class QuantumMeasureReport:
    tolerance: float
    normalisation_error: float = 0.0
    positivity_violations: list = field(default_factory=list)
    range_violations: list = field(default_factory=list)
    sum_rule_violations: list = field(default_factory=list)
    triple_check: ClassVar[str] = "mobius"

    @property
    def clean(self) -> bool:
        return (
            self.normalisation_error <= self.tolerance
            and not self.positivity_violations
            and not self.range_violations
            and not self.sum_rule_violations
        )


def _minimal(bad: np.ndarray, n: int) -> np.ndarray:
    """Ascending masks of the inclusion-minimal sets flagged in ``bad``; the
    strict OR-zeta closure ``below`` marks S when a flagged set lies within."""
    below = np.zeros_like(bad)
    for i in range(n):
        b, c = bad.reshape(-1, 2, 1 << i), below.reshape(-1, 2, 1 << i)
        c[:, 1] |= b[:, 0] | c[:, 0]
    return np.flatnonzero(bad & ~below)


def _records(values: np.ndarray, hits: np.ndarray) -> list:
    return [{"mask": int(s), "value": float(values[s])} for s in np.flatnonzero(hits)]


def _sum_rule_violations(values: np.ndarray, n: int, tol: float) -> list:
    """One record per inclusion-minimal S with |m[S]| > tol, S empty or of
    three or more points, m the Möbius transform of ``values``."""
    m = values.copy()  # becomes m[S] = sum over T within S of (-1)^|S-T| mu(T)
    for i in range(n):
        pairs = m.reshape(-1, 2, 1 << i)  # [:, 0] lacks point i, [:, 1] holds it
        pairs[:, 1] -= pairs[:, 0]
    bits = 1 << np.arange(n)
    bad = np.abs(m) > tol
    bad[bits[:, None] | bits] = False  # one- and two-point coefficients are free
    s = _minimal(bad, n)
    u = s & -s
    v = (s ^ u) & -(s ^ u)
    w = s ^ u ^ v
    rhs = values[u | v] + values[u | w] + values[v | w] - values[u] - values[v] - values[w]
    return [
        {"u": int(a), "v": int(b), "w": int(c), "lhs": float(values[k]), "rhs": float(r)}
        for k, a, b, c, r in zip(s, u, v, w, rhs)
    ]


def validate_quantum_measure(q: QuantumMeasure, tol: float = QMEASURE_TOL) -> QuantumMeasureReport:
    """Positivity, range, normalisation, and the three-set quantum sum rule.

    mu obeys the sum rule on every disjoint triple iff it is 2-additive: its
    Möbius coefficient m[S] vanishes for S empty and for |S| >= 3 (Sorkin,
    gr-qc/9401003).  Each such |m[S]| > tol is a violation, so ``tol`` bounds
    each coefficient, not each triple.  One record per inclusion-minimal S,
    in ascending mask order, names u = the lowest point of S, v = the next
    and w = the rest (all 0 for S empty), with lhs = mu(u+v+w) and
    rhs = mu(u+v) + mu(u+w) + mu(v+w) - mu(u) - mu(v) - mu(w).  A measure
    from :func:`measure_from_decoherence` is 2-additive by theorem and has
    no such record; the transform runs for every other measure.
    """
    values = q.values
    return QuantumMeasureReport(
        tolerance=tol,
        normalisation_error=abs(float(values[-1]) - 1.0),
        positivity_violations=_records(values, values < -tol),
        range_violations=_records(values, values > 1.0 + tol),
        sum_rule_violations=(
            [] if q._two_additive else _sum_rule_violations(values, q.space.size, tol)
        ),
    )


@dataclass
class DecoherenceReport:
    tolerance: float
    hermitian_error: float = 0.0
    normalisation_error: float = 0.0
    min_eigenvalue: float = 0.0

    @property
    def clean(self) -> bool:
        return (
            self.hermitian_error <= self.tolerance
            and self.normalisation_error <= self.tolerance
            and self.min_eigenvalue >= -self.tolerance
        )


def validate_decoherence(d: DecoherenceFunctional, tol: float = QMEASURE_TOL) -> DecoherenceReport:
    """Hermiticity, normalisation D(all, all) = 1, and strong positivity of
    the singleton matrix (any subset-family matrix is a congruence of it,
    so positive semidefiniteness transfers).  ``min_eigenvalue`` is that of
    the Hermitian part (m + m^dag) / 2, which is m itself when m is Hermitian.
    The functional decomposes once, however often it is validated."""
    return DecoherenceReport(tol, *d._residuals)


def measure_from_decoherence(d: DecoherenceFunctional, tol: float = QMEASURE_TOL) -> QuantumMeasure:
    """The diagonal mu(U) = Re D(U, U) = 1_U^T Re(m) 1_U; the functional is
    validated first, and that bound on |D - D^dag| is the one reading of
    "Hermitian within tol".

    The table doubles a point at a time: for S within the points below i,
    mu(S + i) = mu(S) + g_i(S), with g_i(S) = Re m_ii + sum over j in S of
    (Re m_ij + Re m_ji).  The symmetrised pair term keeps the table equal to
    the quadratic form, up to rounding, when m is Hermitian only within tol.
    """
    check = validate_decoherence(d, tol)
    if not check.clean:
        raise InvalidFunctionalError(
            f"functional invalid: hermitian {check.hermitian_error:.3e}, "
            f"normalisation {check.normalisation_error:.3e}, "
            f"min eigenvalue {check.min_eigenvalue:.3e}"
        )
    n = d.space.size
    r = d.matrix.real
    pair = r + r.T
    values = np.zeros(1 << n)
    gain = np.zeros((n, 1 << n))  # at step i, row j >= i holds g_j on the first 2^i sets
    gain[:, 0] = r.diagonal()
    for i in range(n):
        k = 1 << i
        np.add(values[:k], gain[i, :k], out=values[k:2 * k])
        np.add(gain[i + 1:, :k], pair[i + 1:, i, None], out=gain[i + 1:, k:2 * k])
    q = QuantumMeasure(d.space, values)
    object.__setattr__(q, "_two_additive", True)
    return q

"""Quantum measures and decoherence functionals on finite spaces.

Quantum measures relax Kolmogorov additivity to the three-set sum rule
while keeping positivity and normalisation; decoherence functionals are
Hermitian, bi-additive, strongly positive set functions whose diagonal is
always a quantum measure.  Only validators and the diagonal construction
are provided: composition of quantum-measure-valued kernels is left alone
on purpose, since no sound integration theory backs it.

A measure obeys the sum rule iff its Möbius coefficients vanish on the
empty set and on every set of three or more points; one O(n 2^n) transform
decides it at every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Set function on the power set, indexed by bitmask over the points."""

    space: FiniteSpace
    values: np.ndarray

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


def validate_quantum_measure(q: QuantumMeasure, tol: float = QMEASURE_TOL) -> QuantumMeasureReport:
    """Positivity, range, normalisation, and the three-set quantum sum rule.

    mu obeys the sum rule on every disjoint triple iff it is 2-additive: its
    Möbius coefficient m[S] vanishes for S empty and for |S| >= 3 (Sorkin,
    gr-qc/9401003).  Each such |m[S]| > tol is a violation, so ``tol`` bounds
    each coefficient, not each triple.  One record per inclusion-minimal S,
    in ascending mask order, names u = the lowest point of S, v = the next
    and w = the rest (all 0 for S empty), with lhs = mu(u+v+w) and
    rhs = mu(u+v) + mu(u+w) + mu(v+w) - mu(u) - mu(v) - mu(w).
    """
    n = q.space.size
    values = q.values
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
    return QuantumMeasureReport(
        tolerance=tol,
        normalisation_error=abs(float(values[-1]) - 1.0),
        positivity_violations=_records(values, values < -tol),
        range_violations=_records(values, values > 1.0 + tol),
        sum_rule_violations=[
            {"u": int(a), "v": int(b), "w": int(c), "lhs": float(values[k]), "rhs": float(r)}
            for k, a, b, c, r in zip(s, u, v, w, rhs)
        ],
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
    the Hermitian part (m + m^dag) / 2, which is m itself when m is Hermitian."""
    m = d.matrix
    sym = (m + m.conj().T) / 2
    return DecoherenceReport(
        tolerance=tol,
        hermitian_error=linalg.max_abs(m - m.conj().T),
        normalisation_error=abs(complex(m.sum()) - 1.0),
        min_eigenvalue=float(linalg.hermitian_eigenvalues(sym)[0]),
    )


def measure_from_decoherence(d: DecoherenceFunctional, tol: float = QMEASURE_TOL) -> QuantumMeasure:
    """The diagonal mu(U) = Re D(U, U); the functional is validated first, and
    that bound on |D - D^dag| is the one reading of "Hermitian within tol"."""
    check = validate_decoherence(d, tol)
    if not check.clean:
        raise InvalidFunctionalError(
            f"functional invalid: hermitian {check.hermitian_error:.3e}, "
            f"normalisation {check.normalisation_error:.3e}, "
            f"min eigenvalue {check.min_eigenvalue:.3e}"
        )
    n = d.space.size
    ones = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    values = np.einsum("si,si->s", ones @ d.matrix.real, ones)
    return QuantumMeasure(d.space, values)

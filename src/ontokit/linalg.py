"""Dense complex linear algebra at desk scale.

Everything in the toolkit runs through this module: matrices are plain
``numpy`` arrays of ``complex128``, kets are unit vectors that one gate
admits, alone or as the rows of a stack (:func:`as_kets`).
Hermitian spectra come from ``numpy.linalg.eigh`` behind a Hermiticity check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimMismatchError, NotHermitianError, VerificationFailedError
from .tolerances import IDENTITY_TOL, TIGHT_IDENTITY_TOL


def frozen(arr) -> np.ndarray:
    """A C-contiguous, read-only copy of ``arr`` for a validated object to
    hold: writes through the caller's array cannot reach it, and writes
    into it fail at once."""
    arr = np.array(arr, order="C")
    arr.setflags(write=False)
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimMismatchError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise VerificationFailedError("matrix contains NaN or Inf entries")
    return m


def as_real(a, what: str) -> np.ndarray:
    """Coerce to a float array.  Complex input whose imaginary part is
    nonzero anywhere (a NaN part counts) is refused: a cast would drop that
    part with only a ComplexWarning.  A float64 array passes on its dtype."""
    arr = np.asarray(a)
    if arr.dtype == np.float64:
        return arr
    if arr.dtype.kind == "c":
        if arr.imag.any():
            raise VerificationFailedError(f"{what} has a nonzero imaginary part")
        arr = arr.real
    return np.asarray(arr, dtype=float)


def as_positive_int(value, what: str):
    """``value`` if it is a positive integer, a numpy one included; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise VerificationFailedError(f"{what} must be a positive integer, got {value!r}")
    return value


def as_ket(v) -> np.ndarray:
    """Coerce to a finite 1-d complex unit vector: the one-row case of
    :func:`as_kets`, with its errors."""
    return as_kets(np.asarray(v, dtype=complex).reshape(1, -1))[0]


def as_kets(rows) -> np.ndarray:
    """Coerce to a 2-d complex array of kets: rows with an amplitude, finite,
    of norm within ``TIGHT_IDENTITY_TOL`` of 1; the first row that fails
    raises.  A norm sqrt(np.vecdot(row, row)) has the same bits alone and in
    any stack, so a stack passes iff :func:`as_ket` passes each row; a huge
    row's overflows to inf and fails, with no warning."""
    kets = np.asarray(rows, dtype=complex)
    if kets.ndim != 2:
        raise DimMismatchError(f"expected a 2-d stack of kets, got shape {kets.shape}")
    if kets.shape[1] < 1 and len(kets):
        raise DimMismatchError("ket must have at least one amplitude")
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.vecdot(kets, kets).real.tolist()
    # a Python loop: on one or a few rows, cheaper than numpy's reductions
    for i, sq in enumerate(squares):
        nrm = math.sqrt(sq)
        if not abs(nrm - 1.0) <= TIGHT_IDENTITY_TOL:  # a NaN norm fails too
            if not np.isfinite(kets[i]).all():
                raise VerificationFailedError("ket contains NaN or Inf amplitudes")
            raise VerificationFailedError(
                f"ket norm {nrm!r} deviates from 1 beyond {TIGHT_IDENTITY_TOL}"
            )
    return kets


def max_abs(a) -> float:
    """Largest entrywise modulus; the workhorse comparison metric.  The
    ndarray method reduces without ``numpy.max``'s Python-level wrapper."""
    return float(np.abs(a).max())


def hermitian_eigensystem(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Returns read-only ``(w, V)`` with ``a = V @ diag(w) @ V^dag`` and ``V``
    unitary, from ``numpy.linalg.eigh`` on the Hermitian part
    (a + a^dag) / 2 of ``a``.  This is the one gate for states and effects:
    ``a`` is coerced by :func:`as_matrix`, then must be square
    (``DimMismatchError``) and Hermitian to within ``IDENTITY_TOL``
    (``NotHermitianError``).
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimMismatchError(f"matrix must be square, got shape {m.shape}")
    mh = m.conj().T
    dev = max_abs(m - mh)
    if dev > IDENTITY_TOL:
        raise NotHermitianError(f"max |a - a^dag| = {dev:.3e} exceeds {IDENTITY_TOL}")
    w, v = np.linalg.eigh((m + mh) / 2)
    w.flags.writeable = v.flags.writeable = False
    return w, v


def hermitian_eigenvalues(a) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix in nondecreasing order."""
    return hermitian_eigensystem(a)[0]


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eigenvalues(a))))

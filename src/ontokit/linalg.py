"""Dense complex linear algebra at desk scale.

Everything in the toolkit runs through this module: matrices are plain
``numpy`` arrays of ``complex128``, kets are one-dimensional unit vectors.
Hermitian spectra come from ``numpy.linalg.eigh`` behind a Hermiticity check.
"""

from __future__ import annotations

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


def as_ket(v) -> np.ndarray:
    """Coerce to a finite 1-d complex unit vector."""
    k = np.asarray(v, dtype=complex).reshape(-1)
    if k.size < 1:
        raise DimMismatchError("ket must have at least one amplitude")
    if not np.isfinite(k).all():
        raise VerificationFailedError("ket contains NaN or Inf amplitudes")
    nrm = np.linalg.norm(k)
    if abs(nrm - 1.0) > TIGHT_IDENTITY_TOL:
        raise VerificationFailedError(
            f"ket norm {float(nrm)!r} deviates from 1 beyond {TIGHT_IDENTITY_TOL}"
        )
    return k


def clearly_unit_rows(kets: np.ndarray) -> np.ndarray:
    """Which rows of a 2-d complex array have a norm within half of
    ``TIGHT_IDENTITY_TOL`` of 1.  The other half is kept in reserve for the
    rounding of a single ket's norm, so that :func:`as_ket` accepts every
    such row, and so does parse_ket; a non-finite or huge row is not clear,
    and raises no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(kets, axis=1)
    return np.abs(norms - 1.0) <= TIGHT_IDENTITY_TOL / 2


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

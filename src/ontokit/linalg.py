"""Dense complex linear algebra at desk scale.

Everything in the toolkit runs through this module: matrices are plain
``numpy`` arrays of ``complex128``, and Hermitian spectra come from
``numpy.linalg.eigh`` behind a Hermiticity check.  Each kind of argument is
admitted by one gate here, which names the argument when it refuses one:

- ``_as_held``, :func:`as_matrix`, :func:`as_real`: held arrays, matrices, real arrays;
- :func:`as_ket`, :func:`as_kets`: unit kets, alone or as the rows of a stack or a basis;
- ``_as_ket_pair``: two kets of one dimension;
- :func:`hermitian_eigensystem`: Hermitian matrices, for states and effects;
- :func:`as_positive_int`: every dimension, count, power, seed and stream key;
- ``_as_index``: every index (an outcome, a target, a Z_n point, a bitmask);
- ``_as_tolerance``: every report tolerance;
- ``_of_type``: every library-typed argument of a constructor or a Wigner map.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimMismatchError, IndexOutOfRangeError, NotHermitianError, VerificationFailedError
from .tolerances import IDENTITY_TOL, TIGHT_IDENTITY_TOL


def frozen(arr) -> np.ndarray:
    """A C-contiguous, read-only copy of ``arr`` for a validated object to
    hold: writes through the caller's array cannot reach it, and writes
    into it fail at once."""
    arr = np.array(arr, order="C")
    arr.setflags(write=False)
    return arr


def _as_array(a, what: str, dtype=None) -> np.ndarray:
    """``a`` as an array of bools, ints, floats or complex numbers, cast to any
    ``dtype`` given; ragged input and other entries (a string, None) are refused."""
    try:
        arr = np.asarray(a)
    except ValueError:
        raise VerificationFailedError(f"ragged {what}: entries differ in length or depth") from None
    if arr.dtype.kind not in "biufc":
        raise VerificationFailedError(f"entries of {what} must be numbers")
    return arr if dtype is None else arr.astype(dtype, copy=False)


def _as_held(arr: np.ndarray, what: str, part: str | None = None, rows=None) -> np.ndarray:
    """``arr`` if each of its M real numbers (two per complex entry) is finite
    and at most sqrt(max float / 2M): their squares then sum to at most half
    the float range, so no sum, square or product its holder forms overflows.
    Else a VerificationFailedError naming ``what``, the entries' plural noun.
    Given the holder's row check ``rows``, each row of a 2-d ``arr`` is held
    alone, and ``rows(head, part)`` first checks the rows above one that fails."""
    parts = np.ascontiguousarray(arr).view(float) if arr.dtype.kind == "c" else arr
    bound = math.sqrt(sys.float_info.max / (2 * (parts.shape[-1] if rows else parts.size) or 1))
    top = np.maximum.reduce(abs(parts), None, initial=0.0)
    if top <= bound:  # a NaN fails too
        return arr
    row = None
    if rows:
        row = int(np.argmin(np.maximum.reduce(abs(parts), 1, initial=0.0) <= bound))
        rows(arr[:row], part)
        top = np.maximum.reduce(abs(parts[row]), None, initial=0.0)
    if not math.isfinite(top):
        raise VerificationFailedError(f"{what} contain NaN or Inf", row, part)
    raise VerificationFailedError(f"{what} too large: magnitude {top:.3e} exceeds {bound:.3e}", row, part)


def as_matrix(a) -> np.ndarray:
    """Coerce to a held (see ``_as_held``) 2-d complex array."""
    m = _as_array(a, "matrix", complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimMismatchError(f"expected a 2-d matrix, got shape {m.shape}")
    return _as_held(m, "matrix entries")


def as_real(a, what: str) -> np.ndarray:
    """Coerce to a float array (see ``_as_array``).  Complex input whose
    imaginary part is nonzero anywhere (a NaN part counts) is refused: a cast
    would drop it with only a ComplexWarning.  float64 passes on its dtype."""
    arr = _as_array(a, what)
    if arr.dtype.kind == "c":
        if arr.imag.any():
            raise VerificationFailedError(f"{what} has a nonzero imaginary part")
        arr = arr.real
    return arr.astype(float, copy=False)


def _is_int(value) -> bool:
    """The type test of every integer argument: a numpy integer is one, a bool not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_positive_int(value, what: str, zero: bool = False) -> int:
    """``value`` as a Python int, which cannot wrap, if it is an integer (see
    ``_is_int``) of at least 1 (0 when ``zero``): every size, count and seed."""
    if not _is_int(value) or value < (0 if zero else 1):
        kind = "a non-negative integer" if zero else "a positive integer"
        raise VerificationFailedError(f"{what} must be {kind}, got {value!r}")
    return int(value)


def _as_index(value, count: int, what: str, whole: str) -> int:
    """Every index: ``value`` as a Python int if it is an integer in range(count)."""
    if _is_int(value) and not 0 <= value < count:
        raise IndexOutOfRangeError(f"{what} {value} out of range for {whole.format(count)}")
    return as_positive_int(value, what, zero=True)


def _as_tolerance(tol):
    """``tol`` if it is a finite real number > 0: a report tolerance of NaN or
    inf would pass every check it bounds.  A bool is none."""
    if not (_is_int(tol) or isinstance(tol, (float, np.floating))) or not 0 < tol < math.inf:
        raise VerificationFailedError(f"tolerance must be a finite positive number, got {tol!r}")
    return tol


def _of_type(value, kind: type, what: str):
    """``value`` if it is a ``kind``; else a VerificationFailedError naming
    ``what``, not the AttributeError or TypeError its first use would raise."""
    if not isinstance(value, kind):
        raise VerificationFailedError(f"{what} must be of type {kind.__name__}, "
                                      f"got {type(value).__name__}")
    return value


def as_ket(v) -> np.ndarray:
    """Coerce to a finite 1-d complex unit vector: the one-row case of
    :func:`as_kets`, with its errors."""
    return as_kets(_as_array(v, "ket", complex).reshape(1, -1))[0]


def _as_ket_pair(psi, phi) -> tuple[np.ndarray, np.ndarray]:
    """``psi`` and ``phi`` through :func:`as_ket`, refused unless of one dimension."""
    pair = as_ket(psi), as_ket(phi)
    if pair[0].size != pair[1].size:
        raise DimMismatchError("kets have different dimensions")
    return pair


def as_kets(rows, part: str | None = None) -> np.ndarray:
    """Coerce to a 2-d complex array of kets: rows with an amplitude, each held
    (see ``_as_held``) and of norm within ``TIGHT_IDENTITY_TOL`` of 1; the first
    row that fails raises, its index as ``row``, with ``part``.  A held row's
    norm sqrt(np.vecdot(row, row)) cannot overflow and has the same bits alone
    and in any stack, so a stack passes iff :func:`as_ket` passes each row."""
    kets = _as_array(rows, "kets", complex)
    if kets.ndim != 2:
        raise DimMismatchError(f"expected a 2-d stack of kets, got shape {kets.shape}")
    if kets.shape[1] < 1 and len(kets):
        raise DimMismatchError("ket must have at least one amplitude")
    squares = np.vecdot(_as_held(kets, "ket amplitudes", part, as_kets), kets).real.tolist()
    # a Python loop: on one or a few rows, cheaper than numpy's reductions
    for i, sq in enumerate(squares):
        nrm = math.sqrt(sq)
        if abs(nrm - 1.0) > TIGHT_IDENTITY_TOL:
            raise VerificationFailedError(
                f"ket norm {nrm!r} deviates from 1 beyond {TIGHT_IDENTITY_TOL}", i, part
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

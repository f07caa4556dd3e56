"""Seeded random generators for states, channels, and trial ensembles.

All randomness in the toolkit flows through Philox, a counter-based PRNG,
keyed deterministically from ``(seed, stream...)`` so that trial batches
are reproducible and safely parallelisable per stream.  The seed and each
stream key must be non-negative integers, and each generator refuses a
dimension that is not a positive integer before it draws, all through
:func:`ontokit.linalg.as_positive_int`.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import VerificationFailedError
from .quantum import Channel, DensityMatrix, TwoOutcomeMeasurement
from .tolerances import DEGENERATE_DRAW_EPS


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for a named stream of a seed."""
    seed = linalg.as_positive_int(seed, "seed", zero=True)
    key = tuple(linalg.as_positive_int(s, "stream key", zero=True) for s in stream)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    dim = linalg.as_positive_int(dim, "dimension")
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    dim = linalg.as_positive_int(dim, "dimension")
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    dim = linalg.as_positive_int(dim, "dimension")
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_effect(rng: np.random.Generator, dim: int) -> TwoOutcomeMeasurement:
    u = random_unitary(rng, dim)  # refuses a bad dim before any draw
    eigs = rng.uniform(0.0, 1.0, dim)
    return TwoOutcomeMeasurement(u @ np.diag(eigs) @ u.conj().T)


def random_cptp_channel(rng: np.random.Generator, in_dim: int, out_dim: int) -> Channel:
    """Random trace-preserving CP map: max(3, ceil(in_dim / out_dim)) Gaussian
    Kraus operators, renormalised; fewer leave sum_k K^dag K singular.
    Operator k draws its real part, then its imaginary part."""
    in_dim = linalg.as_positive_int(in_dim, "input dimension")
    out_dim = linalg.as_positive_int(out_dim, "output dimension")
    g = rng.normal(size=(max(3, -(-in_dim // out_dim)), 2, out_dim, in_dim))
    raw = g[:, 0] + 1j * g[:, 1]
    total = (raw.conj().transpose(0, 2, 1) @ raw).sum(axis=0, initial=0)
    w, v = linalg.hermitian_eigensystem(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Channel._of_stack(raw @ inv_sqrt)


def _pair_dimension(dim, pair: str) -> int:
    """``dim`` through the integer gate, refused below 2 as too small for ``pair``."""
    if linalg.as_positive_int(dim, "dimension") < 2:
        raise VerificationFailedError(
            f"{pair} needs dimension at least 2, got {dim}: "
            "C^1 has no direction orthogonal to psi"
        )
    return int(dim)


def random_nonorthogonal_pair(
    rng: np.random.Generator, dim: int, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Pair of kets with |<psi|phi>| drawn uniformly from [lo, hi].

    Constructed rather than rejection-sampled: phi = g e^{i beta} psi + ...
    with a Haar direction in the orthocomplement, so the overlap modulus is
    exact by construction.  A dimension below 2 is refused: C^1 has no
    direction orthogonal to psi, so no overlap below 1 exists there.
    """
    dim = _pair_dimension(dim, "a nonorthogonal pair")
    if not 0.0 < lo <= hi < 1.0:
        raise VerificationFailedError("need 0 < lo <= hi < 1")
    psi = random_ket(rng, dim)
    g = float(rng.uniform(lo, hi))
    beta = float(rng.uniform(0.0, 2.0 * np.pi))
    raw = random_ket(rng, dim)
    perp = raw - np.vdot(psi, raw) * psi
    while np.linalg.norm(perp) < DEGENERATE_DRAW_EPS:
        raw = random_ket(rng, dim)
        perp = raw - np.vdot(psi, raw) * psi
    perp = perp / np.linalg.norm(perp)
    phi = g * np.exp(1j * beta) * psi + np.sqrt(1.0 - g * g) * perp
    return psi, phi / np.linalg.norm(phi), g

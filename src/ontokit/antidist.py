"""Anti-distinguishability decisions and the PBR pipeline.

A measurement response ``chi`` anti-distinguishes a designated member of an
ensemble when it never fires on that member while collecting total weight 1
from the rest.  On finite spaces with responses in ``[0,1]`` this is a box
LP with two equality constraints, decided here exactly and by one path for
probability and signed ensembles alike.  With a the target's weights and b
the rest's, the slice {chi in [0,1]^k : chi.a = 0} is convex and contains
chi = 0, so the target is anti-distinguishable iff the greatest chi.b on it
reaches 1.  That maximum is a one-constraint fractional knapsack (Dantzig
1957), solved through its piecewise-linear LP dual with one sort, in
O(k log k).

The module also houses the quantum side: the four-outcome entangled
measurement on two qubits, the two-Kraus compression channel sending a
tensor-power pair onto {|0>, |+>} (built on the 2-dimensional span of the
powers, so its cost does not grow with n or d), and the end-to-end
demonstration that the resulting four product states are anti-distinguished.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Optional, Sequence

import numpy as np

from . import linalg
from .errors import (
    BadOverlapError,
    SpaceMismatchError,
    VerificationFailedError,
)
from .kernels import Distribution, ResponseFunction, support_mask
from .quantum import Channel, DensityMatrix, ProjectiveMeasurement, apply_channel, born, overlap
from .tolerances import (
    CERTIFICATE_TOL, DERIVED_TOL, FEAS_TOL, NEVER_FIRES_TOL,
    OVERLAP_INTERIOR_MARGIN, PBR_TOL, POWER_MARGIN, SUPPORT_EPS,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class AntidistProblem:
    """Ensemble of states on a common space plus the index to rule out."""

    ensemble: tuple[Distribution, ...]
    target: int

    def __post_init__(self):
        ensemble = tuple(linalg._of_type(self.ensemble, Iterable, "ensemble"))
        if not ensemble:
            raise VerificationFailedError("ensemble must be nonempty")
        for i, d in enumerate(ensemble):  # member 0 is checked before its space is read
            if linalg._of_type(d, Distribution, f"ensemble member {i}").space != ensemble[0].space:
                raise SpaceMismatchError("ensemble members live on different spaces")
        object.__setattr__(self, "ensemble", ensemble)
        object.__setattr__(self, "target", linalg._as_index(
            self.target, len(ensemble), "target index", "an ensemble of {}"))


@dataclass(frozen=True)
class AntidistCertificate:
    """Feasible response with its residuals (weight on target, weight on rest)."""

    response: ResponseFunction
    residuals: tuple[float, float]

    def __post_init__(self):
        r0, r1 = self.residuals
        if abs(r0) > CERTIFICATE_TOL or abs(r1 - 1.0) > CERTIFICATE_TOL:
            raise VerificationFailedError(
                f"certificate residuals {self.residuals} exceed tolerance"
            )


def _certificate(chi: np.ndarray, problem: AntidistProblem,
                 a: np.ndarray, b: np.ndarray) -> AntidistCertificate:
    chi = np.clip(chi, 0.0, 1.0)
    return AntidistCertificate(
        response=ResponseFunction(problem.ensemble[0].space, chi),
        residuals=(float(chi @ a), float(chi @ b)),
    )


def _knapsack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Maximiser of chi.b over {chi in [0,1]^m : chi.a = 0}, every a_i nonzero.

    By LP duality the maximum is min over lambda of
    f(lambda) = sum_i max(0, b_i - lambda a_i), convex and piecewise linear
    with breakpoints r_i = b_i / a_i.  Just right of the j-th smallest
    breakpoint its slope is the cumulative |a| up to j minus the total
    positive weight, so one argsort and one cumulative sum find the minimum
    lambda*.  Complementary slackness fixes chi_i = 1 where
    b_i - lambda* a_i > 0 and 0 where it is < 0; the coordinates tied at
    lambda* share the a-weight that brings chi.a back to 0.
    """
    pos = a > 0
    if np.count_nonzero(pos) in (0, a.size):
        return np.zeros(a.size)  # only chi = 0 on these coordinates meets chi.a = 0
    r = b / a
    order = r.argsort()
    cum = np.abs(a.take(order)).cumsum()
    lam = r[order[min(int(cum.searchsorted(a[pos].sum())), a.size - 1)]]
    chi = np.where(pos, r > lam, r < lam).astype(float)
    need = -float(chi @ a)
    if need:
        tied = (r == lam) & (pos if need > 0 else ~pos)
        supply = float(a[tied].sum())
        if supply:
            chi[tied] = min(need / supply, 1.0)
    return chi


def antidist_classical(problem: AntidistProblem) -> Optional[AntidistCertificate]:
    """Decide anti-distinguishability of the target; None means REFUTED.

    chi = 0 lies on the convex slice {chi in [0,1]^k : chi.a = 0} with
    chi.b = 0, so chi.b = 1 is reachable on it iff the greatest chi.b there,
    hi, reaches 1, and then chi_hi / hi is a certificate.  Weights with
    |a_i| <= SUPPORT_EPS are read as 0: chi_i is free there and fires unless
    b_i < -SUPPORT_EPS.  For a probability ensemble hi is thus the rest's
    mass off the target's support, and the certificate is 1/hi there.
    """
    a = problem.ensemble[problem.target].weights
    b = np.zeros(a.size)
    for i, d in enumerate(problem.ensemble):
        if i != problem.target:
            b = b + d.weights
    supp = np.abs(a) > SUPPORT_EPS
    fire = ~supp & (b >= -SUPPORT_EPS)
    b_supp = b[supp]
    chi_supp = _knapsack(a[supp], b_supp)
    chi = fire.astype(float)
    chi[supp] = chi_supp
    hi = float(b[fire].sum()) + float(chi_supp @ b_supp)
    if hi < 1.0 - FEAS_TOL:
        return None
    return _certificate(min(1.0, 1.0 / hi) * chi, problem, a, b)


def _antidist_partition(ensemble: tuple[Distribution, ...]) -> Optional[list[ResponseFunction]]:
    """Single-measurement form: a partition of unity whose k-th outcome
    never fires on the k-th member of a probability ensemble.

    This is the notion the product-state argument actually consumes.  It is
    feasible iff no point lies in every member's support, and then sending
    each point to the first member whose support misses it is a certificate:
    one argmin over the stacked support masks.
    """
    masks = np.array([support_mask(d) for d in ensemble])
    if masks.all(axis=0).any():
        return None
    responses = np.zeros(masks.shape)
    responses[masks.argmin(axis=0), np.arange(masks.shape[1])] = 1.0
    return [ResponseFunction(ensemble[0].space, row) for row in responses]


# ---------------------------------------------------------------------------
# quantum side
# ---------------------------------------------------------------------------

def antidist_quantum_check(
    states: Sequence[DensityMatrix],
    m: ProjectiveMeasurement,
    assignment: Sequence[int],
) -> bool:
    """True iff each state's assigned outcome never occurs on it: its Born
    probability is at most ``NEVER_FIRES_TOL``."""
    assignment = tuple(linalg._of_type(assignment, Iterable, "assignment"))
    if len(assignment) != len(states):
        raise VerificationFailedError("assignment must cover every state")
    return all(born(state, m, k) <= NEVER_FIRES_TOL for state, k in zip(states, assignment))


@lru_cache(maxsize=None)
def pbr_measurement() -> ProjectiveMeasurement:
    """The entangled four-outcome basis on two qubits used by the PBR argument."""
    z0 = np.array([1, 0], dtype=complex)
    z1 = np.array([0, 1], dtype=complex)
    plus = (z0 + z1) * INV_SQRT2
    minus = (z0 - z1) * INV_SQRT2
    vecs = np.array(
        [
            (np.kron(z0, z1) + np.kron(z1, z0)) * INV_SQRT2,
            (np.kron(z0, minus) + np.kron(z1, plus)) * INV_SQRT2,
            (np.kron(plus, z1) + np.kron(minus, z0)) * INV_SQRT2,
            (np.kron(plus, minus) + np.kron(minus, plus)) * INV_SQRT2,
        ]
    )
    return ProjectiveMeasurement(vecs)


@dataclass(frozen=True)
class CompressionResult:
    """Compression channel with its verification data.

    ``channel`` acts on span coordinates, in which the tensor powers are
    ``psi_span`` and ``phi_span`` (see ``compression_channel``); ``overlap``
    is <psi|phi> of the input pair.
    """

    channel: Channel
    overlap: complex
    n: int
    gamma: float
    parametrization: ClassVar[str] = "tan_arcsin_gamma"
    psi_span: np.ndarray
    phi_span: np.ndarray
    output_psi: DensityMatrix
    output_phi: DensityMatrix
    residual_psi: float
    residual_phi: float


def smallest_compression_power(overlap_mod: float) -> int:
    """Least n with overlap^n <= 1/sqrt(2), in closed form.

    The steps after the logarithm make n the first power that passes the
    bound in floating point, as a search from n = 1 would find it.
    """
    if not 0.0 < overlap_mod < 1.0:
        raise BadOverlapError(f"overlap modulus {overlap_mod!r} must be in (0, 1)")
    bound = INV_SQRT2 + POWER_MARGIN
    n = max(1, int(np.ceil(np.log(bound) / np.log(overlap_mod))))
    while n > 1 and overlap_mod ** (n - 1) <= bound:
        n -= 1
    while overlap_mod ** n > bound:
        n += 1
    return n


def compression_channel(psi, phi, n: Optional[int] = None) -> CompressionResult:
    """Channel mapping the pair (psi^n, phi^n) onto (|0><0|, |+><+|).

    Only span{psi^n, phi^n} matters.  Its Gram matrix is [[1, c], [c*, 1]]
    with c = <psi|phi>^n, and its Cholesky columns are the span coordinates
    psi^n -> (e^{-i arg c}, 0), phi^n -> (gamma, sqrt(1 - gamma^2)), gamma = |c|.
    The channel is the two-Kraus map K0 = |0><0| + t |1><1|,
    K1 = sqrt((1-t^2)/2)(|0>+|1>)<1| on these coordinates; dumping the
    complement onto |0> adds exactly I - P_span to its Kraus sum, so it
    extends to a trace-preserving channel on all d^n dimensions without
    building them.  The map needs t = gamma / sqrt(1 - gamma^2) =
    tan(arcsin gamma), in [0, 1] because gamma <= 1/sqrt(2);
    ``parametrization`` records this choice as "tan_arcsin_gamma".  The channel
    holds its Kraus residual |t^2 + 2 s^2 - 1| in closed form; its exact outputs
    (see :func:`apply_channel`) are verified against their targets within ``DERIVED_TOL``.
    """
    ov = overlap(psi, phi)  # validates both kets and their dimensions
    g0 = abs(ov)
    if g0 < OVERLAP_INTERIOR_MARGIN or g0 > 1.0 - OVERLAP_INTERIOR_MARGIN:
        raise BadOverlapError(f"|<psi|phi>| = {g0!r} must lie strictly inside (0, 1)")
    n = smallest_compression_power(g0) if n is None else linalg.as_positive_int(n, "n")
    if g0 ** n > INV_SQRT2 + POWER_MARGIN:
        raise BadOverlapError(f"n = {n} leaves overlap {g0 ** n:.6f} above 1/sqrt(2)")

    c = ov ** n
    gamma = abs(c)
    psi_span = np.array([np.exp(-1j * np.angle(c)), 0.0])
    phi_span = np.array([gamma, np.sqrt(1.0 - gamma * gamma)], dtype=complex)

    # gamma may exceed 1/sqrt(2) by rounding; the residual check below decides
    t = min(gamma / np.sqrt(1.0 - gamma * gamma), 1.0)
    s = np.sqrt((1.0 - t * t) / 2.0)
    channel = Channel._of_stack(np.array([[[1, 0], [0, t]], [[0, s], [0, s]]], dtype=complex),
                                abs(t * t + 2 * s * s - 1))
    out_psi = apply_channel(channel, DensityMatrix._projector(psi_span))
    out_phi = apply_channel(channel, DensityMatrix._projector(phi_span))
    res_psi = linalg.max_abs(out_psi.matrix - np.diag([1.0, 0.0]))
    res_phi = linalg.max_abs(out_phi.matrix - np.full((2, 2), 0.5))
    if res_psi > DERIVED_TOL or res_phi > DERIVED_TOL:
        raise VerificationFailedError(
            f"compression did not reproduce (|0><0|, |+><+|): "
            f"residuals ({res_psi:.3e}, {res_phi:.3e})"
        )
    return CompressionResult(
        channel=channel,
        overlap=ov,
        n=n,
        gamma=gamma,
        psi_span=psi_span,
        phi_span=phi_span,
        output_psi=out_psi,
        output_phi=out_phi,
        residual_psi=float(res_psi),
        residual_phi=float(res_phi),
    )


PBR_PAIR_LABELS = ("psi.psi", "psi.phi", "phi.psi", "phi.phi")


@dataclass(frozen=True)
class PbrReport:
    """End-to-end PBR pipeline record."""

    overlap: float
    n: int
    gamma: float
    parametrization: ClassVar[str] = "tan_arcsin_gamma"
    pair_labels: tuple[str, ...]
    table: np.ndarray
    assigned_probabilities: tuple[float, ...]
    max_assigned: float
    anti_distinguished: bool
    compression_residuals: tuple[float, float]


def pbr_demo(psi, phi, n: Optional[int] = None, tol: float = PBR_TOL) -> PbrReport:
    """Compress, tensor the pair, and verify the four-outcome exclusion.

    Row 2a + b of the table holds <v_k| x_a (x) x_b |v_k> on the validated
    outputs x_0, x_1, clamped to [0, 1] as ``born`` clamps it."""
    tol = linalg._as_tolerance(tol)
    comp = compression_channel(psi, phi, n=n)
    outputs = np.array([comp.output_psi.matrix, comp.output_phi.matrix])
    basis = pbr_measurement().vectors.reshape(4, 2, 2)
    table = np.einsum("kij,aix,bjy,kxy->abk", basis.conj(), outputs, outputs, basis)
    table = np.clip(table.real.reshape(4, 4), 0.0, 1.0)
    assigned = tuple(float(p) for p in np.diag(table))
    max_assigned = float(max(assigned))
    return PbrReport(
        overlap=float(abs(comp.overlap)),
        n=comp.n,
        gamma=comp.gamma,
        pair_labels=PBR_PAIR_LABELS,
        table=table,
        assigned_probabilities=assigned,
        max_assigned=max_assigned,
        anti_distinguished=max_assigned <= tol,
        compression_residuals=(comp.residual_psi, comp.residual_phi),
    )

"""Ontological-model data format, validators, and functor-fragment checks.

A finite ontological model is its matrices: one preparation kernel W
(catalogued states to ontic points) and one response kernel R per
measurement (ontic points to outcomes); the validators compare W R^T with
the Born table of the catalogue's kets.  Functor fragments are finite
tables of (channel, kernel) pairs whose laws, checked as matrix
identities, are composition, identity, evaluation preservation, and
equivariance under point permutations.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .errors import (
    DimMismatchError, MissingActionError, MissingMorphismError, SpaceMismatchError,
    VerificationFailedError,
)
from .kernels import (
    TWO, UNIT_SPACE, FiniteSpace, SignedKernel, _check_response_rows, _check_weight_rows, _labels,
    _signed_rows,
)
from .quantum import Channel, ProjectiveMeasurement
from .tolerances import FUNCTOR_TOL, MODEL_TOL, STRICT_MARGIN, SUPPORT_EPS


@dataclass(frozen=True, eq=False)
class OntModel:
    """Finite restriction of an ontological theory, held as its matrices.

    State ``labels[s]`` has the unit ket ``kets[s]`` (states x dim) and the
    ontic distribution ``weights[s]`` (states x ontic), a row of W.  Each of
    ``measurements`` pairs a projective measurement with its ``responses``
    (outcomes x ontic), one row of values in [0, 1] per outcome: R.
    """

    ontic: FiniteSpace
    labels: tuple[str, ...]
    kets: np.ndarray
    weights: np.ndarray
    measurements: tuple[tuple[ProjectiveMeasurement, np.ndarray], ...]

    def __post_init__(self):
        labels = _labels(self.labels, "state")
        weights = linalg.frozen(linalg.as_real(self.weights, "weight matrix"))
        _check_weight_rows(self.ontic, weights)
        if len(weights) != len(labels):
            raise VerificationFailedError("each state needs exactly one weight row")
        signed = _signed_rows(weights)
        if signed.any():
            raise VerificationFailedError(f"distribution for {labels[signed.argmax()]!r} is signed")
        measurements = []
        for m, responses in self.measurements:
            r = linalg.frozen(linalg.as_real(responses, "response matrix"))
            _check_response_rows(self.ontic, r)
            if len(r) != m.n_outcomes:
                raise VerificationFailedError("each outcome needs exactly one response row")
            measurements.append((m, r))
        kets = _stack_kets(self.kets, len(labels), [m for m, _ in measurements])
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "measurements", tuple(measurements))


def catalogue_kets(labels: Sequence[str], kets: Sequence) -> np.ndarray:
    """A catalogue's kets as the rows of one array; a ket whose dimension
    differs from the first's is refused by its label."""
    rows = [np.asarray(k, dtype=complex).reshape(-1) for k in kets]
    for lab, row in zip(labels, rows):
        if row.size != rows[0].size:
            raise DimMismatchError(
                f"state {lab!r} has dimension {row.size}, expected {rows[0].size}"
            )
    return np.array(rows)


def _stack_kets(kets, n_states: int, measurements: Sequence[ProjectiveMeasurement]) -> np.ndarray:
    """Unit kets as rows, one per state; every measurement shares their dimension."""
    kets = linalg.frozen(np.asarray(kets, dtype=complex))
    if n_states == 0 and kets.size == 0:  # no ket fixes the dimension; the first measurement does
        kets = kets.reshape(0, measurements[0].dim if measurements else 0)
    if kets.ndim != 2 or len(kets) != n_states:
        raise DimMismatchError(f"expected one ket row per state, got shape {kets.shape}")
    linalg.as_kets(kets)
    dim = kets.shape[1]
    for mi, m in enumerate(measurements):
        if m.dim != dim:
            raise DimMismatchError(f"measurement {mi} has dimension {m.dim}, expected {dim}")
    return kets


def _born_table(kets: np.ndarray, m: ProjectiveMeasurement) -> np.ndarray:
    """(states, outcomes) table of |<v_k|psi_s>|^2, clamped to [0, 1]."""
    return np.clip(np.abs(kets.conj() @ m.vectors.T) ** 2, 0.0, 1.0)


@dataclass
class ModelValidation:
    tolerance: float
    born_violations: list = field(default_factory=list)
    sum_rule_violations: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.born_violations and not self.sum_rule_violations


def validate_model(model: OntModel, tol: float = MODEL_TOL) -> ModelValidation:
    """Compare every (state, measurement, outcome) Born probability with the
    model's W R^T and the pointwise response sum rule; list what deviates
    beyond ``tol``."""
    report = ModelValidation(tolerance=tol)
    for mi, (m, r) in enumerate(model.measurements):
        totals = r.sum(axis=0)
        for li in np.flatnonzero(np.abs(totals - 1.0) > tol).tolist():
            report.sum_rule_violations.append(
                {"measurement": mi, "point": model.ontic.points[li], "total": float(totals[li])}
            )
        reproduced = model.weights @ r.T
        expected = _born_table(model.kets, m)
        for s, k in np.argwhere(np.abs(reproduced - expected) > tol).tolist():
            report.born_violations.append(
                {"state": model.labels[s], "measurement": mi, "outcome": k,
                 "reproduced": float(reproduced[s, k]), "expected": float(expected[s, k])}
            )
    return report


@dataclass
class Classification:
    kind: str
    witness: Optional[tuple[str, str]] = None
    witness_overlap: Optional[float] = None
    witness_distance: Optional[float] = None


def classify_model(model: OntModel) -> Classification:
    """Epistemic iff some catalogue pair overlaps (strictly between 0 and 1)
    while its ontic distributions have variational distance below 1.

    Only pairs whose positive supports meet are measured: the product
    (W > 0) (W > 0)^T screens the rest out.  Let w_i and w_j be rows of W,
    with entries >= -NONNEG_TOL and sums 1, and let P = {x : w_i[x] > 0}.
    If w_j[x] <= 0 on all of P, then

        sum max(w_i - w_j, 0) >= sum_P w_i = 1 - sum_{x not in P} w_i >= 1,

    so the pair can never pass dist < 1 - STRICT_MARGIN.  The sums are 1
    only within IDENTITY_TOL (= STRICT_MARGIN), and rounding keeps the
    bound: max(w_i - w_j, 0) >= w_i entry by entry, numpy sums both rows in
    the same order and rounded addition is monotone, so the computed
    distance is at least the row sum that the model admitted, which is at
    least 1 - STRICT_MARGIN.  The screen is on W > 0, not on SUPPORT_EPS:
    shared entries at or below SUPPORT_EPS, over enough points or with row
    sums at the low end of their tolerance, can bring a pair below
    1 - STRICT_MARGIN.  The per-row loop then runs on the rows with a
    candidate and measures only their candidates, so the first witness in
    catalogue order and its distance are those of the unscreened loop.
    """
    ov = np.abs(model.kets.conj() @ model.kets.T)  # moduli of the Gram matrix
    w = model.weights
    positive = (w > 0).astype(float)
    candidates = (ov > STRICT_MARGIN) & (ov < 1.0 - STRICT_MARGIN) & (positive @ positive.T > 0)
    for i in np.flatnonzero(candidates.any(axis=1)).tolist():
        # one row of the upper triangle at a time: O(states * ontic) memory
        js = i + 1 + np.flatnonzero(candidates[i, i + 1:])
        diff = w[i] - w[js]
        dist = np.maximum(np.maximum(diff, 0.0).sum(axis=1), np.maximum(-diff, 0.0).sum(axis=1))
        hits = np.flatnonzero(dist < 1.0 - STRICT_MARGIN)
        if hits.size:
            j = js[hits[0]]
            return Classification(
                kind="epistemic", witness=(model.labels[i], model.labels[j]),
                witness_overlap=float(ov[i, j]), witness_distance=float(dist[hits[0]]),
            )
    return Classification(kind="ontic")


class PairRecords(Sequence):
    """Violating (psi, phi) pairs as a read-only sequence over arrays.

    ``pairs`` holds the (psi, phi) row indices in row-major order and
    ``mass`` and ``born`` the values at those pairs.  ``len()`` and truth
    read the index array only; indexing, slicing and iteration build each
    record ``{"psi", "phi", "support_mass", "born"}`` as it is read, with
    Python floats.  A view equals a list of the same records.
    """

    __slots__ = ("_labels", "_pairs", "_mass", "_born")

    def __init__(self, labels: tuple[str, ...], pairs: np.ndarray, mass: np.ndarray,
                 born: np.ndarray):
        self._labels, self._pairs, self._mass, self._born = labels, pairs, mass, born

    def _record(self, a: int, b: int, mass: float, born: float) -> dict:
        return {"psi": self._labels[a], "phi": self._labels[b], "support_mass": mass, "born": born}

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        a, b = self._pairs[i].tolist()  # numpy raises IndexError past either end
        return self._record(a, b, self._mass[i].item(), self._born[i].item())

    def __iter__(self):
        rows = zip(self._pairs.tolist(), self._mass.tolist(), self._born.tolist())
        return (self._record(a, b, sm, bv) for (a, b), sm, bv in rows)

    def __eq__(self, other):
        if isinstance(other, PairRecords):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented


@dataclass
class MaximalPredicates:
    maximally_epistemic: bool
    maximally_nontrivial: bool
    epistemic_violations: PairRecords
    nontrivial_violations: PairRecords


def maximal_predicates(model: OntModel, tol: float = MODEL_TOL) -> MaximalPredicates:
    """Check mu_psi(supp mu_phi) = |<phi|psi>|^2 over all ordered pairs, and
    the if-and-only-if between orthogonality and vanishing support mass.
    Row psi, column phi: the masses are W S^T with S = W > SUPPORT_EPS.

    The two violation lists are :class:`PairRecords` views over the
    violating pairs in row-major order: counting them costs nothing, and a
    record is built only when it is read (a Dirac model violates on every
    non-orthogonal pair)."""
    w = model.weights
    mass = w @ (w > SUPPORT_EPS).T
    born = np.abs(model.kets.conj() @ model.kets.T) ** 2

    def records(bad: np.ndarray) -> PairRecords:
        return PairRecords(model.labels, np.argwhere(bad), mass[bad], born[bad])

    me = records(np.abs(mass - born) > tol)
    mn = records((born <= tol) != (mass <= tol))
    return MaximalPredicates(
        maximally_epistemic=not me,
        maximally_nontrivial=not mn,
        epistemic_violations=me,
        nontrivial_violations=mn,
    )


# ---------------------------------------------------------------------------
# operational-model (functor fragment) checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FunctorFragment:
    """Finite table of a functor: named channels with their kernel images.

    The unit object maps to the one-point space ``UNIT_SPACE`` and the
    distinguishing object to the two-point space ``TWO``; both are fixed.
    """

    channels: dict[str, Channel]
    kernels: dict[str, SignedKernel]

    def __post_init__(self):
        missing = set(self.channels) ^ set(self.kernels)
        if missing:
            raise MissingMorphismError(f"unpaired morphism names: {sorted(missing)}")

    def pair(self, name: str) -> tuple[Channel, SignedKernel]:
        if name not in self.channels:
            raise MissingMorphismError(f"no morphism named {name!r}")
        return self.channels[name], self.kernels[name]


@dataclass
class OperationalModelReport:
    tolerance: float
    composition_violations: list = field(default_factory=list)
    identity_violations: list = field(default_factory=list)
    evaluation_violations: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.composition_violations
            or self.identity_violations
            or self.evaluation_violations
        )


def _quantum_probability(meas: Channel, state: Channel) -> float:
    """Born probability of outcome 0 through meas . state, for a state from C and
    a measurement into the diagonal 2x2 algebra: sum_k |row 0 of K_k|^2 over the
    products K = M_a S_b of :func:`compose`, a-major, with its bits; no channel is formed."""
    first = (meas.kraus[:, None] @ state.kraus[None])[:, :, 0]
    return float(np.vdot(first, first).real)


def _fits(fits: bool, test: str, rule: str) -> None:
    """The endpoint rule: a law test whose kernels do not fit its law is refused."""
    if not fits:
        raise SpaceMismatchError(f"{test}: {rule}")


def check_operational_model(
    frag: FunctorFragment,
    composition_tests: Sequence[tuple[str, str, str]] = (),
    identity_names: Sequence[str] = (),
    evaluation_tests: Sequence[tuple[str, str]] = (),
    tol: float = FUNCTOR_TOL,
) -> OperationalModelReport:
    """Verify functor laws on the tabulated fragment as matrix identities.

    ``composition_tests`` lists (g, f, gf) name triples, gf the table entry
    for the quantum-side composite (K_gf = K_g K_f); ``identity_names`` map
    to identity kernels (K = I); ``evaluation_tests`` lists (measurement,
    state) pairs whose (K_m K_s)[0, 0] is the Born probability.  A test whose
    endpoints do not fit its law raises ``SpaceMismatchError`` naming it.
    """
    report = OperationalModelReport(tolerance=tol)
    for g_name, f_name, gf_name in composition_tests:
        kg, kf, kgf = (frag.pair(name)[1] for name in (g_name, f_name, gf_name))
        test = f"composition ({g_name!r}, {f_name!r}, {gf_name!r})"
        _fits(kf.target == kg.source, test, "f must end where g starts")
        _fits((kgf.source, kgf.target) == (kf.source, kg.target), test,
              "gf must run from the source of f to the target of g")
        err = linalg.max_abs(kgf.matrix - kg.matrix @ kf.matrix)
        if err > tol:
            report.composition_violations.append(
                {"g": g_name, "f": f_name, "gf": gf_name, "error": err}
            )
    for name in identity_names:
        _, k = frag.pair(name)
        _fits(k.source == k.target, f"identity {name!r}", "the kernel must be an endomorphism")
        err = linalg.max_abs(k.matrix - np.eye(k.source.size))
        if err > tol:
            report.identity_violations.append({"name": name, "error": err})
    for meas_name, state_name in evaluation_tests:
        ch_m, k_m = frag.pair(meas_name)
        ch_s, k_s = frag.pair(state_name)
        test = f"evaluation ({meas_name!r}, {state_name!r})"
        _fits(k_s.source == UNIT_SPACE, test, "the state must start at the unit space")
        _fits((k_m.source, k_m.target) == (k_s.target, TWO), test,
              "the measurement must run from the state's space into TWO")
        _fits(ch_s.in_dim == 1, test, "the state channel must start at C")
        _fits((ch_m.in_dim, ch_m.out_dim) == (ch_s.out_dim, 2), test,
              "the measurement channel must run from the state channel's output into C^2")
        quantum_p = _quantum_probability(ch_m, ch_s)
        classical_p = float((k_m.matrix @ k_s.matrix)[0, 0])
        if abs(quantum_p - classical_p) > tol:
            report.evaluation_violations.append(
                {"measurement": meas_name, "state": state_name,
                 "quantum": quantum_p, "classical": classical_p}
            )
    return report


@dataclass
class EquivarianceReport:
    tolerance: float
    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


def check_equivariance(
    frag: FunctorFragment,
    actions: Mapping[str, Sequence[int]],
    state_names: Sequence[str],
    channel_names: Sequence[str],
    tol: float = FUNCTOR_TOL,
) -> EquivarianceReport:
    """Verify F(f . psi) = pi_f . F(psi) on each state and channel: K_f w must
    equal w moved by ``actions[f]``, the point permutation sending point j to
    pi_f[j], as :func:`ontokit.wigner.displacement_permutation` gives it."""
    report = EquivarianceReport(tolerance=tol)
    for s_name in state_names:
        _, ks = frag.pair(s_name)
        _fits(ks.source == UNIT_SPACE, f"equivariance state {s_name!r}",
              "the state must start at the unit space")
        w = ks.matrix[:, 0]
        for c_name in channel_names:
            _, kf = frag.pair(c_name)
            if c_name not in actions:
                raise MissingActionError(f"no point permutation for channel {c_name!r}")
            pi, n = np.asarray(actions[c_name]), kf.target.size
            test = f"equivariance ({s_name!r}, {c_name!r})"
            _fits(kf.source == ks.target, test, "the channel must act on the state's space")
            _fits(pi.shape == (n,) == w.shape and pi.dtype.kind in "iu"
                  and np.array_equal(np.sort(pi), np.arange(n)),
                  test, f"pi must be a bijection of the {n} points")
            pushed, moved = kf.matrix @ w, np.empty_like(w)
            moved[pi] = w
            report.checked += n
            for i in np.flatnonzero(np.abs(pushed - moved) > tol).tolist():
                report.violations.append(
                    {"state": s_name, "channel": c_name, "point": kf.target.points[i],
                     "lhs": float(pushed[i]), "rhs": float(moved[i])}
                )
    return report

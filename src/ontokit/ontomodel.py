"""Ontological-model data format, validators, and functor-fragment checks.

A finite ontological model is its matrices: one preparation kernel W
(catalogued states to ontic points) and one response kernel R per
measurement (ontic points to outcomes); the validators compare W R^T with
the Born table of the catalogue's kets.  Functor fragments are finite
tables of (channel, kernel) pairs whose laws, checked as matrix
identities, are composition, identity and evaluation preservation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .antidist import _response
from .errors import (
    DimMismatchError, MissingMorphismError, SpaceMismatchError, VerificationFailedError,
)
from .kernels import (
    TWO, UNIT_SPACE, FiniteSpace, SignedKernel, _check_response_rows, _check_weight_rows, _labels,
    _signed, distribution_rows, variational_distance,
)
from .quantum import Channel, ProjectiveMeasurement, _strict_overlap
from .tolerances import FUNCTOR_TOL, MODEL_TOL, SUPPORT_EPS


@dataclass(frozen=True, eq=False)
class OntModel:
    """Finite restriction of an ontological theory, held as its matrices.

    State ``labels[s]`` has the unit ket ``kets[s]`` (states x dim) and the
    ontic distribution ``weights[s]`` (states x ontic), a row of W.  Each of
    ``measurements`` pairs a projective measurement with its ``responses``
    (outcomes x ontic), one row of values in [0, 1] per outcome: R.  The kets
    are checked first, then the weights and the responses; a failed row check
    names its ``part`` ("kets", "weights", "measurements[i]") and ``row``.
    """

    ontic: FiniteSpace
    labels: tuple[str, ...]
    kets: np.ndarray
    weights: np.ndarray
    measurements: tuple[tuple[ProjectiveMeasurement, np.ndarray], ...]

    def __post_init__(self):
        linalg._of_type(self.ontic, FiniteSpace, "ontic space")
        labels = _labels(self.labels, "state")
        ms = self.measurements  # a bare measurement is read as its one entry, and refused
        pairs = tuple(ms) if hasattr(ms, "__iter__") else (ms,)
        for mi, pair in enumerate(pairs):
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and isinstance(pair[0], ProjectiveMeasurement)):
                raise VerificationFailedError(f"measurement {mi} is not a "
                                              "(ProjectiveMeasurement, responses) pair")
        kets = linalg.frozen(linalg._as_array(self.kets, "kets", complex))
        if not labels and kets.size == 0:  # no ket fixes the dimension; the first measurement does
            kets = kets.reshape(0, pairs[0][0].dim if pairs else 0)
        if kets.ndim != 2 or len(kets) != len(labels):
            raise DimMismatchError(f"expected one ket row per state, got shape {kets.shape}")
        linalg.as_kets(kets, "kets")
        weights = linalg.frozen(linalg.as_real(self.weights, "weight matrix"))
        _check_weight_rows(self.ontic, weights, "weights")
        if len(weights) != len(labels):
            raise VerificationFailedError("each state needs exactly one weight row")
        signed = _signed(weights, axis=1)
        if signed.any():
            raise VerificationFailedError(f"distribution for {labels[signed.argmax()]!r} is signed")
        measurements = []
        for mi, (m, responses) in enumerate(pairs):
            r = linalg.frozen(linalg.as_real(responses, "response matrix"))
            _check_response_rows(self.ontic, r, f"measurements[{mi}]")
            if len(r) != m.n_outcomes:
                raise VerificationFailedError("each outcome needs exactly one response row")
            if m.dim != kets.shape[1]:
                raise DimMismatchError(f"measurement {mi} has dimension {m.dim}, "
                                       f"expected {kets.shape[1]}")
            measurements.append((m, r))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "measurements", tuple(measurements))


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
    report = ModelValidation(tolerance=linalg._as_tolerance(tol))
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
    """Epistemic iff some catalogue pair overlaps strictly while neither
    member is anti-distinguishable from the other: the pair rule of
    ``epistemic_report``.  ``witness_distance`` is the witness's
    variational distance.

    Only pairs whose positive supports meet are decided: the product
    (W > 0) (W > 0)^T screens the rest out.  If w_j > 0 nowhere that
    w_i > 0, the response that is 1 off w_i's positive support, and on it
    just large enough to balance w_i's entries below -SUPPORT_EPS, never
    fires on w_i and misses only entries of w_j that are <= 0.  So w_i's
    greatest rest weight is at least w_j's row sum, which the model
    admitted within IDENTITY_TOL <= FEAS_TOL of 1, and w_i is not refuted
    (to rounding; tests compare the unscreened loop at the lowest admitted
    row sum).  Candidates are decided in catalogue order, so the first
    witness is that of the unscreened loop.
    """
    ov = np.abs(model.kets.conj() @ model.kets.T)  # moduli of the Gram matrix
    w = model.weights
    positive = (w > 0).astype(float)
    candidates = _strict_overlap(ov) & (positive @ positive.T > 0)
    for i, j in np.argwhere(np.triu(candidates, 1)).tolist():
        if _response(w[i], w[j]) is None and _response(w[j], w[i]) is None:
            return Classification(
                kind="epistemic", witness=(model.labels[i], model.labels[j]),
                witness_overlap=float(ov[i, j]),
                witness_distance=variational_distance(*distribution_rows(model.ontic, w[[i, j]])),
            )
    return Classification(kind="ontic")


@dataclass(eq=False)
class MaximalPredicates:
    """The two Leifer-Maroney verdicts and what they were read from.

    ``support_mass[psi, phi]`` is mu_psi(supp mu_phi) and ``born[psi, phi]``
    is |<phi|psi>|^2, both (states, states); each violation field is the
    (k, 2) integer array of the violating (psi, phi) state rows, in row-major
    order, as ``np.argwhere`` returns them."""

    maximally_epistemic: bool
    maximally_nontrivial: bool
    epistemic_violations: np.ndarray
    nontrivial_violations: np.ndarray
    support_mass: np.ndarray
    born: np.ndarray


def maximal_predicates(model: OntModel, tol: float = MODEL_TOL) -> MaximalPredicates:
    """Check mu_psi(supp mu_phi) = |<phi|psi>|^2 over all ordered pairs, and
    the if-and-only-if between orthogonality and vanishing support mass.
    Row psi, column phi: the masses are W S^T with S = W > SUPPORT_EPS."""
    tol = linalg._as_tolerance(tol)
    w = model.weights
    mass = w @ (w > SUPPORT_EPS).T
    born = np.abs(model.kets.conj() @ model.kets.T) ** 2
    me = np.argwhere(np.abs(mass - born) > tol)
    mn = np.argwhere((born <= tol) != (mass <= tol))
    return MaximalPredicates(
        maximally_epistemic=not len(me),
        maximally_nontrivial=not len(mn),
        epistemic_violations=me,
        nontrivial_violations=mn,
        support_mass=mass,
        born=born,
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
    report = OperationalModelReport(tolerance=linalg._as_tolerance(tol))
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

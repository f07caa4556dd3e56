"""Ontological-model data format, validators, and functor-fragment checks.

A finite ontological model pins down an ontic space, one distribution per
catalogued state, and one response function per measurement outcome; the
validators work on its stacked kets and weights as matrices.  Functor
fragments are finite tables of (channel, kernel) pairs checked for
composition, identity, evaluation preservation, and equivariance under a
tabulated action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import DimMismatchError, MissingActionError, MissingMorphismError, SpaceMismatchError
from .kernels import (
    TWO,
    UNIT_SPACE,
    Distribution,
    FiniteSpace,
    ResponseFunction,
    SignedKernel,
    distribution_rows,
    evaluate,
    kcompose,
    response_rows,
)
from .quantum import Channel, ProjectiveMeasurement, compose
from .tolerances import FUNCTOR_TOL, MODEL_TOL, NONNEG_TOL, STRICT_MARGIN, SUPPORT_EPS


@dataclass(frozen=True, eq=False)
class OntModel:
    """Finite restriction of an ontological theory.

    ``states`` catalogues (label, ket) pairs; ``distributions`` maps each
    label to its ontic distribution; ``measurements`` pairs a projective
    measurement with one response function per outcome.  ``kets``
    (states x dim) and ``weights`` (states x ontic) stack them row by row.
    """

    ontic: FiniteSpace
    states: tuple[tuple[str, np.ndarray], ...]
    distributions: dict[str, Distribution]
    measurements: tuple[tuple[ProjectiveMeasurement, tuple[ResponseFunction, ...]], ...]
    kets: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labels = [lab for lab, _ in self.states]
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be distinct")
        # the first state without a distribution on the ontic space; the
        # states before it are checked for signs as one weight matrix
        dists = self.distributions
        stop = next(
            (i for i, lab in enumerate(labels) if lab not in dists or dists[lab].space != self.ontic),
            len(labels),
        )
        weights = np.array([dists[lab].weights for lab in labels[:stop]])
        weights = weights.reshape(stop, self.ontic.size)
        signed = weights.min(axis=1) < -NONNEG_TOL
        if signed.any():
            raise ValueError(f"distribution for {labels[signed.argmax()]!r} is signed")
        if stop < len(labels):
            lab = labels[stop]
            if lab not in dists:
                raise ValueError(f"state {lab!r} has no distribution")
            raise SpaceMismatchError(f"distribution for {lab!r} lives off the ontic space")
        for m, responses in self.measurements:
            if len(responses) != m.n_outcomes:
                raise ValueError("each outcome needs exactly one response function")
            for xi in responses:
                if xi.space != self.ontic:
                    raise SpaceMismatchError("response function lives off the ontic space")
        kets = _stack_kets(self.states, [m for m, _ in self.measurements])
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "weights", weights)


def _stack_kets(
    states: Sequence[tuple[str, np.ndarray]], measurements: Sequence[ProjectiveMeasurement]
) -> np.ndarray:
    """Unit kets as rows; every ket and measurement shares the first's dimension."""
    rows = [np.asarray(k, dtype=complex).reshape(-1) for _, k in states]
    if len({r.size for r in rows}) == 1:
        kets = np.array(rows)
        suspects = np.flatnonzero(~linalg.clearly_unit_rows(kets))
    else:  # no kets, or kets of several sizes, which the dimension check refuses
        kets, suspects = None, range(len(rows))
    for i in suspects:  # as_ket decides each in catalogue order
        linalg.as_ket(rows[i])
    dims = [(f"state {lab!r}", r.size) for (lab, _), r in zip(states, rows)]
    dims += [(f"measurement {mi}", m.dim) for mi, m in enumerate(measurements)]
    for name, dim in dims:
        if dim != dims[0][1]:
            raise DimMismatchError(f"{name} has dimension {dim}, expected {dims[0][1]}")
    return kets if kets is not None else np.zeros((0, dims[0][1] if dims else 0), dtype=complex)


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
    for mi, (m, responses) in enumerate(model.measurements):
        r = np.array([xi.values for xi in responses])
        totals = r.sum(axis=0)
        for li in np.flatnonzero(np.abs(totals - 1.0) > tol).tolist():
            report.sum_rule_violations.append(
                {"measurement": mi, "point": model.ontic.points[li], "total": float(totals[li])}
            )
        reproduced = model.weights @ r.T
        expected = _born_table(model.kets, m)
        for s, k in np.argwhere(np.abs(reproduced - expected) > tol).tolist():
            report.born_violations.append(
                {"state": model.states[s][0], "measurement": mi, "outcome": k,
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
    distance is at least the row sum that Distribution admitted, which is at
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
                kind="epistemic", witness=(model.states[i][0], model.states[j][0]),
                witness_overlap=float(ov[i, j]), witness_distance=float(dist[hits[0]]),
            )
    return Classification(kind="ontic")


@dataclass
class MaximalPredicates:
    maximally_epistemic: bool
    maximally_nontrivial: bool
    epistemic_violations: list = field(default_factory=list)
    nontrivial_violations: list = field(default_factory=list)


def maximal_predicates(model: OntModel, tol: float = MODEL_TOL) -> MaximalPredicates:
    """Check mu_psi(supp mu_phi) = |<phi|psi>|^2 over all ordered pairs, and
    the if-and-only-if between orthogonality and vanishing support mass.
    Row psi, column phi: the masses are W S^T with S = W > SUPPORT_EPS."""
    w = model.weights
    mass = w @ (w > SUPPORT_EPS).T
    born = np.abs(model.kets.conj() @ model.kets.T) ** 2

    def records(bad: np.ndarray) -> list:
        pairs = np.argwhere(bad).tolist()
        return [
            {"psi": model.states[a][0], "phi": model.states[b][0], "support_mass": sm, "born": bv}
            for (a, b), sm, bv in zip(pairs, mass[bad].tolist(), born[bad].tolist())
        ]

    me = records(np.abs(mass - born) > tol)
    mn = records((born <= tol) != (mass <= tol))
    return MaximalPredicates(
        maximally_epistemic=not me,
        maximally_nontrivial=not mn,
        epistemic_violations=me,
        nontrivial_violations=mn,
    )


def dirac_restriction_model(
    catalog: Sequence[tuple[str, np.ndarray]],
    measurements: Sequence[ProjectiveMeasurement],
) -> OntModel:
    """The Hilbert-space restatement on a finite catalogue: the ontic space
    is the catalogue itself, each state sits at its own point, and responses
    are the Born probabilities evaluated at each point."""
    catalog = tuple((str(lab), np.asarray(k, dtype=complex)) for lab, k in catalog)
    ontic = FiniteSpace(tuple(lab for lab, _ in catalog))
    distributions = dict(zip(ontic.points, distribution_rows(ontic, np.eye(ontic.size))))
    kets = _stack_kets(catalog, measurements)
    packed = tuple((m, tuple(response_rows(ontic, _born_table(kets, m).T))) for m in measurements)
    return OntModel(ontic, catalog, distributions, packed)


# ---------------------------------------------------------------------------
# operational-model (functor fragment) checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FunctorFragment:
    """Finite table of a functor: named channels with their kernel images.

    The unit object must map to the one-point space and the distinguishing
    object to the two-point space; both are fixed here by construction.
    """

    channels: dict[str, Channel]
    kernels: dict[str, SignedKernel]
    unit_space: FiniteSpace = UNIT_SPACE
    distinguished_space: FiniteSpace = TWO

    def __post_init__(self):
        if self.unit_space.size != 1:
            raise SpaceMismatchError("F(I) must be the one-point space")
        if self.distinguished_space.size != 2:
            raise SpaceMismatchError("F(2) must be the two-point space")
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
    """Born probability of outcome 0 through a state/measurement composite
    ending at the diagonal 2x2 algebra: sum_k ||row 0 of K_k||^2 over its Kraus set."""
    first = compose(meas, state).stack[:, 0]
    return float(np.vdot(first, first).real)


def check_operational_model(
    frag: FunctorFragment,
    composition_tests: Sequence[tuple[str, str, str]] = (),
    identity_names: Sequence[str] = (),
    evaluation_tests: Sequence[tuple[str, str]] = (),
    tol: float = FUNCTOR_TOL,
) -> OperationalModelReport:
    """Verify functor laws on the tabulated fragment.

    ``composition_tests`` lists (g, f, gf) name triples with gf the table
    entry for the quantum-side composite; ``identity_names`` must map to
    identity kernels; ``evaluation_tests`` lists (measurement, state) pairs
    whose kernel-side evaluation must reproduce the Born probability.
    """
    report = OperationalModelReport(tolerance=tol)
    for g_name, f_name, gf_name in composition_tests:
        _, kg = frag.pair(g_name)
        _, kf = frag.pair(f_name)
        _, kgf = frag.pair(gf_name)
        err = float(np.max(np.abs(kgf.matrix - kcompose(kg, kf).matrix)))
        if err > tol:
            report.composition_violations.append(
                {"g": g_name, "f": f_name, "gf": gf_name, "error": err}
            )
    for name in identity_names:
        _, k = frag.pair(name)
        if k.source != k.target:
            report.identity_violations.append({"name": name, "error": "endpoints differ"})
            continue
        err = float(np.max(np.abs(k.matrix - np.eye(k.source.size))))
        if err > tol:
            report.identity_violations.append({"name": name, "error": err})
    for meas_name, state_name in evaluation_tests:
        ch_m, k_m = frag.pair(meas_name)
        ch_s, k_s = frag.pair(state_name)
        if k_s.source != frag.unit_space or k_m.target != frag.distinguished_space:
            report.evaluation_violations.append(
                {"measurement": meas_name, "state": state_name,
                 "error": "not a state/measurement composite into 2"}
            )
            continue
        quantum_p = _quantum_probability(ch_m, ch_s)
        composite = kcompose(k_m, k_s)
        classical_p = evaluate(Distribution(TWO, composite.matrix[:, 0]))
        if abs(quantum_p - classical_p) > tol:
            report.evaluation_violations.append(
                {"measurement": meas_name, "state": state_name,
                 "quantum": quantum_p, "classical": classical_p}
            )
    return report


@dataclass(frozen=True)
class ActionTable:
    """Pointwise action of channels on measurable sets, given on singletons
    and extended by unions: maps (channel name, point label) to a label set."""

    actions: dict[str, dict[str, tuple[str, ...]]]

    def image(self, channel_name: str, point: str) -> tuple[str, ...]:
        try:
            return self.actions[channel_name][point]
        except KeyError as exc:
            raise MissingActionError(
                f"no tabulated action for channel {channel_name!r} at point {point!r}"
            ) from exc


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
    action: ActionTable,
    state_names: Sequence[str],
    channel_names: Sequence[str],
    tol: float = FUNCTOR_TOL,
) -> EquivarianceReport:
    """Verify F(f . psi)({u}) = F(psi)(f . {u}) for tabulated singletons."""
    report = EquivarianceReport(tolerance=tol)
    for s_name in state_names:
        _, ks = frag.pair(s_name)
        if ks.source != frag.unit_space:
            raise SpaceMismatchError(f"{s_name!r} is not a state (source is not F(I))")
        state_weights = ks.matrix[:, 0]
        for c_name in channel_names:
            _, kf = frag.pair(c_name)
            if kf.source != ks.target:
                raise SpaceMismatchError(f"channel {c_name!r} does not act on {s_name!r}")
            pushed = kf.matrix @ state_weights
            for i, label in enumerate(kf.target.points):
                members = action.image(c_name, label)
                rhs = float(
                    sum(state_weights[ks.target.index(lab)] for lab in members)
                )
                report.checked += 1
                if abs(pushed[i] - rhs) > tol:
                    report.violations.append(
                        {"state": s_name, "channel": c_name, "point": label,
                         "lhs": float(pushed[i]), "rhs": rhs}
                    )
    return report

"""Model validation, epistemic classification, functor-fragment checks."""

import dataclasses
import re

import numpy as np
import pytest

from ontokit.antidist import AntidistProblem, antidist_classical
from ontokit.errors import (
    DimMismatchError,
    MissingActionError,
    MissingMorphismError,
    SpaceMismatchError,
    VerificationFailedError,
)
from ontokit.kernels import (
    TWO,
    Distribution,
    FiniteSpace,
    ResponseFunction,
    SignedKernel,
    support_mask,
    variational_distance,
)
from ontokit.ontomodel import (
    Classification,
    FunctorFragment,
    MaximalPredicates,
    ModelValidation,
    OntModel,
    PairRecords,
    catalogue_kets,
    check_equivariance,
    check_operational_model,
    classify_model,
    maximal_predicates,
    validate_model,
)
from ontokit.quantum import (
    Channel,
    DensityMatrix,
    ProjectiveMeasurement,
    born,
    compose,
    overlap,
    preparation_channel,
)
from ontokit.sampling import (
    random_cptp_channel,
    random_density,
    random_ket,
    random_unitary,
    rng_for,
)
from ontokit.tolerances import IDENTITY_TOL, NONNEG_TOL, STRICT_MARGIN, SUPPORT_EPS
from ontokit.wigner import (
    commutative_algebra,
    displacement_channel,
    displacement_permutation,
    functor_morphism,
    phase_space,
)

Z0 = np.array([1, 0], dtype=complex)
Z1 = np.array([0, 1], dtype=complex)
PLUS = (Z0 + Z1) / np.sqrt(2)
ZBASIS = ProjectiveMeasurement(np.eye(2))


def dirac_model(catalog, measurements):
    """The Dirac model of a catalogue: each state sits at its own ontic
    point, and an outcome's response at a point is its Born probability
    there."""
    labels = tuple(lab for lab, _ in catalog)
    kets = catalogue_kets(labels, [k for _, k in catalog])
    responses = [np.abs(m.vectors.conj() @ kets.T) ** 2 for m in measurements]
    ontic = FiniteSpace(labels)
    return OntModel(ontic, labels, kets, np.eye(len(labels)), tuple(zip(measurements, responses)))


def qubit_catalog(rng, size):
    return [(f"s{i}", random_ket(rng, 2)) for i in range(size)]


def overlapping_epistemic_model():
    """Three ontic points; Z-measurement reproduced with overlapping
    distributions for |0> and |+>."""
    return OntModel(
        FiniteSpace(("a", "b", "c")),
        ("zero", "plus"),
        [Z0, PLUS],
        [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
        ((ZBASIS, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),),
    )


class TestValidateModel:
    def test_dirac_restriction_validates_cleanly(self):
        rng = rng_for(101)
        model = dirac_model(qubit_catalog(rng, 6), [ZBASIS])
        report = validate_model(model, tol=1e-10)
        assert report.clean

    def test_sum_rule_violation_reported(self):
        responses = [[1.0, 0.4], [0.0, 0.5]]  # sums to 0.9 at b
        model = OntModel(
            FiniteSpace(("a", "b")), ("zero",), [Z0], [[1.0, 0.0]], ((ZBASIS, responses),)
        )
        report = validate_model(model)
        assert any(v["point"] == "b" for v in report.sum_rule_violations)

    def test_perturbed_distribution_detected(self):
        rng = rng_for(102)
        catalog = qubit_catalog(rng, 4)
        model = dirac_model(catalog, [ZBASIS])
        # shift one weight by 1e-3 between two points
        label = catalog[0][0]
        w = model.weights.copy()
        w[0, 0] -= 1e-3
        w[0, 1] += 1e-3
        report = validate_model(dataclasses.replace(model, weights=w), tol=1e-7)
        # direct-summation oracle: the reproduced Born value moves by
        # 1e-3 * (xi(p1) - xi(p0)) for every outcome; confirm at least one
        # triple for the perturbed state is flagged
        assert any(v["state"] == label for v in report.born_violations)
        m, responses = model.measurements[0]
        for v in report.born_violations:
            k = v["outcome"]
            reproduced = float(responses[k] @ w[0])
            assert abs(v["reproduced"] - reproduced) < 1e-12

    def test_validation_report_is_clean_for_hand_model(self):
        assert validate_model(overlapping_epistemic_model(), tol=1e-12).clean


class TestClassify:
    def test_dirac_model_is_ontic(self):
        model = dirac_model([("zero", Z0), ("plus", PLUS)], [ZBASIS])
        assert classify_model(model).kind == "ontic"

    def test_overlapping_model_is_epistemic_with_witness(self):
        verdict = classify_model(overlapping_epistemic_model())
        assert verdict.kind == "epistemic"
        assert verdict.witness == ("zero", "plus")
        assert abs(verdict.witness_distance - 0.5) < 1e-12

    def test_orthogonal_catalog_is_ontic(self):
        model = OntModel(FiniteSpace(("a",)), ("zero", "one"), [Z0, Z1], [[1.0], [1.0]], ())
        assert classify_model(model).kind == "ontic"

    def test_agrees_with_antidistinguishability_for_pairs(self):
        # D = 1 iff disjoint supports iff the pair is anti-distinguishable
        rng = rng_for(103)
        ontic = FiniteSpace(("a", "b", "c", "d"))
        for _ in range(50):
            w1 = rng.uniform(0, 1, 4) * (rng.random(4) < 0.6)
            w2 = rng.uniform(0, 1, 4) * (rng.random(4) < 0.6)
            if w1.sum() == 0 or w2.sum() == 0:
                continue
            mu = Distribution(ontic, w1 / w1.sum())
            nu = Distribution(ontic, w2 / w2.sum())
            d = variational_distance(mu, nu)
            cert = antidist_classical(AntidistProblem((mu, nu), 0))
            assert (d >= 1.0 - 1e-9) == (cert is not None)


class TestMaximalPredicates:
    def test_dirac_on_orthogonal_pair(self):
        model = dirac_model([("zero", Z0), ("one", Z1)], [ZBASIS])
        # direct evaluation over the 4 ordered pairs: cross pairs give 0 on
        # both sides, diagonal pairs give 1 on both sides
        result = maximal_predicates(model)
        assert result.maximally_epistemic
        assert result.maximally_nontrivial

    def test_dirac_on_overlapping_pair_fails_epistemic(self):
        model = dirac_model([("zero", Z0), ("plus", PLUS)], [ZBASIS])
        result = maximal_predicates(model)
        # mu_zero(supp mu_plus) = 0 but |<plus|zero>|^2 = 1/2
        assert not result.maximally_epistemic
        assert not result.maximally_nontrivial

    def test_uniform_model_fails_epistemic(self):
        uniform = [0.5, 0.5]
        model = OntModel(FiniteSpace(("a", "b")), ("zero", "plus"), [Z0, PLUS], [uniform] * 2, ())
        result = maximal_predicates(model)
        # mu_zero(supp mu_plus) = 1 while the Born overlap is 1/2
        assert not result.maximally_epistemic
        assert result.nontrivial_violations == []

    def test_single_state_catalog(self):
        model = dirac_model([("zero", Z0)], [ZBASIS])
        result = maximal_predicates(model)
        assert result.maximally_epistemic and result.maximally_nontrivial

    def test_maximal_epistemic_implies_epistemic_when_overlapping(self):
        # a model that *is* maximally epistemic on a nonorthogonal pair:
        # shared mass c = |<plus|zero>|^2 at one point, the rest disjoint
        c = 0.5
        model = OntModel(
            FiniteSpace(("shared", "only_zero", "only_plus")),
            ("zero", "plus"),
            [Z0, PLUS],
            [[c, 1 - c, 0.0], [c, 0.0, 1 - c]],
            (),
        )
        preds = maximal_predicates(model)
        assert preds.maximally_epistemic and preds.maximally_nontrivial
        assert classify_model(model).kind == "epistemic"


# ---------------------------------------------------------------------------
# loop oracles: the validators written one pair (or one outcome) at a time
# ---------------------------------------------------------------------------

def catalogue(model):
    """(label, ket, Distribution) per state, read back from the matrices."""
    return [
        (lab, ket, Distribution(model.ontic, w))
        for lab, ket, w in zip(model.labels, model.kets, model.weights)
    ]


def validate_oracle(model, tol=1e-7):
    """Per-(state, measurement, outcome) replay by direct summation."""
    report = ModelValidation(tolerance=tol)
    for mi, (m, responses) in enumerate(model.measurements):
        xis = [ResponseFunction(model.ontic, r) for r in responses]
        totals = np.sum([xi.values for xi in xis], axis=0)
        for li, lam in enumerate(model.ontic.points):
            if abs(totals[li] - 1.0) > tol:
                report.sum_rule_violations.append(
                    {"measurement": mi, "point": lam, "total": float(totals[li])}
                )
        for label, ket, mu in catalogue(model):
            rho = DensityMatrix.from_ket(ket)
            for k in range(m.n_outcomes):
                reproduced = float(xis[k].values @ mu.weights)
                expected = born(rho, m, k)
                if abs(reproduced - expected) > tol:
                    report.born_violations.append(
                        {"state": label, "measurement": mi, "outcome": k,
                         "reproduced": reproduced, "expected": expected}
                    )
    return report


def classify_oracle(model):
    """First catalogue pair, in row-major order, that overlaps strictly while
    its distributions stay below variational distance 1."""
    states = catalogue(model)
    for i, (la, ka, mu_a) in enumerate(states):
        for lb, kb, mu_b in states[i + 1:]:
            ov = abs(overlap(ka, kb))
            if not (STRICT_MARGIN < ov < 1.0 - STRICT_MARGIN):
                continue
            d = variational_distance(mu_a, mu_b)
            if d < 1.0 - STRICT_MARGIN:
                return Classification(
                    kind="epistemic", witness=(la, lb),
                    witness_overlap=float(ov), witness_distance=float(d),
                )
    return Classification(kind="ontic")


def predicates_oracle(model, tol=1e-7):
    """mu_psi(supp mu_phi) against |<phi|psi>|^2, one ordered pair at a time."""
    me, mn = [], []
    states = catalogue(model)
    for la, ka, mu_a in states:
        for lb, kb, mu_b in states:
            mass = float(mu_a.weights[support_mask(mu_b)].sum())
            ov_sq = float(abs(overlap(kb, ka)) ** 2)
            if abs(mass - ov_sq) > tol:
                me.append({"psi": la, "phi": lb, "support_mass": mass, "born": ov_sq})
            if (ov_sq <= tol) != (mass <= tol):
                mn.append({"psi": la, "phi": lb, "support_mass": mass, "born": ov_sq})
    return MaximalPredicates(not me, not mn, me, mn)


def assert_same(got, want, path="report"):
    """Equal structure, keys, order and verdicts; floats within 1e-15."""
    if isinstance(got, PairRecords):
        got = list(got)  # a lazy view is compared as the list of its records
    if hasattr(want, "__dataclass_fields__"):
        got, want = vars(got), vars(want)
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-15, (path, got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), (path, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def assert_matches_oracles(model, tol=1e-7):
    assert_same(validate_model(model, tol), validate_oracle(model, tol))
    assert_same(classify_model(model), classify_oracle(model))
    assert_same(maximal_predicates(model, tol), predicates_oracle(model, tol))


def random_bases(rng, dim, count):
    return [ProjectiveMeasurement(random_unitary(rng, dim).T) for _ in range(count)]


def random_dirac(rng, size, dim, bases):
    catalog = [(f"s{i}", random_ket(rng, dim)) for i in range(size)]
    return dirac_model(catalog, random_bases(rng, dim, bases))


def with_distributions(model, weights):
    """The same catalogue and measurements with some weight rows replaced."""
    w = model.weights.copy()
    for lab, row in weights.items():
        w[model.labels.index(lab)] = row
    return dataclasses.replace(model, weights=w)


def free_model(rng, kets, weights, bases, spread=0.0):
    """Catalogue ``kets`` with ontic ``weights`` (states x ontic) and random
    responses; ``spread`` moves each response column off the sum rule."""
    ontic = FiniteSpace(tuple(f"x{j}" for j in range(weights.shape[1])))
    labels = tuple(f"s{i}" for i in range(len(kets)))
    measurements = []
    for m in random_bases(rng, len(kets[0]), bases):
        r = rng.uniform(0, 1, (m.n_outcomes, ontic.size))
        measurements.append((m, r / r.sum(axis=0) * (1 - spread * rng.uniform(0, 1, ontic.size))))
    return OntModel(ontic, labels, kets, weights, tuple(measurements))


class TestMatrixFormAgainstOracles:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dirac_models(self, seed):
        rng = rng_for(601, seed)
        size, dim, bases = (int(rng.integers(lo, hi)) for lo, hi in ((1, 41), (2, 6), (1, 5)))
        model = random_dirac(rng, size, dim, bases)
        assert_matches_oracles(model)
        assert_matches_oracles(model, tol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_perturbed_mixtures(self, seed):
        rng = rng_for(602, seed)
        size = int(rng.integers(3, 30))
        model = random_dirac(rng, size, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        mixed = {}
        for i in rng.choice(size, size=3, replace=False):
            w = np.zeros(size)
            w[i] = rng.uniform(0.2, 0.8)
            w[int(rng.integers(size))] += 1.0 - w[i]
            mixed[f"s{i}"] = w
        assert_matches_oracles(with_distributions(model, mixed))

    @pytest.mark.parametrize("seed", range(6))
    def test_free_models_with_sum_rule_violations(self, seed):
        rng = rng_for(603, seed)
        size, dim, points = (int(rng.integers(lo, hi)) for lo, hi in ((2, 25), (2, 5), (2, 9)))
        weights = rng.uniform(0, 1, (size, points)) * (rng.random((size, points)) < 0.5)
        weights[:, 0] += 1e-3
        weights /= weights.sum(axis=1, keepdims=True)
        kets = [random_ket(rng, dim) for _ in range(size)]
        assert_matches_oracles(free_model(rng, kets, weights, int(rng.integers(1, 4)), spread=1e-6))

    @pytest.mark.parametrize("scale", [0.5, 1.5])
    def test_weights_at_the_support_threshold(self, scale):
        rng = rng_for(604)
        e = scale * SUPPORT_EPS
        weights = np.array([
            [1.0 - e, e, 0.0, 0.0],
            [e, 1.0 - e, 0.0, 0.0],
            [0.0, e, 0.5 - e, 0.5],
            [0.0, 0.0, 0.0, 1.0],
        ])
        kets = [random_ket(rng, 2) for _ in range(4)]
        model = free_model(rng, kets, weights, 2)
        assert_matches_oracles(model)
        # an e-weight belongs to the support iff it clears SUPPORT_EPS
        records = maximal_predicates(model, tol=0.0).epistemic_violations
        mass = {(v["psi"], v["phi"]): v["support_mass"] for v in records}
        assert mass[("s0", "s1")] == pytest.approx(1.0 if scale > 1 else e, abs=1e-15)

    @pytest.mark.parametrize("ov,kind", [
        (0.5 * STRICT_MARGIN, "ontic"),
        (2.0 * STRICT_MARGIN, "epistemic"),
        (1.0 - 0.5 * STRICT_MARGIN, "ontic"),
        (1.0 - 2.0 * STRICT_MARGIN, "epistemic"),
    ])
    def test_overlap_at_the_strict_margin(self, ov, kind):
        rng = rng_for(605)
        u = random_unitary(rng, 3)
        kets = [u[:, 0], u @ np.array([ov, np.sqrt(1.0 - ov * ov), 0.0]), u[:, 2]]
        weights = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        model = free_model(rng, kets, weights, 2)
        assert_matches_oracles(model)
        verdict = classify_model(model)
        assert verdict.kind == kind
        assert verdict.witness == (("s0", "s1") if kind == "epistemic" else None)

    def test_duplicated_ket(self):
        rng = rng_for(606)
        psi = random_ket(rng, 3)
        catalog = [("a", psi), ("b", random_ket(rng, 3)), ("a_again", psi.copy())]
        model = dirac_model(catalog, random_bases(rng, 3, 2))
        assert_matches_oracles(model)
        assert ("a", "a_again") in [
            (v["psi"], v["phi"]) for v in maximal_predicates(model).epistemic_violations
        ]

    def test_orthogonal_catalogue(self):
        rng = rng_for(607)
        u = random_unitary(rng, 4)
        catalog = [(f"e{i}", u[:, i]) for i in range(4)]
        model = dirac_model(catalog, random_bases(rng, 4, 3))
        assert_matches_oracles(model)
        preds = maximal_predicates(model)
        assert classify_model(model).kind == "ontic"
        assert preds.maximally_epistemic and preds.maximally_nontrivial


def classify_rows_oracle(model):
    """classify_model before the support screen: one pass per catalogue row
    over all of its strictly overlapping partners further down."""
    ov = np.abs(model.kets.conj() @ model.kets.T)
    strict = (ov > STRICT_MARGIN) & (ov < 1.0 - STRICT_MARGIN)
    w = model.weights
    for i in range(len(w)):
        js = i + 1 + np.flatnonzero(strict[i, i + 1:])
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


def assert_same_verdict(model):
    """The screened classification equals the per-row loop's, bit for bit."""
    got, want = classify_model(model), classify_rows_oracle(model)
    assert got.kind == want.kind
    assert got.witness == want.witness
    assert got.witness_overlap == want.witness_overlap
    assert got.witness_distance == want.witness_distance
    return got


def bench_dirac(rng, size, dim, bases, perturbed):
    """A Dirac model drawn as the validators benchmark draws one; perturbed,
    one state is mixed half and half with the state whose Born row differs
    most from its own."""
    model = random_dirac(rng, size, dim, bases)
    if not perturbed:
        return model
    i = int(rng.integers(size))
    rows = np.concatenate([r for _, r in model.measurements])
    j = int(np.argmax(np.abs(rows - rows[:, [i]]).max(axis=0)))
    mixed = np.zeros(size)
    mixed[i] = mixed[j] = 0.5
    return with_distributions(model, {f"s{i}": mixed})


def two_state_model(rng, w0, w1, ov=0.5):
    """Two kets at overlap ``ov`` with the given ontic weight rows."""
    u = random_unitary(rng, 2)
    kets = [u[:, 0], u @ np.array([ov, np.sqrt(1.0 - ov * ov)])]
    return free_model(rng, kets, np.array([w0, w1]), 0)


def lowest_admitted_sum():
    """The smallest float row sum that Distribution admits."""
    s = 1.0 - IDENTITY_TOL
    while abs(s - 1.0) <= IDENTITY_TOL:
        s = np.nextafter(s, 0.0)
    return float(np.nextafter(s, 2.0))


class TestSupportScreen:
    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_bench_dirac_models(self, seed, perturbed):
        rng = rng_for(610, seed)
        for size in (8, 11, 17, 23, 29, 40):
            model = bench_dirac(rng, size, int(rng.integers(2, 5)), int(rng.integers(2, 5)), perturbed)
            verdict = assert_same_verdict(model)
            assert verdict.kind == ("epistemic" if perturbed else "ontic")

    @pytest.mark.parametrize("density", [0.15, 0.4, 1.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_overlapping_supports(self, seed, density):
        rng = rng_for(611, seed)
        size, points = int(rng.integers(2, 40)), int(rng.integers(2, 30))
        weights = rng.uniform(0, 1, (size, points)) * (rng.random((size, points)) < density)
        weights[np.arange(size), rng.integers(points, size=size)] += 0.05
        weights /= weights.sum(axis=1, keepdims=True)
        kets = [random_ket(rng, 3) for _ in range(size)]
        assert_same_verdict(free_model(rng, kets, weights, 0))

    @pytest.mark.parametrize("seed", range(6))
    def test_entries_at_minus_half_nonneg_tol(self, seed):
        rng = rng_for(612, seed)
        size, points = 12, 10
        weights = rng.uniform(0, 1, (size, points)) * (rng.random((size, points)) < 0.3)
        weights[:, 0] += 0.1
        weights /= weights.sum(axis=1, keepdims=True)
        weights[weights == 0] = -0.5 * NONNEG_TOL
        weights[:, 0] -= weights.sum(axis=1) - 1.0
        model = free_model(rng, [random_ket(rng, 2) for _ in range(size)], weights, 0)
        assert all(mu.is_probability for _, _, mu in catalogue(model))
        assert_same_verdict(model)

    @pytest.mark.parametrize("shared,kind", [
        (0.5 * STRICT_MARGIN, "ontic"),
        (STRICT_MARGIN, None),
        (2.0 * STRICT_MARGIN, "epistemic"),
    ])
    def test_distance_at_the_strict_margin(self, shared, kind):
        w0 = [1.0 - shared, shared, 0.0]
        w1 = [0.0, shared, 1.0 - shared]
        verdict = assert_same_verdict(two_state_model(rng_for(613), w0, w1))
        assert kind is None or verdict.kind == kind

    @pytest.mark.parametrize("ov,kind", [
        (1.0 - 0.5 * STRICT_MARGIN, "ontic"),
        (1.0 - 2.0 * STRICT_MARGIN, "epistemic"),
    ])
    def test_overlap_at_the_strict_margin(self, ov, kind):
        model = two_state_model(rng_for(614), [0.5, 0.5, 0.0], [0.0, 0.5, 0.5], ov)
        assert assert_same_verdict(model).kind == kind

    def test_disjoint_rows_at_the_lowest_admitted_sum(self):
        # the screen's bound needs admitted row sums of at least 1 - STRICT_MARGIN
        assert IDENTITY_TOL <= STRICT_MARGIN
        s = lowest_admitted_sum()
        for w0, w1 in (
            ([s, 0.0, 0.0], [0.0, 0.0, s]),
            ([s + 0.5 * NONNEG_TOL, -0.5 * NONNEG_TOL, 0.0], [-0.5 * NONNEG_TOL, 0.0, s + 0.5 * NONNEG_TOL]),
        ):
            model = two_state_model(rng_for(615), w0, w1)
            assert assert_same_verdict(model).kind == "ontic"

    def test_mass_below_support_eps_can_witness(self):
        # shared entries at or below SUPPORT_EPS still count: over 4000
        # points they add up to 2 STRICT_MARGIN, and on one point they tip
        # rows that sum to the lowest admitted value
        e = 0.5 * SUPPORT_EPS
        many = np.full(4000, e)
        s = lowest_admitted_sum()
        for w0, w1 in (
            (np.r_[1.0 - many.sum(), many, 0.0], np.r_[0.0, many, 1.0 - many.sum()]),
            ([s - e, e, 0.0], [0.0, e, s - e]),
        ):
            verdict = assert_same_verdict(two_state_model(rng_for(616), w0, w1))
            assert verdict.kind == "epistemic" and verdict.witness == ("s0", "s1")

    def test_every_pair_overlapping(self):
        rng = rng_for(617)
        weights = rng.uniform(0.1, 1.0, (200, 50))
        weights /= weights.sum(axis=1, keepdims=True)
        model = free_model(rng, [random_ket(rng, 3) for _ in range(200)], weights, 0)
        assert assert_same_verdict(model).witness == ("s0", "s1")


def test_two_hundred_state_dirac_model():
    """Maximal psi-epistemicity at catalogue scale: every ordered pair of
    distinct random kets overlaps while their point masses are disjoint."""
    rng = rng_for(608)
    s = 200
    model = random_dirac(rng, s, 4, 2)
    assert validate_model(model, tol=1e-10).clean
    assert classify_model(model).kind == "ontic"
    preds = maximal_predicates(model)
    assert len(preds.epistemic_violations) == s * (s - 1)
    assert len(preds.nontrivial_violations) == s * (s - 1)
    for v in preds.epistemic_violations:
        assert v["psi"] != v["phi"] and v["support_mass"] == 0.0


class TestPairRecords:
    """The violation lists of maximal_predicates are lazy views over the
    violating index pairs; read, they are the oracle's lists."""

    def views(self, model, tol=1e-7):
        preds = maximal_predicates(model, tol)
        want = predicates_oracle(model, tol)
        return (
            (preds.epistemic_violations, want.epistemic_violations),
            (preds.nontrivial_violations, want.nontrivial_violations),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_reads_match_the_oracle(self, seed):
        rng = rng_for(620, seed)
        model = with_distributions(random_dirac(rng, 9, 3, 2), {"s2": np.full(9, 1.0 / 9)})
        for view, want in self.views(model):
            assert isinstance(view, PairRecords)
            assert len(view) == len(want) > 0 and bool(view)
            assert_same(view[0], want[0])
            assert_same(view[-1], want[-1])
            assert_same(view[len(view) - 2], want[-2])
            for sl in (slice(1, 4), slice(None, None, -2), slice(-3, None), slice(5, 2)):
                got = view[sl]
                assert type(got) is list
                assert_same(got, want[sl])
            assert_same(list(view), want)  # iteration, in row-major pair order
            assert_same([view[i] for i in range(len(view))], want)
            for bad in (len(view), -len(view) - 1):
                with pytest.raises(IndexError):
                    view[bad]
            record = view[0]
            assert list(record) == ["psi", "phi", "support_mass", "born"]
            assert type(record["support_mass"]) is float and type(record["born"]) is float

    def test_equality_with_lists_of_records(self):
        model = dirac_model([("zero", Z0), ("plus", PLUS)], [ZBASIS])
        preds, want = maximal_predicates(model), predicates_oracle(model)
        # here the matrix and the per-pair values agree to the last bit
        assert preds.epistemic_violations == want.epistemic_violations
        assert preds.nontrivial_violations == want.nontrivial_violations
        view = preds.epistemic_violations
        records = list(view)
        assert view == records and records == view
        assert view == maximal_predicates(model).epistemic_violations
        assert view != records[:1] and view != [] and view != tuple(records)
        assert [(r["psi"], r["phi"]) for r in view] == [("zero", "plus"), ("plus", "zero")]

    def test_empty_view(self):
        rng = rng_for(621)
        u = random_unitary(rng, 3)
        catalog = [(f"e{i}", u[:, i]) for i in range(3)]
        model = dirac_model(catalog, [ProjectiveMeasurement(np.eye(3))])
        for view, want in self.views(model):
            assert want == [] and view == [] and list(view) == [] and view[:] == []
            assert len(view) == 0 and not view
            with pytest.raises(IndexError):
                view[0]
            with pytest.raises(IndexError):
                view[-1]

    def test_counting_builds_no_record(self, monkeypatch):
        built = []
        record = PairRecords._record

        def counting(self, *args):
            built.append(args)
            return record(self, *args)

        monkeypatch.setattr(PairRecords, "_record", counting)
        s = 200
        preds = maximal_predicates(random_dirac(rng_for(608), s, 4, 2))
        assert len(preds.epistemic_violations) == len(preds.nontrivial_violations) == s * (s - 1)
        assert preds.epistemic_violations and preds.nontrivial_violations
        assert not preds.maximally_epistemic and not preds.maximally_nontrivial
        assert built == []
        first = preds.epistemic_violations[0]
        assert len(built) == 1 and (first["psi"], first["phi"]) == ("s0", "s1")


class TestModelChecksInCatalogueOrder:
    """The matrix checks raise for the first state or outcome that fails,
    with the message and type of the check that fails first on it."""

    ONTIC = FiniteSpace(("a", "b"))
    ROWS = {"ok": [0.5, 0.5], "signed": [1.5, -0.5], "long": [0.7, 0.7], "nan": [np.nan, 1.0]}

    @pytest.mark.parametrize("faults,exc,message", [
        (("signed", "long"), VerificationFailedError, "weights sum to 1.4"),
        (("ok", "nan", "long"), VerificationFailedError, "weights contain NaN or Inf"),
        (("ok", "signed", "signed"), VerificationFailedError, "distribution for 's1' is signed"),
    ])
    def test_weight_faults(self, faults, exc, message):
        labels = tuple(f"s{i}" for i in range(len(faults)))
        weights = [self.ROWS[f] for f in faults]
        with pytest.raises(exc, match=message):
            OntModel(self.ONTIC, labels, [Z0] * len(faults), weights, ())

    @pytest.mark.parametrize("weights,exc,message", [
        ([[1.0, 0.0, 0.0]], SpaceMismatchError, "weight vector length does not match space"),
        ([1.0, 0.0], SpaceMismatchError, "weight vector length does not match space"),
        ([[1.0, 0.0], [0.0, 1.0]], VerificationFailedError, "exactly one weight row"),
    ])
    def test_weight_matrix_shape(self, weights, exc, message):
        with pytest.raises(exc, match=message):
            OntModel(self.ONTIC, ("s0",), [Z0], weights, ())

    @pytest.mark.parametrize("responses,exc,message", [
        ([[1.0, 0.0]], VerificationFailedError, "exactly one response row"),
        ([[1.0], [0.0]], SpaceMismatchError, "response length does not match space"),
        ([[1.5, 0.0], [0.0, 1.0]], VerificationFailedError, r"must lie in \[0, 1\]"),
        ([[np.nan, 0.0], [0.0, 1.0]], VerificationFailedError, r"must lie in \[0, 1\]"),
    ])
    def test_response_faults(self, responses, exc, message):
        with pytest.raises(exc, match=message):
            OntModel(self.ONTIC, ("s0",), [Z0], [[1.0, 0.0]], ((ZBASIS, responses),))

    @pytest.mark.parametrize("kets,exc,message", [
        ([Z0, 1.1 * Z0, np.array([np.nan, 0])], ValueError, "ket norm 1.1"),
        ([Z0, np.array([np.inf, 0]), 1.1 * Z0], ValueError, "NaN or Inf"),
        (np.zeros((2, 0)), DimMismatchError, "at least one amplitude"),
    ])
    def test_ket_faults(self, kets, exc, message):
        labels = tuple(f"s{i}" for i in range(len(kets)))
        with pytest.raises(exc, match=message):
            OntModel(self.ONTIC, labels, kets, [[0.5, 0.5]] * len(kets), ())

    def test_one_ket_row_per_state(self):
        with pytest.raises(DimMismatchError, match="one ket row per state"):
            OntModel(self.ONTIC, ("s0", "s1"), [Z0], [[0.5, 0.5]] * 2, ())

    def test_duplicate_labels(self):
        with pytest.raises(VerificationFailedError, match="state labels must be distinct"):
            OntModel(self.ONTIC, ("s", "s"), [Z0, Z1], [[0.5, 0.5]] * 2, ())

    def test_labels_are_strings(self):
        # read through str(), 1 and "1" would collide as two "1"s
        with pytest.raises(VerificationFailedError, match="state label 1 is not a string"):
            OntModel(self.ONTIC, (1, "1"), [Z0, Z1], [[0.5, 0.5]] * 2, ())


class TestModelDimensions:
    def test_mixed_state_dimensions_in_a_catalogue(self):
        qutrit = np.array([1, 0, 0], dtype=complex)
        with pytest.raises(DimMismatchError, match="state 'qutrit' has dimension 3, expected 2"):
            catalogue_kets(("zero", "qutrit"), [Z0, qutrit])
        # named before a ket of the first dimension that is not a unit vector
        with pytest.raises(DimMismatchError, match="state 's1' has dimension 3"):
            catalogue_kets(("s0", "s1", "s2"), [Z0, qutrit, 1.1 * Z0])
        assert catalogue_kets(("zero", "one"), [Z0, Z1]).shape == (2, 2)

    def test_mixed_state_dimensions_with_measurements(self):
        rng = rng_for(609)
        catalog = [("zero", Z0), ("qutrit", random_ket(rng, 3))]
        with pytest.raises(DimMismatchError, match="'qutrit'"):
            dirac_model(catalog, [ZBASIS])

    def test_qubit_states_with_a_qutrit_basis(self):
        with pytest.raises(DimMismatchError, match="measurement 1 has dimension 3, expected 2"):
            OntModel(
                FiniteSpace(("a",)), ("zero",), [Z0], [[1.0]],
                ((ZBASIS, [[1.0], [0.0]]),
                 (ProjectiveMeasurement(np.eye(3)), [[1.0], [0.0], [0.0]])),
            )

    def test_stacked_arrays(self):
        model = overlapping_epistemic_model()
        assert model.kets.shape == (2, 2) and model.weights.shape == (2, 3)
        assert [r.shape for _, r in model.measurements] == [(2, 3)]
        point = FiniteSpace(("a",))
        empty = OntModel(point, (), np.zeros((0, 0)), np.zeros((0, 1)), ((ZBASIS, [[1.0], [0.0]]),))
        assert empty.kets.shape == (0, 2) and empty.weights.shape == (0, 1)
        assert validate_model(empty).clean and classify_model(empty).kind == "ontic"

    def test_complex_weights_and_responses(self):
        # a float cast would drop the imaginary part, with only a ComplexWarning to show it
        point = FiniteSpace(("a", "b"))
        responses = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(VerificationFailedError, match="^weight matrix has a nonzero imaginary part$"):
            OntModel(point, ("zero",), [Z0], np.array([[0.5 + 0.5j, 0.5 - 0.5j]]),
                     ((ZBASIS, responses),))
        with pytest.raises(VerificationFailedError, match="^response matrix has a nonzero imaginary part$"):
            OntModel(point, ("zero",), [Z0], [[1.0, 0.0]],
                     ((ZBASIS, np.array([[1.0, 1e-3j], [0.0, 1.0]])),))
        model = OntModel(point, ("zero",), [Z0], np.array([[1.0, 0.0]], dtype=complex),
                         ((ZBASIS, np.array(responses, dtype=complex)),))
        assert model.weights.dtype == np.float64 and model.measurements[0][1].dtype == np.float64
        assert model.weights.tolist() == [[1.0, 0.0]]

    def test_the_model_is_its_matrices(self):
        assert [f.name for f in dataclasses.fields(OntModel)] == [
            "ontic", "labels", "kets", "weights", "measurements",
        ]
        model = dirac_model([("zero", Z0), ("plus", PLUS)], [ZBASIS])
        assert model.labels == ("zero", "plus")
        assert np.array_equal(model.weights, np.eye(2))
        (m, responses), = model.measurements
        assert m is ZBASIS and responses.flags.c_contiguous
        assert np.allclose(responses, [[1.0, 0.5], [0.0, 0.5]])


def wigner_fragment(rng, with_composite=True):
    f = random_cptp_channel(rng, 3, 3)
    g = random_cptp_channel(rng, 3, 3)
    channels = {"f": f, "g": g, "id": Channel.identity(3)}
    if with_composite:
        channels["gf"] = compose(g, f)
    kernels = {name: functor_morphism(ch) for name, ch in channels.items()}
    return FunctorFragment(channels=channels, kernels=kernels)


class TestOperationalModel:
    def test_wigner_fragment_passes(self):
        rng = rng_for(104)
        frag = wigner_fragment(rng)
        report = check_operational_model(
            frag, composition_tests=[("g", "f", "gf")], identity_names=["id"]
        )
        assert report.clean

    def test_uniform_reset_fragment_fails_composition(self):
        rng = rng_for(105)
        f = random_cptp_channel(rng, 3, 3)
        g = random_cptp_channel(rng, 3, 3)
        space = phase_space(3)
        uniform_kernel = SignedKernel(space, space, np.full((9, 9), 1.0 / 9.0))
        frag = FunctorFragment(
            channels={"f": f, "g": g, "gf": compose(g, f)},
            kernels={"f": uniform_kernel, "g": uniform_kernel, "gf": functor_morphism(compose(g, f))},
        )
        report = check_operational_model(frag, composition_tests=[("g", "f", "gf")])
        assert report.composition_violations

    def test_identity_only_fragment_vacuous(self):
        frag = FunctorFragment(
            channels={"id": Channel.identity(3)},
            kernels={"id": functor_morphism(Channel.identity(3))},
        )
        assert check_operational_model(frag, identity_names=["id"]).clean

    def test_evaluation_preservation(self):
        rng = rng_for(106)
        from ontokit.quantum import measurement_channel
        from ontokit.sampling import random_effect

        rho = random_density(rng, 3)
        prep = preparation_channel(rho)
        meas = measurement_channel(random_effect(rng, 3))
        frag = FunctorFragment(
            channels={"state": prep, "meas": meas},
            kernels={
                "state": functor_morphism(prep),
                "meas": functor_morphism(meas, out_algebra=commutative_algebra(2)),
            },
        )
        report = check_operational_model(frag, evaluation_tests=[("meas", "state")])
        assert report.clean

    @staticmethod
    def endpoint_fragment():
        """Qutrit identity kernels (9 -> 9), a state (1 -> 9), a measurement
        (9 -> 2) and an identity on a relabelled copy of phase space.  Three
        more pairs fit their kernels' endpoints but not their channels': a
        3 -> 3 channel with the state's kernel, and a 5 -> 2 and a 3 -> 3
        channel with the measurement's kernel."""
        rng = rng_for(108)
        from ontokit.quantum import measurement_channel
        from ontokit.sampling import random_effect

        prep = preparation_channel(random_density(rng, 3))
        meas = measurement_channel(random_effect(rng, 3))
        relabelled = FiniteSpace(tuple(f"x{i}" for i in range(9)))
        identity = functor_morphism(Channel.identity(3))
        state_kernel = functor_morphism(prep)
        meas_kernel = functor_morphism(meas, out_algebra=commutative_algebra(2))
        return FunctorFragment(
            channels={"id": Channel.identity(3), "state": prep, "meas": meas,
                      "relabelled": Channel.identity(3), "loop": random_cptp_channel(rng, 3, 3),
                      "meas5": measurement_channel(random_effect(rng, 5)),
                      "wide": random_cptp_channel(rng, 3, 3)},
            kernels={
                "id": identity,
                "state": state_kernel,
                "meas": meas_kernel,
                "relabelled": SignedKernel(relabelled, relabelled, identity.matrix),
                "loop": state_kernel,
                "meas5": meas_kernel,
                "wide": meas_kernel,
            },
        )

    @pytest.mark.parametrize(
        "laws, message",
        [
            # gf of another shape: numpy could not even subtract K_g K_f from it
            ({"composition_tests": [("id", "id", "meas")]},
             "composition ('id', 'id', 'meas'): gf must run from the source of f to the target of g"),
            # gf of the right shape on a relabelled space
            ({"composition_tests": [("id", "id", "relabelled")]},
             "composition ('id', 'id', 'relabelled'): gf must run"),
            ({"composition_tests": [("id", "meas", "meas")]},
             "composition ('id', 'meas', 'meas'): f must end where g starts"),
            ({"identity_names": ["meas"]},
             "identity 'meas': the kernel must be an endomorphism"),
            ({"evaluation_tests": [("state", "meas")]},
             "evaluation ('state', 'meas'): the state must start at the unit space"),
            ({"evaluation_tests": [("id", "state")]},
             "evaluation ('id', 'state'): the measurement must run from the state's space into TWO"),
            ({"evaluation_tests": [("meas", "id")]},
             "evaluation ('meas', 'id'): the state must start at the unit space"),
            # kernels that fit the law on channels that do not: once a probability
            # above 1 and once compose's unnamed DimMismatchError
            ({"evaluation_tests": [("meas", "loop")]},
             "evaluation ('meas', 'loop'): the state channel must start at C"),
            ({"evaluation_tests": [("meas5", "state")]},
             "evaluation ('meas5', 'state'): the measurement channel must run from the "
             "state channel's output into C^2"),
            ({"evaluation_tests": [("wide", "state")]},
             "evaluation ('wide', 'state'): the measurement channel must run from the "
             "state channel's output into C^2"),
        ],
    )
    def test_endpoints_that_do_not_fit_the_law(self, laws, message):
        with pytest.raises(SpaceMismatchError, match=re.escape(message)):
            check_operational_model(self.endpoint_fragment(), **laws)

    def test_fitting_endpoints_give_numeric_records(self):
        frag = self.endpoint_fragment()
        space = phase_space(3)
        frag = FunctorFragment(
            channels={**frag.channels, "swap": Channel.identity(3)},
            kernels={**frag.kernels, "id": SignedKernel(space, space, np.eye(9)),
                     "swap": SignedKernel(space, space, np.eye(9)[::-1])},
        )
        report = check_operational_model(
            frag, composition_tests=[("id", "id", "swap")], identity_names=["swap", "id"],
            evaluation_tests=[("meas", "state")],
        )
        assert report.composition_violations == [{"g": "id", "f": "id", "gf": "swap", "error": 1.0}]
        assert report.identity_violations == [{"name": "swap", "error": 1.0}]
        assert report.evaluation_violations == []

    def test_evaluation_violation_is_recorded(self):
        rng = rng_for(109)
        from ontokit.quantum import measurement_channel
        from ontokit.sampling import random_effect

        rho = random_density(rng, 3)
        effect = random_effect(rng, 3)
        prep = preparation_channel(rho)
        # a kernel that always answers outcome 0, against a Born probability below 1
        always_zero = SignedKernel(phase_space(3), TWO, np.vstack([np.ones(9), np.zeros(9)]))
        frag = FunctorFragment(
            channels={"state": prep, "meas": measurement_channel(effect)},
            kernels={"state": functor_morphism(prep),
                     "meas": always_zero},
        )
        report = check_operational_model(frag, evaluation_tests=[("meas", "state")])
        [record] = report.evaluation_violations
        assert list(record) == ["measurement", "state", "quantum", "classical"]
        assert (record["measurement"], record["state"]) == ("meas", "state")
        born_p = np.trace(effect.effect @ rho.matrix).real
        assert born_p < 0.99
        assert record["quantum"] == pytest.approx(born_p, abs=1e-12)
        assert record["classical"] == pytest.approx(1.0, abs=1e-12)
        assert not report.clean and report.composition_violations == report.identity_violations == []

    def test_kernels_near_the_column_tolerance(self):
        # columns summing to 1 + 8e-10 are valid kernels; their product sums to
        # 1 + 1.6e-9, beyond IDENTITY_TOL, so it is no SignedKernel itself
        k = np.full((2, 2), 0.5)
        k[1] += 8e-10
        product = k @ k
        space = FiniteSpace(("a", "b"))
        frag = FunctorFragment(
            channels={"f": Channel.identity(2), "gf": Channel.identity(2)},
            kernels={"f": SignedKernel(space, space, k),
                     "gf": SignedKernel(space, space, product / product.sum(axis=0))},
        )
        assert check_operational_model(frag, composition_tests=[("f", "f", "gf")]).clean

    def test_missing_morphism(self):
        frag = FunctorFragment(
            channels={"id": Channel.identity(3)},
            kernels={"id": functor_morphism(Channel.identity(3))},
        )
        with pytest.raises(MissingMorphismError):
            check_operational_model(frag, composition_tests=[("id", "id", "nope")])


def displacement_fragment_and_action(shifts):
    """Fragment of displacement channels and a few states, plus each channel's
    point permutation (D(a,b) moves phase point j to perm[j], so the
    equivariance equation F(f.psi) = pi_f . F(psi) holds pointwise)."""
    rng = rng_for(107)
    channels = {}
    kernels = {}
    actions = {}
    for (a, b) in shifts:
        name = f"D{a}{b}"
        ch = displacement_channel(3, a, b)
        channels[name] = ch
        kernels[name] = functor_morphism(ch)
        actions[name] = displacement_permutation(3, a, b)
    for i in range(2):
        rho = random_density(rng, 3)
        prep = preparation_channel(rho)
        channels[f"rho{i}"] = prep
        kernels[f"rho{i}"] = functor_morphism(prep)
    return FunctorFragment(channels=channels, kernels=kernels), actions


class TestEquivariance:
    def test_displacements_pass(self):
        shifts = [(a, b) for a in range(3) for b in range(3)]
        frag, action = displacement_fragment_and_action(shifts)
        report = check_equivariance(
            frag, action, ["rho0", "rho1"], [f"D{a}{b}" for a, b in shifts], tol=1e-9
        )
        assert report.clean
        assert report.checked == 2 * 9 * 9

    def test_identity_action_passes(self):
        frag, action = displacement_fragment_and_action([(0, 0)])
        report = check_equivariance(frag, action, ["rho0"], ["D00"], tol=1e-12)
        assert report.clean

    def test_swapped_action_fails(self):
        frag, action = displacement_fragment_and_action([(1, 0)])
        perm = list(action["D10"])
        perm[0], perm[1] = perm[1], perm[0]
        report = check_equivariance(frag, {"D10": perm}, ["rho0"], ["D10"])
        assert not report.clean
        # the weights of points 0 and 1 land on each other's true images
        w = frag.kernels["rho0"].matrix[:, 0]
        pushed = frag.kernels["D10"].matrix @ w
        space = phase_space(3)
        assert report.violations == [
            {"state": "rho0", "channel": "D10", "point": space.points[i],
             "lhs": float(pushed[i]), "rhs": float(w[j])}
            for i, j in sorted([(perm[0], 0), (perm[1], 1)])
        ]
        assert report.checked == 9

    def test_records_in_state_channel_point_order(self):
        frag, action = displacement_fragment_and_action([(1, 0), (0, 1)])
        swapped = {name: list(perm[::-1]) for name, perm in action.items()}
        report = check_equivariance(frag, swapped, ["rho1", "rho0"], ["D01", "D10"])
        keys = [(v["state"], v["channel"], phase_space(3).points.index(v["point"]))
                for v in report.violations]
        order = {"rho1": 0, "rho0": 1, "D01": 0, "D10": 1}
        assert keys == sorted(keys, key=lambda k: (order[k[0]], order[k[1]], k[2]))
        assert {k[:2] for k in keys} == {(s, c) for s in ("rho0", "rho1") for c in ("D01", "D10")}
        assert report.checked == 2 * 2 * 9

    def test_missing_action(self):
        frag, action = displacement_fragment_and_action([(1, 0), (0, 1)])
        with pytest.raises(MissingActionError, match="'D10'"):
            check_equivariance(frag, {"D01": action["D01"]}, ["rho0"], ["D01", "D10"])

    @pytest.mark.parametrize(
        "perm",
        [
            [0, 0, 2, 3, 4, 5, 6, 7, 8],  # a repeated entry
            list(range(8)),  # too short
            list(range(10)),  # too long
            [1, 2, 3, 4, 5, 6, 7, 8, 9],  # off the points
            [-1, 0, 1, 2, 3, 4, 5, 6, 7],  # a negative index
            [float(i) for i in range(9)],  # not integers
        ],
    )
    def test_permutation_that_is_not_a_bijection(self, perm):
        frag, _ = displacement_fragment_and_action([(1, 0)])
        with pytest.raises(SpaceMismatchError, match=re.escape(
                "equivariance ('rho0', 'D10'): pi must be a bijection of the 9 points")):
            check_equivariance(frag, {"D10": perm}, ["rho0"], ["D10"])

    def test_endpoints_that_do_not_fit(self):
        frag, action = displacement_fragment_and_action([(1, 0)])
        with pytest.raises(SpaceMismatchError, match=re.escape(
                "equivariance state 'D10': the state must start at the unit space")):
            check_equivariance(frag, action, ["D10"], ["D10"])
        with pytest.raises(SpaceMismatchError, match=re.escape(
                "equivariance ('rho0', 'rho1'): the channel must act on the state's space")):
            check_equivariance(frag, {"rho1": [0]}, ["rho0"], ["rho1"])

"""Model validation, epistemic classification, functor-fragment checks."""

import numpy as np
import pytest

from ontokit.antidist import AntidistProblem, antidist_classical
from ontokit.errors import (
    DimMismatchError,
    MissingActionError,
    MissingMorphismError,
    SpaceMismatchError,
)
from ontokit.kernels import (
    Distribution,
    FiniteSpace,
    ResponseFunction,
    SignedKernel,
    support_mask,
    variational_distance,
)
from ontokit.ontomodel import (
    ActionTable,
    Classification,
    FunctorFragment,
    MaximalPredicates,
    ModelValidation,
    OntModel,
    check_equivariance,
    check_operational_model,
    classify_model,
    dirac_restriction_model,
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
ZBASIS = ProjectiveMeasurement.computational(2)


def qubit_catalog(rng, size):
    return [(f"s{i}", random_ket(rng, 2)) for i in range(size)]


def overlapping_epistemic_model():
    """Three ontic points; Z-measurement reproduced with overlapping
    distributions for |0> and |+>."""
    ontic = FiniteSpace(("a", "b", "c"))
    states = (("zero", Z0), ("plus", PLUS))
    distributions = {
        "zero": Distribution(ontic, [0.5, 0.5, 0.0]),
        "plus": Distribution(ontic, [0.5, 0.0, 0.5]),
    }
    responses = (
        ResponseFunction(ontic, [1.0, 1.0, 0.0]),
        ResponseFunction(ontic, [0.0, 0.0, 1.0]),
    )
    return OntModel(ontic, states, distributions, ((ZBASIS, responses),))


class TestValidateModel:
    def test_dirac_restriction_validates_cleanly(self):
        rng = rng_for(101)
        model = dirac_restriction_model(qubit_catalog(rng, 6), [ZBASIS])
        report = validate_model(model, tol=1e-10)
        assert report.clean

    def test_sum_rule_violation_reported(self):
        ontic = FiniteSpace(("a", "b"))
        states = (("zero", Z0),)
        distributions = {"zero": Distribution(ontic, [1.0, 0.0])}
        responses = (
            ResponseFunction(ontic, [1.0, 0.4]),
            ResponseFunction(ontic, [0.0, 0.5]),  # sums to 0.9 at b
        )
        model = OntModel(ontic, states, distributions, ((ZBASIS, responses),))
        report = validate_model(model)
        assert any(v["point"] == "b" for v in report.sum_rule_violations)

    def test_perturbed_distribution_detected(self):
        rng = rng_for(102)
        catalog = qubit_catalog(rng, 4)
        model = dirac_restriction_model(catalog, [ZBASIS])
        # shift one weight by 1e-3 between two points
        label = catalog[0][0]
        w = model.distributions[label].weights.copy()
        w[0] -= 1e-3
        w[1] += 1e-3
        broken = OntModel(
            model.ontic,
            model.states,
            {**model.distributions, label: Distribution(model.ontic, w)},
            model.measurements,
        )
        report = validate_model(broken, tol=1e-7)
        # direct-summation oracle: the reproduced Born value moves by
        # 1e-3 * (xi(p1) - xi(p0)) for every outcome; confirm at least one
        # triple for the perturbed state is flagged
        assert any(v["state"] == label for v in report.born_violations)
        m, responses = model.measurements[0]
        rho = DensityMatrix.from_ket(dict(catalog)[label])
        for v in report.born_violations:
            k = v["outcome"]
            reproduced = float(responses[k].values @ w)
            assert abs(v["reproduced"] - reproduced) < 1e-12

    def test_validation_report_is_clean_for_hand_model(self):
        assert validate_model(overlapping_epistemic_model(), tol=1e-12).clean


class TestClassify:
    def test_dirac_model_is_ontic(self):
        model = dirac_restriction_model([("zero", Z0), ("plus", PLUS)], [ZBASIS])
        assert classify_model(model).kind == "ontic"

    def test_overlapping_model_is_epistemic_with_witness(self):
        verdict = classify_model(overlapping_epistemic_model())
        assert verdict.kind == "epistemic"
        assert verdict.witness == ("zero", "plus")
        assert abs(verdict.witness_distance - 0.5) < 1e-12

    def test_orthogonal_catalog_is_ontic(self):
        ontic = FiniteSpace(("a",))
        states = (("zero", Z0), ("one", Z1))
        distributions = {
            "zero": Distribution(ontic, [1.0]),
            "one": Distribution(ontic, [1.0]),
        }
        model = OntModel(ontic, states, distributions, ())
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
        model = dirac_restriction_model([("zero", Z0), ("one", Z1)], [ZBASIS])
        # direct evaluation over the 4 ordered pairs: cross pairs give 0 on
        # both sides, diagonal pairs give 1 on both sides
        result = maximal_predicates(model)
        assert result.maximally_epistemic
        assert result.maximally_nontrivial

    def test_dirac_on_overlapping_pair_fails_epistemic(self):
        model = dirac_restriction_model([("zero", Z0), ("plus", PLUS)], [ZBASIS])
        result = maximal_predicates(model)
        # mu_zero(supp mu_plus) = 0 but |<plus|zero>|^2 = 1/2
        assert not result.maximally_epistemic
        assert not result.maximally_nontrivial

    def test_uniform_model_fails_epistemic(self):
        ontic = FiniteSpace(("a", "b"))
        states = (("zero", Z0), ("plus", PLUS))
        uniform = Distribution(ontic, [0.5, 0.5])
        model = OntModel(
            ontic, states, {"zero": uniform, "plus": uniform}, ()
        )
        result = maximal_predicates(model)
        # mu_zero(supp mu_plus) = 1 while the Born overlap is 1/2
        assert not result.maximally_epistemic
        assert result.nontrivial_violations == []

    def test_single_state_catalog(self):
        model = dirac_restriction_model([("zero", Z0)], [ZBASIS])
        result = maximal_predicates(model)
        assert result.maximally_epistemic and result.maximally_nontrivial

    def test_maximal_epistemic_implies_epistemic_when_overlapping(self):
        # a model that *is* maximally epistemic on a nonorthogonal pair:
        # shared mass c = |<plus|zero>|^2 at one point, the rest disjoint
        c = 0.5
        ontic = FiniteSpace(("shared", "only_zero", "only_plus"))
        model = OntModel(
            ontic,
            (("zero", Z0), ("plus", PLUS)),
            {
                "zero": Distribution(ontic, [c, 1 - c, 0.0]),
                "plus": Distribution(ontic, [c, 0.0, 1 - c]),
            },
            (),
        )
        preds = maximal_predicates(model)
        assert preds.maximally_epistemic and preds.maximally_nontrivial
        assert classify_model(model).kind == "epistemic"


# ---------------------------------------------------------------------------
# loop oracles: the validators written one pair (or one outcome) at a time
# ---------------------------------------------------------------------------

def validate_oracle(model, tol=1e-7):
    """Per-(state, measurement, outcome) replay by direct summation."""
    report = ModelValidation(tolerance=tol)
    for mi, (m, responses) in enumerate(model.measurements):
        totals = np.sum([xi.values for xi in responses], axis=0)
        for li, lam in enumerate(model.ontic.points):
            if abs(totals[li] - 1.0) > tol:
                report.sum_rule_violations.append(
                    {"measurement": mi, "point": lam, "total": float(totals[li])}
                )
        for label, ket in model.states:
            mu = model.distributions[label]
            rho = DensityMatrix.from_ket(ket)
            for k in range(m.n_outcomes):
                reproduced = float(responses[k].values @ mu.weights)
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
    for i, (la, ka) in enumerate(model.states):
        for lb, kb in model.states[i + 1:]:
            ov = abs(overlap(ka, kb))
            if not (STRICT_MARGIN < ov < 1.0 - STRICT_MARGIN):
                continue
            d = variational_distance(model.distributions[la], model.distributions[lb])
            if d < 1.0 - STRICT_MARGIN:
                return Classification(
                    kind="epistemic", witness=(la, lb),
                    witness_overlap=float(ov), witness_distance=float(d),
                )
    return Classification(kind="ontic")


def predicates_oracle(model, tol=1e-7):
    """mu_psi(supp mu_phi) against |<phi|psi>|^2, one ordered pair at a time."""
    me, mn = [], []
    for la, ka in model.states:
        mu_a = model.distributions[la]
        for lb, kb in model.states:
            mass = float(mu_a.weights[support_mask(model.distributions[lb])].sum())
            ov_sq = float(abs(overlap(kb, ka)) ** 2)
            if abs(mass - ov_sq) > tol:
                me.append({"psi": la, "phi": lb, "support_mass": mass, "born": ov_sq})
            if (ov_sq <= tol) != (mass <= tol):
                mn.append({"psi": la, "phi": lb, "support_mass": mass, "born": ov_sq})
    return MaximalPredicates(not me, not mn, me, mn)


def assert_same(got, want, path="report"):
    """Equal structure, keys, order and verdicts; floats within 1e-15."""
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
    return dirac_restriction_model(catalog, random_bases(rng, dim, bases))


def with_distributions(model, weights):
    """The same catalogue and measurements with some distributions replaced."""
    dists = {**model.distributions}
    dists.update({lab: Distribution(model.ontic, w) for lab, w in weights.items()})
    return OntModel(model.ontic, model.states, dists, model.measurements)


def free_model(rng, kets, weights, bases, spread=0.0):
    """Catalogue ``kets`` with ontic ``weights`` (states x ontic) and random
    responses; ``spread`` moves each response column off the sum rule."""
    ontic = FiniteSpace(tuple(f"x{j}" for j in range(weights.shape[1])))
    states = tuple((f"s{i}", k) for i, k in enumerate(kets))
    dists = {lab: Distribution(ontic, w) for (lab, _), w in zip(states, weights)}
    measurements = []
    for m in random_bases(rng, len(kets[0]), bases):
        r = rng.uniform(0, 1, (m.n_outcomes, ontic.size))
        r = r / r.sum(axis=0) * (1 - spread * rng.uniform(0, 1, ontic.size))
        measurements.append((m, tuple(ResponseFunction(ontic, row) for row in r)))
    return OntModel(ontic, states, dists, tuple(measurements))


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
        model = dirac_restriction_model(catalog, random_bases(rng, 3, 2))
        assert_matches_oracles(model)
        assert ("a", "a_again") in [
            (v["psi"], v["phi"]) for v in maximal_predicates(model).epistemic_violations
        ]

    def test_orthogonal_catalogue(self):
        rng = rng_for(607)
        u = random_unitary(rng, 4)
        catalog = [(f"e{i}", u[:, i]) for i in range(4)]
        model = dirac_restriction_model(catalog, random_bases(rng, 4, 3))
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
                kind="epistemic", witness=(model.states[i][0], model.states[j][0]),
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
    rows = np.concatenate([[xi.values for xi in rs] for _, rs in model.measurements])
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
        assert all(mu.is_probability for mu in model.distributions.values())
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


class TestModelChecksInCatalogueOrder:
    """The stacked checks raise for the first state that fails, with the
    message and type of the check that fails first on it."""

    ONTIC = FiniteSpace(("a", "b"))

    def dist(self, fault):
        if fault == "missing":
            return None
        space = FiniteSpace(("c", "d")) if fault == "offspace" else self.ONTIC
        return Distribution(space, [1.5, -0.5] if fault == "signed" else [0.5, 0.5])

    @pytest.mark.parametrize("faults,exc,message", [
        (("signed", "missing"), ValueError, "distribution for 's0' is signed"),
        (("missing", "signed"), ValueError, "state 's0' has no distribution"),
        (("ok", "offspace", "signed"), SpaceMismatchError, "distribution for 's1' lives off"),
        (("ok", "signed", "offspace"), ValueError, "distribution for 's1' is signed"),
        (("ok", "ok", "missing"), ValueError, "state 's2' has no distribution"),
    ])
    def test_distribution_faults(self, faults, exc, message):
        states = tuple((f"s{i}", Z0) for i in range(len(faults)))
        dists = {lab: self.dist(f) for (lab, _), f in zip(states, faults) if f != "missing"}
        with pytest.raises(exc, match=message):
            OntModel(self.ONTIC, states, dists, ())

    @pytest.mark.parametrize("kets,exc,message", [
        ([Z0, 1.1 * Z0, np.array([np.nan, 0])], ValueError, "ket norm np.float64\\(1.1"),
        ([Z0, np.array([np.inf, 0]), 1.1 * Z0], ValueError, "NaN or Inf"),
        ([Z0, np.array([1, 0, 0]), 1.1 * Z0], ValueError, "ket norm np.float64\\(1.1"),
        ([Z0, np.array([1, 0, 0]), Z1], DimMismatchError, "'s1' has dimension 3"),
        ([np.zeros(0), np.zeros(0)], DimMismatchError, "at least one amplitude"),
    ])
    def test_ket_faults(self, kets, exc, message):
        states = tuple((f"s{i}", k) for i, k in enumerate(kets))
        dists = {lab: Distribution(self.ONTIC, [0.5, 0.5]) for lab, _ in states}
        with pytest.raises(exc, match=message):
            OntModel(self.ONTIC, states, dists, ())


class TestModelDimensions:
    def test_mixed_state_dimensions_without_measurements(self):
        ontic = FiniteSpace(("a", "b"))
        states = (("zero", Z0), ("qutrit", np.array([1, 0, 0], dtype=complex)))
        dists = {"zero": Distribution(ontic, [1.0, 0.0]), "qutrit": Distribution(ontic, [0.0, 1.0])}
        with pytest.raises(DimMismatchError, match="'qutrit'"):
            OntModel(ontic, states, dists, ())

    def test_mixed_state_dimensions_with_measurements(self):
        rng = rng_for(609)
        catalog = [("zero", Z0), ("qutrit", random_ket(rng, 3))]
        with pytest.raises(DimMismatchError, match="'qutrit'"):
            dirac_restriction_model(catalog, [ZBASIS])

    def test_qubit_states_with_a_qutrit_basis(self):
        ontic = FiniteSpace(("a",))
        responses = tuple(ResponseFunction(ontic, [v]) for v in (1.0, 0.0, 0.0))
        with pytest.raises(DimMismatchError, match="measurement 1"):
            OntModel(
                ontic, (("zero", Z0),), {"zero": Distribution(ontic, [1.0])},
                ((ZBASIS, responses[:2]), (ProjectiveMeasurement.computational(3), responses)),
            )

    def test_stacked_arrays(self):
        model = overlapping_epistemic_model()
        assert model.kets.shape == (2, 2) and model.weights.shape == (2, 3)
        point = FiniteSpace(("a",))
        responses = (ResponseFunction(point, [1.0]), ResponseFunction(point, [0.0]))
        empty = OntModel(point, (), {}, ((ZBASIS, responses),))
        assert empty.kets.shape == (0, 2) and empty.weights.shape == (0, 1)
        assert validate_model(empty).clean and classify_model(empty).kind == "ontic"


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
                "state": functor_morphism(prep, in_algebra=commutative_algebra(1)),
                "meas": functor_morphism(meas, out_algebra=commutative_algebra(2)),
            },
        )
        report = check_operational_model(frag, evaluation_tests=[("meas", "state")])
        assert report.clean

    def test_missing_morphism(self):
        frag = FunctorFragment(
            channels={"id": Channel.identity(3)},
            kernels={"id": functor_morphism(Channel.identity(3))},
        )
        with pytest.raises(MissingMorphismError):
            check_operational_model(frag, composition_tests=[("id", "id", "nope")])


def displacement_fragment_and_action(shifts):
    """Fragment of displacement channels and a few states, plus the induced
    phase-point action (the inverse shift, so the equivariance equation
    F(f.psi)(U) = F(psi)(f.U) holds pointwise)."""
    rng = rng_for(107)
    space = phase_space(3)
    channels = {}
    kernels = {}
    actions = {}
    for (a, b) in shifts:
        name = f"D{a}{b}"
        ch = displacement_channel(3, a, b)
        channels[name] = ch
        kernels[name] = functor_morphism(ch)
        perm = displacement_permutation(3, a, b)
        inverse = {perm[i]: i for i in range(9)}
        actions[name] = {
            space.points[i]: (space.points[inverse[i]],) for i in range(9)
        }
    for i in range(2):
        rho = random_density(rng, 3)
        prep = preparation_channel(rho)
        channels[f"rho{i}"] = prep
        kernels[f"rho{i}"] = functor_morphism(prep, in_algebra=commutative_algebra(1))
    return (
        FunctorFragment(channels=channels, kernels=kernels),
        ActionTable(actions),
    )


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
        table = {k: dict(v) for k, v in action.actions.items()}
        pts = list(table["D10"].keys())
        table["D10"][pts[0]], table["D10"][pts[1]] = (
            table["D10"][pts[1]],
            table["D10"][pts[0]],
        )
        report = check_equivariance(frag, ActionTable(table), ["rho0"], ["D10"])
        assert not report.clean

    def test_missing_action(self):
        frag, action = displacement_fragment_and_action([(1, 0)])
        table = {"D10": dict(list(action.actions["D10"].items())[:5])}
        with pytest.raises(MissingActionError):
            check_equivariance(frag, ActionTable(table), ["rho0"], ["D10"])

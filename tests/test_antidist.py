"""Anti-distinguishability decisions, compression channel, PBR pipeline."""

import hashlib
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ontokit import linalg
from ontokit.antidist import (
    AntidistCertificate,
    AntidistProblem,
    _antidist_partition,
    antidist_classical,
    antidist_quantum_check,
    compression_channel,
    pbr_demo,
    pbr_measurement,
    smallest_compression_power,
)
from ontokit.errors import BadOverlapError, DimMismatchError, VerificationFailedError
from ontokit.kernels import (
    Distribution,
    FiniteSpace,
    ResponseFunction,
    dtensor,
    support_mask,
    variational_distance,
)
from ontokit.quantum import Channel, DensityMatrix, apply_channel, born, overlap
from ontokit.sampling import random_ket, random_nonorthogonal_pair, rng_for
from ontokit.serialize import dumps_report
from ontokit.tolerances import (
    DEGENERATE_DRAW_EPS, FEAS_TOL, NEVER_FIRES_TOL, PBR_TOL, SUPPORT_EPS,
)
from ontokit.wigner import phase_point_operators, wigner_vector

S2 = FiniteSpace(("x0", "x1"))
S3 = FiniteSpace(("x0", "x1", "x2"))
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def decide_each(ensemble):
    """The decision for every member; the family is anti-distinguishable iff
    none is None."""
    ensemble = tuple(ensemble)
    return [antidist_classical(AntidistProblem(ensemble, i)) for i in range(len(ensemble))]


def partition_oracle(ensemble):
    """The partition form point by point: each point goes to the first
    member whose support misses it; None when every support holds a point."""
    masks = [support_mask(d) for d in ensemble]
    responses = np.zeros((len(ensemble), ensemble[0].space.size))
    for lam in range(ensemble[0].space.size):
        avoiding = [k for k, m in enumerate(masks) if not m[lam]]
        if not avoiding:
            return None
        responses[avoiding[0], lam] = 1.0
    return responses


def random_orthogonal_pair(rng, dim):
    """Haar ket plus a Haar direction of its orthocomplement."""
    psi = random_ket(rng, dim)
    raw = random_ket(rng, dim)
    perp = raw - np.vdot(psi, raw) * psi
    while np.linalg.norm(perp) < DEGENERATE_DRAW_EPS:
        raw = random_ket(rng, dim)
        perp = raw - np.vdot(psi, raw) * psi
    return psi, perp / np.linalg.norm(perp)


def scipy_feasible(a, b):
    """Independent LP oracle for {chi in [0,1]^k : chi.a = 0, chi.b = 1}."""
    res = linprog(
        np.zeros(a.size),
        A_eq=np.vstack([a, b]),
        b_eq=np.array([0.0, 1.0]),
        bounds=[(0.0, 1.0)] * a.size,
        method="highs",
    )
    return res.status == 0


def support_oracle(a, b):
    """Support argument for probability ensembles: chi must vanish on
    supp(target), so the best it can collect from the rest is the
    complement mass; feasible iff that reaches 1."""
    free = a <= SUPPORT_EPS
    capacity = float(b[free].sum())
    if capacity < 1.0 - FEAS_TOL:
        return None
    chi = np.zeros_like(a)
    chi[free] = min(1.0, 1.0 / capacity)
    return chi


def bit_patterns(m):
    if m == 0:
        return np.zeros((1, 0))
    return ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1).astype(float)


def vertex_oracle(a, b):
    """Exhaustive vertex enumeration of {chi in [0,1]^k : chi.a = 0, chi.b = 1}.

    Any vertex has at most two coordinates strictly between the bounds, and
    when exactly two are fractional their 2x2 constraint block is
    nonsingular, so enumerating every bound pattern for 0, 1 and 2 free
    coordinates is complete.  O(k^2 2^k): keep k <= 12.
    """
    k = a.size

    def feasible(chi):
        return abs(chi @ a) <= FEAS_TOL and abs(chi @ b - 1.0) <= FEAS_TOL

    pats = bit_patterns(k)
    hits = np.flatnonzero(
        (np.abs(pats @ a) <= FEAS_TOL) & (np.abs(pats @ b - 1.0) <= FEAS_TOL)
    )
    if hits.size:
        return pats[hits[0]].copy()

    pats = bit_patterns(k - 1)
    for i in range(k):
        rest = np.array([j for j in range(k) if j != i], dtype=int)
        sa = pats @ a[rest]
        sb = pats @ b[rest]
        for coef, target_vec in ((a[i], -sa), (b[i], 1.0 - sb)):
            if abs(coef) < 1e-13:
                continue
            x = target_vec / coef
            for idx in np.flatnonzero((x >= -FEAS_TOL) & (x <= 1.0 + FEAS_TOL)):
                chi = np.zeros(k)
                chi[rest] = pats[idx]
                chi[i] = min(max(x[idx], 0.0), 1.0)
                if feasible(chi):
                    return chi

    if k < 2:
        return None
    pats = bit_patterns(k - 2)
    for i, j in combinations(range(k), 2):
        det = a[i] * b[j] - a[j] * b[i]
        if abs(det) < 1e-13:
            continue
        rest = np.array([t for t in range(k) if t not in (i, j)], dtype=int)
        rhs0 = -(pats @ a[rest])
        rhs1 = 1.0 - (pats @ b[rest])
        x = (b[j] * rhs0 - a[j] * rhs1) / det
        y = (-b[i] * rhs0 + a[i] * rhs1) / det
        ok = (
            (x >= -FEAS_TOL) & (x <= 1.0 + FEAS_TOL)
            & (y >= -FEAS_TOL) & (y <= 1.0 + FEAS_TOL)
        )
        for idx in np.flatnonzero(ok):
            chi = np.zeros(k)
            chi[rest] = pats[idx]
            chi[i] = min(max(x[idx], 0.0), 1.0)
            chi[j] = min(max(y[idx], 0.0), 1.0)
            if feasible(chi):
                return chi
    return None


def target_and_rest(members, target):
    a = members[target].weights
    b = np.zeros_like(a)
    for i, m in enumerate(members):
        if i != target:
            b = b + m.weights
    return a, b


def cli_report(space, target, cert):
    """The `ontokit antidist` report for a certificate (None for REFUTED)."""
    report = {
        "command": "antidist",
        "points": list(space.points),
        "target": target,
        "result": "certified" if cert is not None else "REFUTED",
    }
    if cert is not None:
        report["response"] = [float(x) for x in cert.response.values]
        report["residuals"] = {
            "target_weight": cert.residuals[0],
            "rest_weight": cert.residuals[1],
        }
    return dumps_report(report)


def assert_report_matches_support_oracle(members, target):
    space = members[0].space
    a, b = target_and_rest(members, target)
    cert = antidist_classical(AntidistProblem(members, target))
    chi = support_oracle(a, b)
    want = None if chi is None else AntidistCertificate(
        ResponseFunction(space, chi), (float(chi @ a), float(chi @ b))
    )
    assert cli_report(space, target, cert) == cli_report(space, target, want)
    return cert


def random_probability_ensemble(rng, k, members):
    while True:
        w = rng.uniform(0.05, 1.0, (members, k)) * (rng.random((members, k)) < 0.6)
        if (w.sum(axis=1) > 0).all():
            return w / w.sum(axis=1, keepdims=True)


def point_mass(space, label):
    """The distribution with all its weight at ``label``."""
    return Distribution(space, np.eye(space.size)[space.points.index(label)])


def wig3(ket):
    return wigner_vector(DensityMatrix.from_ket(ket), phase_point_operators(3))


class TestClassicalDecision:
    def test_disjoint_point_masses_certified(self):
        prob = AntidistProblem((point_mass(S2, "x0"), point_mass(S2, "x1")), 0)
        cert = antidist_classical(prob)
        assert cert is not None
        # indicator of the complement of supp(target)
        assert np.allclose(cert.response.values, [0.0, 1.0])

    def test_overlapping_pair_refuted(self):
        mu = Distribution(S3, [0.5, 0.5, 0.0])
        nu = Distribution(S3, [0.0, 0.5, 0.5])
        prob = AntidistProblem((mu, nu), 0)
        assert antidist_classical(prob) is None
        # the vertex-enumeration and support oracles agree
        assert vertex_oracle(mu.weights, nu.weights) is None
        assert support_oracle(mu.weights, nu.weights) is None

    def test_signed_wigner_pair_refuted(self):
        v0 = wig3(np.array([1, 0, 0], dtype=complex))
        v01 = wig3(np.array([1, 1, 0], dtype=complex) / np.sqrt(2))
        prob = AntidistProblem((v0, v01), 0)
        assert antidist_classical(prob) is None
        assert antidist_classical(AntidistProblem((v0, v01), 1)) is None

    def test_support_and_vertex_paths_agree_exhaustively(self):
        """Cross-check on exhaustive small rational instances: the decision,
        both oracles and the disjoint-support criterion agree, and the
        report is byte-identical to the support argument's."""
        quarters = [
            np.array([i, j, 4 - i - j]) / 4.0
            for i in range(5)
            for j in range(5 - i)
        ]
        space = S3
        for wa in quarters:
            for wb in quarters:
                members = (Distribution(space, wa), Distribution(space, wb))
                cert = assert_report_matches_support_oracle(members, 0)
                assert (cert is None) == (vertex_oracle(wa, wb) is None)
                disjoint = not np.any((wa > 0) & (wb > 0))
                assert (cert is not None) == disjoint

    def test_probability_reports_match_support_oracle(self):
        rng = rng_for(78)
        verdicts = set()
        for _ in range(300):
            k = int(rng.integers(1, 40))
            space = FiniteSpace(tuple(f"x{i}" for i in range(k)))
            w = random_probability_ensemble(rng, k, int(rng.integers(1, 6)))
            members = tuple(Distribution(space, row) for row in w)
            target = int(rng.integers(len(members)))
            cert = assert_report_matches_support_oracle(members, target)
            verdicts.add(cert is None)
        assert verdicts == {True, False}

    def test_target_weights_at_support_threshold(self):
        """Weights SUPPORT_EPS * (1 - 1/2) are read as zero, weights
        SUPPORT_EPS * (1 + 1/2) as support, for every ensemble."""
        rng = rng_for(79)
        for scale, certified in ((0.5, True), (1.5, False)):
            tiny = scale * SUPPORT_EPS
            mu = Distribution(S3, [1.0 - tiny, tiny, 0.0])
            nu = point_mass(S3, "x1")
            cert = assert_report_matches_support_oracle((mu, nu), 0)
            assert (cert is not None) == certified
            for _ in range(40):
                k = int(rng.integers(2, 12))
                space = FiniteSpace(tuple(f"x{i}" for i in range(k)))
                w = random_probability_ensemble(rng, k, int(rng.integers(2, 5)))
                target = int(rng.integers(w.shape[0]))
                w[target][w[target] == 0.0] = tiny
                w[target] /= w[target].sum()
                members = tuple(Distribution(space, row) for row in w)
                assert_report_matches_support_oracle(members, target)
        # a signed target with a tiny entry: a tiny positive weight is paid
        # for by the negative one, so both readings are certified exactly
        for scale in (0.5, 1.5):
            tiny = scale * SUPPORT_EPS
            mu = Distribution(S3, [1.2 - tiny, -0.2, tiny])
            nu = point_mass(S3, "x2")
            cert = antidist_classical(AntidistProblem((mu, nu), 0))
            assert cert is not None
            assert vertex_oracle(mu.weights, nu.weights) is not None
            assert scipy_feasible(mu.weights, nu.weights)

    def test_negative_rest_weight_off_target_support_is_skipped(self):
        """Where the target weighs 0 the response is free, so it must skip
        points where the rest is negative to collect weight 1."""
        s4 = FiniteSpace(("x0", "x1", "x2", "x3"))
        mu = point_mass(s4, "x0")
        nu = Distribution(s4, [0.2, 1.0, -0.2, 0.0])
        cert = antidist_classical(AntidistProblem((mu, nu), 0))
        assert cert is not None
        assert cert.response.values[2] == 0.0
        assert vertex_oracle(mu.weights, nu.weights) is not None
        assert scipy_feasible(mu.weights, nu.weights)

    def test_single_point_and_single_member_refuted(self):
        one = FiniteSpace(("x0",))
        for members in range(1, 4):
            ensemble = tuple(point_mass(one, "x0") for _ in range(members))
            for target in range(members):
                assert antidist_classical(AntidistProblem(ensemble, target)) is None
        signed = Distribution(S3, [1.5, -1.0, 0.5])
        for member in (point_mass(S3, "x1"), Distribution(S3, [0.2, 0.3, 0.5]), signed):
            assert antidist_classical(AntidistProblem((member,), 0)) is None
            assert decide_each((member,)) == [None]

    def test_vertex_path_matches_scipy_on_signed_instances(self):
        rng = rng_for(71)
        frame = phase_point_operators(3)
        for _ in range(20):
            psi, phi, _ = random_nonorthogonal_pair(rng, 3, 0.1, 0.95)
            a = wigner_vector(DensityMatrix.from_ket(psi), frame)
            b = wigner_vector(DensityMatrix.from_ket(phi), frame)
            got = antidist_classical(AntidistProblem((a, b), 0))
            want = scipy_feasible(a.weights, b.weights)
            assert (got is not None) == want
            assert (vertex_oracle(a.weights, b.weights) is not None) == want
        # signed ensembles over exactly two points, two to four members
        verdicts = set()
        for _ in range(40):
            first = rng.uniform(-1.0, 2.0, int(rng.integers(2, 5)))
            members = tuple(Distribution(S2, [w, 1.0 - w]) for w in first)
            if all(m.is_probability for m in members):
                continue
            target = int(rng.integers(len(members)))
            a, b = target_and_rest(members, target)
            got = antidist_classical(AntidistProblem(members, target))
            want = scipy_feasible(a, b)
            assert (got is not None) == want
            verdicts.add(want)
        assert verdicts == {True, False}
        # random signed ensembles on k = 1..12 points against both oracles
        for k in range(1, 13):
            space = FiniteSpace(tuple(f"x{i}" for i in range(k)))
            verdicts = set()
            for trial in range(12):
                n_members = int(rng.integers(1, 5))
                p = rng.dirichlet(np.ones(k), n_members)
                z = rng.normal(size=(n_members, k))
                spread = (0.02 if trial % 2 else 1.0) / k
                w = p + spread * (z - z.mean(axis=1, keepdims=True))
                members = tuple(Distribution(space, row) for row in w)
                target = int(rng.integers(n_members))
                a, b = target_and_rest(members, target)
                cert = antidist_classical(AntidistProblem(members, target))
                want = scipy_feasible(a, b)
                assert (cert is not None) == want
                assert (vertex_oracle(a, b) is not None) == want
                if cert is not None:
                    r0, r1 = cert.residuals
                    assert abs(r0) <= 1e-7 and abs(r1 - 1.0) <= 1e-7
                verdicts.add(want)
            if k >= 3:
                assert verdicts == {True, False}

    def test_certificate_residuals_within_tolerance(self):
        rng = rng_for(72)
        hits = 0
        for _ in range(50):
            w = rng.uniform(0, 1, 3)
            mask = rng.random(3) < 0.5
            w[mask] = 0.0
            if w.sum() == 0:
                continue
            mu = Distribution(S3, w / w.sum())
            w2 = rng.uniform(0, 1, 3)
            mask2 = rng.random(3) < 0.5
            w2[mask2] = 0.0
            if w2.sum() == 0:
                continue
            nu = Distribution(S3, w2 / w2.sum())
            cert = antidist_classical(AntidistProblem((mu, nu), 0))
            if cert is not None:
                hits += 1
                r0, r1 = cert.residuals
                assert abs(r0) <= 1e-7 and abs(r1 - 1.0) <= 1e-7
        assert hits > 0

    def test_three_member_family(self):
        """Definition applied verbatim when |ensemble| > 2: weights mix."""
        mu = point_mass(S3, "x0")
        nu = Distribution(S3, [0.0, 0.5, 0.5])
        rho = Distribution(S3, [0.0, 0.5, 0.5])
        cert = antidist_classical(AntidistProblem((mu, nu, rho), 0))
        assert cert is not None
        r0, r1 = cert.residuals
        assert abs(r0) <= 1e-7 and abs(r1 - 1.0) <= 1e-7


def decision_corpus():
    """Seeded decision problems: probability and signed ensembles of 1-5
    members on 1-40 points.  Every third one has dyadic weights j/8, whose
    ratios b_i/a_i tie exactly, and its zero weights are read as 0.0, -0.0,
    +SUPPORT_EPS or -SUPPORT_EPS."""
    rng = rng_for(80)
    for i in range(3300):
        k = int(rng.integers(1, 41))
        m = int(rng.integers(1, 6))
        if i % 3 == 0:
            w = random_probability_ensemble(rng, k, m)
        elif i % 3 == 1:
            p = rng.dirichlet(np.ones(k), m)
            z = rng.normal(size=(m, k))
            w = p + (0.02 if i % 2 else 1.0) / k * (z - z.mean(axis=1, keepdims=True))
        else:
            ints = rng.integers(-2, 5, (m, k))
            ints[:, 0] += 8 - ints.sum(axis=1)
            w = ints / 8.0
            edge = np.array([0.0, -0.0, SUPPORT_EPS, -SUPPORT_EPS])
            zeros = w == 0.0
            w[zeros] = edge[rng.integers(4, size=int(zeros.sum()))]
        space = FiniteSpace(tuple(f"x{j}" for j in range(k)))
        yield tuple(Distribution(space, row) for row in w), int(rng.integers(m))


# sha256 over the per-problem sha256 of b"REFUTED", or of the certificate's
# response bytes followed by its two residuals as float64
DECISION_CORPUS_DIGEST = "840a5a96abe3c9dc292ef19ce0d9bf80b03b20d397b065400c915faab8ce88bd"


class TestDecisionCorpus:
    def test_certificates_keep_their_bits(self):
        corpus = hashlib.sha256()
        verdicts = [0, 0]
        for members, target in decision_corpus():
            cert = antidist_classical(AntidistProblem(members, target))
            if cert is None:
                record = b"REFUTED"
            else:
                record = cert.response.values.tobytes() + np.array(cert.residuals).tobytes()
            corpus.update(hashlib.sha256(record).digest())
            verdicts[cert is None] += 1
        assert min(verdicts) > 500
        assert corpus.hexdigest() == DECISION_CORPUS_DIGEST

    def test_verdicts_match_scipy(self):
        """The greatest chi.b on {chi in [0,1]^k : chi.a = 0}, with the
        weights |a_i| <= SUPPORT_EPS read as 0, from HiGHS: the target is
        certified iff it reaches 1, outside a band the LP's own tolerance
        cannot split."""
        banded = 0
        for members, target in decision_corpus():
            a, b = target_and_rest(members, target)
            a = np.where(np.abs(a) <= SUPPORT_EPS, 0.0, a)
            res = linprog(-b, A_eq=a[None], b_eq=[0.0], bounds=[(0.0, 1.0)] * a.size,
                          method="highs")
            assert res.status == 0
            best = -res.fun
            certified = antidist_classical(AntidistProblem(members, target)) is not None
            if abs(best - 1.0) <= 1e-7:
                banded += 1
            else:
                assert certified == (best > 1.0)
        assert banded < 50


class TestPartitionForm:
    def test_partition_exists_iff_no_common_point(self):
        mu = Distribution(S3, [0.5, 0.5, 0.0])
        nu = Distribution(S3, [0.0, 0.5, 0.5])
        rho = Distribution(S3, [0.5, 0.0, 0.5])
        assert _antidist_partition((mu, nu, rho)) is not None
        # all supports share the first point: no partition can exist
        shared = (
            Distribution(S3, [0.5, 0.5, 0.0]),
            Distribution(S3, [0.5, 0.0, 0.5]),
            Distribution(S3, [0.2, 0.4, 0.4]),
        )
        assert _antidist_partition(shared) is None

    def test_partition_is_a_partition(self):
        mu = point_mass(S3, "x0")
        nu = point_mass(S3, "x1")
        parts = _antidist_partition((mu, nu))
        total = np.sum([p.values for p in parts], axis=0)
        assert np.allclose(total, 1.0)
        assert float(parts[0].values @ mu.weights) == 0.0
        assert float(parts[1].values @ nu.weights) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_argmin_matches_point_loop(self, seed):
        rng = rng_for(seed, 77)
        for _ in range(50):
            space = FiniteSpace(tuple(f"x{i}" for i in range(int(rng.integers(1, 9)))))
            family = []
            for _ in range(int(rng.integers(1, 5))):
                w = rng.uniform(size=space.size) * (rng.random(space.size) < 0.6)
                w[int(rng.integers(space.size))] += 0.1
                family.append(Distribution(space, w / w.sum()))
            expected = partition_oracle(family)
            got = _antidist_partition(tuple(family))
            if expected is None:
                assert got is None
            else:
                assert np.array_equal(np.array([r.values for r in got]), expected)


class TestLemma44Verbatim:
    """The literal member-wise reading of the four-family implication fails.

    With phi = (1/2, 1/2, 0) and psi = (1/5, 0, 4/5), every member of
    {phi x phi, phi x psi, psi x phi, psi x psi} is anti-distinguishable in
    the ensemble sense, yet the base pair overlaps at the first point and
    is not.  The partition form (one measurement whose k-th outcome never
    fires on the k-th member) repairs the implication, and is what the
    product-state argument actually uses.
    """

    PHI = np.array([0.5, 0.5, 0.0])
    PSI = np.array([0.2, 0.0, 0.8])

    def _family(self):
        phi = Distribution(S3, self.PHI)
        psi = Distribution(S3, self.PSI)
        return (
            dtensor(phi, phi), dtensor(phi, psi), dtensor(psi, phi), dtensor(psi, psi),
        ), phi, psi

    def test_counterexample_family_certified_memberwise(self):
        family, _, _ = self._family()
        results = decide_each(family)
        assert all(cert is not None for cert in results)

    def test_counterexample_base_pair_refuted(self):
        _, phi, psi = self._family()
        assert antidist_classical(AntidistProblem((phi, psi), 0)) is None

    def test_partition_form_refutes_the_family(self):
        family, _, _ = self._family()
        assert _antidist_partition(family) is None


class TestResponseBoxBoundary:
    """Behaviour of the [0,1]-response decision at the geometry's edges.

    With responses confined to [0,1], anti-distinguishability of Wigner
    images is *not* monotone in quantum distinguishability: some Haar-random
    orthogonal pairs admit no certificate, while some barely-overlapping
    pairs do.  Certificates disappear empirically once the overlap modulus
    clears roughly one half; stabilizer-frame pairs (nonnegative images
    with disjoint supports) are always certified.  These tests pin the
    phenomenon so a change in the decision procedure surfaces it.
    """

    def _decide(self, psi, phi):
        frame = phase_point_operators(3)
        a = wigner_vector(DensityMatrix.from_ket(psi), frame)
        b = wigner_vector(DensityMatrix.from_ket(phi), frame)
        return antidist_classical(AntidistProblem((a, b), 0))

    def test_haar_orthogonal_pairs_split_both_ways(self):
        rng = rng_for(75)
        outcomes = []
        for _ in range(30):
            psi, phi = random_orthogonal_pair(rng, 3)
            outcomes.append(self._decide(psi, phi) is not None)
        assert any(outcomes) and not all(outcomes)

    def test_low_overlap_pair_can_be_certified(self):
        rng = rng_for(76)
        found = False
        for _ in range(60):
            psi, phi, _ = random_nonorthogonal_pair(rng, 3, 0.05, 0.3)
            if self._decide(psi, phi) is not None:
                found = True
                break
        assert found

    def test_moderate_overlap_always_refuted(self):
        rng = rng_for(77)
        for _ in range(30):
            psi, phi, _ = random_nonorthogonal_pair(rng, 3, 0.55, 0.95)
            assert self._decide(psi, phi) is None


class TestQuantumCheck:
    def test_pbr_assignment(self):
        z0 = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) * INV_SQRT2
        states = [
            DensityMatrix.from_ket(np.kron(a, b))
            for a in (z0, plus)
            for b in (z0, plus)
        ]
        assert antidist_quantum_check(states, pbr_measurement(), [0, 1, 2, 3])

    def test_zz_basis_fails(self):
        from ontokit.quantum import ProjectiveMeasurement

        z0 = np.array([1, 0], dtype=complex)
        plus = np.array([1, 1], dtype=complex) * INV_SQRT2
        states = [
            DensityMatrix.from_ket(np.kron(a, b))
            for a in (z0, plus)
            for b in (z0, plus)
        ]
        zz = ProjectiveMeasurement(np.eye(4))
        assert not antidist_quantum_check(states, zz, [0, 1, 2, 3])

    def test_orthogonal_pair(self):
        from ontokit.quantum import ProjectiveMeasurement

        states = [DensityMatrix.from_ket([1, 0]), DensityMatrix.from_ket([0, 1])]
        z = ProjectiveMeasurement(np.eye(2))
        assert antidist_quantum_check(states, z, [1, 0])


class TestPbrMeasurement:
    def test_built_once(self):
        assert pbr_measurement() is pbr_measurement()

    def test_gram_identity(self):
        m = pbr_measurement()
        gram = m.vectors.conj() @ m.vectors.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_chi1_orthogonal_to_00(self):
        m = pbr_measurement()
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1
        assert abs(np.vdot(m.vectors[0], ket00)) < 1e-12

    def test_chi1_overlap_with_0plus(self):
        m = pbr_measurement()
        plus = np.array([1, 1], dtype=complex) * INV_SQRT2
        ket = np.kron(np.array([1, 0], dtype=complex), plus)
        assert abs(abs(np.vdot(m.vectors[0], ket)) ** 2 - 0.25) < 1e-12


def tensor_power(psi, n):
    out = psi
    for _ in range(n - 1):
        out = np.kron(out, psi)
    return out


def dense_compression_oracle(psi, phi, n):
    """The compression built on the whole d^n-dimensional space.

    The span basis u0 = e^{i arg c} psi^n, u1 ~ phi^n - |c| u0 forms the
    rows of ``w``; the two span Kraus operators act through ``w``, and a QR
    completion of (u0, u1) supplies one dump branch onto |0> per remaining
    basis vector, so ``Channel`` checks the full d^n-dimensional Kraus sum.
    """
    psi_n = tensor_power(np.asarray(psi, dtype=complex), n)
    phi_n = tensor_power(np.asarray(phi, dtype=complex), n)
    dim = psi_n.size
    c = np.vdot(psi_n, phi_n)
    gamma = abs(c)
    u0 = np.exp(1j * np.angle(c)) * psi_n
    u1 = phi_n - gamma * u0
    u1 = u1 / np.linalg.norm(u1)
    w = np.vstack([u0.conj(), u1.conj()])
    q, _ = np.linalg.qr(np.hstack([u0[:, None], u1[:, None], np.eye(dim, dtype=complex)]))
    t = min(gamma / np.sqrt(1.0 - gamma * gamma), 1.0)
    k0 = np.array([[1.0, 0.0], [0.0, t]], dtype=complex)
    k1 = np.sqrt((1.0 - t * t) / 2.0) * np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
    dump = np.array([[1.0], [0.0]], dtype=complex)
    kraus = [k0 @ w, k1 @ w] + [dump @ q[:, j].conj()[None, :] for j in range(2, dim)]
    channel = Channel(tuple(kraus))
    out_psi = apply_channel(channel, DensityMatrix.from_ket(psi_n))
    out_phi = apply_channel(channel, DensityMatrix.from_ket(phi_n))
    return {
        "channel": channel,
        "w": w,
        "psi_n": psi_n,
        "phi_n": phi_n,
        "gamma": gamma,
        "output_psi": out_psi.matrix,
        "output_phi": out_phi.matrix,
        "residual_psi": np.max(np.abs(out_psi.matrix - DensityMatrix.from_ket([1, 0]).matrix)),
        "residual_phi": np.max(np.abs(
            out_phi.matrix - DensityMatrix.from_ket([INV_SQRT2, INV_SQRT2]).matrix)),
    }


def pbr_table(out_psi, out_phi):
    """Born table of the four product states under the PBR measurement."""
    m = pbr_measurement()
    states = [DensityMatrix(np.kron(x, y)) for x in (out_psi, out_phi) for y in (out_psi, out_phi)]
    return np.array([[born(st, m, k) for k in range(4)] for st in states])


def search_power(g):
    n = 1
    while g ** n > INV_SQRT2 + 1e-12:
        n += 1
    return n


class TestCompressionChannel:
    def test_canonical_fixed_point(self):
        res = compression_channel([1, 0], [INV_SQRT2, INV_SQRT2])
        assert res.n == 1
        assert res.residual_psi < 1e-10 and res.residual_phi < 1e-10

    def test_auto_power_oracle(self):
        # smallest n with overlap^n <= 1/sqrt(2), by naive search; the sweep
        # adds a few ulp either side of every threshold overlap up to n = 400
        overlaps = [0.3, 0.7071, 0.75, 0.9, 0.95, *np.linspace(0.001, 0.999, 400)]
        for k in range(1, 401):
            for edge in (INV_SQRT2 ** (1.0 / k), (INV_SQRT2 + 1e-12) ** (1.0 / k)):
                g = edge
                for _ in range(3):
                    g = math.nextafter(g, 0.0)
                for _ in range(7):
                    overlaps.append(g)
                    g = math.nextafter(g, 1.0)
        for overlap_mod in overlaps:
            assert smallest_compression_power(overlap_mod) == search_power(overlap_mod), overlap_mod
        assert smallest_compression_power(0.9) == 4  # 0.9^4 = 0.6561 <= 0.7071 < 0.9^3

    def test_outputs_on_random_pairs(self):
        rng = rng_for(73)
        for trial in range(5):
            psi, phi, g = random_nonorthogonal_pair(rng, 2, 0.2, 0.9)
            res = compression_channel(psi, phi)
            assert g ** res.n <= INV_SQRT2 + 1e-12
            assert g ** (res.n - 1) > INV_SQRT2 or res.n == 1
            assert res.residual_psi < 1e-8 and res.residual_phi < 1e-8
            # output mutual overlap is 1/sqrt(2)
            fid = np.trace(res.output_psi.matrix @ res.output_phi.matrix).real
            assert abs(fid - 0.5) < 1e-8

    def test_selected_parametrization_reported(self):
        res = compression_channel([1, 0], [0.6, 0.8])
        assert res.parametrization == "tan_arcsin_gamma"

    def test_small_overlap_uses_exact_parametrization(self):
        res = compression_channel([1, 0], [0.01, np.sqrt(1 - 0.01 ** 2)])
        assert res.n == 1
        assert res.parametrization == "tan_arcsin_gamma"
        assert res.residual_psi < 1e-12 and res.residual_phi < 1e-12

    def test_channel_fixes_compressed_inputs(self):
        # the span channel maps the coordinate projectors exactly as claimed,
        # and the coordinates keep the tensor powers' inner product
        psi = np.array([1, 0], dtype=complex)
        phi = np.exp(0.4j) * np.array([0.8, 0.6j])
        res = compression_channel(psi, phi, n=3)
        assert res.channel.in_dim == res.channel.out_dim == 2
        assert abs(np.vdot(res.psi_span, res.phi_span) - overlap(psi, phi) ** 3) < 1e-12
        out = apply_channel(res.channel, DensityMatrix.from_ket(res.psi_span))
        assert np.max(np.abs(out.matrix - np.diag([1.0, 0.0]))) < 1e-10
        out = apply_channel(res.channel, DensityMatrix.from_ket(res.phi_span))
        assert np.max(np.abs(out.matrix - np.full((2, 2), 0.5))) < 1e-10

    @pytest.mark.parametrize("d,n_max", [(2, 7), (3, 4)])
    def test_span_matches_dense_oracle(self, d, n_max):
        # every d^n <= 128; n runs from the smallest power to n_max
        rng = rng_for(75, d)
        for trial in range(6):
            psi, phi, g = random_nonorthogonal_pair(rng, d, 0.1, INV_SQRT2 ** (1.0 / n_max))
            for n in range(smallest_compression_power(g), n_max + 1):
                res = compression_channel(psi, phi, n=n)
                dense = dense_compression_oracle(psi, phi, n)
                assert abs(res.gamma - dense["gamma"]) < 1e-12
                assert np.max(np.abs(res.output_psi.matrix - dense["output_psi"])) < 1e-12
                assert np.max(np.abs(res.output_phi.matrix - dense["output_phi"])) < 1e-12
                assert abs(res.residual_psi - dense["residual_psi"]) < 1e-12
                assert abs(res.residual_phi - dense["residual_phi"]) < 1e-12
                # the span channel is the dense one read in span coordinates; the
                # phase of psi_span = (e^{-i arg c}, 0) is ill-conditioned when c
                # is tiny, so it is checked through the inner product
                assert np.max(np.abs(dense["w"] @ dense["phi_n"] - res.phi_span)) < 1e-12
                c = np.vdot(dense["psi_n"], dense["phi_n"])
                assert abs(np.vdot(res.psi_span, res.phi_span) - c) < 1e-12
                for k_span, k_dense in zip(res.channel.kraus, dense["channel"].kraus[:2]):
                    assert np.max(np.abs(k_span @ dense["w"] - k_dense)) < 1e-12
                table = pbr_table(dense["output_psi"], dense["output_phi"])
                assert np.max(np.abs(pbr_demo(psi, phi, n=n).table - table)) < 1e-12

    def test_bad_overlap_rejected(self):
        with pytest.raises(BadOverlapError):
            compression_channel([1, 0], [0, 1])
        with pytest.raises(BadOverlapError):
            compression_channel([1, 0], [1, 0])
        with pytest.raises(BadOverlapError):
            compression_channel([1, 0], [0.9, np.sqrt(1 - 0.81)], n=1)

    def test_kets_of_different_dimensions_rejected(self):
        with pytest.raises(DimMismatchError, match="^kets have different dimensions$"):
            compression_channel([1, 0], [0.6, 0.8, 0.0])

    @pytest.mark.parametrize("n", [2.5, True, np.bool_(True), 0, -1, "2"])
    def test_n_that_is_no_positive_integer_is_refused(self, n):
        # <psi|phi> = cos 1.2, which n = 1 already compresses
        psi, phi = [1, 0], [np.cos(1.2), np.sin(1.2)]
        message = f"n must be a positive integer, got {n!r}"
        for call in (compression_channel, pbr_demo):
            with pytest.raises(VerificationFailedError, match=f"^{re.escape(message)}$"):
                call(psi, phi, n=n)
        rep = pbr_demo(psi, phi, n=np.int64(2))
        assert rep.n == 2 and rep.table.tobytes() == pbr_demo(psi, phi, n=2).table.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 3]),
       st.integers(min_value=0, max_value=3))
def test_held_outputs_are_what_the_density_gate_makes_of_them(seed, d, extra):
    """The compression outputs are held without the eigh gate: the gate, run
    on the Kraus action of the public path, gives the same bits and accepts
    them, and their spectrum, computed on first read, is the gate's."""
    psi, phi, _ = random_nonorthogonal_pair(rng_for(79, seed), d, 0.05, 0.97)
    n = smallest_compression_power(abs(overlap(psi, phi))) + extra
    res = compression_channel(psi, phi, n=n)
    k = res.channel.kraus
    for out, span in ((res.output_psi, res.psi_span), (res.output_phi, res.phi_span)):
        assert "eigensystem" not in vars(out)
        rho = DensityMatrix.from_ket(span).matrix
        gated = DensityMatrix((k @ rho @ k.conj().transpose(0, 2, 1)).sum(axis=0, initial=0))
        assert out.matrix.tobytes() == gated.matrix.tobytes()
        w, v = out.eigensystem
        oracle = linalg.hermitian_eigensystem(out.matrix)
        assert w.tobytes() == oracle[0].tobytes() == gated.eigensystem[0].tobytes()
        assert v.tobytes() == oracle[1].tobytes()


class TestPbrDemo:
    def test_no_eigendecomposition(self, monkeypatch):
        calls = []
        eig = linalg.hermitian_eigensystem
        monkeypatch.setattr(linalg, "hermitian_eigensystem", lambda a: calls.append(1) or eig(a))
        rng = rng_for(78)
        pairs = [random_nonorthogonal_pair(rng, d, 0.05, 0.97)[:2] for d in (2, 2, 3, 3)]
        for psi, phi in [([1, 0], [INV_SQRT2, INV_SQRT2]), *pairs]:
            assert pbr_demo(psi, phi).anti_distinguished
        assert calls == []

    def test_each_input_ket_is_validated_once(self, monkeypatch):
        # qutrit inputs, so that no 2-d span ket is counted with them
        psi, phi, _ = random_nonorthogonal_pair(rng_for(75), 3, 0.4, 0.8)
        sizes = []
        as_ket = linalg.as_ket
        monkeypatch.setattr(linalg, "as_ket", lambda v: sizes.append(np.size(v)) or as_ket(v))
        rep = pbr_demo(psi, phi)
        assert sizes.count(3) == 2
        assert rep.overlap == abs(complex(np.vdot(psi, phi)))

    def test_canonical_pair_table(self):
        rep = pbr_demo([1, 0], [INV_SQRT2, INV_SQRT2])
        assert rep.anti_distinguished
        assert rep.max_assigned <= 1e-9
        # Born oracle for the |0+> row: (1/4, 0, 1/2, 1/4)
        assert np.allclose(rep.table[1], [0.25, 0.0, 0.5, 0.25], atol=1e-12)
        assert np.allclose(rep.table.sum(axis=1), 1.0, atol=1e-9)

    def test_random_pair_zeros(self):
        rng = rng_for(74)
        psi, phi, _ = random_nonorthogonal_pair(rng, 2, 0.4, 0.8)
        rep = pbr_demo(psi, phi)
        assert rep.max_assigned <= 1e-8
        assert rep.anti_distinguished

    @pytest.mark.parametrize("d", [2, 3])
    def test_table_matches_per_entry_born_oracle(self, d):
        rng = rng_for(76, d)
        m = pbr_measurement()
        for _ in range(50):
            psi, phi, _ = random_nonorthogonal_pair(rng, d, 0.05, 0.95)
            rep = pbr_demo(psi, phi)
            comp = compression_channel(psi, phi)
            table = pbr_table(comp.output_psi.matrix, comp.output_phi.matrix)
            assert np.max(np.abs(rep.table - table)) <= 2.5e-16
            assert rep.assigned_probabilities == tuple(float(p) for p in np.diag(rep.table))
            states = [
                DensityMatrix(np.kron(x.matrix, y.matrix))
                for x in (comp.output_psi, comp.output_phi)
                for y in (comp.output_psi, comp.output_phi)
            ]
            worst = max(born(s, m, k) for k, s in enumerate(states))
            assert rep.anti_distinguished == (worst <= PBR_TOL)
            assert antidist_quantum_check(states, m, [0, 1, 2, 3]) == (worst <= NEVER_FIRES_TOL)

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(BadOverlapError):
            pbr_demo([1, 0], [0, 1])

    @pytest.mark.parametrize("g,n", [(0.97, 12), (0.99, 35), (0.999, 347)])
    def test_overlaps_beyond_old_dimension_cap(self, g, n):
        # qubit and qutrit pairs whose tensor powers span 2^n and 3^n dimensions
        s = np.sqrt(1.0 - g * g)
        pairs = [
            ([1, 0], [g, s]),
            ([1, 0, 0], np.exp(0.7j) * np.array([g, 0.6 * s, 0.8j * s])),
        ]
        for psi, phi in pairs:
            rep = pbr_demo(psi, phi)
            assert abs(rep.overlap - g) < 1e-12
            assert rep.n == n == search_power(rep.overlap)
            assert rep.anti_distinguished
            assert rep.max_assigned <= 1e-8


@st.composite
def distribution_pairs(draw):
    """Two distributions on 2 to 5 points, each with a random nonempty
    support and weights of at least 0.05 on it before normalisation, so
    that supports are far from the SUPPORT_EPS threshold."""
    size = draw(st.integers(min_value=2, max_value=5))
    space = FiniteSpace(tuple(f"x{i}" for i in range(size)))

    def one():
        mask = draw(st.lists(st.booleans(), min_size=size, max_size=size).filter(any))
        w = np.array([draw(st.floats(0.05, 1.0)) if m else 0.0 for m in mask])
        return Distribution(space, w / w.sum())

    return one(), one()


def pair_certified(a, b):
    return all(c is not None for c in decide_each((a, b)))


# disjoint supports: the power pairs and the product partition are certified
DISJOINT_PAIR = (Distribution(S3, [1.0, 0.0, 0.0]), Distribution(S3, [0.0, 0.5, 0.5]))
# supports meet at the first point: D < 1
OVERLAPPING_PAIR = (Distribution(S3, [0.5, 0.5, 0.0]), Distribution(S3, [0.5, 0.0, 0.5]))


class TestProductStateFacts:
    """The facts about product distributions that the PBR argument rests on."""

    @settings(max_examples=150, deadline=None)
    @given(distribution_pairs())
    @example(DISJOINT_PAIR)
    def test_certified_power_pair_has_certified_base_pair(self, pair):
        phi, psi = pair
        phi_n, psi_n = phi, psi
        for _ in (2, 3):
            phi_n, psi_n = dtensor(phi_n, phi), dtensor(psi_n, psi)
            if pair_certified(phi_n, psi_n):
                assert pair_certified(phi, psi)

    @settings(max_examples=150, deadline=None)
    @given(distribution_pairs())
    @example(DISJOINT_PAIR)
    def test_product_partition_has_certified_base_pair(self, pair):
        # one measurement whose k-th outcome never fires on the k-th member of
        # {phi phi, phi psi, psi phi, psi psi}
        phi, psi = pair
        family = tuple(dtensor(a, b) for a in (phi, psi) for b in (phi, psi))
        if _antidist_partition(family) is not None:
            assert pair_certified(phi, psi)

    @settings(max_examples=150, deadline=None)
    @given(distribution_pairs())
    @example(OVERLAPPING_PAIR)
    def test_overlap_persists_in_the_square(self, pair):
        """D(phi, psi) < 1 gives D(phi x phi, psi x psi) < 1: the overlap
        1 - D of the squares is at least the square of the overlap."""
        phi, psi = pair
        overlap_base = 1.0 - variational_distance(phi, psi)
        overlap_square = 1.0 - variational_distance(dtensor(phi, phi), dtensor(psi, psi))
        assert overlap_square >= overlap_base ** 2 - 1e-12
        if (support_mask(phi) & support_mask(psi)).any():  # exactly when D(phi, psi) < 1
            assert overlap_base > 0.0 and overlap_square > 0.0

    def test_disjoint_pair_consistent(self):
        phi, psi = DISJOINT_PAIR
        assert all(c is not None for c in decide_each((phi, psi)))
        for n in (2, 3):
            phi_n, psi_n = phi, psi
            for _ in range(n - 1):
                phi_n = dtensor(phi_n, phi)
                psi_n = dtensor(psi_n, psi)
            assert all(c is not None for c in decide_each((phi_n, psi_n)))

    def test_overlapping_pair_tensored_families_refuted(self):
        phi, psi = OVERLAPPING_PAIR
        for n in (2, 3):
            phi_n, psi_n = phi, psi
            for _ in range(n - 1):
                phi_n = dtensor(phi_n, phi)
                psi_n = dtensor(psi_n, psi)
            results = decide_each((phi_n, psi_n))
            assert all(c is None for c in results)

"""Anti-distinguishability decisions, compression channel, PBR pipeline."""

import numpy as np
import pytest
from scipy.optimize import linprog

from ontokit.antidist import (
    AntidistProblem,
    antidist_classical,
    antidist_family,
    antidist_partition,
    antidist_quantum_check,
    compression_channel,
    lemma_suite,
    pbr_demo,
    pbr_measurement,
    smallest_compression_power,
)
from ontokit.errors import BadOverlapError
from ontokit.kernels import Distribution, FiniteSpace, dtensor, point_mass
from ontokit.quantum import DensityMatrix, apply_channel, overlap
from ontokit.sampling import random_nonorthogonal_pair, rng_for
from ontokit.wigner import phase_point_operators, wigner_vector

S2 = FiniteSpace(("x0", "x1"))
S3 = FiniteSpace(("x0", "x1", "x2"))
INV_SQRT2 = 1.0 / np.sqrt(2.0)


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
        # vertex-enumeration oracle agrees
        assert antidist_classical(prob, method="vertex") is None

    def test_signed_wigner_pair_refuted(self):
        v0 = wig3(np.array([1, 0, 0], dtype=complex))
        v01 = wig3(np.array([1, 1, 0], dtype=complex) / np.sqrt(2))
        prob = AntidistProblem((v0, v01), 0)
        assert antidist_classical(prob) is None
        assert antidist_classical(AntidistProblem((v0, v01), 1)) is None

    def test_support_and_vertex_paths_agree_exhaustively(self):
        """Cross-check on exhaustive small rational instances."""
        quarters = [
            np.array([i, j, 4 - i - j]) / 4.0
            for i in range(5)
            for j in range(5 - i)
        ]
        space = S3
        for wa in quarters:
            for wb in quarters:
                prob = AntidistProblem(
                    (Distribution(space, wa), Distribution(space, wb)), 0
                )
                got_support = antidist_classical(prob, method="support")
                got_vertex = antidist_classical(prob, method="vertex")
                assert (got_support is None) == (got_vertex is None)
                disjoint = not np.any((wa > 0) & (wb > 0))
                assert (got_support is not None) == disjoint

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
        # signed ensembles over exactly two points, two to four members
        verdicts = set()
        for _ in range(40):
            first = rng.uniform(-1.0, 2.0, int(rng.integers(2, 5)))
            members = tuple(Distribution(S2, [w, 1.0 - w]) for w in first)
            if all(m.is_probability for m in members):
                continue
            target = int(rng.integers(len(members)))
            a = members[target].weights
            b = sum(m.weights for i, m in enumerate(members) if i != target)
            got = antidist_classical(AntidistProblem(members, target))
            want = scipy_feasible(a, b)
            assert (got is not None) == want
            verdicts.add(want)
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


class TestPartitionForm:
    def test_partition_exists_iff_no_common_point(self):
        mu = Distribution(S3, [0.5, 0.5, 0.0])
        nu = Distribution(S3, [0.0, 0.5, 0.5])
        rho = Distribution(S3, [0.5, 0.0, 0.5])
        assert antidist_partition((mu, nu, rho)) is not None
        # all supports share the first point: no partition can exist
        shared = (
            Distribution(S3, [0.5, 0.5, 0.0]),
            Distribution(S3, [0.5, 0.0, 0.5]),
            Distribution(S3, [0.2, 0.4, 0.4]),
        )
        assert antidist_partition(shared) is None

    def test_partition_is_a_partition(self):
        mu = point_mass(S3, "x0")
        nu = point_mass(S3, "x1")
        parts = antidist_partition((mu, nu))
        total = np.sum([p.values for p in parts], axis=0)
        assert np.allclose(total, 1.0)
        assert float(parts[0].values @ mu.weights) == 0.0
        assert float(parts[1].values @ nu.weights) == 0.0


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
        results = antidist_family(family)
        assert all(cert is not None for cert in results)

    def test_counterexample_base_pair_refuted(self):
        _, phi, psi = self._family()
        assert antidist_classical(AntidistProblem((phi, psi), 0)) is None

    def test_partition_form_refutes_the_family(self):
        family, _, _ = self._family()
        assert antidist_partition(family) is None


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
        from ontokit.sampling import random_orthogonal_pair

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
        zz = ProjectiveMeasurement.computational(4)
        assert not antidist_quantum_check(states, zz, [0, 1, 2, 3])

    def test_orthogonal_pair(self):
        from ontokit.quantum import ProjectiveMeasurement

        states = [DensityMatrix.from_ket([1, 0]), DensityMatrix.from_ket([0, 1])]
        z = ProjectiveMeasurement.computational(2)
        assert antidist_quantum_check(states, z, [1, 0])


class TestPbrMeasurement:
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


class TestCompressionChannel:
    def test_canonical_fixed_point(self):
        res = compression_channel([1, 0], [INV_SQRT2, INV_SQRT2])
        assert res.n == 1
        assert res.residual_psi < 1e-10 and res.residual_phi < 1e-10

    def test_auto_power_oracle(self):
        # smallest n with overlap^n <= 1/sqrt(2), by naive search
        for overlap_mod in (0.3, 0.7071, 0.75, 0.9, 0.95):
            n = 1
            while overlap_mod ** n > INV_SQRT2 + 1e-12:
                n += 1
            assert smallest_compression_power(overlap_mod) == n
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
        # the channel maps the tensor-power projectors exactly as claimed
        res = compression_channel([1, 0], [INV_SQRT2, INV_SQRT2], n=1)
        out = apply_channel(res.channel, DensityMatrix.from_ket([1, 0]))
        assert np.max(np.abs(out.matrix - np.diag([1.0, 0.0]))) < 1e-10

    def test_bad_overlap_rejected(self):
        with pytest.raises(BadOverlapError):
            compression_channel([1, 0], [0, 1])
        with pytest.raises(BadOverlapError):
            compression_channel([1, 0], [1, 0])
        with pytest.raises(BadOverlapError):
            compression_channel([1, 0], [0.9, np.sqrt(1 - 0.81)], n=1)


class TestPbrDemo:
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

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(BadOverlapError):
            pbr_demo([1, 0], [0, 1])


class TestLemmaSuite:
    def test_small_run_no_violations(self):
        rep = lemma_suite(trials=100, seed=5)
        assert rep.passed
        assert rep.counters["power_family_refuted"] > 0
        assert rep.counters["power_family_certified"] > 0
        assert rep.counters["overlap_pairs"] > 0

    def test_disjoint_pair_consistent(self):
        phi = Distribution(S3, [1.0, 0.0, 0.0])
        psi = Distribution(S3, [0.0, 0.5, 0.5])
        assert all(c is not None for c in antidist_family((phi, psi)))
        for n in (2, 3):
            phi_n, psi_n = phi, psi
            for _ in range(n - 1):
                phi_n = dtensor(phi_n, phi)
                psi_n = dtensor(psi_n, psi)
            assert all(c is not None for c in antidist_family((phi_n, psi_n)))

    def test_overlapping_pair_tensored_families_refuted(self):
        phi = Distribution(S3, [0.5, 0.5, 0.0])
        psi = Distribution(S3, [0.5, 0.0, 0.5])
        for n in (2, 3):
            phi_n, psi_n = phi, psi
            for _ in range(n - 1):
                phi_n = dtensor(phi_n, phi)
                psi_n = dtensor(psi_n, psi)
            results = antidist_family((phi_n, psi_n))
            assert all(c is None for c in results)

    def test_deterministic(self):
        a = lemma_suite(trials=30, seed=9)
        b = lemma_suite(trials=30, seed=9)
        assert a.counters == b.counters and a.violations == b.violations

"""Quantum measures and decoherence functionals."""

import numpy as np
import pytest

from ontokit.errors import InvalidFunctionalError, TooLargeError
from ontokit.kernels import FiniteSpace
from ontokit.qmeasure import (
    MAX_POINTS,
    DecoherenceFunctional,
    QuantumMeasure,
    measure_from_decoherence,
    validate_decoherence,
    validate_quantum_measure,
)
from ontokit.sampling import rng_for
from ontokit.serialize import dumps_report

AB = FiniteSpace(("a", "b"))


def space_of(n):
    return FiniteSpace(tuple(f"p{i}" for i in range(n)))


def classical_measure(space, weights):
    n = space.size
    values = np.zeros(2 ** n)
    for mask in range(2 ** n):
        values[mask] = sum(weights[i] for i in range(n) if (mask >> i) & 1)
    return QuantumMeasure(space, values)


def random_psd_functional(rng, n):
    """Positively-biased PSD functional, normalised to total sum 1."""
    g = rng.uniform(0.3, 1.0, size=(n, 2 * n)) + 0.2j * rng.normal(size=(n, 2 * n))
    m = g @ g.conj().T
    total = complex(m.sum())
    return DecoherenceFunctional(space_of(n), m / total.real)


def double_slit_functional(space, psi):
    """The rank-1 functional D({x}, {y}) = psi_x psi_y^*, scaled so that the
    total interference sum D(all, all) is 1."""
    psi = psi / abs(psi.sum())
    return DecoherenceFunctional(space, np.outer(psi, psi.conj()))


def double_slit_oracle(psi, mask):
    """mu(U) = |sum over U of psi_x|^2, expanded directly."""
    amp = sum(psi[i] for i in range(len(psi)) if (mask >> i) & 1)
    return abs(amp) ** 2


def sum_rule_terms(values, u, v, w):
    lhs = values[u | v | w]
    rhs = values[u | v] + values[u | w] + values[v | w] - values[u] - values[v] - values[w]
    return lhs, rhs


def direct_oracle(values, n, tol):
    """Every ordered pairwise-disjoint triple (4^n of them) whose two sides of
    the sum rule differ by more than tol."""
    full = (1 << n) - 1
    found = []
    for u in range(1 << n):
        rest_u = full & ~u
        v = rest_u
        while True:
            rest_uv = rest_u & ~v
            w = rest_uv
            while True:
                lhs, rhs = sum_rule_terms(values, u, v, w)
                if abs(lhs - rhs) > tol:
                    found.append((u, v, w))
                if w == 0:
                    break
                w = (w - 1) & rest_uv
            if v == 0:
                break
            v = (v - 1) & rest_u
    return found


def pairwise_oracle(values, n, tol):
    """Masks of 3 or more points whose value differs by more than tol from the
    sum of its singleton values and pairwise interference terms; sound only
    when mu(empty) = 0."""
    d = np.zeros((n, n))
    for x in range(n):
        d[x, x] = values[1 << x]
        for y in range(x + 1, n):
            d[x, y] = d[y, x] = values[(1 << x) | (1 << y)] - d[x, x] - values[1 << y]
    found = []
    for mask in range(1 << n):
        idx = [i for i in range(n) if (mask >> i) & 1]
        if len(idx) < 3:
            continue
        sub = d[np.ix_(idx, idx)]
        if abs(values[mask] - (np.triu(sub, 1).sum() + np.trace(sub))) > tol:
            found.append(mask)
    return found


def minimal_coefficient_oracle(values, n, tol):
    """Inclusion-minimal S (empty or of 3+ points) whose Möbius coefficient,
    summed term by term over the subsets of S, exceeds tol."""
    bad = []
    for s in range(1 << n):
        if 0 < bin(s).count("1") < 3:
            continue
        coeff, t = 0.0, s
        while True:
            coeff += (-1) ** bin(s ^ t).count("1") * values[t]
            if t == 0:
                break
            t = (t - 1) & s
        if abs(coeff) > tol:
            bad.append(s)
    return [s for s in bad if not any(t != s and t & s == t for t in bad)]


def scan_oracle(values, tol):
    positivity, above = [], []
    for mask, v in enumerate(values):
        if v < -tol:
            positivity.append({"mask": mask, "value": float(v)})
        if v > 1.0 + tol:
            above.append({"mask": mask, "value": float(v)})
    return positivity, above


def perturbed(values, mask, delta):
    values = values.copy()
    values[mask] += delta
    return values


def validation_cases(n, seed, popcounts=None):
    """A classical and a decoherence-derived measure, then one of them with a
    value moved at a mask of each popcount (default: every popcount, the
    empty set included)."""
    rng = rng_for(seed, n)
    w = rng.uniform(0, 1, n)
    classical = classical_measure(space_of(n), w / w.sum()).values
    derived = measure_from_decoherence(random_psd_functional(rng, n)).values
    cases = [classical, derived]
    for k in range(n + 1) if popcounts is None else popcounts:
        mask = int(sum(1 << int(b) for b in rng.choice(n, size=k, replace=False)))
        delta = (1e-6, -1e-3, 0.1)[k % 3]
        cases.append(perturbed(derived if k % 2 else classical, mask, delta))
    return cases


def assert_witnesses_violate(report, values, tol):
    for rec in report.sum_rule_violations:
        u, v, w = rec["u"], rec["v"], rec["w"]
        assert u & v == 0 and u & w == 0 and v & w == 0
        lhs, rhs = sum_rule_terms(values, u, v, w)
        assert (rec["lhs"], rec["rhs"]) == (lhs, rhs)
        assert abs(lhs - rhs) > tol


class TestQuantumMeasureValidator:
    def test_classical_measure_passes(self):
        rng = rng_for(111)
        space = space_of(4)
        w = rng.uniform(0, 1, 4)
        report = validate_quantum_measure(classical_measure(space, w / w.sum()))
        assert report.clean

    def test_hand_built_triple_violation_reported(self):
        space = space_of(3)
        w = np.array([0.2, 0.3, 0.5])
        q = classical_measure(space, w)
        values = q.values.copy()
        values[0b111] += 0.05  # break the sum rule on ({a},{b},{c})
        broken = QuantumMeasure(space, values)
        report = validate_quantum_measure(broken)
        assert any(
            {v["u"], v["v"], v["w"]} == {0b001, 0b010, 0b100}
            for v in report.sum_rule_violations
        )

    def test_too_large_rejected(self):
        with pytest.raises(TooLargeError, match=r"table of 2\^n subset values"):
            QuantumMeasure(space_of(17), np.zeros(2 ** 17))
        with pytest.raises(TooLargeError, match=r"table of 2\^n subset values"):
            DecoherenceFunctional(space_of(17), np.eye(17) / 17)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_sum_rule_matches_direct_oracle(self, n):
        tol = 1e-9
        # the 4^n oracle is slow in Python: beyond 7 points, sample popcounts
        for values in validation_cases(n, 112, None if n <= 7 else (0, 4)):
            report = validate_quantum_measure(QuantumMeasure(space_of(n), values), tol)
            direct = direct_oracle(values, n, tol)
            assert bool(report.sum_rule_violations) == bool(direct)
            assert {(r["u"], r["v"], r["w"]) for r in report.sum_rule_violations} <= set(direct)
            assert_witnesses_violate(report, values, tol)
            if n <= 7:
                minimal = minimal_coefficient_oracle(values, n, tol)
                assert [r["u"] | r["v"] | r["w"] for r in report.sum_rule_violations] == minimal
            if n <= 2:  # no set of 3 points: only the empty set can violate
                assert bool(direct) == (abs(values[0]) > tol)

    @pytest.mark.parametrize("n", range(3, 14))
    def test_sum_rule_matches_pairwise_oracle(self, n):
        tol = 1e-9
        for values in validation_cases(n, 118, range(1, n + 1) if n <= 9 else (1, 2, 3, n)):
            values[0] = 0.0  # the pairwise reconstruction assumes mu(empty) = 0
            report = validate_quantum_measure(QuantumMeasure(space_of(n), values), tol)
            assert bool(report.sum_rule_violations) == bool(pairwise_oracle(values, n, tol))
            assert_witnesses_violate(report, values, tol)

    def test_nested_violations_reported_once_at_the_minimal_set(self):
        n, tol = 6, 1e-9
        values = validation_cases(n, 119)[1]
        values = perturbed(perturbed(values, 0b000111, 0.01), 0b011111, -0.02)
        values = perturbed(values, 0b101001, 1e-3)
        report = validate_quantum_measure(QuantumMeasure(space_of(n), values), tol)
        minimal = minimal_coefficient_oracle(values, n, tol)
        assert minimal == [0b000111, 0b101001]
        assert [r["u"] | r["v"] | r["w"] for r in report.sum_rule_violations] == minimal
        assert_witnesses_violate(report, values, tol)

    def test_empty_set_value_beyond_ten_points_is_a_violation(self):
        n = 11
        values = validation_cases(n, 120)[1]
        values[0] = 0.3
        report = validate_quantum_measure(QuantumMeasure(space_of(n), values))
        assert not report.clean
        [record] = report.sum_rule_violations
        assert (record["u"], record["v"], record["w"], record["lhs"]) == (0, 0, 0, 0.3)
        assert_witnesses_violate(report, values, 1e-9)

    def test_positivity_and_range_scans_match_loop(self):
        tol = 1e-9
        for n in (1, 4, 8):
            for values in validation_cases(n, 121):
                values = perturbed(perturbed(values, (1 << n) - 1, 0.4), 1, -0.3)
                values[0] = -2 * tol
                report = validate_quantum_measure(QuantumMeasure(space_of(n), values), tol)
                positivity, above = scan_oracle(values, tol)
                assert dumps_report(report.positivity_violations) == dumps_report(positivity)
                assert dumps_report(report.range_violations) == dumps_report(above)
                assert positivity and above

    def test_sixteen_point_decoherence_functional_validates(self):
        d = random_psd_functional(rng_for(122), MAX_POINTS)
        report = validate_quantum_measure(measure_from_decoherence(d))
        assert report.clean
        assert report.triple_check == "mobius"


class TestDecoherence:
    def test_double_slit_passes_and_matches_oracle(self):
        for n in range(2, 7):
            rng = rng_for(113, n)
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            d = double_slit_functional(space_of(n), psi)
            assert validate_decoherence(d).clean
            q = measure_from_decoherence(d)
            scaled = psi / abs(psi.sum())
            for mask in range(2 ** n):
                assert abs(q.values[mask] - double_slit_oracle(scaled, mask)) < 1e-12
            report = validate_quantum_measure(q)
            assert not report.sum_rule_violations
            assert report.normalisation_error < 1e-12

    def test_kolmogorov_violation_exhibited(self):
        # amplitudes 1 and exp(2 pi i / 3): |1 + w| = 1 exactly, so the
        # functional is normalised without rescaling, while each singleton
        # carries measure 1: mu({a,b}) = 1 != mu({a}) + mu({b}) = 2
        psi = np.array([1.0, np.exp(2j * np.pi / 3)])
        d = double_slit_functional(AB, psi)
        assert validate_decoherence(d).clean
        q = measure_from_decoherence(d)
        assert abs(q.values[0b01] - 1.0) < 1e-12
        assert abs(q.values[0b10] - 1.0) < 1e-12
        assert abs(q.values[0b11] - 1.0) < 1e-12
        assert abs(q.values[0b11] - (q.values[0b01] + q.values[0b10])) > 0.9

    def test_diagonal_functional_gives_additive_measure(self):
        d = DecoherenceFunctional(AB, np.diag([0.4, 0.6]).astype(complex))
        q = measure_from_decoherence(d)
        assert abs(q.values[0b11] - (q.values[0b01] + q.values[0b10])) < 1e-12

    def test_unnormalised_functional_reported(self):
        # diagonal 1/2, off-diagonal -1/4: Hermitian and PSD but its total
        # interference sum is 1/2, not 1, so it is not a valid functional
        d = DecoherenceFunctional(AB, np.array([[0.5, -0.25], [-0.25, 0.5]], dtype=complex))
        report = validate_decoherence(d)
        assert report.hermitian_error < 1e-12
        assert report.min_eigenvalue > 0
        assert abs(report.normalisation_error - 0.5) < 1e-12
        assert not report.clean
        with pytest.raises(InvalidFunctionalError):
            measure_from_decoherence(d)

    def test_non_hermitian_reported(self):
        d = DecoherenceFunctional(AB, np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
        assert validate_decoherence(d).hermitian_error > 0.1

    def test_non_hermitian_reports_hermitian_part_spectrum(self):
        # Hermitian part [[0.5, 0.2], [0.2, 0.5]]: eigenvalues 0.3 and 0.7
        d = DecoherenceFunctional(AB, np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
        report = validate_decoherence(d)
        assert abs(report.min_eigenvalue - 0.3) < 1e-12
        assert not report.clean
        dumps_report(vars(report))  # every field is finite, so the report is emitted

    def test_random_psd_functional_passes(self):
        rng = rng_for(114)
        for n in (2, 3, 4, 5, 6):
            d = random_psd_functional(rng, n)
            assert validate_decoherence(d).clean
            q = measure_from_decoherence(d)
            report = validate_quantum_measure(q)
            assert not report.sum_rule_violations
            assert not report.positivity_violations

    def test_subset_family_psd_spot_check(self):
        rng = rng_for(116)
        d = random_psd_functional(rng, 5)
        masks = [0b00011, 0b00101, 0b11000, 0b01110, 0b10001]
        # D(U, V) = 1_U^T m 1_V, extended bi-additively from the singletons
        ones = (np.array(masks)[:, None] >> np.arange(5)) & 1
        gram = ones @ d.matrix @ ones.T
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert eigs[0] > -1e-10


class TestMeasureFromDecoherence:
    def test_derived_measure_passes_validator(self):
        rng = rng_for(117)
        for n in (2, 4, 6):
            q = measure_from_decoherence(random_psd_functional(rng, n))
            report = validate_quantum_measure(q)
            assert not report.sum_rule_violations

    def test_no_three_operand_einsum(self, monkeypatch):
        """mu(S) = 1_S^T Re(D) 1_S is one matrix product and one row-wise dot.
        numpy runs a three-operand einsum unoptimised: at 16 points, with
        one BLAS thread, it took 37 ms against 3 ms for the two steps."""
        einsum = np.einsum

        def at_most_two(subscripts, *operands, **kwargs):
            assert len(operands) <= 2, f"einsum over {len(operands)} operands"
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", at_most_two)
        d = random_psd_functional(rng_for(118), 6)
        q = measure_from_decoherence(d)
        for mask in range(2 ** 6):
            idx = [i for i in range(6) if (mask >> i) & 1]
            assert abs(q.values[mask] - d.matrix.real[np.ix_(idx, idx)].sum()) < 1e-12

"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is the one stated by its criterion; seeds are fixed
so every suite is reproducible.
"""

import itertools

import numpy as np

from ontokit import linalg
from ontokit.antidist import (
    AntidistProblem,
    antidist_classical,
    compression_channel,
    pbr_demo,
)
from ontokit.kernels import (
    Distribution,
    FiniteSpace,
    dtensor,
    kcompose,
    support_mask,
    variational_distance,
)
from ontokit.ontomodel import (
    OntModel,
    classify_model,
    validate_model,
)
from ontokit.qmeasure import (
    DecoherenceFunctional,
    measure_from_decoherence,
    validate_quantum_measure,
)
from ontokit.quantum import (
    DensityMatrix,
    ProjectiveMeasurement,
    compose,
    measurement_channel,
    preparation_channel,
    tensor,
)
from ontokit.sampling import (
    random_cptp_channel,
    random_density,
    random_effect,
    random_ket,
    random_nonorthogonal_pair,
    rng_for,
)
from ontokit.wigner import (
    commutative_algebra,
    functor_morphism,
    monoidality_check,
    phase_point_operators,
    product_frame,
    transfer_matrix,
    wigner_vector,
)
from test_wigner import displacement_channel_oracle, displacement_permutation_oracle

SEED = 20240817
INV_SQRT2 = 1.0 / np.sqrt(2.0)
Z0 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) * INV_SQRT2


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_pbr_pipeline():
    rep = pbr_demo(Z0, PLUS)
    canonical_ok = rep.max_assigned <= 1e-9
    worst = 0.0
    for trial in range(25):
        rng = rng_for(SEED, 1, trial)
        psi, phi, _ = random_nonorthogonal_pair(rng, 2, 0.1, 0.95)
        r = pbr_demo(psi, phi, tol=1e-8)
        worst = max(worst, r.max_assigned)
        if not r.anti_distinguished:
            break
    verdict(
        1,
        canonical_ok and worst <= 1e-8,
        f"canonical zeros <= 1e-9 ({rep.max_assigned:.2e}); "
        f"25 random pairs, worst assigned probability {worst:.2e} <= 1e-8",
    )


def test_criterion_02_compression_channel():
    worst_residual = 0.0
    n_ok = True
    for trial in range(25):
        rng = rng_for(SEED, 2, trial)
        psi, phi, g = random_nonorthogonal_pair(rng, 2, 0.1, 0.95)
        res = compression_channel(psi, phi)
        worst_residual = max(worst_residual, res.residual_psi, res.residual_phi)
        n_ok = n_ok and g ** res.n <= INV_SQRT2 + 1e-12
        n_ok = n_ok and (res.n == 1 or g ** (res.n - 1) > INV_SQRT2)
    verdict(
        2,
        worst_residual <= 1e-8 and n_ok,
        f"projector residuals <= 1e-8 (worst {worst_residual:.2e}); "
        "auto n satisfies overlap^n <= 1/sqrt(2) < overlap^(n-1)",
    )


def _support_distribution(rng, space):
    """A distribution with a random nonempty support and weights of at least
    0.05 on it before normalisation, far from the support threshold."""
    while True:
        mask = rng.random(space.size) < 0.6
        if mask.any():
            break
    w = np.zeros(space.size)
    w[mask] = rng.uniform(0.05, 1.0, int(mask.sum()))
    return Distribution(space, w / w.sum())


def test_criterion_03_product_state_facts():
    """On random pairs (phi, psi) on 2 to 5 points: a certified 2- or 3-fold
    power pair has a certified base pair; a partition measurement for the
    four products has one too; and D(phi, psi) < 1, which is supports that
    meet, gives D(phi x phi, psi x psi) < 1."""

    def certified(a, b):
        return all(antidist_classical(AntidistProblem((a, b), i)) is not None for i in (0, 1))

    spaces = [FiniteSpace(tuple(f"x{i}" for i in range(k))) for k in range(2, 6)]
    premises = {"power pair certified": 0, "product partition": 0, "supports meet": 0}
    violations = []
    trials = 1000
    for trial in range(trials):
        rng = rng_for(SEED, 3, trial)
        space = spaces[int(rng.integers(len(spaces)))]
        phi = _support_distribution(rng, space)
        psi = _support_distribution(rng, space)
        base = certified(phi, psi)
        phi_n, psi_n = phi, psi
        for n in (2, 3):
            phi_n, psi_n = dtensor(phi_n, phi), dtensor(psi_n, psi)
            if certified(phi_n, psi_n):
                premises["power pair certified"] += 1
                if not base:
                    violations.append((trial, f"power n={n}"))
        # one measurement rules out each product iff no point lies in all four supports
        masks = np.array([support_mask(dtensor(a, b)) for a in (phi, psi) for b in (phi, psi)])
        if not masks.all(axis=0).any():
            premises["product partition"] += 1
            if not base:
                violations.append((trial, "product partition"))
        if (support_mask(phi) & support_mask(psi)).any():
            premises["supports meet"] += 1
            d_square = variational_distance(dtensor(phi, phi), dtensor(psi, psi))
            if not (variational_distance(phi, psi) < 1.0 and d_square < 1.0):
                violations.append((trial, "overlap persistence"))
    verdict(
        3,
        not violations and all(premises.values()),
        f"{trials} trials, violations {violations[:5]}; premise held on {premises}",
    )


def test_criterion_04_wigner_frames():
    worst_cond = 0.0
    worst_sum = 0.0
    for n in (1, 3, 5, 7, 9):
        frame = phase_point_operators(n)
        ops = frame.operators
        herm = linalg.max_abs(ops - np.conj(np.transpose(ops, (0, 2, 1))))
        tr = linalg.max_abs(np.einsum("kii->k", ops) - 1.0)
        invol = max(linalg.max_abs(op @ op - np.eye(n)) for op in ops)
        gram = np.einsum("ikl,jlk->ij", ops, ops)
        orth = linalg.max_abs(gram - n * np.eye(n * n))
        worst_cond = max(worst_cond, herm, tr, invol, orth)
        worst_sum = max(worst_sum, linalg.max_abs(ops.sum(axis=0) - n * np.eye(n)))
    verdict(
        4,
        worst_cond <= 1e-10 and worst_sum <= 1e-9,
        f"n in (1,3,5,7,9): conditions 1-3 worst {worst_cond:.2e} <= 1e-10, "
        f"sum residual {worst_sum:.2e} <= 1e-9",
    )


def test_criterion_05_functoriality_and_evaluation():
    worst_comp = 0.0
    for trial in range(200):
        rng = rng_for(SEED, 5, trial)
        f = random_cptp_channel(rng, 3, 3)
        g = random_cptp_channel(rng, 3, 3)
        lhs = functor_morphism(compose(g, f)).matrix
        rhs = kcompose(functor_morphism(g), functor_morphism(f)).matrix
        worst_comp = max(worst_comp, linalg.max_abs(lhs - rhs))
    worst_eval = 0.0
    for trial in range(100):
        rng = rng_for(SEED, 55, trial)
        rho = random_density(rng, 3)
        effect = random_effect(rng, 3)
        k_state = functor_morphism(preparation_channel(rho))
        k_meas = functor_morphism(
            measurement_channel(effect), out_algebra=commutative_algebra(2)
        )
        classical = float(kcompose(k_meas, k_state).matrix[0, 0])
        quantum = float(np.trace(effect.effect @ rho.matrix).real)
        worst_eval = max(worst_eval, abs(classical - quantum))
    verdict(
        5,
        worst_comp <= 1e-8 and worst_eval <= 1e-8,
        f"200 channel pairs: F(g.f) vs F(g).F(f) worst {worst_comp:.2e} <= 1e-8; "
        f"100 evaluation pairs: worst Born deviation {worst_eval:.2e} <= 1e-8",
    )


def test_criterion_06_monoidality():
    rep = monoidality_check(3, 3)
    qutrit = phase_point_operators(3)
    prod = product_frame(qutrit, qutrit)
    worst = 0.0
    for trial in range(50):
        rng = rng_for(SEED, 6, trial)
        f = random_cptp_channel(rng, 3, 3)
        g = random_cptp_channel(rng, 3, 3)
        lhs = transfer_matrix(tensor(f, g), prod, prod)
        rhs = np.kron(transfer_matrix(f, qutrit, qutrit), transfer_matrix(g, qutrit, qutrit))
        worst = max(worst, linalg.max_abs(lhs - rhs))
    verdict(
        6,
        rep.passed and worst <= 1e-8,
        f"3 x 3 product frame certified from its two factor frames ({rep.frame_ok}); "
        f"50 channel pairs: T(f (x) g) vs T(f) (x) T(g) worst {worst:.2e} <= 1e-8",
    )


def test_criterion_07_epistemicity():
    frame = phase_point_operators(3)

    def decided(psi, phi):
        a = wigner_vector(DensityMatrix.from_ket(psi), frame)
        b = wigner_vector(DensityMatrix.from_ket(phi), frame)
        return (
            antidist_classical(AntidistProblem((a, b), 0)),
            antidist_classical(AntidistProblem((a, b), 1)),
        )

    c0, c1 = decided(
        np.array([1, 0, 0], dtype=complex),
        np.array([1, 1, 0], dtype=complex) * INV_SQRT2,
    )
    canonical_refuted = c0 is None and c1 is None

    nonorth_refuted = 0
    for trial in range(50):
        rng = rng_for(SEED, 7, trial)
        psi, phi, _ = random_nonorthogonal_pair(rng, 3, 0.55, 0.95)
        c0, c1 = decided(psi, phi)
        nonorth_refuted += c0 is None and c1 is None

    # two states of the computational or the Fourier basis, which every displacement
    # permutes up to phases
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    pairs = [(basis[:, j], basis[:, k]) for basis in (np.eye(3, dtype=complex), fourier)
             for j, k in itertools.permutations(range(3), 2)]
    orth_certified = 0
    for psi, phi in pairs:
        c0, c1 = decided(psi, phi)
        orth_certified += c0 is not None and c1 is not None

    verdict(
        7,
        canonical_refuted and nonorth_refuted == 50 and orth_certified == len(pairs),
        f"canonical pair REFUTED ({canonical_refuted}); "
        f"nonorthogonal pairs (overlap 0.55-0.95) refuted {nonorth_refuted}/50; "
        f"orthogonal stabilizer-basis pairs certified {orth_certified}/{len(pairs)}",
    )


def test_criterion_08_trace_distance_bound():
    frame = phase_point_operators(3)
    worst_excess = -np.inf
    max_rel_gap = 0.0
    for trial in range(200):
        rng = rng_for(SEED, 8, trial)
        rho = random_density(rng, 3)
        tau = random_density(rng, 3)
        tdist = 0.5 * linalg.trace_norm(rho.matrix - tau.matrix)
        v_r = wigner_vector(rho, frame)
        v_t = wigner_vector(tau, frame)
        scaled = 1.5 * float(np.sum(np.abs(v_r.weights - v_t.weights)))
        worst_excess = max(worst_excess, tdist - scaled)
        if tdist > 0:
            max_rel_gap = max(max_rel_gap, (scaled - tdist) / tdist)
    verdict(
        8,
        worst_excess <= 1e-9,
        f"200 qutrit pairs: trace distance <= (n/2) l1 + 1e-9 "
        f"(worst excess {worst_excess:.2e}); max relative gap {max_rel_gap:.3f} "
        "(the equality claim fails; only the bound holds)",
    )


def test_criterion_09_ontological_model_validator():
    rng = rng_for(SEED, 9)
    catalog = [(f"s{i}", random_ket(rng, 3)) for i in range(10)]
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    # the Dirac model: each state sits at its own ontic point, and an
    # outcome's response at a point is its Born probability there
    labels = tuple(lab for lab, _ in catalog)
    kets = np.array([k for _, k in catalog])
    bases = [ProjectiveMeasurement(np.eye(3)), ProjectiveMeasurement(q.T)]
    model = OntModel(
        FiniteSpace(labels), labels, kets, np.eye(len(labels)),
        tuple((m, np.abs(m.vectors.conj() @ kets.T) ** 2) for m in bases),
    )
    report = validate_model(model, tol=1e-10)
    dirac_ok = report.clean and classify_model(model).kind == "ontic"

    ontic = FiniteSpace(("a", "b", "c"))
    z = ProjectiveMeasurement(np.eye(2))
    hand = OntModel(
        ontic,
        ("zero", "plus"),
        [Z0, PLUS],
        [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
        ((z, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),),
    )
    hand_validation = validate_model(hand, tol=1e-10)
    hand_verdict = classify_model(hand)
    hand_ok = (
        hand_validation.clean
        and hand_verdict.kind == "epistemic"
        and hand_verdict.witness == ("zero", "plus")
    )
    verdict(
        9,
        dirac_ok and hand_ok,
        f"10-state Dirac model clean at 1e-10 and ontic ({dirac_ok}); "
        f"overlapping model epistemic with witness {hand_verdict.witness} ({hand_ok})",
    )


def _double_slit(space, psi):
    """The rank-1 functional D({x}, {y}) = psi_x psi_y^*, scaled so that the
    total interference sum D(all, all) is 1."""
    psi = psi / abs(psi.sum())
    return DecoherenceFunctional(space, np.outer(psi, psi.conj()))


def test_criterion_10_quantum_measures():
    all_clean = True
    for size in range(2, 7):
        rng = rng_for(SEED, 10, size)
        space = FiniteSpace(tuple(f"p{i}" for i in range(size)))
        psi = rng.normal(size=size) + 1j * rng.normal(size=size)
        psi /= np.linalg.norm(psi)
        q = measure_from_decoherence(_double_slit(space, psi))
        rep = validate_quantum_measure(q, tol=1e-9)
        all_clean = all_clean and not rep.sum_rule_violations and not rep.positivity_violations

    two = FiniteSpace(("a", "b"))
    q2 = measure_from_decoherence(
        _double_slit(two, np.array([1.0, np.exp(2j * np.pi / 3)]))
    )
    rep2 = validate_quantum_measure(q2, tol=1e-9)
    violation = abs(q2.values[0b11] - (q2.values[0b01] + q2.values[0b10]))
    verdict(
        10,
        all_clean and rep2.clean and violation > 0.9,
        "double-slit functionals pass the sum rule for 2 <= points <= 6; "
        f"Kolmogorov violation exhibited: mu(ab)=1 vs mu(a)+mu(b)=2 (gap {violation:.3f})",
    )


def test_criterion_11_covariance_equivariance():
    perm_ok = True
    kernels = []
    for a in range(3):
        for b in range(3):
            t = functor_morphism(displacement_channel_oracle(3, a, b)).matrix
            is_perm = (
                linalg.max_abs(t - np.round(t)) <= 1e-9
                and np.allclose(t.sum(axis=0), 1.0, atol=1e-9)
                and np.allclose(np.abs(t).sum(axis=0), 1.0, atol=1e-9)
            )
            perm_ok = perm_ok and is_perm
            kernels.append((t, displacement_permutation_oracle(3, a, b)))
    rng = rng_for(SEED, 11)
    worst, checked = 0.0, 0
    for _ in range(3):
        w = functor_morphism(preparation_channel(random_density(rng, 3))).matrix[:, 0]
        for t, perm in kernels:
            # F(D . rho) = pi_D . F(rho), point by point
            worst = max(worst, linalg.max_abs((t @ w)[perm] - w))
            checked += len(w)
    verdict(
        11,
        perm_ok and worst <= 1e-9,
        f"9 displacement transfer matrices are permutations ({perm_ok}); "
        f"equivariance equation holds at 1e-9 on {checked} singleton checks",
    )

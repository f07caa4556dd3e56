"""Seeded input generation for the benchmark workloads.

Every input is drawn here with numpy's Philox generator keyed by the
benchmark seed; nothing comes from ``ontokit.sampling``, so a change to the
program cannot change its own inputs.  Each workload is a list of blocks,
and every block has the same fixed composition (kind and size classes);
the seed decides only the random content of each check and the order of
the checks inside a block.  That keeps the work per run nearly the same
for every seed.

An item is one check: its kind, the JSON documents it parses (as text, the
form a CLI user hands over), and the facts the oracle needs afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Block composition per workload.  A block is the unit of work; bench/run.py
# decides how many blocks a run executes.
FUNCTOR_DIMS = (3, 5, 7)
FUNCTOR_LAWS_PER_DIM = 6
FUNCTOR_MONOIDAL_PAIRS = ((3, 3), (3, 5))
PBR_POWERS = tuple(range(1, 9))
SIGNED_POINTS = tuple(range(2, 15))
PROB_POINTS = (2, 64)
EPISTEMIC_PER_BLOCK = 2 * len(SIGNED_POINTS)
DECOHERENCE_POINTS = tuple(range(4, 13))
# per-block count of perturbed measures by point count; most sit at n = 7
MEASURE_COUNTS = {4: 2, 5: 2, 6: 2, 7: 10, 8: 4}
MEASURE_PERTURBED_POPCOUNT = 3
MODEL_DIMS = (2, 3, 4)
MODEL_BASES = (2, 3, 4)
MODEL_SIZES = (8, 11, 14, 17, 20, 23, 26, 29, 32, 35, 38, 40)


@dataclass
class Item:
    kind: str
    docs: dict
    meta: dict = field(default_factory=dict)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seq))


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def matrix_doc(m) -> list:
    return [_pairs(row) for row in np.asarray(m, dtype=complex)]


def ket_doc(psi) -> dict:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return {"dim": int(psi.size), "amplitudes": _pairs(psi)}


# ---------------------------------------------------------------------------
# random quantum objects (numpy only)
# ---------------------------------------------------------------------------

def random_ket(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(rng, dim: int, count: int = 3) -> list[np.ndarray]:
    raw = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(count)]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in raw))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return [k @ inv_sqrt for k in raw]


def random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return (m + m.conj().T) / 2


def random_effect(rng, dim: int) -> np.ndarray:
    u = random_unitary(rng, dim)
    e = u @ np.diag(rng.uniform(0.05, 0.95, dim)) @ u.conj().T
    return (e + e.conj().T) / 2


def pair_with_overlap(rng, dim: int, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Two kets with |<psi|phi>| = g exactly (up to rounding)."""
    psi = random_ket(rng, dim)
    raw = random_ket(rng, dim)
    perp = raw - np.vdot(psi, raw) * psi
    perp = perp / np.linalg.norm(perp)
    phi = g * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * psi + np.sqrt(1.0 - g * g) * perp
    return psi, phi / np.linalg.norm(phi)


# ---------------------------------------------------------------------------
# anti-distinguishability margin (exact LP dual, used to keep draws away
# from the feasibility boundary)
# ---------------------------------------------------------------------------

def antidist_margin(a: np.ndarray, b: np.ndarray) -> float:
    """max{chi.b : chi.a = 0, chi in [0,1]^k} - 1.

    By LP duality the maximum is min over lambda of sum_i max(0, b_i - lambda a_i),
    a convex piecewise-linear function whose minimum sits at a breakpoint
    b_i / a_i, or at lambda -> +inf when no a_i is negative.  The target is
    anti-distinguishable iff the margin is nonnegative.
    """
    nz = np.abs(a) > 1e-15
    lams = b[nz] / a[nz]
    vals = np.maximum(0.0, b[None, :] - lams[:, None] * a[None, :]).sum(axis=1)
    best = float(vals.min()) if vals.size else np.inf
    if not np.any(a < -1e-15):
        best = min(best, float(np.maximum(0.0, b[~nz]).sum()))
    return best - 1.0


def _target_and_rest(weights: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray]:
    rest = np.delete(weights, target, axis=0).sum(axis=0)
    return weights[target], rest


def ensemble_doc(weights: np.ndarray) -> dict:
    k = weights.shape[1]
    return {"points": [f"x{i}" for i in range(k)], "weights": weights.tolist()}


# ---------------------------------------------------------------------------
# discrete Wigner vectors in closed form (oracle side; independent of
# ontokit.wigner): A_(q,p)|x> = w^{2p(q-x)} |2q - x>, point index q*n + p
# ---------------------------------------------------------------------------

def wigner_vector_closed_form(psi: np.ndarray) -> np.ndarray:
    n = psi.size
    om = np.exp(2j * np.pi / n)
    x = np.arange(n)
    out = np.empty(n * n)
    for q in range(n):
        image = psi[(2 * q - x) % n].conj()
        for p in range(n):
            out[q * n + p] = float(np.real(np.sum(image * om ** (2 * p * (q - x)) * psi))) / n
    return out


# ---------------------------------------------------------------------------
# workload: functor
# ---------------------------------------------------------------------------

def _functor_law(rng, dim: int) -> Item:
    docs = {
        "f": json.dumps({"in_dim": dim, "out_dim": dim, "kraus": [matrix_doc(k) for k in random_kraus(rng, dim)],
                    "trace_preserving": True}),
        "g": json.dumps({"in_dim": dim, "out_dim": dim, "kraus": [matrix_doc(k) for k in random_kraus(rng, dim)],
                    "trace_preserving": True}),
        "state": json.dumps(matrix_doc(random_density(rng, dim))),
        "effect": json.dumps(matrix_doc(random_effect(rng, dim))),
    }
    return Item("functor_law", docs, {"dim": dim})


def _functor_monoidal(rng, m: int, n: int) -> Item:
    seed = int(rng.integers(0, 2**31 - 1))
    return Item("monoidality", {"request": json.dumps({"m": m, "n": n, "trials": 1, "seed": seed})},
                {"m": m, "n": n})


def functor_block(rng, block: int) -> list[Item]:
    items = [_functor_law(rng, d) for d in FUNCTOR_DIMS for _ in range(FUNCTOR_LAWS_PER_DIM)]
    items += [_functor_monoidal(rng, m, n) for m, n in FUNCTOR_MONOIDAL_PAIRS]
    return items


# ---------------------------------------------------------------------------
# workload: exclusion
# ---------------------------------------------------------------------------

def _pbr(rng, n: int) -> Item:
    """Qubit pair whose smallest compression power is exactly n."""
    hi = INV_SQRT2 ** (1.0 / n)
    lo = INV_SQRT2 ** (1.0 / (n - 1)) if n > 1 else 0.2
    g = float(rng.uniform(lo + 1e-6 * (hi - lo), hi - 1e-3 * (hi - lo)))
    psi, phi = pair_with_overlap(rng, 2, g)
    return Item("pbr", {"psi": json.dumps(ket_doc(psi)), "phi": json.dumps(ket_doc(phi))}, {"n": n})


def _signed_member(rng, k: int, spread: float) -> np.ndarray:
    p = rng.dirichlet(np.ones(k))
    z = rng.normal(size=k)
    w = p + spread * (z - z.mean())
    return w / w.sum()


def _signed_ensemble(rng, k: int, certified: bool) -> Item:
    """Signed ensemble on k points, drawn until its verdict has margin 0.1.

    Refuted draws are near-collinear (every member a small perturbation of
    one signed base), certified draws are generic signed members.
    """
    while True:
        members = int(rng.integers(2, 5)) if not certified else int(rng.integers(3, 5))
        if certified:
            w = np.array([_signed_member(rng, k, 1.0 / k) for _ in range(members)])
        else:
            base = _signed_member(rng, k, 1.0 / k)
            w = np.array([base + 0.02 / k * (z - z.mean())
                          for z in rng.normal(size=(members, k))])
            w = w / w.sum(axis=1, keepdims=True)
        if w.min() >= 0.0:
            continue
        target = int(rng.integers(members))
        margin = antidist_margin(*_target_and_rest(w, target))
        if (margin >= 0.1) if certified else (margin <= -0.1):
            break
    return Item("antidist_signed", {"ensemble": json.dumps(ensemble_doc(w)), "target": target},
                {"k": k, "target": target, "weights": w, "certified": certified})


def _probability_ensemble(rng, k: int, certified: bool) -> Item:
    """Probability ensemble with supports drawn so the capacity is far from 1."""
    while True:
        members = int(rng.integers(2, 5))
        w = rng.uniform(0.05, 1.0, size=(members, k)) * (rng.random((members, k)) < 0.6)
        if (w.sum(axis=1) == 0).any():
            continue
        w = w / w.sum(axis=1, keepdims=True)
        target = int(rng.integers(members))
        margin = antidist_margin(*_target_and_rest(w, target))
        if not certified:
            ok = margin <= -0.1
        else:
            # with one other member the capacity reaches 1 only with disjoint supports
            ok = margin >= (0.0 if members == 2 else 0.1)
        if ok:
            break
    return Item("antidist_probability", {"ensemble": json.dumps(ensemble_doc(w)), "target": target},
                {"k": k, "target": target, "weights": w, "certified": certified})


def _epistemic(rng) -> Item:
    """Qutrit pair whose Wigner-image verdicts are 0.02 away from the boundary."""
    while True:
        psi, phi = random_ket(rng, 3), random_ket(rng, 3)
        w = np.array([wigner_vector_closed_form(psi), wigner_vector_closed_form(phi)])
        if all(abs(antidist_margin(*_target_and_rest(w, t))) >= 0.02 for t in (0, 1)):
            break
    return Item("epistemic", {"psi": json.dumps(ket_doc(psi)), "phi": json.dumps(ket_doc(phi))},
                {"psi": psi, "phi": phi})


def exclusion_block(rng, block: int) -> list[Item]:
    """Four kinds in equal numbers.  Compression powers cycle over the whole
    stream, so every four blocks hold each power equally often."""
    per_kind = 2 * len(SIGNED_POINTS)
    items = [_pbr(rng, PBR_POWERS[(block * per_kind + i) % len(PBR_POWERS)])
             for i in range(per_kind)]
    items += [_signed_ensemble(rng, k, c) for k in SIGNED_POINTS for c in (True, False)]
    lo, hi = PROB_POINTS
    items += [_probability_ensemble(rng, int(rng.integers(lo, hi + 1)), i % 2 == 0)
              for i in range(per_kind)]
    items += [_epistemic(rng) for _ in range(EPISTEMIC_PER_BLOCK)]
    return items


# ---------------------------------------------------------------------------
# workload: validators
# ---------------------------------------------------------------------------

def _measure_values(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalised PSD Gram functional with nonnegative amplitudes, and its
    diagonal measure (monotone, so every value lies in [0, 1])."""
    rank = int(rng.integers(1, 4))
    amps = rng.uniform(0.1, 1.0, size=(rank, n))
    gram = amps.T @ amps
    gram = gram / gram.sum()
    masks = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    values = np.einsum("si,ij,sj->s", masks, gram, masks)
    return gram, values


def _decoherence(rng, n: int) -> Item:
    gram, _ = _measure_values(rng, n)
    doc = {"points": [f"h{i}" for i in range(n)], "decoherence": matrix_doc(gram)}
    return Item("decoherence", {"qmeasure": json.dumps(doc)}, {"n": n})


def _perturbed_measure(rng, n: int) -> Item:
    _, values = _measure_values(rng, n)
    bits = rng.choice(n, size=MEASURE_PERTURBED_POPCOUNT, replace=False)
    mask = int(sum(1 << int(b) for b in bits))
    values = values.copy()
    values[mask] += 0.05 if values[mask] < 0.5 else -0.05
    doc = {"points": [f"h{i}" for i in range(n)],
           "measure": {str(m): float(v) for m, v in enumerate(values)}}
    return Item("measure", {"qmeasure": json.dumps(doc)}, {"n": n, "mask": mask})


def _model(rng, dim: int, bases: int, size: int, perturbed: bool) -> Item:
    """Dirac-restriction model: the ontic space is the catalogue, each state
    sits at its own point, responses are Born probabilities."""
    kets = [random_ket(rng, dim) for _ in range(size)]
    labels = [f"s{i}" for i in range(size)]
    measurements = []
    for _ in range(bases):
        u = random_unitary(rng, dim)
        probs = np.abs(u.conj().T @ np.array(kets).T) ** 2
        measurements.append({"basis": [ket_doc(u[:, j]) for j in range(dim)],
                             "responses": probs.tolist()})
    dists = {lab: np.eye(size)[i].tolist() for i, lab in enumerate(labels)}
    meta = {"perturbed": None}
    if perturbed:
        # mix state i with the catalogue state whose Born row differs most
        i = int(rng.integers(size))
        rows = np.concatenate([np.array(m["responses"]) for m in measurements])
        j = int(np.argmax(np.abs(rows - rows[:, [i]]).max(axis=0)))
        mixed = np.zeros(size)
        mixed[i] = mixed[j] = 0.5
        dists[labels[i]] = mixed.tolist()
        meta["perturbed"] = labels[i]
    doc = {
        "ontic": labels,
        "states": [{"label": lab, "ket": ket_doc(k)} for lab, k in zip(labels, kets)],
        "distributions": dists,
        "measurements": measurements,
    }
    return Item("model", {"model": json.dumps(doc)}, meta)


def validators_block(rng, block: int) -> list[Item]:
    items = [_decoherence(rng, n) for n in DECOHERENCE_POINTS]
    items += [_perturbed_measure(rng, n) for n, count in MEASURE_COUNTS.items()
              for _ in range(count)]
    for i, size in enumerate(MODEL_SIZES):
        dim = MODEL_DIMS[i % len(MODEL_DIMS)]
        bases = MODEL_BASES[(i // len(MODEL_DIMS)) % len(MODEL_BASES)]
        items.append(_model(rng, dim, bases, size, perturbed=i % 3 == 0))
    return items


BLOCK_BUILDERS = {
    "functor": functor_block,
    "exclusion": exclusion_block,
    "validators": validators_block,
}


def generate(workload: str, seed: int, blocks: int) -> list[Item]:
    """The workload's check stream: ``blocks`` blocks, each shuffled."""
    build = BLOCK_BUILDERS[workload]
    items: list[Item] = []
    for b in range(blocks):
        rng = rng_for(seed, b)
        checks = build(rng, b)
        items += [checks[i] for i in rng.permutation(len(checks))]
    return items

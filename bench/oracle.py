"""Verdict oracles, run after the timed phase on the emitted reports.

Each oracle reads the report text a check emitted and compares its verdict
with an independent expectation: scipy ``linprog`` feasibility for
anti-distinguishability, Wigner vectors in closed form for the epistemic
pairs, and the facts fixed when the input was drawn (compression power,
perturbed entries).  An oracle returns ``None`` when the verdict agrees
and a one-line reason when it does not.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linprog

from inputs import wigner_vector_closed_form

PBR_MAX_ASSIGNED = 1e-8


def lp_feasible(a: np.ndarray, b: np.ndarray) -> bool:
    """Is {chi in [0,1]^k : chi.a = 0, chi.b = 1} nonempty?"""
    res = linprog(
        np.zeros(a.size),
        A_eq=np.vstack([a, b]),
        b_eq=np.array([0.0, 1.0]),
        bounds=[(0.0, 1.0)] * a.size,
        method="highs",
    )
    return res.status == 0


def _target_feasible(weights: np.ndarray, target: int) -> bool:
    rest = np.delete(weights, target, axis=0).sum(axis=0)
    return lp_feasible(weights[target], rest)


def _functor(meta, rep):
    if not rep["passed"]:
        return (f"law violated: composition {rep['max_composition_violation']}, "
                f"evaluation {rep['max_evaluation_violation']}")
    return None


def _monoidality(meta, rep):
    if not (rep["passed"] and rep["frame_ok"]):
        return f"monoidality failed: residual {rep['max_transfer_residual']}"
    return None


def _pbr(meta, rep):
    if rep["n"] != meta["n"]:
        return f"compression power {rep['n']} != {meta['n']}"
    if not rep["anti_distinguished"] or rep["max_assigned"] > PBR_MAX_ASSIGNED:
        return f"not anti-distinguished: max_assigned {rep['max_assigned']}"
    return None


def _antidist(meta, rep):
    expected = _target_feasible(meta["weights"], meta["target"])
    got = rep["result"] == "certified"
    if got != expected:
        return f"verdict {rep['result']} but linprog feasible={expected}"
    return None


def _epistemic(meta, rep):
    w = np.array([wigner_vector_closed_form(meta["psi"]), wigner_vector_closed_form(meta["phi"])])
    for t, key in ((0, "refuted_psi"), (1, "refuted_phi")):
        if rep[key] != (not _target_feasible(w, t)):
            return f"{key}={rep[key]} disagrees with linprog"
    if not rep["bound_ok"]:
        return f"trace distance exceeds scaled l1 by {-rep['gap']}"
    return None


def _decoherence(meta, rep):
    derived = rep.get("derived_measure")
    if not rep["clean"] or derived is None:
        return "valid functional reported invalid"
    if derived["sum_rule_violations"] or not derived["clean"]:
        return f"derived measure has {derived['sum_rule_violations']} sum-rule violations"
    return None


def _measure(meta, rep):
    mask = meta["mask"]
    for v in rep["sum_rule_violations"]:
        u, vv, w = v["u"], v["v"], v["w"]
        if mask in (u | vv | w, u | vv, u | w, vv | w, u, vv, w):
            return None
    return f"no sum-rule violation involves the perturbed mask {mask}"


def _model(meta, rep):
    label = meta["perturbed"]
    kind = rep["classification"]["kind"]
    if label is None:
        if not rep["clean"] or kind != "ontic":
            return f"unperturbed model reported clean={rep['clean']}, kind={kind}"
        return None
    if not any(v["state"] == label for v in rep["born_violations"]):
        return f"no Born violation reported for perturbed state {label}"
    if kind != "epistemic":
        return f"perturbed model classified {kind}"
    return None


ORACLES = {
    "functor_law": _functor,
    "monoidality": _monoidality,
    "pbr": _pbr,
    "antidist_signed": _antidist,
    "antidist_probability": _antidist,
    "epistemic": _epistemic,
    "decoherence": _decoherence,
    "measure": _measure,
    "model": _model,
}


def judge(item, output: str) -> str | None:
    """None if the emitted report's verdict is right, else the reason."""
    return ORACLES[item.kind](item.meta, json.loads(output))

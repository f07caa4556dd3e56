"""One benchmark check per input item: the work of one CLI subcommand.

Each check decodes its JSON documents, parses them with
``ontokit.serialize``, computes the verdict with the library, and emits
the report with ``serialize.dumps_report``; the emitted text is the
check's output.  The report dictionaries mirror the ones ``ontokit.cli``
builds, without its file and stdout glue.  The functor and monoidality
checks have no CLI subcommand taking documents; they follow
``wigner functor-check`` for one trial on the given channels, state and
effect.

Tolerances are the CLI defaults with ``ONTOKIT_TOL`` unset.
"""

from __future__ import annotations

import json

from ontokit import antidist, ontomodel, qmeasure, quantum, serialize, wigner

MODEL_TOL = 1e-7
PBR_TOL = 1e-8
FUNCTOR_TOL = 1e-8
QMEASURE_TOL = 1e-9


def functor_law(docs: dict) -> str:
    f = serialize.parse_channel(json.loads(docs["f"]))
    g = serialize.parse_channel(json.loads(docs["g"]))
    rho = quantum.DensityMatrix(serialize.parse_matrix(json.loads(docs["state"]), "state"))
    effect = quantum.TwoOutcomeMeasurement(
        serialize.parse_matrix(json.loads(docs["effect"]), "effect")
    )
    dim = f.in_dim
    kf = wigner.functor_morphism(f)
    frag = ontomodel.FunctorFragment(
        channels={"f": f, "g": g, "gf": quantum.compose(g, f),
                  "id": quantum.Channel.identity(dim)},
        kernels={
            "f": kf,
            "g": wigner.functor_morphism(g),
            "gf": wigner.functor_morphism(quantum.compose(g, f)),
            "id": wigner.functor_morphism(quantum.Channel.identity(dim)),
        },
    )
    laws = ontomodel.check_operational_model(
        frag, composition_tests=[("g", "f", "gf")], identity_names=["id"], tol=FUNCTOR_TOL
    )
    worst_comp = 0.0
    for v in laws.composition_violations + laws.identity_violations:
        worst_comp = max(worst_comp, float(v.get("error", 1.0)))
    prep = quantum.preparation_channel(rho)
    meas = quantum.measurement_channel(effect)
    frag2 = ontomodel.FunctorFragment(
        channels={"state": prep, "meas": meas},
        kernels={
            "state": wigner.functor_morphism(prep),
            "meas": wigner.functor_morphism(meas, out_algebra=wigner.commutative_algebra(2)),
        },
    )
    evaluation = ontomodel.check_operational_model(
        frag2, evaluation_tests=[("meas", "state")], tol=FUNCTOR_TOL
    )
    worst_eval = 0.0
    for v in evaluation.evaluation_violations:
        worst_eval = max(worst_eval, abs(v["quantum"] - v["classical"]))
    report = {
        "command": "wigner-functor-check",
        "dim": dim,
        "trials": 1,
        "tolerance": FUNCTOR_TOL,
        "max_composition_violation": worst_comp,
        "max_evaluation_violation": worst_eval,
        "sample_kernel": serialize.kernel_to_json(kf),
        "passed": worst_comp == 0.0 and worst_eval == 0.0,
    }
    return serialize.dumps_report(report)


def monoidality(docs: dict) -> str:
    req = json.loads(docs["request"])
    mono = wigner.monoidality_check(req["m"], req["n"], req["trials"], req["seed"], tol=FUNCTOR_TOL)
    report = {
        "command": "wigner-monoidality",
        "m": mono.m,
        "n": mono.n,
        "trials": mono.trials,
        "seed": mono.seed,
        "frame_ok": mono.frame_ok,
        "max_transfer_residual": mono.max_transfer_residual,
        "passed": mono.passed,
    }
    return serialize.dumps_report(report)


def pbr(docs: dict) -> str:
    psi = serialize.parse_ket(json.loads(docs["psi"]))
    phi = serialize.parse_ket(json.loads(docs["phi"]))
    result = antidist.pbr_demo(psi, phi, n=None, tol=PBR_TOL)
    report = {
        "command": "pbr-demo",
        "overlap": result.overlap,
        "n": result.n,
        "gamma": result.gamma,
        "parametrization": result.parametrization,
        "pair_labels": list(result.pair_labels),
        "outcome_table": [[float(x) for x in row] for row in result.table],
        "assigned_probabilities": list(result.assigned_probabilities),
        "max_assigned": result.max_assigned,
        "compression_residuals": list(result.compression_residuals),
        "anti_distinguished": result.anti_distinguished,
    }
    return serialize.dumps_report(report)


def antidist_ensemble(docs: dict) -> str:
    target = docs["target"]
    space, dists = serialize.parse_ensemble(json.loads(docs["ensemble"]))
    cert = antidist.antidist_classical(antidist.AntidistProblem(tuple(dists), target))
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
    return serialize.dumps_report(report)


def epistemic(docs: dict) -> str:
    psi = serialize.parse_ket(json.loads(docs["psi"]))
    phi = serialize.parse_ket(json.loads(docs["phi"]))
    result = wigner.epistemic_report(psi, phi)
    report = {
        "command": "wigner-epistemic",
        "overlap": result.overlap,
        "dim": result.dim,
        "refuted_psi": result.refuted_psi,
        "refuted_phi": result.refuted_phi,
        "epistemic_witness": result.epistemic_witness,
        "trace_distance": result.trace_distance,
        "scaled_l1": result.scaled_l1,
        "bound_ok": result.bound_ok,
        "gap": result.gap,
    }
    return serialize.dumps_report(report)


def qmeasure_validate(docs: dict) -> str:
    obj = serialize.parse_qmeasure_doc(json.loads(docs["qmeasure"]))
    if isinstance(obj, qmeasure.DecoherenceFunctional):
        rep = qmeasure.validate_decoherence(obj, QMEASURE_TOL)
        report = {
            "command": "qmeasure-validate",
            "kind": "decoherence",
            "tolerance": QMEASURE_TOL,
            "clean": rep.clean,
            "hermitian_error": rep.hermitian_error,
            "normalisation_error": rep.normalisation_error,
            "min_eigenvalue": rep.min_eigenvalue,
        }
        if rep.clean:
            q = qmeasure.measure_from_decoherence(obj, QMEASURE_TOL)
            mreport = qmeasure.validate_quantum_measure(q, QMEASURE_TOL)
            report["derived_measure"] = {
                "clean": mreport.clean,
                "normalisation_error": mreport.normalisation_error,
                "sum_rule_violations": len(mreport.sum_rule_violations),
            }
        return serialize.dumps_report(report)
    mreport = qmeasure.validate_quantum_measure(obj, QMEASURE_TOL)
    report = {
        "command": "qmeasure-validate",
        "kind": "measure",
        "tolerance": QMEASURE_TOL,
        "clean": mreport.clean,
        "normalisation_error": mreport.normalisation_error,
        "positivity_violations": mreport.positivity_violations,
        "range_violations": mreport.range_violations,
        "sum_rule_violations": mreport.sum_rule_violations,
        "triple_check": mreport.triple_check,
    }
    return serialize.dumps_report(report)


def model(docs: dict) -> str:
    m = serialize.parse_model(json.loads(docs["model"]))
    validation = ontomodel.validate_model(m, tol=MODEL_TOL)
    verdict = ontomodel.classify_model(m)
    preds = ontomodel.maximal_predicates(m, tol=MODEL_TOL)
    report = {
        "command": "validate-model",
        "tolerance": MODEL_TOL,
        "clean": validation.clean,
        "born_violations": validation.born_violations,
        "sum_rule_violations": validation.sum_rule_violations,
        "classification": {
            "kind": verdict.kind,
            "witness": list(verdict.witness) if verdict.witness else None,
            "witness_overlap": verdict.witness_overlap,
            "witness_distance": verdict.witness_distance,
        },
        "maximal_predicates": {
            "maximally_epistemic": preds.maximally_epistemic,
            "maximally_nontrivial": preds.maximally_nontrivial,
            "epistemic_violations": len(preds.epistemic_violations),
            "nontrivial_violations": len(preds.nontrivial_violations),
        },
    }
    return serialize.dumps_report(report)


def run(item) -> str:
    """Execute one item's check and return the emitted report text."""
    return RUNNERS[item.kind](item.docs)


RUNNERS = {
    "functor_law": functor_law,
    "monoidality": monoidality,
    "pbr": pbr,
    "antidist_signed": antidist_ensemble,
    "antidist_probability": antidist_ensemble,
    "epistemic": epistemic,
    "decoherence": qmeasure_validate,
    "measure": qmeasure_validate,
    "model": model,
}


def warm_frames(workload: str) -> None:
    """Fill the phase-point frame cache for the dimensions a workload uses."""
    dims = {"functor": (3, 5, 7), "exclusion": (3,), "validators": ()}[workload]
    for d in dims:
        wigner.phase_point_operators(d)
    if workload == "functor":
        wigner.commutative_frame(1)
        wigner.commutative_frame(2)


def clear_frame_caches() -> None:
    for fn in (wigner.phase_point_operators, wigner.commutative_frame):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()

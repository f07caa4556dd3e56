"""Command-line entry point.

Reports are JSON on stdout, deterministic for fixed inputs and seed;
ONTOKIT_TOL overrides the default tolerance.  The library admits every
size, count and seed (--n, --dim, --trials, --seed); the CLI calls that
gate itself only to refuse a flag before a file is read or a frame is built.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .antidist import AntidistProblem, antidist_classical, pbr_demo
from .errors import OntokitError, SchemaError
from .linalg import _as_tolerance, as_positive_int
from .ontomodel import FunctorFragment, check_operational_model, classify_model, validate_model
from .qmeasure import (
    DecoherenceFunctional,
    measure_from_decoherence,
    validate_decoherence,
    validate_quantum_measure,
)
from .serialize import (
    dumps_report,
    load_json,
    matrix_to_json,
    parse_ensemble,
    parse_ket,
    parse_model,
    parse_qmeasure_doc,
)
from .quantum import Channel, DensityMatrix, compose, measurement_channel, preparation_channel
from .sampling import random_cptp_channel, random_density, random_effect, rng_for
from .wigner import (
    commutative_algebra,
    epistemic_report,
    functor_morphism,
    monoidality_check,
    phase_point_operators,
    wigner_vector,
)
from .tolerances import FUNCTOR_TOL, MODEL_TOL, PBR_TOL, QMEASURE_TOL


def _tolerance(flag: str | None, fallback: float) -> float:
    """--tol, else ONTOKIT_TOL, else the command's default, as linalg admits it."""
    name = "--tol" if flag is not None else "ONTOKIT_TOL"
    raw = flag if flag is not None else os.environ.get(name)
    try:
        return fallback if raw is None else _as_tolerance(float(raw))
    except ValueError:  # unparsable, or refused: a VerificationFailedError is a ValueError
        raise SchemaError(name, f"tolerance must be a finite positive number, got {raw!r}") from None


def _emit(report: dict) -> None:
    sys.stdout.write(dumps_report(report) + "\n")


def _cmd_validate_model(args) -> int:
    tol = _tolerance(args.tol, MODEL_TOL)
    model = parse_model(load_json(args.file))
    validation = validate_model(model, tol=tol)
    verdict = classify_model(model)
    report = {
        "command": "validate-model",
        "tolerance": tol,
        "clean": validation.clean,
        "born_violations": validation.born_violations,
        "sum_rule_violations": validation.sum_rule_violations,
        "classification": {
            "kind": verdict.kind,
            "witness": list(verdict.witness) if verdict.witness else None,
            "witness_overlap": verdict.witness_overlap,
            "witness_distance": verdict.witness_distance,
        },
    }
    _emit(report)
    return 0 if validation.clean else 1


def _cmd_antidist(args) -> int:
    space, dists = parse_ensemble(load_json(args.file))
    cert = antidist_classical(AntidistProblem(tuple(dists), args.target))
    report = {
        "command": "antidist",
        "points": list(space.points),
        "target": args.target,
        "result": "certified" if cert is not None else "REFUTED",
    }
    if cert is not None:
        report["response"] = [float(x) for x in cert.response.values]
        report["residuals"] = {
            "target_weight": cert.residuals[0],
            "rest_weight": cert.residuals[1],
        }
    _emit(report)
    return 0


def _cmd_pbr_demo(args) -> int:
    tol = _tolerance(args.tol, PBR_TOL)
    if args.n is not None:  # refused before the kets are read
        as_positive_int(args.n, "--n")
    psi = parse_ket(load_json(args.psi))
    phi = parse_ket(load_json(args.phi))
    result = pbr_demo(psi, phi, n=args.n, tol=tol)
    report = {
        "command": "pbr-demo",
        "overlap": result.overlap,
        "n": result.n,
        "gamma": result.gamma,
        "pair_labels": list(result.pair_labels),
        "outcome_table": [[float(x) for x in row] for row in result.table],
        "assigned_probabilities": list(result.assigned_probabilities),
        "max_assigned": result.max_assigned,
        "compression_residuals": list(result.compression_residuals),
        "anti_distinguished": result.anti_distinguished,
    }
    _emit(report)
    return 0 if result.anti_distinguished else 1


def _cmd_wigner_frame(args) -> int:
    frame = phase_point_operators(args.n)
    report = {
        "command": "wigner-frame",
        "dim": args.n,
        "points": list(frame.space.points),
        "norm_const": frame.norm_const,
        "operators": matrix_to_json(frame.operators),
    }
    _emit(report)
    return 0


def _cmd_wigner_state(args) -> int:
    psi = parse_ket(load_json(args.file))
    vec = wigner_vector(DensityMatrix.from_ket(psi), phase_point_operators(psi.size))
    if args.csv:
        # a label "(q,p)" holds a comma, so the writer quotes it
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(("point", "weight"))
        out.writerows(
            (label, format(float(w), ".17g")) for label, w in zip(vec.space.points, vec.weights)
        )
        return 0
    report = {
        "command": "wigner-state",
        "dim": psi.size,
        "points": list(vec.space.points),
        "weights": [float(w) for w in vec.weights],
        "min_weight": float(vec.weights.min()),
        "negative": not vec.is_probability,
    }
    _emit(report)
    return 0


def _cmd_wigner_functor_check(args) -> int:
    tol = _tolerance(args.tol, FUNCTOR_TOL)
    as_positive_int(args.trials, "--trials")
    as_positive_int(args.seed, "--seed", zero=True)
    dim = as_positive_int(args.dim, "--dim")
    # the frame first, as `wigner frame` builds it: an even dimension is an
    # EvenDimensionError and a frame too large to allocate a TooLargeError
    phase_point_operators(dim)
    identity = Channel.identity(dim)
    identity_kernel = functor_morphism(identity)
    worst_comp = 0.0
    worst_eval = 0.0
    for trial in range(args.trials):
        rng = rng_for(args.seed, trial)
        f = random_cptp_channel(rng, dim, dim)
        g = random_cptp_channel(rng, dim, dim)
        prep = preparation_channel(random_density(rng, dim))
        meas = measurement_channel(random_effect(rng, dim))
        gf = compose(g, f)
        frag = FunctorFragment(
            channels={"f": f, "g": g, "gf": gf, "id": identity, "state": prep, "meas": meas},
            kernels={
                "f": functor_morphism(f),
                "g": functor_morphism(g),
                "gf": functor_morphism(gf),
                "id": identity_kernel,
                "state": functor_morphism(prep),
                "meas": functor_morphism(meas, out_algebra=commutative_algebra(2)),
            },
        )
        rep = check_operational_model(
            frag, composition_tests=[("g", "f", "gf")], identity_names=["id"],
            evaluation_tests=[("meas", "state")], tol=tol,
        )
        for v in rep.composition_violations + rep.identity_violations:
            worst_comp = max(worst_comp, v["error"])
        for v in rep.evaluation_violations:
            worst_eval = max(worst_eval, abs(v["quantum"] - v["classical"]))
    mono = monoidality_check(dim, dim)
    passed = worst_comp == 0.0 and worst_eval == 0.0 and mono.passed
    report = {
        "command": "wigner-functor-check",
        "dim": dim,
        "trials": args.trials,
        "seed": args.seed,
        "tolerance": tol,
        "max_composition_violation": worst_comp,
        "max_evaluation_violation": worst_eval,
        "monoidality": {"frame_ok": mono.frame_ok},
        "passed": passed,
    }
    _emit(report)
    return 0 if passed else 1


def _cmd_wigner_epistemic(args) -> int:
    psi = parse_ket(load_json(args.psi))
    phi = parse_ket(load_json(args.phi))
    result = epistemic_report(psi, phi)
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
    _emit(report)
    return 0 if result.bound_ok else 1


def _cmd_qmeasure_validate(args) -> int:
    tol = _tolerance(args.tol, QMEASURE_TOL)
    obj = parse_qmeasure_doc(load_json(args.file))
    if isinstance(obj, DecoherenceFunctional):
        rep = validate_decoherence(obj, tol)
        dreport = {
            "command": "qmeasure-validate",
            "kind": "decoherence",
            "tolerance": tol,
            "clean": rep.clean,
            "hermitian_error": rep.hermitian_error,
            "normalisation_error": rep.normalisation_error,
            "min_eigenvalue": rep.min_eigenvalue,
        }
        clean = rep.clean
        if clean:
            q = measure_from_decoherence(obj, tol)
            mreport = validate_quantum_measure(q, tol)
            dreport["derived_measure"] = {
                "clean": mreport.clean,
                "normalisation_error": mreport.normalisation_error,
                "sum_rule_violations": len(mreport.sum_rule_violations),
            }
            clean = clean and mreport.clean
        _emit(dreport)
        return 0 if clean else 1
    mreport = validate_quantum_measure(obj, tol)
    report = {
        "command": "qmeasure-validate",
        "kind": "measure",
        "tolerance": tol,
        "clean": mreport.clean,
        "normalisation_error": mreport.normalisation_error,
        "positivity_violations": mreport.positivity_violations,
        "range_violations": mreport.range_violations,
        "sum_rule_violations": mreport.sum_rule_violations,
    }
    _emit(report)
    return 0 if mreport.clean else 1


SCHEMA_HELP = """
input schemas (numbers are decimal; outputs use 17 significant digits):

  ket       {"dim": n, "amplitudes": [[re, im], ...]}
  matrix    [[[re, im], ...], ...]           (rows of [re, im] pairs)
  ensemble  {"points": [labels], "weights": [[real], ...]}
  model     {"ontic": [labels], "states": [{"label": str, "ket": ket}],
             "distributions": {label: [real]},
             "measurements": [{"basis": [ket, ...], "responses": [[real]]}]}
  qmeasure  {"points": [labels], "decoherence": matrix}
            or {"points": [labels], "measure": {"<bitmask>": real}}, not both

read by the library only (ontokit.serialize), by no command:
  channel   {"in_dim": m, "out_dim": n, "kraus": [matrix, ...],
             "trace_preserving": true}   (only trace-preserving channels)
  kernel    {"from": [labels], "to": [labels], "matrix": [[real]],
             "convention": "column-stochastic"}

labels (points, ontic, from, to and each state's label) are JSON strings.

exit codes: 0 all checks pass, 1 check failure, 2 refused: a schema, IO or usage
error, any other OntokitError the library raises, or an allocation that failed.
--tol, else ONTOKIT_TOL, overrides the default tolerance; it must be finite and > 0.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontokit",
        description=__doc__,
        epilog=SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-model", help="validate an ontological model file")
    p.add_argument("file")
    p.add_argument("--tol", default=None)
    p.set_defaults(func=_cmd_validate_model)

    p = sub.add_parser("antidist", help="decide anti-distinguishability of an ensemble member")
    p.add_argument("file")
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=_cmd_antidist)

    p = sub.add_parser("pbr-demo", help="run the compression + exclusion pipeline")
    p.add_argument("--psi", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tol", default=None)
    p.set_defaults(func=_cmd_pbr_demo)

    w = sub.add_parser("wigner", help="phase-space constructions")
    wsub = w.add_subparsers(dest="wigner_command", required=True)

    p = wsub.add_parser("frame", help="emit the phase-point operators")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_wigner_frame)

    p = wsub.add_parser("state", help="emit a state's Wigner vector")
    p.add_argument("file")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_wigner_state)

    p = wsub.add_parser("functor-check", help="randomised functoriality checks")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tol", default=None)
    p.set_defaults(func=_cmd_wigner_functor_check)

    p = wsub.add_parser("epistemic", help="anti-distinguishability of Wigner images")
    p.add_argument("--psi", required=True)
    p.add_argument("--phi", required=True)
    p.set_defaults(func=_cmd_wigner_epistemic)

    q = sub.add_parser("qmeasure", help="quantum measure validators")
    qsub = q.add_subparsers(dest="qmeasure_command", required=True)
    p = qsub.add_parser("validate", help="validate a measure or decoherence functional")
    p.add_argument("file")
    p.add_argument("--tol", default=None)
    p.set_defaults(func=_cmd_qmeasure_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    except OntokitError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2
    except MemoryError as exc:  # numpy's message names the bytes it could not allocate
        sub = getattr(args, f"{args.command}_command", None)
        command = f"{args.command} {sub}" if sub else args.command
        sys.stderr.write(f"error: TooLargeError: {command}: {str(exc) or 'out of memory'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Frame invariants, functoriality, monoidality, and distance-bound summary.

The monoidality section gives the product-frame certificate at (dim, dim)
and the monoidal law max |T(f (x) g) - T(f) (x) T(g)| over the 3 x 5 product
frame, for one seeded pair of channels.  The distance section tracks the gap
between the trace distance and the scaled l1 distance of the Wigner vectors:
whether the inequality held on every sampled pair (within
``DISTANCE_BOUND_MARGIN``, as ``epistemic_report`` reads it), and by how much
the two sides differ.
"""

import argparse

import numpy as np

from ontokit import linalg
from ontokit.quantum import compose, tensor
from ontokit.sampling import random_cptp_channel, random_density, rng_for
from ontokit.serialize import dumps_report
from ontokit.tolerances import DISTANCE_BOUND_MARGIN
from ontokit.wigner import (
    monoidality_check,
    phase_point_operators,
    product_frame,
    transfer_matrix,
    wigner_vector,
)


def frame_summary(n):
    frame = phase_point_operators(n)
    return {
        "dim": n,
        "operators": frame.n_points,
        "hermitian_residual": frame.residuals.hermitian,
        "orthogonality_residual": frame.residuals.gram,
        "sum_residual": frame.residuals.sum,
    }


def tensor_law(product, f, g, fa, fb):
    """max |T(product) - T(f) (x) T(g)| over the product of frames fa and fb:
    the monoidal law's residual when product is tensor(f, g)."""
    prod = product_frame(fa, fb)
    kron = np.kron(transfer_matrix(f, fa, fa), transfer_matrix(g, fb, fb))
    return linalg.max_abs(transfer_matrix(product, prod, prod) - kron)


def law_pair(seed):
    """The seeded channel pair on C^3 and C^5 that the law is checked on."""
    rng = rng_for(seed, 3, 5)
    return random_cptp_channel(rng, 3, 3), random_cptp_channel(rng, 5, 5)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    frames = [frame_summary(n) for n in (1, 3, 5, 7, 9)]

    frame = phase_point_operators(args.dim)
    worst = 0.0
    for trial in range(args.trials):
        rng = rng_for(args.seed, trial)
        f = random_cptp_channel(rng, args.dim, args.dim)
        g = random_cptp_channel(rng, args.dim, args.dim)
        lhs = transfer_matrix(compose(g, f), frame, frame)
        # T_g T_f as a matrix product, as check_operational_model composes
        rhs = transfer_matrix(g, frame, frame) @ transfer_matrix(f, frame, frame)
        worst = max(worst, linalg.max_abs(lhs - rhs))

    max_rel_gap, min_rel_gap = 0.0, np.inf
    bound_held = True
    for trial in range(args.trials):
        rng = rng_for(args.seed, 1000 + trial)
        rho = random_density(rng, args.dim)
        tau = random_density(rng, args.dim)
        tdist = 0.5 * linalg.trace_norm(rho.matrix - tau.matrix)
        l1 = float(np.sum(np.abs(
            wigner_vector(rho, frame).weights - wigner_vector(tau, frame).weights
        )))
        scaled = 0.5 * args.dim * l1
        bound_held = bound_held and bool(tdist <= scaled + DISTANCE_BOUND_MARGIN)
        if tdist > 0:
            max_rel_gap = max(max_rel_gap, (scaled - tdist) / tdist)
            min_rel_gap = min(min_rel_gap, (scaled - tdist) / tdist)

    mono = monoidality_check(args.dim, args.dim)
    f, g = law_pair(args.seed)
    law = tensor_law(tensor(f, g), f, g, phase_point_operators(3), phase_point_operators(5))
    print(dumps_report({
        "frames": frames,
        "functoriality": {"trials": args.trials, "max_residual": worst},
        "monoidality": {
            "frame_ok": mono.frame_ok,
            "tensor_law_residual_3x5": law,
        },
        "distance_bound": {
            "trials": args.trials,
            "max_relative_gap": max_rel_gap,
            "min_relative_gap": float(min_rel_gap),
            "bound_always_held": bound_held,
        },
    }))


if __name__ == "__main__":
    main()

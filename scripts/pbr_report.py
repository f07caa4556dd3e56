#!/usr/bin/env python3
"""Run the compression + exclusion pipeline and print the full report.

Reproduces the canonical |0>, |+> table, then a batch of random pairs with
auto-selected tensor powers.
"""

import argparse

import numpy as np

from ontokit.antidist import pbr_demo
from ontokit.sampling import random_nonorthogonal_pair, rng_for
from ontokit.serialize import dumps_report


def report_dict(rep):
    return {
        "overlap": rep.overlap,
        "n": rep.n,
        "gamma": rep.gamma,
        "pair_labels": list(rep.pair_labels),
        "outcome_table": [[float(x) for x in row] for row in rep.table],
        "assigned_probabilities": list(rep.assigned_probabilities),
        "max_assigned": rep.max_assigned,
        "anti_distinguished": rep.anti_distinguished,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--min-overlap", type=float, default=0.1)
    parser.add_argument("--max-overlap", type=float, default=0.95)
    args = parser.parse_args()

    inv = 1.0 / np.sqrt(2.0)
    canonical = pbr_demo(np.array([1, 0], dtype=complex), np.array([inv, inv], dtype=complex))
    batch = []
    for trial in range(args.pairs):
        rng = rng_for(args.seed, trial)
        psi, phi, overlap = random_nonorthogonal_pair(
            rng, 2, args.min_overlap, args.max_overlap
        )
        rep = pbr_demo(psi, phi)
        batch.append(
            {"trial": trial, "overlap": overlap, "n": rep.n,
             "max_assigned": rep.max_assigned, "anti_distinguished": rep.anti_distinguished}
        )
    print(dumps_report({
        "canonical": report_dict(canonical),
        "random_pairs": batch,
        "all_anti_distinguished": all(b["anti_distinguished"] for b in batch),
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Write example input files for the CLI into a target directory."""

import argparse
import pathlib

import numpy as np

from ontokit.serialize import dumps_report, ket_to_json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="example_inputs")
    args = parser.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    inv = 1.0 / np.sqrt(2.0)
    files = {
        "zero.json": ket_to_json(np.array([1, 0], dtype=complex)),
        "plus.json": ket_to_json(np.array([inv, inv], dtype=complex)),
        "qutrit_zero.json": ket_to_json(np.array([1, 0, 0], dtype=complex)),
        "qutrit_superposition.json": ket_to_json(np.array([inv, inv, 0], dtype=complex)),
        # the Fourier ket (1, w, w^2)/sqrt(3), w = exp(2 pi i / 3): a stabilizer state
        "qutrit_fourier.json": ket_to_json(np.exp(2j * np.pi * np.arange(3) / 3) / np.sqrt(3)),
        "ensemble_disjoint.json": {
            "points": ["a", "b", "c"],
            "weights": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],
        },
        "ensemble_overlapping.json": {
            "points": ["a", "b", "c"],
            "weights": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
        },
        "model_epistemic.json": {
            "ontic": ["a", "b", "c"],
            "states": [
                {"label": "zero", "ket": ket_to_json(np.array([1, 0], dtype=complex))},
                {"label": "plus", "ket": ket_to_json(np.array([inv, inv], dtype=complex))},
            ],
            "distributions": {"zero": [0.5, 0.5, 0.0], "plus": [0.5, 0.0, 0.5]},
            "measurements": [
                {
                    "basis": [
                        ket_to_json(np.array([1, 0], dtype=complex)),
                        ket_to_json(np.array([0, 1], dtype=complex)),
                    ],
                    "responses": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                }
            ],
        },
        "double_slit.json": {
            "points": ["a", "b"],
            "decoherence": [
                [[1.0, 0.0], [-0.5, -np.sqrt(3) / 2]],
                [[-0.5, np.sqrt(3) / 2], [1.0, 0.0]],
            ],
        },
    }
    for name, doc in files.items():
        (out / name).write_text(dumps_report(doc) + "\n")
        print(f"wrote {out / name}")


if __name__ == "__main__":
    main()

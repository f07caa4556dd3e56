"""JSON schemas for states, channels, kernels, models, and reports.

Schemas (all numbers decimal, 17 significant digits on output so that
float64 round-trips are bit exact):

* ket       {"dim": n, "amplitudes": [[re, im], ...]}
* matrix    [[[re, im], ...], ...]  (rows of [re, im] pairs)
* channel   {"in_dim": m, "out_dim": n, "kraus": [matrix, ...],
             "trace_preserving": bool}
* kernel    {"from": [labels], "to": [labels], "matrix": [[real]],
             "convention": "column-stochastic"}
* ensemble  {"points": [labels], "weights": [[real], ...]}
* model     {"ontic": [labels], "states": [{"label": str, "ket": ket}],
             "distributions": {label: [real]},
             "measurements": [{"basis": [ket, ...], "responses": [[real]]}]}
* qmeasure  {"points": [labels], "decoherence": matrix}
            or {"points": [labels], "measure": {"<bitmask>": real}}
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import SchemaError
from .kernels import Distribution, FiniteSpace, ResponseFunction, SignedKernel
from .ontomodel import OntModel
from .qmeasure import DecoherenceFunctional, QuantumMeasure
from .quantum import Channel, ProjectiveMeasurement


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("cannot serialise non-finite float")
    return format(float(x), ".17g")


def dumps_report(obj: Any, indent: int = 0) -> str:
    """Render JSON with every float at 17 significant digits.

    Dictionary order is preserved, so reports are byte-identical across
    runs with the same inputs and seed.
    """
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return dumps_report(obj.tolist(), indent)
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {dumps_report(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{dumps_report(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray) -> list:
    return [[complex_pair(z) for z in row] for row in np.asarray(m, dtype=complex)]


def ket_to_json(psi: np.ndarray) -> dict:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return {"dim": int(psi.size), "amplitudes": [complex_pair(z) for z in psi]}


def channel_to_json(ch: Channel) -> dict:
    return {
        "in_dim": ch.in_dim,
        "out_dim": ch.out_dim,
        "kraus": [matrix_to_json(k) for k in ch.kraus],
        "trace_preserving": ch.trace_preserving,
    }


def kernel_to_json(k: SignedKernel) -> dict:
    return {
        "from": list(k.source.points),
        "to": list(k.target.points),
        "matrix": [[float(x) for x in row] for row in k.matrix],
        "convention": "column-stochastic",
    }


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _need(doc: dict, field: str, context: str = ""):
    if not isinstance(doc, dict) or field not in doc:
        raise SchemaError(context + field, "missing required field")
    return doc[field]


def _pair_to_complex(v, field: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) for x in v)
    ):
        raise SchemaError(field, "expected a [re, im] number pair")
    return complex(v[0], v[1])


def parse_matrix(doc, field: str = "matrix") -> np.ndarray:
    if not isinstance(doc, list) or not doc:
        raise SchemaError(field, "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(doc):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{field}[{i}]", "expected a nonempty row")
        rows.append([_pair_to_complex(v, f"{field}[{i}][{j}]") for j, v in enumerate(row)])
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SchemaError(field, "ragged rows")
    return np.array(rows, dtype=complex)


def parse_ket(doc) -> np.ndarray:
    dim = _need(doc, "dim")
    amps = _need(doc, "amplitudes")
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError("dim", "expected a positive integer")
    if not isinstance(amps, list) or len(amps) != dim:
        raise SchemaError("amplitudes", f"expected {dim} amplitude pairs")
    psi = np.array([_pair_to_complex(v, f"amplitudes[{i}]") for i, v in enumerate(amps)])
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise SchemaError("amplitudes", f"ket norm {nrm!r} deviates from 1")
    return psi


def parse_channel(doc) -> Channel:
    in_dim = _need(doc, "in_dim")
    out_dim = _need(doc, "out_dim")
    kraus_doc = _need(doc, "kraus")
    tp = _need(doc, "trace_preserving")
    if not isinstance(kraus_doc, list) or not kraus_doc:
        raise SchemaError("kraus", "expected a nonempty list of matrices")
    ops = [parse_matrix(m, f"kraus[{i}]") for i, m in enumerate(kraus_doc)]
    for i, k in enumerate(ops):
        if k.shape != (out_dim, in_dim):
            raise SchemaError(f"kraus[{i}]", f"shape {k.shape} != ({out_dim}, {in_dim})")
    try:
        return Channel(tuple(ops), trace_preserving=bool(tp))
    except ValueError as exc:
        raise SchemaError("kraus", str(exc)) from exc


def parse_kernel(doc) -> SignedKernel:
    src = _need(doc, "from")
    dst = _need(doc, "to")
    mat = _need(doc, "matrix")
    convention = doc.get("convention", "column-stochastic")
    if convention != "column-stochastic":
        raise SchemaError("convention", f"unsupported convention {convention!r}")
    if not isinstance(src, list) or not isinstance(dst, list):
        raise SchemaError("from", "expected label lists")
    m = np.asarray(mat, dtype=float)
    try:
        return SignedKernel(
            FiniteSpace(tuple(src)), FiniteSpace(tuple(dst)), m,
            entry_bound=max(1.0, float(np.max(np.abs(m)))),
        )
    except Exception as exc:
        raise SchemaError("matrix", str(exc)) from exc


def _space(labels, field: str) -> FiniteSpace:
    if not isinstance(labels, list) or not labels:
        raise SchemaError(field, "expected a nonempty label list")
    try:
        return FiniteSpace(tuple(labels))
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from exc


def parse_ensemble(doc) -> tuple[FiniteSpace, list[Distribution]]:
    points = _need(doc, "points")
    weights = _need(doc, "weights")
    space = _space(points, "points")
    if not isinstance(weights, list) or not weights:
        raise SchemaError("weights", "expected a nonempty list of weight vectors")
    dists = []
    for i, w in enumerate(weights):
        try:
            dists.append(Distribution(space, np.asarray(w, dtype=float)))
        except Exception as exc:
            raise SchemaError(f"weights[{i}]", str(exc)) from exc
    return space, dists


def parse_model(doc) -> OntModel:
    ontic_labels = _need(doc, "ontic")
    states_doc = _need(doc, "states")
    dists_doc = _need(doc, "distributions")
    meas_doc = _need(doc, "measurements")
    ontic = _space(ontic_labels, "ontic")
    for name, value in (("states", states_doc), ("measurements", meas_doc)):
        if not isinstance(value, list):
            raise SchemaError(name, "expected a list")
    states = []
    for i, s in enumerate(states_doc):
        label = _need(s, "label", f"states[{i}].")
        states.append((str(label), parse_ket(_need(s, "ket", f"states[{i}]."))))
    distributions = {}
    if not isinstance(dists_doc, dict):
        raise SchemaError("distributions", "expected a label-to-weights map")
    for label, w in dists_doc.items():
        try:
            distributions[label] = Distribution(ontic, np.asarray(w, dtype=float))
        except Exception as exc:
            raise SchemaError(f"distributions[{label}]", str(exc)) from exc
    measurements = []
    for i, m in enumerate(meas_doc):
        basis = _need(m, "basis", f"measurements[{i}].")
        responses = _need(m, "responses", f"measurements[{i}].")
        try:
            pm = ProjectiveMeasurement(np.array([parse_ket(b) for b in basis]))
        except Exception as exc:
            raise SchemaError(f"measurements[{i}].basis", str(exc)) from exc
        if not isinstance(responses, list) or len(responses) != pm.n_outcomes:
            raise SchemaError(
                f"measurements[{i}].responses",
                f"expected {pm.n_outcomes} response vectors",
            )
        try:
            packed = tuple(
                ResponseFunction(ontic, np.asarray(r, dtype=float)) for r in responses
            )
        except Exception as exc:
            raise SchemaError(f"measurements[{i}].responses", str(exc)) from exc
        measurements.append((pm, packed))
    try:
        return OntModel(ontic, tuple(states), distributions, tuple(measurements))
    except Exception as exc:
        raise SchemaError("model", str(exc)) from exc


def parse_qmeasure_doc(doc) -> QuantumMeasure | DecoherenceFunctional:
    points = _need(doc, "points")
    space = _space(points, "points")
    if "decoherence" in doc:
        try:
            return DecoherenceFunctional(space, parse_matrix(doc["decoherence"], "decoherence"))
        except SchemaError:
            raise
        except Exception as exc:
            raise SchemaError("decoherence", str(exc)) from exc
    if "measure" in doc:
        table = doc["measure"]
        if not isinstance(table, dict):
            raise SchemaError("measure", "expected a bitmask-to-value map")
        values = np.zeros(2 ** space.size)
        seen = np.zeros(2 ** space.size, dtype=bool)
        for key, v in table.items():
            try:
                mask = int(key)
            except ValueError as exc:
                raise SchemaError(f"measure[{key}]", "bitmask keys must be integers") from exc
            if not 0 <= mask < 2 ** space.size:
                raise SchemaError(f"measure[{key}]", "bitmask out of range")
            try:
                values[mask] = float(v)
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"measure[{key}]", f"expected a real number, got {v!r}") from exc
            seen[mask] = True
        if not seen.all():
            raise SchemaError("measure", "values must cover every subset bitmask")
        try:
            return QuantumMeasure(space, values)
        except Exception as exc:
            raise SchemaError("measure", str(exc)) from exc
    raise SchemaError("measure", "document needs either 'decoherence' or 'measure'")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(path, "file not found") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from exc

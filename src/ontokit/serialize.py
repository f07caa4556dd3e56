"""JSON schemas for states, channels, kernels, models, and reports.

The input schemas are those ``ontokit --help`` lists (``cli.SCHEMA_HELP``);
all numbers are decimal, with 17 significant digits on output so that
float64 round-trips are bit exact (``dumps_report`` says how it writes them).

The readers check structure only: fields, types, shapes, and labels that
are JSON strings.  Every numerical check (ket norms, weight sums, signs,
Kraus sums) is the library's, run once by the constructor of the object
read, through ``_named``, which names the field from the part and row that
a failed check reports; this module imports no threshold.
"""

from __future__ import annotations

import json
from functools import lru_cache, reduce
from json.encoder import encode_basestring_ascii
from operator import countOf, iadd, setitem
from typing import Any

import numpy as np

from . import linalg
from .errors import SchemaError, VerificationFailedError
from .kernels import (
    Distribution,
    FiniteSpace,
    SignedKernel,
    _check_response_rows,
    _check_weight_rows,
    _signed,
    distribution_rows,
)
from .ontomodel import OntModel
from .qmeasure import DecoherenceFunctional, QuantumMeasure, check_size
from .quantum import Channel, ProjectiveMeasurement


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("cannot serialise non-finite float")
    return format(float(x), ".17g")


def _list_text(items, inner: str, pad: str) -> str:
    """A JSON list of already formatted items, one per line."""
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _table_template(rows, indent: int) -> str:
    """The text of a list of ``rows`` at ``indent``, each row a list of
    float slots such as "%.17g"."""
    inner = " " * (indent + 2)
    return _list_text([_list_text(row, "  " + inner, inner) for row in rows], inner, " " * indent)


_SPLIT = 134217729.0  # 2**27 + 1


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of float64 ``v`` into a 26-bit high half and the exact rest."""
    t = _SPLIT * v
    hi = t - (t - v)
    return hi, v - hi


# The bucket of |x| is the count of bounds below it: 2 to 5 hold (1e-4, 1e-3]
# ... (0.1, 1], whose 17 digits are |x| * 10^20 ... |x| * 10^17.  Each scale
# is an exact power of ten, kept with its halves; the other buckets scale by 0.
_BOUNDS = np.array([0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0])
_SCALE = np.array([0.0, 0.0, 1e20, 1e19, 1e18, 1e17, 0.0])
_SCALES = np.stack([_SCALE, *_split(_SCALE)], axis=1)
_TENS = np.array([10 ** 16, 10 ** 8, 10 ** 4, 10 ** 2, 10], dtype=np.int64)
# slot 0 is "%.17g" over the float, the others "%d" over digits
_SLOTS = np.array(
    ["%.17g"]
    + [sign + body for sign in ("", "-") for body in ("0.000%d", "0.00%d", "0.0%d", "0.%d")],
    dtype=object,
)
# the slot of bucket + 7 * sign bit
_SLOT_OF = np.array([0, 0, 1, 2, 3, 4, 0, 0, 0, 5, 6, 7, 8, 0])


def _exact_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each entry of ``x`` with 1e-4 < |x| < 1,
    rounded half to even, less their trailing zeros; whether they are exact;
    and the bucket of each entry.

    An entry x with 1e-4 < |x| < 1 has a decimal exponent e in [-4, -1], and
    "%.17g" spells it as its sign, "0.", -e - 1 zeros and the 17 digits D of
    y = |x| * 10^(16 - e) rounded half to even, less their trailing zeros.
    The scale 10^(16 - e) is an exact double, and Dekker's two-product gives
    y == p + err exactly.  Where D = p + rint(err) lies strictly between
    10^16 and 10^17, p > 2^53 is an even integer, so D is y rounded half to
    even, and 10^16 < y < 10^17 confirms e.  Everywhere else D is not used:
    |x| >= 1, |x| <= 1e-4, NaN and +-inf, and a D that misses the range
    because the bucket picked for e was one off.
    """
    ax = np.fmin(np.abs(x), 2.0)  # NaN and +-inf land in bucket 6, with |x| > 1
    bucket = np.searchsorted(_BOUNDS, ax)
    s, sh, sl = _SCALES.take(bucket, axis=0).T
    # Dekker's two-product: |x| * s == p + err exactly
    p = ax * s
    xh, xl = _split(ax)
    err = xl * sl - (((p - xh * sh) - xl * sh) - xh * sl)
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    exact = (digits > 10 ** 16) & (digits < 10 ** 17)
    ends = np.flatnonzero(exact & (digits % 10 == 0))
    if ends.size:
        d = digits[ends]
        for ten in _TENS:
            np.floor_divide(d, ten, out=d, where=d % ten == 0)
        digits[ends] = d
    return digits, exact, bucket


def _table_slots(a: np.ndarray, indent: int) -> tuple[str, tuple]:
    """The template and values of a nonempty 2-d float64 array at ``indent``.

    An entry with exact digits (see ``_exact_digits``) gets a "%d" slot over
    them after its sign, "0." and its zeros.  Every other entry keeps a
    "%.17g" slot over its float.  So the bytes are those of "%.17g" entry by
    entry, and a non-finite entry still formats as "inf" or "nan".
    """
    x = a.ravel()
    digits, ok, bucket = _exact_digits(x)
    code = np.where(ok, _SLOT_OF.take(bucket + 7 * np.signbit(x)), 0).reshape(a.shape)
    values = digits.astype(object)
    values[~ok] = x[~ok]
    return _table_template(_SLOTS.take(code).tolist(), indent), tuple(values.tolist())


def dumps_report(obj: Any, indent: int = 0) -> str:
    """Render JSON with every float at 17 significant digits.

    Dictionary order is preserved, so reports are byte-identical across
    runs with the same inputs and seed.  A list of plain floats and a list
    of equal-length list or tuple rows of plain floats are formatted with
    one ``%`` over a "%.17g" template of their shape.  A nonempty 2-d
    float64 array is formatted with one ``%`` over "%d" slots for the
    exactly rounded 17 digits of its entries in (1e-4, 1) in magnitude,
    and "%.17g" slots for the rest (see ``_table_slots``).
    Lists of strings and dict keys go through json's C string encoder;
    other values go one call each.  The bytes are those of emitting value
    by value.
    """
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{encode_basestring_ascii(str(k))}: {dumps_report(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim != 2 or obj.size == 0:
            return dumps_report(obj.tolist(), indent)
        template, values = _table_slots(obj, indent)
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        types = set(map(type, obj))
        if types == {str}:
            return _list_text(map(encode_basestring_ascii, obj), inner, pad)
        if types == {float}:
            values = tuple(obj)
            template = _list_text(["%.17g"] * len(obj), inner, pad)
        else:
            values = ()
            if types <= {list, tuple} and len(set(map(len, obj))) == 1:
                # iadd extends the new list only; twice as fast as itertools.chain
                values = tuple(reduce(iadd, obj, []))
            if not values or countOf(map(type, values), float) != len(values):
                return _list_text([dumps_report(v, indent + 2) for v in obj], inner, pad)
            template = _table_template([["%.17g"] * len(obj[0])] * len(obj), indent)
    else:
        raise TypeError(f"cannot serialise {type(obj)!r}")
    text = template % values
    # "%.17g" spells a finite float with digits, ".", "e", "+" and "-" only,
    # and a non-finite one as "inf" or "nan"
    if "n" in text:
        raise ValueError("cannot serialise non-finite float")
    return text


def matrix_to_json(m: np.ndarray) -> list:
    """Rows of [re, im] pairs; a stack of matrices gives one list per matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def ket_to_json(psi: np.ndarray) -> dict:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return {"dim": int(psi.size), "amplitudes": matrix_to_json(psi)}


def kernel_to_json(k: SignedKernel) -> dict:
    """The kernel schema for :func:`dumps_report`: ``matrix`` is the
    kernel's float64 matrix itself, which ``dumps_report`` emits as rows of
    numbers, so the result is not an input for ``json.dumps``."""
    return {
        "from": list(k.source.points),
        "to": list(k.target.points),
        "matrix": k.matrix,
        "convention": "column-stochastic",
    }


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _need(doc: dict, field: str, context: str = ""):
    if not isinstance(doc, dict) or field not in doc:
        raise SchemaError(context + field, "missing required field")
    return doc[field]


def _named(field, build, *args):
    """``build(*args)``, with a fault in it named as ``field``, or as
    ``field(part, row)`` of the failed check (see ``VerificationFailedError``)
    when ``field`` is a function: any exception becomes a SchemaError."""
    try:
        return build(*args)
    except Exception as exc:
        if callable(field):
            field = field(getattr(exc, "part", None), getattr(exc, "row", None))
        raise SchemaError(field, str(exc)) from exc


def _number_array(doc) -> np.ndarray | None:
    """A regular nested list of JSON numbers (bool, int or float) as one
    float array, or None when ``doc`` is anything else."""
    try:
        arr = linalg._as_array(doc, "document")
    except (VerificationFailedError, OverflowError):
        return None
    return None if arr.dtype.kind == "c" else arr.astype(float, copy=False)


def _pairs_array(doc, ndim: int) -> np.ndarray | None:
    """A nonempty list of ``ndim - 1`` nested levels of [re, im] pairs as a
    complex array (the float pairs viewed in place), or None."""
    arr = _number_array(doc)
    if arr is None or arr.ndim != ndim or arr.shape[-1] != 2 or arr.size == 0:
        return None
    return arr.view(complex).reshape(arr.shape[:-1])


def _real_array(doc, field: str) -> np.ndarray:
    """A list (of lists) of real numbers as a float array.  A non-number
    entry (a string, null, a map) is named by its index; lists nested
    deeper than numpy's 64 dimensions, and ragged lists, are refused as a
    whole."""
    arr = _number_array(doc)
    if arr is not None:
        return arr
    if _reject_non_numbers(doc, field) > 64:
        raise SchemaError(field, "nested more than 64 levels deep")
    try:
        return np.asarray(doc, dtype=float)
    except OverflowError as exc:
        raise SchemaError(field, str(exc)) from exc
    except ValueError as exc:
        raise SchemaError(field, "ragged lists: entries differ in length or depth") from exc


def _reject_non_numbers(doc, field: str) -> int:
    """Name the first entry that is not a number; return the nesting depth."""
    if isinstance(doc, list):
        depth = 0
        for i, v in enumerate(doc):  # one frame per level, as deep as json.load reads
            depth = max(depth, _reject_non_numbers(v, f"{field}[{i}]"))
        return depth + 1
    if not isinstance(doc, (int, float)):
        raise SchemaError(field, f"expected a number, got {doc!r}")
    return 0


def _pair_to_complex(v, field: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) for x in v)
    ):
        raise SchemaError(field, "expected a [re, im] number pair")
    return _named(field, complex, v[0], v[1])


def parse_matrix(doc, field: str = "matrix") -> np.ndarray:
    if isinstance(doc, list) and all(isinstance(row, list) for row in doc):
        m = _pairs_array(doc, 3)
        if m is not None:
            return m
    # entry by entry, to name what is malformed
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


def _ket_amplitudes(doc, place: str) -> np.ndarray:
    """A ket document's amplitudes, norm unchecked, its fields named after ``place``."""
    dim = _need(doc, "dim", place)
    amps = _need(doc, "amplitudes", place)
    _named(place + "dim", linalg.as_positive_int, dim, "dimension")
    if not isinstance(amps, list) or len(amps) != dim:
        raise SchemaError(place + "amplitudes", f"expected {dim} amplitude pairs")
    psi = _pairs_array(amps, 2)
    if psi is None:
        # entry by entry, to name what is malformed
        psi = np.array([_pair_to_complex(v, f"{place}amplitudes[{i}]") for i, v in enumerate(amps)])
    return psi


def parse_ket(doc) -> np.ndarray:
    """A ket document as a unit vector."""
    return _named("amplitudes", linalg.as_ket, _ket_amplitudes(doc, ""))


def parse_channel(doc) -> Channel:
    in_dim = _need(doc, "in_dim")
    out_dim = _need(doc, "out_dim")
    kraus_doc = _need(doc, "kraus")
    if _need(doc, "trace_preserving") is not True:
        raise SchemaError("trace_preserving", "only trace-preserving channels are accepted")
    _named("in_dim", linalg.as_positive_int, in_dim, "input dimension")
    _named("out_dim", linalg.as_positive_int, out_dim, "output dimension")
    if not isinstance(kraus_doc, list) or not kraus_doc:
        raise SchemaError("kraus", "expected a nonempty list of matrices")
    ops = None
    if all(isinstance(m, list) and all(isinstance(row, list) for row in m) for m in kraus_doc):
        ops = _pairs_array(kraus_doc, 4)
    if ops is None:
        # matrix by matrix, to name the first that is malformed
        ops = [parse_matrix(m, f"kraus[{i}]") for i, m in enumerate(kraus_doc)]
    for i, k in enumerate(ops):
        if k.shape != (out_dim, in_dim):
            raise SchemaError(f"kraus[{i}]", f"shape {k.shape} != ({out_dim}, {in_dim})")
    return _named("kraus", Channel, ops)


def parse_kernel(doc) -> SignedKernel:
    src = _need(doc, "from")
    dst = _need(doc, "to")
    mat = _need(doc, "matrix")
    convention = doc.get("convention", "column-stochastic")
    if convention != "column-stochastic":
        raise SchemaError("convention", f"unsupported convention {convention!r}")
    if not isinstance(src, list) or not isinstance(dst, list):
        raise SchemaError("from", "expected label lists")
    source, target = _space(src, "from"), _space(dst, "to")
    return _named("matrix", SignedKernel, source, target, _real_array(mat, "matrix"))


def _label(value, field: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(field, f"expected a string label, got {value!r}")
    return value


def _space(labels, field: str) -> FiniteSpace:
    if not isinstance(labels, list) or not labels:
        raise SchemaError(field, "expected a nonempty label list")
    if set(map(type, labels)) != {str}:
        for i, label in enumerate(labels):
            _label(label, f"{field}[{i}]")
    return _named(field, FiniteSpace, tuple(labels))


def _number_rows(docs: list, name: str, keys, space: FiniteSpace, check, part=None) -> np.ndarray:
    """Flat rows of numbers as one (rows x points) float array: a regular list
    with one call, else row by row, a malformed row or entry named after
    ``name[key]``; a row of another length fails ``check``, as ``part`` or ``name[key]``."""
    w = _number_array(docs)
    if w is not None and w.ndim == 2 and w.shape[1] == space.size:
        return w
    rows = [_real_array(row, f"{name}[{key}]") for key, row in zip(keys, docs)]
    for key, row in zip(keys, rows):
        if row.ndim != 1:  # a bare number, or a list of lists
            raise SchemaError(f"{name}[{key}]", "expected a flat list of numbers")
        if row.size != space.size:
            _named(part or f"{name}[{key}]", check, space, row[None])
    return np.array(rows).reshape(len(rows), space.size)


def parse_ensemble(doc) -> tuple[FiniteSpace, list[Distribution]]:
    points = _need(doc, "points")
    weights = _need(doc, "weights")
    space = _space(points, "points")
    if not isinstance(weights, list) or not weights:
        raise SchemaError("weights", "expected a nonempty list of weight vectors")
    w = _number_rows(weights, "weights", range(len(weights)), space, _check_weight_rows)
    return space, _named(lambda part, row: f"weights[{row}]", distribution_rows, space, w)


def _kets(docs: list, place: str, mismatch) -> np.ndarray:
    """Ket documents' amplitudes as the rows of one complex array: one call if
    all are regular and of one dimension, else ket by ket, ket i named after
    ``place.format(i)``; a ket of another dimension raises ``mismatch(i, dim, first)``."""
    if all(isinstance(d, dict) and type(d.get("dim")) is int
           and isinstance(d.get("amplitudes"), list) for d in docs):
        kets = _pairs_array([d["amplitudes"] for d in docs], 3)
        if kets is not None and all(d["dim"] == kets.shape[1] for d in docs):
            return kets
    kets = [_ket_amplitudes(d, place.format(i)) for i, d in enumerate(docs)]
    for i, k in enumerate(kets):
        if k.size != kets[0].size:
            raise mismatch(i, k.size, kets[0].size)
    return np.array(kets)


def _model_measurement(
    ontic: FiniteSpace, doc, place: str
) -> tuple[ProjectiveMeasurement, np.ndarray]:
    """A measurement's basis, checked as it is read, and its response rows."""
    basis = _need(doc, "basis", place + ".")
    responses = _need(doc, "responses", place + ".")
    if not isinstance(basis, list):
        raise SchemaError(f"{place}.basis", "expected a list of kets")
    vectors = _kets(basis, place + ".basis[{}].",
                    lambda *_: SchemaError(f"{place}.basis", "kets have different dimensions"))
    pm = _named(lambda part, row: f"{place}.basis" + ("" if row is None else f"[{row}].amplitudes"),
                ProjectiveMeasurement, vectors)
    at = f"{place}.responses"
    if not isinstance(responses, list) or len(responses) != pm.n_outcomes:
        raise SchemaError(at, f"expected {pm.n_outcomes} response vectors")
    return pm, _number_rows(responses, at, range(pm.n_outcomes), ontic, _check_response_rows, at)


def parse_model(doc) -> OntModel:
    """A model document read as matrices.  The reader checks its structure, its
    bases and the distribution rows no state names; ``OntModel`` checks every
    other number once, and its failing part and row name the field."""
    ontic_labels = _need(doc, "ontic")
    states_doc = _need(doc, "states")
    dists_doc = _need(doc, "distributions")
    meas_doc = _need(doc, "measurements")
    ontic = _space(ontic_labels, "ontic")
    for name, value in (("states", states_doc), ("measurements", meas_doc)):
        if not isinstance(value, list):
            raise SchemaError(name, "expected a list")
    try:  # one pass when every state is well formed
        labels = [s["label"] for s in states_doc]
        ket_docs = [s["ket"] for s in states_doc]
    except (KeyError, TypeError):
        labels = None
    if labels is None or set(map(type, labels)) != {str}:
        # state by state, to name the first malformed one
        labels = [_label(_need(s, "label", f"states[{i}]."), f"states[{i}].label")
                  for i, s in enumerate(states_doc)]
        ket_docs = [_need(s, "ket", f"states[{i}].") for i, s in enumerate(states_doc)]
    kets = _kets(
        ket_docs, "states[{}].ket.",
        lambda i, dim, first: SchemaError(
            "model", f"state {labels[i]!r} has dimension {dim}, expected {first}"),
    )
    if not isinstance(dists_doc, dict):
        raise SchemaError("distributions", "expected a label-to-weights map")
    keys = list(dists_doc)
    weights = _number_rows([*dists_doc.values()], "distributions", keys, ontic, _check_weight_rows)
    measurements = tuple(
        _model_measurement(ontic, m, f"measurements[{i}]") for i, m in enumerate(meas_doc)
    )
    row_of = {key: i for i, key in enumerate(keys)}
    for lab in labels:
        if lab not in row_of:
            raise SchemaError("model", f"state {lab!r} has no distribution")
    named = set(labels)
    extra = [key for key in keys if key not in named]
    if extra:
        unnamed = weights[[row_of[key] for key in extra]]
        _named(lambda part, row: f"distributions[{extra[row]}]", _check_weight_rows, ontic, unnamed)
        for key, signed in zip(extra, _signed(unnamed, axis=1).tolist()):
            if signed:
                raise SchemaError(f"distributions[{key}]", "distribution is signed")

    def field(part, row):
        if part == "kets":
            return f"states[{row}].ket.amplitudes"
        if part == "weights":
            return f"distributions[{labels[row]}]"
        return f"{part}.responses" if part else "model"

    rows = weights[[row_of[lab] for lab in labels]]
    return _named(field, OntModel, ontic, tuple(labels), kets, rows, measurements)


@lru_cache(maxsize=None)
def _mask_keys(n: int) -> tuple[tuple[str, ...], frozenset[str]]:
    """The bitmask keys "0" ... str(2^n - 1) of a full measure table, in
    mask order and as a set."""
    keys = tuple(map(str, range(2 ** n)))
    return keys, frozenset(keys)


def _measure_values(table: dict, n: int) -> np.ndarray:
    """The 2^n values of a measure table in mask order.  A table keyed by
    exactly "0" ... str(2^n - 1) whose values are all numbers is read as
    one array."""
    keys, key_set = _mask_keys(n)
    if table.keys() == key_set:
        values = _number_array([table[k] for k in keys])
        if values is not None and values.ndim == 1:
            return values
    # key by key, to name the first malformed key or value
    values = np.zeros(2 ** n)
    for key, v in table.items():
        try:
            mask = int(key)
        except ValueError as exc:
            raise SchemaError(f"measure[{key}]", "bitmask keys must be integers") from exc
        if key != str(mask):
            # one spelling per mask, so that no key overwrites another
            raise SchemaError(f"measure[{key}]", f"bitmask key must be written {str(mask)!r}")
        _named(f"measure[{key}]", linalg._as_index, mask, 2 ** n, "bitmask", "a power set of {}")
        if not isinstance(v, (int, float)):
            raise SchemaError(f"measure[{key}]", f"expected a real number, got {v!r}")
        _named(f"measure[{key}]", setitem, values, mask, v)  # an int past the float range overflows
    if len(table) != 2 ** n:  # each key is a distinct mask in range: the count decides coverage
        raise SchemaError("measure", "values must cover every subset bitmask")
    return values


def parse_qmeasure_doc(doc) -> QuantumMeasure | DecoherenceFunctional:
    points = _need(doc, "points")
    space = _space(points, "points")
    if "decoherence" in doc and "measure" in doc:
        raise SchemaError("measure", "document needs either 'decoherence' or 'measure', not both")
    if "decoherence" in doc:
        check_size(space.size)  # before the n x n matrix is parsed
        matrix = parse_matrix(doc["decoherence"], "decoherence")
        return _named("decoherence", DecoherenceFunctional, space, matrix)
    if "measure" in doc:
        table = doc["measure"]
        if not isinstance(table, dict):
            raise SchemaError("measure", "expected a bitmask-to-value map")
        check_size(space.size)  # before the 2^n table is allocated
        return _named("measure", QuantumMeasure, space, _measure_values(table, space.size))
    raise SchemaError("measure", "document needs either 'decoherence' or 'measure'")


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(path, "file not found") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(path, "document nested too deeply to read") from exc

"""JSON schema round-trips and the 17-significant-digit emitter."""

import json

import numpy as np
import pytest

from ontokit.errors import SchemaError
from ontokit.kernels import FiniteSpace, SignedKernel
from ontokit.ontomodel import dirac_restriction_model
from ontokit.quantum import Channel, ProjectiveMeasurement
from ontokit.sampling import random_cptp_channel, random_ket, rng_for
from ontokit.serialize import (
    channel_to_json,
    dumps_report,
    kernel_to_json,
    ket_to_json,
    parse_channel,
    parse_ensemble,
    parse_kernel,
    parse_ket,
    parse_matrix,
    parse_model,
    parse_qmeasure_doc,
)
from ontokit.wigner import functor_morphism


def recursive_dumps_oracle(obj, indent=0):
    """The emitter before its flat-float fast path: one call per value."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError("cannot serialise non-finite float")
        return format(x, ".17g")
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return recursive_dumps_oracle(obj.tolist(), indent)
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {recursive_dumps_oracle(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{recursive_dumps_oracle(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialise {type(obj)!r}")


class TestEmitterFastPath:
    """Lists and tuples of plain floats are emitted in one pass; the output
    must match the recursive emitter byte for byte."""

    @pytest.mark.parametrize(
        "doc",
        [
            [-0.0, 5e-324, 1e308, 0.1],
            [0.0, -1.5, 2.5e-17, -1e-300, 123456789.0],
            [1, 2.5, -3, 0.0],
            [True, False, True],
            [True, 1.0],
            [np.float64(0.1), np.float64(-0.0), np.float64(5e-324)],
            [0.1, np.float64(0.2)],
            (0.25, -0.0, 1e-7),
            [],
            (),
            [[]],
            [[0.1, 0.2], [], [[-0.0, 1e308]], (3.0,)],
            {"rows": [[0.5, -0.5], [1.0, 2.0]], "empty": [], "n": 3, "flag": True},
            {"outer": {"inner": [0.1, None, "x", 2.0]}},
            np.linspace(-1.0, 1.0, 7),
        ],
    )
    def test_matches_recursive_emitter(self, doc):
        assert dumps_report(doc) == recursive_dumps_oracle(doc)

    def test_matches_on_a_kernel_report(self):
        ch = random_cptp_channel(rng_for(9), 3, 3)
        doc = {"kernel": kernel_to_json(functor_morphism(ch)), "channel": channel_to_json(ch)}
        assert dumps_report(doc) == recursive_dumps_oracle(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["flat", "nested", "tuple"])
    def test_non_finite_raises(self, bad, where):
        doc = {"flat": [0.1, bad], "nested": [[0.1], [bad, 2.0]], "tuple": (bad,)}[where]
        with pytest.raises(ValueError, match="^cannot serialise non-finite float$"):
            dumps_report(doc)


class TestEmitter:
    def test_seventeen_significant_digits(self):
        out = dumps_report({"x": 0.1})
        assert "0.10000000000000001" in out

    def test_round_trip_bit_exact(self):
        rng = rng_for(121)
        values = list(rng.normal(size=50)) + [1.0, 1e-300, 3.141592653589793]
        doc = json.loads(dumps_report({"values": values}))
        assert all(a == b for a, b in zip(doc["values"], values))

    def test_deterministic_ordering(self):
        a = dumps_report({"b": 1, "a": 2})
        b = dumps_report({"b": 1, "a": 2})
        assert a == b
        assert a.index('"b"') < a.index('"a"')

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_report({"x": float("nan")})


# ---------------------------------------------------------------------------
# the numeric reader against the per-entry parsers it replaced
# ---------------------------------------------------------------------------

def _pair_oracle(v, field):
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) for x in v)
    ):
        raise SchemaError(field, "expected a [re, im] number pair")
    return complex(v[0], v[1])


def parse_matrix_oracle(doc, field="matrix"):
    """The matrix parser before the one-call reader: one entry at a time."""
    if not isinstance(doc, list) or not doc:
        raise SchemaError(field, "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(doc):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{field}[{i}]", "expected a nonempty row")
        rows.append([_pair_oracle(v, f"{field}[{i}][{j}]") for j, v in enumerate(row)])
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SchemaError(field, "ragged rows")
    return np.array(rows, dtype=complex)


def parse_ket_oracle(doc):
    """The ket parser before the one-call reader: one amplitude at a time."""
    for name in ("dim", "amplitudes"):
        if name not in doc:
            raise SchemaError(name, "missing required field")
    dim, amps = doc["dim"], doc["amplitudes"]
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError("dim", "expected a positive integer")
    if not isinstance(amps, list) or len(amps) != dim:
        raise SchemaError("amplitudes", f"expected {dim} amplitude pairs")
    psi = np.array([_pair_oracle(v, f"amplitudes[{i}]") for i, v in enumerate(amps)])
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise SchemaError("amplitudes", f"ket norm {nrm!r} deviates from 1")
    return psi


SPECIAL_NUMBERS = [-0.0, 5e-324, 0, 3, -7, True, False, 2**53 + 1, -(2**60) - 3, 2**63 + 5]


def _random_number(rng):
    if rng.random() < 0.4:
        return SPECIAL_NUMBERS[int(rng.integers(len(SPECIAL_NUMBERS)))]
    return float(rng.standard_normal())


def _same_outcome(parse, oracle, doc):
    """Both parsers return bit-equal arrays, or both raise the same SchemaError."""
    try:
        expected = oracle(doc)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as err:
            parse(doc)
        assert (err.value.field, str(err.value)) == (exc.field, str(exc))
        return
    got = parse(doc)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestNumericReader:
    @pytest.mark.parametrize("d", range(1, 10))
    def test_random_matrices_parse_bit_equal(self, d):
        rng = rng_for(130, d)
        for _ in range(20):
            rows, cols = d, int(rng.integers(1, 10))
            doc = [[[_random_number(rng), _random_number(rng)] for _ in range(cols)]
                   for _ in range(rows)]
            # through JSON text too: what the CLI reads
            for form in (doc, json.loads(json.dumps(doc))):
                _same_outcome(parse_matrix, parse_matrix_oracle, form)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_random_kets_parse_bit_equal(self, d):
        rng = rng_for(131, d)
        psi = random_ket(rng, d)
        doc = json.loads(dumps_report(ket_to_json(psi)))
        _same_outcome(parse_ket, parse_ket_oracle, doc)
        # a unit ket of special entries, and unnormalised ones, which both reject
        unit = [[True, False]] + [[-0.0, 5e-324]] * (d - 1)
        _same_outcome(parse_ket, parse_ket_oracle, {"dim": d, "amplitudes": unit})
        for _ in range(10):
            amps = [[_random_number(rng), _random_number(rng)] for _ in range(d)]
            _same_outcome(parse_ket, parse_ket_oracle, {"dim": d, "amplitudes": amps})

    def test_huge_integers_parse_as_the_oracle_does(self):
        for pair in ([2**70, 0.5], [-(2**63) - 7, 1], [2**64 + 3, 1], [2**63 + 1, 3]):
            _same_outcome(parse_matrix, parse_matrix_oracle, [[pair, [1.0, 0.0]]])

    @pytest.mark.parametrize(
        "doc",
        [
            [[[1.0, 0.0], ["0.5", 0.0]]],
            [[[1.0, 0.0], [None, 0.0]]],
            [[[1.0, 0.0], None]],
            [[[1.0, 0.0], [0.0, 0.0, 1.0]]],
            [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]],
            [[[1.0, 0.0]], []],
            [[]],
            [[[[1.0, 0.0]], [[0.0, 0.0]]]],
            [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
            [],
            [[1.0, 0.0]],
            "matrix",
            {"rows": []},
            [([1.0, 0.0],)],
        ],
        ids=["string", "null", "null-pair", "triple", "ragged", "empty-row", "only-empty-row",
             "too-deep", "too-deep-regular", "empty", "too-shallow", "string-doc", "map",
             "tuple-row"],
    )
    def test_malformed_matrix_named_as_the_oracle_does(self, doc):
        _same_outcome(parse_matrix, parse_matrix_oracle, doc)

    @pytest.mark.parametrize(
        "amps",
        [
            [[1.0, 0.0], ["0", 0.0]],
            [[1.0, 0.0], None],
            [[1.0, 0.0, 0.0], [0.0, 0.0]],
            [[1.0], [0.0, 0.0]],
            [[[1.0, 0.0]], [[0.0, 0.0]]],
            [[], []],
            [],
        ],
        ids=["string", "null", "triple", "single", "too-deep", "empty-pairs", "empty"],
    )
    def test_malformed_ket_named_as_the_oracle_does(self, amps):
        doc = {"dim": max(1, len(amps)), "amplitudes": amps}
        _same_outcome(parse_ket, parse_ket_oracle, doc)

    def test_numbers_written_as_strings_are_named(self):
        space = {"points": ["a", "b"]}
        cases = [
            (lambda: parse_ensemble({**space, "weights": [["0.5", "0.5"], [1.0, 0.0]]}),
             "weights[0][0]"),
            (lambda: parse_kernel({"from": ["a"], "to": ["a"], "matrix": [["1"]]}),
             "matrix[0][0]"),
            (lambda: parse_ensemble({**space, "weights": [[0.5, None]]}), "weights[0][1]"),
        ]
        for parse, field in cases:
            with pytest.raises(SchemaError) as err:
                parse()
            assert err.value.field == field
            assert "expected a number" in str(err.value)

    def test_real_weights_keep_their_values(self):
        _, dists = parse_ensemble(
            {"points": ["a", "b"], "weights": [[1, 0], [True, False], [0.25, 0.75]]}
        )
        assert [d.weights.tolist() for d in dists] == [[1.0, 0.0], [1.0, 0.0], [0.25, 0.75]]
        assert all(d.weights.dtype == float for d in dists)


class TestKetSchema:
    def test_round_trip(self):
        rng = rng_for(122)
        psi = random_ket(rng, 5)
        doc = json.loads(dumps_report(ket_to_json(psi)))
        back = parse_ket(doc)
        assert np.array_equal(back, psi)

    def test_missing_field(self):
        with pytest.raises(SchemaError) as err:
            parse_ket({"dim": 2})
        assert "amplitudes" in str(err.value)

    def test_norm_checked(self):
        with pytest.raises(SchemaError):
            parse_ket({"dim": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]})


class TestChannelSchema:
    def test_round_trip(self):
        rng = rng_for(123)
        ch = random_cptp_channel(rng, 2, 3)
        doc = json.loads(dumps_report(channel_to_json(ch)))
        back = parse_channel(doc)
        assert back.trace_preserving
        for a, b in zip(back.kraus, ch.kraus):
            assert np.array_equal(a, b)

    def test_bad_kraus_shape(self):
        doc = {
            "in_dim": 2,
            "out_dim": 2,
            "kraus": [[[[1.0, 0.0]]]],
            "trace_preserving": True,
        }
        with pytest.raises(SchemaError):
            parse_channel(doc)


class TestKernelSchema:
    def test_round_trip(self):
        space = FiniteSpace(("a", "b"))
        k = SignedKernel(space, space, [[0.9, 0.3], [0.1, 0.7]])
        doc = json.loads(dumps_report(kernel_to_json(k)))
        back = parse_kernel(doc)
        assert np.array_equal(back.matrix, k.matrix)
        assert back.source == space and back.target == space

    def test_convention_enforced(self):
        doc = {"from": ["a"], "to": ["a"], "matrix": [[1.0]], "convention": "row"}
        with pytest.raises(SchemaError) as err:
            parse_kernel(doc)
        assert "convention" in str(err.value)


class TestEnsembleSchema:
    def test_parse(self):
        space, dists = parse_ensemble(
            {"points": ["a", "b"], "weights": [[1.0, 0.0], [0.5, 0.5]]}
        )
        assert space.size == 2 and len(dists) == 2

    def test_bad_weights_named(self):
        with pytest.raises(SchemaError) as err:
            parse_ensemble({"points": ["a", "b"], "weights": [[0.7, 0.7]]})
        assert "weights[0]" in str(err.value)


class TestModelSchema:
    def test_round_trip_via_dirac_model(self):
        rng = rng_for(124)
        model = dirac_restriction_model(
            [(f"s{i}", random_ket(rng, 2)) for i in range(3)],
            [ProjectiveMeasurement.computational(2)],
        )
        doc = {
            "ontic": list(model.ontic.points),
            "states": [
                {"label": lab, "ket": ket_to_json(ket)} for lab, ket in model.states
            ],
            "distributions": {
                lab: [float(x) for x in mu.weights]
                for lab, mu in model.distributions.items()
            },
            "measurements": [
                {
                    "basis": [ket_to_json(v) for v in m.vectors],
                    "responses": [[float(x) for x in r.values] for r in responses],
                }
                for m, responses in model.measurements
            ],
        }
        back = parse_model(json.loads(dumps_report(doc)))
        assert back.ontic == model.ontic
        for (la, ka), (lb, kb) in zip(back.states, model.states):
            assert la == lb and np.array_equal(ka, kb)

    def test_missing_distribution_named(self):
        doc = {
            "ontic": ["a"],
            "states": [{"label": "s", "ket": {"dim": 1, "amplitudes": [[1.0, 0.0]]}}],
            "distributions": {},
            "measurements": [],
        }
        with pytest.raises(SchemaError):
            parse_model(doc)


class TestQmeasureSchema:
    def test_decoherence_doc(self):
        doc = {
            "points": ["a", "b"],
            "decoherence": [[[0.5, 0.0], [0.25, 0.0]], [[0.25, 0.0], [0.0, 0.0]]],
        }
        parsed = parse_qmeasure_doc(doc)
        assert parsed.matrix.shape == (2, 2)

    def test_measure_doc_requires_full_cover(self):
        doc = {"points": ["a", "b"], "measure": {"0": 0.0, "3": 1.0}}
        with pytest.raises(SchemaError) as err:
            parse_qmeasure_doc(doc)
        assert "measure" in str(err.value)

    def test_measure_doc(self):
        doc = {
            "points": ["a", "b"],
            "measure": {"0": 0.0, "1": 0.25, "2": 0.25, "3": 1.0},
        }
        parsed = parse_qmeasure_doc(doc)
        assert parsed.value(3) == 1.0

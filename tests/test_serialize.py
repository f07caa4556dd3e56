"""JSON schema round-trips and the 17-significant-digit emitter."""

import json
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontokit import cli
from ontokit.errors import OntokitError, SchemaError
from ontokit.kernels import Distribution, FiniteSpace, ResponseFunction, SignedKernel
from ontokit import serialize
from ontokit.ontomodel import OntModel
from ontokit.qmeasure import QuantumMeasure, check_size
from ontokit.quantum import Channel, ProjectiveMeasurement
from ontokit.sampling import random_cptp_channel, random_ket, random_unitary, rng_for
from ontokit.serialize import (
    dumps_report,
    kernel_to_json,
    ket_to_json,
    matrix_to_json,
    parse_channel,
    parse_ensemble,
    parse_kernel,
    parse_ket,
    parse_matrix,
    parse_model,
    parse_qmeasure_doc,
)
from ontokit.wigner import functor_morphism
from test_ontomodel import dirac_model


def channel_to_json(ch):
    """A channel document in the schema parse_channel reads."""
    return {
        "in_dim": ch.in_dim,
        "out_dim": ch.out_dim,
        "kraus": matrix_to_json(ch.kraus),
        "trace_preserving": True,
    }


def recursive_dumps_oracle(obj, indent=0):
    """The emitter before its one-call paths: one call per value and one
    ``json.dumps`` per string and key."""
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


STACK_3D = matrix_to_json(np.arange(18).reshape(2, 3, 3) * (0.1 - 0.7j) - 0.5)

# JSON-like documents, with the shapes the one-call paths take and the
# values whose spelling is easiest to get wrong
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]
)
_TEXT = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\x80é∀\u2028\U0001f600a')
_SCALARS = (
    _FLOATS
    | st.integers()
    | st.sampled_from([2 ** 53 + 1, -(2 ** 53) - 3, 2 ** 64, -(10 ** 30)])
    | st.booleans()
    | st.none()
    | _TEXT
)
_KEYS = _TEXT | st.integers() | _FLOATS | st.booleans() | st.none()
_TABLES = st.integers(0, 4).flatmap(
    lambda w: st.lists(st.lists(_FLOATS, min_size=w, max_size=w), min_size=1, max_size=5)
)
_DOCS = st.recursive(
    _SCALARS | _TABLES | st.lists(_FLOATS, min_size=1) | st.lists(_TEXT, min_size=1),
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(_KEYS, kids, max_size=5),
    max_leaves=30,
)


def _outcome(emit, doc):
    """What an emitter does with ``doc``: its text, or its error."""
    try:
        return emit(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestEmitterFastPath:
    """Lists of plain floats, tables of equal-length rows of plain floats
    and lists of strings are emitted in one call each; the output must match
    the recursive emitter byte for byte."""

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
            [[0.1, 0.2], [0.3]],
            [[0.1, 0.2], [0.3, 4]],
            [[0.1, 0.2], [True, 0.4]],
            [[0.1, 0.2], [0.3, np.float64(0.4)]],
            [[0.1, None], [0.3, 0.4]],
            [[0.1, 0.2], ["0.3", 0.4]],
            [[], []],
            ((0.1, -0.0), (5e-324, 1e308)),
            [(0.1, 0.2), [0.3, 0.4]],
            STACK_3D,
            ["a", 'q"uote', "back\\slash", "\x00\x1f\n", "é∀", "\U0001f600", "%.17g"],
            {"%s": [0.5], 7: "%d", None: [[0.25]], 1.5: True},
        ],
    )
    def test_matches_recursive_emitter(self, doc):
        assert dumps_report(doc) == recursive_dumps_oracle(doc)

    @settings(max_examples=200, deadline=None)
    @given(_DOCS)
    def test_matches_recursive_emitter_on_random_documents(self, doc):
        assert dumps_report(doc) == recursive_dumps_oracle(doc)

    @settings(max_examples=100, deadline=None)
    @given(_DOCS, st.sampled_from([float("nan"), float("inf"), float("-inf")]), st.data())
    def test_fails_like_recursive_emitter_on_a_non_finite_float(self, doc, bad, data):
        """A non-finite float put in a random place of a random document."""
        holder = [doc, bad] if data.draw(st.booleans()) else [[0.5, 0.25], [0.125, bad]]
        doc = data.draw(st.sampled_from([holder, {"k": holder}, [doc, holder]]))
        assert (
            _outcome(dumps_report, doc)
            == _outcome(recursive_dumps_oracle, doc)
            == (ValueError, "cannot serialise non-finite float")
        )

    def test_matches_on_a_kernel_report(self):
        ch = random_cptp_channel(rng_for(9), 3, 3)
        doc = {"kernel": kernel_to_json(functor_morphism(ch)), "channel": channel_to_json(ch)}
        assert dumps_report(doc) == recursive_dumps_oracle(doc)

    @pytest.mark.parametrize(
        "argv",
        [
            "wigner functor-check --dim 7 --trials 2 --seed 3",
            "wigner frame 5",
            "qmeasure validate {doc}",
        ],
    )
    def test_matches_on_cli_reports(self, argv, tmp_path, monkeypatch, capsys):
        # a 16-point measure, off additivity on a few sets so that the
        # report carries violation records
        values = np.array([bin(mask).count("1") / 16 for mask in range(2 ** 16)])
        values[[7, 100, 4095, 65534]] += [0.01, -0.02, 0.03, -0.001]
        doc = tmp_path / "measure16.json"
        doc.write_text(json.dumps({
            "points": [f"x{i}" for i in range(16)],
            "measure": {str(mask): v for mask, v in enumerate(values.tolist())},
        }))
        reports = []
        monkeypatch.setattr(cli, "dumps_report", lambda obj: reports.append(obj) or "")
        cli.main(argv.format(doc=doc).split())
        capsys.readouterr()
        (report,) = reports
        assert dumps_report(report) == recursive_dumps_oracle(report)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["flat", "nested", "tuple", "table"])
    def test_non_finite_raises(self, bad, where):
        doc = {
            "flat": [0.1, bad],
            "nested": [[0.1], [bad, 2.0]],
            "tuple": (bad,),
            "table": [[0.1, 0.2], [0.3, bad]],
        }[where]
        with pytest.raises(ValueError, match="^cannot serialise non-finite float$"):
            dumps_report(doc)


def _float_table(rows, cols, seed):
    """A float64 table of normal draws scaled by 10^-5 ... 10^1, with -0.0,
    5e-324 and 1e308 among them."""
    rng = rng_for(seed)
    a = rng.normal(size=(rows, cols)) * 10 ** rng.uniform(-5, 1, (rows, cols))
    a.flat[:3] = [-0.0, 5e-324, 1e308][: a.size]
    return a


def _assert_emitted_as_17g(a, indent=0):
    """The array's text is the recursive emitter's, and its numbers are the
    "%.17g" spellings of its entries in row order."""
    text = dumps_report(a, indent)
    assert text == recursive_dumps_oracle(a, indent)
    numbers = [t for t in (tok.strip("[],") for tok in text.split()) if t]
    assert numbers == [format(v, ".17g") for v in a.ravel().tolist()]


def _powers_of_ten_and_neighbours():
    """10^k for k = -5 ... 1 with 1 and 2 ulps on each side, both signs."""
    powers = np.array([float(f"1e{k}") for k in range(-5, 2)])
    down = np.nextafter(powers, 0.0)
    up = np.nextafter(powers, np.inf)
    near = np.concatenate(
        [np.nextafter(down, 0.0), down, powers, up, np.nextafter(up, np.inf)]
    )
    return np.concatenate([near, -near])


def _ties(rng):
    """Floats m * 2^-j, m odd, whose exact decimal has 18 significant digits
    ending in 5: the 17-digit rounding is a tie, broken to even."""
    ties = [26215 * 2.0 ** -18]
    for e in range(-4, 0):
        j = 17 - e
        lo, hi = int(10.0 ** e * 2 ** j) + 1, int(10.0 ** (e + 1) * 2 ** j)
        ties += (np.ldexp((rng.integers(lo, hi, 60) | 1).astype(float), -j)).tolist()
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    return np.array(ties + [-t for t in ties])


_ENTRIES = st.floats(allow_nan=False, allow_infinity=False) | st.floats(1e-5, 10.0).flatmap(
    lambda v: st.sampled_from([v, -v])
)


class TestArrayEmitter:
    """A nonempty 2-d float64 array is formatted with one ``%``, as the row
    lists of its ``tolist()`` are; every other array goes through ``tolist()``.
    An entry of magnitude in (1e-4, 1) goes through a "%d" slot over its
    exactly rounded 17 digits, and every other entry through "%.17g"; each
    must spell as "%.17g" does."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (49, 49), (3, 4)])
    def test_matches_its_row_lists_and_the_recursive_emitter(self, shape):
        a = _float_table(*shape, seed=sum(shape))
        for doc in (a, a.T, a[::-1, ::2], {"kernel": {"matrix": a, "n": 3}}, [a, [0.5]]):
            plain = doc.tolist() if isinstance(doc, np.ndarray) else doc
            assert dumps_report(doc) == recursive_dumps_oracle(doc)
            assert dumps_report(doc, 4) == recursive_dumps_oracle(plain, 4)
        assert dumps_report(a) == dumps_report(a.tolist())
        _assert_emitted_as_17g(a.T, 6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_raises(self, bad):
        a = _float_table(7, 7, seed=5)
        a[6, 3] = bad
        for doc in (a, {"matrix": a}):
            assert (
                _outcome(dumps_report, doc)
                == _outcome(recursive_dumps_oracle, doc)
                == (ValueError, "cannot serialise non-finite float")
            )

    @pytest.mark.parametrize(
        "a",
        [
            rng_for(6).normal(size=(3, 3)).astype(np.float32),
            np.arange(6).reshape(2, 3),
            np.array([[True, False], [False, True]]),
            _float_table(2, 2, seed=7) * (1 - 0.5j),
            _float_table(1, 6, seed=8)[0],
            _float_table(4, 6, seed=9).reshape(2, 2, 6),
            np.zeros((0, 3)),
            np.zeros((3, 0)),
        ],
        ids=["float32", "int", "bool", "complex", "1-d", "3-d", "no-rows", "no-columns"],
    )
    def test_other_arrays_go_through_tolist(self, a):
        # a complex entry is refused with the TypeError of its Python value
        assert (
            _outcome(dumps_report, a)
            == _outcome(dumps_report, a.tolist())
            == _outcome(recursive_dumps_oracle, a.tolist())
        )

    @pytest.mark.parametrize("indent", [0, 4])
    def test_powers_of_ten_and_their_neighbours(self, indent):
        values = _powers_of_ten_and_neighbours()
        _assert_emitted_as_17g(values.reshape(-1, 5), indent)
        _assert_emitted_as_17g(values.reshape(5, -1).T, indent)

    def test_ties_round_half_to_even(self):
        values = _ties(rng_for(31))
        text = dumps_report(np.array([[26215 * 2.0 ** -18]]))
        assert text == "[\n  [\n    0.10000228881835938\n  ]\n]"
        _assert_emitted_as_17g(values.reshape(2, -1))
        _assert_emitted_as_17g(values[:, None])

    def test_values_whose_digits_round_up_to_the_next_power_of_ten(self):
        # 1e-3, 1e-2, 0.1 and 1.0 close the digit ranges (1e-4, 1e-3] ...
        # (0.1, 1]; scaled in their range they round to 10^17, one digit too
        # many, and so take the "%.17g" slot
        bounds = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
        _assert_emitted_as_17g(np.stack([bounds, -bounds, np.nextafter(bounds, 0.0)]))

    def test_zeros_subnormals_and_extremes(self):
        tiny = np.nextafter(0.0, 1.0)
        values = [0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  9.9999999999999991e-05, 1e308, -1e308, np.finfo(float).max, 1.0, -1.0]
        _assert_emitted_as_17g(np.array([values]))
        _assert_emitted_as_17g(np.array([values]).T, 2)

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros((49, 49)),
            -np.zeros((7, 7)),
            np.eye(49),
            np.eye(25)[rng_for(32).permutation(25)] * rng_for(33).choice([-1.0, 1.0], 25),
        ],
        ids=["zeros", "negative-zeros", "identity", "signed-permutation"],
    )
    def test_kernel_shaped_tables(self, a):
        _assert_emitted_as_17g(a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data(), st.sampled_from([0, 2, 8]))
    def test_matches_on_random_finite_tables(self, rows, cols, data, indent):
        values = data.draw(st.lists(_ENTRIES, min_size=rows * cols, max_size=rows * cols))
        _assert_emitted_as_17g(np.array(values).reshape(rows, cols), indent)

    def test_seeded_sweep_of_a_million_values(self):
        rng = rng_for(35)
        magnitudes = np.concatenate(
            [10 ** rng.uniform(-5, 1, 500_000), rng.uniform(1e-5, 10.0, 500_000)]
        )
        assert magnitudes.min() >= 1e-5 and magnitudes.max() < 10.0
        a = (rng.choice([-1.0, 1.0], magnitudes.size) * magnitudes).reshape(1000, 1000)
        assert dumps_report(a) == recursive_dumps_oracle(a)

    @pytest.mark.parametrize("dim", [1, 3, 7])
    def test_kernel_round_trips_bit_for_bit(self, dim):
        k = functor_morphism(random_cptp_channel(rng_for(dim, 999), dim, dim))
        doc = kernel_to_json(k)
        assert doc["matrix"] is k.matrix
        back = parse_kernel(json.loads(dumps_report(doc)))
        assert back.matrix.shape == k.matrix.shape
        assert back.matrix.tobytes() == k.matrix.tobytes()


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
    if type(dim) is not int or dim < 1:
        raise SchemaError("dim", "expected a positive integer")
    if not isinstance(amps, list) or len(amps) != dim:
        raise SchemaError("amplitudes", f"expected {dim} amplitude pairs")
    psi = np.array([_pair_oracle(v, f"amplitudes[{i}]") for i, v in enumerate(amps)])
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-10:  # a NaN norm fails too
        raise SchemaError("amplitudes", f"ket norm {float(nrm)!r} deviates from 1")
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
        nan = [[float("nan"), 0.0]] + [[0.0, 0.0]] * (d - 1)
        _same_outcome(parse_ket, parse_ket_oracle, {"dim": d, "amplitudes": nan})

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


# ---------------------------------------------------------------------------
# model and ensemble documents read as matrices against the per-entry readers
# ---------------------------------------------------------------------------

def _space_oracle(labels, field):
    if not isinstance(labels, list) or not labels:
        raise SchemaError(field, "expected a nonempty label list")
    try:
        return FiniteSpace(tuple(labels))
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from exc


def _need_oracle(doc, field, context=""):
    if not isinstance(doc, dict) or field not in doc:
        raise SchemaError(context + field, "missing required field")
    return doc[field]


def _real_oracle(doc, field):
    """A list of real numbers, a non-number entry named by its index."""
    def depth(v, where):
        if isinstance(v, list):
            return 1 + max([depth(x, f"{where}[{i}]") for i, x in enumerate(v)], default=0)
        if not isinstance(v, (int, float)):
            raise SchemaError(where, f"expected a number, got {v!r}")
        return 0

    if depth(doc, field) > 64:
        raise SchemaError(field, "nested more than 64 levels deep")
    try:
        return np.asarray(doc, dtype=float)
    except OverflowError as exc:
        raise SchemaError(field, str(exc)) from exc
    except ValueError as exc:
        raise SchemaError(field, "ragged lists: entries differ in length or depth") from exc


def _ket_at_oracle(doc, place):
    try:
        return parse_ket(doc)
    except SchemaError as exc:
        raise SchemaError(f"{place}.{exc.field}", str(exc)[len(exc.field) + 2:]) from None


def _distributions_oracle(space, rows, keys, name):
    dists = []
    for key, row in zip(keys, rows):
        values = _real_oracle(row, f"{name}[{key}]")
        try:
            dists.append(Distribution(space, values))
        except Exception as exc:
            raise SchemaError(f"{name}[{key}]", str(exc)) from exc
    return dists


def parse_ensemble_oracle(doc):
    """The ensemble reader one weight row at a time."""
    points = _need_oracle(doc, "points")
    weights = _need_oracle(doc, "weights")
    space = _space_oracle(points, "points")
    if not isinstance(weights, list) or not weights:
        raise SchemaError("weights", "expected a nonempty list of weight vectors")
    return space, _distributions_oracle(space, weights, range(len(weights)), "weights")


def parse_model_oracle(doc):
    """The model reader one ket, weight row and response row at a time."""
    ontic_labels = _need_oracle(doc, "ontic")
    states_doc = _need_oracle(doc, "states")
    dists_doc = _need_oracle(doc, "distributions")
    meas_doc = _need_oracle(doc, "measurements")
    ontic = _space_oracle(ontic_labels, "ontic")
    for name, value in (("states", states_doc), ("measurements", meas_doc)):
        if not isinstance(value, list):
            raise SchemaError(name, "expected a list")
    states = []
    for i, s in enumerate(states_doc):
        label = _need_oracle(s, "label", f"states[{i}].")
        ket = _need_oracle(s, "ket", f"states[{i}].")
        states.append((str(label), _ket_at_oracle(ket, f"states[{i}].ket")))
    if not isinstance(dists_doc, dict):
        raise SchemaError("distributions", "expected a label-to-weights map")
    rows = _distributions_oracle(ontic, list(dists_doc.values()), dists_doc, "distributions")
    distributions = dict(zip(dists_doc, rows))
    measurements = []
    for i, m in enumerate(meas_doc):
        place = f"measurements[{i}]"
        basis = _need_oracle(m, "basis", place + ".")
        responses = _need_oracle(m, "responses", place + ".")
        if not isinstance(basis, list):
            raise SchemaError(f"{place}.basis", "expected a list of kets")
        kets = [_ket_at_oracle(b, f"{place}.basis[{j}]") for j, b in enumerate(basis)]
        if len({k.size for k in kets}) > 1:
            raise SchemaError(f"{place}.basis", "kets have different dimensions")
        try:
            pm = ProjectiveMeasurement(np.array(kets))
        except Exception as exc:
            raise SchemaError(f"{place}.basis", str(exc)) from exc
        if not isinstance(responses, list) or len(responses) != pm.n_outcomes:
            raise SchemaError(f"{place}.responses", f"expected {pm.n_outcomes} response vectors")
        values = [_real_oracle(r, f"{place}.responses[{j}]") for j, r in enumerate(responses)]
        try:
            packed = tuple(ResponseFunction(ontic, r) for r in values)
        except Exception as exc:
            raise SchemaError(f"{place}.responses", str(exc)) from exc
        measurements.append((pm, np.array([xi.values for xi in packed])))
    # the catalogue's rows are gathered by label, then its kets at the first's dimension
    for lab, _ in states:
        if lab not in distributions:
            raise SchemaError("model", f"state {lab!r} has no distribution")
    for lab, ket in states:
        if ket.size != states[0][1].size:
            dims = f"dimension {ket.size}, expected {states[0][1].size}"
            raise SchemaError("model", f"state {lab!r} has {dims}")
    weights = np.array([distributions[lab].weights for lab, _ in states])
    weights = weights.reshape(len(states), ontic.size)
    try:
        return OntModel(
            ontic, tuple(lab for lab, _ in states), np.array([ket for _, ket in states]), weights,
            tuple(measurements),
        )
    except Exception as exc:
        raise SchemaError("model", str(exc)) from exc


def _bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _same_model(got, want):
    assert got.ontic == want.ontic
    assert got.labels == want.labels
    _bit_equal(got.kets, want.kets)
    _bit_equal(got.weights, want.weights)
    assert len(got.measurements) == len(want.measurements)
    for (pm, rs), (qm, qs) in zip(got.measurements, want.measurements):
        _bit_equal(pm.vectors, qm.vectors)
        _bit_equal(rs, qs)


def _same_ensemble(got, want):
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        _bit_equal(a.weights, b.weights)


def _same_doc_outcome(parse, oracle, same, doc):
    """Both readers return bit-equal values, or raise the same SchemaError;
    says which."""
    try:
        want = oracle(doc)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as err:
            parse(doc)
        assert (err.value.field, str(err.value)) == (exc.field, str(exc))
        return "error"
    same(parse(doc), want)
    return "parsed"


def _model_doc(rng):
    """A model document: random kets and weights, responses that keep the
    sum rule; numbers as the emitter writes them."""
    size, dim, points = (int(rng.integers(lo, hi)) for lo, hi in ((1, 7), (1, 4), (1, 6)))
    ontic = [f"x{i}" for i in range(points)]
    weights = rng.uniform(0, 1, (size, points)) * (rng.random((size, points)) < 0.6)
    weights[:, 0] += 0.1
    weights /= weights.sum(axis=1, keepdims=True)
    measurements = []
    for _ in range(int(rng.integers(0, 3))):
        r = rng.uniform(0, 1, (dim, points))
        measurements.append({
            "basis": [ket_to_json(v) for v in random_unitary(rng, dim).T],
            "responses": (r / r.sum(axis=0)).tolist(),
        })
    doc = {
        "ontic": ontic,
        "states": [{"label": f"s{i}", "ket": ket_to_json(random_ket(rng, dim))} for i in range(size)],
        "distributions": {f"s{i}": w.tolist() for i, w in enumerate(weights)},
        "measurements": measurements,
    }
    return json.loads(dumps_report(doc))


BAD_VALUES = ["0.5", None, float("nan"), float("inf"), 10 ** 400, [1.0], [], {"re": 1.0}, 1.1, -0.5]


def _slots(doc, path=()):
    """Paths to every list entry and map value of a document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


def _malformed(rng, doc):
    """The document with one entry replaced, removed or nested."""
    slots = list(_slots(doc))
    path = slots[int(rng.integers(len(slots)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, roll = path[-1], rng.random()
    if roll < 0.5:
        pool = BAD_VALUES + SPECIAL_NUMBERS
        parent[key] = pool[int(rng.integers(len(pool)))]
    elif roll < 0.7:
        del parent[key]
    elif roll < 0.85:
        parent[key] = [parent[key]]
    else:
        parent[key] = _random_number(rng)
    return doc


class TestDocumentsAsMatrices:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_models_match_the_per_entry_reader(self, seed):
        rng = rng_for(132, seed)
        seen = {"parsed": 0, "error": 0}
        for trial in range(60):
            doc = _model_doc(rng)
            if trial % 3:
                doc = _malformed(rng, doc)
            for form in (doc, json.loads(json.dumps(doc))):
                seen[_same_doc_outcome(parse_model, parse_model_oracle, _same_model, form)] += 1
        assert seen["parsed"] and seen["error"]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_ensembles_match_the_per_entry_reader(self, seed):
        rng = rng_for(133, seed)
        seen = {"parsed": 0, "error": 0}
        for trial in range(60):
            points = int(rng.integers(1, 6))
            w = rng.uniform(0, 1, (int(rng.integers(1, 5)), points))
            doc = {"points": [f"p{i}" for i in range(points)], "weights": (w / w.sum(axis=1, keepdims=True)).tolist()}
            doc = json.loads(dumps_report(doc))
            if trial % 3:
                doc = _malformed(rng, doc)
            for form in (doc, json.loads(json.dumps(doc))):
                seen[_same_doc_outcome(parse_ensemble, parse_ensemble_oracle, _same_ensemble, form)] += 1
        assert seen["parsed"] and seen["error"]

    @pytest.mark.parametrize("where", ["states", "basis"])
    @pytest.mark.parametrize("field,value", [
        ("dim", 2.0), ("dim", "2"), ("dim", True), ("dim", 3), ("dim", 0),
        ("amplitudes", ((1.0, 0.0), (0.0, 0.0))), ("amplitudes", [[1.0, 0.0]]),
        ("amplitudes", [[True, False], [False, False]]), ("amplitudes", [[1, 0], [0, 0]]),
    ])
    def test_ket_fields_read_as_parse_ket_reads_them(self, where, field, value):
        doc = {
            "ontic": ["a"],
            "states": [{"label": "s", "ket": ket_to_json(np.array([1.0, 0.0]))},
                       {"label": "t", "ket": ket_to_json(np.array([0.0, 1.0]))}],
            "distributions": {"s": [1.0], "t": [1.0]},
            "measurements": [{"basis": [ket_to_json(v) for v in np.eye(2)],
                              "responses": [[1.0], [0.0]]}],
        }
        ket = doc["states"][1]["ket"] if where == "states" else doc["measurements"][0]["basis"][0]
        ket[field] = value
        _same_doc_outcome(parse_model, parse_model_oracle, _same_model, doc)

    @pytest.mark.parametrize("where", ["states", "basis"])
    @pytest.mark.parametrize("scale", [1.0 + 0.4e-10, 1.0 + 0.6e-10, 1.0 + 1.5e-10, 1.1])
    def test_ket_norms_at_the_tolerance(self, where, scale):
        # between half the norm tolerance and all of it, parse_ket decides
        doc = json.loads(dumps_report({
            "ontic": ["a"],
            "states": [{"label": "s", "ket": ket_to_json(np.array([1.0, 0.0]))}],
            "distributions": {"s": [1.0]},
            "measurements": [{"basis": [ket_to_json(v) for v in np.eye(2)],
                              "responses": [[1.0], [0.0]]}],
        }))
        ket = doc["states"][0]["ket"] if where == "states" else doc["measurements"][0]["basis"][1]
        ket["amplitudes"] = [[scale * x for x in pair] for pair in ket["amplitudes"]]
        assert _same_doc_outcome(parse_model, parse_model_oracle, _same_model, doc) == (
            "parsed" if scale - 1.0 < 1e-10 else "error"
        )


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


def parse_channel_oracle(doc):
    """The channel parser before the one-call Kraus reader: one matrix at a time."""
    ops = [parse_matrix_oracle(m, f"kraus[{i}]") for i, m in enumerate(doc["kraus"])]
    for i, k in enumerate(ops):
        if k.shape != (doc["out_dim"], doc["in_dim"]):
            expected = (doc["out_dim"], doc["in_dim"])
            raise SchemaError(f"kraus[{i}]", f"shape {k.shape} != {expected}")
    try:
        return Channel(tuple(ops)).kraus
    except OntokitError as exc:
        raise SchemaError("kraus", str(exc)) from exc


def _set(path, value):
    def fault(kraus):
        *head, last = path
        target = kraus
        for i in head:
            target = target[i]
        target[last] = value
    return fault


# edits of a three-operator Kraus list of 3 x 2 matrices
KRAUS_FAULTS = [
    _set((1, 2, 0), ["0.5", 0.0]),  # a string entry
    _set((2, 0, 1), [0.0, 0.0, 1.0]),  # a triple
    _set((1, 2), [[0.0, 0.0]]),  # a short row
    _set((0, 1), ([0.0, 0.0], [0.0, 0.0])),  # a tuple row
    _set((2,), [[[0.0, 0.0]] * 2] * 2),  # a 2 x 2 matrix
    _set((1, 0, 0), [True, False]),  # bools are numbers
    _set((0, 0, 0), [2.0, 0.0]),  # off the identity
    _set((1, 1, 1), [float("nan"), 0.0]),
    # every operator 3 x 1
    lambda kraus: kraus.__setitem__(slice(None), [[row[:1] for row in m] for m in kraus]),
    lambda kraus: kraus.append([]),
]


class TestChannelSchema:
    def test_round_trip(self):
        rng = rng_for(123)
        ch = random_cptp_channel(rng, 2, 3)
        doc = json.loads(dumps_report(channel_to_json(ch)))
        back = parse_channel(doc)
        for a, b in zip(back.kraus, ch.kraus):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("flag, message", [
        (False, "only trace-preserving channels are accepted"),
        (None, "only trace-preserving channels are accepted"),
        (1, "only trace-preserving channels are accepted"),
        ("true", "only trace-preserving channels are accepted"),
        (..., "missing required field"),  # the field left out
    ], ids=["false", "null", "one", "string", "missing"])
    def test_only_trace_preserving_accepted(self, flag, message):
        doc = channel_to_json(Channel.identity(2))
        doc["trace_preserving"] = flag
        if flag is ...:
            del doc["trace_preserving"]
        with pytest.raises(SchemaError) as info:
            parse_channel(doc)
        assert (info.value.field, info.value.message) == ("trace_preserving", message)

    @pytest.mark.parametrize("kraus, message", [
        ([], "expected a nonempty list of matrices"),
        # K^dag K = diag(0.81, 1)
        ([[[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
         "Kraus sum deviates from identity by 1.900e-01"),
    ], ids=["empty", "off-identity"])
    def test_bad_kraus_named(self, kraus, message):
        doc = {"in_dim": 2, "out_dim": 2, "kraus": kraus, "trace_preserving": True}
        with pytest.raises(SchemaError) as info:
            parse_channel(doc)
        assert (info.value.field, info.value.message) == ("kraus", message)

    @pytest.mark.parametrize("seed", range(4))
    def test_kraus_lists_parse_as_matrix_by_matrix(self, seed):
        rng = rng_for(124, seed)
        doc = channel_to_json(random_cptp_channel(rng, 2, 3))
        _same_outcome(lambda d: parse_channel(d).kraus, parse_channel_oracle, doc)
        for bad in KRAUS_FAULTS:
            kraus = json.loads(json.dumps(doc["kraus"]))
            bad(kraus)
            _same_outcome(lambda d: parse_channel(d).kraus, parse_channel_oracle,
                          {**doc, "kraus": kraus})

    @pytest.mark.parametrize("field", ["in_dim", "out_dim"])
    @pytest.mark.parametrize(
        "dim", ["2", 2.0, 0, -1, None, True],
        ids=["string", "float", "zero", "negative", "null", "true"],
    )
    def test_dims_are_positive_integers(self, field, dim):
        doc = channel_to_json(Channel.identity(2))
        doc[field] = dim
        with pytest.raises(SchemaError) as info:
            parse_channel(doc)
        assert (info.value.field, info.value.message) == (field, "expected a positive integer")

    def test_true_is_no_dimension(self):
        # True == 1, so a one-dimensional ket or channel with a true dimension
        # would otherwise parse
        ket = {"dim": True, "amplitudes": [[1.0, 0.0]]}
        channel = {**channel_to_json(Channel.identity(1)), "in_dim": True, "out_dim": True}
        for parse, doc, field in ((parse_ket, ket, "dim"), (parse_channel, channel, "in_dim")):
            with pytest.raises(SchemaError) as info:
                parse(doc)
            assert (info.value.field, info.value.message) == (field, "expected a positive integer")

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


    @pytest.mark.parametrize("doc, field, message", [
        ({"from": "a", "to": ["a"], "matrix": [[1.0]]}, "from", "expected label lists"),
        ({"from": ["a"], "to": {"a": 0}, "matrix": [[1.0]]}, "from", "expected label lists"),
        ({"from": ["a", "b"], "to": ["a", "b"], "matrix": [[0.5, 0.5], [0.4, 0.5]]},
         "matrix", "column sums deviate from 1 by 1.000e-01"),
        ({"from": ["a", "b"], "to": ["a", "b"], "matrix": [[1, 0], [0]]},
         "matrix", "ragged lists: entries differ in length or depth"),
        ({"from": ["a", "a"], "to": ["a", "b"], "matrix": [[1, 0], [0, 1]]},
         "from", "point labels must be distinct"),
        ({"from": ["a", "b"], "to": [], "matrix": [[1, 0], [0, 1]]},
         "to", "expected a nonempty label list"),
    ], ids=["source-not-a-list", "target-not-a-list", "column-sum", "ragged", "source-labels",
            "target-empty"])
    def test_malformed_kernel_named(self, doc, field, message):
        with pytest.raises(SchemaError) as info:
            parse_kernel(doc)
        assert (info.value.field, info.value.message) == (field, message)


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
        model = dirac_model(
            [(f"s{i}", random_ket(rng, 2)) for i in range(3)], [ProjectiveMeasurement(np.eye(2))]
        )
        doc = {
            "ontic": list(model.ontic.points),
            "states": [
                {"label": lab, "ket": ket_to_json(k)} for lab, k in zip(model.labels, model.kets)
            ],
            "distributions": dict(zip(model.labels, model.weights.tolist())),
            "measurements": [
                {"basis": [ket_to_json(v) for v in m.vectors], "responses": responses.tolist()}
                for m, responses in model.measurements
            ],
        }
        _same_model(parse_model(json.loads(dumps_report(doc))), model)

    def test_missing_distribution_named(self):
        doc = {
            "ontic": ["a"],
            "states": [{"label": "s", "ket": {"dim": 1, "amplitudes": [[1.0, 0.0]]}}],
            "distributions": {},
            "measurements": [],
        }
        with pytest.raises(SchemaError):
            parse_model(doc)

    def test_a_missing_distribution_is_named_before_a_signed_one(self):
        # the rows are gathered by label before the model checks their signs
        ket = {"dim": 1, "amplitudes": [[1.0, 0.0]]}
        doc = {
            "ontic": ["a", "b"],
            "states": [{"label": "s", "ket": ket}, {"label": "t", "ket": ket}],
            "distributions": {"s": [1.5, -0.5]},
            "measurements": [],
        }
        with pytest.raises(SchemaError) as err:
            parse_model(doc)
        assert str(err.value) == "model: state 't' has no distribution"
        doc["distributions"]["t"] = [1.0, 0.0]
        with pytest.raises(SchemaError) as err:
            parse_model(doc)
        assert str(err.value) == "model: distribution for 's' is signed"


def parse_measure_oracle(doc):
    """The measure reader one bitmask key at a time."""
    space = _space_oracle(_need_oracle(doc, "points"), "points")
    if "measure" not in doc:
        raise SchemaError("measure", "document needs either 'decoherence' or 'measure'")
    table = doc["measure"]
    if not isinstance(table, dict):
        raise SchemaError("measure", "expected a bitmask-to-value map")
    check_size(space.size)
    values = np.zeros(2 ** space.size)
    seen = np.zeros(2 ** space.size, dtype=bool)
    for key, v in table.items():
        try:
            mask = int(key)
        except ValueError as exc:
            raise SchemaError(f"measure[{key}]", "bitmask keys must be integers") from exc
        if key != str(mask):
            raise SchemaError(f"measure[{key}]", f"bitmask key must be written {str(mask)!r}")
        if not 0 <= mask < 2 ** space.size:
            raise SchemaError(f"measure[{key}]", "bitmask out of range")
        if not isinstance(v, (int, float)):
            raise SchemaError(f"measure[{key}]", f"expected a real number, got {v!r}")
        try:
            values[mask] = v
        except OverflowError as exc:
            raise SchemaError(f"measure[{key}]", str(exc)) from exc
        seen[mask] = True
    if not seen.all():
        raise SchemaError("measure", "values must cover every subset bitmask")
    try:
        return QuantumMeasure(space, values)
    except Exception as exc:
        raise SchemaError("measure", str(exc)) from exc


def _same_measure(got, want):
    assert got.space == want.space
    _bit_equal(got.values, want.values)


def _measure_doc(rng, n, draw):
    """A full table on n points, its keys in shuffled order."""
    masks = rng.permutation(2 ** n).tolist()
    return {"points": [f"h{i}" for i in range(n)], "measure": {str(m): draw() for m in masks}}


class TestMeasureTableAsOneArray:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_shuffled_tables_read_bit_equal(self, n, monkeypatch):
        rng = rng_for(134, n)
        reads = []
        number_array = serialize._number_array

        def spy(doc):
            reads.append(number_array(doc))
            return reads[-1]

        monkeypatch.setattr(serialize, "_number_array", spy)
        draws = (
            lambda: _random_number(rng),
            lambda: float(rng.uniform(-1, 1)),
            lambda: int(rng.integers(-5, 6)),
            lambda: bool(rng.random() < 0.5),
            lambda: [int(rng.integers(-9, 9)), 2**53 + 1, 2**63 + 5, True][int(rng.integers(4))],
        )
        for draw in draws:
            doc = _measure_doc(rng, n, draw)
            for form in (doc, json.loads(json.dumps(doc))):
                reads.clear()
                assert _same_doc_outcome(
                    parse_qmeasure_doc, parse_measure_oracle, _same_measure, form
                ) == "parsed"
                # one array read, which the per-key loop did not need to repeat
                assert len(reads) == 1 and reads[0] is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_malformed_tables_fail_as_the_per_key_reader(self, seed):
        rng = rng_for(135, seed)
        seen = {"parsed": 0, "error": 0}
        for _ in range(60):
            doc = _measure_doc(rng, int(rng.integers(1, 5)), lambda: _random_number(rng))
            doc = _malformed(rng, doc)
            for form in (doc, json.loads(json.dumps(doc))):
                seen[_same_doc_outcome(parse_qmeasure_doc, parse_measure_oracle, _same_measure, form)] += 1
        assert seen["parsed"] and seen["error"]

    @pytest.mark.parametrize("bad", ["1", None, 10 ** 400, [0.5], [], {"re": 1.0}])
    def test_full_key_set_with_a_bad_value(self, bad):
        doc = {"points": ["a", "b"], "measure": {"0": 0, "1": 0.5, "2": 0.5, "3": bad}}
        assert _same_doc_outcome(
            parse_qmeasure_doc, parse_measure_oracle, _same_measure, doc
        ) == "error"

    def test_values_no_one_array_holds_read_key_by_key(self):
        # 2^64 and -1 share no numpy integer dtype, so the one-array read gives up
        table = {"0": 0, "1": 2**64, "2": -1, "3": 1}
        assert serialize._number_array(list(table.values())) is None
        mu = parse_qmeasure_doc({"points": ["a", "b"], "measure": table})
        assert mu.values.tolist() == [0, 1.8446744073709552e19, -1, 1]

    def test_every_value_a_list(self):
        # a regular nested table reads as a 2-d array, which is not a table of numbers
        doc = {"points": ["a"], "measure": {"0": [0.0], "1": [1.0]}}
        assert _same_doc_outcome(
            parse_qmeasure_doc, parse_measure_oracle, _same_measure, doc
        ) == "error"


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
        assert parsed.values[3] == 1.0

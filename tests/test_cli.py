"""Command-line surface: exit codes, determinism, schemas."""

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import runpy
import sys

import numpy as np
import pytest

from ontokit import cli, wigner
from ontokit.cli import main
from ontokit.quantum import DensityMatrix
from ontokit.serialize import dumps_report, ket_to_json
from ontokit.tolerances import NONNEG_TOL
from ontokit.wigner import phase_point_operators, phase_space, wigner_vector
from test_antidist import tilted_pair
from test_wigner import stabilizer_kets


@pytest.fixture()
def state_files(tmp_path):
    zero = tmp_path / "zero.json"
    plus = tmp_path / "plus.json"
    zero.write_text(dumps_report(ket_to_json(np.array([1, 0], dtype=complex))))
    plus.write_text(
        dumps_report(ket_to_json(np.array([1, 1], dtype=complex) / np.sqrt(2)))
    )
    return str(zero), str(plus)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPbrDemo:
    def test_canonical_pair_exits_zero(self, capsys, state_files):
        zero, plus = state_files
        code, out, _ = run_cli(capsys, "pbr-demo", "--psi", zero, "--phi", plus)
        assert code == 0
        doc = json.loads(out)
        assert doc["anti_distinguished"] is True
        assert max(doc["assigned_probabilities"]) <= 1e-9

    def test_missing_file_exits_two(self, capsys, state_files):
        zero, _ = state_files
        code, _, err = run_cli(capsys, "pbr-demo", "--psi", zero, "--phi", "/nope.json")
        assert code == 2
        assert "nope" in err

    def test_orthogonal_pair_exits_two(self, capsys, state_files, tmp_path):
        zero, _ = state_files
        one = tmp_path / "one.json"
        one.write_text(dumps_report(ket_to_json(np.array([0, 1], dtype=complex))))
        code, _, err = run_cli(capsys, "pbr-demo", "--psi", zero, "--phi", str(one))
        assert code == 2
        assert "BadOverlap" in err

    def test_overlap_beyond_old_dimension_cap_exits_zero(self, capsys, tmp_path):
        # n = 12: the dense construction needed 2^12 dimensions and was refused
        psi, phi = tmp_path / "psi.json", tmp_path / "phi.json"
        psi.write_text(dumps_report(ket_to_json(np.array([1, 0], dtype=complex))))
        g = 0.97
        phi.write_text(dumps_report(ket_to_json(np.array([g, np.sqrt(1 - g * g)], dtype=complex))))
        code, out, _ = run_cli(capsys, "pbr-demo", "--psi", str(psi), "--phi", str(phi))
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 12 and doc["anti_distinguished"] is True

    def test_explicit_n_is_reported(self, capsys, state_files):
        zero, plus = state_files
        code, out, _ = run_cli(capsys, "pbr-demo", "--psi", zero, "--phi", plus, "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["anti_distinguished"] is True

    def test_n_too_small_for_the_overlap_exits_two(self, capsys, tmp_path):
        # 0.9 > 1/sqrt(2): one copy does not compress the pair
        psi, phi = tmp_path / "psi.json", tmp_path / "phi.json"
        psi.write_text(dumps_report(ket_to_json(np.array([1, 0], dtype=complex))))
        phi.write_text(dumps_report(ket_to_json(np.array([0.9, np.sqrt(1 - 0.81)], dtype=complex))))
        code, out, err = run_cli(capsys, "pbr-demo", "--psi", str(psi), "--phi", str(phi), "--n", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: BadOverlapError: n = 1 leaves overlap 0.900000 above")

    def test_pair_at_overlap_5e_10_exits_two_and_is_no_witness(self, capsys, tmp_path):
        # orthogonal by the strict-overlap rule, so pbr-demo refuses the pair
        # that wigner epistemic reads as no witness
        psi, phi = tmp_path / "psi.json", tmp_path / "phi.json"
        for path, ket in zip((psi, phi), tilted_pair(5e-10)):
            path.write_text(dumps_report(ket_to_json(ket)))
        code, out, err = run_cli(capsys, "pbr-demo", "--psi", str(psi), "--phi", str(phi))
        assert code == 2 and out == ""
        assert err.startswith("error: BadOverlapError: ") and err.count("\n") == 1
        code, out, _ = run_cli(capsys, "wigner", "epistemic", "--psi", str(psi), "--phi", str(phi))
        assert code == 0 and json.loads(out)["epistemic_witness"] is False


def test_lemmas_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemmas"])
    assert exc.value.code == 2
    assert "invalid choice: 'lemmas'" in capsys.readouterr().err


class TestWigner:
    def test_even_frame_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "wigner", "frame", "4")
        assert code == 2
        assert "EvenDimension" in err

    def test_frame_emits_operators(self, capsys):
        code, out, _ = run_cli(capsys, "wigner", "frame", "3")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["operators"]) == 9
        assert doc["norm_const"] == 3

    def test_state_vector(self, capsys, tmp_path):
        psi = tmp_path / "psi.json"
        psi.write_text(
            dumps_report(ket_to_json(np.array([1, 1, 0], dtype=complex) / np.sqrt(2)))
        )
        code, out, _ = run_cli(capsys, "wigner", "state", str(psi))
        assert code == 0
        doc = json.loads(out)
        assert doc["negative"] is True
        assert abs(sum(doc["weights"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_no_closed_form_stabilizer_state_is_negative(self, capsys, tmp_path, n):
        # "negative" reads the library's sign rule, as Distribution.is_probability
        # does: a rounding minimum of about -1e-16 is no negativity
        psi = tmp_path / "psi.json"
        for ket in stabilizer_kets(n):
            psi.write_text(dumps_report(ket_to_json(ket)))
            code, out, _ = run_cli(capsys, "wigner", "state", str(psi))
            doc = json.loads(out)
            assert code == 0 and doc["negative"] is False
            assert doc["min_weight"] >= -NONNEG_TOL

    def test_state_csv(self, capsys, tmp_path):
        psi = tmp_path / "psi.json"
        ket = np.array([1, 0, 0], dtype=complex)
        psi.write_text(dumps_report(ket_to_json(ket)))
        code, out, _ = run_cli(capsys, "wigner", "state", str(psi), "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["point", "weight"]
        assert all(len(row) == 2 for row in rows)
        assert [label for label, _ in rows[1:]] == list(phase_space(3).points)
        want = wigner_vector(DensityMatrix.from_ket(ket), phase_point_operators(3)).weights
        got = np.array([float(w) for _, w in rows[1:]])
        assert got.tobytes() == want.tobytes()

    def test_functor_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "wigner", "functor-check", "--dim", "3", "--trials", "5", "--seed", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        # the verdicts and what they were reached on, and no sample table
        assert list(doc) == [
            "command", "dim", "trials", "seed", "tolerance", "max_composition_violation",
            "max_evaluation_violation", "monoidality", "passed",
        ]

    def test_functor_check_below_rounding_fails(self, capsys):
        # at --tol 1e-300 the rounding of both law checks is a violation
        code, out, _ = run_cli(
            capsys, "wigner", "functor-check", "--dim", "3", "--trials", "2", "--seed", "1",
            "--tol", "1e-300",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["max_composition_violation"] > 0 and doc["max_evaluation_violation"] > 0

    @pytest.mark.parametrize("dim", ["13", "15"])
    def test_functor_check_certifies_odd_dims_past_eleven(self, capsys, dim):
        code, out, _ = run_cli(
            capsys, "wigner", "functor-check", "--dim", dim, "--trials", "1", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["monoidality"]["frame_ok"] is True and doc["passed"] is True

    def test_epistemic(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(dumps_report(ket_to_json(np.array([1, 0, 0], dtype=complex))))
        b.write_text(
            dumps_report(ket_to_json(np.array([1, 1, 0], dtype=complex) / np.sqrt(2)))
        )
        code, out, _ = run_cli(capsys, "wigner", "epistemic", "--psi", str(a), "--phi", str(b))
        assert code == 0
        doc = json.loads(out)
        assert doc["epistemic_witness"] is True and doc["bound_ok"] is True

    def test_epistemic_on_25_points(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(dumps_report(ket_to_json(np.array([1, 0, 0, 0, 0], dtype=complex))))
        b.write_text(
            dumps_report(ket_to_json(np.array([1, 1, 0, 0, 0], dtype=complex) / np.sqrt(2)))
        )
        code, out, _ = run_cli(capsys, "wigner", "epistemic", "--psi", str(a), "--phi", str(b))
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 5 and doc["bound_ok"] is True
        assert doc["epistemic_witness"] is True

    @pytest.mark.parametrize("dims", [(2, 3), (3, 5), (5, 3)])
    def test_epistemic_kets_of_different_dimensions_exit_two(self, capsys, tmp_path, dims):
        # named before any frame is built: not as an even dimension, nor as a
        # state that does not fit the first ket's frame
        paths = []
        for name, d in zip("ab", dims):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(dumps_report(ket_to_json(np.eye(d, dtype=complex)[0])))
        code, out, err = run_cli(
            capsys, "wigner", "epistemic", "--psi", str(paths[0]), "--phi", str(paths[1])
        )
        assert (code, out, err) == (2, "", "error: DimMismatchError: kets have different dimensions\n")


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv,field", [
    # --n is checked before the kets are read
    (["pbr-demo", "--psi", "zero.json", "--phi", "plus.json", "--n"], "--n"),
    (["wigner", "functor-check", "--trials"], "--trials"),
    (["wigner", "functor-check", "--dim"], "--dim"),
    (["wigner", "frame"], "n"),
])
def test_nonpositive_count_exits_two(capsys, argv, field, value):
    # the library's integer gate names the flag or argument
    code, out, err = run_cli(capsys, *argv, value)
    assert (code, out, err) == (
        2, "", f"error: VerificationFailedError: {field} must be a positive integer, got {value}\n"
    )


def _measure_on(n):
    return {"points": [f"x{i}" for i in range(n)], "measure": {"0": 0.0}}


def _decoherence_on(n):
    row = [[1.0 / n, 0.0]] * n
    return {"points": [f"x{i}" for i in range(n)], "decoherence": [row] * n}


KET_2 = {"dim": 2, "amplitudes": [[1, 0], [0, 0]]}
KET_3 = {"dim": 3, "amplitudes": [[0, 0], [1, 0], [0, 0]]}
KET_2_ONE = {"dim": 2, "amplitudes": [[0, 0], [1, 0]]}


def _model_with_basis(basis):
    return {"ontic": ["x"], "states": [{"label": "s", "ket": KET_2}], "distributions": {"s": [1.0]},
            "measurements": [{"basis": basis, "responses": [[1.0], [0.0]]}]}


def _nested(depth, value):
    for _ in range(depth):
        value = [value]
    return value


HUGE = 10 ** 400  # a JSON integer beyond the float range
NAN = float("nan")  # json.dumps writes the NaN literal, which json.load reads
NAN_NORM = "amplitudes: ket amplitudes contain NaN or Inf"
FRAME_TOO_LARGE = (
    "error: TooLargeError: a phase-point frame for n = 99999999999 is n^2 operators of "
    f"n x n complex entries, {16 * 99999999999 ** 4} bytes, more than numpy can index"
)


@pytest.mark.parametrize("argv,doc,named", [
    # the size cap comes before the 2^n table is allocated
    (["qmeasure", "validate", "DOC"], _measure_on(17), "TooLargeError: at most 16 points supported, got 17"),
    (["qmeasure", "validate", "DOC"], _measure_on(65), "TooLargeError: at most 16 points supported, got 65"),
    (["qmeasure", "validate", "DOC"], _decoherence_on(17),
     "error: TooLargeError: at most 16 points supported, got 17"),
    (["wigner", "functor-check", "--seed", "-3"], None,
     "error: VerificationFailedError: --seed must be a non-negative integer, got -3\n"),
    (["wigner", "epistemic", "--psi", "DOC", "--phi", "DOC"],
     {"dim": 3, "amplitudes": [[HUGE, 0], [0, 0], [0, 0]]}, "amplitudes[0]: int too large"),
    (["qmeasure", "validate", "DOC"],
     {"points": ["a"], "decoherence": [[[HUGE, 0]]]}, "decoherence[0][0]: int too large"),
    (["wigner", "state", "DOC"], {"dim": 3, "amplitudes": [[NAN, 0], [0, 0], [0, 0]]}, NAN_NORM),
    (["wigner", "epistemic", "--psi", "DOC", "--phi", "DOC"],
     {"dim": 3, "amplitudes": [[1, 0], [0, NAN], [0, 0]]}, NAN_NORM),
    (["pbr-demo", "--psi", "DOC", "--phi", "DOC"], {"dim": 2, "amplitudes": [[NAN, 0], [0, 0]]}, NAN_NORM),
    # finite, but its norm would overflow: refused by name, with no overflow warning
    (["wigner", "state", "DOC"], {"dim": 3, "amplitudes": [[1e200, 0], [0, 0], [0, 0]]},
     "schema error: amplitudes: ket amplitudes too large: magnitude 1.000e+200 exceeds 3.871e+153\n"),
    # entries past the float range's bound: m + m^dag or a sum could overflow
    (["qmeasure", "validate", "DOC"],
     {"points": ["a", "b"], "decoherence": [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]},
     "schema error: decoherence: functional entries too large: magnitude 1.000e+308 exceeds "
     "3.352e+153\n"),
    (["qmeasure", "validate", "DOC"],
     {"points": ["a", "b"], "decoherence": [[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]]},
     "schema error: decoherence: functional entries too large: magnitude 1.000e+308 exceeds "
     "3.352e+153\n"),
    (["antidist", "DOC", "--target", "0"],
     {"points": ["a", "b"], "weights": [[1e308, 1e308], [0.0, 1.0]]},
     "schema error: weights[0]: weights too large: magnitude 1.000e+308 exceeds 6.704e+153\n"),
    (["validate-model", "DOC"], {**_model_with_basis([KET_2, KET_2_ONE]), "distributions": {"s": [1e308]}},
     "schema error: distributions[s]: weights too large: magnitude 1.000e+308 exceeds 9.481e+153\n"),
    (["qmeasure", "validate", "DOC"],
     {"points": ["a", "b"], "measure": {"0": 0, "1": 0.5, "2": 0.5, "3": 1e308}},
     "schema error: measure: subset values too large: magnitude 1.000e+308 exceeds 4.740e+153\n"),
    (["qmeasure", "validate", "DOC"],
     {"points": ["a", "b"], "measure": {"0": 0, "1": 0.5, "2": 0.5, "3": 1, "4": 0.2}},
     "schema error: measure[4]: bitmask 4 out of range for a power set of 4\n"),
    # one spelling per bitmask: " 3" would overwrite "3"
    (["qmeasure", "validate", "DOC"],
     {"points": ["a", "b"], "measure": {"0": 0, "1": 0.5, "2": 0.5, "3": 1, " 3": 0.2}},
     "measure[ 3]: bitmask key must be written '3'"),
    (["qmeasure", "validate", "DOC"],
     {"points": ["a", "b"], "measure": {"0": 0, "1": 0.5, "2": 0.5, "3": "1"}},
     "measure[3]: expected a real number, got '1'"),
    (["antidist", "DOC", "--target", "0"],
     {"points": ["a", "b"], "weights": [[NAN, 1.0], [0.0, 1.0]]},
     "weights[0]: weights contain NaN or Inf"),
    (["qmeasure", "validate", "DOC"],
     {"points": ["a", "b"], "measure": {"0": 0, "1": 0.5, "2": 0.5, "3": HUGE}},
     "measure[3]: int too large to convert to float"),
    # 16 n^4 bytes beyond what numpy can index, refused before anything is allocated
    (["wigner", "frame", "99999999999"], None, FRAME_TOO_LARGE),
    (["wigner", "functor-check", "--dim", "99999999999"], None, FRAME_TOO_LARGE),
    # the toolkit's words, not numpy's or Python's
    (["antidist", "DOC", "--target", "0"],
     {"points": ["a", "b"], "weights": [[1.0, [0]], [0.0, 1.0]]},
     "schema error: weights[0]: ragged lists: entries differ in length or depth"),
    (["validate-model", "DOC"], _model_with_basis([KET_2, KET_3]),
     "schema error: measurements[0].basis: kets have different dimensions"),
    (["validate-model", "DOC"], _model_with_basis(5),
     "schema error: measurements[0].basis: expected a list of kets"),
    # deeper than numpy's 64 dimensions: named as too deep, not as ragged
    (["antidist", "DOC", "--target", "0"],
     {"points": ["a", "b"], "weights": [[_nested(70, 1.0), 0.0], [0.0, 1.0]]},
     "schema error: weights[0]: nested more than 64 levels deep\n"),
    # a weight or response row is one flat list of numbers, not a nested or bare one
    (["antidist", "DOC", "--target", "0"],
     {"points": ["a", "b"], "weights": [[[0.5], [0.5]], [[0.0], [1.0]]]},
     "schema error: weights[0]: expected a flat list of numbers\n"),
    (["antidist", "DOC", "--target", "0"], {"points": ["a"], "weights": [1.0, [1.0]]},
     "schema error: weights[0]: expected a flat list of numbers\n"),
    (["validate-model", "DOC"], {**_model_with_basis([KET_2, KET_2_ONE]), "distributions": {"s": [[1.0]]}},
     "schema error: distributions[s]: expected a flat list of numbers\n"),
    (["validate-model", "DOC"],
     {**_model_with_basis([KET_2, KET_2_ONE]),
      "measurements": [{"basis": [KET_2, KET_2_ONE], "responses": [[[1.0]], [[0.0]]]}]},
     "schema error: measurements[0].responses[0]: expected a flat list of numbers\n"),
    # one kind per document, not the first key that happens to be read
    (["qmeasure", "validate", "DOC"],
     {**_decoherence_on(2), "measure": {"0": 0.0, "1": 0.5, "2": 0.5, "3": 1.0}},
     "schema error: measure: document needs either 'decoherence' or 'measure', not both\n"),
    # the frame `wigner frame` builds, and its words
    (["wigner", "functor-check", "--dim", "2"], None,
     "error: EvenDimensionError: phase-point construction requires odd dimension, got 2\n"),
    # labels are JSON strings, not what str() makes of other values
    (["antidist", "DOC", "--target", "0"],
     {"points": [None, 1.5], "weights": [[1.0, 0.0], [0.0, 1.0]]},
     "schema error: points[0]: expected a string label, got None\n"),
    (["antidist", "DOC", "--target", "0"],
     {"points": ["a", 1.5], "weights": [[1.0, 0.0], [0.0, 1.0]]},
     "schema error: points[1]: expected a string label, got 1.5\n"),
    (["antidist", "DOC", "--target", "0"],
     {"points": [["a"], {"x": 1}], "weights": [[1.0, 0.0], [0.0, 1.0]]},
     "schema error: points[0]: expected a string label, got ['a']\n"),
    (["qmeasure", "validate", "DOC"],
     {"points": ["a", {"x": 1}], "measure": {"0": 0.0, "1": 0.5, "2": 0.5, "3": 1.0}},
     "schema error: points[1]: expected a string label, got {'x': 1}\n"),
], ids=["measure-17", "measure-65", "decoherence-17", "functor-check-seed", "huge-ket",
        "huge-matrix", "nan-state", "nan-epistemic", "nan-pbr", "huge-finite-ket",
        "decoherence-overflow-hermitian",
        "decoherence-overflow-skew", "huge-antidist-weights", "huge-model-weights", "huge-measure-value",
        "measure-bitmask-range", "measure-key-spelling", "measure-string-value", "nan-antidist",
        "measure-huge-value", "wigner-frame-huge", "functor-check-huge", "ragged-weights",
        "basis-mixed-dims", "basis-not-a-list", "weights-70-deep", "nested-weights", "bare-weights",
        "nested-model-weights", "nested-model-responses", "qmeasure-both-kinds",
        "functor-check-even", "null-point-label", "number-point-label", "list-point-label",
        "map-point-label"])
def test_degenerate_input_exits_two(capsys, tmp_path, argv, doc, named):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert code == 2
    assert out == ""
    assert named in err
    assert len(err.splitlines()) == 1 and "Warning" not in err


def test_help_states_the_exit_codes_main_returns(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("exit codes: 0 all checks pass, 1 check failure, 2 refused: a schema, IO or usage "
            "error, any other OntokitError the library raises, or an allocation that failed.") in text
    assert text.lower().count("exit codes") == 1
    # a library refusal that is no schema error, and a usage error, exit 2 as stated
    assert run_cli(capsys, "wigner", "functor-check", "--dim", "2")[0] == 2
    with pytest.raises(SystemExit) as info:
        main(["wigner", "frame", "three"])
    assert info.value.code == 2


def test_frame_allocation_failure_exits_two(capsys, monkeypatch):
    # numpy's MemoryError on the phase-point frame is a size refusal, not a failed check;
    # 27553 is the largest odd n whose 16 n^4 bytes numpy can index, so its build is reached
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(wigner.np, "arange", refuse)
    code, out, err = run_cli(capsys, "wigner", "functor-check", "--dim", "27553", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == (
        "error: TooLargeError: a phase-point frame for n = 27553 is n^2 operators of n x n "
        f"complex entries, {16 * 27553 ** 4} bytes, which could not be allocated\n"
    )


def test_transfer_allocation_failure_exits_two(capsys, monkeypatch):
    # numpy's MemoryError in a transfer, here in its batched product, is the library's
    # TooLargeError naming the transfer and its bytes: one line, exit 2
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(wigner.np, "matmul", refuse)
    code, out, err = run_cli(capsys, "wigner", "functor-check", "--dim", "3", "--trials", "1")
    assert (code, out) == (2, "")
    assert err == (
        "error: TooLargeError: a transfer from 9 to 9 points is 9 x 9 real entries, 648 bytes, "
        "which could not be computed in the memory available\n"
    )


def test_any_other_allocation_failure_exits_two(capsys, monkeypatch):
    # numpy's MemoryError outside the library's size refusals, here in drawing a channel,
    # is a size refusal too: one line naming the command and numpy's bytes, exit 2
    message = "Unable to allocate 140. MiB for an array with shape (3025, 3025) and data type complex128"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "random_cptp_channel", refuse)
    code, out, err = run_cli(capsys, "wigner", "functor-check", "--dim", "3", "--trials", "1")
    assert (code, out) == (2, "")
    assert err == f"error: TooLargeError: wigner functor-check: {message}\n"
    assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestAntidist:
    def test_certified_and_refuted(self, capsys, tmp_path):
        ens = tmp_path / "ens.json"
        ens.write_text(
            dumps_report(
                {"points": ["a", "b"], "weights": [[1.0, 0.0], [0.0, 1.0]]}
            )
        )
        code, out, _ = run_cli(capsys, "antidist", str(ens), "--target", "0")
        assert code == 0
        assert json.loads(out)["result"] == "certified"

        ens2 = tmp_path / "ens2.json"
        ens2.write_text(
            dumps_report(
                {"points": ["a", "b"], "weights": [[0.5, 0.5], [0.0, 1.0]]}
            )
        )
        code, out, _ = run_cli(capsys, "antidist", str(ens2), "--target", "0")
        assert code == 0
        assert json.loads(out)["result"] == "REFUTED"

    def test_bad_target_exits_two(self, capsys, tmp_path):
        ens = tmp_path / "ens.json"
        ens.write_text(
            dumps_report({"points": ["a"], "weights": [[1.0]]})
        )
        code, out, err = run_cli(capsys, "antidist", str(ens), "--target", "5")
        assert (code, out, err) == (
            2, "", "error: IndexOutOfRangeError: target index 5 out of range for an ensemble of 1\n"
        )

    def test_numbers_written_as_strings_exit_two(self, capsys, tmp_path):
        ens = tmp_path / "ens.json"
        doc = {"points": ["a", "b"], "weights": [["0.5", "0.5"], [1.0, 0.0]]}
        ens.write_text(dumps_report(doc))
        code, out, err = run_cli(capsys, "antidist", str(ens), "--target", "0")
        assert code == 2
        assert out == ""
        assert err == "schema error: weights[0][0]: expected a number, got '0.5'\n"

    def test_duplicate_labels_exit_two(self, capsys, tmp_path):
        ens = tmp_path / "ens.json"
        ens.write_text(dumps_report({"points": ["a", "a"], "weights": [[1.0, 0.0], [0.0, 1.0]]}))
        code, out, err = run_cli(capsys, "antidist", str(ens), "--target", "0")
        assert code == 2
        assert out == ""
        assert "points" in err and "distinct" in err


class TestValidateModel:
    def _model_doc(self, tweak=None):
        doc = {
            "ontic": ["a", "b"],
            "states": [
                {"label": "zero", "ket": {"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}},
            ],
            "distributions": {"zero": [1.0, 0.0]},
            "measurements": [
                {
                    "basis": [
                        {"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
                        {"dim": 2, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]},
                    ],
                    "responses": [[1.0, 0.0], [0.0, 1.0]],
                }
            ],
        }
        if tweak:
            tweak(doc)
        return doc

    def test_clean_model_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(dumps_report(self._model_doc()))
        code, out, _ = run_cli(capsys, "validate-model", str(path))
        assert code == 0
        assert json.loads(out)["clean"] is True

    def test_violating_model_exits_one(self, capsys, tmp_path):
        def tweak(doc):
            doc["measurements"][0]["responses"] = [[0.5, 0.0], [0.0, 1.0]]

        path = tmp_path / "model.json"
        path.write_text(dumps_report(self._model_doc(tweak)))
        code, out, _ = run_cli(capsys, "validate-model", str(path))
        assert code == 1
        assert json.loads(out)["clean"] is False

    def test_schema_error_names_field(self, capsys, tmp_path):
        def tweak(doc):
            del doc["distributions"]

        path = tmp_path / "model.json"
        path.write_text(dumps_report(self._model_doc(tweak)))
        code, _, err = run_cli(capsys, "validate-model", str(path))
        assert code == 2
        assert "distributions" in err

    def test_duplicate_ontic_labels_exit_two(self, capsys, tmp_path):
        def tweak(doc):
            doc["ontic"] = ["a", "a"]

        path = tmp_path / "model.json"
        path.write_text(dumps_report(self._model_doc(tweak)))
        code, out, err = run_cli(capsys, "validate-model", str(path))
        assert code == 2
        assert out == ""
        assert "ontic" in err and "distinct" in err


QUTRIT_KETS = [
    {"dim": 3, "amplitudes": [[float(i == j), 0.0] for j in range(3)]} for i in range(3)
]


def _mixed_ket_dims(doc):
    doc["states"].append({"label": "tri", "ket": QUTRIT_KETS[0]})
    doc["distributions"]["tri"] = [0.0, 1.0]


def _qutrit_basis(doc):
    doc["measurements"][0]["basis"] = QUTRIT_KETS
    doc["measurements"][0]["responses"] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]


def _incomplete_basis(doc):
    del doc["measurements"][0]["basis"][1]
    doc["measurements"][0]["responses"] = [[1.0, 1.0]]


def _ragged_basis(doc):
    doc["measurements"][0]["basis"][1] = QUTRIT_KETS[1]


def _one_response(doc):
    doc["measurements"][0]["responses"] = [[1.0, 1.0]]


def _signed_distribution(doc):
    doc["distributions"]["zero"] = [1.5, -0.5]


def _unnamed_signed_distribution(doc):
    doc["distributions"]["extra"] = [1.5, -0.5]


def _unnamed_unnormalised_distribution(doc):
    doc["distributions"]["extra"] = [0.7, 0.7]


def _no_distribution(doc):
    doc["distributions"] = {}


def _duplicate_state(doc):
    doc["states"].append(dict(doc["states"][0]))


def _states_not_a_list(doc):
    doc["states"] = 5


def _measurements_not_a_list(doc):
    doc["measurements"] = {"basis": []}


def _string_distribution(doc):
    doc["distributions"]["zero"] = ["1.0", 0.0]


def _string_response(doc):
    doc["measurements"][0]["responses"][1] = [0.0, "1"]


def _unnormalised_state(doc):
    doc["states"].append({"label": "long", "ket": {"dim": 2, "amplitudes": [[1.1, 0.0], [0.0, 0.0]]}})
    doc["distributions"]["long"] = [0.0, 1.0]


def _unnormalised_basis_vector(doc):
    doc["measurements"][0]["basis"][1] = {"dim": 2, "amplitudes": [[0.0, 0.0], [1.1, 0.0]]}


def _nan_state(doc):
    doc["states"][0]["ket"]["amplitudes"][1] = [NAN, 0.0]


def _nan_basis_vector(doc):
    doc["measurements"][0]["basis"][1]["amplitudes"][1] = [NAN, 0.0]


def _number_state_label(doc):
    doc["states"][0]["label"] = 7
    doc["distributions"]["7"] = doc["distributions"].pop("zero")


def _null_ontic_label(doc):
    doc["ontic"][0] = None


def _nan_responses(doc):
    doc["measurements"][0]["responses"] = [[1.0, NAN], [0.0, NAN]]


MALFORMED_MODELS = [
    (_mixed_ket_dims, ["model", "state 'tri'", "dimension 3"]),
    (_qutrit_basis, ["model", "measurement 0", "dimension 3"]),
    (_incomplete_basis, ["measurements[0].basis", "C^2"]),
    (_ragged_basis, ["measurements[0].basis"]),
    (_one_response, ["measurements[0].responses"]),
    (_signed_distribution, ["model", "'zero'", "signed"]),
    # a row no state names is held to the same rules
    (_unnamed_signed_distribution,
     ["schema error: distributions[extra]: distribution is signed\n"]),
    (_unnamed_unnormalised_distribution,
     ["schema error: distributions[extra]: weights sum to 1.4, expected 1\n"]),
    (_no_distribution, ["model", "'zero'", "no distribution"]),
    (_duplicate_state, ["model", "state labels must be distinct"]),
    (_states_not_a_list, ["states", "expected a list"]),
    (_measurements_not_a_list, ["measurements", "expected a list"]),
    (_string_distribution, ["distributions[zero][0]", "expected a number, got '1.0'"]),
    (_string_response, ["measurements[0].responses[1][1]", "expected a number, got '1'"]),
    (_unnormalised_state,
     ["schema error: states[1].ket.amplitudes: ket norm 1.1 deviates from 1 beyond 1e-10\n"]),
    (_unnormalised_basis_vector,
     ["schema error: measurements[0].basis[1].amplitudes: ket norm 1.1 deviates from 1 beyond 1e-10\n"]),
    (_nan_state, [f"schema error: states[0].ket.{NAN_NORM}\n"]),
    (_nan_basis_vector, [f"schema error: measurements[0].basis[1].{NAN_NORM}\n"]),
    (_nan_responses,
     ["schema error: measurements[0].responses: response values must lie in [0, 1]\n"]),
    (_number_state_label, ["schema error: states[0].label: expected a string label, got 7\n"]),
    (_null_ontic_label, ["schema error: ontic[0]: expected a string label, got None\n"]),
]


@pytest.mark.parametrize(
    "tweak,named", MALFORMED_MODELS, ids=[t.__name__.strip("_") for t, _ in MALFORMED_MODELS]
)
def test_malformed_model_exits_two(capsys, tmp_path, tweak, named):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(TestValidateModel()._model_doc(tweak)))
    code, out, err = run_cli(capsys, "validate-model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("schema error: ") and "Traceback" not in err
    for text in named:
        assert text in err


class TestQmeasureCli:
    def test_decoherence_validates(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        psi = np.array([1.0, np.exp(2j * np.pi / 3)])
        m = np.outer(psi, psi.conj())
        doc = {
            "points": ["a", "b"],
            "decoherence": [
                [[float(z.real), float(z.imag)] for z in row] for row in m
            ],
        }
        path.write_text(dumps_report(doc))
        code, out, _ = run_cli(capsys, "qmeasure", "validate", str(path))
        assert code == 0
        parsed = json.loads(out)
        assert parsed["clean"] is True
        assert parsed["derived_measure"]["clean"] is True

    def test_hermitian_within_tol_derives_its_measure(self, capsys, tmp_path):
        # |D - D^dag| <= 9e-10 entrywise, within tol 1e-9, although Im D(U, U)
        # reaches 1.8e-9 on U = {a, b}
        v = np.array([1.0, 1.0, -1.0, -1.0])
        m = np.full((4, 4), 1.0 / 16) + 0.45e-9j * np.outer(v, v)
        path = tmp_path / "d.json"
        doc = {
            "points": ["a", "b", "c", "d"],
            "decoherence": [[[float(z.real), float(z.imag)] for z in row] for row in m],
        }
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "qmeasure", "validate", str(path))
        assert (code, err) == (0, "")
        parsed = json.loads(out)
        assert parsed["hermitian_error"] <= parsed["tolerance"]
        assert parsed["derived_measure"]["clean"] is True

    def test_measure_report_holds_its_findings_only(self, capsys, tmp_path):
        # the measure check is the same on every document, so the report does not name it
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"points": ["a"], "measure": {"0": 0.0, "1": 1.0}}))
        code, out, _ = run_cli(capsys, "qmeasure", "validate", str(path))
        assert code == 0
        assert list(json.loads(out)) == [
            "command", "kind", "tolerance", "clean", "normalisation_error",
            "positivity_violations", "range_violations", "sum_rule_violations",
        ]

    @pytest.mark.parametrize("decoherence", [
        [[[0.5, 0.0], [-0.25, 0.0]], [[-0.25, 0.0], [0.5, 0.0]]],
        # not Hermitian: its report gives the Hermitian part's least eigenvalue
        [[[0.5, 0.0], [0.0, 1e-3]], [[0.0, 0.0], [0.5, 0.0]]],
    ], ids=["not-normalised", "not-hermitian"])
    def test_invalid_functional_exits_one(self, capsys, tmp_path, decoherence):
        path = tmp_path / "d.json"
        doc = {"points": ["a", "b"], "decoherence": decoherence}
        path.write_text(dumps_report(doc))
        code, out, _ = run_cli(capsys, "qmeasure", "validate", str(path))
        assert code == 1
        assert json.loads(out)["clean"] is False

    def test_non_numeric_measure_value_exits_two(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"points": ["a"], "measure": {"0": 0.0, "1": "x"}}))
        code, out, err = run_cli(capsys, "qmeasure", "validate", str(path))
        assert code == 2
        assert out == ""
        assert "measure[1]" in err

    @pytest.mark.parametrize("text, message", [
        ("not json", "schema error: {path}: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"),
        (json.dumps({"points": ["a"], "measure": {"0": 0.0, "x": 0.5, "1": 1.0}}),
         "schema error: measure[x]: bitmask keys must be integers\n"),
        # a 2-point decoherence functional given as 2 x 3
        (json.dumps({"points": ["a", "b"], "decoherence": [[[0.5, 0.0]] * 3, [[0.0, 0.0]] * 3]}),
         "schema error: decoherence: singleton matrix shape must match the space\n"),
    ], ids=["not-json", "measure-key-x", "decoherence-2x3"])
    def test_malformed_document_exits_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "q.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "qmeasure", "validate", str(path))
        assert (code, out, err) == (2, "", message.format(path=path))

    @pytest.mark.parametrize("form", [
        {"measure": {"0": 0.0, "1": 0.5, "2": 0.5, "3": 1.0}},
        {"decoherence": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    ])
    def test_duplicate_labels_exit_two(self, capsys, tmp_path, form):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"points": ["a", "a"], **form}))
        code, out, err = run_cli(capsys, "qmeasure", "validate", str(path))
        assert code == 2
        assert out == ""
        assert "points" in err and "distinct" in err


class TestTolOverride:
    def test_env_var_tolerance(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ONTOKIT_TOL", "0.5")
        doc = {
            "ontic": ["a"],
            "states": [
                {"label": "zero", "ket": {"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}},
            ],
            "distributions": {"zero": [1.0]},
            "measurements": [
                {
                    "basis": [
                        {"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
                        {"dim": 2, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]},
                    ],
                    "responses": [[0.7], [0.3]],
                }
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(dumps_report(doc))
        code, out, _ = run_cli(capsys, "validate-model", str(path))
        assert code == 0  # 0.3 deviation tolerated at 0.5


def _tol_command(name, tmp_path, state_files):
    """argv for each subcommand that reads a tolerance, on valid inputs."""
    if name == "validate-model":
        path = tmp_path / "model.json"
        path.write_text(dumps_report(TestValidateModel()._model_doc()))
        return ["validate-model", str(path)]
    if name == "pbr-demo":
        zero, plus = state_files
        return ["pbr-demo", "--psi", zero, "--phi", plus]
    if name == "wigner functor-check":
        return ["wigner", "functor-check", "--trials", "1"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"points": ["a"], "measure": {"0": 0.0, "1": 1.0}}))
    return ["qmeasure", "validate", str(path)]


@pytest.mark.parametrize(
    "source,raw",
    [("flag", "abc"), ("flag", "nan"), ("flag", "inf"), ("flag", "-1"), ("flag", "0"),
     ("env", "abc"), ("env", "nan"), ("env", "inf")],
)
@pytest.mark.parametrize(
    "command", ["validate-model", "pbr-demo", "wigner functor-check", "qmeasure validate"]
)
def test_bad_tolerance_exits_two(capsys, tmp_path, state_files, monkeypatch, command, source, raw):
    argv = _tol_command(command, tmp_path, state_files)
    if source == "flag":
        argv += ["--tol", raw]
    else:
        monkeypatch.setenv("ONTOKIT_TOL", raw)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert ("--tol" if source == "flag" else "ONTOKIT_TOL") in err
    assert raw in err


# sha256 of stdout for the README commands (and one d = 7 run), run on the
# files scripts/make_example_inputs.py writes, with numpy 2.4 and OpenBLAS on
# x86-64.  The pbr-demo and validate-model rows were recorded before the
# Kraus stack and the flat-float emitter replaced the per-Kraus and
# per-value loops (validate-model: before models were parsed as matrices);
# the other five before the unused kernel, functor and CLI options were
# removed.  The two functor-check rows were re-recorded when the
# monoidality check moved to sampled product columns: their stdout differs
# from the dense check's only in the max_transfer_residual line.  They were
# re-recorded again when transfers moved to the frames' factor form: only
# floats in sample_kernel and max_transfer_residual moved, each by less
# than 1.2e-16.  They were re-recorded a third time when
# max_transfer_residual became the layout bound of the product Kraus stack:
# that line alone moved, from 1.3e-16 (d = 3) and 2.2e-17 (d = 7) to 0.  The
# wigner-state-csv row was re-recorded when the CSV writer began to quote
# the "(q,p)" labels, whose comma split each row into three fields; the
# header and the weights are unchanged.  The wigner-frame-7 row was recorded
# while the phase-point frame was still built from a dense meshgrid scatter,
# before its builder began to state the frame's factor form.  The two
# functor-check rows were re-recorded a fourth time when the report stopped
# emitting the kernel of an extra random channel: only the sample_kernel
# block went.  The pbr-demo row was re-recorded when the constant
# parametrization line left the report; nothing else moved.  The two
# functor-check rows were re-recorded a fifth time when monoidality_check
# stopped running its layout trial: a diff against the previous output
# showed that the always-zero max_transfer_residual line alone went.  The
# wigner-state-json row was recorded after "negative" began to read the sign
# rule: the Fourier ket's minimum weight, -1.1e-16, is rounding, not negativity.
GOLDEN_STDOUT = {
    "antidist": "869b60a504603c29e5f8a4f2eafe65947ad506a3f353fd847215b66b20b79526",
    "functor-check-dim3": "b9087df23074a40ca0f0bac752d11b12efd435fdd2f6d6f864c9a4b11340672c",
    "functor-check-dim7": "1922a79418f5d26d1d9b7b45f4aeb0761e507fbc3fa03a29f38c41faa6c083a4",
    "pbr-demo": "229f88876e1ab45e5a59c9a431241cd43b0b98df1a3f99dccb6c01b0a7033a6a",
    "qmeasure-validate": "adde2b565c5ec59d8389d8f30443b58bdc8afcbcb8b6d313ca1ad77c74b40495",
    "validate-model": "7d78c365dde5149531f9e671cd1d68ddfe726a6a3249bc8e7f98123086a5095e",
    "wigner-epistemic": "b66c70c386ea977f4c0254fe129a13892d934e87c56b9f1e7432f9a3af079ebd",
    "wigner-frame-3": "07ef2bff3260a7d22a5c83fd0026c9a7a8ce6c05abe21923143728392dc91cdc",
    "wigner-frame-7": "522f6d5633595eafe974ab731ec938a7354d26a00e02ffd91a5a0c8a506f1704",
    "wigner-state-csv": "41677fb8b8a44367da9d8bd3a1889836d26ed3c0dcf49433d8eb5d427d597d05",
    "wigner-state-json": "59834dacef31e8c375019294259b48b2dd784ea6c1b709cd6116813fe15f3499",
}

GOLDEN_ARGV = {
    "antidist": "antidist {ex}/ensemble_disjoint.json --target 0",
    "functor-check-dim3": "wigner functor-check --dim 3 --trials 200 --seed 7",
    "functor-check-dim7": "wigner functor-check --dim 7 --trials 2 --seed 3",
    "pbr-demo": "pbr-demo --psi {ex}/zero.json --phi {ex}/plus.json",
    "qmeasure-validate": "qmeasure validate {ex}/double_slit.json",
    "validate-model": "validate-model {ex}/model_epistemic.json",
    "wigner-epistemic": "wigner epistemic --psi {ex}/qutrit_zero.json --phi {ex}/qutrit_superposition.json",
    "wigner-frame-3": "wigner frame 3",
    "wigner-frame-7": "wigner frame 7",
    "wigner-state-csv": "wigner state {ex}/qutrit_superposition.json --csv",
    "wigner-state-json": "wigner state {ex}/qutrit_fourier.json",
}


@pytest.fixture(scope="module")
def example_inputs(tmp_path_factory):
    """The directory scripts/make_example_inputs.py writes its files to."""
    out = tmp_path_factory.mktemp("example_inputs")
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_example_inputs.py"
    argv = sys.argv
    sys.argv = [str(script), str(out)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, example_inputs, name):
    argv = [a.format(ex=example_inputs) for a in GOLDEN_ARGV[name].split()]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[name]


def test_a_document_too_deep_to_read_exits_two(capsys, tmp_path):
    # json.load runs out of stack before any reader sees the row; written by
    # hand, since json.dumps runs out of stack too
    row = "[" * 1200 + "1.0" + "]" * 1200
    path = tmp_path / "ensemble.json"
    path.write_text('{"points": ["a", "b"], "weights": [[%s, 0.0], [0.0, 1.0]]}' % row)
    code, out, err = run_cli(capsys, "antidist", str(path), "--target", "0")
    assert (code, out) == (2, "")
    assert err == f"schema error: {path}: document nested too deeply to read\n"

"""Command-line surface: exit codes, determinism, schemas."""

import hashlib
import json

import numpy as np
import pytest

from ontokit.cli import main
from ontokit.serialize import dumps_report, ket_to_json


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

    def test_state_csv(self, capsys, tmp_path):
        psi = tmp_path / "psi.json"
        psi.write_text(dumps_report(ket_to_json(np.array([1, 0, 0], dtype=complex))))
        code, out, _ = run_cli(capsys, "wigner", "state", str(psi), "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "point,weight"
        assert len(lines) == 10

    def test_functor_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "wigner", "functor-check", "--dim", "3", "--trials", "5", "--seed", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        # emitted sample kernel parses back through the documented schema
        from ontokit.serialize import parse_kernel

        kernel = parse_kernel(doc["sample_kernel"])
        assert kernel.source.size == 9 and kernel.target.size == 9

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


class TestLemmas:
    def test_byte_identical_reruns(self, capsys):
        code1, out1, _ = run_cli(capsys, "lemmas", "--trials", "10", "--seed", "1")
        code2, out2, _ = run_cli(capsys, "lemmas", "--trials", "10", "--seed", "1")
        assert code1 == code2 == 0
        assert out1 == out2


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("argv,field", [
    (["lemmas", "--trials"], "--trials"),
    (["wigner", "functor-check", "--trials"], "--trials"),
    (["wigner", "functor-check", "--dim"], "--dim"),
    (["wigner", "frame"], "n"),
])
def test_nonpositive_count_exits_two(capsys, argv, field, value):
    code, out, err = run_cli(capsys, *argv, value)
    assert code == 2
    assert out == ""
    assert f"{field}: expected a positive integer, got {value}" in err


def _measure_on(n):
    return {"points": [f"x{i}" for i in range(n)], "measure": {"0": 0.0}}


def _decoherence_on(n):
    row = [[1.0 / n, 0.0]] * n
    return {"points": [f"x{i}" for i in range(n)], "decoherence": [row] * n}


HUGE = 10 ** 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("argv,doc,named", [
    # the size cap comes before the 2^n table is allocated
    (["qmeasure", "validate", "DOC"], _measure_on(17), "TooLargeError: at most 16 points supported, got 17"),
    (["qmeasure", "validate", "DOC"], _measure_on(65), "TooLargeError: at most 16 points supported, got 65"),
    (["qmeasure", "validate", "DOC"], _decoherence_on(17),
     "error: TooLargeError: at most 16 points supported, got 17"),
    (["lemmas", "--seed", "-1"], None, "--seed: expected a non-negative integer, got -1"),
    (["wigner", "functor-check", "--seed", "-3"], None, "--seed: expected a non-negative integer, got -3"),
    (["wigner", "epistemic", "--psi", "DOC", "--phi", "DOC"],
     {"dim": 3, "amplitudes": [[HUGE, 0], [0, 0], [0, 0]]}, "amplitudes[0]: int too large"),
    (["qmeasure", "validate", "DOC"],
     {"points": ["a"], "decoherence": [[[HUGE, 0]]]}, "decoherence[0][0]: int too large"),
], ids=["measure-17", "measure-65", "decoherence-17", "lemmas-seed", "functor-check-seed", "huge-ket", "huge-matrix"])
def test_degenerate_input_exits_two(capsys, tmp_path, argv, doc, named):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert code == 2
    assert out == ""
    assert named in err


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
        code, _, err = run_cli(capsys, "antidist", str(ens), "--target", "5")
        assert code == 2
        assert "target" in err

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


MALFORMED_MODELS = [
    (_mixed_ket_dims, ["model", "state 'tri'", "dimension 3"]),
    (_qutrit_basis, ["model", "measurement 0", "dimension 3"]),
    (_incomplete_basis, ["measurements[0].basis", "C^2"]),
    (_ragged_basis, ["measurements[0].basis"]),
    (_one_response, ["measurements[0].responses"]),
    (_signed_distribution, ["model", "'zero'", "signed"]),
    (_no_distribution, ["model", "'zero'", "no distribution"]),
    (_duplicate_state, ["model", "state labels must be distinct"]),
    (_states_not_a_list, ["states", "expected a list"]),
    (_measurements_not_a_list, ["measurements", "expected a list"]),
    (_string_distribution, ["distributions[zero][0]", "expected a number, got '1.0'"]),
    (_string_response, ["measurements[0].responses[1][1]", "expected a number, got '1'"]),
    (_unnormalised_state,
     ["schema error: states[1].ket.amplitudes: ket norm np.float64(1.1) deviates from 1\n"]),
    (_unnormalised_basis_vector,
     ["schema error: measurements[0].basis[1].amplitudes: ket norm np.float64(1.1) deviates from 1\n"]),
]


@pytest.mark.parametrize(
    "tweak,named", MALFORMED_MODELS, ids=[t.__name__.strip("_") for t, _ in MALFORMED_MODELS]
)
def test_malformed_model_exits_two(capsys, tmp_path, tweak, named):
    path = tmp_path / "model.json"
    path.write_text(dumps_report(TestValidateModel()._model_doc(tweak)))
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

    def test_invalid_functional_exits_one(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        doc = {
            "points": ["a", "b"],
            "decoherence": [
                [[0.5, 0.0], [-0.25, 0.0]],
                [[-0.25, 0.0], [0.5, 0.0]],
            ],
        }
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


# sha256 of stdout for the README commands (and one d = 7 run), recorded
# before the Kraus stack and the flat-float emitter replaced the per-Kraus
# and per-value loops, with numpy 2.4 and OpenBLAS on x86-64; the
# validate-model row was recorded before models were parsed as matrices.
GOLDEN_STDOUT = {
    "functor-check-dim3": "e0c9a7a14ddd13829ece11ce996ff2c7912e1817526dde3c16a6e6a8375a7496",
    "functor-check-dim7": "52e4ffe13a72b301d9e31eacc773ed6ddde2c92933fd5ca2262ccdf7884681ab",
    "pbr-demo": "0e45b7df7935af149823cc8c585166de30a62ba54ddd6cb00fa5936d20558640",
    "validate-model": "7d78c365dde5149531f9e671cd1d68ddfe726a6a3249bc8e7f98123086a5095e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, tmp_path, name):
    # the inputs of scripts/make_example_inputs.py, written the same way
    inv = 1.0 / np.sqrt(2.0)
    zero, plus = (ket_to_json(np.array(psi, dtype=complex)) for psi in ([1, 0], [inv, inv]))
    if name == "pbr-demo":
        files = []
        for label, ket in (("zero", zero), ("plus", plus)):
            path = tmp_path / f"{label}.json"
            path.write_text(dumps_report(ket) + "\n")
            files.append(str(path))
        argv = ["pbr-demo", "--psi", files[0], "--phi", files[1]]
    elif name == "validate-model":
        one = ket_to_json(np.array([0, 1], dtype=complex))
        doc = {
            "ontic": ["a", "b", "c"],
            "states": [{"label": "zero", "ket": zero}, {"label": "plus", "ket": plus}],
            "distributions": {"zero": [0.5, 0.5, 0.0], "plus": [0.5, 0.0, 0.5]},
            "measurements": [
                {"basis": [zero, one], "responses": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
            ],
        }
        path = tmp_path / "model_epistemic.json"
        path.write_text(dumps_report(doc) + "\n")
        argv = ["validate-model", str(path)]
    elif name == "functor-check-dim3":
        argv = ["wigner", "functor-check", "--dim", "3", "--trials", "200", "--seed", "7"]
    else:
        argv = ["wigner", "functor-check", "--dim", "7", "--trials", "2", "--seed", "3"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[name]

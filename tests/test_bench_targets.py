"""The benchmark's view of the package: the traced pass names its spans by
(module, attribute) in ``bench/tracing.py``, and every such target must
still exist; the checks in ``bench/checks.py`` report what the library
computes."""

import importlib
import json
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ontokit import kernels, linalg, ontomodel, quantum, serialize, wigner
from test_ontomodel import predicates_oracle

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name, monkeypatch=None):
    """``bench/<name>.py`` executed from its source text, so nothing is
    written under bench/.  With ``monkeypatch`` the module is in
    ``sys.modules`` while the test runs, where dataclasses look it up."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


TARGETS = _bench_module("tracing").TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(t[0], t[1]) for t in TARGETS], ids=[f"{t[0]}:{t[1]}" for t in TARGETS]
)
def test_trace_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, attr))


def test_model_reports_count_the_oracle_violations(monkeypatch):
    """One validators block (seed 1): each model report counts the pairs the
    per-pair loop lists."""
    inputs, checks = _bench_module("inputs", monkeypatch), _bench_module("checks")
    items = [item for item in inputs.generate("validators", 1, 1) if item.kind == "model"]
    assert len(items) == len(inputs.MODEL_SIZES)
    for item in items:
        report = json.loads(checks.run(item))["maximal_predicates"]
        model = serialize.parse_model(json.loads(item.docs["model"]))
        want = predicates_oracle(model, checks.MODEL_TOL)
        assert report == {
            "maximally_epistemic": want.maximally_epistemic,
            "maximally_nontrivial": want.maximally_nontrivial,
            "epistemic_violations": len(want.epistemic_violations),
            "nontrivial_violations": len(want.nontrivial_violations),
        }
        assert report["epistemic_violations"] > 0


def test_monoidality_reports_keep_their_fields(monkeypatch):
    """One functor block (seed 1): the monoidality report of each
    ``FUNCTOR_MONOIDAL_PAIRS`` request keeps the fields it had when the check
    ran a layout trial, the request's trials and seed echoed and the residual
    the constant 0."""
    inputs, checks = _bench_module("inputs", monkeypatch), _bench_module("checks")
    items = [item for item in inputs.generate("functor", 1, 1) if item.kind == "monoidality"]
    assert sorted((item.meta["m"], item.meta["n"]) for item in items) == sorted(
        inputs.FUNCTOR_MONOIDAL_PAIRS)
    for item in items:
        request = json.loads(item.docs["request"])
        report = json.loads(checks.run(item))
        assert list(report) == [
            "command", "m", "n", "trials", "seed", "frame_ok", "max_transfer_residual", "passed",
        ]
        assert report == {
            "command": "wigner-monoidality", **request,
            "frame_ok": True, "max_transfer_residual": 0, "passed": True,
        }


def test_each_functor_law_check_admits_eight_channels_through_the_constructor(monkeypatch):
    """One functor block (seed 1): a functor_law check builds f, g, two
    composites, two identities, a preparation and a measurement channel, and
    each passes ``Channel.__post_init__``, the span the traced pass counts."""
    inputs, checks = _bench_module("inputs", monkeypatch), _bench_module("checks")
    items = [item for item in inputs.generate("functor", 1, 1) if item.kind == "functor_law"]
    post_init = quantum.Channel.__post_init__
    admitted = []

    def spy(self):
        post_init(self)
        admitted.append(self)

    monkeypatch.setattr(quantum.Channel, "__post_init__", spy)
    for item in items:
        admitted.clear()
        checks.run(item)
        assert len(admitted) == 8


def test_model_path_builds_no_row_objects(monkeypatch):
    """One validators block (seed 1): reading each model document and
    running the three model checks on it builds no Distribution or
    ResponseFunction; the model holds arrays only."""
    inputs = _bench_module("inputs", monkeypatch)
    items = inputs.generate("validators", 1, 1)
    docs = [item.docs["model"] for item in items if item.kind == "model"]

    def refuse(*args):
        raise AssertionError("a per-row object was built")

    monkeypatch.setattr(kernels.Distribution, "__post_init__", refuse)
    monkeypatch.setattr(kernels.ResponseFunction, "__post_init__", refuse)
    monkeypatch.setattr(kernels, "distribution_rows", refuse)
    monkeypatch.setattr(serialize, "distribution_rows", refuse)
    for doc in docs:
        model = serialize.parse_model(json.loads(doc))
        ontomodel.validate_model(model)
        ontomodel.classify_model(model)
        ontomodel.maximal_predicates(model)
        arrays = [model.kets, model.weights] + [r for _, r in model.measurements]
        assert all(type(a) is np.ndarray for a in arrays)


def _count_row_checks(monkeypatch):
    """Count the calls of the three row checks, wherever they are bound."""
    calls = Counter()
    for owner, name, modules in (
        (linalg, "as_kets", (linalg,)),
        (kernels, "_check_weight_rows", (kernels, ontomodel, serialize)),
        (kernels, "_check_response_rows", (kernels, ontomodel, serialize)),
    ):
        def spy(*args, name=name, check=getattr(owner, name)):
            calls[name] += 1
            return check(*args)

        for module in modules:
            monkeypatch.setattr(module, name, spy)
    return calls


def test_documents_check_each_row_once(monkeypatch):
    """The first seed-1 validators model (14 states, 2 measurements) and
    exclusion ensemble: the readers check no number that a constructor
    checks, so each row check runs once per part: the state kets, each
    basis, the weight rows and each measurement's response rows."""
    inputs = _bench_module("inputs", monkeypatch)
    model_doc = next(i for i in inputs.generate("validators", 1, 1) if i.kind == "model")
    ensemble_doc = next(i for i in inputs.generate("exclusion", 1, 1) if "ensemble" in i.docs)
    calls = _count_row_checks(monkeypatch)
    model = serialize.parse_model(json.loads(model_doc.docs["model"]))
    assert (len(model.labels), len(model.measurements)) == (14, 2)
    assert calls == {"as_kets": 3, "_check_weight_rows": 1, "_check_response_rows": 2}
    calls.clear()
    serialize.parse_ensemble(json.loads(ensemble_doc.docs["ensemble"]))
    assert calls == {"_check_weight_rows": 1}


def test_clear_frame_caches_empties_both_frame_caches():
    checks = _bench_module("checks")
    checks.warm_frames("functor")
    builders = (wigner.phase_point_operators, wigner.commutative_frame)
    assert all(b.cache_info().currsize > 0 for b in builders)
    checks.clear_frame_caches()
    assert [b.cache_info().currsize for b in builders] == [0, 0]

"""In-memory spans around ontokit's layers, recorded from outside the program.

``Tracer.installed()`` wraps each layer's public functions (and the
``__post_init__`` validators of its value classes) at every module
attribute that refers to them, so calls made through ``ontokit.quantum``,
``ontokit.antidist.apply_channel`` or a function-local import all land in
the wrapper.  Nothing under ``src/`` is edited; leaving the context
restores the original attributes.

A span is ``[name, start, end, parent, check, attrs]``: ``parent`` is the
index of the enclosing span (-1 for none), ``check`` the index of the check
it belongs to, ``attrs`` sizes and decision paths read from the call's
arguments and result.  ``layer_metrics`` derives the per-layer metrics.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "quantum", "kernels", "wigner", "antidist", "ontomodel",
          "qmeasure", "serialize", "sampling")
EIG_DIMS = tuple(range(1, 13))
VERTEX_POINTS = tuple(range(2, 15))
PBR_POWERS = tuple(range(1, 9))
QMEASURE_POINTS = tuple(range(4, 13))


def _dim(args, kwargs, out):
    return {"n": int(np.shape(args[0])[0])}


def _kraus(args, kwargs, out):
    return {"k": len(args[0].kraus)}


def _decide_input(args, kwargs):
    problem = args[0]
    return {"k": problem.ensemble[0].space.size,
            "signed": not all(d.is_probability for d in problem.ensemble)}


def _decide(args, kwargs, out):
    return {**_decide_input(args, kwargs), "refuted": out is None}


def _compress(args, kwargs, out):
    channel = getattr(out, "channel", None)
    dim = channel.in_dim if channel is not None else np.size(args[0]) ** out.n
    return {"n": out.n, "dense_dim": int(dim)}


def _pbr(args, kwargs, out):
    return {"n": out.n}


def _qmeasure(args, kwargs, out):
    n = args[0].space.size
    path = out.triple_check
    return {
        "n": n,
        "path": path,
        "terms": 4 ** n if path == "direct" else 2 ** n,
        "violations": len(out.sum_rule_violations) + len(out.positivity_violations)
        + len(out.range_violations),
    }


def _emit(args, kwargs, out):
    return {"bytes": len(out)}


# (module, attribute, span name, attrs-from-result, attrs-from-input, flat)
# ``flat`` spans skip their own recursive calls (dumps_report recurses per value).
TARGETS = (
    ("ontokit.linalg", "hermitian_eigensystem", "linalg.eig", _dim, None, False),
    ("ontokit.quantum", "DensityMatrix.__post_init__", "quantum.density", None, None, False),
    ("ontokit.quantum", "TwoOutcomeMeasurement.__post_init__", "quantum.effect", None, None, False),
    ("ontokit.quantum", "ProjectiveMeasurement.__post_init__", "quantum.projective", None, None, False),
    ("ontokit.quantum", "Channel.__post_init__", "quantum.channel", _kraus, None, False),
    ("ontokit.quantum", "apply_channel", "quantum.apply", None, None, False),
    ("ontokit.quantum", "compose", "quantum.compose", None, None, False),
    ("ontokit.quantum", "tensor", "quantum.tensor", None, None, False),
    ("ontokit.quantum", "born", "quantum.born", None, None, False),
    ("ontokit.quantum", "overlap", "quantum.overlap", None, None, False),
    ("ontokit.quantum", "preparation_channel", "quantum.prep", None, None, False),
    ("ontokit.quantum", "measurement_channel", "quantum.meas", None, None, False),
    ("ontokit.kernels", "kcompose", "kernels.kcompose", None, None, False),
    ("ontokit.kernels", "ktensor", "kernels.ktensor", None, None, False),
    ("ontokit.kernels", "dtensor", "kernels.dtensor", None, None, False),
    ("ontokit.kernels", "evaluate", "kernels.evaluate", None, None, False),
    ("ontokit.kernels", "variational_distance", "kernels.variational", None, None, False),
    ("ontokit.kernels", "support_mask", "kernels.support", None, None, False),
    ("ontokit.kernels", "SignedKernel.__post_init__", "kernels.kernel", None, None, False),
    ("ontokit.kernels", "Distribution.__post_init__", "kernels.distribution", None, None, False),
    ("ontokit.kernels", "ResponseFunction.__post_init__", "kernels.response", None, None, False),
    ("ontokit.wigner", "WignerFrame.__post_init__", "wigner.frame.verify", None, None, False),
    ("ontokit.wigner", "phase_point_operators", "wigner.frame.ppo", None, None, False),
    ("ontokit.wigner", "commutative_frame", "wigner.frame.commutative", None, None, False),
    ("ontokit.wigner", "product_frame", "wigner.frame.product", None, None, False),
    ("ontokit.wigner", "transfer_matrix", "wigner.transfer", None, None, False),
    ("ontokit.wigner", "wigner_vector", "wigner.vector", None, None, False),
    ("ontokit.wigner", "functor_morphism", "wigner.functor", None, None, False),
    ("ontokit.wigner", "monoidality_check", "wigner.monoidality", None, None, False),
    ("ontokit.wigner", "epistemic_report", "wigner.epistemic", None, None, False),
    ("ontokit.antidist", "antidist_classical", "antidist.decide", _decide, _decide_input, False),
    ("ontokit.antidist", "compression_channel", "antidist.compress", _compress, None, False),
    ("ontokit.antidist", "pbr_demo", "antidist.pbr", _pbr, None, False),
    ("ontokit.antidist", "pbr_measurement", "antidist.measurement", None, None, False),
    ("ontokit.antidist", "antidist_quantum_check", "antidist.qcheck", None, None, False),
    ("ontokit.ontomodel", "validate_model", "ontomodel.validate", None, None, False),
    ("ontokit.ontomodel", "classify_model", "ontomodel.classify", None, None, False),
    ("ontokit.ontomodel", "maximal_predicates", "ontomodel.predicates", None, None, False),
    ("ontokit.ontomodel", "check_operational_model", "ontomodel.check", None, None, False),
    ("ontokit.ontomodel", "OntModel.__post_init__", "ontomodel.model", None, None, False),
    ("ontokit.qmeasure", "validate_quantum_measure", "qmeasure.validate", _qmeasure, None, False),
    ("ontokit.qmeasure", "validate_decoherence", "qmeasure.decoherence.validate", None, None, False),
    ("ontokit.qmeasure", "measure_from_decoherence", "qmeasure.decoherence.diagonal", None, None, False),
    ("ontokit.qmeasure", "QuantumMeasure.__post_init__", "qmeasure.measure", None, None, False),
    ("ontokit.qmeasure", "DecoherenceFunctional.__post_init__", "qmeasure.functional", None, None, False),
    ("ontokit.serialize", "parse_matrix", "serialize.parse.matrix", None, None, False),
    ("ontokit.serialize", "parse_ket", "serialize.parse.ket", None, None, False),
    ("ontokit.serialize", "parse_channel", "serialize.parse.channel", None, None, False),
    ("ontokit.serialize", "parse_kernel", "serialize.parse.kernel", None, None, False),
    ("ontokit.serialize", "parse_ensemble", "serialize.parse.ensemble", None, None, False),
    ("ontokit.serialize", "parse_model", "serialize.parse.model", None, None, False),
    ("ontokit.serialize", "parse_qmeasure_doc", "serialize.parse.qmeasure", None, None, False),
    ("ontokit.serialize", "dumps_report", "serialize.emit", _emit, None, True),
    ("ontokit.serialize", "kernel_to_json", "serialize.tojson", None, None, False),
    ("ontokit.serialize", "matrix_to_json", "serialize.tojson", None, None, False),
    ("ontokit.sampling", "rng_for", "sampling.rng", None, None, False),
    ("ontokit.sampling", "random_cptp_channel", "sampling.channel", None, None, False),
    ("ontokit.sampling", "random_density", "sampling.density", None, None, False),
    ("ontokit.sampling", "random_effect", "sampling.effect", None, None, False),
)


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._check = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_result=None, on_input=None, flat=False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if flat and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._check, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                rec[5] = on_input(args, kwargs) if on_input else {}
                rec[5]["error"] = type(exc).__name__
                raise
            rec[2] = perf_counter()
            stack.pop()
            if on_result is not None:
                rec[5] = on_result(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def check(self, index: int, kind: str, fn, *args):
        """Run one check under a root span named ``check.<kind>``."""
        self._check = index
        return self.wrap(f"check.{kind}", fn)(*args)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ontokit" or mod_name.startswith("ontokit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    @contextmanager
    def installed(self):
        try:
            for mod_name, attr, name, on_result, on_input, flat in TARGETS:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original, on_result, on_input, flat))
                else:
                    original = getattr(owner, attr)
                    self._replace_everywhere(
                        original, self.wrap(name, original, on_result, on_input, flat)
                    )
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans) -> np.ndarray:
    """Duration of each span minus the time covered by its child spans."""
    dur = np.array([s[2] - s[1] for s in spans])
    covered = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            covered[s[3]] += d
    return dur - covered


def _mean_ms(values) -> float:
    return 1e3 * float(np.mean(values)) if values else 0.0


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics (flat name -> value) and per-size breakdowns."""
    own = self_times(spans)
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]

    def where(pred):
        return [i for i, n in enumerate(names) if pred(n)]

    def self_s(pred) -> float:
        return float(sum(own[i] for i in where(pred)))

    def count(name) -> int:
        return sum(1 for n in names if n == name)

    def attrs(name):
        return [(i, spans[i][5] or {}) for i in where(lambda n: n == name)]

    def parent_name(i) -> str:
        p = spans[i][3]
        return names[p] if p >= 0 else ""

    m: dict[str, float] = {}
    m["linalg.eig.calls"] = count("linalg.eig")
    m["linalg.eig.self_s"] = self_s(lambda n: n == "linalg.eig")

    m["quantum.density.calls"] = count("quantum.density")
    m["quantum.density.self_s"] = self_s(lambda n: n == "quantum.density")
    channels = attrs("quantum.channel")
    m["quantum.channel.calls"] = len(channels)
    m["quantum.channel.kraus_ops"] = sum(a.get("k", 0) for _, a in channels)
    m["quantum.channel.self_s"] = self_s(lambda n: n == "quantum.channel")
    m["quantum.apply.self_s"] = self_s(lambda n: n == "quantum.apply")

    m["kernels.kcompose.calls"] = count("kernels.kcompose")

    m["wigner.frame.builds"] = count("wigner.frame.verify")
    m["wigner.frame.self_s"] = self_s(lambda n: n.startswith("wigner.frame."))
    m["wigner.transfer.calls"] = count("wigner.transfer")
    m["wigner.transfer.self_s"] = self_s(lambda n: n == "wigner.transfer")
    m["wigner.vector.self_s"] = self_s(lambda n: n == "wigner.vector")

    decides = attrs("antidist.decide")
    m["antidist.decide.calls"] = len(decides)
    m["antidist.decide.vertex_share"] = (
        sum(1 for _, a in decides if a.get("signed")) / len(decides) if decides else 0.0
    )
    m["antidist.decide.refuted"] = sum(1 for _, a in decides if a.get("refuted"))
    m["antidist.decide.self_s"] = self_s(lambda n: n == "antidist.decide")
    compress = attrs("antidist.compress")
    m["antidist.compress.calls"] = len(compress)
    m["antidist.compress.dense_dim"] = sum(a.get("dense_dim", 0) for _, a in compress)
    tried = sum(1 for i in where(lambda n: n == "quantum.channel")
                if parent_name(i) == "antidist.compress")
    kept = sum(1 for _, a in compress if "error" not in a)
    m["antidist.compress.useful_ratio"] = kept / tried if tried else 0.0
    m["antidist.compress.self_s"] = self_s(lambda n: n == "antidist.compress")

    m["ontomodel.check.self_s"] = self_s(lambda n: n == "ontomodel.check")
    m["ontomodel.validate.self_s"] = self_s(lambda n: n == "ontomodel.validate")
    m["ontomodel.born_evals"] = sum(1 for i in where(lambda n: n == "quantum.born")
                                    if parent_name(i).startswith("ontomodel."))

    validates = attrs("qmeasure.validate")
    m["qmeasure.validate.calls"] = len(validates)
    m["qmeasure.direct_share"] = (
        sum(1 for _, a in validates if a.get("path") == "direct") / len(validates)
        if validates else 0.0
    )
    m["qmeasure.terms"] = sum(a.get("terms", 0) for _, a in validates)
    m["qmeasure.violations"] = sum(a.get("violations", 0) for _, a in validates)
    m["qmeasure.validate.self_s"] = self_s(lambda n: n == "qmeasure.validate")
    m["qmeasure.decoherence.self_s"] = self_s(lambda n: n.startswith("qmeasure.decoherence."))

    m["serialize.parse.docs"] = sum(
        1 for i in where(lambda n: n.startswith("serialize.parse."))
        if not parent_name(i).startswith("serialize.parse.")
    )
    m["serialize.parse.self_s"] = self_s(lambda n: n.startswith("serialize.parse."))
    m["serialize.emit.bytes"] = sum(a.get("bytes", 0) for _, a in attrs("serialize.emit"))
    m["serialize.emit.self_s"] = self_s(lambda n: n == "serialize.emit")

    for layer in LAYERS[1:]:  # linalg's one span is linalg.eig, reported above
        m[f"{layer}.self_s"] = self_s(lambda n, p=layer + ".": n.startswith(p))
    m["glue.self_s"] = self_s(lambda n: n.startswith("check."))

    by: dict[tuple[str, int], list[float]] = {}
    paths: dict[int, set] = {}
    for i, a in attrs("linalg.eig"):
        by.setdefault(("linalg.eig", a["n"]), []).append(dur[i])
    for i, a in decides:
        if a.get("signed"):
            by.setdefault(("antidist.vertex", a["k"]), []).append(dur[i])
    for i, a in attrs("antidist.pbr"):
        if "n" in a:
            by.setdefault(("antidist.pbr", a["n"]), []).append(dur[i])
    for i, a in validates:
        if "n" in a:
            by.setdefault(("qmeasure.validate", a["n"]), []).append(dur[i])
            paths.setdefault(a["n"], set()).add(a["path"])
    breakdown: dict[str, dict] = {}
    for (group, size), values in sorted(by.items()):
        letter = "k" if group == "antidist.vertex" else "n"
        entry = {"calls": len(values), "mean_ms": _mean_ms(values),
                 "median_ms": 1e3 * float(np.median(values))}
        if group == "qmeasure.validate":
            entry["paths"] = sorted(paths[size])
        breakdown.setdefault(group, {})[f"{letter}{size}"] = entry

    sizes = (("linalg.eig", "n", EIG_DIMS), ("antidist.vertex", "k", VERTEX_POINTS),
             ("antidist.pbr", "n", PBR_POWERS), ("qmeasure.validate", "n", QMEASURE_POINTS))
    for group, letter, values in sizes:
        for v in values:
            m[f"{group}.{letter}{v}.mean_ms"] = _mean_ms(by.get((group, v), []))
    return m, breakdown

"""Byte pins: the report text the benchmark checks emit and the stdout of
the report scripts, each pinned by its sha256.

A change that moves these bytes on purpose re-records the digests it moves
and names each moved (workload, kind) or script in CHANGES.md, as golden
CLI rows are handled.  The digests were recorded with numpy 2.4 and
OpenBLAS on x86-64; a failure names the numpy version and BLAS it ran on.
"""

import contextlib
import hashlib
import io
import os
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from test_bench_targets import _bench_module

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
BENCH_SECONDS = 24

# sha256 over the reports of one (workload, kind), for seeds 1..3 in stream
# order, each report's text followed by a NUL byte
BENCH_DIGESTS = {
    ("exclusion", "antidist_probability"): "ef6eaa4d141ad938967b5b38a27a7ef8629bbd68c90433ab9841c687cce0025e",
    ("exclusion", "antidist_signed"): "9e94de52c7b8d2123bfb015622474cd0030f1fbc23fc58515d6d08cc294f39af",
    ("exclusion", "epistemic"): "a8225e8d5f72f29d71e846f6136eaf1d474d4650313111833d55f215abdcb4a6",
    ("exclusion", "pbr"): "c77dd5b51039ab5e3e144caf8252b6ebb3a69923e71a9f9d501019fb31b29949",
    ("functor", "functor_law"): "d99b5b2b0baa34939bedead04c579711d8c75282e3ac9211163c569d913ee8f7",
    ("functor", "monoidality"): "af272432b12e2e0d0f55a75e1492960d1068772c68ef07416020d7bf65bec479",
    ("validators", "decoherence"): "dc0066398575e1489fa065dc994c81251e65e606d4de2e76908cd61b2a47e44f",
    ("validators", "measure"): "d4977489c433e30b8e6c75768728e49f01992c49f6390492eab95ab24b7aa01a",
    ("validators", "model"): "099017710899030907b578be74a64c70d1ccee8add587186ade3c9cb74994888",
}

# sha256 of stdout, by the script's argv
SCRIPT_DIGESTS = {
    "pbr_report.py": "d17662cc0efa43991b61637e10bdcd64b1efe987c81fb8f07bd2f164ccf3b55f",
    "wigner_functor_report.py": "685da5cdafeff4a7c6a04526931a8bbf780f454c9153ffde280bb4bf9055bdba",
    "wigner_functor_report.py --dim 7 --trials 3":
        "c22f3729c5ac945bd5999b2f36b3f8b3895a25739b190f6ac817e7d3afe09ebf",
}


def _platform() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    return f"numpy {np.__version__}, BLAS {blas}"


def _load_run(monkeypatch):
    """``bench/run.py`` from its source text, with ``speed`` resolved to
    ``bench/speed.py`` the same way; its BLAS pins are undone afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setitem(sys.modules, "speed", _bench_module("speed"))
    return _bench_module("run")


@pytest.fixture(scope="module")
def bench_digests():
    with pytest.MonkeyPatch.context() as monkeypatch:
        inputs = _bench_module("inputs", monkeypatch)
        checks = _bench_module("checks")
        run = _load_run(monkeypatch)
        hashes = {}
        for workload in run.WORKLOADS:
            for seed in SEEDS:
                for item in inputs.generate(workload, seed, run.blocks_for(workload, BENCH_SECONDS)):
                    digest = hashes.setdefault((workload, item.kind), hashlib.sha256())
                    digest.update(checks.run(item).encode() + b"\0")
    return {key: h.hexdigest() for key, h in hashes.items()}


def test_every_bench_kind_is_pinned(bench_digests):
    assert sorted(bench_digests) == sorted(BENCH_DIGESTS)


@pytest.mark.parametrize("workload, kind", sorted(BENCH_DIGESTS),
                         ids=[f"{w}/{k}" for w, k in sorted(BENCH_DIGESTS)])
def test_bench_reports_are_byte_identical(bench_digests, workload, kind):
    assert bench_digests[workload, kind] == BENCH_DIGESTS[workload, kind], (
        f"{workload}/{kind} reports moved ({_platform()})")


def _stdout(argv: str) -> str:
    script, *args = argv.split()
    path = ROOT / "scripts" / script
    out = io.StringIO()
    saved = sys.argv
    sys.argv = [str(path), *args]
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved
    return out.getvalue()


@pytest.mark.parametrize("argv", sorted(SCRIPT_DIGESTS))
def test_script_stdout_is_byte_identical(argv):
    assert hashlib.sha256(_stdout(argv).encode()).hexdigest() == SCRIPT_DIGESTS[argv], (
        f"{argv} stdout moved ({_platform()})")

#!/usr/bin/env python3
"""ontokit benchmark: seeded check streams timed end to end, or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload functor --seed 1 --seconds 24 --trace 0

A run generates its workload's checks from ``--seed`` (numpy Philox, not
``ontokit.sampling``) and warms the phase-point frame cache.  It then runs
the stream PASSES times, issuing the checks one after another in a closed
loop with one client and timing each from outside; every time is scaled to
a reference machine speed (see ``speed.py``).  After the timed phase every
emitted report is compared with an independent oracle (``oracle.py``).  The
last stdout line is the result object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run record (versions, BLAS threads,
seed, mix, tail percentile, raw timings, and every end-to-end metric with
its unit, ``failed_ratio`` included).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one pass
with spans recorded around every layer (see ``tracing.py``) and reports the
per-layer metrics; the spans and the per-size breakdowns go to
``.bench_out/`` in the repository root.

The amount of work is fixed per workload and ``--seconds``: every pass runs
the same whole blocks of checks, as many as make PASSES passes take about
``--seconds`` on the reference machine at the commit that introduced this
benchmark.  Faster code finishes sooner and shows as a higher
``checks_per_s``.  bench/DESIGN.md documents the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("functor", "exclusion", "validators")
# Nominal seconds one block takes on the reference machine (2 vCPU x86-64,
# Python 3.11, numpy 2.4 with OpenBLAS pinned to one thread) at the commit
# that introduced the benchmark.
BLOCK_SECONDS = {"functor": 0.7, "exclusion": 2.0, "validators": 3.5}
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
SETUP_GAUGE_BURST = 40
PASSES = 3
TAIL_BEYOND = 10
# Never use this seed while writing a change; confirm claims on it afterwards.
HELD_OUT_SEED = 7919

END_TO_END_UNITS = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "ok_ratio": "1",
    "peak_rss_mb": "MiB",
}


def blocks_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / (PASSES * BLOCK_SECONDS[workload])))


def time_import() -> float:
    """Seconds a fresh interpreter spends importing ontokit and its CLI."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ontokit, ontokit.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def timed_pass(items, run_check, tracer=None) -> dict:
    """Issue every check in order and time each one from outside.

    After each check the machine-speed gauge takes one sample per
    SAMPLE_EVERY_S of check time accrued since its last sample, so samples
    keep pace with the measured work; their time is excluded from the
    pass's wall time.
    """
    gauge = speed.SpeedGauge()
    outputs, errors, durations = [], [], []
    since_sample = 0.0
    cpu0 = time.process_time()
    start = time.perf_counter()
    for index, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = run_check(item)
            else:
                out = tracer.check(index, item.kind, run_check, item)
            err = None
        except Exception as exc:  # a failing check is counted, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0
        durations.append(took)
        outputs.append(out)
        errors.append(err)
        since_sample += took
        while since_sample >= speed.SAMPLE_EVERY_S:
            gauge.sample()
            since_sample -= speed.SAMPLE_EVERY_S
    wall = time.perf_counter() - start - gauge.kernel_s
    return {"wall": wall, "cpu": time.process_time() - cpu0, "durations": durations,
            "outputs": outputs, "errors": errors, "slowness": gauge.slowness}


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND checks beyond it, and its value."""
    ordered = sorted(durations)
    n = len(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def scaled_durations(passes) -> list[float]:
    """Every check execution of every pass, scaled to the reference speed."""
    return [d / p["slowness"] for p in passes for d in p["durations"]]


def judge_all(items, passes) -> tuple[list[str | None], int]:
    """Reasons per failed check, after the timed phase, and the number of wrong verdicts.

    A check fails when it raised in any pass, when its report differs
    between passes (reports must be byte-identical), or when the oracle
    rejects its verdict; the last two are wrong verdicts.
    """
    import oracle

    reasons, wrong = [], 0
    for i, item in enumerate(items):
        errors = [p["errors"][i] for p in passes if p["errors"][i] is not None]
        outputs = {p["outputs"][i] for p in passes}
        if errors:
            reason = f"raised {errors[0]}"
        elif len(outputs) > 1:
            reason = "report differs between passes"
        else:
            reason = oracle.judge(item, outputs.pop())
        wrong += reason is not None and not errors
        reasons.append(reason)
    return reasons, wrong


def blas_info() -> dict:
    """BLAS name from numpy's build config; thread count as OpenBLAS reports it."""
    import ctypes

    import numpy as np
    from numpy._core import _multiarray_umath

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    # numpy's core extension links the BLAS, so its handle resolves the BLAS symbols
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    threads = None
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = int(fn())
            break
    return {"name": name, "threads": threads,
            "pinned_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS")}}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ontokit" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no ontokit sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    gauge = speed.SpeedGauge()
    imports = []
    for _ in range(IMPORT_REPEATS):
        gauge.burst(SETUP_GAUGE_BURST)
        imports.append(time_import())

    import numpy as np

    import checks
    import inputs

    blocks = blocks_for(args.workload, args.seconds)
    generation = []
    for _ in range(SETUP_REPEATS):
        gauge.burst(SETUP_GAUGE_BURST)
        t0 = time.perf_counter()
        checks.clear_frame_caches()
        items = inputs.generate(args.workload, args.seed, blocks)
        checks.warm_frames(args.workload)
        generation.append(time.perf_counter() - t0)
    gauge.burst(SETUP_GAUGE_BURST)
    setup_raw_s = statistics.median(imports) + statistics.median(generation)

    gc.collect()
    gc.freeze()  # set-up objects are not the program's; keep them out of its GC work
    untraced = [timed_pass(items, checks.run) for _ in range(PASSES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    judged = untraced
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            traced = timed_pass(items, checks.run, tracer)
        judged = untraced + [traced]

    reasons, wrong = judge_all(items, judged)
    failed = sum(r is not None for r in reasons)
    attempted = len(items)
    executions = scaled_durations(untraced)
    percentile, tail_s = tail(executions)
    end_to_end = {
        "setup_s": setup_raw_s / gauge.slowness,
        "checks_per_s": statistics.median(attempted * p["slowness"] / p["wall"] for p in untraced),
        "check_p50_ms": 1e3 * statistics.median(executions),
        "check_tail_ms": 1e3 * tail_s,
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    breakdown = None
    if args.trace:
        layer, breakdown = tracing.layer_metrics(tracer.spans)
        slow = traced["slowness"]
        metrics = {name: value / slow if _unit(name) in ("s", "ms") else value
                   for name, value in layer.items()}
        metrics["process.cpu_s"] = statistics.mean(p["cpu"] / p["slowness"] for p in untraced)
        metrics["trace.overhead_ratio"] = (traced["wall"] / slow) / statistics.mean(
            p["wall"] / p["slowness"] for p in untraced)
    else:
        metrics = end_to_end

    kinds = Counter(item.kind for item in items)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "blocks": blocks,
        "checks_per_kind": dict(sorted(kinds.items())),
        "load": "closed loop, one client",
        "tail": {"percentile": round(percentile, 2), "samples": len(executions),
                 "beyond": TAIL_BEYOND},
        "end_to_end": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in end_to_end.items()},
        "failed_ratio": {"value": failed / attempted, "unit": "1"},
        "wrong_verdicts": wrong,
        "failures_by_kind": dict(sorted(Counter(
            item.kind for item, r in zip(items, reasons) if r is not None).items())),
        "first_failures": [f"{item.kind}: {r}" for item, r in zip(items, reasons)
                           if r is not None][:5],
        "setup": {"import_s": imports, "generation_s": generation},
        "speed": {
            "reference_seconds": speed.REFERENCE_SECONDS,
            "setup_slowness": gauge.slowness,
            "setup_raw_s": setup_raw_s,
            "passes": [{"slowness": p["slowness"], "wall_s": p["wall"],
                        "raw_p50_ms": 1e3 * statistics.median(p["durations"])}
                       for p in judged],
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        record["breakdown"] = breakdown
        record["per_layer"] = metrics
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps(record))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_ratio")):
        return "1"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

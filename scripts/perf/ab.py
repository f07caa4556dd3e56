#!/usr/bin/env python3
"""In-process A/B of the checkout against a git revision on one benchmark stream.

Usage (from anywhere inside the repository):

    python3 scripts/perf/ab.py --base HEAD~1 --workload validators --seed 1 --blocks 16

The revision's ``src/`` and ``bench/`` are extracted with ``git archive``
into a temporary directory outside the checkout.  One long-lived worker
process per tree (the revision's, then the checkout's own) imports that
tree's ``ontokit`` and ``bench/`` modules, with BLAS pinned to one thread.
Each generates the workload's check stream from ``--seed`` (the blocks
``bench/run.py`` runs at ``--seconds 24``), warms it with one untimed pass
and then times whole passes with ``time.process_time``.

The passes run in ABBA blocks (base, change, change, base), so a drift that
is linear in time cancels within a block.  A block's ratio is the change's
CPU time over the base's; the script prints the median ratio, a bootstrap
95 % interval of that median, the number of blocks the change won (ratio
below 1) and how many check reports differ between the trees.  The last
stdout line is the same summary as one JSON object.  Both workers are
reaped and the temporary tree removed on every exit path, SIGTERM and
Ctrl-C included.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("functor", "exclusion", "validators")
STREAM_SECONDS = 24  # BENCHMARK.json's run_seconds
BOOTSTRAP_RESAMPLES = 10_000
LEVEL = 0.95


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def block_ratios(base: list[tuple[float, float]], change: list[tuple[float, float]]) -> list[float]:
    """Per ABBA block, the change's two pass times over the base's two."""
    return [(c1 + c2) / (b1 + b2) for (b1, b2), (c1, c2) in zip(base, change, strict=True)]


def bootstrap_interval(ratios) -> tuple[float, float]:
    """Percentile bootstrap interval of the median of ``ratios``, resampling
    blocks with replacement from a fixed seed, so the interval is repeatable."""
    r = np.asarray(ratios, dtype=float)
    idx = np.random.default_rng(0).integers(0, r.size, size=(BOOTSTRAP_RESAMPLES, r.size))
    lo, hi = np.quantile(np.median(r[idx], axis=1), [(1 - LEVEL) / 2, (1 + LEVEL) / 2])
    return float(lo), float(hi)


def summary(ratios) -> dict:
    lo, hi = bootstrap_interval(ratios)
    return {"median_ratio": float(np.median(ratios)), "interval": [lo, hi],
            "won": sum(r < 1.0 for r in ratios), "blocks": len(ratios)}


# ---------------------------------------------------------------------------
# worker: one per tree
# ---------------------------------------------------------------------------

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def worker(tree: Path, workload: str, seed: int) -> None:
    """Answer each stdin line with one timed pass over the stream, until EOF."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import checks
    import inputs
    import ontokit
    import run

    if Path(ontokit.__file__).resolve().parents[2] != tree.resolve():
        raise SystemExit(f"ab worker: imported ontokit from {ontokit.__file__}, not from {tree}")
    checks.clear_frame_caches()
    items = inputs.generate(workload, seed, run.blocks_for(workload, STREAM_SECONDS))
    checks.warm_frames(workload)
    stream = _digest("".join(item.kind + json.dumps(item.docs, sort_keys=True) for item in items))

    def one_pass() -> tuple[float, list[str]]:
        outputs = []
        t0 = time.process_time()
        for item in items:
            try:
                out = checks.run(item)
            except Exception as exc:  # a failing check is a report too
                out = f"{type(exc).__name__}: {exc}"
            outputs.append(out)
        return time.process_time() - t0, outputs

    one_pass()
    gc.collect()
    gc.freeze()
    print(json.dumps({"items": len(items), "stream": stream}), flush=True)
    for _ in sys.stdin:
        cpu, outputs = one_pass()
        print(json.dumps({"cpu": cpu, "reports": [_digest(o) for o in outputs]}), flush=True)


class Worker:
    def __init__(self, tree: Path, args):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONDONTWRITEBYTECODE="1")
        self.tree = tree
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree), "--workload", args.workload,
             "--seed", str(args.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"ab worker for {self.tree} exited with {self.proc.wait()}")
        return json.loads(line)

    def timed_pass(self) -> dict:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        """Close stdin, so the worker leaves its loop; kill it if it lingers."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, check=True, **kwargs)


def extract(rev: str, into: Path) -> str:
    """``rev``'s ``src/`` and ``bench/`` under ``into``; returns its full SHA."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    tar = _git("archive", sha, "src", "bench").stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return sha


def compare(args) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="ontokit-ab-"))
    workers: list[Worker] = []
    try:
        sha = extract(args.base, tmp)
        for tree in (tmp, ROOT):
            workers.append(Worker(tree, args))
        base, change = workers
        ready = [w.read() for w in workers]
        if ready[0] != ready[1]:
            raise RuntimeError(f"the trees generate different streams: {ready[0]} vs {ready[1]}")
        base_cpu, change_cpu = [], []
        for _ in range(args.blocks):
            a1, b1, b2, a2 = (w.timed_pass() for w in (base, change, change, base))
            base_cpu.append((a1["cpu"], a2["cpu"]))
            change_cpu.append((b1["cpu"], b2["cpu"]))
        differ = sum(x != y for x, y in zip(a1["reports"], b1["reports"]))
    finally:
        for w in workers:
            w.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    return {"base": sha, "workload": args.workload, "seed": args.seed, "items": ready[0]["items"],
            **summary(block_ratios(base_cpu, change_cpu)), "differing_reports": differ}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through compare's cleanup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", choices=WORKLOADS, default="validators")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=16, help="ABBA blocks to run")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        worker(args.worker, args.workload, args.seed)
        return 0
    if args.blocks < 1:
        parser.error("--blocks must be at least 1")
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = compare(args)
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        sys.stderr.write(f"ab: {exc}\n")
        return 2
    lo, hi = result["interval"]
    print(f"ab {result['workload']} seed {result['seed']}, {result['items']} checks a pass: "
          f"change/base CPU {result['median_ratio']:.3f} [{lo:.3f}, {hi:.3f}] over "
          f"{result['blocks']} ABBA blocks, change won {result['won']}; "
          f"{result['differing_reports']} reports differ from {result['base'][:12]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

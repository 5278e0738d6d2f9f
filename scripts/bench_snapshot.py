#!/usr/bin/env python3
"""Write one flat JSON snapshot of the benchmark workloads and the test suite.

Runs each `bench/run.py` workload once at a fixed seed, each in its own
process, then the tier-1 test suite once, and writes their metric lines,
with nproc, the git HEAD and the Python/numpy/scipy versions, to the file
named on the command line.  The file has no gate: it is a record to set
beside the snapshot of another commit.  Run it from a full checkout.

Usage: python scripts/bench_snapshot.py OUT.json [--seed 11] [--seconds 30]
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("search-disentanglable", "search-obstructed", "analyze")


def run(argv, env=None):
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def bench_metrics(workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one bench run, flattened to workload.name keys."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = run(argv + ["--seconds", str(seconds)])
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py --workload {workload} failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    flat = {f"{workload}.{k}": line[k] for k in ("correct", "attempted", "failed")}
    flat.update({f"{workload}.{k}": m["value"] for k, m in line["metrics"].items()})
    return flat


def tier1_metrics() -> dict:
    """Outcome counts and wall time of one pass of the tier-1 suite."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = run([sys.executable, *argv], env)
    flat = {"tier1.wall_s": time.perf_counter() - start, "tier1.exit_code": proc.returncode}
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    for count, outcome in re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary):
        flat[f"tier1.{outcome.rstrip('s')}"] = int(count)
    return flat


def environment() -> dict:
    import numpy
    import scipy

    # "-dirty" marks a snapshot of uncommitted changes on top of HEAD
    head = run(["git", "describe", "--always", "--dirty", "--abbrev=40"])
    return {
        "nproc": os.cpu_count(),
        "git_head": head.stdout.strip() if head.returncode == 0 else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("output", help="JSON file to write")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0, help="per workload")
    args = parser.parse_args()

    snapshot = environment()
    snapshot.update({"seed": args.seed, "seconds": args.seconds})
    for workload in WORKLOADS:
        snapshot.update(bench_metrics(workload, args.seed, args.seconds))
    snapshot.update(tier1_metrics())
    Path(args.output).write_text(json.dumps(snapshot, indent=1) + "\n")


if __name__ == "__main__":
    main()

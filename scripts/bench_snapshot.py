#!/usr/bin/env python3
"""Write one flat JSON snapshot of the benchmark workloads, the tests and the numeric layers.

Runs each `bench/run.py` workload once at a fixed seed, each in its own
process, then the tier-1 test suite once and counts the package's source
lines, then times the optimizer's layers, the Schmidt kernel, the
constructor, the certificate and the stationarity gradient in LAYER_RUNS
fresh processes and keeps each key's median, then `optimize_tps` as a
library caller runs it, next to its objective and its least-squares
evaluation and SQP step counts, and writes their metric lines, with nproc,
the git HEAD and the Python and numpy versions, to the file named on the
command line.  The file has no gate: it is a record to set beside the
snapshot of another commit.  Run it from a full checkout.

Usage: python scripts/bench_snapshot.py OUT.json [--seed 11] [--seconds 30]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("search-disentanglable", "search-obstructed", "analyze")
LAYER_DIMS = ((2, 2), (2, 3))
LAYER_SAMPLES = 200
LAYER_THETAS = 16
LAYER_REPEATS = 20
LAYER_RUNS = 3  # fresh processes for the layers section, so one burst of host load is outvoted
SPECTRA_SAMPLES = 1000
LIBRARY_REPEATS = 3


def run(argv, env=None):
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def trig(spec):
    """The `TrigTrajectory` of one `bench/bench_inputs.py` spec."""
    from tpslab.core import HilbertDims
    from tpslab.trajectory import Harmonic, TrigTrajectory

    harmonics = tuple(Harmonic(*h) for h in spec["harmonics"])
    return TrigTrajectory(HilbertDims(*spec["dims"]), spec["constant"], harmonics, spec["t_max"])


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
    """Outcome counts and wall time of one pass of the tier-1 suite, next to
    `src.lines`, the total that `wc -l src/tpslab/*.py` prints."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = run([sys.executable, *argv], env)
    flat = {"tier1.wall_s": time.perf_counter() - start, "tier1.exit_code": proc.returncode}
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    for count, outcome in re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary):
        flat[f"tier1.{outcome.rstrip('s')}"] = int(count)
    flat["src.lines"] = sum(p.read_bytes().count(b"\n") for p in ROOT.glob("src/tpslab/*.py"))
    return flat


def layer_metrics() -> dict:
    """Per-point medians, in microseconds, of the optimizer's layers, and the
    per-call median of `schmidt_spectra`.

    Fixed seeded random states (T = LAYER_SAMPLES) and points u =
    `_Objective.start(theta)`, on the BLAS threads of the environment (one
    under `layer_medians`).
    `step` is one move of the chart, `_Objective.step(u, delta)` (one eigh),
    on a fixed seeded delta.  `lm_step` is residuals, Jacobian, J^T r and the
    eigh of J^T J.  `lm_round_r4` is one lockstep pass of the least-squares
    stage on a stack of 4 starts near u (fixed seeded offsets of theta): the
    stage at a budget of 2 evaluations, its start's residuals, Jacobian and
    eigh, then one solve, step and residuals for all 4.  `minimax_step` is
    one iteration of the minimax stage from u, as `_polish` runs its first,
    given z and its Jacobian thunk at u from `sq_distances`, taken outside
    the timer: the Jacobian from the thunk, `_start_model`, the QP,
    cold-started from the largest z_t, then values and Jacobian at
    `step(u, d)`, as for an accepted step, and the damped BFGS update;
    `qp_support` is the median size of that QP's support.  Next to the
    times: the residual count and the largest relative gap between
    |residuals|^2 and sum_{t,k} |m_k(t)|^2 / T from the raw minors.
    `schmidt_spectra` runs on
    its own seeded stack of SPECTRA_SAMPLES random matrices, next to its largest
    gap to a per-matrix `np.linalg.svd`.  `construct_disentangler` is timed per
    call on the C-NOT evolution and on one seeded member of the benchmark's
    planted family (`bench/bench_inputs.py`), one median over both, next to
    the larger of their two disentangling residuals.  `certify_no_disentangling`
    is timed per call on one seeded 2x2 and one 2x3 member of the
    benchmark's Sidon family, which it samples itself at 400 points (so the
    time includes sampling, as the CLI's does), next to its numerical rank
    (full: 10 and 21), and `stationarity_gradient` on one seeded 3x3
    Hermitian operator as in the `analyze` workload, next to the gradient
    norm it returns.
    """
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from tpslab.construct import construct_disentangler
    from tpslab.core import HilbertDims
    from tpslab.entanglement import coefficient_minors, schmidt_spectra
    from tpslab.hamiltonian import stationarity_gradient
    from tpslab.obstruction import certify_no_disentangling
    from tpslab.optimizer import (
        _damped_bfgs,
        _epigraph_qp,
        _levenberg_marquardt,
        _Objective,
        _start_model,
    )
    from tpslab.trajectory import SampledTrajectory

    flat = {}
    for n1, n2 in LAYER_DIMS:
        n, rng = n1 * n2, np.random.default_rng(0)
        states = rng.normal(size=(LAYER_SAMPLES, n)) + 1j * rng.normal(size=(LAYER_SAMPLES, n))
        states /= np.linalg.norm(states, axis=1)[:, None]
        times = np.linspace(0, 1, LAYER_SAMPLES)
        obj = _Objective(SampledTrajectory(HilbertDims(n1, n2), times, states))

        delta = 0.1 * np.random.default_rng(2).normal(size=len(obj.basis))
        offsets = 0.1 * np.random.default_rng(3).normal(size=(4, n * n))

        def lm_step(u):
            r, j = obj.residuals(u), obj.residual_jacobian(u)
            np.linalg.eigh(j.T @ j)
            return j.T @ r

        supports = []

        def minimax_step(u, z, jacobian):
            g = jacobian()
            b, l_inv = _start_model(obj, u)
            support, lam, _, e = _epigraph_qp(z, g @ l_inv.T, np.array([np.argmax(z)]))
            d = l_inv.T @ e
            # values and Jacobian, as an accepted step
            g_trial = obj.sq_distances(obj.step(u, d))[1]()
            _damped_bfgs(b, d, lam @ (g_trial[support] - g[support]))
            supports.append(len(support))

        layers = {
            "step": lambda u: obj.step(u, delta),
            "residuals": obj.residuals,
            "residual_jacobian": obj.residual_jacobian,
            "sq_distances": obj.sq_distances,
            "lm_step": lm_step,
            "lm_round_r4": lambda u: _levenberg_marquardt(
                obj.residuals, obj.residual_jacobian, obj.step, u4, 2
            ),
            "minimax_step": lambda u: minimax_step(u, *at_u),
        }
        elapsed = {name: [] for name in layers}
        gap = 0.0
        for theta in rng.normal(scale=0.6, size=(LAYER_THETAS, n * n)):
            u, u4 = obj.start(theta), obj.start(theta + offsets)
            at_u = obj.sq_distances(u)  # z and its Jacobian thunk, for minimax_step
            for _ in range(LAYER_REPEATS):
                for name, call in layers.items():
                    start = time.perf_counter()
                    call(u)
                    elapsed[name].append(time.perf_counter() - start)
            r = obj.residuals(u)
            m = coefficient_minors(obj._coefficients(u))
            raw = np.sum(m.real**2 + m.imag**2) / LAYER_SAMPLES
            gap = max(gap, abs(r @ r - raw) / raw)
        key = f"layers.{n1}x{n2}"
        flat.update({f"{key}.{name}_us": 1e6 * float(np.median(t)) for name, t in elapsed.items()})
        flat[f"{key}.residuals.count"] = len(r)
        flat[f"{key}.qp_support"] = float(np.median(supports))
        flat[f"{key}.cost_rel_gap"] = gap

        rng = np.random.default_rng(1)
        shape = (SPECTRA_SAMPLES, n1, n2)
        mats = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mats /= np.linalg.norm(mats, axis=(1, 2))[:, None, None]
        elapsed = []
        for _ in range(LAYER_THETAS * LAYER_REPEATS):
            start = time.perf_counter()
            spectra = schmidt_spectra(mats)
            elapsed.append(time.perf_counter() - start)
        flat[f"{key}.schmidt_spectra_us"] = 1e6 * float(np.median(elapsed))
        svd = np.array([np.linalg.svd(m, compute_uv=False) for m in mats])
        flat[f"{key}.schmidt_spectra.svd_gap"] = float(np.abs(spectra - svd).max())

    sys.path.insert(0, str(ROOT / "bench"))
    from bench_inputs import cnot_spec, disentanglable, sidon
    from bench_math import random_hermitian

    def timed(call, *args):
        """Per-call times in seconds and the last result of LAYER_THETAS * LAYER_REPEATS calls."""
        elapsed = []
        for _ in range(LAYER_THETAS * LAYER_REPEATS):
            start = time.perf_counter()
            result = call(*args)
            elapsed.append(time.perf_counter() - start)
        return elapsed, result

    elapsed, residual = [], 0.0
    for spec, _ in (cnot_spec(), disentanglable(np.random.default_rng(0))):
        times, result = timed(construct_disentangler, trig(spec))
        elapsed += times
        residual = max(residual, result.disentangling_residual)
    flat["layers.construct_us"] = 1e6 * float(np.median(elapsed))
    flat["layers.construct.residual_max"] = residual

    for n1, n2 in LAYER_DIMS:
        # 400 samples, as the benchmark's certify calls, taken inside each call
        traj = trig(sidon((n1, n2), np.random.default_rng(0)))
        elapsed, cert = timed(certify_no_disentangling, traj)
        flat[f"layers.{n1}x{n2}.certify_us"] = 1e6 * float(np.median(elapsed))
        flat[f"layers.{n1}x{n2}.certify.rank"] = cert.numerical_rank

    h = random_hermitian(9, np.random.default_rng(0))
    elapsed, gradient = timed(stationarity_gradient, h, HilbertDims(3, 3))
    flat["layers.stationarity_us"] = 1e6 * float(np.median(elapsed))
    flat["layers.stationarity.gradient_norm"] = gradient
    return flat


def layer_medians() -> dict:
    """`layer_metrics` in LAYER_RUNS fresh processes on one BLAS thread, each
    key's median: a burst of host load during one run no longer lands in the
    snapshot.  The keys that are not timings are deterministic, so their
    median is their value."""
    paths = [str(ROOT / "scripts"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env["OPENBLAS_NUM_THREADS"] = "1"  # fixed before numpy loads, as `bench/run.py` fixes it
    code = "import json, bench_snapshot; print(json.dumps(bench_snapshot.layer_metrics()))"
    runs = []
    for _ in range(LAYER_RUNS):
        proc = run([sys.executable, "-c", code], env)
        if proc.returncode != 0:
            raise SystemExit(f"layer_metrics failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def optimize_seconds() -> dict:
    """Median seconds of `optimize_tps` (2 restarts, 200 samples) on one seeded 2x3
    member of the benchmark's Sidon family, after one untimed call, in this
    process, and the objective, the least-squares evaluations (summed
    `RestartSummary.iterations`) and the SQP steps (summed
    `RestartSummary.minimax_steps`) of the last timed call.  Called by
    `library_metrics` in a fresh process."""
    import numpy as np

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from bench_inputs import sidon
    from tpslab.optimizer import OptimizerConfig, optimize_tps

    traj = trig(sidon((2, 3), np.random.default_rng(0)))
    config = OptimizerConfig(restarts=2, seed=0)
    optimize_tps(traj, config)  # untimed warm-up
    elapsed = []
    for _ in range(LIBRARY_REPEATS):
        start = time.perf_counter()
        result = optimize_tps(traj, config)
        elapsed.append(time.perf_counter() - start)
    return {
        "seconds": float(np.median(elapsed)),
        "objective": result.objective,
        "lm_nfev": sum(r.iterations for r in result.restarts),
        "sqp_steps": sum(r.minimax_steps for r in result.restarts),
    }


def library_metrics() -> dict:
    """`optimize_seconds` in one fresh process without OPENBLAS_NUM_THREADS, as
    a library caller runs it: `bench/run.py` fixes one BLAS thread before numpy
    loads, so it cannot time that caller."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    paths = [str(ROOT / "scripts"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    code = "import json, bench_snapshot; print(json.dumps(bench_snapshot.optimize_seconds()))"
    proc = run([sys.executable, "-c", code], env)
    if proc.returncode != 0:
        raise SystemExit(f"optimize_seconds failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    return {
        "library.optimize_s": result["seconds"],
        "library.optimize.objective": result["objective"],
        "library.optimize.lm_nfev": result["lm_nfev"],
        "library.optimize.sqp_steps": result["sqp_steps"],
    }


def environment() -> dict:
    """nproc, the git HEAD, and the python and numpy versions that CLI reports give."""
    import numpy

    # "-dirty" marks a snapshot of uncommitted changes on top of HEAD
    head = run(["git", "describe", "--always", "--dirty", "--abbrev=40"])
    return {
        "nproc": os.cpu_count(),
        "git_head": head.stdout.strip() if head.returncode == 0 else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
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
    snapshot.update(layer_medians())
    snapshot.update(library_metrics())
    Path(args.output).write_text(json.dumps(snapshot, indent=1) + "\n")


if __name__ == "__main__":
    main()

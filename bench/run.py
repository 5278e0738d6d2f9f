#!/usr/bin/env python3
"""End-to-end benchmark of the tpslab CLI, with an optional per-layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload search-disentanglable --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

    search-disentanglable  optimize on trajectories that have a disentangler
    search-obstructed      certify + optimize on certified-obstructed ones
    analyze                profile, profile csv, certify, construct, hamiltonian

One process, one client, closed loop: a job starts when the previous one has
finished, and every job is an in-process ``tpslab.cli.main([...])`` call on
inputs generated from --seed and written through ``tpslab.fileio``.  Each
job's output is checked by bench_oracles; a wrong output or exit code counts
as a failed job and never stops the run.

--trace 0 times jobs for --seconds and prints the end-to-end metrics.
--trace 1 runs the first TRACE_JOBS jobs of the pool untraced, then the same
jobs traced, and prints the per-layer metrics per pass of those jobs; the
untraced and traced reports must have bit-identical ``results`` blocks.

The last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}.  A fuller record (environment, input sha256, per-job latencies,
problems found) is written to .bench_out/ in the checkout, and the spans of a
traced run to .bench_out/spans-<workload>-seed<n>.json.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()  # setup_s counts the imports that follow

# one BLAS / OpenMP thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import bench_inputs as bi
import bench_math as bm
import bench_oracles as bo

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_ROUNDS = 3  # input generation is repeated; setup_s takes the median
TRACE_JOBS = 4  # jobs per traced pass, the first ones of the pool

# Host speed.  On a shared 2-vCPU host the same job's time drifts by up to 2x
# (10-s medians of one analyze job read 0.17-0.39 s within three minutes), and
# a small fixed kernel of the same kind of work (a Python loop plus tiny numpy
# SVDs) flips between about 3.0 and 5.2 ms from one call to the next.  The
# job's time over the kernel's mean time stays within about 5%.  So the
# kernel is sampled between jobs, about once per REFERENCE_EVERY_S of the job
# just run, and every reported time is scaled to a host on which the kernel
# takes REFERENCE_S: reported = measured * REFERENCE_S / mean kernel time
# over the samples taken just before and just after that job.
REFERENCE_S = 0.003
REFERENCE_EVERY_S = 0.2
_REF_MATS = np.random.default_rng(0).normal(size=(300, 2, 2, 2)) @ np.array([1.0, 1j])


def reference_s() -> float:
    """Seconds taken by the fixed reference kernel, once."""
    start = time.perf_counter()
    acc = 0.0
    for m in _REF_MATS:
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    return time.perf_counter() - start


def reference_samples(after_s: float) -> list[float]:
    """Kernel times sampled after `after_s` seconds of work, at least two."""
    return [reference_s() for _ in range(max(2, math.ceil(after_s / REFERENCE_EVERY_S)))]


def host_scale(refs: list[float]) -> float:
    """Factor that turns measured seconds into reference-host seconds."""
    return REFERENCE_S / statistics.fmean(refs)


def import_tpslab():
    """Import tpslab from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "tpslab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tpslab sources at {src}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import tpslab
    import tpslab.cli  # noqa: F401

    if Path(tpslab.__file__).resolve().parent != (src / "tpslab").resolve():
        sys.stderr.write(f"error: imported tpslab from {tpslab.__file__}, not {src}\n")
        sys.exit(2)


class Call:
    """One CLI invocation of a job and the oracle for what it writes."""

    def __init__(self, argv: list[str], output: Path, check):
        self.argv = argv + ["--output", str(output)]
        self.output = output
        self.check = check


def _search_disentanglable(pool_dir: Path, rng, size: int):
    members = [bi.cnot_spec()] + [bi.disentanglable(rng) for _ in range(size - 1)]
    jobs, digests = [], {}
    for k, (spec, u) in enumerate(members):
        bi.check_disentangler(spec, u)
        path = pool_dir / f"traj{k}.json"
        digests[path.name] = bi.write_trajectory(spec, path)
        out = pool_dir / "optimize.json"
        jobs.append([
            Call(
                ["optimize", "--input", str(path), "--restarts", "4", "--samples", "100", "--seed", "0"],
                out,
                lambda text, spec=spec: bo.check_optimize(spec, text, 100, below=1e-6, above=None),
            )
        ])
    return jobs, digests


def _search_obstructed(pool_dir: Path, rng, size: int):
    # a job is a 2x2 member then a 2x3 member, so every job keeps the
    # general-dims path under measurement; job 0's 2x2 member is the paper's
    # Sidon trajectory
    specs = [bi.sidon_fixture()]
    for k in range(1, 2 * size):
        specs.append(bi.sidon((2, 3) if k % 2 else (2, 2), rng))
    jobs, digests = [], {}
    for k, spec in enumerate(specs):
        bi.check_sidon(spec)
        path = pool_dir / f"traj{k}.json"
        digests[path.name] = bi.write_trajectory(spec, path)
        n = spec["dims"][0] * spec["dims"][1]
        pairs = n * (n + 1) // 2
        calls = [
            Call(
                ["certify", "--input", str(path), "--samples", "400"],
                pool_dir / f"certify{k % 2}.json",
                lambda text, p=pairs: bo.check_certify(text, "CertifiedNoDisentanglingTPS", p, p),
            ),
            Call(
                ["optimize", "--input", str(path), "--restarts", "2", "--samples", "200", "--seed", "0"],
                pool_dir / f"optimize{k % 2}.json",
                lambda text, spec=spec: bo.check_optimize(spec, text, 200, below=None, above=1e-3),
            ),
        ]
        if k % 2 == 0:
            jobs.append(calls)
        else:
            jobs[-1] += calls
    return jobs, digests


def _analyze(pool_dir: Path, rng, size: int):
    members = [bi.cnot_spec()] + [bi.disentanglable(rng) for _ in range(size - 1)]
    jobs, digests = [], {}
    for k, (spec, u) in enumerate(members):
        bi.check_disentangler(spec, u)
        h = bm.random_hermitian(9, rng)
        traj, tps, op = (pool_dir / f"{kind}{k}.json" for kind in ("traj", "tps", "op"))
        digests[traj.name] = bi.write_trajectory(spec, traj)
        digests[tps.name] = bi.write_matrix(u, spec["dims"], tps)
        digests[op.name] = bi.write_matrix(h, (3, 3), op)
        jobs.append([
            Call(
                ["profile", "--input", str(traj), "--samples", "1000"],
                pool_dir / "profile.json",
                lambda text, spec=spec: bo.check_profile_json(spec, text, 1000),
            ),
            Call(
                ["profile", "--input", str(traj), "--samples", "1000", "--format", "csv", "--tps", str(tps)],
                pool_dir / "profile.csv",
                lambda text, spec=spec, u=u: bo.check_profile_csv(spec, text, 1000, u),
            ),
            Call(
                ["certify", "--input", str(traj)],
                pool_dir / "certify.json",
                lambda text: bo.check_certify(text, "Inconclusive", 5, 10),
            ),
            Call(
                ["construct", "--input", str(traj), "--tol", "1e-8"],
                pool_dir / "construct.json",
                lambda text, spec=spec: bo.check_construct(spec, text, 1e-8),
            ),
            Call(
                ["hamiltonian", "--input", str(op)],
                pool_dir / "hamiltonian.json",
                lambda text, h=h: bo.check_hamiltonian(h, (3, 3), text),
            ),
        ])
    return jobs, digests


# name -> (pool builder, pool size)
WORKLOADS = {
    "search-disentanglable": (_search_disentanglable, 40),
    "search-obstructed": (_search_obstructed, 12),
    "analyze": (_analyze, 128),
}


def _call(argv):
    import tpslab.cli  # looked up per call, so that a traced pass runs the wrapper

    try:
        return tpslab.cli.main(argv)
    except Exception as exc:  # a crash is a failed job, not the end of the run
        return f"{type(exc).__name__}: {exc}"


def run_job(job) -> tuple[float, list[str], list[str]]:
    """Run a job's calls; return (seconds, outputs, problems)."""
    start = time.perf_counter()
    codes = [_call(call.argv) for call in job]
    elapsed = time.perf_counter() - start
    outputs, problems = [], []
    for call, code in zip(job, codes):
        if code != 0:
            problems.append(f"{call.argv[0]} ended with {code!r}")
            outputs.append("")
            continue
        text = call.output.read_text()
        outputs.append(text)
        problems += call.check(text)
    return elapsed, outputs, problems


def results_block(text: str):
    """The part of a report that must not depend on tracing: `results`
    for JSON reports, the whole text for CSV."""
    try:
        return json.loads(text)["results"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return text


def environment(seed: int) -> dict:
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode; it is informational
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": git_commit(),
        "seed": seed,
        "loadavg_start": read_loadavg(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git, or 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (statistics.quantiles' 'inclusive')."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def setup(workload: str, seed: int, work: Path):
    """Generate, check and write the pool SETUP_ROUNDS times; keep the last."""
    builder, size = WORKLOADS[workload]
    times = []
    for r in range(SETUP_ROUNDS):
        pool_dir = work / f"pool{r}"
        pool_dir.mkdir(parents=True)
        start = time.perf_counter()
        jobs, digests = builder(pool_dir, np.random.default_rng(seed), size)
        times.append(time.perf_counter() - start)
    return jobs, digests, times


def per_layer_metrics(tracer, passes: int, overhead_s: float) -> dict:
    total, self_time = tracer.layer_times()
    c = tracer.counts
    objectives = tracer.values.get("optimizer.objectives", [])
    residuals = tracer.values.get("construct.residuals", [])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "optimizer.gn_s": (total["optimizer.gn"] / passes, "s"),
        "optimizer.gn.nfev": (c["optimizer.gn.nfev"] / passes, "count"),
        "optimizer.gn.njev": (c["optimizer.gn.njev"] / passes, "count"),
        "optimizer.lbfgs_s": (total["optimizer.lbfgs"] / passes, "s"),
        "optimizer.lbfgs.nit": (c["optimizer.lbfgs.nit"] / passes, "count"),
        "optimizer.lbfgs.nfev": (c["optimizer.lbfgs.nfev"] / passes, "count"),
        "optimizer.self_s": (self_time["optimizer"] / passes, "s"),
        "optimizer.restarts": (len(objectives) / passes, "count"),
        "optimizer.restart_success_ratio": (ratio(sum(o < 1e-6 for o in objectives), len(objectives)), "ratio"),
        "optimizer.objective_max": (max(objectives, default=0.0), "1"),
        "optimizer.objective_min": (min(objectives, default=0.0), "1"),
        "entanglement.profile_s": (total["entanglement.profile"] / passes, "s"),
        "entanglement.profile.calls": (c["entanglement.profile.calls"] / passes, "count"),
        "entanglement.profile.samples": (c["entanglement.profile.samples"] / passes, "count"),
        "construct.self_s": (self_time["construct"] / passes, "s"),
        "construct.solve_s": (total["construct.solve"] / passes, "s"),
        "construct.solve.nfev": (c["construct.solve.nfev"] / passes, "count"),
        "construct.verify_s": (total["construct.verify"] / passes, "s"),
        "construct.verify.calls": (c["construct.verify.calls"] / passes, "count"),
        "construct.attempts": (c["construct.attempts"] / passes, "count"),
        "construct.found_ratio": (ratio(c["construct.found"], c["construct.calls"]), "ratio"),
        "construct.residual_max": (max(residuals, default=0.0), "1"),
        "hamiltonian.projection_s": (total["hamiltonian.projection"] / passes, "s"),
        "hamiltonian.stationarity_s": (total["hamiltonian.stationarity"] / passes, "s"),
        "hamiltonian.stationarity.calls": (c["hamiltonian.stationarity.calls"] / passes, "count"),
        "obstruction.certify_s": (total["obstruction.certify"] / passes, "s"),
        "obstruction.certify.calls": (c["obstruction.certify.calls"] / passes, "count"),
        "obstruction.certified_ratio": (ratio(c["obstruction.certified"], c["obstruction.certify.calls"]), "ratio"),
        "fileio.load_s": (total["fileio.load"] / passes, "s"),
        "fileio.load.calls": (c["fileio.load.calls"] / passes, "count"),
        "fileio.csv_s": (total["fileio.csv"] / passes, "s"),
        "trajectory.sample_s": (total["trajectory.sample"] / passes, "s"),
        "trajectory.samples": (c["trajectory.samples"] / passes, "count"),
        "cli.self_s": (self_time["cli"] / passes, "s"),
        "cli.calls": (c["cli.calls"] / passes, "count"),
        "kernel.svd_s": (total["kernel.svd"] / passes, "s"),
        "kernel.svd.calls": (c["kernel.svd.calls"] / passes, "count"),
        "kernel.svd.matrices": (c["kernel.svd.matrices"] / passes, "count"),
        "kernel.eigh_s": (total["kernel.eigh"] / passes, "s"),
        "kernel.eigh.calls": (c["kernel.eigh.calls"] / passes, "count"),
        "trace.overhead_s": (overhead_s / passes, "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_tpslab()
    import_s = time.perf_counter() - _T0
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        reference_s()  # numpy's first SVD call pays one-off initialisation
        setup_refs = reference_samples(import_s)
        jobs, digests, gen_times = setup(args.workload, args.seed, work)
        warm_s, _, warm_problems = run_job(jobs[1])
        measured_setup_s = import_s + statistics.median(gen_times) + warm_s
        setup_refs += reference_samples(measured_setup_s - import_s)
        setup_s = measured_setup_s * host_scale(setup_refs)
        record = {
            "workload": args.workload,
            "environment": env,
            "inputs_sha256": digests,
            "setup": {
                "import_s": import_s,
                "generate_s": gen_times,
                "warmup_s": warm_s,
                "measured_s": measured_setup_s,
                "reference_s": setup_refs,
                "reported_s": setup_s,
            },
        }
        if args.trace:
            result = traced_run(jobs, args, record)
        else:
            result = timed_run(jobs, args, record, setup_s)
        result["correct"] = result["correct"] and not warm_problems
        record["warmup_problems"] = warm_problems
        record["environment"]["loadavg_end"] = read_loadavg()
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_summary(args, record, result)
    print(json.dumps(result))
    return 0


def timed_run(jobs, args, record, setup_s) -> dict:
    """Jobs back to back for --seconds, the reference kernel between jobs."""
    latencies, failures = [], []
    refs = [reference_samples(0.0)]  # refs[k] is taken just before job k
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while True:
        elapsed, _, problems = run_job(jobs[k % len(jobs)])
        refs.append(reference_samples(elapsed))
        latencies.append(elapsed)
        if problems:
            failures.append({"job": k % len(jobs), "problems": problems})
        k += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    scaled = [t * host_scale(refs[k] + refs[k + 1]) for k, t in enumerate(latencies)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p90 = quantile(scaled, 0.9)
    record["timed"] = {
        "jobs": len(latencies),
        "wall_s": wall,
        "measured_latencies_s": latencies,
        "reference_s": refs,
        "latencies_s": scaled,
        "jobs_per_s": len(scaled) / sum(scaled),
        "measured_jobs_per_s": len(latencies) / sum(latencies),
        "measured_job_s.p50": statistics.median(latencies),
        "job_s.p90": p90,
        "jobs_beyond_p90": sum(x > p90 for x in scaled),
        "failures": failures,
        "fail_ratio": len(failures) / len(latencies),
    }
    metrics = {
        "job_s.p50": (statistics.median(scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(jobs, args, record) -> dict:
    """Passes over the first TRACE_JOBS jobs: untraced, then traced, repeated
    while --seconds allows; counts are per pass and repeat exactly."""
    from bench_trace import Tracer

    subset = jobs[:TRACE_JOBS]
    tracer = Tracer()
    passes, untraced_s, traced_s = 0, 0.0, 0.0
    failures = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = [run_job(job) for job in subset]
        t1 = time.perf_counter()
        with tracer:
            traced = [run_job(job) for job in subset]
        t2 = time.perf_counter()
        passes += 1
        untraced_s += t1 - t0
        traced_s += t2 - t1
        for k, ((_, out_a, prob_a), (_, out_b, prob_b)) in enumerate(zip(plain, traced)):
            problems = prob_a + prob_b
            if [results_block(t) for t in out_a] != [results_block(t) for t in out_b]:
                problems.append("traced results differ from untraced results")
            if problems:
                failures.append({"pass": passes, "job": k, "problems": problems})
        if time.perf_counter() - start + (t2 - t0) > args.seconds:
            break
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["id", "name", "parent", "start", "end"], "spans": tracer.spans}))
    record["traced"] = {
        "passes": passes,
        "jobs_per_pass": len(subset),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "absent_seams": tracer.absent,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": failures,
    }
    attempted = 2 * passes * len(subset)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": per_layer_metrics(tracer, passes, traced_s - untraced_s),
    }


def print_summary(args, record, result) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    env = record["environment"]
    print(
        f"  env: nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
        f"scipy {env['scipy']}  blas {env['blas']}  commit {env['commit'][:12]}"
    )
    print(f"  loadavg start {env['loadavg_start']}  end {env['loadavg_end']}")
    if "timed" in record:
        t = record["timed"]
        print(f"  jobs {t['jobs']}  failed {len(t['failures'])}  fail_ratio {t['fail_ratio']:.4f} (1)")
        print(f"  jobs_per_s {t['jobs_per_s']:.6g} 1/s  (a mean: a rare costly input moves it, see README)")
        note = "" if t["jobs_beyond_p90"] >= 10 else "  (fewer than 10 jobs beyond it: not a tail estimate)"
        print(f"  job_s.p90 {t['job_s.p90']:.6f} s  over {t['jobs']} jobs, {t['jobs_beyond_p90']} beyond{note}")
        print(
            f"  as measured, before host scaling: jobs_per_s {t['measured_jobs_per_s']:.6g} 1/s  "
            f"job_s.p50 {t['measured_job_s.p50']:.6g} s  setup_s {record['setup']['measured_s']:.6g} s  "
            f"reference mean {statistics.fmean(sum(t['reference_s'], [])) * 1e3:.3f} ms"
        )
        for f in t["failures"][:5]:
            print(f"  FAILED job {f['job']}: {'; '.join(f['problems'])}")
    else:
        tr = record["traced"]
        print(f"  passes {tr['passes']} x {tr['jobs_per_pass']} jobs  absent seams: {tr['absent_seams'] or 'none'}")
        for f in tr["failures"][:5]:
            print(f"  FAILED pass {f['pass']} job {f['job']}: {'; '.join(f['problems'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests: each script under scripts/ runs end to end as a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_make_inputs_writes_the_bundled_inputs(tmp_path):
    proc = run_script("make_inputs.py", [str(tmp_path / "inputs")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "inputs" / "sidon.json").is_file()


def test_entanglement_sweep_writes_one_csv_per_basis(tmp_path):
    proc = run_script("entanglement_sweep.py", [str(tmp_path / "sweep")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep" / "disentangling.csv").is_file()


def test_search_demo_runs(tmp_path):
    proc = run_script("search_demo.py", ["--restarts", "2"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "sidon" in proc.stdout


def test_bench_snapshot_times_the_optimizer_layers(tmp_path):
    # the layers section alone, in its own process;
    # one repeat per point is enough for the values asserted here
    code = (
        "import json, bench_snapshot\n"
        "bench_snapshot.LAYER_REPEATS = 1\n"
        "print(json.dumps(bench_snapshot.layer_metrics()))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "scripts"))
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads(proc.stdout)
    layers = [
        "step",
        "residuals",
        "residual_jacobian",
        "sq_distances",
        "lm_step",
        "lm_round_r4",
        "minimax_step",
        "schmidt_spectra",
    ]
    # 2 K min(T, n(n+1)/2) residuals at T = 200: K = 1 and 3 minors
    for dims, count in [("2x2", 2 * 1 * 10), ("2x3", 2 * 3 * 21)]:
        assert all(snapshot[f"layers.{dims}.{name}_us"] > 0 for name in layers)
        assert snapshot[f"layers.{dims}.residuals.count"] == count
        # at most one row more than the p chart directions: the support is affinely independent
        n1, n2 = int(dims[0]), int(dims[2])
        assert 1 <= snapshot[f"layers.{dims}.qp_support"] <= (n1**2 - 1) * (n2**2 - 1) + 1
        assert snapshot[f"layers.{dims}.cost_rel_gap"] < 1e-12
        assert snapshot[f"layers.{dims}.schmidt_spectra.svd_gap"] < 1e-14
    assert snapshot["layers.construct_us"] > 0
    assert snapshot["layers.construct.residual_max"] < 1e-12
    for dims, rank in [("2x2", 10), ("2x3", 21)]:
        assert snapshot[f"layers.{dims}.certify_us"] > 0
        assert snapshot[f"layers.{dims}.certify.rank"] == rank
    assert snapshot["layers.stationarity_us"] > 0
    assert snapshot["layers.stationarity.gradient_norm"] > 0


def test_bench_snapshot_times_the_library_in_one_process(tmp_path):
    code = "import json, bench_snapshot; print(json.dumps(bench_snapshot.library_metrics()))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "scripts"))
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads(proc.stdout)
    assert snapshot["library.optimize_s"] > 0
    assert snapshot["library.optimize.objective"] > 1e-3  # an obstructed Sidon member
    assert snapshot["library.optimize.lm_nfev"] > 0
    assert snapshot["library.optimize.sqp_steps"] > 0
    # C-NOT at 32 restarts: one restart is certified and cuts the other 31
    assert snapshot["library.optimize_cnot32_s"] > 0
    assert snapshot["library.optimize_cnot32.objective"] < 1e-6
    assert snapshot["library.optimize_cnot32.lm_nfev"] > 0
    assert snapshot["library.optimize_cnot32.restarts_cut"] == 31


def test_bench_snapshot_keeps_each_layer_key_median_over_fresh_processes(monkeypatch):
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_snapshot
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    runs = iter([{"a_us": 5.0, "n": 3}, {"a_us": 90.0, "n": 3}, {"a_us": 7.0, "n": 3}])
    argvs = []

    def fake_run(argv, env=None):
        assert env["OPENBLAS_NUM_THREADS"] == "1"  # one BLAS thread, as in bench/run.py
        argvs.append(argv)
        return subprocess.CompletedProcess(argv, 0, json.dumps(next(runs)), "")

    monkeypatch.setattr(bench_snapshot, "run", fake_run)
    assert bench_snapshot.layer_medians() == {"a_us": 7.0, "n": 3}
    assert len(argvs) == bench_snapshot.LAYER_RUNS == 3
    assert all("layer_metrics()" in argv[-1] for argv in argvs)


def test_bench_snapshot_environment_needs_no_scipy(tmp_path):
    # scipy is a test dependency only, so the snapshot must not import it
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import bench_snapshot\n"
        "print(json.dumps(bench_snapshot.environment()))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "scripts"))
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {"nproc", "git_head", "python", "numpy"}


def test_bench_snapshot_counts_source_lines_next_to_tier1(tmp_path):
    # the suite itself is not run: its subprocess is replaced by a canned summary
    code = (
        "import json, subprocess, bench_snapshot\n"
        "bench_snapshot.run = lambda argv, env=None: subprocess.CompletedProcess(\n"
        "    argv, 0, stdout='...\\n3 passed, 1 failed in 0.5s\\n', stderr='')\n"
        "print(json.dumps(bench_snapshot.tier1_metrics()))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "scripts"))
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads(proc.stdout)
    assert snapshot["tier1.passed"] == 3 and snapshot["tier1.failed"] == 1
    sources = sorted(str(p) for p in (ROOT / "src" / "tpslab").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *sources], capture_output=True, text=True, check=True)
    assert snapshot["src.lines"] == int(wc.stdout.split()[-2])


@pytest.mark.parametrize(
    "name", ["make_inputs.py", "entanglement_sweep.py", "search_demo.py", "bench_snapshot.py"]
)
def test_help_writes_nothing(name, tmp_path):
    proc = run_script(name, ["--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []

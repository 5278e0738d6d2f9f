"""Smoke tests: each script under scripts/ runs end to end as a subprocess."""

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


@pytest.mark.parametrize(
    "name", ["make_inputs.py", "entanglement_sweep.py", "search_demo.py", "bench_snapshot.py"]
)
def test_help_writes_nothing(name, tmp_path):
    proc = run_script(name, ["--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []

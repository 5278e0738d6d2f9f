import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tpslab
from tpslab import fixtures, reproduce
from tpslab.cli import build_parser, main
from tpslab.core import HilbertDims
from tpslab.fileio import save_matrix_document, save_trajectory
from tpslab.obstruction import DEFAULT_CERTIFY_SAMPLES
from tpslab.optimizer import DEFAULT_OPTIMIZE_SAMPLES
from tpslab.trajectory import sample

from helpers import QBITS


@pytest.fixture
def files(tmp_path):
    paths = {
        "cnot": tmp_path / "cnot.json",
        "sidon": tmp_path / "sidon.json",
        "lowdim": tmp_path / "lowdim.json",
        "disentangler": tmp_path / "disentangler.json",
        "eigenbasis": tmp_path / "eigenbasis.json",
        "h_cnot": tmp_path / "h_cnot.json",
    }
    save_trajectory(fixtures.cnot_trajectory(), paths["cnot"])
    save_trajectory(fixtures.sidon_trajectory(), paths["sidon"])
    save_trajectory(fixtures.lowdim_trajectory(), paths["lowdim"])
    save_matrix_document(
        fixtures.cnot_disentangler().basis_change, QBITS, paths["disentangler"]
    )
    save_matrix_document(
        fixtures.cnot_eigenbasis().basis_change, QBITS, paths["eigenbasis"]
    )
    save_matrix_document(fixtures.cnot_hamiltonian(), QBITS, paths["h_cnot"])
    return {k: str(v) for k, v in paths.items()}


def run(args):
    return main(args)


def read(path):
    text = Path(path).read_text()
    assert text.endswith("\n") and text.count("\n") == 1  # every JSON report is one line
    return json.loads(text)


def test_profile_identity_reaches_ln2(files, tmp_path):
    out = tmp_path / "report.json"
    assert run(["profile", "--input", files["cnot"], "--output", str(out)]) == 0
    report = read(out)
    assert report["command"] == "profile"
    assert report["results"]["max_entropy"] == pytest.approx(np.log(2), abs=1e-12)
    assert "sha256" in report["inputs"]["input"]


def test_profile_with_disentangler_is_flat(files, tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["profile", "--input", files["cnot"], "--tps", files["disentangler"], "--output", str(out)]
    )
    assert code == 0
    report = read(out)
    assert report["results"]["max_entropy"] < 1e-10
    for name, key in (("input", "cnot"), ("tps", "disentangler")):
        digest = hashlib.sha256(Path(files[key]).read_bytes()).hexdigest()
        assert report["inputs"][name] == {"path": files[key], "sha256": digest}


def test_input_digests_are_of_the_parsed_bytes(files, tmp_path, monkeypatch):
    # the files are read once: rewriting them after parsing leaves the digests as they were
    parsed = {key: hashlib.sha256(Path(files[key]).read_bytes()).hexdigest() for key in files}
    profile = tpslab.cli.entanglement_profile

    def profile_then_rewrite(*args):
        for key in ("cnot", "disentangler"):
            Path(files[key]).write_text(Path(files[key]).read_text() + " ")
        return profile(*args)

    monkeypatch.setattr(tpslab.cli, "entanglement_profile", profile_then_rewrite)
    out = tmp_path / "report.json"
    argv = ["profile", "--input", files["cnot"], "--tps", files["disentangler"]]
    assert run(argv + ["--output", str(out)]) == 0
    inputs = read(out)["inputs"]
    assert inputs["input"]["sha256"] == parsed["cnot"]
    assert inputs["tps"]["sha256"] == parsed["disentangler"]


def test_profile_csv_output(files, tmp_path, capsysbinary):
    out = tmp_path / "profile.csv"
    head = ["profile", "--input", files["cnot"], "--format", "csv", "--samples", "7"]
    assert run(head + ["--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,entropy,product_distance"
    assert len(lines) == 8
    # stdout carries the same bytes, with no empty record after the last row
    assert run(head) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_cached_parser_carries_no_state_between_calls(files, tmp_path, capsys):
    out = tmp_path / "profile.csv"
    flags = ["--format", "csv", "--tps", files["disentangler"], "--output", str(out)]
    assert run(["profile", "--input", files["cnot"], "--samples", "7"] + flags) == 0
    capsys.readouterr()
    assert run(["profile", "--input", files["cnot"], "--samples", "7"]) == 0
    text = capsys.readouterr().out
    assert text.endswith("\n") and text.count("\n") == 1
    report = json.loads(text)
    assert report["parameters"] == {"tps": "identity", "samples": 7, "format": "json"}
    assert list(report["inputs"]) == ["input"]


def test_certify_verdicts(files, tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--input", files["sidon"], "--output", str(out)]) == 0
    results = read(out)["results"]
    assert results["verdict"] == "CertifiedNoDisentanglingTPS"
    assert results["numerical_rank"] == 10

    assert run(["certify", "--input", files["cnot"], "--output", str(out)]) == 0
    results = read(out)["results"]
    assert results["verdict"] == "Inconclusive"
    assert results["numerical_rank"] == 5

    assert run(["certify", "--input", files["lowdim"], "--output", str(out)]) == 0
    assert read(out)["results"]["verdict"] == "ExistsByLowDimension"


def test_certify_report_is_rerunnable(files, tmp_path):
    # every JSON report, not only certify's: the flags rebuilt from
    # `parameters` reproduce `results`
    cases = [
        ("certify", "cnot", [], {"samples", "rank_tol"}),
        ("profile", "cnot", ["--tps", files["disentangler"]], {"tps", "samples", "format"}),
        ("construct", "cnot", [], {"tol"}),
        ("hamiltonian", "h_cnot", ["--tps", files["disentangler"]], {"tps"}),
        ("optimize", "lowdim", ["--restarts", "2", "--samples", "60"],
         {"seed", "restarts", "samples"}),
    ]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for command, name, flags, options in cases:
        head = [command, "--input", files[name]]
        assert run(head + flags + ["--output", str(first)]) == 0
        report = read(first)
        assert list(report) == [
            "command", "inputs", "parameters", "results", "versions", "wall_time_s"
        ]
        assert list(report["versions"]) == ["tpslab", "numpy", "python"]
        assert set(report["parameters"]) == options
        rebuilt = []
        for key, value in report["parameters"].items():
            values = value if isinstance(value, list) else [value]
            rebuilt += ["--" + key.replace("_", "-")] + [str(v) for v in values]
        assert run(head + rebuilt + ["--output", str(second)]) == 0
        assert read(second)["results"] == report["results"], command


@pytest.mark.parametrize("rank_tol", ["0", "-1", "nan", "1"])
def test_certify_rejects_rank_tol_outside_unit_interval(files, rank_tol, capsys):
    # a threshold at or below 0 counts every eigenvalue and certifies the
    # C-NOT evolution, which has a disentangler; NaN counts none
    assert run(["certify", "--input", files["cnot"], f"--rank-tol={rank_tol}"]) == 2
    assert "rank_tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_construct_rejects_nonsense_tolerance(files, tol):
    assert run(["construct", "--input", files["cnot"], f"--tol={tol}"]) == 2


def test_construct_finds_and_reports_parameters(files, tmp_path):
    out = tmp_path / "construct.json"
    assert run(["construct", "--input", files["cnot"], "--output", str(out)]) == 0
    results = read(out)["results"]
    assert results["status"] == "found"
    assert results["disentangling_residual"] < 1e-8
    kappas = np.array([complex(re, im) for re, im in results["kappas"]])
    assert np.allclose(kappas, 0.25, atol=1e-8)
    assert len(results["basis_change"]) == 4
    assert list(results) == [
        "status",
        "message",
        "orthonormality_residual",
        "disentangling_residual",
        "attempts",
        "basis_change",
        "kappas",
        "roots",
    ]


def test_construct_not_found_is_exit_zero(files, tmp_path):
    # e^{-it} (sqrt(.3) z^2, sqrt(.4) z, sqrt(.3), 0): rank-3 coefficient map with
    # Gram diag(0.3, 0.4, 0.3), which fails g1^2 >= 4 g0 g2, so no disentangler
    a, b = 0.3**0.5, 0.4**0.5
    doc = {
        "dims": [2, 2],
        "form": "trig",
        "trig": {
            "constant": [[0, 0], [b, 0], [0, 0], [0, 0]],
            "harmonics": [
                {
                    "freq": 1,
                    "cos": [[a, 0], [0, 0], [a, 0], [0, 0]],
                    "sin": [[0, a], [0, 0], [0, -a], [0, 0]],
                }
            ],
            "t_max": 6.28318,
        },
    }
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "construct.json"
    assert run(["construct", "--input", str(path), "--output", str(out)]) == 0
    results = read(out)["results"]
    assert results["status"] == "not_found"
    assert "g1^2 - 4 g0 g2 = -2.000e-01" in results["message"]


def test_construct_multifrequency_is_unsupported(files):
    assert run(["construct", "--input", files["sidon"]]) == 4


@pytest.mark.parametrize(
    "traj",
    [fixtures.cnot_evolution(), sample(fixtures.cnot_trajectory(), 20)],
    ids=["hamiltonian", "samples"],
)
def test_construct_is_unsupported_on_hamiltonian_and_sample_files(traj, tmp_path, capsys):
    path = tmp_path / "traj.json"
    save_trajectory(traj, path)
    assert run(["construct", "--input", str(path)]) == 4
    assert type(traj).__name__ in capsys.readouterr().err


def test_hamiltonian_report(files, tmp_path):
    out = tmp_path / "ham.json"
    code = run(
        [
            "hamiltonian",
            "--input",
            files["h_cnot"],
            "--tps",
            files["disentangler"],
            "--output",
            str(out),
        ]
    )
    assert code == 0
    results = read(out)["results"]
    assert results["interaction_norm"] < 1e-10
    assert results["stationarity_gradient"] < 1e-6


def test_hamiltonian_eigenbasis_is_stationary_but_not_separable(files, tmp_path):
    out = tmp_path / "ham.json"
    code = run(
        [
            "hamiltonian",
            "--input",
            files["h_cnot"],
            "--tps",
            files["eigenbasis"],
            "--output",
            str(out),
        ]
    )
    assert code == 0
    results = read(out)["results"]
    assert results["interaction_norm"] == pytest.approx(1.0, abs=1e-9)
    assert results["stationarity_gradient"] < 1e-6


def test_hamiltonian_rejects_non_hermitian(files, tmp_path):
    doc = {"dims": [2, 2], "matrix": [[[0, 0]] * 4 for _ in range(4)]}
    doc["matrix"][0][1] = [1.0, 0.0]  # upper entry with no mirror
    path = tmp_path / "bad_op.json"
    path.write_text(json.dumps(doc))
    assert run(["hamiltonian", "--input", str(path)]) == 3


def test_sample_counts_default_to_the_library_defaults():
    parse = build_parser().parse_args
    assert parse(["certify", "--input", "t.json"]).samples == DEFAULT_CERTIFY_SAMPLES == 400
    assert parse(["optimize", "--input", "t.json"]).samples == DEFAULT_OPTIMIZE_SAMPLES == 200


def test_optimize_rejects_zero_restarts(files):
    assert run(["optimize", "--input", files["cnot"], "--restarts", "0"]) == 2


@pytest.mark.parametrize("restarts", ["1", "2"])
def test_optimize_rejects_negative_seed_before_solving(files, monkeypatch, capsys, restarts):
    # restart 0 starts at the identity and never draws from the seed, so
    # "--restarts 1" used to succeed and "--restarts 2" failed after restart 0
    solves = []
    monkeypatch.setattr(tpslab.cli, "optimize_tps", lambda *a, **k: solves.append((a, k)))
    code = run(["optimize", "--input", files["cnot"], "--seed", "-1", "--restarts", restarts])
    assert code == 2
    assert solves == []
    assert "seed" in capsys.readouterr().err


def test_a_library_fault_is_not_reported_as_an_input_error(files, monkeypatch):
    # a bare ValueError is a bug in the program, not in its input, so main lets it through
    def broken(self, u):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(tpslab.optimizer._Objective, "residuals", broken)
    with pytest.raises(ValueError, match="broadcast"):
        run(["optimize", "--input", files["cnot"], "--restarts", "2"])


def test_optimize_report(files, tmp_path):
    out = tmp_path / "opt.json"
    code = run(
        [
            "optimize",
            "--input",
            files["lowdim"],
            "--restarts",
            "2",
            "--samples",
            "60",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    results = read(out)["results"]
    # the reported distance keeps full precision down to exact product states
    assert results["objective"] < 1e-6
    assert len(results["restarts"]) == 2
    keys = {"index", "objective", "surrogate_final", "iterations", "minimax_steps"}
    assert all(set(entry) == keys for entry in results["restarts"])
    # each restart reaches a product within the minimax tolerance and skips that stage
    assert all(entry["minimax_steps"] == 0 for entry in results["restarts"])


def test_optimize_objective_is_what_profile_reads_on_its_tps(files, tmp_path):
    # one distance kernel: the headline, the winner's entry and `profile --tps` agree to the bit
    opt, tps, prof = (tmp_path / name for name in ("opt.json", "tps.json", "prof.json"))
    grid = ["--samples", "60"]
    argv = ["optimize", "--input", files["sidon"], "--restarts", "2", *grid, "--output", str(opt)]
    assert run(argv) == 0
    results = read(opt)["results"]
    u = np.array(results["basis_change"])
    save_matrix_document(u[..., 0] + 1j * u[..., 1], QBITS, tps)
    argv = ["profile", "--input", files["sidon"], "--tps", str(tps), *grid, "--output", str(prof)]
    assert run(argv) == 0
    winner = results["restarts"][results["restart_index"]]
    assert results["objective"] == winner["objective"] == read(prof)["results"]["max_distance"]


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2], "form": "trig", "trig": {"constant": [[0, 0]] * 3, "harmonics": [], "t_max": 1}}))
    assert main(["profile", "--input", str(path)]) == 2
    assert "trig.constant" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,expected_path",
    [
        ('"constant": [[NaN, 0], [0, 0], [0, 0], [0, 0]], "t_max": 1', "trig.constant[0]"),
        ('"constant": [[1, 0], [0, 0], [0, 0], [0, 0]], "t_max": Infinity', "trig.t_max"),
    ],
    ids=["nan-constant", "infinite-t_max"],
)
def test_non_finite_number_is_input_error(tmp_path, capsys, text, expected_path):
    # Python's json module reads the NaN and Infinity literals
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2, 2], "form": "trig", "trig": {"harmonics": [], ' + text + "}}")
    assert main(["profile", "--input", str(path)]) == 2
    assert expected_path in capsys.readouterr().err


def test_invalid_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2, 2], "form"')
    assert main(["profile", "--input", str(path)]) == 2
    expected = "<document>: invalid JSON: Expecting ':' delimiter: line 1 column 24 (char 23)"
    assert capsys.readouterr().err == f"input error: {expected}\n"


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dims": [2, 2], "name": "\xe9"}')
    assert main(["profile", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: <document>: invalid JSON: ")


def test_missing_file_is_input_error(tmp_path):
    assert main(["profile", "--input", str(tmp_path / "nope.json")]) == 2


def test_directory_as_input_is_input_error(tmp_path, capsys):
    assert main(["profile", "--input", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_directory_as_output_is_input_error(files, tmp_path, capsys):
    assert main(["certify", "--input", files["cnot"], "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_dimension_mismatch_is_validity_error(files, tmp_path):
    doc = {"dims": [2, 3], "matrix": [[[1 if i == j else 0, 0] for j in range(6)] for i in range(6)]}
    path = tmp_path / "tps6.json"
    path.write_text(json.dumps(doc))
    assert main(["profile", "--input", files["cnot"], "--tps", str(path)]) == 3


@pytest.mark.parametrize("tps, code", [("missing", 2), ("2x3", 3)])
def test_profile_checks_the_tps_before_sampling(files, tmp_path, monkeypatch, tps, code):
    # a missing or mismatched --tps costs no sampling, at any --samples
    def no_sampling(*args):
        raise AssertionError("sampled before the --tps check")

    monkeypatch.setattr(tpslab.cli, "sample", no_sampling)
    path = tmp_path / f"{tps}.json"
    if tps == "2x3":
        save_matrix_document(np.eye(6), HilbertDims(2, 3), path)
    argv = ["profile", "--input", files["cnot"], "--tps", str(path), "--samples", "1000000"]
    assert main(argv) == code


def test_reproduce_list(capsys):
    assert main(["reproduce", "--list"]) == 0
    out = capsys.readouterr().out
    assert "cnot-disentangling" in out
    assert "optimizer-sidon-floor" in out


def test_reproduce_exits_one_when_a_check_fails(monkeypatch, capsys):
    checks = (("stub-pass", lambda: (True, "fine")), ("stub-fail", lambda: (False, "broken")))
    monkeypatch.setattr(reproduce, "ALL_CHECKS", checks)
    assert main(["reproduce"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["ok   stub-pass: fine", "FAIL stub-fail: broken"]


def test_python_dash_m_runs_the_cli():
    src = str(Path(tpslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tpslab", "reproduce", "--list"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cnot-disentangling" in proc.stdout


def test_importing_the_cli_defers_scipy_optimize():
    # no command needs it (see test_no_command_loads_scipy)
    src = str(Path(tpslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, tpslab.cli; assert 'scipy.optimize' not in sys.modules, 'imported'"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


_OPTIMIZE_MODULES = """
import json, sys
from tpslab import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, [m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules]]))
"""


def test_optimize_loads_neither_scipy_optimize_nor_scipy_linalg(files, tmp_path):
    # the Sidon fixture is obstructed, so every restart runs the minimax stage
    src = str(Path(tpslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "opt.json"
    argv = ["optimize", "--input", files["sidon"], "--restarts", "2", "--output", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _OPTIMIZE_MODULES, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
    assert read(out)["results"]["objective"] > 0.1


_NO_SCIPY = """
import json, sys
from tpslab import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    loaded.append([argv[0], code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(files, tmp_path):
    # the package needs numpy alone; the Sidon fixture is obstructed, so every
    # optimize restart runs the minimax stage
    src = str(Path(tpslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    sidon, out = files["sidon"], str(tmp_path / "out")
    commands = [
        ["profile", "--input", sidon, "--output", out],
        ["profile", "--input", sidon, "--format", "csv", "--output", out],
        ["certify", "--input", sidon, "--output", out],
        ["construct", "--input", files["cnot"], "--output", out],
        ["hamiltonian", "--input", files["h_cnot"], "--output", out],
        ["optimize", "--input", sidon, "--restarts", "2", "--output", out],
        ["reproduce"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == [[argv[0], 0, []] for argv in commands]
    assert read(out)["results"]["objective"] > 0.1  # the last report: optimize's

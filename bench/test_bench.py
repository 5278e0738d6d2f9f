"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench_inputs as bi  # noqa: E402
import bench_math as bm  # noqa: E402
import bench_oracles as bo  # noqa: E402
import run  # noqa: E402
from bench_trace import SEAMS, Tracer  # noqa: E402
from tpslab.cli import main as cli_main  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_generators_are_deterministic(tmp_path, workload):
    builder, _ = run.WORKLOADS[workload]
    digests = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        _, d = builder(tmp_path / name, np.random.default_rng(11), 6)
        digests.append(d)
    assert digests[0] == digests[1]
    _, other = builder(tmp_path, np.random.default_rng(12), 6)
    assert other != digests[0]


def test_generated_members_have_their_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        spec, u = bi.disentanglable(rng)
        assert bi.check_disentangler(spec, u) < 1e-12
        for dims in ((2, 2), (2, 3)):
            s = bi.sidon(dims, rng)
            bi.check_sidon(s)
            assert bm.is_sidon([0] + [h[0] for h in s["harmonics"]])


def test_generation_checks_reject_a_wrong_disentangler():
    spec, u = bi.disentanglable(np.random.default_rng(0))
    with pytest.raises(ValueError):
        bi.check_disentangler(spec, bm.haar_unitary(4, np.random.default_rng(1)) @ u)


def _report(tmp_path, argv):
    out = tmp_path / "report.out"
    assert cli_main(argv + ["--output", str(out)]) == 0
    return out.read_text()


def _with_results(text, **changes):
    doc = json.loads(text)
    doc["results"].update(changes)
    return json.dumps(doc)


@pytest.fixture
def member(tmp_path):
    spec, u = bi.disentanglable(np.random.default_rng(3))
    path = tmp_path / "traj.json"
    bi.write_trajectory(spec, path)
    return spec, u, str(path)


def _perturbed(rows, eps=1e-4):
    """The basis change composed with the unitary exp(i eps H), H random."""
    m = bo._complex(rows)
    lam, v = np.linalg.eigh(bm.random_hermitian(m.shape[0], np.random.default_rng(2)))
    q = (v * np.exp(1j * eps * lam)) @ v.conj().T
    return [[[z.real, z.imag] for z in row] for row in q @ m]


def test_optimize_oracle_rejects_a_perturbed_basis_change(tmp_path, member):
    spec, _, path = member
    text = _report(tmp_path, ["optimize", "--input", path, "--restarts", "1", "--samples", "50"])
    assert bo.check_optimize(spec, text, 50, below=1e-6, above=None) == []
    bad = _with_results(text, basis_change=_perturbed(json.loads(text)["results"]["basis_change"]))
    assert bo.check_optimize(spec, bad, 50, below=1e-6, above=None)
    # a distance the basis change does not give is caught even inside the gate
    obj = json.loads(text)["results"]["objective"]
    assert bo.check_optimize(spec, _with_results(text, objective=obj + 5e-7), 50, below=1e-6, above=None)


def test_construct_oracle_rejects_a_perturbed_basis_change(tmp_path, member):
    spec, _, path = member
    text = _report(tmp_path, ["construct", "--input", path])
    assert bo.check_construct(spec, text, 1e-8) == []
    bad = _with_results(text, basis_change=_perturbed(json.loads(text)["results"]["basis_change"]))
    assert bo.check_construct(spec, bad, 1e-8)
    assert bo.check_construct(spec, _with_results(text, status="not_found"), 1e-8)


def test_certify_oracle_rejects_a_flipped_verdict(tmp_path, member):
    _, _, path = member
    text = _report(tmp_path, ["certify", "--input", path])
    assert bo.check_certify(text, "Inconclusive", 5, 10) == []
    flipped = _with_results(text, verdict="CertifiedNoDisentanglingTPS")
    assert bo.check_certify(flipped, "Inconclusive", 5, 10)


def test_profile_oracles_reject_a_changed_distance(tmp_path, member):
    spec, u, path = member
    text = _report(tmp_path, ["profile", "--input", path, "--samples", "100"])
    assert bo.check_profile_json(spec, text, 100) == []
    dist = json.loads(text)["results"]["product_distance"]
    dist[7] += 1e-6
    assert bo.check_profile_json(spec, _with_results(text, product_distance=dist), 100)
    tps = tmp_path / "tps.json"
    bi.write_matrix(u, (2, 2), tps)
    csv = _report(tmp_path, ["profile", "--input", path, "--samples", "100", "--format", "csv", "--tps", str(tps)])
    assert bo.check_profile_csv(spec, csv, 100, u) == []
    assert bo.check_profile_csv(spec, csv, 100, None)  # the identity TPS is entangled


def test_hamiltonian_oracle_rejects_a_stationarity_off_by_1e_3(tmp_path):
    h = bm.random_hermitian(9, np.random.default_rng(4))
    op = tmp_path / "op.json"
    bi.write_matrix(h, (3, 3), op)
    text = _report(tmp_path, ["hamiltonian", "--input", str(op)])
    assert bo.check_hamiltonian(h, (3, 3), text) == []
    g = json.loads(text)["results"]["stationarity_gradient"]
    assert bo.check_hamiltonian(h, (3, 3), _with_results(text, stationarity_gradient=g + 1e-3))


def test_oracles_report_unreadable_output_instead_of_raising():
    assert bo.check_certify("not json", "Inconclusive", 5, 10)
    assert bo.check_profile_csv({}, "t,entropy,product_distance\n1,2\n", 3)


def test_traced_results_are_bit_identical_and_originals_restored(tmp_path):
    jobs, _ = run._analyze(tmp_path, np.random.default_rng(8), 2)
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in SEAMS}
    plain = [run.run_job(job) for job in jobs]
    with Tracer() as tracer:
        traced = [run.run_job(job) for job in jobs]
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in originals.items())
    for (_, out_a, prob_a), (_, out_b, prob_b) in zip(plain, traced):
        assert prob_a == prob_b == []
        assert [run.results_block(t) for t in out_a] == [run.results_block(t) for t in out_b]
    assert tracer.counts["cli.calls"] == 10
    assert tracer.counts["hamiltonian.stationarity.calls"] == 2
    assert "optimizer.calls" not in tracer.counts
    assert tracer.absent == []
    total, self_time = tracer.layer_times()
    assert 0 < self_time["cli"] < total["cli"]


def test_a_removed_seam_is_reported_absent():
    with Tracer(seams=(("tpslab.cli", "no_such_function", "gone", None),)) as tracer:
        pass
    assert tracer.absent == ["tpslab.cli.no_such_function"]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout

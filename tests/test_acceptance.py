"""Acceptance suite: every numbered criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the live lines; each
criterion is a separate test with its tolerances pinned inline.
"""

import time

import numpy as np
import pytest

from tpslab import fixtures
from tpslab.construct import ConstructConfig, construct_disentangler, verify_disentangler
from tpslab.core import rebase_state, tps_equivalent
from tpslab.entanglement import max_minor_modulus, schmidt_values
from tpslab.hamiltonian import interaction_norm, rebase_operator, stationarity_gradient
from tpslab.obstruction import Verdict, certify_no_disentangling
from tpslab.optimizer import OptimizerConfig, optimize_tps
from tpslab.trajectory import sample
from tpslab import reproduce

from helpers import QBITS

S2 = np.sqrt(2)


def _line(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} {name}: {detail}"


def test_criterion_1_gate_disentangling():
    start = time.monotonic()
    tps = fixtures.cnot_disentangler()
    sampled = sample(fixtures.cnot_trajectory(), 1000)
    worst_minor = 0.0
    worst_sigma2 = 0.0
    for k in range(len(sampled)):
        psi = rebase_state(tps, sampled.state(k))
        worst_minor = max(worst_minor, max_minor_modulus(psi))
        worst_sigma2 = max(worst_sigma2, float(schmidt_values(psi)[1]))
    elapsed = time.monotonic() - start
    _line(
        1,
        "C-NOT disentangling",
        worst_minor < 1e-10 and worst_sigma2 < 1e-10 and elapsed < 1.0,
        f"minor {worst_minor:.2e}, sigma2 {worst_sigma2:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_closed_form_factors():
    tps = fixtures.cnot_disentangler()
    sampled = sample(fixtures.cnot_trajectory(), 1000)
    worst = 0.0
    for k in range(len(sampled)):
        t = sampled.times[k]
        z = np.exp(1j * t)
        factor = np.array([z - 1, z + 1])
        expected = np.exp(-1j * t) / 4 * np.kron(factor, factor)
        got = rebase_state(tps, sampled.state(k)).amplitudes
        worst = max(worst, float(np.abs(got - expected).max()))
    _line(2, "closed-form factor match", worst < 1e-12, f"deviation {worst:.2e}")


def test_criterion_3_hamiltonian_identities():
    evolved = sample(fixtures.cnot_evolution(), 1000)
    reference = sample(fixtures.cnot_trajectory(), 1000)
    evolution_dev = float(np.abs(evolved.states - reference.states).max())

    rebased = rebase_operator(fixtures.cnot_disentangler(), fixtures.cnot_hamiltonian())
    # conjugation halves the textbook matrix: the generator has Frobenius
    # norm sqrt(2), which pins the scale of any unitary conjugate
    conjugation_dev = float(np.abs(rebased - fixtures.separable_target()).max())
    rebased_interaction = interaction_norm(rebased, QBITS)

    eigenform = rebase_operator(fixtures.cnot_eigenbasis(), fixtures.cnot_hamiltonian())
    eigen_interaction = interaction_norm(eigenform, QBITS)
    oracle = reproduce._diagonal_pattern_lstsq(np.real(np.diagonal(eigenform)))

    ok = (
        evolution_dev < 1e-10
        and conjugation_dev < 1e-12
        and rebased_interaction < 1e-10
        and abs(eigen_interaction - 1.0) < 1e-9
        and abs(oracle - eigen_interaction) < 1e-9
    )
    _line(
        3,
        "Hamiltonian identities",
        ok,
        f"evolution {evolution_dev:.2e}, conjugation {conjugation_dev:.2e}, "
        f"interaction {rebased_interaction:.2e} / {eigen_interaction:.9f} "
        f"(lstsq oracle {oracle:.9f})",
    )


def test_criterion_4_stationary_non_minimal_point():
    start = time.monotonic()
    eigenform = rebase_operator(fixtures.cnot_eigenbasis(), fixtures.cnot_hamiltonian())
    gradient = stationarity_gradient(eigenform, QBITS)
    interaction = interaction_norm(eigenform, QBITS)
    elapsed = time.monotonic() - start
    ok = gradient < 1e-6 and abs(interaction - 1.0) < 1e-9 and elapsed < 5.0
    _line(
        4,
        "stationarity counterexample",
        ok,
        f"gradient {gradient:.2e} at interaction {interaction:.6f}, {elapsed:.2f}s",
    )


def test_criterion_5_obstruction_certificates():
    sidon = certify_no_disentangling(sample(fixtures.sidon_trajectory(), 400), 1e-8)
    cnot = certify_no_disentangling(sample(fixtures.cnot_trajectory(), 400), 1e-8)
    sidon_double = certify_no_disentangling(
        sample(fixtures.sidon_trajectory(), 800), 1e-8
    )
    cnot_double = certify_no_disentangling(sample(fixtures.cnot_trajectory(), 800), 1e-8)
    ok = (
        sidon.verdict is Verdict.CERTIFIED_NO
        and sidon.numerical_rank == sidon.full_rank == 10
        and cnot.verdict is Verdict.INCONCLUSIVE
        and cnot.numerical_rank == 5
        and cnot.full_rank == 10
        and sidon_double.verdict is sidon.verdict
        and cnot_double.verdict is cnot.verdict
        and sidon_double.numerical_rank == 10
        and cnot_double.numerical_rank == 5
    )
    _line(
        5,
        "obstruction certificates",
        ok,
        f"sidon {sidon.numerical_rank}/10 {sidon.verdict.value}; "
        f"cnot {cnot.numerical_rank}/10 {cnot.verdict.value}; stable under doubling",
    )


def test_criterion_6_constructor_regression():
    start = time.monotonic()
    result = construct_disentangler(fixtures.cnot_trajectory(), ConstructConfig())
    found = result.found
    verified = False
    equivalent = False
    if found:
        sampled = sample(fixtures.cnot_trajectory(), 1000)
        verified = verify_disentangler(result.tps, sampled, 1e-8).passed
        equivalent = tps_equivalent(result.tps, fixtures.cnot_disentangler())
    elapsed = time.monotonic() - start
    ok = found and verified and equivalent and elapsed < 30.0
    _line(
        6,
        "constructor regression",
        ok,
        f"found={found}, verified@1e-8={verified}, equivalent={equivalent}, {elapsed:.2f}s",
    )


def test_criterion_7_optimizer_sanity():
    start = time.monotonic()
    cnot = optimize_tps(
        sample(fixtures.cnot_trajectory(), 200), OptimizerConfig(restarts=32, seed=0)
    )
    sidon = optimize_tps(
        sample(fixtures.sidon_trajectory(), 200), OptimizerConfig(restarts=32, seed=0)
    )
    elapsed = time.monotonic() - start
    ok = cnot.objective < 1e-6 and sidon.objective > 1e-3 and elapsed < 300.0
    _line(
        7,
        "optimizer sanity",
        ok,
        f"cnot objective {cnot.objective:.2e}, sidon floor {sidon.objective:.2e}, {elapsed:.0f}s",
    )


@pytest.mark.parametrize(
    "name,check",
    [
        ("schmidt-reconstruction", reproduce.check_property_schmidt_reconstruction),
        ("minor-sigma2-agreement", reproduce.check_property_minor_sigma2_agreement),
        ("projection-pythagoras", reproduce.check_property_projection_pythagoras),
        ("local-invariance", reproduce.check_property_local_invariance),
        ("gradient-agreement", reproduce.check_property_gradient_agreement),
    ],
)
def test_criterion_8_property_suites(name, check):
    ok, detail = check()
    _line(8, f"property suite [{name}]", ok, detail)

import json
import re
from pathlib import Path

import numpy as np
import pytest

from tpslab import fixtures
from tpslab.core import TPSpec
from tpslab.entanglement import entanglement_profile
from tpslab.fileio import (
    ParseError,
    complex_out,
    dump_trajectory,
    load_matrix_document,
    load_tps,
    load_trajectory,
    profile_to_csv,
    save_matrix_document,
    save_trajectory,
)
from tpslab.trajectory import (
    HamiltonianTrajectory,
    SampledTrajectory,
    TrigTrajectory,
    sample,
)

from helpers import QBITS


def test_trig_roundtrip(tmp_path):
    path = tmp_path / "traj.json"
    save_trajectory(fixtures.cnot_trajectory(), path)
    loaded = load_trajectory(path)
    assert isinstance(loaded, TrigTrajectory)
    original = fixtures.cnot_trajectory()
    assert np.array_equal(loaded.constant, original.constant)
    assert loaded.harmonics[0].frequency == 1
    assert np.array_equal(loaded.harmonics[0].cos_coeffs, original.harmonics[0].cos_coeffs)
    assert loaded.t_max == original.t_max


def test_hamiltonian_roundtrip(tmp_path):
    path = tmp_path / "traj.json"
    save_trajectory(fixtures.cnot_evolution(), path)
    loaded = load_trajectory(path)
    assert isinstance(loaded, HamiltonianTrajectory)
    assert np.array_equal(loaded.hamiltonian, fixtures.cnot_hamiltonian())
    assert loaded.t_max == pytest.approx(np.pi / 2)


def test_samples_roundtrip(tmp_path):
    path = tmp_path / "traj.json"
    sampled = sample(fixtures.cnot_trajectory(), 12)
    save_trajectory(sampled, path)
    loaded = load_trajectory(path)
    assert isinstance(loaded, SampledTrajectory)
    assert np.allclose(loaded.times, sampled.times)
    assert np.allclose(loaded.states, sampled.states)


def test_matrix_document_roundtrip(tmp_path):
    path = tmp_path / "tps.json"
    save_matrix_document(fixtures.cnot_disentangler().basis_change, QBITS, path)
    matrix, dims = load_matrix_document(path)
    assert dims == QBITS
    assert np.array_equal(matrix, fixtures.cnot_disentangler().basis_change)
    tps = load_tps(path)
    assert isinstance(tps, TPSpec)


@pytest.mark.parametrize(
    "mutate,expected_path",
    [
        (lambda d: d.pop("dims"), "dims"),
        (lambda d: d.update(dims=[2]), "dims"),
        (lambda d: d.update(form="spline"), "form"),
        (lambda d: d["trig"].pop("t_max"), "trig.t_max"),
        (lambda d: d["trig"].update(t_max=-1), "trig.t_max"),
        (lambda d: d["trig"]["harmonics"][0].update(freq=0), "trig.harmonics[0].freq"),
        (
            lambda d: d["trig"]["harmonics"][0].update(cos=[[0, 0]] * 3),
            "trig.harmonics[0].cos",
        ),
        (
            lambda d: d["trig"]["constant"].__setitem__(2, "oops"),
            "trig.constant[2]",
        ),
        (lambda d: d["trig"]["constant"].__setitem__(0, [float("nan"), 0]), "trig.constant[0]"),
        (
            lambda d: d["trig"]["harmonics"][0]["sin"][1].__setitem__(1, float("-inf")),
            "trig.harmonics[0].sin[1]",
        ),
        (lambda d: d["trig"].update(t_max=float("inf")), "trig.t_max"),
        # JSON booleans are not numbers, though Python's bool is an int
        (lambda d: d["trig"]["constant"].__setitem__(1, [True, False]), "trig.constant[1]"),
        (lambda d: d["trig"].update(t_max=True), "trig.t_max"),
    ],
)
def test_parse_errors_name_the_offending_path(mutate, expected_path):
    doc = dump_trajectory(fixtures.cnot_trajectory())
    mutate(doc)
    with pytest.raises(ParseError) as err:
        load_trajectory(doc)
    assert err.value.path == expected_path


@pytest.mark.parametrize(
    "traj,mutate,expected_path",
    [
        (
            fixtures.cnot_evolution(),
            lambda d: d["hamiltonian"].update(t_max=float("inf")),
            "hamiltonian.t_max",
        ),
        (
            sample(fixtures.cnot_trajectory(), 5),
            lambda d: d["samples"]["times"].__setitem__(1, float("nan")),
            "samples.times",
        ),
        (
            fixtures.cnot_trajectory(),
            lambda d: d["trig"]["harmonics"][0].update(freq=True),
            "trig.harmonics[0].freq",
        ),
        (
            sample(fixtures.cnot_trajectory(), 5),
            lambda d: d["samples"].update(times=[False, True, True, True, True]),
            "samples.times",
        ),
    ],
    ids=["hamiltonian-t_max", "samples-times", "boolean-freq", "boolean-times"],
)
def test_non_finite_numbers_are_parse_errors(traj, mutate, expected_path):
    doc = dump_trajectory(traj)
    mutate(doc)
    with pytest.raises(ParseError) as err:
        load_trajectory(doc)
    assert err.value.path == expected_path


def test_invalid_json_reports_document(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError) as err:
        load_trajectory(path)
    assert err.value.path == "<document>"


def test_complex_encoding_is_re_im_pairs():
    doc = dump_trajectory(fixtures.cnot_trajectory())
    entry = doc["trig"]["constant"][0]
    assert entry == [1 / np.sqrt(2), 0.0]


def test_complex_out_encodes_scalars_vectors_and_matrices():
    assert complex_out(1 - 2j) == [1.0, -2.0]
    assert complex_out([1, 1j]) == [[1.0, 0.0], [0.0, 1.0]]
    assert complex_out(np.diag([1, -1j])) == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
    assert type(complex_out(np.float32(2.5))[0]) is float  # plain floats for json


def test_profile_csv_columns():
    sampled = sample(fixtures.cnot_trajectory(), 5)
    profile = entanglement_profile(sampled, TPSpec.identity(QBITS))
    text = profile_to_csv(profile)
    lines = text.strip().split("\n")
    assert lines[0] == "t,entropy,product_distance"
    assert len(lines) == 6
    row = lines[-1].split(",")
    assert float(row[0]) == pytest.approx(np.pi / 2)
    assert float(row[1]) == pytest.approx(np.log(2))


def test_off_sphere_trig_file_is_rejected_at_load():
    from tpslab.errors import NotNormalizable

    doc = dump_trajectory(fixtures.cnot_trajectory())
    doc["trig"]["constant"][1] = [0.5, 0.0]  # breaks the constant norm balance
    with pytest.raises(NotNormalizable):
        load_trajectory(doc)


def test_off_sphere_trig_file_between_grid_points_is_rejected_at_load():
    from tpslab.errors import NotNormalizable

    # (alpha, c e^{4it} + d e^{-4it}, 0, 0) on [0, 2 pi] has |psi|^2 = 1 + 1e-3 sin 8t,
    # which is exactly 1 on the 17-point grid t = k pi / 8
    c, d = 0.05, 0.01j
    alpha = float(np.sqrt(1 - abs(c) ** 2 - abs(d) ** 2))
    cos, sin = c + d, 1j * (c - d)
    zero = [0.0, 0.0]
    doc = {
        "dims": [2, 2],
        "form": "trig",
        "trig": {
            "constant": [[alpha, 0.0], zero, zero, zero],
            "harmonics": [{
                "freq": 4,
                "cos": [zero, [cos.real, cos.imag], zero, zero],
                "sin": [zero, [sin.real, sin.imag], zero, zero],
            }],
            "t_max": 2 * np.pi,
        },
    }
    with pytest.raises(NotNormalizable, match="1.000e-03"):
        load_trajectory(doc)


def test_readme_trig_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```json\n(.*?)```", readme, re.S) if '"trig"' in b]
    loaded = load_trajectory(json.loads(block))
    reference = sample(fixtures.cnot_trajectory(), 50)
    assert np.abs(sample(loaded, 50).states - reference.states).max() < 1e-15


def test_constant_trajectory_file_allows_empty_harmonics():
    doc = {
        "dims": [2, 2],
        "form": "trig",
        "trig": {
            "constant": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "harmonics": [],
            "t_max": 1.0,
        },
    }
    loaded = load_trajectory(doc)
    sampled = sample(loaded, 4)
    assert np.allclose(sampled.states, sampled.states[0])

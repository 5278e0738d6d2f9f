"""Wire formats: trajectory/operator/TPS files and profile exports.

All files are JSON documents.  Complex numbers are two-element arrays
[re, im]; matrices are row-major lists of rows.  This is the single
convention across the repo, and `complex_out` is its one encoder, for files
and CLI reports alike.  Parse errors carry the JSON path of the
offending element (e.g. ``trig.harmonics[0].cos[2]``).

Trajectory files::

    {"dims": [n1, n2], "form": "trig",
     "trig": {"constant": [[re, im], ...],
              "harmonics": [{"freq": 1, "cos": [...], "sin": [...]}],
              "t_max": 1.5707}}

    {"dims": [n1, n2], "form": "hamiltonian",
     "hamiltonian": {"matrix": [[[re, im], ...], ...],
                     "initial": [[re, im], ...], "t_max": 6.2831}}

    {"dims": [n1, n2], "form": "samples",
     "samples": {"times": [...], "states": [[[re, im], ...], ...]}}

Operator and TPS files::

    {"dims": [n1, n2], "matrix": [[[re, im], ...], ...]}

Entanglement profiles export as CSV with columns ``t,entropy,product_distance``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import HilbertDims, StateVector, TPSpec
from .entanglement import EntanglementProfile
from .errors import TpslabError
from .trajectory import (
    HamiltonianTrajectory,
    Harmonic,
    SampledTrajectory,
    TrigTrajectory,
)

PROFILE_COLUMNS = ("t", "entropy", "product_distance")


class ParseError(TpslabError):
    """Malformed input file; `path` names the offending JSON element."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ParseError(path, message)


def _get(mapping, key, path: str):
    _expect(isinstance(mapping, dict), path, "expected an object")
    if key not in mapping:
        raise ParseError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _is_number(value) -> bool:
    """A JSON number: int or float, but not bool, which Python counts as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _complex_in(value, path: str) -> complex:
    _expect(
        isinstance(value, (list, tuple)) and len(value) == 2,
        path,
        "complex numbers are [re, im] pairs",
    )
    re, im = value
    _expect(_is_number(re) and _is_number(im), path, "complex parts must be numbers")
    _expect(math.isfinite(re) and math.isfinite(im), path, "complex parts must be finite")
    return complex(re, im)


def _positive_number(value) -> bool:
    return _is_number(value) and math.isfinite(value) and value > 0


def _vector_in(value, n: int, path: str) -> np.ndarray:
    _expect(isinstance(value, list), path, "expected a list")
    _expect(len(value) == n, path, f"expected {n} entries, got {len(value)}")
    return np.array([_complex_in(v, f"{path}[{k}]") for k, v in enumerate(value)])


def _matrix_in(value, shape: tuple[int, int], path: str) -> np.ndarray:
    _expect(isinstance(value, list), path, "expected a list of rows")
    _expect(len(value) == shape[0], path, f"expected {shape[0]} rows, got {len(value)}")
    return np.stack(
        [_vector_in(row, shape[1], f"{path}[{i}]") for i, row in enumerate(value)]
    )


def complex_out(a) -> list:
    """A complex scalar, vector or matrix as nested lists ending in [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _dims_in(doc: dict) -> HilbertDims:
    raw = _get(doc, "dims", "")
    _expect(
        isinstance(raw, list) and len(raw) == 2,
        "dims",
        "expected [n1, n2]",
    )
    _expect(
        all(isinstance(x, int) and x >= 2 for x in raw),
        "dims",
        "factor dimensions must be integers >= 2",
    )
    return HilbertDims(*raw)


def load_trajectory(path):
    """Read a trajectory document from `path` (or its bytes, or a pre-parsed dict)."""
    doc = _read_json(path)
    dims = _dims_in(doc)
    form = _get(doc, "form", "")
    if form == "trig":
        return _trig_in(_get(doc, "trig", ""), dims)
    if form == "hamiltonian":
        return _hamiltonian_in(_get(doc, "hamiltonian", ""), dims)
    if form == "samples":
        return _samples_in(_get(doc, "samples", ""), dims)
    raise ParseError("form", f"unknown form {form!r}; expected trig|hamiltonian|samples")


def _trig_in(node, dims: HilbertDims) -> TrigTrajectory:
    constant = _vector_in(_get(node, "constant", "trig"), dims.n, "trig.constant")
    raw_harm = _get(node, "harmonics", "trig")
    _expect(isinstance(raw_harm, list), "trig.harmonics", "expected a list")
    harmonics = []
    for k, h in enumerate(raw_harm):
        base = f"trig.harmonics[{k}]"
        freq = _get(h, "freq", base)
        # not isinstance: JSON true parses to True, which is an int
        _expect(type(freq) is int and freq >= 1, f"{base}.freq", "expected a positive integer")
        harmonics.append(
            Harmonic(
                frequency=freq,
                cos_coeffs=_vector_in(_get(h, "cos", base), dims.n, f"{base}.cos"),
                sin_coeffs=_vector_in(_get(h, "sin", base), dims.n, f"{base}.sin"),
            )
        )
    t_max = _get(node, "t_max", "trig")
    _expect(_positive_number(t_max), "trig.t_max", "expected a finite positive number")
    return TrigTrajectory(dims, constant, tuple(harmonics), float(t_max))


def _hamiltonian_in(node, dims: HilbertDims) -> HamiltonianTrajectory:
    matrix = _matrix_in(_get(node, "matrix", "hamiltonian"), (dims.n, dims.n), "hamiltonian.matrix")
    initial = _vector_in(_get(node, "initial", "hamiltonian"), dims.n, "hamiltonian.initial")
    t_max = _get(node, "t_max", "hamiltonian")
    _expect(_positive_number(t_max), "hamiltonian.t_max", "expected a finite positive number")
    return HamiltonianTrajectory(dims, matrix, StateVector.normalized(initial, dims), float(t_max))


def _samples_in(node, dims: HilbertDims) -> SampledTrajectory:
    times = _get(node, "times", "samples")
    _expect(isinstance(times, list) and len(times) >= 2, "samples.times", "expected >= 2 times")
    _expect(
        all(_is_number(t) and math.isfinite(t) for t in times),
        "samples.times",
        "times must be finite numbers",
    )
    states_raw = _get(node, "states", "samples")
    _expect(
        isinstance(states_raw, list) and len(states_raw) == len(times),
        "samples.states",
        "one state per time required",
    )
    states = np.stack(
        [_vector_in(s, dims.n, f"samples.states[{k}]") for k, s in enumerate(states_raw)]
    )
    return SampledTrajectory(dims, np.asarray(times, dtype=float), states)


def dump_trajectory(traj) -> dict:
    if isinstance(traj, TrigTrajectory):
        form, payload = "trig", {
            "constant": complex_out(traj.constant),
            "harmonics": [
                {"freq": h.frequency, "cos": complex_out(h.cos_coeffs),
                 "sin": complex_out(h.sin_coeffs)}
                for h in traj.harmonics
            ],
            "t_max": traj.t_max,
        }
    elif isinstance(traj, HamiltonianTrajectory):
        form, payload = "hamiltonian", {
            "matrix": complex_out(traj.hamiltonian),
            "initial": complex_out(traj.initial.amplitudes),
            "t_max": traj.t_max,
        }
    elif isinstance(traj, SampledTrajectory):
        payload = {"times": traj.times.tolist(), "states": complex_out(traj.states)}
        form = "samples"
    else:
        raise TypeError(f"not a trajectory: {type(traj)!r}")
    return {"dims": [traj.dims.n1, traj.dims.n2], "form": form, form: payload}


def save_trajectory(traj, path) -> None:
    Path(path).write_text(json.dumps(dump_trajectory(traj), indent=1))


def load_matrix_document(path) -> tuple[np.ndarray, HilbertDims]:
    """Read an operator or TPS document: {"dims": [n1, n2], "matrix": rows}."""
    doc = _read_json(path)
    dims = _dims_in(doc)
    matrix = _matrix_in(_get(doc, "matrix", ""), (dims.n, dims.n), "matrix")
    return matrix, dims


def save_matrix_document(matrix, dims: HilbertDims, path) -> None:
    doc = {"dims": [dims.n1, dims.n2], "matrix": complex_out(matrix)}
    Path(path).write_text(json.dumps(doc, indent=1))


def load_tps(path) -> TPSpec:
    matrix, dims = load_matrix_document(path)
    return TPSpec(matrix, dims)


def profile_to_csv(profile: EntanglementProfile) -> str:
    lines = [",".join(PROFILE_COLUMNS)]
    columns = (profile.times, profile.entropy, profile.product_distance)
    for t, s, d in zip(*(c.tolist() for c in columns)):
        lines.append(f"{t!r},{s!r},{d!r}")
    return "\n".join(lines) + "\n"


def _read_json(path):
    if isinstance(path, dict):
        return path
    try:
        doc = json.loads(path if isinstance(path, bytes) else Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise ParseError("<document>", f"invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "<document>", "top level must be an object")
    return doc

"""Checks of tpslab's reports against bench_math, independent of tpslab.

Each check takes the generated input's parameters and the text the command
wrote, and returns a list of problems: empty means the output is correct.
A check never raises on a bad report, so one wrong job counts as a failure
instead of ending the run.
"""

from __future__ import annotations

import json

import numpy as np

import bench_math as bm

# the seed's sqrt(2 - 2 sigma_1) loses digits near product states (about
# 3e-8); any reported distance must agree with the exact form within this
ROUNDING = 1e-7
UNITARY_TOL = 1e-10


def _complex(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _results(text: str) -> dict:
    return json.loads(text)["results"]


def _guard(check):
    """Turn any exception raised while reading a malformed report into a problem."""

    def guarded(*args, **kwargs) -> list[str]:
        try:
            return check(*args, **kwargs)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"{check.__name__}: unreadable report ({type(exc).__name__}: {exc})"]

    guarded.__name__ = check.__name__
    return guarded


@_guard
def check_optimize(spec: dict, text: str, samples: int, below: float | None, above: float | None):
    """Objective recomputed from the returned basis change, plus the gate."""
    r = _results(text)
    u = _complex(r["basis_change"])
    problems = []
    if bm.unitarity_error(u) > UNITARY_TOL:
        problems.append(f"basis_change is not unitary ({bm.unitarity_error(u):.2e})")
    states = bm.trig_states(spec, bm.grid(spec, samples))
    exact = float(bm.product_distance(bm.schmidt(states, spec["dims"], u)).max())
    reported = float(r["objective"])
    if abs(reported - exact) > ROUNDING:
        problems.append(f"objective {reported:.3e} but the basis change gives {exact:.3e}")
    if below is not None and not reported < below:
        problems.append(f"objective {reported:.3e} is not below {below:g}")
    if above is not None and not reported > above:
        problems.append(f"objective {reported:.3e} is not above {above:g}")
    return problems


def _profile_problems(spec, u, samples, times, entropy, distance) -> list[str]:
    sigma = bm.schmidt(bm.trig_states(spec, bm.grid(spec, samples)), spec["dims"], u)
    problems = []
    if len(times) != samples or np.abs(np.asarray(times) - bm.grid(spec, samples)).max() > 1e-12:
        problems.append("profile times are not the requested grid")
        return problems
    d_err = np.abs(np.asarray(distance) - bm.product_distance(sigma)).max()
    e_err = np.abs(np.asarray(entropy) - bm.entropy(sigma)).max()
    if d_err > ROUNDING:
        problems.append(f"product distance off by {d_err:.2e}")
    if e_err > ROUNDING:
        problems.append(f"entropy off by {e_err:.2e}")
    return problems


@_guard
def check_profile_json(spec: dict, text: str, samples: int, u=None):
    r = _results(text)
    problems = _profile_problems(spec, u, samples, r["times"], r["entropy"], r["product_distance"])
    if r["max_distance"] != max(r["product_distance"]) or r["max_entropy"] != max(r["entropy"]):
        problems.append("max_distance / max_entropy disagree with the profile")
    return problems


@_guard
def check_profile_csv(spec: dict, text: str, samples: int, u=None):
    lines = text.strip().split("\n")
    if lines[0] != "t,entropy,product_distance":
        return [f"CSV header is {lines[0]!r}"]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if rows.shape != (samples, 3):
        return [f"CSV has shape {rows.shape}, expected ({samples}, 3)"]
    return _profile_problems(spec, u, samples, rows[:, 0], rows[:, 1], rows[:, 2])


@_guard
def check_certify(text: str, verdict: str, rank: int, full: int):
    r = _results(text)
    got = (r["verdict"], r["numerical_rank"], r["full_rank"])
    if got != (verdict, rank, full):
        return [f"certificate {got[0]} {got[1]}/{got[2]}, expected {verdict} {rank}/{full}"]
    return []


@_guard
def check_construct(spec: dict, text: str, tol: float, samples: int = 1000):
    r = _results(text)
    if r["status"] != "found":
        return [f"construct status {r['status']!r}: {r.get('message')}"]
    u = _complex(r["basis_change"])
    if bm.unitarity_error(u) > UNITARY_TOL:
        return [f"basis_change is not unitary ({bm.unitarity_error(u):.2e})"]
    sigma2 = float(bm.schmidt(bm.trig_states(spec, bm.grid(spec, samples)), spec["dims"], u)[:, 1].max())
    if not sigma2 < tol:
        return [f"constructed basis leaves max sigma_2 = {sigma2:.2e} >= {tol:g}"]
    return []


@_guard
def check_hamiltonian(h: np.ndarray, dims, text: str):
    r = _results(text)
    h1, h2, trace_part, x = bm.separable_parts(h, dims)
    scale = np.linalg.norm(h)
    problems = []
    for name, want, got in (
        ("h1", h1, _complex(r["h1"])),
        ("h2", h2, _complex(r["h2"])),
        ("trace_part", trace_part, r["trace_part"]),
        ("interaction_norm", np.linalg.norm(x), r["interaction_norm"]),
    ):
        if np.abs(np.asarray(got) - want).max() > 1e-12 * scale:
            problems.append(f"{name} differs from the projection")
    # central differences with step 1e-5 carry O(1e-10) relative error
    exact = bm.stationarity(h, dims)
    got = float(r["stationarity_gradient"])
    if abs(got - exact) > 1e-6 + 1e-6 * exact:
        problems.append(f"stationarity {got:.6g} but 2||[H, X]|| = {exact:.6g}")
    return problems

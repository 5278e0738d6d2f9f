"""Time-evolving states |psi(t)> on [0, T] and their representations.

Three forms are supported:

* `TrigTrajectory` -- closed-form components alpha + beta*cos(f t) + gamma*sin(f t)
  summed over integer frequencies f;
* `HamiltonianTrajectory` -- exact evolution exp(+i H t) |psi(0)>.  Note the
  **plus** sign in the exponent: this package follows the convention
  exp(+iHt), not the more common physics convention exp(-iHt); negate the
  Hamiltonian if your data uses the other sign;
* `SampledTrajectory` -- a discrete surrogate: states tabulated on an
  increasing time grid.

Frequency-1 trigonometric components can be rewritten as e^{-it} P(e^{it})
for a quadratic polynomial P; `trig_to_polynomials` performs that rewriting
after a basis change.  This polynomial form is the pivot of the closed-form
disentangler in `tpslab.construct`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HilbertDims, StateVector, TPSpec, require_hermitian
from .errors import (
    DimensionMismatch,
    NotNormalizable,
    UnsupportedForm,
)
from .linalg import frozen_complex

SPHERE_TOL = 1e-9


@dataclass(frozen=True)
class Harmonic:
    """One integer frequency with its cosine and sine coefficient vectors."""

    frequency: int
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        if self.frequency < 1:
            raise ValueError("harmonic frequency must be a positive integer")
        object.__setattr__(self, "cos_coeffs", frozen_complex(self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", frozen_complex(self.sin_coeffs))


@dataclass(frozen=True)
class TrigTrajectory:
    """Closed-form trigonometric trajectory on [0, t_max]."""

    dims: HilbertDims
    constant: np.ndarray
    harmonics: tuple[Harmonic, ...]
    t_max: float

    def __post_init__(self):
        n = self.dims.n
        object.__setattr__(self, "constant", frozen_complex(self.constant, (n,)))
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        for h in self.harmonics:
            if h.cos_coeffs.shape != (n,) or h.sin_coeffs.shape != (n,):
                raise DimensionMismatch("harmonic coefficient length != dims.n")
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")

    def evaluate(self, times) -> np.ndarray:
        """Raw (un-renormalized) component values; shape (len(times), n)."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.tile(self.constant, (t.size, 1))
        for h in self.harmonics:
            out += np.cos(h.frequency * t)[:, None] * h.cos_coeffs
            out += np.sin(h.frequency * t)[:, None] * h.sin_coeffs
        return out


@dataclass(frozen=True)
class HamiltonianTrajectory:
    """Trajectory generated by exp(+i H t) applied to an initial state."""

    dims: HilbertDims
    hamiltonian: np.ndarray
    initial: StateVector
    t_max: float

    def __post_init__(self):
        n = self.dims.n
        h = frozen_complex(self.hamiltonian, (n, n))
        require_hermitian(h)
        if self.initial.dims != self.dims:
            raise DimensionMismatch("initial state dims differ from trajectory dims")
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")
        object.__setattr__(self, "hamiltonian", h)


@dataclass(frozen=True)
class SampledTrajectory:
    """States tabulated on a strictly increasing grid in [0, T]."""

    dims: HilbertDims
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n), rows normalized

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        s = np.array(self.states, dtype=complex)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        if s.shape != (t.size, self.dims.n):
            raise DimensionMismatch(
                f"states have shape {s.shape}, expected ({t.size}, {self.dims.n})"
            )
        norms = np.linalg.norm(s, axis=1)
        if not np.abs(norms - 1.0).max() <= SPHERE_TOL:
            raise NotNormalizable(
                f"sampled state leaves the unit sphere by {np.abs(norms - 1.0).max():.3e}"
            )
        s /= norms[:, None]
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return self.times.size

    def state(self, k: int) -> StateVector:
        return StateVector(self.states[k], self.dims)


def sample_trig(traj: TrigTrajectory, num_samples: int) -> SampledTrajectory:
    """Evaluate a trigonometric trajectory on a uniform, endpoint-inclusive grid.

    Each sample must lie within 1e-9 of the unit sphere (it is then snapped
    back exactly); otherwise `NotNormalizable` is raised, since off-sphere
    component functions mean the input is not a trajectory at all.
    """
    if num_samples < 2:
        raise ValueError("num_samples must be at least 2")
    times = np.linspace(0.0, traj.t_max, num_samples)
    return SampledTrajectory(traj.dims, times, traj.evaluate(times))


def evolve_under_hamiltonian(
    traj: HamiltonianTrajectory, num_samples: int
) -> SampledTrajectory:
    """Sample exp(+i H t) |initial> on a uniform grid via eigendecomposition.

    The matrix exponential is computed spectrally, which is exact for
    Hermitian generators and preserves norms to near machine precision.
    """
    if num_samples < 2:
        raise ValueError("num_samples must be at least 2")
    times = np.linspace(0.0, traj.t_max, num_samples)
    energies, vecs = np.linalg.eigh(traj.hamiltonian)
    weights = vecs.conj().T @ traj.initial.amplitudes
    phases = np.exp(1j * np.outer(times, energies))
    states = (phases * weights) @ vecs.T
    return SampledTrajectory(traj.dims, times, states)


@dataclass(frozen=True)
class PolynomialSystem:
    """Quadratic polynomials P_i with e^{-it} P_i(e^{it}) equal to the
    trajectory components after a basis change.

    `coeffs[i]` holds [c2, c1, c0] for P_i = c2 X^2 + c1 X + c0.
    """

    coeffs: np.ndarray  # shape (n, 3)
    dims: HilbertDims

    def __post_init__(self):
        object.__setattr__(self, "coeffs", frozen_complex(self.coeffs, (self.dims.n, 3)))

    def evaluate_components(self, times) -> np.ndarray:
        """e^{-it} P_i(e^{it}) for each component; shape (len(times), n)."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        z = np.exp(1j * t)[:, None]
        c = np.asarray(self.coeffs)
        return np.exp(-1j * t)[:, None] * (c[:, 0] * z * z + c[:, 1] * z + c[:, 2])


def trig_to_polynomials(traj: TrigTrajectory, tps: TPSpec) -> PolynomialSystem:
    """Rewrite each rebased component alpha + beta cos t + gamma sin t as
    e^{-it} P(e^{it}) with P = (beta - i gamma)/2 X^2 + alpha X + (beta + i gamma)/2."""
    if traj.dims != HilbertDims(2, 2):
        raise UnsupportedForm("polynomial form is implemented for 2x2 bipartitions")
    if tps.dims != traj.dims:
        raise DimensionMismatch("TPS and trajectory dimensions differ")
    _require_single_frequency(traj)
    u, h = tps.basis_change, traj.harmonics[0]
    alpha, beta, gamma = u @ traj.constant, u @ h.cos_coeffs, u @ h.sin_coeffs
    coeffs = np.stack([(beta - 1j * gamma) / 2, alpha, (beta + 1j * gamma) / 2], axis=1)
    return PolynomialSystem(coeffs, traj.dims)


def _require_single_frequency(traj: TrigTrajectory) -> None:
    if len(traj.harmonics) != 1 or traj.harmonics[0].frequency != 1:
        raise UnsupportedForm(
            "this operation needs a single frequency-1 harmonic; got frequencies "
            f"{[h.frequency for h in traj.harmonics]}"
        )

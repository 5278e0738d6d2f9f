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

Both closed forms are exponential sums psi(t) = sum_w e^{iwt} a_w, and their
`exponentials()` method returns that form as (frequencies w, rows a_w).  A
trigonometric trajectory has w = 0 with a_0 = alpha and w = +-f with
a_{+-f} = (beta -+ i gamma)/2; a Hamiltonian trajectory has the energies E_k
of one eigendecomposition H = sum_k E_k |v_k><v_k| with a_k = <v_k|psi(0)> v_k.
`sample` is the one place a closed form becomes samples, on a uniform,
endpoint-inclusive grid; `certify_no_disentangling` and `optimize_tps` call it
themselves.  A trigonometric trajectory builds its sum once, as read-only
arrays, and is checked for the unit sphere at every t when it is built, from
the exponential sum of |psi(t)|^2; the other forms are checked sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import HilbertDims, StateVector, require_hermitian
from .errors import DimensionMismatch, InvalidInput, NotNormalizable
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
            raise InvalidInput("harmonic frequency must be a positive integer")
        object.__setattr__(self, "cos_coeffs", frozen_complex(self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", frozen_complex(self.sin_coeffs))


@dataclass(frozen=True)
class TrigTrajectory:
    """Closed-form trigonometric trajectory on [0, t_max]."""

    dims: HilbertDims
    constant: np.ndarray
    harmonics: tuple[Harmonic, ...]
    t_max: float
    _exponentials: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.dims.n
        object.__setattr__(self, "constant", frozen_complex(self.constant, (n,)))
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        for h in self.harmonics:
            if h.cos_coeffs.shape != (n,) or h.sin_coeffs.shape != (n,):
                raise DimensionMismatch("harmonic coefficient length != dims.n")
        if not 0 < self.t_max < np.inf:
            raise InvalidInput("t_max must be finite and positive")
        freqs, rows = [0.0], [self.constant]
        for h in self.harmonics:
            freqs += [h.frequency, -h.frequency]
            rows += [(h.cos_coeffs - 1j * h.sin_coeffs) / 2, (h.cos_coeffs + 1j * h.sin_coeffs) / 2]
        freqs, rows = np.array(freqs), frozen_complex(np.stack(rows))
        freqs.setflags(write=False)
        object.__setattr__(self, "_exponentials", (freqs, rows))
        # |psi(t)|^2 = sum_D c_D e^{iDt} over the integer differences D = w - w', and
        # sum_D |c_D - [D = 0]| bounds ||psi(t)|^2 - 1| at every t
        diffs, group = np.unique(np.subtract.outer(freqs, freqs), return_inverse=True)
        coeffs = np.zeros(len(diffs), dtype=complex)
        np.add.at(coeffs, group.ravel(), (rows @ rows.conj().T).ravel())
        deviation = np.abs(coeffs - (diffs == 0)).sum()
        if not deviation <= 2 * SPHERE_TOL:
            raise NotNormalizable(
                f"trigonometric trajectory leaves the unit sphere: the Fourier coefficients of "
                f"|psi(t)|^2 - 1 sum in modulus to {deviation:.3e} > {2 * SPHERE_TOL:.0e}"
            )

    def exponentials(self) -> tuple[np.ndarray, np.ndarray]:
        """Frequencies (0, f1, -f1, f2, -f2, ...) and the rows a_w, shape (len(w), n),
        built once at construction and read-only."""
        return self._exponentials


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
        if not 0 < self.t_max < np.inf:
            raise InvalidInput("t_max must be finite and positive")
        object.__setattr__(self, "hamiltonian", h)

    def exponentials(self) -> tuple[np.ndarray, np.ndarray]:
        """Energies E_k and the rows a_k = <v_k|psi(0)> v_k, shape (n, n)."""
        energies, vecs = np.linalg.eigh(self.hamiltonian)
        weights = vecs.conj().T @ self.initial.amplitudes
        return energies, weights[:, None] * vecs.T


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
            raise InvalidInput("need at least two samples")
        if not np.all(np.diff(t) > 0):
            raise InvalidInput("sample times must be strictly increasing")
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


def sample(traj, num_samples: int) -> SampledTrajectory:
    """Evaluate a closed-form trajectory on a uniform, endpoint-inclusive grid
    of `num_samples` times; a `SampledTrajectory` is returned as it is.

    The samples cannot fail `SampledTrajectory`'s sphere check: a trig input
    was checked exactly at construction, and Hamiltonian evolution is unitary.
    """
    if isinstance(traj, SampledTrajectory):
        return traj
    if num_samples < 2:
        raise InvalidInput("num_samples must be at least 2")
    times = np.linspace(0.0, traj.t_max, num_samples)
    freqs, rows = traj.exponentials()
    return SampledTrajectory(traj.dims, times, np.exp(1j * np.outer(times, freqs)) @ rows)

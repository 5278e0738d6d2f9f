"""Core Hilbert-space objects: bipartite dimensions, states, and tensor
product structures (TPS).

A TPS is stored as a single representative: the unitary basis change U that
maps the reference basis to the basis defining the factorization.  Two
representatives describe the same TPS exactly when they differ by a local
unitary V1 (x) V2, which is what `tps_equivalent` tests.

Index convention: the basis label |i j> (i on the first factor, j on the
second) sits at flat index i * n2 + j, i.e. row-major reshaping throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotUnitary
from .linalg import frozen_complex, reshuffle

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
STATE_NORM_TOL = 1e-12
LOCAL_PRODUCT_TOL = 1e-8


@dataclass(frozen=True)
class HilbertDims:
    """Bipartition of an n = n1 * n2 dimensional Hilbert space."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("both factor dimensions must be at least 2")

    @property
    def n(self) -> int:
        return self.n1 * self.n2


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on the bipartitioned space."""

    amplitudes: np.ndarray
    dims: HilbertDims

    def __post_init__(self):
        amps = frozen_complex(self.amplitudes)
        if amps.shape != (self.dims.n,):
            raise DimensionMismatch(
                f"state has {amps.shape} amplitudes, dims require ({self.dims.n},)"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= STATE_NORM_TOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {STATE_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def normalized(amplitudes, dims: HilbertDims) -> "StateVector":
        """Build a state, rescaling the given amplitudes to unit norm."""
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(amps / norm, dims)


@dataclass(frozen=True)
class TPSpec:
    """Representative of a tensor product structure: a unitary change of
    basis from the reference basis to the basis defining the TPS."""

    basis_change: np.ndarray
    dims: HilbertDims

    def __post_init__(self):
        u = frozen_complex(self.basis_change)
        n = self.dims.n
        if u.shape != (n, n):
            raise DimensionMismatch(f"basis change is {u.shape}, expected ({n}, {n})")
        require_unitary(u)
        object.__setattr__(self, "basis_change", u)

    @staticmethod
    def identity(dims: HilbertDims) -> "TPSpec":
        return TPSpec(np.eye(dims.n, dtype=complex), dims)


def require_unitary(u: np.ndarray) -> None:
    """Raise NotUnitary if the square matrix u is not unitary to UNITARITY_TOL
    (NaN and inf entries fail too)."""
    dev = np.abs(u.conj().T @ u - np.eye(len(u))).max()
    if not dev <= UNITARITY_TOL:
        raise NotUnitary(f"unitarity deviation {dev:.3e} exceeds {UNITARITY_TOL}")


def require_hermitian(h: np.ndarray) -> None:
    """Raise NotHermitian if the square matrix h is not Hermitian to HERMITICITY_TOL
    (NaN and inf entries fail too)."""
    dev = np.abs(h - h.conj().T).max()
    if not dev <= HERMITICITY_TOL:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds {HERMITICITY_TOL}")


def reshape_coefficients(psi: StateVector) -> np.ndarray:
    """The n1 x n2 coefficient matrix M, M[i, j] the amplitude of |i j>: a
    read-only row-major view of the amplitudes."""
    return psi.amplitudes.reshape(psi.dims.n1, psi.dims.n2)


def rebase_state(tps: TPSpec, psi: StateVector) -> StateVector:
    """Coordinates of `psi` in the basis defining `tps` (i.e. U @ psi)."""
    if tps.dims != psi.dims:
        raise DimensionMismatch("TPS and state dimensions differ")
    out = tps.basis_change @ psi.amplitudes
    # U is unitary to 1e-10 only, so renormalize away the residual drift
    return StateVector.normalized(out, psi.dims)


def operator_schmidt_values(v: np.ndarray, dims: HilbertDims) -> np.ndarray:
    """Singular values of the reshuffled operator (or of each operator in a
    stack), non-increasing."""
    return np.linalg.svd(reshuffle(v, dims.n1, dims.n2), compute_uv=False)


def _is_product(v: np.ndarray, dims: HilbertDims, tol: float) -> bool:
    """Whether the unitary v is V1 (x) V2: the second singular value of the
    reshuffled n1^2 x n2^2 matrix is below `tol` times the first (a relative
    threshold, so the test survives overall scaling)."""
    sv = operator_schmidt_values(v, dims)
    return bool(sv[1] < tol * sv[0])


def is_local_product_unitary(
    v, dims: HilbertDims, tol: float = LOCAL_PRODUCT_TOL
) -> bool:
    """Test whether the unitary `v` factorizes as V1 (x) V2, by its
    operator-Schmidt rank (`_is_product`), after checking shape and unitarity."""
    v = np.asarray(v, dtype=complex)
    n = dims.n
    if v.shape != (n, n):
        raise DimensionMismatch(f"matrix is {v.shape}, dims require ({n}, {n})")
    require_unitary(v)
    return _is_product(v, dims, tol)


def tps_equivalent(t1: TPSpec, t2: TPSpec, tol: float = LOCAL_PRODUCT_TOL) -> bool:
    """Whether two representatives define the same TPS (differ by V1 (x) V2).
    Both were validated when built, so their product is tested as it is."""
    if t1.dims != t2.dims:
        raise DimensionMismatch("cannot compare TPSs on different bipartitions")
    return _is_product(t2.basis_change @ t1.basis_change.conj().T, t1.dims, tol)

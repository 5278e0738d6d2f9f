"""Separable structure of Hamiltonians under changes of TPS.

An operator is "separable" for a bipartition when it has the interaction-free
form H1 (x) 1 + 1 (x) H2 (plus a multiple of the identity).  This module
projects a Hermitian operator orthogonally (Frobenius sense) onto that
subspace, measures the interaction remainder, and probes whether a given
basis is a stationary point of the interaction norm under unitary changes of
basis.  Stationarity is necessary but not sufficient for minimality: the
eigenbasis of a Hamiltonian can be stationary while a different basis removes
the interaction entirely, which is exactly what the C-NOT example exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HilbertDims, TPSpec, require_hermitian
from .errors import DimensionMismatch


def _check_hermitian(h: np.ndarray, dims: HilbertDims) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.shape != (dims.n, dims.n):
        raise DimensionMismatch(f"operator is {h.shape}, dims require ({dims.n}, {dims.n})")
    require_hermitian(h)
    return h


def rebase_operator(tps: TPSpec, h) -> np.ndarray:
    """Operator in the basis defining the TPS: U H U^dag."""
    h = _check_hermitian(h, tps.dims)
    u = tps.basis_change
    out = u @ h @ u.conj().T
    return (out + out.conj().T) / 2


def partial_trace_second(h: np.ndarray, dims: HilbertDims) -> np.ndarray:
    """Trace out the second factor; result is n1 x n1."""
    return h.reshape(dims.n1, dims.n2, dims.n1, dims.n2).trace(axis1=1, axis2=3)


def partial_trace_first(h: np.ndarray, dims: HilbertDims) -> np.ndarray:
    """Trace out the first factor; result is n2 x n2."""
    return h.reshape(dims.n1, dims.n2, dims.n1, dims.n2).trace(axis1=0, axis2=2)


def _separable_sum(h1, h2, trace_part, dims: HilbertDims) -> np.ndarray:
    """h1 (x) 1 + 1 (x) h2 + trace_part * 1."""
    return np.kron(h1, np.eye(dims.n2)) + np.kron(np.eye(dims.n1), h2) + trace_part * np.eye(dims.n)


@dataclass(frozen=True)
class SeparableDecomposition:
    """H = h1 (x) 1 + 1 (x) h2 + trace_part * 1 + interaction.

    The split h1 (x) 1 + 1 (x) h2 is unique only up to shifting a multiple of
    the identity between the factors; the gauge is fixed by making h1 and h2
    traceless and collecting the scalar in `trace_part`.  The interaction
    remainder is Frobenius-orthogonal to the separable subspace.
    """

    h1: np.ndarray
    h2: np.ndarray
    trace_part: float
    interaction: np.ndarray
    interaction_norm: float
    dims: HilbertDims

    def separable_part(self) -> np.ndarray:
        return _separable_sum(self.h1, self.h2, self.trace_part, self.dims)


def separable_projection(h, dims: HilbertDims) -> SeparableDecomposition:
    """Orthogonal projection onto span{A (x) 1, 1 (x) B, 1}.

    Closed form: Pi(H) = ptr_2(H) (x) 1 / n2 + 1 (x) ptr_1(H) / n1
    - (tr H / n) * 1, from which the traceless gauge parts are extracted.
    """
    h = _check_hermitian(h, dims)
    tr = np.trace(h).real
    h1 = partial_trace_second(h, dims) / dims.n2 - (tr / dims.n) * np.eye(dims.n1)
    h1 = (h1 + h1.conj().T) / 2
    h2 = partial_trace_first(h, dims) / dims.n1 - (tr / dims.n) * np.eye(dims.n2)
    h2 = (h2 + h2.conj().T) / 2
    trace_part = float(tr / dims.n)
    interaction = h - _separable_sum(h1, h2, trace_part, dims)
    return SeparableDecomposition(
        h1=h1,
        h2=h2,
        trace_part=trace_part,
        interaction=interaction,
        interaction_norm=float(np.linalg.norm(interaction)),
        dims=dims,
    )


def interaction_norm(h, dims: HilbertDims) -> float:
    """Frobenius distance from H to the separable subspace."""
    return separable_projection(h, dims).interaction_norm


def stationarity_gradient(h, dims: HilbertDims) -> float:
    """Norm of the first-order variation of the squared interaction norm.

    With X the interaction remainder, f(V) = interaction_norm(V H V^dag)^2
    varies along V = exp(sA) as 2 Re<X, [A, H]> = -2 Re<A, [H, X]> (the
    projection is self-adjoint and idempotent), and [H, X] is anti-Hermitian,
    so the gradient over the unitary tangent space has norm 2 ||[H, X]||_F.
    A near-zero value means a stationary basis -- not necessarily a minimum.
    """
    h = _check_hermitian(h, dims)
    x = separable_projection(h, dims).interaction
    return float(2.0 * np.linalg.norm(h @ x - x @ h))

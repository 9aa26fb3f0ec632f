"""Dense complex linear algebra and two-qubit state primitives.

Conventions shared by the whole package:

* Qubit A is the left tensor factor, so the computational basis is ordered
  ``|00>, |01>, |10>, |11>`` and subsystem-addressed operations take
  ``"a"`` or ``"b"``.
* Entropies and relative entropies are in bits (base-2 logarithms), which
  puts separable two-qubit states at 0 and Bell states at 1.
* Eigenvalues below ``ZERO_CUTOFF`` count as exact zeros inside logarithms;
  eigenvalue dust in ``(-PSD_TOL, 0)`` is clamped to zero on construction.
* Hermitian matrices are symmetrized as ``(M + M†)/2`` before any
  eigendecomposition to suppress roundoff drift.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY_2",
    "IDENTITY_4",
    "PAULI",
    "PAULI_PRODUCTS",
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "ZERO_CUTOFF",
    "EigendecompositionError",
    "Spectrum",
    "kron",
    "herm_eig",
    "density_matrix",
    "partial_transpose",
    "partial_trace",
    "von_neumann_entropy",
    "relative_entropy",
    "apply_local_unitary",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# PAULI_PRODUCTS[u, v] = sigma_u ⊗ sigma_v for u, v in (I, x, y, z).
_BASIS = (IDENTITY_2, *PAULI)
PAULI_PRODUCTS = np.stack([[np.kron(u, v) for v in _BASIS] for u in _BASIS])

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
ZERO_CUTOFF = 1e-12
# Roundoff allowed below zero in a relative entropy, in bits.  S(rho||rho)
# reads at worst -2.4e-15 over the 5000 states of master seeds 1-4 and 15
# and 800 random states of ranks 1-4, and the REE of werner(1/3 + d),
# d = 1e-8..1e-5, reads at least +9.0e-11: 1e-12 leaves a 400x margin.
_DIVERGENCE_ROUNDOFF = 1e-12


class EigendecompositionError(ValueError):
    """Eigensolver failure; carries the offending matrix for diagnostics."""

    def __init__(
        self, matrix: np.ndarray, message: str = "Hermitian eigendecomposition did not converge"
    ):
        self.matrix = matrix
        super().__init__(message)

    def __reduce__(self):
        # Keep the matrix and message when a worker process sends it back.
        return type(self), (self.matrix, str(self))


class Spectrum(NamedTuple):
    """Eigenvalues in descending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with both factors coerced to complex."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def herm_eig(matrix: np.ndarray) -> Spectrum:
    """Full spectrum of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized before decomposition, so callers may pass
    matrices that are Hermitian only up to roundoff.
    """
    m = np.asarray(matrix, dtype=complex)
    m = 0.5 * (m + m.conj().T)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(m) from exc
    return Spectrum(vals[::-1].astype(float), vecs[:, ::-1])


def density_matrix(matrix: np.ndarray) -> np.ndarray:
    """Validate a density matrix and return its canonicalized copy.

    Checks Hermiticity and unit trace within 1e-10 and positive
    semidefiniteness within -1e-10.  Eigenvalues in ``(-1e-10, 0)`` are
    clamped to zero and the result is renormalized to unit trace, so the
    output is PSD exactly up to the eigensolver's own roundoff.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("density matrix entries must be finite")
    if float(np.max(np.abs(m - m.conj().T))) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within 1e-10")
    trace = float(m.trace().real)
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {trace!r} is not 1 within 1e-10")
    spec = herm_eig(m)
    lowest = float(spec.eigenvalues[-1])
    if lowest < -PSD_TOL:
        raise ValueError(f"density matrix has eigenvalue {lowest!r} below -1e-10")
    if lowest < 0.0:
        vals = np.clip(spec.eigenvalues, 0.0, None)
        vals = vals / vals.sum()
        m = (spec.eigenvectors * vals) @ spec.eigenvectors.conj().T
    m = 0.5 * (m + m.conj().T)
    return m


def _reshape_two_qubit(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit matrix, got shape {rho.shape}")
    return rho.reshape(2, 2, 2, 2)


def _subsystem_index(subsystem) -> int:
    if subsystem in ("a", "A", 0):
        return 0
    if subsystem in ("b", "B", 1):
        return 1
    raise ValueError(f"subsystem must be 'a' or 'b', got {subsystem!r}")


def partial_transpose(rho: np.ndarray, subsystem="b") -> np.ndarray:
    """Transpose one qubit's indices; Hermiticity and trace are preserved."""
    r = _reshape_two_qubit(rho)
    if _subsystem_index(subsystem) == 1:
        r = r.transpose(0, 3, 2, 1)
    else:
        r = r.transpose(2, 1, 0, 3)
    return r.reshape(4, 4)


def partial_trace(rho: np.ndarray, keep="a") -> np.ndarray:
    """Reduced 2x2 state of the kept qubit."""
    r = _reshape_two_qubit(rho)
    if _subsystem_index(keep) == 0:
        return np.einsum("ijkj->ik", r)
    return np.einsum("ijil->jl", r)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Spectral entropy -sum p log2 p in bits, with 0 log 0 = 0."""
    vals = herm_eig(rho).eigenvalues
    vals = vals[vals > ZERO_CUTOFF]
    value = float(-np.sum(vals * np.log2(vals)))
    return max(0.0, value)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) in bits; ``math.inf`` when rho escapes sigma's support.

    The support test projects rho onto sigma's null eigenspace (eigenvalue
    cutoff 1e-12); any mass above the cutoff there makes the divergence
    infinite, signalled by the returned marker rather than an exception.
    A value below zero by no more than 1e-12 bits of roundoff reads 0; one
    further below (sigma is not a normalized state, say) raises
    ``ArithmeticError``, and so does a NaN or infinite entry in rho or
    sigma, which would otherwise pass through the comparisons as a NaN.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for name, m in (("rho", rho), ("sigma", sigma)):
        if not np.isfinite(m).all():
            raise ArithmeticError(f"relative entropy needs a finite {name}")
    p = np.clip(herm_eig(rho).eigenvalues, 0.0, None)
    sigma_spec = herm_eig(sigma)
    s = np.clip(sigma_spec.eigenvalues, 0.0, None)
    vecs = sigma_spec.eigenvectors
    weights = np.einsum("ji,jk,ki->i", vecs.conj(), rho, vecs).real
    weights = np.clip(weights, 0.0, None)
    null = s <= ZERO_CUTOFF
    if float(weights[null].sum()) > ZERO_CUTOFF:
        return math.inf
    live_p = p[p > ZERO_CUTOFF]
    value = float(np.sum(live_p * np.log2(live_p)))
    value -= float(np.sum(weights[~null] * np.log2(s[~null])))
    if value < -_DIVERGENCE_ROUNDOFF:
        raise ArithmeticError(
            f"relative entropy {value!r} bits lies below zero by more than"
            f" {_DIVERGENCE_ROUNDOFF:g} bits of roundoff"
        )
    return max(0.0, value)


def apply_local_unitary(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """(u_a ⊗ u_b) rho (u_a ⊗ u_b)† with both factors checked for unitarity."""
    u_a = np.asarray(u_a, dtype=complex)
    u_b = np.asarray(u_b, dtype=complex)
    for name, u in (("u_a", u_a), ("u_b", u_b)):
        if u.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2, got shape {u.shape}")
        if float(np.max(np.abs(u @ u.conj().T - IDENTITY_2))) > HERMITICITY_TOL:
            raise ValueError(f"{name} is not unitary within 1e-10")
    u = np.kron(u_a, u_b)
    out = u @ np.asarray(rho, dtype=complex) @ u.conj().T
    return 0.5 * (out + out.conj().T)

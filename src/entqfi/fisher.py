"""Collective spin operators and mean quantum Fisher information.

The QFI of a two-qubit state with spectrum ``p_i`` and eigenvectors ``|i>``
for a generator ``sum_a v_a S_a`` over the local spins
``S = (S^A_xyz, S^B_xyz)``, ``S^A_k = (sigma_k ⊗ I)/2``,
``S^B_k = (I ⊗ sigma_k)/2``, is ``v·G·v`` with the real symmetric 6x6 matrix

    G_ab = sum_{i != j} (p_i - p_j)^2 / (p_i + p_j)
           [ <i|S_a|j><j|S_b|i> + <i|S_b|j><j|S_a|i> ].

The collective spin ``J_n = sum_k n_k (S^A_k + S^B_k)`` takes ``v = (n, n)``,
so its 3x3 matrix is the fold ``C = G_AA + G_AB + G_BA + G_BB`` and the
direction-optimized mean QFI (per particle, N = 2) is ``lambda_max(C) / 2``.
Terms with ``p_i + p_j`` at or below ``states.ZERO_CUTOFF`` are skipped; their
numerators vanish as well and skipping avoids 0/0.

Mean QFI lands on the shot-noise level 1 for product pure states and on
the Heisenberg limit 2 for Bell states; separable states never exceed 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .states import PAULI_PRODUCTS, ZERO_CUTOFF, clip_roundoff, herm_eig

__all__ = [
    "SHOT_NOISE_LEVEL",
    "HEISENBERG_LIMIT",
    "LOCAL_SPINS",
    "J_OPERATORS",
    "QfiResult",
    "collective_spin",
    "spin_qfi_matrix",
    "c_matrix",
    "qfi_direction",
    "max_mean_qfi",
]

SHOT_NOISE_LEVEL = 1.0
HEISENBERG_LIMIT = 2.0

# Local spins S^A_x, S^A_y, S^A_z, S^B_x, S^B_y, S^B_z, shape (6, 4, 4).
LOCAL_SPINS = 0.5 * np.concatenate([PAULI_PRODUCTS[1:, 0], PAULI_PRODUCTS[0, 1:]])

# Cartesian collective spin components J_x, J_y, J_z, shape (3, 4, 4).
J_OPERATORS = LOCAL_SPINS[:3] + LOCAL_SPINS[3:]


class QfiResult(NamedTuple):
    mean_qfi: float
    optimal_direction: np.ndarray
    c_matrix: np.ndarray


def _unit_direction(direction) -> np.ndarray:
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"direction must have three components, got shape {n.shape}")
    if abs(float(n @ n) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector within 1e-12")
    return n


def collective_spin(direction) -> np.ndarray:
    """J_n for a unit direction; Hermitian and traceless."""
    n = _unit_direction(direction)
    return np.einsum("k,kij->ij", n, J_OPERATORS)


def pair_weights(eigenvalues: np.ndarray) -> np.ndarray:
    """The (p_i - p_j)^2 / (p_i + p_j) factor for every eigenvalue pair.

    Entries whose denominator is at most ``ZERO_CUTOFF`` are zeroed, which
    silently covers the skipped i = j diagonal as well.
    """
    p = np.asarray(eigenvalues, dtype=float)
    num = (p[:, None] - p[None, :]) ** 2
    den = p[:, None] + p[None, :]
    return np.divide(num, den, out=np.zeros_like(num), where=den > ZERO_CUTOFF)


def spin_qfi_matrix(rho: np.ndarray) -> np.ndarray:
    """The real symmetric 6x6 QFI matrix G over the local spins of rho."""
    spectrum = herm_eig(rho)
    basis = spectrum.eigenvectors
    weights = pair_weights(spectrum.eigenvalues)
    # Local spins rewritten in the eigenbasis of rho.
    s_eig = np.einsum("ai,kab,bj->kij", basis.conj(), LOCAL_SPINS, basis)
    g = 2.0 * np.real(np.einsum("ij,kij,lij->kl", weights, s_eig, s_eig.conj()))
    return 0.5 * (g + g.T)


def c_matrix(rho: np.ndarray) -> np.ndarray:
    """The real symmetric 3x3 QFI matrix of the collective spin."""
    g = spin_qfi_matrix(rho)
    # Cross blocks summed first so the fold stays exactly symmetric.
    return g[:3, :3] + g[3:, 3:] + (g[:3, 3:] + g[3:, :3])


def qfi_direction(rho: np.ndarray, direction) -> float:
    """Mean-QFI numerator along one direction, evaluated as the direct sum
    ``sum_{i != j} 2 (p_i - p_j)^2 / (p_i + p_j) |<i|J_n|j>|^2``."""
    j_n = collective_spin(direction)
    spectrum = herm_eig(rho)
    basis = spectrum.eigenvectors
    weights = pair_weights(spectrum.eigenvalues)
    elements = basis.conj().T @ j_n @ basis
    return float(np.sum(2.0 * weights * np.abs(elements) ** 2))


def max_mean_qfi(rho: np.ndarray) -> QfiResult:
    """Direction-optimized mean QFI: lambda_max(C)/2 with its eigenvector.

    The returned direction has its largest-magnitude component positive
    (first index wins ties), purely for reproducibility; only the value
    feeds downstream comparisons.
    """
    c = c_matrix(rho)
    spectrum = herm_eig(c)
    top = clip_roundoff(spectrum.eigenvalues[0], 0.0, np.inf, "mean-QFI numerator")
    direction = np.real(spectrum.eigenvectors[:, 0])
    direction = direction / np.linalg.norm(direction)
    anchor = int(np.argmax(np.abs(direction)))
    if direction[anchor] < 0.0:
        direction = -direction
    return QfiResult(top / 2.0, direction, c)

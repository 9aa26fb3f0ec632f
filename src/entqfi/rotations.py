"""Local Euler rotations and the six-angle mean-QFI grid search.

Each qubit gets an x-z-x Euler rotation ``U(a, b, g) = U_x(a) U_z(b) U_x(g)``
with ``U_j(t) = exp(-i t sigma_j / 2)``.  The search covers the
direction-optimized mean QFI of ``(U_A ⊗ U_B) rho (U_A ⊗ U_B)†`` on the full
six-dimensional angle grid ``{0, step, ..., 2pi - step}`` and records the
global maximum and minimum.

Rotated states are never built.  Rotating a qubit counter-rotates its spins
through the adjoint matrix ``M = R_x(a) R_z(b) R_x(g)`` of right-handed SO(3)
rotations, ``U† sigma_k U = sum_l M[k, l] sigma_l``, so with G from
``fisher.spin_qfi_matrix`` the QFI along n is ``v·G·v``, ``v = (M_Aᵀ n, M_Bᵀ n)``.
Taking ``M_Aᵀ n`` as the direction shows that the optimized value depends only
on ``R = M_Aᵀ M_B``: it is ``lambda_max(A G Aᵀ) / 2`` with ``A = [I | R]``.

A state-independent table per divisor lists the distinct R on the k^6 grid
(4 for k = 2, 24 for k = 4, 372 for k = 6) in the order of the first flat
grid index reaching each, and a pass is one batched 3x3 eigensolve over
them.  All points of a class share its value exactly, so the first class
attaining an extreme is the lexicographically first grid point attaining it.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .fisher import spin_qfi_matrix
from .states import IDENTITY_2, PAULI, clip_roundoff, eigvalsh, lapack_guard

__all__ = [
    "DEFAULT_BASE_DIVISOR",
    "DEFAULT_REFINE_DIVISOR",
    "REFINEMENT_TRIGGER",
    "EulerAngleSet",
    "LoccOptimum",
    "euler_unitary",
    "grid_search",
    "optimize_with_refinement",
    "stalled",
]

# Grid steps 2*pi/4 and 2*pi/6 of the base and refinement passes.
DEFAULT_BASE_DIVISOR = 4
DEFAULT_REFINE_DIVISOR = 6

# A grid direction counts as unimproved when it moves the raw value by
# no more than this, which is also the refinement trigger.
REFINEMENT_TRIGGER = 1e-9

TWO_PI = 2.0 * np.pi


class EulerAngleSet(NamedTuple):
    alpha_a: float
    beta_a: float
    gamma_a: float
    alpha_b: float
    beta_b: float
    gamma_b: float


class LoccOptimum(NamedTuple):
    """Grid-search outcome; base_* keep the first-pass values when refined."""

    max_value: float
    max_angles: EulerAngleSet
    min_value: float
    min_angles: EulerAngleSet
    raw_value: float
    refined: bool
    evaluations: int
    base_max_value: float
    base_min_value: float


def _axis_rotation(angle: float, sigma: np.ndarray) -> np.ndarray:
    return np.cos(0.5 * angle) * IDENTITY_2 - 1.0j * np.sin(0.5 * angle) * sigma


def euler_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """x-z-x rotation U_x(alpha) U_z(beta) U_x(gamma) as a 2x2 unitary."""
    return (
        _axis_rotation(alpha, PAULI[0])
        @ _axis_rotation(beta, PAULI[2])
        @ _axis_rotation(gamma, PAULI[0])
    )


def _rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _adjoint_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """M with euler_unitary(a,b,g)† sigma_k euler_unitary(a,b,g) = sum_l M[k,l] sigma_l.

    Conjugating by one axis factor sends sigma_k to sum_l R_j(t)[k,l] sigma_l,
    and the x-z-x factors compose innermost first, so M is the plain product
    of the three rotation matrices at the same angles.
    """
    return _rot_x(alpha) @ _rot_z(beta) @ _rot_x(gamma)


def _divisor_from_step(step: float) -> int:
    if not np.isfinite(step) or step <= 0.0:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    k = TWO_PI / step
    divisor = int(round(k))
    if divisor < 2 or abs(k - divisor) > 1e-9:
        raise ValueError(f"step must equal 2*pi/k for an integer k >= 2, got {step!r}")
    return divisor


@functools.lru_cache(maxsize=None)
def _relative_classes(divisor: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct relative rotations on the k^6 grid; independent of the state.

    Returns each class's first flat grid index, increasing, and its
    ``A = [I | R]``, shape (classes, 3, 6).
    """
    angles = TWO_PI * np.arange(divisor) / divisor
    adjoints = np.stack(
        [
            _adjoint_matrix(angles[a], angles[b], angles[g])
            for a, b, g in itertools.product(range(divisor), repeat=3)
        ]
    )
    # One block per side_a keeps the work space at k^3 matrices; a class's
    # first flat index side_a * k^3 + side_b survives the setdefault.
    n = len(adjoints)
    firsts: dict[bytes, int] = {}
    for side_a, m_a in enumerate(adjoints):
        keys = np.rint((m_a.T @ adjoints).reshape(n, 9) * 1e9).astype(np.int64)
        _, block_first = np.unique(keys.view(np.dtype((np.void, 72))), return_index=True)
        for side_b in block_first:
            firsts.setdefault(keys[side_b].tobytes(), side_a * n + int(side_b))
    first = np.sort(np.fromiter(firsts.values(), dtype=np.int64))
    side_a, side_b = np.divmod(first, n)
    relative = adjoints[side_a].transpose(0, 2, 1) @ adjoints[side_b]
    spans = np.concatenate([np.broadcast_to(np.eye(3), relative.shape), relative], axis=2)
    first.flags.writeable = False
    spans.flags.writeable = False
    return first, spans


def _angle_set(flat: int, divisor: int) -> EulerAngleSet:
    indices = np.unravel_index(flat, (divisor,) * 6)
    return EulerAngleSet(*(TWO_PI * int(i) / divisor for i in indices))


def grid_search(rho: np.ndarray, step: float) -> LoccOptimum:
    """One exhaustive pass at the given step; step must be 2*pi/k, k >= 2.

    ``evaluations`` counts the k^6 grid points covered; the pass itself
    evaluates one value per relative-rotation class.  The three reported
    numerators pass the mean-QFI range rule of ``fisher.max_mean_qfi``.
    """
    divisor = _divisor_from_step(step)
    first_flat, spans = _relative_classes(divisor)
    forms = spans @ spin_qfi_matrix(rho) @ spans.transpose(0, 2, 1)
    with lapack_guard():
        tops = eigvalsh(forms)[:, -1]
    hi, lo = int(np.argmax(tops)), int(np.argmin(tops))
    high, low, raw = (
        clip_roundoff(tops[i], 0.0, np.inf, "mean-QFI numerator") / 2.0 for i in (hi, lo, 0)
    )
    return LoccOptimum(
        max_value=high,
        max_angles=_angle_set(int(first_flat[hi]), divisor),
        min_value=low,
        min_angles=_angle_set(int(first_flat[lo]), divisor),
        raw_value=raw,
        refined=False,
        evaluations=divisor**6,
        base_max_value=high,
        base_min_value=low,
    )


def stalled(raw: float, high: float, low: float) -> tuple[bool, bool]:
    """Whether the maximum ``high`` and the minimum ``low`` each lie within
    ``REFINEMENT_TRIGGER`` of the raw value."""
    return high - raw <= REFINEMENT_TRIGGER, raw - low <= REFINEMENT_TRIGGER


def optimize_with_refinement(
    rho: np.ndarray,
    base_divisor: int = DEFAULT_BASE_DIVISOR,
    refine_divisor: int = DEFAULT_REFINE_DIVISOR,
) -> LoccOptimum:
    """Base-grid search with a finer rerun when either direction stalls.

    If the base pass leaves the maximum or the minimum ``stalled``, the
    search reruns on the finer grid and keeps the elementwise better
    optimum of the two passes, the fine one only where it is strictly
    better.  The raw value and base_* always come from the base pass;
    evaluation counts add up.
    """
    base = grid_search(rho, TWO_PI / base_divisor)
    if not any(stalled(base.raw_value, base.max_value, base.min_value)):
        return base
    fine = grid_search(rho, TWO_PI / refine_divisor)
    up = fine if fine.max_value > base.max_value else base
    down = fine if fine.min_value < base.min_value else base
    return base._replace(
        max_value=up.max_value,
        max_angles=up.max_angles,
        min_value=down.min_value,
        min_angles=down.min_angles,
        refined=True,
        evaluations=base.evaluations + fine.evaluations,
    )

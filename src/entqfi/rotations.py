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
grid index reaching each, with the angle set of that grid point.  As
``R = R_x(-gamma_A) R_z(-beta_A) R_x(alpha_B - alpha_A) R_z(beta_B) R_x(gamma_B)``,
a point and its copy with alpha_A = 0 and alpha_B - alpha_A (mod 2pi) in
place of alpha_B reach the same R, and the copy's flat index is no larger:
every class is first reached on the k^5 slice alpha_A = 0, and the table
is built from that slice alone.  A pass builds every class's 3x3 form
A G Aᵀ, for one state or for a whole chunk of states at once, and takes
only its top eigenvalue: in closed form, elementwise over the stack, and
from LAPACK for the few forms whose top two eigenvalues nearly coincide.
The extremes, the tie rule's picks and the range rule then run over the
whole stack of class values.

Tie rule.  A pass reports, for each extreme of the class values, the
angles of the first class whose value lies within ``_TIE`` = 1e-12 of it,
which is the lexicographically first grid point within that distance, and
the extreme itself as the value; the refinement merge takes a fine optimum
only where it is better than the base one by more than ``_TIE``.  Classes
tied in exact arithmetic (Bell-diagonal states, |00>, Werner states) differ
in their computed values by roundoff alone: the closed-form tops lie within
4.9e-15 of ``eigvalsh``, and within 6.2e-15 of a 40-digit reference on
seeded states (see ``_grid_tops``).  ``_TIE`` lies 160 times above that,
so the reported angles of a tie do not depend on the kernel, the chunk or
a few ulps of G (test_tied_classes_report_angles_that_roundoff_does_not_move).
On master seeds 1-4 and 15 the extreme class leads the next by at least
9.99e-8 in class value (4.99e-8 in mean QFI) on both grids, and the
smallest merge gain is 8.1e-6, so ``_TIE`` moves no seeded angle.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .fisher import _mean_qfi, spin_qfi_matrix
from .states import IDENTITY_2, PAULI, eigvalsh, lapack_guard

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

# The closed form of ``_top_eigenvalues`` gives way to LAPACK where 1 + r
# falls below this.  Near r = -1 its error grows like 1/sqrt(1 + r): with
# 1e-6 here, the 200 Bell-diagonal draws of
# test_closed_form_tops_take_lapack_near_a_double_top err by up to 2.3e-13,
# and with 1e-3 by 8.0e-15.  At 1e-2 that test measures at most 4.9e-15,
# and test_closed_form_tops_match_eigvalsh_on_seeded_states 3.1e-15, each
# against eigvalsh; 0.9-1.2% of the class forms of master seeds 1-4 and 15
# fall back.
_NEAR_DOUBLE_TOP = 1e-2

# Class values within this distance of an extreme count as tied with it; see
# the tie rule in the module docstring.
_TIE = 1e-12

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


def _adjoint_matrices(divisor: int) -> np.ndarray:
    """The adjoint matrix M of every angle triple of the k-point grid, in
    flat order ``a k^2 + b k + g``, shape (k^3, 3, 3), with
    ``euler_unitary(a,b,g)† sigma_k euler_unitary(a,b,g) = sum_l M[k,l] sigma_l``.

    Conjugating by one axis factor sends sigma_k to sum_l R_j(t)[k,l] sigma_l,
    and the x-z-x factors compose innermost first, so M is the plain product
    ``R_x(a) R_z(b) R_x(g)`` of the three rotation matrices at the same angles.
    """
    angles = TWO_PI * np.arange(divisor) / divisor
    c, s = np.cos(angles), np.sin(angles)
    zero, one = np.zeros(divisor), np.ones(divisor)
    rot_x = np.stack([one, zero, zero, zero, c, -s, zero, s, c], axis=1).reshape(-1, 3, 3)
    rot_z = np.stack([c, -s, zero, s, c, zero, zero, zero, one], axis=1).reshape(-1, 3, 3)
    return (rot_x[:, None, None] @ rot_z[None, :, None] @ rot_x[None, None, :]).reshape(-1, 3, 3)


def _divisor_from_step(step: float) -> int:
    if not np.isfinite(step) or step <= 0.0:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    k = TWO_PI / step
    divisor = int(round(k))
    if divisor < 2 or abs(k - divisor) > 1e-9:
        raise ValueError(f"step must equal 2*pi/k for an integer k >= 2, got {step!r}")
    return divisor


@functools.lru_cache(maxsize=None)
def _relative_classes(divisor: int) -> tuple[np.ndarray, tuple[EulerAngleSet, ...]]:
    """The distinct relative rotations on the k^6 grid; independent of the state.

    Returns each class's ``A = [I | R]``, shape (classes, 3, 6), and the
    angle set of the first grid point reaching it, in the order of that
    point's flat index, whose six base-k digits index the angles.  R
    depends on alpha_A and alpha_B only through their difference, so every
    class is first reached where alpha_A = 0 (see the module docstring):
    the R of that k^5 slice, whose flat indices are the grid's own, come
    from one stacked matmul, and one ``np.unique`` of their rows, rounded
    to integer keys, gives each class's first index.
    """
    adjoints = _adjoint_matrices(divisor)
    relative = (adjoints[: divisor**2, None].transpose(0, 1, 3, 2) @ adjoints).reshape(-1, 3, 3)
    keys = np.rint(relative.reshape(-1, 9) * 1e9).astype(np.int64)
    _, first = np.unique(keys.view(np.dtype((np.void, 72))), return_index=True)
    first.sort()
    relative = relative[first]
    spans = np.concatenate([np.broadcast_to(np.eye(3), relative.shape), relative], axis=2)
    digits = np.stack(np.unravel_index(first, (divisor,) * 6), axis=1)
    angles = tuple(EulerAngleSet(*row) for row in (TWO_PI * digits / divisor).tolist())
    spans.flags.writeable = False
    return spans, angles


def grid_search(rho: np.ndarray, step: float) -> LoccOptimum:
    """One exhaustive pass at the given step; step must be 2*pi/k, k >= 2.

    ``evaluations`` counts the k^6 grid points covered; the pass itself
    evaluates one value per relative-rotation class.  The three reported
    numerators pass the mean-QFI rule of ``fisher.max_mean_qfi``.
    """
    divisor = _divisor_from_step(step)
    return _grid_optima(_grid_tops(spin_qfi_matrix(rho)[None], divisor), divisor)[0]


def _grid_tops(g: np.ndarray, divisor: int) -> np.ndarray:
    """lambda_max(A G Aᵀ) of every relative-rotation class of the k^6 grid
    for each G of a (n, 6, 6) stack, as (n, classes), from ``_top_eigenvalues``
    over the whole stack.

    Against a 40-digit reference at the classes' exact angles, from the
    exact value of each float rho, the class values of 1800 seeded states
    err by at most 6.2e-15 on the base grid and 4.9e-15 on the refinement
    grid; test_qfi_matrix_and_grid_tops_hold_their_error_budget_against_40_digit_references
    holds them within twice that."""
    spans, _ = _relative_classes(divisor)
    return _top_eigenvalues(spans @ g[:, None] @ spans.transpose(0, 2, 1))


def _top_eigenvalues(forms: np.ndarray) -> np.ndarray:
    """The largest eigenvalue of each real symmetric 3x3 matrix of a stack,
    read from the lower triangle as LAPACK reads it.

    The trigonometric closed form (Smith, Commun. ACM 4, 168, 1961) runs
    elementwise: with q = tr/3, p^2 = tr((A - qI)^2)/6 and
    r = det((A - qI)/p)/2, lambda_max = q + 2p cos(arccos(r)/3).  The form
    of I/4, p = 0, reads q.  Where the top two eigenvalues nearly coincide,
    1 + r below ``_NEAR_DOUBLE_TOP``, arccos loses digits; those rows, and
    any row holding a NaN, take ``eigvalsh`` under one ``lapack_guard()``,
    which raises on the NaN with the failing form."""
    a00, a11, a22 = forms[..., 0, 0], forms[..., 1, 1], forms[..., 2, 2]
    a10, a20, a21 = forms[..., 1, 0], forms[..., 2, 0], forms[..., 2, 1]
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p2 = (b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a10 * a10 + a20 * a20 + a21 * a21)) / 6.0
    p = np.sqrt(p2)
    scale = np.divide(1.0, p, out=np.zeros_like(p), where=p2 > 0.0)
    b00, b11, b22, b10, b20, b21 = (x * scale for x in (b00, b11, b22, a10, a20, a21))
    det = (
        b00 * (b11 * b22 - b21 * b21)
        - b10 * (b10 * b22 - b21 * b20)
        + b20 * (b10 * b21 - b11 * b20)
    )
    r = np.clip(0.5 * det, -1.0, 1.0)
    tops = q + 2.0 * p * np.cos(np.arccos(r) / 3.0)
    near = ~(1.0 + r >= _NEAR_DOUBLE_TOP)
    if near.any():
        with lapack_guard():
            tops[near] = eigvalsh(forms[near])[:, -1]
    return tops


def _grid_optima(tops: np.ndarray, divisor: int) -> list[LoccOptimum]:
    """Each state's pass from its row of the class values ``tops``,
    (n, classes): the extremes, the first class within ``_TIE`` of each and
    the raw column are read off the whole stack, and one call of the
    mean-QFI rule, ``fisher._mean_qfi``, judges the maxima, the minima and
    the raw values of every state."""
    _, angles = _relative_classes(divisor)
    top, bottom = tops.max(axis=1), tops.min(axis=1)
    hi = (tops >= (top - _TIE)[:, None]).argmax(axis=1)
    lo = (tops <= (bottom + _TIE)[:, None]).argmax(axis=1)
    picked = np.concatenate([top, bottom, tops[:, 0]])
    highs, lows, raws = _mean_qfi(picked).reshape(3, -1).tolist()
    return [
        LoccOptimum(
            max_value=high,
            max_angles=angles[top],
            min_value=low,
            min_angles=angles[bottom],
            raw_value=raw,
            refined=False,
            evaluations=divisor**6,
            base_max_value=high,
            base_min_value=low,
        )
        for high, low, raw, top, bottom in zip(highs, lows, raws, hi.tolist(), lo.tolist())
    ]


def stalled(raw: float, high: float, low: float) -> tuple[bool, bool]:
    """Whether the maximum ``high`` and the minimum ``low`` each lie within
    ``REFINEMENT_TRIGGER`` of the raw value."""
    return high - raw <= REFINEMENT_TRIGGER, raw - low <= REFINEMENT_TRIGGER


def optimize_with_refinement(rho: np.ndarray) -> LoccOptimum:
    """Base-grid search with a finer rerun when either direction stalls.

    The base grid has step 2*pi/DEFAULT_BASE_DIVISOR.  If the base pass
    leaves the maximum or the minimum ``stalled``, the search reruns on the
    grid of step 2*pi/DEFAULT_REFINE_DIVISOR and keeps the elementwise
    better optimum of the two passes, the fine one only where it is better
    by more than ``_TIE``.  The raw value and base_* always come from the
    base pass; evaluation counts add up.
    """
    return _optimize(spin_qfi_matrix(rho)[None])[0]


def _optimize(g: np.ndarray) -> list[LoccOptimum]:
    """``optimize_with_refinement`` for each G of a (n, 6, 6) stack: the
    base pass's class values and read-off come from the whole stack, the
    refinement's from the stalled states only; the merge runs per state."""
    optima = _grid_optima(_grid_tops(g, DEFAULT_BASE_DIVISOR), DEFAULT_BASE_DIVISOR)
    again = [
        k for k, base in enumerate(optima)
        if any(stalled(base.raw_value, base.max_value, base.min_value))
    ]
    if again:
        fines = _grid_optima(_grid_tops(g[again], DEFAULT_REFINE_DIVISOR), DEFAULT_REFINE_DIVISOR)
        for k, fine in zip(again, fines):
            base = optima[k]
            up = fine if fine.max_value > base.max_value + _TIE else base
            down = fine if fine.min_value < base.min_value - _TIE else base
            optima[k] = base._replace(
                max_value=up.max_value,
                max_angles=up.max_angles,
                min_value=down.min_value,
                min_angles=down.min_angles,
                refined=True,
                evaluations=base.evaluations + fine.evaluations,
            )
    return optima

"""Dense complex linear algebra and two-qubit state primitives.

Conventions shared by the whole package:

* Qubit A is the left tensor factor, so the computational basis is ordered
  ``|00>, |01>, |10>, |11>``; ``partial_trace`` keeps qubit ``"a"`` or
  ``"b"``, and ``partial_transpose`` transposes qubit B.
* Entropies and relative entropies are in bits (base-2 logarithms), which
  puts separable two-qubit states at 0 and Bell states at 1.
* ``ZERO_CUTOFF`` is the one spectral zero: eigenvalues, and in ``fisher``
  pair sums, at or below it count as zeros.
* ``partial_transpose`` takes a 4x4 matrix or a ``(..., 4, 4)`` stack.
* Every spectrum is ``eigh``'s ``(values, vectors)``: eigenvalues
  ascending, as LAPACK returns them, with matching eigenvector columns.
  LAPACK reads only the lower triangle.  ``herm_eig`` alone symmetrizes,
  as ``(M + M†)/2``; the states that a caller or the sampler passes in, and
  ``fisher``'s C, go through it.  The matrices that the package builds
  (rho^G, REE's sigma, sigma^G and dual matrices) are decomposed as built.
  The rotation forms A G Aᵀ are not decomposed: ``rotations`` reads only
  their top eigenvalue, in closed form from the lower triangle, and takes
  ``eigvalsh`` of a form as built only where its top two eigenvalues
  nearly coincide.
* ``eigh``, ``eigvalsh`` and ``solve`` call the LAPACK gufuncs behind
  ``np.linalg``'s ``eigh``, ``eigvalsh`` and ``solve``, so their results are
  bit for bit the same without the per-call argument checks and error
  state; the REE solve calls them tens of times per entangled state.  A
  LAPACK failure only sets the invalid flag: call them inside
  ``lapack_guard()``, which raises it as ``LinAlgError``.
* ``clip_roundoff`` is the one range rule of every reported value.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY_2",
    "IDENTITY_4",
    "PAULI",
    "PAULI_PRODUCTS",
    "HERMITICITY_TOL",
    "ZERO_CUTOFF",
    "EigendecompositionError",
    "clip_roundoff",
    "herm_eig",
    "partial_transpose",
    "partial_trace",
    "von_neumann_entropy",
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
ZERO_CUTOFF = 1e-12
# Roundoff that ``clip_roundoff`` allows outside a range, a 346x margin or more over the
# worst cases that test_divergence_roundoff_holds_its_measured_worst_cases_300_times_over
# measures: S(rho||rho) down to -1.9e-15 bits (master seeds 1-4 and 15, 800 states of
# ranks 1-4), Bell states under 2000 Haar local unitaries concurrence 1 + 2.9e-15 and
# negativity 1 + 1.8e-15, and product pure states entropy -1.9e-15.
_DIVERGENCE_ROUNDOFF = 1e-12


class EigendecompositionError(LinAlgError):
    """Eigensolver failure, a ``LinAlgError`` (and so a ``ValueError``);
    carries the offending matrix for diagnostics."""

    def __init__(
        self, matrix: np.ndarray, message: str = "Hermitian eigendecomposition did not converge"
    ):
        self.matrix = matrix
        super().__init__(message)


def clip_roundoff(value, low: float, high: float, what: str, slack=_DIVERGENCE_ROUNDOFF):
    """``value`` as a float, clipped to [low, high] if outside by at most
    ``slack``; further out, NaN included, ``ArithmeticError`` names ``what``.
    -0.0 reads +0.0 at low = 0.  An array is judged in one pass, its first
    value outside raising, and comes back clipped as a float array."""
    if getattr(value, "ndim", 0):
        values = np.asarray(value, dtype=float)
        # NaN fails both tests, as the extremes carry it.
        bottom, top = np.minimum.reduce(values, axis=None), np.maximum.reduce(values, axis=None)
        if not low - slack <= bottom <= top <= high + slack:
            outside = ~((low - slack <= values) & (values <= high + slack))
            clip_roundoff(values[outside][0], low, high, what, slack)
        # numpy leaves the sign of a zero that np.maximum returns to its loops;
        # adding 0.0 makes -0.0 read +0.0, as max() does.
        return np.maximum(np.minimum(values, high), low) + 0.0
    value = float(value)
    if not low - slack <= value <= high + slack:
        bounds = f"[{low:g}, {high:g}]"
        raise ArithmeticError(f"{what} {value!r} lies outside {bounds} by more than {slack:.3g}")
    return max(low, min(high, value))


def _raise_linalg_error(err: str, flag: int):
    raise LinAlgError(f"{err} encountered under lapack_guard()")


def lapack_guard() -> np.errstate:
    """A fresh error state under which an invalid floating-point result,
    the flag a failing LAPACK gufunc sets, raises ``LinAlgError``; divide
    and overflow keep the caller's settings.  Entering one costs a good
    part of a kernel call, so enter it once around a run of them."""
    return np.errstate(call=_raise_linalg_error, invalid="call")


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(m)``: ascending eigenvalues and eigenvectors of a
    stack of real symmetric or complex Hermitian matrices, read from the
    lower triangle.  Under ``lapack_guard()`` a failure raises
    ``EigendecompositionError`` with m, or with the failing matrix of a
    stack."""
    try:
        return _umath_linalg.eigh_lo(m, signature="D->dD" if m.dtype.kind == "c" else "d->dd")
    except LinAlgError as exc:
        raise EigendecompositionError(_failing(m)) from exc


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(m)``: the ascending eigenvalues of ``eigh``."""
    try:
        return _umath_linalg.eigvalsh_lo(m, signature="D->d" if m.dtype.kind == "c" else "d->d")
    except LinAlgError as exc:
        raise EigendecompositionError(_failing(m)) from exc


def _failing(m: np.ndarray) -> np.ndarray:
    """The matrix that an eigensolve of m failed on: m itself, or the first
    of a stack whose eigenvalues come out NaN, as a failing LAPACK call
    leaves them while it sets one invalid flag for the whole stack (the
    whole stack where none does)."""
    if m.ndim == 2:
        return m
    stack = m.reshape((-1,) + m.shape[-2:])
    with np.errstate(invalid="ignore"):
        vals = _umath_linalg.eigvalsh_lo(stack, signature="D->d" if m.dtype.kind == "c" else "d->d")
    failed = np.flatnonzero(np.isnan(vals).any(axis=-1))
    return stack[failed[0]] if failed.size else m


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for one right-hand side vector b, both of
    one dtype.  Under ``lapack_guard()`` a singular a raises ``LinAlgError``."""
    return _umath_linalg.solve1(a, b, signature="DD->D" if a.dtype.kind == "c" else "dd->d")


def herm_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of ``(M + M†)/2`` under ``lapack_guard()``: the ascending
    eigenvalues and eigenvectors of a matrix, or of each in a stack, that
    is Hermitian only up to roundoff."""
    m = np.asarray(matrix, dtype=complex)
    m = 0.5 * (m + m.conj().swapaxes(-1, -2))
    with lapack_guard():
        return eigh(m)


def _subsystem_index(subsystem) -> int:
    if subsystem in ("a", "b"):
        return "ab".index(subsystem)
    raise ValueError(f"subsystem must be 'a' or 'b', got {subsystem!r}")


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose qubit B's indices of a 4x4 matrix or of each in a
    ``(..., 4, 4)`` stack; Hermiticity and trace are preserved."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 two-qubit matrices, got shape {rho.shape}")
    # Axes -4..-1 index (a row, b row, a column, b column).
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(rho.shape)


def partial_trace(rho: np.ndarray, keep="a") -> np.ndarray:
    """Reduced 2x2 state of the kept qubit."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit matrix, got shape {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if _subsystem_index(keep) == 0:
        return np.einsum("ijkj->ik", r)
    return np.einsum("ijil->jl", r)


def _spectral_entropy(eigenvalues: np.ndarray):
    """-sum p log2 p in bits over a spectrum, or over each of a stack as an
    array, with 0 log 0 = 0."""
    # A NaN fails this test too; the mask below drops it with the zeros.
    if not np.minimum.reduce(eigenvalues, axis=None) > ZERO_CUTOFF:
        if eigenvalues.ndim > 1:
            # Each spectrum sums its own positive eigenvalues, in their order.
            return np.array([_spectral_entropy(row) for row in eigenvalues])
        eigenvalues = eigenvalues[eigenvalues > ZERO_CUTOFF]
    terms = eigenvalues * np.log2(eigenvalues)
    return clip_roundoff(-np.add.reduce(terms, axis=-1), 0.0, math.inf, "von Neumann entropy")


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Spectral entropy -sum p log2 p in bits, with 0 log 0 = 0."""
    return _spectral_entropy(herm_eig(rho)[0])


def _divergence(rho: np.ndarray, s: np.ndarray, vecs: np.ndarray, rho_entropy):
    """S(rho || sigma) in bits from sigma's spectrum s and its eigenvectors,
    and S(rho); ``math.inf`` when rho escapes sigma's support.  Of one state,
    or of each of a stack as an array.

    The support test projects rho onto sigma's null eigenspace (eigenvalues
    at most ``ZERO_CUTOFF``); mass above the cutoff there makes the
    divergence infinite, signalled by the returned marker, not an exception.
    The value passes ``clip_roundoff`` on [0, inf): one more than 1e-12 bits
    below zero (sigma is not a normalized state, say) raises
    ``ArithmeticError``."""
    s = np.maximum(s, 0.0)
    deficient = np.minimum.reduce(s, axis=None) <= ZERO_CUTOFF
    if deficient and s.ndim > 1:
        # Each state tests its own null eigenspace and sums the rest in order.
        return np.array([_divergence(*state) for state in zip(rho, s, vecs, rho_entropy)])
    weights = np.maximum(np.add.reduce((rho @ vecs) * vecs.conj(), axis=-2).real, 0.0)
    if deficient:
        null = s <= ZERO_CUTOFF
        if float(np.add.reduce(weights[null])) > ZERO_CUTOFF:
            return math.inf
        weights, s = weights[~null], s[~null]
    value = -rho_entropy - np.add.reduce(weights * np.log2(s), axis=-1)
    return clip_roundoff(value, 0.0, math.inf, "relative entropy")


def apply_local_unitary(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """(u_a ⊗ u_b) rho (u_a ⊗ u_b)† with both factors checked for unitarity."""
    u_a = np.asarray(u_a, dtype=complex)
    u_b = np.asarray(u_b, dtype=complex)
    for name, u in (("u_a", u_a), ("u_b", u_b)):
        if u.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2, got shape {u.shape}")
        if float(np.max(np.abs(u @ u.conj().T - IDENTITY_2))) > HERMITICITY_TOL:
            raise ValueError(f"{name} is not unitary within {HERMITICITY_TOL:g}")
    u = np.kron(u_a, u_b)
    out = u @ np.asarray(rho, dtype=complex) @ u.conj().T
    return 0.5 * (out + out.conj().T)

"""Dense complex linear algebra and two-qubit state primitives.

Conventions shared by the whole package:

* Qubit A is the left tensor factor, so the computational basis is ordered
  ``|00>, |01>, |10>, |11>`` and subsystem-addressed operations take
  ``"a"`` or ``"b"``.
* Entropies and relative entropies are in bits (base-2 logarithms), which
  puts separable two-qubit states at 0 and Bell states at 1.
* ``ZERO_CUTOFF`` is the one spectral zero: eigenvalues, and in ``fisher``
  pair sums, at or below it count as zeros; eigenvalue dust in
  ``(-PSD_TOL, 0)`` is clamped to zero on construction.
* ``partial_transpose`` takes a 4x4 matrix or a ``(..., 4, 4)`` stack.
* Hermitian matrices are symmetrized as ``(M + M†)/2`` before any
  eigendecomposition to suppress roundoff drift.
* ``eigh``, ``eigvalsh``, ``svdvals`` and ``solve`` call the LAPACK gufuncs
  behind ``np.linalg``'s ``eigh``, ``eigvalsh``, ``svd`` and ``solve``, so
  their results are
  bit for bit the same without the per-call argument checks and error
  state.  A LAPACK failure only sets the invalid flag: call them inside
  ``lapack_guard()``, which raises it as ``LinAlgError``.
* ``clip_roundoff`` is the one range rule of every reported value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    "TRACE_TOL",
    "PSD_TOL",
    "ZERO_CUTOFF",
    "EigendecompositionError",
    "Spectrum",
    "clip_roundoff",
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
# Roundoff that ``clip_roundoff`` allows outside a range.  S(rho||rho) reads down to
# -2.4e-15 bits (master seeds 1-4 and 15, 800 states of ranks 1-4), Bell states under
# 2000 random local unitaries concurrence 1 + 2.4e-15 and negativity 1 + 1.3e-15, product
# pure states entropy -2.9e-15, and werner(1/3 + 1e-8) REE 9.0e-11: a 400x margin or more.
_DIVERGENCE_ROUNDOFF = 1e-12


class EigendecompositionError(LinAlgError):
    """Eigensolver failure, a ``LinAlgError`` (and so a ``ValueError``);
    carries the offending matrix for diagnostics."""

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


def clip_roundoff(value, low: float, high: float, what: str, slack=_DIVERGENCE_ROUNDOFF) -> float:
    """``value`` as a float, clipped to [low, high] if outside by at most
    ``slack``; further out, NaN included, ``ArithmeticError`` names ``what``.
    -0.0 reads +0.0 at low = 0."""
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
    ``EigendecompositionError(m)``."""
    try:
        return _umath_linalg.eigh_lo(m, signature="D->dD" if m.dtype.kind == "c" else "d->dd")
    except LinAlgError as exc:
        raise EigendecompositionError(m) from exc


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(m)``: the ascending eigenvalues of ``eigh``."""
    try:
        return _umath_linalg.eigvalsh_lo(m, signature="D->d" if m.dtype.kind == "c" else "d->d")
    except LinAlgError as exc:
        raise EigendecompositionError(m) from exc


def svdvals(m: np.ndarray) -> np.ndarray:
    """``np.linalg.svd(m, compute_uv=False)``: descending singular values."""
    return _umath_linalg.svd(m, signature="D->d")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for one right-hand side vector b, both of
    one dtype.  Under ``lapack_guard()`` a singular a raises ``LinAlgError``."""
    return _umath_linalg.solve1(a, b, signature="DD->D" if a.dtype.kind == "c" else "dd->d")


def herm_eig(matrix: np.ndarray) -> Spectrum:
    """Full spectrum of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized before decomposition, so callers may pass
    matrices that are Hermitian only up to roundoff.
    """
    m = np.asarray(matrix, dtype=complex)
    m = 0.5 * (m + m.conj().T)
    with lapack_guard():
        vals, vecs = eigh(m)
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


def _subsystem_index(subsystem) -> int:
    if subsystem in ("a", "A", 0):
        return 0
    if subsystem in ("b", "B", 1):
        return 1
    raise ValueError(f"subsystem must be 'a' or 'b', got {subsystem!r}")


def partial_transpose(rho: np.ndarray, subsystem="b") -> np.ndarray:
    """Transpose one qubit's indices of a 4x4 matrix or of each in a
    ``(..., 4, 4)`` stack; Hermiticity and trace are preserved."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 two-qubit matrices, got shape {rho.shape}")
    # Axes -4..-1 index (a row, b row, a column, b column).
    axis = -1 if _subsystem_index(subsystem) == 1 else -2
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(axis - 2, axis).reshape(rho.shape)


def partial_trace(rho: np.ndarray, keep="a") -> np.ndarray:
    """Reduced 2x2 state of the kept qubit."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit matrix, got shape {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if _subsystem_index(keep) == 0:
        return np.einsum("ijkj->ik", r)
    return np.einsum("ijil->jl", r)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Spectral entropy -sum p log2 p in bits, with 0 log 0 = 0."""
    vals = herm_eig(rho).eigenvalues
    vals = vals[vals > ZERO_CUTOFF]
    return clip_roundoff(-np.sum(vals * np.log2(vals)), 0.0, math.inf, "von Neumann entropy")


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) in bits; ``math.inf`` when rho escapes sigma's support.

    The support test projects rho onto sigma's null eigenspace (eigenvalues
    at most ``ZERO_CUTOFF``); mass above the cutoff there makes the
    divergence infinite, signalled by the returned marker, not an exception.
    The rho log rho term is ``-von_neumann_entropy(rho)``.  The value passes
    ``clip_roundoff`` on [0, inf): one more than 1e-12 bits below zero (sigma
    is not a normalized state, say) raises ``ArithmeticError``, and so does a
    NaN or infinite entry in rho or sigma, which would otherwise pass through
    the comparisons as a NaN.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for name, m in (("rho", rho), ("sigma", sigma)):
        if not np.isfinite(m).all():
            raise ArithmeticError(f"relative entropy needs a finite {name}")
    s, vecs = herm_eig(sigma)
    s = np.clip(s, 0.0, None)
    weights = np.clip(((rho @ vecs) * vecs.conj()).sum(axis=0).real, 0.0, None)
    null = s <= ZERO_CUTOFF
    if float(weights[null].sum()) > ZERO_CUTOFF:
        return math.inf
    value = -von_neumann_entropy(rho) - float(np.sum(weights[~null] * np.log2(s[~null])))
    return clip_roundoff(value, 0.0, math.inf, "relative entropy")


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

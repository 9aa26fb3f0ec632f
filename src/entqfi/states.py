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
  Every other public function that takes one state (``partial_trace``,
  ``apply_local_unitary``, the measures and the QFI and rotation
  searches) reads it through ``_two_qubit``, which raises ``ValueError``
  on any shape but 4x4 and, through ``_finite``, on a NaN or infinite
  entry; ``von_neumann_entropy`` reads any finite Hermitian matrix, checked
  by ``_finite`` too.
* Every spectrum is ``eigh``'s ``(values, vectors)``: eigenvalues
  ascending, as LAPACK returns them, with matching eigenvector columns.
  LAPACK reads only the lower triangle.  ``_hermitian_part``, ``(M + M†)/2``,
  is the one symmetrization, exactly Hermitian in floating point; four
  places read it: ``herm_eig``, through which the states that a caller or
  the sampler passes in and ``fisher``'s C go, ``apply_local_unitary``,
  ``sampling._density_matrices`` and ``fisher._spin_qfi_matrices``, on the
  real G.  The matrices that the package builds (rho^G, REE's sigma,
  sigma^G and dual matrices) are decomposed as built.
  The rotation forms A G Aᵀ are not decomposed: ``rotations`` reads only
  their top eigenvalue, in closed form from the lower triangle, and takes
  ``eigvalsh`` of a form as built only where its top two eigenvalues
  nearly coincide.
* ``eigh``, ``eigvalsh`` and ``solve`` call the LAPACK gufuncs behind
  ``np.linalg``'s ``eigh``, ``eigvalsh`` and ``solve``, so their results are
  bit for bit the same without the per-call argument checks and error
  state; the REE solve calls them tens of times per entangled state.  Each
  takes the dtypes its callers pass: ``eigh`` complex matrices, ``solve``
  real systems, ``eigvalsh`` both (the rotation forms are real).  A
  LAPACK failure only sets the invalid flag, once for a whole stack: call
  them inside ``lapack_guard()``, which raises it as ``LinAlgError``.  The
  failed matrix's eigenvalues, or the singular system's solution, read NaN
  in its own row.  ``_nan_rows`` is the one reader of those rows, one quiet
  read with every floating-point flag ignored: ``herm_eig`` takes its
  (M + M†)/2 and ``eigh`` through it in one pass, so a non-finite entry, an
  overflowing (M + M†)/2 and a failed eigensolve all raise, none warning
  first, and ``_failing`` and REE's KKT retry and barrier step read through
  it too.  This module is the only one that sets numpy's error state.
* ``clip_roundoff`` is the one range rule of every reported value, one
  array code path for a scalar and for a stack alike; a stacked caller
  judges its whole stack in one call, a slack per value where each value
  has its own.
* ``_integer`` reads the integer arguments (``count``, ``master_seed``,
  ``index``, ``limit``) and ``_member`` the named-choice ones (``measure``,
  ``keep``, the tolerance keys); each error names the argument.
"""

from __future__ import annotations

import math
import operator

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
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
    """``value``, a scalar or an array, clipped to [low, high] where outside
    by at most ``slack``, one slack or one per value; further out, NaN
    included, the first value outside raises ``ArithmeticError`` naming
    ``what`` and that value's own slack.  -0.0 reads +0.0 at low = 0.  A 0-d
    value comes back as a float, any other as a float array."""
    values = np.asarray(value, dtype=float)
    # NaN fails both tests.
    inside = (low - slack <= values) & (values <= high + slack)
    if not inside.all():
        k = int(np.argmin(inside))
        value, slack = float(values.flat[k]), float(np.broadcast_to(slack, values.shape).flat[k])
        bounds = f"[{low:g}, {high:g}]"
        raise ArithmeticError(f"{what} {value!r} lies outside {bounds} by more than {slack:.3g}")
    # numpy leaves the sign of a zero that np.maximum returns to its loops;
    # adding 0.0 makes -0.0 read +0.0.
    clipped = np.maximum(np.minimum(values, high), low) + 0.0
    return clipped if clipped.shape else float(clipped)


def _integer(name: str, value, least: int) -> int:
    """``value`` read with ``operator.index``, as an int: one that is no
    integer raises ``TypeError``, and one below ``least`` ``ValueError``,
    each naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return value


def _member(name: str, value, choices: tuple) -> None:
    """Check that ``value`` is one of ``choices``; any other raises
    ``ValueError`` naming ``name``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


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
    complex Hermitian matrix or a stack of them, read from the lower
    triangle.  Under ``lapack_guard()`` a failure raises
    ``EigendecompositionError`` with m, or with the failing matrix of a
    stack."""
    try:
        return _umath_linalg.eigh_lo(m, signature="D->dD")
    except LinAlgError as exc:
        raise EigendecompositionError(_failing(m)) from exc


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(m)``: the ascending eigenvalues of ``eigh``."""
    try:
        return _umath_linalg.eigvalsh_lo(m, signature="D->d" if m.dtype.kind == "c" else "d->d")
    except LinAlgError as exc:
        raise EigendecompositionError(_failing(m)) from exc


def _nan_rows(kernel, *args):
    """``kernel(*args)`` with every floating-point flag ignored, and the
    indices along the leading axis of its output, or of its first output
    where it returns several, that hold a NaN: a failing LAPACK call sets
    one invalid flag for a whole stack and leaves each failed matrix's
    eigenvalues, or each singular system's solution, NaN in its own row.
    Nothing is warned or raised, so the rows are the one reading of the
    failure."""
    with np.errstate(all="ignore"):
        out = kernel(*args)
    first = out[0] if isinstance(out, tuple) else out
    return out, np.isnan(first).reshape(len(first), -1).any(axis=1).nonzero()[0]


def _failing(m: np.ndarray) -> np.ndarray:
    """The matrix that an eigensolve of m failed on: m itself, or the first
    of a stack whose eigenvalues ``_nan_rows`` reads NaN (the whole stack
    where none does)."""
    if m.ndim == 2:
        return m
    stack = m.reshape((-1,) + m.shape[-2:])
    failed = _nan_rows(eigvalsh, stack)[1]
    return stack[failed[0]] if failed.size else m


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a real a and one real right-hand side
    vector b.  Under ``lapack_guard()`` a singular a raises ``LinAlgError``;
    through ``_nan_rows``, each singular system of a stack reads NaN in its
    own row, and the others as they solve alone."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(M + M†)/2`` of a matrix, or of each in a stack: exactly Hermitian
    in floating point, since the sum commutes and the diagonal's imaginary
    parts cancel."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _hermitian_eigh(stack: np.ndarray):
    """``eigh`` of each matrix's ``(M + M†)/2`` in a stack, and those parts."""
    hermitian = _hermitian_part(stack)
    return (*eigh(hermitian), hermitian)


def herm_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of ``(M + M†)/2``: the ascending eigenvalues and eigenvectors
    of a matrix, or of each in a stack, that is Hermitian only up to
    roundoff.  Both run in one ``_nan_rows`` call, every floating-point flag
    ignored, and its NaN eigenvalues are the one reading of a failure: a
    matrix with a NaN or infinite entry, one whose (M + M†)/2 overflows or
    one that LAPACK fails on raises ``EigendecompositionError`` with the
    (M + M†)/2 of the first such matrix, and nothing is warned first."""
    m = np.asarray(matrix, dtype=complex)
    (vals, vecs, hermitian), failed = _nan_rows(_hermitian_eigh, m.reshape((-1,) + m.shape[-2:]))
    if failed.size:
        raise EigendecompositionError(hermitian[failed[0]])
    return vals.reshape(m.shape[:-1]), vecs.reshape(m.shape)


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose qubit B's indices of a 4x4 matrix or of each in a
    ``(..., 4, 4)`` stack; Hermiticity and trace are preserved."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 two-qubit matrices, got shape {rho.shape}")
    # Axes -4..-1 index (a row, b row, a column, b column).
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(rho.shape)


def _two_qubit(rho) -> np.ndarray:
    """rho as one finite complex 4x4 matrix, the one shape check of every
    public function that takes a single two-qubit state; any other shape, a
    stack included, raises ``ValueError``, as does a NaN or infinite entry,
    the first of them named."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit matrix, got shape {rho.shape}")
    return _finite(rho)


def _finite(m: np.ndarray) -> np.ndarray:
    """m, of which a NaN or infinite entry raises ``ValueError``, the first
    of them named."""
    finite = np.isfinite(m)
    if not finite.all():
        index = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"expected a finite matrix, got {m[tuple(index)]} at entry {index}")
    return m


def partial_trace(rho: np.ndarray, keep="a") -> np.ndarray:
    """Reduced 2x2 state of the kept qubit."""
    r = _two_qubit(rho).reshape(2, 2, 2, 2)
    _member("keep", keep, ("a", "b"))
    return np.einsum("ijkj->ik" if keep == "a" else "ijil->jl", r)


def _spectral_entropy(eigenvalues: np.ndarray):
    """-sum p log2 p in bits over a spectrum, or over each of a stack as an
    array, with 0 log 0 = 0."""
    # An eigenvalue at most ZERO_CUTOFF, or NaN, reads 1 and adds 1 log 1 = 0.
    p = np.where(eigenvalues > ZERO_CUTOFF, eigenvalues, 1.0)
    terms = p * np.log2(p)
    return clip_roundoff(-np.add.reduce(terms, axis=-1), 0.0, math.inf, "von Neumann entropy")


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Spectral entropy -sum p log2 p in bits, with 0 log 0 = 0, of a finite
    matrix."""
    return _spectral_entropy(herm_eig(_finite(np.asarray(rho, dtype=complex)))[0])


def _divergence(rho: np.ndarray, s: np.ndarray, vecs: np.ndarray, rho_entropy):
    """S(rho || sigma) in bits from sigma's spectrum s and its eigenvectors,
    and S(rho); ``math.inf`` when rho escapes sigma's support.  Of one state,
    or of each of a stack as an array.

    The support test projects rho onto sigma's null eigenspace (eigenvalues
    at most ``ZERO_CUTOFF``); mass above the cutoff there makes the
    divergence infinite, signalled by the returned marker, not an exception.
    The value passes ``clip_roundoff`` on [0, inf): one more than 1e-12 bits
    below zero (sigma is not a normalized state, say) raises
    ``ArithmeticError``, as does a NaN in s."""
    weights = np.maximum(np.add.reduce((rho @ vecs) * vecs.conj(), axis=-2).real, 0.0)
    # A null eigenvalue reads 1, so its term adds an exact 0 to the others'.
    null = s <= ZERO_CUTOFF
    value = -rho_entropy - np.add.reduce(weights * np.log2(np.where(null, 1.0, s)), axis=-1)
    if null.any():
        escaped = np.add.reduce(np.where(null, weights, 0.0), axis=-1) > ZERO_CUTOFF
        # inf + NaN is NaN: a NaN in s still raises below.
        value = value + np.where(escaped, math.inf, 0.0)
    return clip_roundoff(value, 0.0, math.inf, "relative entropy")


def apply_local_unitary(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """(u_a ⊗ u_b) rho (u_a ⊗ u_b)† with both factors checked for unitarity."""
    rho = _two_qubit(rho)
    u_a = np.asarray(u_a, dtype=complex)
    u_b = np.asarray(u_b, dtype=complex)
    for name, u in (("u_a", u_a), ("u_b", u_b)):
        if u.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2, got shape {u.shape}")
        # A NaN or infinite entry leaves the deviation NaN, an overflow inf: both fail.
        with np.errstate(invalid="ignore", over="ignore"):
            deviation = float(np.max(np.abs(u @ u.conj().T - IDENTITY_2)))
        if not deviation <= HERMITICITY_TOL:
            raise ValueError(f"{name} is not unitary within {HERMITICITY_TOL:g}")
    u = np.kron(u_a, u_b)
    return _hermitian_part(u @ rho @ u.conj().T)

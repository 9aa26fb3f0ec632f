"""Two-qubit entanglement measures: concurrence, negativity, PPT, REE.

Concurrence and negativity are closed-form; the relative entropy of
entanglement (REE) is minimized numerically.

REE solver.  For two qubits PPT equals separability (Horodecki, Horodecki &
Horodecki, PLA 223, 1, 1996), so REE is ``min S(rho||sigma)`` over
``sigma >= 0``, ``sigma^G >= 0`` (partial transpose on B), ``tr sigma = 1``,
convex in the Pauli coordinates x of ``sigma = I/4 + 1/4 sum_k x_k P_k``.
The barrier method (Boyd & Vandenberghe, Convex Optimization, 11.3) takes
damped Newton steps on ``t S(rho||sigma) - ln det sigma - ln det sigma^G``
from ``(1 - l) rho + l I/4``, ``l = min(1, 2|e| / (1/4 + |e|))`` with e the
lowest eigenvalue of rho^G.  The rounds are ``t = T / 100^j`` for j
falling to 0, where ``T = 8 / 1e-9`` puts the barrier's own bound 8/t at
1e-9 nats and the first j is the largest with ``t >= 8 / gap`` at the
start: every round raises t a whole hundredfold and the last ends on T
exactly.  Divided differences of ln in sigma's eigenbasis give the gradient
D of ``tr(rho ln sigma)`` and its Hessian (Daleckii-Krein), degenerate
spectra included.  No random numbers are drawn.

Certificate.  S(rho||.) is convex with gradient -D, and for any ``Q >= 0``
weak duality gives ``tr(sigma* D) <= lambda_max(D + Q^G)`` over PPT sigma*,
so ``gap = lambda_max(D + Q^G) - tr(sigma D)`` bounds how far S(rho||sigma)
lies above REE.  ``Q = [(I - D)^G]_+`` is the multiplier that the KKT
condition ``D + Q^G = I`` singles out; the barrier's own
``(sigma^G)^-1 / t`` is priced too.  A gap within 2e-5 nats (about 3e-5
bits, far inside the 5e-3 oracle tolerance) counts as converged.  The
closest state is strictly interior, so full rank and PPT; the value is
recomputed as S(rho||closest).  The solver works in nats, reports bits.
Its spectra and Newton solves run on the LAPACK kernels of ``states`` under
one ``lapack_guard()`` per solve: a failed spectrum raises
``EigendecompositionError``, a singular Hessian ends the solve where it is.

Value rule.  Concurrence, negativity and REE lie in [0, 1] under the one
range rule ``states.clip_roundoff``; REE's slack adds its certified gap
(|Phi+> reads 1 + 1.8e-10 bits, gap 2.7e-10).  For two qubits rho^G has at
most one negative eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826, 1998):
``_lowest_pt_eigenvalue`` gives the negativity -2 lambda_min and the REE
start; ``_ppt`` judges PPT on it and on the last barrier point's sigma^G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .states import (
    _DIVERGENCE_ROUNDOFF,
    IDENTITY_4,
    PAULI_PRODUCTS,
    clip_roundoff,
    eigh,
    eigvalsh,
    herm_eig,
    lapack_guard,
    partial_trace,
    partial_transpose,
    relative_entropy,
    solve,
    svdvals,
    von_neumann_entropy,
)

__all__ = [
    "SEPARABILITY_EIG_TOL",
    "ReeSolverConfig",
    "ReeSolution",
    "concurrence",
    "negativity",
    "is_separable",
    "ree",
    "ree_pure_oracle",
    "ree_bell_diagonal_oracle",
]

# PPT verdict: separable iff the lowest partial-transpose eigenvalue
# clears this floor (matches the PSD clamp used on construction).
SEPARABILITY_EIG_TOL = 1e-10

LN2 = math.log(2.0)
_SPIN_FLIP = PAULI_PRODUCTS[2, 2]

_GAP_TOL_NATS = 2e-5
# _TANGENTS[0, k] and [1, k]: P_k/4 and P_k^G/4 flattened, the derivatives
# of sigma and sigma^G in x_k.
_PAULI_15 = PAULI_PRODUCTS.reshape(16, 4, 4)[1:]
_TANGENTS = 0.25 * np.stack([_PAULI_15, partial_transpose(_PAULI_15)]).reshape(2, 15, 16)
_TANGENTS_RE = _TANGENTS.view(float)
_CENTER = 0.25 * IDENTITY_4
_DIAG_RE = 10 * np.arange(4)  # real diagonal entries in a flat 4x4 float view

# Two 4x4 log-det barriers have degree 8.  Centering at t stops once the
# squared Newton decrement is at most _CENTERED (_CENTERED_FINAL at the last
# t).  Up to _FULL_STEP a step is taken whole, as its predicted decrease
# sinks below the roundoff of a barrier value of order t.
_BARRIER_DEGREE, _T_GROWTH = 8.0, 100.0
_T_FINAL = _BARRIER_DEGREE / 1e-9
_CENTERED, _CENTERED_FINAL, _FULL_STEP = 0.5, 1e-6, 0.1
_MAX_STEPS = 200
# The 20 sorted index triples lo <= mid <= hi, which for ascending s sort
# their values, and for each flat (i, m, j) the place of its sorted triple.
_TRIPLES = sorted({tuple(sorted(ijk)) for ijk in np.ndindex(4, 4, 4)})
_TRIPLE_AT = np.array([_TRIPLES.index(tuple(sorted(ijk))) for ijk in np.ndindex(4, 4, 4)])
_COINCIDENT = 1e-5  # relative spread below which three eigenvalues coincide


@dataclass(frozen=True)
class ReeSolverConfig:
    """Ignored REE settings, which ``benchmarks/workloads.py`` passes."""

    components: int = 5
    multistarts: int = 5
    max_sweeps: int = 10000
    threshold: float = 1e-7
    rng: np.random.Generator | None = None


@dataclass(frozen=True)
class ReeSolution:
    """``value`` is the REE in bits, always in [0, 1]; ``gap`` is its
    certified optimality gap in bits and ``converged`` says it is within
    tolerance.  ``iterations`` counts Newton steps: at least one if
    entangled, zero for the separable short-circuit."""

    value: float
    closest_state: np.ndarray
    iterations: int
    converged: bool
    gap: float


def concurrence(rho: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4) over descending square roots of the
    rho (sy⊗sy) rho* (sy⊗sy) spectrum.

    The l_i are evaluated as singular values of sqrt(rho)* (sy⊗sy) sqrt(rho),
    which is algebraically the same set but avoids square-rooting the
    near-zero eigenvalue dust of the non-Hermitian product; the direct
    route loses ~1e-8 on nearly pure states, the SVD stays at ~1e-15.
    """
    spec = herm_eig(rho)
    root = (
        spec.eigenvectors * np.sqrt(np.clip(spec.eigenvalues, 0.0, None))
    ) @ spec.eigenvectors.conj().T
    with lapack_guard():
        vals = svdvals(root.conj() @ _SPIN_FLIP @ root)
    # np.maximum, unlike max, keeps a NaN for the range rule to reject.
    value = np.maximum(vals[0] - vals[1] - vals[2] - vals[3], 0.0)
    return clip_roundoff(value, 0.0, 1.0, "concurrence")


def _lowest_pt_eigenvalue(rho: np.ndarray) -> float:
    """The lowest eigenvalue of rho^G, the only one that can be negative."""
    with lapack_guard():
        return float(eigvalsh(partial_transpose(rho))[0])


def negativity(rho: np.ndarray) -> float:
    """Twice the magnitude of the negative partial-transpose eigenvalue."""
    return clip_roundoff(np.maximum(-2.0 * _lowest_pt_eigenvalue(rho), 0.0), 0.0, 1.0, "negativity")


def _ppt(lowest: float) -> bool:
    """The one PPT verdict on the lowest partial-transpose eigenvalue."""
    return lowest >= -SEPARABILITY_EIG_TOL


def is_separable(rho: np.ndarray) -> bool:
    """PPT test, exact for two qubits."""
    return _ppt(_lowest_pt_eigenvalue(rho))


def ree_pure_oracle(psi: np.ndarray) -> float:
    """REE of a pure state: the entropy of either reduced state, in bits."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state vector norm {norm!r} is not 1 within 1e-10")
    return von_neumann_entropy(partial_trace(np.outer(psi, psi.conj()), keep="a"))


def ree_bell_diagonal_oracle(lambda_max: float) -> float:
    """REE of a Bell-diagonal state with largest weight lambda_max:
    ``1 - H2(lambda_max)`` bits, valid for lambda_max in [1/2, 1]."""
    if not 0.5 <= lambda_max <= 1.0:
        raise ValueError(f"lambda_max must lie in [1/2, 1], got {lambda_max!r}")
    p = float(lambda_max)
    h2 = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            h2 -= q * math.log2(q)
    return 1.0 - h2


class _Point(NamedTuple):
    """x, the ascending spectra and eigenvectors of sigma and sigma^G, V† rho V."""

    x: np.ndarray
    s: np.ndarray
    v: np.ndarray
    rt: np.ndarray


def _sigmas(x: np.ndarray) -> np.ndarray:
    return (x @ _TANGENTS_RE).view(complex).reshape(2, 4, 4) + _CENTER


def _point(rho: np.ndarray, x: np.ndarray) -> _Point:
    s, v = eigh(_sigmas(x))
    return _Point(x, s, v, v[0].conj().T @ rho @ v[0])


def _barrier(t: float, p: _Point) -> float:
    """The barrier objective less t tr(rho ln rho); inf off the cones."""
    if p.s[:, 0].min() <= 0.0:
        return math.inf
    logs = np.log(p.s)
    return -t * float(p.rt.diagonal().real @ logs[0]) - float(logs.sum())


def _log_first_differences(s: np.ndarray) -> np.ndarray:
    """f1[i, j] = (ln s_j - ln s_i) / (s_j - s_i) for ascending s, 1/s_i
    where they are equal; log1p of the spacing keeps nearby pairs from
    cancelling.  On six pairs Python floats cost less than numpy calls."""
    s = s.tolist()
    f1 = [[1.0 / lo] * 4 for lo in s]
    for i, lo in enumerate(s):
        for j in range(i + 1, 4):
            if (gap := s[j] - lo) > 0.0:
                f1[i][j] = f1[j][i] = math.log1p(gap / lo) / gap
    return np.array(f1)


def _log_second_differences(s: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """f2[i, m, j], the second divided difference of ln at (s_i, s_m, s_j)
    for ascending s: ``(f1[mid, hi] - f1[lo, mid]) / (s_hi - s_lo)`` over
    the sorted triple, the widest spacing, or ``-1/(2 mean^2)`` (error
    O(spread^2)) where all three lie within _COINCIDENT.  Twenty triples
    cost less in Python than in numpy."""
    s, f1 = s.tolist(), f1.tolist()
    f2 = [
        (f1[mid][hi] - f1[lo][mid]) / (s[hi] - s[lo])
        if s[hi] - s[lo] > _COINCIDENT * s[hi]
        else -4.5 / ((s[lo] + s[mid] + s[hi]) * (s[lo] + s[mid] + s[hi]))
        for lo, mid, hi in _TRIPLES
    ]
    return np.array(f2)[_TRIPLE_AT].reshape(4, 4, 4)


def _newton_system(t: float, p: _Point):
    """Gradient and Hessian of the barrier objective in x, and the scaled
    tangents ``B_c,k = s_c^-1/2 V_c† T_c,k V_c s_c^-1/2`` of sigma and
    sigma^G as a (2, 15, 32) float view.

    In an eigenbasis, -ln det has gradient -tr(B) and Hessian tr(B_k B_l)
    summed over both cones; -t tr(rho ln sigma) has gradient -t rt * f1 and
    Hessian kernel f2[i, m, j] rt[j, i] on the unscaled tangents.  For
    Hermitian X, Y, tr(XY) is the dot product of their float views."""
    # vec(V† T V) = vec(T) @ K with K[(i, j), (a, b)] = conj(V[i, a]) V[j, b].
    kron = (p.v.conj()[:, :, None, :, None] * p.v[:, None, :, None, :]).reshape(2, 16, 16)
    tan = _TANGENTS @ kron
    scaled = (tan * (p.s[:, :, None] * p.s[:, None, :]).reshape(2, 1, 16) ** -0.5).view(float)
    f1 = _log_first_differences(p.s[0])
    grad = -(tan[0].view(float) @ (t * (p.rt * f1)).view(float).ravel())
    grad -= scaled[:, :, _DIAG_RE].sum(axis=(0, 2))
    hess = (scaled @ scaled.swapaxes(1, 2)).sum(axis=0)
    # sum_{i,m,j} tan_k[i, m] f2[m, i, j] rt[j, i] tan_l[m, j], over i first.
    tan0 = tan[0].reshape(15, 4, 4)
    ys = tan0.transpose(2, 0, 1) @ (_log_second_differences(p.s[0], f1) * p.rt.T)
    cross = (ys.transpose(1, 0, 2).reshape(15, 16) @ tan[0].T).real
    return grad, hess - t * (cross + cross.T), scaled


def _dual_gap(p: _Point, t: float | None = None) -> float:
    """``lambda_max(D + Q^G) - tr(sigma D)`` in nats for the better of
    ``Q = [(I - D)^G]_+`` and, with t given, ``(sigma^G)^-1 / t``, which
    stays tight where sigma >= 0 is active too (rank-deficient rho)."""
    dt = p.rt * _log_first_differences(p.s[0])
    d = p.v[0] @ dt @ p.v[0].conj().T
    lam, u = eigh(partial_transpose(IDENTITY_4 - d))
    multipliers = [(u * np.clip(lam, 0.0, None)) @ u.conj().T]
    if t is not None:
        multipliers.append((p.v[1] / (t * p.s[1])) @ p.v[1].conj().T)
    tops = eigvalsh(d + partial_transpose(np.stack(multipliers)))
    return float(tops[:, -1].min()) - float(p.s[0] @ dt.diagonal().real)


def _boundary_step(dx: np.ndarray, scaled: np.ndarray) -> float:
    """0.99 of the step along dx to the nearer cone's boundary, at most 1.
    In each cone's eigenbasis diag(s) + a M > 0 iff a < -1/lambda_min of
    ``s^-1/2 M s^-1/2``, which is ``dx @ scaled`` for both cones at once."""
    move = (dx @ scaled).view(complex).reshape(2, 4, 4)
    return -0.99 / min(eigvalsh(move)[:, 0].min(), -0.99)


def _barrier_solve(rho: np.ndarray, lowest_pt: float):
    """Newton steps along the central path up to t = _T_FINAL: returns the
    last point, the steps taken and the last t.

    Rounds run j = k, ..., 0 at ``t = _T_FINAL / _T_GROWTH**j``, k the
    largest j that puts the first t at or above 8/gap of the start, so t0
    lies in [8/gap, 800/gap); a start whose gap is at its floor of
    8/_T_FINAL or below takes one round, k = 0.  The last round is told by j, not by t, as
    repeated products can miss ``8 / 1e-9 = 7999999999.999999``; it is
    centred to _CENTERED_FINAL.

    The Hessian dominates that of the log-det barriers, so a decrement below
    1 keeps a whole step inside their Dikin ellipsoid, hence inside both
    cones.  Longer steps start at _boundary_step and backtrack (Armijo).
    """
    mix = min(1.0, 2.0 * abs(lowest_pt) / (0.25 + abs(lowest_pt)))
    x = 4.0 * (1.0 - mix) * (_TANGENTS_RE[0] @ rho.reshape(16).view(float))
    p = _point(rho, x)
    gap = max(_dual_gap(p), _BARRIER_DEGREE / _T_FINAL)
    # At the gap's floor the product rounds to just under 8, so the log can
    # fall below 0; such a start still takes its one round at _T_FINAL.
    rounds = max(0, math.floor(math.log(_T_FINAL * gap / _BARRIER_DEGREE, _T_GROWTH)))
    steps = 0
    for j in range(rounds, -1, -1):
        t = _T_FINAL / _T_GROWTH**j
        value, decrement = _barrier(t, p), math.inf
        while decrement > (_CENTERED if j else _CENTERED_FINAL) and steps < _MAX_STEPS:
            grad, hess, scaled = _newton_system(t, p)
            try:
                dx = solve(hess, -grad)
            except LinAlgError:
                dx = np.full(15, np.nan)
            decrement, steps = -float(grad @ dx), steps + 1
            if not decrement >= 0.0:  # roundoff left the Hessian singular or indefinite
                return p, steps, t
            whole = decrement <= _FULL_STEP
            alpha = 1.0 if whole else _boundary_step(dx, scaled)
            for _ in range(40):
                trial = _point(rho, p.x + alpha * dx)
                new = _barrier(t, trial)
                if new <= value - 0.25 * alpha * decrement or (whole and new < math.inf):
                    p, value = trial, new
                    break
                alpha *= 0.5
            else:
                break  # no resolvable decrease left at this t
        if steps >= _MAX_STEPS:
            break
    return p, steps, t


def ree(rho: np.ndarray, cfg: ReeSolverConfig | None = None) -> ReeSolution:
    """Relative entropy of entanglement in bits, with its closest state.

    The lowest partial-transpose eigenvalue decides the PPT short-circuit
    (value 0, the input as its own closest state) and sets the barrier
    start.  ``cfg`` is ignored.
    """
    rho = np.asarray(rho, dtype=complex)
    lowest = _lowest_pt_eigenvalue(rho)
    if _ppt(lowest):
        return ReeSolution(
            value=0.0, closest_state=rho.copy(), iterations=0, converged=True, gap=0.0
        )
    with lapack_guard():
        point, steps, t = _barrier_solve(rho, lowest)
        gap = _dual_gap(point, t)
    if not _ppt(point.s[1, 0]):
        raise ArithmeticError("solver produced a non-PPT candidate state")
    closest = _sigmas(point.x)[0]
    value, gap_bits = relative_entropy(rho, closest), gap / LN2
    value = clip_roundoff(value, 0.0, 1.0, "REE", gap_bits + _DIVERGENCE_ROUNDOFF)
    return ReeSolution(
        value=value,
        closest_state=closest,
        iterations=steps,
        converged=gap <= _GAP_TOL_NATS,
        gap=gap_bits,
    )

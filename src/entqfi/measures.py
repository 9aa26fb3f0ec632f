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
lowest eigenvalue of rho^G, raising t a hundredfold per round from
``8 / gap`` until the barrier's own bound 8/t is 1e-9 nats.  Divided
differences of ln in sigma's eigenbasis give the gradient D of
``tr(rho ln sigma)`` and its Hessian (Daleckii-Krein), degenerate spectra
included.  No random numbers are drawn.

Certificate.  S(rho||.) is convex with gradient -D, and for any ``Q >= 0``
weak duality gives ``tr(sigma* D) <= lambda_max(D + Q^G)`` over PPT sigma*,
so ``gap = lambda_max(D + Q^G) - tr(sigma D)`` bounds how far S(rho||sigma)
lies above REE.  ``Q = [(I - D)^G]_+`` is the multiplier that the KKT
condition ``D + Q^G = I`` singles out; the barrier's own
``(sigma^G)^-1 / t`` is priced too.  A gap within 2e-5 nats (about 3e-5
bits, far inside the 5e-3 oracle tolerance) counts as converged.  The
closest state is strictly interior, so full rank and PPT; the value is
recomputed as S(rho||closest).  The solver works in nats, reports bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import (
    IDENTITY_4,
    PAULI_PRODUCTS,
    herm_eig,
    partial_trace,
    partial_transpose,
    relative_entropy,
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
# of sigma and sigma^G in x_k; ^G flips the products whose B factor is sigma_y.
_PAULI_15 = PAULI_PRODUCTS.reshape(16, 16)[1:]
_TANGENTS = 0.25 * np.stack(
    [_PAULI_15, np.where(np.arange(1, 16) % 4 == 2, -1.0, 1.0)[:, None] * _PAULI_15]
)
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
# Each flat triple (i, m, j) sorted, which for ascending s sorts it by
# value; _RISE_AT picks f1[mid, hi] and f1[lo, mid] from the flat f1.
_TRIPLES = np.sort(np.indices((4, 4, 4)).reshape(3, 64), axis=0)
_RISE_AT = np.stack([4 * _TRIPLES[1] + _TRIPLES[2], 4 * _TRIPLES[0] + _TRIPLES[1]])
_COINCIDENT = 1e-5  # relative spread below which three eigenvalues coincide


@dataclass(frozen=True)
class ReeSolverConfig:
    """REE settings that the barrier solver ignores, kept with the check on
    ``components`` because the benchmark
    (``benchmarks/workloads.py::_ree_config``) passes them."""

    components: int = 5
    multistarts: int = 5
    max_sweeps: int = 10000
    threshold: float = 1e-7
    rng: np.random.Generator | None = None

    def __post_init__(self):
        if not 2 <= self.components <= 5:
            raise ValueError(f"REE components must lie in 2..5, got {self.components!r}")


@dataclass(frozen=True)
class ReeSolution:
    """``gap`` is the certified optimality gap of ``value`` in bits and
    ``converged`` says it is within tolerance.  ``iterations`` counts Newton
    steps: at least one if entangled, zero for the separable short-circuit."""

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
    rho = np.asarray(rho, dtype=complex)
    spec = herm_eig(rho)
    root = (
        spec.eigenvectors * np.sqrt(np.clip(spec.eigenvalues, 0.0, None))
    ) @ spec.eigenvectors.conj().T
    vals = np.linalg.svd(root.conj() @ _SPIN_FLIP @ root, compute_uv=False)
    return float(np.clip(vals[0] - vals[1] - vals[2] - vals[3], 0.0, 1.0))


def negativity(rho: np.ndarray) -> float:
    """Twice the total magnitude of negative partial-transpose eigenvalues."""
    vals = np.linalg.eigvalsh(partial_transpose(rho))
    return min(1.0, max(0.0, -2.0 * float(vals[vals < 0.0].sum())))


def is_separable(rho: np.ndarray) -> bool:
    """PPT test, exact for two qubits."""
    vals = np.linalg.eigvalsh(partial_transpose(rho))
    return bool(vals[0] >= -SEPARABILITY_EIG_TOL)


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
    s, v = np.linalg.eigh(_sigmas(x))
    return _Point(x, s, v, v[0].conj().T @ rho @ v[0])


def _barrier(t: float, p: _Point) -> float:
    """The barrier objective less t tr(rho ln rho); inf off the cones."""
    if p.s[:, 0].min() <= 0.0:
        return math.inf
    logs = np.log(p.s)
    return -t * float(p.rt.diagonal().real @ logs[0]) - float(logs.sum())


def _log_first_differences(s: np.ndarray) -> np.ndarray:
    """f1[i, j] = (ln s_i - ln s_j) / (s_i - s_j), 1/s_i where they are
    equal; log1p of the spacing keeps nearby pairs from cancelling."""
    gap = np.abs(s[:, None] - s[None, :])
    low = np.minimum(s[:, None], s[None, :])
    apart = gap > 0.0
    return np.where(apart, np.log1p(gap / low) / np.where(apart, gap, 1.0), 1.0 / low)


def _log_second_differences(s: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """f2[i, m, j], the second divided difference of ln at (s_i, s_m, s_j)
    for ascending s: ``(f1[mid, hi] - f1[lo, mid]) / (s_hi - s_lo)`` over
    the sorted triple, the widest spacing, or ``-1/(2 mean^2)`` (error
    O(spread^2)) where all three lie within _COINCIDENT."""
    lo, mid, hi = s[_TRIPLES]
    spread = hi - lo
    near = spread <= _COINCIDENT * hi
    rise = np.subtract(*f1.ravel()[_RISE_AT])
    f2 = np.where(near, -4.5 / (lo + mid + hi) ** 2, rise / np.where(near, 1.0, spread))
    return f2.reshape(4, 4, 4)


def _newton_system(t: float, p: _Point):
    """Gradient and Hessian of the barrier objective in x, and the tangents
    ``V† T_k V`` in the eigenbases of sigma and sigma^G as float views.

    In an eigenbasis, -ln det has gradient -diag(1/s) and Hessian kernel
    1/(s_a s_b); -t tr(rho ln sigma) has gradient -t rt * f1 and Hessian
    kernel f2[i, m, j] rt[j, i].  For Hermitian X, Y, tr(XY) is the dot
    product of their float views."""
    # vec(V† T V) = vec(T) @ K with K[(i, j), (a, b)] = conj(V[i, a]) V[j, b].
    kron = (p.v.conj()[:, :, None, :, None] * p.v[:, None, :, None, :]).reshape(2, 16, 16)
    tan = (_TANGENTS @ kron).view(float)
    inv = 1.0 / p.s
    f1 = _log_first_differences(p.s[0])
    weights = np.zeros((2, 32))
    weights[0] = (t * (p.rt * f1)).view(float).ravel()
    weights[:, _DIAG_RE] += inv
    grad = -(tan[0] @ weights[0] + tan[1] @ weights[1])
    kernel = np.repeat((inv[:, :, None] * inv[:, None, :]).reshape(2, 16), 2, axis=1)
    hess = ((tan * kernel[:, None]) @ tan.swapaxes(1, 2)).sum(axis=0)
    # sum_{i,m,j} tan_k[i, m] f2[m, i, j] rt[j, i] tan_l[m, j], over i first.
    tan0 = tan[0].view(complex).reshape(15, 4, 4)
    ys = tan0.transpose(2, 0, 1) @ (_log_second_differences(p.s[0], f1) * p.rt.T)
    cross = (ys.transpose(1, 0, 2).reshape(15, 16) @ tan0.reshape(15, 16).T).real
    return grad, hess - t * (cross + cross.T), tan


def _dual_gap(p: _Point, t: float | None = None) -> float:
    """``lambda_max(D + Q^G) - tr(sigma D)`` in nats for the better of
    ``Q = [(I - D)^G]_+`` and, with t given, ``(sigma^G)^-1 / t``, which
    stays tight where sigma >= 0 is active too (rank-deficient rho)."""
    dt = p.rt * _log_first_differences(p.s[0])
    d = p.v[0] @ dt @ p.v[0].conj().T
    lam, u = np.linalg.eigh(partial_transpose(IDENTITY_4 - d))
    multipliers = [(u * np.clip(lam, 0.0, None)) @ u.conj().T]
    if t is not None:
        multipliers.append((p.v[1] / (t * p.s[1])) @ p.v[1].conj().T)
    top = min(float(np.linalg.eigvalsh(d + partial_transpose(q))[-1]) for q in multipliers)
    return top - float(p.s[0] @ dt.diagonal().real)


def _barrier_solve(rho: np.ndarray, lowest_pt: float):
    """Newton steps along the central path up to t = _T_FINAL: returns the
    last point, the steps taken and the last t.

    The Hessian dominates that of the log-det barriers, so a decrement below
    1 keeps a whole step inside their Dikin ellipsoid, hence inside both
    cones.  Longer steps stop at 0.99 of the way to the boundary, read in
    the current eigenbases (diag(s) + a M > 0 iff a < -1/lambda_min(M/√ss')),
    and backtrack (Armijo).
    """
    mix = min(1.0, 2.0 * abs(lowest_pt) / (0.25 + abs(lowest_pt)))
    x = 4.0 * (1.0 - mix) * (_TANGENTS_RE[0] @ rho.reshape(16).view(float))
    p = _point(rho, x)
    t = _BARRIER_DEGREE / max(_dual_gap(p), _BARRIER_DEGREE / _T_FINAL)
    steps = 0
    while True:
        value, decrement = _barrier(t, p), math.inf
        while decrement > (_CENTERED_FINAL if t >= _T_FINAL else _CENTERED) and steps < _MAX_STEPS:
            grad, hess, tan = _newton_system(t, p)
            try:
                dx = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                dx = np.full(15, np.nan)
            decrement, steps = -float(grad @ dx), steps + 1
            if not decrement >= 0.0:  # roundoff left the Hessian singular or indefinite
                return p, steps, t
            whole, alpha = decrement <= _FULL_STEP, 1.0
            if not whole:
                r = 1.0 / np.sqrt(p.s)
                move = (dx @ tan).view(complex).reshape(2, 4, 4) * r[:, :, None] * r[:, None, :]
                alpha = -0.99 / min(np.linalg.eigvalsh(move)[:, 0].min(), -0.99)
            for _ in range(40):
                trial = _point(rho, p.x + alpha * dx)
                new = _barrier(t, trial)
                if new <= value - 0.25 * alpha * decrement or (whole and new < math.inf):
                    p, value = trial, new
                    break
                alpha *= 0.5
            else:
                break  # no resolvable decrease left at this t
        if t >= _T_FINAL or steps >= _MAX_STEPS:
            return p, steps, t
        t = min(t * _T_GROWTH, _T_FINAL)


def ree(rho: np.ndarray, cfg: ReeSolverConfig | None = None) -> ReeSolution:
    """Relative entropy of entanglement in bits, with its closest state.

    One partial-transpose spectrum decides the PPT short-circuit (value 0,
    the input as its own closest state) and sets the barrier start.
    ``cfg`` is ignored.
    """
    rho = np.asarray(rho, dtype=complex)
    lowest = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
    if lowest >= -SEPARABILITY_EIG_TOL:
        return ReeSolution(
            value=0.0, closest_state=rho.copy(), iterations=0, converged=True, gap=0.0
        )
    point, steps, t = _barrier_solve(rho, lowest)
    gap = _dual_gap(point, t)
    closest = _sigmas(point.x)[0]
    if not is_separable(closest):
        raise ArithmeticError("solver produced a non-PPT candidate state")
    return ReeSolution(
        value=relative_entropy(rho, closest),
        closest_state=closest,
        iterations=steps,
        converged=gap <= _GAP_TOL_NATS,
        gap=gap / LN2,
    )

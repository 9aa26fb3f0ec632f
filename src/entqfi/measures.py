"""Two-qubit entanglement measures: concurrence, negativity, PPT, REE.

Concurrence and negativity are closed-form spectral quantities.  The
relative entropy of entanglement (REE) has no closed form for general
states, so it is minimized numerically over the separable set.

REE solver
----------
The candidate separable state mixes product pure states with weights w_m
and Bloch vectors a_m, b_m.  In the Pauli basis ``sigma_u ⊗ sigma_v``,
u, v in (I, x, y, z) (``states.PAULI_PRODUCTS``), it is
``sigma = 1/4 sum_uv C_uv sigma_u ⊗ sigma_v`` with
``C = sum_m w_m (1, a_m)(1, b_m)^T``, plus a 1e-9 identity admixture that
keeps S(rho || sigma) finite while the mixture is rank deficient.

With ``sigma = V diag(s) V†`` and ``rt = V† rho V``, the kernel
``Phi_ij = (ln s_i - ln s_j)/(s_i - s_j)`` (diagonal ``1/s_i``) gives the
Frechet derivative ``D = V (rt * Phi) V†`` of ``tr(rho ln sigma)``.  One
real 4x4 matrix ``T_uv = tr((sigma_u ⊗ sigma_v) D)`` prices every product
projector, ``tr(Pi D) = (1, a)·T·(1, b) / 4``, so T alone gives the
L-BFGS-B gradient (softmax weights, unnormalized Bloch vectors), the
alternating ascent to the best product projector, and the duality gap
``max tr(Pi D) - tr(sigma D)``: the problem is convex over the separable
set, so the true minimum is at least ``f - gap``.

Each start draws up to five product states (a two-qubit separable state
needs at most four; Sanpera, Tarrach & Vidal, PRA 58, 826, 1998),
polishes them once with L-BFGS-B and prices one certificate.  The largest
lower bound over the starts so far certifies the lowest value found; the
search stops once that certificate is below 2e-5 nats (about 3e-5 bits),
far inside the 5e-3 oracle tolerance.  A start cut off at L-BFGS-B's
iteration cap has not finished, so if the value is still uncertified the
next start resumes from its mixture instead of drawing a fresh one.

Internally the solver works in nats; all reported values are bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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

_EPS_MIX = 1e-9
_GAP_TOL_NATS = 2e-5
# Row 4u + v is sigma_u ⊗ sigma_v flattened, so sums over (u, v) are matmuls.
_PAULI_ROWS = PAULI_PRODUCTS.reshape(16, 16)


@dataclass(frozen=True)
class ReeSolverConfig:
    """REE solver settings.

    Each start mixes ``components`` product states, 2 to 5; up to
    ``multistarts`` starts run, drawing from ``rng``.  ``max_sweeps`` and
    ``threshold`` are unused: they are kept only because the benchmark
    (``benchmarks/workloads.py::_ree_config``) passes them.
    """

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
    """``gap`` is the certified optimality gap of ``value`` in bits, not
    negative beyond roundoff, and ``converged`` says that it is within the
    solver tolerance."""

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


def _lift(bloch: np.ndarray) -> np.ndarray:
    """Bloch vectors a -> (1, a) along the last axis."""
    return np.concatenate([np.ones(bloch.shape[:-1] + (1,)), bloch], axis=-1)


def _mixture(weights: np.ndarray, bloch_a: np.ndarray, bloch_b: np.ndarray) -> np.ndarray:
    corr = (weights[:, None] * _lift(bloch_a)).T @ _lift(bloch_b)
    sigma = 0.25 * (corr.reshape(16) @ _PAULI_ROWS).reshape(4, 4)
    return (1.0 - _EPS_MIX) * sigma + (_EPS_MIX / 4.0) * IDENTITY_4


def _log_trace(rho: np.ndarray) -> float:
    """tr(rho ln rho) in nats; the constant part of the objective."""
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    live = vals[vals > 1e-15]
    return float(np.sum(live * np.log(live)))


def _pauli_correlations(d_mat: np.ndarray) -> np.ndarray:
    """T_uv = tr((sigma_u ⊗ sigma_v) D), real for Hermitian D."""
    return (_PAULI_ROWS @ d_mat.T.reshape(16)).real.reshape(4, 4)


def _objective_parts(rho: np.ndarray, sigma: np.ndarray, h_rho: float):
    """Objective f = S(rho||sigma) in nats and the Pauli correlations T of
    its gradient D, so that ``tr(Pi D) = (1, a)·T·(1, b) / 4``."""
    s, basis = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    s = np.clip(s, 1e-300, None)
    log_s = np.log(s)
    rt = basis.conj().T @ rho @ basis
    f = h_rho - float(np.clip(rt.diagonal().real, 0.0, None) @ log_s)
    gaps = s[:, None] - s[None, :]
    np.fill_diagonal(gaps, 1.0)
    phi = (log_s[:, None] - log_s[None, :]) / gaps
    np.fill_diagonal(phi, 1.0 / s)
    return f, _pauli_correlations(basis @ (rt * phi) @ basis.conj().T)


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _toward(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Rows of v scaled to unit length; a vanishing row keeps its fallback."""
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    return np.where(norm > 1e-14, v / np.maximum(norm, 1e-14), fallback)


def _best_atom(t, bloch_a, bloch_b, rng):
    """Largest tr(Pi D) over product states Pi, by alternating Bloch ascent.

    Each half-step is the exact maximizer given the other factor, so the
    score climbs monotonically.  The ascent starts from every atom of the
    mixture, so the result is at least their weighted mean tr(sigma D) and
    the gap is not negative beyond roundoff; three random starts guard
    against saddles.  All starts climb together, one row each.
    """
    rand_a, rand_b = zip(*[(_random_unit(rng), _random_unit(rng)) for _ in range(3)])
    a, b = np.vstack([bloch_a, rand_a]), np.vstack([bloch_b, rand_b])
    for _ in range(30):
        a = _toward(_lift(b) @ t[1:].T, a)
        b = _toward(_lift(a) @ t[:, 1:], b)
    return 0.25 * float(np.max(np.sum((_lift(a) @ t) * _lift(b), axis=1)))


def _unpack(x: np.ndarray, m: int):
    logits = x[:m]
    ua = x[m : 4 * m].reshape(m, 3)
    ub = x[4 * m :].reshape(m, 3)
    shifted = np.exp(logits - logits.max())
    weights = shifted / shifted.sum()
    norm_a = np.maximum(np.linalg.norm(ua, axis=1), 1e-12)
    norm_b = np.maximum(np.linalg.norm(ub, axis=1), 1e-12)
    return weights, ua / norm_a[:, None], ub / norm_b[:, None], norm_a, norm_b


def _pack(weights: np.ndarray, bloch_a: np.ndarray, bloch_b: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [np.log(np.maximum(weights, 1e-300)), bloch_a.ravel(), bloch_b.ravel()]
    )


def _value_and_grad(x: np.ndarray, rho: np.ndarray, h_rho: float, m: int):
    weights, a, b, norm_a, norm_b = _unpack(x, m)
    f, t = _objective_parts(rho, _mixture(weights, a, b), h_rho)
    # Row m of t_b is T·(1, b_m) and of t_a is (1, a_m)·T: the derivatives of
    # the score (1, a_m)·T·(1, b_m)/4 in a_m and b_m, past their first entry.
    lift_a = _lift(a)
    t_b, t_a = _lift(b) @ t.T, lift_a @ t
    scale = -0.25 * (1.0 - _EPS_MIX)
    dw = scale * np.sum(lift_a * t_b, axis=1)
    d_logits = weights * (dw - float(weights @ dw))
    grad_a = scale * weights[:, None] * t_b[:, 1:]
    grad_b = scale * weights[:, None] * t_a[:, 1:]
    # Chain through the normalization u -> u/|u|: keep the tangential part.
    grad_ua = (grad_a - np.sum(grad_a * a, axis=1, keepdims=True) * a) / norm_a[:, None]
    grad_ub = (grad_b - np.sum(grad_b * b, axis=1, keepdims=True) * b) / norm_b[:, None]
    return f, np.concatenate([d_logits, grad_ua.ravel(), grad_ub.ravel()])


def _solve_once(rho, h_rho, m, rng: np.random.Generator, resume=None):
    """One start from m random product states, or from the mixture
    ``resume``: one L-BFGS-B polish and one certificate.

    Returns (f, gap, params, sweeps, capped) with f and gap in nats and
    params = (weights, bloch_a, bloch_b); f - gap is a lower bound on the
    minimum.  ``capped`` is params if the polish hit its iteration cap.
    """
    if resume is None:
        bloch_a = np.stack([_random_unit(rng) for _ in range(m)])
        bloch_b = np.stack([_random_unit(rng) for _ in range(m)])
        resume = (np.full(m, 1.0 / m), bloch_a, bloch_b)
    result = minimize(
        _value_and_grad,
        _pack(*resume),
        args=(rho, h_rho, m),
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": 150, "ftol": 1e-14, "gtol": 1e-9},
    )
    params = _unpack(result.x, m)[:3]
    f, t = _objective_parts(rho, _mixture(*params), h_rho)
    score = _best_atom(t, *params[1:], rng)
    gap = (1.0 - _EPS_MIX) * score - 1.0 + _EPS_MIX * t[0, 0] / 4.0
    capped = params if result.status == 1 else None
    return f, gap, params, int(result.nit) + 1, capped


def ree(rho: np.ndarray, cfg: ReeSolverConfig | None = None) -> ReeSolution:
    """Relative entropy of entanglement in bits, with its closest state.

    Separable inputs short-circuit to zero with the input itself as the
    closest state.  Otherwise the lowest start is returned; its explicit
    product form is re-verified PPT, and the reported value is recomputed
    as the relative entropy against that returned state so the two agree
    to machine precision.
    """
    cfg = cfg or ReeSolverConfig()
    rho = np.asarray(rho, dtype=complex)
    if is_separable(rho):
        return ReeSolution(
            value=0.0, closest_state=rho.copy(), iterations=0, converged=True, gap=0.0
        )
    rng = cfg.rng if cfg.rng is not None else np.random.default_rng(0)
    h_rho = _log_trace(rho)
    best_f, best_params, lower = math.inf, None, -math.inf
    total_sweeps, resume = 0, None
    for _ in range(max(1, cfg.multistarts)):
        f, gap, params, sweeps, resume = _solve_once(rho, h_rho, cfg.components, rng, resume)
        total_sweeps += sweeps
        lower = max(lower, f - gap)
        if best_params is None or f < best_f:
            best_f, best_params = f, params
        if best_f - lower <= _GAP_TOL_NATS:
            break
    closest = _mixture(*best_params)
    closest = 0.5 * (closest + closest.conj().T)
    if not is_separable(closest):
        raise ArithmeticError("solver produced a non-PPT candidate state")
    value = relative_entropy(rho, closest)
    return ReeSolution(
        value=max(0.0, value),
        closest_state=closest,
        iterations=total_sweeps,
        converged=best_f - lower <= _GAP_TOL_NATS,
        gap=(best_f - lower) / LN2,
    )

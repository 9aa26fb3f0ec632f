"""Two-qubit entanglement measures: concurrence, negativity, PPT, REE.

Concurrence and negativity are closed-form spectral quantities.  The
relative entropy of entanglement (REE) has no closed form for general
states, so it is minimized numerically over the separable set.

REE solver
----------
The candidate separable state is an explicit convex mixture of product
pure states,

    sigma = sum_m w_m |a_m><a_m| ⊗ |b_m><b_m|,

with weights on the simplex and each factor parameterized by its Bloch
vector; a 1e-9 identity admixture keeps S(rho || sigma) finite while the
mixture is still rank deficient.  Each start draws at most five random
product states (a two-qubit separable state needs at most four; Sanpera,
Tarrach & Vidal, PRA 58, 826, 1998) and polishes all parameters at once
with L-BFGS-B (softmax weights, unnormalized Bloch vectors, analytic
gradients).

The polished point is then priced by one spectral computation: with
``sigma = V diag(s) V†`` and ``rt = V† rho V``, the divided-difference
kernel ``Phi_ij = (ln s_i - ln s_j)/(s_i - s_j)`` (diagonal ``1/s_i``)
gives the Frechet derivative ``D = V (rt * Phi) V†`` of
``tr(rho log sigma)``, and ``tr(Pi D)`` for a product state is an affine
function of its Bloch vectors.  Because the problem is convex over the
separable set, ``max tr(Pi D) - tr(sigma D)`` is a duality gap: the true
minimum is at least ``f - gap``.  The largest of these lower bounds over
the starts run so far certifies the lowest value found, and the search
stops once that certificate is below 2e-5 nats (about 3e-5 bits), far
inside the 5e-3 oracle tolerance; otherwise the next start runs.

Internally the solver works in nats; all reported values are bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .states import (
    IDENTITY_2,
    IDENTITY_4,
    PAULI,
    SIGMA_Y,
    herm_eig,
    kron,
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
_SPIN_FLIP = kron(SIGMA_Y, SIGMA_Y)

_EPS_MIX = 1e-9
_GAP_TOL_NATS = 2e-5

_SIG = np.stack(PAULI)
_SIG_A = np.stack([kron(sigma, IDENTITY_2) for sigma in PAULI])
_SIG_B = np.stack([kron(IDENTITY_2, sigma) for sigma in PAULI])
_SIG_AB = np.stack([[kron(sa, sb) for sb in PAULI] for sa in PAULI])


@dataclass(frozen=True)
class ReeSolverConfig:
    """REE solver settings.

    Each start mixes ``max(2, min(5, components))`` product states; up to
    ``multistarts`` starts run, drawing from ``rng``.  ``max_sweeps`` and
    ``threshold`` are unused: they are kept only because the benchmark
    (``benchmarks/workloads.py::_ree_config``) passes them.
    """

    components: int = 16
    multistarts: int = 5
    max_sweeps: int = 10000
    threshold: float = 1e-7
    rng: np.random.Generator | None = None


@dataclass(frozen=True)
class ReeSolution:
    """``gap`` is the certified optimality gap of ``value`` in bits, and
    ``converged`` says that it is within the solver tolerance.  The gap
    carries roundoff of order 1e-6 bits, so it can read slightly below 0."""

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


def _product_states(bloch_a: np.ndarray, bloch_b: np.ndarray) -> np.ndarray:
    """Projectors |a><a| ⊗ |b><b| from unit Bloch vectors, shape (m, 4, 4)."""
    qa = 0.5 * (IDENTITY_2 + np.einsum("mk,kij->mij", bloch_a, _SIG))
    qb = 0.5 * (IDENTITY_2 + np.einsum("mk,kij->mij", bloch_b, _SIG))
    return np.einsum("mab,mcd->macbd", qa, qb).reshape(-1, 4, 4)


def _mixture(weights: np.ndarray, bloch_a: np.ndarray, bloch_b: np.ndarray) -> np.ndarray:
    sigma = np.einsum("m,mij->ij", weights, _product_states(bloch_a, bloch_b))
    return (1.0 - _EPS_MIX) * sigma + (_EPS_MIX / 4.0) * IDENTITY_4


def _log_trace(rho: np.ndarray) -> float:
    """tr(rho ln rho) in nats; the constant part of the objective."""
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    live = vals[vals > 1e-15]
    return float(np.sum(live * np.log(live)))


def _objective_parts(rho: np.ndarray, sigma: np.ndarray, h_rho: float):
    """Objective f = S(rho||sigma) in nats plus the atom-pricing contractions.

    Returns (f, tr_d, r_a, r_b, t_ab) where the trailing four give
    ``tr(Pi D) = (tr_d + a·r_a + b·r_b + a·t_ab·b) / 4`` for any product
    projector with Bloch vectors a, b.
    """
    s, basis = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    s = np.clip(s, 1e-300, None)
    rt = basis.conj().T @ rho @ basis
    f = h_rho - float(np.clip(rt.diagonal().real, 0.0, None) @ np.log(s))
    log_s = np.log(s)
    gaps = s[:, None] - s[None, :]
    np.fill_diagonal(gaps, 1.0)
    phi = (log_s[:, None] - log_s[None, :]) / gaps
    np.fill_diagonal(phi, 1.0 / s)
    d_mat = basis @ (rt * phi) @ basis.conj().T
    d_mat = 0.5 * (d_mat + d_mat.conj().T)
    tr_d = float(d_mat.trace().real)
    r_a = np.real(np.einsum("kij,ji->k", _SIG_A, d_mat))
    r_b = np.real(np.einsum("kij,ji->k", _SIG_B, d_mat))
    t_ab = np.real(np.einsum("klij,ji->kl", _SIG_AB, d_mat))
    return f, tr_d, r_a, r_b, t_ab


def _atom_score(tr_d, r_a, r_b, t_ab, a, b) -> float:
    return 0.25 * float(tr_d + a @ r_a + b @ r_b + a @ t_ab @ b)


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _best_atom(tr_d, r_a, r_b, t_ab, bloch_a, bloch_b, weights, rng):
    """Largest tr(Pi D) over product states Pi, by alternating Bloch ascent.

    Each half-step is the exact maximizer given the other factor, so the
    score climbs monotonically; a few restarts guard against saddles.
    """
    starts = [(bloch_a[int(np.argmax(weights))], bloch_b[int(np.argmax(weights))])]
    starts += [(_random_unit(rng), _random_unit(rng)) for _ in range(3)]
    best = -math.inf
    for a, b in starts:
        for _ in range(30):
            va = r_a + t_ab @ b
            norm = np.linalg.norm(va)
            if norm > 1e-14:
                a = va / norm
            vb = r_b + t_ab.T @ a
            norm = np.linalg.norm(vb)
            if norm > 1e-14:
                b = vb / norm
        best = max(best, _atom_score(tr_d, r_a, r_b, t_ab, a, b))
    return best


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
    f, tr_d, r_a, r_b, t_ab = _objective_parts(rho, _mixture(weights, a, b), h_rho)
    scores = 0.25 * (tr_d + a @ r_a + b @ r_b + np.einsum("mk,kl,ml->m", a, t_ab, b))
    scale = -(1.0 - _EPS_MIX)
    dw = scale * scores
    d_logits = weights * (dw - float(weights @ dw))
    grad_a = scale * weights[:, None] * 0.25 * (r_a[None, :] + b @ t_ab.T)
    grad_b = scale * weights[:, None] * 0.25 * (r_b[None, :] + a @ t_ab)
    # Chain through the normalization u -> u/|u|: keep the tangential part.
    grad_ua = (grad_a - np.sum(grad_a * a, axis=1, keepdims=True) * a) / norm_a[:, None]
    grad_ub = (grad_b - np.sum(grad_b * b, axis=1, keepdims=True) * b) / norm_b[:, None]
    return f, np.concatenate([d_logits, grad_ua.ravel(), grad_ub.ravel()])


def _solve_once(rho, h_rho, m, rng: np.random.Generator):
    """One start: m random product states, one L-BFGS-B polish, one certificate.

    Returns (f, gap, (weights, bloch_a, bloch_b), sweeps) with f and gap in
    nats; f - gap is a lower bound on the minimum over the separable set.
    """
    bloch_a = np.stack([_random_unit(rng) for _ in range(m)])
    bloch_b = np.stack([_random_unit(rng) for _ in range(m)])
    weights = np.full(m, 1.0 / m)
    result = minimize(
        _value_and_grad,
        _pack(weights, bloch_a, bloch_b),
        args=(rho, h_rho, m),
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": 150, "ftol": 1e-14, "gtol": 1e-9},
    )
    weights, bloch_a, bloch_b, _, _ = _unpack(result.x, m)
    f, tr_d, r_a, r_b, t_ab = _objective_parts(rho, _mixture(weights, bloch_a, bloch_b), h_rho)
    score = _best_atom(tr_d, r_a, r_b, t_ab, bloch_a, bloch_b, weights, rng)
    gap = (1.0 - _EPS_MIX) * score - 1.0 + _EPS_MIX * tr_d / 4.0
    return f, gap, (weights, bloch_a, bloch_b), int(result.nit) + 1


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
    m = max(2, min(5, cfg.components))
    best_f, best_params, lower = math.inf, None, -math.inf
    total_sweeps = 0
    for _ in range(max(1, cfg.multistarts)):
        f, gap, params, sweeps = _solve_once(rho, h_rho, m, rng)
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

"""Two-qubit entanglement measures: concurrence, negativity, PPT, REE.

Concurrence and negativity are closed-form; the relative entropy of
entanglement (REE) is minimized numerically.

REE solver.  For two qubits PPT equals separability (Horodecki, Horodecki &
Horodecki, PLA 223, 1, 1996), so REE is ``min S(rho||sigma)`` over
``sigma >= 0``, ``sigma^G >= 0`` (partial transpose on B), ``tr sigma = 1``,
convex in the Pauli coordinates x of ``sigma = I/4 + 1/4 sum_k x_k P_k``.
Divided differences of ln in sigma's eigenbasis give the gradient D of
``tr(rho ln sigma)`` and its Hessian (Daleckii-Krein), degenerate spectra
included.  No random numbers are drawn.

Face polish.  For an entangled rho the optimum lies on the face
``lambda_min(sigma^G) = 0``, and Newton steps solve the KKT system of
``min S(rho||sigma)`` there: 16 unknowns, x and the multiplier mu.  Its
solutions are the inverse-problem states of Miranowicz & Ishizaka (PRA 78,
032310, 2008), ``D ln_sigma[rho] = I - mu (|phi><phi|)^G`` with phi the
kernel of sigma^G, so the solve ends on the PPT boundary with no 1/t bias.
``_start_chain`` hands the polish its starts as one chain: the
first-order solution of that inverse
problem, ``sigma_1 ~ rho + c G_rho[(|phi><phi|)^G]`` with ``G = (D ln)^-1``,
(e, phi) the lowest eigenpair of rho^G and c putting lambda_min(sigma_1^G)
on 0 to first order, lifted onto the face; then, where sigma_1 left a state
unstarted, ``sigma_0 = (rho - e (|phi><phi|)^G) / (1 - e)``; the barrier
runs where both fail.  Every step of the chain names a state by its
row of the chunk's stack, and both polishes write into one outcome list.
Over the 1833 entangled states of master seeds 1-4 and 15, sigma_1 starts
1818, sigma_0 15 (8 under _FIRST_ORDER_FLOOR, 7 with a least-squares
mu <= 0), the barrier none.  mu starts at its least-squares value; a step
that would leave sigma > 0 or mu > 0 is damped.  Each start's polish runs
stacked over its states: each keeps its own mu, damping, step count and
convergence, and leaves the stack as it converges or fails; a singular KKT
matrix, found by solving each system of the stack alone, ends only its own
state's polish.  The divided differences of ln stay scalar ``math.log1p``,
looped per state, as numpy's logarithms differ in the last bit.
``ree(rho)`` alone runs the same chain, and the same certificate, as a
stack of one.

Barrier fallback.  Where no start serves or the polish fails (sigma >= 0
active at the optimum: pure and rank-deficient rho), the barrier method
(Boyd & Vandenberghe, Convex Optimization, 11.3), run for that state
alone, takes damped Newton steps on ``t S(rho||sigma) - ln det sigma - ln det sigma^G``
from ``(1 - l) rho + l I/4``, ``l = min(1, 2|e| / (1/4 + |e|))``.  The
rounds are ``t = T / 100^j`` for j falling to 0, where ``T = 8 / 1e-9``
puts the barrier's own bound 8/t at 1e-9 nats and the first j is the
largest with ``t >= 8 / gap`` at the start: every round raises t a whole
hundredfold and the last ends on T exactly.  The barrier stays:
S(rho||sigma) is finite only if ker sigma lies in ker rho, so for a
full-rank rho, as every sampled state is, the closest state is full rank and
the polish is the whole solve; sigma >= 0 can be active only for a
rank-deficient rho, which does not fix ker sigma* (for a pure rho it is the
Schmidt complement, Vedral & Plenio, PRA 57, 1619, 1998), and a joint-face
polish would have to carry that kernel as an unknown.

Certificate.  S(rho||.) is convex with gradient -D, and for any ``Q >= 0``
weak duality gives ``tr(sigma* D) <= lambda_max(D + Q^G)`` over PPT sigma*,
so ``gap = lambda_max(D + Q^G) - tr(sigma D)`` bounds how far S(rho||sigma)
lies above REE.  ``Q = [(I - D)^G]_+`` is the multiplier that the KKT
condition ``D + Q^G = I`` singles out, and it is tight on the face; after
the barrier, ``(sigma^G)^-1 / t`` is priced too.  The reported gap adds a
measured bound on its own evaluation roundoff, 1e-13 nats plus 2.5
eps / lambda_min(sigma), so it is never negative.  A gap within 2e-5 nats
(about 3e-5 bits) counts as converged.  The closest state is full rank and
PPT: on the PPT boundary after the polish, strictly interior after the
barrier; the value is recomputed as S(rho||closest) from the spectra of
rho and of the closest state that the solve holds.  ``_ree_inputs``
certifies a chunk's entangled states in one stacked pass, after the
barrier has solved, state by state, those the chain left unpolished: the
dual gaps, the ``_ppt`` check of each last sigma^G, the closest states,
the divergences and, per state, the range rule with its own gap.  The
solver works in nats, reports bits.  Its spectra and Newton solves run on
the LAPACK kernels of ``states`` under one ``lapack_guard()`` per chunk:
a failed spectrum raises ``EigendecompositionError``, and a chunk that
fails reruns state by state to name it; a singular KKT matrix ends its
state's polish, a singular barrier Hessian the solve, where it is.

Value rule.  Concurrence, negativity and REE lie in [0, 1] under the one
range rule ``states.clip_roundoff``; REE's slack adds its certified gap
(|Phi+> reads 1 + 1.8e-10 bits, gap 2.7e-10).  For two qubits rho^G has at
most one negative eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826, 1998).
Its lowest eigenvalue lambda_min decides PPT (``_ppt``) and the negativity,
which ``_negativities`` reads as 0 where PPT holds and -2 lambda_min
elsewhere, so that a separable state reads 0 in every measure.
Each state's rho^G is decomposed once, by ``_pt_eigh``: a chunk takes its
lowest eigenpair (lambda_min, phi) from one ``eigh`` of its rho^G stack and
rho's spectrum from one ``herm_eig`` of its stack; ``_ree_inputs`` reads
those rows, ascending as ``eigh`` returns them, for the short-circuit, the
face starts, the barrier start and S(rho), so the PPT verdict, the
negativity and the face starts read one lambda_min.  The solve's own
``_Point`` spectra are ``eigh``'s too, so S(rho||sigma) reads rho's and
sigma's in one order.
``_ppt`` judges the solve's last sigma^G too.
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
    ZERO_CUTOFF,
    _divergence,
    _spectral_entropy,
    clip_roundoff,
    eigh,
    eigvalsh,
    herm_eig,
    lapack_guard,
    partial_transpose,
    solve,
)

__all__ = [
    "SEPARABILITY_EIG_TOL",
    "ReeSolverConfig",
    "ReeSolution",
    "concurrence",
    "negativity",
    "is_separable",
    "ree",
]

# PPT verdict: separable iff the lowest partial-transpose eigenvalue
# clears this floor.
SEPARABILITY_EIG_TOL = 1e-10

LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)
_SPIN_FLIP = PAULI_PRODUCTS[2, 2]

# The slack of the negativity's lower bound in _check_cross_measure_bounds:
# the closed forms' error budget, 1.0e-15 for N and 1.6e-15 for C, which
# moves the bound by at most twice as much, and 4 eps for the bound's own
# evaluation (test_closed_forms_hold_their_error_budget_against_40_digit_references).
# On the entangled rows of master seeds 1-4 and 15 N clears the bound by at
# least 1.2e-4, and REE stays at least 1.4e-7 bits below E_F(C).
_CLOSED_FORMS_SLACK = 1.0e-15 + 2 * 1.6e-15 + 4 * _EPS

_GAP_TOL_NATS = 2e-5
# The dual gap's own evaluation roundoff, added to every reported gap as
# _GAP_ROUNDOFF_NATS + _GAP_ROUNDOFF_EPSILONS eps / lambda_min(sigma) nats
# (``_gap_roundoff``).  At the polished points of the 1833 entangled states of
# master seeds 1-4 and 15 (ids 0-999), where the gap is a difference of two
# numbers near 1 that agree, the raw gap reads 0.0 and more, and
# test_gap_roundoff_holds_ten_times_over_on_seed_one keeps seed 1's above
# -1e-15.  Against the same bound at 40 digits it errs by 6.3e-16 nats at the
# median and by at most 9.04e-13 (seed 15, id 137): a floor of at most
# 6.3e-15 where lambda_min(sigma) exceeds 1e-2, and at most 0.21
# eps / lambda_min(sigma) where it is small, as on 200 polished nearly pure
# and rank-2 states (lambda_min(sigma) down to 5.4e-11, errors up to 3.0e-7
# nats) and, at most 0.14, at the barrier's last points.  The term is at
# least ten times the error at each of those points; seed 15, id 261 sets
# the margin (test_dual_gap_holds_its_error_budget_against_a_40_digit_reference),
# and it reads at most 1.9e-11 nats on the seeded states.
_GAP_ROUNDOFF_NATS, _GAP_ROUNDOFF_EPSILONS = 1e-13, 2.5
# _TANGENTS[0, k] and [1, k]: P_k/4 and P_k^G/4 flattened, the derivatives
# of sigma and sigma^G in x_k.
_PAULI_15 = PAULI_PRODUCTS.reshape(16, 4, 4)[1:]
_TANGENTS = 0.25 * np.stack([_PAULI_15, partial_transpose(_PAULI_15)]).reshape(2, 15, 16)
_TANGENTS_RE = _TANGENTS.view(float)
# Both cones' tangents side by side, (15, 64): x @ _TANGENTS_SIDE is sigma
# and sigma^G flattened, less the center.
_TANGENTS_SIDE = np.ascontiguousarray(_TANGENTS_RE.transpose(1, 0, 2).reshape(15, 64))
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
# The face polish converges on a whole x step of at most _POLISH_TOL, which
# leaves an error of order _POLISH_TOL**2 (ree moved by at most 2.3e-15 bits
# against steps down to 1e-13), and of at most _POLISH_REL_TOL times
# lambda_min(sigma): on rho = pure + 1e-8 I/4, where lambda_min(sigma) is
# ~5e-8, a step of 5e-10 left a gap of 1e-4 nats, and two steps more 2e-10.
# From the first-order start a stop at 1e-8 left 5 of the 1833 entangled
# states of master seeds 1-4 and 15 with gaps of 1e-11 to 1.1e-9 bits (seed
# 3 id 597); at 1e-9 the largest gap is 1.4e-12 bits.  A step that would
# leave sigma > 0 or mu > 0 is cut to _POLISH_DAMPING of the way to that
# boundary; a whole step left sigma > 0 on 31 of the 1833.  All 1833 took at
# most 11 steps, 16 more than 8; the polish fails after _POLISH_STEPS.
_POLISH_STEPS, _POLISH_TOL, _POLISH_REL_TOL, _POLISH_DAMPING = 20, 1e-9, 1e-4, 0.9
# sigma_1 divides by rho's divided differences of ln, so it is a start only
# where rho has no zero eigenvalue (none at or below ZERO_CUTOFF), and where
# lambda_min(sigma_1) is at least _FIRST_ORDER_FLOOR lambda_min(rho): that
# ratio read 0.136 and more on the 1825 of the 1833 seeded states where
# sigma_1 > 0, but 1.3e-5 and less on nearly pure states, where the
# first-order step cancels rho's small eigenvalues to roundoff and the polish
# from sigma_1 never converged.
_FIRST_ORDER_FLOOR = 1e-3
# The 6 index pairs i < j with the flat places of (i, j) and (j, i) in a 4x4;
# the 20 sorted index triples lo <= mid <= hi, which for ascending s sort
# their values, with the flat places of (mid, hi) and (lo, mid); and for each
# flat (i, m, j) the place of its sorted triple.
_PAIRS = [(i, j, 4 * i + j, 4 * j + i) for i in range(4) for j in range(i + 1, 4)]
_SORTED = sorted({tuple(sorted(ijk)) for ijk in np.ndindex(4, 4, 4)})
_TRIPLES = [(lo, mid, hi, 4 * mid + hi, 4 * lo + mid) for lo, mid, hi in _SORTED]
_TRIPLE_AT = np.array([_SORTED.index(tuple(sorted(ijk))) for ijk in np.ndindex(4, 4, 4)])
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
    certified optimality gap in bits, its evaluation roundoff included, and
    ``converged`` says it is within tolerance.  ``iterations`` counts Newton
    steps, the face polish's and, where it failed, the barrier's: at least
    one if entangled, zero for the separable short-circuit.
    ``closest_state`` lies on the PPT boundary where the polish succeeded,
    as on every entangled state of master seeds 1-4 and 15."""

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
    route loses ~1e-8 on nearly pure states, the SVD stays at ~1e-15:
    test_closed_forms_hold_their_error_budget_against_40_digit_references
    holds it within 1.6e-15 of a 40-digit reference.
    """
    return _concurrences(herm_eig(np.asarray(rho)[None]))[0]


def _concurrences(spectra: tuple[np.ndarray, np.ndarray]) -> list[float]:
    """``concurrence`` of each state of a stack, from ``herm_eig``'s spectra."""
    p, vecs = spectra
    root = (vecs * np.sqrt(np.clip(p, 0.0, None))[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    vals = np.linalg.svd(root.conj() @ _SPIN_FLIP @ root, compute_uv=False)
    # np.maximum, unlike max, keeps a NaN for the range rule to reject.
    values = np.maximum(vals[:, 0] - vals[:, 1] - vals[:, 2] - vals[:, 3], 0.0)
    return [clip_roundoff(value, 0.0, 1.0, "concurrence") for value in values]


def _pt_eigh(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of rho^G, of a 4x4 rho or of each in a stack; only the
    lowest eigenvalue can be negative."""
    with lapack_guard():
        return eigh(partial_transpose(rho))


def negativity(rho: np.ndarray) -> float:
    """Twice the magnitude of the negative partial-transpose eigenvalue.

    test_closed_forms_hold_their_error_budget_against_40_digit_references
    holds it within 1.0e-15 of a 40-digit reference."""
    return _negativities(_pt_eigh(np.asarray(rho)[None])[0][:, 0])[0]


def _negativities(lowest: np.ndarray) -> list[float]:
    """``negativity`` of each state from its lowest partial-transpose
    eigenvalue: 0 wherever ``_ppt`` holds, so that separable states read 0."""
    return [
        0.0 if _ppt(low) else clip_roundoff(-2.0 * low, 0.0, 1.0, "negativity") for low in lowest
    ]


def _ppt(lowest: float) -> bool:
    """The one PPT verdict on the lowest partial-transpose eigenvalue."""
    return bool(lowest >= -SEPARABILITY_EIG_TOL)


def is_separable(rho: np.ndarray) -> bool:
    """PPT test, exact for two qubits."""
    return _ppt(_pt_eigh(rho)[0][0])


def _entanglement_of_formation(c: float) -> float:
    """E_F(C) = h((1 + sqrt(1 - C^2))/2) in bits for a concurrence C in [0, 1]
    (Wootters, PRL 80, 2245, 1998), the smaller argument of h taken as
    C^2 / (2 (1 + sqrt(1 - C^2))), free of cancellation at small C."""
    if c <= 0.0:
        return 0.0
    y = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
    return -(y * math.log(y) + (1.0 - y) * math.log1p(-y)) / LN2


def _check_cross_measure_bounds(concurrences, negativities, solutions) -> None:
    """Hold each entangled row of a chunk, whose negativity is positive, to
    two bounds between its measures: REE never exceeds the entanglement of
    formation (Vedral & Plenio, PRA 57, 1619, 1998), within the row's
    certified gap plus ``_DIVERGENCE_ROUNDOFF``, and N >= sqrt((1 - C)^2 +
    C^2) - (1 - C) (Verstraete, Audenaert, Dehaene & De Moor, J. Phys. A 34,
    10327, 2001), within ``_CLOSED_FORMS_SLACK``.  A row past a bound raises
    ``ArithmeticError``.  PPT rows read N = 0 even where rho^G dips below 0
    by up to ``SEPARABILITY_EIG_TOL``, so the second bound does not hold
    for them to roundoff; their REE is 0."""
    for c, n, solution in zip(concurrences, negativities, solutions):
        if not n:
            continue
        formation = _entanglement_of_formation(c)
        slack = solution.gap + _DIVERGENCE_ROUNDOFF
        if not solution.value <= formation + slack:
            raise ArithmeticError(
                f"REE {solution.value!r} lies above E_F(C) = {formation!r}"
                f" by more than {slack:.3g}"
            )
        bound = math.hypot(1.0 - c, c) - (1.0 - c)
        if not n >= bound - _CLOSED_FORMS_SLACK:
            raise ArithmeticError(
                f"negativity {n!r} lies below sqrt((1 - C)^2 + C^2) - (1 - C) = {bound!r}"
                f" by more than {_CLOSED_FORMS_SLACK:.3g}"
            )


class _Point(NamedTuple):
    """x, the ``eigh`` of sigma and of sigma^G stacked, and V† rho V: of one
    state, or of each state of a stack along a leading axis."""

    x: np.ndarray
    s: np.ndarray
    v: np.ndarray
    rt: np.ndarray


def _take(p: _Point, index) -> _Point:
    """The rows ``index`` of a stacked point, or one state's point."""
    return _Point(*(field[index] for field in p))


def _sigmas(x: np.ndarray) -> np.ndarray:
    """sigma and sigma^G at x, (..., 2, 4, 4) for x of shape (..., 15)."""
    return (x @ _TANGENTS_SIDE).view(complex).reshape(x.shape[:-1] + (2, 4, 4)) + _CENTER


def _point(rho: np.ndarray, x: np.ndarray) -> _Point:
    s, v = eigh(_sigmas(x))
    vs = v[..., 0, :, :]
    return _Point(x, s, v, vs.conj().mT @ rho @ vs)


def _barrier(t: float, p: _Point) -> float:
    """The barrier objective less t tr(rho ln rho); inf off the cones."""
    if p.s[:, 0].min() <= 0.0:
        return math.inf
    logs = np.log(p.s)
    return -t * float(p.rt.diagonal().real @ logs[0]) - float(logs.sum())


def _log_first_differences(s: np.ndarray) -> np.ndarray:
    """f1[i, j] = (ln s_j - ln s_i) / (s_j - s_i) for ascending s, 1/s_i
    where they are equal, for one spectrum or each of a stack; log1p of the
    spacing keeps nearby pairs from cancelling."""
    return np.array(_first_difference_rows(s.reshape(-1, 4).tolist())).reshape(s.shape + (4,))


def _first_difference_rows(spectra: list) -> list:
    """f1 of each ascending spectrum of a list, flattened, in Python floats:
    on six pairs they cost less than numpy calls, and numpy's log1p differs
    from math's in the last bit."""
    rows = []
    for e in spectra:
        row = [1.0 / e[0]] * 4 + [1.0 / e[1]] * 4 + [1.0 / e[2]] * 4 + [1.0 / e[3]] * 4
        for i, j, ij, ji in _PAIRS:
            lo = e[i]
            if (gap := e[j] - lo) > 0.0:
                row[ij] = row[ji] = math.log1p(gap / lo) / gap
        rows.append(row)
    return rows


def _second_differences(spectra: list, rows: list) -> np.ndarray:
    """f2[i, m, j], the second divided difference of ln at (s_i, s_m, s_j),
    flattened to (n, 64), for each ascending spectrum of a list and its
    ``_first_difference_rows``: ``(f1[mid, hi] - f1[lo, mid]) / (s_hi -
    s_lo)`` over the sorted triple, the widest spacing, or ``-1/(2
    mean^2)`` (error O(spread^2)) where all three lie within _COINCIDENT.
    Twenty triples cost less in Python than in numpy."""
    values = []
    for e, d in zip(spectra, rows):
        for lo, mid, hi, mid_hi, lo_mid in _TRIPLES:
            low, high = e[lo], e[hi]
            if (width := high - low) > _COINCIDENT * high:
                values.append((d[mid_hi] - d[lo_mid]) / width)
            else:
                total = low + e[mid] + high
                values.append(-4.5 / (total * total))
    return np.array(values).reshape(-1, 20).take(_TRIPLE_AT, axis=1)


def _eigenbasis_tangents(p: _Point) -> np.ndarray:
    """``V_c† T_c,k V_c`` flattened, (..., 2, 15, 16): the tangents of sigma
    and sigma^G in x_k, each in its own eigenbasis."""
    # vec(V† T V) = vec(T) @ K with K[(i, j), (a, b)] = conj(V[i, a]) V[j, b].
    v = p.v
    kron = v.conj()[..., :, None, :, None] * v[..., None, :, None, :]
    return _TANGENTS @ kron.reshape(v.shape[:-2] + (16, 16))


def _entropy_system(p: _Point, tan: np.ndarray, t: float | None = None):
    """Gradient and Hessian of -t tr(rho ln sigma) in x, of -tr(rho ln sigma)
    with t None: ``-t rt * f1`` and the kernel f2[i, m, j] rt[j, i] on the
    eigenbasis tangents."""
    lead = p.x.shape[:-1]
    tan = tan[..., 0, :, :]
    spectra = p.s[..., 0, :].reshape(-1, 4).tolist()
    rows = _first_difference_rows(spectra)
    f1 = np.array(rows).reshape(lead + (4, 4))
    weights = p.rt * f1 if t is None else t * (p.rt * f1)
    grad = -(tan.view(float) @ weights.view(float).reshape(lead + (32, 1)))[..., 0]
    # sum_{i,m,j} tan_k[i, m] f2[m, i, j] rt[j, i] tan_l[m, j], over i first.
    f2 = _second_differences(spectra, rows).reshape(lead + (4, 4, 4))
    kernel = f2 * p.rt.mT[..., None, :, :]
    ys = tan.reshape(lead + (15, 4, 4)).swapaxes(-1, -3).swapaxes(-1, -2) @ kernel
    cross = (ys.swapaxes(-3, -2).reshape(lead + (15, 16)) @ tan.mT).real
    hess = cross + cross.mT
    return grad, -hess if t is None else -t * hess


def _scaled_tangents(tan: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``B_c,k = s_c^-1/2 V_c† T_c,k V_c s_c^-1/2`` as a (c, 15, 32) float
    view, from the eigenbasis tangents and ascending spectra of c cones."""
    return (tan * (s[:, :, None] * s[:, None, :]).reshape(-1, 1, 16) ** -0.5).view(float)


def _newton_system(t: float, p: _Point):
    """Gradient and Hessian of the barrier objective in x, and the scaled
    tangents of sigma and sigma^G.

    In an eigenbasis, -ln det has gradient -tr(B) and Hessian tr(B_k B_l)
    summed over both cones.  For Hermitian X, Y, tr(XY) is the dot product
    of their float views."""
    tan = _eigenbasis_tangents(p)
    scaled = _scaled_tangents(tan, p.s)
    grad, hess = _entropy_system(p, tan, t)
    grad -= scaled[:, :, _DIAG_RE].sum(axis=(0, 2))
    hess += (scaled @ scaled.swapaxes(1, 2)).sum(axis=0)
    return grad, hess, scaled


def _kkt_system(p: _Point, mu):
    """Residual and Jacobian of the KKT system of ``min S(rho||sigma)`` on
    the face ``g = lambda_min(sigma^G) = 0``, in (x, mu):
    ``F = (grad f - mu grad g, -g)``, f = -tr(rho ln sigma), and the mu they
    were built at; of one point, or of each of a stack with mu per row.
    With mu None it is the least-squares multiplier
    ``<grad f, grad g> / |grad g|^2``.

    With u_i the eigenbasis tangent rows of sigma^G, grad g_k = u_k[0, 0]
    and ``hess g_kl = 2 Re sum_{i>=1} u_k[0, i] u_l[i, 0] / (s_0 - s_i)``."""
    lead = p.x.shape[:-1]
    tan = _eigenbasis_tangents(p)
    grad, hess = _entropy_system(p, tan)
    # Row 0 of each sigma^G tangent: its first four flat entries.
    rows = tan[..., 1, :, 1:4]
    g_grad = tan[..., 1, :, 0].real
    if mu is None:
        mu = np.vecdot(grad, g_grad) / np.vecdot(g_grad, g_grad)
    spacing = p.s[..., 1, :1] - p.s[..., 1, 1:]
    half_g_hess = ((rows / spacing[..., None, :]) @ rows.conj().mT).real
    at = np.asarray(mu)[..., None]
    matrix, residual = np.zeros(lead + (16, 16)), np.empty(lead + (16,))
    # mu (2 half_g_hess) and (2 mu) half_g_hess round alike: doubling is exact.
    np.subtract(hess, (2.0 * at)[..., None] * half_g_hess, out=matrix[..., :15, :15])
    matrix[..., :15, 15] = matrix[..., 15, :15] = -g_grad
    residual[..., :15], residual[..., 15] = grad - at * g_grad, -p.s[..., 1, 0]
    return residual, matrix, mu


def _dual_gap(p: _Point, t=None):
    """``lambda_max(D + Q^G) - tr(sigma D)`` in nats at a point, or at each
    point of a stack as an array, for the better of ``Q = [(I - D)^G]_+``
    and, on the rows where the list t holds the last barrier t rather than
    None, ``(sigma^G)^-1 / t``, which stays tight where sigma >= 0 is
    active too (rank-deficient rho)."""
    dt = p.rt * _log_first_differences(p.s[..., 0, :])
    v = p.v[..., 0, :, :]
    d = v @ dt @ v.conj().mT
    lam, u = eigh(partial_transpose(IDENTITY_4 - d))
    q = (u * np.maximum(lam, 0.0)[..., None, :]) @ u.conj().mT
    tops = eigvalsh(d + partial_transpose(q))[..., -1]
    rows = [k for k, last in enumerate(t or ()) if last is not None]
    if rows:
        pt_v, scale = p.v[rows, 1], np.array([t[k] for k in rows])[:, None] * p.s[rows, 1]
        q = (pt_v / scale[:, None, :]) @ pt_v.conj().mT
        barrier_tops = eigvalsh(d[rows] + partial_transpose(q))[:, -1]
        tops[rows] = np.minimum(tops[rows], barrier_tops)
    return tops - np.vecdot(p.s[..., 0, :], dt.diagonal(axis1=-2, axis2=-1).real)


def _gap_roundoff(p: _Point):
    """The bound on ``_dual_gap``'s own roundoff in nats at a point, or at
    each point of a stack, that the reported gap adds: see
    _GAP_ROUNDOFF_EPSILONS."""
    return _GAP_ROUNDOFF_NATS + (_GAP_ROUNDOFF_EPSILONS * _EPS) / p.s[..., 0, 0]


def _boundary_step(dx: np.ndarray, scaled: np.ndarray, fraction: float = 0.99) -> float:
    """``fraction`` of the step along dx to the nearest boundary of the
    cones whose scaled tangents are given, at most 1.  In each cone's
    eigenbasis diag(s) + a M > 0 iff a < -1/lambda_min of
    ``s^-1/2 M s^-1/2``, which is ``dx @ scaled`` for all of them at once."""
    move = (dx @ scaled).view(complex).reshape(-1, 4, 4)
    return -fraction / min(eigvalsh(move)[:, 0].min(), -fraction)


def _coordinates(sigma: np.ndarray) -> np.ndarray:
    """x of a trace-1 Hermitian sigma, or of each of a stack: its Pauli
    coordinates tr(P_k sigma)."""
    flat = sigma.reshape(sigma.shape[:-2] + (16,)).view(float)
    return 4.0 * (_TANGENTS_RE[0] @ flat[..., None])[..., 0]


def _pt_projectors(phi: np.ndarray) -> np.ndarray:
    """``Y = (|phi><phi|)^G`` for each phi of a stack: Y[(a, b), (a', b')]
    is phi[a, b'] conj(phi[a', b])."""
    half = phi.reshape(-1, 2, 2)
    y = half[:, :, None, None, :] * half.conj().swapaxes(1, 2)[:, None, :, :, None]
    return y.reshape(-1, 4, 4)


def _lift(m: np.ndarray, e: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(m - e Y) / (1 - e)`` for each m of a stack, where
    ``Y = (|phi><phi|)^G`` and (e, phi) is the lowest eigenpair of m^G.  The
    result's partial transpose is m^G with its lowest eigenvalue moved to 0,
    so phi spans its kernel (Sanpera, Tarrach & Vidal), and a trace-1 m
    keeps trace 1."""
    return (m - e[:, None, None] * y) / (1.0 - e)[:, None, None]


def _face_starts(
    rho: np.ndarray, rows: list, r: np.ndarray, w: np.ndarray, e: np.ndarray, phi: np.ndarray
):
    """sigma_1 for the ``rows`` of a chunk's stack of states, from the
    chunk's arrays: rho's ascending spectra r and eigenvectors w, and the
    lowest eigenpairs (e, phi) of rho^G, e < 0 on those rows.  Returns the
    chunk rows where sigma_1 is a start, as a list, and its points there,
    stacked.

    sigma_1, the first-order solution of the inverse problem
    ``rho = sigma - x G_sigma[Y_sigma]`` with ``Y = (|phi><phi|)^G`` and
    ``G = (D ln)^-1`` (Miranowicz & Ishizaka), is proportional to
    ``rho + c G_rho[Y]``, ``c = -e / tr(Y G_rho[Y])``, which puts
    lambda_min(sigma_1^G) on 0 to first order, and ``_lift`` puts it there
    exactly.  In rho's eigenbasis G_rho divides by the first divided
    differences of ln, which needs r_0 above ZERO_CUTOFF.  Rows where
    lambda_min(sigma_1) falls below _FIRST_ORDER_FLOOR r_0 are left out.
    Under ``lapack_guard()`` a non-finite divided difference raises a plain
    ``LinAlgError`` at that division, before sigma_1's eigensolves, so it
    carries no matrix."""
    r_lows = r[:, 0].tolist()
    rows = [k for k in rows if r_lows[k] > ZERO_CUTOFF]
    if len(rows) < len(r):
        rho, r, w, e, phi = rho[rows], r[rows], w[rows], e[rows], phi[rows]
    yw = w.conj().mT @ _pt_projectors(phi) @ w
    gw = yw / _log_first_differences(r)
    c = -e / (yw.conj() * gw).real.reshape(-1, 16).sum(axis=1)
    sigma_1 = rho + c[:, None, None] * (w @ gw @ w.conj().mT)
    sigma_1 /= sigma_1.trace(axis1=1, axis2=2).real[:, None, None]
    lam, vec = eigh(partial_transpose(sigma_1))
    lifted = _lift(sigma_1, lam[:, 0], _pt_projectors(vec[:, :, 0]))
    p = _point(rho, _coordinates(lifted))
    floors = (_FIRST_ORDER_FLOOR * r[:, 0]).tolist()
    lows = p.s[:, 0, 0].tolist()
    serves = [k for k, (low, floor) in enumerate(zip(lows, floors)) if low >= floor]
    return [rows[k] for k in serves], (p if len(serves) == len(rows) else _take(p, serves))


def _on_face(s: list) -> bool:
    """Where the polish may go on, from a point's two lowest eigenvalues of
    sigma and of sigma^G as nested lists: sigma > 0, and sigma^G's lowest
    eigenvalue nearer the face than the next one, so that it stays simple
    over a step that reaches the face."""
    (low, _), (pt_low, pt_next) = s
    return low > 0.0 and pt_next - pt_low > abs(pt_low)


def _kkt_steps(matrix: np.ndarray, residual: np.ndarray):
    """The Newton step ``solve(matrix, -residual)`` of each system of a stack
    and the rows where it failed: where the stacked solve finds a matrix
    singular, each system is solved alone, so that only the singular ones
    fail, and their steps read 0."""
    try:
        return solve(matrix, -residual), []
    except LinAlgError:
        steps, failed = np.zeros_like(residual), []
        for k, (a, b) in enumerate(zip(matrix, residual)):
            try:
                steps[k] = solve(a, -b)
            except LinAlgError:
                failed.append(k)
        return steps, failed


def _face_polish(rho: np.ndarray, rows: list, p: _Point, outcomes: list) -> None:
    """Newton on ``_kkt_system`` for the ``rows`` of a chunk's stack rho,
    each from its start point, the same row of the stacked p: writes into
    ``outcomes[row]`` its point on the face, or None, and the steps it
    took, and leaves ``(None, 0)`` where the start is not ``_on_face`` or
    its least-squares mu is not positive.  The steps run stacked over the
    states still polishing.

    A whole step that would leave sigma > 0 or mu > 0 is cut by
    ``_damping``, and the trial points are built again with each state's
    cut, 1 where the whole step stands.  A state converges on a whole x
    step of at most _POLISH_TOL and _POLISH_REL_TOL lambda_min(sigma) that
    ends ``_on_face``; it fails where a later point is not ``_on_face``,
    its KKT matrix is singular, or _POLISH_STEPS do not converge."""
    faces = [k for k, low in enumerate(p.s[:, :, :2].tolist()) if _on_face(low)]
    if not faces:
        return
    if len(faces) < len(rows):
        rows, p = [rows[k] for k in faces], _take(p, faces)
    residual, matrix, mu = _kkt_system(p, None)
    # Only mu_0 can fail this; the damping keeps mu > 0.
    ok = [k for k, m in enumerate(mu.tolist()) if m > 0.0]
    if len(ok) < len(rows):
        if not ok:
            return
        rows, p = [rows[k] for k in ok], _take(p, ok)
        residual, matrix, mu = residual[ok], matrix[ok], mu[ok]
    if len(rows) < len(rho):
        rho = rho[rows]
    for steps in range(1, _POLISH_STEPS + 1):
        d, failed = _kkt_steps(matrix, residual)
        dx, dmu = d[:, :15], d[:, 15]
        trial, moved = _point(rho, p.x + dx), mu + dmu
        cut = [
            k for k, (low, m) in enumerate(zip(trial.s[:, 0, 0].tolist(), moved.tolist()))
            if low <= 0.0 or m <= 0.0
        ]
        if cut:
            alpha = np.ones(len(rows))
            for k in cut:
                alpha[k] = _damping(_take(p, k), dx[k], mu[k], dmu[k])
            trial, moved = _point(rho, p.x + alpha[:, None] * dx), mu + alpha * dmu
        lows = p.s[:, 0, 0].tolist()
        sizes = np.maximum.reduce(np.abs(dx), axis=1).tolist()
        going = []
        for k, (row, new) in enumerate(zip(rows, trial.s[:, :, :2].tolist())):
            on = k not in failed and _on_face(new)
            converged = k not in cut and sizes[k] <= min(_POLISH_TOL, _POLISH_REL_TOL * lows[k])
            if on and converged:
                outcomes[row] = _take(trial, k), steps
            elif on and steps < _POLISH_STEPS:
                going.append(k)
            else:
                outcomes[row] = None, steps
        if not going:
            break
        p, mu = trial, moved
        if len(going) < len(rows):
            rows, rho, p, mu = [rows[k] for k in going], rho[going], _take(p, going), mu[going]
        residual, matrix, mu = _kkt_system(p, mu)


def _damping(p: _Point, dx: np.ndarray, mu: float, dmu: float) -> float:
    """The cut alpha of one state's Newton step: _POLISH_DAMPING of the way
    to the nearer of sigma's boundary (``_boundary_step``) and mu's."""
    sigma_tangents = _scaled_tangents(_eigenbasis_tangents(p)[:1], p.s[:1])
    alpha = _boundary_step(dx, sigma_tangents, _POLISH_DAMPING)
    if mu + dmu <= 0.0:
        alpha = min(alpha, _POLISH_DAMPING * mu / -dmu)
    return alpha


def _barrier_solve(rho: np.ndarray, lowest_pt: float):
    """Newton steps along the central path, where the face polish fails:
    returns the last point, the steps taken and the last t.

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
    p = _point(rho, (1.0 - mix) * _coordinates(rho))
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


def _start_chain(rho: np.ndarray, spectra, pt_spectra) -> list:
    """The face polish's outcome for each state of a chunk's stack, from the
    ``herm_eig`` of rho and the ``_pt_eigh`` of rho^G: None where rho is
    PPT, else the point on the face or None and the steps taken.  The polish
    runs over the entangled rows along the start chain, each step naming a
    state by its chunk row and writing into the one outcome list: sigma_1,
    then sigma_0 for the rows that sigma_1 left at ``(None, 0)``.  It runs
    under the caller's ``lapack_guard()``, as in ``_ree_inputs``."""
    (r, w), (pt_values, pt_vectors) = spectra, pt_spectra
    outcomes = [None if _ppt(low) else (None, 0) for low in pt_values[:, 0].tolist()]
    entangled = [k for k, outcome in enumerate(outcomes) if outcome]
    if entangled:
        e, phi = pt_values[:, 0], pt_vectors[:, :, 0]
        _face_polish(rho, *_face_starts(rho, entangled, r, w, e, phi), outcomes)
        rows = [k for k in entangled if not outcomes[k][1]]
        if rows:
            lifted = _lift(rho[rows], e[rows], _pt_projectors(phi[rows]))
            _face_polish(rho, rows, _point(rho[rows], _coordinates(lifted)), outcomes)
    return outcomes


def _ree_inputs(rho: np.ndarray, spectra, pt_spectra) -> list[ReeSolution]:
    """``ree`` of each state of a chunk's stack, from the ``herm_eig`` of rho
    and the ``_pt_eigh`` of rho^G, with one stacked certificate.

    PPT rows take the short-circuit: value 0, rho as its own closest state.
    The entangled rows run ``_start_chain``; the barrier then solves, state
    by state, the rows that the chain left unpolished.  One pass over the
    entangled rows' last points prices their dual gaps, the barrier rows'
    with their last t, judges their sigma^G with ``_ppt``, builds their
    closest states, reads each value off rho's spectrum and the point's
    spectrum of the closest state, and passes the values through the range
    rule, each with its own gap in its slack."""
    with lapack_guard():
        outcomes = _start_chain(rho, spectra, pt_spectra)
        solutions = [
            None if outcome else ReeSolution(0.0, rho[k].copy(), 0, True, 0.0)
            for k, outcome in enumerate(outcomes)
        ]
        rows = [k for k, outcome in enumerate(outcomes) if outcome]
        if not rows:
            return solutions
        lowest = pt_spectra[0][:, 0].tolist()
        points, steps, last_t = [], [], []
        for k in rows:
            point, taken = outcomes[k]
            t = None
            if point is None:
                point, barrier_steps, t = _barrier_solve(rho[k], lowest[k])
                taken += barrier_steps
            points.append(point)
            steps.append(taken)
            last_t.append(t)
        # np.stack copies; a stack of one takes its leading axis as views.
        p = _Point(*(map(np.stack, zip(*points)) if len(points) > 1 else (f[None] for f in point)))
        gaps = _dual_gap(p, last_t) + _gap_roundoff(p)
    if not _ppt(np.minimum.reduce(p.s[:, 1, 0])):
        raise ArithmeticError("solver produced a non-PPT candidate state")
    r = spectra[0]
    if len(rows) < len(outcomes):
        rho, r = rho[rows], r[rows]
    # Each point holds the spectrum that herm_eig of its closest state gives,
    # as that state is Hermitian to the last bit.
    values = _divergence(rho, p.s[:, 0], p.v[:, 0], _spectral_entropy(r))
    closest = _sigmas(p.x)[:, 0]
    for k, sigma, value, taken, gap in zip(rows, closest, values.tolist(), steps, gaps.tolist()):
        bits = gap / LN2
        value = clip_roundoff(value, 0.0, 1.0, "REE", bits + _DIVERGENCE_ROUNDOFF)
        solutions[k] = ReeSolution(value, sigma, taken, gap <= _GAP_TOL_NATS, bits)
    return solutions


def ree(rho: np.ndarray, cfg: ReeSolverConfig | None = None, *, measured=None) -> ReeSolution:
    """Relative entropy of entanglement in bits, with its closest state.

    ``measured`` is this state's ``ReeSolution`` as its chunk's
    ``_ree_inputs`` certified it, and ``ree`` returns it; without it
    ``ree`` runs ``_ree_inputs`` on a stack of one.  The lowest eigenvalue
    of rho^G decides the PPT short-circuit (value 0, the input as its own
    closest state); the barrier runs, for this state alone, only where the
    polish failed.  The value is read off rho's spectrum and the last
    point's spectrum of the closest state, and certified by the dual gap
    there.  ``cfg`` is ignored.
    """
    if measured is not None:
        return measured
    stack = np.asarray(rho, dtype=complex)[None]
    (solution,) = _ree_inputs(stack, herm_eig(stack), _pt_eigh(stack))
    return solution

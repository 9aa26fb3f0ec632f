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
``_start_chain`` owns each entangled state's fate, one chain of three
solvers: the polish from the first-order solution of that inverse
problem, ``sigma_1 ~ rho + c G_rho[(|phi><phi|)^G]`` with ``G = (D ln)^-1``,
(e, phi) the lowest eigenpair of rho^G and c putting lambda_min(sigma_1^G)
on 0 to first order, lifted onto the face; then, where sigma_1 left a state
unstarted, the polish from ``sigma_0 = (rho - e (|phi><phi|)^G) / (1 - e)``;
then the barrier, where neither polish ended on the face.  Every link of
the chain names a state by its row of the chunk's stack and writes into one
outcome list, which ends with each entangled state's last point, steps and
last barrier t (None where the polish ended on the face).
Over the 1833 entangled states of master seeds 1-4 and 15, sigma_1 starts
1818, sigma_0 15 (8 under _FIRST_ORDER_FLOOR, 7 with a least-squares
mu <= 0), the barrier none.  mu starts at its least-squares value; a step
that would leave sigma > 0 or mu > 0 is damped.  Each start's polish runs
stacked over its states: each keeps its own mu, damping, step count and
convergence, and leaves the stack as it converges or fails; a singular KKT
matrix ends only its own state's polish.  Where the stacked solve fails,
``states._nan_rows``, the one reader of a failed LAPACK call's NaN rows,
solves it again and names the singular rows, as it names a failed
eigensolve's matrix for ``states._failing``.
The first and second divided differences of ln run in numpy over the
whole stack, each sorted pair and triple of eigenvalues once.
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
certifies a chunk's entangled states in one stacked pass over the last
points that ``_start_chain`` gives them: the dual gaps, the ``_ppt`` check
of each last sigma^G, the closest states, the divergences and one range
rule call over their values, each value's slack with its own gap.  The
solver works in nats, reports bits.  Its spectra and Newton solves run on
the LAPACK kernels of ``states`` under one ``lapack_guard()`` per chunk:
a failed spectrum raises ``EigendecompositionError``, and a chunk that
fails reruns state by state to name it; a singular KKT matrix ends its
state's polish, and a singular barrier Hessian, whose step LAPACK leaves
NaN, the barrier solve, where it is.  Both are read through
``states._nan_rows``: this module never sets numpy's error state itself.

Value rule.  Concurrence, negativity and REE lie in [0, 1] under the one
range rule ``states.clip_roundoff``, which judges each measure of a chunk
in one call; REE's slack adds each row's certified gap (|Phi+> reads 1 +
1.8e-10 bits, gap 2.7e-10).  For two qubits rho^G has at most one negative
eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826, 1998).  Its lowest
eigenvalue lambda_min decides PPT (``_ppt``, elementwise over a stack) and
the negativity, which ``_negativities`` reads as 0 where PPT holds and -2
lambda_min elsewhere, so that a separable state reads 0 in every measure.
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
    HERMITICITY_TOL,
    IDENTITY_4,
    PAULI_PRODUCTS,
    ZERO_CUTOFF,
    _divergence,
    _nan_rows,
    _spectral_entropy,
    _two_qubit,
    clip_roundoff,
    eigh,
    eigvalsh,
    herm_eig,
    lapack_guard,
    partial_transpose,
    solve,
)

__all__ = [
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

# The slack of the shot-noise bound on separable rows in
# _check_cross_measure_bounds.  The PPT verdict passes a row whose rho^G dips
# below 0 by up to SEPARABILITY_EIG_TOL, and near a product pure state the
# mean QFI exceeds 1 by twice that dip: 300 states within 1e-5 of one,
# locally rotated or mixed with a product state, read (qfi_max - 1) /
# |lambda_min(rho^G)| at most 2.0000002 (1.414e-6 at lambda_min = -7.07e-7
# near |00>).  To that comes qfi_max's own error, half the class values'
# 40-digit budget of 2 * 6.2e-15
# (test_qfi_matrix_and_grid_tops_hold_their_error_budget_against_40_digit_references).
# The separable rows of master seeds 1-4 and 15 (ids 0-999) reach 0.932.
_SHOT_NOISE_SLACK = 2 * SEPARABILITY_EIG_TOL + 6.2e-15

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
# nats) and, at most 0.132, at the barrier's last points of 20 pure and 20
# rank-2 states, (sigma^G)^-1 / t priced
# (test_barrier_dual_gap_holds_its_error_budget_against_a_40_digit_reference).
# The term is at least ten times the error at each of those points; seed 15,
# id 261 sets the margin
# (test_dual_gap_holds_its_error_budget_against_a_40_digit_reference), and it
# reads at most 1.9e-11 nats on the seeded states.
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
# The 10 sorted index pairs lo <= hi and the 20 sorted index triples lo <=
# mid <= hi, which for ascending s sort their values; the flat places of
# each triple's (mid, hi) and (lo, mid) in a 4x4; and for each flat (i, j)
# and (i, m, j) the place of its sorted pair or triple.
_SORTED_PAIRS = sorted({tuple(sorted(ij)) for ij in np.ndindex(4, 4)})
_SORTED_TRIPLES = sorted({tuple(sorted(ijk)) for ijk in np.ndindex(4, 4, 4)})
_PAIR_LO, _PAIR_HI = np.array(_SORTED_PAIRS).T
_LO, _MID, _HI = np.array(_SORTED_TRIPLES).T
_MID_HI, _LO_MID = 4 * _MID + _HI, 4 * _LO + _MID
_PAIR_AT = np.reshape([_SORTED_PAIRS.index(tuple(sorted(ij))) for ij in np.ndindex(4, 4)], (4, 4))
_TRIPLE_AT = np.reshape(
    [_SORTED_TRIPLES.index(tuple(sorted(ijk))) for ijk in np.ndindex(4, 4, 4)], (4, 4, 4)
)
# The relative spread below which three eigenvalues coincide in
# _second_differences.  Against 40-digit values, on 3900 spectra whose three
# highest eigenvalues spread over a relative width in [1e-6, 1e-5], f2's
# -1/(2 mean^2) branch errs by at most 1.67e-11 relative, its O(spread^2)
# term, and on 3900 in (1e-5, 1e-4] the divided branch by at most 8.04e-11,
# roundoff over the spread; each is held within twice that by
# test_second_differences_hold_their_error_budget_on_both_sides_of_the_coincident_switch.
# f2 enters REE's Newton system, so moving the switch can move ree's last bits.
_COINCIDENT = 1e-5


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
    return _concurrences(herm_eig(_two_qubit(rho)[None]))[0]


def _concurrences(spectra: tuple[np.ndarray, np.ndarray]) -> list[float]:
    """``concurrence`` of each state of a stack, from ``herm_eig``'s spectra."""
    p, vecs = spectra
    root = (vecs * np.sqrt(np.maximum(p, 0.0))[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    vals = np.linalg.svd(root.conj() @ _SPIN_FLIP @ root, compute_uv=False)
    # np.maximum, unlike max, keeps a NaN for the range rule to reject.
    values = np.maximum(vals[:, 0] - vals[:, 1] - vals[:, 2] - vals[:, 3], 0.0)
    return clip_roundoff(values, 0.0, 1.0, "concurrence").tolist()


def _pt_eigh(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of rho^G, of a 4x4 rho or of each in a stack; only the
    lowest eigenvalue can be negative."""
    with lapack_guard():
        return eigh(partial_transpose(rho))


def negativity(rho: np.ndarray) -> float:
    """Twice the magnitude of the negative partial-transpose eigenvalue.

    test_closed_forms_hold_their_error_budget_against_40_digit_references
    holds it within 1.0e-15 of a 40-digit reference."""
    return _negativities(_pt_eigh(_two_qubit(rho)[None])[0][:, 0])[0]


def _negativities(lowest: np.ndarray) -> list[float]:
    """``negativity`` of each state from its lowest partial-transpose
    eigenvalue: 0 wherever ``_ppt`` holds, so that separable states read 0."""
    values = np.where(_ppt(lowest), 0.0, -2.0 * lowest)
    return clip_roundoff(values, 0.0, 1.0, "negativity").tolist()


def _ppt(lowest):
    """The one PPT verdict on the lowest partial-transpose eigenvalue, or on
    each of an array; NaN fails it."""
    return lowest >= -SEPARABILITY_EIG_TOL


def is_separable(rho: np.ndarray) -> bool:
    """PPT test, exact for two qubits."""
    return bool(_ppt(_pt_eigh(_two_qubit(rho))[0][0]))


def _entanglement_of_formation(c: float) -> float:
    """E_F(C) = h((1 + sqrt(1 - C^2))/2) in bits for a concurrence C in [0, 1]
    (Wootters, PRL 80, 2245, 1998), the smaller argument of h taken as
    C^2 / (2 (1 + sqrt(1 - C^2))), free of cancellation at small C."""
    if c <= 0.0:
        return 0.0
    y = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
    return -(y * math.log(y) + (1.0 - y) * float(np.log1p(-y))) / LN2


def _check_cross_measure_bounds(concurrences, negativities, solutions, qfi_max) -> None:
    """Hold each entangled row of a chunk, whose negativity is positive, to
    two bounds between its measures: REE never exceeds the entanglement of
    formation (Vedral & Plenio, PRA 57, 1619, 1998), within the row's
    certified gap plus ``_DIVERGENCE_ROUNDOFF``, and N >= sqrt((1 - C)^2 +
    C^2) - (1 - C) (Verstraete, Audenaert, Dehaene & De Moor, J. Phys. A 34,
    10327, 2001), within ``_CLOSED_FORMS_SLACK``.  PPT rows read N = 0 even
    where rho^G dips below 0 by up to ``SEPARABILITY_EIG_TOL``, so the second
    bound does not hold for them to roundoff; their REE is 0, and their
    ``qfi_max`` stays at or below the shot-noise level 1 (Pezze & Smerzi, PRL
    102, 100401, 2009) within ``_SHOT_NOISE_SLACK``.  A row past a bound
    raises ``ArithmeticError``."""
    for c, n, solution, q in zip(concurrences, negativities, solutions, qfi_max):
        if not n:
            if not q <= 1.0 + _SHOT_NOISE_SLACK:
                raise ArithmeticError(
                    f"separable row's mean QFI {q!r} lies above the shot-noise level 1"
                    f" by more than {_SHOT_NOISE_SLACK:.3g}"
                )
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
    """f1[i, j] = (ln s_j - ln s_i) / (s_j - s_i) for ascending s, exactly
    1/s_i where they are equal, (..., 4, 4) for spectra s of shape (..., 4);
    log1p of the spacing keeps nearby pairs from cancelling.  Each sorted
    pair is computed once; an equal pair is never divided, so it raises no
    0/0."""
    lo = s.take(_PAIR_LO, axis=-1)
    gap = s.take(_PAIR_HI, axis=-1) - lo
    f1 = np.divide(np.log1p(gap / lo), gap, out=np.reciprocal(lo), where=gap > 0.0)
    return f1.take(_PAIR_AT, axis=-1)


def _second_differences(s: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """f2[i, m, j], the second divided difference of ln at (s_i, s_m, s_j),
    (..., 4, 4, 4) for ascending spectra s of shape (..., 4) and their
    ``_log_first_differences`` f1: ``(f1[mid, hi] - f1[lo, mid]) / (s_hi -
    s_lo)`` over the sorted triple, the widest spacing, or ``-1/(2
    mean^2)`` (error O(spread^2)) where all three lie within _COINCIDENT,
    which is never divided."""
    low, high = s.take(_LO, axis=-1), s.take(_HI, axis=-1)
    total = low + s.take(_MID, axis=-1) + high
    flat = f1.reshape(s.shape[:-1] + (16,))
    rise = flat.take(_MID_HI, axis=-1) - flat.take(_LO_MID, axis=-1)
    width = high - low
    f2 = np.divide(rise, width, out=-4.5 / (total * total), where=width > _COINCIDENT * high)
    return f2.take(_TRIPLE_AT, axis=-1)


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
    eigenbasis tangents, at one point (the barrier's) or at each point of a
    stack, with f1 and f2 from ``_log_first_differences`` and
    ``_second_differences`` over all of sigma's spectra at once."""
    lead = p.x.shape[:-1]
    tan = tan[..., 0, :, :]
    s = p.s[..., 0, :]
    f1 = _log_first_differences(s)
    weights = p.rt * f1 if t is None else t * (p.rt * f1)
    grad = -(tan.view(float) @ weights.view(float).reshape(lead + (32, 1)))[..., 0]
    # sum_{i,m,j} tan_k[i, m] f2[m, i, j] rt[j, i] tan_l[m, j], over i first.
    kernel = _second_differences(s, f1) * p.rt.mT[..., None, :, :]
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
    and, on the rows where the sequence t holds the last barrier t rather than
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
    """``Y = (|phi><phi|)^G`` for each phi of a stack."""
    return partial_transpose(phi[:, :, None] * phi.conj()[:, None, :])


def _face_point(rho: np.ndarray, m: np.ndarray, e: np.ndarray, phi: np.ndarray) -> _Point:
    """The point, against each rho of a stack, at ``(m - e Y) / (1 - e)``
    for each m of a stack, where ``Y = (|phi><phi|)^G`` and (e, phi) is the
    lowest eigenpair of m^G.  That matrix's partial transpose is m^G with
    its lowest eigenvalue moved to 0, so phi spans its kernel (Sanpera,
    Tarrach & Vidal), and a trace-1 m keeps trace 1."""
    lifted = (m - e[:, None, None] * _pt_projectors(phi)) / (1.0 - e)[:, None, None]
    return _point(rho, _coordinates(lifted))


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
    lambda_min(sigma_1^G) on 0 to first order, and ``_face_point`` puts it
    there exactly.  In rho's eigenbasis G_rho divides by the first divided
    differences of ln of all the rows at once, which needs r_0 above
    ZERO_CUTOFF and keeps them finite.  Rows where lambda_min(sigma_1) falls
    below _FIRST_ORDER_FLOOR r_0 are left out.  Under ``lapack_guard()`` a
    NaN or zero divided difference raises a plain ``LinAlgError`` at that
    division; an infinite one makes c infinite, with a divide-by-zero
    warning, and raises at sigma_1's sum.  Both come before sigma_1's
    eigensolves, so the error carries no matrix."""
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
    p = _face_point(rho, sigma_1, lam[:, 0], vec[:, :, 0])
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
    singular, ``states._nan_rows`` solves the stack once more and reads the
    singular rows, the ones LAPACK leaves NaN; they fail, and their steps
    read 0."""
    try:
        return solve(matrix, -residual), []
    except LinAlgError:
        steps, failed = _nan_rows(solve, matrix, -residual)
    steps[failed] = 0.0
    return steps, failed.tolist()


def _face_polish(rho: np.ndarray, rows: list, p: _Point, outcomes: list) -> None:
    """Newton on ``_kkt_system`` for the ``rows`` of a chunk's stack rho,
    each from its start point, the same row of the stacked p: writes into
    ``outcomes[row]`` its point on the face, or None, the steps it took and
    None for the barrier's t, and leaves ``(None, 0, None)`` where the start
    is not ``_on_face`` or its least-squares mu is not positive.  The steps
    run stacked over the states still polishing.

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
                outcomes[row] = _take(trial, k), steps, None
            elif on and steps < _POLISH_STEPS:
                going.append(k)
            else:
                outcomes[row] = None, steps, None
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
            dx = _nan_rows(solve, hess, -grad)[0]  # a singular Hessian's dx reads NaN
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
    """The solve's outcome for each state of a chunk's stack, from the
    ``herm_eig`` of rho and the ``_pt_eigh`` of rho^G: None where rho is
    PPT, else its last point, the steps taken and the last barrier t, None
    where the polish ended on the face.  The entangled rows run along the
    chain, each link naming a state by its chunk row and writing into the
    one outcome list: the polish from sigma_1, then from sigma_0 for the
    rows that sigma_1 left at ``(None, 0, None)``, then ``_barrier_solve``,
    row by row, where neither polish ended on the face.  It runs under the
    caller's ``lapack_guard()``, as in ``_ree_inputs``."""
    (r, w), (pt_values, pt_vectors) = spectra, pt_spectra
    e, phi = pt_values[:, 0], pt_vectors[:, :, 0]
    outcomes = [None if ppt else (None, 0, None) for ppt in _ppt(e).tolist()]
    entangled = [k for k, outcome in enumerate(outcomes) if outcome]
    if entangled:
        _face_polish(rho, *_face_starts(rho, entangled, r, w, e, phi), outcomes)
        rows = [k for k in entangled if not outcomes[k][1]]
        if rows:
            _face_polish(rho, rows, _face_point(rho[rows], rho[rows], e[rows], phi[rows]), outcomes)
        for k in entangled:
            point, steps, _ = outcomes[k]
            if point is None:
                point, barrier_steps, t = _barrier_solve(rho[k], float(e[k]))
                outcomes[k] = point, steps + barrier_steps, t
    return outcomes


def _ree_inputs(rho: np.ndarray, spectra, pt_spectra) -> list[ReeSolution]:
    """``ree`` of each state of a chunk's stack, from the ``herm_eig`` of rho
    and the ``_pt_eigh`` of rho^G, with one stacked certificate.

    PPT rows take the short-circuit: value 0, rho as its own closest state.
    The entangled rows run ``_start_chain``, which gives each its last
    point.  One pass over those points prices their dual gaps, the barrier
    rows' with their last t, judges their sigma^G with ``_ppt``, builds
    their closest states, reads each value off rho's spectrum and the
    point's spectrum of the closest state, and passes the values through one
    range rule call, each with its own gap in its slack."""
    with lapack_guard():
        outcomes = _start_chain(rho, spectra, pt_spectra)
        solutions = [
            None if outcome else ReeSolution(0.0, rho[k].copy(), 0, True, 0.0)
            for k, outcome in enumerate(outcomes)
        ]
        rows = [k for k, outcome in enumerate(outcomes) if outcome]
        if not rows:
            return solutions
        points, steps, last_t = zip(*(outcomes[k] for k in rows))
        # np.stack copies; a stack of one takes its leading axis as views.
        stacked = map(np.stack, zip(*points)) if len(rows) > 1 else (f[None] for f in points[0])
        p = _Point(*stacked)
        gaps = _dual_gap(p, last_t) + _gap_roundoff(p)
    if not _ppt(p.s[:, 1, 0]).all():
        raise ArithmeticError("solver produced a non-PPT candidate state")
    r = spectra[0]
    if len(rows) < len(outcomes):
        rho, r = rho[rows], r[rows]
    # Each point holds the spectrum that herm_eig of its closest state gives,
    # as that state is Hermitian to the last bit.
    values = _divergence(rho, p.s[:, 0], p.v[:, 0], _spectral_entropy(r))
    bits = gaps / LN2
    values = clip_roundoff(values, 0.0, 1.0, "REE", bits + _DIVERGENCE_ROUNDOFF).tolist()
    converged = (gaps <= _GAP_TOL_NATS).tolist()
    for k, *solution in zip(rows, values, _sigmas(p.x)[:, 0], steps, converged, bits.tolist()):
        solutions[k] = ReeSolution(*solution)
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
    there.  ``cfg`` is ignored.  A rho that is not Hermitian, whose trace
    is not 1, or whose lowest eigenvalue lies below 0, within
    ``HERMITICITY_TOL`` raises ``ValueError``: the solve and its certificate
    hold only for a state.
    """
    if measured is not None:
        return measured
    stack = _two_qubit(rho)[None]
    if not np.abs(stack - stack.conj().swapaxes(1, 2)).max() <= HERMITICITY_TOL:
        raise ValueError(f"rho is not Hermitian within {HERMITICITY_TOL:g}")
    trace = float(stack[0].trace().real)
    if not abs(trace - 1.0) <= HERMITICITY_TOL:
        raise ValueError(f"rho has trace {trace:.12g}, not 1 within {HERMITICITY_TOL:g}")
    spectra = herm_eig(stack)
    lowest = float(spectra[0][0, 0])
    if not lowest >= -HERMITICITY_TOL:
        raise ValueError(f"rho has eigenvalue {lowest:.12g}, not >= 0 within {HERMITICITY_TOL:g}")
    (solution,) = _ree_inputs(stack, spectra, _pt_eigh(stack))
    return solution

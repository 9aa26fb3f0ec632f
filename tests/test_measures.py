"""Entanglement measures: closed-form fixtures, oracles, solver properties."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entqfi import (
    ReeSolverConfig,
    apply_local_unitary,
    concurrence,
    derive_stream,
    is_separable,
    negativity,
    partial_transpose,
    random_density_matrix,
    ree,
)
from entqfi import fisher, measures, states
from entqfi.fisher import max_mean_qfi
from entqfi.rotations import grid_search
from entqfi.sampling import _density_matrices
from entqfi.states import (
    PAULI_PRODUCTS,
    clip_roundoff,
    herm_eig,
    lapack_guard,
    solve,
    von_neumann_entropy,
)
from helpers import (
    bell_diagonal,
    bell_state,
    concurrence_mp,
    dual_gap_mp,
    error_budget_fixture,
    haar_unitary,
    inverse_ree_fixtures,
    ket,
    log_divided_differences_errors_mp,
    log_divided_differences_loop,
    negativity_mp,
    pure,
    random_pure_state,
    ree_bell_diagonal_oracle,
    ree_pure_oracle,
    relative_entropy,
    relative_entropy_mp,
    werner,
)


def test_concurrence_fixtures():
    assert concurrence(bell_state("phi+")) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(bell_state("psi-")) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(pure(ket("00"))) == pytest.approx(0.0, abs=1e-12)
    assert concurrence(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_werner_formula():
    # Werner p: C = max(0, (3p-1)/2)
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(werner(p)) == pytest.approx(expected, abs=1e-12)


def test_negativity_fixtures():
    assert negativity(bell_state()) == pytest.approx(1.0, abs=1e-12)
    assert negativity(pure(ket("10"))) == 0.0
    assert negativity(np.eye(4) / 4.0) == 0.0
    # never a signed zero: the CSV layer prints the value verbatim
    assert math.copysign(1.0, negativity(werner(0.1))) == 1.0


def test_negativity_werner_formula():
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert negativity(werner(p)) == pytest.approx(expected, abs=1e-12)


def test_negativity_equals_concurrence_on_pure_states():
    rng = np.random.default_rng(21)
    for _ in range(25):
        rho = pure(random_pure_state(rng))
        assert abs(negativity(rho) - concurrence(rho)) < 1e-9


# The largest errors measured against the 40-digit references, on seeded
# states, doubled.  The fixture below reads 5.6e-16 and 2.2e-16.
_CONCURRENCE_ERROR_BOUND = 2 * 7.8e-16
_NEGATIVITY_ERROR_BOUND = 2 * 5.0e-16


def test_closed_forms_hold_their_error_budget_against_40_digit_references():
    # The concurrence and the negativity of one chunk pass over 20 states of
    # master seed 1 and 4 Bell-diagonal states (entangled, on the PPT
    # boundary, separable and pure), each against the exact value of its own
    # float matrix.
    rhos = error_budget_fixture()
    concurrences = measures._concurrences(herm_eig(rhos))
    negativities = measures._negativities(measures._pt_eigh(rhos)[0][:, 0])
    for index, rho in enumerate(rhos):
        assert abs(concurrences[index] - concurrence_mp(rho)) <= _CONCURRENCE_ERROR_BOUND, index
        assert abs(negativities[index] - negativity_mp(rho)) <= _NEGATIVITY_ERROR_BOUND, index


# The largest error of ree's value against S(rho || closest_state) at 40
# digits over the 1833 entangled states of master seeds 1-4 and 15 (ids
# 0-999), 2.51e-15 bits (seed 3, id 465), doubled.
_REE_ERROR_BOUND = 2 * 2.52e-15


def test_ree_value_holds_its_error_budget_against_a_40_digit_reference():
    """ree's value is S(rho || closest_state) evaluated in floats; on the
    entangled states of the frozen fixture it stays within twice the
    2.51e-15 bits measured on 1833 seeded entangled states of the exact
    divergence of its own float matrices (the fixture reads at most
    8.9e-16).  The reference is clipped to [0, 1] as ree clips its value:
    the pure Bell state's closest state is optimal only to its certified
    gap, and sits 1.8e-10 bits above 1."""
    for index, rho in enumerate(error_budget_fixture()):
        if is_separable(rho):
            continue
        solution = ree(rho)
        exact = relative_entropy_mp(rho, solution.closest_state)
        assert exact - 1 <= solution.gap, index
        assert abs(solution.value - min(exact, 1)) <= _REE_ERROR_BOUND, index


# The largest error of the raw dual gap, before _GAP_ROUNDOFF_NATS is added,
# against the same bound at 40 digits, over the polished points of the 1833
# entangled states of master seeds 1-4 and 15 (ids 0-999): 9.04e-13 nats
# (seed 15, id 137), doubled.  Times lambda_min(sigma) it reads at most 1.15
# machine epsilons (seed 1, id 936), doubled too.
_GAP_ERROR_BOUND = 2 * 9.04e-13
_GAP_ERROR_EPSILONS = 2 * 1.15


def _chain_outcomes(rhos):
    """The start chain's outcome for each state of a stack, as
    ``_ree_inputs`` runs it: from the stack's own decompositions, under
    ``lapack_guard()``."""
    with lapack_guard():
        return measures._start_chain(rhos, herm_eig(rhos), measures._pt_eigh(rhos))


def test_dual_gap_holds_its_error_budget_against_a_40_digit_reference():
    """The raw dual gap at each polished point of the fixture's entangled
    states, against the same bound at 40 digits from the exact eigenpairs
    of the float sigma: within twice the worst error measured on seeded
    states, in nats and times lambda_min(sigma) (the fixture reads at most
    1.9e-15 nats).  The roundoff term that the reported gap adds,
    ``_gap_roundoff``, is at least ten times the error there and at the two
    seeded points that set its law: seed 15, id 137, the worst error, and
    id 261, the narrowest margin.  A flat 1e-14 nats covered the median
    seeded error, 6.3e-16, but not the worst: on seed 2, id 452, the float
    gap read 4.1e-13 below the bound."""
    rhos = error_budget_fixture()
    points = [
        (rho, outcome[0])
        for rho, outcome in zip(rhos, _chain_outcomes(rhos))
        if outcome and outcome[2] is None
    ]
    assert len(points) == 10
    seeded = _density_matrices([derive_stream(15, index) for index in (137, 261)])
    points += [(rho, point) for rho, (point, _, _) in zip(seeded, _chain_outcomes(seeded))]
    for k, (rho, point) in enumerate(points):
        with lapack_guard():
            raw = measures._dual_gap(point)
        error = abs(raw - float(dual_gap_mp(rho, measures._sigmas(point.x)[0])))
        assert error <= _GAP_ERROR_BOUND
        assert error * point.s[0, 0] <= _GAP_ERROR_EPSILONS * np.finfo(float).eps
        assert 10 * error <= measures._gap_roundoff(point), k


# The largest error of the raw dual gap against dual_gap_mp at the barrier's
# last points of _barrier_rows' 20 pure and 20 rank-2 states: 3.71e-8 nats
# (pure, where lambda_min(sigma) reads 3.2e-10 to 1.8e-8), doubled.  Times
# lambda_min(sigma) it reads at most 0.132 machine epsilons (rank-2), doubled.
_BARRIER_GAP_ERROR_BOUND = 2 * 3.71e-8
_BARRIER_GAP_ERROR_EPSILONS = 2 * 0.132


def _barrier_rows():
    """20 pure states and 20 rank-2 states, two Haar eigenvectors weighted
    by a flat Dirichlet pair, each with its outcome read off the chain,
    where the barrier ends it: the pure states fall back by themselves,
    and the rank-2 ones, which the polish solves, run with both polishes
    patched out."""
    rng = np.random.default_rng(23)
    pures = np.array([pure(random_pure_state(rng)) for _ in range(20)])
    rank_2 = []
    for _ in range(20):
        basis, weights = haar_unitary(rng, 4)[:, :2], rng.dirichlet(np.ones(2))
        rank_2.append((basis * weights) @ basis.conj().T)
    rank_2 = np.array(rank_2)
    rows = list(zip(pures, _chain_outcomes(pures)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_face_polish", lambda *args: None)
        rows += list(zip(rank_2, _chain_outcomes(rank_2)))
    return rows


def test_barrier_dual_gap_holds_its_error_budget_against_a_40_digit_reference():
    """The raw dual gap at the barrier's last points, where ``_dual_gap``
    prices ``(sigma^G)^-1 / t`` too and keeps the smaller gap, against the
    same bound at 40 digits: within twice the worst error measured there,
    in nats and times lambda_min(sigma), and within a tenth of the
    roundoff term that the reported gap adds (at most 0.051 of it).  The
    barrier's multiplier sets the gap on 11 of the 20 rank-2 points.  The
    reference prices the multiplier that the float eigenpairs of sigma^G
    form; ``dual_gap_mp`` says why."""
    rows = _barrier_rows()
    assert all(t == measures._T_FINAL for _, (_, _, t) in rows)
    barrier_sets = []
    for k, (rho, (point, _, t)) in enumerate(rows):
        stack = measures._Point(*(field[None] for field in point))
        with lapack_guard():
            raw, face = measures._dual_gap(stack, [t])[0], measures._dual_gap(stack)[0]
        barrier_sets.append(raw < face)
        exact = dual_gap_mp(rho, measures._sigmas(point.x)[0], (t, point.s[1], point.v[1]))
        error = abs(raw - float(exact))
        assert error <= _BARRIER_GAP_ERROR_BOUND, k
        assert error * point.s[0, 0] <= _BARRIER_GAP_ERROR_EPSILONS * np.finfo(float).eps, k
        assert 10 * error <= measures._gap_roundoff(point), k
    assert sum(barrier_sets[20:]) == 11


@pytest.fixture(scope="module")
def seed_one_sigma_spectra():
    """The ascending spectra of sigma at the polished points of master seed
    1's 365 entangled states (ids 0-999), stacked."""
    rhos = _density_matrices([derive_stream(1, index) for index in range(1000)])
    outcomes = _chain_outcomes(rhos)
    return np.stack([outcome[0].s[0] for outcome in outcomes if outcome and outcome[2] is None])


def test_divided_differences_of_a_stack_equal_its_rows_bit_for_bit(seed_one_sigma_spectra):
    # The seeded spectra, one with an exactly equal pair, and one whose
    # three highest eigenvalues coincide within _COINCIDENT; every row alone,
    # unstacked, the scalar loops and the stack with two leading axes give
    # the stack's bits, and no floating-point flag is raised on the way.
    s = np.concatenate(
        [seed_one_sigma_spectra, [[0.1, 0.2, 0.2, 0.5], [0.1, 0.3, 0.3 + 3e-8, 0.3 + 6e-8]]]
    )
    with np.errstate(all="raise"):
        f1 = measures._log_first_differences(s)
        f2 = measures._second_differences(s, f1)
        for k, row in enumerate(s):
            row_f1 = measures._log_first_differences(row)
            assert row_f1.tobytes() == f1[k].tobytes(), k
            assert measures._second_differences(row, row_f1).tobytes() == f2[k].tobytes(), k
            loop_f1, loop_f2 = log_divided_differences_loop(row)
            assert (loop_f1.tobytes(), loop_f2.tobytes()) == (f1[k].tobytes(), f2[k].tobytes()), k
        halves = s[:-1].reshape(2, -1, 4)
        halves_f1 = measures._log_first_differences(halves)
        assert halves_f1.tobytes() == f1[:-1].tobytes()
        assert measures._second_differences(halves, halves_f1).tobytes() == f2[:-1].tobytes()
    assert f1[-2, 1, 2] == f1[-2, 2, 1] == f1[-2, 2, 2] == 1.0 / 0.2
    low, mid, high = s[-1, 1:]
    total = low + mid + high
    assert f2[-1, 1, 2, 3] == f2[-1, 3, 1, 2] == -4.5 / (total * total)


# The largest relative errors of f1 and f2 against their 40-digit values at
# the polished points of master seed 1's 365 entangled states: 2.22e-16
# (one rounding) and 2.59e-14, where a close pair of eigenvalues, 0.1077 and
# 0.1087, cancels in f2's numerator; doubled.
_F1_ERROR_BOUND = 2 * 2.22e-16
_F2_ERROR_BOUND = 2 * 2.59e-14


def test_divided_differences_hold_their_error_budget_against_40_digit_references(
    seed_one_sigma_spectra,
):
    s = seed_one_sigma_spectra
    f1 = measures._log_first_differences(s)
    f2 = measures._second_differences(s, f1)
    for k in range(len(s)):
        f1_error, f2_error = log_divided_differences_errors_mp(s[k], f1[k], f2[k])
        assert f1_error <= _F1_ERROR_BOUND, k
        assert f2_error <= _F2_ERROR_BOUND, k



def straddling_spectra(rng, n, low, high):
    """n ascending spectra, each summing to 1, whose three highest
    eigenvalues spread over a relative width drawn log-uniformly from
    [low, high]."""
    spread = np.exp(rng.uniform(np.log(low), np.log(high), n))
    top = rng.uniform(0.26, 0.33, n)
    mid = top * (1.0 - spread * rng.uniform(0.0, 1.0, n))
    bottom = top * (1.0 - spread)
    return np.stack([1.0 - top - mid - bottom, bottom, mid, top], axis=1)


# The largest relative errors of f2 against its 40-digit values on 13 draws
# of 300 spectra on each side of _COINCIDENT: 1.67e-11 on the -1/(2 mean^2)
# branch, relative spreads in [1e-6, 1e-5], and 8.04e-11 on the divided
# branch, in (1e-5, 1e-4]; doubled.  The first draw reads 1.67e-11 and
# 4.10e-11.
_COINCIDENT_F2_ERROR_BOUND = 2 * 1.67e-11
_DIVIDED_F2_ERROR_BOUND = 2 * 8.04e-11


def test_second_differences_hold_their_error_budget_on_both_sides_of_the_coincident_switch():
    rng = np.random.default_rng(60)
    for low, high, coincident, bound in (
        (1e-6, 1e-5, True, _COINCIDENT_F2_ERROR_BOUND),
        (1e-5, 1e-4, False, _DIVIDED_F2_ERROR_BOUND),
    ):
        s = straddling_spectra(rng, 300, low, high)
        assert np.all((s[:, 3] - s[:, 1] <= measures._COINCIDENT * s[:, 3]) == coincident)
        f1 = measures._log_first_differences(s)
        f2 = measures._second_differences(s, f1)
        for k in range(len(s)):
            _, f2_error = log_divided_differences_errors_mp(s[k], f1[k], f2[k])
            assert f2_error <= bound, (low, k)


def _grid_numerators():
    """Twice the grid's maximum, minimum and raw value, which must agree."""
    optimum = grid_search(bell_state(), 2.0 * math.pi / 4)
    (value,) = {2.0 * optimum.max_value, 2.0 * optimum.min_value, 2.0 * optimum.raw_value}
    return value


# Each caller of the range rule: the module it calls the rule from, the name
# it passes, how many rule calls of that name the call makes, the call, and
# the range it passes.  ree's slack also holds its certified gap.
_RANGE_RULE_CALLERS = {
    "concurrence": (measures, "concurrence", 1, lambda: concurrence(bell_state()), (0.0, 1.0)),
    "negativity": (measures, "negativity", 1, lambda: negativity(bell_state()), (0.0, 1.0)),
    "REE": (measures, "REE", 1, lambda: ree(bell_state()).value, (0.0, 1.0)),
    "relative entropy": (
        states,
        "relative entropy",
        1,
        lambda: relative_entropy(werner(0.5), np.eye(4) / 4.0),
        (0.0, math.inf),
    ),
    "von Neumann entropy": (
        states,
        "von Neumann entropy",
        1,
        lambda: von_neumann_entropy(np.eye(4) / 4.0),
        (0.0, math.inf),
    ),
    "mean-QFI numerator": (
        fisher,
        "mean-QFI numerator",
        1,
        lambda: 2.0 * max_mean_qfi(bell_state()).mean_qfi,
        (0.0, 4.0),
    ),
    # the grid's maximum, minimum and raw value, judged in one call per pass
    "grid mean-QFI numerators": (fisher, "mean-QFI numerator", 1, _grid_numerators, (0.0, 4.0)),
}


def _feed_range_rule(monkeypatch, module, what, value):
    """Hand the rule ``value`` in place of each value that its calls named
    ``what`` computed, leaving other calls alone; return the (low, high,
    slack) that each call named ``what`` passed."""
    calls = []

    def rule(computed, low, high, name, slack=states._DIVERGENCE_ROUNDOFF):
        if name != what:
            return clip_roundoff(computed, low, high, name, slack)
        calls.append((low, high, slack))
        return clip_roundoff(np.full(np.shape(computed), value), low, high, name, slack)

    monkeypatch.setattr(module, "clip_roundoff", rule)
    return calls


@pytest.mark.parametrize("caller", sorted(_RANGE_RULE_CALLERS))
def test_range_rule_clips_roundoff_and_raises_beyond_it(monkeypatch, caller):
    module, what, count, call, (low, high) = _RANGE_RULE_CALLERS[caller]
    for bound, side in ((low, -1.0), (high, 1.0)):
        if math.isinf(bound):
            continue
        calls = _feed_range_rule(monkeypatch, module, what, bound + side * 5e-13)
        assert call() == bound
        assert len(calls) == count
        for passed_low, passed_high, slack in calls:
            assert (passed_low, passed_high) == (low, high)
            assert slack > 1e-12 if what == "REE" else slack == 1e-12
        _feed_range_rule(monkeypatch, module, what, bound + side * 1e-6)
        with pytest.raises(ArithmeticError, match=rf"^{what} "):
            call()
    _feed_range_rule(monkeypatch, module, what, math.nan)
    with pytest.raises(ArithmeticError, match=rf"^{what} nan lies outside"):
        call()


def _raw_range_rule_values(monkeypatch, module):
    """Spy on the rule: the values its callers in ``module`` hand it, a
    stack's in order."""
    raw = []

    def rule(value, *args):
        raw.extend(np.ravel(value).tolist())
        return clip_roundoff(value, *args)

    monkeypatch.setattr(module, "clip_roundoff", rule)
    return raw


def test_maximally_entangled_states_never_read_above_one(monkeypatch):
    raw = _raw_range_rule_values(monkeypatch, measures)
    rng = np.random.default_rng(5)
    for _ in range(200):
        rho = apply_local_unitary(bell_state(), haar_unitary(rng, 2), haar_unitary(rng, 2))
        for measure in (concurrence, negativity):
            value = measure(rho)
            assert value == (1.0 if raw[-1] >= 1.0 else raw[-1])
            assert 1.0 - 4e-15 <= value <= 1.0
    # roundoff puts some readings above 1, and those read exactly 1.0
    assert max(raw) > 1.0


def test_product_pure_states_never_read_below_zero_entropy(monkeypatch):
    raw = _raw_range_rule_values(monkeypatch, states)
    rng = np.random.default_rng(6)
    for _ in range(200):
        psi = np.kron(haar_unitary(rng, 2)[:, 0], haar_unitary(rng, 2)[:, 0])
        value = von_neumann_entropy(pure(psi))
        assert value == (0.0 if raw[-1] <= 0.0 else raw[-1])
        assert 0.0 <= value <= 4e-15
    assert min(raw) < 0.0


def test_partial_transpose_has_at_most_one_negative_eigenvalue():
    # Sanpera, Tarrach & Vidal (1998): so negativity is -2 lambda_min.
    for index in range(1000):
        rho = random_density_matrix(derive_stream(1, index))
        vals = np.linalg.eigh(partial_transpose(rho))[0]
        assert vals[1] >= 0.0
        summed = min(1.0, max(0.0, -2.0 * float(vals[vals < 0.0].sum())))
        assert negativity(rho) == summed


def test_tangents_are_the_partial_transposes_of_the_pauli_tangents():
    sigma, sigma_pt = measures._TANGENTS.reshape(2, 15, 4, 4)
    for k in range(15):
        assert np.array_equal(sigma_pt[k], partial_transpose(sigma[k]))
        # ^G on B flips exactly the products whose B factor is sigma_y
        flip = -1.0 if (k + 1) % 4 == 2 else 1.0
        assert np.array_equal(sigma_pt[k], flip * sigma[k])


def test_is_separable_werner_boundary():
    assert is_separable(werner(1.0 / 3.0))  # PT eigenvalue exactly 0
    assert is_separable(werner(0.33))
    assert not is_separable(werner(0.34))
    assert not is_separable(bell_state())
    assert is_separable(np.eye(4) / 4.0)


def test_negativity_is_zero_wherever_the_ppt_verdict_holds():
    # lambda_min(rho^G) = -5.0e-11 lies inside the PPT tolerance, so the state
    # is separable and its negativity 0, not -2 lambda_min = 1.005e-10.
    rho = werner(1.0 / 3.0 + 6.7e-11)
    assert -measures.SEPARABILITY_EIG_TOL < measures._pt_eigh(rho)[0][0] < 0.0
    assert is_separable(rho)
    assert negativity(rho) == 0.0
    # A NaN still reaches the range rule.
    with pytest.raises(ArithmeticError, match="^negativity nan "):
        measures._negativities(np.array([np.nan]))


def test_separability_agrees_with_negativity():
    rng = derive_stream(100, 0)
    from entqfi import random_density_matrix

    for index in range(60):
        rho = random_density_matrix(derive_stream(100, index))
        neg = negativity(rho)
        if is_separable(rho):
            assert neg == 0.0
        else:
            assert neg > 0.0
    del rng


def test_ree_pure_oracle_values():
    assert ree_pure_oracle(np.array([1, 0, 0, 1]) / np.sqrt(2)) == pytest.approx(1.0, abs=1e-12)
    assert ree_pure_oracle(ket("00")) == pytest.approx(0.0, abs=1e-12)
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    frozen = 0.600876036692856  # binary entropy of cos^2(pi/8)
    assert ree_pure_oracle(np.array([c, 0, 0, s])) == pytest.approx(frozen, abs=1e-12)


def test_ree_pure_oracle_rejects_unnormalized():
    with pytest.raises(ValueError):
        ree_pure_oracle(np.array([1.0, 0.0, 0.0, 1.0]))


def test_ree_bell_diagonal_oracle_values():
    assert ree_bell_diagonal_oracle(0.5) == pytest.approx(0.0, abs=1e-12)
    assert ree_bell_diagonal_oracle(1.0) == pytest.approx(1.0, abs=1e-12)
    assert ree_bell_diagonal_oracle(0.75) == pytest.approx(0.188721875540867, abs=1e-12)
    for bad in (0.49, 1.01, -0.2):
        with pytest.raises(ValueError):
            ree_bell_diagonal_oracle(bad)


def test_ree_bell_diagonal_oracle_matches_explicit_scan():
    # independent check of the closed form: restrict the separable side to
    # Bell-diagonal candidates with dominant weight q; the divergence is
    # strictly decreasing on q in [1/4, 1/2] and its boundary minimum at
    # q = 1/2 must equal 1 - H2(lambda_max)
    lam = 0.8
    rest = np.array([1.0, 1.0, 1.0]) / 3.0
    rho = bell_diagonal((lam, *((1.0 - lam) * rest)))
    qs = np.linspace(0.25, 0.5, 501)
    vals = np.array(
        [relative_entropy(rho, bell_diagonal((q, *((1.0 - q) * rest)))) for q in qs]
    )
    assert np.all(np.diff(vals) < 0.0)
    assert int(np.argmin(vals)) == len(qs) - 1
    assert vals[-1] == pytest.approx(ree_bell_diagonal_oracle(lam), abs=1e-12)


def test_ree_solver_bell_state():
    solution = ree(bell_state())
    assert solution.converged
    assert abs(solution.value - 1.0) <= solution.gap + 1e-12
    assert is_separable(solution.closest_state)
    assert abs(np.trace(solution.closest_state).real - 1.0) < 1e-9


def test_ree_rejects_a_matrix_that_is_not_a_state():
    # None of these is a state, so the solve and its certificate do not hold:
    # without the check, half a Bell matrix reads 1.8e-10 bits converged, the
    # skew one 1.0 under a 1945-bit gap, the zero matrix 0, the first
    # diagonal with negative entries 0.32 bits unconverged, and the second
    # fails in the entropy's range rule.
    bell = bell_state()
    skew = bell + np.triu(np.full((4, 4), 0.3j), 1)
    cases = {
        "rho has trace 0.5, not 1 within 1e-10": 0.5 * bell,
        "rho is not Hermitian within 1e-10": skew,
        "rho has trace 0, not 1 within 1e-10": np.zeros((4, 4)),
        "rho has eigenvalue -0.05, not >= 0 within 1e-10": np.diag([0.7, 0.4, -0.05, -0.05]),
        "rho has eigenvalue -0.1, not >= 0 within 1e-10": np.diag([1.2, -0.1, -0.05, -0.05]),
    }
    for message, rho in cases.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ree(rho)
    # a state Hermitian and of trace 1 within the tolerance is solved
    assert ree(bell + 1e-11 * np.eye(4)).converged


def test_ree_solver_matches_pure_oracle():
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    psi = np.array([c, 0, 0, s])
    solution = ree(pure(psi))
    assert abs(solution.value - ree_pure_oracle(psi)) <= solution.gap + 1e-12


def test_ree_solver_matches_bell_diagonal_oracle():
    rho = bell_diagonal((0.75, 0.05, 0.1, 0.1))
    solution = ree(rho)
    assert abs(solution.value - ree_bell_diagonal_oracle(0.75)) <= solution.gap + 1e-12


def test_ree_value_consistent_with_closest_state():
    # the reported value is recomputed against the returned state, so the
    # pair must agree to machine precision
    rho = werner(0.8)
    solution = ree(rho)
    assert solution.value == pytest.approx(relative_entropy(rho, solution.closest_state), abs=1e-12)
    assert is_separable(solution.closest_state)


def test_ppt_verdict_holds_the_hilbert_schmidt_separability_probability():
    # Under the Hilbert-Schmidt measure, rho = G G^dagger / tr G G^dagger
    # with G complex Ginibre 4x4, the two-qubit separability probability is
    # exactly 8/33 (Lovas & Andai, J. Phys. A 50, 295303, 2017).  _ppt's
    # fraction over 1e5 draws lies within 4 binomial sigmas of it, sigma
    # from the sample: 0.24240 +- 0.00136.
    rng = np.random.default_rng(12345)
    g = rng.standard_normal((100_000, 4, 4)) + 1j * rng.standard_normal((100_000, 4, 4))
    rhos = g @ g.conj().swapaxes(1, 2)
    rhos /= rhos.trace(axis1=1, axis2=2).real[:, None, None]
    lowest = measures._pt_eigh(rhos)[0][:, 0].tolist()
    fraction = sum(map(measures._ppt, lowest)) / len(rhos)
    sigma = math.sqrt(fraction * (1.0 - fraction) / len(rhos))
    assert abs(fraction - 8.0 / 33.0) <= 4.0 * sigma


def test_ree_separable_short_circuit():
    rho = werner(0.2)
    solution = ree(rho)
    assert solution.value == 0.0
    assert solution.iterations == 0
    assert solution.converged
    assert np.array_equal(solution.closest_state, rho)


def test_ree_checks_the_closest_state_on_the_last_barrier_point(monkeypatch):
    def second_check(rho):
        raise AssertionError("ree decomposed the closest state's partial transpose again")

    monkeypatch.setattr(measures, "is_separable", second_check)
    assert ree(werner(0.7)).converged
    face_polish, barrier_solve = measures._face_polish, measures._barrier_solve

    def below_the_ppt_floor(point):
        s = point.s.copy()
        s[1, 0] = -2.0 * measures.SEPARABILITY_EIG_TOL
        return point._replace(s=s)

    def polished(rho, rows, start, outcomes):
        face_polish(rho, rows, start, outcomes)
        for k in rows:
            point, steps, t = outcomes[k]
            outcomes[k] = (None if point is None else below_the_ppt_floor(point)), steps, t

    def barrier(rho, lowest):
        point, steps, t = barrier_solve(rho, lowest)
        return below_the_ppt_floor(point), steps, t

    monkeypatch.setattr(measures, "_face_polish", polished)
    monkeypatch.setattr(measures, "_barrier_solve", barrier)
    # werner(0.7) ends on the face polish, the pure state on the barrier path.
    for rho in (werner(0.7), pure(np.array([0.8, 0.0, 0.0, 0.6]))):
        with pytest.raises(ArithmeticError, match="non-PPT"):
            ree(rho)


def test_ree_monotone_in_werner_mixing():
    values = [ree(werner(p)).value for p in (0.4, 0.6, 0.8, 1.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_measures_bell():
    bell = bell_state()
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert negativity(bell) == pytest.approx(1.0, abs=1e-12)
    solution = ree(bell)
    assert abs(solution.value - 1.0) <= solution.gap + 1e-12
    assert not is_separable(bell)


def test_measures_separable():
    mixed = np.eye(4) / 4.0
    assert concurrence(mixed) == 0.0
    assert negativity(mixed) == 0.0
    assert ree(mixed).value == 0.0
    assert is_separable(mixed)


def test_partial_transpose_detects_bell_diagonal_threshold():
    # Bell-diagonal states are separable exactly when the top weight <= 1/2
    assert is_separable(bell_diagonal((0.5, 0.5, 0.0, 0.0)))
    assert not is_separable(bell_diagonal((0.51, 0.49, 0.0, 0.0)))
    assert partial_transpose(bell_diagonal((0.25, 0.25, 0.25, 0.25))).trace() == pytest.approx(1.0)


def _seeded_ree(master_seed, index):
    rho = random_density_matrix(derive_stream(master_seed, index))
    return rho, ree(rho)


def test_ree_converged_uses_best_lower_bound_over_starts():
    # Master seed 15, state 137 needed a resumed start in the former
    # mixture solver.  The value must not exceed 0.003986588101331567, the
    # one that solver certified when its second start was a fresh draw.
    _, solution = _seeded_ree(15, 137)
    assert solution.converged
    assert solution.gap <= 2e-5 / math.log(2.0)
    assert solution.value == pytest.approx(0.003986382382724418, abs=1e-9)
    assert solution.value <= 0.003986588101331567


def test_ree_gap_is_not_negative_when_one_atom_climbs_to_a_lower_maximum():
    # Master seed 15, state 449: the former solver's best-atom ascent,
    # started from the heaviest atom alone, read a gap of -2.5e-5 bits here.
    # The closed-form dual gap is not negative.
    _, solution = _seeded_ree(15, 449)
    assert solution.converged
    assert 0.0 <= solution.gap <= 2e-5 / math.log(2.0)
    assert solution.value == pytest.approx(0.00633751577048036, abs=1e-9)


def test_ree_gap_carries_its_own_roundoff(monkeypatch):
    # Master seed 15, state 624: at the polished point the dual gap is a
    # difference of two numbers near 1 that agree, and it read -2.2e-16 nats
    # (numpy 2.4.6).  The reported gap adds the measured roundoff bound at
    # that point, so it is not negative; it is not clamped either.
    raw, points, dual_gap = [], [], measures._dual_gap

    def recording(p, t=None):
        raw.append(dual_gap(p, t))
        points.append(p)
        return raw[-1]

    monkeypatch.setattr(measures, "_dual_gap", recording)
    _, solution = _seeded_ree(15, 624)
    assert abs(raw[-1]) <= measures._GAP_ROUNDOFF_NATS
    assert solution.gap == (raw[-1] + measures._gap_roundoff(points[-1])) / math.log(2.0)
    assert 0.0 < solution.gap <= 2e-13 / math.log(2.0)


def test_gap_roundoff_holds_ten_times_over_on_seed_one():
    # The raw dual gap, before _GAP_ROUNDOFF_NATS is added, at the polished
    # point of each of master seed 1's 365 entangled states: a difference of
    # two numbers near 1 that agree, which read 1.1e-16 nats and more (0.0
    # and more over master seeds 1-4 and 15).  A tenth of the constant must
    # cover its roundoff.
    rhos = _density_matrices([derive_stream(1, index) for index in range(1000)])
    outcomes = [outcome for outcome in _chain_outcomes(rhos) if outcome is not None]
    assert len(outcomes) == 365 and all(t is None for _, _, t in outcomes)
    points = [point for point, _, _ in outcomes]
    with lapack_guard():
        gaps = [measures._dual_gap(point) for point in points]
    assert min(gaps) >= -measures._GAP_ROUNDOFF_NATS / 10


def test_ree_single_polish_certifies_former_insertion_state():
    # Master seed 4, state 842 certified only after a conditional-gradient
    # atom insertion in an early mixture solver.
    _, solution = _seeded_ree(4, 842)
    assert solution.converged
    assert solution.gap <= 3e-5
    assert solution.value == pytest.approx(8.61661402149494e-05, abs=1e-9)


def test_ree_converged_iff_gap_within_tolerance():
    solutions = []
    index = 0
    while len(solutions) < 30:
        rho, solution = _seeded_ree(8, index)
        index += 1
        if not is_separable(rho):
            solutions.append(solution)
    for solution in solutions:
        # The dual gap is lambda_max(D + Q^G) - tr(sigma D) with sigma PPT,
        # so it is not negative beyond roundoff.
        assert solution.gap >= -5e-6
        assert solution.converged == (solution.gap <= 2e-5 / math.log(2.0))


def test_ree_newton_step_budget():
    # The first 40 entangled states of master seed 1 (ids 0-101) took 743
    # Newton steps when t grew from 8/gap and the last round was cut short
    # at _T_FINAL, 605 in whole hundredfold rounds ending on _T_FINAL, 423
    # when the face polish took over after the round at t = 8e3, 239 with
    # the polish started on the face, with no barrier round, and 170 from
    # the first-order inverse-problem start.
    steps = []
    index = 0
    while len(steps) < 40:
        rho = random_density_matrix(derive_stream(1, index))
        index += 1
        if not is_separable(rho):
            steps.append(ree(rho).iterations)
    assert index == 102
    assert sum(steps) <= 180


def test_seed_one_ends_on_the_face_within_its_step_budget(monkeypatch):
    # The 365 entangled states of master seed 1 took 2092 polish steps from
    # sigma_0 and 1578 from the first-order start, the largest certified gap
    # 3.3e-12 bits, nearly all of it the gap's roundoff term; none falls back
    # to the barrier.
    def no_barrier(rho, lowest):
        raise AssertionError("the face polish fell back to the barrier")

    monkeypatch.setattr(measures, "_barrier_solve", no_barrier)
    steps, gaps = 0, []
    for index in range(1000):
        solution = ree(random_density_matrix(derive_stream(1, index)))
        if solution.iterations:
            steps += solution.iterations
            gaps.append(solution.gap)
    assert len(gaps) == 365
    assert steps <= 1650
    assert max(gaps) <= 5e-12


def test_ree_value_is_the_relative_entropy_to_its_closest_state():
    # ree reads S(rho||closest) off the spectra its solve holds; they are
    # the ones relative_entropy computes, so the value is the same to the
    # last bit, on the face and on the barrier path.
    states = [random_density_matrix(derive_stream(2, i)) for i in range(200)]
    rng = np.random.default_rng(3)
    states += [pure(random_pure_state(rng)) for _ in range(5)]
    for rho in states:
        solution = ree(rho)
        if solution.iterations:
            assert solution.value == relative_entropy(rho, solution.closest_state)


def test_pure_states_fall_back_and_nearly_pure_states_end_on_the_face(monkeypatch):
    # sigma >= 0 is active at a pure state's optimum, so the polish fails
    # there and the barrier's bits are reported: pure states, and pure +
    # 1e-12 I/4, where lambda_min(rho) is below ZERO_CUTOFF.  The polish
    # still solves pure + 1e-10 I/4, which _FIRST_ORDER_FLOOR keeps at
    # sigma_0, and rank-2 states.
    def no_barrier(rho, lowest):
        raise AssertionError("the face polish fell back to the barrier")

    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = random_pure_state(rng)
        for noise in (0.0, 1e-12):
            rho = (1.0 - noise) * pure(psi) + noise * np.eye(4) / 4.0
            solution, barrier = ree(rho), _without_polish(monkeypatch, rho)
            assert solution.iterations > barrier.iterations
            assert (solution.value, solution.gap) == (barrier.value, barrier.gap)
            assert np.array_equal(solution.closest_state, barrier.closest_state)
        rank_2 = 0.7 * pure(psi) + 0.3 * pure(random_pure_state(rng))
        with monkeypatch.context() as patch:
            patch.setattr(measures, "_barrier_solve", no_barrier)
            for rho in ((1.0 - 1e-10) * pure(psi) + 1e-10 * np.eye(4) / 4.0, rank_2):
                if not is_separable(rho):
                    assert ree(rho).converged


def _without_polish(monkeypatch, rho):
    """ree(rho) with the face polish failing at once: the barrier path."""
    with monkeypatch.context() as patch:
        patch.setattr(measures, "_face_polish", lambda *args: None)
        return ree(rho)


def test_no_usable_face_start_leaves_the_barrier_path_alone(monkeypatch):
    # With no start on the face, sigma_1's and sigma_0's alike, the polish
    # gives up before a step, so the chain hands the state to the barrier
    # and ree is the barrier path bit for bit, its step count included.
    monkeypatch.setattr(measures, "_on_face", lambda s: False)
    for rho in (random_density_matrix(derive_stream(1, 1)), pure(np.array([0.8, 0.0, 0.0, 0.6]))):
        _, steps, t = _polish_alone(rho)
        solution, barrier = ree(rho), _without_polish(monkeypatch, rho)
        assert t is not None and steps == barrier.iterations
        assert (solution.iterations, solution.converged) == (barrier.iterations, barrier.converged)
        assert (solution.value, solution.gap) == (barrier.value, barrier.gap)
        assert np.array_equal(solution.closest_state, barrier.closest_state)


def test_capped_barrier_reports_itself_unconverged(monkeypatch):
    # A pure state takes the barrier path after one failed polish step; cut
    # at _MAX_STEPS = 3 it reports the point it reached with its own
    # certificate: unconverged, a gap of 0.068 bits that covers its distance
    # from the closed form, and the relative entropy to that point.
    psi = np.array([0.8, 0.0, 0.0, 0.6])
    rho = pure(psi)
    monkeypatch.setattr(measures, "_MAX_STEPS", 3)
    solution = ree(rho)
    assert solution.iterations == 1 + 3
    assert not solution.converged
    assert solution.gap == pytest.approx(0.068, abs=1e-3)
    assert solution.value == relative_entropy(rho, solution.closest_state)
    assert 0.0 < solution.value - ree_pure_oracle(psi) <= solution.gap


def test_ree_barrier_rounds_are_whole_and_end_on_t_final(monkeypatch):
    # Every t is _T_FINAL / _T_GROWTH**j, j falls by one per round, and the
    # path ends at _T_FINAL bit for bit, which repeated products of
    # 8 / 1e-9 = 7999999999.999999 can miss.  Only a state whose face
    # polish fails takes the barrier path (a pure state, where sigma >= 0 is
    # active at the optimum), with the same bits as if the polish had not
    # run; a seeded state ends on the face with no barrier round at all.
    newton_system, face_polish = measures._newton_system, measures._face_polish
    for rho, polished in (
        (random_density_matrix(derive_stream(1, 1)), True),
        (pure(np.array([0.8, 0.0, 0.0, 0.6])), False),
    ):
        assert not is_separable(rho)
        barrier = _without_polish(monkeypatch, rho)
        seen, polishes = [], []

        def recording(t, p):
            seen.append(t)
            return newton_system(t, p)

        def recording_polish(rho, rows, start, outcomes):
            face_polish(rho, rows, start, outcomes)
            polishes.extend(outcomes[k] for k in rows)

        monkeypatch.setattr(measures, "_newton_system", recording)
        monkeypatch.setattr(measures, "_face_polish", recording_polish)
        solution = ree(rho)
        monkeypatch.undo()
        ((point, taken, t),) = polishes
        assert (point is not None) == polished and taken >= 1 and t is None
        assert solution.iterations == len(seen) + taken
        if polished:
            assert seen == []
            continue
        powers = [round(math.log(measures._T_FINAL / t, measures._T_GROWTH)) for t in seen]
        assert all(t == measures._T_FINAL / measures._T_GROWTH**j for t, j in zip(seen, powers))
        rounds = [j for k, j in enumerate(powers) if k == 0 or j != powers[k - 1]]
        assert rounds == list(range(rounds[0], -1, -1)) and rounds[0] > 0
        assert seen[-1] == measures._T_FINAL
        assert solution.iterations == barrier.iterations + taken
        assert (solution.value, solution.gap) == (barrier.value, barrier.gap)
        assert np.array_equal(solution.closest_state, barrier.closest_state)


@pytest.mark.parametrize("excess", [1e-8, 1e-7, 1e-6, 1e-5])
def test_ree_just_past_the_werner_threshold_takes_one_round(monkeypatch, excess):
    # The barrier start's gap is O(excess^2), below its floor of 8/_T_FINAL,
    # where _T_FINAL * gap / 8 rounds to just under 1: still one round at
    # _T_FINAL.  The face polish solves these states too.
    rho = werner(1.0 / 3.0 + excess)
    assert not is_separable(rho)
    for solution in (ree(rho), _without_polish(monkeypatch, rho)):
        assert solution.converged and solution.iterations >= 1
        assert 0.0 <= solution.value <= 1e-9


def test_singular_hessian_ends_the_solve_at_the_current_point(monkeypatch):
    # A singular 16x16 KKT matrix ends the face polish, and the barrier
    # rounds run to the certified point they reach without the polish, bit
    # for bit.  A 15x15 barrier Hessian that solve finds singular then ends
    # ree at the last accepted point, with its value and certificate read
    # there: here uncertified.
    rho = random_density_matrix(derive_stream(1, 1))
    barrier = _without_polish(monkeypatch, rho)
    certified = []
    for k in (None, 2):
        calls = []

        def singular(a, b):
            # LAPACK reads the system singular, as a zero matrix: it raises
            # under lapack_guard() and leaves the step NaN where the invalid
            # flag is ignored.  Every KKT system is singular, so the polish's
            # first stacked solve fails, and _kkt_steps' second solve of the
            # same stack, which takes no step of its own, reads its NaN row.
            calls.append(a.shape[-1])
            if a.shape[-1] == 16 or calls.count(15) == k:
                a = np.zeros_like(a)
            return solve(a, b)

        monkeypatch.setattr(measures, "solve", singular)
        solution = ree(rho)
        assert calls.count(16) == 2
        assert solution.iterations == len(calls) - 1
        assert solution.value == relative_entropy(rho, solution.closest_state)
        assert solution.converged == (solution.gap * math.log(2.0) <= measures._GAP_TOL_NATS)
        certified.append(solution.converged)
        if k is None:
            assert solution.iterations == barrier.iterations + 1
            assert (solution.value, solution.gap) == (barrier.value, barrier.gap)
            assert np.array_equal(solution.closest_state, barrier.closest_state)
    assert certified == [True, False]


def test_barrier_is_infinite_off_either_cone():
    # The barrier objective is finite inside both cones, and inf where sigma
    # or sigma^G is not positive definite, so no backtracking step leaves them.
    rho = random_density_matrix(derive_stream(1, 1))
    assert math.isfinite(measures._barrier(3.0, _pauli_point(rho, werner(0.3))))
    for sigma in (np.diag([1.1, 0.0, 0.0, -0.1]), werner(0.8)):
        point = _pauli_point(rho, sigma)
        assert point.s[:, 0].min() < 0.0
        assert measures._barrier(3.0, point) == math.inf


def test_barrier_rounds_end_on_the_last_point_when_no_step_lowers_the_objective(monkeypatch):
    # Where no step length along a Newton step lowers the barrier objective
    # (here every trial point reads inf), the 40 halvings end that round on
    # its point and the next round starts there: each round takes one step,
    # far within _MAX_STEPS, and the solve returns its start point at _T_FINAL.
    rho = random_density_matrix(derive_stream(1, 1))
    lowest = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
    barrier, newton_system = measures._barrier, measures._newton_system
    start, rounds = [], []

    def no_decrease(t, p):
        if not start:
            start.append(p)
        return barrier(t, p) if p is start[0] else math.inf

    def recording_newton_system(t, p):
        rounds.append(t)
        return newton_system(t, p)

    monkeypatch.setattr(measures, "_barrier", no_decrease)
    monkeypatch.setattr(measures, "_newton_system", recording_newton_system)
    point, steps, t = measures._barrier_solve(rho, lowest)
    assert point is start[0]
    assert steps == len(rounds) == len(set(rounds)) < measures._MAX_STEPS
    assert t == rounds[-1] == measures._T_FINAL


def _sigma_1_stack(count):
    """The first ``count`` entangled states of master seed 1 that sigma_1
    starts, stacked, and their sigma_1 points."""
    rhos = _density_matrices([derive_stream(1, index) for index in range(3 * count)])
    (r, w), (values, vectors) = herm_eig(rhos), measures._pt_eigh(rhos)
    entangled = [k for k, low in enumerate(values[:, 0]) if not measures._ppt(low)]
    with lapack_guard():
        rows, start = measures._face_starts(rhos, entangled, r, w, values[:, 0], vectors[:, :, 0])
    assert len(rows) >= count
    return rhos[rows[:count]], measures._take(start, slice(count))


@pytest.mark.parametrize("row", [0, 2, 4])
def test_a_singular_kkt_system_fails_only_its_own_row_of_the_polish(monkeypatch, row):
    # One state's first KKT system in a 5-row sigma_1 polish stack reads
    # singular to LAPACK (a zero matrix): the stacked solve raises, the
    # second solve leaves that row NaN, and only that state's polish fails,
    # after its one step.  Every other row's outcome is its stack-of-one
    # outcome, bit for bit.
    rhos, start = _sigma_1_stack(5)
    alone = [None] * 5
    with lapack_guard():
        for k in range(5):
            measures._face_polish(rhos, [k], measures._take(start, [k]), alone)
    assert all(point is not None for point, _, _ in alone)
    target, singular_calls = [], []

    def singular(a, b):
        if not target:
            target.append(a[row].copy())
        hit = [np.array_equal(m, target[0]) for m in a]
        if any(hit):
            singular_calls.append(len(a))
            a = a.copy()
            a[hit] = 0.0
        return solve(a, b)

    monkeypatch.setattr(measures, "solve", singular)
    outcomes = [None] * 5
    with lapack_guard():
        measures._face_polish(rhos, list(range(5)), start, outcomes)
    assert singular_calls == [5, 5]
    assert outcomes[row] == (None, 1, None)
    for k in set(range(5)) - {row}:
        (point, steps, t), (point_alone, steps_alone, _) = outcomes[k], alone[k]
        assert (steps, t) == (steps_alone, None), k
        assert [f.tobytes() for f in point] == [f.tobytes() for f in point_alone], k


def test_a_start_off_the_face_leaves_only_its_own_row_unpolished():
    # The second row of a two-row polish stack starts where sigma has a
    # negative eigenvalue, so it is not _on_face: that row keeps the
    # (None, 0, None) the chain wrote for it, and the first row's outcome is
    # its stack-of-one outcome, bit for bit.
    rhos, start = _sigma_1_stack(2)
    off = np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex)
    off_start = measures._point(rhos[1:2], measures._coordinates(off[None]))
    first = measures._take(start, [0])
    stack = measures._Point(*(np.concatenate(fields) for fields in zip(first, off_start)))
    alone, outcomes = [(None, 0, None)], [(None, 0, None)] * 2
    with lapack_guard():
        measures._face_polish(rhos[:1], [0], first, alone)
        measures._face_polish(rhos, [0, 1], stack, outcomes)
    assert off_start.s[0, 0, 0] < 0.0
    assert outcomes[1] == (None, 0, None)
    (point, steps, t), (point_alone, steps_alone, _) = outcomes[0], alone[0]
    assert point is not None and (steps, t) == (steps_alone, None)
    assert [f.tobytes() for f in point] == [f.tobytes() for f in point_alone]


def test_the_barrier_link_runs_for_exactly_the_entangled_rows_left_unpolished(monkeypatch):
    # With both polishes patched out, the chain hands every entangled row,
    # and only those, to _barrier_solve, in row order, and each row's
    # outcome is the barrier's point, steps and last t.
    rhos = _density_matrices([derive_stream(1, index) for index in range(8)])
    solved, barrier_solve = {}, measures._barrier_solve

    def spied(rho, lowest):
        solved[rho.tobytes()] = barrier_solve(rho, lowest)
        return solved[rho.tobytes()]

    monkeypatch.setattr(measures, "_face_polish", lambda *args: None)
    monkeypatch.setattr(measures, "_barrier_solve", spied)
    outcomes = _chain_outcomes(rhos)
    entangled = [k for k, rho in enumerate(rhos) if not is_separable(rho)]
    assert 0 < len(entangled) < len(rhos)
    assert list(solved) == [rhos[k].tobytes() for k in entangled]
    for k, outcome in enumerate(outcomes):
        if k not in entangled:
            assert outcome is None
            continue
        point, steps, t = solved[rhos[k].tobytes()]
        assert outcome[0] is point and outcome[1:] == (steps, t) and t == measures._T_FINAL


def _pauli_point(rho, sigma):
    """The solver's iterate at sigma, from sigma's Pauli coordinates."""
    x = np.array([np.trace(p @ sigma).real for p in PAULI_PRODUCTS.reshape(16, 4, 4)[1:]])
    return measures._point(np.asarray(rho, dtype=complex), x)


@pytest.mark.parametrize(
    "rho, sigma, t",
    [
        (random_density_matrix(derive_stream(1, 1)), None, 3.0),
        # Werner states: 3-fold degenerate spectra of both rho and sigma.
        (werner(0.8), werner(0.3), 3.0),
        # The same points where the t-scaled part dominates.
        (random_density_matrix(derive_stream(1, 1)), None, 1e6),
        (werner(0.8), werner(0.3), 1e6),
    ],
    ids=["random", "werner", "random-t1e6", "werner-t1e6"],
)
def test_newton_system_matches_central_differences(rho, sigma, t):
    rho = np.asarray(rho, dtype=complex)
    if sigma is None:
        sigma = 0.3 * rho + 0.7 * np.eye(4) / 4.0
    step = 1e-6
    point = _pauli_point(rho, sigma)
    grad, hess, scaled = measures._newton_system(t, point)

    # scaled[c, k] is s^-1/2 V† T V s^-1/2 for T = P_k/4 (c = 0) and P_k^G/4.
    paulis = PAULI_PRODUCTS.reshape(16, 4, 4)[1:] / 4.0
    for c, tangents in enumerate([paulis, [partial_transpose(m) for m in paulis]]):
        v, r = point.v[c], 1.0 / np.sqrt(point.s[c])
        expected = [r[:, None] * (v.conj().T @ m @ v) * r for m in tangents]
        assert np.allclose(scaled[c].view(complex).reshape(15, 4, 4), expected, atol=1e-13)

    def shifted(k, sign):
        return measures._point(rho, point.x + sign * step * np.eye(15)[k])

    num_grad = np.array(
        [
            (measures._barrier(t, shifted(k, 1)) - measures._barrier(t, shifted(k, -1)))
            / (2.0 * step)
            for k in range(15)
        ]
    )
    num_hess = np.array(
        [
            (
                measures._newton_system(t, shifted(k, 1))[0]
                - measures._newton_system(t, shifted(k, -1))[0]
            )
            / (2.0 * step)
            for k in range(15)
        ]
    )
    assert np.linalg.norm(num_grad - grad) <= 1e-6 * np.linalg.norm(grad)
    assert np.linalg.norm(num_hess - hess) <= 1e-6 * np.linalg.norm(hess)
    assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))


@pytest.mark.parametrize(
    "rho, sigma",
    [
        (random_density_matrix(derive_stream(1, 1)), None),
        # sigma^G's lowest eigenvalue is simple, the other three coincide, and
        # sigma's spectrum is 3-fold degenerate too.
        (werner(0.8), werner(0.3)),
    ],
    ids=["random", "werner"],
)
def test_kkt_system_matches_central_differences(rho, sigma):
    # F(x, mu) = (grad f - mu grad g, -g) with f = -tr(rho ln sigma) and
    # g = lambda_min(sigma^G); the matrix is F's Jacobian in (x, mu).
    rho = np.asarray(rho, dtype=complex)
    if sigma is None:
        sigma = 0.3 * rho + 0.7 * np.eye(4) / 4.0
    step, mu = 1e-6, 0.7
    point = _pauli_point(rho, sigma)
    residual, matrix, built_at = measures._kkt_system(point, mu)
    kkt = measures._kkt_system

    def shifted(k, sign):
        return measures._point(rho, point.x + sign * step * np.eye(15)[k])

    def central(value):
        return np.array([(value(shifted(k, 1)) - value(shifted(k, -1))) / (2.0 * step) for k in range(15)])

    def entropy_term(p):
        return -float(p.rt.diagonal().real @ np.log(p.s[0]))

    def close(numeric, exact):
        return np.linalg.norm(numeric - exact) <= 1e-6 * np.linalg.norm(exact)

    grad_g = -matrix[15, :15]
    hess_g = kkt(point, 0.0)[1][:15, :15] - kkt(point, 1.0)[1][:15, :15]
    assert residual[15] == -point.s[1, 0] and matrix[15, 15] == 0.0
    assert np.array_equal(matrix[:15, 15], matrix[15, :15])
    assert close(central(lambda p: p.s[1, 0]), grad_g)
    assert close(central(lambda p: -kkt(p, mu)[1][15, :15]), hess_g)
    assert close(central(entropy_term), residual[:15] + mu * grad_g)
    columns = list(central(lambda p: kkt(p, mu)[0]))
    columns.append((kkt(point, mu + step)[0] - kkt(point, mu - step)[0]) / (2.0 * step))
    assert close(np.array(columns).T, matrix)
    assert np.max(np.abs(matrix - matrix.T)) <= 1e-12 * np.max(np.abs(matrix))
    # Without a mu, the least-squares multiplier: grad f - mu grad g is
    # orthogonal to grad g.
    residual, _, least_squares = kkt(point, None)
    grad_f = kkt(point, 0.0)[0][:15]
    assert built_at == mu
    assert abs(residual[:15] @ grad_g) <= 1e-12 * np.linalg.norm(grad_f) * np.linalg.norm(grad_g)
    assert np.array_equal(residual[:15], kkt(point, least_squares)[0][:15])


def test_boundary_step_stops_short_of_the_nearer_cone():
    # A long Newton step from a seed-1 state's interior point: at alpha both
    # cones stay positive definite, and alpha / 0.99 puts the nearer cone's
    # lowest eigenvalue on zero.
    rho = random_density_matrix(derive_stream(1, 1))
    point = _pauli_point(rho, 0.3 * rho + 0.7 * np.eye(4) / 4.0)
    grad, hess, scaled = measures._newton_system(100.0, point)
    dx = np.linalg.solve(hess, -grad)
    assert -grad @ dx > measures._FULL_STEP
    alpha = measures._boundary_step(dx, scaled)
    assert alpha < 1.0
    inside = measures._point(rho, point.x + alpha * dx).s[:, 0]
    assert inside.min() > 0.0
    boundary = measures._point(rho, point.x + (alpha / 0.99) * dx).s[:, 0]
    assert abs(boundary.min()) <= 1e-12
    assert boundary.max() > 0.0


def _polish_alone(rho):
    """The start chain's outcome for rho alone, as a stack of one: its last
    point, its steps and the barrier's last t, None where the polish ended
    on the face."""
    (outcome,) = _chain_outcomes(np.asarray(rho, dtype=complex)[None])
    return outcome


def _face_starts(rho):
    """The start points that the chain hands the face polish for rho where
    each polish stops before a step: sigma_1 where it serves, then sigma_0.
    The barrier, which the chain would then run, is left out."""
    starts = []

    def declined(rhos, rows, start, outcomes):
        starts.extend(measures._take(start, k) for k in range(len(rows)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_face_polish", declined)
        patch.setattr(measures, "_barrier_solve", lambda rho, lowest: (None, 0, None))
        _polish_alone(rho)
    return starts


def test_face_start_lifts_the_negative_partial_transpose_eigenvalue():
    # sigma_0 = (rho - e (|phi><phi|)^G) / (1 - e) with (e, phi) the lowest
    # eigenpair of rho^G: trace 1, and phi spans the kernel of sigma_0^G.
    # On a pure state sigma_0 is the only start.
    states = [random_density_matrix(derive_stream(1, i)) for i in range(30)]
    states = [rho for rho in states if not is_separable(rho)] + [werner(0.8), bell_state()]
    for rho in states:
        lam, vec = np.linalg.eigh(partial_transpose(rho))
        e, phi = lam[0], vec[:, 0]
        assert e < 0.0
        point = _face_starts(rho)[-1]
        sigma, sigma_pt = measures._sigmas(point.x)
        expected = (rho - e * partial_transpose(np.outer(phi, phi.conj()))) / (1.0 - e)
        assert np.max(np.abs(sigma - expected)) <= 1e-15
        assert abs(np.trace(sigma) - 1.0) <= 1e-15
        assert abs(point.s[1, 0]) <= 1e-15
        assert np.max(np.abs(sigma_pt @ phi)) <= 1e-15
    assert len(_face_starts(bell_state())) == 1


def test_first_order_face_start_lies_nearer_the_closest_state():
    # sigma_1, rho + c G_rho[Y] lifted onto the face: trace 1, on the face,
    # and nearer than sigma_0 to each fixture's known closest state.
    for rho, sigma in inverse_ree_fixtures(30):
        first, plain = _face_starts(rho)
        sigma_1, sigma_1_pt = measures._sigmas(first.x)
        assert abs(np.trace(sigma_1) - 1.0) <= 1e-15
        assert abs(np.linalg.eigvalsh(sigma_1_pt)[0]) <= 1e-15
        distance = [np.linalg.norm(measures._sigmas(p.x)[0] - sigma) for p in (first, plain)]
        assert distance[0] < distance[1]


def _start_traffic(master_seed):
    """The start chain over the first 1000 states of a master seed: for each
    state a row (rho, its ``_ree_inputs`` solution, its chain outcome), and
    for each ``_face_polish`` call in turn, sigma_1's and then sigma_0's,
    the outcome of each state it was handed, by id, which is its row of the
    one stack."""
    rhos = _density_matrices([derive_stream(master_seed, index) for index in range(1000)])
    polishes, chains = [], []
    face_polish, start_chain = measures._face_polish, measures._start_chain

    def recording(rho, rows, start, outcomes):
        face_polish(rho, rows, start, outcomes)
        polishes.append({k: outcomes[k] for k in rows})

    def recording_chain(rho, spectra, pt_spectra):
        chains.append(start_chain(rho, spectra, pt_spectra))
        return chains[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_face_polish", recording)
        patch.setattr(measures, "_start_chain", recording_chain)
        solutions = measures._ree_inputs(rhos, herm_eig(rhos), measures._pt_eigh(rhos))
    (outcomes,) = chains
    return list(zip(rhos, solutions, outcomes)), polishes


def _sigma_1_mu(master_seed, index):
    """The least-squares mu at a seeded state's sigma_1, which must lie on
    the face; None where sigma_1 falls under _FIRST_ORDER_FLOOR, as rho
    has no zero eigenvalue."""
    stack = _density_matrices([derive_stream(master_seed, index)])
    (r, w), (values, vectors) = herm_eig(stack), measures._pt_eigh(stack)
    assert r[0, 0] > measures.ZERO_CUTOFF
    with lapack_guard():
        served, start = measures._face_starts(stack, [0], r, w, values[:, 0], vectors[:, :, 0])
        if not served:
            return None
        assert measures._on_face(start.s[0, :, :2].tolist())
        return float(measures._kkt_system(start, None)[2][0])


def test_the_start_chain_on_seed_one_falls_to_sigma_0_under_the_floor_and_on_a_negative_mu():
    # sigma_1 starts 363 of the 365 entangled states.  Id 846's sigma_1 falls
    # under _FIRST_ORDER_FLOOR, so the polish is not handed it; id 264's lies
    # on the face, but its least-squares mu is -0.077, so the polish leaves
    # it at (None, 0).  Both polish from sigma_0 and end on the face, where
    # the certified gap is at the level of its roundoff term (1.7e-13 and
    # 1.5e-13 bits): none reaches the barrier.
    rows, (first, second) = _start_traffic(1)
    entangled = [index for index, (_, _, polished) in enumerate(rows) if polished is not None]
    assert len(entangled) == 365
    assert sum(steps > 0 for _, steps, _ in first.values()) == 363
    assert set(entangled) - set(first) == {846} and first[264] == (None, 0, None)
    assert sorted(second) == [264, 846]
    assert _sigma_1_mu(1, 846) is None
    assert _sigma_1_mu(1, 264) == pytest.approx(-0.077, abs=5e-4)
    assert [rows[index][2][1] for index in (264, 846)] == [8, 5]
    for index in (264, 846):
        solution = ree(random_density_matrix(derive_stream(1, index)), measured=rows[index][1])
        assert solution.converged and solution.gap <= 2.5e-13
        assert solution.iterations == rows[index][2][1]  # no barrier step
    assert all(rows[index][2][2] is None for index in entangled)


def test_the_start_chain_serves_every_entangled_seeded_state_before_the_barrier():
    # Over master seeds 1-4 and 15, sigma_1 starts 1818 of the 1833
    # entangled states and sigma_0 the other 15: 8 under sigma_1's floor and
    # 7 whose sigma_1 has a least-squares mu <= 0.  The barrier starts none:
    # every entangled row's outcome ends on the face, its t None.
    counts = np.zeros(4, dtype=int)
    for master_seed in (1, 2, 3, 4, 15):
        rows, polishes = _start_traffic(master_seed)
        first, second = polishes
        started = {index for index, (_, steps, _) in first.items() if steps}
        entangled = {index for index, (_, _, outcome) in enumerate(rows) if outcome}
        assert set(second) == entangled - started
        assert all(steps for _, steps, _ in second.values())
        assert all(rows[index][2][0] is not None for index in entangled)
        assert all(rows[index][2][2] is None for index in entangled)
        mus = [_sigma_1_mu(master_seed, index) for index in second]
        assert all(mu is None or mu <= 0.0 for mu in mus)
        counts += [len(started), len(second), mus.count(None), len(mus) - mus.count(None)]
    assert counts.tolist() == [1818, 15, 8, 7]


def test_face_polish_damps_the_steps_that_leave_the_cone(monkeypatch):
    # Seed 1, id 209: the whole first step from sigma_1 leaves sigma > 0.
    # It is cut short, and every iterate keeps sigma > 0 and mu > 0.
    rho = random_density_matrix(derive_stream(1, 209))
    point, kkt_system = measures._point, measures._kkt_system
    points, iterates = [], []

    def recording_point(rho, x):
        points.append(point(rho, x))
        return points[-1]

    def recording_kkt(p, mu):
        built = kkt_system(p, mu)
        iterates.extend(zip(p.s[..., 0, 0].ravel().tolist(), np.ravel(built[2]).tolist()))
        return built

    monkeypatch.setattr(measures, "_point", recording_point)
    monkeypatch.setattr(measures, "_kkt_system", recording_kkt)
    polished, steps, t = _polish_alone(rho)
    assert polished is not None and t is None and steps == len(iterates)
    assert min(p.s[..., 0, 0].min() for p in points) <= 0.0  # an undamped step left the cone
    assert all(s0 > 0.0 and mu > 0.0 for s0, mu in iterates)
    assert polished.s[0, 0] > 0.0
    assert len(points) > steps + 1  # the damped step took a second point


@pytest.mark.parametrize("family", ["rank-2", "rank-3", "pure+1e-6", "pure+1e-8"])
def test_ree_is_never_above_the_barrier_path_beyond_its_gap(monkeypatch, family):
    # Rank-deficient and near-pure states, where sigma >= 0 is active or
    # nearly active at the optimum: ree, polished or not, never exceeds the
    # plain barrier path's value by more than its own certified gap.
    rng = np.random.default_rng(41)
    solved = 0
    while solved < 8:
        if family.startswith("rank"):
            weights = np.zeros(4)
            rank = int(family[-1])
            weights[:rank] = rng.dirichlet(np.ones(rank))
            basis = haar_unitary(rng, 4)
            rho = (basis * weights) @ basis.conj().T
        else:
            noise = float(family.split("+")[1])
            rho = (1.0 - noise) * pure(random_pure_state(rng)) + noise * np.eye(4) / 4.0
        rho = 0.5 * (rho + rho.conj().T)
        if is_separable(rho):
            continue
        solved += 1
        solution, barrier = ree(rho), _without_polish(monkeypatch, rho)
        assert solution.converged and barrier.converged
        assert solution.value <= barrier.value + solution.gap


def _sphere(n):
    """n nearly uniform unit vectors (Fibonacci lattice)."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    return np.stack([np.ones(n), r * np.cos(phi), r * np.sin(phi), z], axis=1)


def test_dual_gap_is_never_below_a_product_state_scan():
    # Product states are PPT, so lambda_max(D + Q^G) bounds every
    # tr(Pi D) = (1, a)·T·(1, b)/4 with T_uv = tr((sigma_u ⊗ sigma_v) D).
    # Checked at each state's barrier start and at its closest state.
    bloch = _sphere(400)
    states = [
        rho
        for rho in (random_density_matrix(derive_stream(31, i)) for i in range(120))
        if not is_separable(rho)
    ][:20]
    assert len(states) == 20
    for rho in states:
        lowest = np.linalg.eigvalsh(partial_transpose(rho))[0]
        mix = min(1.0, 2.0 * abs(lowest) / (0.25 + abs(lowest)))
        for sigma in ((1.0 - mix) * rho + mix * np.eye(4) / 4.0, ree(rho).closest_state):
            point = _pauli_point(rho, sigma)
            s, v = point.s[0], point.v[0]
            diff = s[:, None] - s[None, :]
            f1 = np.divide(
                np.log(s)[:, None] - np.log(s)[None, :],
                diff,
                out=np.repeat(1.0 / s[:, None], 4, axis=1),
                where=diff != 0.0,
            )
            d_mat = v @ (point.rt * f1) @ v.conj().T
            t = np.einsum("uvab,ba->uv", PAULI_PRODUCTS, d_mat).real
            scan = 0.25 * float(np.max(bloch @ t @ bloch.T)) - float(np.trace(sigma @ d_mat).real)
            assert measures._dual_gap(point) >= scan - 1e-12


@pytest.mark.parametrize("master_seed, index", [(1, 88), (1, 282), (15, 483), (3, 912)])
def test_ree_certifies_states_the_ascent_over_certified(master_seed, index):
    # The former best-atom ascent reported these four converged while an
    # exact product-state search put their gaps above 2e-5 nats.
    _, solution = _seeded_ree(master_seed, index)
    assert solution.converged
    assert 0.0 <= solution.gap <= 2e-5 / math.log(2.0)


def test_ree_certifies_rank_deficient_states(monkeypatch):
    # Where rho is rank deficient, sigma >= 0 can be active at the optimum
    # too, and [(I - D)^G]_+ alone then misses the multiplier; on the barrier
    # path its own (sigma^G)^-1 / t keeps these certified.  The face polish
    # certifies all of these.
    rng = np.random.default_rng(5)
    solved = 0
    for rank in (2, 3) * 15:
        weights = np.zeros(4)
        weights[:rank] = rng.dirichlet(np.ones(rank))
        basis = haar_unitary(rng, 4)
        rho = (basis * weights) @ basis.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        if is_separable(rho):
            continue
        solved += 1
        for solution in (ree(rho), _without_polish(monkeypatch, rho)):
            assert solution.converged
            assert 0.0 <= solution.gap <= 2e-5 / math.log(2.0)
    assert solved >= 15


def test_ree_ignores_rng():
    rho = random_density_matrix(derive_stream(1, 1))
    a = ree(rho, ReeSolverConfig(rng=np.random.default_rng(1)))
    b = ree(rho, ReeSolverConfig(rng=np.random.default_rng(2)))
    assert a.value == b.value and a.gap == b.gap and a.iterations == b.iterations
    assert np.array_equal(a.closest_state, b.closest_state)


def test_ree_is_local_unitary_invariant():
    rng = np.random.default_rng(17)
    for index in (1, 3, 7):
        rho = random_density_matrix(derive_stream(1, index))
        assert not is_separable(rho)
        rotated = apply_local_unitary(rho, haar_unitary(rng, 2), haar_unitary(rng, 2))
        assert abs(ree(rotated).value - ree(rho).value) <= 1e-8


def test_ree_matches_the_inverse_problem_fixtures():
    # Each fixture's closest PPT state sigma, and so its REE S(rho || sigma),
    # is known exactly.  The face polish ends on sigma with no 1/t bias: on
    # 40 fixtures ree lay within 1.8e-15 bits of S(rho || sigma) and the
    # closest state within 2.4e-15 of sigma (the barrier path alone left
    # +1.8e-10 bits and 2.4e-10).
    rng = np.random.default_rng(29)
    for rho, sigma in inverse_ree_fixtures(30):
        exact = relative_entropy(rho, sigma)
        solution = ree(rho)
        assert abs(solution.value - exact) <= 1e-13
        assert np.max(np.abs(solution.closest_state - sigma)) <= 1e-12
        rotated = apply_local_unitary(rho, haar_unitary(rng, 2), haar_unitary(rng, 2))
        assert abs(ree(rotated).value - solution.value) <= solution.gap


def test_ree_matches_the_inverse_problem_fixtures_at_the_rank_3_edge():
    # At x a fraction 1 - 1e-9 of its rho >= 0 limit, lambda_min(rho) is
    # below 1e-12; at the limit rho has rank 3 (lambda_min down to -2.5e-16).
    # Every solve converges and ends on the face, its start-chain t None.
    # The bounds are twice the worst errors measured over fractions 0.5 to 1:
    # 2.7e-15 bits for the value and 1.3e-15 for the closest state.
    for fraction in (1.0 - 1e-9, 1.0):
        fixtures = inverse_ree_fixtures(60, fraction)
        outcomes = _chain_outcomes(np.stack([rho for rho, _ in fixtures]))
        for (rho, sigma), outcome in zip(fixtures, outcomes):
            solution = ree(rho)
            assert solution.converged and outcome[2] is None, fraction
            assert abs(solution.value - relative_entropy(rho, sigma)) <= 5.4e-15, fraction
            assert np.max(np.abs(solution.closest_state - sigma)) <= 2.8e-15, fraction


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: the package must import without it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import entqfi, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

"""Entanglement measures: closed-form fixtures, oracles, solver properties."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from entqfi import (
    ReeSolverConfig,
    apply_local_unitary,
    concurrence,
    derive_stream,
    haar_unitary,
    is_separable,
    negativity,
    partial_transpose,
    random_density_matrix,
    ree,
    ree_bell_diagonal_oracle,
    ree_pure_oracle,
    relative_entropy,
)
from entqfi import fisher, measures, rotations, states
from entqfi.fisher import max_mean_qfi
from entqfi.rotations import grid_search
from entqfi.states import PAULI_PRODUCTS, clip_roundoff, solve, von_neumann_entropy
from helpers import bell_diagonal, bell_state, ket, pure, random_pure_state, werner


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
        (0.0, math.inf),
    ),
    # the grid's maximum, minimum and raw value
    "grid mean-QFI numerators": (rotations, "mean-QFI numerator", 3, _grid_numerators, (0.0, math.inf)),
}


def _feed_range_rule(monkeypatch, module, what, value):
    """Hand the rule ``value`` in place of what its calls named ``what``
    computed, leaving other calls alone; return the (low, high, slack) that
    each call named ``what`` passed."""
    calls = []

    def rule(computed, low, high, name, slack=states._DIVERGENCE_ROUNDOFF):
        if name != what:
            return clip_roundoff(computed, low, high, name, slack)
        calls.append((low, high, slack))
        return clip_roundoff(value, low, high, name, slack)

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
    """Spy on the rule: the values its callers in ``module`` hand it."""
    raw = []

    def rule(value, *args):
        raw.append(float(value))
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
        vals = np.linalg.eigvalsh(partial_transpose(rho))
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


def test_separability_agrees_with_negativity():
    rng = derive_stream(100, 0)
    from entqfi import random_density_matrix

    for index in range(60):
        rho = random_density_matrix(derive_stream(100, index))
        neg = negativity(rho)
        if is_separable(rho):
            assert neg <= 2e-10
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
    assert abs(solution.value - 1.0) < 1e-4
    assert is_separable(solution.closest_state)
    assert abs(np.trace(solution.closest_state).real - 1.0) < 1e-9


def test_ree_solver_matches_pure_oracle():
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    psi = np.array([c, 0, 0, s])
    solution = ree(pure(psi))
    assert abs(solution.value - ree_pure_oracle(psi)) < 1e-4


def test_ree_solver_matches_bell_diagonal_oracle():
    rho = bell_diagonal((0.75, 0.05, 0.1, 0.1))
    solution = ree(rho)
    assert abs(solution.value - ree_bell_diagonal_oracle(0.75)) < 1e-4


def test_ree_value_consistent_with_closest_state():
    # the reported value is recomputed against the returned state, so the
    # pair must agree to machine precision
    rho = werner(0.8)
    solution = ree(rho)
    assert solution.value == pytest.approx(relative_entropy(rho, solution.closest_state), abs=1e-12)
    assert is_separable(solution.closest_state)


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
    barrier_solve = measures._barrier_solve

    def below_the_ppt_floor(rho, lowest):
        point, steps, t = barrier_solve(rho, lowest)
        s = point.s.copy()
        s[1, 0] = -2.0 * measures.SEPARABILITY_EIG_TOL
        return point._replace(s=s), steps, t

    monkeypatch.setattr(measures, "_barrier_solve", below_the_ppt_floor)
    with pytest.raises(ArithmeticError, match="non-PPT"):
        ree(werner(0.7))


def test_ree_reproducible_with_seeded_rng():
    rho = werner(0.7)
    a = ree(rho, ReeSolverConfig(rng=derive_stream(55, 0)))
    b = ree(rho, ReeSolverConfig(rng=derive_stream(55, 0)))
    assert a.value == b.value


def test_ree_monotone_in_werner_mixing():
    values = [ree(werner(p)).value for p in (0.4, 0.6, 0.8, 1.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_measures_bell():
    bell = bell_state()
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert negativity(bell) == pytest.approx(1.0, abs=1e-12)
    assert abs(ree(bell).value - 1.0) < 1e-4
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
    rng = derive_stream(master_seed, index)
    rho = random_density_matrix(rng)
    return rho, ree(rho, ReeSolverConfig(rng=rng))


def test_ree_two_components_bell_state():
    solution = ree(bell_state(), ReeSolverConfig(components=2))
    assert abs(solution.value - 1.0) < 1e-4
    assert solution.converged


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
    # at _T_FINAL; whole hundredfold rounds ending on _T_FINAL take 605.
    steps = []
    index = 0
    while len(steps) < 40:
        rho = random_density_matrix(derive_stream(1, index))
        index += 1
        if not is_separable(rho):
            steps.append(ree(rho).iterations)
    assert index == 102
    assert sum(steps) <= 640


def test_ree_barrier_rounds_are_whole_and_end_on_t_final(monkeypatch):
    # Every t is _T_FINAL / _T_GROWTH**j, j falls by one per round down to
    # 0, and the last t is _T_FINAL bit for bit, which repeated products
    # of 8 / 1e-9 = 7999999999.999999 can miss.
    seen = []
    newton_system = measures._newton_system

    def recording(t, p):
        seen.append(t)
        return newton_system(t, p)

    monkeypatch.setattr(measures, "_newton_system", recording)
    rho = random_density_matrix(derive_stream(1, 1))
    assert not is_separable(rho)
    ree(rho)
    powers = [round(math.log(measures._T_FINAL / t, measures._T_GROWTH)) for t in seen]
    assert all(t == measures._T_FINAL / measures._T_GROWTH**j for t, j in zip(seen, powers))
    rounds = [j for k, j in enumerate(powers) if k == 0 or j != powers[k - 1]]
    assert rounds == list(range(rounds[0], -1, -1)) and len(rounds) > 1
    assert seen[-1] == measures._T_FINAL


@pytest.mark.parametrize("excess", [1e-8, 1e-7, 1e-6, 1e-5])
def test_ree_just_past_the_werner_threshold_takes_one_round(excess):
    # The start's gap is O(excess^2), below its floor of 8/_T_FINAL, where
    # _T_FINAL * gap / 8 rounds to just under 1: still one round at _T_FINAL.
    rho = werner(1.0 / 3.0 + excess)
    assert not is_separable(rho)
    solution = ree(rho)
    assert solution.converged and solution.iterations >= 1
    assert 0.0 <= solution.value <= 1e-9


def test_singular_hessian_ends_the_solve_at_the_current_point(monkeypatch):
    # A solve that raises LinAlgError at step k ends ree there, with its
    # value and certificate read at the last accepted point: early it is
    # uncertified, at the last step already certified.
    rho = random_density_matrix(derive_stream(1, 1))
    full = ree(rho).iterations
    certified = []
    for k in (2, full):
        calls = []

        def singular_at_k(a, b):
            calls.append(a)
            if len(calls) == k:
                raise LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(measures, "solve", singular_at_k)
        solution = ree(rho)
        assert solution.iterations == k == len(calls)
        assert solution.value == relative_entropy(rho, solution.closest_state)
        assert solution.converged == (solution.gap * math.log(2.0) <= measures._GAP_TOL_NATS)
        certified.append(solution.converged)
    assert certified == [False, True]


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


def test_ree_certifies_rank_deficient_states():
    # Where rho is rank deficient, sigma >= 0 can be active at the optimum
    # too, and [(I - D)^G]_+ alone then misses the multiplier; the barrier's
    # own (sigma^G)^-1 / t keeps these certified.
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
        solution = ree(rho)
        solved += 1
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


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: the package must import without it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import entqfi, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

"""Entanglement measures: closed-form fixtures, oracles, solver properties."""

import math

import numpy as np
import pytest

from entqfi import (
    PAULI,
    ReeSolverConfig,
    concurrence,
    derive_stream,
    is_separable,
    negativity,
    partial_transpose,
    random_density_matrix,
    ree,
    ree_bell_diagonal_oracle,
    ree_pure_oracle,
    relative_entropy,
)
from entqfi import measures
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


def test_ree_config_rejects_components_outside_two_to_five():
    for components in (1, 6, 16):
        with pytest.raises(ValueError):
            ReeSolverConfig(components=components)


def test_ree_converged_uses_best_lower_bound_over_starts():
    # Master seed 15, state 137: the first start stops at L-BFGS-B's
    # iteration cap just short of the certificate, and the next start
    # resumes from its mixture and certifies it.  The value must not exceed
    # 0.003986588101331567, the one certified when that next start was a
    # fresh draw.
    _, solution = _seeded_ree(15, 137)
    assert solution.converged
    assert solution.gap <= 2e-5 / math.log(2.0)
    assert solution.value == pytest.approx(0.003986382382724418, abs=1e-9)
    assert solution.value <= 0.003986588101331567


def test_ree_certifies_lowest_start_by_another_starts_lower_bound(monkeypatch):
    # Two scripted starts on |Phi+>: the lower one leaves a wide gap, the
    # higher one's f - gap closes the certificate.  The solver must stop
    # there, converged, and report the lower start's mixture.
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    low = (np.array([0.5, 0.5]), poles, poles)
    high = (np.array([0.7, 0.3]), poles, poles)
    rho = bell_state()
    f_low = relative_entropy(rho, measures._mixture(*low)) * math.log(2.0)
    f_high = relative_entropy(rho, measures._mixture(*high)) * math.log(2.0)
    scripted = iter(
        [(f_low, 0.5, low, 10, None), (f_high, f_high - f_low + 1e-6, high, 20, None)]
    )
    monkeypatch.setattr(measures, "_solve_once", lambda *args: next(scripted))
    solution = ree(rho)
    assert solution.converged
    assert solution.iterations == 30
    assert solution.gap == pytest.approx(1e-6 / math.log(2.0), rel=1e-6)
    assert solution.value == pytest.approx(f_low / math.log(2.0), abs=1e-12)
    assert solution.value == pytest.approx(1.0, abs=1e-6)


def _bloch_projector(bloch):
    return 0.5 * (np.eye(2) + sum(c * sigma for c, sigma in zip(bloch, PAULI)))


def test_pauli_correlations_price_product_projectors():
    # tr((|a><a| ⊗ |b><b|) D) = (1, a)·T·(1, b) / 4 with
    # T_uv = tr((sigma_u ⊗ sigma_v) D), and the Pauli-basis mixture is the
    # weighted sum of those projectors.
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d_mat = z + z.conj().T
        t = measures._pauli_correlations(d_mat)
        a, b = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 3)))
        projector = np.kron(_bloch_projector(a), _bloch_projector(b))
        expected = np.trace(projector @ d_mat).real
        assert abs(np.r_[1.0, a] @ t @ np.r_[1.0, b] / 4.0 - expected) <= 1e-12
    weights = rng.dirichlet(np.ones(4))
    bloch = rng.standard_normal((2, 4, 3))
    bloch /= np.linalg.norm(bloch, axis=2, keepdims=True)
    expected = sum(
        w * np.kron(_bloch_projector(a), _bloch_projector(b))
        for w, a, b in zip(weights, *bloch)
    )
    expected = (1.0 - 1e-9) * expected + 1e-9 / 4.0 * np.eye(4)
    assert np.max(np.abs(measures._mixture(weights, *bloch) - expected)) <= 1e-12


def test_ree_gap_is_not_negative_when_one_atom_climbs_to_a_lower_maximum():
    # Master seed 15, state 449: an ascent started from the heaviest atom
    # alone stops at a local maximum below the mixture's mean score, and the
    # gap read -2.5e-5 bits.  Started from every atom it cannot.
    _, solution = _seeded_ree(15, 449)
    assert solution.converged
    assert 0.0 <= solution.gap <= 2e-5 / math.log(2.0)
    assert solution.value == pytest.approx(0.00633751577048036, abs=1e-9)


def test_value_and_grad_matches_central_differences():
    rho = random_density_matrix(derive_stream(1, 1))
    assert not is_separable(rho)
    m = 5
    x = np.random.default_rng(9).standard_normal(7 * m)
    h_rho = measures._log_trace(rho)
    _, grad = measures._value_and_grad(x, rho, h_rho, m)
    step = 1e-6
    numeric = np.array(
        [
            (
                measures._value_and_grad(x + step * e, rho, h_rho, m)[0]
                - measures._value_and_grad(x - step * e, rho, h_rho, m)[0]
            )
            / (2.0 * step)
            for e in np.eye(x.size)
        ]
    )
    assert np.linalg.norm(numeric - grad) <= 1e-6 * np.linalg.norm(grad)


def test_ree_single_polish_certifies_former_insertion_state():
    # Master seed 4, state 842 certified only after a conditional-gradient
    # atom insertion in the former solver; plain restarts now certify it.
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
        # The best-atom ascent starts from every atom of the mixture, so the
        # gap is not negative beyond roundoff.
        assert solution.gap >= -5e-6
        assert solution.converged == (solution.gap <= 2e-5 / math.log(2.0))

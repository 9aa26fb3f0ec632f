"""Entanglement measures: closed-form fixtures, oracles, solver properties."""

import math
import os
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
from entqfi import measures
from entqfi.states import PAULI_PRODUCTS
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


def _pauli_point(rho, sigma):
    """The solver's iterate at sigma, from sigma's Pauli coordinates."""
    x = np.array([np.trace(p @ sigma).real for p in PAULI_PRODUCTS.reshape(16, 4, 4)[1:]])
    return measures._point(np.asarray(rho, dtype=complex), x)


@pytest.mark.parametrize(
    "rho, sigma",
    [
        (random_density_matrix(derive_stream(1, 1)), None),
        # Werner states: 3-fold degenerate spectra of both rho and sigma.
        (werner(0.8), werner(0.3)),
    ],
    ids=["random", "werner"],
)
def test_newton_system_matches_central_differences(rho, sigma):
    rho = np.asarray(rho, dtype=complex)
    if sigma is None:
        sigma = 0.3 * rho + 0.7 * np.eye(4) / 4.0
    t, step = 3.0, 1e-6
    point = _pauli_point(rho, sigma)
    grad, hess, _ = measures._newton_system(t, point)

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

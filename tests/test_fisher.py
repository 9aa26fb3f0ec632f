"""Collective spin and mean QFI via the 3x3 C-matrix."""

import numpy as np
import pytest

from entqfi import (
    HEISENBERG_LIMIT,
    SHOT_NOISE_LEVEL,
    c_matrix,
    collective_spin,
    max_mean_qfi,
    qfi_direction,
    random_density_matrix,
    derive_stream,
)
from entqfi.fisher import J_OPERATORS, LOCAL_SPINS, pair_weights, spin_qfi_matrix
from entqfi.states import ZERO_CUTOFF
from helpers import bell_state, ket, pure, random_pure_state


def test_collective_spin_algebra():
    jx, jy, jz = J_OPERATORS
    assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-14)
    # J^2 spectrum: triplet j=1 gives 2 three times, singlet gives 0
    j_squared = jx @ jx + jy @ jy + jz @ jz
    assert np.allclose(np.sort(np.linalg.eigvalsh(j_squared)), [0.0, 2.0, 2.0, 2.0], atol=1e-12)


def test_collective_spin_direction():
    n = np.array([0.6, 0.0, 0.8])
    j_n = collective_spin(n)
    assert np.max(np.abs(j_n - j_n.conj().T)) < 1e-14
    assert abs(np.trace(j_n)) < 1e-14
    assert np.allclose(j_n, 0.6 * J_OPERATORS[0] + 0.8 * J_OPERATORS[2])


def test_collective_spin_rejects_nonunit():
    with pytest.raises(ValueError):
        collective_spin([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        collective_spin([1.0, 0.0])


def test_pair_weights_structure():
    w = pair_weights(np.array([0.5, 0.3, 0.2, 0.0]))
    assert np.allclose(w, w.T)
    assert np.all(np.diag(w) == 0.0)
    # degenerate zero pair hits the cutoff and is dropped instead of 0/0
    w = pair_weights(np.array([1.0, 0.0, 0.0, 0.0]))
    assert w[1, 2] == 0.0
    assert w[0, 1] == pytest.approx(1.0)


def test_pair_weights_zero_a_pair_sum_at_the_zero_cutoff_only():
    at = pair_weights(np.array([ZERO_CUTOFF, 0.0]))
    assert at[0, 1] == at[1, 0] == 0.0
    above = np.nextafter(ZERO_CUTOFF, 1.0)
    kept = pair_weights(np.array([above, 0.0]))
    assert kept[0, 1] == kept[1, 0] == above * above / above > 0.0


def test_c_matrix_symmetric_psd():
    for index in range(10):
        rho = random_density_matrix(derive_stream(200, index))
        c = c_matrix(rho)
        assert c.shape == (3, 3)
        assert np.allclose(c, c.T, atol=1e-12)
        assert np.linalg.eigvalsh(c)[0] > -1e-10


def test_qfi_direction_is_quadratic_form_of_c():
    rng = np.random.default_rng(17)
    for index in range(5):
        rho = random_density_matrix(derive_stream(201, index))
        c = c_matrix(rho)
        for _ in range(4):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            assert qfi_direction(rho, n) == pytest.approx(float(n @ c @ n), abs=1e-10)


def test_spin_qfi_matrix_is_quadratic_form_over_local_spins():
    # direct QFI sum for H = a·S^A + b·S^B with independent local directions
    rng = np.random.default_rng(19)
    for index in range(5):
        rho = random_density_matrix(derive_stream(204, index))
        g = spin_qfi_matrix(rho)
        assert g.shape == (6, 6)
        assert np.array_equal(g, g.T)
        p, basis = np.linalg.eigh(rho)
        weights = pair_weights(p)
        for _ in range(4):
            v = rng.normal(size=6)
            h = np.einsum("k,kij->ij", v, LOCAL_SPINS)
            direct = np.sum(2.0 * weights * np.abs(basis.conj().T @ h @ basis) ** 2)
            assert direct == pytest.approx(float(v @ g @ v), abs=1e-10)


def test_max_mean_qfi_fixtures():
    value, direction, _ = max_mean_qfi(bell_state("phi+"))
    assert value == pytest.approx(HEISENBERG_LIMIT, abs=1e-12)
    assert value == pytest.approx(qfi_direction(bell_state("phi+"), direction) / 2.0, abs=1e-10)

    value, _, _ = max_mean_qfi(pure(ket("00")))
    assert value == pytest.approx(SHOT_NOISE_LEVEL, abs=1e-12)

    value, _, c = max_mean_qfi(np.eye(4) / 4.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(c)) < 1e-12


def test_singlet_is_rotation_dead():
    # the singlet commutes with every collective rotation: C vanishes entirely
    value, _, c = max_mean_qfi(bell_state("psi-"))
    assert np.max(np.abs(c)) < 1e-12
    assert value == pytest.approx(0.0, abs=1e-12)


def test_optimal_direction_convention():
    for index in range(20):
        rho = random_density_matrix(derive_stream(202, index))
        _, direction, _ = max_mean_qfi(rho)
        assert abs(np.linalg.norm(direction) - 1.0) < 1e-12
        anchor = int(np.argmax(np.abs(direction)))
        assert direction[anchor] > 0.0


def test_mean_qfi_bounded():
    for index in range(50):
        rho = random_density_matrix(derive_stream(203, index))
        value = max_mean_qfi(rho).mean_qfi
        assert 0.0 <= value <= HEISENBERG_LIMIT + 1e-9


def test_pure_state_diagonal_is_four_variances():
    rng = np.random.default_rng(23)
    for _ in range(10):
        psi = random_pure_state(rng)
        rho = pure(psi)
        c = c_matrix(rho)
        for k in range(3):
            j_k = J_OPERATORS[k]
            mean = np.real(psi.conj() @ j_k @ psi)
            second = np.real(psi.conj() @ (j_k @ j_k) @ psi)
            assert c[k, k] == pytest.approx(4.0 * (second - mean**2), abs=1e-9)

"""Collective spin and mean QFI via the 3x3 C-matrix."""

import numpy as np
import pytest

from entqfi import (
    max_mean_qfi,
    random_density_matrix,
    derive_stream,
)
from entqfi.fisher import LOCAL_SPINS, _spin_qfi_matrices, pair_weights, spin_qfi_matrix
from entqfi.sampling import _density_matrices
from entqfi.states import ZERO_CUTOFF, herm_eig
from helpers import (
    bell_diagonal,
    bell_state,
    ket,
    pure,
    random_pure_state,
    spin_qfi_matrices_einsum,
    werner,
)


def test_collective_spin_algebra():
    jx, jy, jz = LOCAL_SPINS[:3] + LOCAL_SPINS[3:]
    assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-14)
    # J^2 spectrum: triplet j=1 gives 2 three times, singlet gives 0
    j_squared = jx @ jx + jy @ jy + jz @ jz
    assert np.allclose(np.sort(np.linalg.eigvalsh(j_squared)), [0.0, 2.0, 2.0, 2.0], atol=1e-12)


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
        c = max_mean_qfi(rho).c_matrix
        assert c.shape == (3, 3)
        assert np.allclose(c, c.T, atol=1e-12)
        assert np.linalg.eigvalsh(c)[0] > -1e-10


def test_qfi_direction_is_quadratic_form_of_c():
    # direct QFI sum for the collective spin J_n = n·(S^A + S^B)
    rng = np.random.default_rng(17)
    for index in range(5):
        rho = random_density_matrix(derive_stream(201, index))
        c = max_mean_qfi(rho).c_matrix
        p, basis = np.linalg.eigh(rho)
        weights = pair_weights(p)
        for _ in range(4):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            j_n = np.einsum("k,kij->ij", np.concatenate([n, n]), LOCAL_SPINS)
            direct = np.sum(2.0 * weights * np.abs(basis.conj().T @ j_n @ basis) ** 2)
            assert direct == pytest.approx(float(n @ c @ n), abs=1e-10)


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


def test_spin_qfi_matrices_match_the_einsum_oracle_and_are_exactly_symmetric():
    # Seeded states of master seeds 1 and 15, and the degenerate fixtures
    # whose class forms reach the rotation scan's LAPACK fallback.
    rhos = np.concatenate([
        _density_matrices([derive_stream(seed, index) for index in range(64)])
        for seed in (1, 15)
    ] + [
        np.stack([
            bell_diagonal((0.7, 0.1, 0.1, 0.1)), bell_diagonal((0.5, 0.5, 0.0, 0.0)),
            pure(ket("00")), werner(0.6), np.eye(4) / 4.0,
        ]).astype(complex)
    ])
    spectra = herm_eig(rhos)
    g = _spin_qfi_matrices(spectra)
    assert g.shape == (len(rhos), 6, 6)
    assert np.array_equal(g, g.swapaxes(1, 2))
    # Measured: at most 3.3e-16.
    assert np.abs(g - spin_qfi_matrices_einsum(spectra)).max() <= 1e-15


def test_max_mean_qfi_fixtures():
    value, c = max_mean_qfi(bell_state("phi+"))
    assert value == pytest.approx(2.0, abs=1e-12)
    # 4 Var(J_k) with <XX> = <ZZ> = 1 and <YY> = -1
    assert np.allclose(c, np.diag([4.0, 0.0, 4.0]), atol=1e-12)

    value, _ = max_mean_qfi(pure(ket("00")))
    assert value == pytest.approx(1.0, abs=1e-12)

    value, c = max_mean_qfi(np.eye(4) / 4.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(c)) < 1e-12


def test_singlet_is_rotation_dead():
    # the singlet commutes with every collective rotation: C vanishes entirely
    value, c = max_mean_qfi(bell_state("psi-"))
    assert np.max(np.abs(c)) < 1e-12
    assert value == pytest.approx(0.0, abs=1e-12)


def test_mean_qfi_bounded():
    for index in range(50):
        rho = random_density_matrix(derive_stream(203, index))
        value = max_mean_qfi(rho).mean_qfi
        assert 0.0 <= value <= 2.0 + 1e-9


def test_pure_state_diagonal_is_four_variances():
    rng = np.random.default_rng(23)
    for _ in range(10):
        psi = random_pure_state(rng)
        rho = pure(psi)
        c = max_mean_qfi(rho).c_matrix
        for k, j_k in enumerate(LOCAL_SPINS[:3] + LOCAL_SPINS[3:]):
            mean = np.real(psi.conj() @ j_k @ psi)
            second = np.real(psi.conj() @ (j_k @ j_k) @ psi)
            assert c[k, k] == pytest.approx(4.0 * (second - mean**2), abs=1e-9)

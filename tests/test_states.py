"""Linear-algebra primitives: validation, spectra, traces, entropies."""

import math
import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from entqfi import (
    IDENTITY_4,
    PAULI,
    apply_local_unitary,
    density_matrix,
    derive_stream,
    herm_eig,
    partial_trace,
    partial_transpose,
    random_density_matrix,
    relative_entropy,
    von_neumann_entropy,
)
from entqfi.states import (
    EigendecompositionError,
    eigh,
    eigvalsh,
    lapack_guard,
    solve,
    svdvals,
)
from helpers import bell_state, ket, pure, werner


def test_pauli_algebra():
    for sigma in PAULI:
        assert np.allclose(sigma @ sigma, np.eye(2))
        assert abs(np.trace(sigma)) < 1e-15
    # sx sy = i sz cyclically
    assert np.allclose(PAULI[0] @ PAULI[1], 1j * PAULI[2])
    assert np.allclose(PAULI[1] @ PAULI[2], 1j * PAULI[0])
    assert np.allclose(PAULI[2] @ PAULI[0], 1j * PAULI[1])


def test_herm_eig_descending_and_orthonormal():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = m + m.conj().T
    spec = herm_eig(m)
    assert np.all(np.diff(spec.eigenvalues) <= 0)
    assert np.allclose(spec.eigenvectors.conj().T @ spec.eigenvectors, np.eye(4), atol=1e-12)
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.max(np.abs(rebuilt - m)) < 1e-12


def test_lapack_kernels_match_numpy_bit_for_bit():
    # The shapes the package solves: sigma and sigma^G, the rotation
    # classes of the refinement grid, the REE Hessian, the concurrence SVD.
    rng = np.random.default_rng(11)
    herm = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    sym = rng.normal(size=(372, 3, 3))
    square = rng.normal(size=(15, 15))
    rhs = rng.normal(size=15)
    with lapack_guard():
        for m in (herm + herm.conj().swapaxes(1, 2), sym + sym.swapaxes(1, 2), square @ square.T):
            for mine, numpy_s in zip(eigh(m), np.linalg.eigh(m)):
                assert mine.dtype == numpy_s.dtype and np.array_equal(mine, numpy_s)
            mine, numpy_s = eigvalsh(m), np.linalg.eigvalsh(m)
            assert mine.dtype == numpy_s.dtype and np.array_equal(mine, numpy_s)
        mine, numpy_s = solve(square, rhs), np.linalg.solve(square, rhs)
        assert mine.dtype == numpy_s.dtype and np.array_equal(mine, numpy_s)
        general = herm[0] @ herm[1]
        mine, numpy_s = svdvals(general), np.linalg.svd(general, compute_uv=False)
        assert mine.dtype == numpy_s.dtype and np.array_equal(mine, numpy_s)


def test_lapack_kernels_raise_under_the_guard():
    nan = np.full((4, 4), np.nan, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with lapack_guard():
            for kernel in (eigh, eigvalsh):
                with pytest.raises(EigendecompositionError) as info:
                    kernel(nan)
                assert isinstance(info.value, LinAlgError) and info.value.matrix is nan
            with pytest.raises(LinAlgError):
                solve(np.ones((15, 15)), np.ones(15))
        with pytest.raises(EigendecompositionError) as info:
            herm_eig(nan)
        assert info.value.matrix.shape == (4, 4)


def test_density_matrix_accepts_and_canonicalizes():
    rho = density_matrix(np.eye(4) / 4.0)
    assert np.allclose(rho, np.eye(4) / 4.0)
    # tiny negative dust within -1e-10 is clamped, trace restored
    dusty = np.diag([0.6, 0.4 + 5e-11, -5e-11, 0.0])
    rho = density_matrix(dusty)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-15
    assert abs(np.trace(rho).real - 1.0) < 1e-14


@pytest.mark.parametrize(
    "bad",
    [
        np.ones((2, 3)) / 3.0,  # not square
        np.diag([0.7, 0.4, 0.0, 0.0]),  # trace 1.1
        np.diag([1.1, -0.1, 0.0, 0.0]),  # eigenvalue below -1e-10
        np.array([[0.5, 1.0], [0.0, 0.5]]) ,  # not Hermitian
    ],
)
def test_density_matrix_rejects(bad):
    with pytest.raises(ValueError):
        density_matrix(bad)


def test_density_matrix_rejects_nonfinite():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        density_matrix(m)


def test_partial_transpose_is_involution_and_trace_preserving():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho = rho / np.trace(rho)
    for sub in ("a", "b"):
        pt = partial_transpose(rho, sub)
        assert np.allclose(partial_transpose(pt, sub), rho)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_partial_transpose_bell_spectrum():
    # Bell PT spectrum is (1/2, 1/2, 1/2, -1/2)
    vals = np.sort(np.linalg.eigvalsh(partial_transpose(bell_state())))
    assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_transposes_one_factor():
    a = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    b = np.array([[0.6, 0.3j], [-0.3j, 0.4]])
    rho = np.kron(a, b)
    assert np.allclose(partial_transpose(rho, "b"), np.kron(a, b.T))
    assert np.allclose(partial_transpose(rho, "a"), np.kron(a.T, b))


def test_partial_transpose_of_a_stack_is_the_stack_of_partial_transposes():
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(2, 15, 4, 4)) + 1j * rng.normal(size=(2, 15, 4, 4))
    for sub in ("a", "b"):
        each = np.array([[partial_transpose(m, sub) for m in row] for row in stack])
        assert np.array_equal(partial_transpose(stack, sub), each)
    with pytest.raises(ValueError, match="4x4"):
        partial_transpose(np.zeros((4, 3)))


def test_partial_trace_product_state():
    a = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    b = np.array([[0.1, 0.0], [0.0, 0.9]], dtype=complex)
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, "a"), a, atol=1e-14)
    assert np.allclose(partial_trace(rho, "b"), b, atol=1e-14)


def test_partial_trace_bell_is_maximally_mixed():
    for keep in ("a", "b"):
        assert np.allclose(partial_trace(bell_state(), keep), np.eye(2) / 2.0, atol=1e-14)


def test_subsystem_label_rejected():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4.0, "c")
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4) / 4.0, "ab")


def test_entropy_in_bits():
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(pure(ket("00"))) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_relative_entropy_known_values():
    rho = np.diag([0.5, 0.5, 0.0, 0.0])
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    # S(|00><00| || I/4) = log2(4) = 2 bits
    assert relative_entropy(pure(ket("00")), np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)
    # Bell against maximally mixed: 2 - S(bell) = 2 bits
    assert relative_entropy(bell_state(), np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)


def test_relative_entropy_support_violation_is_infinite():
    rho = pure(ket("01"))
    sigma = pure(ket("00"))
    assert relative_entropy(rho, sigma) == math.inf


def test_relative_entropy_nonnegative_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m1 @ m1.conj().T
        rho /= np.trace(rho).real
        sigma = m2 @ m2.conj().T
        sigma /= np.trace(sigma).real
        assert relative_entropy(rho, sigma) >= 0.0


def test_relative_entropy_clips_only_roundoff_below_zero():
    for index in range(200):
        rho = random_density_matrix(derive_stream(1, index))
        assert 0.0 <= relative_entropy(rho, rho) < 1e-14
    rho = random_density_matrix(derive_stream(1, 0))
    # sigma = c * rho reads -log2(c) bits: within roundoff it clips to 0
    assert relative_entropy(rho, (1.0 + 1e-14) * rho) == 0.0
    with pytest.raises(ArithmeticError, match=r"^relative entropy -1\.4\d*e-11 lies outside \[0, inf\]"):
        relative_entropy(rho, (1.0 + 1e-11) * rho)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_relative_entropy_rejects_nonfinite_input(bad):
    sigma = np.eye(4, dtype=complex) / 4.0
    sigma[1, 2] = bad
    with pytest.raises(ArithmeticError, match="finite sigma"):
        relative_entropy(np.eye(4) / 4.0, sigma)
    with pytest.raises(ArithmeticError, match="finite rho"):
        relative_entropy(sigma, np.eye(4) / 4.0)


def test_apply_local_unitary_conjugates():
    u_a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # bit flip
    rho = pure(ket("00"))
    out = apply_local_unitary(rho, u_a, np.eye(2))
    assert np.allclose(out, pure(ket("10")), atol=1e-14)
    # entanglement-neutral sanity: identity on both sides is a no-op
    assert np.allclose(apply_local_unitary(rho, np.eye(2), np.eye(2)), rho)


def test_apply_local_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        apply_local_unitary(IDENTITY_4 / 4.0, 2.0 * np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        apply_local_unitary(IDENTITY_4 / 4.0, np.eye(2), np.eye(3))


def test_werner_helper_boundaries():
    # p = 1/3 Werner sits exactly on the separability boundary
    vals = np.linalg.eigvalsh(partial_transpose(werner(1.0 / 3.0)))
    assert abs(vals[0]) < 1e-12
    assert np.linalg.eigvalsh(partial_transpose(werner(0.5)))[0] < -1e-3

"""Euler-angle grid search over local rotations of the mean QFI."""

import itertools

import numpy as np
import pytest

from entqfi import (
    PAULI,
    EulerAngleSet,
    LoccOptimum,
    apply_local_unitary,
    euler_unitary,
    grid_search,
    max_mean_qfi,
    optimize_with_refinement,
    random_density_matrix,
    derive_stream,
)
from entqfi import rotations
from entqfi.rotations import REFINEMENT_TRIGGER, _adjoint_matrix, _relative_classes
from helpers import bell_state, ket, pure

PI = np.pi


def direct_value(rho, angles):
    """Mean QFI after physically applying the local rotations."""
    u_a = euler_unitary(*angles[:3])
    u_b = euler_unitary(*angles[3:])
    return max_mean_qfi(apply_local_unitary(rho, u_a, u_b)).mean_qfi


def test_euler_unitary_is_special_unitary():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a, b, g = rng.uniform(0.0, 2.0 * PI, size=3)
        u = euler_unitary(a, b, g)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_euler_unitary_axis_factors():
    a = 0.7
    u = euler_unitary(a, 0.0, 0.0)
    expected = np.cos(a / 2) * np.eye(2) - 1j * np.sin(a / 2) * PAULI[0]
    assert np.allclose(u, expected, atol=1e-14)
    b = 1.3
    u = euler_unitary(0.0, b, 0.0)
    expected = np.cos(b / 2) * np.eye(2) - 1j * np.sin(b / 2) * PAULI[2]
    assert np.allclose(u, expected, atol=1e-14)


def test_adjoint_matrix_matches_conjugation():
    rng = np.random.default_rng(32)
    for _ in range(25):
        a, b, g = rng.uniform(0.0, 2.0 * PI, size=3)
        u = euler_unitary(a, b, g)
        m = _adjoint_matrix(a, b, g)
        for k in range(3):
            lhs = u.conj().T @ PAULI[k] @ u
            rhs = sum(m[k, l] * PAULI[l] for l in range(3))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_grid_search_bookkeeping():
    rho = random_density_matrix(derive_stream(300, 0))
    result = grid_search(rho, PI / 2.0)
    assert result.evaluations == 4**3 * 4**3
    assert not result.refined
    assert result.base_max_value == result.max_value
    assert result.base_min_value == result.min_value
    assert result.raw_value == pytest.approx(max_mean_qfi(rho).mean_qfi, abs=1e-12)


def test_grid_search_extrema_match_direct_evaluation():
    for index in range(3):
        rho = random_density_matrix(derive_stream(301, index))
        result = grid_search(rho, PI / 2.0)
        assert direct_value(rho, result.max_angles) == pytest.approx(result.max_value, abs=1e-10)
        assert direct_value(rho, result.min_angles) == pytest.approx(result.min_value, abs=1e-10)
        assert result.min_value <= result.raw_value <= result.max_value


def test_grid_search_matches_brute_force_k2():
    # step pi leaves only angles {0, pi}: all 64 points checked directly
    rho = random_density_matrix(derive_stream(302, 0))
    result = grid_search(rho, PI)
    points = [0.0, PI]
    values = [
        direct_value(rho, angles) for angles in itertools.product(points, repeat=6)
    ]
    assert result.max_value == pytest.approx(max(values), abs=1e-12)
    assert result.min_value == pytest.approx(min(values), abs=1e-12)
    assert result.evaluations == 64


def flat_index(angles, divisor):
    """Position of an angle set in the lexicographic k^6 grid order."""
    digits = [round(angle / (2.0 * PI / divisor)) for angle in angles]
    return int(np.ravel_multi_index(digits, (divisor,) * 6))


def test_ties_keep_lexicographically_first_angles():
    # every grid point rotated directly; the report must be the first point
    # within 1e-12 of each extreme, not whichever symmetric copy has the
    # most favourable roundoff
    rho = random_density_matrix(derive_stream(1, 0))
    result = grid_search(rho, PI / 2.0)
    values = np.array(
        [
            direct_value(rho, [PI / 2.0 * i for i in digits])
            for digits in itertools.product(range(4), repeat=6)
        ]
    )
    first_max = int(np.argmax(values >= values.max() - 1e-12))
    first_min = int(np.argmax(values <= values.min() + 1e-12))
    assert flat_index(result.max_angles, 4) == first_max == 20
    assert flat_index(result.min_angles, 4) == first_min == 31
    assert result.max_value == pytest.approx(values.max(), abs=1e-12)
    assert result.min_value == pytest.approx(values.min(), abs=1e-12)


def test_relative_rotation_class_counts():
    for divisor, count in ((2, 4), (4, 24), (6, 372)):
        first_flat, spans = _relative_classes(divisor)
        assert first_flat.size == count
        assert first_flat[0] == 0 and np.all(np.diff(first_flat) > 0)
        assert np.array_equal(spans[0], np.hstack([np.eye(3), np.eye(3)]))


def test_common_rotation_leaves_mean_qfi_unchanged():
    # the scan relies on a rotation applied to both qubits alike being
    # absorbed into the direction n
    rng = np.random.default_rng(33)
    for index in range(6):
        rho = random_density_matrix(derive_stream(306, index))
        u = euler_unitary(*rng.uniform(0.0, 2.0 * PI, size=3))
        rotated = apply_local_unitary(rho, u, u)
        assert max_mean_qfi(rotated).mean_qfi == pytest.approx(
            max_mean_qfi(rho).mean_qfi, abs=1e-10
        )


def test_grid_search_rejects_bad_steps():
    rho = np.eye(4) / 4.0
    for bad in (0.0, -PI / 2.0, 1.0, 2.0 * PI, np.inf, np.nan):
        with pytest.raises(ValueError):
            grid_search(rho, bad)


def test_reported_angles_lie_on_grid():
    rho = random_density_matrix(derive_stream(303, 0))
    result = grid_search(rho, PI / 2.0)
    for angle in tuple(result.max_angles) + tuple(result.min_angles):
        ratio = angle / (PI / 2.0)
        assert abs(ratio - round(ratio)) < 1e-12
        assert 0.0 <= angle < 2.0 * PI


def test_bell_state_optimum():
    result = optimize_with_refinement(bell_state())
    assert result.max_value == pytest.approx(2.0, abs=1e-9)
    assert result.min_value == pytest.approx(0.0, abs=1e-9)
    assert result.raw_value == pytest.approx(2.0, abs=1e-12)
    # raw already sits at the maximum, so the finer pass must have run
    assert result.refined
    assert result.evaluations == 4096 + 46656
    assert direct_value(bell_state(), result.min_angles) == pytest.approx(0.0, abs=1e-9)


def test_product_state_is_rotation_flat():
    result = optimize_with_refinement(pure(ket("00")))
    assert result.max_value == pytest.approx(1.0, abs=1e-9)
    assert result.min_value == pytest.approx(1.0, abs=1e-9)
    assert result.raw_value == pytest.approx(1.0, abs=1e-9)
    assert result.refined  # flat in both directions, refinement fired and stalled


def test_maximally_mixed_is_zero_everywhere():
    result = optimize_with_refinement(np.eye(4) / 4.0)
    assert abs(result.max_value) < 1e-12
    assert abs(result.min_value) < 1e-12
    assert abs(result.raw_value) < 1e-12


def test_refinement_merge_never_loses_ground():
    for index in range(4):
        rho = random_density_matrix(derive_stream(304, index))
        base = grid_search(rho, 2.0 * PI / 4.0)
        merged = optimize_with_refinement(rho)
        assert merged.max_value >= base.max_value
        assert merged.min_value <= base.min_value
        assert merged.raw_value == base.raw_value
        assert merged.base_max_value == base.max_value
        assert merged.base_min_value == base.min_value
        if not merged.refined:
            assert merged.evaluations == base.evaluations
            assert merged.max_value - merged.raw_value > REFINEMENT_TRIGGER
            assert merged.raw_value - merged.min_value > REFINEMENT_TRIGGER
        else:
            assert merged.evaluations == base.evaluations + 6**6


def test_refinement_merge_keeps_base_optimum_on_ties(monkeypatch):
    def scripted(raw, angle, evaluations, base_values):
        angles = EulerAngleSet(angle, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LoccOptimum(
            max_value=1.5,
            max_angles=angles,
            min_value=0.5,
            min_angles=angles,
            raw_value=raw,
            refined=False,
            evaluations=evaluations,
            base_max_value=base_values[0],
            base_min_value=base_values[1],
        )

    base = scripted(1.5, 0.0, 4**6, (1.5, 0.5))  # flat upward, so the fine pass runs
    fine = scripted(1.2, PI / 3.0, 6**6, (-7.0, -7.0))
    passes = iter([base, fine])
    # Each pass of one state reads its optimum off its class values here.
    monkeypatch.setattr(rotations, "_grid_optimum", lambda tops, divisor: next(passes))
    merged = optimize_with_refinement(np.eye(4) / 4.0)
    assert merged == base._replace(refined=True, evaluations=4**6 + 6**6)


def test_search_is_deterministic():
    rho = random_density_matrix(derive_stream(305, 0))
    first = optimize_with_refinement(rho)
    second = optimize_with_refinement(rho)
    assert first == second

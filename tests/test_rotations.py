"""Euler-angle grid search over local rotations of the mean QFI."""

import itertools
import math

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
from entqfi.fisher import _spin_qfi_matrices
from entqfi.rotations import (
    REFINEMENT_TRIGGER,
    _adjoint_matrices,
    _relative_classes,
)
from entqfi.sampling import _density_matrices
from entqfi.states import herm_eig
from helpers import (
    adjoint_matrix,
    angle_set,
    bell_diagonal,
    bell_state,
    error_budget_fixture,
    grid_tops_mp,
    ket,
    pure,
    relative_classes_scan,
    spin_qfi_matrix_mp,
    werner,
)

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
        m = adjoint_matrix(a, b, g)
        for k in range(3):
            lhs = u.conj().T @ PAULI[k] @ u
            rhs = sum(m[k, l] * PAULI[l] for l in range(3))
            assert np.max(np.abs(lhs - rhs)) < 1e-12
    # The stacked grid adjoints, row by row: the per-triple product's bits,
    # at the angles of the row's flat index a k^2 + b k + g.
    for divisor in (2, 4, 6):
        for flat, m in enumerate(_adjoint_matrices(divisor)):
            angles = angle_set(flat, divisor)[3:]
            assert m.tobytes() == adjoint_matrix(*angles).tobytes(), (divisor, flat)
            u = euler_unitary(*angles)
            for k in range(3):
                rhs = sum(m[k, l] * PAULI[l] for l in range(3))
                assert np.max(np.abs(u.conj().T @ PAULI[k] @ u - rhs)) < 1e-12


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


@pytest.mark.parametrize("divisor", [2, 3, 4, 5, 6])
def test_class_tables_match_the_full_grid_scan(divisor):
    # The tables come from the alpha_A = 0 slice alone; the scan compares
    # all k^6 grid pairs, so the two agree only if that slice reaches every
    # class first.  Each angle set's base-k digits are its class's first
    # flat index, so equal angle sets are equal first indices.
    _, spans, angles = relative_classes_scan(divisor)
    table_spans, table_angles = _relative_classes(divisor)
    assert table_spans.tobytes() == spans.tobytes()
    assert table_angles == angles


def test_relative_rotation_class_counts():
    for divisor, count in ((2, 4), (4, 24), (6, 372)):
        spans, angles = _relative_classes(divisor)
        # increasing angle sets are increasing first flat indices
        assert len(angles) == len(spans) == count
        assert angles[0] == (0.0,) * 6 and all(a < b for a, b in zip(angles, angles[1:]))
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
    monkeypatch.setattr(rotations, "_grid_optima", lambda tops, divisor: [next(passes)])
    merged = optimize_with_refinement(np.eye(4) / 4.0)
    assert merged == base._replace(refined=True, evaluations=4**6 + 6**6)


def test_search_is_deterministic():
    rho = random_density_matrix(derive_stream(305, 0))
    first = optimize_with_refinement(rho)
    second = optimize_with_refinement(rho)
    assert first == second


def class_forms(rhos, divisor):
    """The 3x3 form A G Aᵀ of every relative-rotation class for each state,
    as the grid pass builds them."""
    spans, _ = _relative_classes(divisor)
    g = _spin_qfi_matrices(herm_eig(np.asarray(rhos, dtype=complex)))
    return spans @ g[:, None] @ spans.transpose(0, 2, 1)


def closed_form_alone(monkeypatch, forms):
    """``_top_eigenvalues`` with the LAPACK fallback switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(rotations, "_NEAR_DOUBLE_TOP", -math.inf)
        return rotations._top_eigenvalues(forms)


def test_closed_form_tops_match_eigvalsh_on_seeded_states(monkeypatch):
    # The grid reads each class value only through its argmax and argmin,
    # and over master seeds 1-4 and 15 the extreme classes beat the next by
    # at least 4.99e-8, so the same picks follow from any error far below.
    rhos = _density_matrices([derive_stream(1, index) for index in range(64)])
    for divisor in (4, 6):
        forms = class_forms(rhos, divisor)
        tops = rotations._top_eigenvalues(forms)
        reference = np.linalg.eigvalsh(forms)[..., -1]
        assert np.array_equal(tops.argmax(axis=1), reference.argmax(axis=1))
        assert np.array_equal(tops.argmin(axis=1), reference.argmin(axis=1))
        # Measured: 1.6e-15 (pi/2 grid) and 3.1e-15 (pi/3 grid); the formula
        # alone reads 1.1e-14 on the pi/3 grid.
        assert np.abs(tops - reference).max() <= 1e-14, divisor


def test_closed_form_tops_take_lapack_near_a_double_top(monkeypatch):
    # Near 1 + r = 0 the top two eigenvalues meet and arccos loses half the
    # digits; the rows below _NEAR_DOUBLE_TOP go to eigvalsh instead.
    draws = np.random.default_rng(0).dirichlet(np.ones(4), size=200)
    degenerate = {
        "bell_diagonal(0.7, 0.1, 0.1, 0.1)": [bell_diagonal((0.7, 0.1, 0.1, 0.1))],
        "bell_diagonal(0.5, 0.5, 0, 0)": [bell_diagonal((0.5, 0.5, 0.0, 0.0))],
        "|00>": [pure(ket("00"))],
        "werner(0.6)": [werner(0.6)],
    }
    fixtures = {**degenerate, "200 Dirichlet draws": [bell_diagonal(p) for p in draws]}
    taken = []
    eigvalsh = rotations.eigvalsh

    def spied(m):
        taken.append(len(m))
        return eigvalsh(m)

    monkeypatch.setattr(rotations, "eigvalsh", spied)
    for name, rhos in fixtures.items():
        for divisor in (4, 6):
            forms = class_forms(rhos, divisor)
            reference = np.linalg.eigvalsh(forms)[..., -1]
            taken.clear()
            tops = rotations._top_eigenvalues(forms)
            assert taken and taken[0] > 0, (name, divisor)
            # Measured: at most 4.9e-15 (the Dirichlet draws on the pi/3 grid).
            assert np.abs(tops - reference).max() <= 1e-14, (name, divisor)
            alone = np.abs(closed_form_alone(monkeypatch, forms) - reference).max()
            # Measured: 7.3e-9 to 1.5e-8 on the four degenerate states, and
            # 9.6e-14 (pi/2 grid) and 5.3e-12 (pi/3 grid) on the Dirichlet draws.
            assert alone > (1e-10 if name in degenerate else 1e-14), (name, divisor)
    # I/4 has G = 0: every form is zero, p = 0, and the formula reads q = 0
    # with no RuntimeWarning and no LAPACK call.
    taken.clear()
    for divisor in (4, 6):
        assert not rotations._top_eigenvalues(class_forms([np.eye(4) / 4.0], divisor)).any()
    assert taken == []


def _tied_fixtures():
    """States whose grid classes tie in exact arithmetic: 7 named ones and
    20 Dirichlet Bell-diagonal draws."""
    named = [
        bell_state("phi+"), bell_state("psi-"), pure(ket("00")), werner(0.3), werner(0.6),
        bell_diagonal((0.7, 0.1, 0.1, 0.1)), bell_diagonal((0.5, 0.5, 0.0, 0.0)),
    ]
    draws = np.random.default_rng(0).dirichlet(np.ones(4), size=20)
    return np.stack(named + [bell_diagonal(p) for p in draws]).astype(complex)


def _reported_angles(g, chunk=64):
    """The max and min angles of ``_optimize`` over a G stack, in chunks."""
    return [
        (optimum.max_angles, optimum.min_angles)
        for start in range(0, len(g), chunk)
        for optimum in rotations._optimize(g[start:start + chunk])
    ]


def test_tied_classes_report_angles_that_roundoff_does_not_move(monkeypatch):
    # Tied classes differ in value by roundoff alone.  Without the _TIE
    # rule that roundoff picks the angles, and the forced-eigvalsh path or
    # a few ulps of G move those of 23 of these 27 fixtures.  With it the
    # angles are the same on either path, at every chunk size and under
    # every perturbation.
    g = _spin_qfi_matrices(herm_eig(_tied_fixtures()))
    reported = _reported_angles(g)
    for chunk in (1, 7):
        assert _reported_angles(g, chunk) == reported, chunk
    with monkeypatch.context() as patch:
        patch.setattr(rotations, "_NEAR_DOUBLE_TOP", math.inf)  # every top from eigvalsh
        assert _reported_angles(g) == reported
    rng = np.random.default_rng(5)
    for _ in range(3):
        ulps = rng.integers(-3, 4, size=g.shape)
        ulps = np.triu(ulps) + np.triu(ulps, 1).swapaxes(1, 2)
        assert _reported_angles(g + ulps * np.spacing(g)) == reported


# The largest errors measured against the 40-digit references on 1800
# seeded states (master seed 1's first 1000 and 200 each of seeds 2-4 and
# 15), doubled: G's entries, and the class values of the base pass over
# every state and of the refinement pass over the states it refines.  The
# fixture below reads 7.3e-16, 2.7e-15 and 3.2e-15.
_QFI_MATRIX_ERROR_BOUND = 2 * 2.1e-15
_BASE_TOP_ERROR_BOUND = 2 * 6.2e-15
_REFINED_TOP_ERROR_BOUND = 2 * 4.9e-15


def test_qfi_matrix_and_grid_tops_hold_their_error_budget_against_40_digit_references():
    # One chunk pass's G and the class values of both grid passes, as
    # _optimize runs them, each against the exact value of its own float
    # matrix, the classes taken at their exact angles.
    rhos = error_budget_fixture()
    g = _spin_qfi_matrices(herm_eig(rhos))
    reference = [spin_qfi_matrix_mp(rho) for rho in rhos]
    for index, exact in enumerate(reference):
        error = max(abs(g[index][a, b] - exact[a, b]) for a in range(6) for b in range(6))
        assert error <= _QFI_MATRIX_ERROR_BOUND, index
    refined = [k for k, optimum in enumerate(rotations._optimize(g)) if optimum.refined]
    assert len(refined) == 5
    for divisor, rows, bound in (
        (4, range(len(rhos)), _BASE_TOP_ERROR_BOUND),
        (6, refined, _REFINED_TOP_ERROR_BOUND),
    ):
        first = [flat_index(angles, divisor) for angles in _relative_classes(divisor)[1]]
        tops = rotations._grid_tops(g[list(rows)], divisor)
        exact = grid_tops_mp([reference[k] for k in rows], first, divisor)
        for values, exact_values, index in zip(tops.tolist(), exact, rows):
            error = max(abs(value - top) for value, top in zip(values, exact_values))
            assert error <= bound, (divisor, index)

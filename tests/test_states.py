"""Linear-algebra primitives: spectra, traces, entropies, local unitaries."""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from entqfi import (
    IDENTITY_4,
    PAULI,
    ExperimentConfig,
    apply_local_unitary,
    classify_pair,
    concurrence,
    derive_stream,
    find_counterexamples,
    grid_search,
    herm_eig,
    is_separable,
    max_mean_qfi,
    negativity,
    optimize_with_refinement,
    partial_trace,
    partial_transpose,
    random_density_matrix,
    ree,
    run_experiment,
    spin_qfi_matrix,
    von_neumann_entropy,
)
from entqfi import measures, states
from entqfi.measures import _pt_eigh
from entqfi.states import (
    EigendecompositionError,
    _divergence,
    _nan_rows,
    _spectral_entropy,
    clip_roundoff,
    eigh,
    eigvalsh,
    lapack_guard,
    solve,
)
from helpers import BELL_VECTORS, bell_state, haar_unitary, ket, pure, relative_entropy, werner


def test_pauli_algebra():
    for sigma in PAULI:
        assert np.allclose(sigma @ sigma, np.eye(2))
        assert abs(np.trace(sigma)) < 1e-15
    # sx sy = i sz cyclically
    assert np.allclose(PAULI[0] @ PAULI[1], 1j * PAULI[2])
    assert np.allclose(PAULI[1] @ PAULI[2], 1j * PAULI[0])
    assert np.allclose(PAULI[2] @ PAULI[0], 1j * PAULI[1])


def test_herm_eig_and_pt_eigh_hand_on_eighs_ascending_pairs():
    # One spectrum format: herm_eig is np.linalg.eigh of (M + M†)/2 bit for
    # bit, on one matrix and on a stack, and _pt_eigh is np.linalg.eigh of
    # rho^G; both ascending, with orthonormal columns that rebuild the input.
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    hermitian = m + m.conj().T
    for matrix in (m, stack, hermitian):
        vals, vecs = herm_eig(matrix)
        numpy_vals, numpy_vecs = np.linalg.eigh(0.5 * (matrix + matrix.conj().swapaxes(-1, -2)))
        assert vals.dtype == numpy_vals.dtype == float and np.array_equal(vals, numpy_vals)
        assert vecs.dtype == numpy_vecs.dtype and np.array_equal(vecs, numpy_vecs)
    rhos = np.stack([random_density_matrix(derive_stream(7, i)) for i in range(5)])
    for rho in (rhos[0], rhos):
        pair, numpy_pair = _pt_eigh(rho), np.linalg.eigh(partial_transpose(rho))
        for mine, numpy_s in zip(pair, numpy_pair):
            assert mine.dtype == numpy_s.dtype and np.array_equal(mine, numpy_s)
    pairs = [(hermitian, herm_eig(hermitian)), (partial_transpose(rhos[0]), _pt_eigh(rhos[0]))]
    for matrix, (vals, vecs) in pairs:
        assert np.all(np.diff(vals) >= 0)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-12)
        assert np.max(np.abs((vecs * vals) @ vecs.conj().T - matrix)) < 1e-12


def test_lapack_kernels_match_numpy_bit_for_bit():
    # The shapes the package solves: sigma and sigma^G, the rotation
    # classes of the refinement grid, the REE Hessian.
    rng = np.random.default_rng(11)
    herm = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    sym = rng.normal(size=(372, 3, 3))
    square = rng.normal(size=(15, 15))
    rhs = rng.normal(size=15)
    herm = herm + herm.conj().swapaxes(1, 2)
    with lapack_guard():
        # eigh decomposes complex matrices only; the rotation forms are real
        for mine, numpy_s in zip(eigh(herm), np.linalg.eigh(herm)):
            assert mine.dtype == numpy_s.dtype and np.array_equal(mine, numpy_s)
        for m in (herm, sym + sym.swapaxes(1, 2), square @ square.T):
            mine, numpy_s = eigvalsh(m), np.linalg.eigvalsh(m)
            assert mine.dtype == numpy_s.dtype and np.array_equal(mine, numpy_s)
        mine, numpy_s = solve(square, rhs), np.linalg.solve(square, rhs)
        assert mine.dtype == numpy_s.dtype and np.array_equal(mine, numpy_s)


def test_only_states_reads_the_private_numpy_kernels_and_only_three():
    # numpy.linalg._umath_linalg is private: one module reads it, and only
    # the kernels that the per-state REE solve calls tens of times.  Every
    # other linear algebra goes through public np.linalg.
    src = Path(__file__).resolve().parents[1] / "src" / "entqfi"
    readers, kernels = set(), set()
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
        names = [getattr(node, "module", None) or "" for node in imports]
        names += [alias.name for node in imports for alias in node.names]
        names += [node.attr for node in nodes if isinstance(node, ast.Attribute)]
        if any("_umath_linalg" in name for name in names):
            readers.add(path.name)
        for node in imports:
            if (getattr(node, "module", None) or "").endswith("_umath_linalg"):
                kernels |= {alias.name for alias in node.names}
        # The module is read only as the owner of a kernel attribute.
        owners = {id(node.value): node.attr for node in nodes if isinstance(node, ast.Attribute)}
        for node in nodes:
            if isinstance(node, ast.Name) and node.id == "_umath_linalg":
                assert id(node) in owners, (path.name, node.lineno)
                kernels.add(owners[id(node)])
    assert readers == {"states.py"}
    assert kernels == {"eigh_lo", "eigvalsh_lo", "solve1"}


def test_only_states_sets_numpy_error_state():
    # A LAPACK failure reaches the package only as numpy's invalid flag, so
    # states owns that flag: lapack_guard() raises it, and _nan_rows reads a
    # failed call's NaN rows with it ignored.  No other module of src/entqfi
    # calls np.errstate, np.seterr or np.seterrcall.
    src = Path(__file__).resolve().parents[1] / "src" / "entqfi"
    setters = {"errstate", "seterr", "seterrcall"}
    setting = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in setters:
                setting.add(path.name)
    assert setting == {"states.py"}


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
        # A stack fails as a whole; the error carries the matrix that failed.
        stack = np.stack([IDENTITY_4, IDENTITY_4 / 4, nan, IDENTITY_4])
        with lapack_guard():
            for kernel in (eigh, eigvalsh):
                with pytest.raises(EigendecompositionError) as info:
                    kernel(stack.reshape(2, 2, 4, 4))
                assert info.value.matrix.shape == (4, 4) and np.isnan(info.value.matrix).all()


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.inf)])
def test_herm_eig_and_the_entropy_reject_a_non_finite_entry(entry):
    # herm_eig refuses a non-finite entry, alone or in a stack, and warns
    # nothing, though (M + M†)/2 of an infinite entry takes 0·inf; it
    # carries that matrix's (M + M†)/2, NaN at the entry and its mirror.  The
    # entropy names the entry before any eigensolve.  A warning is an error.
    for index in ((1, 1), (0, 1)):
        rho = IDENTITY_4 / 4.0
        rho[index] = entry
        nan = np.zeros((4, 4), dtype=bool)
        nan[index] = nan[index[::-1]] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for matrix in (rho, np.stack([IDENTITY_4 / 4.0, rho])):
                with pytest.raises(EigendecompositionError) as info:
                    herm_eig(matrix)
                assert np.array_equal(np.isnan(info.value.matrix), nan)
            got, at = re.escape(str(rho[index])), re.escape(str(list(index)))
            with pytest.raises(ValueError, match=f"^expected a finite matrix, got {got} at entry {at}$"):
                von_neumann_entropy(rho)


def test_herm_eig_rejects_a_finite_entry_whose_hermitian_part_overflows():
    # 1e308 on the diagonal is finite, but (M + M†)/2 overflows there to
    # inf + NaN·j; LAPACK then leaves all four eigenvalues NaN and sets no
    # invalid flag, so the NaN rows are what raises.  herm_eig reads them
    # with every flag ignored: alone or in a stack, with no error state set
    # by the caller, it raises and warns nothing first.
    rho = IDENTITY_4 / 4.0
    rho[1, 1] = 1e308
    with np.errstate(all="ignore"):
        hermitian = states._hermitian_part(rho)
        with lapack_guard():
            assert np.isnan(eigh(hermitian)[0]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for matrix in (rho, np.stack([IDENTITY_4 / 4.0, rho])):
            with pytest.raises(EigendecompositionError) as info:
                herm_eig(matrix)
            assert info.value.matrix.shape == (4, 4) and np.isnan(info.value.matrix[1, 1])


def test_nan_rows_reads_a_failed_eigensolve_whatever_the_callers_error_state():
    # An all-inf matrix makes eigvalsh divide by zero as well as fail; under
    # a caller's np.errstate(all="raise") _nan_rows still names its row and
    # raises nothing, since it ignores every flag, not only invalid.
    stack = np.stack([IDENTITY_4, np.full((4, 4), np.inf, dtype=complex), IDENTITY_4 / 4.0])
    with np.errstate(all="raise"):
        values, failed = _nan_rows(eigvalsh, stack)
    assert failed.tolist() == [1]
    assert np.isnan(values[1]).all() and not np.isnan(values[[0, 2]]).any()


def test_a_singular_system_reads_nan_in_its_own_row_of_the_stack():
    # REE's Newton steps read a singular system off this: under
    # lapack_guard() a stack that holds one singular system raises; through
    # _nan_rows, with the invalid flag ignored, the solve leaves exactly that
    # row NaN and every other row as it solves alone, bit for bit, and names
    # that row.  A lone singular 15x15, the barrier's Hessian, reads all NaN.
    # A zero column makes the pivot an exact 0.
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(5, 16, 16)), rng.normal(size=(5, 16))
    a[2, :, 5] = 0.0
    square = rng.normal(size=(15, 15))
    square[:, 3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with lapack_guard():
            with pytest.raises(LinAlgError):
                solve(a, b)
            alone = [solve(a[k], b[k]) for k in (0, 1, 3, 4)]
        with lapack_guard():
            steps, failed = _nan_rows(solve, a, b)
            lone = _nan_rows(solve, square, np.ones(15))[0]
    assert failed.tolist() == [2]
    assert np.isnan(steps[2]).all()
    assert [steps[k].tobytes() for k in (0, 1, 3, 4)] == [x.tobytes() for x in alone]
    assert np.isnan(lone).all()


def test_partial_transpose_is_involution_and_trace_preserving():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho = rho / np.trace(rho)
    pt = partial_transpose(rho)
    assert np.allclose(partial_transpose(pt), rho)
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
    assert np.allclose(partial_transpose(rho), np.kron(a, b.T))


def test_partial_transpose_of_a_stack_is_the_stack_of_partial_transposes():
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(2, 15, 4, 4)) + 1j * rng.normal(size=(2, 15, 4, 4))
    each = np.array([[partial_transpose(m) for m in row] for row in stack])
    assert np.array_equal(partial_transpose(stack), each)
    with pytest.raises(ValueError, match="4x4"):
        partial_transpose(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="4x4"):
        partial_trace(stack[0])


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
    # Only the lower-case labels name a qubit.
    for label in ("A", "B", 0, 1):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4.0, label)


def test_entropy_in_bits():
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(pure(ket("00"))) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    # any Hermitian matrix: benchmarks/checks.py reads 2x2 reduced states
    assert von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-12)


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


def test_range_rule_judges_an_array_in_one_pass():
    # The first value outside, in order, raises with its own message, NaN
    # included; inside the slack each is clipped, and -0.0 reads +0.0, as
    # for one value.
    clipped = clip_roundoff(np.array([[-0.0, 1.0 + 5e-13], [-5e-13, 0.5]]), 0.0, 1.0, "x")
    assert clipped.tolist() == [[0.0, 1.0], [0.0, 0.5]]
    assert math.copysign(1.0, clipped[0, 0]) == 1.0
    with pytest.raises(ArithmeticError, match=r"^x 1\.5 lies outside \[0, 1\]"):
        clip_roundoff(np.array([0.5, 1.5, -2.0]), 0.0, 1.0, "x")
    with pytest.raises(ArithmeticError, match=r"^x nan lies outside"):
        clip_roundoff(np.array([0.5, np.nan]), 0.0, 1.0, "x")


def test_range_rule_reads_a_scalar_as_each_element_of_an_array():
    # One code path: each value of an array, and the same value alone, clip
    # alike, -0.0 and values just outside but within the slack included, and
    # raise the same message; a 0-d input comes back as a float.
    values = [-0.0, 0.0, 0.5, 1.0, 1.0 + 5e-13, -5e-13, 5e-324]
    clipped = clip_roundoff(np.array(values), 0.0, 1.0, "x")
    assert clipped.dtype == float
    for value, element in zip(values, clipped.tolist()):
        for alone in (value, np.float64(value), np.array(value)):
            one = clip_roundoff(alone, 0.0, 1.0, "x")
            assert type(one) is float
            assert one == element and math.copysign(1.0, one) == math.copysign(1.0, element)
    for outside in (1.0 + 1e-6, -1e-6, math.nan, math.inf):
        with pytest.raises(ArithmeticError) as alone:
            clip_roundoff(outside, 0.0, 1.0, "x")
        with pytest.raises(ArithmeticError) as element:
            clip_roundoff(np.array([0.5, outside, 0.25]), 0.0, 1.0, "x")
        assert str(element.value) == str(alone.value)
    # A slack per value clips each value by its own slack, and the first
    # value outside its own slack raises with that slack.
    slack = np.array([1e-12, 3e-12, 4e-12])
    within = clip_roundoff(np.array([0.5, 1.0 + 2e-12, -3e-12]), 0.0, 1.0, "x", slack)
    assert within.tolist() == [0.5, 1.0, 0.0]
    for values, message in (
        ([0.5, 1.0 + 2e-12, 1.0 + 5e-12], r"^x 1\.000000000005 .* by more than 4e-12$"),
        ([-2e-12, 1.0 + 5e-12, 0.5], r"^x -2e-12 lies outside \[0, 1\] by more than 1e-12$"),
    ):
        with pytest.raises(ArithmeticError, match=message):
            clip_roundoff(np.array(values), 0.0, 1.0, "x", slack)


def test_a_stack_reads_each_state_as_it_reads_alone():
    # The entropy and the divergence of a stack give each state's own bits,
    # also where some states have zero eigenvalues: rank-deficient rho and
    # sigma, a sigma whose support rho escapes (inf), and full-rank states.
    rhos = [random_density_matrix(derive_stream(1, index)) for index in range(4)]
    rhos += [pure(ket("00")), 0.5 * (pure(ket("00")) + pure(ket("11")))]
    sigmas = rhos[1:] + rhos[:1]
    spectra = [herm_eig(rho) for rho in rhos]
    entropies = [_spectral_entropy(values) for values, _ in spectra]
    sigma_spectra = [herm_eig(sigma) for sigma in sigmas]
    alone = [
        _divergence(rho, values, vectors, entropy)
        for rho, (values, vectors), entropy in zip(rhos, sigma_spectra, entropies)
    ]
    assert math.inf in alone and 0.0 in entropies
    for rows in (slice(0, 3), slice(None)):
        stacked = _spectral_entropy(np.stack([values for values, _ in spectra[rows]]))
        assert stacked.tolist() == entropies[rows]
        values, vectors = (np.stack(part) for part in zip(*sigma_spectra[rows]))
        assert _divergence(np.stack(rhos[rows]), values, vectors, stacked).tolist() == alone[rows]


def _unitaries(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))
    return q


def test_spectral_entropy_drops_zeros_roundoff_and_nan_from_each_row():
    # Full-rank rows, rows with exact and roundoff-negative zeros, and a row
    # with a NaN: each row reads the sum over its eigenvalues above the
    # cutoff alone, in order, bit for bit, and a row alone reads the same
    # as a Python float.
    spectra = np.array(
        [
            [0.1, 0.2, 0.3, 0.4],
            [0.0, 0.25, 0.25, 0.5],
            [-1e-17, 0.0, 0.3, 0.7],
            [-1e-17, 5e-13, 1e-12, 1.0],
            [0.0, 0.0, 0.0, 1.0],
            [math.nan, 0.25, 0.25, 0.5],
            [1e-9, 1e-6, 0.2, 0.799999],
        ]
    )
    expected = [
        clip_roundoff(-sum(p * np.log2(p) for p in row if p > states.ZERO_CUTOFF), 0.0, math.inf, "x")
        for row in spectra
    ]
    with np.errstate(all="raise"):
        stacked = _spectral_entropy(spectra)
        alone = [_spectral_entropy(row) for row in spectra]
    assert stacked.tolist() == expected == alone
    assert all(type(value) is float for value in alone)
    assert expected[4] == 0.0 and expected[5] == expected[1] == 1.5


def test_divergence_of_a_stack_with_null_eigenvalues_sums_only_the_kept_ones():
    # sigma's spectra hold exact zeros, roundoff negatives and values just
    # under the cutoff in some rows.  Rows 0-3 put rho's weight inside
    # sigma's support; rows 4-6 put some on a null eigenvector and read inf.
    rng = np.random.default_rng(11)
    s = np.array(
        [
            [0.1, 0.2, 0.3, 0.4],
            [0.0, 0.2, 0.3, 0.5],
            [-1e-17, 5e-13, 0.4, 0.6],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.2, 0.3, 0.5],
            [-1e-17, 5e-13, 0.4, 0.6],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    vecs = _unitaries(rng, len(s))
    p = rng.random((len(s), 4))
    p[:4] = np.where(s[:4] > states.ZERO_CUTOFF, p[:4], 0.0)
    p /= p.sum(axis=-1, keepdims=True)
    rho = vecs @ (p[:, :, None] * vecs.conj().swapaxes(-1, -2))
    entropy = _spectral_entropy(herm_eig(rho)[0])
    # The weight of rho on each of sigma's eigenvectors, as _divergence reads it.
    weights = np.maximum(np.add.reduce((rho @ vecs) * vecs.conj(), axis=-2).real, 0.0)
    expected = []
    for row_s, row_w, row_entropy in zip(s, weights, entropy):
        null = row_s <= states.ZERO_CUTOFF
        if sum(row_w[null]) > states.ZERO_CUTOFF:
            expected.append(math.inf)
            continue
        kept = sum(w * np.log2(value) for w, value in zip(row_w[~null], row_s[~null]))
        expected.append(clip_roundoff(-row_entropy - kept, 0.0, math.inf, "x"))
    assert expected[4:] == [math.inf] * 3 and math.inf not in expected[:4]
    with np.errstate(all="raise"):
        stacked = _divergence(rho, s, vecs, entropy)
        alone = [_divergence(*row) for row in zip(rho, s, vecs, entropy)]
    assert stacked.tolist() == expected == alone
    assert all(type(value) is float for value in alone)


@pytest.mark.parametrize(
    "s, weight",
    [([math.nan, 0.2, 0.3, 0.5], 0.25), ([0.0, math.nan, 0.3, 0.7], 0.5)],
    ids=["full-rank", "escaped-support"],
)
def test_divergence_raises_on_a_nan_in_sigmas_spectrum(s, weight):
    # Also where rho's weight on a null eigenvector would make the row inf.
    rng = np.random.default_rng(12)
    vecs = _unitaries(rng, 2)
    p = np.array([[weight, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]])
    p /= p.sum(axis=-1, keepdims=True)
    rho = vecs @ (p[:, :, None] * vecs.conj().swapaxes(-1, -2))
    spectra = np.array([s, [0.1, 0.2, 0.3, 0.4]])
    entropy = _spectral_entropy(p)
    with pytest.raises(ArithmeticError, match=r"^relative entropy nan lies outside"):
        _divergence(rho[0], spectra[0], vecs[0], entropy[0])
    with pytest.raises(ArithmeticError, match=r"^relative entropy nan lies outside"):
        _divergence(rho[::-1], spectra[::-1], vecs[::-1], entropy[::-1])


def test_relative_entropy_clips_only_roundoff_below_zero():
    for index in range(200):
        rho = random_density_matrix(derive_stream(1, index))
        assert 0.0 <= relative_entropy(rho, rho) < 1e-14
    rho = random_density_matrix(derive_stream(1, 0))
    # sigma = c * rho reads -log2(c) bits: within roundoff it clips to 0
    assert relative_entropy(rho, (1.0 + 1e-14) * rho) == 0.0
    with pytest.raises(ArithmeticError, match=r"^relative entropy -1\.4\d*e-11 lies outside \[0, inf\]"):
        relative_entropy(rho, (1.0 + 1e-11) * rho)


def test_divergence_roundoff_holds_its_measured_worst_cases_300_times_over(monkeypatch):
    # The raw values that reach the range rule, before it clips: S(rho||rho)
    # over master seeds 1-4 and 15, ids 0-159, cut to rank 1 + id % 4 by
    # keeping the largest eigenvalues; the four Bell states under 500 Haar
    # local unitary pairs each and 2000 product pure states, from
    # default_rng(0).  Each lies outside its range by at most
    # _DIVERGENCE_ROUNDOFF / 300; the worst, the concurrence, by 2.9e-15.
    raw = {}

    def recorded(value, low, high, what, slack=states._DIVERGENCE_ROUNDOFF):
        values = np.asarray(value, dtype=float)
        excess = max(low - values.min(), values.max() - high)
        raw[what] = max(raw.get(what, -math.inf), excess)
        return clip_roundoff(value, low, high, what, slack)

    monkeypatch.setattr(states, "clip_roundoff", recorded)
    monkeypatch.setattr(measures, "clip_roundoff", recorded)
    for seed in (1, 2, 3, 4, 15):
        for index in range(160):
            vals, vecs = herm_eig(random_density_matrix(derive_stream(seed, index)))
            vals = np.where(np.arange(4) >= 3 - index % 4, vals, 0.0)
            rho = (vecs * (vals / vals.sum())) @ vecs.conj().T
            vals, vecs = herm_eig(rho)
            _divergence(rho, vals, vecs, _spectral_entropy(vals))
    rng = np.random.default_rng(0)
    bells = np.stack(
        [
            apply_local_unitary(bell_state(kind), haar_unitary(rng, 2), haar_unitary(rng, 2))
            for kind in BELL_VECTORS
            for _ in range(500)
        ]
    )
    measures._concurrences(herm_eig(bells))
    measures._negativities(_pt_eigh(bells)[0][:, 0])
    for _ in range(2000):
        product = np.kron(haar_unitary(rng, 2)[:, 0], haar_unitary(rng, 2)[:, 0])
        von_neumann_entropy(pure(product))
    assert set(raw) == {"relative entropy", "concurrence", "negativity", "von Neumann entropy"}
    for what, excess in raw.items():
        assert excess <= states._DIVERGENCE_ROUNDOFF / 300, (what, excess)
    assert states._DIVERGENCE_ROUNDOFF == 1e-12


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
    # The product's Hermitian part is exactly Hermitian, bit for bit.
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density_matrix(rng)
        out = apply_local_unitary(rho, haar_unitary(rng, 2), haar_unitary(rng, 2))
        assert np.array_equal(out, out.conj().T)


def test_apply_local_unitary_rejects_nonunitary():
    with pytest.raises(ValueError, match="u_a is not unitary within 1e-10"):
        apply_local_unitary(IDENTITY_4 / 4.0, 2.0 * np.eye(2), np.eye(2))
    # A NaN or infinite entry, which leaves the deviation NaN, is no unitary
    # either, nor is one whose product overflows.
    for entry in (math.nan, math.inf, complex(0.0, math.inf), 1e200):
        u = np.eye(2, dtype=complex)
        u[0, 1] = entry
        for name, (u_a, u_b) in (("u_a", (u, np.eye(2))), ("u_b", (np.eye(2), u))):
            with pytest.raises(ValueError, match=f"^{name} is not unitary within 1e-10$"):
                apply_local_unitary(IDENTITY_4 / 4.0, u_a, u_b)
    with pytest.raises(ValueError):
        apply_local_unitary(IDENTITY_4 / 4.0, np.eye(2), np.eye(3))


# Every public function that takes one two-qubit state, with its other arguments.
SINGLE_STATE_FUNCTIONS = {
    "concurrence": concurrence,
    "negativity": negativity,
    "is_separable": is_separable,
    "ree": ree,
    "spin_qfi_matrix": spin_qfi_matrix,
    "max_mean_qfi": max_mean_qfi,
    "optimize_with_refinement": optimize_with_refinement,
    "grid_search": lambda rho: grid_search(rho, 2.0 * math.pi / 4),
    "apply_local_unitary": lambda rho: apply_local_unitary(rho, np.eye(2), np.eye(2)),
    "partial_trace": partial_trace,
}
NOT_ONE_STATE = {
    "3x3": np.eye(3) / 3.0,
    "stack": np.stack([IDENTITY_4 / 4.0, IDENTITY_4 / 4.0]),
    "stack_of_one": IDENTITY_4[None] / 4.0,
    "flat": IDENTITY_4.ravel() / 4.0,
}


@pytest.mark.parametrize("shape", sorted(NOT_ONE_STATE))
@pytest.mark.parametrize("name", sorted(SINGLE_STATE_FUNCTIONS))
def test_single_state_functions_share_one_shape_check(name, shape):
    rho = NOT_ONE_STATE[shape]
    message = f"expected a 4x4 two-qubit matrix, got shape {re.escape(str(rho.shape))}$"
    with pytest.raises(ValueError, match=message):
        SINGLE_STATE_FUNCTIONS[name](rho)
    # the same function reads one state, given as nested lists too
    SINGLE_STATE_FUNCTIONS[name]((IDENTITY_4 / 4.0).tolist())


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, -math.inf)])
@pytest.mark.parametrize("name", sorted(SINGLE_STATE_FUNCTIONS))
def test_single_state_functions_reject_a_non_finite_entry(name, entry):
    # I/4 with two entries spoilt reads no number: the shape check names the
    # first, in row-major order.
    rho = IDENTITY_4 / 4.0
    rho[1, 1] = entry
    rho[2, 3] = math.nan
    message = f"^expected a finite matrix, got {re.escape(str(rho[1, 1]))} at entry \\[1, 1\\]$"
    with pytest.raises(ValueError, match=message):
        SINGLE_STATE_FUNCTIONS[name](rho)


def test_werner_helper_boundaries():
    # p = 1/3 Werner sits exactly on the separability boundary
    vals = np.linalg.eigvalsh(partial_transpose(werner(1.0 / 3.0)))
    assert abs(vals[0]) < 1e-12
    assert np.linalg.eigvalsh(partial_transpose(werner(0.5)))[0] < -1e-3


def _records():
    return run_experiment(ExperimentConfig(count=2, master_seed=1)).records


_TOLERANCE_KEYS = re.escape("('concurrence', 'negativity', 'ree', 'mqfi')")
_MEASURES = re.escape("('concurrence', 'negativity', 'ree')")

# Every integer and named-choice argument of the package, read by _integer or
# _member, and every tolerance value, read by ordering._normalize_eps: each
# error names its argument or key.
ARGUMENT_ERRORS = {
    "count": (lambda: ExperimentConfig(count=0), ValueError, "count must be at least 1, got 0"),
    "master_seed": (
        lambda: ExperimentConfig(master_seed=-1),
        ValueError,
        "master_seed must be at least 0, got -1",
    ),
    "stream seed": (
        lambda: derive_stream(-1, 0),
        ValueError,
        "master_seed must be at least 0, got -1",
    ),
    "index type": (lambda: derive_stream(1, 2.5), TypeError, r"index must be an integer, got 2\.5"),
    "index": (lambda: derive_stream(1, -1), ValueError, "index must be at least 0, got -1"),
    "limit": (
        lambda: find_counterexamples(_records(), "ree", limit=0),
        ValueError,
        "limit must be at least 1, got 0",
    ),
    "find measure": (
        lambda: find_counterexamples(_records(), "entropy"),
        ValueError,
        f"measure must be one of {_MEASURES}, got 'entropy'",
    ),
    "classify measure": (
        lambda: classify_pair(*_records(), "fidelity"),
        ValueError,
        f"measure must be one of {_MEASURES}, got 'fidelity'",
    ),
    "keep": (
        lambda: partial_trace(IDENTITY_4 / 4.0, "c"),
        ValueError,
        re.escape("keep must be one of ('a', 'b'), got 'c'"),
    ),
    "tolerance key": (
        lambda: ExperimentConfig(eps_order={"volume": 0.1}),
        ValueError,
        f"tolerance key must be one of {_TOLERANCE_KEYS}, got 'volume'",
    ),
    "tolerance None": (
        lambda: ExperimentConfig(eps_order={"ree": None}),
        ValueError,
        "tolerance ree must be a number, got None",
    ),
    "tolerance text": (
        lambda: ExperimentConfig(eps_order={"ree": "abc"}),
        ValueError,
        "tolerance ree must be a number, got 'abc'",
    ),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_ERRORS))
def test_each_argument_error_names_its_argument(case):
    call, error, message = ARGUMENT_ERRORS[case]
    with pytest.raises(error, match=f"^{message}$"):
        call()


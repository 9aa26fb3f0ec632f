"""Shared state constructors, draws and oracles for the test suite."""

import functools
import itertools
import math

import numpy as np
from mpmath import mp

from entqfi import (
    derive_stream,
    herm_eig,
    partial_trace,
    partial_transpose,
    random_density_matrix,
    von_neumann_entropy,
)
from entqfi.fisher import LOCAL_SPINS, pair_weights
from entqfi.measures import _COINCIDENT, _log_first_differences
from entqfi.rotations import TWO_PI, EulerAngleSet
from entqfi.sampling import _density_matrices, _haar_bases, _simplex_weights
from entqfi.states import ZERO_CUTOFF, _divergence

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Working precision of the mpmath references, in decimal digits.
MP_DIGITS = 40

# Bell basis order used by bell_diagonal: phi+, phi-, psi+, psi-.
BELL_VECTORS = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) * INV_SQRT2,
    "phi-": np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) * INV_SQRT2,
    "psi+": np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) * INV_SQRT2,
    "psi-": np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) * INV_SQRT2,
}


def ket(label: str) -> np.ndarray:
    """Computational basis vector from a two-bit label like "00"."""
    index = int(label, 2)
    psi = np.zeros(4, dtype=complex)
    psi[index] = 1.0
    return psi


def pure(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def bell_state(kind: str = "phi+") -> np.ndarray:
    return pure(BELL_VECTORS[kind])


def bell_diagonal(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    assert w.shape == (4,) and abs(w.sum() - 1.0) < 1e-12 and w.min() >= 0.0
    return sum(
        wi * pure(BELL_VECTORS[kind])
        for wi, kind in zip(w, ("phi+", "phi-", "psi+", "psi-"))
    )


def werner(p: float) -> np.ndarray:
    return p * bell_state("phi+") + (1.0 - p) * np.eye(4) / 4.0


def simplex_eigenvalues(rng: np.random.Generator) -> np.ndarray:
    """Four nonnegative weights summing to one, uniform on the 3-simplex,
    drawn as ``random_density_matrix`` draws its spectrum."""
    return _simplex_weights(rng.uniform(0.0, 1.0, size=(1, 3)))[0]


def haar_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Haar-distributed unitary of the given dimension, drawn as
    ``random_density_matrix`` draws its eigenbasis."""
    return _haar_bases(rng.standard_normal((2, dim, dim)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) in bits on the kernel ``ree`` reports its value with,
    so it matches ``ree``'s value bit for bit; ``math.inf`` when rho escapes
    sigma's support.  A NaN or infinite entry raises ``ArithmeticError``,
    which would otherwise pass through the comparisons as a NaN."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for name, m in (("rho", rho), ("sigma", sigma)):
        if not np.isfinite(m).all():
            raise ArithmeticError(f"relative entropy needs a finite {name}")
    return _divergence(rho, *herm_eig(sigma), von_neumann_entropy(rho))


def spin_qfi_matrices_einsum(spectra: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """G of each state of a stack from ``herm_eig``'s spectra, summed by two
    three-operand einsums over the local spins in each eigenbasis: the
    reference for ``fisher._spin_qfi_matrices``."""
    vals, basis = spectra
    weights = pair_weights(vals)
    s_eig = np.einsum("nai,kab,nbj->nkij", basis.conj(), LOCAL_SPINS, basis)
    g = 2.0 * np.real(np.einsum("nij,nkij,nlij->nkl", weights, s_eig, s_eig.conj()))
    return 0.5 * (g + g.swapaxes(1, 2))


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-random two-qubit state vector."""
    return haar_unitary(rng, 4)[:, 0]


def ree_pure_oracle(psi: np.ndarray) -> float:
    """REE of a pure state: the entropy of either reduced state, in bits."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state vector norm {norm!r} is not 1 within 1e-10")
    return von_neumann_entropy(partial_trace(np.outer(psi, psi.conj()), keep="a"))


def ree_bell_diagonal_oracle(lambda_max: float) -> float:
    """REE of a Bell-diagonal state with largest weight lambda_max:
    ``1 - H2(lambda_max)`` bits, valid for lambda_max in [1/2, 1]."""
    if not 0.5 <= lambda_max <= 1.0:
        raise ValueError(f"lambda_max must lie in [1/2, 1], got {lambda_max!r}")
    p = float(lambda_max)
    h2 = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            h2 -= q * math.log2(q)
    return 1.0 - h2


def qfi_bell_diagonal_oracle(weights) -> float:
    """Maximal mean QFI over local rotations of a Bell-diagonal state with
    weights p: ``max_{i<j} 2 (p_i - p_j)^2 / (p_i + p_j)`` over the pairs of
    positive total.  Each local Pauli permutes the Bell basis, and each Bell
    pair is coupled by one of the coordinates ``(a_k +- b_k) / 2`` of the two
    spin directions, whose squares sum to 1."""
    p = [float(w) for w in weights]
    return max(
        2.0 * (p[i] - p[j]) ** 2 / (p[i] + p[j])
        for i in range(4)
        for j in range(i + 1, 4)
        if p[i] + p[j] > 0.0
    )


def inverse_ree_fixtures(count: int, fraction: float = 0.5) -> list[tuple[np.ndarray, np.ndarray]]:
    """``count`` entangled states rho, each with its closest PPT state sigma.

    For a full-rank PPT sigma whose sigma^G has a kernel vector phi, every
    ``rho = sigma - x (D ln_sigma)^-1[(|phi><phi|)^G]`` with x > 0 and
    rho >= 0 has sigma as its closest PPT state, with REE S(rho || sigma):
    ``D ln_sigma[rho] = I - x (|phi><phi|)^G`` is the KKT condition of the
    REE with the multiplier ``x |phi><phi|`` on sigma^G >= 0 (Miranowicz and
    Ishizaka, PRA 78, 032310, 2008).  In sigma's eigenbasis D ln_sigma
    multiplies by the first divided differences of ln, so its inverse
    divides by them.  sigma^G is the partial transpose of a PPT state of
    master seed 7 less its lowest eigenpair, renormalized; sigma is kept if
    its lowest eigenvalue is at least 1e-6, and x is ``fraction`` of its
    rho >= 0 limit, where rho reaches rank 3.
    """
    fixtures, index = [], 0
    while len(fixtures) < count:
        lam, u = np.linalg.eigh(partial_transpose(random_density_matrix(derive_stream(7, index))))
        index += 1
        if lam[0] < 0.0:
            continue
        sigma = partial_transpose((u[:, 1:] * lam[1:]) @ u[:, 1:].conj().T / (1.0 - lam[0]))
        s, v = np.linalg.eigh(sigma)
        if s[0] < 1e-6:
            continue
        kernel = v.conj().T @ partial_transpose(np.outer(u[:, 0], u[:, 0].conj())) @ v
        delta = v @ (kernel / _log_first_differences(s)) @ v.conj().T
        # sigma - x delta >= 0 up to x = 1 / lambda_max(sigma^-1/2 delta sigma^-1/2).
        root_inv = (v / np.sqrt(s)) @ v.conj().T
        x = fraction / np.linalg.eigvalsh(root_inv @ delta @ root_inv)[-1]
        rho = sigma - x * delta
        fixtures.append((0.5 * (rho + rho.conj().T), sigma))
    return fixtures


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def adjoint_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """M with euler_unitary(a,b,g)† sigma_k euler_unitary(a,b,g) = sum_l M[k,l] sigma_l,
    one angle triple at a time: the reference for ``rotations._adjoint_matrices``."""
    return rot_x(alpha) @ rot_z(beta) @ rot_x(gamma)


def angle_set(flat: int, divisor: int) -> EulerAngleSet:
    """The angles of a flat grid index, whose base-k digits index them."""
    digits = (flat // divisor**p % divisor for p in range(5, -1, -1))
    return EulerAngleSet(*(TWO_PI * digit / divisor for digit in digits))


def relative_classes_scan(
    divisor: int,
) -> tuple[np.ndarray, np.ndarray, tuple[EulerAngleSet, ...]]:
    """The relative-rotation classes of the k^6 grid from all k^6 pairs of
    adjoint matrices, with no use of the alpha_A = 0 slice: each class's
    first flat index, its ``A = [I | R]`` and its first point's angles, the
    reference for ``rotations._relative_classes``, which returns the last
    two."""
    angles = TWO_PI * np.arange(divisor) / divisor
    adjoints = np.stack(
        [
            adjoint_matrix(angles[a], angles[b], angles[g])
            for a, b, g in itertools.product(range(divisor), repeat=3)
        ]
    )
    # One block per side_a keeps the work space at k^3 matrices; a class's
    # first flat index side_a * k^3 + side_b survives the setdefault.
    n = len(adjoints)
    firsts: dict[bytes, int] = {}
    for side_a, m_a in enumerate(adjoints):
        keys = np.rint((m_a.T @ adjoints).reshape(n, 9) * 1e9).astype(np.int64)
        _, block_first = np.unique(keys.view(np.dtype((np.void, 72))), return_index=True)
        for side_b in block_first:
            firsts.setdefault(keys[side_b].tobytes(), side_a * n + int(side_b))
    first = np.sort(np.fromiter(firsts.values(), dtype=np.int64))
    side_a, side_b = np.divmod(first, n)
    relative = adjoints[side_a].transpose(0, 2, 1) @ adjoints[side_b]
    spans = np.concatenate([np.broadcast_to(np.eye(3), relative.shape), relative], axis=2)
    return first, spans, tuple(angle_set(int(flat), divisor) for flat in first)


def error_budget_fixture() -> np.ndarray:
    """The frozen fixture of the 40-digit error budgets: 20 states of master
    seed 1 and 4 Bell-diagonal states (entangled, on the PPT boundary,
    separable and pure), stacked."""
    bell = [(0.7, 0.1, 0.1, 0.1), (0.5, 0.5, 0.0, 0.0), (0.4, 0.3, 0.2, 0.1), (1.0, 0.0, 0.0, 0.0)]
    return np.concatenate([
        _density_matrices([derive_stream(1, index) for index in range(20)]),
        [bell_diagonal(weights) for weights in bell],
    ])


def _mp_matrix(m: np.ndarray):
    """The exact values of a float matrix as an mpmath complex matrix."""
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in np.asarray(m)])


def _mp_hermitian_eigh(a):
    """The real eigenvalues and the eigenvectors, in one order, of the
    Hermitian part of ``a``."""
    values, vectors = mp.eigh((a + a.H) / 2)
    return [mp.re(x) for x in values], vectors


def concurrence_mp(rho: np.ndarray):
    """Wootters' concurrence of the float matrix rho at ``MP_DIGITS`` digits:
    max(0, l1 - l2 - l3 - l4) over the descending square roots of the
    eigenvalues of sqrt(rho) (sy⊗sy) rho* (sy⊗sy) sqrt(rho), which has the
    spectrum of rho (sy⊗sy) rho* (sy⊗sy) and is Hermitian."""
    with mp.workdps(MP_DIGITS):
        r = _mp_matrix(rho)
        flip = _mp_matrix(np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]]))
        values, vectors = _mp_hermitian_eigh(r)
        root = vectors * mp.diag([mp.sqrt(max(x, 0)) for x in values]) * vectors.H
        product, _ = _mp_hermitian_eigh(root * flip * r.conjugate() * flip * root)
        l1, l2, l3, l4 = sorted((mp.sqrt(max(x, 0)) for x in product), reverse=True)
        return max(l1 - l2 - l3 - l4, mp.mpf(0))


def negativity_mp(rho: np.ndarray):
    """Twice the magnitude of the negative eigenvalue of rho^G, of the float
    matrix rho at ``MP_DIGITS`` digits; 0 for a PPT state."""
    with mp.workdps(MP_DIGITS):
        values, _ = _mp_hermitian_eigh(_mp_matrix(partial_transpose(rho)))
        return 2 * max(-min(values), mp.mpf(0))


def relative_entropy_mp(rho: np.ndarray, sigma: np.ndarray):
    """S(rho || sigma) in bits of the float matrices rho and sigma at
    ``MP_DIGITS`` digits: ``sum_i p_i log2 p_i - sum_j <v_j|rho|v_j> log2 q_j``
    over the exact eigenvalues p_i of rho and eigenpairs (q_j, v_j) of sigma.
    sigma's eigenvalues at or below ``ZERO_CUTOFF`` are its null space, as
    ``states._divergence`` reads them: more weight of rho there than
    ``ZERO_CUTOFF`` gives ``mp.inf``, less is dropped."""
    with mp.workdps(MP_DIGITS):
        r = _mp_matrix(rho)
        p, _ = _mp_hermitian_eigh(r)
        q, v = _mp_hermitian_eigh(_mp_matrix(sigma))
        weights = [mp.re((v[:, j].H * r * v[:, j])[0]) for j in range(len(q))]
        if mp.fsum(w for x, w in zip(q, weights) if x <= ZERO_CUTOFF) > ZERO_CUTOFF:
            return mp.inf
        nats = mp.fsum(x * mp.log(x) for x in p if x > 0) - mp.fsum(
            w * mp.log(x) for x, w in zip(q, weights) if x > ZERO_CUTOFF
        )
        return nats / mp.log(2)


def _mp_partial_transpose(m):
    """m^G, the partial transpose on B, of a 4x4 mpmath matrix."""
    out = mp.matrix(4, 4)
    for a, b, c, d in itertools.product(range(2), repeat=4):
        out[2 * a + b, 2 * c + d] = m[2 * a + d, 2 * c + b]
    return out


def dual_gap_mp(rho: np.ndarray, sigma: np.ndarray, barrier=None):
    """``lambda_max(D + Q^G) - tr(sigma D)`` in nats, ``Q = [(I - D)^G]_+``,
    of the float matrices rho and sigma at ``MP_DIGITS`` digits: the dual
    bound of ``measures._dual_gap`` on a row that the polish ended.  D,
    the gradient of tr(rho ln sigma), is ``V (V† rho V * f1) V†`` over the
    exact eigenpairs (q_j, V) of sigma, with f1 the first divided
    differences of ln at q (1/q_i where two coincide).

    ``barrier = (t, s, w)``, the barrier's last t and the float eigenvalues
    and eigenvectors of sigma^G that its last point holds, prices the
    barrier's multiplier too, ``Q = w diag(1 / (t s)) w†`` as ``_dual_gap``
    forms it, and keeps the smaller gap, as on a barrier row.  That Q is
    positive semidefinite, so it bounds REE as the exact
    ``(sigma^G)^-1 / t`` does; the exact inverse is another multiplier,
    which at lambda_min(sigma^G) ~ 1e-10 and t = 8e9 moved rank-2 gaps by
    up to 3e-7 nats, as the float eigenvalue's relative error of ~1e-6
    reaches 1 / (t lambda_min(sigma^G)) ~ 1."""
    with mp.workdps(MP_DIGITS):
        q, v = _mp_hermitian_eigh(_mp_matrix(sigma))
        rt = v.H * _mp_matrix(rho) * v
        dt = mp.matrix(4, 4)
        for i, j in itertools.product(range(4), repeat=2):
            spacing = q[j] - q[i]
            f1 = (mp.log(q[j]) - mp.log(q[i])) / spacing if spacing else 1 / q[i]
            dt[i, j] = rt[i, j] * f1
        d = v * dt * v.H
        lam, u = _mp_hermitian_eigh(_mp_partial_transpose(mp.eye(4) - d))
        multipliers = [u * mp.diag([max(x, 0) for x in lam]) * u.H]
        if barrier is not None:
            t, s, w = barrier
            w = _mp_matrix(w)
            multipliers.append(w * mp.diag([1 / (mp.mpf(t) * mp.mpf(float(x))) for x in s]) * w.H)
        top = min(max(_mp_hermitian_eigh(d + _mp_partial_transpose(m))[0]) for m in multipliers)
        return top - mp.fsum(q[i] * mp.re(dt[i, i]) for i in range(4))


def log_divided_differences_loop(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f1 (4x4) and f2 (4x4x4) of ln at one ascending spectrum s, pair by
    pair and triple by triple in Python floats: the scalar loops that
    ``measures._log_first_differences`` and ``_second_differences``
    replaced, with numpy's log1p in place of math's, so the same arithmetic
    must give the same bits."""
    e = [float(value) for value in s]
    f1 = [[1.0 / e[i]] * 4 for i in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        if (gap := e[j] - e[i]) > 0.0:
            f1[i][j] = f1[j][i] = float(np.log1p(gap / e[i])) / gap
    f2 = np.empty((4, 4, 4))
    for ijk in np.ndindex(4, 4, 4):
        lo, mid, hi = sorted(ijk)
        if (width := e[hi] - e[lo]) > _COINCIDENT * e[hi]:
            f2[ijk] = (f1[mid][hi] - f1[lo][mid]) / width
        else:
            total = e[lo] + e[mid] + e[hi]
            f2[ijk] = -4.5 / (total * total)
    return np.array(f1), f2


def log_divided_differences_errors_mp(s: np.ndarray, f1: np.ndarray, f2: np.ndarray):
    """The largest relative errors of a float f1 (4x4) and f2 (4x4x4), the
    first and second divided differences of ln at the ascending float
    spectrum s, against their values at ``MP_DIGITS`` digits: the reference
    for ``measures._log_first_differences`` and ``_second_differences``.
    Equal arguments take the confluent limits 1/x and -1/(2 x^2); each
    sorted pair and triple is evaluated once."""
    with mp.workdps(MP_DIGITS):
        x = [mp.mpf(float(value)) for value in s]
        logs = [mp.log(value) for value in x]

        @functools.cache
        def first(i, j):
            return (logs[j] - logs[i]) / (x[j] - x[i]) if x[i] != x[j] else 1 / x[i]

        @functools.cache
        def second(lo, mid, hi):
            if x[lo] == x[hi]:
                return -1 / (2 * x[lo] ** 2)
            return (first(mid, hi) - first(lo, mid)) / (x[hi] - x[lo])

        def error(value, exact):
            return abs((mp.mpf(float(value)) - exact) / exact)

        f1_error = max(error(f1[i, j], first(*sorted((i, j)))) for i, j in np.ndindex(4, 4))
        f2_error = max(error(f2[ijk], second(*sorted(ijk))) for ijk in np.ndindex(4, 4, 4))
        return float(f1_error), float(f2_error)


def spin_qfi_matrix_mp(rho: np.ndarray):
    """G of the float matrix rho at ``MP_DIGITS`` digits, as an mpmath
    matrix: ``G_ab = 2 Re sum_ij w_ij <i|S_a|j> conj(<i|S_b|j>)`` over the
    exact eigenpairs of rho, with ``w_ij = (p_i - p_j)^2 / (p_i + p_j)``
    and the pairs of total at or below ``ZERO_CUTOFF`` skipped, as
    ``fisher.pair_weights`` skips them."""
    with mp.workdps(MP_DIGITS):
        values, vectors = _mp_hermitian_eigh(_mp_matrix(rho))
        spins = [vectors.H * _mp_matrix(spin) * vectors for spin in LOCAL_SPINS]
        pairs = [
            (i, j, (p - q) ** 2 / (p + q))
            for i, p in enumerate(values)
            for j, q in enumerate(values)
            if p + q > ZERO_CUTOFF
        ]
        g = mp.matrix(6, 6)
        for a in range(6):
            for b in range(a, 6):
                total = mp.fsum(w * mp.re(spins[a][i, j] * mp.conj(spins[b][i, j])) for i, j, w in pairs)
                g[a, b] = g[b, a] = 2 * total
        return g


def _mp_adjoint(digits, divisor: int):
    """The adjoint matrix ``R_x(a) R_z(b) R_x(g)`` of the angles
    ``2 pi digit / divisor`` at the working precision, as ``adjoint_matrix``
    builds it in floats."""
    def rot_x_mp(t):
        return mp.matrix([[1, 0, 0], [0, mp.cos(t), -mp.sin(t)], [0, mp.sin(t), mp.cos(t)]])

    def rot_z_mp(t):
        return mp.matrix([[mp.cos(t), -mp.sin(t), 0], [mp.sin(t), mp.cos(t), 0], [0, 0, 1]])

    alpha, beta, gamma = (2 * mp.pi * digit / divisor for digit in digits)
    return rot_x_mp(alpha) * rot_z_mp(beta) * rot_x_mp(gamma)


def _mp_top_eigenvalue(f, bits: int):
    """The largest eigenvalue of a real symmetric 3x3 matrix of integers
    counting 2^-bits, at the working precision, by the trigonometric closed
    form, which keeps half the working digits even at a double top.

    ``b = F - tr(F)/3 I`` enters as ``B = 3 b``, whose entries are integers,
    so that ``54 p^2 = sum B_ii^2 + 2 sum_{i<j} B_ij^2`` and ``27 det b =
    det B`` are exact; ``r = det b / (2 p^3)``."""
    trace = f[0][0] + f[1][1] + f[2][2]
    b00, b11, b22 = 3 * f[0][0] - trace, 3 * f[1][1] - trace, 3 * f[2][2] - trace
    b10, b20, b21 = 3 * f[1][0], 3 * f[2][0], 3 * f[2][1]
    p54 = b00 * b00 + b11 * b11 + b22 * b22 + 2 * (b10 * b10 + b20 * b20 + b21 * b21)
    q = mp.ldexp(trace, -bits) / 3
    if p54 == 0:
        return q
    det = b00 * (b11 * b22 - b21 * b21) - b10 * (b10 * b22 - b21 * b20) + b20 * (b10 * b21 - b11 * b20)
    p = mp.sqrt(mp.ldexp(p54, -2 * bits) / 54)
    r = min(max(mp.ldexp(det, -3 * bits) / (54 * p**3), mp.mpf(-1)), mp.mpf(1))
    return q + 2 * p * mp.cos(mp.acos(r) / 3)


# The reference class forms A G Aᵀ are summed exactly in integers counting
# 2^-_FIXED_BITS, to which A and G are rounded, far below MP_DIGITS digits.
_FIXED_BITS = 200


def grid_tops_mp(gs, firsts, divisor: int) -> list[list]:
    """``lambda_max(A G Aᵀ)``, ``A = [I | R]``, at ``MP_DIGITS`` digits for
    each G of a list of ``spin_qfi_matrix_mp`` results and each class
    whose first flat grid index is listed, R taken at that grid point's
    exact angles: the reference for ``rotations._grid_tops``."""
    with mp.workdps(MP_DIGITS):
        adjoint = functools.cache(lambda digits: _mp_adjoint(digits, divisor))
        spans = []
        for flat in firsts:
            digits = tuple(int(d) for d in np.unravel_index(int(flat), (divisor,) * 6))
            relative = adjoint(digits[:3]).T * adjoint(digits[3:])
            spans.append(np.hstack([np.eye(3), np.array(relative.tolist())]))
        fixed = np.vectorize(lambda x: int(mp.ldexp(x, _FIXED_BITS)), otypes=[object])
        spans = fixed(np.array(spans, dtype=object))
        forms = spans @ fixed(np.array([g.tolist() for g in gs], dtype=object))[:, None] @ spans.mT
        return [[_mp_top_eigenvalue(form, 3 * _FIXED_BITS) for form in row] for row in forms]

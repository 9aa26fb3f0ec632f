"""Random-state generation: reproducibility contract and distributions."""

import numpy as np
import pytest
from scipy import stats

from entqfi import ExperimentConfig, derive_stream, random_density_matrix, run_experiment
from helpers import haar_unitary, simplex_eigenvalues


def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_derive_stream_is_replayable():
    a = derive_stream(5, 7).uniform(size=8)
    b = derive_stream(5, 7).uniform(size=8)
    assert np.array_equal(a, b)


def test_derive_stream_independent_across_indices():
    a = derive_stream(5, 7).uniform(size=8)
    b = derive_stream(5, 8).uniform(size=8)
    c = derive_stream(6, 7).uniform(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_stream_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_stream(1, -1)


def test_frozen_stream_fixture():
    # regression pin: any change to the generator, keying, or draw order
    # for (master_seed=1, index=0) breaks every seeded ensemble downstream
    expected = np.array(
        [0.212127408410708, 0.439455853378480, 0.169411636154892, 0.179005102055921]
    )
    got = simplex_eigenvalues(derive_stream(1, 0))
    assert np.max(np.abs(got - expected)) < 1e-14

    rho = random_density_matrix(derive_stream(1, 0))
    assert abs(rho[0, 0].real - 0.381397883672548) < 1e-14
    assert abs(rho[1, 2] - (0.008956289807007 + 0.033589396420559j)) < 1e-13


def test_draw_order_contract():
    # state generation must consume exactly 3 uniforms + 32 normals,
    # leaving the stream position defined for downstream consumers
    probe = derive_stream(9, 4)
    probe.uniform(size=3)
    probe.standard_normal((4, 4))
    probe.standard_normal((4, 4))
    expected_next = probe.uniform()

    consumer = derive_stream(9, 4)
    random_density_matrix(consumer)
    assert consumer.uniform() == expected_next


def test_simplex_eigenvalues_shape_and_sum():
    rng = philox(0)
    for _ in range(200):
        w = simplex_eigenvalues(rng)
        assert w.shape == (4,)
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) < 1e-14


def test_simplex_marginal_statistics():
    # flat simplex marginals are Beta(1,3): mean 1/4, variance 3/80
    rng = philox(42)
    draws = np.array([simplex_eigenvalues(rng) for _ in range(30000)])
    for k in range(4):
        assert abs(draws[:, k].mean() - 0.25) < 0.005
        assert abs(draws[:, k].var() - 3.0 / 80.0) < 0.003


def test_haar_unitary_is_unitary():
    rng = philox(1)
    for dim in (2, 4):
        for _ in range(50):
            u = haar_unitary(rng, dim)
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12


def test_haar_moment_dim4():
    # E|U_00|^2 = 1/dim for Haar measure
    rng = philox(43)
    w = np.array([abs(haar_unitary(rng, 4)[0, 0]) ** 2 for _ in range(20000)])
    assert abs(w.mean() - 0.25) < 0.01


def test_haar_column_overlap_uniform_dim2():
    # for 2x2 Haar, |U_00|^2 is uniform on [0,1]; KS at the 1% level
    rng = philox(44)
    u = np.array([abs(haar_unitary(rng, 2)[0, 0]) ** 2 for _ in range(20000)])
    result = stats.kstest(u, "uniform")
    assert result.statistic < 1.63 / np.sqrt(20000)


def test_random_density_matrix_is_valid_state():
    rng = philox(2)
    for _ in range(100):
        rho = random_density_matrix(rng)
        assert rho.shape == (4, 4)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-14


def test_random_density_matrix_spectrum_matches_simplex_draw():
    # conjugation by the Haar factor must preserve the drawn spectrum
    spectrum = np.sort(simplex_eigenvalues(derive_stream(3, 5)))
    rho = random_density_matrix(derive_stream(3, 5))
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(rho)) - spectrum)) < 1e-12


def test_generate_states_order_independence():
    # state i depends only on (master_seed, i), never on batch layout
    six = run_experiment(ExperimentConfig(count=6, master_seed=12))
    five = run_experiment(ExperimentConfig(count=5, master_seed=12))
    assert six.records[4] == five.records[4]

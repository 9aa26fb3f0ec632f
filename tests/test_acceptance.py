"""Acceptance gate: one test per published criterion, tolerances as stated.

Criteria 1-4, 7, and 10 share the session-scoped default run (1000 states,
master seed 1) from conftest; the rest build their own inputs.
"""

import numpy as np
import pytest

from entqfi import (
    ExperimentConfig,
    concurrence,
    derive_stream,
    emit_census_report,
    emit_plot_data,
    emit_state_csv,
    is_separable,
    max_mean_qfi,
    negativity,
    optimize_with_refinement,
    random_density_matrix,
    ree,
    run_experiment,
)
from entqfi.fisher import LOCAL_SPINS
from entqfi.ordering import DISCORDANT_CELLS, MEASURE_NAMES
from helpers import (
    bell_diagonal,
    bell_state,
    haar_unitary,
    ket,
    pure,
    random_pure_state,
    ree_bell_diagonal_oracle,
    ree_pure_oracle,
    relative_entropy,
    werner,
)

REFINEMENT_TRIGGER = 1e-9
WITNESS_BOUND = 1.0 + 1e-6


def parse_report_ids(report_path):
    for line in report_path.read_text().splitlines():
        if line.startswith("unresolved_ids="):
            payload = line.split("=", 1)[1]
            return [int(x) for x in payload.split(";") if x]
    raise AssertionError("report is missing the unresolved_ids line")


def test_criterion_01_separable_fraction_and_measure_runtime(default_run):
    result, _ = default_run
    separable = sum(1 for r in result.records if r.separable)
    assert 575 <= separable <= 675
    assert result.timing["states_wall"] < 60.0


def test_criterion_02_optimization_prevalence_on_base_grid(default_run):
    result, _ = default_run
    count = len(result.records)
    improved_max = sum(
        1 for r in result.records if r.base_max_value - r.qfi_raw > REFINEMENT_TRIGGER
    )
    improved_min = sum(
        1 for r in result.records if r.qfi_raw - r.base_min_value > REFINEMENT_TRIGGER
    )
    assert improved_max >= 0.9 * count
    assert improved_min >= 0.9 * count


def test_criterion_03_refinement_closure_or_reported(default_run):
    result, out_dir = default_run
    reported = set(parse_report_ids(out_dir / "census.txt"))
    for record in result.records:
        if not record.refined:
            continue
        resolved_up = record.qfi_max - record.qfi_raw > REFINEMENT_TRIGGER
        resolved_down = record.qfi_raw - record.qfi_min > REFINEMENT_TRIGGER
        if not (resolved_up and resolved_down):
            assert record.id in reported, f"state {record.id} unresolved but not reported"
    # and the report never lists resolved or unflagged states
    by_id = {r.id: r for r in result.records}
    for state_id in reported:
        record = by_id[state_id]
        assert record.refined
        assert (
            record.qfi_max - record.qfi_raw <= REFINEMENT_TRIGGER
            or record.qfi_raw - record.qfi_min <= REFINEMENT_TRIGGER
        )


def test_criterion_04_census_population_and_ree_witnesses(default_run):
    result, _ = default_run
    fully_populated = [
        measure
        for measure in MEASURE_NAMES
        if all(count > 0 for count in result.censuses[measure].values())
    ]
    assert fully_populated, "no measure populates all 12 ordering cells"
    ree_cells = {witness.ordering for witness in result.witnesses["ree"]}
    assert ree_cells >= DISCORDANT_CELLS


def test_criterion_05_closed_form_fixtures():
    bell = bell_state("phi+")
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-9)
    assert negativity(bell) == pytest.approx(1.0, abs=1e-9)
    solution = ree(bell)
    assert abs(solution.value - 1.0) <= solution.gap + 1e-12
    optimum = optimize_with_refinement(bell)
    assert optimum.max_value == pytest.approx(2.0, abs=1e-9)
    assert optimum.min_value == pytest.approx(0.0, abs=1e-9)

    product = pure(ket("00"))
    assert concurrence(product) == pytest.approx(0.0, abs=1e-9)
    assert negativity(product) == pytest.approx(0.0, abs=1e-9)
    assert ree(product).value == pytest.approx(0.0, abs=1e-9)
    optimum = optimize_with_refinement(product)
    assert optimum.max_value == pytest.approx(1.0, abs=1e-9)
    assert optimum.min_value == pytest.approx(1.0, abs=1e-9)

    mixed = np.eye(4) / 4.0
    assert concurrence(mixed) == pytest.approx(0.0, abs=1e-9)
    assert negativity(mixed) == pytest.approx(0.0, abs=1e-9)
    assert ree(mixed).value == pytest.approx(0.0, abs=1e-9)
    optimum = optimize_with_refinement(mixed)
    assert optimum.max_value == pytest.approx(0.0, abs=1e-9)
    assert optimum.min_value == pytest.approx(0.0, abs=1e-9)

    half = werner(0.5)
    assert concurrence(half) == pytest.approx(0.25, abs=1e-9)
    assert negativity(half) == pytest.approx(0.25, abs=1e-9)


def test_criterion_06a_pure_state_oracles():
    rng = derive_stream(2024, 0)
    for _ in range(100):
        psi = random_pure_state(rng)
        rho = pure(psi)
        solution = ree(rho)
        assert abs(solution.value - ree_pure_oracle(psi)) <= solution.gap + 1e-12
        assert abs(negativity(rho) - concurrence(rho)) <= 1e-9
        c = max_mean_qfi(rho).c_matrix
        for k, j_k in enumerate(LOCAL_SPINS[:3] + LOCAL_SPINS[3:]):
            mean = np.real(psi.conj() @ j_k @ psi)
            second = np.real(psi.conj() @ (j_k @ j_k) @ psi)
            assert abs(c[k, k] - 4.0 * (second - mean**2)) <= 1e-9


def test_criterion_06b_bell_diagonal_oracles():
    rest = np.array([1.0, 1.0, 1.0]) / 3.0
    for lam in np.linspace(0.55, 0.95, 20):
        rho = bell_diagonal((lam, *((1.0 - lam) * rest)))
        solution = ree(rho)
        assert abs(solution.value - ree_bell_diagonal_oracle(lam)) <= solution.gap + 1e-12

    # cross-check the closed form itself against a 1-D brute-force scan over
    # Bell-diagonal candidates: the divergence decreases toward the separable
    # boundary q = 1/2, where it must equal 1 - H2(lambda_max)
    for lam in (0.55, 0.75, 0.95):
        rho = bell_diagonal((lam, *((1.0 - lam) * rest)))
        qs = np.linspace(0.25, 0.5, 1001)
        values = np.array(
            [relative_entropy(rho, bell_diagonal((q, *((1.0 - q) * rest)))) for q in qs]
        )
        assert int(np.argmin(values)) == len(qs) - 1
        assert values[-1] == pytest.approx(ree_bell_diagonal_oracle(lam), abs=1e-9)


def test_criterion_07_witness_of_entanglement_soundness(default_run):
    result, _ = default_run
    for record in result.records:
        if record.separable:
            assert record.qfi_max <= WITNESS_BOUND
        if record.qfi_max > WITNESS_BOUND:
            assert not record.separable


def test_criterion_08_local_unitary_invariance():
    unitary_rng = derive_stream(2025, 0)
    checked = 0
    for index in range(50):
        rho = random_density_matrix(derive_stream(2026, index))
        base_c = concurrence(rho)
        base_n = negativity(rho)
        base_r = ree(rho).value
        for turn in range(10):
            u_a = haar_unitary(unitary_rng, 2)
            u_b = haar_unitary(unitary_rng, 2)
            u = np.kron(u_a, u_b)
            rotated = u @ rho @ u.conj().T
            rotated = 0.5 * (rotated + rotated.conj().T)
            assert abs(concurrence(rotated) - base_c) <= 1e-9
            assert abs(negativity(rotated) - base_n) <= 1e-9
            rot_r = ree(rotated).value
            assert abs(rot_r - base_r) <= 1e-2
            checked += 1
    assert checked == 500


def test_criterion_09_determinism_across_runs(tmp_path):
    cfg = ExperimentConfig(count=60, master_seed=1)
    payloads = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        out_dir.mkdir()
        result = run_experiment(cfg)
        emit_state_csv(result, out_dir / "states.csv")
        emit_plot_data(result, out_dir)
        emit_census_report(result, out_dir / "census.txt")
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [
            "census.txt",
            "fig1_concurrence.csv",
            "fig1_negativity.csv",
            "fig1_ree.csv",
            "states.csv",
        ]
        payloads.append({name: (out_dir / name).read_bytes() for name in files})
    assert payloads[0] == payloads[1]


def test_criterion_10_plot_data_structure_and_runtime(default_run):
    result, out_dir = default_run
    # 12-significant-digit CSV rounding can perturb each column by ~1e-12
    slack = 5e-12
    for measure in MEASURE_NAMES:
        lines = (out_dir / f"fig1_{measure}.csv").read_text().splitlines()
        assert len(lines) == 1001
        for line in lines[1:]:
            value, raw, high, low = (float(x) for x in line.split(","))
            assert low <= raw + slack
            assert raw <= high + slack
            if value <= 1e-9:
                assert high <= WITNESS_BOUND
    assert result.timing["total_wall"] <= 1800.0

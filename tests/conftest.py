"""Session fixtures: the default 1000-state run is computed once and shared."""

import pytest

from entqfi import (
    ExperimentConfig,
    emit_census_report,
    emit_plot_data,
    emit_state_csv,
    run_experiment,
)


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """Full default experiment plus its emitted files, computed once per session."""
    cfg = ExperimentConfig()
    result = run_experiment(cfg, jobs=1)
    out_dir = tmp_path_factory.mktemp("default_run")
    emit_state_csv(result, out_dir / "states.csv")
    emit_plot_data(result, out_dir)
    emit_census_report(result, out_dir / "census.txt")
    return result, out_dir

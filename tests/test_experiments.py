from dataclasses import replace
from pathlib import Path

import pytest

from beamtrack.cli import load_config, run_campaign

EXPERIMENTS = sorted(
    (Path(__file__).resolve().parents[1] / "experiments").glob("*.json"))


def test_experiments_are_found():
    # an empty parametrization would skip silently
    assert EXPERIMENTS


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.stem)
def test_experiment_config_loads_and_runs(path):
    # a schema change that breaks a committed config fails here, not only in CI
    config = load_config(path)
    records = run_campaign(replace(config, n_frames=2))
    assert records
    assert [rec.error for rec in records] == [None] * len(records)

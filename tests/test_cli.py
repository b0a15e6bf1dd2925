import json
import math

import numpy as np
import pytest

from beamtrack.allocate import allocate_uniform, rank_pairs
from beamtrack.astp import LinkBudget, astp_closed_form, prior_from_transition
from beamtrack.channel import CodebookConfig, build_transition_model
from beamtrack.specfun import ConvergenceError
from beamtrack import allocate as allocate_module, cli
from beamtrack.cli import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    MetricsRecord,
    config_echo,
    emit_results,
    load_config,
    main,
    run_campaign,
    wilson_interval,
)


def write_config(tmp_path, name="config.json", **overrides):
    body = {
        "codebook": {"n_tx": 4, "n_rx": 4, "x_tx": 4, "x_rx": 4},
        "snr_db": [0.0],
        "m_b": 4,
        "t_blocks": 3,
        "n_frames": 40,
        "strategy": {"kind": "uniform"},
        "seed": 7,
    }
    body.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


# -------------------------------------------------------------------- config

def test_minimal_config_gets_documented_defaults(tmp_path):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({"sweep": "snr"}))
    config = load_config(path)
    assert config.codebook.x_tx == 64 and config.codebook.x_rx == 64
    assert config.t_blocks == 10
    assert config.gain_var == 1.0
    assert config.m_b == 40
    echo = config_echo(config)
    assert echo["gain_var"] == 1.0
    assert echo["transition_distance"] == "linear"
    assert echo["omega_normalized_by_noise"] is True


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sweeep": "snr"}))
    with pytest.raises(ConfigError, match="sweeep"):
        load_config(path)
    path.write_text(json.dumps({"codebook": {"n_tx": 4, "rows": 2}}))
    with pytest.raises(ConfigError, match="rows"):
        load_config(path)
    path.write_text(json.dumps({"m_t": 100}))
    with pytest.raises(ConfigError, match="m_t"):
        load_config(path)


def test_config_rejects_out_of_range_fields(tmp_path):
    with pytest.raises(ConfigError, match="t_blocks"):
        load_config(write_config(tmp_path, t_blocks=1))
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        load_config(write_config(tmp_path, betas=[1.5, 0.1]))
    with pytest.raises(ConfigError, match="snr_db"):
        load_config(write_config(tmp_path, snr_db=[]))
    with pytest.raises(ConfigError, match="n_frames"):
        load_config(write_config(tmp_path, n_frames=0))
    with pytest.raises(ConfigError, match="snr_db must be finite"):
        load_config(write_config(tmp_path, snr_db=[0.0, float("nan")]))
    with pytest.raises(ConfigError, match="budgets"):
        load_config(write_config(tmp_path, sweep="m_b",
                                 sweep_values=[4, float("inf")]))
    with pytest.raises(ConfigError, match="omega must be finite"):
        load_config(write_config(tmp_path, strategy={"kind": "kkt",
                                                     "omega": float("inf")}))
    with pytest.raises(ConfigError, match="estimator"):
        load_config(write_config(tmp_path, estimator="mle"))
    with pytest.raises(ConfigError, match="sweep_values"):
        load_config(write_config(tmp_path, sweep="beta"))
    with pytest.raises(ConfigError, match="sweep_values"):
        load_config(write_config(tmp_path, sweep="snr", sweep_values=[1]))
    # counts must be integers: no truncation of fractions, booleans or strings
    for field, value in (("m_b", 12.7), ("n_frames", 2.5), ("t_blocks", 3.9),
                         ("seed", 1.9), ("m_b", True), ("n_frames", "40"),
                         ("t_blocks", "3"), ("seed", "7")):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            load_config(write_config(tmp_path, **{field: value}))
    # lists must be lists: a string is not split into its characters
    with pytest.raises(ConfigError, match="snr_db must be a list"):
        load_config(write_config(tmp_path, snr_db="12"))
    with pytest.raises(ConfigError, match="betas must be a list"):
        load_config(write_config(tmp_path, betas="01"))
    with pytest.raises(ConfigError, match="sweep_values must be a list"):
        load_config(write_config(tmp_path, sweep="m_b", sweep_values="12"))
    with pytest.raises(ConfigError, match="snr_db entry must be a number"):
        load_config(write_config(tmp_path, snr_db=["12"]))
    # an integral float is still a count
    assert load_config(write_config(tmp_path, n_frames=1e3)).n_frames == 1000
    # codebook sizes and the candidate cap are counts too, omega a number
    sizes = {"n_tx": 4, "n_rx": 4, "x_tx": 4, "x_rx": 4}
    for field, value in (("n_tx", 4.5), ("x_rx", True), ("n_rx", "4")):
        with pytest.raises(ConfigError, match=f"codebook.{field} must be an integer"):
            load_config(write_config(tmp_path, codebook={**sizes, field: value}))
    for value in (2.5, True):
        with pytest.raises(ConfigError,
                           match="strategy.candidate_cap must be an integer"):
            load_config(write_config(tmp_path, strategy={
                "kind": "kkt", "candidate_cap": value}))
    for value in (True, "5"):
        with pytest.raises(ConfigError, match="strategy.omega must be a number"):
            load_config(write_config(tmp_path, strategy={
                "kind": "kkt", "omega": value}))
    with pytest.raises(ConfigError, match="codebook must be an object"):
        load_config(write_config(tmp_path, codebook=5))
    with pytest.raises(ConfigError, match="strategy must be an object"):
        load_config(write_config(tmp_path, strategy=None))
    config = load_config(write_config(tmp_path, codebook={**sizes, "n_tx": 4.0},
                                      strategy={"kind": "kkt", "candidate_cap": 3.0}))
    assert config.codebook.n_tx == 4 and isinstance(config.codebook.n_tx, int)
    assert config.strategy.candidate_cap == 3
    assert isinstance(config.strategy.candidate_cap, int)


def test_config_rejects_malformed_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(missing)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(broken)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(listy)


def test_presets_fill_only_unset_keys(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"m_b": 6, "n_frames": 10}))
    config = load_config(path, preset="desk")
    assert config.codebook.x_pairs == 16
    assert config.m_b == 6  # file wins over preset
    assert config.n_frames == 10
    paper = load_config(None, preset="paper")
    assert paper.codebook.n_tx == 64
    assert paper.m_b == 40


def test_wilson_interval_basic_shape():
    center, half = wilson_interval(5, 10)
    assert center == pytest.approx(0.5)
    assert 0.26 < half < 0.31
    lo_c, lo_h = wilson_interval(0, 50)
    assert lo_c - lo_h <= 1e-12 < lo_c + lo_h
    wide = wilson_interval(20, 100)[1]
    narrow = wilson_interval(200, 1000)[1]
    assert narrow < wide
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# ------------------------------------------------------------------ campaign

def test_snr_sweep_produces_one_record_per_point(tmp_path):
    config = load_config(write_config(tmp_path, snr_db=[-4.0, 2.0]))
    records = run_campaign(config)
    assert len(records) == 2
    for rec, db in zip(records, (-4.0, 2.0)):
        assert rec.sweep_value == db
        assert rec.error is None
        assert 0.0 <= rec.atep <= 1.0
        assert rec.atep_ci95 >= 0.0
        assert len(rec.per_block_atep) == config.t_blocks - 1
        assert rec.avg_beamforming_gain > 0.0
        assert rec.wall_time > 0.0


def test_atep_falls_as_snr_rises(tmp_path):
    config = load_config(write_config(tmp_path, snr_db=[-12.0, 6.0],
                                      n_frames=300))
    records = run_campaign(config)
    assert records[0].atep > records[1].atep


def test_beta_sweep_uses_sweep_values(tmp_path):
    config = load_config(write_config(tmp_path, sweep="beta",
                                      sweep_values=[0.1, 0.9],
                                      snr_db=[20.0], n_frames=200))
    records = run_campaign(config)
    assert [rec.sweep_value for rec in records] == [0.1, 0.9]
    # faster variation is harder to track at any fixed budget
    assert records[0].atep < records[1].atep


def test_block_index_sweep_expands_single_run(tmp_path):
    config = load_config(write_config(tmp_path, sweep="block_index",
                                      t_blocks=5))
    records = run_campaign(config)
    assert [rec.sweep_value for rec in records] == [2.0, 3.0, 4.0, 5.0]
    for rec in records:
        assert len(rec.per_block_atep) == 4
        assert rec.atep == pytest.approx(
            rec.per_block_atep[int(rec.sweep_value) - 2])


def test_infeasible_point_yields_error_record_and_continues(tmp_path):
    config = load_config(write_config(tmp_path, sweep="m_b",
                                      sweep_values=[4, 400], n_frames=10))
    records = run_campaign(config)
    assert len(records) == 2
    assert records[0].error is None
    assert records[1].error is not None
    assert math.isnan(records[1].atep)


@pytest.mark.parametrize("kind, omega, fails", [
    ("kkt", 5.0, True), ("uniform", 0.0, True), ("kkt", 0.0, False)])
def test_budget_above_the_pair_count_fails_alike_for_every_seed(
        tmp_path, kind, omega, fails):
    # 20 symbols cannot go to 20 distinct pairs of a 4x4 grid. Uniform probing
    # is reachable when it is the strategy or the guard is on, whatever the
    # readouts, so every seed fails; with the guard off kkt repeats pairs
    for seed in range(1, 9):
        cfg = write_config(tmp_path, snr_db=[10.0], m_b=20, t_blocks=10,
                           n_frames=30, seed=seed,
                           strategy={"kind": kind, "omega": omega})
        [rec] = run_campaign(load_config(cfg))
        if fails:
            assert rec.error == ("ValueError: budget 20 exceeds the 16 "
                                 "distinct pairs that uniform probing needs")
        else:
            assert rec.error is None
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == (3 if fails else 0)


def test_any_exception_in_a_point_yields_error_record(tmp_path, monkeypatch):
    real_run_point = cli._run_point

    def flaky(point, point_idx, workers):
        if point_idx == 0:
            raise ConvergenceError("quadrature stalled", partial=0.5)
        return real_run_point(point, point_idx, workers)

    monkeypatch.setattr(cli, "_run_point", flaky)
    cfg = write_config(tmp_path, snr_db=[0.0, 5.0], n_frames=10)
    records = run_campaign(load_config(cfg))
    assert len(records) == 2
    assert "ConvergenceError" in records[0].error
    assert math.isnan(records[0].atep)
    assert records[1].error is None
    assert 0.0 <= records[1].atep <= 1.0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3


def test_failed_kkt_solve_fails_its_points(tmp_path, monkeypatch, capsys):
    # a multiplier search that cannot reach the budget fails the point with
    # exit 3 instead of handing back an even split
    monkeypatch.setattr(allocate_module, "_stationary_roots",
                        lambda mu0, w, m_b, r0: np.full(len(w), np.nan))
    cfg = write_config(tmp_path, snr_db=[-12.0, -8.0], m_b=12, n_frames=4,
                       strategy={"kind": "kkt"})
    records = run_campaign(load_config(cfg))
    assert [rec.sweep_value for rec in records] == [-12.0, -8.0]
    for rec in records:
        assert rec.error.startswith("ArithmeticError: KKT solve")
        assert math.isnan(rec.atep)
    out = tmp_path / "x.json"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 3
    assert "ArithmeticError" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert all(r["error"].startswith("ArithmeticError") and r["atep"] is None
               for r in doc["records"])


SWEEPS = {
    "snr": {"snr_db": [-2.0, 3.0]},
    "beta": {"sweep": "beta", "sweep_values": [0.1, 0.6], "snr_db": [-2.0]},
    "m_b": {"sweep": "m_b", "sweep_values": [3, 6], "snr_db": [-2.0]},
    "block_index": {"sweep": "block_index", "snr_db": [-2.0]},
}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_campaign_is_deterministic_across_worker_counts(tmp_path, sweep):
    config = load_config(write_config(tmp_path, n_frames=30, **SWEEPS[sweep]))
    serial = run_campaign(config, workers=1)
    parallel = run_campaign(config, workers=3)
    assert len(serial) == len(parallel) > 0
    for a, b in zip(serial, parallel):
        assert a.error is None and b.error is None
        assert a.sweep_value == b.sweep_value
        assert a.atep == b.atep
        assert a.atep_ci95 == b.atep_ci95
        assert a.per_block_atep == b.per_block_atep
        assert a.avg_beamforming_gain == b.avg_beamforming_gain


@pytest.mark.parametrize("affinity", [True, False])
def test_pool_never_outnumbers_the_usable_cpus(tmp_path, monkeypatch, affinity):
    sizes, task_counts = [], []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            task_counts.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    if affinity:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
    else:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    config = load_config(write_config(tmp_path, n_frames=24))
    eight = run_campaign(config, workers=8)
    assert sizes == [2]
    assert task_counts == [8]  # still eight chunks to stitch
    one = run_campaign(config, workers=1)
    assert [r.per_block_atep for r in eight] == [r.per_block_atep for r in one]
    assert [r.avg_beamforming_gain for r in eight] == [
        r.avg_beamforming_gain for r in one]


def test_omp_estimator_campaign_runs(tmp_path):
    config = load_config(write_config(tmp_path, estimator="omp", n_frames=25))
    records = run_campaign(config)
    assert records[0].error is None


def test_metrics_record_validation():
    with pytest.raises(ValueError):
        MetricsRecord(sweep_value=0.0, atep=1.2, atep_ci95=0.1,
                      avg_beamforming_gain=1.0, per_block_atep=(), wall_time=0.1)
    bad = MetricsRecord(sweep_value=0.0, atep=float("nan"),
                        atep_ci95=float("nan"),
                        avg_beamforming_gain=float("nan"),
                        per_block_atep=(), wall_time=0.1, error="boom")
    assert bad.error == "boom"


# ------------------------------------------------------------------ emission

def test_csv_has_exact_columns_and_one_row_per_record(tmp_path):
    config = load_config(write_config(tmp_path, snr_db=[-4.0]))
    records = run_campaign(config)
    out = tmp_path / "out.csv"
    emit_results(records, "csv", out, config)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_COLUMNS)
    assert fields[0] == "snr"
    assert fields[2] == "uniform"
    assert fields[3] == "power"
    assert float(fields[4]) == records[0].atep
    assert fields[7] == "40" and fields[8] == "7"


def test_json_round_trips_every_record_field(tmp_path):
    config = load_config(write_config(tmp_path, snr_db=[-4.0, 0.0]))
    records = run_campaign(config)
    out = tmp_path / "out.json"
    emit_results(records, "json", out, config)
    doc = json.loads(out.read_text())
    assert doc["config"]["transition_distance"] == "linear"
    assert doc["config"]["omega_normalized_by_noise"] is True
    assert doc["config"]["noise_var"] == 1.0
    assert doc["config"]["snr_db"] == [-4.0, 0.0]
    assert len(doc["records"]) == len(records)
    for got, rec in zip(doc["records"], records):
        assert got["sweep_value"] == rec.sweep_value
        assert got["atep"] == rec.atep
        assert got["atep_ci95"] == rec.atep_ci95
        assert got["avg_gain"] == rec.avg_beamforming_gain
        assert got["per_block_atep"] == list(rec.per_block_atep)
        assert got["wall_time"] == rec.wall_time
        assert got["error"] == rec.error
        assert got["n_frames"] == config.n_frames
        assert got["seed"] == config.seed


def test_emit_rejects_empty_and_unknown_format(tmp_path):
    config = load_config(write_config(tmp_path))
    records = run_campaign(config)
    with pytest.raises(ValueError):
        emit_results([], "csv", tmp_path / "x.csv", config)
    with pytest.raises(ValueError, match="format"):
        emit_results(records, "yaml", tmp_path / "x.yaml", config)


# --------------------------------------------------------------- entry point

def test_main_writes_csv_and_returns_zero(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(",".join(CSV_COLUMNS))


def test_main_reports_config_errors_with_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, t_blocks=1)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "t_blocks" in capsys.readouterr().err


def test_main_flags_partial_failure_with_exit_three(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep="m_b", sweep_values=[4, 400],
                       n_frames=10)
    out = tmp_path / "partial.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    # results for the healthy points are still written
    assert len(out.read_text().splitlines()) == 3
    assert capsys.readouterr().err != ""


def test_failed_point_is_strict_json_null(tmp_path):
    cfg = write_config(tmp_path, sweep="m_b", sweep_values=[4, 400],
                       n_frames=10)
    out = tmp_path / "partial.json"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--format", "json"])
    assert code == 3

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    healthy, failed = doc["records"]
    assert healthy["error"] is None and 0.0 <= healthy["atep"] <= 1.0
    assert failed["error"] is not None
    assert failed["atep"] is None
    assert failed["atep_ci95"] is None and failed["avg_gain"] is None


def test_main_unwritable_output_is_exit_two(tmp_path, monkeypatch, capsys):
    def no_campaign(*args, **kwargs):
        raise AssertionError("a point ran before the output path was checked")

    monkeypatch.setattr(cli, "run_campaign", no_campaign)
    cfg = write_config(tmp_path)
    code = main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 2
    assert "cannot write results" in capsys.readouterr().err


def test_main_checks_the_output_without_truncating_it(tmp_path, monkeypatch):
    # the early writability check leaves an existing file as it was until the
    # results replace it
    out = tmp_path / "old.csv"
    out.write_text("kept\n")

    def intact_until_written(records, fmt, path, config):
        assert out.read_text() == "kept\n"

    monkeypatch.setattr(cli, "emit_results", intact_until_written)
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0


def test_seed_env_var_overrides_config(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, seed=7)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    monkeypatch.setenv("BEAMTRACK_SEED", "99")
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    monkeypatch.delenv("BEAMTRACK_SEED")
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    row_a = out_a.read_text().splitlines()[1].split(",")
    row_b = out_b.read_text().splitlines()[1].split(",")
    assert row_a[-1] == "99" and row_b[-1] == "7"
    monkeypatch.setenv("BEAMTRACK_SEED", "eleven")
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 2
    assert "must be an integer, got 'eleven'" in capsys.readouterr().err
    for value in ("-1", str(2 ** 64)):
        monkeypatch.setenv("BEAMTRACK_SEED", value)
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 2
        err = capsys.readouterr().err
        assert "[0, 2**64)" in err and value in err
        assert "must be an integer" not in err


def test_same_seed_gives_byte_identical_csv(tmp_path):
    cfg = write_config(tmp_path, snr_db=[-6.0, -2.0], n_frames=50)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b),
                 "--workers", "4"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_paper_preset_prints_runtime_estimate(tmp_path, capsys):
    cfg = write_config(tmp_path, n_frames=2, snr_db=[0.0], t_blocks=2)
    out = tmp_path / "paper.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--preset", "paper"])
    err = capsys.readouterr().err
    assert "paper preset" in err
    assert code == 0


# ----------------------------------------------------- interval calibration

def test_wilson_interval_covers_known_tracking_probability(tmp_path):
    # two-block frames start from perfect knowledge, so the tracked block's
    # success probability has an exact closed form once averaged over the
    # uniformly drawn starting pair; the 95% interval should cover it in at
    # least 45 of 50 campaigns
    snr_db = 10.0 * math.log10(1.25)
    cfg = write_config(tmp_path, snr_db=[snr_db], t_blocks=2, n_frames=400,
                       betas=[0.3, 0.3])
    base = load_config(cfg)

    codebook = CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4)
    budget = LinkBudget(power=1.25, noise_var=1.0, gain_var=1.0, n_tx=4, n_rx=4)
    model = build_transition_model(beta_rx=0.3, beta_tx=0.3, config=codebook)
    astp = 0.0
    for k0 in range(1, 5):
        for i0 in range(1, 5):
            prior = prior_from_transition(model, k0, i0)
            alloc = allocate_uniform(rank_pairs(prior), 4)
            astp += astp_closed_form(alloc, prior, budget)
    expected_atep = 1.0 - astp / 16.0

    covered = 0
    for seed in range(50):
        config = ExperimentConfig(**{**base.__dict__, "seed": seed})
        rec = run_campaign(config)[0]
        misses = round(rec.atep * 400)
        center, half = wilson_interval(misses, 400)
        covered += center - half <= expected_atep <= center + half
    assert covered >= 45

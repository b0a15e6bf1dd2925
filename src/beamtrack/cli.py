"""Experiment configs, Monte Carlo campaigns, and plot-ready result files.

A campaign sweeps one knob (SNR, AoA variation speed, pilot budget, or block
index), runs ``n_frames`` tracking frames per sweep point, and reports the
average tracking error probability with a Wilson 95 % interval plus the
average beamforming gain.  Frame seeds derive from the master seed and the
(point, frame) counters alone, so results are bit-identical no matter how
the frames are spread over worker processes.
"""

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .allocate import StrategyConfig
from .astp import LinkBudget
from .channel import CodebookConfig
from .track import ESTIMATORS, prepare_scenario, run_frame

SWEEP_KINDS = ("snr", "beta", "m_b", "block_index")

# SNR is defined against unit noise power; only the pilot power P moves.
NOISE_VAR = 1.0

_Z95 = 1.959963984540054

CSV_COLUMNS = ("sweep_name", "sweep_value", "strategy", "estimator", "atep",
               "atep_ci95", "avg_gain", "n_frames", "seed")

_DEFAULTS = {
    "codebook": {"n_tx": 64, "n_rx": 64, "x_tx": 64, "x_rx": 64},
    "betas": [0.1, 0.1],
    "snr_db": [-20.0, -18.0, -16.0, -14.0, -12.0, -10.0, -8.0],
    "m_b": 40,
    "t_blocks": 10,
    "n_frames": 2000,
    "gain_var": 1.0,
    "strategy": {"kind": "kkt", "omega": 5.0, "candidate_cap": None},
    "estimator": "power",
    "seed": 1,
    "sweep": "snr",
    "sweep_values": None,
}

# Preset overlays, applied under whatever the config file pins down.  "desk"
# is small enough for laptops and CI; "paper" is the defaults themselves, the
# full 64-per-side grid, and announces its runtime before it starts.
_PRESETS = {
    "desk": {
        "codebook": {"n_tx": 4, "n_rx": 4, "x_tx": 4, "x_rx": 4},
        "m_b": 12,
    },
    "paper": {},
}


class ConfigError(Exception):
    """Raised when an experiment config cannot be validated."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One campaign: a codebook, a channel model, and a sweep definition.

    A sweep point is an ExperimentConfig too: the campaign's config with the
    swept setting replaced, run at its first snr_db entry.
    """

    codebook: CodebookConfig
    betas: tuple
    snr_db: tuple
    m_b: int
    t_blocks: int
    n_frames: int
    strategy: StrategyConfig
    estimator: str
    seed: int
    sweep: str
    sweep_values: tuple = None
    gain_var: float = 1.0

    def __post_init__(self):
        if len(self.betas) != 2:
            raise ValueError("betas must hold exactly two entries (AoA, AoD)")
        for side, b in zip(("betas[0]", "betas[1]"), self.betas):
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"{side} must lie in [0, 1], got {b}")
        if len(self.snr_db) == 0:
            raise ValueError("snr_db must be a non-empty list of dB values")
        if self.m_b < 1:
            raise ValueError(f"m_b must be at least 1, got {self.m_b}")
        if self.t_blocks < 2:
            raise ValueError(
                f"t_blocks must be at least 2 (block 1 is never tracked), "
                f"got {self.t_blocks}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be at least 1, got {self.n_frames}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(
                f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.sweep not in SWEEP_KINDS:
            raise ValueError(
                f"sweep must be one of {SWEEP_KINDS}, got {self.sweep!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.gain_var <= 0:
            raise ValueError(f"gain_var must be positive, got {self.gain_var}")
        # the JSON output echoes these, and strict JSON has no NaN or Infinity
        for name, val in ([("snr_db", s) for s in self.snr_db]
                          + [("gain_var", self.gain_var),
                             ("strategy.omega", self.strategy.omega)]):
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.sweep in ("beta", "m_b"):
            if not self.sweep_values:
                raise ValueError(
                    f"sweep_values must list the swept {self.sweep} values")
            if self.sweep == "beta":
                for v in self.sweep_values:
                    if not 0.0 <= v <= 1.0:
                        raise ValueError(
                            f"sweep_values entries must lie in [0, 1], got {v}")
            else:
                for v in self.sweep_values:
                    if not math.isfinite(v) or int(v) != v or v < 1:
                        raise ValueError(
                            f"sweep_values entries must be budgets >= 1, got {v}")
        elif self.sweep_values is not None:
            raise ValueError(
                "sweep_values applies only to beta and m_b sweeps")


@dataclass(frozen=True)
class MetricsRecord:
    """Aggregated metrics for one sweep point.

    error is None for clean points; a failed point keeps its sweep_value,
    carries the failure message, and reports nan metrics.
    """

    sweep_value: float
    atep: float
    atep_ci95: float
    avg_beamforming_gain: float
    per_block_atep: tuple
    wall_time: float
    error: str = None

    def __post_init__(self):
        if self.error is None:
            if not 0.0 <= self.atep <= 1.0:
                raise ValueError(f"atep must lie in [0, 1], got {self.atep}")
            if self.atep_ci95 < 0.0:
                raise ValueError("atep_ci95 must be nonnegative")


def wilson_interval(k, n):
    """Wilson 95 % interval for k successes out of n: (center, half_width)."""
    if n < 1:
        raise ValueError("need at least one trial")
    z2 = _Z95 * _Z95
    p = k / n
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return center, half


def _merge_overlay(base, overlay):
    out = dict(base)
    for key, val in overlay.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_overlay(out[key], val)
        else:
            out[key] = val
    return out


def _require_keys(raw, allowed, where):
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} in {where}: "
            + ", ".join(unknown))


def _integer(name, value):
    # JSON has one number type: 1e3 is a count, 2.5, true and "3" are not
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _number(name, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _numbers(name, value):
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_number(f"{name} entry", v) for v in value)


def load_config(path, preset=None):
    """Read a JSON config, overlay it on the preset and global defaults.

    Unknown keys are rejected rather than ignored so a typo cannot silently
    fall back to a default.
    """
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    if preset is not None:
        if preset not in _PRESETS:
            raise ConfigError(
                f"preset must be one of {tuple(_PRESETS)}, got {preset!r}")
    _require_keys(raw, _DEFAULTS, "config")
    for section in ("codebook", "strategy"):
        if section in raw:
            if not isinstance(raw[section], dict):
                raise ConfigError(
                    f"{section} must be an object, got {raw[section]!r}")
            _require_keys(raw[section], _DEFAULTS[section], section)

    resolved = _DEFAULTS
    if preset is not None:
        resolved = _merge_overlay(resolved, _PRESETS[preset])
    resolved = _merge_overlay(resolved, raw)

    try:
        codebook = CodebookConfig(**{
            key: _integer(f"codebook.{key}", val)
            for key, val in resolved["codebook"].items()})
        strat = resolved["strategy"]
        cap = strat["candidate_cap"]
        strategy = StrategyConfig(
            kind=strat["kind"],
            omega=_number("strategy.omega", strat["omega"]),
            candidate_cap=None if cap is None
            else _integer("strategy.candidate_cap", cap))
        sweep_values = resolved["sweep_values"]
        return ExperimentConfig(
            codebook=codebook,
            betas=_numbers("betas", resolved["betas"]),
            snr_db=_numbers("snr_db", resolved["snr_db"]),
            m_b=_integer("m_b", resolved["m_b"]),
            t_blocks=_integer("t_blocks", resolved["t_blocks"]),
            n_frames=_integer("n_frames", resolved["n_frames"]),
            strategy=strategy,
            estimator=resolved["estimator"],
            seed=_integer("seed", resolved["seed"]),
            sweep=resolved["sweep"],
            sweep_values=None if sweep_values is None
            else _numbers("sweep_values", sweep_values),
            gain_var=_number("gain_var", resolved["gain_var"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_echo(config):
    """Every resolved setting, for the JSON output header."""
    return {**asdict(config), "noise_var": NOISE_VAR,
            "transition_distance": "linear", "omega_normalized_by_noise": True}


def _sweep_points(config):
    """(sweep_value, point config) per point; block_index has one run."""
    first = config.snr_db[:1]
    if config.sweep == "snr":
        return [(db, replace(config, snr_db=(db,))) for db in config.snr_db]
    if config.sweep == "beta":
        return [(b, replace(config, snr_db=first, betas=(b, config.betas[1])))
                for b in config.sweep_values]
    if config.sweep == "m_b":
        return [(m, replace(config, snr_db=first, m_b=int(m)))
                for m in config.sweep_values]
    return [(float("nan"), replace(config, snr_db=first))]


def _run_chunk(task):
    """Run frames [lo, hi) of one sweep point; must stay picklable."""
    point, point_idx, lo, hi = task
    cb = point.codebook
    budget = LinkBudget(power=10.0 ** (point.snr_db[0] / 10.0),
                        noise_var=NOISE_VAR, gain_var=point.gain_var,
                        n_tx=cb.n_tx, n_rx=cb.n_rx)
    scenario = prepare_scenario(cb, point.betas[0], point.betas[1], budget,
                                point.m_b, point.t_blocks, point.strategy,
                                point.estimator)
    hits = np.empty((hi - lo, point.t_blocks - 1), dtype=bool)
    gains = np.empty((hi - lo, point.t_blocks - 1))
    for row, frame in enumerate(range(lo, hi)):
        out = run_frame(scenario, np.random.SeedSequence(
            point.seed, spawn_key=(point_idx, frame)))
        hits[row] = out.hits
        gains[row] = out.gains
    return hits, gains


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_point(point, point_idx, workers):
    n = point.n_frames
    if workers <= 1 or n < 2 * workers:
        return _run_chunk((point, point_idx, 0, n))
    bounds = np.linspace(0, n, workers + 1).astype(int)
    tasks = [(point, point_idx, int(lo), int(hi))
             for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    # the chunking follows the worker count; the processes never outnumber
    # the CPUs this process may run on
    with ProcessPoolExecutor(max_workers=min(workers, _usable_cpus())) as pool:
        parts = list(pool.map(_run_chunk, tasks))
    # frame seeds depend only on (point, frame), so stitching the chunks back
    # in frame order erases the worker count from the result
    hits = np.vstack([p[0] for p in parts])
    gains = np.vstack([p[1] for p in parts])
    return hits, gains


def _point_record(value, hits, gains, wall):
    n_frames, tracked = hits.shape
    misses = hits.size - int(np.count_nonzero(hits))
    _, half = wilson_interval(misses, hits.size)
    per_block = tuple(1.0 - np.mean(hits, axis=0))
    return MetricsRecord(
        sweep_value=value,
        atep=misses / hits.size,
        atep_ci95=half,
        avg_beamforming_gain=float(np.mean(gains)),
        per_block_atep=per_block,
        wall_time=wall,
    )


def _error_record(value, message, wall):
    return MetricsRecord(sweep_value=value, atep=float("nan"),
                         atep_ci95=float("nan"),
                         avg_beamforming_gain=float("nan"),
                         per_block_atep=(), wall_time=wall, error=message)


def run_campaign(config, workers=1):
    """Run every sweep point; a failed point yields an error record and the
    campaign moves on, whatever the exception type."""
    records = []
    for point_idx, (value, point) in enumerate(_sweep_points(config)):
        start = time.perf_counter()
        try:
            hits, gains = _run_point(point, point_idx, workers)
        except Exception as exc:  # one point's failure must not lose the rest
            message = f"{type(exc).__name__}: {exc}"
            records.append(_error_record(value, message,
                                         time.perf_counter() - start))
            continue
        wall = time.perf_counter() - start
        if config.sweep == "block_index":
            # one run, reported block by block
            per_block = 1.0 - np.mean(hits, axis=0)
            n = hits.shape[0]
            for offset, blk_atep in enumerate(per_block):
                misses = n - int(np.count_nonzero(hits[:, offset]))
                _, half = wilson_interval(misses, n)
                records.append(MetricsRecord(
                    sweep_value=float(offset + 2),
                    atep=float(blk_atep),
                    atep_ci95=half,
                    avg_beamforming_gain=float(np.mean(gains[:, offset])),
                    per_block_atep=tuple(per_block),
                    wall_time=wall,
                ))
        else:
            records.append(_point_record(value, hits, gains, wall))
    return records


def _format_value(value, sweep):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if sweep in ("m_b", "block_index"):
        return str(int(value))
    return repr(float(value))


def _json_number(value):
    # strict JSON has no NaN token: a failed point's metrics are written as null
    return None if math.isnan(value) else value


def emit_results(records, fmt, path, config):
    """Write the campaign results as CSV rows or a JSON document."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for rec in records:
            lines.append(",".join((
                config.sweep,
                _format_value(rec.sweep_value, config.sweep),
                config.strategy.kind,
                config.estimator,
                repr(float(rec.atep)),
                repr(float(rec.atep_ci95)),
                repr(float(rec.avg_beamforming_gain)),
                str(config.n_frames),
                str(config.seed),
            )))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {
            "config": config_echo(config),
            "records": [{
                "sweep_name": config.sweep,
                "sweep_value": _json_number(rec.sweep_value),
                "strategy": config.strategy.kind,
                "estimator": config.estimator,
                "atep": _json_number(rec.atep),
                "atep_ci95": _json_number(rec.atep_ci95),
                "avg_gain": _json_number(rec.avg_beamforming_gain),
                "n_frames": config.n_frames,
                "seed": config.seed,
                "per_block_atep": list(rec.per_block_atep),
                "wall_time": rec.wall_time,
                "error": rec.error,
            } for rec in records],
        }
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def report_failures(records):
    """Print each failed point's error on stderr; returns how many failed."""
    failures = [rec for rec in records if rec.error is not None]
    for rec in failures:
        print(f"point {rec.sweep_value}: {rec.error}", file=sys.stderr)
    return len(failures)


def _estimate_runtime(config):
    points = 1 if config.sweep == "block_index" else (
        len(config.snr_db) if config.sweep == "snr" else len(config.sweep_values))
    blocks = points * config.n_frames * (config.t_blocks - 1)
    # ballpark per-block cost grows with the grid the estimator correlates over
    per_block = 2e-5 * max(1.0, config.codebook.x_pairs / 16.0)
    return blocks, blocks * per_block


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="beamtrack",
        description="Monte Carlo beam tracking campaigns over Markov "
                    "AoA/AoD channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a campaign and write metrics")
    run_p.add_argument("--config", default=None,
                       help="JSON experiment config (optional with --preset)")
    run_p.add_argument("--out", required=True, help="output file path")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--preset", choices=tuple(_PRESETS), default=None)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, preset=args.preset)
        env_seed = os.environ.get("BEAMTRACK_SEED")
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError as exc:
                raise ConfigError(
                    f"BEAMTRACK_SEED must be an integer, got {env_seed!r}"
                ) from exc
            try:
                config = replace(config, seed=seed)
            except ValueError as exc:
                raise ConfigError(f"BEAMTRACK_SEED: {exc}") from exc
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        # an unwritable output must fail before the campaign, not after it;
        # append mode leaves an existing file untouched
        with open(args.out, "a", encoding="utf-8"):
            pass
        if args.preset == "paper":
            blocks, seconds = _estimate_runtime(config)
            print(f"paper preset: {blocks} tracked blocks queued, "
                  f"roughly {seconds / 60.0:.1f} min at desk-calibrated speed",
                  file=sys.stderr)
        records = run_campaign(config, workers=args.workers)
        emit_results(records, args.format, args.out, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write results: {exc}", file=sys.stderr)
        return 2
    return 3 if report_failures(records) else 0


if __name__ == "__main__":
    sys.exit(main())

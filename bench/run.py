#!/usr/bin/env python3
"""Campaign benchmark: tracked blocks per second on four beamtrack workloads.

    python3 bench/run.py --workload desk-track --seed 1 --seconds 20 --trace 0

A run loads one workload config with the CLI's config loader and repeats
whole campaigns (cli.run_campaign with workers=1, then cli.emit_results to a
JSON file) for about --seconds seconds, each repeat with its own campaign
seed derived from --seed. Each repeat's time is scaled by a speed probe run
on either side of it, because the host's speed swings between runs. It then
checks the outputs against independent references (bench/checks.py) and
prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repeats of one campaign, times the calls into each module's public
functions from outside, and reports the per-layer metrics together with the
tracing overhead. See bench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

# One BLAS thread: the matrices are small, and a second thread only contends
# with the campaign for the two cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("desk-track", "mid-alloc", "overlap-omp", "desk-bb")
NOISE_VAR = 1.0  # the CLI defines SNR against unit noise power

# The probe's time on the reference host (see README) when nothing else
# slows it; it only sets the scale of the reported speeds.
PROBE_REFERENCE_S = 0.1
PROBE_BLOCKS = 600

# Single allocations timed alone on the prior after (x/2, x/2):
# (strategy, scale, grid side, M_B, SNR dB).
SOLVES = (
    ("kkt", "desk", 4, 12, 0.0),
    ("kkt", "mid", 16, 24, -10.0),
    ("kkt", "paper", 64, 40, -14.0),
    ("branch_and_bound", "desk", 4, 8, 8.0),
    ("proportional", "paper", 64, 40, -14.0),
)
SOLVE_REPEATS = 3

TIMED_LAYERS = (
    "track.run_frame",
    "track.synthesize_measurements",
    "track.estimate_power",
    "track.estimate_omp",
    "channel.step_channel",
    "astp.prior_from_transition",
    "allocate.rank_pairs",
    "allocate.apply_strategy",
    "track.prepare_scenario",
)


def process_age():
    """Seconds since this process started, from the kernel's start stamp."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def round_seed(seed, index):
    return seed * 1_000_003 + index


def probe_seconds():
    """Time a fixed kernel shaped like one tracked block (two Markov draws,
    pair rows by np.kron, noisy symbols, a Python accumulation loop, a
    partition), repeated. It uses numpy alone, so no change to beamtrack
    moves it."""
    rng = np.random.default_rng(12345)
    row = np.full(16, 1.0 / 16.0)
    beams = np.exp(1j * np.outer(np.arange(4), np.arange(4)))
    acc = 0j
    start = time.perf_counter()
    for _ in range(PROBE_BLOCKS):
        k = int(rng.choice(16, p=row))
        m = int(rng.choice(16, p=row))
        rows = np.empty((8, 16), complex)
        for j in range(8):
            rows[j] = np.kron(beams[(j + k) % 4], beams[(j + m) % 4])
        x = np.repeat(rows[:, k], 3) + (rng.standard_normal(24) + 1j * rng.standard_normal(24))
        for v in x:
            acc += v
        acc += float(np.partition(np.abs(x) ** 2, 22)[-1])
    return time.perf_counter() - start


class SpeedProbe:
    """Slowdown of the host against its reference speed, from the probe run
    before and after each timed stretch.

    Other tenants of the host slow whole stretches of seconds to minutes by
    up to 3.5x; CPU time inside this process slows with them, so neither wall
    nor CPU time alone is steady. Scaling each round by the probe's slowdown
    at that moment removes most of it.
    """

    def __init__(self):
        probe_seconds()  # first-call costs of numpy's generator
        self.last = probe_seconds()

    def since_last(self):
        after = probe_seconds()
        slowdown = 0.5 * (self.last + after) / PROBE_REFERENCE_S
        self.last = after
        return slowdown


# ------------------------------------------------------------------ tracing

class Tracer:
    """Calls, inclusive and self time of wrapped functions for one campaign,
    plus the tracker's decisions, kept in memory."""

    def __init__(self, record_omp=False):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.guard_uniform = 0
        self.probed_pairs = []
        self.omp = [] if record_omp else None
        self._children = []
        self._last_alloc = None

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                inner = self._children.pop()
                self.calls[name] += 1
                self.total[name] += spent
                self.self_time[name] += spent - inner
                if self._children:
                    self._children[-1] += spent
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def guard(self, fn):
        def wrapper(prev_powers, omega, inner, noise_var):
            strat = fn(prev_powers, omega, inner, noise_var)
            if strat.kind == "uniform" and inner.kind != "uniform":
                self.guard_uniform += 1
            return strat
        return wrapper

    def synthesis(self, fn):
        def wrapper(alloc, *args, **kwargs):
            self._last_alloc = alloc
            self.probed_pairs.append(alloc.n_pairs)
            return fn(alloc, *args, **kwargs)
        return wrapper

    def omp_estimates(self, fn):
        def wrapper(meas, *args, **kwargs):
            est = fn(meas, *args, **kwargs)
            if self.omp is not None:
                alloc = self._last_alloc
                self.omp.append((alloc.pairs, alloc.counts, meas.per_symbol,
                                 (est.aoa_index, est.aod_index)))
            return est
        return wrapper

    def targets(self, prog):
        cli, track, allocate, astp = prog["cli"], prog["track"], prog["allocate"], prog["astp"]
        t = self.timed
        return [
            (cli, "prepare_scenario", t("track.prepare_scenario", cli.prepare_scenario)),
            (cli, "run_frame", t("track.run_frame", cli.run_frame)),
            (track, "step_channel", t("channel.step_channel", track.step_channel)),
            (track, "guarded_strategy", self.guard(track.guarded_strategy)),
            (track, "prior_from_transition",
             t("astp.prior_from_transition", track.prior_from_transition)),
            (track, "rank_pairs", t("allocate.rank_pairs", track.rank_pairs)),
            (track, "apply_strategy", t("allocate.apply_strategy", track.apply_strategy)),
            (track, "synthesize_measurements", self.synthesis(
                t("track.synthesize_measurements", track.synthesize_measurements))),
            (track, "estimate_power", t("track.estimate_power", track.estimate_power)),
            (track, "estimate_omp", self.omp_estimates(
                t("track.estimate_omp", track.estimate_omp))),
            (allocate, "harmonic", self.counted("specfun.harmonic", allocate.harmonic)),
            (astp, "harmonic", self.counted("specfun.harmonic", astp.harmonic)),
        ]

    def counts(self):
        """Everything that must repeat exactly when the campaign repeats."""
        return (dict(self.calls), self.guard_uniform, tuple(self.probed_pairs))

    def layer_metrics(self, blocks):
        out = {f"{name}.s": self.total[name] for name in TIMED_LAYERS}
        out["track.run_frame.self_s"] = self.self_time["track.run_frame"]
        misses = self.calls["allocate.apply_strategy"]
        out["allocate.apply_strategy.calls"] = misses
        out["allocate.apply_strategy.ms_per_call"] = (
            1000.0 * self.total["allocate.apply_strategy"] / misses if misses else 0.0)
        out["allocate.cache_hit_ratio"] = 1.0 - misses / blocks
        out["allocate.guard_uniform.count"] = self.guard_uniform
        out["allocate.probed_pairs.mean"] = statistics.fmean(self.probed_pairs)
        out["specfun.harmonic.calls"] = self.calls["specfun.harmonic"]
        out["track.prepare_scenario.calls"] = self.calls["track.prepare_scenario"]
        return out


@contextmanager
def patched(targets):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    for mod, attr, new in targets:
        setattr(mod, attr, new)
    try:
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)


# ------------------------------------------------------------------ program

def load_program():
    src = ROOT / "src"
    if not (src / "beamtrack" / "cli.py").is_file():
        sys.exit(f"bench: no beamtrack sources under {src}")
    sys.path.insert(0, str(src))
    from beamtrack import allocate, astp, channel, cli, track

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: beamtrack imported from {cli.__file__}, not {src}")
    return {"cli": cli, "track": track, "allocate": allocate, "astp": astp,
            "channel": channel}


def campaign_round(cli, config, out_path, probe):
    """One whole campaign as a user runs it. Returns the records, the
    round's seconds, the emit's seconds and the host's slowdown meanwhile."""
    start = time.perf_counter()
    records = cli.run_campaign(config, workers=1)
    mid = time.perf_counter()
    cli.emit_results(records, "json", out_path, config)
    end = time.perf_counter()
    return records, end - start, end - mid, probe.since_last()


def healthy_blocks(config, records):
    return sum(config.n_frames * (config.t_blocks - 1)
               for rec in records if rec.error is None)


def repeat_rounds(seconds, step):
    """Call step(i) for i = 0, 1, ... until the next round would end more
    than half a round past the time budget; always at least once."""
    start = time.perf_counter()
    n = 0
    while True:
        step(n)
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / n >= seconds:
            return


# ------------------------------------------------------------------- checks

def attempt(failures, fn, *args):
    """Run one check; a CheckError becomes a failure message, not an exit."""
    try:
        return fn(*args)
    except CheckError as exc:
        failures.append(str(exc))
        return None


def orthogonal(config):
    cb = config.codebook
    return cb.n_rx == cb.x_rx and cb.n_tx == cb.x_tx


def first_block_miss(prog, config, snr_db):
    """Check the allocation of every class of start states and return the
    reference first-block miss probability, averaged over the uniform start
    (None when no closed form applies)."""
    allocate = prog["allocate"]
    cb = config.codebook
    budget = prog["astp"].LinkBudget(power=10.0 ** (snr_db / 10.0), noise_var=NOISE_VAR,
                                     gain_var=config.gain_var, n_tx=cb.n_tx, n_rx=cb.n_rx)
    gamma2 = budget.power * cb.n_tx * cb.n_rx
    r0 = gamma2 * config.gain_var / NOISE_VAR
    closed_form = config.estimator == "power" and orthogonal(config)
    hit = 0.0
    for members, prior in checks.start_classes(*config.betas, cb.x_rx, cb.x_tx):
        ranked = allocate.rank_pairs(prog["astp"].PriorWeights(weights=prior))
        alloc = allocate.apply_strategy(config.strategy, ranked, config.m_b, budget)
        checks.check_allocation(config.strategy.kind, alloc.pairs, alloc.counts, prior,
                                config.m_b, r0, config.strategy.candidate_cap)
        if closed_form:
            pw = prior[[p - 1 for p in alloc.pairs]]
            hit += members * checks.astp(alloc.counts, pw, gamma2, NOISE_VAR, config.gain_var)
    return 1.0 - hit / cb.x_pairs if closed_form else None


def check_outputs(prog, config, rounds, failures):
    """Checks on the records of independent campaign rounds."""
    for _, records in rounds:
        attempt(failures, checks.check_records, records, len(config.snr_db), orthogonal(config))
    for p, snr in enumerate(config.snr_db):
        p_miss = attempt(failures, first_block_miss, prog, config, snr)
        if p_miss is None:
            continue
        misses = trials = 0
        for cfg, records in rounds:
            rec = records[p]
            if rec.error is None:
                misses += round(rec.per_block_atep[0] * cfg.n_frames)
                trials += cfg.n_frames
        attempt(failures, checks.check_first_block, misses, trials, p_miss, f"{snr} dB")


# -------------------------------------------------------------------- modes

def run_untraced(prog, config, args, out_path, failures):
    cli = prog["cli"]
    setup_s = process_age()
    probe = SpeedProbe()
    rounds, blocks, seconds, scaled = [], [], [], []

    def step(i):
        cfg = replace(config, seed=round_seed(args.seed, i))
        records, round_s, _, slowdown = campaign_round(cli, cfg, out_path, probe)
        rounds.append((cfg, records))
        blocks.append(healthy_blocks(cfg, records))
        seconds.append(round_s)
        scaled.append(round_s / slowdown)

    repeat_rounds(args.seconds, step)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_outputs(prog, config, rounds, failures)
    attempt(failures, checks.check_emitted, out_path, rounds[-1][1])
    slowdown = sum(seconds) / sum(scaled)
    metrics = {
        "blocks_per_s": sum(blocks) / sum(scaled),
        "setup_s": setup_s / slowdown,
        "peak_rss_mb": peak_mb,
    }
    wall = {"rounds": len(rounds), "blocks_per_s": sum(blocks) / sum(seconds),
            "setup_s": setup_s, "slowdown": slowdown,
            "round_s": seconds, "round_slowdown": [s / c for s, c in zip(seconds, scaled)]}
    return [records for _, records in rounds], metrics, wall


def standalone_solves(prog, failures):
    allocate, astp, channel = prog["allocate"], prog["astp"], prog["channel"]
    out = {}
    for kind, scale, x, m_b, snr in SOLVES:
        cb = channel.CodebookConfig(n_tx=x, n_rx=x, x_tx=x, x_rx=x)
        model = channel.build_transition_model(0.1, 0.1, cb)
        ranked = allocate.rank_pairs(astp.prior_from_transition(model, x // 2, x // 2))
        budget = astp.LinkBudget(power=10.0 ** (snr / 10.0), noise_var=NOISE_VAR,
                                 gain_var=1.0, n_tx=x, n_rx=x)
        strat = allocate.StrategyConfig(kind=kind)
        times = []
        for _ in range(SOLVE_REPEATS):
            start = time.perf_counter()
            alloc = allocate.apply_strategy(strat, ranked, m_b, budget)
            times.append(time.perf_counter() - start)
        out[f"allocate.solve_ms.{kind}.{scale}"] = 1000.0 * statistics.median(times)
        rows = checks.markov_rows(0.1, x)
        prior = checks.prior_weights(rows, rows, x // 2, x // 2)
        attempt(failures, checks.check_allocation, kind, alloc.pairs, alloc.counts, prior,
                m_b, budget.r0)
    return out


def pool_pass(prog, config, failures):
    """A short workers=2 campaign: counts pools and chunks, and checks that
    the records match the same campaign on one worker."""
    cli = prog["cli"]
    seen = Counter()
    base = cli.ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            seen["pools"] += 1
            super().__init__(*args, **kwargs)

        def map(self, fn, tasks, *rest, **kwargs):
            tasks = list(tasks)
            seen["chunks"] += len(tasks)
            return super().map(fn, tasks, *rest, **kwargs)

    small = replace(config, n_frames=4)
    with patched([(cli, "ProcessPoolExecutor", CountingPool)]):
        two = cli.run_campaign(small, workers=2)
    one = cli.run_campaign(small, workers=1)
    attempt(failures, checks.check_identical, one, two, "workers 1 vs 2")
    return {"cli.pools_started": seen["pools"], "cli.chunks": seen["chunks"]}


def run_traced(prog, config, args, out_path, failures):
    """Untraced and traced repeats of one campaign, in alternating order."""
    cli = prog["cli"]
    cfg = replace(config, seed=round_seed(args.seed, 0))
    blocks = cfg.n_frames * (cfg.t_blocks - 1) * len(cfg.snr_db)
    untraced, traced, tracers, per_round = [], [], [], []
    probe = SpeedProbe()

    def plain_round():
        records, round_s, _, slowdown = campaign_round(cli, cfg, out_path, probe)
        untraced.append((records, round_s / slowdown))

    def traced_round():
        tracer = Tracer(record_omp=not tracers)
        with patched(tracer.targets(prog)):
            records, round_s, emit_s, slowdown = campaign_round(cli, cfg, out_path, probe)
        traced.append((records, round_s / slowdown))
        tracers.append(tracer)
        row = tracer.layer_metrics(blocks)
        row["cli.run_campaign.s"] = round_s - emit_s
        row["cli.emit_results.s"] = emit_s
        per_round.append(row)

    def step(i):
        for run_one in (plain_round, traced_round) if i % 2 == 0 else (traced_round, plain_round):
            run_one()

    repeat_rounds(args.seconds, step)
    reference = untraced[0][0]
    for records, _ in untraced[1:] + traced:
        attempt(failures, checks.check_identical, reference, records, "repeat of one seed")
    if any(t.counts() != tracers[0].counts() for t in tracers[1:]):
        failures.append("traced counts differ between repeats of one seed")
    check_outputs(prog, config, [(cfg, reference)], failures)
    geometry = (cfg.codebook.n_rx, cfg.codebook.n_tx, cfg.codebook.x_rx, cfg.codebook.x_tx)
    for pairs, counts, symbols, est in tracers[0].omp:
        attempt(failures, checks.check_omp_estimate, pairs, counts, symbols, est, geometry)

    metrics = {name: statistics.median(row[name] for row in per_round)
               for name in per_round[0]}
    metrics.update(standalone_solves(prog, failures))
    metrics.update(pool_pass(prog, cfg, failures))
    metrics["cli.load_config.s"] = prog["load_config_s"]
    plain = blocks * len(untraced) / sum(s for _, s in untraced)
    slowed = blocks * len(traced) / sum(s for _, s in traced)
    metrics["trace.untraced_blocks_per_s"] = plain
    metrics["trace.traced_blocks_per_s"] = slowed
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - slowed / plain)
    write_trace(args, tracers, per_round, metrics)
    return [r for r, _ in untraced + traced], metrics, {"rounds": len(untraced)}


def write_trace(args, tracers, per_round, metrics):
    path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": per_round,
        "spans": [{name: {"calls": t.calls[name], "total_s": t.total[name],
                          "self_s": t.self_time[name]} for name in t.calls}
                  for t in tracers],
        "metrics": metrics,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# --------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 40:
        parser.error("--seed must lie in [0, 2**40)")

    prog = load_program()
    start = time.perf_counter()
    config = prog["cli"].load_config(str(BENCH / "workloads" / f"{args.workload}.json"))
    prog["load_config_s"] = time.perf_counter() - start
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    failures = []
    mode = run_traced if args.trace else run_untraced
    campaigns, metrics, wall = mode(prog, config, args, out_path, failures)

    points = sum(len(records) for records in campaigns)
    failed = sum(rec.error is not None for records in campaigns for rec in records)
    print(json.dumps({"sweep_points": {"attempted": points, "failed": failed},
                      "frames": {"attempted": points * config.n_frames,
                                 "failed": failed * config.n_frames},
                      "unscaled": wall}))
    for msg in failures:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"bench: measured {sorted(set(metrics) ^ set(units))} "
                 "differ from the metrics BENCHMARK.json declares")
    print(json.dumps({
        "correct": not failures,
        "attempted": points,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

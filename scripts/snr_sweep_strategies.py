"""ATEP vs training SNR for the four allocation strategies, desk scale.

Every strategy sees the same channel realizations (the frame seeds depend
only on the master seed and the frame counter), so the gaps between curves
are differences in allocation policy, not Monte Carlo luck.
"""

import argparse
import sys

from beamtrack.allocate import StrategyConfig
from beamtrack.channel import CodebookConfig
from beamtrack.cli import ExperimentConfig, report_failures, run_campaign

STRATEGIES = ("uniform", "proportional", "kkt", "branch_and_bound")
SNR_DB = tuple(range(-20, -6, 2))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=500)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default=None, help="optional CSV of the table")
    args = ap.parse_args()

    curves = {}
    failed = 0
    for kind in STRATEGIES:
        config = ExperimentConfig(
            codebook=CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4),
            betas=(0.1, 0.1),
            snr_db=SNR_DB,
            m_b=12,
            t_blocks=10,
            n_frames=args.frames,
            strategy=StrategyConfig(kind=kind, omega=5.0),
            estimator="power",
            seed=args.seed,
            sweep="snr",
        )
        records = run_campaign(config)
        failed += report_failures(records, f"{kind} ")
        curves[kind] = [rec.atep for rec in records]
        print(f"{kind}: done")

    header = "snr_db " + " ".join(f"{k:>16}" for k in STRATEGIES)
    print()
    print(header)
    rows = []
    for j, db in enumerate(SNR_DB):
        vals = [curves[k][j] for k in STRATEGIES]
        print(f"{db:6d} " + " ".join(f"{v:16.4f}" for v in vals))
        rows.append([db] + vals)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("snr_db," + ",".join(STRATEGIES) + "\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        print(f"\nwrote {args.out}")
    # like beamtrack run: a failed point is a nonzero exit, not just a nan
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

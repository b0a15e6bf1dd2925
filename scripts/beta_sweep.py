"""ATEP vs AoA variation speed: prior-aware allocation against a flat split.

As beta grows the transition prior flattens, the optimizer has less to
exploit, and the gap to the uniform split should close.
"""

import argparse
import sys

from beamtrack.allocate import StrategyConfig
from beamtrack.channel import CodebookConfig
from beamtrack.cli import ExperimentConfig, report_failures, run_campaign

BETAS = (0.1, 0.2, 0.3, 0.4, 0.5)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=500)
    ap.add_argument("--snr-db", type=float, default=-12.0)
    ap.add_argument("--seed", type=int, default=37)
    ap.add_argument("--out", default=None, help="optional CSV of the table")
    args = ap.parse_args()

    curves = {}
    failed = 0
    for kind in ("uniform", "kkt"):
        config = ExperimentConfig(
            codebook=CodebookConfig(n_tx=4, n_rx=4, x_tx=4, x_rx=4),
            betas=(0.1, 0.1),  # AoA side overridden point by point
            snr_db=(args.snr_db,),
            m_b=12,
            t_blocks=10,
            n_frames=args.frames,
            strategy=StrategyConfig(kind=kind, omega=5.0),
            estimator="power",
            seed=args.seed,
            sweep="beta",
            sweep_values=BETAS,
        )
        records = run_campaign(config)
        failed += report_failures(records, f"{kind} ")
        curves[kind] = [rec.atep for rec in records]
        print(f"{kind}: done")

    print()
    print("  beta  atep_uniform    atep_kkt         gap")
    rows = []
    for j, beta in enumerate(BETAS):
        u, k = curves["uniform"][j], curves["kkt"][j]
        print(f"{beta:6.1f} {u:13.4f} {k:11.4f} {u - k:11.4f}")
        rows.append((beta, u, k, u - k))

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("beta,atep_uniform,atep_kkt,gap\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        print(f"\nwrote {args.out}")
    # like beamtrack run: a failed point is a nonzero exit, not just a nan
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

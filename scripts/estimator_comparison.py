"""Power-readout vs correlation (OMP) estimator under overlapped codebooks.

With fewer antennas than grid directions (here 3 vs 4 per side) the training
beams leak into neighboring directions; the correlation estimator works
against the full grid and soaks up that leakage, while the power readout can
only pick among the probed pairs.
"""

import argparse
import sys

from beamtrack.allocate import StrategyConfig
from beamtrack.channel import CodebookConfig
from beamtrack.cli import ExperimentConfig, report_failures, run_campaign

SNR_DB = tuple(range(-20, -6, 2))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=500)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--out", default=None, help="optional CSV of the table")
    args = ap.parse_args()

    curves = {}
    failed = 0
    for est in ("power", "omp"):
        config = ExperimentConfig(
            codebook=CodebookConfig(n_tx=3, n_rx=3, x_tx=4, x_rx=4),
            betas=(0.1, 0.1),
            snr_db=SNR_DB,
            m_b=12,
            t_blocks=10,
            n_frames=args.frames,
            strategy=StrategyConfig(kind="kkt", omega=5.0),
            estimator=est,
            seed=args.seed,
            sweep="snr",
        )
        records = run_campaign(config)
        failed += report_failures(records, f"{est} ")
        curves[est] = [(rec.atep, rec.avg_beamforming_gain) for rec in records]
        print(f"{est}: done")

    print()
    print("snr_db  atep_power    atep_omp  gain_power    gain_omp")
    rows = []
    for j, db in enumerate(SNR_DB):
        ap_, gp = curves["power"][j]
        ao, go = curves["omp"][j]
        print(f"{db:6d} {ap_:11.4f} {ao:11.4f} {gp:11.4f} {go:11.4f}")
        rows.append((db, ap_, ao, gp, go))

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("snr_db,atep_power,atep_omp,gain_power,gain_omp\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        print(f"\nwrote {args.out}")
    # like beamtrack run: a failed point is a nonzero exit, not just a nan
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

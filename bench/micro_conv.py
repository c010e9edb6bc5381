"""Microstructure convergence ensemble (acceptance criterion 09), run
through the public ``levdyn.micro.run_micro`` entry point.

    PYTHONPATH=src python3 bench/micro_conv.py --config CFG --out OUT.json \
        --replicas 20 --n 100 1000 10000

The levdyn config supplies the model, ``run.seed``, ``run.initial`` and
``micro.horizon``.  For every intraday tick count n the program runs the
given number of independently seeded replicas of the stochastic
simulator, takes the RMS gap between stochastic and deterministic
leverages per replica and averages it per n.  It then runs the
zero-noise limit of the two-bank criterion-09 setup, which must track
the deterministic map.  The JSON report holds the mean RMS per n, the
log-log slope of RMS against n and the zero-noise gap.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from levdyn.config import load_config
from levdyn.micro import MicroParams, run_micro
from levdyn.output import write_json
from levdyn.params import ModelParams

#: the zero-noise reference of criterion 09: 100 periods, two banks
ZERO_NOISE_MODEL = ModelParams(omegas=(0.9, 0.8), pis=(0.3, 0.7))
ZERO_NOISE_INITIAL = [40.0, 70.0]
ZERO_NOISE_HORIZON = 100


def replica_seed(seed: int, replica: int, n: int) -> int:
    return seed * 100_003 + replica * 1_000_003 + n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--replicas", type=int, required=True)
    parser.add_argument("--n", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    config = load_config(args.config)
    seed = config.require_seed("micro-conv")
    rms_by_n = []
    for n in args.n:
        gaps = []
        for replica in range(args.replicas):
            params = MicroParams(
                base=config.model, n_intraday=n, horizon=config.micro.horizon,
                rng_seed=replica_seed(seed, replica, n),
            )
            run = run_micro(params, list(config.run.initial))
            diff = run.lambdas_stochastic - run.lambdas_deterministic
            gaps.append(float(np.sqrt(np.mean(diff**2))))
        rms_by_n.append(float(np.mean(gaps)))
    slope = float(np.polyfit(np.log(args.n), np.log(rms_by_n), 1)[0])

    zero = run_micro(
        MicroParams(
            base=ZERO_NOISE_MODEL, n_intraday=100, horizon=ZERO_NOISE_HORIZON,
            zero_noise=True,
        ),
        ZERO_NOISE_INITIAL,
    )
    zero_gap = float(
        np.max(np.abs(zero.lambdas_stochastic - zero.lambdas_deterministic))
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        write_json(
            fh,
            {
                "n_intraday": list(args.n),
                "replicas": args.replicas,
                "rms": rms_by_n,
                "slope": slope,
                "zero_noise_gap": zero_gap,
            },
            config.sha256,
            seed,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The library workload: the README path of acceptance criteria 1 and 9,
in-process, with no CLI and no CSV.

    python perfbench/fit.py --seed S --n N [--dump PATH]

Prints {"ks_uniform": ..., "ks_exp": ...} as one JSON line.  With --dump
it also saves the uniform omegas and the exp-weighted omegas and weights
as one (3, N) array, so the benchmark can check the draws against its
own reference distribution.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

import bidisk.spectral as spectral


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fit.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--dump")
    args = parser.parse_args(argv)
    batch = spectral.mc_sample(args.n, seed=args.seed)
    ks_uniform = spectral.ks_distance(batch, spectral.cdf_quadrature_batch)
    weight = spectral.WeightSpec("exp")
    weighted = spectral.mc_sample(args.n, seed=args.seed, weight=weight)
    ks_exp = spectral.ks_distance(weighted, spectral._cached_distribution(weight).cdf)
    sys.stdout.write(json.dumps({"ks_exp": ks_exp, "ks_uniform": ks_uniform}) + "\n")
    if args.dump:
        np.save(args.dump, np.stack([batch.omega, weighted.omega, weighted.weight]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

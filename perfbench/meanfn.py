"""Library workload: tabulate the James-Stein mean function at k = 64.

Calls ``steinsim.mc.tabulate_mean_function`` over a fixed theta grid with
one worker and writes the rows as JSON. Each grid row draws from its own
stream, so no two rows share a draw.

    python perfbench/meanfn.py --seed 1 --samples 250000 --output rows.json
    python perfbench/meanfn.py --seed 1 --samples 250000 --setup-only
"""

from __future__ import annotations

import argparse
import json

K = 64
GRID = (0.0, 0.5, 1.0, 2.0)


def build_inputs(seed: int, samples: int):
    from steinsim.estimators import EstimatorKind
    from steinsim.mc import SimulationConfig

    config = SimulationConfig(k=K, theta=0.0, n_samples=samples, seed=seed,
                              n_workers=1)
    return EstimatorKind.JS, list(GRID), config


def run(seed: int, samples: int, output: str) -> None:
    from steinsim import mc

    kind, grid, config = build_inputs(seed, samples)
    rows = mc.tabulate_mean_function(kind, grid, config)
    with open(output, "w") as fh:
        json.dump({"k": K, "grid": grid, "rows": rows.tolist()}, fh)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--output")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        build_inputs(args.seed, args.samples)
    else:
        run(args.seed, args.samples, args.output)


if __name__ == "__main__":
    main()

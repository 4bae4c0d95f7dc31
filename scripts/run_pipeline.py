#!/usr/bin/env python3
"""One experiment end to end: data, training, range estimation, oracle check.

Presets:
  ackley    2-d Ackley on [-4, 4]^2
  dropwave  2-d Drop-Wave on [-5.12, 5.12]^2 (range close to [-1, 0])
  multimin  3-d objective with eight symmetric minima on [-3, 3]^3

Pass --reduced for the desk-scale run (hidden widths / 4, fewer epochs); the
full run trains for 1000 epochs and takes minutes on a desktop CPU.

    python scripts/run_pipeline.py --preset ackley --reduced
"""
import argparse
import sys
from pathlib import Path

from rangesa.cli import main as cli_main
from rangesa.presets import preset

# per preset: seed, noise sd, (rows, epochs) of the reduced run, oracle points per dim.
# A full run trains 1000 epochs on the preset's default number of rows and hidden
# widths; the range and oracle steps search the preset's training domain
PRESETS = {
    "ackley": dict(seed=7, noise_sd="0.1", reduced=("2000", "300"), points_per_dim="801"),
    "dropwave": dict(seed=11, noise_sd="0.02", reduced=("6000", "600"), points_per_dim="801"),
    "multimin": dict(seed=13, noise_sd="0.1", reduced=("4000", "400"), points_per_dim="61"),
}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--preset", required=True, choices=sorted(PRESETS))
    parser.add_argument("--out", help="output directory (default: out/PRESET)")
    parser.add_argument("--seed", type=int, help="data and training seed (default: per preset)")
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args()

    name = args.preset
    p = PRESETS[name]
    out = Path(args.out or f"out/{name}")
    seed = str(p["seed"] if args.seed is None else args.seed)
    m, epochs = p["reduced"] if args.reduced else (None, "1000")
    width_scale = ["--width-scale", "0.25"] if args.reduced else []
    bounds = preset(name).train_domain.bounds
    domain = "--domain=" + ",".join(f"{v:g}" for b in bounds for v in b)

    steps = [
        ["generate-data", "--fn", name, *(["--m", m] if m else []), "--noise-sd", p["noise_sd"],
         "--seed", seed, "--out", str(out)],
        ["train", "--preset", name, "--data", str(out / f"{name}_data.csv"),
         "--epochs", epochs, *width_scale, "--seed", seed,
         "--out", str(out)],
        ["estimate-range", "--weights", str(out / "weights.json"),
         domain, "--n-seeds", "5", "--out", str(out / "range")],
        ["oracle", "--weights", str(out / "weights.json"),
         domain, "--points-per-dim", p["points_per_dim"],
         "--out", str(out / "oracle")],
    ]
    for step in steps:
        rc = cli_main(step)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Solver accuracy benchmark: relative error and iteration counts by dimension.

Runs forward iteration against Anderson acceleration (beta = 1 and beta = 2)
on random nonnegative affine contractions with spectral radius 0.9, writing
bench.csv / bench_summary.csv and the run manifest. Each A is scaled by its
Perron root, found by a bounded power iteration with Collatz-Wielandt bounds,
and each method solves a dimension's seeds as one batch.
"""

import argparse

from eqcausal.cli import _config_from_obj, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/bench")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 10, 50, 100, 200])
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()

    config = _config_from_obj({
        "command": "bench",
        "model": "leontief-synthetic-10",
        "bench": {"dims": args.dims, "seeds": args.seeds, "spectral_radius": 0.9},
        "seed": args.seed,
    })
    manifest = run_experiment(config, out_dir=args.out)
    for stage in manifest.stages:
        print(f"[{stage['status']}] {stage['name']} ({stage['wall_s']:.2f}s)")
    print(f"wrote {len(manifest.outputs)} files to {args.out}")
    return 0 if manifest.success else 1


if __name__ == "__main__":
    raise SystemExit(main())

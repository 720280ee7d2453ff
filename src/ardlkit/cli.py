"""Command-line entry points.

Exit codes: 0 on success (a batch counts as success when at least one row
estimated), 1 when a batch ran but produced no usable rows, 2 for bad
configuration or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import batch
from .critval import ALPHAS, McConfig, simulate_bounds

OUTPUT_DIR_ENV = "ARDLKIT_OUTPUT_DIR"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ardlkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a batch of country/model cells from a JSON config")
    run.add_argument("--config", required=True, type=Path, help="path to the JSON run config")
    run.add_argument("--workers", type=int, default=None, help="process count (default: config)")
    run.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help=f"override the config's output directory (also via ${OUTPUT_DIR_ENV})",
    )

    cv = sub.add_parser("critval", help="simulate small-sample critical bounds, JSON to stdout")
    cv.add_argument("--k", type=int, required=True, help="number of level regressors")
    cv.add_argument("--n", type=int, required=True, help="estimation sample length")
    cv.add_argument("--reps", type=int, default=20000, help="Monte Carlo replications (default 20000)")
    cv.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    cv.add_argument("--workers", type=int, default=1, help="process count (default 1)")

    ins = sub.add_parser("inspect", help="run one country/model cell and print the full fit")
    ins.add_argument("--config", required=True, type=Path, help="path to the JSON run config")
    ins.add_argument("--country", required=True, help="country code from the manifest")
    ins.add_argument("--model", required=True, choices=batch.MODEL_IDS)

    demo = sub.add_parser("demo-data", help="write the bundled synthetic dataset and a run config")
    demo.add_argument("--dir", required=True, type=Path, help="target directory")
    demo.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    demo.add_argument("--max-lag", type=int, default=2, help="max lag in the written config (default 2)")
    return p


def _load_config(path: Path) -> batch.RunConfig | None:
    try:
        return batch.load_config(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return 2
    out_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV)
    try:
        # replace() re-runs RunConfig's validation on the overridden fields
        if out_dir is not None:
            config = dataclasses.replace(config, output_dir=Path(out_dir))
        if args.workers is not None:
            config = dataclasses.replace(config, workers=args.workers)
        rows = batch.run(config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = sum(r.succeeded for r in rows)
    for path in batch.render(rows, config.output_dir, config.formats):
        print(f"wrote {path}")
    print(f"{ok} of {len(rows)} rows estimated")
    if ok == 0:
        print("error: no row produced a usable fit; see the warnings column", file=sys.stderr)
        return 1
    return 0


def _cmd_critval(args) -> int:
    try:
        cfg = McConfig(k=args.k, n_obs=args.n, replications=args.reps, seed=args.seed)
        result = simulate_bounds(cfg, workers=args.workers)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for alpha in ALPHAS:
        lower, upper = result.bounds[alpha]
        se_lower, se_upper = result.stderrs[alpha]
        rows.append(
            {
                "k": args.k,
                "n": args.n,
                "alpha": alpha,
                "lower": lower,
                "upper": upper,
                "se_lower": se_lower,
                "se_upper": se_upper,
                "reps": args.reps,
                "seed": args.seed,
            }
        )
    print(json.dumps(rows, indent=2))
    return 0


def _print_inspect(row: batch.CountryRow) -> None:
    print(f"{row.country} {row.model}")
    if row.lag_order is not None:
        print(f"  lag order: ({','.join(map(str, row.lag_order))})")
    if row.sample is not None:
        print(f"  sample: {row.sample[0]}-{row.sample[1]}")
    if row.ols_coefficients:
        print("  regression coefficients:")
        width = max(len(n) for n in row.ols_coefficients)
        for i, (name, value) in enumerate(row.ols_coefficients.items()):
            se = math.sqrt(row.ols_covariance[i][i])
            print(f"    {name:<{width}}  {value: .6g}  (se {se:.3g})")
    if row.f_stat is not None:
        lo, hi = row.bounds
        print(f"  bounds test: F = {row.f_stat:.4f} vs ({lo}, {hi}) -> {row.decision}")
    if row.coefficients is not None:
        print(f"  long run: intercept {row.beta0:.6g} (se {row.beta0_stderr:.3g})")
        for name, entry in row.coefficients.items():
            mark = "" if entry["mark"] == "none" else f"  [{entry['mark']}]"
            print(f"    {name}  {entry['value']: .6g}  (se {entry['stderr']:.3g}){mark}")
        tp = "none" if row.turning_point is None else f"{row.turning_point:.2f}"
        where = "" if row.turning_point_in_sample is None else (
            " (in sample)" if row.turning_point_in_sample else " (out of sample)"
        )
        print(f"  shape: {row.shape}; turning point: {tp}{where}")
    if row.phi is not None:
        mark = "" if row.phi_mark == "none" else f"  [{row.phi_mark}]"
        print(f"  error correction: {row.phi:.4g} (se {row.phi_stderr:.3g}){mark}")
    for note in row.warnings:
        print(f"  warning: {note}")


def _cmd_inspect(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return 2
    try:
        manifest = batch.load_manifest(config.manifest)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.country not in manifest.countries:
        print(f"error: country {args.country!r} not in manifest", file=sys.stderr)
        return 2
    loaded = batch.load(manifest, args.country)
    row = batch.run_cell(manifest, config, args.country, args.model, loaded)
    _print_inspect(row)
    return 0 if row.succeeded else 1


def _cmd_demo_data(args) -> int:
    from .synthetic import write_demo_data

    try:
        manifest_path, config_path = write_demo_data(args.dir, seed=args.seed, max_lag=args.max_lag)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {manifest_path}")
    print(f"wrote {config_path}")
    print(f"next: ardlkit run --config {config_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "critval": _cmd_critval,
        "inspect": _cmd_inspect,
        "demo-data": _cmd_demo_data,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

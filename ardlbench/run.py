"""Benchmark of ardlkit's user commands, checked against independent recomputations.

Usage, from the root of the repository:

    python3 ardlbench/run.py --workload batch_demo --seed 0 --seconds 20 --trace 0

Each pass calls `ardlkit.cli.main` in this process with one worker. With
`--trace 0` the passes repeat until `--seconds` of pass time have been
measured (at least one pass), and the end-to-end metrics are printed. With
`--trace 1` one untraced pass is followed by one pass with every layer's
call sites wrapped (see spans.py), and the per-layer metrics are printed,
with the tracing overhead against the untraced pass. Outputs are checked
after the timed passes by checks.py, which does not import ardlkit. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Run outputs and the spans
go to .ardlbench/<workload>/ at the repository root.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import checks
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".ardlbench"

# the checker's own critval simulation uses another seed and generator
OWN_SIMULATION_SEED_OFFSET = 1_000_003


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time when
    it can be read, else since this module began to load."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    fallback = time.perf_counter() - _T_START
    return age if fallback <= age < fallback + 60.0 else fallback


def _one_pass(cli, argv) -> tuple[float, float, str]:
    """(wall seconds, CPU seconds, captured stdout) of one `ardlkit` command."""
    out = io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if rc != 0:
        raise SystemExit(f"error: ardlkit {' '.join(argv)} exited with {rc}")
    return wall, cpu, out.getvalue()


class BatchWorkload:
    """`ardlkit run` over a fixed set of cells of the seeded demo data."""

    def __init__(self, countries, max_lag: int, lag_budget: int):
        self.countries = list(countries)
        self.models = ["M1", "M2", "M3", "M4", "M5", "M6"]
        self.max_lag = max_lag
        self.lag_budget = lag_budget

    @property
    def operations(self) -> int:
        """Cells of one pass."""
        return len(self.countries) * len(self.models)

    def setup(self, run_dir: Path, seed: int, ardlkit) -> dict:
        """Write the demo data and the config, and load it; returns set-up layer metrics."""
        self.run_dir = run_dir
        t0 = time.perf_counter()
        ardlkit.synthetic.write_demo_data(run_dir / "data", seed=seed, max_lag=self.max_lag)
        write_s = time.perf_counter() - t0
        config = {
            "manifest": "data/manifest.json",
            "countries": self.countries,
            "models": self.models,
            "max_lag": self.max_lag,
            "lag_budget": self.lag_budget,
            "significance": checks.SIGNIFICANCE,
            "output_dir": "results",
            "formats": ["csv", "json", "md"],
            "workers": 1,
        }
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        ardlkit.batch.load_config(config_path)
        self.argv = ["run", "--config", str(config_path), "--workers", "1"]
        self.results: list[bytes] = []
        return {"synthetic.write_demo_data_s": (write_s, "s")}

    def run_pass(self, cli) -> tuple[float, float]:
        wall, cpu, _ = _one_pass(cli, self.argv)
        self.results.append((self.run_dir / "results" / "results.json").read_bytes())
        return wall, cpu

    def traced_metrics(self, spans, ardlkit) -> tuple[dict, list[str]]:
        """Exhaustive searches evaluate the whole grid; only grids over the
        budget take the capped path."""
        failures = []
        manifest = checks.read_manifest(self.run_dir / "data")
        for span in spans:
            if span.name != "ardl.select_lags":
                continue
            country, model = span.trace_id.split("/")
            drops = manifest.get("overrides", {}).get(country, {}).get(model, {}).get("drop", ())
            size = checks.grid_size(len(checks.regressor_names(model, drops)), self.max_lag)
            exhaustive = size <= self.lag_budget
            if span.attrs.get("exhaustive") != exhaustive or (
                exhaustive and span.attrs.get("candidates") != size
            ):
                failures.append(
                    f"{span.trace_id}: lag search {span.attrs} against a grid of {size} "
                    f"and budget {self.lag_budget}"
                )
        return {"critval.bootstrap_s": (0.0, "s")}, failures

    def check(self) -> tuple[str, list[str], int]:
        """(summary, failures, failed operations) over all passes."""
        failures = []
        if any(r != self.results[0] for r in self.results[1:]):
            failures.append("results.json differs between passes")
        doc = json.loads(self.results[0])
        report = checks.check_batch(self.run_dir / "data", doc, self.countries, self.models,
                                    self.max_lag, self.lag_budget)
        failures += report.failures
        failures += checks.check_tables(self.run_dir / "results", doc, self.models)
        summary = (
            f"check: {len(doc['rows'])} cells, {len(doc['rows']) - report.not_estimated} estimated "
            f"({report.exhaustive_cells} exhaustive, {report.capped_cells} capped, "
            f"{report.cointegrated_cells} cointegrated); F matched Case III on {report.f_cases['III']} "
            f"and Case II on {report.f_cases['II']}"
        )
        return summary, failures, report.not_estimated * len(self.results)


class CritvalWorkload:
    """`ardlkit critval` at one (k, n)."""

    def __init__(self, k: int, n: int, reps: int):
        self.k, self.n, self.reps = k, n, reps

    @property
    def operations(self) -> int:
        """Replications of one pass."""
        return self.reps

    def setup(self, run_dir: Path, seed: int, ardlkit) -> dict:
        self.seed = seed
        self.argv = ["critval", "--k", str(self.k), "--n", str(self.n), "--reps", str(self.reps),
                     "--seed", str(seed), "--workers", "1"]
        self.resampled: list[int] = []
        return {"synthetic.write_demo_data_s": (0.0, "s")}

    def run_pass(self, cli) -> tuple[float, float]:
        # keep the resample count of each simulation the CLI runs
        original = cli.simulate_bounds

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self.resampled.append(result.n_resampled)
            return result

        cli.simulate_bounds = capture
        try:
            wall, cpu, self.printed = _one_pass(cli, self.argv)
        finally:
            cli.simulate_bounds = original
        return wall, cpu

    def traced_metrics(self, spans, ardlkit) -> tuple[dict, list[str]]:
        """Bootstrap time: the traced call (200 draws) minus one with 2 draws."""
        cfg = ardlkit.critval.McConfig(k=self.k, n_obs=self.n, replications=self.reps,
                                       seed=self.seed, bootstrap_replications=2)
        t0 = time.perf_counter()
        ardlkit.critval.simulate_bounds(cfg)
        two_draws_s = time.perf_counter() - t0
        full_s = sum(s.seconds for s in spans if s.name == "critval.simulate_bounds")
        return {"critval.bootstrap_s": (full_s - two_draws_s, "s")}, []

    def check(self) -> tuple[str, list[str], int]:
        """(summary, failures, failed operations) over all passes."""
        rows = json.loads(self.printed)
        own = checks.simulate_f(self.k, self.n, self.reps, self.seed + OWN_SIMULATION_SEED_OFFSET)
        resampled = max(self.resampled)
        failures = checks.check_critval(rows, self.k, self.n, self.reps, self.seed, resampled, own)
        five = next(r for r in rows if r["alpha"] == 0.05)
        summary = (
            f"check: 5% bounds {five['lower']:.4f}/{five['upper']:.4f}; independent simulation "
            f"{checks.np.quantile(own[0], 0.95):.4f}/{checks.np.quantile(own[1], 0.95):.4f}; "
            f"resampled {resampled} of {self.reps}"
        )
        return summary, failures, 0


# batch_demo: the demo batch as a user runs it, at the max_lag 2 that
# `ardlkit demo-data` writes; CUBA brings the manifest's override rows.
# search_deep: the paper's max_lag 4 on one country; M1/M2/M3/M5 search
# exhaustively, M4 and M6 (62500 candidates) exceed the budget and take the
# capped coordinate search. critval_k2_n58: Monte Carlo only, no files.
WORKLOADS = {
    "batch_demo": lambda: BatchWorkload(["ARG", "BOL", "CUBA", "GUA", "MEX", "PERU", "URU"], 2, 1_000_000),
    "search_deep": lambda: BatchWorkload(["MEX"], 4, 20_000),
    "critval_k2_n58": lambda: CritvalWorkload(k=2, n=58, reps=20_000),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="seed of the demo data and of critval")
    p.add_argument("--seconds", type=float, default=20.0, help="pass time to measure with --trace 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "ardlkit" / "__init__.py").is_file():
        print(f"error: no ardlkit sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ardlkit
    from ardlkit import cli

    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    work = WORKLOADS[args.workload]()
    layer = work.setup(run_dir, args.seed, ardlkit)
    setup_s = _process_age()

    trace_failures = []
    if args.trace == 0:
        walls = []
        while not walls or sum(walls) < args.seconds:
            walls.append(work.run_pass(cli)[0])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = len(walls)
        print("passes (s): " + ", ".join(f"{w:.3f}" for w in walls))
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        untraced_s, _ = work.run_pass(cli)
        tracer = Tracer()
        with tracer.installed():
            traced_s, cpu_s = work.run_pass(cli)
        passes = 2
        tracer.write(run_dir / "trace.jsonl")
        for site in tracer.missing:
            print(f"note: call site {site} not found; its spans are missing")
        metrics = dict(layer)
        metrics.update(layer_metrics(tracer.spans, traced_s))
        extra, trace_failures = work.traced_metrics(tracer.spans, ardlkit)
        metrics.update(extra)
        metrics.update({
            "cli.cpu_s": (cpu_s, "s"),
            "trace.untraced_wall_s": (untraced_s, "s"),
            "trace.traced_wall_s": (traced_s, "s"),
            "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s, "%"),
        })

    summary, failures, failed = work.check()
    failures = trace_failures + failures
    print(summary)
    for failure in failures:
        print(f"FAIL: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": work.operations * passes,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

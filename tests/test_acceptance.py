"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with capture
suspended so the verdicts are visible in any pytest run, and fails with
the same message.
"""

import dataclasses
import itertools
import json
import time
import warnings

import golden
import jsonschema
import numpy as np
import pytest
from oracles import conditioned_problem, normal_equations_mp

from ardlkit import (
    CriticalBounds,
    Decision,
    LagOrder,
    LongRunResult,
    McConfig,
    ModelSpec,
    RunConfig,
    Shape,
    Significance,
    decide,
    estimate_uecm,
    fit_ardl,
    long_run,
    ols,
    render,
    run,
    select_lags,
    sic,
    simulate_bounds,
    turning_point,
)
from ardlkit.ardl import _design
from ardlkit.batch import RESULT_SCHEMA
from ardlkit.timeseries import AlignedFrame

QUAD = ModelSpec("e", "y")


def _verdict(capfd, n: int, name: str, ok: bool, detail: str):
    line = f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def _frame(cols: np.ndarray) -> AlignedFrame:
    return AlignedFrame(1500, 1500 + len(cols) - 1, ("e", "y", "y2"), cols)


def test_criterion_1_turning_points(capfd):
    # published long-run coefficient pairs and the turning points printed
    # beside them; 0.5% headroom absorbs the rounding of the printed values
    cases = (
        ("COS", 19.277, -1.0556, 9235.41),
        ("ECU", 60.048, -3.524, 5013.55),
        ("MEX", 41.005, -2.2446, 9265.93),
        ("ELSAL/controls", 80.845, -5.082, 2847.2),
        ("MEX/controls", 27.960, -1.508, 10639.2),
    )
    t0 = time.perf_counter()
    errs = {name: abs(turning_point(b1, b2) - tp) / tp for name, b1, b2, tp in cases}
    elapsed = time.perf_counter() - t0
    worst = max(errs, key=errs.get)
    ok = errs[worst] <= 5e-3 and elapsed < 1.0
    _verdict(
        capfd, 1, "turning points", ok,
        f"5 published values within 0.5% (worst {worst} at {errs[worst]:.2e}), {elapsed * 1e3:.1f} ms",
    )


_QUADRATIC_TABLE = (
    ("ARG", 9.802, "CI"),
    ("BOL", 1.8802, "NOT CI"),
    ("BRA", 1.5295, "NOT CI"),
    ("CHI", 1.2032, "NOT CI"),
    ("COL", 1.5022, "NOT CI"),
    ("COS", 7.0367, "CI"),
    ("RDOM", 2.9504, "NOT CI"),
    ("CUBA", 1.3233, "NOT CI"),
    ("ECU", 5.7418, "CI"),
    ("ELSAL", 3.336, "NOT CI"),
    ("GUA", 1.0825, "NOT CI"),
    ("HAI", 3.8588, "Inconclusive"),
    ("HON", 0.7988, "NOT CI"),
    ("JAM", 1.6462, "NOT CI"),
    ("MEX", 8.3755, "CI"),
    ("NIC", 2.7705, "NOT CI"),
    ("PAN", 2.0131, "NOT CI"),
    ("PAR", 2.6585, "NOT CI"),
    ("PERU", 8.8363, "CI"),
    ("URU", 3.0064, "NOT CI"),
    ("VEN", 3.0397, "NOT CI"),
)


def test_criterion_2_bounds_decisions(capfd):
    label = {
        Decision.COINTEGRATED: "CI",
        Decision.NOT_COINTEGRATED: "NOT CI",
        Decision.INCONCLUSIVE: "Inconclusive",
    }
    checks = [(c, f, expect, CriticalBounds(3.368, 4.205)) for c, f, expect in _QUADRATIC_TABLE]
    # energy-consumption table rows judged against the k=6 bounds
    checks += [
        ("CHI/energy", 2.694, "Inconclusive", CriticalBounds(2.591, 3.766)),
        ("COL/energy", 2.149, "NOT CI", CriticalBounds(2.591, 3.766)),
    ]
    bad = [c for c, f, expect, b in checks if label[decide(f, b)] != expect]
    _verdict(
        capfd, 2, "bounds decisions", not bad,
        f"{len(checks) - len(bad)}/{len(checks)} published conclusions reproduced"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_3_ols_oracle(capfd):
    # the 10 s bound covers the library's ols calls only; the mpmath oracle
    # is the reference, and its time is reported but not bounded
    rng = np.random.default_rng(2024)
    ols_time = oracle_time = 0.0
    worst_beta = worst_cov = 0.0
    for _ in range(1000):
        n = int(rng.integers(14, 301))
        p = min(int(rng.integers(2, 13)), n - 2)
        cond = 10.0 ** rng.uniform(0, 8)
        X, y = conditioned_problem(n, p, cond, 10.0 ** rng.uniform(-3, 0), rng)
        t0 = time.perf_counter()
        fit = ols(X, y)
        t1 = time.perf_counter()
        beta_ref, inv_gram_ref = normal_equations_mp(X, y)
        t2 = time.perf_counter()
        ols_time += t1 - t0
        oracle_time += t2 - t1
        cov_ref = fit.sigma2 * inv_gram_ref
        worst_beta = max(
            worst_beta,
            np.linalg.norm(fit.coefficients - beta_ref) / np.linalg.norm(beta_ref),
        )
        worst_cov = max(
            worst_cov,
            np.linalg.norm(fit.covariance - cov_ref) / np.linalg.norm(cov_ref),
        )
    ok = worst_beta <= 1e-8 and worst_cov <= 1e-8 and ols_time < 10.0
    _verdict(
        capfd, 3, "OLS oracle", ok,
        f"1000 problems (n<=300, p<=12, cond<=1e8): worst rel err "
        f"beta {worst_beta:.2e}, cov {worst_cov:.2e}; "
        f"ols {ols_time:.1f} s (bound 10 s); oracle {oracle_time:.1f} s, not bounded",
    )


def _planted_ardl_frame(n, seed):
    """Data whose generating regression is exactly lag order (2, 1, 1)."""
    rng = np.random.default_rng(seed)
    ar, b, g, phi, lr = (0.35, 0.25), (2.0, -1.0), (0.12, -0.07), -0.35, (0.8, -0.05)
    y = 5.0 + np.cumsum(rng.normal(0, 0.25, n))
    y2 = y * y
    e = lr[0] * y[:3].copy() + lr[1] * y2[:3]
    e = np.concatenate([e, np.zeros(n - 3)])
    for t in range(3, n):
        ec = e[t - 1] - (lr[0] * y[t - 1] + lr[1] * y2[t - 1])
        e[t] = (
            e[t - 1]
            + ar[0] * (e[t - 1] - e[t - 2])
            + ar[1] * (e[t - 2] - e[t - 3])
            + b[0] * (y[t] - y[t - 1])
            + b[1] * (y[t - 1] - y[t - 2])
            + g[0] * (y2[t] - y2[t - 1])
            + g[1] * (y2[t - 1] - y2[t - 2])
            + phi * ec
            + rng.normal(0, 0.05)
        )
    return _frame(np.column_stack([e, y, y2]))


def test_criterion_4_lag_search(capfd):
    t0 = time.perf_counter()

    # independent brute force over the full grid, same tie-break key
    matches = 0
    grids = 10
    for seed in range(grids):
        frame = _planted_ardl_frame(120, 100 + seed)
        best = None
        for m, q1, q2 in itertools.product(range(1, 4), range(4), range(4)):
            order = LagOrder(m, (q1, q2))
            design = _design(frame, QUAD, order, 4)
            value = sic(ols(design.X, design.y))
            key = (value, order.total, order.as_tuple())
            if best is None or key < best:
                best = key
        res = select_lags(frame, QUAD, max_lag=3)
        matches += res.order.as_tuple() == best[2]

    hits = 0
    for seed in range(100):
        res = select_lags(_planted_ardl_frame(500, seed), QUAD, max_lag=4)
        hits += res.order.as_tuple() == (2, 1, 1)

    elapsed = time.perf_counter() - t0
    ok = matches == grids and hits >= 80 and elapsed < 60.0
    _verdict(
        capfd, 4, "lag search", ok,
        f"brute-force match on {matches}/{grids} grids; "
        f"true order (2,1,1) recovered in {hits}/100 seeds; {elapsed:.1f} s",
    )


def test_criterion_5_uecm_sign(capfd):
    t0 = time.perf_counter()

    planted = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 500
        y = 7.0 + np.cumsum(rng.normal(scale=0.05, size=n))
        star = 1.0 + 0.8 * y - 0.05 * y * y
        e = np.empty(n)
        e[0] = star[0]
        for t in range(1, n):
            e[t] = e[t - 1] - 0.5 * (e[t - 1] - star[t - 1]) + rng.normal(scale=0.02)
        frame = _frame(np.column_stack([e, y, y * y]))
        fit = fit_ardl(frame, QUAD, LagOrder(1, (0, 0)))
        u = estimate_uecm(frame, QUAD, fit.lags, long_run(fit))
        planted += (
            abs(u.phi + 0.5) <= 0.1 and u.phi < 0 and u.phi_mark.significant_at(0.05)
        )

    # no-cointegration arm: unrelated drifting walks, deviation measured
    # against a candidate relation fixed a priori
    candidate = LongRunResult(
        spec=QUAD, beta0=0.0, beta0_stderr=1.0,
        betas={"y": 0.5, "y2": -0.03}, stderrs={"y": 1.0, "y2": 1.0},
        marks={"y": Significance.NONE, "y2": Significance.NONE},
        turning_point=None, shape=Shape.INDETERMINATE,
    )
    quiet = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            n = 400
            y = 7.0 + 0.012 * np.arange(n) + np.cumsum(rng.normal(scale=0.05, size=n))
            e = 1.0 + 0.02 * np.arange(n) + np.cumsum(rng.normal(scale=0.05, size=n))
            frame = _frame(np.column_stack([e, y, y * y]))
            u = estimate_uecm(frame, QUAD, LagOrder(1, (0, 0)), candidate)
            quiet += not u.phi_mark.significant_at(0.05)

    elapsed = time.perf_counter() - t0
    ok = planted >= 90 and quiet >= 85 and elapsed < 60.0
    _verdict(
        capfd, 5, "UECM sign", ok,
        f"planted phi=-0.5 recovered in {planted}/100 seeds (need 90); "
        f"noise phi insignificant in {quiet}/100 (need 85); {elapsed:.1f} s",
    )


def test_criterion_6_mc_critical_values(capfd):
    t0 = time.perf_counter()
    result = simulate_bounds(McConfig(k=2, n_obs=58, replications=20000, seed=11))
    elapsed = time.perf_counter() - t0
    lower, upper = result.bounds[0.05]
    se_lower, se_upper = result.stderrs[0.05]
    d_lower = lower - 3.368
    d_upper = upper - 4.205
    ok = abs(d_lower) <= 0.25 and abs(d_upper) <= 0.25 and elapsed < 120.0
    _verdict(
        capfd, 6, "MC critical values", ok,
        f"5% bounds ({lower:.3f}, {upper:.3f}) vs published (3.368, 4.205); "
        f"offsets {d_lower:+.3f} (boot se {se_lower:.3f}) and "
        f"{d_upper:+.3f} (boot se {se_upper:.3f}); {elapsed:.1f} s single-threaded",
    )


def test_criterion_7_presets_on_bundled_data(capfd, demo_dir, tmp_path):
    config = RunConfig(
        manifest=demo_dir / "manifest.json",
        max_lag=2,
        workers=4,
        output_dir=tmp_path,
    )
    rows = run(config)
    paths = render(rows, tmp_path)
    doc = json.loads((tmp_path / "results.json").read_text())
    jsonschema.validate(doc, RESULT_SCHEMA)
    estimated = sum(r.succeeded for r in rows)
    models = {r.model for r in rows}
    # the rows must also be the committed snapshot's (tests/golden.py)
    departures = golden.mismatches(rows, golden.load())
    ok = (
        len(rows) == 21 * 6
        and len(models) == 6
        and estimated >= 1
        and len(paths) == 13
        and not departures
    )
    _verdict(
        capfd, 7, "presets on bundled data", ok,
        f"{estimated}/{len(rows)} rows estimated across {len(models)} presets; "
        f"schema-valid JSON and {len(paths)} output files; "
        f"{len(departures)} departures from the golden snapshot"
        + "".join(f"\n  {d}" for d in departures[:10]),
    )


def test_criterion_8_determinism(capfd, demo_dir, tmp_path):
    config = RunConfig(
        manifest=demo_dir / "manifest.json",
        countries=("ARG", "CUBA", "MEX", "PERU"),
        models=("M1", "M6"),
        max_lag=2,
        output_dir=tmp_path / "a",
    )
    render(run(config), tmp_path / "a")
    render(run(dataclasses.replace(config, workers=3)), tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    identical = [
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in files
    ]
    ok = bool(files) and all(identical)
    _verdict(
        capfd, 8, "determinism", ok,
        f"{len(files)} output files byte-identical across rerun and worker counts",
    )

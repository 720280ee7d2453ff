"""Bundled synthetic dataset: 21 countries with plausible annual panels.

The generator is deterministic in the seed (per-country child streams, so
one country's draws never shift another's). Emissions follow a quadratic
income relation with AR(1) noise; controls are shares, densities, and
per-capita quantities with the rough shapes and spans of the real sources,
including the late starts of the value-added and renewables series and the
two series Cuba lacks.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .batch import COUNTRY_CODES
from .timeseries import Dataset, TimeSeries, write_csv

__all__ = ["write_demo_data"]

FIRST_YEAR = 1960
LAST_YEAR = 2017

# demo files carry a couple of non-canonical headers so the manifest's
# alias mapping is exercised on every run
_ALIASES = {"co2": "co2_pc", "gdp": "gdp_pc"}


def _ar1(rng, n, rho, scale):
    out = np.empty(n)
    out[0] = rng.normal(0.0, scale / np.sqrt(1.0 - rho * rho))
    for t in range(1, n):
        out[t] = rho * out[t - 1] + rng.normal(0.0, scale)
    return out


def _walk(rng, n, scale):
    return np.cumsum(rng.normal(0.0, scale, n))


def _share(rng, n, center, step, lo=1.0, hi=95.0):
    return np.clip(center + _walk(rng, n, step), lo, hi)


def _country_dataset(code: str, rng) -> Dataset:
    n = LAST_YEAR - FIRST_YEAR + 1
    t = np.arange(n)

    g = rng.uniform(7.5, 9.0) + rng.uniform(0.008, 0.02) * t + _walk(rng, n, 0.025)

    x_star = rng.uniform(8.6, 9.8)
    b2 = -rng.uniform(0.6, 1.6)
    b1 = -2.0 * b2 * x_star
    g_mid = g[0] + 0.5 * (g[-1] - g[0])
    a = rng.uniform(0.0, 1.2) - b1 * g_mid - b2 * g_mid * g_mid
    ln_co2 = a + b1 * g + b2 * g * g + _ar1(rng, n, rng.uniform(0.3, 0.6), rng.uniform(0.04, 0.08))

    def level(base_lo, base_hi, drift_lo, drift_hi, sigma=0.03):
        return np.exp(
            rng.uniform(base_lo, base_hi)
            + rng.uniform(drift_lo, drift_hi) * t
            + _walk(rng, n, sigma)
        )

    series = {
        "co2_pc": TimeSeries("co2_pc", FIRST_YEAR, np.exp(ln_co2)),
        "gdp_pc": TimeSeries("gdp_pc", FIRST_YEAR, np.exp(g)),
        # sectoral value added, observed from 1970
        "x1": TimeSeries("x1", 1970, level(8.0, 10.0, 0.01, 0.03)[10:]),
        "x2": TimeSeries("x2", 1970, level(8.0, 10.0, 0.01, 0.03)[10:]),
        "x3": TimeSeries("x3", 1970, level(8.0, 10.0, 0.01, 0.03)[10:]),
        # primary exports share, observed from 1963
        "x4": TimeSeries("x4", 1963, _share(rng, n, rng.uniform(20, 70), 1.5)[3:]),
        "x5": TimeSeries(
            "x5",
            FIRST_YEAR,
            rng.uniform(10, 80) * np.exp(rng.uniform(0.01, 0.025) * t + _walk(rng, n, 0.01)),
        ),
        # FDI inflows (% of GDP); may be negative, never logged
        "x6": TimeSeries("x6", 1970, (rng.uniform(1, 4) + _ar1(rng, n, 0.5, 1.0))[10:]),
        "x7": TimeSeries("x7", FIRST_YEAR, _share(rng, n, rng.uniform(15, 45), 1.2)),
        "x8": TimeSeries("x8", FIRST_YEAR, _share(rng, n, rng.uniform(15, 45), 1.2)),
        "x9": TimeSeries("x9", FIRST_YEAR, _share(rng, n, rng.uniform(20, 60), 0.4)),
        "x10": TimeSeries("x10", 1971, level(4.5, 7.0, 0.005, 0.03)[11:]),
        "x11": TimeSeries(
            "x11",
            1970,
            np.clip(
                rng.uniform(40, 75) - rng.uniform(0.2, 0.6) * t + _walk(rng, n, 0.5), 5, 95
            )[10:],
        ),
        "x12": TimeSeries("x12", 1971, level(4.0, 6.5, 0.005, 0.02)[11:]),
        "x13_electricity": TimeSeries("x13_electricity", 1971, level(4.0, 6.5, 0.005, 0.02)[11:]),
        "x14_gasoline": TimeSeries("x14_gasoline", 1971, level(4.0, 6.5, 0.005, 0.02)[11:]),
        "x15_fuel": TimeSeries("x15_fuel", 1971, level(4.0, 6.5, 0.005, 0.02)[11:]),
    }
    if code == "CUBA":
        del series["x4"]
        del series["x6"]
    return Dataset(country=code, series=series)


def write_demo_data(directory, seed: int = 0, max_lag: int = 2) -> tuple[Path, Path]:
    """Write per-country CSVs, a manifest, and a ready-to-run config.

    Returns (manifest_path, config_path). `max_lag` lands in the config; at
    the default a full 21x6 batch takes about 6 s on one worker of a 2-vCPU host.
    A negative `max_lag` raises ValueError before any file is written.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    alias_back = {canon: alias for alias, canon in _ALIASES.items()}
    for index, code in enumerate(COUNTRY_CODES):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))
        data = _country_dataset(code, rng)
        renamed = {}
        for name, ts in data.series.items():
            out_name = alias_back.get(name, name)
            renamed[out_name] = dataclasses.replace(ts, name=out_name)
        write_csv(Dataset(country=code, series=renamed), directory / f"{code}.csv", layout="wide")

    manifest = {
        "countries": {code: {"file": f"{code}.csv", "layout": "wide"} for code in COUNTRY_CODES},
        "aliases": dict(_ALIASES),
        "overrides": {"CUBA": {"M3": {"drop": ["x4"]}, "M4": {"drop": ["x6"]}}},
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    config = {
        "manifest": "manifest.json",
        "max_lag": max_lag,
        "output_dir": "results",
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return manifest_path, config_path

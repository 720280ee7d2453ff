"""Independent checks of ardlkit's outputs.

Nothing here imports ardlkit. The batch checker reads the demo CSVs and the
manifest with its own reader, rebuilds every ARDL design from the model
definitions restated below, and solves it in float64 with numpy (LAPACK
`lstsq` for single fits, stacked Householder QR for the lag grids, where one
`lstsq` call per candidate would cost about 0.2 ms). The critval checker
compares the printed bounds with the published pair and with this module's
own vectorised simulation of the same statistic.

Every check returns a list of failure messages; an empty list means the
outputs passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# ---- the model definitions, restated from the paper's tables ------------

DEPENDENT = "co2_pc"
INCOME = "gdp_pc"
PRESET_CONTROLS = {
    "M1": (),
    "M2": ("x1", "x2", "x3"),
    "M3": ("x4", "x5"),
    "M4": ("x6", "x7", "x8", "x9"),
    "M5": ("x10", "x5", "x11"),
    "M6": ("x12", "x13_electricity", "x14_gasoline", "x15_fuel"),
}
LOGGED = {DEPENDENT, INCOME, "x1", "x2", "x3"}
# published 5% bounds of each model, pinned to its full control set
BOUNDS_5PCT = {
    "M1": (3.368, 4.205),
    "M2": (2.694, 3.829),
    "M3": (2.763, 3.813),
    "M4": (2.591, 3.766),
    "M5": (2.67, 3.78),
    "M6": (2.591, 3.766),
}
SIGNIFICANCE = 0.05

# Relative tolerances. The program factors in extended precision and these
# checks in float64; on the demo data the two agree to about 1e-9.
SIC_RTOL = 1e-8      # near-ties in the lag search
F_RTOL = 1e-7        # F statistic against the Case III or Case II recomputation
COEF_RTOL = 1e-6     # long-run betas, turning point, phi
RANK_RTOL = 1e-10    # |R_jj| below this share of the largest marks a singular design

_GRID_CHUNK = 2000   # candidates per stacked QR


def regressor_names(model: str, drops=()) -> tuple[str, ...]:
    """Level regressors of a model after per-country drops, as the program names them."""
    controls = [c for c in PRESET_CONTROLS[model] if c not in drops]
    return (INCOME + "_ln", INCOME + "_ln2") + tuple(c + "_ln" if c in LOGGED else c for c in controls)


def grid_size(k: int, max_lag: int) -> int:
    """Candidates of the exhaustive lag grid: max(1, L) * (L + 1)^k."""
    return max(1, max_lag) * (max_lag + 1) ** k


# ---- data ----------------------------------------------------------------


def read_manifest(data_dir: Path) -> dict:
    return json.loads((Path(data_dir) / "manifest.json").read_text(encoding="utf-8"))


def read_country(data_dir: Path, manifest: dict, code: str) -> tuple[int, dict[str, np.ndarray]]:
    """(first year, series by canonical name) from a wide CSV, NaN for blanks."""
    entry = manifest["countries"][code]
    if entry.get("layout", "wide") != "wide":
        raise ValueError(f"{code}: the checker reads wide files only")
    aliases = manifest.get("aliases", {})
    with open(Path(data_dir) / entry["file"], newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    years = [int(r[0]) for r in rows[1:]]
    if years != list(range(years[0], years[0] + len(years))):
        raise ValueError(f"{code}: years are not consecutive")
    table = {}
    for j, name in enumerate(rows[0][1:], start=1):
        values = [r[j].strip() if j < len(r) else "" for r in rows[1:]]
        table[aliases.get(name, name)] = np.array(
            [float(v) if v not in ("", "NA") else np.nan for v in values]
        )
    return years[0], table


def common_window(table: dict[str, np.ndarray], names) -> tuple[int, int]:
    """Row slice [a, b) of the longest run where every named series is
    observed; the earliest run wins ties."""
    ok = np.all([~np.isnan(table[n]) for n in names], axis=0)
    best_len, best_start, start = 0, 0, None
    for i, v in enumerate(list(ok) + [False]):
        if v and start is None:
            start = i
        elif not v and start is not None:
            if i - start > best_len:
                best_len, best_start = i - start, start
            start = None
    return best_start, best_start + best_len


@dataclass
class Cell:
    """One country/model's level columns over its common window, dependent first."""

    first_year: int
    names: tuple[str, ...]
    levels: np.ndarray

    @classmethod
    def build(cls, first_year: int, table: dict, model: str, drops=()) -> "Cell":
        raw = [DEPENDENT, INCOME] + [c for c in PRESET_CONTROLS[model] if c not in drops]
        a, b = common_window(table, raw)
        cols = [np.log(table[DEPENDENT][a:b]), np.log(table[INCOME][a:b]), np.log(table[INCOME][a:b]) ** 2]
        for c in raw[2:]:
            cols.append(np.log(table[c][a:b]) if c in LOGGED else table[c][a:b])
        names = (DEPENDENT + "_ln",) + regressor_names(model, drops)
        return cls(first_year + a, names, np.column_stack(cols))

    @property
    def k(self) -> int:
        return self.levels.shape[1] - 1

    @property
    def last_year(self) -> int:
        return self.first_year + self.levels.shape[0] - 1

    def pool(self, t0: int, max_m: int, max_q: int) -> tuple[np.ndarray, np.ndarray, dict]:
        """Every column a lag order up to (max_m, max_q) can use, on the rows
        from t0, plus y and the column index of each (block, lag)."""
        n = self.levels.shape[0]
        d = np.diff(self.levels, axis=0)
        cols, where = [np.ones(n - t0)], {"const": 0}
        for j in range(1, max_m + 1):
            where[(0, j)] = len(cols)
            cols.append(d[t0 - 1 - j : n - 1 - j, 0])
        for i in range(1, self.k + 1):
            for j in range(max_q + 1):
                where[(i, j)] = len(cols)
                cols.append(d[t0 - 1 - j : n - 1 - j, i])
        for i in range(self.k + 1):
            where[("level", i)] = len(cols)
            cols.append(self.levels[t0 - 1 : n - 1, i])
        return np.column_stack(cols), d[t0 - 1 :, 0].copy(), where

    def columns(self, where: dict, order) -> list[int]:
        idx = [where["const"]] + [where[(0, j)] for j in range(1, order[0] + 1)]
        for i, q in enumerate(order[1:], start=1):
            idx += [where[(i, j)] for j in range(q + 1)]
        return idx + [where[("level", i)] for i in range(self.k + 1)]

    def design(self, order) -> tuple[np.ndarray, np.ndarray, int]:
        """X, y on the order's own maximal sample, and the count of short-run columns."""
        m = max(order)
        pool, y, where = self.pool(m + 1, order[0], m)
        idx = self.columns(where, order)
        return pool[:, idx], y, len(idx) - (self.k + 1)

    def sic(self, orders, common_lag: int) -> np.ndarray:
        """SIC of each lag order on the common sample of `common_lag`; NaN
        where the design is singular or has no residual degrees of freedom."""
        max_m = max(1, common_lag)
        pool, y, where = self.pool(max_m + 1, max_m, common_lag)
        rows = y.size
        out = np.full(len(orders), np.nan)
        by_width: dict[int, list[int]] = {}
        idx = [self.columns(where, o) for o in orders]
        for c, ix in enumerate(idx):
            by_width.setdefault(len(ix), []).append(c)
        for p, members in by_width.items():
            if rows <= p:
                continue
            for s in range(0, len(members), _GRID_CHUNK):
                part = members[s : s + _GRID_CHUNK]
                A = np.ascontiguousarray(pool[:, np.array([idx[c] for c in part])].transpose(1, 0, 2))
                Q, R = np.linalg.qr(A)
                z = np.einsum("gnp,n->gp", Q, y)
                r = y - np.einsum("gnp,gp->gn", Q, z)
                rss = np.einsum("gn,gn->g", r, r)
                diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
                singular = diag.min(axis=1) < RANK_RTOL * diag.max(axis=1)
                with np.errstate(divide="ignore"):
                    sic = rows * np.log(rss / rows) + p * math.log(rows)
                sic[singular] = np.nan
                out[part] = sic
        return out


def lstsq(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    return beta, float(r @ r)


def candidate_grid(k: int, max_lag: int) -> list[tuple[int, ...]]:
    return [
        (m,) + q
        for m in range(1, max(1, max_lag) + 1)
        for q in itertools.product(range(max_lag + 1), repeat=k)
    ]


def neighbours(order, max_lag: int) -> list[tuple[int, ...]]:
    """Every order that differs from `order` in exactly one lag."""
    out = []
    for pos in range(len(order)):
        values = range(1, max(1, max_lag) + 1) if pos == 0 else range(max_lag + 1)
        for v in values:
            if v != order[pos]:
                out.append(tuple(order[:pos]) + (v,) + tuple(order[pos + 1 :]))
    return out


# ---- the batch checker ---------------------------------------------------


@dataclass
class BatchCheck:
    failures: list[str] = field(default_factory=list)
    not_estimated: int = 0
    f_cases: dict[str, int] = field(default_factory=lambda: {"III": 0, "II": 0})
    exhaustive_cells: int = 0
    capped_cells: int = 0
    cointegrated_cells: int = 0


def _close(a, b, rtol) -> bool:
    return a is not None and b is not None and math.isfinite(a) and abs(a - b) <= rtol * max(abs(b), 1e-12)


def _check_lag_order(cell: Cell, row: dict, max_lag: int, budget: int, where: str, out: BatchCheck):
    order = tuple(row["lag_order"])
    if len(order) != cell.k + 1 or not 1 <= order[0] <= max(1, max_lag) or not all(
        0 <= q <= max_lag for q in order[1:]
    ):
        out.failures.append(f"{where}: lag order {order} is outside the grid for k={cell.k}, max_lag {max_lag}")
        return False
    capped = grid_size(cell.k, max_lag) > budget
    warned = any("over the budget" in w for w in row["warnings"])
    if capped != warned:
        out.failures.append(
            f"{where}: grid of {grid_size(cell.k, max_lag)} candidates against budget {budget} "
            f"should {'' if capped else 'not '}take the capped search"
        )
    if capped:
        out.capped_cells += 1
        trial = [order] + neighbours(order, max_lag)
        sic = cell.sic(trial, max_lag)
        better = [(t, s) for t, s in zip(trial[1:], sic[1:]) if s < sic[0] - SIC_RTOL * abs(sic[0])]
        if not math.isfinite(sic[0]) or better:
            out.failures.append(
                f"{where}: capped lag order {order} (SIC {sic[0]:.6f}) is beaten by the single-lag "
                f"change {better[0][0] if better else None}"
                + (f" (SIC {better[0][1]:.6f})" if better else "")
            )
    else:
        out.exhaustive_cells += 1
        grid = candidate_grid(cell.k, max_lag)
        sic = cell.sic(grid, max_lag)
        best = int(np.nanargmin(sic))
        mine = sic[grid.index(order)]
        if not mine <= sic[best] + SIC_RTOL * abs(sic[best]):
            out.failures.append(
                f"{where}: lag order {order} has SIC {mine:.6f}, above the grid minimum "
                f"{sic[best]:.6f} at {grid[best]}"
            )
    return True


def _check_cell(cell: Cell, row: dict, model: str, max_lag: int, budget: int, out: BatchCheck):
    where = f"{row['country']}/{model}"
    if not _check_lag_order(cell, row, max_lag, budget, where, out):
        return
    order = tuple(row["lag_order"])
    X, y, n_short = cell.design(order)
    rows, p = X.shape
    first = cell.last_year - rows + 1
    if tuple(row["sample"]) != (first, cell.last_year):
        out.failures.append(f"{where}: sample {tuple(row['sample'])}, expected {(first, cell.last_year)}")

    beta, rss_f = lstsq(X, y)
    _, rss_iii = lstsq(X[:, :n_short], y)       # levels restricted, intercept free
    _, rss_ii = lstsq(X[:, 1:n_short], y)       # intercept restricted too
    q = cell.k + 1
    f_iii = ((rss_iii - rss_f) / q) / (rss_f / (rows - p))
    f_ii = ((rss_ii - rss_f) / (q + 1)) / (rss_f / (rows - p))
    f = row["f_stat"]
    if _close(f, f_iii, F_RTOL):
        out.f_cases["III"] += 1
    elif _close(f, f_ii, F_RTOL):
        out.f_cases["II"] += 1
    else:
        out.failures.append(f"{where}: F {f!r} matches neither Case III {f_iii!r} nor Case II {f_ii!r}")

    lower, upper = row["bounds"]
    if (lower, upper) != BOUNDS_5PCT[model]:
        out.failures.append(f"{where}: bounds {(lower, upper)}, published {BOUNDS_5PCT[model]}")
    expected = "Cointegrated" if f > upper else "NotCointegrated" if f < lower else "Inconclusive"
    if row["decision"] != expected:
        out.failures.append(f"{where}: decision {row['decision']} for F {f:.6g} and bounds {(lower, upper)}")

    if expected != "Cointegrated":
        if row["phi"] is not None or row["coefficients"] is not None:
            out.failures.append(f"{where}: a {expected} row carries long-run results")
        return
    out.cointegrated_cells += 1
    delta = beta[n_short:]
    betas = -delta[1:] / delta[0]
    beta0 = -beta[0] / delta[0]
    coefs = row["coefficients"] or {}
    if not _close(row["beta0"], beta0, COEF_RTOL):
        out.failures.append(f"{where}: beta0 {row['beta0']!r}, recomputed {beta0!r}")
    for name, b in zip(cell.names[1:], betas):
        got = coefs.get(name, {}).get("value")
        if not _close(got, b, COEF_RTOL):
            out.failures.append(f"{where}: long-run beta {name} {got!r}, recomputed {b!r}")
    with np.errstate(over="ignore"):
        tp = float(np.exp(-betas[0] / (2.0 * betas[1])))
    if math.isfinite(tp) and not _close(row["turning_point"], tp, COEF_RTOL):
        out.failures.append(f"{where}: turning point {row['turning_point']!r}, recomputed {tp!r}")

    ec = cell.levels[:, 0] - beta0 - cell.levels[:, 1:] @ betas
    t0 = max(order) + 1
    n = cell.levels.shape[0]
    X_ec = np.column_stack([X[:, :n_short], ec[t0 - 1 : n - 1]])
    phi = lstsq(X_ec, y)[0][-1]
    if not _close(row["phi"], phi, COEF_RTOL):
        out.failures.append(f"{where}: phi {row['phi']!r}, recomputed {phi!r}")


def check_batch(data_dir, doc: dict, countries, models, max_lag: int, lag_budget: int) -> BatchCheck:
    """Check a results.json document against recomputations from the data."""
    out = BatchCheck()
    manifest = read_manifest(data_dir)
    expected = [(c, m) for c in countries for m in models]
    got = [(r["country"], r["model"]) for r in doc["rows"]]
    if got != expected:
        out.failures.append(f"rows {got} do not list the cells {expected} in order")
        return out
    if doc["significance"] != SIGNIFICANCE:
        out.failures.append(f"significance {doc['significance']}, expected {SIGNIFICANCE}")
    rows = iter(doc["rows"])
    for country in countries:
        first_year, table = read_country(data_dir, manifest, country)
        for model in models:
            row = next(rows)
            if row["f_stat"] is None or row["lag_order"] is None:
                out.not_estimated += 1
                continue
            drops = manifest.get("overrides", {}).get(country, {}).get(model, {}).get("drop", ())
            cell = Cell.build(first_year, table, model, drops)
            _check_cell(cell, row, model, max_lag, lag_budget, out)
    return out


def check_tables(out_dir, doc: dict, models) -> list[str]:
    """The per-model csv and md tables list the rows of results.json."""
    failures = []
    for model in models:
        rows = [r for r in doc["rows"] if r["model"] == model]
        with open(Path(out_dir) / f"results_{model}.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        for got, want in zip(table, rows):
            lags = "" if want["lag_order"] is None else "(" + ",".join(map(str, want["lag_order"])) + ")"
            if got["country"] != want["country"] or got["lags"] != lags or got["f_stat"] != (
                "" if want["f_stat"] is None else repr(want["f_stat"])
            ):
                failures.append(f"results_{model}.csv: row {got['country']} disagrees with results.json")
        if len(table) != len(rows):
            failures.append(f"results_{model}.csv has {len(table)} rows, results.json {len(rows)}")
        md = (Path(out_dir) / f"results_{model}.md").read_text(encoding="utf-8").splitlines()
        body = [line for line in md if line.startswith("| ") and not line.startswith("| Country")]
        if [line.split(" | ")[0][2:] for line in body] != [r["country"] for r in rows]:
            failures.append(f"results_{model}.md does not list the rows of results.json")
    return failures


# ---- the critval checker -------------------------------------------------

PUBLISHED_K2_5PCT = (3.368, 4.205)
PUBLISHED_TOL = 0.25
MC_Z = 4.5   # bounds must agree within this many combined standard errors
ALPHAS = (0.10, 0.05, 0.01)


def simulate_f(k: int, n: int, reps: int, seed: int, chunk: int = 2500) -> tuple[np.ndarray, np.ndarray]:
    """F statistics of the bounds regression under the no-cointegration null,
    restricting the intercept with the level block (the statistic critval.py
    documents): lower-bound population with white-noise regressors, upper
    with random walks. Vectorised float64, PCG64 draws."""
    rng = np.random.default_rng(seed)
    p = k + 2
    dof = n - 1 - p
    f_low, f_up = np.empty(reps), np.empty(reps)
    for s in range(0, reps, chunk):
        c = min(chunk, reps - s)
        dep = np.cumsum(rng.standard_normal((c, n)), axis=1)
        noise = rng.standard_normal((c, n, k))
        walk = np.cumsum(rng.standard_normal((c, n, k)), axis=1)
        y = np.diff(dep, axis=1)
        rss_r = np.einsum("gn,gn->g", y, y)
        for regs, dest in ((noise, f_low), (walk, f_up)):
            X = np.concatenate([np.ones((c, n - 1, 1)), dep[:, :-1, None], regs[:, :-1, :]], axis=2)
            Q, _ = np.linalg.qr(X)
            r = y - np.einsum("gnp,gp->gn", Q, np.einsum("gnp,gn->gp", Q, y))
            rss_f = np.einsum("gn,gn->g", r, r)
            dest[s : s + c] = ((rss_r - rss_f) / p) / (rss_f / dof)
    return f_low, f_up


def quantile_se(values: np.ndarray, q: float) -> float:
    """Standard error of the q-quantile from the order statistics one binomial
    standard deviation either side of it (distribution-free)."""
    s = np.sort(values)
    n = s.size
    half = math.sqrt(n * q * (1.0 - q))
    lo = max(int(math.floor(n * q - half)), 0)
    hi = min(int(math.ceil(n * q + half)), n - 1)
    return float(s[hi] - s[lo]) / 2.0


def check_critval(rows: list[dict], k: int, n: int, reps: int, seed: int, n_resampled: int,
                  own: tuple[np.ndarray, np.ndarray]) -> list[str]:
    """Check printed critval rows against the published pair, this module's
    simulation `own`, monotonicity in alpha and the resample share."""
    failures = []
    by_alpha = {r["alpha"]: r for r in rows}
    if sorted(by_alpha) != sorted(ALPHAS):
        return [f"critval printed alphas {sorted(by_alpha)}, expected {sorted(ALPHAS)}"]
    for r in rows:
        if (r["k"], r["n"], r["reps"], r["seed"]) != (k, n, reps, seed):
            failures.append(f"critval row echoes (k, n, reps, seed) {(r['k'], r['n'], r['reps'], r['seed'])}")
    if k == 2:
        row = by_alpha[0.05]
        for side, pub in zip(("lower", "upper"), PUBLISHED_K2_5PCT):
            if abs(row[side] - pub) > PUBLISHED_TOL:
                failures.append(f"critval 5% {side} {row[side]:.4f} is more than {PUBLISHED_TOL} from {pub}")
    for alpha in ALPHAS:
        row = by_alpha[alpha]
        if not row["lower"] < row["upper"]:
            failures.append(f"critval {alpha:.0%}: lower {row['lower']:.4f} >= upper {row['upper']:.4f}")
        for side, sims in zip(("lower", "upper"), own):
            mine = float(np.quantile(sims, 1.0 - alpha))
            se = math.hypot(row["se_" + side], quantile_se(sims, 1.0 - alpha))
            if abs(row[side] - mine) > MC_Z * se:
                failures.append(
                    f"critval {alpha:.0%} {side} {row[side]:.4f} differs from the independent "
                    f"simulation's {mine:.4f} by more than {MC_Z} x {se:.4f}"
                )
    for side in ("lower", "upper"):
        seq = [by_alpha[a][side] for a in ALPHAS]
        if not all(a < b for a, b in zip(seq, seq[1:])):
            failures.append(f"critval {side} bounds {seq} do not rise as alpha falls")
    if n_resampled > 0.01 * reps:
        failures.append(f"critval resampled {n_resampled} of {reps} replications (> 1%)")
    return failures

"""ARDL design construction, SIC lag search, and the bounds cointegration test.

The regression explains the differenced dependent variable with its own
lagged differences, current and lagged differences of every level regressor,
and the lagged levels themselves. The joint F-test on the lagged-level block
is compared against lower/upper critical bounds for the three-way
cointegration decision.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .regression import OlsFit, ols, sic_from_rss, stacked_rss, wald_f
from .timeseries import AlignedFrame

__all__ = [
    "ArdlFit",
    "BoundsTestResult",
    "CriticalBounds",
    "Decision",
    "Design",
    "LagOrder",
    "ModelSpec",
    "SelectionResult",
    "bounds_test",
    "build_design",
    "decide",
    "critical_bounds",
    "fit_ardl",
    "select_lags",
]

# Small-sample critical bounds for the joint level-term F-test, keyed by
# (k, significance, variant). k counts level regressors excluding the
# dependent's own lag. Two published k=5 rows exist for different sample
# windows; the shorter-sample row is the "alt" variant.
_BOUNDS_TABLE: dict[tuple[int, float, str], tuple[float, float]] = {
    (2, 0.01, "primary"): (4.8, 5.725),
    (2, 0.05, "primary"): (3.368, 4.205),
    (4, 0.05, "primary"): (2.763, 3.813),
    (5, 0.05, "primary"): (2.694, 3.829),
    (5, 0.05, "alt"): (2.67, 3.78),
    (6, 0.05, "primary"): (2.591, 3.766),
}

_ALPHAS = (0.01, 0.05, 0.10)


class Decision(enum.Enum):
    COINTEGRATED = "Cointegrated"
    INCONCLUSIVE = "Inconclusive"
    NOT_COINTEGRATED = "NotCointegrated"


@dataclass(frozen=True)
class ModelSpec:
    """Which columns enter the regression and how.

    `income` names the log-income column; its squared (and optionally cubed)
    companion columns are found by appending ``2`` / ``3`` to that name, the
    convention the log transforms produce. `dependent` is the log-emissions
    level column; differencing happens inside the design builder.
    """

    dependent: str
    income: str
    income_order: int = 2
    controls: tuple[str, ...] = ()
    include_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(self.controls))
        if self.income_order not in (2, 3):
            raise ValueError(f"income_order must be 2 or 3, got {self.income_order}")
        terms = self.level_terms
        if len(set(terms)) != len(terms):
            raise ValueError(f"model variables must be distinct: {terms}")

    @property
    def income_terms(self) -> tuple[str, ...]:
        terms = (self.income, self.income + "2")
        if self.income_order == 3:
            terms += (self.income + "3",)
        return terms

    @property
    def regressors(self) -> tuple[str, ...]:
        """Level regressors other than the dependent, in design order."""
        return self.income_terms + self.controls

    @property
    def level_terms(self) -> tuple[str, ...]:
        return (self.dependent,) + self.regressors

    @property
    def k(self) -> int:
        return len(self.regressors)


@dataclass(frozen=True)
class LagOrder:
    """Short-run lag orders: `dep` for the dependent's own differences,
    one entry per level regressor for the rest."""

    dep: int
    regressors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(int(q) for q in self.regressors))
        if self.dep < 1:
            raise ValueError("dependent lag order must be >= 1")
        if any(q < 0 for q in self.regressors):
            raise ValueError("regressor lag orders must be >= 0")

    @property
    def total(self) -> int:
        return self.dep + sum(self.regressors)

    @property
    def max_lag(self) -> int:
        return max(self.dep, max(self.regressors, default=0))

    def as_tuple(self) -> tuple[int, ...]:
        return (self.dep,) + self.regressors

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.as_tuple()) + ")"


@dataclass(frozen=True)
class Design:
    """Assembled regression arrays plus the metadata needed downstream.

    `entries` and `lags` tag each column as `_layout` does: the lag-order
    entry that governs it and its lag.
    """

    y: np.ndarray
    X: np.ndarray
    column_names: tuple[str, ...]
    entries: np.ndarray
    lags: np.ndarray
    level_indices: tuple[int, ...]
    first_year: int
    last_year: int


@dataclass(frozen=True)
class ArdlFit:
    spec: ModelSpec
    lags: LagOrder
    ols: OlsFit
    level_indices: tuple[int, ...]
    first_year: int
    last_year: int

    @property
    def k(self) -> int:
        return len(self.level_indices) - 1

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.ols.column_names


def _layout(spec: ModelSpec, lags: LagOrder) -> list[tuple[str, str | None, int, int]]:
    """The design's columns in order, each as (name, variable, entry, lag).

    The order is fixed: intercept; dependent difference lags 1..m;
    per-regressor difference lags 0..q; then every level lagged once
    (dependent first). `entry` is the lag-order entry that governs the
    column: 0 for the dependent's lags, r for regressor r, -1 for the
    columns every order keeps (the intercept, whose variable is None, and
    the lagged levels). A column with entry e >= 0 is in an order o's design
    exactly when its lag is at most o[e].
    """
    columns = [("const", None, -1, 0)] if spec.include_intercept else []
    columns += [(f"d_{spec.dependent}_l{j}", spec.dependent, 0, j) for j in range(1, lags.dep + 1)]
    for r, (name, q) in enumerate(zip(spec.regressors, lags.regressors), 1):
        columns += [(f"d_{name}" + (f"_l{j}" if j else ""), name, r, j) for j in range(q + 1)]
    columns += [(f"{c}_lm1", c, -1, 1) for c in spec.level_terms]
    return columns


def build_design(frame: AlignedFrame, spec: ModelSpec, lags: LagOrder) -> Design:
    """Assemble y and X for the ARDL regression on `frame`, on the maximal
    sample for these lags.

    The columns are `_layout`'s. Returns a Design whose first_year is the
    year of the first usable row.
    """
    if len(lags.regressors) != len(spec.regressors):
        raise ValueError(
            f"lag order has {len(lags.regressors)} regressor entries, "
            f"model has {len(spec.regressors)} regressors"
        )
    missing = [c for c in spec.level_terms if c not in frame.columns]
    if missing:
        raise KeyError(f"frame lacks columns: {', '.join(missing)}")

    lmax = lags.max_lag
    t0 = lmax + 1
    rows = frame.n_rows - t0
    n_cols = len(_layout(spec, lags))
    if rows <= n_cols:
        raise ValueError(
            f"insufficient sample: {rows} usable rows after lag {lmax}, "
            f"need more than {n_cols} (one per column)"
        )
    return _design(frame, spec, lags, t0)


def _design(frame: AlignedFrame, spec: ModelSpec, lags: LagOrder, t0: int) -> Design:
    """build_design's arrays on the rows from t0 on, without its checks;
    the frame must have more than t0 rows. The lag search builds its common
    sample with it: the design at every lag of the grid, from
    t0 = max(1, max_lag) + 1."""
    n = frame.n_rows
    levels = {c: frame.col(c) for c in spec.level_terms}
    diffs = {c: np.diff(v) for c, v in levels.items()}
    names, variables, entries, column_lags = zip(*_layout(spec, lags))

    cols, level_indices = [], []
    for j, (var, entry, lag) in enumerate(zip(variables, entries, column_lags)):
        if var is None:
            cols.append(np.ones(n - t0))
        elif entry < 0:
            level_indices.append(j)
            cols.append(levels[var][t0 - lag : n - lag])
        else:
            cols.append(diffs[var][t0 - 1 - lag : n - 1 - lag])

    return Design(
        y=diffs[spec.dependent][t0 - 1 :].copy(),
        X=np.column_stack(cols),
        column_names=names,
        entries=np.array(entries),
        lags=np.array(column_lags),
        level_indices=tuple(level_indices),
        first_year=frame.first_year + t0,
        last_year=frame.last_year,
    )


def fit_ardl(frame: AlignedFrame, spec: ModelSpec, lags: LagOrder) -> ArdlFit:
    """Estimate the ARDL regression on the maximal sample for these lags."""
    design = build_design(frame, spec, lags)
    fit = ols(design.X, design.y, design.column_names)
    return ArdlFit(
        spec=spec,
        lags=lags,
        ols=fit,
        level_indices=design.level_indices,
        first_year=design.first_year,
        last_year=design.last_year,
    )


# ---- lag selection ------------------------------------------------------


@dataclass(frozen=True)
class SelectionResult:
    """Winner of the SIC search plus bookkeeping about the search itself.

    `n_evaluated` counts the orders the search accounts for (the whole grid
    when `exhaustive`), `n_skipped` those among them found unusable, and
    `n_scored` the orders actually factored; see `select_lags`.
    """

    order: LagOrder
    sic: float
    n_evaluated: int
    n_skipped: int
    n_scored: int
    exhaustive: bool
    notes: tuple[str, ...] = ()


# Candidate systems factored per stacked call. Long double takes 16 bytes
# an element, so a stack at 45 rows and 40 columns holds about 0.9 MB.
_STACK = 32

# A box of orders is pruned only when its SIC bound exceeds the incumbent by
# more than this share of |incumbent| + 1. While the corner's RSS is above
# _RSS_FLOOR, the RSS rounding moves a SIC by orders of magnitude less, so an
# order that ties the winner is never pruned.
_PRUNE_RTOL = 1e-8

# A corner bounds its box only while its RSS exceeds this share of ||y||^2.
# The long-double kernel's residual norm is off by about rows * p * eps *
# ||y||, near 3e-16 ||y|| at 60 rows and 40 columns; above the floor, where
# ||r|| > 1e-4 ||y||, that moves a SIC by under 1e-9, inside the margin.
# Below it (a near-perfect fit) the computed RSS is mostly rounding, nested
# orders need not give ordered values, and the box is split down as for a
# NaN corner.
_RSS_FLOOR = 1e-8


def _lag_grid(k: int, max_lag: int) -> np.ndarray:
    """Every candidate order (dep, q_1..q_k) up to `max_lag`, one per row,
    in lexicographic order."""
    top = max(1, max_lag)
    # the smallest integer type that holds every lag plus one keeps the grid small
    grid = np.indices((top,) + (max_lag + 1,) * k, np.min_scalar_type(top + 1)).reshape(k + 1, -1).T
    grid[:, 0] += 1
    return grid


def _keeps(full: Design, orders: np.ndarray) -> np.ndarray:
    """(orders, columns) mask of the columns of `full` in each order's
    design (a row of `orders`), read from the design's tags."""
    # an entry of -1 indexes the order's last entry; the first test overrides it
    return (full.entries < 0) | (full.lags <= orders[:, full.entries])


def _candidate_sics(full: Design, orders: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """SIC of each order (a row of `orders`, whose design has `widths`
    columns) on the common sample of `full`, the design at every lag of the
    grid.

    Each order's columns are picked from `full` by `_keeps`, and orders of
    one width are factored in stacks of _STACK. NaN marks an order with no
    more rows than columns or a rank-deficient design.
    """
    sics = np.full(len(orders), np.nan)
    rows = full.y.size
    X, y = full.X.astype(np.longdouble), full.y.astype(np.longdouble)
    for p in sorted(set(widths[widths < rows].tolist())):
        group = np.flatnonzero(widths == p)
        for at in range(0, len(group), _STACK):
            stack = group[at : at + _STACK]
            cols = np.nonzero(_keeps(full, orders[stack]))[1].reshape(len(stack), 1, p)
            rss = stacked_rss(X[np.arange(rows)[:, None], cols], np.repeat(y[None], len(stack), 0))
            sics[stack] = sic_from_rss(rss, rows, p)
    return sics


class _Scores(dict):
    """SIC by order tuple over one cell's common sample `full`, the design
    at every lag up to `max_lag`; scores each new order once, in one
    `_candidate_sics` call per `add`."""

    def __init__(self, full: Design, k: int, max_lag: int):
        super().__init__()
        self.full = full
        self.best = math.inf  # the least SIC scored so far
        # counts[e, v]: the columns of entry e in the design of an order whose
        # entry e is v, so a width takes one lookup per entry
        values = np.arange(max(1, max_lag) + 1)[:, None]
        keeps = (full.entries == np.arange(k + 1)[:, None, None]) & (full.lags <= values)
        self.counts = keeps.sum(axis=2, dtype=np.int16)
        self.fixed = int((full.entries < 0).sum())

    def width(self, orders: np.ndarray) -> np.ndarray:
        """Design columns of each order (a row of `orders`)."""
        return self.fixed + self.counts[np.arange(orders.shape[1]), orders].sum(axis=1)

    def add(self, orders: list[tuple[int, ...]]) -> None:
        new = [o for o in orders if o not in self]
        if new:
            new_orders = np.array(new)
            sics = _candidate_sics(self.full, new_orders, self.width(new_orders))
            self.update(zip(new, sics.tolist()))
            valid = sics[~np.isnan(sics)]
            if valid.size:
                self.best = min(self.best, float(valid.min()))


def _descend(scores: _Scores, k: int, max_lag: int) -> None:
    """Coordinate descent from (1, 0, ..., 0): each position in turn moves
    to its best value with the others held, for at most 10 sweeps."""
    top = max(1, max_lag)
    current = (1,) + (0,) * k
    scores.add([current])
    for _ in range(10):
        changed = False
        for pos in range(k + 1):
            lo, hi = (1, top) if pos == 0 else (0, max_lag)
            trials = [current[:pos] + (v,) + current[pos + 1 :] for v in range(lo, hi + 1)]
            scores.add(trials)
            choices = [(scores[t], sum(t), t) for t in trials if not math.isnan(scores[t])]
            if choices and min(choices)[2] != current:
                current = min(choices)[2]
                changed = True
        if not changed:
            break


def _prove(scores: _Scores, k: int, max_lag: int) -> None:
    """Score the grid's orders until every unscored one provably loses.

    The grid is split into boxes [lo, hi] of orders (componentwise). Each
    order in a box nests in its corner hi on the common sample, so its SIC
    is at least SIC(hi) - (width(hi) - width(lo)) * ln(rows). A box whose
    bound exceeds the least SIC scored so far by more than the margin is
    dropped; every other box with more than one order is halved along its
    widest dimension, and the new corners of a round are scored together.
    A corner that is NaN (skipped) or whose RSS is at most _RSS_FLOOR of
    ||y||^2 bounds nothing, so its box is split down to single orders; a
    -inf corner (a perfect fit) also stops all pruning.
    """
    full = scores.full
    rows = full.y.size
    ln_n, rss_floor = math.log(rows), _RSS_FLOOR * float(np.dot(full.y, full.y))
    root = (max(1, max_lag),) + (max_lag,) * k
    scores.add([root])
    lo, hi, corner = np.array([(1,) + (0,) * k]), np.array([root]), np.array([scores[root]])
    while True:
        best = scores.best
        cut = best + _PRUNE_RTOL * (abs(best) + 1.0) if math.isfinite(best) else math.inf
        width = scores.width(hi)
        bounded = corner > sic_from_rss(rss_floor, rows, width)
        live = ~(bounded & (corner - (width - scores.width(lo)) * ln_n > cut)) & (hi > lo).any(axis=1)
        lo, hi, corner = lo[live], hi[live], corner[live]
        if not len(lo):
            return
        at, dim = np.arange(len(lo)), (hi - lo).argmax(axis=1)
        low_hi, high_lo = hi.copy(), lo.copy()
        low_hi[at, dim] = (lo[at, dim] + hi[at, dim]) // 2
        high_lo[at, dim] = low_hi[at, dim] + 1
        new = [tuple(o) for o in low_hi.tolist()]
        scores.add(new)
        lo, hi = np.concatenate([lo, high_lo]), np.concatenate([low_hi, hi])
        corner = np.concatenate([[scores[o] for o in new], corner])


def select_lags(
    frame: AlignedFrame,
    spec: ModelSpec,
    max_lag: int = 4,
    budget: int = 1_000_000,
) -> SelectionResult:
    """SIC-minimizing lag order over the full grid up to `max_lag`.

    Every candidate is scored on the common sample implied by `max_lag`, so
    the criterion values are comparable. Ties break toward the smallest
    total lag count, then lexicographically. Candidates with no more rows
    than columns, or with a rank-deficient design, are skipped.

    A grid of at most `budget` orders is searched exactly without scoring
    all of it (leaps and bounds, Furnival & Wilson 1974). A coordinate
    descent from (1, 0, ..., 0) finds an incumbent; then boxes of orders are
    split and their corners scored until each unscored order o is shown to
    lose: o nests in a scored corner hi of its box [lo, hi], so RSS(o) >=
    RSS(hi) and SIC(o) >= SIC(hi) - (width(hi) - width(lo)) * ln(rows). A
    box is dropped only when that bound exceeds the incumbent by more than
    _PRUNE_RTOL * (|incumbent| + 1), and only when RSS(hi) exceeds
    _RSS_FLOOR * ||y||^2, so that the margin is far above the RSS rounding.
    A tie with the winner is then always scored and the winner is the one
    the whole grid gives; a near-perfect fit, whose RSS is mostly rounding,
    bounds nothing and its box is scored in full. Then `n_evaluated` is the grid size, `n_skipped` counts the
    grid's orders with no more rows than columns plus the rank-deficient
    orders among those scored (a dropped order nests in a full-rank
    corner), and `exhaustive` is True.

    A larger grid falls back to the coordinate descent alone, with a
    warning: `exhaustive` is False and `n_evaluated` and `n_skipped` count
    the orders it visited. `n_scored` counts the orders factored either way.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    k = len(spec.regressors)
    top = max(1, max_lag)
    if frame.n_rows <= top + 1:  # no row of the common sample is left
        raise ValueError("every candidate lag order produced a rank-deficient design")
    full = _design(frame, spec, LagOrder(top, (max_lag,) * k), top + 1)
    rows = full.y.size
    grid_size = top * (max_lag + 1) ** k

    notes: list[str] = []
    scores = _Scores(full, k, max_lag)
    _descend(scores, k, max_lag)
    exhaustive = grid_size <= budget
    if exhaustive:
        _prove(scores, k, max_lag)
    else:
        msg = (
            f"lag grid has {grid_size} candidates, over the budget of {budget}; "
            "using a staged coordinate search (result may not be the global optimum)"
        )
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        notes.append(msg)

    orders, sics = np.array(list(scores)), np.array(list(scores.values()))
    valid = ~np.isnan(sics)
    if not valid.any():
        raise ValueError("every candidate lag order produced a rank-deficient design")
    factored = scores.width(orders) < rows
    if exhaustive:
        n_evaluated = grid_size
        n_skipped = int((scores.width(_lag_grid(k, max_lag)) >= rows).sum() + (factored & ~valid).sum())
    else:
        n_evaluated, n_skipped = len(orders), int((~valid).sum())
    tied = orders[sics == sics[valid].min()].tolist()
    best = min(tied, key=lambda order: (sum(order), order))
    return SelectionResult(
        order=LagOrder(best[0], best[1:]),
        sic=float(sics[valid].min()),
        n_evaluated=n_evaluated,
        n_skipped=n_skipped,
        n_scored=int(factored.sum()),
        exhaustive=exhaustive,
        notes=tuple(notes),
    )


# ---- critical bounds and the test ---------------------------------------


@dataclass(frozen=True)
class CriticalBounds:
    lower: float
    upper: float
    source: str = "table"

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"bounds must satisfy lower < upper, got {self.lower}, {self.upper}")

    def __iter__(self):
        yield self.lower
        yield self.upper


def critical_bounds(k: int, significance: float = 0.05, variant: str = "primary") -> CriticalBounds:
    """Lower/upper F-bounds for `k` level regressors at `significance`.

    Published small-sample values cover the (k, significance) cells listed
    in the embedded table; `simulate_bounds` estimates any other cell.
    """
    if not 2 <= k <= 7:
        raise ValueError(f"k must be in 2..7, got {k}")
    if significance not in _ALPHAS:
        raise ValueError(f"significance must be one of {_ALPHAS}, got {significance}")
    hit = _BOUNDS_TABLE.get((k, significance, variant))
    if hit is None:
        raise ValueError(f"no tabulated bounds for k={k} at {significance:.0%} (variant {variant!r})")
    return CriticalBounds(hit[0], hit[1], "table")


@dataclass(frozen=True)
class BoundsTestResult:
    f_stat: float
    k: int
    bounds: dict[float, CriticalBounds] = field(repr=False)
    decision: Decision = Decision.INCONCLUSIVE
    significance_used: float = 0.05

    def bound_pair(self, significance: float | None = None) -> CriticalBounds:
        return self.bounds[self.significance_used if significance is None else significance]


def decide(f_stat: float, bounds: CriticalBounds) -> Decision:
    """Three-way call: above the upper bound, below the lower, or in between."""
    if f_stat > bounds.upper:
        return Decision.COINTEGRATED
    if f_stat < bounds.lower:
        return Decision.NOT_COINTEGRATED
    return Decision.INCONCLUSIVE


def bounds_test(
    fit: ArdlFit,
    significance: float = 0.05,
    bounds: dict[float, tuple[float, float]] | None = None,
    variant: str = "primary",
) -> BoundsTestResult:
    """Joint F-test that every lagged-level coefficient is zero.

    The restriction covers the whole level block, the dependent's own lag
    included; the intercept stays unrestricted. F above the upper bound
    means cointegration, below the lower bound means none, anywhere in
    [lower, upper] is inconclusive (boundary inclusive). `bounds` overrides
    the table, mapping significance to a (lower, upper) pair.
    """
    if not fit.level_indices:
        raise ValueError("fit has no level block to test")
    f = wald_f(fit.ols, fit.level_indices)
    k = fit.k

    table: dict[float, CriticalBounds] = {}
    if bounds is not None:
        for alpha, pair in bounds.items():
            table[alpha] = pair if isinstance(pair, CriticalBounds) else CriticalBounds(*pair, "override")
    else:
        for alpha in _ALPHAS:
            try:
                table[alpha] = critical_bounds(k, alpha, variant=variant)
            except ValueError:
                continue
    if significance not in table:
        raise ValueError(
            f"no bounds available at significance {significance} for k={k}"
        )

    b = table[significance]
    return BoundsTestResult(
        f_stat=float(f),
        k=k,
        bounds=table,
        decision=decide(f, b),
        significance_used=significance,
    )

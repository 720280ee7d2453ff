import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import ardlkit.ardl as ardl
from ardlkit import batch
from ardlkit.ardl import (
    BoundsTestResult,
    CriticalBounds,
    Decision,
    LagOrder,
    ModelSpec,
    bounds_test,
    build_design,
    critical_bounds,
    decide,
    fit_ardl,
    select_lags,
)
from ardlkit.regression import ols, sic, sic_from_rss, stacked_rss
from ardlkit.manifest import load_country, load_manifest
from ardlkit.timeseries import AlignedFrame, align
from oracles import naive_ardl_design

QUAD = ModelSpec(dependent="e", income="y")


def _frame(columns, data, first_year=1960):
    data = np.asarray(data, dtype=float)
    return AlignedFrame(first_year, first_year + data.shape[0] - 1, tuple(columns), data)


def _quad_frame(n, seed=0, b1=0.8, b2=-0.05, rho=0.5, scale=0.1, first_year=1960):
    """Cointegrated log-quadratic data: e = 2 + b1 y + b2 y^2 + AR(1) noise."""
    rng = np.random.default_rng(seed)
    y = 7.0 + np.cumsum(rng.normal(scale=0.05, size=n))
    u = np.zeros(n)
    eps = rng.normal(scale=scale, size=n)
    for t in range(1, n):
        u[t] = rho * u[t - 1] + eps[t]
    e = 2.0 + b1 * y + b2 * y**2 + u
    return _frame(["e", "y", "y2"], np.column_stack([e, y, y**2]), first_year)


def test_modelspec_terms_quadratic_and_cubic():
    assert QUAD.income_terms == ("y", "y2")
    assert QUAD.level_terms == ("e", "y", "y2")
    assert QUAD.k == 2
    cubic = ModelSpec("e", "y", income_order=3, controls=("tr",))
    assert cubic.income_terms == ("y", "y2", "y3")
    assert cubic.regressors == ("y", "y2", "y3", "tr")
    assert cubic.k == 4


def test_modelspec_validation():
    with pytest.raises(ValueError, match="income_order"):
        ModelSpec("e", "y", income_order=4)
    with pytest.raises(ValueError, match="distinct"):
        ModelSpec("e", "y", controls=("y",))
    with pytest.raises(ValueError, match="distinct"):
        ModelSpec("y", "y")


def test_lag_order_rules():
    lo = LagOrder(2, (0, 1))
    assert lo.total == 3
    assert lo.max_lag == 2
    assert lo.as_tuple() == (2, 0, 1)
    assert str(lo) == "(2,0,1)"
    with pytest.raises(ValueError):
        LagOrder(0, (0, 0))
    with pytest.raises(ValueError):
        LagOrder(1, (-1,))


def test_design_counting_on_58_rows():
    f = _quad_frame(58)
    d = build_design(f, QUAD, LagOrder(1, (0, 0)))
    assert d.X.shape == (56, 7)
    assert d.y.shape == (56,)
    assert d.column_names == (
        "const", "d_e_l1", "d_y", "d_y2", "e_lm1", "y_lm1", "y2_lm1",
    )
    assert d.level_indices == (4, 5, 6)
    assert d.first_year == 1962
    assert d.last_year == f.last_year


def test_design_two_dependent_lags():
    f = _quad_frame(58)
    d = build_design(f, QUAD, LagOrder(2, (0, 0)))
    assert "d_e_l1" in d.column_names and "d_e_l2" in d.column_names
    assert d.X.shape == (55, 8)


def test_design_matches_naive_builder_exactly():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = 30
        n_controls = int(rng.integers(0, 3))
        order = int(rng.choice([2, 2, 3]))
        controls = tuple(f"c{i}" for i in range(n_controls))
        spec = ModelSpec("e", "y", income_order=order, controls=controls)
        data = rng.normal(size=(n, len(spec.level_terms)))
        f = _frame(spec.level_terms, data)
        m = int(rng.integers(1, 4))
        qs = tuple(int(q) for q in rng.integers(0, 4, size=len(spec.regressors)))
        lags = LagOrder(m, qs)

        d = build_design(f, spec, lags)
        cols = {c: f.col(c) for c in spec.level_terms}
        y_ref, cols_ref = naive_ardl_design(cols, "e", spec.regressors, m, qs)

        assert d.column_names == tuple(cols_ref)
        np.testing.assert_array_equal(d.y, np.asarray(y_ref))
        for j, name in enumerate(d.column_names):
            np.testing.assert_array_equal(d.X[:, j], np.asarray(cols_ref[name]), err_msg=name)


def test_design_column_count_formula():
    rng = np.random.default_rng(3)
    for _ in range(10):
        nc = int(rng.integers(0, 3))
        spec = ModelSpec("e", "y", controls=tuple(f"c{i}" for i in range(nc)))
        f = _frame(spec.level_terms, rng.normal(size=(40, len(spec.level_terms))))
        m = int(rng.integers(1, 4))
        qs = tuple(int(q) for q in rng.integers(0, 4, size=len(spec.regressors)))
        d = build_design(f, spec, LagOrder(m, qs))
        expect = 1 + m + sum(q + 1 for q in qs) + len(spec.level_terms)
        assert d.X.shape[1] == expect


def test_design_common_lag_trims_sample():
    # the lag search's common sample at max_lag 4 starts every order's
    # design at row 5: the tail of the order's maximal-sample design
    f = _quad_frame(58)
    d = ardl._design(f, QUAD, LagOrder(1, (0, 0)), 5)
    assert d.X.shape[0] == 53
    assert d.first_year == 1965
    maximal = build_design(f, QUAD, LagOrder(1, (0, 0)))
    np.testing.assert_array_equal(d.X, maximal.X[-53:])
    np.testing.assert_array_equal(d.y, maximal.y[-53:])


def test_design_no_intercept():
    f = _quad_frame(40)
    spec = ModelSpec("e", "y", include_intercept=False)
    d = build_design(f, spec, LagOrder(1, (0, 0)))
    assert d.column_names[0] == "d_e_l1"
    assert d.X.shape[1] == 6


def test_design_errors():
    f = _quad_frame(12)
    with pytest.raises(ValueError, match="insufficient sample"):
        build_design(f, QUAD, LagOrder(4, (4, 4)))
    f2 = _frame(["e", "y"], np.random.default_rng(0).normal(size=(30, 2)))
    with pytest.raises(KeyError, match="y2"):
        build_design(f2, QUAD, LagOrder(1, (0, 0)))
    with pytest.raises(ValueError, match="regressor entries"):
        build_design(_quad_frame(40), QUAD, LagOrder(1, (0, 0, 0)))


def test_fit_ardl_deterministic():
    f = _quad_frame(58, seed=5)
    a = fit_ardl(f, QUAD, LagOrder(1, (0, 0)))
    b = fit_ardl(f, QUAD, LagOrder(1, (0, 0)))
    np.testing.assert_array_equal(a.ols.coefficients, b.ols.coefficients)
    assert a.k == 2
    assert a.first_year == 1962


def test_select_lags_equals_bruteforce():
    # independent route: full design + full OLS + SIC on the same common sample
    for seed in (1, 2, 3):
        f = _quad_frame(45, seed=seed)
        spec = QUAD
        max_lag = 2
        best = None
        for m in range(1, max_lag + 1):
            for q1 in range(max_lag + 1):
                for q2 in range(max_lag + 1):
                    lo = LagOrder(m, (q1, q2))
                    d = ardl._design(f, spec, lo, max_lag + 1)
                    s = sic(ols(d.X, d.y))
                    key = (s, lo.total, lo.as_tuple())
                    if best is None or key < best:
                        best = key
        res = select_lags(f, spec, max_lag=max_lag)
        assert res.order.as_tuple() == best[2]
        assert res.sic == pytest.approx(best[0], rel=1e-10)
        assert res.exhaustive
        assert res.n_evaluated == 2 * 9


def test_select_lags_sic_beats_every_grid_point():
    f = _quad_frame(50, seed=11)
    res = select_lags(f, QUAD, max_lag=2)
    for m in range(1, 3):
        for q1 in range(3):
            for q2 in range(3):
                d = ardl._design(f, QUAD, LagOrder(m, (q1, q2)), 3)
                assert res.sic <= sic(ols(d.X, d.y)) + 1e-9


def test_select_lags_max_lag_zero_clamps_m():
    f = _quad_frame(40)
    res = select_lags(f, QUAD, max_lag=0)
    assert res.order.as_tuple() == (1, 0, 0)
    assert res.n_evaluated == 1


def test_select_lags_recovers_planted_order():
    # strong ARDL(2,*) signal: e depends on two own difference lags
    rng = np.random.default_rng(8)
    n = 300
    y = 7.0 + np.cumsum(rng.normal(scale=0.05, size=n))
    e = np.zeros(n)
    de = np.zeros(n)
    for t in range(2, n):
        de[t] = 0.55 * de[t - 1] - 0.3 * de[t - 2] + rng.normal(scale=0.02)
    e = 1.0 + 0.5 * y - 0.02 * y**2 + np.cumsum(de)
    f = _frame(["e", "y", "y2"], np.column_stack([e, y, y**2]))
    res = select_lags(f, QUAD, max_lag=3)
    assert res.order.dep == 2


def test_select_lags_budget_falls_back_to_staged():
    f = _quad_frame(50, seed=21)
    with pytest.warns(RuntimeWarning, match="staged coordinate search"):
        res = select_lags(f, QUAD, max_lag=2, budget=5)
    assert not res.exhaustive
    assert res.notes
    full = select_lags(f, QUAD, max_lag=2)
    # on this easy problem the staged search lands on the global optimum
    assert res.order == full.order


# ---- the stacked search against the per-candidate route ----------------


def _spec(k, include_intercept=True):
    """A stand-in with the attributes the design and the search read; it
    reaches k=1, which ModelSpec's income pair does not allow."""
    regressors = tuple(f"x{i}" for i in range(k))
    return SimpleNamespace(
        dependent="e", regressors=regressors, level_terms=("e",) + regressors,
        include_intercept=include_intercept,
    )


def _walk_frame(rng, n, spec):
    data = rng.normal(size=(n, len(spec.level_terms))).cumsum(axis=0)
    return _frame(spec.level_terms, data)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("include_intercept", [True, False])
def test_design_tags_pick_each_orders_columns(k, include_intercept):
    # the search takes each order's columns from the full design by its
    # tags: they must be that order's own design on the common sample, and
    # the width table must count them
    spec = _spec(k, include_intercept)
    frame = _walk_frame(np.random.default_rng(70 + k), 60, spec)
    for max_lag in range(4):
        top = max(1, max_lag)
        full = ardl._design(frame, spec, LagOrder(top, (max_lag,) * k), top + 1)
        grid = ardl._lag_grid(k, max_lag)
        widths = ardl._Scores(full, k, max_lag).width(grid)
        for order, keep, width in zip(grid.tolist(), ardl._keeps(full, grid), widths):
            d = ardl._design(frame, spec, LagOrder(order[0], order[1:]), top + 1)
            assert tuple(n for n, kept in zip(full.column_names, keep) if kept) == d.column_names
            np.testing.assert_array_equal(full.X[:, keep], d.X)
            assert width == keep.sum() == d.X.shape[1]


def _reference_sic(frame, spec, vec, max_lag):
    """SIC of one order by the per-candidate route (its design on the
    common sample, then stacked_rss on a stack of one); None when the order
    is skipped."""
    d = ardl._design(frame, spec, LagOrder(vec[0], vec[1:]), max(1, max_lag) + 1)
    if d.X.shape[0] <= d.X.shape[1]:
        return None
    rss = stacked_rss(d.X.astype(np.longdouble)[None], d.y.astype(np.longdouble)[None])[0]
    return None if np.isnan(rss) else float(sic_from_rss(rss, *d.X.shape))


def _reference_select(frame, spec, max_lag, budget=1_000_000):
    """The search one candidate at a time: the exhaustive grid, or the
    sequential coordinate search when the grid is over the budget."""
    k = len(spec.regressors)
    top = max(1, max_lag)
    cache = {}

    def scored(vec):
        if vec not in cache:
            cache[vec] = _reference_sic(frame, spec, vec, max_lag)
        return cache[vec]

    if top * (max_lag + 1) ** k <= budget:
        for m in range(1, top + 1):
            for qs in itertools.product(range(max_lag + 1), repeat=k):
                scored((m,) + qs)
    else:
        current = (1,) + (0,) * k
        scored(current)
        for _ in range(10):
            changed = False
            for pos in range(k + 1):
                choices = []
                for v in range(1 if pos == 0 else 0, (top if pos == 0 else max_lag) + 1):
                    trial = current[:pos] + (v,) + current[pos + 1 :]
                    if scored(trial) is not None:
                        choices.append((scored(trial), sum(trial), trial))
                if choices and min(choices)[2] != current:
                    current, changed = min(choices)[2], True
            if not changed:
                break
    keys = [(s, sum(vec), vec) for vec, s in cache.items() if s is not None]
    best = min(keys)
    return best[2], best[0], len(cache), len(cache) - len(keys)


def _assert_same_search(res, ref):
    order, value, n_evaluated, n_skipped = ref
    assert res.order.as_tuple() == order
    assert res.sic == value  # the same kernel on the same columns: equal bits
    assert (res.n_evaluated, res.n_skipped) == (n_evaluated, n_skipped)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("max_lag", [0, 1, 2, 3])
def test_select_lags_equals_per_candidate_search(k, max_lag):
    rng = np.random.default_rng(1000 * k + max_lag)
    for trial in range(2):
        spec = _spec(k, include_intercept=trial == 0)
        # short frames so that the largest orders are skipped as saturated
        frame = _walk_frame(rng, int(rng.integers(12, 30)) + 3 * k, spec)
        res = select_lags(frame, spec, max_lag=max_lag)
        _assert_same_search(res, _reference_select(frame, spec, max_lag))
        assert res.exhaustive and res.n_evaluated == max(1, max_lag) * (max_lag + 1) ** k


def test_select_lags_skips_rank_deficient_candidates_in_a_stack():
    # x1[t] = x0[t-1] + x0[t-2], so d_x1 = d_x0 + d_x0_l1: every order with
    # q0 >= 1 is rank deficient, the rest are not
    rng = np.random.default_rng(17)
    spec = _spec(3)
    data = np.array(_walk_frame(rng, 45, spec).data)
    data[2:, 2] = data[1:-1, 1] + data[:-2, 1]
    frame = _frame(spec.level_terms, data)
    res = select_lags(frame, spec, max_lag=3)
    ref = _reference_select(frame, spec, 3)
    _assert_same_search(res, ref)
    assert res.n_skipped == 3 * 3 * 4 * 4 and res.order.regressors[0] == 0


def test_select_lags_stack_size_does_not_change_the_result(monkeypatch):
    rng = np.random.default_rng(23)
    spec = _spec(4)
    frame = _walk_frame(rng, 40, spec)
    top = 2
    full = ardl._design(frame, spec, LagOrder(top, (2,) * 4), top + 1)
    grid = ardl._lag_grid(4, 2)
    widths = ardl._Scores(full, 4, 2).width(grid)
    expected = ardl._candidate_sics(full, grid, widths)
    result = select_lags(frame, spec, max_lag=2)
    # 162 candidates in width groups of uneven sizes, split into stacks differently
    for size in (1, 5, 7, 200):
        monkeypatch.setattr(ardl, "_STACK", size)
        np.testing.assert_array_equal(ardl._candidate_sics(full, grid, widths), expected)
        assert select_lags(frame, spec, max_lag=2) == result


def test_select_lags_scores_small_orders_when_the_full_design_is_saturated():
    spec = _spec(2)
    frame = _walk_frame(np.random.default_rng(29), 16, spec)
    with pytest.raises(ValueError, match="insufficient sample"):
        build_design(frame, spec, LagOrder(3, (3, 3)))
    res = select_lags(frame, spec, max_lag=3)
    _assert_same_search(res, _reference_select(frame, spec, 3))
    assert 0 < res.n_skipped < res.n_evaluated


def _dynamic_frame(rng, n, spec):
    """Random-walk regressors driving e through lagged differences, so the
    SIC optimum sits away from the coordinate search's start (1,0,...,0)."""
    x = rng.normal(size=(n, len(spec.regressors))).cumsum(axis=0)
    dx = np.diff(x, axis=0, prepend=0.0)
    de = np.zeros(n)
    for t in range(3, n):
        de[t] = 0.5 * de[t - 1] - 0.3 * de[t - 2] + 0.8 * dx[t - 1, 0] + 0.6 * dx[t - 2, -1]
        de[t] += rng.normal(scale=0.05)
    return _frame(spec.level_terms, np.column_stack([de.cumsum(), x]))


def test_select_lags_coordinate_search_matches_the_sequential_one():
    rng = np.random.default_rng(31)
    for k, n in ((2, 80), (4, 90)):
        spec = _spec(k)
        frame = _dynamic_frame(rng, n, spec)
        with pytest.warns(RuntimeWarning, match="staged coordinate search"):
            res = select_lags(frame, spec, max_lag=3, budget=5)
        assert not res.exhaustive and res.notes
        assert res.order.dep > 1 and res.n_evaluated > 3 * (k + 1)  # the search moved
        _assert_same_search(res, _reference_select(frame, spec, 3, budget=5))


def test_select_lags_tie_break(monkeypatch):
    # equal SIC for every order of total 3 or 4, skipped ones of total 2:
    # the smallest total wins, then the lexicographically smallest order
    def fake_sics(full, orders, widths):
        total = orders.sum(axis=1)
        return np.where(total == 2, np.nan, np.where((total == 3) | (total == 4), 1.0, 2.0))

    monkeypatch.setattr(ardl, "_candidate_sics", fake_sics)
    res = select_lags(_quad_frame(40), QUAD, max_lag=2)
    assert res.order.as_tuple() == (1, 0, 2) and res.sic == 1.0
    assert (res.n_evaluated, res.n_skipped) == (18, 3)


def test_select_lags_with_no_usable_rows():
    spec = _spec(2)
    frame = _walk_frame(np.random.default_rng(37), 4, spec)
    with pytest.raises(ValueError, match="every candidate"):
        select_lags(frame, spec, max_lag=3)


# ---- the bound-and-split proof --------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("include_intercept", [True, False])
def test_select_lags_proof_equals_per_candidate_search_at_max_lag_4(k, include_intercept):
    rng = np.random.default_rng(40 + 10 * k + include_intercept)
    spec = _spec(k, include_intercept)
    frames = [_walk_frame(rng, 45, spec), _dynamic_frame(rng, 60, spec), _walk_frame(rng, 22, spec)]
    for frame in frames:
        res = select_lags(frame, spec, max_lag=4)
        _assert_same_search(res, _reference_select(frame, spec, 4))
        assert res.exhaustive and res.n_evaluated == 4 * 5**k
        assert res.n_scored < res.n_evaluated - res.n_skipped  # the bound dropped orders


def test_select_lags_every_unscored_order_loses(monkeypatch):
    seen = set()
    kernel = ardl._candidate_sics

    def spy(full, orders, widths):
        seen.update(map(tuple, orders.tolist()))
        return kernel(full, orders, widths)

    monkeypatch.setattr(ardl, "_candidate_sics", spy)
    rng = np.random.default_rng(43)
    for k, frame_of in ((2, _dynamic_frame), (3, _walk_frame)):
        spec = _spec(k)
        frame = frame_of(rng, 50, spec)
        seen.clear()
        res = select_lags(frame, spec, max_lag=4)
        unscored = [o for o in map(tuple, ardl._lag_grid(k, 4).tolist()) if o not in seen]
        assert unscored
        for order in unscored:
            value = _reference_sic(frame, spec, order, 4)
            assert value is None or value > res.sic, order


def test_select_lags_proof_scores_a_tenth_of_the_deep_grid(demo_dir):
    # MEX/M2 at the paper's max_lag 4: 12500 orders, 338 factored
    manifest = load_manifest(demo_dir / "manifest.json")
    dataset, _ = load_country(manifest, "MEX")
    spec = batch.preset("M2")
    raw = [batch.DEPENDENT_RAW, batch.INCOME_RAW] + [batch._raw_name(c) for c in spec.controls]
    frame = batch._model_frame(align(dataset, raw, min_window=20), spec)
    res = select_lags(frame, spec, max_lag=4)
    assert res.exhaustive and res.n_evaluated == 12500
    assert 0 < res.n_scored <= res.n_evaluated // 10


def test_select_lags_margin_covers_rounding_of_a_corner(monkeypatch):
    # SICs nested exactly, as RSS(o) >= RSS(u) for o <= u gives, except that
    # every order outside the tie of (1,1,0) and (2,0,0) carries a rounding
    # error of 1e-10. The box [(1,1,0), (1,1,1)] then bounds 1e-10 above the
    # incumbent (2,0,0), yet holds (1,1,0), which wins the tie on its order.
    spec, tie_sic = _spec(2), -200.0
    frame = _walk_frame(np.random.default_rng(47), 40, spec)
    ln_n = np.log(40 - 3)

    def nested_sics(full, orders, widths):
        m, q1, q2 = orders.T
        gain = np.where((q1 >= 1) | (m >= 2), ln_n, np.where(q2 >= 1, 0.0, -1.0))
        sics = tie_sic + (orders.sum(axis=1) - 1) * ln_n - gain
        tie = (orders.sum(axis=1) == 2) & (q2 == 0)
        return np.where(tie, tie_sic, sics + 1e-10)

    monkeypatch.setattr(ardl, "_candidate_sics", nested_sics)
    res = select_lags(frame, spec, max_lag=2)
    assert res.order.as_tuple() == (1, 1, 0) and res.sic == tie_sic
    assert res.n_scored < res.n_evaluated



def test_select_lags_near_perfect_fits_bound_nothing(monkeypatch):
    # far below the RSS floor the SICs are rounding noise, unordered by
    # nesting: no box may be dropped, and the least value wins
    spec = _spec(2)
    frame = _walk_frame(np.random.default_rng(53), 40, spec)
    noise = -5000.0 + np.random.default_rng(59).uniform(0.0, 200.0, size=(4, 5, 5))

    def noisy_sics(full, orders, widths):
        return noise[orders[:, 0] - 1, orders[:, 1], orders[:, 2]]

    monkeypatch.setattr(ardl, "_candidate_sics", noisy_sics)
    res = select_lags(frame, spec, max_lag=4)
    m, q1, q2 = np.unravel_index(noise.argmin(), noise.shape)
    assert res.order.as_tuple() == (m + 1, q1, q2) and res.sic == noise.min()
    assert res.n_scored == res.n_evaluated == 100

    # e's difference is exactly 0.2 + x0's lagged difference: every order with
    # q0 >= 1 fits up to rounding, and the kernel's noise picks the winner
    monkeypatch.undo()
    rng = np.random.default_rng(61)
    x = rng.normal(size=(40, 2)).cumsum(axis=0)
    de = 0.2 + np.diff(x[:, 0], prepend=0.0)
    frame = _frame(spec.level_terms, np.column_stack([np.r_[0.0, de[:-1]].cumsum(), x]))
    _assert_same_search(select_lags(frame, spec, max_lag=4), _reference_select(frame, spec, 4))

def test_critical_bounds_table_values():
    assert tuple(critical_bounds(2, 0.05)) == (3.368, 4.205)
    assert tuple(critical_bounds(2, 0.01)) == (4.8, 5.725)
    assert tuple(critical_bounds(4, 0.05)) == (2.763, 3.813)
    assert tuple(critical_bounds(5, 0.05)) == (2.694, 3.829)
    assert tuple(critical_bounds(5, 0.05, variant="alt")) == (2.67, 3.78)
    assert tuple(critical_bounds(6, 0.05)) == (2.591, 3.766)


def test_critical_bounds_all_rows_ordered():
    from ardlkit.ardl import _BOUNDS_TABLE

    for (k, alpha, variant), (lo, hi) in _BOUNDS_TABLE.items():
        assert lo < hi
        b = critical_bounds(k, alpha, variant=variant)
        assert b.source == "table"


def test_critical_bounds_errors():
    with pytest.raises(ValueError, match="k must be"):
        critical_bounds(1, 0.05)
    with pytest.raises(ValueError, match="significance"):
        critical_bounds(2, 0.07)
    with pytest.raises(ValueError, match="no tabulated bounds"):
        critical_bounds(7, 0.05)
    with pytest.raises(ValueError, match="no tabulated bounds"):
        critical_bounds(2, 0.10)


def test_decide_three_way_rule():
    b = critical_bounds(2, 0.05)
    assert decide(9.802, b) == Decision.COINTEGRATED
    assert decide(3.8588, b) == Decision.INCONCLUSIVE
    assert decide(1.8802, b) == Decision.NOT_COINTEGRATED
    # boundary inclusive at both ends
    assert decide(3.368, b) == Decision.INCONCLUSIVE
    assert decide(4.205, b) == Decision.INCONCLUSIVE
    assert decide(np.nextafter(4.205, 10), b) == Decision.COINTEGRATED


def test_decision_monotone_in_f():
    rng = np.random.default_rng(5)
    b = CriticalBounds(2.5, 3.5)
    rank = {Decision.NOT_COINTEGRATED: 0, Decision.INCONCLUSIVE: 1, Decision.COINTEGRATED: 2}
    fs = np.sort(rng.uniform(0, 7, size=200))
    decisions = [rank[decide(float(v), b)] for v in fs]
    assert decisions == sorted(decisions)


def test_bounds_test_on_cointegrated_data():
    f = _quad_frame(120, seed=2, scale=0.05)
    fit = fit_ardl(f, QUAD, LagOrder(1, (0, 0)))
    res = bounds_test(fit)
    assert isinstance(res, BoundsTestResult)
    assert res.k == 2
    assert res.f_stat > 0
    assert res.significance_used == 0.05
    assert set(res.bounds) == {0.01, 0.05}
    assert res.decision == Decision.COINTEGRATED


def test_bounds_test_override_and_boundary():
    f = _quad_frame(80, seed=4)
    fit = fit_ardl(f, QUAD, LagOrder(1, (0, 0)))
    fval = bounds_test(fit).f_stat
    eps = 1e-9
    low = bounds_test(fit, bounds={0.05: (fval + 1.0, fval + 2.0)})
    assert low.decision == Decision.NOT_COINTEGRATED
    at_lower = bounds_test(fit, bounds={0.05: (fval, fval + 1.0)})
    assert at_lower.decision == Decision.INCONCLUSIVE
    at_upper = bounds_test(fit, bounds={0.05: (fval - 1.0, fval)})
    assert at_upper.decision == Decision.INCONCLUSIVE
    above = bounds_test(fit, bounds={0.05: (fval - 2.0, fval - 1.0 - eps)})
    assert above.decision == Decision.COINTEGRATED
    assert low.bound_pair().source == "override"


def test_bounds_test_missing_significance():
    f = _quad_frame(80, seed=4)
    fit = fit_ardl(f, QUAD, LagOrder(1, (0, 0)))
    with pytest.raises(ValueError, match="no bounds available"):
        bounds_test(fit, significance=0.10)


def test_bounds_test_bit_identical_rerun():
    f = _quad_frame(90, seed=9)
    r1 = bounds_test(fit_ardl(f, QUAD, LagOrder(2, (1, 0))))
    r2 = bounds_test(fit_ardl(f, QUAD, LagOrder(2, (1, 0))))
    assert r1.f_stat == r2.f_stat
    assert r1.decision == r2.decision

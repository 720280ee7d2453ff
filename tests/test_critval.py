import numpy as np
import pytest

import ardlkit.critval as critval
from ardlkit.critval import ALPHAS, McConfig, simulate_bounds
from ardlkit.regression import inverse_upper

from oracles import substream

# small runs keep the unit suite fast; the full 20000-replication check
# with tight tolerance lives in the acceptance tests
FAST = McConfig(k=2, n_obs=58, replications=1500, seed=42, bootstrap_replications=60)


@pytest.fixture(scope="module")
def fast_run():
    return simulate_bounds(FAST)


def test_config_validation():
    with pytest.raises(ValueError, match="k must"):
        McConfig(k=0, n_obs=58)
    with pytest.raises(ValueError, match="n_obs"):
        McConfig(k=2, n_obs=10)
    with pytest.raises(ValueError, match="replications"):
        McConfig(k=2, n_obs=58, replications=100)
    with pytest.raises(ValueError, match="unsupported case"):
        McConfig(k=2, n_obs=58, case="trend")
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(ValueError, match="seed"):
            McConfig(k=2, n_obs=58, seed=seed)
    # substream indices replications x _MAX_ATTEMPTS must fit 32 bits
    with pytest.raises(ValueError, match="replications"):
        McConfig(k=2, n_obs=58, replications=2**32 // critval._MAX_ATTEMPTS + 1)
    McConfig(k=2, n_obs=58, replications=2**32 // critval._MAX_ATTEMPTS, seed=2**70)


def test_workers_must_be_positive():
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            simulate_bounds(FAST, workers=workers)


def test_bounds_near_published_small_run(fast_run):
    # 1500 reps put the quantile Monte Carlo error near 0.1; stay well clear
    lo, hi = fast_run.bounds[0.05]
    assert lo == pytest.approx(3.368, abs=0.45)
    assert hi == pytest.approx(4.205, abs=0.45)


def test_lower_below_upper_all_alphas(fast_run):
    for alpha in ALPHAS:
        lo, hi = fast_run.bounds[alpha]
        assert lo < hi


def test_quantile_monotone_in_alpha(fast_run):
    b = fast_run.bounds
    assert b[0.10][0] < b[0.05][0] < b[0.01][0]
    assert b[0.10][1] < b[0.05][1] < b[0.01][1]


def test_stochastic_dominance_of_upper_population(fast_run):
    from scipy.stats import ks_2samp

    res = ks_2samp(fast_run.f_lower, fast_run.f_upper, alternative="greater")
    assert res.pvalue < 1e-6          # lower-population CDF sits above
    assert np.median(fast_run.f_lower) < np.median(fast_run.f_upper)


def test_deterministic_given_seed(fast_run):
    again = simulate_bounds(FAST)
    np.testing.assert_array_equal(fast_run.f_lower, again.f_lower)
    np.testing.assert_array_equal(fast_run.f_upper, again.f_upper)
    assert fast_run.bounds == again.bounds
    assert fast_run.stderrs == again.stderrs


def test_worker_count_does_not_change_result(fast_run):
    cfg = McConfig(k=2, n_obs=40, replications=1000, seed=7, bootstrap_replications=40)
    serial = simulate_bounds(cfg, workers=1)
    parallel = simulate_bounds(cfg, workers=3)
    np.testing.assert_array_equal(serial.f_lower, parallel.f_lower)
    np.testing.assert_array_equal(serial.f_upper, parallel.f_upper)
    assert serial.bounds == parallel.bounds


def test_bootstrap_se_shrinks_with_replications():
    small = simulate_bounds(
        McConfig(k=2, n_obs=40, replications=1500, seed=11, bootstrap_replications=150)
    )
    big = simulate_bounds(
        McConfig(k=2, n_obs=40, replications=6000, seed=11, bootstrap_replications=150)
    )
    # quadrupling replications should halve the quantile standard error
    for alpha in (0.10, 0.05):
        for side in (0, 1):
            ratio = small.stderrs[alpha][side] / big.stderrs[alpha][side]
            assert 1.4 < ratio < 2.9


def test_f_populations_nonnegative(fast_run):
    assert (fast_run.f_lower >= 0).all()
    assert (fast_run.f_upper >= 0).all()
    assert fast_run.n_resampled == 0


def test_f_stat_matches_direct_ols_route():
    # independent route: full OLS fit and explicit restricted comparison
    from ardlkit.regression import ols

    rng = np.random.default_rng(3)
    n, k = 50, 2
    dep = np.cumsum(rng.standard_normal(n))
    regs = np.cumsum(rng.standard_normal((n, k)), axis=0)
    f = critval._f_stat(dep, regs)

    y = np.diff(dep)
    X = np.column_stack([np.ones(n - 1), dep[:-1], regs[:-1, :]])
    fit = ols(X, y)
    rss_r = float(y @ y)
    p = X.shape[1]
    expect = ((rss_r - fit.rss) / p) / (fit.rss / fit.dof)
    assert f == pytest.approx(expect, rel=1e-10)


def _reference_pair(cfg, i, attempt=0):
    """F pair of replication i through the per-system reference kernel."""
    n, k = cfg.n_obs, cfg.k
    rng = substream(cfg.seed, 0, attempt * cfg.replications + i)
    dep = np.cumsum(rng.standard_normal(n))
    noise = rng.standard_normal((n, k))
    walk = np.cumsum(rng.standard_normal((n, k)), axis=0)
    return critval._f_stat(dep, noise), critval._f_stat(dep, walk)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("domain", [0, 1])
def test_substream_keys_match_seed_sequence(seed, domain):
    chunk, block = critval._CHUNK, critval._KEY_BLOCK
    indices = [0, 1, chunk - 1, chunk, block - 1, block, block + 1, 20000, 2**31, 2**32 - 1]
    keys = critval._substream_keys(seed, domain, np.array(indices))
    for i, key in zip(indices, keys):
        ss = np.random.SeedSequence(seed, spawn_key=(domain, i))
        assert key == ss.generate_state(2, np.uint64).tolist(), i


def _oracle_run(cfg):
    """simulate_bounds by the per-replication route: numpy's own substream
    objects, three draws per replication, np.quantile per bootstrap draw."""
    n, k, reps = cfg.n_obs, cfg.k, cfg.replications
    dep = np.empty((reps, n))
    noise = np.empty((reps, n, k))
    walk = np.empty((reps, n, k))
    for i in range(reps):
        rng = substream(cfg.seed, 0, i)
        dep[i] = np.cumsum(rng.standard_normal(n))
        noise[i] = rng.standard_normal((n, k))
        walk[i] = np.cumsum(rng.standard_normal((n, k)), axis=0)
    f_low, f_up = critval._f_batch(dep, noise), critval._f_batch(dep, walk)
    assert not (np.isnan(f_low).any() or np.isnan(f_up).any())
    qs = [1.0 - alpha for alpha in ALPHAS]
    boot = np.empty((cfg.bootstrap_replications, 2, len(qs)))
    for b in range(cfg.bootstrap_replications):
        idx = substream(cfg.seed, 1, b).integers(0, reps, size=reps)
        boot[b] = [np.quantile(f_low[idx], qs), np.quantile(f_up[idx], qs)]
    bounds = {
        alpha: (float(np.quantile(f_low, q)), float(np.quantile(f_up, q)))
        for alpha, q in zip(ALPHAS, qs)
    }
    stderrs = {
        alpha: (float(np.std(boot[:, 0, a], ddof=1)), float(np.std(boot[:, 1, a], ddof=1)))
        for a, alpha in enumerate(ALPHAS)
    }
    return f_low, f_up, bounds, stderrs


@pytest.mark.parametrize("k, n_obs, seed", [(1, 20, 2**40 + 7), (2, 58, 0), (7, 20, 3)])
def test_simulation_matches_per_replication_oracle(k, n_obs, seed):
    cfg = McConfig(k=k, n_obs=n_obs, replications=1000, seed=seed, bootstrap_replications=25)
    f_low, f_up, bounds, stderrs = _oracle_run(cfg)
    for workers in (1, 2):
        res = simulate_bounds(cfg, workers=workers)
        np.testing.assert_array_equal(res.f_lower, f_low)
        np.testing.assert_array_equal(res.f_upper, f_up)
        assert res.bounds == bounds
        assert res.stderrs == stderrs
        assert res.n_resampled == 0


@pytest.mark.parametrize("reps", [1000, 1006])
def test_bootstrap_quantiles_equal_np_quantile(reps):
    qs = np.array([1.0 - alpha for alpha in ALPHAS])
    gamma = (reps - 1) * qs % 1.0
    # 1000 interpolates with every gamma below 0.5, 1006 with some above
    assert (gamma < 0.5).all() if reps == 1000 else (gamma >= 0.5).any()
    rng = np.random.default_rng(reps)
    f_low = np.round(rng.chisquare(3, reps), 1)       # many tied values
    f_up = rng.chisquare(4, reps)
    f_up[::5] = f_up[0]                               # one value a fifth of the time
    cfg = McConfig(k=1, n_obs=20, replications=reps, seed=5, bootstrap_replications=30)
    boot = critval._bootstrap_quantiles(cfg, (f_low, f_up))
    for b in range(cfg.bootstrap_replications):
        idx = substream(cfg.seed, 1, b).integers(0, reps, size=reps)
        np.testing.assert_array_equal(boot[b, 0], np.quantile(f_low[idx], qs))
        np.testing.assert_array_equal(boot[b, 1], np.quantile(f_up[idx], qs))


def test_screen_rejects_rank_deficient_systems():
    rng = np.random.default_rng(8)
    c, n, p = 20, 40, 4
    A = rng.standard_normal((c, n, p + 1))
    A[:, :, 0] = 1.0
    A[0, :, 2] = 2.0                                   # collinear with the intercept
    A[1, :, 3] = A[1, :, 1] + 1e-12 * rng.standard_normal(n)   # below 10 x RANK_RTOL
    A[2, :, 3] = A[2, :, 1] + 1e-6 * rng.standard_normal(n)    # well above it
    R = np.linalg.qr(A, mode="r")
    cleared = critval._screen(R)
    assert not cleared[0] and not cleared[1]
    assert cleared[2:].all()
    RX = R[2:, :p, :p]
    np.testing.assert_allclose(inverse_upper(RX), np.linalg.inv(RX), rtol=1e-8, atol=0)


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("n_obs", [20, 58])
def test_batched_f_matches_reference_kernel(k, n_obs):
    rng = np.random.default_rng(100 * k + n_obs)
    c = 40
    dep = np.cumsum(rng.standard_normal((c, n_obs)), axis=1)
    regs = rng.standard_normal((c, n_obs, k))
    regs[c // 2 :] = np.cumsum(regs[c // 2 :], axis=1)
    regs[3, :, 0] = 1.5          # collinear with the intercept: rank deficient
    f = critval._f_batch(dep, regs)
    for r in range(c):
        ref = critval._f_stat(dep[r], regs[r])
        if r == 3:
            assert ref is None and np.isnan(f[r])
        else:
            assert f[r] == pytest.approx(ref, rel=1e-10)


def test_replications_not_a_multiple_of_the_chunk():
    cfg = McConfig(k=2, n_obs=30, replications=1037, seed=4, bootstrap_replications=10)
    assert cfg.replications % critval._CHUNK != 0
    f_low, f_up, resampled = critval._simulate_range(cfg, 0, cfg.replications)
    assert resampled == 0
    tail = range(cfg.replications - cfg.replications % critval._CHUNK - 2, cfg.replications)
    for i in tail:
        ref_low, ref_up = _reference_pair(cfg, i)
        assert f_low[i] == pytest.approx(ref_low, rel=1e-10)
        assert f_up[i] == pytest.approx(ref_up, rel=1e-10)
    # any split of the range gives the same values
    head = critval._simulate_range(cfg, 0, 77)
    rest = critval._simulate_range(cfg, 77, cfg.replications)
    np.testing.assert_array_equal(f_low, np.concatenate([head[0], rest[0]]))
    np.testing.assert_array_equal(f_up, np.concatenate([head[1], rest[1]]))


def test_screen_failure_goes_through_reference_and_resample(monkeypatch):
    cfg = McConfig(k=1, n_obs=20, replications=1000, seed=3, bootstrap_replications=10)
    real_screen = critval._screen
    real_rss = critval.stacked_rss
    calls = {"n": 0}

    def screen_fails_first_rows(R):
        cleared = real_screen(R)
        cleared[:2] = False
        return cleared

    def flaky(A, z):
        calls["n"] += 1
        if calls["n"] <= 3:
            return np.full(len(A), np.nan)  # as for a rank-deficient system
        return real_rss(A, z)

    monkeypatch.setattr(critval, "_screen", screen_fails_first_rows)
    monkeypatch.setattr(critval, "stacked_rss", flaky)
    res = simulate_bounds(cfg)
    # the lower systems of replications 0 and 1 go to the reference kernel;
    # it fails both at attempt 0 and replication 0 again at attempt 1
    assert res.n_resampled == 3
    assert calls["n"] > 3
    for i, attempt in ((0, 2), (1, 1)):
        ref_low, ref_up = _reference_pair(cfg, i, attempt)
        assert res.f_lower[i] == ref_low
        assert res.f_upper[i] == pytest.approx(ref_up, rel=1e-10)


def test_resampling_counted_and_capped(monkeypatch):
    cfg = McConfig(k=1, n_obs=20, replications=1000, seed=3, bootstrap_replications=10)
    real = critval._f_batch
    calls = {"n": 0}

    def flaky(dep, regressors):
        calls["n"] += 1
        f = real(dep, regressors)
        if calls["n"] <= 2:
            f[0] = np.nan
        return f

    monkeypatch.setattr(critval, "_f_batch", flaky)
    res = simulate_bounds(cfg)
    assert res.n_resampled in (1, 2)   # first draws rejected, then recovery

    calls["n"] = 0
    monkeypatch.setattr(
        critval, "_f_batch", lambda dep, regressors: np.full(dep.shape[0], np.nan)
    )
    with pytest.raises(RuntimeError, match="resample attempts"):
        simulate_bounds(cfg)

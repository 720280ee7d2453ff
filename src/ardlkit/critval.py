"""Monte Carlo estimation of small-sample bounds critical values.

Each replication draws an independent random-walk dependent series under the
no-cointegration null, plus k regressors: serially uncorrelated noise for
the lower-bound population, independent random walks for the upper. The
bounds regression (first difference on intercept and lagged levels) gives
one F per population per replication; bounds are upper-tail quantiles.

The F restriction covers the intercept together with the level block (the
restricted model has no regressors at all). This is the variant whose
quantiles line up with the published small-sample tables; restricting the
levels alone sits several tenths higher.

Replications are fitted _CHUNK at a time with one batched float64 QR; a
system that the batch cannot certify goes through the long-double reference
kernel `_f_stat`, so rank failures and resampling follow that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regression import RANK_RTOL, _rss_only

__all__ = ["McBounds", "McConfig", "simulate_bounds"]

ALPHAS = (0.10, 0.05, 0.01)

_MAX_ATTEMPTS = 50

# Replications per batched QR. At k=2, n=58 a chunk's stacked [X | y] of
# both populations is about 0.3 MB. Larger chunks run no faster (drawing the
# per-replication substreams dominates) and raise peak resident memory.
_CHUNK = 64

# `_screen` thresholds: the margin over RANK_RTOL absorbs rounding in the
# reference kernel's own rank test, and the RSS floor keeps F's float64
# error far below 1e-10 relative.
_SCREEN_RTOL = 10 * RANK_RTOL
_RSS_FLOOR = 1e-8


@dataclass(frozen=True)
class McConfig:
    k: int
    n_obs: int
    replications: int = 20000
    seed: int = 0
    bootstrap_replications: int = 200
    case: str = "intercept_no_trend"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_obs < 20:
            raise ValueError("n_obs must be >= 20")
        if self.replications < 1000:
            raise ValueError("replications must be >= 1000")
        if self.bootstrap_replications < 2:
            raise ValueError("bootstrap_replications must be >= 2")
        if self.case != "intercept_no_trend":
            raise ValueError(f"unsupported case {self.case!r}")


@dataclass(frozen=True)
class McBounds:
    """Empirical bounds per significance with bootstrap quantile errors."""

    config: McConfig
    bounds: dict[float, tuple[float, float]]
    stderrs: dict[float, tuple[float, float]]
    n_resampled: int
    f_lower: np.ndarray
    f_upper: np.ndarray

    def __post_init__(self):
        for a in (self.f_lower, self.f_upper):
            a.setflags(write=False)


def _stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent substream (domain, index) of the root seed.

    Uses the spawn-key mechanism of numpy's SeedSequence over the Philox
    counter generator, so any (domain, index) pair is reachable directly and
    the draw is identical no matter which worker produces it.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(domain, index))
    return np.random.Generator(np.random.Philox(ss))


def _f_stat(dep: np.ndarray, regressors: np.ndarray) -> float | None:
    """Bounds-test F for one simulated system, None on rank failure.

    The long-double reference kernel: `_f_batch` defers to it for every
    system its screen does not clear.
    """
    y = np.diff(dep)
    X = np.column_stack([np.ones(y.size), dep[:-1], regressors[:-1, :]])
    p = X.shape[1]
    dof = y.size - p
    if dof <= 0:
        raise ValueError(f"n_obs too small: {dof} residual degrees of freedom")
    rss_full = _rss_only(X, y)
    if rss_full is None or rss_full <= 0.0:
        return None
    yl = y.astype(np.longdouble)
    rss_restricted = float(yl @ yl)
    f = ((rss_restricted - rss_full) / p) / (rss_full / dof)
    return max(float(f), 0.0)


def _draws(cfg: McConfig, indices: np.ndarray, attempt: int):
    """Stacked draws of the given replications at one resample attempt.

    Replication i at attempt a reads substream (0, a * replications + i):
    n normals for the dependent walk's increments, then n x k noise
    regressors, then n x k increments of the walk regressors, all from one
    `standard_normal` call. Returns dep (c, n), noise and walk (c, n, k).
    """
    n, k = cfg.n_obs, cfg.k
    z = np.empty((indices.size, n * (1 + 2 * k)))
    for row, i in zip(z, indices.tolist()):
        _stream(cfg.seed, 0, attempt * cfg.replications + i).standard_normal(out=row)
    dep = np.cumsum(z[:, :n], axis=1)
    noise = z[:, n : n + n * k].reshape(-1, n, k)
    walk = np.cumsum(z[:, n + n * k :].reshape(-1, n, k), axis=1)
    return dep, noise, walk


def _screen(R: np.ndarray) -> np.ndarray:
    """Systems whose float64 factor R of [X | y] may stand in for `_f_stat`.

    A system is cleared when a certified lower bound on sigma_min(X) is above
    _SCREEN_RTOL times X's largest column norm, so the reference kernel's
    pivoted rank test (RANK_RTOL) would pass it, and when its RSS is above
    _RSS_FLOOR times y'y, so R's last diagonal entry carries enough digits.
    """
    p = R.shape[-1] - 1
    RX = R[:, :p, :p]
    s = np.linalg.svd(RX, compute_uv=False)
    # QR and SVD are backward stable: the computed singular values are within
    # a small multiple of eps * sigma_max of the exact ones of X
    sigma_low = s[:, -1] - 64 * p * np.finfo(float).eps * s[:, 0]
    largest_col = np.sqrt(np.einsum("rij,rij->rj", RX, RX).max(axis=1))
    rss = R[:, p, p] ** 2
    yy = np.einsum("ri,ri->r", R[:, :, p], R[:, :, p])
    return (sigma_low > _SCREEN_RTOL * largest_col) & (rss > _RSS_FLOOR * yy)


def _f_batch(dep: np.ndarray, regressors: np.ndarray) -> np.ndarray:
    """Bounds-test F of each stacked system; NaN where `_f_stat` gives None.

    dep is (c, n) and regressors (c, n, k). One batched QR of [X | y] gives
    each full-model RSS as the square of R's last diagonal entry and the
    explained sum of squares y'y - RSS as the square norm of the column
    above it. Systems that `_screen` does not clear are recomputed by the
    reference kernel `_f_stat`.
    """
    c, n = dep.shape
    p = regressors.shape[2] + 2
    A = np.empty((c, n - 1, p + 1))
    A[:, :, 0] = 1.0
    A[:, :, 1] = dep[:, :-1]
    A[:, :, 2:p] = regressors[:, :-1, :]
    A[:, :, p] = np.diff(dep, axis=1)
    R = np.linalg.qr(A, mode="r")
    ess = np.einsum("ri,ri->r", R[:, :p, p], R[:, :p, p])
    rss = R[:, p, p] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):  # rss 0 fails the screen
        f = (ess / p) / (rss / (n - 1 - p))
    for r in np.flatnonzero(~_screen(R)):
        ref = _f_stat(dep[r], regressors[r])
        f[r] = np.nan if ref is None else ref
    return f


def _simulate_range(cfg: McConfig, lo: int, hi: int):
    """F pairs for replication indices [lo, hi); resamples on rank failure.

    Works through _CHUNK replications at a time. A replication whose lower
    or upper system is rank deficient is drawn again from its next
    substream, up to _MAX_ATTEMPTS times; each failed attempt counts once.
    """
    n, k = cfg.n_obs, cfg.k
    dof = n - 1 - (k + 2)
    if dof <= 0:
        raise ValueError(f"n_obs too small: {dof} residual degrees of freedom")
    f_low = np.empty(hi - lo)
    f_up = np.empty(hi - lo)
    resampled = 0
    for start in range(lo, hi, _CHUNK):
        pending = np.arange(start, min(start + _CHUNK, hi))
        for attempt in range(_MAX_ATTEMPTS):
            dep, noise, walk = _draws(cfg, pending, attempt)
            f = _f_batch(np.concatenate([dep, dep]), np.concatenate([noise, walk]))
            fl, fu = f[: pending.size], f[pending.size :]
            ok = ~(np.isnan(fl) | np.isnan(fu))
            f_low[pending[ok] - lo] = fl[ok]
            f_up[pending[ok] - lo] = fu[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            resampled += pending.size
        else:
            raise RuntimeError(
                f"replication {pending[0]} failed {_MAX_ATTEMPTS} resample attempts"
            )
    return f_low, f_up, resampled


def simulate_bounds(cfg: McConfig, workers: int = 1) -> McBounds:
    """Monte Carlo lower/upper critical bounds for cfg's (k, n_obs).

    Deterministic given cfg.seed and invariant to `workers`: every
    replication has its own generator substream, and quantiles are taken in
    one pass after all F values are collected. Rank-deficient draws are
    resampled from fresh substreams; more than 1% of them is an error.
    """
    reps = cfg.replications
    if workers <= 1:
        f_low, f_up, resampled = _simulate_range(cfg, 0, reps)
    else:
        edges = np.linspace(0, reps, workers + 1).astype(int)
        chunks = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        f_low = np.empty(reps)
        f_up = np.empty(reps)
        resampled = 0
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_simulate_range, cfg, a, b) for a, b in chunks]
            for (a, b), fut in zip(chunks, futures):
                part_low, part_up, part_res = fut.result()
                f_low[a:b] = part_low
                f_up[a:b] = part_up
                resampled += part_res

    if resampled > 0.01 * reps:
        raise RuntimeError(
            f"{resampled} rank-failure resamples out of {reps} replications (> 1%)"
        )

    bounds = {
        alpha: (
            float(np.quantile(f_low, 1.0 - alpha)),
            float(np.quantile(f_up, 1.0 - alpha)),
        )
        for alpha in ALPHAS
    }

    # paired bootstrap over replications for quantile standard errors
    B = cfg.bootstrap_replications
    qs = [1.0 - alpha for alpha in ALPHAS]
    boot = {alpha: np.empty((B, 2)) for alpha in ALPHAS}
    for b in range(B):
        idx = _stream(cfg.seed, 1, b).integers(0, reps, size=reps)
        for side, f in enumerate((f_low, f_up)):
            for alpha, q in zip(ALPHAS, np.quantile(f[idx], qs)):
                boot[alpha][b, side] = q
    stderrs = {
        alpha: (
            float(np.std(boot[alpha][:, 0], ddof=1)),
            float(np.std(boot[alpha][:, 1], ddof=1)),
        )
        for alpha in ALPHAS
    }

    return McBounds(
        config=cfg,
        bounds=bounds,
        stderrs=stderrs,
        n_resampled=resampled,
        f_lower=f_low,
        f_upper=f_up,
    )

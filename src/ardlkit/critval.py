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

Every replication and every bootstrap draw reads its own substream: the
Philox generator numpy seeds from SeedSequence(seed, spawn_key=(domain, i)).
The substream keys are hashed in bulk and one generator is reset to each key
in turn, so the draws are numpy's own without a SeedSequence, Philox and
Generator per substream.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .regression import RANK_RTOL, inverse_upper, stacked_rss

__all__ = ["McBounds", "McConfig", "simulate_bounds"]

ALPHAS = (0.10, 0.05, 0.01)

_MAX_ATTEMPTS = 50

# Substream indices must fit one 32-bit spawn-key word (see _substream_keys).
_MAX_INDEX = 2**32

# Replications per batched QR. At k=2, n=58 a chunk's stacked [X | y] of
# both populations is about 0.3 MB. Larger chunks run no faster and raise
# peak resident memory.
_CHUNK = 64

# Replications whose substream keys are hashed together; a multiple of
# _CHUNK. Hashing costs about 0.2 us a key in blocks this size and about
# 1.7 us in blocks of one chunk.
_KEY_BLOCK = 1024

# `_screen` thresholds: the margin over RANK_RTOL absorbs rounding in the
# reference kernel's own rank test, and the RSS floor keeps F's float64
# error far below 1e-10 relative.
_SCREEN_RTOL = 10 * RANK_RTOL
_RSS_FLOOR = 1e-8

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), a fixed
# algorithm over uint32 words: a pool of 4 words, hashmix/mix with these
# constants, then generate_state.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


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
        if self.replications * _MAX_ATTEMPTS > _MAX_INDEX:
            raise ValueError(f"replications must be <= {_MAX_INDEX // _MAX_ATTEMPTS}")
        if self.bootstrap_replications > _MAX_INDEX:
            raise ValueError(f"bootstrap_replications must be <= {_MAX_INDEX}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
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


def _substream_keys(seed: int, domain: int, indices: np.ndarray) -> list[list[int]]:
    """Philox keys of substreams (domain, i) of the root seed, one per index.

    Key j is SeedSequence(seed, spawn_key=(domain, indices[j]))
    .generate_state(2, np.uint64), the key Philox takes from that seed
    sequence. The entropy words are the seed's (zero-padded to the pool
    size), the domain, then the index; everything before the index is mixed
    once in Python, and the index is mixed for all indices at once in uint32
    arithmetic. Indices must be below _MAX_INDEX, which McConfig checks.
    """
    words = []
    rest = int(seed)
    while True:
        words.append(rest & _MASK32)
        rest >>= 32
        if not rest:
            break
    words += [0] * (_POOL_SIZE - len(words)) + [domain]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))

    # the index is the last entropy word: mix it into each pool word, then
    # generate_state's hash turns the pool into the four key words
    index = np.asarray(indices, dtype=np.uint32)
    state = np.empty((_POOL_SIZE, index.size), dtype=np.uint64)
    out_const = _INIT_B
    for i_dst in range(_POOL_SIZE):
        value = index ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(_XSHIFT)
        word = np.uint32((_MIX_MULT_L * pool[i_dst]) & _MASK32) - np.uint32(_MIX_MULT_R) * value
        word ^= word >> np.uint32(_XSHIFT)
        word ^= np.uint32(out_const)
        out_const = (out_const * _MULT_B) & _MASK32
        word *= np.uint32(out_const)
        word ^= word >> np.uint32(_XSHIFT)
        state[i_dst] = word
    # uint64 key words are little-endian pairs of the uint32 words
    return (state[0::2] | (state[1::2] << np.uint64(32))).T.tolist()


def _generator() -> np.random.Generator:
    """A Philox generator for `_seek` to move between substreams."""
    return np.random.Generator(np.random.Philox(0))


def _seek(gen: np.random.Generator, key: list[int]) -> np.random.Generator:
    """gen at the start of the Philox stream with this key.

    The state is that of a fresh Philox seeded with the key's SeedSequence:
    counter 0 and an empty output buffer.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


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
    yl = y.astype(np.longdouble)
    rss_full = stacked_rss(X.astype(np.longdouble)[None], yl[None].copy())[0]
    if not rss_full > 0.0:  # NaN (rank deficient) or a perfect fit
        return None
    rss_restricted = float(yl @ yl)
    f = ((rss_restricted - rss_full) / p) / (rss_full / dof)
    return max(float(f), 0.0)


def _draws(cfg: McConfig, gen: np.random.Generator, keys: list[list[int]]):
    """Stacked draws of the replications whose substream keys are given.

    Each replication reads n normals for the dependent walk's increments,
    then n x k noise regressors, then n x k increments of the walk
    regressors, all from one `standard_normal` call on its substream.
    Returns dep (c, n), noise and walk (c, n, k).
    """
    n, k = cfg.n_obs, cfg.k
    z = np.empty((len(keys), n * (1 + 2 * k)))
    for row, key in zip(z, keys):
        _seek(gen, key).standard_normal(out=row)
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = inverse_upper(RX)
        inv_norm = np.sqrt(np.einsum("rij,rij->r", inv, inv))
    # sigma_min(RX) >= 1 / ||RX^-1||_F (NaN fails the test below). Each
    # column of the computed inverse is exact for RX perturbed by at most
    # p * eps * |RX| (Higham, Accuracy and Stability, Thm 8.5), which moves
    # the bound by at most about p * eps * ||RX||_F; QR is backward stable
    # too, and the slack covers both.
    sigma_low = 1.0 / inv_norm - 64 * p * np.finfo(float).eps * np.sqrt(
        np.einsum("rij,rij->r", RX, RX)
    )
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
    Replication i at attempt a reads substream (0, a * replications + i).
    """
    n, k = cfg.n_obs, cfg.k
    dof = n - 1 - (k + 2)
    if dof <= 0:
        raise ValueError(f"n_obs too small: {dof} residual degrees of freedom")
    f_low = np.empty(hi - lo)
    f_up = np.empty(hi - lo)
    resampled = 0
    gen = _generator()
    for block in range(lo, hi, _KEY_BLOCK):
        block_end = min(block + _KEY_BLOCK, hi)
        block_keys = _substream_keys(cfg.seed, 0, np.arange(block, block_end))
        for start in range(block, block_end, _CHUNK):
            pending = np.arange(start, min(start + _CHUNK, block_end))
            keys = block_keys[start - block : start - block + pending.size]
            for attempt in range(_MAX_ATTEMPTS):
                if attempt:
                    keys = _substream_keys(cfg.seed, 0, attempt * cfg.replications + pending)
                dep, noise, walk = _draws(cfg, gen, keys)
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


def _bootstrap_quantiles(cfg: McConfig, populations) -> np.ndarray:
    """Quantiles 1 - ALPHAS of each population over the paired bootstrap.

    Returns (B, populations, ALPHAS). Draw b resamples the replication
    indices from substream (1, b). Each value equals np.quantile(f[idx], q)
    bit for bit: the resample's j-th order statistic is the sorted
    population's entry at the first position where the running count of
    drawn indices, taken in sorted order, exceeds j, and the interpolation
    is numpy's linear method.
    """
    reps = populations[0].size
    qs = np.array([1.0 - alpha for alpha in ALPHAS])
    virtual = (reps - 1) * qs
    below = np.floor(virtual)
    gamma = virtual - below
    below = below.astype(np.intp)
    ranks = np.concatenate([below, np.minimum(below + 1, reps - 1)])
    orders = [np.argsort(f, kind="stable") for f in populations]
    B = cfg.bootstrap_replications
    out = np.empty((B, len(populations), qs.size))
    running = np.empty(reps, dtype=np.intp)
    gen = _generator()
    for b, key in enumerate(_substream_keys(cfg.seed, 1, np.arange(B))):
        drawn = np.bincount(_seek(gen, key).integers(0, reps, size=reps), minlength=reps)
        for side, (f, order) in enumerate(zip(populations, orders)):
            np.take(drawn, order, out=running)
            np.cumsum(running, out=running)
            lower, upper = f[order[np.searchsorted(running, ranks, side="right")]].reshape(2, -1)
            diff = upper - lower
            out[b, side] = np.where(gamma >= 0.5, upper - diff * (1 - gamma), lower + diff * gamma)
    return out


def simulate_bounds(cfg: McConfig, workers: int = 1) -> McBounds:
    """Monte Carlo lower/upper critical bounds for cfg's (k, n_obs).

    Deterministic given cfg.seed and invariant to `workers`: every
    replication has its own generator substream, and quantiles are taken in
    one pass after all F values are collected. Rank-deficient draws are
    resampled from fresh substreams; more than 1% of them is an error.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    reps = cfg.replications
    if workers == 1:
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
    boot = _bootstrap_quantiles(cfg, (f_low, f_up))
    stderrs = {
        alpha: (
            float(np.std(boot[:, 0, a], ddof=1)),
            float(np.std(boot[:, 1, a], ddof=1)),
        )
        for a, alpha in enumerate(ALPHAS)
    }

    return McBounds(
        config=cfg,
        bounds=bounds,
        stderrs=stderrs,
        n_resampled=resampled,
        f_lower=f_low,
        f_upper=f_up,
    )

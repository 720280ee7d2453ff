"""Independent reference implementations used only by the test suite.

Each oracle takes a deliberately different route from the library code:
the high-precision least-squares oracle goes through the normal equations
(the library never does), the design-matrix oracle builds columns one
shift at a time from first principles, and the window oracle enumerates
every contiguous window by brute force.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _two_product_parts(a: np.ndarray, b: np.ndarray):
    """Error-free transformation: a*b == hi + lo exactly, element-wise."""
    hi = a * b
    ac = _SPLIT * a
    a_hi = ac - (ac - a)
    a_lo = a - a_hi
    bc = _SPLIT * b
    b_hi = bc - (bc - b)
    b_lo = b - b_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _dd_dot(a: np.ndarray, b: np.ndarray):
    """Dot product as a (sum, residual) double-double pair, exactly rounded."""
    hi, lo = _two_product_parts(a, b)
    parts = np.concatenate([hi, lo]).tolist()
    s = math.fsum(parts)
    r = math.fsum(parts + [-s])
    return s, r


def normal_equations_mp(X: np.ndarray, y: np.ndarray, dps: int = 30):
    """High-precision normal-equations solve.

    The gram matrix and X'y are accumulated in double-double arithmetic
    (error ~1e-32 relative), then the p x p gram is inverted once in mpmath
    and beta = G^-1 X'y. Returns (beta, inv_gram) as float64 arrays.
    Accurate to far below 1e-8 even at condition(X) = 1e8, where the gram's
    condition reaches 1e16.
    """
    p = np.shape(X)[1]
    with mp.workdps(dps):
        G, c = _gram_mp(X, y)
        Ginv = G ** -1
        beta = Ginv * c
        beta_out = np.array([float(beta[i]) for i in range(p)])
        ginv_out = np.array([[float(Ginv[i, j]) for j in range(p)] for i in range(p)])
    return beta_out, ginv_out


def rss_mp(X: np.ndarray, y: np.ndarray, dps: int = 40) -> float:
    """High-precision residual sum of squares y'y - c'G^-1 c of the least
    squares fit of y on X, with G = X'X and c = X'y accumulated in
    double-double as in `normal_equations_mp`."""
    y = np.asarray(y, dtype=np.float64)
    with mp.workdps(dps):
        G, c = _gram_mp(X, y)
        s, r = _dd_dot(y, y)
        return float(mp.mpf(s) + mp.mpf(r) - (c.T * G ** -1 * c)[0])


def _gram_mp(X: np.ndarray, y: np.ndarray):
    """(X'X, X'y) as mpmath matrices at the current precision, each entry a
    double-double dot product."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = X.shape[1]
    G = mp.matrix(p, p)
    c = mp.matrix(p, 1)
    for i in range(p):
        s, r = _dd_dot(X[:, i], y)
        c[i] = mp.mpf(s) + mp.mpf(r)
        for j in range(i, p):
            s, r = _dd_dot(X[:, i], X[:, j])
            G[i, j] = G[j, i] = mp.mpf(s) + mp.mpf(r)
    return G, c


def conditioned_problem(n: int, p: int, cond: float, resid_scale: float, rng):
    """Random least-squares problem with a prescribed condition number.

    X = U diag(s) V' with log-spaced singular values spanning `cond`;
    y = X b + noise. The residual scale is relative to ||X b||.
    """
    U, _ = np.linalg.qr(rng.standard_normal((n, p)))
    V, _ = np.linalg.qr(rng.standard_normal((p, p)))
    s = np.logspace(0.0, -math.log10(cond), p)
    X = U @ (s[:, None] * V.T)
    b = rng.standard_normal(p)
    signal = X @ b
    y = signal + resid_scale * np.linalg.norm(signal) / math.sqrt(n) * rng.standard_normal(n)
    return X, y


def student_t_pvalue_mp(t: float, dof: int, dps: int = 40) -> float:
    """Two-sided Student-t p-value via mpmath's incomplete beta."""
    with mp.workdps(dps):
        x = mp.mpf(dof) / (dof + mp.mpf(t) ** 2)
        v = mp.betainc(mp.mpf(dof) / 2, mp.mpf(1) / 2, 0, x, regularized=True)
        return float(v)


def longest_observed_window(masks: dict[str, np.ndarray]):
    """Brute-force maximal window over which every mask is True.

    masks maps name -> boolean array on a common year grid. Returns
    (start_index, length) of the first longest all-observed run, or None.
    """
    arrs = list(masks.values())
    length = len(arrs[0])
    joint = np.ones(length, dtype=bool)
    for a in arrs:
        joint &= a
    best = None
    for i in range(length):
        for j in range(i, length):
            if joint[i : j + 1].all():
                size = j - i + 1
                if best is None or size > best[1]:
                    best = (i, size)
    return best


def exact_rational_lstsq(X: np.ndarray, y: np.ndarray):
    """Exact least squares over the rationals (tiny problems only)."""
    n, p = X.shape
    Xf = [[Fraction(float(v)) for v in row] for row in X]
    yf = [Fraction(float(v)) for v in y]
    G = [[sum(Xf[t][i] * Xf[t][j] for t in range(n)) for j in range(p)] for i in range(p)]
    c = [sum(Xf[t][i] * yf[t] for t in range(n)) for i in range(p)]
    # Gaussian elimination without pivoting magnitude concerns (exact arithmetic)
    for i in range(p):
        if G[i][i] == 0:
            for k in range(i + 1, p):
                if G[k][i] != 0:
                    G[i], G[k] = G[k], G[i]
                    c[i], c[k] = c[k], c[i]
                    break
        piv = G[i][i]
        for k in range(i + 1, p):
            f = G[k][i] / piv
            for j in range(i, p):
                G[k][j] -= f * G[i][j]
            c[k] -= f * c[i]
    b = [Fraction(0)] * p
    for i in range(p - 1, -1, -1):
        acc = c[i] - sum(G[i][j] * b[j] for j in range(i + 1, p))
        b[i] = acc / G[i][i]
    return np.array([float(v) for v in b])


def naive_ardl_design(frame_cols, dependent, regressors, m, qs, lmax=None, intercept=True):
    """Cell-by-cell ARDL design builder, independent of the library's slicing.

    frame_cols maps column name -> 1-d level array on a gap-free sample.
    Returns (y, columns) where columns is an ordered name -> list mapping
    in the fixed layout: intercept, dependent difference lags 1..m,
    per-regressor difference lags 0..q, then every level at t-1.
    """
    n = len(frame_cols[dependent])
    L = max([m] + list(qs)) if lmax is None else lmax
    t0 = L + 1

    def d(name, t):
        v = frame_cols[name]
        return float(v[t]) - float(v[t - 1])

    ts = range(t0, n)
    y = [d(dependent, t) for t in ts]
    cols = {}
    if intercept:
        cols["const"] = [1.0 for _ in ts]
    for j in range(1, m + 1):
        cols[f"d_{dependent}_l{j}"] = [d(dependent, t - j) for t in ts]
    for name, q in zip(regressors, qs):
        for j in range(q + 1):
            key = f"d_{name}" if j == 0 else f"d_{name}_l{j}"
            cols[key] = [d(name, t - j) for t in ts]
    for name in (dependent,) + tuple(regressors):
        cols[f"{name}_lm1"] = [float(frame_cols[name][t - 1]) for t in ts]
    return y, cols


def substream(seed: int, domain: int, index: int) -> np.random.Generator:
    """numpy's own generator for substream (domain, index) of a root seed.

    A SeedSequence with spawn key (domain, index) seeds a Philox generator,
    one object chain per substream; the Monte Carlo code derives the same
    Philox keys in bulk and reuses one generator.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(domain, index))
    return np.random.Generator(np.random.Philox(ss))

"""Least-squares core: QR estimation, Wald F tests, SIC, and t-based significance.

Every least-squares fit in the package goes through one of two kernels,
never through the normal equations:

- `householder`, a column-pivoted Householder QR in extended precision
  (`np.longdouble`) that factors a stack of same-width systems at once and
  gives each system the bits it would get alone. `ols` is the only code
  that solves for coefficients: it factors its one system, checks rank with
  `weak_pivots` and takes beta and the covariance from the R^-1 that
  `inverse_upper` builds. Every caller that needs only a residual sum of
  squares reads `stacked_rss`: `wald_f`'s restricted refit and
  `critval._f_stat` on a stack of one, the SIC lag search on stacks of
  candidates.
- `critval._f_batch`, a batched float64 LAPACK QR (`np.linalg.qr`) of the
  Monte Carlo systems. Its `_screen` certifies each system's rank and RSS
  from the float64 factor; a system it does not clear falls back to the
  long-double `_f_stat`.

Rank problems fail loudly in `ols` with the offending column names.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OlsFit",
    "RankDeficientError",
    "Significance",
    "ols",
    "sic",
    "student_t_pvalue",
    "t_marks",
    "wald_f",
]

# Pivot magnitudes below RANK_RTOL times the largest pivot mark a column as
# linearly dependent on its predecessors.
RANK_RTOL = 1e-10


class RankDeficientError(ValueError):
    """Raised when the design matrix has (numerically) dependent columns."""

    def __init__(self, columns: tuple[str, ...]):
        self.columns = columns
        super().__init__(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(columns)
        )


class Significance(enum.Enum):
    """Coarsest two-sided significance level cleared by a t-ratio."""

    P1 = "1%"
    P5 = "5%"
    P10 = "10%"
    NONE = "none"

    @classmethod
    def from_pvalue(cls, p: float) -> "Significance":
        if p <= 0.01:
            return cls.P1
        if p <= 0.05:
            return cls.P5
        if p <= 0.10:
            return cls.P10
        return cls.NONE

    @property
    def threshold(self) -> float | None:
        """The level as a fraction, or None for NONE."""
        return {"1%": 0.01, "5%": 0.05, "10%": 0.10}.get(self.value)

    @property
    def letter(self) -> str:
        """Table superscript: a) for 1%, b) for 5%, c) for 10%."""
        return {"1%": "a)", "5%": "b)", "10%": "c)"}.get(self.value, "")

    def significant_at(self, alpha: float) -> bool:
        """True if this mark clears the two-sided level `alpha`."""
        t = self.threshold
        return t is not None and t <= alpha + 1e-12


@dataclass(frozen=True)
class OlsFit:
    """Result of an OLS fit.

    X and y are retained (read-only) so restricted models can be re-estimated
    for F tests.
    """

    coefficients: np.ndarray
    stderr: np.ndarray
    residuals: np.ndarray
    sigma2: float
    covariance: np.ndarray
    n_obs: int
    n_params: int
    column_names: tuple[str, ...]
    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    @property
    def rss(self) -> float:
        return float(self.residuals @ self.residuals)

    @property
    def dof(self) -> int:
        return self.n_obs - self.n_params


# ---- QR kernel ----------------------------------------------------------


def householder(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Column-pivoted Householder QR of a stack of B systems, in place.

    A is (B, n, p) and z is (B, n), both C-ordered np.longdouble. On
    return A[b] holds system b's R factor in its top p rows (zeros below
    the diagonal), z[b] is Q'z[b], and the returned piv (B, p) maps factor
    position to original column. Every system follows the single-system
    rules: at each step the remaining column norms are re-measured and the
    first maximum is the pivot, the reflector's sign avoids cancellation,
    and z is updated as z -= v * (v.z * 2 / v.v). Every sum runs in row
    order, so a system gets the same bits alone as in any stack.
    """
    if not A.flags.c_contiguous:  # the sums run in row order on row-major stacks only
        raise ValueError("householder needs a C-contiguous stack")
    B, n, p = A.shape
    at = np.arange(B)
    piv = np.tile(np.arange(p), (B, 1))
    for j in range(p):
        # Re-measure remaining columns each step; cheap at these sizes and
        # immune to the norm-downdating cancellation problem.
        S = A[:, j:, j:]
        k = j + _column_dots(S, S).argmax(axis=1)
        A[at, :, j], A[at, :, k] = A[at, :, k], A[at, :, j]
        piv[at, j], piv[at, k] = piv[at, k], piv[at, j]
        v = A[:, j:, j].copy()
        alpha = np.sqrt(_dots(v, v))
        np.negative(alpha, out=alpha, where=v[:, 0] > 0)
        v[:, 0] -= alpha
        vnorm2 = _dots(v, v)
        # v.v is 0 only when every remaining column is zero: the system is
        # rank deficient, and with v = 0 the update below only adds zeros
        vnorm2[vnorm2 == 0.0] = 1.0
        # column j itself is overwritten below, so only the rest is updated
        rest = A[:, j:, j + 1 :]
        w = _column_dots(rest, v) * (2.0 / vnorm2)[:, None]
        rest -= v[:, :, None] * w[:, None, :]
        A[:, j, j] = alpha
        A[:, j + 1 :, j] = 0.0
        z[:, j:] -= v * (_dots(v, z[:, j:]) * 2.0 / vnorm2)[:, None]
    return piv


def _column_dots(S: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(B, q) dot products of the columns of S (B, m, q) with u, which is S
    itself or a (B, m) stack of vectors, summed in row order."""
    # order="C" runs the row sum innermost, in one accumulator per column
    return np.einsum("bij,bij->bj" if u.ndim == 3 else "bij,bi->bj", S, u, order="C")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (B, m) stacks, summed in order."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def weak_pivots(A: np.ndarray) -> np.ndarray:
    """(B, p) mask of the pivots |R_jj| of factored systems that fall under
    RANK_RTOL of their system's largest; all of them when every one is zero."""
    d = np.abs(np.diagonal(A, axis1=1, axis2=2))
    largest = d.max(axis=1, initial=0.0)[:, None]
    return (d < RANK_RTOL * largest) | (largest == 0.0)


def stacked_rss(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """RSS of the least-squares fit of each z[b] on A[b], by `householder`,
    which overwrites both stacks.

    Returns float64 (B,), NaN where A[b] is rank deficient.
    """
    householder(A, z)
    # Householder leaves ||Q'y|| = ||y||; the tail beyond p is the residual.
    tail = z[:, A.shape[2] :]
    rss = _dots(tail, tail).astype(np.float64)
    rss[weak_pivots(A).any(axis=1)] = np.nan
    return rss


def inverse_upper(U: np.ndarray) -> np.ndarray:
    """Inverse of each stacked upper-triangular U (B, p, p), by back
    substitution.

    Row i of the inverse is solved from the rows below it, for all systems
    at once. A zero diagonal entry gives inf or NaN entries.
    """
    p = U.shape[-1]
    X = np.zeros_like(U)
    for i in range(p - 1, -1, -1):
        X[:, i, i] = 1.0
        X[:, i, i + 1 :] = -np.matmul(U[:, i : i + 1, i + 1 :], X[:, i + 1 :, i + 1 :])[:, 0]
        X[:, i, i:] /= U[:, i, i, None]
    return X


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---- public operations --------------------------------------------------


def ols(X, y, names: tuple[str, ...] | None = None) -> OlsFit:
    """Ordinary least squares via column-pivoted Householder QR.

    Parameters
    ----------
    X : (n, p) array_like
        Design matrix, n > p, full column rank.
    y : (n,) array_like
        Response.
    names : tuple of str, optional
        Column labels used in reports and error messages; defaults to
        ``x0..x{p-1}``.

    Returns
    -------
    OlsFit
        Coefficients, standard errors, residuals, sigma2 = RSS/(n-p), and
        covariance = sigma2 * (X'X)^{-1}, all derived from the decomposition.

    Raises
    ------
    RankDeficientError
        If any pivot falls below 1e-10 of the largest (naming the columns).
    ValueError
        If n <= p.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if names is None:
        names = tuple(f"x{j}" for j in range(p))
    if len(names) != p:
        raise ValueError("names length does not match column count")
    if n <= p:
        raise ValueError(f"need more observations than parameters (n={n}, p={p})")

    Xl, yl = X.astype(np.longdouble), y.astype(np.longdouble)
    A, z = Xl[None].copy(), yl[None].copy()
    piv = householder(A, z)[0]
    weak = weak_pivots(A)[0]
    if weak.all():
        raise RankDeficientError(tuple(names))
    if weak.any():
        raise RankDeficientError(tuple(names[piv[j]] for j in np.nonzero(weak)[0]))
    # beta = P R^{-1} Q'y, and (X'X)^{-1} = P R^{-1} R^{-T} P'
    Rinv = inverse_upper(A[:, :p])[0]
    beta = np.empty(p, dtype=np.longdouble)
    beta[piv] = Rinv @ z[0, :p]
    resid = yl - Xl @ beta
    dof = n - p
    sigma2 = float(resid @ resid) / dof
    inv_gram = np.empty((p, p), dtype=np.longdouble)
    inv_gram[np.ix_(piv, piv)] = Rinv @ Rinv.T
    cov = sigma2 * inv_gram
    cov = 0.5 * (cov + cov.T)  # exact symmetry
    stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))

    return OlsFit(
        coefficients=_freeze(beta.astype(np.float64)),
        stderr=_freeze(stderr.astype(np.float64)),
        residuals=_freeze(resid.astype(np.float64)),
        sigma2=sigma2,
        covariance=_freeze(cov.astype(np.float64)),
        n_obs=n,
        n_params=p,
        column_names=tuple(names),
        X=_freeze(X.copy()),
        y=_freeze(y.copy()),
    )


def wald_f(fit: OlsFit, restricted) -> float:
    """F statistic for the joint null that the given coefficients are zero.

    The restricted model's RSS is read from `stacked_rss` on the design with
    those columns deleted, and the statistic computed from the difference:

        F = ((RSS_r - RSS_f) / q) / (RSS_f / (n - p))

    An empty restriction compares the model with itself and returns 0.0.

    Raises
    ------
    RankDeficientError
        If the restricted design is rank deficient (naming the columns).
    ValueError
        If the restriction covers every column (no regressor remains), or if
        an index is out of range.
    """
    restricted = sorted(set(int(i) for i in restricted))
    p = fit.n_params
    if not restricted:
        return 0.0
    if any(i < 0 or i >= p for i in restricted):
        raise ValueError(f"restricted indices out of range 0..{p - 1}")
    if len(restricted) == p:
        raise ValueError("cannot restrict every column; no regressors would remain")

    keep = [j for j in range(p) if j not in restricted]
    X_r = fit.X[:, keep]
    A = np.ascontiguousarray(X_r, np.longdouble)[None]
    rss_r = stacked_rss(A, fit.y.astype(np.longdouble)[None])[0]
    if math.isnan(rss_r):
        # the same factorization fails in `ols`, which names the dependent columns
        ols(X_r, fit.y, tuple(fit.column_names[j] for j in keep))
    rss_f = fit.rss
    q = len(restricted)
    f = ((rss_r - rss_f) / q) / (rss_f / fit.dof)
    # RSS_r >= RSS_f mathematically; clip the rounding dust.
    return max(float(f), 0.0)


def sic_from_rss(rss, n: int, p: int):
    """Schwarz information criterion n*ln(RSS/n) + p*ln(n), element-wise.

    Lower is better. RSS <= 0 (a perfect fit) gives -inf, which sorts ahead
    of every real candidate; NaN stays NaN.
    """
    rss = np.asarray(rss, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = n * np.log(rss / n) + p * np.log(n)
    return np.where(rss <= 0.0, -np.inf, value)


def sic(fit: OlsFit) -> float:
    """Schwarz information criterion of a fit; see `sic_from_rss`."""
    return float(sic_from_rss(fit.rss, fit.n_obs, fit.n_params))


def t_mark(coef: float, se: float, dof: int) -> Significance:
    """Two-sided t significance mark of one coefficient.

    A zero standard error is numerically degenerate: a nonzero coefficient
    (the fit is exact in that direction) is marked 1% rather than dividing
    by zero, and a zero one is not significant.
    """
    if se == 0.0:
        return Significance.NONE if coef == 0.0 else Significance.P1
    return Significance.from_pvalue(student_t_pvalue(coef / se, dof))


def t_marks(fit: OlsFit) -> tuple[Significance, ...]:
    """`t_mark` of every coefficient, with a warning for each nonzero one
    whose standard error is zero."""
    if fit.dof < 1:
        raise ValueError("no residual degrees of freedom for t inference")
    for b, se, name in zip(fit.coefficients, fit.stderr, fit.column_names):
        if se == 0.0 and b != 0.0:
            warnings.warn(
                f"zero standard error for nonzero coefficient {name!r}; "
                "marking 1% (numerical degeneracy)",
                RuntimeWarning,
                stacklevel=2,
            )
    return tuple(t_mark(b, se, fit.dof) for b, se in zip(fit.coefficients, fit.stderr))


# ---- Student-t tail probability -----------------------------------------
#
# Computed from the regularized incomplete beta function so results do not
# depend on any external statistical library or platform-specific erf.


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    MAXIT = 300
    EPS = 3e-16
    FPMIN = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_pvalue(t: float, dof: int) -> float:
    """Two-sided p-value of a Student-t statistic with `dof` degrees of freedom."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    t = float(t)
    if not math.isfinite(t):
        return 0.0
    x = dof / (dof + t * t)
    return _betainc_reg(0.5 * dof, 0.5, x)

"""Tests for the least-squares core."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from ardlkit.regression import (
    OlsFit,
    RankDeficientError,
    Significance,
    householder,
    inverse_upper,
    ols,
    sic,
    sic_from_rss,
    stacked_rss,
    student_t_pvalue,
    t_mark,
    t_marks,
    wald_f,
)

from oracles import (
    conditioned_problem,
    exact_rational_lstsq,
    normal_equations_mp,
    rss_mp,
    student_t_pvalue_mp,
)


def _random_fit(rng, n=80, p=5):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    beta = rng.standard_normal(p)
    y = X @ beta + 0.5 * rng.standard_normal(n)
    return ols(X, y)


# ---- ols ----------------------------------------------------------------


def test_constant_fit():
    """A column of ones against a constant response is exact."""
    fit = ols(np.ones((3, 1)), np.array([2.0, 2.0, 2.0]))
    assert np.allclose(fit.coefficients, [2.0])
    assert np.allclose(fit.residuals, 0.0, atol=1e-15)


def test_exact_linear_fit_has_zero_rss():
    rng = np.random.default_rng(7)
    X = np.column_stack([np.ones(40), rng.standard_normal((40, 3))])
    y = X @ np.array([1.0, -2.0, 0.5, 3.0])
    fit = ols(X, y)
    assert fit.rss < 1e-18 * float(y @ y)


def test_matches_pseudoinverse_oracle():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((200, 6))
    y = X @ rng.standard_normal(6) + rng.standard_normal(200)
    fit = ols(X, y)
    ref = np.linalg.pinv(X) @ y
    assert np.linalg.norm(fit.coefficients - ref) <= 1e-9 * np.linalg.norm(ref)


def test_matches_exact_rational_oracle_small():
    rng = np.random.default_rng(23)
    X = np.column_stack([np.ones(12), rng.standard_normal((12, 2))])
    y = rng.standard_normal(12)
    fit = ols(X, y)
    ref = exact_rational_lstsq(X, y)
    assert np.allclose(fit.coefficients, ref, rtol=1e-12, atol=1e-14)


def test_covariance_matches_inverse_gram_well_conditioned():
    rng = np.random.default_rng(5)
    for _ in range(20):
        fit = _random_fit(rng)
        ref = fit.sigma2 * np.linalg.inv(fit.X.T @ fit.X)
        denom = np.linalg.norm(ref)
        assert np.linalg.norm(fit.covariance - ref) <= 1e-8 * denom


def test_high_precision_oracle_at_high_condition():
    """Coefficients and covariance agree with the normal-equations oracle
    even near condition 1e8 (a small preview of the acceptance run)."""
    rng = np.random.default_rng(31)
    for cond in (1e2, 1e5, 1e8):
        X, y = conditioned_problem(120, 8, cond, 1e-2, rng)
        fit = ols(X, y)
        beta_ref, ginv_ref = normal_equations_mp(X, y)
        cov_ref = fit.sigma2 * ginv_ref
        assert np.linalg.norm(fit.coefficients - beta_ref) <= 1e-8 * np.linalg.norm(beta_ref)
        assert np.linalg.norm(fit.covariance - cov_ref) <= 1e-8 * np.linalg.norm(cov_ref)


def test_residual_orthogonality_across_conditions():
    rng = np.random.default_rng(13)
    for _ in range(30):
        cond = 10.0 ** rng.uniform(0, 8)
        X, y = conditioned_problem(60, 6, cond, 0.1, rng)
        fit = ols(X, y)
        assert np.abs(fit.X.T @ fit.residuals).max() / fit.n_obs < 1e-8


def test_scale_equivariance():
    rng = np.random.default_rng(17)
    X = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
    y = X @ np.array([1.0, 2.0, -1.0, 0.5]) + 0.3 * rng.standard_normal(60)
    base = ols(X, y)
    c = 250.0
    Xs = X.copy()
    Xs[:, 2] *= c
    scaled = ols(Xs, y)
    assert np.isclose(scaled.coefficients[2], base.coefficients[2] / c, rtol=1e-10)
    assert np.isclose(scaled.stderr[2], base.stderr[2] / c, rtol=1e-10)
    assert np.isclose(wald_f(scaled, [2]), wald_f(base, [2]), rtol=1e-8)
    assert np.isclose(sic(scaled), sic(base), rtol=1e-8, atol=1e-8)


def test_column_permutation_permutes_coefficients():
    rng = np.random.default_rng(19)
    X = np.column_stack([np.ones(50), rng.standard_normal((50, 4))])
    y = rng.standard_normal(50)
    fit = ols(X, y)
    perm = [3, 0, 4, 1, 2]
    fit_p = ols(X[:, perm], y)
    assert np.allclose(fit_p.coefficients, fit.coefficients[perm], rtol=1e-11, atol=1e-14)


def _pivoting_problem(rng, n=60):
    """Columns scaled so that the pivoted QR takes them far out of order,
    with a response in which every column carries signal."""
    scales = np.array([1.0, 1e-3, 10.0, 1e2, 0.1, 1e3])
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 5))]) * scales
    beta = rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 1.0, 6) / scales
    y = X @ beta + 0.5 * rng.standard_normal(n)
    return X, y


def test_pivoted_coefficients_match_high_precision_oracle():
    rng = np.random.default_rng(71)
    for _ in range(5):
        X, y = _pivoting_problem(rng)
        piv = householder(X.astype(np.longdouble)[None], y.astype(np.longdouble)[None])[0]
        assert (piv != np.arange(6)).sum() >= 4
        fit = ols(X, y)
        beta_ref, ginv_ref = normal_equations_mp(X, y)
        # each coefficient lands on its own column, to near working precision
        np.testing.assert_allclose(fit.coefficients, beta_ref, rtol=1e-12, atol=0)
        se_ref = np.sqrt(fit.sigma2 * np.diag(ginv_ref))
        np.testing.assert_allclose(fit.stderr, se_ref, rtol=1e-12, atol=0)
        assert fit.rss == pytest.approx(rss_mp(X, y), rel=1e-12)


def test_rank_deficient_duplicate_column():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(30)
    X = np.column_stack([np.ones(30), a, 2.0 * a])
    with pytest.raises(RankDeficientError) as err:
        ols(X, rng.standard_normal(30), names=("const", "a", "twice_a"))
    assert "twice_a" in str(err.value) or "a" in str(err.value)


def test_rank_deficient_zero_column():
    with pytest.raises(RankDeficientError):
        ols(np.zeros((10, 1)), np.ones(10))


def test_too_few_observations():
    with pytest.raises(ValueError):
        ols(np.ones((3, 3)), np.ones(3))


def test_covariance_symmetric_psd():
    rng = np.random.default_rng(29)
    fit = _random_fit(rng)
    C = fit.covariance
    assert np.allclose(C, C.T, atol=1e-8)
    assert np.linalg.eigvalsh(C).min() > -1e-12


# ---- wald_f -------------------------------------------------------------


def test_wald_equals_quadratic_form():
    """RSS-difference route equals b'V^{-1}b/q on random fits and subsets."""
    rng = np.random.default_rng(41)
    for _ in range(15):
        fit = _random_fit(rng, n=100, p=6)
        k = int(rng.integers(1, 4))
        idx = sorted(rng.choice(6, size=k, replace=False).tolist())
        b = fit.coefficients[idx]
        V = fit.covariance[np.ix_(idx, idx)]
        quad = float(b @ np.linalg.solve(V, b)) / k
        assert np.isclose(wald_f(fit, idx), quad, rtol=1e-6)


def test_wald_matches_high_precision_rss_pair():
    rng = np.random.default_rng(73)
    n, p = 60, 6
    for _ in range(3):
        X, y = _pivoting_problem(rng, n)
        fit = ols(X, y)
        rss_f = rss_mp(X, y)
        for restricted in ([1], [0, 3], [2, 4, 5], [1, 2, 3, 4, 5]):
            keep = [j for j in range(p) if j not in restricted]
            q = len(restricted)
            ref = ((rss_mp(X[:, keep], y) - rss_f) / q) / (rss_f / (n - p))
            assert ref > 1.0
            assert wald_f(fit, restricted) == pytest.approx(ref, rel=1e-10)


def test_wald_rank_deficient_restricted_design_names_its_columns():
    # ols never returns such a fit; a fit whose retained X was altered
    # reaches the restricted refit's rank check
    rng = np.random.default_rng(79)
    a = rng.standard_normal(30)
    X = np.column_stack([np.ones(30), a, rng.standard_normal((30, 2))])
    fit = ols(X, rng.standard_normal(30), names=("const", "a", "b", "c"))
    bad = X.copy()
    bad[:, 2] = 2.0 * a
    with pytest.raises(RankDeficientError) as err:
        wald_f(dataclasses.replace(fit, X=bad), [3])
    assert err.value.columns == ("a",)
    assert "dependent columns: a" in str(err.value)


def test_wald_zero_for_exactly_zero_coefficient():
    n = 40
    ones = np.ones(n)
    alt = np.tile([1.0, -1.0], n // 2)
    rng = np.random.default_rng(43)
    z = rng.standard_normal(n)
    z -= (z @ ones) / n * ones
    z -= (z @ alt) / n * alt  # now orthogonal to both columns
    y = 2.0 * ones + z
    fit = ols(np.column_stack([ones, alt]), y)
    assert abs(fit.coefficients[1]) < 1e-14
    assert abs(wald_f(fit, [1])) < 1e-10


def test_wald_empty_restriction_is_zero():
    rng = np.random.default_rng(47)
    assert wald_f(_random_fit(rng), []) == 0.0


def test_wald_all_columns_error():
    rng = np.random.default_rng(53)
    fit = _random_fit(rng)
    with pytest.raises(ValueError):
        wald_f(fit, range(fit.n_params))


def test_wald_true_zero_rarely_rejects():
    """Restricting a pure-noise column stays below the 5% F critical value
    in at least 90% of seeds."""
    rng = np.random.default_rng(59)
    n, p = 500, 4
    crit = scipy.stats.f.ppf(0.95, 1, n - p)
    below = 0
    trials = 40
    for _ in range(trials):
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        y = X[:, :3] @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(n)
        fit = ols(X, y)
        if wald_f(fit, [3]) < crit:
            below += 1
    assert below >= 0.9 * trials


# ---- sic ----------------------------------------------------------------


def _fit_with_rss(n, p, rss):
    """Synthetic OlsFit carrying a prescribed RSS (for formula checks)."""
    resid = np.zeros(n)
    resid[0] = math.sqrt(rss)
    return OlsFit(
        coefficients=np.zeros(p),
        stderr=np.ones(p),
        residuals=resid,
        sigma2=rss / (n - p),
        covariance=np.eye(p),
        n_obs=n,
        n_params=p,
        column_names=tuple(f"x{i}" for i in range(p)),
        X=np.zeros((n, p)),
        y=np.zeros(n),
    )


def test_sic_closed_form():
    assert math.isclose(sic(_fit_with_rss(100, 2, 100.0)), 2.0 * math.log(100.0), abs_tol=1e-5)
    assert sic(_fit_with_rss(100, 2, 100.0)) == pytest.approx(9.21034, abs=1e-5)


def test_sic_zero_rss_sentinel():
    assert sic(_fit_with_rss(50, 3, 0.0)) == float("-inf")


def test_sic_nested_difference_identity():
    n = 120
    f1 = _fit_with_rss(n, 3, 17.0)
    f2 = _fit_with_rss(n, 5, 11.0)
    expected = n * math.log(17.0 / 11.0) + (3 - 5) * math.log(n)
    assert math.isclose(sic(f1) - sic(f2), expected, rel_tol=1e-12)


def test_sic_penalizes_pure_noise_regressor():
    rng = np.random.default_rng(61)
    n = 200
    worse = 0
    trials = 40
    for _ in range(trials):
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = X @ np.array([1.0, 2.0]) + rng.standard_normal(n)
        bigger = np.column_stack([X, rng.standard_normal(n)])
        if sic(ols(bigger, y)) > sic(ols(X, y)):
            worse += 1
    assert worse >= 0.9 * trials


def test_sic_from_rss_elementwise():
    rss = np.array([100.0, 0.0, -1.0, np.nan, 17.0])
    got = sic_from_rss(rss, 100, 2)
    assert got[0] == pytest.approx(2.0 * math.log(100.0))
    assert got[1] == got[2] == float("-inf")
    assert np.isnan(got[3])
    assert got[4] == sic(_fit_with_rss(100, 2, 17.0))


# ---- stacked Householder ------------------------------------------------


def _stack_problems(rng, B, n, p):
    """Random systems with the awkward cases mixed in: a duplicated column,
    a zero column, two columns with equal norms, badly scaled columns."""
    A = rng.standard_normal((B, n, p)) * 10.0 ** rng.integers(-3, 4, size=(B, 1, p))
    A[0, :, -1] = 2.0 * A[0, :, 0]
    A[1, :, 1 % p] = 0.0
    A[2, :, -1] = A[2, ::-1, 0]
    return A, rng.standard_normal((B, n))


@pytest.mark.parametrize("n,p", [(12, 1), (30, 7), (45, 20), (23, 22)])
def test_householder_stack_equals_single_systems(n, p):
    rng = np.random.default_rng(n * 100 + p)
    A, y = _stack_problems(rng, 9, n, p)
    stack, z = A.astype(np.longdouble), y.astype(np.longdouble)
    piv = householder(stack, z)
    for b in range(len(A)):
        one, z1 = A[b : b + 1].astype(np.longdouble), y[b : b + 1].astype(np.longdouble)
        piv1 = householder(one, z1)
        # bit for bit, including the pivot order
        assert np.array_equal(one[0], stack[b]) and np.array_equal(z1[0], z[b])
        assert np.array_equal(piv1[0], piv[b])
    rss = stacked_rss(A.astype(np.longdouble), y.astype(np.longdouble))
    for b in range(len(A)):
        single = stacked_rss(A[b : b + 1].astype(np.longdouble), y[b : b + 1].astype(np.longdouble))[0]
        assert (np.isnan(single) and np.isnan(rss[b])) or single == rss[b]
    assert np.isnan(rss[1]) and np.isnan(rss[0]) == (p > 1)


def test_inverse_upper_stack_equals_single_systems():
    rng = np.random.default_rng(3)
    A, y = _stack_problems(rng, 8, 30, 7)
    stack = A[3:].astype(np.longdouble)  # full-rank systems only
    householder(stack, y[3:].astype(np.longdouble))
    R = np.triu(stack[:, :7])
    inv = inverse_upper(R)
    assert inv.dtype == np.longdouble
    for b in range(len(R)):
        # bit for bit, as when the system is inverted alone
        assert np.array_equal(inverse_upper(R[b : b + 1])[0], inv[b])
        assert np.array_equal(inv[b], np.triu(inv[b]))
        np.testing.assert_allclose((R[b] @ inv[b]).astype(np.float64), np.eye(7), rtol=0, atol=1e-12)


def test_householder_factors_every_system():
    rng = np.random.default_rng(5)
    A, y = _stack_problems(rng, 6, 40, 8)
    stack = A.astype(np.longdouble)
    piv = householder(stack, y.astype(np.longdouble))
    for b in range(3, len(A)):
        R = stack[b, :8].astype(np.float64)
        assert np.allclose(R, np.triu(R))
        # X P = Q R, so R'R equals the Gram matrix of the permuted columns
        Xp = A[b][:, piv[b]]
        np.testing.assert_allclose(R.T @ R, Xp.T @ Xp, rtol=1e-12, atol=1e-9 * np.abs(Xp.T @ Xp).max())


def test_householder_needs_a_row_major_stack():
    A = np.zeros((2, 5, 3), dtype=np.longdouble).transpose(0, 2, 1).copy().transpose(0, 2, 1)
    with pytest.raises(ValueError, match="C-contiguous"):
        householder(A, np.zeros((2, 5), dtype=np.longdouble))


# ---- t p-values and marks ----------------------------------------------


def test_t_pvalue_against_scipy_grid():
    for dof in (1, 2, 3, 5, 10, 30, 50, 120, 500):
        for t in (0.0, 0.17, 0.5, 1.0, 1.5, 1.96, 2.5761, 3.0, 5.0, 10.0, 25.0):
            ref = 2.0 * scipy.stats.t.sf(abs(t), dof)
            assert np.isclose(student_t_pvalue(t, dof), ref, rtol=1e-8, atol=1e-12)


def test_t_pvalue_against_mpmath_spot():
    for t, dof in ((2.0, 10), (4.5, 37), (0.3, 200)):
        assert np.isclose(student_t_pvalue(t, dof), student_t_pvalue_mp(t, dof), rtol=1e-10)


def test_t_pvalue_symmetric_and_edge():
    assert student_t_pvalue(0.0, 10) == 1.0
    assert student_t_pvalue(-3.3, 21) == student_t_pvalue(3.3, 21)
    assert student_t_pvalue(10.0, 50) < 0.01


def test_marks_thresholds():
    assert Significance.from_pvalue(0.009) is Significance.P1
    assert Significance.from_pvalue(0.01) is Significance.P1
    assert Significance.from_pvalue(0.049) is Significance.P5
    assert Significance.from_pvalue(0.09) is Significance.P10
    assert Significance.from_pvalue(0.2) is Significance.NONE
    assert Significance.P5.significant_at(0.05)
    assert Significance.P1.significant_at(0.05)
    assert not Significance.P10.significant_at(0.05)
    assert Significance.P1.letter == "a)"
    assert Significance.NONE.letter == ""


def test_marks_on_fit():
    rng = np.random.default_rng(67)
    n = 300
    X = np.column_stack([np.ones(n), rng.standard_normal(n), rng.standard_normal(n)])
    y = 5.0 * X[:, 0] + 2.0 * X[:, 1] + 0.0 * X[:, 2] + rng.standard_normal(n)
    marks = t_marks(ols(X, y))
    assert marks[0] is Significance.P1
    assert marks[1] is Significance.P1
    assert marks[2] is Significance.NONE


def test_marks_zero_stderr_degeneracy():
    fit = OlsFit(
        coefficients=np.array([1.0, 0.0]),
        stderr=np.array([0.0, 0.0]),
        residuals=np.zeros(10),
        sigma2=0.0,
        covariance=np.zeros((2, 2)),
        n_obs=10,
        n_params=2,
        column_names=("a", "b"),
        X=np.zeros((10, 2)),
        y=np.zeros(10),
    )
    with pytest.warns(RuntimeWarning, match="zero standard error"):
        marks = t_marks(fit)
    assert marks[0] is Significance.P1
    assert marks[1] is Significance.NONE


def test_t_mark_is_the_rule_t_marks_applies():
    assert t_mark(1.0, 0.0, 10) is Significance.P1
    assert t_mark(0.0, 0.0, 10) is Significance.NONE
    assert t_mark(-3.0, 1.0, 50) is Significance.P1
    rng = np.random.default_rng(68)
    X = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
    fit = ols(X, X @ np.array([0.3, 0.2, 0.0, -0.1]) + rng.standard_normal(60))
    assert t_marks(fit) == tuple(t_mark(b, se, fit.dof) for b, se in zip(fit.coefficients, fit.stderr))

"""Long-run coefficients, turning points, shape classes, and the UECM.

The lagged-level block of the ARDL fit pins down the long-run relation:
each coefficient is minus the ratio of a level coefficient to the
dependent's own level coefficient, with delta-method standard errors. The
error-correction form then regresses the dependent difference on the same
short-run terms plus the lagged deviation from that relation; its
coefficient is the speed of adjustment.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .ardl import ArdlFit, LagOrder, ModelSpec, build_design
from .regression import OlsFit, Significance, ols, t_mark
from .timeseries import AlignedFrame, TimeSeries

__all__ = [
    "LongRunResult",
    "Shape",
    "UecmResult",
    "classify_shape",
    "estimate_uecm",
    "in_sample",
    "long_run",
    "turning_point",
]

_DELTA_DEP_TOL = 1e-12


class Shape(enum.Enum):
    INVERTED_U = "InvertedU"
    U_SHAPE = "UShape"
    MONOTONIC = "Monotonic"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class LongRunResult:
    """Normalized long-run relation implied by the level block."""

    spec: ModelSpec
    beta0: float | None
    beta0_stderr: float | None
    betas: dict[str, float]
    stderrs: dict[str, float]
    marks: dict[str, Significance]
    turning_point: float | None
    shape: Shape


@dataclass(frozen=True)
class UecmResult:
    """Error-correction regression built on a long-run relation."""

    phi: float
    phi_stderr: float
    phi_mark: Significance
    short_run: dict[str, float]
    ec_series: TimeSeries
    ols: OlsFit
    flags: tuple[str, ...] = ()


def _ratio_variance(cov: np.ndarray, j: int, d: int, delta_j: float, delta_dep: float) -> float:
    # beta = -delta_j / delta_dep; gradient (-1/delta_dep, delta_j/delta_dep^2)
    g_j = -1.0 / delta_dep
    g_d = delta_j / delta_dep**2
    var = g_j * g_j * cov[j, j] + 2.0 * g_j * g_d * cov[j, d] + g_d * g_d * cov[d, d]
    return max(var, 0.0)


def long_run(fit: ArdlFit) -> LongRunResult:
    """Long-run coefficients beta_j = -delta_j / delta_dep with delta-method
    standard errors, plus turning point and shape for the quadratic case.

    Raises ValueError when the dependent's level coefficient is numerically
    zero, since the relation is undefined without level adjustment.
    """
    spec = fit.spec
    coefs = fit.ols.coefficients
    cov = fit.ols.covariance
    names = fit.ols.column_names
    dof = fit.ols.dof

    dep_idx = fit.level_indices[0]
    delta_dep = float(coefs[dep_idx])
    if abs(delta_dep) <= _DELTA_DEP_TOL:
        raise ValueError("no level adjustment; long-run relation undefined")

    betas: dict[str, float] = {}
    stderrs: dict[str, float] = {}
    marks: dict[str, Significance] = {}
    for idx, level_name in zip(fit.level_indices[1:], spec.regressors):
        assert names[idx] == f"{level_name}_lm1"
        delta_j = float(coefs[idx])
        beta = -delta_j / delta_dep
        se = math.sqrt(_ratio_variance(cov, idx, dep_idx, delta_j, delta_dep))
        betas[level_name] = beta
        stderrs[level_name] = se
        marks[level_name] = t_mark(beta, se, dof)

    beta0 = beta0_se = None
    if spec.include_intercept:
        c_idx = names.index("const")
        raw = float(coefs[c_idx])
        beta0 = -raw / delta_dep
        beta0_se = math.sqrt(_ratio_variance(cov, c_idx, dep_idx, raw, delta_dep))

    tp = None
    if spec.income_order == 2:
        b2 = betas[spec.income + "2"]
        if b2 != 0.0:
            try:
                tp = turning_point(betas[spec.income], b2)
            except ValueError:
                tp = None       # implied optimum beyond floating-point range

    lr = LongRunResult(
        spec=spec,
        beta0=beta0,
        beta0_stderr=beta0_se,
        betas=betas,
        stderrs=stderrs,
        marks=marks,
        turning_point=tp,
        shape=Shape.INDETERMINATE,
    )
    return replace(lr, shape=classify_shape(lr)) if spec.income_order == 2 else lr


def turning_point(beta1: float, beta2: float) -> float:
    """Income level where the fitted log-quadratic peaks (or bottoms out).

    The log-income optimum is -beta1 / (2 beta2); the returned value is in
    original income units.
    """
    if beta2 == 0.0:
        raise ValueError("beta2 is zero; no interior extremum")
    x = -beta1 / (2.0 * beta2)
    try:
        return math.exp(x)
    except OverflowError:
        raise ValueError(f"turning point overflows: exp({x:.3g})") from None


def classify_shape(lr: LongRunResult, significance: float = 0.05) -> Shape:
    """Income-emissions shape from the two income coefficients.

    Both significant with (+, -) signs is the inverted U; (-, +) is the U;
    exactly one significant is monotonic; anything else is indeterminate.
    Quadratic specifications only.
    """
    if lr.spec.income_order != 2:
        raise ValueError("shape classification is defined for quadratic income only")
    income = lr.spec.income
    b1, b2 = lr.betas[income], lr.betas[income + "2"]
    s1 = lr.marks[income].significant_at(significance)
    s2 = lr.marks[income + "2"].significant_at(significance)
    if s1 and s2:
        if b1 > 0 and b2 < 0:
            return Shape.INVERTED_U
        if b1 < 0 and b2 > 0:
            return Shape.U_SHAPE
        return Shape.INDETERMINATE
    if s1 != s2:
        return Shape.MONOTONIC
    return Shape.INDETERMINATE


def estimate_uecm(
    frame: AlignedFrame,
    spec: ModelSpec,
    lags: LagOrder,
    lr: LongRunResult,
) -> UecmResult:
    """Regress the dependent difference on the short-run terms plus the
    lagged deviation from the long-run relation.

    Uses the same lag orders and sample as the level regression. A
    non-negative speed of adjustment that is significant at 5% is recorded
    in `flags` and warned about, since it contradicts error correction.
    """
    design = build_design(frame, spec, lags)

    pred = np.zeros(frame.n_rows)
    if lr.beta0 is not None:
        pred += lr.beta0
    for name, b in lr.betas.items():
        pred += b * frame.col(name)
    ec = frame.col(spec.dependent) - pred
    if np.all(ec == ec[0]):
        raise ValueError("error-correction series is degenerate (zero variance)")

    short = [j for j in range(design.X.shape[1]) if j not in design.level_indices]
    t0 = design.first_year - frame.first_year
    ec_lagged = ec[t0 - 1 : frame.n_rows - 1]

    X = np.column_stack([design.X[:, short], ec_lagged])
    names = tuple(design.column_names[j] for j in short) + ("ec_lm1",)
    fit = ols(X, design.y, names)

    phi = float(fit.coefficients[-1])
    phi_se = float(fit.stderr[-1])
    phi_mark = t_mark(phi, phi_se, fit.dof)

    flags: list[str] = []
    if phi >= 0.0 and phi_mark.significant_at(0.05):
        msg = (
            f"speed of adjustment is non-negative ({phi:.4g}) and significant; "
            "inconsistent with error correction"
        )
        flags.append(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)

    short_run = {name: float(c) for name, c in zip(names[:-1], fit.coefficients[:-1])}
    return UecmResult(
        phi=phi,
        phi_stderr=phi_se,
        phi_mark=phi_mark,
        short_run=short_run,
        ec_series=TimeSeries("ec_lm1", design.first_year, ec_lagged),
        ols=fit,
        flags=tuple(flags),
    )


def in_sample(tp: float, frame: AlignedFrame, income_series_name: str) -> bool:
    """Whether the turning point lies within the observed income range
    (inclusive at both ends). Compare in matching units: pass the raw
    income column, not its log."""
    if tp is None:
        raise ValueError("turning point was not computed")
    col = frame.col(income_series_name)
    return bool(col.min() <= tp <= col.max())

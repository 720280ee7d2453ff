"""The benchmark's checkers pass ardlkit's real outputs and report corrupted ones.

Run from the repository root: python3 -m pytest ardlbench
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from ardlkit import cli  # noqa: E402
from ardlkit.synthetic import write_demo_data  # noqa: E402

COUNTRIES = ["CUBA", "MEX"]
MODELS = ["M1", "M2", "M3", "M4", "M5", "M6"]
MAX_LAG = 1
BUDGET = 50  # the 6-regressor grids (64 candidates) take the capped search


@pytest.fixture(scope="module")
def batch_out(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    write_demo_data(d / "data", seed=0)
    config = {
        "manifest": "data/manifest.json",
        "countries": COUNTRIES,
        "models": MODELS,
        "max_lag": MAX_LAG,
        "lag_budget": BUDGET,
        "output_dir": "results",
    }
    (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(d / "config.json")]) == 0
    return d, json.loads((d / "results" / "results.json").read_text(encoding="utf-8"))


def _check(batch_out, doc):
    return checks.check_batch(batch_out[0] / "data", doc, COUNTRIES, MODELS, MAX_LAG, BUDGET)


def test_real_batch_outputs_pass(batch_out):
    d, doc = batch_out
    report = _check(batch_out, doc)
    assert report.failures == []
    assert report.not_estimated == 0
    assert report.capped_cells >= 1 and report.cointegrated_cells >= 1
    assert report.f_cases["III"] + report.f_cases["II"] == len(doc["rows"])
    assert checks.check_tables(d / "results", doc, MODELS) == []


def _flip_lag(row):
    order = list(row["lag_order"])
    order[1] = 1 - order[1]
    row["lag_order"] = order


def _flip_decision(row):
    row["decision"] = "NotCointegrated" if row["decision"] == "Cointegrated" else "Cointegrated"


def _scale_f(row):
    row["f_stat"] *= 1 + 1e-5


def _negate_phi(row):
    row["phi"] = -row["phi"]


def _capped(row):
    return any("over the budget" in w for w in row["warnings"])


@pytest.mark.parametrize(
    "pick, corrupt, reported",
    [
        (lambda r: not _capped(r) and r["model"] == "M3", _flip_lag, "lag order"),
        (_capped, _flip_lag, "capped lag order"),
        (lambda r: True, _scale_f, "matches neither"),
        (lambda r: True, _flip_decision, "decision"),
        (lambda r: r["phi"] is not None, _negate_phi, "phi"),
    ],
    ids=["lag-order-exhaustive", "lag-order-capped", "f-scaled", "decision-flipped", "phi-negated"],
)
def test_corrupted_batch_output_is_reported(batch_out, pick, corrupt, reported):
    doc = copy.deepcopy(batch_out[1])
    row = next(r for r in doc["rows"] if pick(r))
    corrupt(row)
    failures = _check(batch_out, doc).failures
    where = f"{row['country']}/{row['model']}"
    assert any(f.startswith(where) and reported in f for f in failures), failures


REPS = 4000


@pytest.fixture(scope="module")
def critval_out():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["critval", "--k", "2", "--n", "58", "--reps", str(REPS), "--seed", "0"]) == 0
    return json.loads(out.getvalue()), checks.simulate_f(2, 58, REPS, seed=1_000_003)


def test_real_critval_output_passes(critval_out):
    rows, own = critval_out
    assert checks.check_critval(rows, 2, 58, REPS, 0, 0, own) == []


def test_shifted_critval_bounds_are_reported(critval_out):
    rows, own = critval_out
    shifted = [dict(r, lower=r["lower"] + 0.5, upper=r["upper"] + 0.5) for r in rows]
    failures = checks.check_critval(shifted, 2, 58, REPS, 0, 0, own)
    assert any("more than 0.25" in f for f in failures), failures
    assert any("independent simulation" in f for f in failures), failures


def test_resample_share_over_one_percent_is_reported(critval_out):
    rows, own = critval_out
    failures = checks.check_critval(rows, 2, 58, REPS, 0, REPS // 100 + 1, own)
    assert any("resampled" in f for f in failures), failures

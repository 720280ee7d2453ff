"""CLI subcommands, exit codes, and output-directory overrides."""

import json

import pytest

from ardlkit.cli import main


@pytest.fixture()
def run_config(demo_dir, tmp_path):
    """One-cell run config pointing at the shared demo dataset."""
    cfg = {
        "manifest": str(demo_dir / "manifest.json"),
        "countries": ["ARG"],
        "models": ["M1"],
        "max_lag": 1,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path


def test_demo_data_command(tmp_path, capsys):
    assert main(["demo-data", "--dir", str(tmp_path / "d"), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "manifest.json" in out
    assert (tmp_path / "d" / "manifest.json").exists()
    assert (tmp_path / "d" / "config.json").exists()
    assert (tmp_path / "d" / "VEN.csv").exists()


def test_run_command(run_config, capsys):
    path, base = run_config
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 of 1 rows estimated" in out
    assert (base / "out" / "results.json").exists()
    assert (base / "out" / "results_M1.csv").exists()


def test_run_output_dir_flag(run_config):
    path, base = run_config
    assert main(["run", "--config", str(path), "--output-dir", str(base / "flagged")]) == 0
    assert (base / "flagged" / "results.json").exists()
    assert not (base / "out").exists()


def test_run_output_dir_env(run_config, monkeypatch):
    path, base = run_config
    monkeypatch.setenv("ARDLKIT_OUTPUT_DIR", str(base / "enved"))
    assert main(["run", "--config", str(path)]) == 0
    assert (base / "enved" / "results.json").exists()


def test_run_flag_beats_env(run_config, monkeypatch):
    path, base = run_config
    monkeypatch.setenv("ARDLKIT_OUTPUT_DIR", str(base / "enved"))
    assert main(["run", "--config", str(path), "--output-dir", str(base / "flagged")]) == 0
    assert (base / "flagged" / "results.json").exists()
    assert not (base / "enved").exists()


def test_run_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_run_invalid_model_is_usage_error(demo_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"manifest": str(demo_dir / "manifest.json"), "models": ["M9"]}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown models" in capsys.readouterr().err


def test_run_without_usable_rows_exits_one(demo_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "manifest": str(demo_dir / "manifest.json"),
                "countries": ["ARG", "BOL"],
                "models": ["M1"],
                "min_window": 200,
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "0 of 2 rows estimated" in captured.out
    assert "no row" in captured.err
    # failed rows still render, carrying their warnings
    doc = json.loads((tmp_path / "out" / "results.json").read_text())
    assert all(r["f_stat"] is None and r["warnings"] for r in doc["rows"])


def test_critval_command(capsys):
    assert main(["critval", "--k", "2", "--n", "40", "--reps", "1000", "--seed", "9"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["alpha"] for r in rows] == [0.10, 0.05, 0.01]
    for r in rows:
        assert set(r) == {"k", "n", "alpha", "lower", "upper", "se_lower", "se_upper", "reps", "seed"}
        assert r["lower"] < r["upper"]
        assert r["se_lower"] > 0 and r["se_upper"] > 0
        assert (r["k"], r["n"], r["reps"], r["seed"]) == (2, 40, 1000, 9)


def test_critval_rejects_bad_arguments(capsys):
    assert main(["critval", "--k", "0", "--n", "40"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["critval", "--k", "2", "--n", "40", "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    for workers in ("0", "-3"):
        assert main(["critval", "--k", "2", "--n", "40", "--workers", workers]) == 2
        assert "error: workers must be >= 1" in capsys.readouterr().err


def test_run_rejects_bad_workers(run_config, capsys):
    path, base = run_config
    for workers in ("0", "-3"):
        assert main(["run", "--config", str(path), "--workers", workers]) == 2
        assert "error: workers must be >= 1" in capsys.readouterr().err
    assert not (base / "out").exists()


def test_demo_data_rejects_negative_max_lag(tmp_path, capsys):
    target = tmp_path / "d"
    target.mkdir()
    assert main(["demo-data", "--dir", str(target), "--max-lag", "-1"]) == 2
    assert "error: max_lag must be >= 0" in capsys.readouterr().err
    assert list(target.iterdir()) == []


def test_inspect_command(run_config, capsys):
    path, _ = run_config
    code = main(["inspect", "--config", str(path), "--country", "MEX", "--model", "M1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("MEX M1")
    assert "bounds test: F =" in out
    assert "regression coefficients:" in out


def test_inspect_unknown_country(run_config, capsys):
    path, _ = run_config
    assert main(["inspect", "--config", str(path), "--country", "XXX", "--model", "M1"]) == 2
    assert "not in manifest" in capsys.readouterr().err

"""Batch presets, runner behavior, and result rendering."""

import csv
import dataclasses
import json
import shutil

import golden
import jsonschema
import pytest

from ardlkit import batch
from ardlkit.batch import (
    COUNTRY_CODES,
    MODEL_IDS,
    RESULT_SCHEMA,
    RunConfig,
    load_config,
    model_bounds,
    preset,
    render,
    run,
    run_cell,
)
from ardlkit.manifest import load_country, load_manifest


@pytest.fixture(scope="module")
def small(demo_dir):
    """Two countries, three models: covers cointegrated and inconclusive
    rows plus the Cuba series override, in a couple of seconds."""
    cfg = RunConfig(
        manifest=demo_dir / "manifest.json",
        countries=("ARG", "CUBA"),
        models=("M1", "M3", "M6"),
        max_lag=2,
        output_dir=demo_dir / "out",
    )
    return cfg, run(cfg)


class TestPresets:
    @pytest.mark.parametrize(
        "model, k, controls",
        [
            ("M1", 2, ()),
            ("M2", 5, ("x1_ln", "x2_ln", "x3_ln")),
            ("M3", 4, ("x4", "x5")),
            ("M4", 6, ("x6", "x7", "x8", "x9")),
            ("M5", 5, ("x10", "x5", "x11")),
            ("M6", 6, ("x12", "x13_electricity", "x14_gasoline", "x15_fuel")),
        ],
    )
    def test_shapes(self, model, k, controls):
        spec = preset(model)
        assert spec.dependent == "co2_pc_ln"
        assert spec.income == "gdp_pc_ln"
        assert spec.income_order == 2
        assert spec.controls == controls
        assert spec.k == k

    def test_drop(self):
        assert preset("M3", drop=("x4",)).controls == ("x5",)
        assert preset("M4", drop=("x6",)).k == 5

    def test_drop_unknown_name(self):
        with pytest.raises(ValueError, match="cannot drop"):
            preset("M1", drop=("x4",))

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            preset("M9")

    @pytest.mark.parametrize(
        "model, alpha, expected",
        [
            ("M1", 0.01, (4.8, 5.725)),
            ("M1", 0.05, (3.368, 4.205)),
            ("M2", 0.05, (2.694, 3.829)),
            ("M3", 0.05, (2.763, 3.813)),
            ("M4", 0.05, (2.591, 3.766)),
            ("M5", 0.05, (2.67, 3.78)),
            ("M6", 0.05, (2.591, 3.766)),
        ],
    )
    def test_model_bounds_pinned(self, model, alpha, expected):
        assert model_bounds(model)[alpha] == expected


class TestRunConfig:
    def test_coerces_sequences(self, tmp_path):
        cfg = RunConfig(manifest=tmp_path / "m.json", countries=["ARG"], models=["M1"])
        assert cfg.countries == ("ARG",)
        assert cfg.models == ("M1",)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"countries": ()}, "countries"),
            ({"models": ()}, "models"),
            ({"models": ("M9",)}, "unknown models"),
            ({"significance": 0.07}, "significance"),
            ({"max_lag": -1}, "max_lag"),
            ({"workers": 0}, "workers"),
            ({"formats": ("csv", "xml")}, "formats"),
        ],
    )
    def test_validation(self, tmp_path, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            RunConfig(manifest=tmp_path / "m.json", **kwargs)

    def test_load_config_defaults_and_paths(self, tmp_path):
        (tmp_path / "cfg.json").write_text(
            json.dumps({"manifest": "data/manifest.json", "max_lag": 2})
        )
        cfg = load_config(tmp_path / "cfg.json")
        assert cfg.manifest == tmp_path / "data" / "manifest.json"
        assert cfg.countries == COUNTRY_CODES
        assert cfg.models == MODEL_IDS
        assert cfg.max_lag == 2
        assert cfg.significance == 0.05
        assert cfg.output_dir.name == "results"

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"manifest": "m.json", "lag": 2}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(tmp_path / "cfg.json")

    def test_load_config_requires_manifest(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"max_lag": 2}))
        with pytest.raises(ValueError, match="manifest"):
            load_config(tmp_path / "cfg.json")


class TestRun:
    def test_row_count_and_order(self, small):
        cfg, rows = small
        assert len(rows) == len(cfg.countries) * len(cfg.models)
        expected = [(c, m) for c in cfg.countries for m in cfg.models]
        assert [(r.country, r.model) for r in rows] == expected

    def test_all_rows_estimated(self, small):
        _, rows = small
        assert all(r.succeeded for r in rows)
        for r in rows:
            assert r.lag_order is not None
            assert r.sample is not None
            assert r.bounds is not None
            assert r.decision in ("Cointegrated", "Inconclusive", "NotCointegrated")

    def test_cells_follow_decision(self, small):
        _, rows = small
        decisions = {r.decision for r in rows}
        assert "Cointegrated" in decisions and len(decisions) > 1
        for r in rows:
            populated = r.coefficients is not None
            assert populated == (r.decision == "Cointegrated")
            for field in ("beta0", "shape", "phi", "phi_mark"):
                assert (getattr(r, field) is not None) == populated
            if populated and r.turning_point is not None:
                assert isinstance(r.turning_point_in_sample, bool)

    def test_cuba_override(self, small):
        _, rows = small
        row = next(r for r in rows if (r.country, r.model) == ("CUBA", "M3"))
        assert any("k=4" in w and "k=3" in w for w in row.warnings)
        # x4 dropped: lag tuple covers dep + 3 remaining regressors
        assert len(row.lag_order) == 4
        if row.coefficients is not None:
            assert "x4" not in row.coefficients
            assert "x5" in row.coefficients

    def test_unknown_country_is_config_error(self, demo_dir):
        cfg = RunConfig(manifest=demo_dir / "manifest.json", countries=("ZZZ",), models=("M1",))
        with pytest.raises(ValueError, match="ZZZ"):
            run(cfg)

    def test_cell_failure_degrades_to_warning(self, demo_dir):
        # M6 series only span 47 years; demanding 55 makes alignment fail
        cfg = RunConfig(
            manifest=demo_dir / "manifest.json",
            countries=("ARG",),
            models=("M6",),
            min_window=55,
        )
        rows = run(cfg)
        assert len(rows) == 1
        assert not rows[0].succeeded
        assert rows[0].decision is None
        assert any(w.startswith("align:") for w in rows[0].warnings)

    def test_rerun_is_identical(self, small):
        cfg, rows = small
        assert run(cfg) == rows

    def test_worker_count_does_not_change_results(self, small):
        cfg, rows = small
        parallel = run(dataclasses.replace(cfg, workers=3))
        assert parallel == rows

    def test_each_country_file_is_read_once(self, small, monkeypatch):
        cfg, rows = small
        calls = []

        def counted(manifest, country):
            calls.append(country)
            return load_country(manifest, country)

        monkeypatch.setattr(batch, "load_country", counted)
        assert run(cfg) == rows
        assert calls == ["ARG", "CUBA"]

    def test_unreadable_country_file_degrades_to_warning_on_each_row(self, demo_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(demo_dir, data)
        (data / "ARG.csv").unlink()
        cfg = RunConfig(manifest=data / "manifest.json", countries=("ARG", "BOL"),
                        models=("M1", "M3"), max_lag=1, output_dir=tmp_path / "out")
        rows = run(cfg)
        manifest = load_manifest(cfg.manifest)
        # the same rows as cells that each read their own file
        assert rows == [
            run_cell(manifest, cfg, c, m, batch.load(manifest, c))
            for c in cfg.countries for m in cfg.models
        ]
        assert run(dataclasses.replace(cfg, workers=2)) == rows
        assert [r.succeeded for r in rows] == [False, False, True, True]
        assert all(r.warnings[0].startswith("load: ") and "ARG.csv" in r.warnings[0] for r in rows[:2])

    def test_deep_search_matches_the_golden_snapshot(self, demo_dir, tmp_path):
        # the paper's max_lag 4: exhaustive grids of 100-12500 orders on
        # M1/M2/M3/M5, the capped coordinate search on M4/M6
        cfg = RunConfig(manifest=demo_dir / "manifest.json", output_dir=tmp_path,
                        **golden.RUNS[golden.DEEP_SNAPSHOT])
        rows = run(cfg)
        assert golden.mismatches(rows, golden.load(golden.DEEP_SNAPSHOT)) == []
        assert len(rows) == 6


@pytest.fixture(scope="module")
def rendered(small, tmp_path_factory):
    cfg, rows = small
    out = tmp_path_factory.mktemp("render")
    paths = render(rows, out)
    return rows, out, paths


class TestRender:
    def test_file_set(self, rendered):
        _, out, paths = rendered
        names = sorted(p.name for p in paths)
        assert names == [
            "results.json",
            "results_M1.csv",
            "results_M1.md",
            "results_M3.csv",
            "results_M3.md",
            "results_M6.csv",
            "results_M6.md",
        ]

    def test_json_matches_schema(self, rendered):
        rows, out, _ = rendered
        doc = json.loads((out / "results.json").read_text())
        jsonschema.validate(doc, RESULT_SCHEMA)
        assert len(doc["rows"]) == len(rows)
        assert doc["rows"][0]["country"] == rows[0].country

    def test_json_covariance_shape(self, rendered):
        rows, out, _ = rendered
        doc = json.loads((out / "results.json").read_text())
        for rec, row in zip(doc["rows"], rows):
            n = len(rec["ols_coefficients"])
            assert len(rec["ols_covariance"]) == n
            assert all(len(r) == n for r in rec["ols_covariance"])
            assert rec["f_stat"] == row.f_stat

    def test_csv_cells(self, rendered):
        rows, out, _ = rendered
        with open(out / "results_M6.csv", newline="") as fh:
            table = {rec["country"]: rec for rec in csv.DictReader(fh)}
        for row in rows:
            if row.model != "M6":
                continue
            rec = table[row.country]
            assert float(rec["f_stat"]) == row.f_stat  # repr round-trips
            if row.decision == "Cointegrated":
                entry = row.coefficients["gdp_pc_ln"]
                assert float(rec["beta_gdp_pc_ln"]) == entry["value"]
                assert rec["sig_gdp_pc_ln"] == entry["mark"]
            else:
                assert rec["beta_gdp_pc_ln"] == ""
                assert rec["turning_point"] == ""
                assert rec["phi"] == ""

    def test_markdown_layout(self, rendered):
        _, out, _ = rendered
        text = (out / "results_M1.md").read_text()
        lines = text.splitlines()
        header = next(l for l in lines if l.startswith("| Country"))
        assert "ARDL model" in header and "Turning point" in header
        assert "a) significant parameter at 1%" in text
        assert "lower = 3.368, upper = 4.205" in text
        arg = next(l for l in lines if l.startswith("| ARG"))
        assert arg.count("|") == header.count("|")

    def test_byte_identical_rerun(self, small, tmp_path):
        cfg, rows = small
        render(rows, tmp_path / "a")
        render(run(dataclasses.replace(cfg, workers=2)), tmp_path / "b")
        for p in sorted((tmp_path / "a").iterdir()):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            render([], tmp_path)


class TestSyntheticData:
    def test_deterministic_in_seed(self, tmp_path):
        from ardlkit.synthetic import write_demo_data

        write_demo_data(tmp_path / "a", seed=5)
        write_demo_data(tmp_path / "b", seed=5)
        write_demo_data(tmp_path / "c", seed=6)
        same = (tmp_path / "a" / "ARG.csv").read_bytes()
        assert same == (tmp_path / "b" / "ARG.csv").read_bytes()
        assert same != (tmp_path / "c" / "ARG.csv").read_bytes()

    def test_cuba_lacks_two_series(self, demo_dir):
        header = (demo_dir / "CUBA.csv").read_text().splitlines()[0].split(",")
        assert "x4" not in header and "x6" not in header
        full = (demo_dir / "ARG.csv").read_text().splitlines()[0].split(",")
        assert "x4" in full and "x6" in full

    def test_alias_headers_in_files(self, demo_dir):
        header = (demo_dir / "MEX.csv").read_text().splitlines()[0].split(",")
        assert "co2" in header and "gdp" in header
        assert "co2_pc" not in header
        manifest = json.loads((demo_dir / "manifest.json").read_text())
        assert manifest["aliases"] == {"co2": "co2_pc", "gdp": "gdp_pc"}

    def test_energy_split_columns_present(self, demo_dir):
        header = (demo_dir / "BRA.csv").read_text().splitlines()[0].split(",")
        for name in ("x13_electricity", "x14_gasoline", "x15_fuel"):
            assert name in header

    def test_manifest_contains_all_countries_and_overrides(self, demo_dir):
        manifest = json.loads((demo_dir / "manifest.json").read_text())
        assert set(manifest["countries"]) == set(COUNTRY_CODES)
        assert manifest["overrides"]["CUBA"] == {
            "M3": {"drop": ["x4"]},
            "M4": {"drop": ["x6"]},
        }

    def test_bundled_config_runs(self, demo_dir):
        cfg = load_config(demo_dir / "config.json")
        assert cfg.max_lag == 2
        assert cfg.manifest == demo_dir / "manifest.json"

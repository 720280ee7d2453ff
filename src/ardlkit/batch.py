"""Config-driven batch runner: model presets over many countries.

Each (country, model) cell runs the full pipeline: load, align, transform,
SIC lag search, bounds test, and, when cointegration is found, the long-run
relation, turning point, and error-correction regression. Cell failures
degrade to per-row warnings so one bad series never aborts a batch.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .ardl import ModelSpec, bounds_test, critical_bounds, fit_ardl, select_lags
from .longrun import estimate_uecm, in_sample, long_run
from .manifest import Manifest, load_country, load_manifest
from .regression import Significance
from .timeseries import AlignedFrame, TimeSeries, align, transform

__all__ = [
    "COUNTRY_CODES",
    "MODEL_IDS",
    "CountryRow",
    "RESULT_SCHEMA",
    "RunConfig",
    "load",
    "load_config",
    "model_bounds",
    "preset",
    "render",
    "row_to_dict",
    "run",
    "run_cell",
]

# the 21 countries of the study, in the tables' row order
COUNTRY_CODES = (
    "ARG", "BOL", "BRA", "CHI", "COL", "COS", "RDOM", "CUBA", "ECU", "ELSAL",
    "GUA", "HAI", "HON", "JAM", "MEX", "NIC", "PAN", "PAR", "PERU", "URU", "VEN",
)

MODEL_IDS = ("M1", "M2", "M3", "M4", "M5", "M6")

DEPENDENT_RAW = "co2_pc"
INCOME_RAW = "gdp_pc"

# controls per preset, by canonical variable name:
#   x1..x3  value added (agriculture / industry / services)
#   x4 exports of primary goods, x5 population density, x6 FDI,
#   x7 exports share, x8 imports share, x9 agricultural land share,
#   x10 renewable electricity pc, x11 rural population share,
#   x12 diesel pc, x13_electricity/x14_gasoline/x15_fuel consumption pc
_PRESET_CONTROLS: dict[str, tuple[str, ...]] = {
    "M1": (),
    "M2": ("x1", "x2", "x3"),
    "M3": ("x4", "x5"),
    "M4": ("x6", "x7", "x8", "x9"),
    "M5": ("x10", "x5", "x11"),
    "M6": ("x12", "x13_electricity", "x14_gasoline", "x15_fuel"),
}

# emissions, income, and value-added levels enter in logs; shares,
# densities, and per-capita energy quantities enter untransformed
_LOGGED = {DEPENDENT_RAW, INCOME_RAW, "x1", "x2", "x3"}

_MODEL_VARIANT = {"M5": "alt"}


def transformed_name(raw: str) -> str:
    return raw + "_ln" if raw in _LOGGED else raw


def _raw_name(col: str) -> str:
    return col[:-3] if col.endswith("_ln") else col


def preset(model_id: str, drop: tuple[str, ...] = ()) -> ModelSpec:
    """ModelSpec for one of the six preset control sets.

    `drop` removes controls by canonical (untransformed) name, for
    countries whose data lack a series; unknown names are an error.
    """
    if model_id not in _PRESET_CONTROLS:
        raise ValueError(f"unknown model {model_id!r}; expected one of {MODEL_IDS}")
    controls = _PRESET_CONTROLS[model_id]
    unknown = [d for d in drop if d not in controls]
    if unknown:
        raise ValueError(f"cannot drop {unknown} from {model_id}; controls are {list(controls)}")
    kept = tuple(transformed_name(c) for c in controls if c not in drop)
    return ModelSpec(
        dependent=transformed_name(DEPENDENT_RAW),
        income=transformed_name(INCOME_RAW),
        income_order=2,
        controls=kept,
    )


def model_bounds(model_id: str) -> dict[float, tuple[float, float]]:
    """Published bounds pinned to the model's full control set.

    Per-country overrides may shrink k, but the batch keeps the model's
    tabulated bounds (with a row warning), mirroring how shortened rows are
    judged against the same table in the source workflow.
    """
    k = preset(model_id).k
    variant = _MODEL_VARIANT.get(model_id, "primary")
    out: dict[float, tuple[float, float]] = {}
    for alpha in (0.01, 0.05, 0.10):
        try:
            b = critical_bounds(k, alpha, variant=variant)
        except ValueError:
            continue
        out[alpha] = (b.lower, b.upper)
    return out


@dataclass(frozen=True)
class RunConfig:
    manifest: Path
    countries: tuple[str, ...] = COUNTRY_CODES
    models: tuple[str, ...] = MODEL_IDS
    max_lag: int = 4
    significance: float = 0.05
    min_window: int = 20
    lag_budget: int = 1_000_000
    output_dir: Path = Path("results")
    formats: tuple[str, ...] = ("csv", "json", "md")
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "manifest", Path(self.manifest))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "formats", tuple(self.formats))
        if not self.countries:
            raise ValueError("countries must be non-empty")
        if not self.models:
            raise ValueError("models must be non-empty")
        bad = [m for m in self.models if m not in MODEL_IDS]
        if bad:
            raise ValueError(f"unknown models {bad}; expected subset of {MODEL_IDS}")
        if self.significance not in (0.01, 0.05, 0.10):
            raise ValueError("significance must be 0.01, 0.05, or 0.10")
        if self.max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        bad = [f for f in self.formats if f not in ("csv", "json", "md")]
        if bad:
            raise ValueError(f"unknown output formats {bad}")


def load_config(path) -> RunConfig:
    """RunConfig from a JSON file; relative paths resolve against it."""
    path = Path(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    if "manifest" not in raw:
        raise ValueError(f"{path}: config lacks 'manifest'")
    base = path.parent
    raw["manifest"] = base / raw["manifest"]
    if "output_dir" in raw:
        raw["output_dir"] = base / raw["output_dir"]
    return RunConfig(**raw)


@dataclass(frozen=True)
class CountryRow:
    """One (country, model) result; unavailable cells are None."""

    country: str
    model: str
    significance: float
    lag_order: tuple[int, ...] | None = None
    sample: tuple[int, int] | None = None
    f_stat: float | None = None
    bounds: tuple[float, float] | None = None
    decision: str | None = None
    beta0: float | None = None
    beta0_stderr: float | None = None
    coefficients: dict[str, dict] | None = None
    turning_point: float | None = None
    turning_point_in_sample: bool | None = None
    shape: str | None = None
    phi: float | None = None
    phi_stderr: float | None = None
    phi_mark: str | None = None
    ols_coefficients: dict[str, float] | None = field(default=None, repr=False)
    ols_covariance: list | None = field(default=None, repr=False)
    warnings: tuple[str, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.f_stat is not None


def _model_frame(frame: AlignedFrame, spec: ModelSpec) -> AlignedFrame:
    """Transformed columns for the model spec, plus the raw income column
    (kept so turning points can be located against observed income levels)."""
    cols: list[np.ndarray] = []
    names: list[str] = []

    def add(ts: TimeSeries):
        names.append(ts.name)
        cols.append(np.asarray(ts.values))

    income_raw = TimeSeries(INCOME_RAW, frame.first_year, frame.col(INCOME_RAW))
    add(transform(TimeSeries(DEPENDENT_RAW, frame.first_year, frame.col(DEPENDENT_RAW)), "ln"))
    add(transform(income_raw, "ln"))
    add(transform(income_raw, "ln_squared"))
    if spec.income_order == 3:
        add(transform(income_raw, "ln_cubed"))
    for col in spec.controls:
        raw = _raw_name(col)
        ts = TimeSeries(raw, frame.first_year, frame.col(raw))
        add(transform(ts, "ln") if col.endswith("_ln") else ts)
    add(income_raw)
    return AlignedFrame(frame.first_year, frame.last_year, tuple(names), np.column_stack(cols))


def load(manifest: Manifest, country: str):
    """`load_country`'s result, or the exception it raised: what `run_cell`
    takes as `loaded`, so that a file that cannot be read becomes a row
    warning."""
    try:
        return load_country(manifest, country)
    except Exception as exc:
        return exc


def run_cell(
    manifest: Manifest, config: RunConfig, country: str, model: str, loaded
) -> CountryRow:
    """One cell's row. `loaded` is `load(manifest, country)`, so the cells of
    one country share one read of its file."""
    notes: list[str] = []
    out: dict = {}
    stage = "load"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")

            if isinstance(loaded, Exception):
                raise loaded
            dataset, report = loaded
            if report.n_unparseable:
                notes.append(f"load: {report.n_unparseable} unparseable cells read as missing")

            spec = preset(model, drop=manifest.drops_for(country, model))
            raw_needed = [DEPENDENT_RAW, INCOME_RAW] + [_raw_name(c) for c in spec.controls]

            stage = "align"
            frame_raw = align(dataset, raw_needed, min_window=config.min_window)
            notes.extend(f"align: {n}" for n in frame_raw.notes)

            stage = "transform"
            frame = _model_frame(frame_raw, spec)

            stage = "lag selection"
            sel = select_lags(frame, spec, max_lag=config.max_lag, budget=config.lag_budget)
            out["lag_order"] = sel.order.as_tuple()

            stage = "estimation"
            fit = fit_ardl(frame, spec, sel.order)
            out["sample"] = (fit.first_year, fit.last_year)
            out["ols_coefficients"] = {
                n: float(c) for n, c in zip(fit.ols.column_names, fit.ols.coefficients)
            }
            out["ols_covariance"] = [[float(v) for v in r] for r in fit.ols.covariance]

            stage = "bounds test"
            model_k = preset(model).k
            if fit.k != model_k:
                notes.append(
                    f"bounds test: tabulated bounds are for k={model_k}, "
                    f"design has k={fit.k} after overrides"
                )
            bt = bounds_test(fit, config.significance, bounds=model_bounds(model))
            out["f_stat"] = bt.f_stat
            pair = bt.bound_pair()
            out["bounds"] = (pair.lower, pair.upper)
            out["decision"] = bt.decision.value

            if bt.decision.value == "Cointegrated":
                stage = "long run"
                lr = long_run(fit)
                out["beta0"] = lr.beta0
                out["beta0_stderr"] = lr.beta0_stderr
                out["coefficients"] = {
                    name: {
                        "value": lr.betas[name],
                        "stderr": lr.stderrs[name],
                        "mark": lr.marks[name].value,
                    }
                    for name in spec.regressors
                }
                out["shape"] = lr.shape.value
                out["turning_point"] = lr.turning_point
                if lr.turning_point is not None:
                    out["turning_point_in_sample"] = in_sample(
                        lr.turning_point, frame, INCOME_RAW
                    )

                stage = "error correction"
                u = estimate_uecm(frame, spec, sel.order, lr)
                out["phi"] = u.phi
                out["phi_stderr"] = u.phi_stderr
                out["phi_mark"] = u.phi_mark.value

        notes.extend(str(w.message) for w in caught)
    except Exception as exc:
        notes.append(f"{stage}: {exc}")

    return CountryRow(
        country=country,
        model=model,
        significance=config.significance,
        warnings=tuple(notes),
        **out,
    )


def run(config: RunConfig, manifest: Manifest | None = None) -> list[CountryRow]:
    """All (country, model) cells of the config, in config order.

    Config-level problems (unreadable manifest, unknown countries) raise;
    anything that goes wrong inside a cell becomes that row's warnings, a
    country file that cannot be read included. Each country's file is read
    once, here, and shared by its cells. Deterministic for fixed inputs at
    any worker count.
    """
    if manifest is None:
        manifest = load_manifest(config.manifest)
    missing = [c for c in config.countries if c not in manifest.countries]
    if missing:
        raise ValueError(f"countries not in manifest: {', '.join(missing)}")

    loaded = {c: load(manifest, c) for c in config.countries}
    cells = [(c, m) for c in config.countries for m in config.models]
    if config.workers <= 1:
        return [run_cell(manifest, config, c, m, loaded[c]) for c, m in cells]

    from concurrent.futures import ProcessPoolExecutor

    results: dict[tuple[str, str], CountryRow] = {}
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        futures = {
            pool.submit(run_cell, manifest, config, c, m, loaded[c]): (c, m) for c, m in cells
        }
        for fut, key in futures.items():
            results[key] = fut.result()
    return [results[key] for key in cells]


# ---- output -------------------------------------------------------------

RESULT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "significance", "rows"],
    "properties": {
        "schema_version": {"const": 1},
        "significance": {"enum": [0.01, 0.05, 0.10]},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["country", "model", "warnings"],
                "properties": {
                    "country": {"type": "string"},
                    "model": {"type": "string"},
                    "lag_order": {
                        "type": ["array", "null"],
                        "items": {"type": "integer", "minimum": 0},
                    },
                    "sample": {
                        "type": ["array", "null"],
                        "items": {"type": "integer"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "f_stat": {"type": ["number", "null"]},
                    "bounds": {
                        "type": ["array", "null"],
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "decision": {
                        "enum": ["Cointegrated", "Inconclusive", "NotCointegrated", None]
                    },
                    "beta0": {"type": ["number", "null"]},
                    "beta0_stderr": {"type": ["number", "null"]},
                    "coefficients": {
                        "type": ["object", "null"],
                        "additionalProperties": {
                            "type": "object",
                            "required": ["value", "stderr", "mark"],
                            "properties": {
                                "value": {"type": "number"},
                                "stderr": {"type": "number"},
                                "mark": {"enum": ["1%", "5%", "10%", "none"]},
                            },
                        },
                    },
                    "turning_point": {"type": ["number", "null"]},
                    "turning_point_in_sample": {"type": ["boolean", "null"]},
                    "shape": {
                        "enum": ["InvertedU", "UShape", "Monotonic", "Indeterminate", None]
                    },
                    "phi": {"type": ["number", "null"]},
                    "phi_stderr": {"type": ["number", "null"]},
                    "phi_mark": {"enum": ["1%", "5%", "10%", "none", None]},
                    "ols_coefficients": {"type": ["object", "null"]},
                    "ols_covariance": {"type": ["array", "null"]},
                    "warnings": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
    },
}


def row_to_dict(row: CountryRow) -> dict:
    """The row's fields but `significance`, in field order, tuples as lists."""
    values = {f.name: getattr(row, f.name) for f in fields(row) if f.name != "significance"}
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _md_coef(entry: dict | None) -> str:
    if entry is None:
        return ""
    return f"{entry['value']:.6g}{Significance(entry['mark']).letter}"


def render(rows, out_dir, formats=("csv", "json", "md")) -> list[Path]:
    """Write result files; returns the created paths.

    csv: one flat file per model, full precision. json: one nested document
    for all rows (schema RESULT_SCHEMA). md: one table per model in the
    source tables' layout, with a)/b)/c) significance letters.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to render")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    by_model: dict[str, list[CountryRow]] = {}
    for r in rows:
        by_model.setdefault(r.model, []).append(r)

    if "csv" in formats:
        import csv as _csv

        for model, group in by_model.items():
            terms = preset(model).regressors
            path = out_dir / f"results_{model}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = _csv.writer(fh)
                header = ["country", "lags", "f_stat", "decision", "lower", "upper", "beta0"]
                for t in terms:
                    header += [f"beta_{t}", f"se_{t}", f"sig_{t}"]
                header += [
                    "turning_point", "tp_in_sample", "shape",
                    "phi", "phi_se", "phi_sig",
                    "sample_start", "sample_end", "warnings",
                ]
                w.writerow(header)
                for r in group:
                    cells = [
                        r.country,
                        "" if r.lag_order is None else "(" + ",".join(map(str, r.lag_order)) + ")",
                        _fmt(r.f_stat),
                        _fmt(r.decision),
                        _fmt(r.bounds[0] if r.bounds else None),
                        _fmt(r.bounds[1] if r.bounds else None),
                        _fmt(r.beta0),
                    ]
                    for t in terms:
                        entry = (r.coefficients or {}).get(t)
                        if entry is None:
                            cells += ["", "", ""]
                        else:
                            cells += [_fmt(entry["value"]), _fmt(entry["stderr"]), entry["mark"]]
                    cells += [
                        _fmt(r.turning_point),
                        _fmt(r.turning_point_in_sample),
                        _fmt(r.shape),
                        _fmt(r.phi),
                        _fmt(r.phi_stderr),
                        _fmt(r.phi_mark),
                        _fmt(r.sample[0] if r.sample else None),
                        _fmt(r.sample[1] if r.sample else None),
                        "; ".join(r.warnings),
                    ]
                    w.writerow(cells)
            written.append(path)

    if "json" in formats:
        doc = {
            "schema_version": 1,
            "significance": rows[0].significance,
            "rows": [row_to_dict(r) for r in rows],
        }
        path = out_dir / "results.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        written.append(path)

    if "md" in formats:
        for model, group in by_model.items():
            terms = preset(model).regressors
            path = out_dir / f"results_{model}.md"
            lines = [f"# Model {model}", ""]
            header = (
                ["Country", "ARDL model", "Bounds test", "Conclusion", "β0"]
                + list(terms)
                + ["Turning point", "EC(t−1)"]
            )
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            for r in group:
                conclusion = {
                    "Cointegrated": "CI",
                    "NotCointegrated": "NOT CI",
                    "Inconclusive": "Inconclusive",
                }.get(r.decision or "", "")
                phi_cell = ""
                if r.phi is not None:
                    phi_cell = f"{r.phi:.4g}{Significance(r.phi_mark).letter if r.phi_mark else ''}"
                cells = [
                    r.country,
                    "" if r.lag_order is None else "(" + ",".join(map(str, r.lag_order)) + ")",
                    "" if r.f_stat is None else f"{r.f_stat:.4f}",
                    conclusion,
                    "" if r.beta0 is None else f"{r.beta0:.6g}",
                ]
                cells += [_md_coef((r.coefficients or {}).get(t)) for t in terms]
                cells.append("" if r.turning_point is None else f"{r.turning_point:.2f}")
                cells.append(phi_cell)
                lines.append("| " + " | ".join(cells) + " |")
            lines += [
                "",
                "a) significant parameter at 1%; b) at 5%; c) at 10%.",
            ]
            pinned = model_bounds(model)
            if rows[0].significance in pinned:
                lo, hi = pinned[rows[0].significance]
                pct = f"{rows[0].significance:.0%}"
                lines.append(
                    f"Bounds at {pct}: lower = {lo}, upper = {hi} (k = {preset(model).k})."
                )
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)

    return written

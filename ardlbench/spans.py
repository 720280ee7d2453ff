"""Spans around ardlkit's public functions, recorded from outside the package.

`Tracer.installed()` replaces each function named in CALL_SITES by a timing
wrapper in the module that calls it, and puts the originals back on exit.
Spans are kept in memory; `write` dumps them as JSON lines. Every span of one
batch cell carries that cell's trace id ("MEX/M4"); spans outside a cell
carry the id "pass".
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import asdict, dataclass, field

# (module whose global is replaced, attribute, span name). The names that
# ardlkit.batch imports, ols and wald_f as ardl and longrun call them, and
# simulate_bounds as the CLI calls it.
CALL_SITES = (
    ("ardlkit.batch", "run", "batch.run"),
    ("ardlkit.batch", "run_cell", "batch.run_cell"),
    ("ardlkit.batch", "render", "batch.render"),
    ("ardlkit.batch", "load_country", "manifest.load_country"),
    ("ardlkit.batch", "align", "timeseries.align"),
    ("ardlkit.batch", "transform", "timeseries.transform"),
    ("ardlkit.batch", "select_lags", "ardl.select_lags"),
    ("ardlkit.batch", "fit_ardl", "ardl.fit_ardl"),
    ("ardlkit.batch", "bounds_test", "ardl.bounds_test"),
    ("ardlkit.batch", "long_run", "longrun.long_run"),
    ("ardlkit.batch", "estimate_uecm", "longrun.estimate_uecm"),
    ("ardlkit.ardl", "ols", "regression.ols"),
    ("ardlkit.ardl", "wald_f", "regression.wald_f"),
    ("ardlkit.longrun", "ols", "regression.ols"),
    ("ardlkit.cli", "simulate_bounds", "critval.simulate_bounds"),
)


@dataclass
class Span:
    name: str
    trace_id: str
    span_id: int
    parent_id: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _attrs(name: str, args, result) -> dict:
    """Counts read from a call's arguments and result."""
    if name == "ardl.select_lags":
        return {
            "candidates": result.n_evaluated,
            "skipped": result.n_skipped,
            "exhaustive": result.exhaustive,
        }
    if name == "batch.run_cell":
        return {"decision": result.decision, "estimated": result.f_stat is not None}
    if name == "critval.simulate_bounds":
        return {"replications": args[0].replications, "resampled": result.n_resampled}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if name == "batch.run_cell":
                trace_id = f"{args[2]}/{args[3]}"
            else:
                trace_id = parent.trace_id if parent else "pass"
            span = Span(name, trace_id, len(self.spans), parent and parent.span_id, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.attrs = _attrs(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site that exists; record the ones that do not."""
        saved = []
        try:
            for module_name, attr, name in CALL_SITES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# spans that do not nest in one another; the rest of a pass is batch.other_s
_COVERING = (
    "manifest.load_country", "timeseries.align", "timeseries.transform",
    "ardl.select_lags", "ardl.fit_ardl", "ardl.bounds_test",
    "longrun.long_run", "longrun.estimate_uecm", "batch.render",
    "critval.simulate_bounds",
)


def layer_metrics(spans: list[Span], pass_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""

    def total(name):
        return sum(s.seconds for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    searches = [s for s in spans if s.name == "ardl.select_lags"]
    exhaustive = [s for s in searches if s.attrs.get("exhaustive", True)]
    capped = [s for s in searches if not s.attrs.get("exhaustive", True)]

    def us_per_candidate(group):
        n = sum(s.attrs.get("candidates", 0) for s in group)
        return 1e6 * sum(s.seconds for s in group) / n if n else 0.0

    cells = [s for s in spans if s.name == "batch.run_cell"]
    sims = [s for s in spans if s.name == "critval.simulate_bounds"]
    sim_s = total("critval.simulate_bounds")
    return {
        "manifest.load_country_calls": (count("manifest.load_country"), "count"),
        "manifest.load_country_s": (total("manifest.load_country"), "s"),
        "timeseries.align_s": (total("timeseries.align") + total("timeseries.transform"), "s"),
        "ardl.select_lags_s": (total("ardl.select_lags"), "s"),
        "ardl.candidates": (sum(s.attrs.get("candidates", 0) for s in searches), "count"),
        "ardl.skipped": (sum(s.attrs.get("skipped", 0) for s in searches), "count"),
        "ardl.us_per_candidate_exhaustive": (us_per_candidate(exhaustive), "us"),
        "ardl.us_per_candidate_capped": (us_per_candidate(capped), "us"),
        "ardl.capped_cells": (len(capped), "count"),
        "ardl.fit_ardl_s": (total("ardl.fit_ardl"), "s"),
        "ardl.bounds_test_s": (total("ardl.bounds_test"), "s"),
        "regression.wald_f_s": (total("regression.wald_f"), "s"),
        "regression.ols_calls": (count("regression.ols"), "count"),
        "regression.ols_s": (total("regression.ols"), "s"),
        "longrun.long_run_s": (total("longrun.long_run"), "s"),
        "longrun.estimate_uecm_s": (total("longrun.estimate_uecm"), "s"),
        "batch.cells": (len(cells), "count"),
        "batch.cells_cointegrated": (sum(s.attrs.get("decision") == "Cointegrated" for s in cells), "count"),
        "batch.render_s": (total("batch.render"), "s"),
        "batch.other_s": (pass_s - sum(total(n) for n in _COVERING), "s"),
        "critval.reps_per_s": (sum(s.attrs.get("replications", 0) for s in sims) / sim_s if sim_s else 0.0, "1/s"),
        "critval.resampled": (sum(s.attrs.get("resampled", 0) for s in sims), "count"),
    }

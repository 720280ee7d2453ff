"""Golden snapshots of batch runs on the demo data at seed 0.

SNAPSHOT holds the 21 x 6 cells at max_lag 2; criterion 7 runs the same
batch and compares each row with it. DEEP_SNAPSHOT holds MEX x M1-M6 at the
paper's max_lag 4 with a lag budget of 20000, so M1/M2/M3/M5 search their
grids exhaustively and M4/M6 take the capped coordinate search; a test in
test_batch.py compares against it. Lag order, sample, decision and warnings
must match exactly; F, beta0, the long-run betas, the turning point and phi
to GOLDEN_RTOL relative.

Regenerate both snapshots from the root of the repository with

    PYTHONPATH=src python tests/golden.py

and list every changed row in CHANGES.md when one changes.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
SNAPSHOT = DATA / "demo_seed0_maxlag2.json"
DEEP_SNAPSHOT = DATA / "mex_seed0_maxlag4.json"
GOLDEN_RTOL = 1e-9

# RunConfig fields of each snapshot's batch, demo data at seed 0
RUNS = {
    SNAPSHOT: {"max_lag": 2},
    DEEP_SNAPSHOT: {"countries": ("MEX",), "max_lag": 4, "lag_budget": 20_000},
}

EXACT_FIELDS = ("lag_order", "sample", "decision", "warnings")
CLOSE_FIELDS = ("f_stat", "beta0", "betas", "turning_point", "phi")


def record(row) -> dict:
    """The snapshot's fields of one `CountryRow`."""
    betas = None
    if row.coefficients is not None:
        betas = {name: c["value"] for name, c in row.coefficients.items()}
    return {
        "country": row.country,
        "model": row.model,
        "lag_order": list(row.lag_order) if row.lag_order is not None else None,
        "sample": list(row.sample) if row.sample is not None else None,
        "decision": row.decision,
        "warnings": list(row.warnings),
        "f_stat": row.f_stat,
        "beta0": row.beta0,
        "betas": betas,
        "turning_point": row.turning_point,
        "phi": row.phi,
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, dict) or isinstance(b, dict):
        return (
            isinstance(a, dict)
            and isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_close(a[k], b[k]) for k in a)
        )
    return math.isclose(a, b, rel_tol=GOLDEN_RTOL, abs_tol=0.0)


def mismatches(rows, snapshot: list[dict]) -> list[str]:
    """One line per field of `rows` that departs from the snapshot."""
    want = {(r["country"], r["model"]): r for r in snapshot}
    got = {(r.country, r.model): record(r) for r in rows}
    out = [f"{c}/{m}: missing from the run" for c, m in want.keys() - got.keys()]
    out += [f"{c}/{m}: not in the snapshot" for c, m in got.keys() - want.keys()]
    for key in sorted(want.keys() & got.keys()):
        w, g = want[key], got[key]
        for name in EXACT_FIELDS:
            if w[name] != g[name]:
                out.append(f"{key[0]}/{key[1]} {name}: {g[name]!r}, snapshot {w[name]!r}")
        for name in CLOSE_FIELDS:
            if not _close(w[name], g[name]):
                out.append(f"{key[0]}/{key[1]} {name}: {g[name]!r}, snapshot {w[name]!r}")
    return out


def load(path: Path = SNAPSHOT) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    from ardlkit import RunConfig, run
    from ardlkit.synthetic import write_demo_data

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        manifest, _ = write_demo_data(tmp, seed=0)
        for path, fields in RUNS.items():
            rows = run(RunConfig(manifest=manifest, workers=1, output_dir=Path(tmp) / "out", **fields))
            lines = ",\n".join(json.dumps(record(r)) for r in rows)
            path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
            print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

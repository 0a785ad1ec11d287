"""Output checks: golden sets at each workload's default seed, invariants at any seed.

A problem found here is attached to the cell it concerns and makes that cell
count as failed.  Golden sets live in ``perfbench/golden`` and are rewritten
only with ``run.py --write-golden``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Floats are compared with this tolerance: the BLAS thread count changes the
# order of summation, which moved CSV values by at most 1e-13 relative between
# one and two OpenBLAS threads on the instances here.
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-12
EXACT_COLUMNS = ("config", "experiment", "trial", "seed", "n", "d", "decay", "loss", "embedding",
                 "q", "m", "T", "condition_ok")
IGNORED_COLUMNS = ("runtime_ms",)
_INTEGER = re.compile(r"(?<![\w.+-])\d+(?![\w.])")


def _golden_path(wl, seed: int, ext: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{wl.name}-seed{seed}.{ext}")


def suite_counts(detail: str) -> list[int]:
    """Whole numbers in a certificate's detail line (run, draw and violation
    counts), skipping the digits of decimal and exponent numbers."""
    return [int(tok) for tok in _INTEGER.findall(detail)]


def values_match(column: str, got: str, want: str) -> bool:
    if column in EXACT_COLUMNS or got == want:
        return got == want
    if not got or not want:  # empty field, or a column missing from the output
        return False
    g, w = float(got), float(want)
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= GOLDEN_ATOL + GOLDEN_RTOL * abs(w)


def _row_key(row) -> tuple:
    return int(row["config"]), int(row["trial"]), int(row["m"])


def write_row_golden(wl, seed: int, rows: list[dict]) -> None:
    columns = list(rows[0])
    with open(_golden_path(wl, seed, "csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows({k: ("" if k in IGNORED_COLUMNS else v) for k, v in row.items()}
                         for row in rows)


def write_suite_golden(wl, seed: int, results: dict) -> None:
    golden = {suite: dict(r, counts=suite_counts(r["detail"])) for suite, r in results.items()}
    with open(_golden_path(wl, seed, "json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _status_problems(rec):
    """Solver calls that reported converged=False, keyed by cell index."""
    out: dict[int, list[str]] = {}
    for cell, name, converged in rec.statuses:
        if cell is not None and not converged:
            out.setdefault(cell, []).append(f"{name} reported converged=False")
    return out


def check_experiments(rec, wl, seed: int, rows: list[dict], setup_statuses) -> list[str]:
    """Attach problems to ``rec.cells``; returns problems outside any cell."""
    by_key = {tuple(c["key"]): c for c in rec.cells}
    problems = {key: [] for key in by_key}
    setup_problems = []

    for index, name, converged in setup_statuses:
        if not converged:
            setup_problems.append(f"config {index}: reference {name} reported converged=False")
            for key in problems:
                if key[0] == index:
                    problems[key].append(f"reference solve {name} did not converge")

    for row in rows:
        key = _row_key(row)
        if key not in problems:
            setup_problems.append(f"row for unknown cell {key}")
            continue
        for column, text in row.items():
            if column in EXACT_COLUMNS or column in IGNORED_COLUMNS or not text:
                continue
            if not math.isfinite(float(text)):
                problems[key].append(f"{row['embedding']} {column}={text} is not finite")

    for index, msgs in _status_problems(rec).items():
        problems[tuple(rec.cells[index]["key"])] += msgs

    for index, _, report in rec.reports:
        if index is None:
            continue
        abs_err = report.rel_err_x1 * report.x_star_norm
        if not abs_err <= report.bound_rhs:
            problems[tuple(rec.cells[index]["key"])].append(
                f"non-smooth error {abs_err:.6e} exceeds bound_rhs {report.bound_rhs:.6e}")

    if seed == wl.default_seed:
        path = _golden_path(wl, seed, "csv")
        if not os.path.exists(path):
            setup_problems.append(f"golden set {os.path.basename(path)} is missing")
        else:
            with open(path, newline="") as fh:
                golden = list(csv.DictReader(fh))
            setup_problems += _compare_rows(rows, golden, problems)

    for key, cell in by_key.items():
        cell["problems"] = problems[key]
    return setup_problems


def _compare_rows(rows, golden, problems) -> list[str]:
    """Compare the rows of each cell that ran with its golden rows."""
    got_by, want_by = {}, {}
    for table, by in ((rows, got_by), (golden, want_by)):
        for row in table:
            by.setdefault(_row_key(row), []).append(row)
    for key, msgs in problems.items():
        got, want = got_by.get(key, []), want_by.get(key, [])
        if len(got) != len(want):
            msgs.append(f"{len(got)} output rows, golden set has {len(want)}")
            continue
        for g, w in zip(got, want):
            msgs += [f"{w['embedding']} {column}={g.get(column)!r}, golden {w[column]!r}"
                     for column in w
                     if column not in IGNORED_COLUMNS
                     and not values_match(column, g.get(column), w[column])]
    return [f"golden cell {key} was not run" for key in sorted(set(want_by) - set(problems))]


def check_suites(rec, wl, seed: int, results: dict) -> None:
    """Attach problems to the suite cells in ``rec.cells``."""
    golden = None
    path = _golden_path(wl, seed, "json")
    if seed == wl.default_seed and os.path.exists(path):
        with open(path) as fh:
            golden = json.load(fh)
    status = _status_problems(rec)
    for index, cell in enumerate(rec.cells):
        suite = cell["label"]
        result = results[suite]
        problems = list(status.get(index, []))
        if not result["passed"]:
            problems.append(f"certificate failed: {result['detail']}")
        if seed == wl.default_seed:
            want = (golden or {}).get(suite)
            if want is None:
                problems.append(f"no golden verdict in {os.path.basename(path)}")
            elif (want["passed"], want["counts"]) != (result["passed"],
                                                      suite_counts(result["detail"])):
                problems.append(f"verdict/counts {result['passed']} "
                                f"{suite_counts(result['detail'])} differ from golden "
                                f"{want['passed']} {want['counts']}")
        cell["problems"] = problems

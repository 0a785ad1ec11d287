"""Spans recorded from outside the program, around its public functions.

The benchmark never edits the package: it replaces a function by a wrapper in
every ``subsketch.*`` module that holds it, because ``from x import f`` copies
the binding into each importing module.  Spans are kept in memory and written
out after the run.  Nothing here imports the package, so the arithmetic can be
tested without it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time


class StaleSpanTarget(LookupError):
    """A function the benchmark wraps no longer exists under its recorded name."""


class LayerNotExercised(RuntimeError):
    """A layer mapped to the running workload recorded zero calls."""


class Recorder:
    """Cells, solver statuses, spans and counters of one workload execution.

    With ``traced`` false only cell boundaries are timed; other wrappers just
    inspect results (solver convergence, recovery reports) without a clock.
    The current span and cell are context variables, so calls that the
    harness runs on worker threads are attributed to their own cell.
    """

    def __init__(self, run_id: str, traced: bool):
        self.run_id = run_id
        self.traced = traced
        self.spans: list[tuple] = []  # (id, name, start, end, parent, attrs)
        self.counters: dict[str, float] = {}
        self.cells: list[dict] = []
        self.statuses: list[tuple] = []  # (cell index or None, name, converged)
        self.reports: list[tuple] = []  # (cell index or None, name, result)
        self._ids = itertools.count()
        self._parent = contextvars.ContextVar(f"perfbench-parent-{run_id}", default=None)
        self._cell = contextvars.ContextVar(f"perfbench-cell-{run_id}", default=None)
        self._cells_lock = threading.Lock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, inspect=None, cell: dict | None = None):
        """Wrapper of ``fn`` that records a span named ``name`` when traced.

        ``inspect(name, result)`` may return span attributes (such as
        ``iters``).  ``cell`` marks the call as one workload cell: it is timed
        even when not traced, and its start, end and any exception are
        appended to :attr:`cells`.
        """
        timed = cell is not None or self.traced

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cell is None:
                return call(args, kwargs, None)
            entry = dict(cell, args=_cell_args(args, kwargs), error=None)
            with self._cells_lock:
                token = self._cell.set(len(self.cells))
                self.cells.append(entry)
            try:
                return call(args, kwargs, entry)
            finally:
                self._cell.reset(token)

        def call(args, kwargs, entry):
            if not timed:
                result = fn(*args, **kwargs)
                if inspect is not None:
                    inspect(name, result)
                return result
            span_id = next(self._ids)
            token = self._parent.set(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.monotonic()
                if entry is not None:
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                close(span_id, start, end, token, None, entry)
                raise
            end = time.monotonic()
            attrs = inspect(name, result) if inspect is not None else None
            close(span_id, start, end, token, attrs, entry)
            return result

        def close(span_id, start, end, token, attrs, entry):
            self._parent.reset(token)
            self.spans.append((span_id, name, start, end, self._parent.get(), attrs))
            if entry is not None:
                entry["start"], entry["end"] = start, end

        return wrapper

    def record_status(self, name: str, converged: bool) -> None:
        self.statuses.append((self._cell.get(), name, bool(converged)))

    def record_report(self, name: str, report) -> None:
        self.reports.append((self._cell.get(), name, report))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, attrs in self.spans:
                row = {"run": self.run_id, "id": span_id, "name": name, "start": start,
                       "end": end, "parent": parent}
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row) + "\n")


def _cell_args(args, kwargs) -> list:
    """Scalar arguments of a cell call, enough to name the cell in a report."""
    return [a for a in list(args) + list(kwargs.values())
            if isinstance(a, (int, str)) and not isinstance(a, bool)]


def bind_everywhere(original, replacement, prefix: str = "subsketch") -> int:
    """Replace every module-level binding of ``original`` in the modules named
    ``prefix`` or ``prefix.*``; returns how many bindings were replaced."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def lookup(module, attr: str):
    """``getattr(module, attr)`` that names the stale target when it is gone."""
    try:
        return getattr(module, attr)
    except AttributeError:
        raise StaleSpanTarget(f"{module.__name__}.{attr} no longer exists; "
                              "update the benchmark's span targets") from None


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (the union of their clipped intervals)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: summed self time in ms, call count and summed attributes."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span_id, name, _, _, _, attrs in spans:
        t = totals.setdefault(name, {"ms": 0.0, "calls": 0})
        t["ms"] += selfs[span_id] * 1e3
        t["calls"] += 1
        for key, value in (attrs or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list (numpy's default)."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def hd_quantile(samples, p: float) -> float:
    """Harrell–Davis estimate of the ``p`` quantile: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each rank.

    A plain median of a few distinct cell costs jumps across the gap between
    the two middle cells when timing noise swaps their order; this estimate
    moves smoothly instead.
    """
    from scipy.special import betainc  # the package under test depends on scipy

    values = sorted(samples)
    n = len(values)
    if not n:
        raise ValueError("no samples")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], values))


def tail_percentile(samples, beyond: int = 10) -> tuple[int, float]:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(p, value)``.  With too few samples for any such percentile the
    maximum is returned as percentile 100.
    """
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    for p in range(99, -1, -1):
        value = percentile(values, p)
        if sum(v > value for v in values) >= beyond:
            return p, value
    return 100, values[-1]

"""One execution of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per execution and reads the JSON result
file it writes.  Usage::

    python3 perfbench/execute.py --workload NAME --seed N --mode full|setup \
        --traced 0|1 --spawn T --result PATH [--spans PATH] [--write-golden]

``--spawn`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time covers
interpreter start and imports.  ``--mode setup`` runs only the set-up of each
config (instance and reference solve) and no cells.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, spans, workloads  # noqa: E402


def _solver_inspect(rec):
    def inspect(name, result):
        res = result[1] if isinstance(result, tuple) else result
        rec.record_status(name, res.converged)
        return {"iters": int(res.iterations)}
    return inspect


def _nonsmooth_inspect(rec):
    def inspect(name, result):
        rec.record_report(name, result.report)
    return inspect


def _wrap_everywhere(rec, module, attr, name, **kwargs):
    fn = spans.lookup(module, attr)
    spans.bind_everywhere(fn, rec.wrap(name, fn, **kwargs))


def instrument(rec: spans.Recorder, wl: workloads.Workload) -> None:
    """Install cell timers and solver probes, plus layer spans when traced."""
    mods = {name: importlib.import_module(f"subsketch.{name}")
            for name in ("harness", "certify", "synth", "numkit", "embeddings", "losses",
                         "solvers", "estimators", "kernelize", "analysis")}
    if wl.suites:
        suites = mods["certify"].SUITES
        for suite in wl.suites:
            if suite not in suites:
                raise spans.StaleSpanTarget(f"certify suite {suite!r} no longer exists")
            fn = suites[suite]
            wrapped = rec.wrap(f"certify.{suite}", fn, cell={"label": suite})
            spans.bind_everywhere(fn, wrapped)
            suites[suite] = wrapped
    else:
        module, attr = workloads.CELL_FUNCTION
        _wrap_everywhere(rec, mods[module], attr, "harness.cell", cell={})

    for attr in workloads.SOLVER_FUNCTIONS:
        _wrap_everywhere(rec, mods["solvers"], attr, f"solvers.{attr}",
                         inspect=_solver_inspect(rec))
    if not rec.traced:
        _wrap_everywhere(rec, mods["estimators"], "recover_nonsmooth",
                         "estimators.recover_nonsmooth", inspect=_nonsmooth_inspect(rec))
        return

    for module, attr in workloads.LAYER_FUNCTIONS:
        inspect = _nonsmooth_inspect(rec) if attr == "recover_nonsmooth" else None
        _wrap_everywhere(rec, mods[module], attr, f"{module}.{attr}", inspect=inspect)

    losses = mods["losses"]
    classes = [c for c in vars(losses).values()
               if isinstance(c, type) and c.__module__ == losses.__name__]
    for method in workloads.LOSS_METHODS:
        owners = [c for c in classes if method in vars(c)]
        if not owners:
            raise spans.StaleSpanTarget(f"no class in subsketch.losses defines {method!r}")
        for cls in owners:
            setattr(cls, method, rec.wrap(f"losses.{method}", vars(cls)[method]))

    import scipy.optimize

    minimize = scipy.optimize.minimize

    def counted_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        if str(kwargs.get("method", "")).upper() == "L-BFGS-B":
            rec.count("solvers.lbfgsb.calls")
            rec.count("solvers.lbfgsb.nit", int(res.nit))
        return res

    scipy.optimize.minimize = counted_minimize
    spans.bind_everywhere(minimize, counted_minimize)


def run_experiments(rec, wl, seed, setup_only, workdir, spawn):
    """Run each config through ``harness.run_experiment``; returns set-up seconds,
    the CSV rows written, and per-config solver statuses outside cells."""
    from subsketch import harness

    setup_s = 0.0
    rows = []
    setup_statuses = []
    for index, params in enumerate(wl.instance_configs(seed)):
        started = spawn if index == 0 else time.monotonic()
        cells_before, statuses_before = len(rec.cells), len(rec.statuses)
        out_path = os.path.join(workdir, f"config{index}.csv")
        params = dict(params, out_path=out_path)
        if setup_only:
            params["m_list"] = []
        harness.run_experiment(harness.ExperimentConfig(**params))
        new_cells = rec.cells[cells_before:]
        first = new_cells[0]["start"] if new_cells else time.monotonic()
        setup_s += first - started
        for cell in new_cells:
            trial, _, m = cell["args"]
            cell["label"] = (f"{params['embedding']}/{params['loss']} seed={params['seed']} "
                             f"trial={trial} m={m}")
            cell["key"] = [index, trial, m]
        setup_statuses += [(index, name, ok) for cell, name, ok in rec.statuses[statuses_before:]
                           if cell is None]
        with open(out_path, newline="") as fh:
            rows += [dict(r, config=str(index)) for r in csv.DictReader(fh)]
    return setup_s, rows, setup_statuses


def run_suites(rec, wl, seed, spawn):
    from subsketch import certify

    results = {}
    for suite in wl.suites:
        try:
            result = certify.SUITES[suite](seed=seed)
        except Exception as exc:  # recorded on the cell by its wrapper
            results[suite] = {"passed": False, "detail": f"raised {type(exc).__name__}"}
            continue
        results[suite] = {"passed": bool(result.passed), "detail": result.detail}
    for cell in rec.cells:
        cell["key"] = [cell["label"]]
    setup_s = rec.cells[0]["start"] - spawn
    return setup_s, results


def layer_metrics(rec, wl) -> dict[str, float]:
    """Per-layer values of one traced execution, named as in ``PER_LAYER``."""
    totals = spans.layer_totals(rec.spans)
    statuses = [ok for _, _, ok in rec.statuses]
    out = {}
    for metric in workloads.PER_LAYER:
        name = metric["name"]
        layer, _, field = name.rpartition(".")
        if layer == "solvers.lbfgsb":
            calls = rec.counters.get("solvers.lbfgsb.calls", 0)
            value = rec.counters.get(name, 0)
        elif name == "solvers.converged_frac":
            calls = len(statuses)
            value = sum(statuses) / len(statuses) if statuses else 1.0
        elif layer == "trace":
            continue  # computed by run.py across executions
        else:
            t = totals.get(layer, {})
            calls = t.get("calls", 0)
            value = t.get(field, 0)
        if metric["home"] == wl.name and calls == 0:
            raise spans.LayerNotExercised(
                f"{layer} recorded no calls on {wl.name}; the program no longer reaches "
                "it, so the benchmark's layer table must be updated")
        out[name] = value
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas.get("version"),
            "blas_name": blas.get("name")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("full", "setup"), default="full")
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    run_id = os.path.splitext(os.path.basename(args.result))[0]
    rec = spans.Recorder(run_id, traced=bool(args.traced))
    instrument(rec, wl)
    workdir = os.path.dirname(os.path.abspath(args.result))

    setup_problems = []
    if wl.suites:
        setup_s, suite_results = run_suites(rec, wl, args.seed, args.spawn)
        end = time.monotonic()
        if args.write_golden:
            checks.write_suite_golden(wl, args.seed, suite_results)
        checks.check_suites(rec, wl, args.seed, suite_results)
    else:
        setup_s, rows, setup_statuses = run_experiments(
            rec, wl, args.seed, args.mode == "setup", workdir, args.spawn)
        end = time.monotonic()
        if args.write_golden:
            checks.write_row_golden(wl, args.seed, rows)
        if args.mode == "full":
            setup_problems = checks.check_experiments(rec, wl, args.seed, rows, setup_statuses)

    result = {
        "workload": wl.name, "seed": args.seed, "mode": args.mode,
        "traced": bool(args.traced), "run_id": run_id,
        "setup_s": setup_s, "wall_s": end - args.spawn,
        "cells": [{"label": c["label"], "key": c["key"], "ms": (c["end"] - c["start"]) * 1e3,
                   "ok": not c["error"] and not c.get("problems"),
                   "problems": ([c["error"]] if c["error"] else []) + c.get("problems", [])}
                  for c in rec.cells],
        "setup_problems": setup_problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if rec.traced:
        result["layers"] = layer_metrics(rec, wl)
        if args.spans:
            rec.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

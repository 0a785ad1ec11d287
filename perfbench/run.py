"""Benchmark of the subsketch package: end-to-end metrics with tracing off,
per-layer metrics from a separate traced run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``perfbench/workloads.py``):

* ``sweep-smooth``: the README ``sweep`` recipe at paper scale, four
  ``harness.run_experiment`` calls (one per embedding), 24 cells.
* ``nonsmooth-dual``: the ``nonsmooth`` recipe for the l1, hinge and linf
  losses on three n=300, d=600 instances, 36 cells.
* ``certify-fast``: the eight certificate suites that take under 10 s, called
  through ``certify.SUITES``; each suite is one cell.

``perfbench/README.md`` gives the reasons for each workload and which
end-to-end metric each layer should move.

Each execution of a workload runs in a fresh interpreter started by this
script, one after another, with the program's own settings left at their
defaults (BLAS threads, ``SUBSKETCH_THREADS``).  A run repeats executions for
``--seconds`` (at least one), then, for the experiment workloads, repeats the
set-up alone while time remains, and reports medians over executions:

* ``setup_s``: from process start to the first cell, summed over configs;
  includes imports, instance synthesis and reference solves.
* ``wall_s``: process start to the end of the last cell or write.
* ``cells_per_s``: cells / (wall_s - setup_s).
* ``cell_ms.p50``: median over executions of each execution's median cell
  time, the latter as the Harrell–Davis estimate (``spans.hd_quantile``).
* ``cell_ms.tail``: over the cells of all executions, the highest whole
  percentile with at least ten cells beyond it.
* ``ok_frac``: cells that passed every check / cells attempted.
* ``peak_rss_mb``: peak resident memory of the workload process.

A cell fails if it raises, if a solver inside it reports ``converged=False``,
or if its output check fails (golden set at the workload's default seed,
invariants at every seed).  With ``--trace 1`` the run makes one untraced and
at least two traced executions; spans around the package's public functions
give the per-layer metrics, counts are reported as repeated or not, and spans
are written to ``.perfbench_out/<run>/`` after each execution.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--write-golden``
rewrites the golden set from one execution at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import spans, workloads  # noqa: E402

EXECUTE = os.path.join(ROOT, "perfbench", "execute.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Every run must end within 180 s; no execution may start a wait beyond this.
HARD_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Starts executions one at a time and keeps their results."""

    def __init__(self, wl, seed: int, outdir: str, start: float):
        self.wl = wl
        self.seed = seed
        self.outdir = outdir
        self.start = start
        self.results: list[dict] = []

    def execute(self, mode: str, traced: bool, write_golden: bool = False) -> float:
        """Run one execution; returns its duration from spawn to exit."""
        run_id = f"e{len(self.results):02d}-{mode}{'-traced' if traced else ''}"
        result_path = os.path.join(self.outdir, run_id + ".json")
        cmd = [sys.executable, EXECUTE, "--workload", self.wl.name, "--seed", str(self.seed),
               "--mode", mode, "--traced", str(int(traced)), "--result", result_path]
        if traced:
            cmd += ["--spans", os.path.join(self.outdir, run_id + ".spans.jsonl")]
        if write_golden:
            cmd.append("--write-golden")
        timeout = self.start + HARD_LIMIT_S - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("no time left for another execution")
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawn", repr(spawn)], cwd=ROOT, stdout=sys.stderr,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"execution {run_id} exceeded the {HARD_LIMIT_S:.0f} s limit")
        duration = time.monotonic() - spawn
        if proc.returncode != 0:
            raise BenchmarkError(f"execution {run_id} exited with status {proc.returncode}")
        with open(result_path) as fh:
            self.results.append(json.load(fh))
        return duration

    def fits(self, predicted: float, deadline: float) -> bool:
        return time.monotonic() + predicted <= deadline


def schedule(runner: Runner, seconds: float, trace: bool) -> None:
    deadline = runner.start + seconds
    if trace:
        durations = [runner.execute("full", False), runner.execute("full", True),
                     runner.execute("full", True)]
        pair = durations[0] + statistics.mean(durations[1:])
        while runner.fits(pair, deadline):
            runner.execute("full", False)
            runner.execute("full", True)
        return
    full = [runner.execute("full", False)]
    while runner.fits(statistics.mean(full), deadline):
        full.append(runner.execute("full", False))
    if runner.wl.configs:
        setup = [statistics.median(r["setup_s"] for r in runner.results)]
        while runner.fits(statistics.mean(setup), deadline):
            setup.append(runner.execute("setup", False))


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over untraced executions, plus notes on the tail."""
    full = [r for r in results if r["mode"] == "full" and not r["traced"]]
    cell_ms = [c["ms"] for r in full for c in r["cells"]]
    cells = [c for r in results for c in r["cells"]]
    tail_p, tail = spans.tail_percentile(cell_ms)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results if not r["traced"]),
        "wall_s": statistics.median(r["wall_s"] for r in full),
        "cells_per_s": statistics.median(len(r["cells"]) / (r["wall_s"] - r["setup_s"])
                                         for r in full),
        "cell_ms.p50": statistics.median(spans.hd_quantile([c["ms"] for c in r["cells"]], 0.5)
                                         for r in full),
        "cell_ms.tail": tail,
        "ok_frac": sum(c["ok"] for c in cells) / len(cells),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
    }
    notes = {"cell_ms.tail": f"p{tail_p} of {len(cell_ms)} cells",
             "cell_ms.p50": f"median over {len(full)} executions of the Harrell-Davis "
                            f"median of their cells, {len(cell_ms)} in all",
             "setup_s": f"median of {sum(not r['traced'] for r in results)} set-ups",
             "wall_s": f"median of {len(full)} executions"}
    return metrics, notes


def per_layer(results: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics over traced executions, and which counts repeated."""
    traced = [r for r in results if r["traced"]]
    untraced = [r for r in results if not r["traced"] and r["mode"] == "full"]
    metrics, repeated = {}, {}
    for metric in workloads.PER_LAYER:
        name = metric["name"]
        if name.startswith("trace."):
            continue
        values = [r["layers"][name] for r in traced]
        if name in workloads.COUNT_METRICS:
            repeated[name] = all(v == values[0] for v in values)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                      / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    metrics["trace.counts_repeated_frac"] = sum(repeated.values()) / len(repeated)
    return metrics, repeated


def environment(results: list[dict], traced: bool) -> dict:
    def env(name):
        return os.environ.get(name, "unset")

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a bare checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "subsketch")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": env("OPENBLAS_NUM_THREADS"),
            "SUBSKETCH_THREADS": env("SUBSKETCH_THREADS"), **results[0]["env"],
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16], "traced": traced}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None, help="default: the workload's golden seed")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "subsketch", "__init__.py")):
        print(f"perfbench: no subsketch package under {ROOT}/src", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    if not 0 < args.seconds <= HARD_LIMIT_S / 2:
        p.error(f"--seconds must lie in (0, {HARD_LIMIT_S / 2:.0f}] so a run ends within 180 s")
    if args.write_golden and seed != wl.default_seed:
        p.error(f"golden sets are kept only for the default seed {wl.default_seed}")
    start = time.monotonic()
    tag = f"{wl.name}-seed{seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    outdir = os.path.join(OUT_DIR, tag)
    os.makedirs(outdir, exist_ok=True)
    runner = Runner(wl, seed, outdir, start)
    try:
        if args.write_golden:
            runner.execute("full", False, write_golden=True)
        else:
            schedule(runner, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    results = runner.results

    e2e, notes = end_to_end(results)
    units = {m["name"]: m["unit"] for m in workloads.END_TO_END + workloads.PER_LAYER}
    shown = dict(e2e)
    repeated = {}
    if args.trace:
        layers, repeated = per_layer(results)
        shown.update(layers)
    for name, value in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        steady = "" if name not in repeated else ("  repeated" if repeated[name] else "  VARIED")
        print(f"{name:48s} {value:14.6g} {units[name]}{note}{steady}")

    cells = [c for r in results for c in r["cells"]]
    failed = [c for c in cells if not c["ok"]]
    setup_problems = [msg for r in results for msg in r["setup_problems"]]
    for cell in failed:
        print(f"FAILED cell {cell['label']}: {'; '.join(cell['problems'])}")
    for msg in setup_problems:
        print(f"FAILED set-up: {msg}")
    env = environment(results, bool(args.trace))
    print("env " + json.dumps(env))

    metrics = {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
               for m in (workloads.PER_LAYER if args.trace else workloads.END_TO_END)}
    summary = {"correct": not failed and not setup_problems, "attempted": len(cells),
               "failed": len(failed), "metrics": metrics}
    with open(os.path.join(outdir, "run.json"), "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "seconds": args.seconds, "env": env,
                   "notes": notes, "counts_repeated": repeated, "summary": summary,
                   "executions": results}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
